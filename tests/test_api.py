"""The package's public names: each module's ``__all__`` is the one list of them.  Its
records are immutable NamedTuples with pinned fields; ``Trace`` is a plain class."""

import pytest

import catenary
from catenary import closed_forms, curvature, errors, revolution, surfaces, tracing, validation

_MODULES = (errors, surfaces, curvature, tracing, revolution, closed_forms)


def test_package_all_is_the_modules_all_lists():
    names = [name for module in _MODULES for name in module.__all__]
    assert catenary.__all__ == names
    assert len(set(names)) == len(names)
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(catenary, name) is getattr(module, name)


def test_errors_all_lists_every_library_error():
    defined = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.CatenaryError)}
    assert set(errors.__all__) == defined
    assert "check_finite" not in catenary.__all__


# the immutable records: (class, field names in order, defaults)
_RECORDS = [
    (surfaces.MetricPatch, ("identifier", "metric", "domain"), {}),
    (surfaces.RevolutionProfile, ("a", "a_u", "a_uu", "knots", "pieces"),
     {"knots": (), "pieces": ()}),
    (surfaces.SurfaceSpec, ("kind", "params", "patch", "profile", "profile_warning"),
     {"profile": None, "profile_warning": False}),
    (curvature.CurveJet2, ("u", "v", "du", "dv", "ddu", "ddv"), {}),
    (tracing.CatenaryState, ("u", "v", "phi"), {}),
    (closed_forms.ClosedFormFamily, ("family", "params", "domain", "value", "d1", "d2"), {}),
    (validation.CheckResult, ("name", "passed", "value", "threshold", "detail"), {}),
]


@pytest.mark.parametrize("record, fields, defaults", _RECORDS,
                         ids=[record.__name__ for record, _, _ in _RECORDS])
def test_records_are_immutable_named_tuples(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults
    values = {name: f"<{name}>" for name in fields}  # records check none of their fields
    made = record(**values)
    assert made == record(*values.values()) == tuple(values.values())
    required = {name: values[name] for name in fields if name not in defaults}
    assert record(**required) == tuple({**values, **defaults}.values())
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(made, name, 0.0)
    changed = made._replace(**{fields[-1]: "new"})
    assert changed == (*made[:-1], "new") and made[-1] == values[fields[-1]]


def test_check_result_to_dict_keeps_the_field_order():
    result = validation.CheckResult(name="n", passed=True, value=0.5, threshold=1.0, detail="d")
    out = result.to_dict()
    assert type(out) is dict
    assert list(out.items()) == [("name", "n"), ("passed", True), ("value", 0.5),
                                 ("threshold", 1.0), ("detail", "d")]


def test_trace_is_built_from_keywords():
    traced = tracing.trace_catenary(surfaces.catalog_surface("sphere"), 1.0,
                                    tracing.CatenaryState(u=0.7, v=0.0, phi=1.0), s_max=1.0)
    rebuilt = tracing.Trace(spec=traced.spec, alpha=1.0, samples=traced.samples,
                            termination=traced.termination, stats=traced.stats,
                            _segments=traced._segments, _t_final=traced._t_final)
    assert rebuilt.mode == "arclength"
    assert [rebuilt.at(s / 8) for s in range(9)] == [traced.at(s / 8) for s in range(9)]
    empty = tracing.Trace(spec=traced.spec, alpha=1.0, samples=[], termination="blow_up",
                          stats={}, mode="graph")
    assert (empty.mode, empty._segments, empty._t_final) == ("graph", [], 0.0)
    with pytest.raises(errors.ConfigError, match="took no step"):
        empty.at(0.0)
