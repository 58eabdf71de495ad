"""The package's public names: ``catenary._MODULES`` is the one list of them, each module
reads its ``__all__`` from it, and a module loads on the first use of one of its names.
Its records are immutable NamedTuples with pinned fields; ``Trace`` is a plain class.  A
wrong object where a record belongs raises ConfigError."""

import math
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import catenary
from catenary import closed_forms, curvature, errors, revolution, surfaces, tracing, validation
from catenary import *  # noqa: F403 - the star import is under test

_MODULES = (errors, surfaces, curvature, tracing, revolution, closed_forms)


def test_package_all_is_the_modules_all_lists():
    names = [name for module in _MODULES for name in module.__all__]
    assert catenary.__all__ == names
    assert len(set(names)) == len(names)
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(catenary, name) is getattr(module, name)


def test_star_import_and_dir_give_every_public_name():
    star = {name: value for name, value in globals().items() if name in catenary.__all__}
    assert len(star) == len(catenary.__all__) == 50
    assert all(value is getattr(catenary, name) for name, value in star.items())
    assert set(catenary.__all__) <= set(dir(catenary))
    assert catenary.trace_catenary is tracing.trace_catenary


@pytest.mark.parametrize("name", ["no_such_name", "_instance", "check_finite", "a.b", ""])
def test_unknown_names_raise_attribute_error(name):
    assert not hasattr(catenary, name)
    with pytest.raises(AttributeError, match="has no attribute"):
        getattr(catenary, name)


def _loaded_after(code):
    """The sorted catenary.* modules a fresh interpreter holds after running code."""
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('catenary')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


@pytest.mark.parametrize("code, modules", [
    ("import catenary", ["catenary"]),
    ("import catenary; catenary.CatenaryError", ["catenary", "catenary.errors"]),
    ("import catenary; catenary.surfaces.catalog_surface",
     ["catenary", "catenary.errors", "catenary.surfaces"]),
    # a submodule outside the six is imported alone, not found by a search of them
    ("from catenary import quadpack", ["catenary", "catenary.quadpack"]),
    ("from catenary.revolution import quad; quad(abs, 0.0, 1.0)",
     ["catenary", "catenary.errors", "catenary.quadpack", "catenary.revolution",
      "catenary.surfaces"]),
])
def test_modules_load_on_first_use(code, modules):
    assert _loaded_after(code) == repr(modules)


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


_SPHERE = surfaces.catalog_surface("sphere")
_START = tracing.CatenaryState(0.7, 0.0, 1.0)
_JET = curvature.CurveJet2(0.7, 0.0, 1.0, 0.0, 0.0, 0.0)


# each of these leaked an AttributeError from reading a field of the float
@pytest.mark.parametrize("call", [
    lambda: trace_catenary(1.5, 1.0, _START, 1.0),
    lambda: trace_graph(1.5, 1.0, 1.0, 0.0, (0.0, 1.0)),
    lambda: critical_parallels(1.5, 1.0),
    lambda: turning_points(1.5, 1.0, 0.5),
    lambda: quadrature_v(1.5, 1.0, 0.5, 1.0, 1.2),
    lambda: embed_revolution(1.5, 0.7, 0.0),
    lambda: geodesic_curvature(1.5, _JET),
    lambda: eval_metric(1.5, 0.7, 0.0),
    lambda: trace_catenary(_SPHERE, 1.0, 1.5, 1.0),
    lambda: clairaut_constant(_SPHERE, 1.0, 1.5),
    lambda: geodesic_curvature(_SPHERE, 1.5),
    lambda: validate_closed_form(1.5, _SPHERE, 1.0, [0.1]),
], ids=["trace_catenary-spec", "trace_graph-spec", "critical_parallels-spec",
        "turning_points-spec", "quadrature_v-spec", "embed_revolution-spec",
        "geodesic_curvature-spec", "eval_metric-spec", "trace_catenary-start",
        "clairaut_constant-state", "geodesic_curvature-jet", "validate_closed_form-family"])
def test_a_float_where_a_record_belongs_raises_config_error(call):
    with pytest.raises(errors.ConfigError, match="of type float is not a"):
        call()


class _FloatOnly:
    """Has __float__ but is no number: it does not compare with floats."""

    def __float__(self):
        return 0.5


_NO_NUMBER = _FloatOnly()


# the first eight leaked a TypeError from comparing or computing with the object; the
# last takes MetricPatch.evaluate's branch for a coordinate that is not a number
@pytest.mark.parametrize("call", [
    lambda: eval_metric(_SPHERE, _NO_NUMBER, 0.0),
    lambda: closed_form_family("euclidean").value(_NO_NUMBER),
    lambda: euclidean_catenary(1.0, 0.0, _NO_NUMBER),
    lambda: trace_catenary(_SPHERE, 1.0, tracing.CatenaryState(_NO_NUMBER, 0.0, 1.0), 1.0),
    lambda: trace_graph(_SPHERE, 1.0, _NO_NUMBER, 0.0, (0.0, 1.0)),
    lambda: critical_parallels(_SPHERE, _NO_NUMBER),
    lambda: geodesic_curvature(_SPHERE, curvature.CurveJet2(_NO_NUMBER, 0.0, 1.0, 0.0,
                                                            0.0, 0.0)),
    lambda: parallel_catenary_check(_SPHERE, _NO_NUMBER, 0.5, [0.0]),
    lambda: eval_metric(_SPHERE, "x", 0.0),
    # Decimal compares with floats but does not add to them (check_finite)
    lambda: eval_metric(catalog_surface("hyperbolic"), Decimal("0.3"), 0.0),
    lambda: trace_catenary(_SPHERE, 1.0, tracing.CatenaryState(Decimal("0.7"), 0.0, 1.0), 1.0),
    lambda: clairaut_constant(_SPHERE, 1.0, tracing.CatenaryState(Decimal("0.7"), 0.0, 1.0)),
], ids=["eval_metric-u", "closed_form_value-t", "euclidean_catenary-t",
        "trace_catenary-start.u", "trace_graph-u0", "critical_parallels-alpha",
        "geodesic_curvature-jet.u", "parallel_catenary_check-alpha", "eval_metric-str",
        "eval_metric-decimal", "trace_catenary-decimal", "clairaut_constant-decimal"])
def test_a_value_that_is_no_number_raises_config_error(call):
    with pytest.raises(errors.ConfigError, match="is not a number"):
        call()


def test_numbers_of_other_types_are_finite_numbers():
    errors.check_finite(f=Fraction(1, 3), b=True, i=7, x=0.5)
    with pytest.raises(errors.ConfigError, match="must be finite"):
        errors.check_finite(f=Fraction(1, 3), x=math.inf)
    # Decimal compares with floats but does not add to them, so it is refused
    for d in (Decimal("0.5"), Decimal("Infinity")):
        with pytest.raises(errors.ConfigError, match="is not a number"):
            errors.check_finite(d=d)
