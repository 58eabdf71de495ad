"""The package's public names: each module's ``__all__`` is the one list of them."""

import catenary
from catenary import closed_forms, curvature, errors, revolution, surfaces, tracing

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
