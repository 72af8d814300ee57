import importlib
import pkgutil

import pytest

import minorcert

MODULES = ["cli", "detkit", "identity", "matrix", "numaccretive", "report", "ring", "rng"]


@pytest.mark.parametrize("name", [f"minorcert.{m}" for m in MODULES])
def test_every_all_entry_resolves(name):
    # The benchmark tracer installs its spans by iterating these lists with
    # getattr, so a name left behind by a deletion would break every traced run.
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.__all__ names missing {entry!r}"


def test_every_module_is_checked():
    # a new module must join MODULES above
    found = {m.name for m in pkgutil.iter_modules(minorcert.__path__)}
    assert found == set(MODULES)
