import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_no_module_imports_another_modules_private_names():
    # each module keeps its private helpers to itself; tests may still
    # import them
    paths = sorted(Path(minorcert.__file__).parent.glob("*.py"))
    assert len(paths) == len(MODULES) + 1  # and __init__
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert offenders == []


def test_cli_start_up_imports_nothing_it_does_not_use():
    # dataclasses pulls in inspect, ast, dis and tokenize; no command needs
    # them, nor pathlib or typing, and only `bench det` needs hashlib.  -S
    # keeps the site hooks, which may import pathlib themselves, out of the
    # picture.
    probe = (
        "import sys\n"
        "from minorcert import cli\n"
        "cli._build_parser()\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'hashlib', 'pathlib',"
        " 'typing') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(minorcert.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
