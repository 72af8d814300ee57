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


def _fresh(probe, *args):
    """Runs probe in a fresh ``python -S`` process (the site hooks, which
    may import pathlib themselves, kept out of the picture); its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(minorcert.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *args], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def test_cli_start_up_imports_nothing_it_does_not_use():
    # dataclasses pulls in inspect, ast, dis and tokenize; no command needs
    # them, nor pathlib or typing, and only `bench det` needs hashlib.  Only
    # the float claims need the float layer, numaccretive.
    probe = (
        "import sys\n"
        "from minorcert import cli\n"
        "cli._build_parser()\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'hashlib', 'pathlib',"
        " 'typing', 'minorcert.numaccretive') if m in sys.modules))\n"
    )
    assert _fresh(probe) == "[]\n"


EXACT_COMMANDS = [
    "verify johnson --n 4",
    "verify lemmas --n 5 --trials 2",
    "verify bt --scalar rat --dim 4 --trials 3",
    "verify specialization --m 5",
    "verify johnson --mode numeric --n 6 --trials 3",
    "bench det --algo bareiss --order 3 --trials 1",
]
FLOAT_LAYER_COMMANDS = [
    "verify accretive --dim 3 --trials 2",
    "verify bt --scalar real --dim 3 --trials 2",
    "repro remark45",
    "search complex --iters 10",
]


@pytest.mark.parametrize(
    "command,loads",
    [*((c, False) for c in EXACT_COMMANDS), *((c, True) for c in FLOAT_LAYER_COMMANDS)],
)
def test_only_the_float_claims_load_the_float_layer(command, loads):
    probe = (
        "import os, sys\n"
        "from minorcert import cli\n"
        "rc = cli.main(sys.argv[1:] + ['--out', os.devnull])\n"
        "print(rc, 'minorcert.numaccretive' in sys.modules)\n"
    )
    assert _fresh(probe, *command.split()) == f"0 {loads}\n"
