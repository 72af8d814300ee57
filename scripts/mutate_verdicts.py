#!/usr/bin/env python3
"""Mutation check of the verdicts: every check inside a verdict must be
seen to decide.

For every ``verdict(...)`` argument and every assignment to ``ok`` or a
name ending in ``_ok`` in ``src/minorcert``, the script makes each mutant
of the expression:

- the constants ``True`` and ``False``;
- the expression with one conjunct dropped, when it is an ``and``;
- the expression with one comparison negated, when it is a comparison or
  a conjunct is one.

Each mutant is written into a copy of ``src/`` and the verdict tests run
against it with ``-x``; a mutant that leaves them passing survives.  The
tests first run on the unmutated copy, which must pass.

    python3 scripts/mutate_verdicts.py

Run from anywhere; it needs pytest.  Exits 0 when every mutant is killed,
1 when any survives (each is listed), 2 when the unmutated tests fail.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "minorcert")
TESTS = [
    os.path.join("tests", name)
    for name in (
        "test_identity.py",
        "test_faults.py",
        "test_numaccretive.py",
        "test_acceptance.py",
        "test_cli.py",
    )
]


def _site(node):
    """The expression of a verdict site, or None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "verdict" and node.args):
        return node.args[0]
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and (node.targets[0].id == "ok" or node.targets[0].id.endswith("_ok"))):
        return node.value
    return None


def _and(parts):
    return parts[0] if len(parts) == 1 else ast.BoolOp(ast.And(), parts)


def _mutants(expr):
    """(description, mutated expression) of each mutant of ``expr``."""
    yield "True", ast.Constant(True)
    yield "False", ast.Constant(False)
    is_and = isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And)
    conjuncts = expr.values if is_and else [expr]
    for i, part in enumerate(conjuncts):
        before, after = conjuncts[:i], conjuncts[i + 1:]
        if is_and:
            yield f"drop {ast.unparse(part)}", _and(before + after)
        if isinstance(part, ast.Compare):
            negated = ast.UnaryOp(ast.Not(), part)
            yield f"negate {ast.unparse(part)}", _and(before + [negated] + after)


def _offset(lines, lineno, col):
    """The index in the source text of a node's (line, column) position;
    columns are UTF-8 byte offsets."""
    line = lines[lineno - 1]
    return sum(len(s) + 1 for s in lines[:lineno - 1]) + len(line.encode()[:col].decode())


def mutants(path):
    """(line, site text, description, mutated source) of every mutant of
    the module at ``path``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.split("\n")
    sites = (_site(node) for node in ast.walk(ast.parse(source)))
    for expr in sorted(filter(None, sites), key=lambda e: (e.lineno, e.col_offset)):
        start = _offset(lines, expr.lineno, expr.col_offset)
        end = _offset(lines, expr.end_lineno, expr.end_col_offset)
        for description, mutant in _mutants(expr):
            text = source[:start] + f"({ast.unparse(mutant)})" + source[end:]
            yield expr.lineno, ast.unparse(expr), description, text


def _tests_pass(src):
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if not _tests_pass(src):
            print("the unmutated tests fail", file=sys.stderr)
            return 2
        survivors = total = 0
        for name in sorted(os.listdir(os.path.join(ROOT, PACKAGE))):
            if not name.endswith(".py"):
                continue
            target = os.path.join(tmp, PACKAGE, name)
            with open(target, encoding="utf-8") as fh:
                original = fh.read()
            try:
                for line, site, description, text in mutants(target):
                    with open(target, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    total += 1
                    survived = _tests_pass(src)
                    survivors += survived
                    state = "SURVIVED" if survived else "killed"
                    print(f"{state:8} {name}:{line} {site} -> {description}", flush=True)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(original)
        print(f"{total - survivors} of {total} mutants killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
