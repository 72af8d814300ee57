"""Self-test of the benchmark's tracing.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that small commands of every workload give identical report digests
traced and untraced, that every layer records spans, and that every tracing
wrapper is restored afterwards, also when a traced call raises.  Exits 0 on
success and 1 with the failed checks listed otherwise.
"""

import sys

import onepass  # imports minorcert from src/ first
import workloads
from minorcert import detkit
from minorcert.matrix import Matrix
from minorcert.ring import MultiPoly
from tracer import MODULES, Tracer

SMALL = [
    ["verify", "johnson", "--mode", "symbolic", "--n", "6"],
    ["verify", "lemmas", "--n", "5", "--trials", "5"],
    ["verify", "specialization", "--m", "7"],
    ["verify", "bt", "--scalar", "rat", "--dim", "5", "--trials", "10"],
    ["verify", "accretive", "--dim", "4", "--trials", "8"],
    ["search", "complex", "--dim", "3", "--iters", "200"],
    ["verify", "johnson", "--mode", "numeric", "--n", "6", "--trials", "10"],
    *(["bench", "det", "--algo", algo, "--scalar", "poly", "--order", "4",
       "--trials", "3"] for algo in sorted(detkit.DET_ALGOS)),
]

LAYERS = ("cli.", "identity.", "numaccretive.", "detkit.", "ring.", "matrix.", "rng.")


def snapshot() -> dict:
    """Every callable in the namespaces the tracer patches."""
    items = {("DET_ALGOS", k): v for k, v in detkit.DET_ALGOS.items()}
    for module in MODULES:
        items.update({(module.__name__, k): v for k, v in vars(module).items() if callable(v)})
    for cls in (MultiPoly, Matrix):
        items.update({(cls.__name__, k): v for k, v in vars(cls).items() if callable(v)})
    return items


def digests(commands):
    return [onepass.run_command(c)[0]["digest"] for c in commands]


def main() -> int:
    commands = [workloads.Command(argv=[*a, "--seed", "7"], key=" ".join(a),
                                  det=("poly", 4) if a[0] == "bench" else None)
                for a in SMALL]
    failures = []
    before = snapshot()
    plain = digests(commands)

    tracer = Tracer()
    try:
        tracer.install()
        if snapshot() == before:
            failures.append("install patched nothing")
        traced = digests(commands)
        try:
            detkit.det_bareiss(Matrix(2, 3, [1, 2, 3, 4, 5, 6]))
        except ValueError:
            pass
        else:
            failures.append("a traced call that must raise did not")
    finally:
        tracer.uninstall()

    for cmd, a, b in zip(commands, plain, traced):
        if a != b:
            failures.append(f"traced report differs: {cmd.key}")
    after = snapshot()
    for key, value in before.items():
        if after.get(key) is not value:
            failures.append(f"not restored: {key[0]}.{key[1]}")
    if set(after) != set(before):
        failures.append(f"names added or removed: {sorted(set(after) ^ set(before))}")
    if Tracer.leftover_wrappers():
        failures.append(f"wrappers left: {Tracer.leftover_wrappers()}")
    names = {s[0] for s in tracer.spans}
    for layer in LAYERS:
        if not any(n.startswith(layer) for n in names):
            failures.append(f"no spans recorded for layer {layer[:-1]}")
    if any(s[2] < s[1] for s in tracer.spans):
        failures.append("a span ends before it starts")

    for msg in failures:
        print(f"FAIL: {msg}")
    print(f"selftest: {len(commands)} commands, {len(tracer.spans)} spans, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
