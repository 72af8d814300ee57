"""minorcert benchmark harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S     # every workload in turn
    python3 perfbench/run.py --record-digests

A run makes passes of the workload (``onepass.py``, one single-threaded
process at a time) until ``--seconds`` would be exceeded, with at least
MIN_PASSES passes.  Before each pass it starts SETUP_PROBES fresh
interpreters that only import ``minorcert`` and build the CLI parser.  The
first pass uses the CLI's default seed, so the recorded report digests are
checked in every run; the others use ``--seed``.

With ``--trace 0`` the last line reports the end-to-end metrics, medians
over the run: ``wall_ref`` and ``hardest_cmd_ref`` (pass and slowest-command
wall time in units of a reference loop timed around and during every
command, see ``speed.py``), ``setup_s`` (each probe's set-up time divided by
the reference time measured right after it, times ``NOMINAL_REF_S``) and
``peak_rss_mb``.  With ``--trace 1`` traced and untraced passes alternate and
the last line reports the per-layer metrics of the traced passes, plus
``trace.overhead_s`` (traced minus untraced wall time) and
``trace.unattributed_s`` (traced wall time outside every top-level span).
``fail_frac`` is failed checks over attempted checks; it is printed, and
carried by the ``failed`` and ``attempted`` fields of the last line.

The lines before the last one give every metric with its unit, the sample
counts and the environment; the full samples go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_REF_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
ONEPASS = HERE / "onepass.py"

SETUP_PROBES = 3   # set-up-only interpreters started before each pass
MIN_PASSES = 3
RUN_LIMIT_S = 170.0   # a run must end within 180 s

UNITS = {"wall_ref": "ref", "hardest_cmd_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, deadline) -> dict:
    """Runs one onepass.py process; returns its JSON plus wall and set-up time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("run time limit reached")
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(ONEPASS), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"pass {args} exceeded the run time limit") from None
    t1 = time.monotonic_ns()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(
            f"pass {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = (t1 - t0) / 1e9 - doc.get("calib_s", 0.0)
    doc["setup_s"] = (doc["ready_ns"] - t0) / 1e9
    return doc


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    beyond = 10
    if n <= beyond:
        return f"n={n}, no percentile has 10 samples beyond it"
    pct = math.floor(100.0 * (n - beyond) / n)
    rank = max(0, math.ceil(pct / 100.0 * n) - 1)
    return f"n={n}, p{pct}={sorted(values)[rank]:.4f}"


def read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": read_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": "ROADMAP's baseline table was measured on CPython 3.10; "
                "its numbers are not comparable with these.",
    }


def run_passes(args, deadline):
    """Passes, each after SETUP_PROBES set-up probes, until the measuring
    window is used up.  Pass 0 is the default-seed gate pass; with --trace 1
    the later passes alternate traced and untraced, traced first."""
    start = time.monotonic()
    setups, passes = [], []
    last_wall = {}
    while True:
        i = len(passes)
        trace = int(bool(args.trace) and i % 2 == 1)
        elapsed = time.monotonic() - start
        if i >= MIN_PASSES and elapsed + last_wall.get(trace, 0.0) > args.seconds:
            break
        extra = ["--workload", args.workload, "--trace", str(trace),
                 "--seed", "default" if i == 0 else str(args.seed)]
        if trace:
            OUT.mkdir(exist_ok=True)
            extra += ["--spans", str(OUT / f"spans-{args.workload}.json")]
        setups += [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        doc = spawn(extra, deadline)
        doc["trace"] = trace
        passes.append(doc)
        last_wall[trace] = doc["wall_s"]
    return setups, passes


def cross_checks(passes):
    """Digests of one command must agree across passes with the same seed,
    traced or not.  Returns (attempted, failures)."""
    attempted, failures, first = 0, [], {}
    for p in passes:
        for res in p["commands"]:
            key = (p["seed"], res["key"])
            if key not in first:
                first[key] = res["digest"]
                continue
            attempted += 1
            if res["digest"] != first[key]:
                kind = "traced" if p["trace"] else "untraced"
                failures.append(f"{kind} report differs between passes: {res['key']}")
    return attempted, failures


def normalized(p) -> tuple[float, float]:
    """Pass wall time and slowest command time in reference units: each
    command is divided by the reference time measured around it, and the
    time outside the commands by the first reference."""
    cmds = p["commands"]
    outside = p["wall_s"] - sum(c["seconds"] for c in cmds)
    scaled = [c["seconds"] / c["ref_s"] for c in cmds]
    return outside / cmds[0]["ref_s"] + sum(scaled), max(scaled)


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """Returns (metrics, samples); the samples also hold the raw seconds."""
    scaled = [normalized(p) for p in passes]
    samples = {
        "wall_ref": [w for w, _ in scaled],
        "hardest_cmd_ref": [h for _, h in scaled],
        "setup_s": [p["setup_s"] / p["ref_s"] * NOMINAL_REF_S for p in setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {k: {"value": statistics.median(v), "unit": UNITS[k]}
               for k, v in samples.items()}
    samples["setup_raw_s"] = [p["setup_s"] for p in setups]
    samples["wall_s"] = [p["wall_s"] for p in passes]
    samples["hardest_cmd_s"] = [max(c["seconds"] for c in p["commands"]) for p in passes]
    samples["reference_s"] = [c["ref_s"] for p in passes for c in p["commands"]]
    return metrics, samples


def per_layer(passes) -> tuple[dict, dict]:
    traced = [p for p in passes if p["trace"]]
    untraced = [p for p in passes[1:] if not p["trace"]]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        unit = "s" if name.endswith("_s") else (
            "calls/claim" if name.endswith("per_claim") else "count")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    unattributed = statistics.median(p["wall_s"] - p["root_s"] for p in traced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": unattributed, "unit": "s"}
    samples = {"traced_wall_s": [p["wall_s"] for p in traced],
               "untraced_wall_s": [p["wall_s"] for p in untraced]}
    return metrics, samples


def command_medians(passes) -> dict:
    """Per command of the untraced passes: median seconds and reference units."""
    by_key = {}
    for p in passes:
        if p["trace"]:
            continue
        for c in p["commands"]:
            by_key.setdefault(c["key"], []).append((c["seconds"], c["seconds"] / c["ref_s"]))
    return {k: {"s": statistics.median(s for s, _ in v),
                "ref": statistics.median(r for _, r in v)} for k, v in by_key.items()}


def check_root():
    if not (ROOT / "src" / "minorcert" / "__init__.py").is_file():
        raise HarnessError(f"no src/minorcert under {ROOT}; run from a checkout root")


def bench(args) -> None:
    check_root()
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(args)
    setups, passes = run_passes(args, deadline)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    n, f = cross_checks(passes)
    attempted += n
    failures += f
    if args.trace:
        metrics, samples = per_layer(passes)
    else:
        metrics, samples = end_to_end(passes, setups)
    fail_frac = len(failures) / attempted

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}: {len(passes)} passes "
          f"({sum(p['trace'] for p in passes)} traced), {len(setups)} set-ups")
    for msg in failures:
        print(f"FAILED: {msg}")
    for name, m in metrics.items():
        line = f"  {name:34s} {m['value']:.6g} {m['unit']}"
        if name in samples:
            line += f"  (median; {tail(samples[name])})"
        print(line)
    for name, values in samples.items():
        if name not in metrics:  # raw seconds, printed but not gated
            print(f"  {name:34s} {statistics.median(values):.6g} s  (median; {tail(values)})")
    print(f"  {'fail_frac':34s} {fail_frac:.6g} ({len(failures)} of {attempted} checks)")

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "samples": samples,
              "fail_frac": fail_frac, "failures": failures,
              "command_medians": command_medians(passes)}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def record_digests() -> int:
    """Writes digests.json: every command's report digest at the default seed."""
    check_root()
    deadline = time.monotonic() + 600.0
    out = {"workloads": {}}
    for name in WORKLOADS:
        doc = spawn(["--workload", name, "--seed", "default", "--no-golden"], deadline)
        if doc["failures"]:
            raise HarnessError(f"{name}: {doc['failures']}")
        out["seed"] = doc["default_seed"]
        out["workloads"][name] = {c["key"]: c["digest"] for c in doc["commands"]}
    (HERE / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="the workload to run (default: all of them in turn)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.record_digests:
            return record_digests()
        for name in [args.workload] if args.workload else list(WORKLOADS):
            bench(argparse.Namespace(**{**vars(args), "workload": name}))
        return 0
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
