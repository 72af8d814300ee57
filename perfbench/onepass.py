"""One benchmark pass: a fresh interpreter runs one workload's commands.

Run from the root of a checkout, by ``run.py``:

    python3 perfbench/onepass.py --workload NAME --seed N|default
        [--trace 0|1] [--spans PATH] [--setup-only] [--no-golden]

The first thing the pass does is import ``minorcert`` from ``src/`` and build
the CLI parser (``cli.main(["--help"])``); the monotonic clock reading at that
point, ``ready_ns``, lets the parent compute the set-up time; with
``--setup-only`` the process then only times the reference loop of
``speed.py`` and exits.  Otherwise every command of the workload runs through
``minorcert.cli.main`` with its report captured (untraced passes sample the
machine's speed around and during each command, see ``speed.py``), and the
pass checks it:

- each command exits with status 0;
- at the CLI's default seed, each report digest equals the one recorded in
  ``digests.json`` (for ``bench det`` only the ``det_hash`` column counts,
  because ``nanos`` varies);
- in ``bench det``, all engines give the same ``det_hash`` for each scalar,
  order and trial.

The last line of standard output is one JSON object for the parent.
"""

import os
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import contextlib  # noqa: E402
import io  # noqa: E402

import minorcert  # noqa: E402
from minorcert import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def run_command(cmd):
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(cmd.argv))
    except SystemExit as e:  # argparse rejected the command line
        code = e.code
    except Exception:  # noqa: BLE001 - a crash is a failed check, not a harness error
        traceback.print_exc()
        code = "exception"
    t1 = time.perf_counter()
    text = buf.getvalue()
    det_rows = None
    if cmd.det is not None and code == 0:
        det_rows = [(r["trial"], r["det_hash"]) for r in json.loads(text)]
        text = json.dumps(det_rows)
    return {
        "key": cmd.key,
        "code": code,
        "t0": t0,
        "t1": t1,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }, det_rows


def check(commands, results, det_rows, golden):
    """Returns (attempted, failures) for the checks made inside one pass."""
    attempted = 0
    failures = []
    for res in results:
        attempted += 1
        if res["code"] != 0:
            failures.append(f"exit status {res['code']}: {res['key']}")
    if golden is not None:
        for res in results:
            attempted += 1
            want = golden.get(res["key"])
            if want != res["digest"]:
                failures.append(f"report digest mismatch: {res['key']}")
    hashes = defaultdict(set)
    engines = defaultdict(int)
    for cmd, rows in zip(commands, det_rows):
        if cmd.det is None or rows is None:
            continue
        engines[cmd.det] += 1
        for trial, digest in rows:
            hashes[(*cmd.det, trial)].add(digest)
    for (scalar, order, trial), seen in sorted(hashes.items()):
        if engines[(scalar, order)] < 2:
            continue
        attempted += 1
        if len(seen) != 1:
            failures.append(f"det_hash disagreement: {scalar} order {order} trial {trial}")
    return attempted, failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", default="default")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="write the trace spans here")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--no-golden", action="store_true",
                   help="skip the digest gate (used when recording digests)")
    args = p.parse_args(argv)

    src_real = os.path.realpath(SRC) + os.sep
    if not os.path.realpath(minorcert.__file__).startswith(src_real):
        print(f"minorcert was imported from {minorcert.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"ready_ns": READY_NS, "ref_s": speed.reference_seconds()}))
        return 0
    if args.workload is None:
        p.error("--workload is required")

    seed = cli.DEFAULT_SEED if args.seed == "default" else int(args.seed)
    golden = None
    if seed == cli.DEFAULT_SEED and not args.no_golden:
        with open(DIGESTS) as fh:
            golden = json.load(fh)["workloads"].get(args.workload, {})
    commands = workloads.plan(args.workload, seed)

    # Untraced passes sample the machine's speed (see speed.py); traced
    # passes do not, so that the sampler's time stays out of the spans.
    tracer = sampler = None
    outcomes = []
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        try:
            tracer.install()
            outcomes = [run_command(cmd) for cmd in commands]
        finally:
            tracer.uninstall()
    else:
        with speed.SpeedSampler() as sampler:
            marks = []
            for cmd in commands:
                marks.append(sampler.mark())
                outcomes.append(run_command(cmd))
            marks.append(sampler.mark())
    results = [r for r, _ in outcomes]
    for i, res in enumerate(results):
        t0, t1 = res.pop("t0"), res.pop("t1")
        res["seconds"] = t1 - t0
        if sampler is not None:
            res["ref_s"], inside = sampler.window(marks[i], marks[i + 1], t0, t1)
            res["seconds"] -= inside
    attempted, failures = check(commands, results, [d for _, d in outcomes], golden)

    doc = {
        "ready_ns": READY_NS,
        "seed": seed,
        "default_seed": cli.DEFAULT_SEED,
        "commands": results,
        "attempted": attempted,
        "failures": failures,
        "calib_s": sampler.total_s if sampler is not None else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": None,
        "root_s": None,
    }
    if tracer is not None:
        attempted += 1
        leftover = tracer.leftover_wrappers()
        if leftover:
            failures.append(f"tracing wrappers not restored: {', '.join(leftover)}")
        doc["attempted"] = attempted
        doc["layers"] = tracer.layer_metrics()
        doc["root_s"] = tracer.root_seconds()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
