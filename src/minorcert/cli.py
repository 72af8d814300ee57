"""Command-line front end: verification suites, the complex diagnostic, the
randomized search, and the determinant benchmark.

Commands
    verify johnson        symbolic or numeric minor-identity certificates
    verify lemmas         reduced cases, skew-adjugate facts, rank-one expansion
    verify bt             rank-one symmetric-part equality (exact or float)
    verify specialization exact values at b1 = 1, bk = 0
    verify accretive      determinant/adjugate/minor-inequality suite
    repro remark45        the hard-coded complex counterexample
    search complex        seeded randomized violation search
    bench det             timing rows for the three determinant engines

All randomness flows from ``--seed`` (fixed default, never time-based)
through SplitMix64 substreams, and reports are emitted in a deterministic
order, so identical invocations produce byte-identical output.

The seeded suites (``verify accretive``, ``verify bt`` and ``verify
johnson --mode numeric``) and the whole ``verify lemmas`` battery, its
symbolic claims included, share their jobs out across the CPUs of the
affinity mask (``rng.map_trials``): each process takes the next job from
one shared queue, with the same bytes and the same first error as one
CPU.  A run splits whenever it has at least two jobs and two CPUs; no
option sets the count.
``search complex`` stays sequential, since each step of its hill climb
starts from the best so far, and so does ``bench det``, since it times
each determinant.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import identity as idmod
from .detkit import DET_ALGOS
from .rng import random_int_matrix, random_poly_matrix, substream

__all__ = ["DEFAULT_SEED", "main", "run"]

DEFAULT_SEED = 123456789


def run(args: argparse.Namespace):
    """Dispatches validated arguments; returns (payload, all_verified)."""
    return _HANDLERS[(args.command, args.subcommand)](args)


def _seeded(reports, seed):
    """Sorts reports by claim and stamps the run's seed on every one."""
    reports = [r._replace(seed=seed) for r in sorted(reports, key=lambda r: r.claim)]
    return reports, all(r.verified for r in reports)


def _verify_johnson(args):
    if args.mode == "symbolic":
        reports = [idmod.verify_johnson_symbolic(args.n, max_n=args.max_n)]
    else:
        reports = idmod.johnson_numeric_suite(args.n, args.trials, args.seed)
    return _seeded(reports, args.seed)


def _verify_lemmas(args):
    return _seeded(idmod.lemmas_suite(args.n, args.trials, args.seed), args.seed)


def _verify_bt(args):
    reports = idmod.bt_suite(args.dim, args.trials, args.seed, scalar=args.scalar)
    return _seeded(reports, args.seed)


def _verify_specialization(args):
    return _seeded([idmod.specialization_certificate(args.m)], args.seed)


# The float layer is imported by the three handlers that use it, so the
# parser, every exact command and `bench det` start without compiling it.

def _verify_accretive(args):
    from . import numaccretive

    reports = numaccretive.accretive_suite(args.dim, args.trials, args.seed)
    return _seeded(reports, args.seed)


def _repro_remark45(args):
    from . import numaccretive

    return [numaccretive.remark45_repro()], True


def _search_complex(args):
    from . import numaccretive

    witnesses = numaccretive.search_complex_violation(
        args.dim, args.iters, args.seed, init=args.init
    )
    return witnesses, True


def _bench_det(args):
    import hashlib  # only this command hashes; every other one skips the import

    # one process, one trial at a time: a worker busy beside a timed
    # determinant would skew its nanos
    rows = []
    fn = DET_ALGOS[args.algo]
    for t in range(args.trials):
        stream = substream(args.seed, 4000 + t)
        if args.scalar == "poly":
            a = random_poly_matrix(stream, args.order)
        else:
            a = random_int_matrix(stream, args.order)
        t0 = time.perf_counter_ns()
        value = fn(a)
        nanos = time.perf_counter_ns() - t0
        digest = hashlib.sha256(str(value).encode()).hexdigest()[:16]
        rows.append(
            {
                "algo": args.algo,
                "order": args.order,
                "trial": t,
                "nanos": nanos,
                "det_hash": digest,
            }
        )
    return rows, True


_HANDLERS = {
    ("verify", "johnson"): _verify_johnson,
    ("verify", "lemmas"): _verify_lemmas,
    ("verify", "bt"): _verify_bt,
    ("verify", "specialization"): _verify_specialization,
    ("verify", "accretive"): _verify_accretive,
    ("repro", "remark45"): _repro_remark45,
    ("search", "complex"): _search_complex,
    ("bench", "det"): _bench_det,
}


# -- report rendering ---------------------------------------------------------

def _payload_dict(item):
    if hasattr(item, "to_json"):
        return item.to_json()
    return item


def _render(payload, fmt: str) -> str:
    dicts = [_payload_dict(x) for x in payload]
    if fmt == "json":
        return json.dumps(dicts, indent=2, sort_keys=True) + "\n"
    lines = []
    if dicts and "claim" in dicts[0]:
        header = f"{'claim':<36} {'status':<9} {'residual':<26} seed"
        lines = [header, "-" * len(header)]
        for d in dicts:
            residual = str(d["residual"])
            if len(residual) > 26:
                residual = residual[:23] + "..."
            lines.append(
                f"{d['claim']:<36} {d['status']:<9} {residual:<26} {d['seed']}"
            )
    elif dicts and "margin" in dicts[0]:
        header = f"{'label':<28} {'lhs':>14} {'rhs':>14} {'margin':>14}"
        lines = [header, "-" * len(header)]
        for d in dicts:
            lines.append(
                f"{d['label']:<28} {d['lhs']:>14.6g} {d['rhs']:>14.6g} {d['margin']:>14.6g}"
            )
    elif dicts:
        header = f"{'algo':<14} {'order':>5} {'trial':>5} {'nanos':>12}  det_hash"
        lines = [header, "-" * len(header)]
        for d in dicts:
            lines.append(
                f"{d['algo']:<14} {d['order']:>5} {d['trial']:>5} {d['nanos']:>12}  {d['det_hash']}"
            )
    else:
        lines = ["(empty)"]
    return "\n".join(lines) + "\n"


# -- argument parsing ---------------------------------------------------------

@cache  # one parser per process: main() only reads it
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="master seed (fixed default, never time-based)")
    common.add_argument("--out", default=None, help="write output to this path")
    common.add_argument("--format", dest="fmt", choices=["json", "text-summary"],
                        default="json")

    parser = argparse.ArgumentParser(
        prog="minorcert",
        description="Exact and numeric certificates for contiguous-minor "
                    "determinant identities.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="run verification suites")
    vsub = verify.add_subparsers(dest="subcommand", required=True)

    p = vsub.add_parser("johnson", parents=[common],
                        help="minor identity for the A + A^T = 2J family")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-n", type=int, default=idmod.DEFAULT_SYMBOLIC_CAP,
                   help="cap for the symbolic certificate")

    p = vsub.add_parser("lemmas", parents=[common],
                        help="reduced cases, skew facts, rank-one expansion")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=50)

    p = vsub.add_parser("bt", parents=[common],
                        help="rank-one symmetric-part equality")
    p.add_argument("--dim", type=int, default=5)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--scalar", choices=["rat", "real"], default="rat")

    p = vsub.add_parser("specialization", parents=[common],
                        help="exact values at b1 = 1, bk = 0")
    p.add_argument("--m", type=int, default=7)

    p = vsub.add_parser("accretive", parents=[common],
                        help="accretive determinant/adjugate/inequality suite")
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--trials", type=int, default=200)

    repro = top.add_parser("repro", help="reproduce hard-coded diagnostics")
    rsub = repro.add_subparsers(dest="subcommand", required=True)
    rsub.add_parser("remark45", parents=[common],
                    help="the 4x4 complex transpose-minor violation")

    search = top.add_parser("search", help="randomized counterexample search")
    ssub = search.add_subparsers(dest="subcommand", required=True)
    p = ssub.add_parser("complex", parents=[common],
                        help="complex violations of the transpose-based inequality")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--iters", type=int, default=10000,
                   help="upper bound on iterations; the search stops at "
                        "numaccretive.MAX_WITNESSES witnesses")
    p.add_argument("--init", choices=["random", "remark45"], default="random")

    bench = top.add_parser("bench", help="benchmark harness")
    bsub = bench.add_subparsers(dest="subcommand", required=True)
    p = bsub.add_parser("det", parents=[common], help="time determinant engines")
    p.add_argument("--algo", choices=sorted(DET_ALGOS), required=True)
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--scalar", choices=["int", "poly"], default="int")

    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    """Checks only the bounds that the CLI alone sets; every other bad value
    reaches the library, whose ValueError exits 2 through ``main``."""
    key = (args.command, args.subcommand)
    if key == ("verify", "lemmas") and args.n > idmod.DEFAULT_SYMBOLIC_CAP:
        parser.error(f"--n is capped at {idmod.DEFAULT_SYMBOLIC_CAP} (the symbolic cap)")
    elif key == ("bench", "det") and args.order < 1:
        parser.error("--order must be at least 1")
    if getattr(args, "trials", 0) < 0 or getattr(args, "iters", 0) < 0:
        parser.error("--trials/--iters must be non-negative")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        payload, ok = run(args)
    except Exception as e:  # any internal error; never a refutation
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = _render(payload, args.fmt)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write --out: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
