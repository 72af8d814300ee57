"""The four benchmark workloads as lists of `minorcert` command lines.

Every workload is closed loop: one caller runs its commands back to back in
one process.  Each command gets the pass seed as ``--seed``; the report
digest of every command is recorded at the CLI's default seed in
``digests.json``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    argv: list          # arguments for minorcert.cli.main, seed included
    key: str            # the command without its seed: digest and timing key
    det: tuple | None = None   # (scalar, order) for `bench det` rows


# `bench det` plan: (scalar, order, trials).  Order 7 is COFACTOR_CAP, so all
# engines meet there; int order 12 compares the other engines beyond it.  The cost of a
# random polynomial determinant varies widely from trial to trial (how much
# it swells depends on the zero pattern), so a seed's poly trials cost 10-25%
# more or less than another seed's.  Int trials cost the same for every
# seed, so int commands carry most of the time and the poly commands stay
# a minority share.
DET_PLAN = (
    ("int", 7, 150),
    ("int", 12, 150),
    ("poly", 5, 60),
    ("poly", 6, 40),
)


def _cmd(args, seed, det=None):
    return Command(argv=[*args, "--seed", str(seed)], key=" ".join(args), det=det)


def _symbolic_johnson(seed):
    return [
        _cmd(["verify", "johnson", "--mode", "symbolic", "--n", str(n),
              "--max-n", "9"], seed)
        for n in range(2, 10)
    ]


def _exact_lemmas(seed):
    cmds = [_cmd(["verify", "lemmas", "--n", "9", "--trials", "50"], seed)]
    cmds += [_cmd(["verify", "specialization", "--m", str(m)], seed)
             for m in range(2, 18)]
    cmds.append(_cmd(["verify", "bt", "--scalar", "rat", "--dim", "8",
                      "--trials", "100"], seed))
    return cmds


def _float_accretive(seed):
    return [
        _cmd(["verify", "accretive", "--dim", "8", "--trials", "200"], seed),
        _cmd(["search", "complex", "--dim", "4", "--iters", "10000"], seed),
        _cmd(["verify", "bt", "--scalar", "real", "--dim", "10",
              "--trials", "100"], seed),
        _cmd(["verify", "johnson", "--mode", "numeric", "--n", "12",
              "--trials", "100"], seed),
    ]


def _det_engines(seed):
    # Imported here so that only the pass process, never the harness, loads
    # the program; a new DET_ALGOS entry joins the workload automatically.
    from minorcert.detkit import COFACTOR_CAP, DET_ALGOS

    cmds = []
    for scalar, order, trials in DET_PLAN:
        for algo in sorted(DET_ALGOS):
            if algo == "cofactor" and order > COFACTOR_CAP:
                continue
            cmds.append(_cmd(["bench", "det", "--algo", algo, "--scalar", scalar,
                              "--order", str(order), "--trials", str(trials)],
                             seed, det=(scalar, order)))
    return cmds


WORKLOADS = {
    "symbolic_johnson": _symbolic_johnson,
    "exact_lemmas": _exact_lemmas,
    "float_accretive": _float_accretive,
    "det_engines": _det_engines,
}


def plan(name: str, seed: int) -> list[Command]:
    return WORKLOADS[name](seed)
