#!/usr/bin/env python3
"""Run the full verification battery and print a one-line summary per claim.

Covers every certificate family: the symbolic minor identity for orders
2..DEFAULT_SYMBOLIC_CAP (11; order 11 takes about 1 s), the reduced-case and
lemma suites up to the cap, the specialization values for block orders
2..33 (about 0.3 s in all, two O(m^4) adjugates per odd order), the
rank-one equality (exact, up to order 30, where its integer-scaled minors
take well under a second, and float), the accretive suite, and the
complex diagnostic with its randomized search (which stops at 100
witnesses, so each search takes well under a second).  The accretive suite
also runs at order 30, where the strict instances have leading minors far
below 1e-12 that are nonzero and must not be taken for singular.  Exits
nonzero if any claim fails.
"""

import sys

from minorcert import cli
from minorcert.identity import DEFAULT_SYMBOLIC_CAP


def main() -> int:
    batches = [
        *(
            ["verify", "johnson", "--mode", "symbolic", "--n", str(n)]
            for n in range(2, DEFAULT_SYMBOLIC_CAP + 1)
        ),
        ["verify", "johnson", "--mode", "numeric", "--n", "12", "--trials", "100"],
        ["verify", "lemmas", "--n", str(DEFAULT_SYMBOLIC_CAP), "--trials", "50"],
        *(["verify", "specialization", "--m", str(m)] for m in range(2, 34)),
        ["verify", "bt", "--dim", "6", "--trials", "50", "--scalar", "rat"],
        ["verify", "bt", "--dim", "30", "--trials", "12", "--seed", "3", "--scalar", "rat"],
        ["verify", "bt", "--dim", "10", "--trials", "100", "--scalar", "real"],
        ["verify", "accretive", "--dim", "8", "--trials", "200"],
        ["verify", "accretive", "--dim", "12", "--trials", "60"],
        ["verify", "accretive", "--dim", "30", "--trials", "12", "--seed", "3"],
        ["repro", "remark45"],
        ["search", "complex", "--dim", "4", "--iters", "10000"],
        ["search", "complex", "--dim", "4", "--init", "remark45"],
    ]
    worst = 0
    for argv in batches:
        print(f"$ minorcert {' '.join(argv)}")
        rc = cli.main(argv + ["--format", "text-summary"])
        worst = max(worst, rc)
        print()
    print("overall:", "all claims verified" if worst == 0 else f"failures (exit {worst})")
    return worst


if __name__ == "__main__":
    sys.exit(main())
