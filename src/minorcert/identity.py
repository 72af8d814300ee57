"""Executable certificates for the exact determinantal identities.

The central object is the family A = J_n + B with B skew-symmetric Toeplitz,
which is exactly the set of Toeplitz matrices satisfying A + A^T = 2 J_n.
Parameterizing B by its superdiagonal constants b1..b_{n-1} turns each claim
into a polynomial identity over Z[b1..b_{n-1}], so a residual that is the
zero polynomial is a complete machine certificate for every field of
characteristic != 2 at that order, with no sampling involved.

Each verifier returns a :class:`CertificateReport`; ``lemmas_suite`` sorts
its reports by claim, the seeded suites return theirs in trial order, and
``cli`` sorts every verify report by claim before it prints them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .detkit import (
    adjugate,
    contiguous_minors,
    det_bareiss,
    det_cofactor,
    s_functional,
    shared_column_minors,
)
from .matrix import (
    Matrix,
    generic_skew_toeplitz,
    is_skew_symmetric,
    johnson_family,
    ones,
    outer,
    skew_toeplitz,
)
from .report import CertificateReport, UndecidedError, verdict
from .ring import MultiPoly, is_floating
from .rng import map_trials, random_int_matrix, random_skew, substream

__all__ = [
    "BT_ORACLE_ORDER",
    "BT_TOL",
    "DEFAULT_SYMBOLIC_CAP",
    "JOHNSON_NUMERIC_TOL",
    "SPECIALIZATION_CAP",
    "bt_suite",
    "johnson_numeric_suite",
    "lemmas_suite",
    "specialization_certificate",
    "verify_bt",
    "verify_johnson_symbolic",
    "verify_rank_one_expansion",
    "verify_reduced_case",
    "verify_skew_facts",
]

DEFAULT_SYMBOLIC_CAP = 11
# Largest block order of ``verify specialization``.  An odd order takes two
# O(m^4) adjugates; order 63 takes about 0.25 s on a 2-core machine under
# CPython 3.11, so every order up to the cap stays well under a second.
SPECIALIZATION_CAP = 64


# -- the main symbolic certificate ---------------------------------------

def verify_johnson_symbolic(n: int, max_n: int = DEFAULT_SYMBOLIC_CAP) -> CertificateReport:
    """Certifies det A_m(1,2) + det A_m(2,1) - 2 det A_m(1,1) = 0 (m = n-1)
    identically in Z[b1..b_{n-1}] for the generic member of A + A^T = 2 J_n.

    A_m(1,1) and A_m(1,2) share the rows 1..m and the columns 2..m, so one
    division-free expansion of A along those columns gives both, each closed
    along its own column, 1 or m+1.  A^T = J - B is A under the ring map
    b -> -b, and a determinant commutes with a ring map, so A_m(2,1), the
    transpose of A^T_m(1,2), has det A_m(2,1) = d12(-b).  The symmetry is
    checked exactly on the matrix first; if it failed, that would be a bug
    in the family's construction, not a refutation of the claim, so it
    raises RuntimeError."""
    if not 2 <= n <= max_n:
        raise ValueError(f"order must be in 2..{max_n}, got {n}")
    a = johnson_family(n)
    if a.T != a.map(MultiPoly.negate_variables):
        raise RuntimeError(f"order {n}: A^T is not A(-b); the family is malformed")
    m = n - 1
    d11, d12 = shared_column_minors(a, range(1, m), (0, m))
    d21 = d12.negate_variables()
    residual = d12 + d21 - 2 * d11
    return CertificateReport(
        claim=f"johnson_symbolic_n{n}",
        status=verdict(residual == 0),
        residual=str(residual),
        instance={"n": n, "nvars": n - 1},
    )


def verify_reduced_case(n: int) -> CertificateReport:
    """Certifies the parity-reduced identity on the skew blocks K = B_m(1,1),
    C = B_m(1,2) of the generic skew Toeplitz B (m = n-1): det C = det K for
    even m, and s(C) = s(K) for odd m.  The proof's s(K)^2 = s(C)^2 is
    reported as ``square_residual``, in its factored form
    (s(K) - s(C))(s(K) + s(C)), and not checked: it is zero whenever
    s(C) - s(K) is.

    K and C share the rows 1..m and the columns 2..m, so for even m one
    expansion of B along those columns gives both determinants.  For odd m,
    s(X) = 1^T adj(X) 1 is minus the bordered determinant,
    det [[0, 1^T], [1, X]] = -1^T adj(X) 1, and the bordered matrices of K
    and C are the minors of M = [[0, 1^T], [1, B]] on its first n rows and
    the columns {0} u K, {0} u C, which share all but M's columns 1 and n;
    one expansion of M along the shared columns gives both."""
    if n < 3:
        raise ValueError(f"reduced case needs order >= 3, got {n}")
    m = n - 1
    b = generic_skew_toeplitz(n)
    if m % 2 == 0:
        det_k, det_c = shared_column_minors(b, range(1, m), (0, m))
        residual = det_c - det_k
        ok = residual == 0
        instance = {"m": m, "parity": "even"}
    else:
        bordered = Matrix.from_rows([[0] + [1] * n] + [[1] + r for r in b.to_rows()])
        neg_s_k, neg_s_c = shared_column_minors(bordered, (0, *range(2, n)), (1, n))
        s_k, s_c = -neg_s_k, -neg_s_c
        residual = s_c - s_k
        square_residual = (s_k - s_c) * (s_k + s_c)
        ok = residual == 0
        instance = {
            "m": m,
            "parity": "odd",
            "square_residual": str(square_residual),
        }
    return CertificateReport(
        claim=f"reduced_case_n{n}",
        status=verdict(ok),
        residual=str(residual),
        instance=instance,
    )


# -- supporting identities -----------------------------------------------

def verify_rank_one_expansion(x: Matrix, t) -> CertificateReport:
    """Certifies the all-ones rank-one expansion
    det(X + t*J) = det(X) + t * s(X) exactly on the given instance."""
    if not x.is_square:
        raise ValueError("rank-one expansion needs a square matrix")
    m = x.rows
    residual = det_bareiss(x + t * ones(m)) - det_bareiss(x) - t * s_functional(x)
    return CertificateReport(
        claim=f"rankone_expansion_m{m}",
        status=verdict(residual == 0),
        residual=str(residual),
        instance={"m": m, "t": t},
    )


def verify_skew_facts(y: Matrix) -> CertificateReport:
    """Certifies the adjugate facts of a skew-symmetric Y: adj(Y)^T equals
    (-1)^{m-1} adj(Y); for odd m the determinant vanishes.

    For even m the adjugate is then skew, diagonal included, so its entries
    cancel in pairs and s(Y) = 1^T adj(Y) 1 = 0 follows: the verdict reads
    the transpose identity alone, and the residual is its first nonzero
    defect adj[j, i] + adj[i, j] (i <= j, in row order), the zero
    polynomial "0" when the identity holds.

    The facts are exact claims: float or complex entries raise TypeError,
    since a rounded or non-finite adjugate can neither certify nor refute
    them."""
    if not y.is_square:
        raise ValueError("skew facts need a square matrix")
    if any(is_floating(x) for x in y.entries()):
        raise TypeError("skew facts are exact claims; got float or complex entries")
    m = y.rows
    if not is_skew_symmetric(y):
        raise ValueError("input is not skew-symmetric")
    adj = adjugate(y)
    odd = m % 2
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    transpose_ok = all(adj[j, i] == (adj[i, j] if odd else -adj[i, j]) for i, j in upper)
    instance = {"m": m, "parity": "odd" if odd else "even"}
    if not odd:
        ok = transpose_ok
        defects = (adj[j, i] + adj[i, j] for i, j in upper)
        residual = "0" if ok else str(next(d for d in defects if d != 0))
    else:
        (d,) = shared_column_minors(y, range(1, m), (0,))
        ok = transpose_ok and d == 0
        residual = str(d)
    instance["adjugate_transpose_identity"] = bool(transpose_ok)
    return CertificateReport(
        claim=f"skew_facts_m{m}",
        status=verdict(ok),
        residual=residual,
        instance=instance,
    )


def specialization_certificate(m: int) -> CertificateReport:
    """Checks the exact values at the specialization b1 = 1, bk = 0 (k >= 2)
    of the blocks K = B_m(1,1) (tridiagonal, +1 super / -1 sub) and
    C = B_m(1,2) = I - L^2 of the skew Toeplitz B:

    even m: det K = det C = 1;
    odd m = 2l+1: det C = 1, C^{-1} 1 = (1,1,2,2,..,l,l,l+1)^T and
    adj(K) = u u^T with u = (1,0,1,..,0,1)^T.

    The residual is the first nonzero defect of the checks, in the order
    above: det K - 1 and det C - 1 for even m; det C - 1, then C^{-1} 1 less
    its expected vector, then adj(K) - u u^T (entries in row order) for odd
    m; "0" when all hold.  For odd m the instance also reports three values
    these imply, which the verdict does not read: s(C), the sum of C^{-1} 1,
    is 2(1 + .. + l) + l+1 = (l+1)^2; s(K) = (1^T u)^2 = (l+1)^2; and the
    trailing principal (m-1)-minor of K, adj(K)[0, 0] = u_0^2, is 1."""
    if not 2 <= m <= SPECIALIZATION_CAP:
        raise ValueError(
            f"specialization needs block order in 2..{SPECIALIZATION_CAP}, got {m}"
        )
    spec = skew_toeplitz([1] + [0] * (m - 1))
    k_mat = spec.block(m, 1, 1)
    c_mat = spec.block(m, 1, 2)
    checks = {"m": m}
    if m % 2 == 0:
        det_k = det_bareiss(k_mat)
        det_c = det_bareiss(c_mat)
        ok = det_k == 1 and det_c == 1
        checks.update({"det_K": det_k, "det_C": det_c})
        defects = (det_k - 1, det_c - 1)
    else:
        ell = (m - 1) // 2
        expected_s = (ell + 1) ** 2
        det_c = det_bareiss(c_mat)
        adj_c = adjugate(c_mat)  # equals C^{-1} exactly since det C = 1
        cinv_one = [sum(adj_c[i, j] for j in range(m)) for i in range(m)]
        expected_cinv_one = [i // 2 + 1 for i in range(m)]
        s_c = sum(cinv_one)
        u = [1 if i % 2 == 0 else 0 for i in range(m)]
        adj_k = adjugate(k_mat)
        uu = outer(u)
        adj_k_ok = adj_k == uu
        s_k = sum(adj_k.entries())
        det_k_tail = adj_k[0, 0]  # the trailing principal (m-1)-minor of K
        ok = det_c == 1 and cinv_one == expected_cinv_one and adj_k_ok
        checks.update(
            {
                "ell": ell,
                "det_C": det_c,
                "Cinv_ones": cinv_one,
                "s_C": s_c,
                "s_K": s_k,
                "adj_K_is_uuT": bool(adj_k_ok),
                "det_K_tail": det_k_tail,
                "expected_s": expected_s,
            }
        )
        defects = (
            det_c - 1,
            *(x - y for x, y in zip(cinv_one, expected_cinv_one)),
            *(adj_k - uu).entries(),
        )
    return CertificateReport(
        claim=f"specialization_m{m}",
        status=verdict(ok),
        residual=str(next((d for d in defects if d != 0), 0)),
        instance=checks,
    )


def _require_finite(claim: str, *values) -> None:
    """A float claim whose minors or residual overflowed (inf) or lost all
    meaning (nan) is undecided, not refuted."""
    if not all(math.isfinite(v) for v in values):
        raise UndecidedError(
            f"{claim}: float minors or residual not finite "
            f"({', '.join(repr(v) for v in values)})"
        )


def _bt_margin(d11, d22, d12, d21):
    """4 d11 d22 - (d12 + d21)^2, the Bayat-Teimoori equality
    d11 d22 = ((d12 + d21) / 2)^2 in squared form: integer minors give an
    integer margin, zero exactly when the equality holds."""
    s = d12 + d21
    return 4 * d11 * d22 - s * s


BT_TOL = 1e-8  # relative tolerance of the float rank-one equality
# Largest minor order that the exact ``verify_bt`` recomputes by the
# cofactor oracle.  At 5, ``bt_suite(8, 100, seed)`` on one CPU takes about
# 13.8 ms against 10.4 ms unchecked (CPython 3.11, 2-core machine), and
# checks every trial of order 6 or less.
BT_ORACLE_ORDER = 5


def verify_bt(skew: Matrix, alpha, w) -> CertificateReport:
    """Certifies the rank-one symmetric-part equality: with
    A = skew + (alpha/2) w w^T (so A + A^T = alpha w w^T),

        det A_m(1,1) * det A_m(2,2) = ((det A_m(1,2) + det A_m(2,1)) / 2)^2

    exactly over the rationals, or for floats to the fixed relative
    tolerance ``BT_TOL``.  A float residual is the larger of |lhs - rhs|
    and the clamp of a negative d11 d22 (``minor_witness`` takes the square
    root of zero in its place), so a product that is negative beyond the
    tolerance refutes.  ``skew`` must be exactly skew-symmetric, float
    input included, else ValueError.  Weight vectors with zero components
    are legal: the identity is polynomial in the entries, so no limiting
    argument is needed.  Entries, ``alpha`` and the weights must be int,
    Fraction or float (not bool or complex), else TypeError.  A float minor
    or residual that is not finite raises UndecidedError.

    Exact input runs in integers: with L the lcm of the denominators of
    2A = 2 skew + alpha w w^T, the minors D of M = L 2A are (2L)^m times
    those of A, so the residual is the integer margin
    4 D11 D22 - (D12 + D21)^2 over 4 (2L)^(2m), the same rational.  Up to
    minor order ``BT_ORACLE_ORDER`` each of the four D is recomputed by
    ``det_cofactor``, which shares no elimination code with Bareiss: minors
    that make the margin zero on their own (all zero, or four copies of
    D11) would otherwise verify.  A mismatch is an engine fault, not a
    refutation, so it raises RuntimeError."""
    if not skew.is_square:
        raise ValueError("first argument must be a square skew-symmetric matrix")
    n = skew.rows
    if n < 2:
        raise ValueError("needs order >= 2")
    if len(w) != n:
        raise ValueError(f"weight vector must have length {n}")
    for x in (*skew.entries(), alpha, *w):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction, float)):
            raise TypeError(
                "rank-one equality takes int, Fraction or float "
                f"scalars, got {type(x).__name__}"
            )
    if not is_skew_symmetric(skew):
        raise ValueError("first argument is not skew-symmetric")
    floating = any(is_floating(x) for x in list(skew.entries()) + list(w)) or is_floating(alpha)
    if all(not x for x in w):
        raise ValueError("weight vector must be nonzero")
    instance = {"n": n, "alpha": alpha, "w": list(w)}
    if floating:
        # the float layer loads only here, so exact runs never compile it
        from .numaccretive import minor_witness

        wit = minor_witness(skew + alpha / 2 * outer(list(w)), f"bt_n{n}")
        residual = max(abs(wit.margin), wit.clamp)
        scale = max(1.0, wit.lhs + wit.rhs)
        _require_finite(f"bt_n{n}", *wit.minors, residual)
        return CertificateReport(
            claim=f"bt_n{n}",
            status=verdict(residual <= BT_TOL * scale),
            residual=residual,
            instance=instance,
            tolerance=BT_TOL,
        )
    twice = (2 * skew + alpha * outer(list(w))).entries()
    lcm = math.lcm(*(x.denominator for x in twice))
    scaled = Matrix(n, n, [x.numerator * (lcm // x.denominator) for x in twice])
    minors = contiguous_minors(scaled)
    if n - 1 <= BT_ORACLE_ORDER:
        for d, (i, j) in zip(minors, ((1, 1), (2, 2), (1, 2), (2, 1)), strict=True):
            if det_cofactor(scaled.block(n - 1, i, j)) != d:
                raise RuntimeError(
                    f"bt_n{n}: minor d{i}{j} disagrees with the cofactor oracle"
                )
    margin = _bt_margin(*minors)
    residual = Fraction(margin, 4 * (2 * lcm) ** (2 * (n - 1)))
    return CertificateReport(
        claim=f"bt_n{n}",
        status=verdict(residual == 0),
        residual=str(residual),
        instance=instance,
    )


# -- batch suites ----------------------------------------------------------

JOHNSON_NUMERIC_TOL = 1e-9  # relative tolerance of the float minor identity


def johnson_numeric_suite(max_n: int, trials: int, seed: int) -> list[CertificateReport]:
    """Floating smoke test, to ``JOHNSON_NUMERIC_TOL``, of the minor identity
    on random numeric members of the family (b_k uniform in [-2, 2], order
    drawn from 2..max_n).  A minor or residual that is not finite (the minors
    overflow from about order 230) raises UndecidedError, not a refutation.

    The trials are shared out across one process per CPU of the affinity
    mask (``rng.map_trials``; no option sets the count) whenever there are
    two of each, with byte-identical reports and the same first error as
    one CPU: each trial draws only from its own substream."""
    if max_n < 2:
        raise ValueError("max order must be at least 2")
    return map_trials(partial(_johnson_numeric_trial, max_n, seed), trials)


def _johnson_numeric_trial(max_n: int, seed: int, t: int) -> CertificateReport:
    stream = substream(seed, t)
    n = stream.randint(2, max_n)
    b = [stream.uniform(-2.0, 2.0) for _ in range(n - 1)]
    a = ones(n) + skew_toeplitz(b)
    m = n - 1
    d12 = det_bareiss(a.block(m, 1, 2))
    d21 = det_bareiss(a.block(m, 2, 1))
    d11 = det_bareiss(a.block(m, 1, 1))
    residual = abs(d12 + d21 - 2.0 * d11)
    _require_finite(
        f"johnson_numeric_t{t:03d} (order {n})", d11, d12, d21, residual
    )
    scale = max(1.0, abs(d11), abs(d12), abs(d21))
    return CertificateReport(
        claim=f"johnson_numeric_t{t:03d}",
        status=verdict(residual <= JOHNSON_NUMERIC_TOL * scale),
        residual=residual,
        instance={"n": n, "b": b},
        tolerance=JOHNSON_NUMERIC_TOL,
    )


def _rankone_trial(seed: int, t: int) -> CertificateReport:
    stream = substream(seed, 1000 + t)
    x = random_int_matrix(stream, 5)
    t_val = stream.randint(-5, 5)
    rep = verify_rank_one_expansion(x, t_val)
    return rep._replace(claim=f"rankone_expansion_t{t:03d}")


def lemmas_suite(max_n: int, trials: int, seed: int) -> list[CertificateReport]:
    """The supporting-lemma battery: parity-reduced certificates for orders
    3..max_n, symbolic skew-adjugate facts for generic orders 2..max_n-1, and
    random exact order-5 instances of the all-ones rank-one expansion.

    The whole battery is one job list for ``rng.map_trials``, shared out
    across the CPUs with byte-identical reports and the same first error as
    one CPU.  The list runs from the costliest job to the cheapest, so that
    the costliest claim starts at once and the other processes fill in
    around it: the symbolic claims, whose cost grows about fourfold per
    order, from the highest block order m down, the skew facts of order m
    before the reduced case of order m + 1, then the rank-one trials."""
    if max_n < 3:
        raise ValueError("max order must be at least 3")
    jobs = []
    for m in range(max_n - 1, 1, -1):
        jobs.append(partial(verify_skew_facts, generic_skew_toeplitz(m)))
        jobs.append(partial(verify_reduced_case, m + 1))
    jobs += [partial(_rankone_trial, seed, t) for t in range(trials)]
    reports = map_trials(lambda k: jobs[k](), len(jobs))
    return sorted(reports, key=lambda r: r.claim)


def bt_suite(dim: int, trials: int, seed: int, scalar: str = "rat") -> list[CertificateReport]:
    """Random rank-one symmetric-part instances; every fifth weight vector
    gets a forced zero component.  ``scalar`` picks exact rationals or
    floats.  Run across the CPUs like ``johnson_numeric_suite``."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if scalar not in ("rat", "real"):
        raise ValueError(f"unknown scalar kind {scalar!r}")
    return map_trials(partial(_bt_trial, dim, seed, scalar), trials)


def _bt_trial(dim: int, seed: int, scalar: str, t: int) -> CertificateReport:
    stream = substream(seed, 2000 + t)
    n = stream.randint(2, dim)
    if scalar == "rat":
        # one block of the draws of randint(-4, 4) for the skew part,
        # randint(-5, 5) for alpha and randint(-4, 4) for w
        k = n * (n - 1) // 2
        block = stream.draws(k + 1 + n)
        skew = random_skew(n, iter([-4 + v % 9 for v in block[:k]]).__next__)
        alpha = -5 + block[k] % 11
        w = [-4 + v % 9 for v in block[k + 1:]]
    else:
        skew = random_skew(n, lambda: stream.uniform(-2.0, 2.0))
        alpha = stream.uniform(-3.0, 3.0)
        w = [stream.uniform(-2.0, 2.0) for _ in range(n)]
    if t % 5 == 0:
        w[t % n] = 0.0 if scalar == "real" else 0
    if all(not x for x in w):
        w[0] = 1.0 if scalar == "real" else 1
    rep = verify_bt(skew, alpha, w)
    return rep._replace(claim=f"bt_{scalar}_t{t:03d}")
