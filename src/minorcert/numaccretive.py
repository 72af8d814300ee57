"""Floating-point layer for the accretive minor inequality.

A real matrix is accretive when its symmetric part (A + A^T)/2 is positive
semidefinite, strictly accretive when that part is positive definite.  This
module provides the numeric machinery (cyclic Jacobi eigensolver, the
checked accretive instance that decomposes H once for every verifier, the
congruence factorization A = H^{1/2}(I + S)H^{1/2} with S skew), the
verifiers for determinant positivity, adjugate accretivity and the
contiguous-minor inequality

    sqrt(det A_{n-1}(1,1) det A_{n-1}(2,2))
        >= |(det A_{n-1}(1,2) + det A_{n-1}(2,1)) / 2|,

plus the complex diagnostic: over C with (A + A*)/2 >= 0 the transpose-based
analogue of the inequality fails, and both a hard-coded 4x4 witness and a
seeded randomized search for further violations are provided.

Everything works on plain Python floats; no external numeric dependency.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, partial

from .detkit import adjugate, contiguous_minors, det_bareiss
from .matrix import Matrix, identity as identity_matrix, matrix_to_json, max_abs
from .report import CertificateReport, UndecidedError, jsonable, verdict
from .rng import SplitMix64, map_trials, random_skew, substream

__all__ = [
    "ACCRETIVE_TOL",
    "Accretive",
    "AccretiveWitness",
    "ConvergenceError",
    "DET_TOL",
    "EigenResult",
    "FACTOR_TOL",
    "MAX_SWEEPS",
    "MAX_WITNESSES",
    "SEARCH_TOL",
    "accretive",
    "accretive_factorize",
    "accretive_suite",
    "minor_witness",
    "random_accretive",
    "remark45_matrix",
    "remark45_repro",
    "search_complex_violation",
    "sym_eig",
    "verify_adjugate_accretive",
    "verify_det_positive",
]


class ConvergenceError(RuntimeError):
    """An iterative numeric routine failed to converge."""


class EigenResult(namedtuple("EigenResult", "values vectors")):
    """Eigenvalues ascending (a tuple) plus the orthogonal Matrix of column
    vectors."""

    __slots__ = ()


class AccretiveWitness(namedtuple(
    "AccretiveWitness", "label matrix minors lhs rhs margin clamp", defaults=(0.0,)
)):
    """One evaluation of the minor inequality: the four (n-1)-minors
    ``(d11, d22, d12, d21)``, the two sides, the margin lhs - rhs, and any
    clamp applied to a tiny negative product before its square root."""

    __slots__ = ()

    def to_json(self) -> dict:
        return jsonable({
            **self._asdict(),
            "matrix": matrix_to_json(self.matrix),
            "minors": dict(zip(("d11", "d22", "d12", "d21"), self.minors, strict=True)),
        })


# -- symmetric eigensolver ------------------------------------------------

MAX_SWEEPS = 100  # Jacobi sweeps before sym_eig gives up


def sym_eig(h: Matrix) -> EigenResult:
    """Cyclic Jacobi rotations for a real symmetric matrix.

    Sweeps until the off-diagonal Frobenius mass drops below 1e-14 times the
    Frobenius norm of the input; raises ConvergenceError after
    ``MAX_SWEEPS``.  Input asymmetry up to 1e-12 (relative, max-norm) is
    symmetrized away; worse asymmetry is a usage error.
    """
    values, order, v = _jacobi(h, True)
    n = len(values)
    return EigenResult(values, Matrix(n, n, [v[i][j] for i in range(n) for j in order]))


def _jacobi(h: Matrix, vectors: bool):
    """The rotation loop of ``sym_eig``: ascending eigenvalues, the order
    that sorts the diagonal and the rotated identity, whose columns are the
    eigenvectors (empty, and never updated, when ``vectors`` is false)."""
    if not h.is_square:
        raise ValueError("eigendecomposition needs a square matrix")
    n = h.rows
    if n == 0:
        raise ValueError("eigendecomposition needs order >= 1")
    rows = h.to_rows()
    amax = max_abs(h)
    asym = max(
        (abs(rows[i][j] - rows[j][i]) for i in range(n) for j in range(i, n)),
        default=0.0,
    )
    if asym > 1e-12 * max(amax, 1e-300):
        raise ValueError("matrix is not symmetric")
    w = [[(rows[i][j] + rows[j][i]) / 2.0 for j in range(n)] for i in range(n)]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if vectors else []
    if n == 1:
        return (w[0][0],), [0], v
    # (p, q, row p, row q, the other rows) in the cyclic order of one sweep
    pairs = [(p, q, w[p], w[q], [(i, wi) for i, wi in enumerate(w) if i != p and i != q])
             for p in range(n - 1) for q in range(p + 1, n)]
    fro = math.sqrt(sum([x * x for row in w for x in row]))
    thresh = 1e-14 * fro
    for _ in range(MAX_SWEEPS):
        off = math.sqrt(2.0 * sum([wp[q] ** 2 for _, q, wp, _, _ in pairs]))
        if off <= thresh:
            break
        for p, q, wp, wq, others in pairs:
            apq = wp[q]
            if apq == 0.0:
                continue
            app, aqq = wp[p], wq[q]
            theta = (aqq - app) / (2.0 * apq)
            if abs(theta) > 1e150:
                t = 1.0 / (2.0 * theta)
            else:
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for i, wi in others:
                aip, aiq = wi[p], wi[q]
                wi[p] = wp[i] = c * aip - s * aiq
                wi[q] = wq[i] = s * aip + c * aiq
            wp[p] = app - t * apq
            wq[q] = aqq + t * apq
            wp[q] = wq[p] = 0.0
            for vi in v:
                vip, viq = vi[p], vi[q]
                vi[p] = c * vip - s * viq
                vi[q] = s * vip + c * viq
    else:
        raise ConvergenceError(
            f"Jacobi eigensolver did not converge in {MAX_SWEEPS} sweeps"
        )
    order = sorted(range(n), key=lambda j: w[j][j])
    return tuple(w[j][j] for j in order), order, v


def _sqrt_pair(eig: EigenResult):
    """H^{1/2} and H^{-1/2}: the symmetric parts of Q diag(f(lambda)) Q^T for
    f = sqrt and 1/sqrt, built in one pass over the eigenvectors Q with the
    products and the left-to-right sums from 0 of ``Matrix.__matmul__``."""
    q = eig.vectors.to_rows()
    n = len(q)
    roots = [math.sqrt(v) for v in eig.values]
    inv = [1.0 / r for r in roots]
    sq, isq = [], []
    for row in q:
        sr = [x * y for x, y in zip(row, roots)]
        ir = [x * y for x, y in zip(row, inv)]
        for qj in q:
            s = t = 0
            for x, y, z in zip(sr, ir, qj):
                s = s + x * z
                t = t + y * z
            sq.append(s)
            isq.append(t)
    return _sym_part(Matrix(n, n, sq)), _sym_part(Matrix(n, n, isq))


def _sym_part(a: Matrix) -> Matrix:
    n, d = a.rows, a.entries()
    return Matrix(n, n, [(d[i * n + j] + d[j * n + i]) / 2.0
                         for i in range(n) for j in range(n)])


def inverse(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse with partial pivoting (floating matrices)."""
    if not a.is_square:
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    m = [row + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(a.to_rows())]
    tiny = 1e-13 * max(1.0, max_abs(a))
    for k in range(n):
        piv, big = k, abs(m[k][k])
        for r in range(k + 1, n):
            mag = abs(m[r][k])
            if mag > big:
                piv, big = r, mag
        if big <= tiny:
            raise ValueError("matrix is numerically singular")
        m[k], m[piv] = m[piv], m[k]
        d = m[k][k]
        m[k] = [x / d for x in m[k]]
        for i in range(n):
            if i == k:
                continue
            f = m[i][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return Matrix.from_rows([row[n:] for row in m])


# -- the accretive tool chain ----------------------------------------------

class Accretive:
    """A real square matrix A checked to be accretive (built by
    :func:`accretive`), with its symmetric part H = (A + A^T)/2 and the
    eigendecomposition of H that every verifier below reuses; the
    factorization and the adjugate are each built at most once."""

    def __init__(self, matrix: Matrix, sym: Matrix, eig: EigenResult):
        self.matrix, self.sym, self.eig = matrix, sym, eig

    @property
    def strict(self) -> bool:
        """H is positive definite, relative to its largest eigenvalue."""
        lam_min, lam_max = self.eig.values[0], self.eig.values[-1]
        return lam_max > 0 and lam_min > 1e-10 * lam_max

    @cached_property
    def factorization(self):
        """``accretive_factorize(self)``, built at most once per instance."""
        return accretive_factorize(self)

    @cached_property
    def adjugate(self) -> Matrix:
        """``adjugate(self.matrix)``, built at most once per instance."""
        return adjugate(self.matrix)


def accretive(a: Matrix) -> Accretive:
    """Decomposes H = (A + A^T)/2 once and accepts A as accretive when H is
    positive semidefinite up to a relative tolerance; raises ValueError
    otherwise (and for a non-square A)."""
    if not a.is_square:
        raise ValueError("needs a square matrix")
    h = _sym_part(a)
    eig = sym_eig(h)
    lam_min, lam_max = eig.values[0], eig.values[-1]
    if not lam_min >= -1e-10 * max(1.0, lam_max):
        raise ValueError("matrix is not accretive")
    return Accretive(a, h, eig)


FACTOR_TOL = 1e-8  # relative tolerance of the reconstruction and inverse identity


def accretive_factorize(acc: Accretive):
    """Congruence factorization A = H^{1/2}(I + S)H^{1/2} of a strictly
    accretive A, with H the symmetric part and S = H^{-1/2} N H^{-1/2} skew.

    Returns (H^{1/2}, S, report); the report certifies skewness of S, the
    reconstruction, and the symmetric-part identity
    Re((I + S)^{-1}) = (I - S^2)^{-1}.
    """
    if not acc.strict:
        raise ValueError("symmetric part is not strictly positive definite")
    a = acc.matrix
    n = a.rows
    h_sqrt, h_isqrt = _sqrt_pair(acc.eig)
    s = h_isqrt @ ((a - a.T) / 2.0) @ h_isqrt
    skew_res = max_abs(s + s.T)
    eye = identity_matrix(n).map(float)
    recon = h_sqrt @ (eye + s) @ h_sqrt
    recon_res = max_abs(recon - a) / max(1.0, max_abs(a))
    inv_plus = inverse(eye + s)
    inv_sym = _sym_part(inv_plus)
    inv_model = inverse(eye - s @ s)
    inv_res = max_abs(inv_sym - inv_model) / max(1.0, max_abs(inv_model))
    ok = skew_res <= 1e-9 and recon_res <= FACTOR_TOL and inv_res <= FACTOR_TOL
    report = CertificateReport(
        claim=f"accretive_factorization_n{n}",
        status=verdict(ok),
        residual=max(skew_res, recon_res, inv_res),
        instance={
            "n": n,
            "skew_residual": skew_res,
            "reconstruction_residual": recon_res,
            "inverse_identity_residual": inv_res,
        },
        tolerance=FACTOR_TOL,
    )
    return h_sqrt, s, report


DET_TOL = 1e-9  # relative tolerance of the determinant claim


def verify_det_positive(acc: Accretive) -> CertificateReport:
    """Certifies det(A) >= -DET_TOL * scale for accretive A (scale is
    max(1, |A|_max)^n); for strictly accretive A additionally cross-checks
    det(A) = det(H) * det(I + S), with S skew from the congruence
    factorization, so that det(I + S) = prod_k (1 + mu_k^2) over the pairs
    of eigenvalues +-i mu_k of S."""
    a = acc.matrix
    n = a.rows
    d = det_bareiss(a)
    scale = max(1.0, max_abs(a)) ** n
    residual = max(0.0, -d / scale)
    ok = residual <= DET_TOL
    instance = {"n": n, "det": d, "strict": acc.strict}
    if acc.strict:
        _, s, _ = acc.factorization
        model = det_bareiss(acc.sym) * det_bareiss(identity_matrix(n).map(float) + s)
        rel = abs(d - model) / max(abs(d), abs(model), 1e-300)
        instance["product_formula_relerr"] = rel
        ok = ok and d > 0 and rel <= 1e-6
    return CertificateReport(
        claim=f"det_positive_n{n}",
        status=verdict(ok),
        residual=residual,
        instance=instance,
        tolerance=DET_TOL,
    )


ACCRETIVE_TOL = 1e-8  # relative tolerance of adjugate accretivity and the margin


def verify_adjugate_accretive(acc: Accretive) -> CertificateReport:
    """Certifies that the adjugate of an accretive matrix is accretive."""
    n = acc.matrix.rows
    values = _jacobi(_sym_part(acc.adjugate), False)[0]
    lam_min, lam_max = values[0], values[-1]
    residual = max(0.0, -lam_min / max(1.0, lam_max))
    return CertificateReport(
        claim=f"adjugate_accretive_n{n}",
        status=verdict(residual <= ACCRETIVE_TOL),
        residual=residual,
        instance={"n": n, "lambda_min": lam_min, "lambda_max": lam_max},
        tolerance=ACCRETIVE_TOL,
    )


def minor_witness(a: Matrix, label: str) -> AccretiveWitness:
    """Evaluates both sides of the minor inequality on a real or complex A
    of order >= 2, from ``contiguous_minors``.  A complex product d11*d22
    goes under the square root by its modulus; a negative real one (roundoff
    on a true zero) is clamped to zero and the clamp magnitude recorded.  The
    caller judges the margin against its own tolerance.  ``accretive_suite``
    builds the same witness from its adjugate's corners instead."""
    if a.rows < 2:
        raise ValueError("needs order >= 2")
    return _witness(a, label, contiguous_minors(a))


def _witness(a: Matrix, label: str, minors) -> AccretiveWitness:
    """The witness of ``minor_witness`` from the minors (d11, d22, d12, d21)."""
    d11, d22, d12, d21 = minors
    product = d11 * d22
    clamp = 0.0
    if isinstance(product, complex):
        product = abs(product)
    elif product < 0.0:
        clamp, product = -product, 0.0
    lhs = math.sqrt(product)
    rhs = abs((d12 + d21) / 2.0)
    return AccretiveWitness(
        label=label,
        matrix=a,
        minors=minors,
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        clamp=clamp,
    )


def random_accretive(stream: SplitMix64, n: int, boundary: bool = False) -> Matrix:
    """Seeded random accretive matrix, normalized to max|entry| = 1.

    Strict instances use H = G^T G + I (G square standard normal); boundary
    instances use a rank-deficient H = G^T G so the symmetric part is
    genuinely singular.  A uniform skew part is added either way."""
    r = max(1, n - 1) if boundary else n
    g = Matrix(r, n, [stream.gauss() for _ in range(r * n)])
    h = g.T @ g
    if not boundary:
        h = h + identity_matrix(n).map(float)
    a = h + random_skew(n, lambda: stream.uniform(-1.0, 1.0))
    return a / max_abs(a)


def accretive_suite(dim: int, trials: int, seed: int) -> list[CertificateReport]:
    """Per trial: draw an accretive instance (order 2..dim, every fourth one
    on the PSD boundary) and check determinant nonnegativity, adjugate
    accretivity, the minor inequality margin, and (strict instances only)
    the factorization reconstruction.  The margin reads the four minors off
    the corners of the adjugate that the accretivity check builds, d11 =
    adj[n-1, n-1], d22 = adj[0, 0], d12 = (-1)^(n-1) adj[0, n-1] and d21 =
    (-1)^(n-1) adj[n-1, 0], so no minor is eliminated twice.

    From ``rng.SPLIT_MIN_TRIALS`` trials on, the trials run in one process
    per CPU of the affinity mask (``rng.map_trials``; no option sets the
    count), with byte-identical reports and the same first error as one
    CPU: each trial draws only from its own substream."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return map_trials(partial(_accretive_trial, dim, seed), trials)


def _accretive_trial(dim: int, seed: int, t: int) -> CertificateReport:
    stream = substream(seed, 3000 + t)
    n = stream.randint(2, dim)
    boundary = t % 4 == 3
    acc = accretive(random_accretive(stream, n, boundary=boundary))
    det_rep = verify_det_positive(acc)
    adj_rep = verify_adjugate_accretive(acc)
    adj, m = acc.adjugate, n - 1
    d12, d21 = adj[0, m], adj[m, 0]
    if m % 2:
        d12, d21 = -d12, -d21
    witness = _witness(acc.matrix, f"accretive_inequality_n{n}",
                       (adj[m, m], adj[0, 0], d12, d21))
    margin_scale = max(1.0, witness.lhs + witness.rhs)
    margin_ok = witness.margin >= -ACCRETIVE_TOL * margin_scale
    checks = {
        "n": n,
        "kind": "boundary" if boundary else "strict",
        "det": det_rep.residual,
        "adjugate": adj_rep.residual,
        "margin": witness.margin,
    }
    ok = det_rep.verified and adj_rep.verified and margin_ok
    if not boundary:
        _, _, fact_rep = acc.factorization
        checks["factorization"] = fact_rep.residual
        ok = ok and fact_rep.verified
    # each component normalized by its own tolerance, so a residual above
    # the tolerance always means "refuted"; the converse fails, since
    # some checks refute without raising the residual: on strict
    # instances det > 0 and the product-formula relerr <= 1e-6, and a
    # factorization skew residual in (1e-9, FACTOR_TOL]
    worst = ACCRETIVE_TOL * max(
        float(det_rep.residual) / DET_TOL,
        float(adj_rep.residual) / ACCRETIVE_TOL,
        max(0.0, -witness.margin / margin_scale) / ACCRETIVE_TOL,
        float(checks.get("factorization", 0.0)) / FACTOR_TOL,
    )
    return CertificateReport(
        claim=f"accretive_t{t:03d}",
        status=verdict(ok),
        residual=worst,
        instance=checks,
        tolerance=ACCRETIVE_TOL,
    )


# -- complex diagnostic ------------------------------------------------------

_REMARK45_ROWS = (
    (9.94929343 + 1.33276616j, 0.97565055 + 0.87236575j,
     -2.50825051 + 5.42561737j, 1.56748356 - 7.27519505j),
    (2.97979149 - 0.40625902j, 3.79277890 - 0.31914688j,
     0.54972864 + 0.60571431j, 0.32023125 + 2.04703155j),
    (-1.05662545 - 10.34778593j, 1.98753540 - 2.33447293j,
     9.41578815 - 0.76975962j, -7.77317132 - 1.83670880j),
    (-0.08351591 + 4.49741713j, 1.36270989 - 0.46531832j,
     -8.74961119 + 1.90215917j, 16.31271805 - 0.21461055j),
)


def remark45_matrix() -> Matrix:
    """The hard-coded 4x4 complex matrix whose conjugate-symmetric part is
    PSD but which violates the transpose-based minor inequality."""
    return Matrix.from_rows([list(r) for r in _REMARK45_ROWS])


def _real_embedding(a: Matrix) -> Matrix:
    """The real matrix [[X, -Y], [Y, X]] of A = X + iY.  Its symmetric part
    is the embedding of the Hermitian part (A + A*)/2 and has the same
    eigenvalues, each twice, so ``accretive`` of the embedding decides
    whether (A + A*)/2 is PSD."""
    rows = [[complex(z) for z in r] for r in a.to_rows()]
    return Matrix.from_rows(
        [[z.real for z in r] + [-z.imag for z in r] for r in rows]
        + [[z.imag for z in r] + [z.real for z in r] for r in rows]
    )


def remark45_repro() -> AccretiveWitness:
    """Re-evaluates the hard-coded complex witness: confirms (A + A*)/2 is
    PSD with ``accretive`` on the real embedding (smallest eigenvalue at
    least -1e-10 relative) and reports lhs < rhs for the transpose-based
    minors; raises UndecidedError if the Hermitian part is not PSD."""
    a = remark45_matrix()
    try:
        accretive(_real_embedding(a))
    except ValueError as exc:
        raise UndecidedError("hard-coded witness lost positive semidefiniteness") from exc
    return minor_witness(a, "remark45")


def _skew_hermitian(n: int, draw) -> Matrix:
    """Skew-Hermitian matrix (real skew + i * real symmetric) filled over
    the upper triangle in row order, the imaginary part drawn first."""
    rows = [[0j] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            im = draw()
            if i == j:
                rows[i][i] = complex(0.0, im)
                continue
            re = draw()
            rows[i][j] = complex(re, im)
            rows[j][i] = complex(-re, im)
    return Matrix.from_rows(rows)


def _random_complex_accretive(stream: SplitMix64, n: int) -> Matrix:
    """Complex matrix with (A + A*)/2 = G* G PSD by construction, plus a
    random skew-Hermitian part."""
    g = Matrix(
        n, n, [complex(stream.gauss(), stream.gauss()) for _ in range(n * n)]
    )
    gh = Matrix(n, n, [complex(g[j, i]).conjugate() for i in range(n) for j in range(n)])
    return gh @ g + _skew_hermitian(n, lambda: stream.uniform(-2.0, 2.0))


SEARCH_TOL = 1e-6  # a witness's margin is below -SEARCH_TOL * max(1, lhs + rhs)
MAX_WITNESSES = 100  # the search stops once it holds this many witnesses


def search_complex_violation(
    dim: int, iters: int, seed: int, init: str = "random"
) -> list[AccretiveWitness]:
    """Seeded random search (sampling plus skew-Hermitian hill climbing) for
    complex matrices with PSD conjugate-symmetric part that violate the
    transpose-based minor inequality by more than the relative tolerance
    ``SEARCH_TOL``.  Deterministic for a fixed (dim, iters, seed, init); an
    empty result is a valid outcome.

    ``iters`` is an upper bound: the search stops once it holds
    ``MAX_WITNESSES`` witnesses.  The list only grows until that cap and
    the running best only steers later candidates, so no later iteration
    could change the result.  Unlike the suites it runs in one process:
    each step starts from the best candidate so far."""
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if init not in ("random", "remark45"):
        raise ValueError(f"unknown init {init!r}")
    if init == "remark45" and dim != 4:
        raise ValueError("the hard-coded witness has dimension 4")
    stream = substream(seed, 0)
    witnesses: list[AccretiveWitness] = []
    best: Matrix | None = None
    best_margin = math.inf
    for it in range(iters):
        if len(witnesses) >= MAX_WITNESSES:
            break
        if it == 0 and init == "remark45":
            cand = remark45_matrix()
        elif best is None or it % 50 == 0:
            cand = _random_complex_accretive(stream, dim)
        else:
            # a small skew-Hermitian step keeps (A + A*)/2, and hence its
            # positive semidefiniteness, exactly
            sigma = max(0.02, 0.5 * 0.995 ** it)
            cand = best + _skew_hermitian(dim, lambda: sigma * stream.gauss())
        w = minor_witness(cand, f"search_d{dim}_i{it:06d}")
        scale = max(1.0, w.lhs + w.rhs)
        if w.margin < best_margin:
            best, best_margin = cand, w.margin
        if w.margin < -SEARCH_TOL * scale:
            witnesses.append(w)
    witnesses.sort(key=lambda w: w.margin)
    return witnesses
