"""Determinant engines over any integral-domain scalar.

One production engine per scalar world:

- ``det_bareiss`` serves numbers (ints, rationals, floats, complex):
  one-step fraction-free elimination whose every intermediate division is
  exact over an integral domain (floating matrices run the same sweep with
  magnitude pivoting and true division).  One step function,
  ``_bareiss_steps``, and one finisher, ``_bareiss_det``, hold that loop;
  ``det_bareiss``, ``contiguous_minors`` and the float adjugate all call
  them.  The entries are looked at once per determinant and pick one of
  three arms of the step (``_scalar_kind``): "float" for any float or
  complex entry, "int" for all plain ints, which divide inline by
  ``divmod``, and "ring" for every other exact entry (rationals and
  polynomials, mixed with ints or not), whose numerator is one
  ``sum_of_products`` and whose division is ``exact_div``; rationals take
  that accumulator's plain sum of numbers.  Every arm stops only on an
  exactly zero pivot.
- ``shared_column_minors`` serves every polynomial determinant of the
  certificates over Z[b1..bk], and its level step every polynomial
  adjugate: the division-free memoized Laplace expansion, which expands
  once along the columns its minors share, closes each minor by one more
  level step along its own extra column and never divides, so its
  intermediate results are sub-minors and stay small where Bareiss
  swells.  It runs in the index
  space of one ``ring.MonomialTable`` per call: a sub-minor maps monomial
  numbers to coefficients, and each minor is one accumulator of its signed
  products, each shifted through the table, with no packed key built and
  no intermediate product or partial sum; the results become polynomials
  only on the way out.  The level step ``_expand_level`` lists a level's
  index sets itself and drops each sub-minor once its last reader is built
  (the sub-minor plus the largest index it lacks), so the two levels of a
  step are never both whole.  No two polynomials are ever multiplied
  together: each product is a line entry times a sub-minor.  When the
  entries it reads have total degree at most 1 and their constant terms
  form a rank-one integer matrix C (``MonomialTable.two_bands``; every
  symbolic Johnson expansion, C = J), a k x k minor of C + L has terms of
  degree k and k - 1 only: by multilinearity in the columns it is the sum,
  over the sets T of columns, of the determinant with C's columns in T
  and L's elsewhere, and a term with two columns of a rank-one C
  vanishes.  Each sub-minor is then two bands, and a constant term
  multiplies the top band alone: its products with the lower band have
  degree k - 1 at level k + 1, so they cancel and are never formed.  Any
  other input keeps one band.

The paper's family A = J + B is Toeplitz with A^T = A(-b), so J A J =
sigma(A), with J the exchange matrix and sigma the ring map b -> -b
(``MultiPoly.negate_variables``; in index form
``MonomialTable.negate_variables``).  Two mirror identities then give
half of the polynomial minors from the other half, each taken only when
an exact check of the input shows that it holds, with no size threshold:

- adjugate: if J A J = sigma(A), then adj(A)[n-1-i][n-1-j] =
  sigma(adj(A)[i][j]).  Proof: sigma is a ring map, so adj(sigma A) =
  sigma adj(A); and adj(X Y) = adj(Y) adj(X) with adj(J) = det(J) J, so
  adj(J A J) = det(J)^2 J adj(A) J = J adj(A) J.
- Toeplitz sub-minors: if a[i][j] = t_{j-i} with t_{-d} = sigma(t_d), I
  is an interval of columns with c = min I + max I, and S and c - S are
  row sets, then det a[c - S, I] = sigma(det a[S, I]), both with the
  columns of I in the same order.  Proof: with j = c - j',
  a[c - s][c - j'] = t_{s - j'} = sigma(a[s][j']), so a[c - S, I] is
  sigma(a[S, I]) with its rows and its columns reversed, and two reversals
  of one length leave a determinant alone.

``adjugate`` (cofactor transpose, exact on singular matrices) takes one path
per scalar world, chosen by the kind of its entries:

- polynomials: leave-one-row-out expansion by the same level step, in one
  ``MonomialTable``.  Column j of adj(A) is the last level of a row
  expansion that skips row j; a recursion halves the range of dropped rows,
  and each half expands the other half's rows on its own copy of the
  level, so levels 1..n/2 are built twice and level n - 1 once per column,
  and the minors become polynomials only as they are written out.  When
  J A J = sigma(A) (the skew Toeplitz B of every skew adjugate), only
  the columns 0..ceil(n/2)-1 are expanded, and the others are their
  mirror images by the adjugate mirror identity above;
- exact numbers (ints, rationals): Cayley-Hamilton on the division-free
  Berkowitz characteristic polynomial, O(n^4) ring operations in place of
  the O(n^5) of n^2 Bareiss minors, and valid on singular matrices, where
  ``det * A^-1`` is not;
- floats and complex: Bareiss minors on a shared prefix (Cayley-Hamilton
  is numerically unstable): the minor without column i branches off one
  elimination of the other rows, by the same kernel, after step i - 1, and
  eliminates only the trailing block that step leaves, with the bits of its
  own Bareiss determinant; about n^5/12 updates in place of n^5/3.  So its
  corners are the four contiguous minors, bit for bit, up to the sign
  (-1)^(n-1) of the off-diagonal two.

The all-ones quadratic form ``s_functional`` and the four contiguous minors
``contiguous_minors`` sit on top.  ``det_cofactor`` and ``det_condensation``
(exact scalars only) are oracles, and Bareiss is the oracle for the Laplace
expansion on polynomials and, minor by minor, for the polynomial and
exact-number adjugates.  The cofactor oracle is Laplace expansion along the
first row of each block, built bottom up over the bit masks of the column
sets of the trailing sub-minors: O(n 2^n) products in place of O(n!), with
plain ``*``, ``+`` and ``-`` and none of the production code, so that it
stays independent.  It is capped at order 7 (``COFACTOR_CAP``), which bounds
its levels and fixes the orders ``bench det`` runs it at.  Condensation
iterates the 2x2 recurrence

    det(M_{k+1} block) * interior = m11*m22 - m12*m21

and rescues any entry whose interior divisor vanishes, so it returns the
true determinant on every exact input: a 3x3 block around a zero entry by
its first-row expansion, whose outer minors the level already holds, and a
larger block by the Bareiss kernel.  Its levels (``_condense``) take the
exact arms of Bareiss.  ``DET_ALGOS`` lists the square-matrix engines that
``bench det`` times.
"""
from __future__ import annotations

from itertools import combinations

from .matrix import Matrix
from .ring import (
    ExactDivisionError,
    MonomialTable,
    MultiPoly,
    exact_div,
    is_floating,
    sum_of_products,
)

__all__ = [
    "COFACTOR_CAP",
    "DET_ALGOS",
    "adjugate",
    "contiguous_minors",
    "det_bareiss",
    "det_cofactor",
    "det_condensation",
    "s_functional",
    "shared_column_minors",
]

COFACTOR_CAP = 7


def _require_square(a: Matrix):
    if not a.is_square:
        raise ValueError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")


def det_cofactor(a: Matrix):
    """Laplace expansion along the first row of each block, memoized on the
    trailing sub-minors; the exponential-time oracle.

    It is built bottom up: level k holds the minors on the last k rows,
    one for each set of k columns, keyed by the bit mask of the set, and
    each one expands along its first row over the level below, which is then
    dropped.  So an order-n determinant costs O(n 2^n) products in place of
    O(n!).  It uses only the scalars' own ``*``, ``+`` and ``-``, never the
    production engines, so it stays an independent oracle.  The cap keeps
    its 2^n minors small and fixes the ``bench det`` command set."""
    _require_square(a)
    n = a.rows
    if n > COFACTOR_CAP:
        raise ValueError(f"cofactor oracle is capped at order {COFACTOR_CAP}, got {n}")
    if n == 0:
        return 1
    rows = a.to_rows()
    bits = [1 << c for c in range(n)]
    minors = dict(zip(bits, rows[-1]))
    for k in range(2, n + 1):
        level = {}
        for xs, bs in zip(combinations(rows[n - k], k), combinations(bits, k)):
            mask = sum(bs)
            got = xs[0] * minors[mask ^ bs[0]]
            for j in range(1, k):
                term = xs[j] * minors[mask ^ bs[j]]
                got = got - term if j % 2 else got + term
            level[mask] = got
        minors = level
    return minors[(1 << n) - 1]


def det_bareiss(a: Matrix):
    """Fraction-free (Bareiss) determinant, through the one elimination
    kernel of every number determinant (``_bareiss_steps``).

    The entries are looked at once and pick the kernel's arm
    (``_scalar_kind``): any float or complex entry takes the floating arm,
    all plain ints the integer arm, and any other exact entry (a rational
    or a polynomial, mixed with ints or not) the ring arm.
    Row swaps bring a pivot to the diagonal: for floating scalars the first
    row of largest magnitude (ties go to the upper row, and a NaN is never
    preferred to the row already chosen), for exact ones the first nonzero,
    whose every division is then exact (a remainder raises
    ExactDivisionError, i.e. a ring-contract bug).  The matrix is singular
    only when the chosen pivot is exactly zero; the result is then a zero of
    the entries' own kind.  No cutoff applies: the pivots are leading
    minors, which may be legitimately tiny.  The floating arm of the kernel
    stays only while float verdicts take it: the float minors of ``search
    complex`` and the float checks of ``verify accretive`` (ROADMAP item 4).
    """
    _require_square(a)
    return _bareiss_det(a.to_rows(), (1, 1), _scalar_kind(a))


def _scalar_kind(a: Matrix) -> str:
    """One of the three arms of the Bareiss and condensation kernels for
    the entries of ``a``: "float" if any is a float or complex, else "int"
    if every one is a plain int (not a bool or other subclass), else
    "ring", rationals and polynomials alike."""
    kind = "int"
    for x in a.entries():
        if type(x) is not int:
            if is_floating(x):
                return "float"
            kind = "ring"
    return kind


def _bareiss_steps(rows, k0, k1, state, kind: str):
    """Bareiss steps k0..k1-1 on the fresh row lists ``rows`` (possibly
    wider than square), in place; ``state`` is (sign, previous pivot) before
    them, and the result is the state after them, or None on an exactly zero
    pivot.  ``kind``, from ``_scalar_kind``, picks the pivot rule (first row
    of largest magnitude for "float", else first nonzero row) and the
    update of each entry x below the pivot row, y its pivot-row entry:
    "float" divides pk * x - rik * y by the previous pivot; "int" takes the
    same numerator and one inline ``divmod``; "ring" builds the numerator
    as one ``sum_of_products`` accumulator, the plain sum from 0 on
    rationals, and divides it by ``exact_div``.  The exact arms raise
    ExactDivisionError on a remainder."""
    sign, prev = state
    n, width = len(rows), len(rows[0])
    for k in range(k0, k1):
        if kind == "float":
            pr, big = k, abs(rows[k][k])
            for r in range(k + 1, n):
                mag = abs(rows[r][k])
                if mag > big:
                    pr, big = r, mag
        else:
            pr = next((r for r in range(k, n) if rows[r][k]), k)
        if not rows[pr][k]:
            return None
        if pr != k:
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        base = rows[k]
        pk = base[k]
        if kind == "float":
            for ri in rows[k + 1:]:
                rik = ri[k]
                for j in range(k + 1, width):
                    ri[j] = (pk * ri[j] - rik * base[j]) / prev
        elif kind == "int":
            for ri in rows[k + 1:]:
                rik = ri[k]
                for j in range(k + 1, width):
                    q, r = divmod(pk * ri[j] - rik * base[j], prev)
                    if r:
                        raise ExactDivisionError(f"Bareiss step {k}: {prev} leaves {r}")
                    ri[j] = q
        else:
            for ri in rows[k + 1:]:
                rik = ri[k]
                for j in range(k + 1, width):
                    ri[j] = exact_div(sum_of_products(((1, pk, ri[j]), (-1, rik, base[j]))),
                                      prev)
        prev = pk
    return sign, prev


def _bareiss_det(rows, state, kind: str, corner=None):
    """Determinant of the square ``rows`` by Bareiss steps from ``state``,
    (1, 1) for a whole matrix, or the state that earlier steps on a larger
    matrix left when ``rows`` is the trailing block they leave: 1 for no
    rows, and a zero of the entries' own kind on an exactly zero pivot,
    ``rows[0][0] * 0`` or, for a trailing block, ``corner * 0`` with
    ``corner`` the larger matrix's top-left entry."""
    if not rows:
        return 1
    state = _bareiss_steps(rows, 0, len(rows) - 1, state, kind)
    if state is None:
        return (rows[0][0] if corner is None else corner) * 0
    result = rows[-1][-1]
    return -result if state[0] < 0 else result


def det_condensation(a: Matrix):
    """Iterated 2x2 condensation that rescues zero interiors; exact scalars
    only (float or complex entries raise TypeError).

    The entries pick one of the two exact arms of every level
    (``_condense``) once: all plain ints divide inline, and any other
    entries, rationals or polynomials, build each numerator as one
    ``sum_of_products`` before ``exact_div``."""
    _require_square(a)
    kind = _scalar_kind(a)
    if kind == "float":
        raise TypeError("condensation is an exact engine; got float or complex entries")
    if a.rows == 0:
        return 1
    rows = a.to_rows()
    cur, prev = rows, None
    while len(cur) > 1:
        prev, cur = cur, _condense(cur, prev, kind, rows)
    return cur[0][0]


def _condense(cur, prev, kind: str, rows) -> list:
    """One condensation level of the matrix ``rows``: from the k x k
    contiguous minors ``cur`` and the (k-1) x (k-1) ones ``prev`` (None when
    k = 1), the (k+1) x (k+1) ones, in one pass,

        next[i][j] = (cur[i][j] cur[i+1][j+1] - cur[i][j+1] cur[i+1][j])
                     / prev[i+1][j+1],

    by Desnanot-Jacobi.  ``kind`` "int" divides by an inline ``divmod``,
    and "ring" builds the numerator as one ``sum_of_products`` and divides
    by ``exact_div``; each raises ExactDivisionError on a remainder.  An entry
    whose interior prev[i+1][j+1] is zero builds no numerator: at k = 2 its
    3 x 3 block, whose centre is that zero, expands along its first row,
    where the outer two minors are cur[i+1][j+1] and cur[i+1][j] and the
    middle one is a 2 x 2 product; a larger block goes to ``_bareiss_det``
    with the same ``kind``."""
    if prev is None:
        ring = kind == "ring"
        return [[sum_of_products(((1, w, z), (-1, x, y))) if ring else w * z - x * y
                 for w, x, y, z in zip(top, top[1:], low, low[1:])]
                for top, low in zip(cur, cur[1:])]
    size = len(rows) - len(cur) + 2
    nxt = []
    for i in range(len(cur) - 1):
        top, low = cur[i], cur[i + 1]
        interior = prev[i + 1][1:-1]
        row = []
        for j, d in enumerate(interior):
            if d:
                w, x, y, z = top[j], top[j + 1], low[j], low[j + 1]
                if kind == "int":
                    q, r = divmod(w * z - x * y, d)
                    if r:
                        raise ExactDivisionError(f"condensation: {d} leaves {r}")
                else:
                    q = exact_div(sum_of_products(((1, w, z), (-1, x, y))), d)
            elif size > 3:
                q = _bareiss_det([r[j:j + size] for r in rows[i:i + size]], (1, 1), kind)
            else:  # expand the 3x3 block along its first row
                (t0, t1, t2), (m0, _, m2), (l0, _, l2) = (r[j:j + 3] for r in rows[i:i + 3])
                if kind == "ring":
                    mid = sum_of_products(((1, m0, l2), (-1, m2, l0)))
                    q = sum_of_products(((1, t0, low[j + 1]), (-1, t1, mid), (1, t2, low[j])))
                else:
                    q = t0 * low[j + 1] - t1 * (m0 * l2 - m2 * l0) + t2 * low[j]
            row.append(q)
        nxt.append(row)
    return nxt


def shared_column_minors(a: Matrix, shared, extra) -> list:
    """Division-free memoized column expansion (Gentleman & Johnson 1976)
    of minors that share all but one column.

    For each column c of ``extra``, in order, returns det a[R, sorted(shared
    + {c})] on the leading rows R = 0..m-1 of ``a``, m = len(shared) + 1; no
    column may repeat.  The minors of every row subset R on the first k of
    the sorted shared columns are built level by level, keyed by the bit
    mask of R,

        D[R] = sum_{p, i = R[p]} (-1)^(k-1+p) a[i][shared[k-1]] D[R - {i}],

    D[{}] = 1, by the level step ``_expand_level`` with each column for its
    row (a determinant is its transpose's): 2^m - 2 sub-minors, built once
    for every c.  Each c is then one more level step, along its column
    taken last, on a copy of the last level, with the column's entries
    times the sign (-1)^(number of shared columns greater than c) that
    moves it into place.  Every step runs in the index form of one
    ``MonomialTable`` for the call, so a monomial is numbered, and its
    degree checked, once, and only the results are turned into polynomials
    (plain numbers when no entry is a polynomial).  No ring division is
    made, so nothing swells beyond the minors themselves.

    When the entries are polynomials, the shared columns one run, and the
    picked rows Toeplitz with t_{-d} = sigma(t_d) (sigma: b -> -b; every
    Johnson expansion, the even reduced cases and the odd skew
    determinant), the columns are expanded center-out (``_center_out``),
    so that the first k of them form an interval I whose center c = min I
    + max I is as close to m - 1 as the run allows.  The level step then
    builds det a[S, I] for only one of each pair of row sets S and c - S
    and takes the other as its sigma-image, the Toeplitz mirror identity
    of the module docstring: a[c - s][c - j] = t_{s-j} = sigma(a[s][j]),
    so a[c - S, I] is sigma(a[S, I]) with rows and columns reversed, which
    keeps the determinant in any one column order.  The closing sign then
    also counts the inversions of the center-out order.  Every other input
    (numbers, a gap in the run, any other matrix) keeps the sorted order
    and builds every sub-minor; the minors are the same term for term.

    The table is banded when the entries on the rows R and the columns
    ``shared + extra`` pass ``MonomialTable.two_bands``, an O(m^2) test:
    polynomials of total degree at most 1 and ints whose constant terms
    C have rank one, as in J + B.  Every column set of C then has rank at
    most one too, so by multilinearity in the columns each D[R] of order
    k is the minor of the linear parts, of degree k, plus the terms with
    exactly one column of C, of degree k - 1.  A sub-minor is those two
    bands; a linear term of a line entry takes each band to its own band
    one level up and the constant term the top band to the lower one.  The
    constant term times the lower band would have degree k - 1 at level
    k + 1, which D lacks, so the sum of those products is zero and the
    kernel never forms them.  The minors are the same term for term.
    """
    cols, extra = sorted(shared), list(extra)
    m = len(cols) + 1
    if m > a.rows:
        raise ValueError(f"{m - 1} shared columns need {m} rows, got {a.rows}")
    idx = cols + extra
    if len(set(idx)) != len(idx) or not all(0 <= i < a.cols for i in idx):
        raise ValueError(f"columns {idx} repeat or leave a {a.rows}x{a.cols} matrix")
    picked = a.to_rows()[:m]
    poly = next((x for r in picked for x in r if isinstance(x, MultiPoly)), None)
    order = [(c, None) for c in cols]
    if poly is None:
        table = MonomialTable(None)
    else:
        lines = [[r[c] for c in idx] for r in picked]
        table = MonomialTable(poly.nvars, MonomialTable.two_bands(lines))
        if cols and cols[-1] - cols[0] == len(cols) - 1 and _mirrored_toeplitz(picked):
            order = _center_out(cols, m - 1)
    prev = {0: ({0: 1},)}
    for k, (c, center) in enumerate(order, 1):
        prev = _expand_level(table, [r[c] for r in picked], k, prev, center)
    parity = sum(p > q for (p, _), (q, _) in combinations(order, 2))
    results = []
    for c in extra:
        sign = (-1) ** (parity + sum(s > c for s in cols))
        (d,) = _expand_level(table, [sign * r[c] for r in picked], m, dict(prev)).values()
        results.append(table.element(d))
    return results


def _sigma(x):
    """The ring map b -> -b on one entry; the identity on numbers."""
    return x.negate_variables() if isinstance(x, MultiPoly) else x


def _mirrored(rows) -> bool:
    """Whether the square ``rows`` satisfy J A J = sigma(A):
    rows[n-1-i][n-1-j] = sigma(rows[i][j]) for all i, j."""
    n = len(rows)
    return all(rows[n - 1 - i][n - 1 - j] == _sigma(x)
               for i, r in enumerate(rows) for j, x in enumerate(r))


def _mirrored_toeplitz(rows) -> bool:
    """Whether ``rows`` is Toeplitz, rows[i][j] = t_{j-i}, with
    t_{-d} = sigma(t_d) for every d with both t_d and t_{-d} in it, d = 0
    included."""
    top, left = rows[0], [r[0] for r in rows]
    return all(
        x == (top[j - i] if j >= i else left[i - j])
        for i, r in enumerate(rows) for j, x in enumerate(r)
    ) and all(left[d] == _sigma(top[d]) for d in range(min(len(top), len(left))))


def _center_out(cols, target) -> list:
    """The sorted consecutive columns ``cols`` as (column, center) pairs in
    an order whose first k columns form, for each k, an interval whose
    center lo + hi is as close to ``target`` as the run allows: from the
    column nearest target / 2 (the lower on a tie), each step adds the
    neighbour that brings the center nearer, the left one on a tie."""
    lo = hi = min(cols, key=lambda j: abs(2 * j - target))
    order = [(lo, 2 * lo)]
    while len(order) < len(cols):
        if lo > cols[0] and (hi == cols[-1] or lo + hi >= target):
            lo -= 1
            col = lo
        else:
            hi += 1
            col = hi
        order.append((col, lo + hi))
    return order


def _expand_level(table, line, k, prev, center=None) -> dict:
    """One level of the Laplace expansion, along rows or, with each column
    for its row, along columns (a determinant is its transpose's): for each
    k-subset S of the indices of ``line``, in ``combinations`` order and
    keyed by bit mask, the k x k minor whose last row is ``line``, from
    ``prev``, the minors of the k - 1 rows above it on every (k-1)-subset:

        D[S] = sum_{p, j = S[p]} (-1)^(k-1+p) line[j] prev[S - {j}].

    The minors are in the index form of ``table``, the ``MonomialTable``
    of the whole expansion, so each line entry is a few shift tables and
    each D[S] is one ``table.sum_of_products`` call; zero entries and zero
    sub-minors are skipped.  A banded table keeps each D[S] as its terms
    of degree k and k - 1 and never multiplies the lower band of a
    sub-minor by a constant term: when the constant parts of the lines
    have rank one, a minor has no terms of degree k - 2, so those products
    cancel (multilinearity, as ``shared_column_minors`` shows); the
    polynomial adjugate runs on a table of one band.  Each sub-minor T is
    deleted from ``prev`` as soon as its last reader is built, T plus the
    largest index T lacks: right after S, each S - {j} with j above S's
    largest missing index; so ``prev`` is left empty, and a caller that
    reads it afterwards passes a copy, and the two levels of a step are
    never both whole.  The
    polynomial adjugate runs it on rows in any order (``line`` the row
    expanded k-th), and the shared-column expansion on columns.

    The shared-column expansion of a Toeplitz block with t_{-d} =
    sigma(t_d) (sigma: b -> -b) passes ``center`` c, the center min + max
    of the interval of columns expanded so far.  Each S whose reflection
    c - S lies in the indices of ``line`` and is already built is then
    ``table.negate_variables`` of D[c - S], with no products.  That is the
    Toeplitz mirror identity: a[c - s][c - j] = t_{s-j} = sigma(a[s][j]),
    so the block on c - S is sigma of the block on S with its rows and
    columns reversed, and two reversals of one length keep a determinant.
    The reflection c - S is the bit reversal of S's mask shifted by
    c - (n - 1); spent sub-minors are deleted by the same rule either
    way."""
    n = len(line)
    full = (1 << n) - 1
    bits = [1 << j for j in range(n)]
    signs = [-1 if (k - 1 + p) % 2 else 1 for p in range(k)]
    factors = [table.factor(e) for e in line]
    if center is not None:
        # the reflection j -> center - j is the bit reversal j -> n - 1 - j
        # moved by shift; a set it takes out of range gains a bit above
        # ``full`` or loses one, so it is never a set of ``cur``
        shift = center - (n - 1)
    cur = {}
    for fs, bs in zip(combinations(factors, k), combinations(bits, k)):
        mask = sum(bs)
        twin = None
        if center is not None:
            twin = int(f"{mask:0{n}b}"[::-1], 2)
            twin = twin << shift if shift >= 0 else twin >> -shift
        if twin in cur:
            cur[mask] = table.negate_variables(cur[twin])
        else:
            pairs = []
            for sign, f, bit in zip(signs, fs, bs):
                if f:
                    d = prev[mask ^ bit]
                    if d:
                        pairs.append((sign, f, d))
            cur[mask] = table.sum_of_products(pairs)
        for bit in bits[(full ^ mask).bit_length():]:
            del prev[mask ^ bit]
    return cur


def _charpoly(rows) -> list:
    """Coefficients [1, c1, .., cn] of det(tI - A) = t^n + c1 t^(n-1) + .. + cn,
    by Berkowitz's division-free recurrence (Berkowitz 1984).

    With A_r the leading principal r x r block, bordered by the row R and
    column S and the diagonal entry a, the coefficients of A_r are a lower
    triangular Toeplitz matrix times those of A_(r-1); its first column is
    (1, -a, -R S, -R A_(r-1) S, .., -R A_(r-1)^(r-2) S).  Zero entries are
    skipped in the matrix-vector products."""
    p = [1]
    for r, row in enumerate(rows):
        block = [[(j, x) for j, x in enumerate(rows[i][:r]) if x] for i in range(r)]
        left = [(j, x) for j, x in enumerate(row[:r]) if x]
        v = [rows[i][r] for i in range(r)]
        col = [1, -row[r]]
        for k in range(r):
            col.append(-sum([x * v[j] for j, x in left]))
            if k < r - 1:
                v = [sum([x * v[j] for j, x in bi]) for bi in block]
        p = [
            sum([col[i - j] * p[j] for j in range(min(i, r) + 1)])
            for i in range(r + 2)
        ]
    return p


def _adjugate_cayley_hamilton(rows) -> Matrix:
    """adj(A) = (-1)^(n-1) (A^(n-1) + c1 A^(n-2) + .. + c_(n-1) I) by matrix
    Horner on the characteristic polynomial; ring operations only, so exact
    for ints and rationals, singular matrices included."""
    n = len(rows)
    c = _charpoly(rows)
    nonzero = [[(k, x) for k, x in enumerate(row) if x] for row in rows]
    b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for ck in c[1:n]:
        nxt = []
        for i, ai in enumerate(nonzero):
            acc = [0] * n
            for k, x in ai:
                acc = [s + x * y for s, y in zip(acc, b[k])]
            acc[i] += ck
            nxt.append(acc)
        b = nxt
    sign = -1 if n % 2 == 0 else 1
    return Matrix(n, n, [sign * x for r in b for x in r])


def _adjugate_leave_one_out(rows, table, lo, hi, state, parity, out, mirrored):
    """Columns lo..hi-1 of the adjugate of the square ``rows`` into the flat
    ``out``, from ``state``, the level of minors on the n - (hi - lo) rows
    outside [lo, hi), in the order they were expanded, keyed by the bit mask
    of their columns in the index form of ``table``; ``parity`` counts the
    inversions of that order.

    Column j of adj(A) holds the n minors of A without row j, the last level
    of a row expansion that skips row j.  When ``mirrored`` (J A J =
    sigma(A)), a leaf also writes adj[n-1-i][n-1-j] = sigma(adj[i][j])
    from the same index form by ``table.negate_variables``, unless that
    is its own column.  The range splits at mid: the left
    half expands rows mid..hi-1 on a copy of ``state`` (the level step
    empties the level it reads), the right half rows lo..mid-1 on ``state``
    itself.  The left half's own rows, all but the dropped one, come after
    the hi - mid larger rows it expands, which adds (hi - mid) (mid - lo - 1)
    inversions; the right half's come after smaller rows and add none.  A
    leaf [j, j + 1) writes adj[i][j] = (-1)^(parity + i + j) times the minor
    without column i, each taken out of ``state`` as it becomes a
    polynomial.  The recursion is a module-level function with its table
    and output as arguments, not a closure, so that no reference cycle
    keeps them alive after the call."""
    n = len(rows)
    k = n - (hi - lo)
    if hi - lo == 1:
        full = (1 << n) - 1
        for i in range(n):
            sign = -1 if (parity + i + lo) % 2 else 1
            d = state.pop(full ^ (1 << i))
            out[i * n + lo] = table.element(d, sign)
            if mirrored and 2 * lo != n - 1:
                out[(n - 1 - i) * n + n - 1 - lo] = table.element(table.negate_variables(d), sign)
        return
    mid = (lo + hi) // 2
    left = dict(state)
    for r in range(mid, hi):
        left = _expand_level(table, rows[r], k + 1 + r - mid, left)
    _adjugate_leave_one_out(rows, table, lo, mid, left,
                            parity + (hi - mid) * (mid - lo - 1), out, mirrored)
    del left
    for r in range(lo, mid):
        state = _expand_level(table, rows[r], k + 1 + r - lo, state)
    _adjugate_leave_one_out(rows, table, mid, hi, state, parity, out, mirrored)


def adjugate(a: Matrix) -> Matrix:
    """Transpose of the cofactor matrix: adj(A)_{ij} = (-1)^{i+j} det of A
    with row j and column i deleted; satisfies A adj(A) = det(A) I.

    One path per scalar world.  Polynomial entries: leave-one-row-out
    expansion (``_adjugate_leave_one_out``), whose column j is the last
    level of a row expansion that skips row j, built in the index space of
    one ``MonomialTable`` by the level step of ``shared_column_minors``,
    where Bareiss would divide and swell and Berkowitz is slower.  Ints and
    rationals: Cayley-Hamilton on the Berkowitz characteristic polynomial,
    O(n^4), exact on singular matrices.  Floats and complex: Bareiss minors
    on a shared prefix, since Cayley-Hamilton is numerically unstable; the
    ``det_bareiss`` kernel runs each shared step once and finishes each
    minor on the trailing block it still eliminates, so every minor keeps
    the bits (a zero pivot's signed zero included) of its own
    ``det_bareiss``, and the corners adj[n-1, n-1], adj[0, 0] and
    (-1)^(n-1) adj[0, n-1], adj[n-1, 0] are ``contiguous_minors`` exactly.
    At order 1 each path gives 1: the int 1 for numbers, the ring's 1 for
    polynomials.

    Polynomial entries with J A J = sigma(A) (J the exchange matrix,
    sigma: b -> -b), checked exactly entry by entry (``_mirrored``; sigma is
    the identity on ints), take half the work: adj(sigma A) = sigma adj(A),
    since sigma is a ring map, and adj(J A J) = J adj(A) J, since adj(X Y)
    = adj(Y) adj(X) and adj(J) = det(J) J with det(J)^2 = 1; so
    adj[n-1-i][n-1-j] = sigma(adj[i][j]).  Rows h..n-1, h = ceil(n/2), are
    expanded first, the leave-one-out recursion builds columns 0..h-1 only,
    and each leaf writes the mirror of its column.  The minors of column j
    < h then take their rows in an order with (n - h)(h - 1) inversions:
    the n - h rows expanded first lie below the h - 1 rows expanded after
    them.  Any other input expands every column."""
    _require_square(a)
    n = a.rows
    if n == 0:
        raise ValueError("adjugate needs order >= 1")
    poly = next((x for x in a.entries() if isinstance(x, MultiPoly)), None)
    rows = a.to_rows()
    if poly is not None:
        out = [None] * (n * n)
        table, state = MonomialTable(poly.nvars), {0: ({0: 1},)}
        if _mirrored(rows):
            h = (n + 1) // 2
            for r in range(h, n):
                state = _expand_level(table, rows[r], 1 + r - h, state)
            _adjugate_leave_one_out(rows, table, 0, h, state, (n - h) * (h - 1), out, True)
        else:
            _adjugate_leave_one_out(rows, table, 0, n, state, 0, out, False)
        return Matrix(n, n, out)
    if _scalar_kind(a) != "float":
        return _adjugate_cayley_hamilton(rows)
    out = [None] * (n * n)
    for j in range(n):
        # the rows other than j, eliminated once; the minor without column
        # i shares its steps 0..k-1, k = min(i, n - 2), and eliminates only
        # the block they leave, whose zero pivot gives rect[0][0] * 0 if k
        rect = [list(r) for r in rows[:j] + rows[j + 1:]]
        state = (1, 1)
        for i in range(n):
            k = max(0, min(i, n - 2))
            if state is None:  # a shared pivot was exactly zero
                minor = rect[0][0] * 0
            else:
                minor = _bareiss_det([r[k:i] + r[i + 1:] for r in rect[k:]], state,
                                     "float", rect[0][0] if k else None)
                if i < n - 2:
                    state = _bareiss_steps(rect, i, i + 1, state, "float")
            out[i * n + j] = -minor if (i + j) % 2 else minor
    return Matrix(n, n, out)


def s_functional(x: Matrix):
    """Sum of all adjugate entries (the all-ones quadratic form of adj(X))."""
    return sum(adjugate(x).entries())


def contiguous_minors(a: Matrix):
    """The four contiguous (n-1)-minors (d11, d22, d12, d21) of a square A,
    dij = det A_{n-1}(i, j), the block whose top-left entry is A[i, j]
    (1-based), by Bareiss.  A matrix with any float or complex entry is
    floating in all four minors."""
    _require_square(a)
    if a.rows < 2:
        raise ValueError("contiguous minors need order >= 2")
    m = a.rows - 1
    kind = _scalar_kind(a)
    rows = a.to_rows()
    corners = ((0, 0), (1, 1), (0, 1), (1, 0))
    return tuple(
        _bareiss_det([r[j:j + m] for r in rows[i:i + m]], (1, 1), kind)
        for i, j in corners
    )


DET_ALGOS = {
    "cofactor": det_cofactor,
    "bareiss": det_bareiss,
    "condensation": det_condensation,
}
