import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from minorcert import cli
from minorcert import detkit as detkit_module
from minorcert.detkit import (
    COFACTOR_CAP,
    DET_ALGOS,
    adjugate,
    contiguous_minors,
    det_bareiss,
    det_cofactor,
    det_condensation,
    s_functional,
    shared_column_minors,
)
from minorcert.matrix import (
    Matrix,
    generic_skew_toeplitz,
    identity,
    johnson_family,
    ones,
    skew_toeplitz,
)
from minorcert.ring import (
    ExactDivisionError,
    MonomialTable,
    MultiPoly,
    sum_of_products,
    variables,
)
from minorcert.rng import (
    random_int_matrix,
    random_poly_matrix,
    substream,
)

HAND_EXAMPLE = Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])


def test_cofactor_oracle_basics():
    assert det_cofactor(identity(3)) == 1
    assert det_cofactor(Matrix.from_rows([[0, 1], [-1, 0]])) == 1
    assert det_cofactor(HAND_EXAMPLE) == -3
    assert det_cofactor(Matrix(0, 0, [])) == 1


def test_cofactor_cap():
    with pytest.raises(ValueError):
        det_cofactor(identity(8))


def _leibniz(a):
    """sum over permutations p of sign(p) * prod_i a[i, p(i)], the sign from
    the inversion count: an oracle for the oracle that shares no code with it."""
    n = a.rows
    rows = a.to_rows()
    total = 0
    for p in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        term = 1
        for i in range(n):
            term = term * rows[i][p[i]]
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("n", range(COFACTOR_CAP + 1))
def test_cofactor_matches_leibniz_on_integers(n):
    for t in range(4):
        a = random_int_matrix(substream(111, 10 * n + t), n)
        assert det_cofactor(a) == _leibniz(a)


@pytest.mark.parametrize("n", range(1, 7))
def test_cofactor_matches_leibniz_on_fractions(n):
    stream = substream(112, n)
    a = Matrix(n, n, [Fraction(stream.randint(-9, 9), stream.randint(1, 7))
                      for _ in range(n * n)])
    d = det_cofactor(a)
    assert isinstance(d, (int, Fraction))
    assert d == _leibniz(a)


@pytest.mark.parametrize("n", range(1, 5))
def test_cofactor_matches_leibniz_on_polynomials(n):
    for t in range(3):
        a = random_poly_matrix(substream(113, 10 * n + t), n)
        d, expected = det_cofactor(a), _leibniz(a)
        assert d == expected
        assert str(d) == str(expected)


@pytest.mark.parametrize("n", range(2, 7))
def test_cofactor_matches_leibniz_with_zero_and_repeated_rows(n):
    stream = substream(114, n)
    for victim in range(n):
        rows = random_int_matrix(stream, n).to_rows()
        rows[victim] = [0] * n
        zero_row = Matrix.from_rows(rows)
        assert det_cofactor(zero_row) == _leibniz(zero_row) == 0
        rows = random_int_matrix(stream, n).to_rows()
        rows[victim] = list(rows[(victim + 1) % n])
        repeated = Matrix.from_rows(rows)
        assert det_cofactor(repeated) == _leibniz(repeated) == 0
    # a sparse matrix with a zero row keeps zero sub-minors in the memo
    rows = [[x if x % 3 else 0 for x in r] for r in random_int_matrix(stream, n).to_rows()]
    rows[-1] = [0] * n
    sparse = Matrix.from_rows(rows)
    assert det_cofactor(sparse) == _leibniz(sparse) == 0


@pytest.mark.parametrize("scalar,order", [("int", COFACTOR_CAP), ("poly", 6)])
def test_bench_det_cofactor_and_bareiss_hashes_agree(capsys, scalar, order):
    hashes = {}
    for algo in ("cofactor", "bareiss"):
        rc = cli.main(["bench", "det", "--algo", algo, "--scalar", scalar,
                       "--order", str(order), "--trials", "4", "--seed", "31"])
        assert rc == 0
        hashes[algo] = [r["det_hash"] for r in json.loads(capsys.readouterr().out)]
    assert len(hashes["cofactor"]) == 4
    assert hashes["cofactor"] == hashes["bareiss"]


def test_bareiss_basics():
    assert det_bareiss(Matrix.from_rows([[2, 0], [0, 3]])) == 6
    assert det_bareiss(generic_skew_toeplitz(3)) == 0
    assert det_bareiss(HAND_EXAMPLE) == -3
    assert det_bareiss(Matrix(0, 0, [])) == 1


def test_bareiss_matches_cofactor_on_random_integers():
    for t in range(30):
        stream = substream(101, t)
        a = random_int_matrix(stream, 5)
        assert det_bareiss(a) == det_cofactor(a)


def test_bareiss_with_zero_pivots():
    a = Matrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    assert det_bareiss(a) == det_cofactor(a) == -6
    assert det_bareiss(zeros_like(3)) == 0


def zeros_like(n):
    return Matrix(n, n, [0] * (n * n))


def test_condensation_basics():
    assert det_condensation(HAND_EXAMPLE) == -3
    assert det_condensation(ones(3)) == 0
    assert det_condensation(Matrix(0, 0, [])) == 1
    assert det_condensation(identity(1)) == 1


def test_condensation_matches_bareiss_including_zero_interiors():
    for t in range(30):
        stream = substream(202, t)
        a = random_int_matrix(stream, 6)
        rows = a.to_rows()
        if t % 3 == 0:
            rows[2][2] = 0  # force a zero interior pivot
            rows[3][3] = 0
            a = Matrix.from_rows(rows)
        assert det_condensation(a) == det_bareiss(a)


def test_condensation_on_polynomials():
    b = generic_skew_toeplitz(4)
    assert det_condensation(b) == det_bareiss(b)


KINDS = ["int", "fraction", "int+fraction", "poly", "int+poly"]
RESULT_TYPE = {"int": int, "fraction": Fraction, "poly": MultiPoly}


def _kind_cases(kind, n, stream):
    """Seeded n x n matrices whose entries are of ``kind``: one dense, one
    sparse (zero pivots, row swaps, singular blocks, zero interiors) and,
    from order 3, one with zero interior entries, so that condensation
    rescues at its first dividing level.  A "+" kind mixes plain ints into
    about half the entries."""
    def entry(sparse):
        if sparse and stream.randint(0, 2):
            x = {"fraction": Fraction(0), "poly": MultiPoly(2)}.get(kind, 0)
        elif kind.endswith("poly"):
            x = random_poly_matrix(stream, 1).entries()[0]
        elif kind.endswith("fraction"):
            x = Fraction(stream.randint(-9, 9), stream.randint(1, 7))
        else:
            x = stream.randint(-9, 9)
        if kind.startswith("int+") and stream.randint(0, 1):
            x = stream.randint(-3, 3)
        return x

    dense = [[entry(False) for _ in range(n)] for _ in range(n)]
    sparse = [[entry(True) for _ in range(n)] for _ in range(n)]
    cases = [Matrix.from_rows(dense), Matrix.from_rows(sparse)]
    if n >= 3:
        holes = [list(r) for r in dense]
        for i in range(1, n - 1, 2):
            holes[i][i] = holes[i][i] * 0
        cases.append(Matrix.from_rows(holes))
    return cases


@pytest.mark.parametrize("n", range(1, COFACTOR_CAP + 1))
@pytest.mark.parametrize("kind", KINDS)
def test_every_exact_kind_matches_the_cofactor_oracle(kind, n):
    # Bareiss, condensation and the contiguous minors by their kernel arm
    # ("int" or "ring") against the independent oracle; a matrix of one
    # kind gives a result of that kind, so ints stay plain ints
    stream = substream(327, 10 * KINDS.index(kind) + n)
    want = RESULT_TYPE.get(kind)
    corners = ((1, 1), (2, 2), (1, 2), (2, 1))
    for a in _kind_cases(kind, n, stream):
        if want is not None:
            assert all(type(x) is want for x in a.entries())
        # every exact case that is not all plain ints takes the ring arm; an
        # "int+" case may draw only ints, and then it is an int case
        ints = all(type(x) is int for x in a.entries())
        assert ints == (kind == "int") or kind.startswith("int+")
        assert detkit_module._scalar_kind(a) == ("int" if ints else "ring")
        expected = det_cofactor(a)
        got = [det_bareiss(a), det_condensation(a)]
        if n >= 2:
            minors = contiguous_minors(a)
            assert minors == tuple(det_cofactor(a.block(n - 1, i, j)) for i, j in corners)
            got += minors
        assert got[:2] == [expected, expected]
        if want is not None:
            assert all(type(x) is want for x in got)


def test_integer_kernels_divide_inline(monkeypatch):
    # the "int" arm of both kernels makes no ring call per entry; only the
    # Bareiss rescue of condensation's zero interiors runs, on an int block
    def refuse(*args, **kwargs):
        raise AssertionError("an integer kernel called into the ring")

    stream = substream(328, 0)
    cases = _kind_cases("int", 6, stream)
    expected = [(det_cofactor(a), contiguous_minors(a)) for a in cases]
    monkeypatch.setattr(detkit_module, "exact_div", refuse)
    monkeypatch.setattr(detkit_module, "sum_of_products", refuse)
    for a, (det, minors) in zip(cases, expected):
        assert det_bareiss(a) == det_condensation(a) == det
        assert contiguous_minors(a) == minors


@pytest.mark.parametrize("engine", [det_bareiss, det_condensation, contiguous_minors])
def test_fractions_and_polynomials_do_not_mix(engine):
    # both are "ring" entries, but Z[b1, b2] holds no rationals: every 2x2
    # contiguous block mixes them, so each engine meets a mixed product
    # before it can return a value or take a quotient
    b1, b2 = variables(2)
    a = Matrix.from_rows([[Fraction(1, 2), b1, Fraction(1, 3)],
                          [b2, Fraction(2, 3), 1 + b1],
                          [Fraction(3, 4), b2 - b1, Fraction(1, 5)]])
    assert detkit_module._scalar_kind(a) == "ring"
    with pytest.raises(TypeError):
        engine(a)


def test_a_doctored_bareiss_pivot_raises_in_the_integer_arm():
    # 2*7 - 5*3 = -1 is not a multiple of the claimed previous pivot 3
    rows = [[2, 3], [5, 7]]
    with pytest.raises(ExactDivisionError):
        detkit_module._bareiss_steps(rows, 0, 1, (1, 3), "int")
    assert detkit_module._bareiss_steps([[2, 3], [5, 7]], 0, 1, (1, -1), "int") == (1, 2)


def test_a_doctored_bareiss_pivot_raises_in_the_ring_arm():
    # b1*b2 - 1 over polynomial rows is not a multiple of 2 or of b1
    b1, b2 = variables(2)
    one = MultiPoly.const(1, 2)
    for prev in (2, 2 * b1, b1):
        rows = [[b1, one], [one, b2]]
        with pytest.raises(ExactDivisionError):
            detkit_module._bareiss_steps(rows, 0, 1, (1, prev), "ring")
    rows = [[b1, one], [one, b2]]
    assert detkit_module._bareiss_steps(rows, 0, 1, (1, -1), "ring") == (1, b1)
    assert rows[1][1] == 1 - b1 * b2


@pytest.mark.parametrize("kind", ["int", "ring"])
def test_a_doctored_condensation_interior_raises(kind):
    # the 2x2 minors [[1, 2], [3, 5]] give 1*5 - 2*3 = -1, not a multiple
    # of the claimed interior 3; a zero interior goes to the rescue, which
    # expands the 3x3 block along its first row
    rows = [[1, 1, 1], [1, 3, 1], [1, 1, 1]]
    cur = [[1, 2], [3, 5]]
    with pytest.raises(ExactDivisionError):
        detkit_module._condense(cur, rows, kind, rows)
    rows[1][1] = -1
    assert detkit_module._condense(cur, rows, kind, rows) == [[1]]
    rows = [[2, 7, 1], [3, 0, 4], [5, 6, 8]]
    cur = detkit_module._condense(rows, None, kind, rows)
    assert detkit_module._condense(cur, rows, kind, rows) == [[-58]]


@pytest.mark.parametrize("n", range(3, COFACTOR_CAP + 1))
@pytest.mark.parametrize("kind", KINDS)
def test_zero_centred_blocks_expand_without_the_bareiss_kernel(monkeypatch, kind, n):
    # every interior entry is zero and every border entry nonzero, so
    # condensation rescues every 3x3 block of its first dividing level by
    # the first-row expansion, and from order 4 the 4x4 blocks around the
    # zero 2x2 interior minors by Bareiss
    stream = substream(330, 10 * KINDS.index(kind) + n)
    one = {"fraction": Fraction(1), "poly": MultiPoly.const(1, 2)}.get(kind, 1)
    rows = _kind_cases(kind, n, stream)[0].to_rows()
    for i in range(n):
        for j in range(n):
            interior = 0 < i < n - 1 and 0 < j < n - 1
            rows[i][j] = rows[i][j] * 0 if interior else rows[i][j] or one
    a = Matrix.from_rows(rows)
    expected = det_cofactor(a)
    arm = detkit_module._scalar_kind(a)
    level2 = detkit_module._condense(rows, None, arm, rows)
    level3 = detkit_module._condense(level2, rows, arm, rows)
    assert level3 == [[det_cofactor(a.block(3, i + 1, j + 1)) for j in range(n - 2)]
                      for i in range(n - 2)]
    sizes = []
    kernel = detkit_module._bareiss_det

    def counted(rows, *args):
        sizes.append(len(rows))
        return kernel(rows, *args)

    monkeypatch.setattr(detkit_module, "_bareiss_det", counted)
    got = det_condensation(a)
    assert got == expected
    assert type(got) is RESULT_TYPE.get(kind, type(got))
    assert 3 not in sizes
    assert sizes.count(4) == (n - 3) ** 2


def test_adjugate_basics():
    assert adjugate(identity(3)) == identity(3)
    y = Matrix.from_rows([[0, 1], [-1, 0]])
    assert adjugate(y) == Matrix.from_rows([[0, -1], [1, 0]])
    assert adjugate(Matrix.from_rows([[5]])) == Matrix.from_rows([[1]])
    with pytest.raises(ValueError):
        adjugate(Matrix(0, 0, []))


def _int_and_poly_matrices(seed, n):
    stream = substream(seed, 0)
    return [random_int_matrix(stream, n), random_poly_matrix(stream, n, nvars=3)]


def test_adjugate_fundamental_identity():
    for a in _int_and_poly_matrices(303, 4):
        d = det_bareiss(a)
        assert a @ adjugate(a) == d * identity(4)
        assert adjugate(a) @ a == d * identity(4)


def test_adjugate_transpose_and_scaling():
    stream = substream(304, 1)
    for n in (2, 3, 4):
        for a in _int_and_poly_matrices(304, n):
            assert adjugate(a.T) == adjugate(a).T
            lam = stream.randint(-3, 3)
            assert adjugate(lam * a) == lam ** (n - 1) * adjugate(a)


def _adjugate_by_minors(a, det):
    """adj(A)_{ij} = (-1)^{i+j} det(A without row j and column i)."""
    n = a.rows
    rows = a.to_rows()
    out = []
    for i in range(n):
        for j in range(n):
            sub = [r[:i] + r[i + 1:] for p, r in enumerate(rows) if p != j]
            minor = det(Matrix(n - 1, n - 1, [x for r in sub for x in r]))
            out.append(-minor if (i + j) % 2 else minor)
    return Matrix(n, n, out)


@pytest.mark.parametrize("n", range(1, 7))
def test_polynomial_adjugate_matches_bareiss_and_cofactor_minors(n):
    _check_polynomial_adjugate(random_poly_matrix(substream(312, n), n, nvars=3))


def _check_polynomial_adjugate(a):
    """The polynomial adjugate against the per-minor oracles, entry by entry
    in ``==`` and in ``str``, with every entry a polynomial."""
    adj = adjugate(a)
    assert all(isinstance(x, MultiPoly) for x in adj.entries())
    oracle = _adjugate_by_minors(a, det_bareiss)
    assert adj == oracle
    assert [str(x) for x in adj.entries()] == [str(x) for x in oracle.entries()]
    if a.rows <= COFACTOR_CAP:
        assert adj == _adjugate_by_minors(a, det_cofactor)
    return adj


def test_polynomial_adjugate_entries_are_all_polynomials():
    # the zero diagonal of a skew adjugate has no nonzero term
    adj = adjugate(generic_skew_toeplitz(6))
    assert all(isinstance(x, MultiPoly) for x in adj.entries())
    assert adj[0, 0].negate_variables() == 0


@pytest.mark.parametrize(
    "entry", [5, 0, Fraction(2, 3), 2.5, 0.0, 1.5 - 2j, 0j], ids=repr
)
def test_adjugate_of_order_one_of_a_number_is_the_int_one(entry):
    # every number path gives the int 1 at order 1, whatever the entry
    (one,) = adjugate(Matrix(1, 1, [entry])).entries()
    assert type(one) is int and one == 1


def test_adjugate_of_order_one_of_a_polynomial_is_the_ring_one():
    # the leave-one-row-out adjugate gives the one of the entry's ring at
    # order 1, for a variable, a constant and the zero polynomial
    for nvars in (1, 2, 3):
        for entry in (variables(nvars)[-1], MultiPoly.const(-4, nvars), MultiPoly(nvars)):
            (one,) = adjugate(Matrix(1, 1, [entry])).entries()
            assert isinstance(one, MultiPoly) and one.nvars == nvars
            assert one == 1 and str(one) == "1"


@pytest.mark.parametrize("r", range(5))
def test_polynomial_adjugate_with_a_zero_row_or_column(r):
    # a zero row zeroes every minor of each level that has expanded it, and
    # a zero column every minor on it; r runs over both halves of the
    # uneven five-row split
    rows = random_poly_matrix(substream(313, r), 5, nvars=3).to_rows()
    zero_row = [list(row) for row in rows]
    zero_row[r] = [MultiPoly(3)] * 5
    zero_col = [row[:r] + [0] + row[r + 1:] for row in rows]
    for a in map(Matrix.from_rows, (zero_row, zero_col)):
        adj = _check_polynomial_adjugate(a)
        assert all(adj[i, j] == 0 for i in range(5) for j in range(5) if r not in (i, j))


def test_polynomial_adjugate_of_rank_deficient_matrices():
    b1, b2 = variables(2)
    rows = random_poly_matrix(substream(314, 0), 5, nvars=2).to_rows()
    combo = [b1 * x - b2 * y for x, y in zip(rows[0], rows[1])]
    rank_4 = Matrix.from_rows(rows[:4] + [combo])
    adj = _check_polynomial_adjugate(rank_4)
    assert det_bareiss(rank_4) == 0
    assert _is_rank_one(adj)
    assert rank_4 @ adj == zeros_like(5) and adj @ rank_4 == zeros_like(5)
    rank_3 = Matrix.from_rows(rows[:3] + [combo, [b2 * x for x in rows[2]]])
    adj = _check_polynomial_adjugate(rank_3)
    assert adj == zeros_like(5) and {str(x) for x in adj.entries()} == {"0"}


@pytest.mark.parametrize("n", range(1, 8))
def test_polynomial_adjugate_gives_det_times_identity(n):
    for t in range(2):
        a = random_poly_matrix(substream(315, 10 * n + t), n, nvars=3)
        adj = adjugate(a)
        d = det_bareiss(a)
        assert a @ adj == d * identity(n)
        assert adj @ a == d * identity(n)


@pytest.mark.parametrize("m", range(2, 9))
def test_generic_skew_toeplitz_adjugate_matches_bareiss_minors(monkeypatch, m):
    # J B J = sigma(B), sigma: b -> -b: columns 0..ceil(m/2)-1 are expanded
    # and the others are their sigma-images
    _check_mirrored_adjugate(monkeypatch, generic_skew_toeplitz(m))


@pytest.mark.parametrize("n", range(2, 9))
def test_johnson_family_adjugate_matches_bareiss_minors(monkeypatch, n):
    # entries 1 +- b_k with a constant term; the odd orders split their
    # rows unevenly, and each leaf's sign counts the inversions of its
    # expansion order, the rows ceil(n/2)..n-1 expanded first
    _check_mirrored_adjugate(monkeypatch, johnson_family(n))


def _ring_matmul(x, y):
    """x @ y with one ``sum_of_products`` accumulator per entry, where the
    generic ``@`` copies its running sum once per product."""
    cols = y.T.to_rows()
    return Matrix(x.rows, y.cols, [sum_of_products((1, p, q) for p, q in zip(r, c))
                                   for r in x.to_rows() for c in cols])


@pytest.mark.parametrize("family", [generic_skew_toeplitz, johnson_family])
def test_order_9_adjugate_gives_det_times_identity(family):
    # one order past the per-minor oracles: A adj(A) = adj(A) A = det(A) I,
    # with det(A) from the shared-column expansion
    a = family(9)
    adj = adjugate(a)
    (d,) = shared_column_minors(a, range(1, 9), (0,))
    assert _ring_matmul(a, adj) == _ring_matmul(adj, a) == d * identity(9)


def _check_exact_adjugate(a):
    """The exact-number adjugate against the per-minor oracles, and
    A adj(A) = adj(A) A = det(A) I."""
    n = a.rows
    adj = adjugate(a)
    assert adj == _adjugate_by_minors(a, det_bareiss)
    if n <= COFACTOR_CAP:
        assert adj == _adjugate_by_minors(a, det_cofactor)
    d = det_bareiss(a)
    assert a @ adj == d * identity(n)
    assert adj @ a == d * identity(n)
    return adj


@pytest.mark.parametrize("n", range(1, 13))
def test_integer_adjugate_matches_bareiss_and_cofactor_minors(n):
    for t in range(3):
        a = random_int_matrix(substream(320, 100 * n + t), n)
        adj = _check_exact_adjugate(a)
        # reports render ints and Fractions differently, so ints stay ints
        assert all(type(x) is int for x in adj.entries())


@pytest.mark.parametrize("n", range(1, 8))
def test_rational_adjugate_matches_bareiss_and_cofactor_minors(n):
    stream = substream(321, n)
    for _ in range(2):
        a = Matrix(n, n, [Fraction(stream.randint(-9, 9), stream.randint(1, 6))
                          for _ in range(n * n)])
        _check_exact_adjugate(a)


def _is_rank_one(m):
    rows = m.to_rows()
    n = m.rows
    return any(m.entries()) and all(
        rows[i][j] * rows[k][l] == rows[i][l] * rows[k][j]
        for i in range(n) for k in range(n) for j in range(n) for l in range(n)
    )


def _product_of_rank(stream, n, r):
    """A seeded n x n integer matrix U V of rank at most r (U is n x r)."""
    u = Matrix(n, r, [stream.randint(-4, 4) for _ in range(n * r)])
    v = Matrix(r, n, [stream.randint(-4, 4) for _ in range(r * n)])
    return u @ v


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_adjugate_of_rank_n_minus_1_has_rank_one(n):
    stream = substream(322, n)
    rows = random_int_matrix(stream, n).to_rows()
    rows[-1] = list(rows[0])  # a repeated row
    for a in (_product_of_rank(stream, n, n - 1), Matrix.from_rows(rows)):
        adj = _check_exact_adjugate(a)
        assert det_bareiss(a) == 0
        assert _is_rank_one(adj)
        assert adjugate(a.map(Fraction)) == adj


@pytest.mark.parametrize("n", range(2, 9))
def test_exact_adjugate_of_rank_at_most_n_minus_2_is_zero(n):
    stream = substream(323, n)
    candidates = [zeros_like(n)]
    if n >= 3:
        rows = random_int_matrix(stream, n).to_rows()
        rows[1] = list(rows[0])
        rows[2] = list(rows[0])  # the same row three times
        candidates += [_product_of_rank(stream, n, n - 2), Matrix.from_rows(rows)]
    for a in candidates:
        assert _check_exact_adjugate(a) == zeros_like(n)
        assert adjugate(a.map(Fraction)) == zeros_like(n)


@pytest.mark.parametrize("m", [*range(2, 10), 16, 17, 25])
def test_specialization_block_adjugates_match_bareiss_minors(m):
    spec = skew_toeplitz([1] + [0] * (m - 1))
    for block in (spec.block(m, 1, 1), spec.block(m, 1, 2)):
        assert adjugate(block) == _adjugate_by_minors(block, det_bareiss)


def _bits(m):
    return [(complex(x).real.hex(), complex(x).imag.hex()) for x in m.entries()]


def _reprs(m):
    return [repr(x) for x in m.entries()]


def _floating_adjugate_cases(n):
    """Seeded float and complex matrices of order n, with the inputs that
    steer Bareiss apart: zero rows and columns, exact rank deficiency (small
    integers, so the eliminations stay exact), magnitude ties in the pivot
    search, signed zeros and a NaN entry."""
    stream = substream(324, n)
    real = [[stream.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    cplx = [[complex(stream.uniform(-2.0, 2.0), stream.uniform(-2.0, 2.0))
             for _ in range(n)] for _ in range(n)]
    ties = [[float((-2, -1, 1, 2)[stream.randint(0, 3)]) for _ in range(n)] for _ in range(n)]
    signed = [[(0.0, -0.0, 0.0, 1.0, -1.0)[stream.randint(0, 4)] for _ in range(n)]
              for _ in range(n)]
    cases = [real, cplx, ties, signed]
    for r in {0, n // 2, n - 1}:
        cases.append([[0.0] * n if i == r else row for i, row in enumerate(real)])
        cases.append([row[:r] + [0j] + row[r + 1:] for row in cplx])
    if n >= 2:
        low = _product_of_rank(stream, n, n - 1).map(float).to_rows()
        cases.append(low)
        cases.append(ties[:-1] + [list(ties[0])])  # a repeated row
        nan = [list(row) for row in real]
        nan[stream.randint(0, n - 1)][stream.randint(0, n - 1)] = math.nan
        cases.append(nan)
    return [Matrix.from_rows(rows) for rows in cases]


@pytest.mark.parametrize("n", range(1, 10))
def test_floating_adjugate_stays_on_the_per_minor_bareiss_path(n):
    # Cayley-Hamilton is numerically unstable, so float and complex
    # adjugates must keep the bits of the per-minor Bareiss path: the
    # shared-prefix adjugate gives every minor the bits, the sign of zero
    # and the NaNs of its own elimination, also by the test's own
    # elimination, which shares no code with the engine
    def naive(m):
        return _float_bareiss_choosing(m.to_rows(), _max_key) if m.rows else 1

    for a in _floating_adjugate_cases(n):
        got = _reprs(adjugate(a))
        assert got == _reprs(_adjugate_by_minors(a, det_bareiss))
        assert got == _reprs(_adjugate_by_minors(a, naive))


@pytest.mark.parametrize("n", range(2, 10))
def test_floating_adjugate_corners_are_the_contiguous_minors(n):
    # the accretive suite reads its four minors off the adjugate's corners:
    # d11 = adj[n-1, n-1], d22 = adj[0, 0] and d12, d21 = (-1)^(n-1) times
    # adj[0, n-1], adj[n-1, 0]; the branches that eliminate only a trailing
    # block must keep every bit, the sign of a zero from a zero pivot included
    m = n - 1
    for a in _floating_adjugate_cases(n):
        adj = adjugate(a)
        d12, d21 = adj[0, m], adj[m, 0]
        if m % 2:
            d12, d21 = -d12, -d21
        corners = Matrix(1, 4, [adj[m, m], adj[0, 0], d12, d21])
        assert _bits(corners) == _bits(Matrix(1, 4, list(contiguous_minors(a))))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_floating_contiguous_minors_keep_the_bits_of_det_bareiss(n):
    stream = substream(325, n)
    real = Matrix(n, n, [stream.gauss() for _ in range(n * n)])
    cplx = Matrix(n, n, [complex(stream.gauss(), stream.gauss()) for _ in range(n * n)])
    m = n - 1
    for a in (real, cplx):
        minors = contiguous_minors(a)
        blocks = [det_bareiss(a.block(m, i, j)) for i, j in ((1, 1), (2, 2), (1, 2), (2, 1))]
        assert minors == tuple(blocks)
        assert _bits(Matrix(1, 4, list(minors))) == _bits(Matrix(1, 4, blocks))


@pytest.mark.parametrize("n", range(2, 8))
def test_exact_contiguous_minors_match_the_cofactor_oracle(n):
    # the exact kernel against the independent oracle, on ints (dense, and
    # sparse enough for zero pivots, row swaps and singular blocks),
    # rationals and polynomials
    stream = substream(326, n)
    cases = [
        random_int_matrix(stream, n),
        Matrix(n, n, [stream.randint(-1, 1) * stream.randint(0, 1) for _ in range(n * n)]),
        Matrix(n, n, [Fraction(stream.randint(-9, 9), stream.randint(1, 7))
                      for _ in range(n * n)]),
        random_poly_matrix(stream, n),
    ]
    m = n - 1
    corners = ((1, 1), (2, 2), (1, 2), (2, 1))
    for a in cases:
        minors = contiguous_minors(a)
        assert minors == tuple(det_cofactor(a.block(m, i, j)) for i, j in corners)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_one_float_entry_makes_every_minor_floating(n):
    # an int matrix with one float entry, in the top-left corner that only
    # d11 contains: every minor still takes the floating arm, with the bits
    # of the float elimination of its own block
    stream = substream(329, n)
    rows = random_int_matrix(stream, n).to_rows()
    rows[0][0] = float(rows[0][0]) + 0.5
    a = Matrix.from_rows(rows)
    m = n - 1
    blocks = [a.block(m, i, j).to_rows() for i, j in ((1, 1), (2, 2), (1, 2), (2, 1))]
    want = [_float_bareiss_choosing(b, _max_key) for b in blocks]
    minors = contiguous_minors(a)
    assert all(type(d) is float for d in minors)
    assert [d.hex() for d in minors] == [w.hex() for w in want]
    assert det_bareiss(a).hex() == _float_bareiss_choosing(rows, _max_key).hex()


def test_a_float_entry_after_a_rational_one_still_floats():
    # the magnitude pivot 3 swaps rows: -(3 * 1 - 1/2 * 0.25) in floats
    a = Matrix.from_rows([[Fraction(1, 2), 1], [3, 0.25]])
    d = det_bareiss(a)
    assert type(d) is float and d == -2.875
    with pytest.raises(TypeError):
        det_condensation(a)


def test_contiguous_minors_need_a_square_matrix_of_order_two():
    with pytest.raises(ValueError):
        contiguous_minors(Matrix(1, 1, [1.0]))
    with pytest.raises(ValueError):
        contiguous_minors(Matrix(2, 3, [1.0] * 6))


def _float_bareiss_choosing(rows, choose):
    """Float Bareiss whose pivot row in column k is ``choose(rows, k)``."""
    rows = [list(r) for r in rows]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        pr = choose(rows, k)
        if not rows[pr][k]:
            return rows[0][0] * 0
        if pr != k:
            rows[k], rows[pr] = rows[pr], rows[k]
            sign = -sign
        pk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, n):
                rows[i][j] = (pk * rows[i][j] - rik * rows[k][j]) / prev
        prev = pk
    return -rows[-1][-1] if sign < 0 else rows[-1][-1]


def _max_key(rows, k):
    return max(range(k, len(rows)), key=lambda r: abs(rows[r][k]))


def test_float_pivot_ties_go_to_the_first_row():
    # |1.0| and |-1.0| tie in column 0; the lower row would give a result
    # one ulp away, so the tie rule shows in the bits
    rows = [[1.0, -1.0, 0.7], [-1.0, -0.5, -0.5], [0.5, 1.0, -0.1]]
    last = _float_bareiss_choosing(
        rows, lambda rs, k: max(reversed(range(k, len(rs))), key=lambda r: abs(rs[r][k]))
    )
    d = det_bareiss(Matrix.from_rows(rows))
    assert d.hex() == _float_bareiss_choosing(rows, _max_key).hex() == (0.375).hex()
    assert last.hex() != d.hex()


def test_float_pivot_keeps_a_leading_nan_in_place():
    # no magnitude compares greater than NaN, so the NaN row stays the pivot
    # and no swap flips the sign bit of the NaN result; a pivot search that
    # skipped the NaN would swap once and return -nan
    rows = [[math.nan, 1.0, 2.0], [1.0, 3.0, 4.0], [2.0, 5.0, 7.0]]
    skip_nan = _float_bareiss_choosing(
        rows,
        lambda rs, k: max((r for r in range(k, len(rs)) if not math.isnan(rs[r][k])),
                          key=lambda r: abs(rs[r][k])),
    )
    d = det_bareiss(Matrix.from_rows(rows))
    assert math.isnan(d)
    assert math.copysign(1.0, d) == math.copysign(1.0, _float_bareiss_choosing(rows, _max_key))
    assert math.copysign(1.0, skip_nan) != math.copysign(1.0, d)


def test_s_functional_values():
    assert s_functional(identity(2)) == 2
    assert s_functional(Matrix.from_rows([[0, 1], [-1, 0]])) == 0
    c = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])  # I - L^2, L the lower shift
    assert s_functional(c) == 4


def test_determinant_multiplicativity():
    stream = substream(305, 0)
    a = random_int_matrix(stream, 4)
    b = random_int_matrix(stream, 4)
    assert det_bareiss(a @ b) == det_bareiss(a) * det_bareiss(b)


def test_desnanot_jacobi_identity_random_int_and_poly():
    for n in (3, 4, 5):
        stream = substream(306, n)
        for a in (
            random_int_matrix(stream, n),
            random_poly_matrix(stream, n, nvars=2),
        ):
            lhs = det_bareiss(a) * det_bareiss(a.block(n - 2, 2, 2))
            rhs = det_bareiss(a.block(n - 1, 1, 1)) * det_bareiss(a.block(n - 1, 2, 2)) - det_bareiss(
                a.block(n - 1, 1, 2)
            ) * det_bareiss(a.block(n - 1, 2, 1))
            assert lhs == rhs


def test_all_three_algorithms_agree():
    for t in range(20):
        stream = substream(307, t)
        n = 1 + t % 6
        a = random_int_matrix(stream, n)
        d = det_cofactor(a)
        assert det_bareiss(a) == d
        assert det_condensation(a) == d


def test_float_determinants():
    stream = substream(308, 0)
    exact = random_int_matrix(stream, 5)
    approx = exact.map(float)
    d = float(det_bareiss(exact))
    assert abs(det_bareiss(approx) - d) <= 1e-9 * max(1.0, abs(d))
    singular = ones(4).map(float)
    assert det_bareiss(singular) == 0.0
    # condensation is exact-only, at every order
    for a in (approx, singular, Matrix.from_rows([[2.5]]), Matrix.from_rows([[1j]]),
              Matrix.from_rows([[1, 2], [3, 4.0]])):
        with pytest.raises(TypeError):
            det_condensation(a)


def test_fraction_determinant():
    a = Matrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    )
    assert det_bareiss(a) == Fraction(1, 10) - Fraction(1, 12)


def test_det_dispatcher():
    # `bench det` looks its engine up in this table by name
    assert sorted(DET_ALGOS) == ["bareiss", "cofactor", "condensation"]
    assert all(fn(HAND_EXAMPLE) == -3 for fn in DET_ALGOS.values())


def _whole(a):
    n = a.cols
    (d,) = shared_column_minors(a, range(n - 1), (n - 1,))
    return d


def test_row_expansion_matches_cofactor_and_bareiss_on_random_integers():
    for t in range(30):
        stream = substream(309, t)
        n = 1 + t % 9
        a = random_int_matrix(stream, n)
        d = det_bareiss(a)
        assert _whole(a) == d
        if n <= 7:
            assert det_cofactor(a) == d


def test_row_expansion_matches_cofactor_and_bareiss_on_random_polynomials():
    for t in range(12):
        stream = substream(310, t)
        n = 1 + t % 6
        a = random_poly_matrix(stream, n, nvars=3)
        d = det_bareiss(a)
        assert _whole(a) == d == det_cofactor(a)


def test_row_expansion_with_zero_entries():
    a = Matrix.from_rows([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    assert _whole(a) == -6
    assert _whole(zeros_like(4)) == 0
    assert _whole(ones(3)) == 0
    assert _whole(generic_skew_toeplitz(3)) == 0


@pytest.mark.parametrize("r", range(4))
def test_row_expansion_with_a_zero_polynomial_row(r):
    rows = random_poly_matrix(substream(312, r), 4, nvars=2).to_rows()
    rows[r] = [MultiPoly(2)] * 4
    a = Matrix.from_rows(rows)
    d = _whole(a)
    assert d == 0 and str(d) == "0"
    assert shared_column_minors(a, range(r), (r,)) == [0]


def _bareiss_minor(a, rows, cols):
    table = a.to_rows()
    return det_bareiss(Matrix.from_rows([[table[i][j] for j in cols] for i in rows]))


@pytest.mark.parametrize("scalar", ["int", "poly"])
@pytest.mark.parametrize("width", [4, 7])
def test_shared_column_minors_match_bareiss_on_square_and_wide_matrices(scalar, width):
    # extra columns left of, between and right of the shared ones, and rows
    # out of order; the oracle is Bareiss on each block
    stream = substream(311, width)
    if scalar == "int":
        a = Matrix(4, width, [stream.randint(-9, 9) for _ in range(4 * width)])
    else:
        a = Matrix.from_rows(random_poly_matrix(stream, width, nvars=2).to_rows()[:4])
    # the engine reads the leading four rows of a matrix whose rows are the
    # rows (2, 0, 3, 1) of ``a`` and whose fifth row it must not read
    rows = (2, 0, 3, 1)
    table = a.to_rows()
    permuted = Matrix.from_rows([table[r] for r in rows] + [[x + 1 for x in table[0]]])
    if width == 4:
        # square: the one extra column is each column in turn
        cases = [([j for j in range(4) if j != c], [c]) for c in range(4)]
    else:
        cases = [((5, 1, 3), [0, 2, 4, 6])]
    for shared, extra in cases:
        want = [_bareiss_minor(a, rows, sorted((*shared, c))) for c in extra]
        assert shared_column_minors(permuted, shared, extra) == want
        assert all(want)


def test_shared_column_minors_with_no_shared_column():
    # one row, no shared column: each minor is an entry of the first row
    # (here the hand example's second row); `verify johnson --n 2` takes
    # this path
    second_row = Matrix.from_rows(HAND_EXAMPLE.to_rows()[1:])
    assert shared_column_minors(second_row, (), (0, 2)) == [4, 6]
    assert shared_column_minors(HAND_EXAMPLE, (), (0, 2)) == [1, 3]
    assert shared_column_minors(HAND_EXAMPLE, (0, 1), ()) == []
    assert shared_column_minors(HAND_EXAMPLE, (2, 1), (0,)) == [-3]
    assert shared_column_minors(HAND_EXAMPLE, (1,), (0, 2)) == [-3, -3]
    d11, d12 = shared_column_minors(johnson_family(2), (), (0, 1))
    assert (d11, d12) == (johnson_family(2)[0, 0], johnson_family(2)[0, 1])
    assert cli.main(["verify", "johnson", "--n", "2"]) == 0


def test_row_expansion_rejects_bad_targets():
    bad = [
        ((1, 1), (0,)),  # repeated shared column
        ((1,), (0, 0)),  # repeated extra column
        ((3,), (0,)),  # shared column out of range
        ((1,), (-1,)),  # negative extra column
        ((1,), (0, 1)),  # extra column also shared
        ((0, 1, 2), ()),  # more shared columns than rows
    ]
    for args in bad:
        with pytest.raises(ValueError):
            shared_column_minors(HAND_EXAMPLE, *args)
    with pytest.raises(ValueError):
        # two shared columns need three rows of the 2x3 matrix
        shared_column_minors(Matrix(2, 3, [1] * 6), (1, 2), (0,))


@pytest.mark.parametrize("n", range(2, 9))
def test_row_expansion_gives_the_johnson_minors_of_bareiss(n):
    a = johnson_family(n)
    m = n - 1
    d11, d12 = shared_column_minors(a, range(1, m), (0, m))
    _, d21 = shared_column_minors(a.T, range(1, m), (0, m))
    assert d11 == det_bareiss(a.block(m, 1, 1))
    assert d12 == det_bareiss(a.block(m, 1, 2))
    assert d21 == det_bareiss(a.block(m, 2, 1))


def test_level_step_drops_spent_sub_minors_and_shares_keys():
    # every line width 1..9 and level k, on int and polynomial lines with
    # zero entries (every row of width >= 2 has one) and so zero sub-minors:
    # each step lists its k-subsets in `combinations` order, gives the
    # Bareiss minors of the leading k rows, empties `prev` by deleting each
    # sub-minor after its last reader, and the minors of the whole
    # expansion share one key object per monomial
    for width in range(1, 10):
        stream = substream(314, width)
        for a in (random_int_matrix(stream, width), random_poly_matrix(stream, width)):
            zero = a[0, 0] * 0
            rows = [
                [zero if (i + j) % 3 == 1 else x for j, x in enumerate(row)]
                for i, row in enumerate(a.to_rows())
            ]
            table = MonomialTable(getattr(zero, "nvars", None))
            prev = {0: ({0: 1},)}
            first = {}
            for k in range(1, width + 1):
                subsets = list(combinations(range(width), k))
                want = [
                    det_bareiss(Matrix.from_rows([[rows[i][c] for c in s] for i in range(k)]))
                    for s in subsets
                ]
                spent = prev
                cur = detkit_module._expand_level(table, rows[k - 1], k, spent)
                assert spent == {}
                assert list(cur) == [sum(1 << c for c in s) for s in subsets]
                got = [table.element(d) for d in cur.values()]
                assert got == want
                for d in got:
                    for key in getattr(d, "_terms", ()):
                        assert first.setdefault(key, key) is key
                prev = dict(cur)


def test_shared_column_minors_of_int_matrices_are_plain_ints():
    for width in range(1, 8):
        a = random_int_matrix(substream(315, width), width)
        got = shared_column_minors(a, range(1, width), (0,))
        assert got == [det_bareiss(a)] and type(got[0]) is int
    got = shared_column_minors(HAND_EXAMPLE, (1,), (0, 2)) + shared_column_minors(
        ones(4), (1, 2, 3), (0,))
    assert got == [-3, -3, 0] and all(type(x) is int for x in got)


@pytest.mark.parametrize("n", range(3, 8))
def test_shared_column_minors_of_the_bordered_skew_matrix_match_bareiss(n):
    # the int border and polynomial body of `verify_reduced_case`'s odd
    # case, taken here at every order
    b = generic_skew_toeplitz(n)
    bordered = Matrix.from_rows([[0] + [1] * n] + [[1] + r for r in b.to_rows()])
    shared = (0, *range(2, n))
    got = shared_column_minors(bordered, shared, (1, n))
    want = [_bareiss_minor(bordered, range(n), sorted((*shared, c))) for c in (1, n)]
    assert got == want
    assert all(isinstance(x, MultiPoly) for x in got)


def test_shared_column_minors_of_many_term_entries_match_bareiss():
    # entries of up to four terms with coefficients up to 5 in size, where
    # the Johnson family has only +-b_k and 1 +- b_k
    mats = [
        random_poly_matrix(substream(316, t), 2 + t % 5, nvars=3, max_terms=4, max_exp=2,
                           coeff_bound=5)
        for t in range(6)
    ]
    entries = [x for a in mats for x in a.entries()]
    assert any(len(x.terms()) >= 3 for x in entries)
    assert any(abs(c) > 1 for x in entries for _, c in x.terms())
    for a in mats:
        for shared in combinations(range(a.rows), a.rows - 1):
            extra = [c for c in range(a.rows) if c not in shared]
            assert shared_column_minors(a, shared, extra) == [det_bareiss(a)]


def _bands_seen(monkeypatch):
    """The band counts of the nonzero sub-minors that the table kernel
    builds from here on."""
    seen = set()
    real = MonomialTable.sum_of_products

    def recorded(table, pairs):
        d = real(table, pairs)
        if d:
            seen.add(len(d))
        return d

    monkeypatch.setattr(MonomialTable, "sum_of_products", recorded)
    return seen


def _cofactor_minor(a, rows, cols):
    table = a.to_rows()
    return det_cofactor(Matrix.from_rows([[table[i][j] for j in cols] for i in rows]))


def _bordered_skew(n):
    # the odd reduced case's M = [[0, 1^T], [1, B]], whose constant part
    # [[0, 1^T], [1, 0]] has rank 2
    b = generic_skew_toeplitz(n)
    return Matrix.from_rows([[0] + [1] * n] + [[1] + r for r in b.to_rows()])


@pytest.mark.parametrize("n", range(2, 9))
def test_banded_johnson_minors_match_bareiss(monkeypatch, n):
    # J + B: entries of degree at most 1 on the rank-one J, so every
    # sub-minor is built in two bands
    a = johnson_family(n)
    m = n - 1
    seen = _bands_seen(monkeypatch)
    d11, d12 = shared_column_minors(a, range(1, m), (0, m))
    assert seen == {2}
    assert d11 == det_bareiss(a.block(m, 1, 1))
    assert d12 == det_bareiss(a.block(m, 1, 2))


@pytest.mark.parametrize("n", range(2, 8))
def test_banded_minors_of_rank_one_plus_linear_match_the_cofactor_oracle(monkeypatch, n):
    # u v^T with nonzero integer u, v plus a random integer linear form in
    # b1..b3 per entry; every split of the columns into shared and extra
    # ones, and two extra columns on the leading n - 1 rows
    stream = substream(318, n)
    bs = variables(3)

    def nonzero():
        return stream.randint(1, 3) * (-1) ** stream.randint(0, 1)

    u, v = [nonzero() for _ in range(n)], [nonzero() for _ in range(n)]
    a = Matrix.from_rows([
        [x * y + sum(stream.randint(-2, 2) * b for b in bs) for y in v] for x in u
    ])
    assert MonomialTable.two_bands(a.to_rows())
    seen = _bands_seen(monkeypatch)
    for shared in combinations(range(n), n - 1):
        extra = [c for c in range(n) if c not in shared]
        assert shared_column_minors(a, shared, extra) == [det_cofactor(a)]
    shared = range(1, n - 1)
    want = [_cofactor_minor(a, range(n - 1), sorted((*shared, c))) for c in (0, n - 1)]
    assert shared_column_minors(a, shared, (0, n - 1)) == want
    assert seen == {2}


def test_inputs_outside_the_band_rule_take_one_band_and_match_bareiss(monkeypatch):
    # a constant part of rank 2, one entry with a degree-2 term on the
    # rank-one J, and a rank-one matrix of plain ints
    n = 6
    quadratic = johnson_family(n)
    b1 = variables(n - 1)[0]
    quadratic = Matrix.from_rows([
        [x + b1 * b1 if (i, j) == (2, 3) else x for j, x in enumerate(r)]
        for i, r in enumerate(quadratic.to_rows())
    ])
    ints = Matrix.from_rows([[x * y for y in (2, -1, 3, 1, -2, 1)] for x in (1, 3, -2, 1, 2, -1)])
    cases = [
        (_bordered_skew(n), (0, *range(2, n)), (1, n)),
        (quadratic, range(1, n - 1), (0, n - 1)),
        (ints, range(1, n - 1), (0, n - 1)),
    ]
    assert not MonomialTable.two_bands(cases[0][0].to_rows())
    assert not MonomialTable.two_bands(quadratic.to_rows())
    seen = _bands_seen(monkeypatch)
    for a, shared, extra in cases:
        want = [_bareiss_minor(a, range(len(shared) + 1), sorted((*shared, c))) for c in extra]
        assert shared_column_minors(a, shared, extra) == want
    assert seen == {1}


def test_banding_a_rank_two_constant_part_breaks_the_minors(monkeypatch):
    # the band rule is load-bearing: forced on the bordered matrix, the
    # constant terms' products with the lower band that it never forms no
    # longer cancel
    n = 6
    a, shared, extra = _bordered_skew(n), (0, *range(2, n)), (1, n)
    want = [_bareiss_minor(a, range(n), sorted((*shared, c))) for c in extra]
    assert shared_column_minors(a, shared, extra) == want
    monkeypatch.setattr(MonomialTable, "two_bands", staticmethod(lambda rows: True))
    seen = _bands_seen(monkeypatch)
    got = shared_column_minors(a, shared, extra)
    assert seen == {2}
    assert got[0] != want[0] and got[1] != want[1]


@st.composite
def _band_edge_matrices(draw):
    """Order 2..7 over Z[b1..b3]: an integer constant part C made of zero,
    one or two outer products of small integer vectors, a linear form per
    entry, and sometimes one term of degree 2 in one entry."""
    n = draw(st.integers(2, 7))
    small = st.integers(-2, 2)
    c = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        u, v = (draw(st.lists(small, min_size=n, max_size=n)) for _ in range(2))
        c = [[c[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]
    bs = variables(3)
    rows = [[c[i][j] + sum(draw(small) * b for b in bs) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i, j, x, y = (draw(st.integers(0, k)) for k in (n - 1, n - 1, 2, 2))
        rows[i][j] += draw(st.sampled_from([-1, 1])) * bs[x] * bs[y]
    return Matrix.from_rows(rows)


def _banded_by_definition(rows):
    """Whether the constant part of ``rows`` has rank exactly one (nonzero,
    every 2 x 2 minor zero) and every entry total degree at most 1."""
    c = [[x.evaluate([0] * x.nvars) for x in r] for r in rows]
    lines, cols = combinations(range(len(c)), 2), list(combinations(range(len(c[0])), 2))
    rank_one = any(map(any, c)) and all(
        c[i][j] * c[p][q] == c[i][q] * c[p][j] for i, p in lines for j, q in cols
    )
    return rank_one and all(sum(e) <= 1 for r in rows for x in r for e, _ in x.terms())


_J4 = johnson_family(4)  # nvars 3: a rank-one C and linear entries


@settings(max_examples=40, deadline=None)
@given(_band_edge_matrices())
@example(_J4)
@example(_J4 + Matrix(4, 4, [variables(3)[0] * variables(3)[0]] + [0] * 15))
@example(_J4 + identity(4))
def test_minors_at_the_band_edge_match_bareiss_and_the_cofactor_oracle(a):
    # every choice of one extra column gives the whole determinant, and the
    # leading n - 1 rows with the outer columns extra give two minors; each
    # table is banded exactly when the constant part of the entries it
    # reads has rank one and each of them degree at most 1
    n = a.rows
    rows = a.to_rows()
    det = det_cofactor(a)
    assert det_bareiss(a) == det
    shared = range(1, n - 1)
    want = [_bareiss_minor(a, range(n - 1), sorted((*shared, c))) for c in (0, n - 1)]
    with pytest.MonkeyPatch.context() as mp:
        seen = _bands_seen(mp)
        for c in range(n):
            assert shared_column_minors(a, [k for k in range(n) if k != c], (c,)) == [det]
        whole = set(seen)
        seen.clear()
        assert shared_column_minors(a, shared, (0, n - 1)) == want
    # a nonzero result is itself a sub-minor the table builds
    assert whole <= {2 if _banded_by_definition(rows) else 1} and (whole or det == 0)
    assert seen <= {2 if _banded_by_definition(rows[:-1]) else 1} and (seen or want == [0, 0])


@pytest.mark.parametrize("order", [3, 4])
def test_level_step_guards_the_degree_of_each_new_monomial(order):
    # the shared columns hold Vandermonde multiples of b1^e, whose minors
    # keep their top terms, and the closing column is 1, so the expansion
    # first makes degree (order - 1) * e in the level step of level
    # order - 1 and the closing step makes no new monomial; one degree less
    # stays under the cap, with the cofactor oracle (Bareiss's own products
    # would pass the cap)
    cap = (1 << 15) - 1
    for e in (cap // (order - 1), cap // (order - 1) + 1):
        big = MultiPoly(1, {(e,): 1})
        rows = [[(i + 1) ** j * big for j in range(order - 1)] + [1] for i in range(order)]
        a = Matrix.from_rows(rows)
        shared, extra = range(order - 1), (order - 1,)
        if (order - 1) * e <= cap:
            assert shared_column_minors(a, shared, extra) == [det_cofactor(a)]
            continue
        with pytest.raises(OverflowError) as info:
            shared_column_minors(a, shared, extra)
        assert any(entry.name == "_expand_level" for entry in info.traceback)


def test_no_monomial_state_outlives_an_expansion():
    # two expansions with different variable counts, back to back, each a
    # shared-column expansion and a leave-one-row-out adjugate: each call's
    # table goes with it, so the traced memory comes back near where it
    # started once the results are dropped (what stays is the interpreter's
    # free lists, about 18 KB here; the four tables, if kept, hold 480 KB)
    mats = [
        random_poly_matrix(substream(317, nvars), 7, nvars=nvars, max_terms=3, max_exp=2)
        for nvars in (2, 3)
    ]
    dets = [det_bareiss(a) for a in mats]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for a, d in zip(mats, dets):
            got = shared_column_minors(a, range(1, 7), (0,))
            assert got == [d]
            adj = adjugate(a)
            assert all(adj[j, i] == _bareiss_minor(a, [r for r in range(7) if r != i],
                                                    [c for c in range(7) if c != j])
                       * (-1) ** (i + j) for i, j in ((0, 0), (2, 5), (6, 1)))
            del got, adj
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"{grown} bytes outlive the expansions"


def test_polynomial_adjugate_entries_share_keys():
    # the n^2 entries of the polynomial adjugate come out of one monomial
    # table, so equal monomials of two different entries are one object
    entries = adjugate(generic_skew_toeplitz(6)).entries()
    first = {}
    for d in entries:
        for key in d._terms:
            assert first.setdefault(key, key) is key
    assert len(first) < sum(len(d._terms) for d in entries)


@pytest.mark.parametrize("n", range(2, 11))
def test_d21_from_the_sign_symmetry_matches_the_transpose_expansion(n):
    # the certificate takes det A_m(2,1) as d12(-b); the oracles are the
    # direct expansion of A^T and, up to order 8, Bareiss on the block
    a = johnson_family(n)
    m = n - 1
    _, d12 = shared_column_minors(a, range(1, m), (0, m))
    d21 = d12.negate_variables()
    assert [d21] == shared_column_minors(a.T, range(1, m), (m,))
    if n <= 8:
        assert d21 == det_bareiss(a.block(m, 2, 1))


# -- the mirror: J A J = sigma(A), sigma the ring map b -> -b ----------------

def _sigma(x):
    return x.negate_variables() if isinstance(x, MultiPoly) else x


def _exchanged(a):
    """J A J: the rows and the columns of ``a`` reversed."""
    return Matrix.from_rows([r[::-1] for r in a.to_rows()[::-1]])


def _mirrors_taken(monkeypatch):
    """A one-item list counting the sigma-images in index form that the
    engines take from here on."""
    count = [0]
    real = MonomialTable.negate_variables

    def counted(table, d):
        count[0] += 1
        return real(table, d)

    monkeypatch.setattr(MonomialTable, "negate_variables", counted)
    return count


def _toeplitz(ts, n):
    """The n x n Toeplitz matrix with a[i][j] = ts[j - i], ts a dict."""
    return Matrix.from_rows([[ts[j - i] for j in range(n)] for i in range(n)])


def _symmetric_toeplitz(n):
    # J + S with S[i][j] = b_|i-j| and a zero diagonal: Toeplitz with
    # t_{-d} = t_d, which is not sigma(t_d)
    bs = (0, *variables(n - 1))
    return ones(n) + _toeplitz({d: bs[abs(d)] for d in range(1 - n, n)}, n)


def _check_shared_minors(a, shared, extra):
    """``shared_column_minors`` on the leading rows against Bareiss and,
    up to the cofactor cap, the cofactor oracle on each block."""
    rows = range(len(shared) + 1)
    got = shared_column_minors(a, shared, extra)
    want = [_bareiss_minor(a, rows, sorted((*shared, c))) for c in extra]
    assert got == want
    assert [str(x) for x in got] == [str(x) for x in want]
    if len(rows) <= COFACTOR_CAP:
        assert got == [_cofactor_minor(a, rows, sorted((*shared, c))) for c in extra]


def _check_mirrored_adjugate(monkeypatch, a):
    """The adjugate of ``a`` of order n <= 8, with J A J = sigma(A), takes
    n floor(n/2) sigma-images and matches the cofactor oracle on every
    minor, and Bareiss on every minor up to order 7 and on the four
    corners at order 8, where Bareiss on the 64 minors of J + B takes
    about 12 s."""
    n = a.rows
    assert _exchanged(a) == a.map(_sigma)
    taken = _mirrors_taken(monkeypatch)
    if n <= COFACTOR_CAP:
        _check_polynomial_adjugate(a)
    else:
        adj = adjugate(a)
        assert adj == _adjugate_by_minors(a, det_cofactor)
        for i, j in ((0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)):
            rows, cols = ([k for k in range(n) if k != x] for x in (j, i))
            minor = _bareiss_minor(a, rows, cols)
            assert adj[i, j] == (-minor if (i + j) % 2 else minor)
    assert taken[0] == n * (n // 2)


@pytest.mark.parametrize("family", [generic_skew_toeplitz, johnson_family])
@pytest.mark.parametrize("n", range(2, 9))
def test_mirrored_shared_column_minors_match_the_minor_oracles(monkeypatch, family, n):
    # the Johnson minors (J + B) and the even reduced case (B) on the
    # leading n - 1 rows, and the whole determinant (the odd skew facts),
    # all expanded center-out; from three rows on, a level has a pair S,
    # c - S
    a = family(n)
    taken = _mirrors_taken(monkeypatch)
    _check_shared_minors(a, range(1, n - 1), (0, n - 1))
    _check_shared_minors(a, range(1, n), (0,))
    assert (taken[0] > 0) == (n >= 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_a_mirrored_matrix_that_is_not_toeplitz_takes_the_mirrored_adjugate(monkeypatch, n):
    # J A J = sigma(A) with every entry drawn: p on one of each pair of
    # positions (i, j), (n-1-i, n-1-j), sigma(p) on the other, and p +
    # sigma(p) on the centre of an odd order
    p = random_poly_matrix(substream(319, n), n, nvars=3).to_rows()
    rows = [[p[i][j] if (i, j) < (n - 1 - i, n - 1 - j)
             else _sigma(p[n - 1 - i][n - 1 - j]) if (i, j) > (n - 1 - i, n - 1 - j)
             else p[i][j] + _sigma(p[i][j])
             for j in range(n)] for i in range(n)]
    assert any(rows[i][j] != rows[i + 1][j + 1] for i in range(n - 1) for j in range(n - 1))
    _check_mirrored_adjugate(monkeypatch, Matrix.from_rows(rows))


def test_near_misses_of_the_mirror_take_the_full_expansion_and_agree(monkeypatch):
    # one entry off the mirror, J plus a symmetric Toeplitz S, a skew
    # Toeplitz B plus b1 I (t_0 of odd degree, t_{-d} = sigma(t_d) for
    # d > 0), shared columns with a gap, and the bordered skew matrix of
    # the odd reduced case: no sigma-image is taken and every minor matches
    # the oracles
    n = 7
    rows = johnson_family(n).to_rows()
    rows[0][1] += 1
    off = Matrix.from_rows(rows)
    symmetric = _symmetric_toeplitz(n)
    assert _exchanged(symmetric) == symmetric != symmetric.map(_sigma)
    odd_diagonal = generic_skew_toeplitz(n) + identity(n) * variables(n - 1)[0]
    taken = _mirrors_taken(monkeypatch)
    for a in (off, symmetric, odd_diagonal):
        _check_polynomial_adjugate(a)
        _check_shared_minors(a, range(1, n - 1), (0, n - 1))
        _check_shared_minors(a, range(1, n), (0,))
    _check_shared_minors(johnson_family(n), (1, 2, 4, 5), (0, 3, 6))
    _check_shared_minors(_bordered_skew(n), (0, *range(2, n)), (1, n))
    _check_polynomial_adjugate(_bordered_skew(n - 1))
    assert taken[0] == 0


def test_forcing_the_mirror_on_a_symmetric_toeplitz_matrix_breaks_the_minors(monkeypatch):
    # the mirror checks are load-bearing: on J + S, whose mirror is the
    # identity and not sigma, the forced mirror writes the sigma-images
    # where the minors themselves belong
    n = 6
    a = _symmetric_toeplitz(n)
    want_adj = _adjugate_by_minors(a, det_bareiss)
    shared, extra = range(1, n - 1), (0, n - 1)
    want = [_bareiss_minor(a, range(n - 1), sorted((*shared, c))) for c in extra]
    assert adjugate(a) == want_adj and shared_column_minors(a, shared, extra) == want
    monkeypatch.setattr(detkit_module, "_mirrored", lambda rows: True)
    monkeypatch.setattr(detkit_module, "_mirrored_toeplitz", lambda rows: True)
    taken = _mirrors_taken(monkeypatch)
    assert adjugate(a) != want_adj
    got = shared_column_minors(a, shared, extra)
    assert taken[0] > 0
    assert got[0] != want[0] and got[1] != want[1]


@st.composite
def _mirrored_toeplitz_matrices(draw):
    """Order 2..7 Toeplitz over Z[b1..b3] with t_{-d} = sigma(t_d): t_0 of
    even degree (a constant and sometimes one degree-2 term), each t_d,
    d > 0, a constant, a linear form and sometimes one degree-2 term, so
    that most tables have one band of mixed degrees; all constants 1 and
    no degree-2 term give J + B-like entries and two bands."""
    n = draw(st.integers(2, 7))
    bs = variables(3)
    small = st.integers(-2, 2)
    flat = draw(st.booleans())

    def quadratic():
        if flat or not draw(st.booleans()):
            return 0
        x, y = (draw(st.integers(0, 2)) for _ in range(2))
        return draw(st.sampled_from([-1, 1])) * bs[x] * bs[y]

    ts = {0: (1 if flat else draw(small)) + quadratic() + 0 * bs[0]}
    for d in range(1, n):
        ts[d] = (1 if flat else draw(small)) + sum(draw(small) * b for b in bs) + quadratic()
        ts[-d] = ts[d].negate_variables()
    return _toeplitz(ts, n)


@settings(max_examples=40, deadline=None)
@given(_mirrored_toeplitz_matrices())
@example(johnson_family(4))
@example(_toeplitz({d: variables(2)[0] * (variables(2)[1] + d) for d in range(-3, 4)}, 4))
def test_random_mirrored_toeplitz_minors_match_the_minor_oracles(a):
    # the adjugate, every choice of one extra column (center-out when the
    # others are one run, c = 0 or n - 1) and the two outer minors of the
    # leading n - 1 rows
    n = a.rows
    with pytest.MonkeyPatch.context() as mp:
        _check_mirrored_adjugate(mp, a)
    det = det_cofactor(a)
    for c in range(n):
        assert shared_column_minors(a, [k for k in range(n) if k != c], (c,)) == [det]
    _check_shared_minors(a, range(1, n - 1), (0, n - 1))


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        det_bareiss(Matrix(1, 2, [1, 2]))
