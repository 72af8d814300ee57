import math
import tracemalloc
from fractions import Fraction

import pytest

from minorcert import identity as identity_module
from minorcert import rng
from minorcert.detkit import (
    adjugate,
    contiguous_minors,
    det_bareiss,
    s_functional,
    shared_column_minors,
)
from minorcert.identity import (
    DEFAULT_SYMBOLIC_CAP,
    SPECIALIZATION_CAP,
    bt_suite,
    johnson_integer_suite,
    johnson_numeric_suite,
    lemmas_suite,
    specialization_certificate,
    verify_bt,
    verify_johnson_symbolic,
    verify_rank_one_expansion,
    verify_reduced_case,
    verify_skew_facts,
)
from minorcert.matrix import (
    Matrix,
    generic_skew_toeplitz,
    identity,
    johnson_family,
    ones,
    outer,
    skew_toeplitz,
)
from minorcert.report import UndecidedError
from minorcert.ring import MonomialTable, MultiPoly, variables
from minorcert.rng import random_skew, substream


def test_johnson_n2_direct():
    rep = verify_johnson_symbolic(2)
    assert rep.verified and rep.residual == "0"


def test_johnson_n3_hand_expansion():
    # frozen from the cofactor-oracle expansion of the three 2x2 minors
    a = johnson_family(3)
    b1, b2 = variables(2)
    assert det_bareiss(a.block(2, 1, 2)) == b1 * b1 + 2 * b1 - b2
    assert det_bareiss(a.block(2, 2, 1)) == b1 * b1 - 2 * b1 + b2
    assert 2 * det_bareiss(a.block(2, 1, 1)) == 2 * b1 * b1
    assert verify_johnson_symbolic(3).verified


@pytest.mark.parametrize("n", range(2, 7))
def test_johnson_symbolic_small_orders(n):
    rep = verify_johnson_symbolic(n)
    assert rep.verified
    assert rep.claim == f"johnson_symbolic_n{n}"


@pytest.mark.parametrize("n", range(2, 10))
def test_johnson_symbolic_builds_at_most_2_to_the_m_minors(monkeypatch, n):
    # one MonomialTable.sum_of_products call per minor built: the 2^m - 2
    # sub-minors on the shared columns and the two targets (m = n - 1); a
    # row expansion over the column subsets of both targets makes
    # 2^m - 1 + 2^(m-1)
    calls = []
    built = MonomialTable.sum_of_products

    def counted(table, pairs):
        calls.append(1)
        return built(table, pairs)

    monkeypatch.setattr(MonomialTable, "sum_of_products", counted)
    assert verify_johnson_symbolic(n).verified
    assert 0 < len(calls) <= 2 ** (n - 1)


def test_johnson_rejects_out_of_range():
    cap = DEFAULT_SYMBOLIC_CAP
    with pytest.raises(ValueError):
        verify_johnson_symbolic(1)
    with pytest.raises(ValueError):
        verify_johnson_symbolic(cap + 1)
    assert verify_johnson_symbolic(cap).verified


def test_johnson_symbolic_order_9_peaks_under_2_mib():
    # the column expansion drops each sub-minor after its last superset and
    # keeps the sub-minors in index form, one small int per term that its
    # monomial table numbered; two whole levels with one key object per term
    # peak at 2.9 MiB
    tracemalloc.start()
    try:
        assert verify_johnson_symbolic(9).verified
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_skew_facts_order_8_peaks_under_1_4_mib():
    # the entries of the leave-one-row-out adjugate take their key objects
    # from one monomial table; one key object per entry and term peaks at
    # 1.7 MiB
    tracemalloc.start()
    try:
        assert verify_skew_facts(generic_skew_toeplitz(8)).verified
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_johnson_symbolic_raises_when_the_transpose_is_not_a_at_minus_b(monkeypatch):
    # a malformed family is an internal error, never a verified or refuted report
    def malformed(n):
        rows = johnson_family(n).to_rows()
        rows[0][1] = rows[0][1] + 1
        return Matrix.from_rows(rows)

    monkeypatch.setattr(identity_module, "johnson_family", malformed)
    with pytest.raises(RuntimeError, match="A\\^T is not A\\(-b\\)"):
        verify_johnson_symbolic(4)


def test_johnson_symbolic_certificate_holds_at_random_rational_points():
    n = 5
    a = johnson_family(n)
    m = n - 1
    stream = substream(404, 0)
    d12 = det_bareiss(a.block(m, 1, 2))
    d21 = det_bareiss(a.block(m, 2, 1))
    d11 = det_bareiss(a.block(m, 1, 1))
    residual = d12 + d21 - 2 * d11
    for _ in range(50):
        point = [
            Fraction(stream.randint(-8, 8), stream.randint(1, 5))
            for _ in range(n - 1)
        ]
        assert residual.evaluate(point) == 0


def test_reduced_case_n3_hand_values():
    b = generic_skew_toeplitz(3)
    b1, _ = variables(2)
    assert det_bareiss(b.block(2, 1, 1)) == b1 * b1
    assert det_bareiss(b.block(2, 1, 2)) == b1 * b1
    assert verify_reduced_case(3).verified


@pytest.mark.parametrize("n", range(3, 7))
def test_reduced_case_small_orders(n):
    rep = verify_reduced_case(n)
    assert rep.verified
    if (n - 1) % 2:
        assert rep.instance["parity"] == "odd"
        assert rep.instance["square_residual"] == "0"


def test_reduced_case_specialized_determinants_are_one():
    # m = 4 blocks of the order-5 family at b = (1,0,0,0)
    b = generic_skew_toeplitz(5)
    point = [1, 0, 0, 0]
    k_num = b.block(4, 1, 1).map(lambda p: p.evaluate(point))
    c_num = b.block(4, 1, 2).map(lambda p: p.evaluate(point))
    assert det_bareiss(k_num) == 1
    assert det_bareiss(c_num) == 1


@pytest.mark.parametrize("n", [4, 6])
def test_reduced_case_lemma_s_matches_adjugate_form(n):
    # the rank-one expansion s(X) = det(J + X) - det(X) and the bordered
    # form s(X) = -det [[0, 1^T], [1, X]] that the reduced case takes both
    # agree with the adjugate form 1^T adj(X) 1, the independent oracle
    m = n - 1
    b = generic_skew_toeplitz(n)
    blocks = (range(1, m), (0, m))
    det_k, det_c = shared_column_minors(b, *blocks)
    det_jk, det_jc = shared_column_minors(johnson_family(n), *blocks)
    s_k = s_functional(b.block(m, 1, 1))
    s_c = s_functional(b.block(m, 1, 2))
    assert det_jk - det_k == s_k
    assert det_jc - det_c == s_c
    bordered = Matrix.from_rows([[0] + [1] * n] + [[1] + r for r in b.to_rows()])
    neg_s_k, neg_s_c = shared_column_minors(bordered, (0, *range(2, n)), (1, n))
    assert (-neg_s_k, -neg_s_c) == (s_k, s_c)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_reduced_case_factored_square_matches_direct_squares(n):
    # the odd-order square residual is taken as (s_K - s_C)(s_K + s_C); the
    # direct squares s_K^2 - s_C^2 are the oracle, on s_C as certified and
    # on a perturbed s_C whose residual is not zero.  s_K and s_C come from
    # the rank-one expansion (expansions of B and J + B), independent
    # of the bordered expansion the reduced case takes them from
    m = n - 1
    blocks = (range(1, m), (0, m))
    det_k, det_c = shared_column_minors(generic_skew_toeplitz(n), *blocks)
    det_jk, det_jc = shared_column_minors(johnson_family(n), *blocks)
    s_k = det_jk - det_k
    s_c = det_jc - det_c
    rep = verify_reduced_case(n)
    assert rep.residual == str(s_c - s_k)
    if n == 10:
        # one square of the order-10 s (3,806 terms) takes about 8 s, so the
        # direct squares stop at order 8; s_K = s_C makes them zero here
        assert s_k == s_c and rep.instance["square_residual"] == "0"
        return
    perturbed = s_c + variables(n - 1)[0] * s_k + 1
    for t in (s_c, perturbed):
        assert (s_k - t) * (s_k + t) == s_k * s_k - t * t
    assert s_k * s_k - perturbed * perturbed != 0
    assert rep.instance["square_residual"] == str(s_k * s_k - s_c * s_c) == "0"


@pytest.mark.parametrize("n", range(3, 9))
def test_reduced_case_takes_one_row_expansion(monkeypatch, n):
    # even m expands B once for (det K, det C), odd m the bordered matrix
    # once for (-s(K), -s(C)); Bareiss and the adjugate form are the oracles
    calls = []

    def counted(*args):
        minors = shared_column_minors(*args)
        calls.append(minors)
        return minors

    monkeypatch.setattr(identity_module, "shared_column_minors", counted)
    assert verify_reduced_case(n).verified
    m = n - 1
    b = generic_skew_toeplitz(n)
    k_mat, c_mat = b.block(m, 1, 1), b.block(m, 1, 2)
    if m % 2 == 0:
        expected = [det_bareiss(k_mat), det_bareiss(c_mat)]
    else:
        expected = [-s_functional(k_mat), -s_functional(c_mat)]
    assert calls == [expected]


@pytest.mark.parametrize("n", [5, 6])
def test_reduced_case_refutes_a_doctored_minor(monkeypatch, n):
    # one added to det C (even m = 4) or to -s(C) (odd m = 5): both branches
    # can fail
    def doctored(*args):
        first, second = shared_column_minors(*args)
        return [first, second + 1]

    monkeypatch.setattr(identity_module, "shared_column_minors", doctored)
    rep = verify_reduced_case(n)
    assert rep.status == "refuted"
    assert rep.residual != "0"


@pytest.mark.parametrize("n", [5, 6])
def test_reduced_case_refutes_a_skew_matrix_that_is_not_toeplitz(monkeypatch, n):
    # the parity facts need the Toeplitz structure: on a random integer skew
    # matrix det C != det K (m = 4) and s(C) != s(K) (m = 5), so each branch
    # refutes unless it reads the blocks it names
    stream = substream(606, n)
    skew = random_skew(n, lambda: stream.randint(-4, 4))
    monkeypatch.setattr(identity_module, "generic_skew_toeplitz", lambda _: skew)
    m = n - 1
    k_mat, c_mat = skew.block(m, 1, 1), skew.block(m, 1, 2)
    if m % 2 == 0:
        expected = det_bareiss(c_mat) - det_bareiss(k_mat)
    else:
        expected = s_functional(c_mat) - s_functional(k_mat)
    rep = verify_reduced_case(n)
    assert expected != 0
    assert rep.status == "refuted"
    assert rep.residual == str(expected)


def test_reduced_case_rejects_small_order():
    with pytest.raises(ValueError):
        verify_reduced_case(2)


def test_parity_chain_at_random_rational_points():
    # the equivalence chain behind the reduction: for random rational B,
    # det(J+C) + det(J-C) = 2 det(J+K) matches the original three-minor
    # identity, and the parity formulas for both sides hold
    for n in (4, 5):
        m = n - 1
        stream = substream(505, n)
        b_sym = generic_skew_toeplitz(n)
        point = [
            Fraction(stream.randint(-6, 6), stream.randint(1, 4))
            for _ in range(n - 1)
        ]
        b = b_sym.map(lambda p: p.evaluate(point))
        a = ones(n) + b
        j = ones(m)
        k_blk = b.block(m, 1, 1)
        c_blk = b.block(m, 1, 2)
        lhs_chain = det_bareiss(j + c_blk) + det_bareiss(j - c_blk)
        rhs_chain = 2 * det_bareiss(j + k_blk)
        johnson_lhs = det_bareiss(a.block(m, 1, 2)) + det_bareiss(a.block(m, 2, 1))
        assert lhs_chain == rhs_chain == johnson_lhs
        if m % 2 == 0:
            assert lhs_chain == 2 * det_bareiss(c_blk)
            assert det_bareiss(j + k_blk) == det_bareiss(k_blk)
        else:
            assert lhs_chain == 2 * s_functional(c_blk)
            assert det_bareiss(j + k_blk) == s_functional(k_blk)


def test_rank_one_expansion_trivial_cases():
    rep = verify_rank_one_expansion(identity(2), 1)
    assert rep.verified
    assert det_bareiss(identity(2) + ones(2)) == 3
    rep = verify_rank_one_expansion(Matrix(2, 2, [0] * 4), 1)
    assert rep.verified


def test_rank_one_expansion_random_exact():
    reports = [
        r for r in lemmas_suite(3, trials=10, seed=42) if r.claim.startswith("rankone")
    ]
    assert len(reports) == 10
    assert all(r.verified for r in reports)
    assert all(r.residual == "0" for r in reports)


def test_skew_facts_small():
    y = Matrix.from_rows([[0, 1], [-1, 0]])
    rep = verify_skew_facts(y)
    assert rep.verified
    adj = adjugate(y)
    assert adj.T == -adj
    assert s_functional(y) == 0


def test_skew_facts_generic_orders():
    assert verify_skew_facts(generic_skew_toeplitz(5)).verified  # odd: det = 0
    assert det_bareiss(generic_skew_toeplitz(5)) == 0
    rep = verify_skew_facts(generic_skew_toeplitz(4))  # even: s(Y) = 0
    assert rep.verified and rep.residual == "0"


@pytest.mark.parametrize("m", [4, 5])
def test_skew_facts_refute_an_adjugate_that_breaks_the_transpose_identity(
    monkeypatch, m
):
    def doctored(y):
        rows = adjugate(y).to_rows()
        rows[0][2] = rows[0][2] + 1
        return Matrix.from_rows(rows)

    monkeypatch.setattr(identity_module, "adjugate", doctored)
    rep = verify_skew_facts(generic_skew_toeplitz(m))
    assert not rep.verified
    assert rep.instance["adjugate_transpose_identity"] is False
    if m % 2 == 0:
        # the first nonzero defect adj[j, i] + adj[i, j] in row order is at
        # (0, 2), the doctored 1
        assert rep.residual == "1"


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_even_generic_skew_adjugates_sum_to_zero(m):
    # s(Y) = 0, which verify_skew_facts reads off its transpose identity
    # rather than summing
    assert s_functional(generic_skew_toeplitz(m)) == 0


def test_skew_facts_rejects_non_skew():
    with pytest.raises(ValueError):
        verify_skew_facts(identity(3))


INF = float("inf")


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, INF], [-INF, 0.0]],  # read "verified" before
        [[0, INF, 1], [-INF, 0, 2], [-1, -2, 0]],  # read "refuted", residual nan
        [[0, 0.5], [-0.5, 0]],
        [[0, 1j], [-1j, 0]],
    ],
    ids=["inf-2", "inf-3", "float", "complex"],
)
def test_skew_facts_reject_float_and_complex_entries(rows):
    with pytest.raises(TypeError, match="exact claims"):
        verify_skew_facts(Matrix.from_rows(rows))


@pytest.mark.parametrize("m,expected", [(3, 4), (5, 9), (7, 16)])
def test_specialization_odd_values(m, expected):
    rep = specialization_certificate(m)
    assert rep.verified
    assert rep.instance["s_C"] == expected
    assert rep.instance["s_K"] == expected
    assert rep.instance["adj_K_is_uuT"]
    assert rep.instance["det_K_tail"] == 1


def test_specialization_m3_inverse_vector():
    rep = specialization_certificate(3)
    assert rep.instance["Cinv_ones"] == [1, 1, 2]


def test_specialization_m5_adjugate_is_uuT():
    shift_pattern = [1, 0, 1, 0, 1]
    k = skew_toeplitz([1, 0, 0, 0, 0]).block(5, 1, 1)
    assert adjugate(k) == outer(shift_pattern)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_specialization_even_values(m):
    rep = specialization_certificate(m)
    assert rep.verified
    assert rep.instance["det_K"] == 1
    assert rep.instance["det_C"] == 1


def test_specialization_matches_generic_blocks():
    # the numeric skew Toeplitz blocks at b = (1, 0, ..., 0) equal the
    # evaluated blocks of the generic skew family, and are the tridiagonal
    # K = L^T - L and C = I - L^2 of the paper
    m = 5
    b = generic_skew_toeplitz(m + 1)
    point = [1] + [0] * (m - 1)
    spec = skew_toeplitz(point)
    shift = Matrix(m, m, [int(i == j + 1) for i in range(m) for j in range(m)])  # L
    for j, expected in ((1, shift.T - shift), (2, identity(m) - shift @ shift)):
        assert b.block(m, 1, j).map(lambda p: p.evaluate(point)) == spec.block(m, 1, j)
        assert spec.block(m, 1, j) == expected


def test_specialization_rejects_small():
    with pytest.raises(ValueError):
        specialization_certificate(1)


def test_specialization_rejects_orders_above_the_cap():
    with pytest.raises(ValueError, match=f"2..{SPECIALIZATION_CAP}"):
        specialization_certificate(SPECIALIZATION_CAP + 1)


def test_bt_trivial_all_ones():
    rep = verify_bt(Matrix(2, 2, [0] * 4), 2, [1, 1])
    assert rep.verified


def test_bt_toeplitz_case_exact():
    # numeric skew-Toeplitz with b = (1, 2) plus the all-ones symmetric part
    skew = Matrix.from_rows([[0, 1, 2], [-1, 0, 1], [-2, -1, 0]])
    rep = verify_bt(skew, 2, [1, 1, 1])
    assert rep.verified and rep.residual == "0"
    a = skew + ones(3)
    assert all(
        det_bareiss(a.block(2, i, j)) == 1 for i, j in [(1, 1), (2, 2), (1, 2), (2, 1)]
    )


def test_bt_with_zero_weight_component():
    stream = substream(707, 0)
    skew = random_skew(4, lambda: stream.randint(-5, 5))
    rep = verify_bt(skew, -3, [1, 0, 2, -1])
    assert rep.verified and rep.residual == "0"


def test_bt_rejects_non_skew():
    with pytest.raises(ValueError):
        verify_bt(identity(3), 1, [1, 1, 1])
    with pytest.raises(ValueError):
        verify_bt(Matrix(3, 3, [0] * 9), 1, [0, 0, 0])


def _rational_bt_instance(n, seed):
    """A skew matrix over thirds, alpha over fifths and weights over sevenths."""
    stream = substream(seed, 0)
    skew = random_skew(n, lambda: Fraction(stream.randint(-9, 9), 3))
    alpha = Fraction([-8, -4, -2, 1, 3, 7][stream.randint(0, 5)], 5)
    w = [Fraction(stream.randint(-9, 9), 7) for _ in range(n)]
    w[0] = Fraction(2, 7)
    return skew, alpha, w


def _bt_oracle_residual(skew, alpha, w, bump=0):
    """d11 d22 - ((d12 + d21) / 2)^2 from the minors of the unscaled rational
    matrix, with ``bump`` added to d11."""
    a = skew + Fraction(alpha) / 2 * outer(list(w))
    d11, d22, d12, d21 = contiguous_minors(a)
    half_sum = Fraction(d12 + d21) / 2
    return (d11 + bump) * d22 - half_sum * half_sum


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_exact_bt_over_thirds_fifths_and_sevenths(n):
    skew, alpha, w = _rational_bt_instance(n, 40 + n)
    rep = verify_bt(skew, alpha, w)
    assert rep.verified
    assert rep.residual == str(_bt_oracle_residual(skew, alpha, w)) == "0"


def test_exact_bt_with_alpha_zero():
    skew, _, w = _rational_bt_instance(6, 50)
    stream = substream(51, 0)
    for s in (skew, random_skew(6, lambda: stream.randint(-5, 5))):
        rep = verify_bt(s, 0, w)
        assert rep.verified and rep.residual == "0"
        assert str(_bt_oracle_residual(s, 0, w)) == "0"


@pytest.mark.parametrize("k", range(5))
def test_exact_bt_with_a_zero_weight_at_each_position(k):
    skew, alpha, w = _rational_bt_instance(5, 60 + k)
    w[k] = 0
    w[(k + 1) % 5] = Fraction(-3, 7)
    rep = verify_bt(skew, alpha, w)
    assert rep.verified and rep.residual == "0"
    assert str(_bt_oracle_residual(skew, alpha, w)) == "0"


def test_exact_bt_refutes_an_off_by_one_minor_with_the_exact_residual(monkeypatch):
    # above the cofactor oracle's order, where a wrong minor is refuted, not
    # an error, so the residual's scaling can be read
    n = identity_module.BT_ORACLE_ORDER + 2
    skew, alpha, w = _rational_bt_instance(n, 70)
    real = identity_module.contiguous_minors

    def off_by_one(a):
        d11, d22, d12, d21 = real(a)
        return d11 + 1, d22, d12, d21

    monkeypatch.setattr(identity_module, "contiguous_minors", off_by_one)
    rep = verify_bt(skew, alpha, w)
    # the minors of L * 2A are (2L)^(n-1) times those of A, so one more on
    # the scaled d11 is 1 / (2L)^(n-1) more on the rational one
    lcm = math.lcm(*(x.denominator for x in (2 * skew + alpha * outer(w)).entries()))
    assert lcm > 1
    bump = Fraction(1, (2 * lcm) ** (n - 1))
    expected = _bt_oracle_residual(skew, alpha, w, bump)
    assert expected != 0
    assert not rep.verified
    assert rep.residual == str(expected)


def test_exact_bt_takes_its_minors_in_integers(monkeypatch):
    seen = []
    real = identity_module.contiguous_minors

    def spy(a):
        seen.append({type(x) for x in a.entries()})
        return real(a)

    monkeypatch.setattr(identity_module, "contiguous_minors", spy)
    # the spy sees the calls of this process only, so the suite runs in it
    monkeypatch.setattr(rng, "_cpu_count", lambda: 1)
    skew, alpha, w = _rational_bt_instance(4, 80)
    assert verify_bt(skew, alpha, w).verified
    stream = substream(81, 0)
    skew = random_skew(6, lambda: stream.randint(-5, 5))
    assert verify_bt(skew, 3, [1, 0, 2, -1, 4, 2]).verified
    assert all(r.verified for r in bt_suite(6, 5, seed=82, scalar="rat"))
    assert seen == [{int}] * 7


@pytest.mark.parametrize(
    "case",
    [
        "polynomial skew",
        "bool alpha",
        "bool weight",
        "bool entry",
        "complex entry",
        "complex alpha",
        "complex weight",
    ],
)
def test_bt_rejects_scalars_that_are_not_numbers(case):
    # complex input is rejected: the float verdict compares moduli only, so
    # "verified" would not mean that the complex equality holds
    skew, alpha, w = skew_toeplitz([1, 2]), 1, [1, 1, 1]
    if case == "polynomial skew":
        skew = generic_skew_toeplitz(3)
    elif case == "bool alpha":
        alpha = True
    elif case == "bool weight":
        w = [1, False, 1]
    elif case == "bool entry":
        skew = Matrix.from_rows([[0, True, 0], [-1, 0, 0], [0, 0, 0]])
    elif case == "complex entry":
        skew = Matrix.from_rows([[0, 1j, 0], [-1j, 0, 0], [0, 0, 0]])
    elif case == "complex alpha":
        alpha = 1j
    else:
        w = [1, 1j, 1]
    with pytest.raises(TypeError, match="int, Fraction or float scalars"):
        verify_bt(skew, alpha, w)


def test_float_bt_needs_an_exactly_skew_matrix():
    stream = substream(7, 0)
    rows = random_skew(4, lambda: stream.uniform(-2.0, 2.0)).to_rows()
    w = [1.0, 0.5, -1.0, 2.0]
    assert verify_bt(Matrix.from_rows(rows), 1.5, w).verified
    rows[1][3] += 1e-15
    with pytest.raises(ValueError, match="not skew-symmetric"):
        verify_bt(Matrix.from_rows(rows), 1.5, w)


def test_float_reports_carry_their_fixed_tolerances():
    assert identity_module.JOHNSON_NUMERIC_TOL == 1e-9
    assert identity_module.BT_TOL == 1e-8
    assert {r.tolerance for r in johnson_numeric_suite(8, 5, seed=3)} == {1e-9}
    assert {r.tolerance for r in bt_suite(5, 5, seed=9, scalar="real")} == {1e-8}


def test_bt_suite_exact_and_float():
    exact = bt_suite(5, 10, seed=9, scalar="rat")
    assert all(r.verified for r in exact)
    assert all(r.residual == "0" for r in exact)
    approx = bt_suite(6, 10, seed=9, scalar="real")
    assert all(r.verified for r in approx)


def test_johnson_numeric_suite():
    reports = johnson_numeric_suite(12, 100, seed=3)
    assert len(reports) == 100
    assert all(r.verified for r in reports)
    assert max(r.instance["n"] for r in reports) > 8  # orders reach beyond the symbolic cap


def test_johnson_numeric_overflow_is_undecided():
    # trial 0 of this run has order 233, whose float minors overflow to nan;
    # the identity holds there, so it must not be reported as refuted
    with pytest.raises(UndecidedError, match="johnson_numeric_t000 \\(order 233\\)"):
        johnson_numeric_suite(250, 3, seed=5)


def test_johnson_integer_suite_draws_the_numeric_orders_and_small_integers():
    reports = johnson_integer_suite(40, 30, seed=3)
    assert [r.claim for r in reports] == [f"johnson_integer_t{t:03d}" for t in range(30)]
    assert [r.instance["n"] for r in reports] == [
        r.instance["n"] for r in johnson_numeric_suite(40, 30, seed=3)
    ]
    for t, r in enumerate(reports):
        b = r.instance["b"]
        stream = substream(3, t)
        assert stream.randint(2, 40) == len(b) + 1 and b == stream.randints(len(b), -2, 2)
    assert all(r.verified and r.residual == "0" and r.tolerance is None for r in reports)


def test_johnson_integer_suite_verifies_an_order_past_60():
    # trial 0 at seed 6 draws order 68, where the float minors of the
    # numeric suite already carry a relative error; the integer residual is
    # exactly 0
    (report,) = johnson_integer_suite(80, 1, seed=6)
    assert report.instance["n"] == 68
    assert report.verified and report.residual == "0"


def test_a_doctored_integer_johnson_minor_is_refuted(monkeypatch):
    # one more on each block whose symmetric part is 2J: A_m(1,1) whatever
    # the b_k, and all three blocks when every b_k is 0, where the three
    # bumps cancel; every other trial's residual is then -2
    real = identity_module.det_bareiss
    monkeypatch.setattr(
        identity_module, "det_bareiss", lambda x: real(x) + (x + x.T == 2 * ones(x.rows))
    )
    reports = johnson_integer_suite(12, 20, seed=3)
    refuted = [r for r in reports if any(r.instance["b"])]
    assert len(refuted) >= 15
    assert {(r.status, r.residual) for r in refuted} == {("refuted", "-2")}
    assert all(r.verified for r in reports if r not in refuted)


def test_johnson_integer_suite_needs_order_two():
    with pytest.raises(ValueError):
        johnson_integer_suite(1, 3, seed=3)


def test_float_bt_overflow_is_undecided():
    stream = substream(7, 0)
    skew = random_skew(8, lambda: stream.uniform(-2.0, 2.0))
    w = [stream.uniform(-2.0, 2.0) for _ in range(8)]
    assert verify_bt(skew, 1.5, w).verified
    with pytest.raises(UndecidedError, match="bt_n8"):
        verify_bt(skew * 1e200, 1.5e200, w)


def test_lemmas_suite_composition():
    reports = lemmas_suite(5, trials=5, seed=12)
    claims = [r.claim for r in reports]
    assert claims == sorted(claims)
    assert any(c.startswith("reduced_case_n5") for c in claims)
    assert any(c.startswith("skew_facts_m4") for c in claims)
    assert any(c.startswith("rankone_expansion_t004") for c in claims)
    assert all(r.verified for r in reports)


def test_report_json_shape():
    rep = verify_johnson_symbolic(3)
    doc = rep.to_json()
    assert set(doc) == {"claim", "status", "residual", "instance", "seed", "tolerance"}
