import pytest
from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st

from minorcert.detkit import shared_column_minors
from minorcert.matrix import Matrix
from minorcert.ring import (
    ExactDivisionError,
    MonomialTable,
    MultiPoly,
    exact_div,
    poly_sum,
    sum_of_products,
    variables,
)
from minorcert.rng import SplitMix64, random_poly, random_poly_matrix, substream


@st.composite
def polys(draw, nvars, max_terms=4, max_exp=3, coeff=9):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[exps] = draw(st.integers(-coeff, coeff))
    return MultiPoly(nvars, terms)


def test_variable_square():
    b1, = variables(1)
    assert b1 * b1 == MultiPoly(1, {(2,): 1})


def test_difference_of_squares():
    b1, b2 = variables(2)
    assert (1 + b1) * (1 - b1) == 1 - b1 * b1
    assert not (b1 + b2) * (b1 - b2) - (b1 * b1 - b2 * b2)


def test_eval_examples():
    b1, b2 = variables(2)
    assert (1 - b1 * b1).evaluate([1, 0]) == 0
    assert (b1 + b2).evaluate([1, 2]) == 3
    assert (b1 + b2).evaluate([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)


def test_eval_length_mismatch():
    b1, _ = variables(2)
    with pytest.raises(ValueError):
        b1.evaluate([1])


def test_nvars_mismatch_is_usage_error():
    with pytest.raises(ValueError):
        variables(2)[0] * variables(3)[0]


def test_is_zero():
    # a polynomial is false exactly when it is zero
    assert not MultiPoly(3)
    assert MultiPoly.var(3, 3)
    p = MultiPoly.var(1, 1)
    assert not p - p


def test_canonical_text_and_parse_roundtrip():
    b1, b2 = variables(2)
    p = 3 * b1 * b1 * b2 - b2 + 5
    text = str(p)
    assert text == "3 * b1^2 b2 + -1 * b2 + 5"
    assert str(MultiPoly(2)) == "0"


def test_exponent_overflow_detected():
    with pytest.raises(OverflowError):
        MultiPoly(1, {(40000,): 1})
    big = MultiPoly(1, {(30000,): 1})
    with pytest.raises(OverflowError):
        big * big


def _operator_sum(pairs):
    # the oracle: one product and one running sum per pair, by operators
    acc = 0
    for sign, a, b in pairs:
        acc = acc - a * b if sign < 0 else acc + a * b
    return acc


def _naive_sum(pairs):
    # the oracle: every pair of terms multiplied on exponent tuples, with no
    # packed key and no ring operator
    acc = {}
    for sign, a, b in pairs:
        for ea, ca in a.terms():
            for eb, cb in b.terms():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + sign * ca * cb
    return MultiPoly(pairs[0][1].nvars, acc)


def test_sum_of_products_matches_a_naive_product_on_random_polynomials():
    b1, b2, b3 = variables(3)
    one = MultiPoly.const(1, 3)
    # factors with +-1 coefficients, the constants +-1 and one without +-1;
    # each is mostly the shorter factor, whose terms drive the product loop
    special = [1 + b1, b2 - 1, -b1 - b3, b3 - b2 + 1, one, -one, 3 * b1 - b2]
    for t in range(21):
        stream = substream(412, t)
        entries = random_poly_matrix(stream, 4, nvars=3, max_terms=4, max_exp=2).entries()
        signs = [1 - 2 * stream.randint(0, 1) for _ in range(9)]
        pairs = [(signs[i], entries[2 * i], entries[2 * i + 1]) for i in range(1 + t % 8)]
        many = random_poly(stream, 3, max_terms=12, max_exp=3, coeff_bound=7)
        f, g = special[t % 7], special[(t + 3) % 7]
        pairs += [(signs[8], f, many), (-1, many, g)]
        got = sum_of_products(pairs)
        assert got == _naive_sum(pairs)
        assert all(c for _, c in got.terms())
        assert f * many == _naive_sum([(1, f, many)])
        assert many * g == _naive_sum([(1, many, g)])
        # products that cancel to zero, through +-1 and constant factors
        for zero in (sum_of_products([(1, f, many), (-1, many, f)]),
                     sum_of_products([(-1, -one, many), (-1, many, one)]),
                     sum_of_products([(1, f, g), (1, -one, g * f)])):
            assert isinstance(zero, MultiPoly) and zero == 0 and not zero


def test_sum_of_products_mixes_int_constants_into_polynomials():
    b1, b2 = variables(2)
    pairs = [(1, 3, b1), (-1, b2, 2), (1, 5, 1), (-1, 0, b1), (1, b1, b1 - b2)]
    expected = b1 * b1 + 3 * b1 - b1 * b2 - 2 * b2 + 5
    assert sum_of_products(pairs) == _operator_sum(pairs) == expected


def test_sum_of_products_on_numbers_is_the_plain_sum():
    stream = substream(413, 0)
    for n in range(8):
        draw = stream.randint
        pairs = [(1 - 2 * draw(0, 1), draw(-50, 50), draw(-50, 50)) for _ in range(n)]
        got = sum_of_products(pairs)
        assert type(got) is int and got == _operator_sum(pairs)
    half = Fraction(1, 2)
    assert sum_of_products([(1, half, 3), (-1, 1, half)]) == 1
    assert sum_of_products([(-1, 1.5, 2.0)]) == -3.0


def test_sum_of_products_cancelling_to_zero():
    b1, b2 = variables(2)
    p = (b1 + 2) * (b2 - b1)
    got = sum_of_products([(1, b1 + 2, b2 - b1), (-1, p, 1), (1, b1, b2), (-1, b2, b1)])
    assert isinstance(got, MultiPoly) and got == 0 and not got
    assert str(got) == "0"
    assert got.terms() == []


def test_sum_of_products_of_no_pairs_is_zero():
    assert sum_of_products([]) == 0


def test_sum_of_products_rejects_mixed_variable_counts():
    b1, _ = variables(2)
    with pytest.raises(ValueError):
        sum_of_products([(1, b1, b1), (1, variables(3)[0], 1)])
    with pytest.raises(ValueError):
        sum_of_products([(-1, b1, variables(1)[0])])


def test_sum_of_products_rejects_non_integer_factors_of_polynomials():
    b1, = variables(1)
    with pytest.raises(TypeError):
        sum_of_products([(1, b1, Fraction(1, 2))])
    # on either side of a product, before or after the first polynomial
    for pairs in ([(1, 2.0, b1)], [(1, 3, 4), (-1, True, b1)], [(1, b1, b1), (1, 1, 0.5)]):
        with pytest.raises(TypeError):
            sum_of_products(pairs)


def _repeated_add(items):
    acc = 0
    for x in items:
        acc = acc + x
    return acc


def test_poly_sum_matches_repeated_addition_on_random_polynomials():
    for t in range(24):
        stream = substream(414, t)
        items = [random_poly(stream, 3, max_terms=5, max_exp=2, coeff_bound=4)
                 for _ in range(t % 9)]
        if t % 3 == 0:
            items.append(stream.randint(-3, 3))  # an int constant joins the ring
        got = poly_sum(items)
        want = _repeated_add(items)
        assert got == want and str(got) == str(want)
        if isinstance(got, MultiPoly):
            assert all(c for _, c in got.terms())


def test_poly_sum_cancelling_to_zero():
    stream = substream(415, 0)
    p, q = (random_poly(stream, 2, max_terms=6, coeff_bound=5) for _ in range(2))
    got = poly_sum([p, q, -p, 0, -q])
    assert isinstance(got, MultiPoly) and got == 0 and not got
    assert str(got) == "0" and got.terms() == []
    b1, b2 = variables(2)
    assert poly_sum([b1 + 1, -1, -b1, b2, -b2]).terms() == []


def test_poly_sum_of_nothing_and_of_numbers():
    assert poly_sum([]) == 0 and type(poly_sum([])) is int
    assert poly_sum(iter([])) == 0
    assert poly_sum([3, -5, 4]) == 2
    assert poly_sum([Fraction(1, 2), Fraction(1, 3)]) == Fraction(5, 6)


def test_poly_sum_rejects_what_addition_rejects():
    b1, = variables(1)
    with pytest.raises(ValueError):
        poly_sum([b1, variables(2)[0]])
    for items in ([b1, 0.5], [Fraction(1, 2), b1], [True, b1]):
        with pytest.raises(TypeError):
            poly_sum(items)


def test_sum_of_products_guards_every_product_degree():
    small = MultiPoly(1, {(1,): 1})
    big = MultiPoly(1, {(20000,): 1})
    with pytest.raises(OverflowError):
        sum_of_products([(1, small, small), (1, big, big)])
    with pytest.raises(OverflowError):
        shared_column_minors(Matrix.from_rows([[big, 1], [1, big]]), (1,), (0,))


def test_monomial_table_guards_a_product_when_it_is_first_made():
    table = MonomialTable(1)
    big = table.factor(MultiPoly(1, {(16384,): 1}))
    once = table.sum_of_products([(1, big, {0: 1})])
    assert table.element(once) == MultiPoly(1, {(16384,): 1})
    with pytest.raises(OverflowError):
        table.sum_of_products([(1, big, once)])


def test_monomial_table_factors_follow_the_ring_rules():
    b1, b2 = variables(2)
    table = MonomialTable(2)
    assert table.factor(0) == () and table.factor(MultiPoly(2)) == ()
    with pytest.raises(ValueError):
        table.factor(variables(3)[0])
    with pytest.raises(TypeError):
        table.factor(Fraction(1, 2))
    x = table.sum_of_products([(1, table.factor(3), {0: 1})])
    y = table.sum_of_products([(-1, table.factor(b1 - 2 * b2), x), (1, table.factor(b2), x)])
    assert table.element(y) == -3 * b1 + 9 * b2
    assert table.element(y, -1) == 3 * b1 - 9 * b2 and table.element({}, -1) == 0
    numbers = MonomialTable(None)
    half = numbers.sum_of_products([(1, numbers.factor(Fraction(1, 2)), {0: 3})])
    assert numbers.element(half) == Fraction(3, 2) and numbers.element({}) == 0
    assert numbers.element(half, -1) == Fraction(-3, 2)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    nvars = data.draw(st.integers(1, 4))
    p = data.draw(polys(nvars))
    q = data.draw(polys(nvars))
    r = data.draw(polys(nvars))
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eval_is_homomorphism(data):
    nvars = data.draw(st.integers(1, 3))
    p = data.draw(polys(nvars))
    q = data.draw(polys(nvars))
    r = data.draw(polys(nvars))
    point = [data.draw(st.integers(-5, 5)) for _ in range(nvars)]
    lhs = (p * q + r).evaluate(point)
    rhs = p.evaluate(point) * q.evaluate(point) + r.evaluate(point)
    assert lhs == rhs


def test_mul_matches_eval_oracle_on_random_assignments():
    # evaluation-homomorphism oracle: eval(p*q) == eval(p)*eval(q) at 20
    # random integer points, for random degree-<=2 polynomials in 3 vars
    stream = substream(2024, 0)
    for _ in range(10):
        p = random_poly(stream, 3, max_terms=4, max_exp=2, coeff_bound=5)
        q = random_poly(stream, 3, max_terms=4, max_exp=2, coeff_bound=5)
        prod = p * q
        for _ in range(20):
            a = [stream.randint(-6, 6) for _ in range(3)]
            assert prod.evaluate(a) == p.evaluate(a) * q.evaluate(a)


def test_integral_domain_no_zero_divisors():
    stream = substream(99, 1)
    count = 0
    while count < 100:
        p = random_poly(stream, 3, max_terms=3, max_exp=2, coeff_bound=4)
        q = random_poly(stream, 3, max_terms=3, max_exp=2, coeff_bound=4)
        if not p or not q:
            continue
        count += 1
        assert p * q


def test_exact_division_inverts_multiplication():
    stream = substream(5, 2)
    for _ in range(50):
        p = random_poly(stream, 3, max_terms=4, max_exp=2, coeff_bound=4)
        q = random_poly(stream, 3, max_terms=3, max_exp=2, coeff_bound=4)
        if not q:
            continue
        assert (p * q).exact_div(q) == p


def test_exact_division_failures():
    b1, b2 = variables(2)
    with pytest.raises(ExactDivisionError):
        b1.exact_div(b2)
    with pytest.raises(ExactDivisionError):
        (2 * b1 + 1).exact_div(MultiPoly.const(2, 2))
    with pytest.raises(ZeroDivisionError):
        b1.exact_div(MultiPoly(2))


def test_negate_variables_is_evaluation_at_the_opposite_point():
    # oracle: p(-b) at x is p at -x, at integer and at rational points
    for t in range(8):
        stream = substream(414, t)
        a = random_poly_matrix(stream, 3, nvars=3, max_terms=5, max_exp=3, coeff_bound=6)
        for p in a.entries():
            q = p.negate_variables()
            assert q.negate_variables() == p
            assert len(q.terms()) == len(p.terms())
            for _ in range(3):
                x = [stream.randint(-7, 7) for _ in range(3)]
                assert q.evaluate(x) == p.evaluate([-v for v in x])
                x = [Fraction(stream.randint(-7, 7), stream.randint(1, 5)) for _ in range(3)]
                assert q.evaluate(x) == p.evaluate([-v for v in x])


def test_negate_variables_flips_exactly_the_odd_degree_terms():
    b1, b2 = variables(2)
    p = 3 * b1 * b1 * b2 - b2 + 5 + b1 * b2
    assert p.negate_variables() == -3 * b1 * b1 * b2 + b2 + 5 + b1 * b2
    high = MultiPoly(2, {(15, 2): 4, (15, 3): -1})
    assert high.negate_variables() == MultiPoly(2, {(15, 2): -4, (15, 3): -1})
    for nvars in (0, 2):
        zero = MultiPoly(nvars)
        const = MultiPoly.const(-7, nvars)
        assert zero.negate_variables() == zero
        assert const.negate_variables() == const


def test_generic_exact_div_dispatch():
    assert exact_div(12, 3) == 4
    assert exact_div(-12, 3) == -4
    with pytest.raises(ExactDivisionError):
        exact_div(7, 2)
    assert exact_div(Fraction(1, 2), 3) == Fraction(1, 6)
    b1, _ = variables(2)
    for a, b in ((1.5, 0.5), (3, 1.0), (1.5, 1), (2j, 1), (4, 2 + 0j),
                 (b1, 1.5), (1.5, b1)):
        with pytest.raises(TypeError):
            exact_div(a, b)
    assert exact_div(b1 * b1, b1) == b1


def test_rational_agrees_with_integer_arithmetic():
    stream = SplitMix64(17)
    for _ in range(50):
        a, b = stream.randint(-20, 20), stream.randint(-20, 20)
        assert Fraction(a) + Fraction(b) == a + b
        assert Fraction(a) * Fraction(b) == a * b
    f = Fraction(6, -4)
    assert f.denominator > 0 and f == Fraction(-3, 2)
