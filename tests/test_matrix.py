import pytest
from fractions import Fraction

from minorcert.matrix import (
    Matrix,
    generic_skew_toeplitz,
    identity,
    is_skew_symmetric,
    johnson_family,
    lower_shift,
    matrix_to_json,
    ones,
    outer,
    skew_toeplitz,
    zeros,
)
from minorcert.numaccretive import remark45_matrix
from minorcert.ring import MultiPoly, variables
from minorcert.rng import random_int_matrix, random_poly_matrix, substream


def test_generic_skew_toeplitz_small():
    b = generic_skew_toeplitz(2)
    b1, = variables(1)
    assert b == Matrix.from_rows([[MultiPoly(1), b1], [-b1, MultiPoly(1)]])
    b = generic_skew_toeplitz(3)
    b1, b2 = variables(2)
    z = MultiPoly(2)
    assert b == Matrix.from_rows([[z, b1, b2], [-b1, z, b1], [-b2, -b1, z]])


def test_generic_skew_toeplitz_structure():
    b = generic_skew_toeplitz(7)
    assert is_skew_symmetric(b)
    for i in range(6):
        for j in range(6):
            assert b[i, j] == b[i + 1, j + 1]
    with pytest.raises(ValueError):
        generic_skew_toeplitz(1)


def test_numeric_skew_toeplitz_matches_the_hand_fill():
    # The numeric Johnson member ones(n) + skew_toeplitz(b) must carry exactly
    # the bits of the direct fill 1.0 + b_{j-i} above, 1.0 - b_{i-j} below
    # and 1.0 on the diagonal, or the numeric reports would move.
    stream = substream(5, 0)
    for n in range(2, 9):
        b = [stream.uniform(-2.0, 2.0) for _ in range(n - 1)]
        hand = Matrix(n, n, [
            1.0 + b[j - i - 1] if j > i else 1.0 - b[i - j - 1] if j < i else 1.0
            for i in range(n)
            for j in range(n)
        ])
        a = ones(n) + skew_toeplitz(b)
        assert all(
            type(x) is float and x == y for x, y in zip(a.entries(), hand.entries())
        )
        assert is_skew_symmetric(skew_toeplitz(b))
    assert skew_toeplitz([2, -3]) == Matrix.from_rows(
        [[0, 2, -3], [-2, 0, 2], [3, -2, 0]]
    )
    with pytest.raises(ValueError):
        skew_toeplitz([])


def test_johnson_family_entries():
    a = johnson_family(2)
    b1, = variables(1)
    one = MultiPoly.const(1, 1)
    assert a == Matrix.from_rows([[one, 1 + b1], [1 - b1, one]])


def test_johnson_family_symmetric_part_is_all_twos():
    a = johnson_family(5)
    diff = a + a.T - 2 * ones(5)
    assert all(e == 0 for e in diff.entries())


def test_johnson_family_specializes_to_numeric_rebuild():
    n = 4
    a = johnson_family(n)
    point = [1] + [0] * (n - 2)
    evaluated = a.map(lambda p: p.evaluate(point))
    data = []
    for i in range(n):
        for j in range(n):
            if j == i + 1:
                data.append(2)
            elif j == i - 1:
                data.append(0)
            else:
                data.append(1)
    assert evaluated == Matrix(n, n, data)


def test_block_examples():
    assert identity(3).block(2, 1, 2) == Matrix.from_rows([[0, 0], [1, 0]])
    a = johnson_family(4)
    for r in range(1, 4):
        assert a.block(r, 1, 1) == a.block(r, 2, 2)
    b = generic_skew_toeplitz(4)
    assert b.block(3, 2, 1) == -(b.block(3, 1, 2).T)


def test_block_bounds():
    a = identity(3)
    with pytest.raises(ValueError):
        a.block(2, 3, 1)
    with pytest.raises(ValueError):
        a.block(4, 1, 1)
    with pytest.raises(ValueError):
        a.block(0, 1, 1)


def test_block_commutes_with_evaluation():
    b = generic_skew_toeplitz(5)
    point = [1, 2, 0, -1]
    blk_then_eval = b.block(3, 2, 1).map(lambda p: p.evaluate(point))
    eval_then_blk = b.map(lambda p: p.evaluate(point)).block(3, 2, 1)
    assert blk_then_eval == eval_then_blk


def test_structured_matrices():
    assert ones(2) == Matrix.from_rows([[1, 1], [1, 1]])
    shift = lower_shift(3)
    assert shift @ shift @ shift == zeros(3)
    assert identity(3) - shift @ shift == Matrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [-1, 0, 1]]
    )


def test_polynomials_and_matrices_are_unhashable():
    # equality crosses kinds (the zero polynomial equals the int 0), which
    # no hash could follow, so neither class defines one
    assert MultiPoly(2) == 0
    with pytest.raises(TypeError):
        hash(MultiPoly(2))
    with pytest.raises(TypeError):
        hash(identity(2))


def test_matmul_and_transpose():
    stream = substream(8, 3)
    a = random_int_matrix(stream, 4)
    assert identity(4) @ a == a
    assert a.T.T == a
    b = random_int_matrix(stream, 3)
    c = random_int_matrix(stream, 3)
    assert (b @ c).T == c.T @ b.T
    shift = lower_shift(2)
    assert shift @ shift.T == Matrix.from_rows([[0, 0], [0, 1]])


def _naive_matmul(a, b):
    """The product entry by entry: acc = 0, then acc = acc + a[i, t] * b[t, j]
    for t left to right."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0
            for t in range(a.cols):
                acc = acc + a[i, t] * b[t, j]
            out.append(acc)
    return Matrix(a.rows, b.cols, out)


def test_matmul_matches_the_naive_triple_loop_by_repr():
    stream = substream(8, 4)
    shapes = [(1, 1, 1), (2, 3, 4), (4, 1, 3), (5, 5, 5)]
    kinds = [
        lambda: stream.uniform(-2.0, 2.0),
        lambda: complex(stream.uniform(-2.0, 2.0), stream.uniform(-2.0, 2.0)),
        lambda: stream.randint(-9, 9),
        lambda: Fraction(stream.randint(-9, 9), stream.randint(1, 6)),
        lambda: random_poly_matrix(stream, 1, nvars=2).entries()[0],
    ]
    for draw in kinds:
        for n, k, m in shapes:
            a = Matrix(n, k, [draw() for _ in range(n * k)])
            b = Matrix(k, m, [draw() for _ in range(k * m)])
            assert [repr(x) for x in (a @ b).entries()] == [
                repr(x) for x in _naive_matmul(a, b).entries()
            ]
    # the integer start turns products that all are -0.0 into 0.0; an
    # accumulator seeded with the first product would keep -0.0
    neg = Matrix(1, 2, [-0.0, 1.0])
    col = Matrix(2, 1, [1.0, -0.0])
    assert repr((neg @ col).entries()[0]) == repr(_naive_matmul(neg, col).entries()[0]) == "0.0"


def test_shape_errors():
    with pytest.raises(ValueError):
        identity(2) @ identity(3)
    with pytest.raises(ValueError):
        identity(2) + identity(3)
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(TypeError):
        identity(2) * identity(2)


def test_outer():
    assert outer([1, 2]) == Matrix.from_rows([[1, 2], [2, 4]])


def test_json_roundtrip_int_rat_poly():
    # Exact matrices never leave the program: the witness form refuses them
    # instead of rounding.
    stream = substream(1, 4)
    for a in (
        random_int_matrix(stream, 3),
        Matrix.from_rows([[Fraction(1, 2), Fraction(-3)], [Fraction(7, 3), 0]]),
        generic_skew_toeplitz(3),
        Matrix(0, 0, []),
        Matrix.from_rows([[0.5, Fraction(1, 2)]]),
        Matrix.from_rows([[True, 0.5]]),
    ):
        with pytest.raises(ValueError, match="data"):
            matrix_to_json(a)


def test_json_roundtrip_real_complex():
    f = Matrix.from_rows([[0.5, -1.25], [3, 2.0 ** -20]])
    doc = matrix_to_json(f)
    assert doc == {
        "rows": 2, "cols": 2, "scalar": "real", "data": [0.5, -1.25, 3.0, 2.0 ** -20]
    }
    assert all(type(x) is float for x in doc["data"])
    c = Matrix.from_rows([[1j, 2], [0.0, 3.5 - 0.25j]])
    assert matrix_to_json(c) == {
        "rows": 2,
        "cols": 2,
        "scalar": "complex",
        "data": [[0.0, 1.0], [2.0, 0.0], [0.0, 0.0], [3.5, -0.25]],
    }
    doc = matrix_to_json(remark45_matrix())
    assert (doc["rows"], doc["cols"], doc["scalar"]) == (4, 4, "complex")
    assert doc["data"][0] == [9.94929343, 1.33276616]
    assert doc["data"][-1] == [16.31271805, -0.21461055]
