"""Dense matrices over any scalar kind, with the structured constructors used
throughout the toolkit: the all-ones/identity/shift matrices, the
skew-symmetric Toeplitz matrices (generic over Z[b1..b_{n-1}] or numeric)
and the Johnson family built on them, contiguous-block extraction, and the
JSON form of the floating witness matrices.

Contiguous blocks use the 1-based A_r(i, j) convention (the r x r submatrix
whose top-left corner sits at row i, column j); raw entry access ``A[i, j]``
stays 0-based like everything else in Python.
"""

from __future__ import annotations

from .ring import variables

__all__ = [
    "Matrix",
    "generic_skew_toeplitz",
    "identity",
    "is_skew_symmetric",
    "johnson_family",
    "lower_shift",
    "matrix_to_json",
    "max_abs",
    "ones",
    "outer",
    "skew_toeplitz",
    "zeros",
]


class Matrix:
    """Immutable dense matrix; entries may be int, Fraction, MultiPoly, float
    or complex, as long as a single matrix stays within one arithmetic world
    (exact or floating)."""

    __slots__ = ("_r", "_c", "_d")

    def __init__(self, rows: int, cols: int, data):
        data = tuple(data)
        if rows < 0 or cols < 0 or (rows == 0) != (cols == 0):
            raise ValueError("rows and cols must be positive (or both zero)")
        if len(data) != rows * cols:
            raise ValueError(
                f"data: expected {rows * cols} entries, got {len(data)}"
            )
        self._r = rows
        self._c = cols
        self._d = data

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows have unequal lengths")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @property
    def rows(self) -> int:
        return self._r

    @property
    def cols(self) -> int:
        return self._c

    @property
    def is_square(self) -> bool:
        return self._r == self._c

    def __getitem__(self, ij):
        i, j = ij
        if not (0 <= i < self._r and 0 <= j < self._c):
            raise IndexError(f"entry ({i}, {j}) outside {self._r}x{self._c}")
        return self._d[i * self._c + j]

    def to_rows(self) -> list:
        c = self._c
        return [list(self._d[i * c:(i + 1) * c]) for i in range(self._r)]

    def entries(self):
        return self._d

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._r != other._r or self._c != other._c:
            return False
        return all(a == b for a, b in zip(self._d, other._d))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(self._r, self._c, [a + b for a, b in zip(self._d, other._d)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix(self._r, self._c, [a - b for a, b in zip(self._d, other._d)])

    def __neg__(self):
        return Matrix(self._r, self._c, [-a for a in self._d])

    def __mul__(self, scalar):
        if isinstance(scalar, Matrix):
            raise TypeError("use @ for the matrix product")
        return Matrix(self._r, self._c, [a * scalar for a in self._d])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Matrix(self._r, self._c, [a / scalar for a in self._d])

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._c != other._r:
            raise ValueError(
                f"cannot multiply {self._r}x{self._c} by {other._r}x{other._c}"
            )
        n, k, m = self._r, self._c, other._c
        a, b = self._d, other._d
        cols = [b[j::m] for j in range(m)]
        out = []
        for i in range(n):
            arow = a[i * k:(i + 1) * k]
            for col in cols:
                acc = 0
                for x, y in zip(arow, col):
                    acc = acc + x * y
                out.append(acc)
        return Matrix(n, m, out)

    @property
    def T(self) -> "Matrix":
        d, r, c = self._d, self._r, self._c
        return Matrix(c, r, [d[i * c + j] for j in range(c) for i in range(r)])

    def block(self, r: int, i: int, j: int) -> "Matrix":
        """The r x r contiguous submatrix starting at row i, column j (1-based)."""
        if r < 1:
            raise ValueError("block size must be at least 1")
        if not (1 <= i <= self._r - r + 1 and 1 <= j <= self._c - r + 1):
            raise ValueError(
                f"block (r={r}, i={i}, j={j}) outside a {self._r}x{self._c} matrix"
            )
        c = self._c
        d = self._d
        out = []
        for p in range(i - 1, i - 1 + r):
            out.extend(d[p * c + j - 1: p * c + j - 1 + r])
        return Matrix(r, r, out)

    def map(self, fn) -> "Matrix":
        return Matrix(self._r, self._c, [fn(a) for a in self._d])

    def __repr__(self):
        return f"Matrix({self._r}x{self._c})"

    def _same_shape(self, other: "Matrix"):
        if self._r != other._r or self._c != other._c:
            raise ValueError(
                f"shape mismatch: {self._r}x{self._c} vs {other._r}x{other._c}"
            )


def zeros(n: int) -> Matrix:
    return Matrix(n, n, [0] * (n * n))


def identity(n: int) -> Matrix:
    return Matrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])


def ones(n: int) -> Matrix:
    return Matrix(n, n, [1] * (n * n))


def lower_shift(n: int) -> Matrix:
    """Nilpotent L with ones on the subdiagonal: L e_i = e_{i+1}, L^n = 0."""
    return Matrix(n, n, [1 if i == j + 1 else 0 for i in range(n) for j in range(n)])


def skew_toeplitz(bs) -> Matrix:
    """The skew-symmetric Toeplitz matrix of order len(bs) + 1 with
    superdiagonal values ``bs``: entry b_{j-i} above the diagonal, -b_{i-j}
    below, and on it the zero ``b1 - b1`` of the entries' own kind."""
    bs = list(bs)
    if not bs:
        raise ValueError("skew Toeplitz needs at least one superdiagonal value")
    n = len(bs) + 1
    zero = bs[0] - bs[0]
    return Matrix(n, n, [
        bs[j - i - 1] if j > i else -bs[i - j - 1] if j < i else zero
        for i in range(n)
        for j in range(n)
    ])


def generic_skew_toeplitz(n: int) -> Matrix:
    """The generic skew-symmetric Toeplitz matrix over Z[b1..b_{n-1}]."""
    if n < 2:
        raise ValueError("generic skew Toeplitz needs order >= 2")
    return skew_toeplitz(variables(n - 1))


def johnson_family(n: int) -> Matrix:
    """All-ones plus the generic skew Toeplitz matrix: the generic member of
    the family A + A^T = 2 J_n, over Z[b1..b_{n-1}]."""
    if n < 2:
        raise ValueError("the family needs order >= 2")
    return ones(n) + generic_skew_toeplitz(n)


def is_skew_symmetric(a: Matrix) -> bool:
    if not a.is_square:
        return False
    return all(
        a[i, j] == -a[j, i] for i in range(a.rows) for j in range(i, a.cols)
    )


def outer(u) -> Matrix:
    return Matrix(len(u), len(u), [x * y for x in u for y in u])


def max_abs(a: Matrix):
    """Largest |entry|; 0 for an empty matrix.  Numeric scalars only."""
    if not a.entries():
        return 0
    return max(map(abs, a.entries()))


# -- witness JSON form ----------------------------------------------------
#
# {"rows": n, "cols": n, "scalar": "real|complex", "data": [...]}, row-major,
# with complex entries as [re, im] pairs.  Only the floating witnesses of the
# accretive layer are serialized; exact matrices never leave the program.

def matrix_to_json(a: Matrix) -> dict:
    """JSON form of a real or complex witness matrix; any other entry kind
    (and an all-integer matrix) raises ValueError rather than be rounded."""
    entries = a.entries()
    if any(isinstance(x, bool) or not isinstance(x, (int, float, complex))
           for x in entries):
        raise ValueError("data: only real and complex matrices are serialized")
    doc = {"rows": a.rows, "cols": a.cols}
    if any(isinstance(x, complex) for x in entries):
        doc["scalar"] = "complex"
        doc["data"] = [[complex(x).real, complex(x).imag] for x in entries]
    elif any(isinstance(x, float) for x in entries):
        doc["scalar"] = "real"
        doc["data"] = [float(x) for x in entries]
    else:
        raise ValueError("data: an all-integer matrix is not a floating witness")
    return doc
