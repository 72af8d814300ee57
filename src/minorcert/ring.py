"""Exact and floating scalar arithmetic behind one commutative-ring surface.

The exact kinds are plain ``int`` (arbitrary precision), ``fractions.Fraction``
(kept reduced with a positive denominator by the stdlib) and :class:`MultiPoly`,
a sparse multivariate polynomial over the integers in variables ``b1..bk``.
``float`` and ``complex`` are the floating kinds; they carry no exactness
guarantees and stay out of the symbolic code paths.

Integer literals act as the zero and one of every kind: ``MultiPoly`` coerces
ints on mixed arithmetic and the stdlib types do so natively, so the generic
matrix and determinant code can use ``0`` and ``1`` directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from operator import not_

__all__ = [
    "ExactDivisionError",
    "MonomialTable",
    "MultiPoly",
    "exact_div",
    "is_floating",
    "sum_of_products",
    "variables",
]

_FIELD = 16                # bits per packed exponent field
_EXP_CAP = (1 << 15) - 1   # exponents and total degree must stay below this


class ExactDivisionError(ArithmeticError):
    """An elimination step expected an exact division and found a remainder.

    Signals a broken ring contract (an internal bug), never bad user input.
    """


@cache
def _layout(nvars: int) -> tuple[int, tuple[int, ...], int]:
    # Packed key layout, most significant field first: total degree, then
    # e1..ek.  Comparing keys as plain ints is then graded-lex order, and
    # multiplying monomials is key addition (fields are 16 bits wide but
    # values are capped at 15 bits, so a single addition cannot carry).
    shifts = tuple(_FIELD * (nvars - i) for i in range(1, nvars + 1))
    deg_shift = _FIELD * nvars
    himask = 0x8000 << deg_shift
    for s in shifts:
        himask |= 0x8000 << s
    return deg_shift, shifts, himask


class MultiPoly:
    """Sparse polynomial in Z[b1..bk] with a canonical graded-lex term order."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 0:
            raise ValueError("nvars must be a non-negative integer")
        packed: dict[int, int] = {}
        if terms:
            for exps, coeff in dict(terms).items():
                if not isinstance(coeff, int) or isinstance(coeff, bool):
                    raise TypeError("coefficients must be int")
                if coeff == 0:
                    continue
                packed[_pack(nvars, exps)] = coeff
        self.nvars = nvars
        self._terms = packed

    # -- constructors --------------------------------------------------

    @classmethod
    def _raw(cls, nvars: int, packed: dict[int, int]) -> "MultiPoly":
        p = object.__new__(cls)
        p.nvars = nvars
        p._terms = packed
        return p

    @classmethod
    def const(cls, c: int, nvars: int) -> "MultiPoly":
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError("constant must be int")
        return cls._raw(nvars, {0: c} if c else {})

    @classmethod
    def var(cls, index: int, nvars: int) -> "MultiPoly":
        """The variable b<index>, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} outside 1..{nvars}")
        exps = tuple(1 if i == index else 0 for i in range(1, nvars + 1))
        return cls(nvars, {exps: 1})

    # -- basic queries --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self):
        """Terms as (exponent-tuple, coeff) pairs in descending graded-lex order."""
        shifts = _layout(self.nvars)[1]
        return [
            (tuple((k >> s) & 0xFFFF for s in shifts), c)
            for k, c in sorted(self._terms.items(), reverse=True)
        ]

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"mixed variable counts: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return MultiPoly.const(other, self.nvars)
        return None

    def __add__(self, other):
        return self._signed_sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._signed_sum(other, -1)

    def _signed_sum(self, other, sign):
        # self + sign * other, term by term into a copy of self's terms
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in o._terms.items():
            v = out.get(k, 0) + sign * c
            if v:
                out[k] = v
            else:
                del out[k]
        return MultiPoly._raw(self.nvars, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return MultiPoly._raw(self.nvars, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._raw(
            self.nvars, _product_sum(self.nvars, ((1, self._terms, o._terms),))
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, int) and not isinstance(other, bool):
            if other == 0:
                return not self._terms
            return self._terms == {0: other}
        return NotImplemented

    # -- ring operations beyond +,-,* ------------------------------------

    def evaluate(self, values):
        """Substitute ``values`` (ints or Fractions) for b1..bk.

        The floating kinds are deliberately rejected: evaluation is the exact
        specialization map and must stay inside the exact scalars.
        """
        if len(values) != self.nvars:
            raise ValueError(
                f"expected {self.nvars} values, got {len(values)}"
            )
        for v in values:
            if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                raise TypeError("evaluation points must be int or Fraction")
        acc = 0
        for exps, coeff in self.terms():
            t = coeff
            for v, e in zip(values, exps):
                if e:
                    t *= v ** e
            acc += t
        return acc

    def negate_variables(self) -> "MultiPoly":
        """p(-b1, .., -bk), the image under the ring map b -> -b.

        A monomial of total degree d picks up the sign (-1)^d, so the terms
        of odd total degree change sign and the others stay.  The total
        degree is the top field of the packed key, so this is one pass over
        the terms; the map is an involution and keeps the term count.
        """
        deg_shift = _layout(self.nvars)[0]
        return MultiPoly._raw(
            self.nvars,
            {k: -c if (k >> deg_shift) & 1 else c for k, c in self._terms.items()},
        )

    def exact_div(self, other) -> "MultiPoly":
        """Quotient self/other when the division is exact in Z[b1..bk].

        Standard leading-term reduction; when the divisor genuinely divides
        self, every step strips the current leading monomial, so a failed
        step means the exactness contract was violated.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot divide MultiPoly by {type(other).__name__}")
        if not o._terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return MultiPoly._raw(self.nvars, {})
        himask = _layout(self.nvars)[2]
        dk = max(o._terms)
        dc = o._terms[dk]
        ditems = list(o._terms.items())
        rem = dict(self._terms)
        quot: dict[int, int] = {}
        while rem:
            rk = max(rem)
            mk = rk - dk
            if mk < 0 or (mk & himask):
                raise ExactDivisionError("leading monomial not divisible")
            qc, r = divmod(rem[rk], dc)
            if r:
                raise ExactDivisionError("leading coefficient not divisible")
            quot[mk] = quot.get(mk, 0) + qc
            for k2, c2 in ditems:
                kk = k2 + mk
                v = rem.get(kk, 0) - qc * c2
                if v:
                    rem[kk] = v
                else:
                    rem.pop(kk, None)
        return MultiPoly._raw(self.nvars, quot)

    # -- text form --------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.terms():
            mons = " ".join(
                f"b{i}" if e == 1 else f"b{i}^{e}"
                for i, e in enumerate(exps, start=1)
                if e
            )
            parts.append(f"{coeff} * {mons}" if mons else str(coeff))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {str(self)!r})"


def _pack(nvars: int, exps) -> int:
    exps = tuple(exps)
    if len(exps) != nvars:
        raise ValueError(f"expected {nvars} exponents, got {len(exps)}")
    deg = 0
    for e in exps:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError("exponents must be non-negative ints")
        deg += e
    if deg > _EXP_CAP:
        raise OverflowError("total degree exceeds the 15-bit exponent cap")
    deg_shift, shifts, _ = _layout(nvars)
    key = deg << deg_shift
    for e, s in zip(exps, shifts):
        key |= e << s
    return key


def variables(nvars: int) -> tuple[MultiPoly, ...]:
    """The generators b1..bk of Z[b1..bk]."""
    return tuple(MultiPoly.var(i, nvars) for i in range(1, nvars + 1))


def is_floating(x) -> bool:
    return isinstance(x, (float, complex))


def exact_div(a, b):
    """Exact ring division a/b, raising ExactDivisionError on a remainder.

    Polynomials use leading-term reduction, integers use divmod and
    rationals ordinary division.  Floating operands raise TypeError: a float
    quotient is never exact, so it has no place on the exact paths.  Two
    plain ints skip the kind checks; the integer arms of the Bareiss and
    condensation kernels do not call it, but divide inline.
    """
    if type(a) is not int or type(b) is not int:
        if isinstance(a, (float, complex)) or isinstance(b, (float, complex)):
            raise TypeError("exact division takes exact scalars, not float or complex")
        if type(b) is int and b == 1:
            return a
        if isinstance(a, MultiPoly):
            return a.exact_div(b)
        if isinstance(b, MultiPoly):
            return MultiPoly.const(a, b.nvars).exact_div(b)
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            return Fraction(a) / Fraction(b)
    elif b == 1:
        return a
    q, r = divmod(a, b)
    if r:
        raise ExactDivisionError(f"{a} is not divisible by {b}")
    return q


def sum_of_products(pairs):
    """The signed sum of ``sign * a * b`` over ``pairs`` of ``(sign, a, b)``,
    each sign +1 or -1; an empty sequence gives 0.

    If any factor is a MultiPoly, the first one found sets the ring: a
    factor that is not already a MultiPoly of its ``nvars`` is coerced (an
    int becomes a constant, another ``nvars`` raises ValueError and any
    other kind TypeError), and every product is added term by term into
    one accumulator keyed by packed monomial, so no product or partial sum
    is built as a polynomial of its own, and zero coefficients are dropped
    once, at the end.  Each product passes the same 15-bit degree guard as
    ``*``.  Numbers get the plain sum from 0, left to right.  The Laplace
    level steps multiply in the index space of a ``MonomialTable`` instead.
    """
    pairs = list(pairs)
    for _, a, b in pairs:
        if isinstance(a, MultiPoly):
            ref = a
            break
        if isinstance(b, MultiPoly):
            ref = b
            break
    else:
        acc = 0
        for sign, a, b in pairs:
            acc = acc - a * b if sign < 0 else acc + a * b
        return acc
    nvars = ref.nvars
    triples = []
    for sign, a, b in pairs:
        if type(a) is not MultiPoly or a.nvars != nvars:
            a = ref._coerce(a)
        if type(b) is not MultiPoly or b.nvars != nvars:
            b = ref._coerce(b)
        if a is None or b is None:
            raise TypeError("a MultiPoly can only be multiplied by a MultiPoly or int")
        triples.append((sign, a._terms, b._terms))
    return MultiPoly._raw(nvars, _product_sum(nvars, triples))


def _product_sum(nvars: int, triples) -> dict[int, int]:
    # The one product loop of the ring: sum of sign * a * b over packed term
    # dicts, one multiply-add per pair of terms into one accumulator,
    # filtered for zeros once.
    deg_shift = _layout(nvars)[0]
    out: dict[int, int] = {}
    get = out.get
    for sign, a, b in triples:
        if not a or not b:
            continue
        if (max(a) >> deg_shift) + (max(b) >> deg_shift) > _EXP_CAP:
            raise OverflowError("product degree exceeds the 15-bit exponent cap")
        if len(a) > len(b):
            a, b = b, a
        bitems = list(b.items())
        for ka, ca in a.items():
            if sign < 0:
                ca = -ca
            for kb, cb in bitems:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


class MonomialTable:
    """The monomials of one Laplace expansion, numbered as they first appear.

    The expansion holds polynomials in index form, a tuple of bands, each a
    dict from monomial number to coefficient, and multiplies them by line
    entries (in the certificates ``+-b_k`` or ``1 +- b_k``).  Each monomial
    u of an entry has a shift table, a list whose item i is the number of u
    times monomial i, filled only where a sub-minor reaches an item not
    filled yet; a product is then one lookup per term, with no packed key
    built or hashed, and a new monomial passes the 15-bit degree guard
    once, when it is numbered.  Number 0 is the monomial 1.  ``nvars`` is
    None when every entry is a number; the index form then holds the value
    under number 0.

    A table of one band keeps each polynomial in one dict.  With ``banded``
    (the expansion's entries pass ``two_bands``: total degree at most 1 on
    a rank-one constant part) a minor of order k is two bands, its terms
    of degree k and of degree k - 1: a linear term
    of an entry maps each band to the band of the same index, and the
    constant term maps the top band to the lower one and never multiplies
    the lower band, whose products cancel in every minor.  The empty
    tuple is zero.
    """

    __slots__ = ("nvars", "_keys", "_index", "_shifts", "_bands")

    def __init__(self, nvars, banded=False):
        self.nvars = nvars
        self._keys = [0]           # number -> packed key
        self._index = {0: 0}       # packed key -> number
        self._shifts = {}          # packed key of a line monomial -> shift table
        self._bands = 2 if banded else 1

    @staticmethod
    def two_bands(rows) -> bool:
        """Whether an expansion of the matrix ``rows`` may keep each
        sub-minor in two bands: every entry an int or a polynomial of total
        degree at most 1, and the integer matrix C of their constant terms
        of rank exactly one.  It is when C has an entry c[p][q] != 0 and
        c[i][j] c[p][q] = c[i][q] c[p][j] for all i, j: O(n^2) integer
        products."""
        consts = []
        for r in rows:
            row = []
            for x in r:
                if type(x) is MultiPoly:
                    terms = x._terms
                    if terms and max(terms) >> _layout(x.nvars)[0] > 1:
                        return False
                    x = terms.get(0, 0)
                elif type(x) is not int:
                    return False
                row.append(x)
            consts.append(row)
        pivot = next(((p, q) for p in consts for q, x in enumerate(p) if x), None)
        if pivot is None:
            return False
        p, q = pivot
        return all(x * p[q] == r[q] * y for r in consts for x, y in zip(r, p))

    def factor(self, x) -> tuple:
        """A line entry as (packed key, shift table, coefficient) per term,
        with no shift table for the constant term; a zero gives ()."""
        if isinstance(x, MultiPoly):
            if x.nvars != self.nvars:
                raise ValueError(f"mixed variable counts: {self.nvars} vs {x.nvars}")
            shifts = self._shifts
            return tuple(
                (k, shifts.setdefault(k, []) if k else None, c) for k, c in x._terms.items()
            )
        if self.nvars is not None and type(x) is not int:
            raise TypeError("a MultiPoly can only be multiplied by a MultiPoly or int")
        return ((0, None, x),) if x else ()

    def sum_of_products(self, pairs) -> tuple:
        """The index form of the sum of ``sign * f * d`` over ``pairs`` of
        ``(sign, f, d)``: a sign +1 or -1, a line entry ``f`` from
        ``factor`` and a polynomial ``d`` in index form.  A term of ``f``
        with a monomial adds each band of ``d`` into the band of the same
        index; the constant term adds band i into band i + 1 of a banded
        table, so the top band only, and into band i otherwise.  One
        accumulator per band, zeros dropped once at the end; a +-1
        coefficient, which the certificates' entries ``+-b_k`` and
        ``1 +- b_k`` are made of, adds or subtracts without multiplying.
        A shift table item not filled yet reads None, so its term adds
        into an accumulator item None, which is dropped and made up once
        ``_fill`` has numbered the new products; no product scans the
        shift table for unfilled items first.  Zeros are deleted in place,
        which skips a copy of each accumulator."""
        keys = self._keys
        outs = ({}, {})[:self._bands]
        sinks = [(out, out.get) for out in outs]
        lowered = sinks[self._bands - 1:]
        for sign, f, d in pairs:
            for ka, shift, c in f:
                if sign < 0:
                    c = -c
                if not ka:
                    for band, (out, get) in zip(d, lowered):
                        if c == 1:
                            for i, v in band.items():
                                out[i] = get(i, 0) + v
                        elif c == -1:
                            for i, v in band.items():
                                out[i] = get(i, 0) - v
                        else:
                            for i, v in band.items():
                                out[i] = get(i, 0) + c * v
                    continue
                if len(shift) < len(keys):
                    shift += [None] * (len(keys) - len(shift))
                for band, (out, get) in zip(d, sinks):
                    if c == 1:
                        for i, v in zip(map(shift.__getitem__, band), band.values()):
                            out[i] = get(i, 0) + v
                    elif c == -1:
                        for i, v in zip(map(shift.__getitem__, band), band.values()):
                            out[i] = get(i, 0) - v
                    else:
                        for i, v in zip(map(shift.__getitem__, band), band.values()):
                            out[i] = get(i, 0) + c * v
                    if None in out:
                        del out[None]
                        for i in self._fill(ka, shift, band):
                            j = shift[i]
                            out[j] = get(j, 0) + c * band[i]
        for out in outs:
            if 0 in out.values():
                for i in list(compress(out, map(not_, out.values()))):
                    del out[i]
        return outs if any(outs) else ()

    def _fill(self, ka, shift, d) -> list:
        # number each new product ka + key once, after the degree guard;
        # returns the items of d whose shift it filled
        keys, index = self._keys, self._index
        cap = (_EXP_CAP + 1) << _layout(self.nvars)[0]
        filled = []
        for i in d:
            if shift[i] is None:
                k = keys[i] + ka
                j = index.get(k)
                if j is None:
                    if k >= cap:
                        raise OverflowError("product degree exceeds the 15-bit exponent cap")
                    j = index[k] = len(keys)
                    keys.append(k)
                shift[i] = j
                filled.append(i)
        return filled

    def negate_variables(self, d) -> tuple:
        """The index form of p(-b1, .., -bk) for the index form ``d`` of a
        polynomial p: the terms of odd total degree negated, the degree read
        from the top field of each monomial's packed key, as
        ``MultiPoly.negate_variables`` reads it.  The monomials, and so the
        numbers, are those of ``d``."""
        keys, deg_shift = self._keys, _layout(self.nvars)[0]
        return tuple(
            {i: -v if keys[i] >> deg_shift & 1 else v for i, v in band.items()} for band in d
        )

    def element(self, d, sign=1):
        """The ring element of ``sign`` (+1 or -1) times the index form
        ``d``: a MultiPoly whose keys are the table's own objects, or a
        number if ``nvars`` is None."""
        if self.nvars is None:
            v = d[0].get(0, 0) if d else 0
            return -v if sign < 0 else v
        keys = self._keys
        if sign < 0:
            return MultiPoly._raw(self.nvars, {keys[i]: -c for b in d for i, c in b.items()})
        return MultiPoly._raw(self.nvars, {keys[i]: c for b in d for i, c in b.items()})
