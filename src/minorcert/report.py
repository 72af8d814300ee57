"""The certificate report: the outcome of one verification claim, and the
``default`` hook through which ``json.dumps`` writes the values it holds.
That JSON is the byte-level contract of the ``verify`` commands.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .ring import MultiPoly

__all__ = [
    "REFUTED",
    "VERIFIED",
    "CertificateReport",
    "UndecidedError",
    "json_default",
    "verdict",
]

VERIFIED = "verified"
REFUTED = "refuted"


class UndecidedError(RuntimeError):
    """A claim that can be neither verified nor refuted: a float minor or
    residual that is not finite, or a hard-coded witness that no longer
    meets its hypothesis.  The CLI exits 2 on it, never 1."""


class CertificateReport(namedtuple(
    "CertificateReport", "claim status residual instance seed tolerance",
    defaults=(None, None, None),
)):
    """Outcome of one verification claim.

    ``residual`` is the text of a polynomial (exact claims, verified means it
    is "0") or a float magnitude (numeric claims, judged against
    ``tolerance``, by some claims times a scale).  ``instance`` describes the
    input or its construction parameters; ``seed`` is the CLI's ``--seed``,
    stamped in one place on every verify report, and None on reports the
    library returns.  Read-only: ``_replace`` makes a changed copy.  Its JSON
    form is ``to_json``, its fields as a dict, written with ``json_default``:
    ``json.dumps`` would write the tuple itself as a list.
    """

    __slots__ = ()

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def to_json(self) -> dict:
        return self._asdict()


def verdict(ok: bool) -> str:
    return VERIFIED if ok else REFUTED


def json_default(x):
    """The ``default`` hook of ``json.dumps`` for report values: exact
    scalars as canonical text, complex numbers as [re, im] pairs; any other
    kind raises TypeError."""
    if isinstance(x, (MultiPoly, Fraction)):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"{type(x).__name__} is not a JSON report value")
