"""The certificate report: the outcome of one verification claim, and its
JSON form, which is the byte-level contract of the ``verify`` commands.
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
    "jsonable",
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
    form is ``to_json`` alone: ``jsonable`` would write the tuple as a list.
    """

    __slots__ = ()

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "status": self.status,
            "residual": jsonable(self.residual),
            "instance": jsonable(self.instance),
            "seed": self.seed,
            "tolerance": self.tolerance,
        }


def verdict(ok: bool) -> str:
    return VERIFIED if ok else REFUTED


def jsonable(x):
    """JSON form of a report value: exact scalars as canonical text,
    complex numbers as [re, im] pairs."""
    if isinstance(x, (MultiPoly, Fraction)):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x
