"""minorcert: exact and numeric certificates for contiguous-minor
determinant identities of Toeplitz-type and accretive matrices."""

from .detkit import (
    adjugate,
    det_bareiss,
    det_cofactor,
    det_condensation,
    leading_row_minors,
    s_functional,
)
from .identity import (
    specialization_certificate,
    verify_bt,
    verify_johnson_symbolic,
    verify_rank_one_expansion,
    verify_reduced_case,
    verify_skew_facts,
)
from .matrix import (
    Matrix,
    generic_skew_toeplitz,
    identity as identity_matrix,
    johnson_family,
    lower_shift,
    matrix_to_json,
    ones,
)
from .numaccretive import (
    Accretive,
    AccretiveWitness,
    accretive,
    accretive_factorize,
    remark45_repro,
    search_complex_violation,
    sym_eig,
    verify_accretive_inequality,
    verify_adjugate_accretive,
    verify_det_positive,
)
from .report import CertificateReport
from .ring import ExactDivisionError, MultiPoly, variables

__version__ = "0.1.0"

__all__ = [
    "Accretive",
    "AccretiveWitness",
    "CertificateReport",
    "ExactDivisionError",
    "Matrix",
    "MultiPoly",
    "accretive",
    "accretive_factorize",
    "adjugate",
    "det_bareiss",
    "det_cofactor",
    "det_condensation",
    "leading_row_minors",
    "generic_skew_toeplitz",
    "identity_matrix",
    "johnson_family",
    "lower_shift",
    "matrix_to_json",
    "ones",
    "remark45_repro",
    "s_functional",
    "search_complex_violation",
    "specialization_certificate",
    "sym_eig",
    "variables",
    "verify_accretive_inequality",
    "verify_adjugate_accretive",
    "verify_bt",
    "verify_det_positive",
    "verify_johnson_symbolic",
    "verify_rank_one_expansion",
    "verify_reduced_case",
    "verify_skew_facts",
]
