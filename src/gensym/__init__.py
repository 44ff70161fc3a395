"""Generalised-symmetry detection, multiplet partitioning, and eigenvector
stability analysis for finite Hermitian operator pairs."""

__version__ = "0.2.0"

from .detection import (
    CASE2,
    GENUINE,
    NO_GENSYM,
    DetectionResult,
    GenSymTriple,
    canonicalize,
    detect,
    fit_case2,
    reconstruct_case2,
    similarity_transform,
    verify_triple,
)
from .multiplets import (
    MultipletPartition,
    SupportSignature,
    canonical_eigenbasis,
    partition,
    recover_f,
    same_multiplet,
    support_signature,
)
from .operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    SpectralDecomposition,
    Tolerance,
    adjoint,
    cluster_eigenvalues,
    commutator,
    frobenius_inner,
    hermitian_eigh,
    iterated_commutator,
    make_operator,
    matrix_function,
)
from .serialization import load_operator, save_operator
from .stability import (
    StabilityRecord,
    classify,
    linear_dependence,
    partner_eigenvector,
    scan_spectrum_stability,
)
