"""Generalised-symmetry detection, multiplet partitioning, and eigenvector
stability analysis for finite Hermitian operator pairs."""

__version__ = "0.4.0"

from .detection import (
    CASE2,
    GENUINE,
    NO_GENSYM,
    DetectionResult,
    GenSymTriple,
    canonicalize,
    detect,
    reconstruct_case2,
    similarity_transform,
    verify_triple,
)
from .multiplets import (
    MultipletPartition,
    canonical_eigenbasis,
    partition,
)
from .operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    SpectralDecomposition,
    Tolerance,
    cluster_eigenvalues,
    hermitian_eigh,
    iterated_commutator,
    make_operator,
    matrix_function,
)
from .serialization import load_operator, save_operator
from .stability import (
    StabilityRecord,
    scan_spectrum_stability,
)
