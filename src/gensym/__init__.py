"""Generalised-symmetry detection, multiplet partitioning, and eigenvector
stability analysis for finite Hermitian operator pairs."""

__version__ = "0.18.0"

from .detection import (
    CASE2,
    GENUINE,
    NO_GENSYM,
    DetectionResult,
    GenSymTriple,
    canonicalize,
    detect,
    reconstruct_case2,
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
    hermitian_eigh,
    make_operator,
)
from .serialization import load_operator, save_operator
from .stability import (
    StabilityRecord,
    scan_spectrum_stability,
)
