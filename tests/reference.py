"""Dense reference computations the tests compare the library against.

None of these is on the library's path: each forms dense products the
pipeline avoids (nested commutators one by one, f(M) as a matrix, the
similarity transform both ways, a sector-reduced angular solver).
"""

import cmath
from typing import Callable

import numpy as np

from gensym.detection import GenSymTriple
from gensym.models import angular_block
from gensym.operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    SpectralDecomposition,
    Tolerance,
    fro,
    make_operator,
    phase_canonicalize,
)


def iterated_commutator(h: Operator, m: Operator, n: int) -> Operator:
    """n-fold nested commutator [...[[h, m], m], ..., m]."""
    if h.dim != m.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {m.dim}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = h.entries
    for _ in range(n):
        c = c @ m.entries - m.entries @ c
    return make_operator(h.dim, c, f"[{h.label},{m.label}]_{n}")


def matrix_function(m_spec: SpectralDecomposition,
                    f: Callable[[float], complex]) -> Operator:
    """Apply a function to an operator through its spectral decomposition.

    ``f`` is called on each degeneracy cluster's mean eigenvalue; one
    value is used per cluster.
    """
    diag = np.empty(m_spec.dim, dtype=complex)
    means = m_spec.cluster_values()[0].tolist()
    for (start, stop), mu in zip(m_spec.clusters, means):
        diag[start:stop] = complex(f(mu))
    v = m_spec.eigenvectors
    return make_operator(m_spec.dim, (v * diag[np.newaxis, :]) @ v.conj().T,
                         "f(M)")


def similarity_transform(triple: GenSymTriple, m_spec: SpectralDecomposition,
                         z: complex, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Spectrum-preserving conjugation exp(-zM) H exp(zM).

    Computed two ways: directly through matrix functions of M, and as
    H0 + exp(z*gamma) R + exp(-z*gamma) R^dag.  The two must agree
    within rtol; the ladder form is returned.
    """
    z = complex(z)
    gamma = triple.gamma
    h0, r = triple.h0, triple.r
    h = h0 + r + r.conj().T
    ladder = (h0 + cmath.exp(z * gamma) * r
              + cmath.exp(-z * gamma) * r.conj().T)
    e_minus = matrix_function(m_spec, lambda lam: cmath.exp(-z * lam)).entries
    e_plus = matrix_function(m_spec, lambda lam: cmath.exp(z * lam)).entries
    direct = e_minus @ h @ e_plus
    deviation = fro(direct - ladder)
    if deviation > tol.rtol * max(1.0, fro(direct), fro(ladder)):
        raise NumericalError(
            f"direct and ladder-form transforms disagree by {deviation:.3e}")
    return make_operator(len(h0), ladder, "transformed")


def recursion_block_solver(l: int, e_n: float, g: float, hbar: float = 1.0):
    """Eigenpairs of the angular block restricted to the antisymmetric
    sector c_{-m} = -c_m, c_0 = 0 (dimension l).

    The sector is invariant because L_x is centrosymmetric in the
    descending-m basis.  Returns (eigenvalues ascending, full-length
    eigenvector columns).
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    bundle = angular_block(l, e_n, g, hbar)
    dim = 2 * l + 1
    # w_m = (|m> - |-m>)/sqrt(2) for m = 1..l; index of m is l - m.
    basis = np.zeros((dim, l), dtype=complex)
    for col, m in enumerate(range(1, l + 1)):
        basis[l - m, col] = 1.0 / np.sqrt(2.0)
        basis[l + m, col] = -1.0 / np.sqrt(2.0)
    reduced = basis.conj().T @ bundle.h.entries @ basis
    reduced = (reduced + reduced.conj().T) / 2
    w, u = np.linalg.eigh(reduced)
    return w, phase_canonicalize(basis @ u)
