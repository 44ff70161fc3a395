"""Dense operators, commutators, and Hermitian eigendecomposition.

Everything downstream (symmetry detection, multiplets, stability) is built
on the small set of primitives in this module.  Operators are immutable
dense matrices; all functions are pure.

Storage rule, applied once in make_operator: an operator is float64 when
the imaginary part of every entry is +0.0 bit for bit, and complex128
otherwise.  Downstream code follows the dtype of its operands, so a pair
of real operators runs every gemm and eigensolve in real arithmetic.  A
-0.0 imaginary part keeps an operator complex, so a saved file, which
writes every imaginary part, is byte-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

# Relative Frobenius gate deciding whether a matrix counts as Hermitian.
HERMITICITY_GATE = 1e-12

# Contract bound for the eigensolver residual, relative to ||A||_F.
EIGH_RESIDUAL_BOUND = 1e-10


class NumericalError(RuntimeError):
    """A numerical routine violated its residual contract."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used throughout the library."""

    atol: float = 1e-9
    rtol: float = 1e-8

    def __post_init__(self):
        if self.atol < 0 or self.rtol < 0:
            raise ValueError("tolerances must be non-negative")

    def gap(self, scale: float) -> float:
        """Gap threshold for clustering at the given scale."""
        return max(self.atol, self.rtol * scale)


DEFAULT_TOL = Tolerance()


def fro(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense square matrix with a label.

    ``entries`` is float64 or complex128 by make_operator's storage rule.
    """

    dim: int
    entries: np.ndarray
    label: str = ""

    @property
    def norm(self) -> float:
        return fro(self.entries)


def is_hermitian(entries: np.ndarray) -> bool:
    return (fro(entries - entries.conj().T)
            <= HERMITICITY_GATE * max(1.0, fro(entries)))


def make_operator(dim: int, entries, label: str = "") -> Operator:
    """Validate and freeze a dense square matrix into an Operator.

    The entries are stored as float64 when every imaginary part is +0.0
    bit for bit, and as complex128 otherwise, in a frozen copy that never
    shares memory with ``entries``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    a = np.asarray(entries)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.shape != (dim, dim):
        raise ValueError(f"entries must be {dim}x{dim}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("entries contain non-finite values")
    if np.iscomplexobj(a) and not a.imag.view(np.uint64).any():
        a = a.real
    a = np.array(a)
    a.setflags(write=False)
    return Operator(dim=dim, entries=a, label=label)


def adjoint(a: Operator) -> Operator:
    """Conjugate transpose."""
    return make_operator(a.dim, a.entries.conj().T, a.label)


def _check_dims(a: Operator, b: Operator):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def commutator(a: Operator, b: Operator) -> Operator:
    """AB - BA."""
    _check_dims(a, b)
    return make_operator(a.dim, a.entries @ b.entries - b.entries @ a.entries,
                         f"[{a.label},{b.label}]")


def iterated_commutator(h: Operator, m: Operator, n: int) -> Operator:
    """n-fold nested commutator [...[[h, m], m], ..., m]."""
    _check_dims(h, m)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = h.entries
    for _ in range(n):
        c = c @ m.entries - m.entries @ c
    return make_operator(h.dim, c, f"[{h.label},{m.label}]_{n}")


def frobenius_inner(a: Operator, b: Operator) -> complex:
    """trace(A^dag B)."""
    _check_dims(a, b)
    return complex(np.vdot(a.entries, b.entries))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full Hermitian eigendecomposition with degeneracy clusters.

    eigenvalues are ascending, eigenvectors are the matching orthonormal
    columns, clusters are half-open (start, stop) index ranges grouping
    numerically degenerate eigenvalues.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def _cluster_means(self) -> tuple:
        """Mean eigenvalue of each cluster, computed on first use."""
        return tuple(float(np.mean(self.eigenvalues[start:stop]))
                     for start, stop in self.clusters)

    def cluster_value(self, k: int) -> float:
        return self._cluster_means[k]

    def cluster_values(self) -> np.ndarray:
        """cluster_value of every index's cluster, one entry per index."""
        return np.repeat(self._cluster_means,
                         [stop - start for start, stop in self.clusters])

    def cluster_basis(self, k: int) -> np.ndarray:
        start, stop = self.clusters[k]
        return self.eigenvectors[:, start:stop]


def cluster_eigenvalues(values: Sequence[float], scale: float,
                        tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Group ascending values into maximal runs of consecutive gaps.

    Two neighbours land in the same cluster when their gap is at most
    max(atol, rtol*scale).
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return ()
    gap = tol.gap(scale)
    clusters = []
    start = 0
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > gap:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(values)))
    return tuple(clusters)


def phase_canonicalize(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Ties break to the lowest index (argmax picks the first maximum).  Real
    columns stay real: their phase is a sign.
    """
    out = np.array(vectors, dtype=np.result_type(vectors, float))
    pivots = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    # Each phase is a scalar division, as for one column: dividing the
    # pivots as an array can differ from it in the last bit.
    out *= np.array([abs(p) / p if abs(p) > 0 else 1.0 for p in pivots],
                    dtype=out.dtype)
    return out


def hermitian_eigh(a: Operator, tol: Tolerance = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator with canonical phases."""
    if not is_hermitian(a.entries):
        raise ValueError(f"operator {a.label!r} is not Hermitian within gate")
    return _hermitian_eigh(a, tol)


def _hermitian_eigh(a: Operator, tol: Tolerance) -> SpectralDecomposition:
    """hermitian_eigh for an operator whose Hermiticity is already gated."""
    sym = (a.entries + a.entries.conj().T) / 2
    w, v = np.linalg.eigh(sym)
    v = phase_canonicalize(v)
    scale = fro(a.entries)
    residual = float(np.max(np.linalg.norm(
        a.entries @ v - v * w[np.newaxis, :], axis=0)))
    if residual > EIGH_RESIDUAL_BOUND * max(1.0, scale):
        raise NumericalError(
            f"eigensolver residual {residual:.3e} exceeds contract for {a.label!r}")
    clusters = cluster_eigenvalues(w, scale, tol)
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v, clusters=clusters)


def _hermitian_eigvalsh(a: Operator) -> np.ndarray:
    """Ascending eigenvalues of an operator whose Hermiticity is already gated.

    Values only: no eigenvectors, so the eigenpair residual of
    hermitian_eigh cannot be formed.  A backward-stable solver returns the
    exact eigenvalues of sym + E with ||E||_F <= e = EIGH_RESIDUAL_BOUND *
    max(1, ||A||_F), which implies
    |sum(w) - tr(sym)| = |tr E| <= sqrt(n) e and
    |sum(w^2) - ||sym||_F^2| <= 2 ||sym||_F e + e^2 (Hoffman-Wielandt).
    Both are O(n^2) to check, and a violation of either raises.
    """
    sym = (a.entries + a.entries.conj().T) / 2
    w = np.linalg.eigvalsh(sym)
    scale = max(1.0, fro(a.entries))  # >= ||sym||_F
    e = EIGH_RESIDUAL_BOUND * scale
    trace_error = abs(float(np.sum(w)) - float(np.trace(sym).real))
    square_error = abs(float(w @ w) - fro(sym) ** 2)
    # Written as "not <=" so a NaN from the solver fails the check too.
    if not (trace_error <= np.sqrt(len(w)) * e
            and square_error <= (2.0 * scale + e) * e):
        raise NumericalError(
            f"eigenvalues of {a.label!r} violate the eigensolver contract: "
            f"trace error {trace_error:.3e}, squared-sum error {square_error:.3e}")
    w.setflags(write=False)
    return w


def matrix_function(m_spec: SpectralDecomposition,
                    f: Callable[[float], complex]) -> Operator:
    """Apply a function to an operator through its spectral decomposition.

    ``f`` is called on each degeneracy cluster's representative
    eigenvalue; one value is used per cluster.
    """
    diag = np.empty(m_spec.dim, dtype=complex)
    for k, (start, stop) in enumerate(m_spec.clusters):
        diag[start:stop] = complex(f(m_spec.cluster_value(k)))
    v = m_spec.eigenvectors
    return make_operator(m_spec.dim, (v * diag[np.newaxis, :]) @ v.conj().T,
                         "f(M)")
