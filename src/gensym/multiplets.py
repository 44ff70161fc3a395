"""Partition of H-eigenvectors into M-multiplets.

Two eigenvectors belong to the same M-multiplet when one is f(M) times the
other for an invertible f, i.e. f nonzero on the spectrum of M.  On a
finite space this is equivalent to equal support over the M-eigenvalue
clusters plus parallel components within each supported cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .operators import (
    DEFAULT_TOL,
    Operator,
    SpectralDecomposition,
    Tolerance,
    hermitian_eigh,
    is_hermitian,
    phase_canonicalize,
)

# Relative projection norm below which a cluster counts as absent.
DEFAULT_SUPPORT_EPS = 1e-8

_SIZE_LABELS = {1: "singlet", 2: "doublet", 3: "triplet",
                4: "quartet", 5: "quintet"}


def size_label(n: int) -> str:
    return _SIZE_LABELS.get(n, f"{n}-plet")


@dataclass(frozen=True, eq=False)
class SupportSignature:
    """Which M-eigenvalue clusters an eigenvector lives on."""

    present_clusters: Tuple[int, ...]
    components: Dict[int, np.ndarray]


@dataclass(frozen=True, eq=False)
class MultipletPartition:
    """Disjoint classes of eigenvector indices sharing a support signature."""

    classes: Tuple[Tuple[int, ...], ...]
    signatures: Tuple[Tuple[int, ...], ...]
    labels: Tuple[str, ...]


def canonical_eigenbasis(h: Operator, m: Operator,
                         tol: Tolerance = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigenbasis of H that also diagonalizes M inside degenerate clusters.

    Resolves the basis ambiguity Definition-of-multiplet tests are
    sensitive to: within each degenerate H-eigenspace the compression
    P_E M P_E is diagonalized and the sub-basis ordered by its eigenvalue.
    """
    if not is_hermitian(m.entries):
        raise ValueError(f"M ({m.label!r}) is not Hermitian within gate")
    return _refine_eigenbasis(hermitian_eigh(h, tol), m.entries)


def _refine_eigenbasis(spec: SpectralDecomposition,
                       me: np.ndarray) -> SpectralDecomposition:
    """canonical_eigenbasis from an existing eigendecomposition of H.

    The basis is complex when either H's eigenvectors or M is complex.
    """
    vectors = np.array(spec.eigenvectors,
                       dtype=np.result_type(spec.eigenvectors, me))
    for start, stop in spec.clusters:
        if stop - start < 2:
            continue
        block = vectors[:, start:stop]
        compressed = block.conj().T @ me @ block
        compressed = (compressed + compressed.conj().T) / 2
        _, u = np.linalg.eigh(compressed)
        vectors[:, start:stop] = block @ u
    vectors = phase_canonicalize(vectors)
    vectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues=spec.eigenvalues,
                                 eigenvectors=vectors,
                                 clusters=spec.clusters)


def _cluster_coordinates(vectors: np.ndarray, m_spec: SpectralDecomposition,
                         eps_supp: float):
    """Coordinates of the columns of ``vectors`` in the eigenbasis of M.

    Returns ``(coords, norms, mask)``: ``coords = W^dag V`` with W the
    M-eigenvectors, ``norms[k, j]`` the norm of column j's component on
    M-cluster k, and ``mask[k, j]`` whether that norm exceeds
    ``eps_supp * ||v_j||``.  One gemm and one segmented sum.
    """
    vectors = np.asarray(vectors)
    coords = m_spec.eigenvectors.conj().T @ vectors
    starts = [start for start, _ in m_spec.clusters]
    norms = np.sqrt(np.add.reduceat(np.abs(coords) ** 2, starts, axis=0))
    mask = norms > eps_supp * np.linalg.norm(vectors, axis=0)
    return coords, norms, mask


def _greedy_classes(vectors: np.ndarray, m_spec: SpectralDecomposition,
                    tol: Tolerance, eps_supp: float):
    """Greedy first-seen-representative classes of the columns of ``vectors``.

    Returns ``(classes, mask)``; classes are lists of column indices,
    ordered by their first member.  Columns are grouped by support mask;
    within a group, "parallel on every supported cluster" is read off the
    Gram matrices of the normalised cluster blocks.  A one-dimensional
    cluster holds no direction, so it never separates two columns.
    """
    coords, norms, mask = _cluster_coordinates(vectors, m_spec, eps_supp)
    groups: Dict[bytes, List[int]] = {}
    for j, key in enumerate(np.ascontiguousarray(mask.T)):
        groups.setdefault(key.tobytes(), []).append(j)
    classes: List[List[int]] = []
    for members in groups.values():
        idx = np.array(members)
        parallel = np.ones((len(idx), len(idx)), dtype=bool)
        for k in np.flatnonzero(mask[:, idx[0]]):
            start, stop = m_spec.clusters[k]
            if len(idx) > 1 and stop - start > 1:
                block = coords[start:stop, idx] / norms[k, idx]
                parallel &= np.abs(block.conj().T @ block) >= 1.0 - tol.rtol
        reps: List[int] = []
        local: List[List[int]] = []
        for j in range(len(idx)):
            hits = np.flatnonzero(parallel[reps, j])
            if hits.size:
                local[hits[0]].append(int(idx[j]))
            else:
                reps.append(j)
                local.append([int(idx[j])])
        classes.extend(local)
    classes.sort(key=lambda c: c[0])
    return classes, mask


def support_signature(psi: np.ndarray, m_spec: SpectralDecomposition,
                      eps_supp: float = DEFAULT_SUPPORT_EPS) -> SupportSignature:
    """Project psi on each M-eigenvalue cluster and record the support."""
    coords, norms, mask = _cluster_coordinates(
        np.reshape(psi, (-1, 1)), m_spec, eps_supp)
    present = tuple(int(k) for k in np.flatnonzero(mask[:, 0]))
    components = {}
    for k in present:
        start, stop = m_spec.clusters[k]
        components[k] = (m_spec.cluster_basis(k)
                         @ (coords[start:stop, 0] / norms[k, 0]))
    return SupportSignature(present_clusters=present, components=components)


def same_multiplet(psi: np.ndarray, phi: np.ndarray,
                   m_spec: SpectralDecomposition,
                   tol: Tolerance = DEFAULT_TOL,
                   eps_supp: float = DEFAULT_SUPPORT_EPS) -> bool:
    """True when phi = f(M) psi for some invertible f.

    Equal cluster support and, per supported cluster, components parallel
    up to a complex scalar.
    """
    classes, _ = _greedy_classes(np.column_stack([psi, phi]), m_spec,
                                 tol, eps_supp)
    return len(classes) == 1


def partition(h_spec: SpectralDecomposition, m_spec: SpectralDecomposition,
              tol: Tolerance = DEFAULT_TOL,
              eps_supp: float = DEFAULT_SUPPORT_EPS) -> MultipletPartition:
    """Group all eigenvectors into M-multiplets.

    Algorithm: one gemm ``C = W_M^dag V_H`` puts every eigenvector in the
    eigenbasis of M; one segmented sum over ``|C|^2`` gives its norm on
    each M-cluster and so its support mask.  Vectors are grouped by mask,
    and within a group the per-cluster Gram matrices of the normalised
    cluster blocks decide which pairs are parallel on every supported
    cluster.  Memory is O(n^2) for C plus one group-size square matrix.

    Ordering: classes are built greedily against the first-seen
    representative of each class, in eigenvector-index order, exactly as
    pairwise ``same_multiplet`` tests would build them.  Classes are
    listed in order of their representative's index, members ascending,
    and each signature is the representative's support.
    """
    classes, mask = _greedy_classes(h_spec.eigenvectors, m_spec, tol,
                                    eps_supp)
    return MultipletPartition(
        classes=tuple(tuple(c) for c in classes),
        signatures=tuple(tuple(int(k) for k in np.flatnonzero(mask[:, c[0]]))
                         for c in classes),
        labels=tuple(size_label(len(c)) for c in classes),
    )


def recover_f(psi: np.ndarray, phi: np.ndarray,
              m_spec: SpectralDecomposition,
              tol: Tolerance = DEFAULT_TOL,
              eps_supp: float = DEFAULT_SUPPORT_EPS) -> Dict[int, complex]:
    """Recover the connecting function f with phi = f(M) psi, per cluster.

    f is set to 1 on clusters outside the common support.  Raises when the
    vectors are not in the same multiplet or the reconstruction check
    fails.
    """
    if not same_multiplet(psi, phi, m_spec, tol, eps_supp):
        raise ValueError("vectors are not in the same M-multiplet")
    phi = np.asarray(phi, dtype=complex)
    coords, _, mask = _cluster_coordinates(np.column_stack([psi, phi]),
                                           m_spec, eps_supp)
    values: Dict[int, complex] = {}
    diag = np.ones(m_spec.dim, dtype=complex)
    for k, (start, stop) in enumerate(m_spec.clusters):
        if not mask[k, 0]:
            values[k] = 1.0
            continue
        c_psi, c_phi = coords[start:stop, 0], coords[start:stop, 1]
        values[k] = complex(np.vdot(c_psi, c_phi) / np.vdot(c_psi, c_psi).real)
        diag[start:stop] = values[k]
    rebuilt = m_spec.eigenvectors @ (diag * coords[:, 0])
    if np.linalg.norm(phi - rebuilt) > tol.gap(float(np.linalg.norm(phi))):
        raise ValueError("recovered f does not reproduce phi within tolerance")
    return values
