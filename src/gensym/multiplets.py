"""Partition of H-eigenvectors into M-multiplets.

Two eigenvectors are in the same M-multiplet when one is f(M) times the
other for an f nonzero on the spectrum of M: equivalently, they have equal
support over the M-eigenvalue clusters and parallel components within each
supported cluster.  partition decides this for a whole eigenbasis at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .operators import (
    DEFAULT_TOL,
    Operator,
    SpectralDecomposition,
    Tolerance,
    _m_basis,
    hermitian_eigh,
    phase_canonicalize,
)

# Relative projection norm below which a cluster counts as absent.
DEFAULT_SUPPORT_EPS = 1e-8

_SIZE_LABELS = {1: "singlet", 2: "doublet", 3: "triplet",
                4: "quartet", 5: "quintet"}


def size_label(n: int) -> str:
    return _SIZE_LABELS.get(n, f"{n}-plet")


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
    The basis is complex when either H's eigenvectors or M is complex.
    """
    if not m.hermitian:
        raise ValueError(f"M ({m.label!r}) is not Hermitian within gate")
    spec = hermitian_eigh(h, tol)
    values, clusters = spec.eigenvalues, spec.clusters
    wide = [(start, stop) for start, stop in clusters if stop - start > 1]
    me = m.entries
    dtype = np.result_type(spec.eigenvectors, me)
    if dtype == np.float64 and not wide:
        # Nothing to rotate, and hermitian_eigh's real basis has canonical
        # signs: a second sign pass is exact and changes no bit.
        vectors = spec.eigenvectors
    else:
        # One owned copy, and hermitian_eigh's basis is released.  A
        # complex phase pass moves last bits, so it runs even with no
        # cluster to rotate.
        vectors = np.array(spec.eigenvectors, dtype=dtype)
        del spec
        for start, stop in wide:
            block = vectors[:, start:stop]
            compressed = block.conj().T @ me @ block
            compressed = (compressed + compressed.conj().T) / 2
            _, u = np.linalg.eigh(compressed)
            vectors[:, start:stop] = block @ u
        phase_canonicalize(vectors)
        vectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors,
                                 clusters=clusters)


def _cluster_coordinates(vectors: np.ndarray, m_spec: SpectralDecomposition):
    """Coordinates of the columns of ``vectors`` in the eigenbasis of M.

    Returns ``(coords, norms, mask)``: ``coords = W^dag V`` with W the
    M-eigenvectors, ``norms[k, j]`` the norm of column j's component on
    M-cluster k, and ``mask[k, j]`` whether that norm exceeds
    ``DEFAULT_SUPPORT_EPS * ||v_j||``.  One gemm (a row gather for a real
    diagonal M) and one segmented sum.
    """
    vectors = np.asarray(vectors)
    coords = _m_basis(m_spec, vectors)
    starts = [start for start, _ in m_spec.clusters]
    norms = np.sqrt(np.add.reduceat(np.abs(coords) ** 2, starts, axis=0))
    mask = norms > DEFAULT_SUPPORT_EPS * np.linalg.norm(vectors, axis=0)
    return coords, norms, mask


def _greedy_classes(vectors: np.ndarray, m_spec: SpectralDecomposition,
                    tol: Tolerance):
    """Greedy first-seen-representative classes of the columns of ``vectors``.

    Returns ``(classes, mask)``; classes are lists of column indices,
    ordered by their first member.  Columns are grouped by support mask,
    with one np.unique over the masks packed to bytes; within a group,
    "parallel on every supported cluster" is read off the Gram matrices of
    the normalised cluster blocks.  A one-dimensional cluster holds no
    direction, so it never separates two columns.
    """
    coords, norms, mask = _cluster_coordinates(vectors, m_spec)
    n = mask.shape[1]
    packed = np.ascontiguousarray(np.packbits(mask, axis=0).T)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    # Until a wide cluster separates them, every column joins the first
    # column of its group.
    owner = first[group]
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    by_group = np.argsort(group, kind="stable")
    wide = np.array([stop - start > 1 for start, stop in m_spec.clusters])
    wide_support = mask[:, first] & wide[:, np.newaxis]
    for g in np.flatnonzero((counts > 1) & wide_support.any(axis=0)):
        idx = by_group[ends[g] - counts[g]:ends[g]]
        parallel = np.ones((len(idx), len(idx)), dtype=bool)
        for k in np.flatnonzero(wide_support[:, g]):
            start, stop = m_spec.clusters[k]
            block = coords[start:stop, idx] / norms[k, idx]
            parallel &= np.abs(block.conj().T @ block) >= 1.0 - tol.rtol
        owner[idx] = idx[_first_parallel_representative(parallel)]
    order = np.argsort(owner, kind="stable").tolist()
    bounds = np.flatnonzero(np.diff(owner[order], prepend=-1)).tolist() + [n]
    classes = [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return classes, mask


def _first_parallel_representative(parallel: np.ndarray) -> np.ndarray:
    """For each column j, the representative whose class j joins: j itself
    when no earlier representative is parallel to it, else the first
    such one.

    The representatives are the fixed point of
    rep = ~(triu(parallel, 1) & rep[:, None]).any(0): rep[j] depends only
    on rep[:j], so the fixed point is unique, reached within len(parallel)
    steps, and equal to the greedy one-by-one choice even when
    "parallel" is not transitive.
    """
    earlier = np.triu(parallel, 1)
    rep = np.ones(len(parallel), dtype=bool)
    while True:
        nxt = ~(earlier & rep[:, np.newaxis]).any(axis=0)
        if np.array_equal(nxt, rep):
            break
        rep = nxt
    return np.where(rep, np.arange(len(rep)),
                    np.argmax(earlier & rep[:, np.newaxis], axis=0))


def partition(h_spec: SpectralDecomposition, m_spec: SpectralDecomposition,
              tol: Tolerance = DEFAULT_TOL) -> MultipletPartition:
    """Group all eigenvectors into M-multiplets.

    Algorithm: one gemm ``C = W_M^dag V_H`` (a row gather ``V_H[order]``
    for a real diagonal M) puts every eigenvector in the eigenbasis of M;
    one segmented sum over ``|C|^2`` gives its norm on each M-cluster and
    so its support mask.  Vectors are grouped by mask, and within a group
    the per-cluster Gram matrices of the normalised cluster blocks decide
    which pairs are parallel on every supported cluster.  Memory is O(n^2) for C plus one group-size square matrix.

    Ordering: classes are built greedily against the first-seen
    representative of each class, in eigenvector-index order, exactly as
    pairwise multiplet tests would build them.  Classes are
    listed in order of their representative's index, members ascending,
    and each signature is the representative's support.
    """
    classes, mask = _greedy_classes(h_spec.eigenvectors, m_spec, tol)
    # Every representative's support from one nonzero, in row-major order:
    # class by class, clusters ascending.
    rep_mask = mask[:, [c[0] for c in classes]].T
    supported = np.nonzero(rep_mask)[1].tolist()
    ends = np.cumsum(rep_mask.sum(axis=1)).tolist()
    return MultipletPartition(
        classes=tuple(tuple(c) for c in classes),
        signatures=tuple(tuple(supported[start:end])
                         for start, end in zip([0] + ends, ends)),
        labels=tuple(size_label(len(c)) for c in classes),
    )
