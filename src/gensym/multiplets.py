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
    TILE,
    Tolerance,
    _bands,
    _m_eigenbasis,
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
    dtype = np.result_type(spec.eigenvectors, m.entries)
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
            # (B^dag M) B.  For a real diagonal M, B^dag M is a column scale
            # that gives every entry of the gemm's, in the gemm's C order,
            # with no complex copy of M.
            adjoint = block.conj().T
            compressed = (adjoint @ m.entries if m.real_diagonal is None
                          else np.multiply(adjoint, m.real_diagonal,
                                           order="C")) @ block
            compressed = (compressed + compressed.conj().T) / 2
            _, u = np.linalg.eigh(compressed)
            vectors[:, start:stop] = block @ u
        phase_canonicalize(vectors)
        vectors.setflags(write=False)
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors,
                                 clusters=clusters)


def _cluster_norms(vectors: np.ndarray, m_spec: SpectralDecomposition):
    """``(norms, mask)``: ``norms[k, j]`` is the norm of column j of V on
    cluster k of a real diagonal M, read off V's rows ``m_spec.order``,
    and ``mask[k, j]`` whether it exceeds ``DEFAULT_SUPPORT_EPS * ||v_j||``.
    The norms are segmented sums of |V|^2 over runs of whole clusters of
    at most TILE^2 entries (or one wider cluster): no n^2 buffer."""
    order = m_spec.order
    starts = [start for start, _ in m_spec.clusters]
    height = max(1, TILE ** 2 // len(vectors))
    norms = np.empty((len(starts), vectors.shape[1]))
    first = 0
    for k in range(1, len(starts) + 1):
        # The run [first, k) is summed before cluster k would take it past
        # ``height`` rows.
        if k < len(starts) and m_spec.clusters[k][1] - starts[first] <= height:
            continue
        picked = order[starts[first]:m_spec.clusters[k - 1][1]]
        squares = np.abs(vectors[picked])
        np.square(squares, out=squares)
        norms[first:k] = np.sqrt(np.add.reduceat(
            squares, np.subtract(starts[first:k], starts[first]), axis=0))
        first = k
    # ||v_j|| from its cluster norms: no n^2 temporary.
    mask = norms > DEFAULT_SUPPORT_EPS * np.linalg.norm(norms, axis=0)
    return norms, mask


def _greedy_classes(h_spec: SpectralDecomposition,
                    m_spec: SpectralDecomposition, tol: Tolerance):
    """partition's classes of H's eigenvectors, without its signatures and
    labels: ``(classes, mask)``, classes as lists of eigenvector indices
    ordered by their first member, mask the support of each eigenvector
    over the M-clusters.

    In M's eigenbasis (_m_eigenbasis), the columns of V are grouped by
    support mask, with one np.unique over the masks packed to bytes;
    within a group, "parallel on every supported cluster" is read off the
    Gram matrices of the normalised cluster blocks.  A one-dimensional
    cluster holds no direction, so it never separates two columns.
    """
    h_spec, m_spec = _m_eigenbasis(h_spec, m_spec)
    vectors = h_spec.eigenvectors
    norms, mask = _cluster_norms(vectors, m_spec)
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
            # A copy, scaled in place.
            block = vectors[np.ix_(m_spec.order[start:stop], idx)]
            block /= norms[k, idx]
            gram = block.conj().T @ block
            del block  # each is dropped before the next cluster's is formed
            for band in _bands(len(idx)):  # |gram| a band at a time
                parallel[band] &= np.abs(gram[band]) >= 1.0 - tol.rtol
            del gram
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
    """Group all eigenvectors into M-multiplets by _greedy_classes, each
    class with its support signature and size label.  Memory is
    C = W_M^dag V_H (none for a real diagonal M), a run of clusters' rows
    of |C|^2 and one group-size square matrix.

    Ordering: classes are built greedily against the first-seen
    representative of each class, in eigenvector-index order, exactly as
    pairwise multiplet tests would build them.  Classes are
    listed in order of their representative's index, members ascending,
    and each signature is the representative's support.
    """
    classes, mask = _greedy_classes(h_spec, m_spec, tol)
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
