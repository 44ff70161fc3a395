"""Dense operators, commutators, and Hermitian eigendecomposition.

Everything downstream (symmetry detection, multiplets, stability) is built
on the small set of primitives in this module.  Operators are immutable
dense matrices; all functions are pure.

Storage rule, applied to every Operator and GenSymTriple: a matrix is
float64 when the imaginary part of every entry is +0.0 bit for bit, and
complex128 otherwise.  Downstream code follows the dtype of its operands,
so a pair of real operators runs every gemm and eigensolve in real
arithmetic.  A -0.0 imaginary part keeps an operator complex, so a saved
file, which writes every imaginary part, is byte-identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

# Relative Frobenius gate deciding whether a matrix counts as Hermitian.
HERMITICITY_GATE = 1e-12

# Contract bound for the eigensolver residual, relative to ||A||_F.
EIGH_RESIDUAL_BOUND = 1e-10

# Side of the square tiles that elementwise n^2 work runs in, so that its
# temporaries are a tile (256 KiB complex), not an n^2 array.
TILE = 128


class NumericalError(RuntimeError):
    """A numerical routine violated its residual contract."""


@dataclass(frozen=True)
class Tolerance:
    """rtol: a gate accepts a quantity up to rtol times the norm of the
    input it is measured against; no gate has an absolute floor."""

    rtol: float = 1e-8

    def __post_init__(self):
        if not 0 <= self.rtol < np.inf:
            raise ValueError("tolerances must be finite and non-negative")


DEFAULT_TOL = Tolerance()


def _largest_norm(a: np.ndarray, axis=None) -> float:
    """max of np.linalg.norm(a, axis=axis), finite for finite entries.

    The plain sum of squares overflows once entries reach about 1e154 and
    drops its terms once they fall below about 1e-154; only then is the
    norm taken again on a * 2^-+600 and scaled back, both exact.
    """
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=axis)
        largest = float(norm if axis is None else np.max(norm))
        if 2.0 ** -450 < largest < np.inf or not a.any():
            return largest
        shift = 600 if largest < np.inf else -600
        norm = np.linalg.norm(a * 2.0 ** shift, axis=axis)
    return float(np.max(norm)) * 2.0 ** -shift


def fro(a: np.ndarray) -> float:
    """Frobenius norm, finite for finite entries up to the float range."""
    return _largest_norm(a)


def _unit(norm: float) -> int:
    """a with 2^a just above ``norm`` (0 for 0), 2^a and 2^-a finite."""
    return min(max(math.frexp(norm)[1], -1022), 1023)


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense square matrix with a label.

    ``entries`` is float64 or complex128 by make_operator's storage rule.
    """

    dim: int
    entries: np.ndarray
    label: str = ""

    @cached_property
    def norm(self) -> float:
        """||entries||_F, taken once per operator."""
        return fro(self.entries)

    @cached_property
    def hermitian(self) -> bool:
        """Whether the operator passes the Hermiticity gate.

        Decided once per operator: every function that requires a
        Hermitian operand reads this, so each operand is gated once.
        """
        return is_hermitian(self.entries, self.norm)

    @cached_property
    def real_diagonal(self) -> Optional[np.ndarray]:
        """The diagonal when the operator is real diagonal, else None.

        Decided once per operator; products with a diagonal operator go
        through _times_m, and its eigenbasis is read through ``order``.
        """
        return _real_diagonal(self.entries)


def _real_diagonal(entries: np.ndarray) -> Optional[np.ndarray]:
    """The diagonal of float64 entries with no nonzero off-diagonal entry.

    A -0.0 off-diagonal counts as zero; complex entries are never
    diagonal here.  One count_nonzero pass, no copy.
    """
    if entries.dtype != np.float64:
        return None
    d = entries.diagonal()
    return d if np.count_nonzero(entries) == np.count_nonzero(d) else None


def _times_m(a: np.ndarray, m: Operator) -> np.ndarray:
    """A M.

    For a real diagonal M a column scale: a gemm with a diagonal matrix
    only adds exact zeros, so every nonzero entry is the gemm's.
    """
    d = m.real_diagonal
    return a @ m.entries if d is None else a * d


def _times_block(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A V for an n x n A and an n x k block V.

    A real A times a complex V is one real gemm on V's (re, im) float
    view, n x 2k: numpy's mixed product would cast A to complex.
    """
    if np.iscomplexobj(a) or not np.iscomplexobj(v):
        return a @ v
    return (a @ np.ascontiguousarray(v).view(np.float64)).view(np.complex128)


def _tiles(n: int):
    """(rows, cols) of the TILE x TILE tiles of an n x n matrix on and
    above its diagonal; (cols, rows) is each one's mirror."""
    for i in range(0, n, TILE):
        for j in range(i, n, TILE):
            yield slice(i, i + TILE), slice(j, j + TILE)


def _bands(n: int):
    """Slices of TILE rows covering range(n)."""
    return [slice(i, i + TILE) for i in range(0, n, TILE)]


def _add_adjoint(a: np.ndarray, sign: int) -> np.ndarray:
    """A + A^dag (sign 1) or A - A^dag (sign -1), formed in place in ``a``.

    Every entry is the one add or subtract a[i, j] +- conj(a[j, i]) of the
    whole-array expression, so the result is bit-identical to it.  The
    work holds at most two TILE x TILE tiles, where the whole-array
    expression holds an n^2 conj() copy: a tile and its mirror are both
    read before either is written.
    """
    op = np.add if sign > 0 else np.subtract
    for rows, cols in _tiles(len(a)):
        upper, lower = a[rows, cols], a[cols, rows]
        mirror = np.conjugate(lower.T)  # a copy, also for real entries
        if rows != cols:
            # upper.conj() without a copy: two exact sign flips.
            np.conjugate(upper, out=upper)
            op(lower, upper.T, out=lower)
            np.conjugate(upper, out=upper)
        op(upper, mirror, out=upper)
        del mirror  # before the next one is made
    return a


def _skew_norm(a: np.ndarray) -> float:
    """||A - A^dag||_F, read in place.

    Taken over the tile pairs of _add_adjoint: D = A[I, J] - A[J, I]^dag
    and its mirror -D^dag have one norm, so an off-diagonal tile's norm
    enters twice.  fro combines the tile norms, so the result keeps fro's
    range, and no temporary is larger than a tile.
    """
    norms = []
    for rows, cols in _tiles(len(a)):
        d = fro(a[rows, cols] - np.conjugate(a[cols, rows].T))
        norms += [d] if rows == cols else [d, d]
    return fro(np.array(norms))


def is_hermitian(entries: np.ndarray, norm: Optional[float] = None) -> bool:
    """||A - A^dag||_F <= HERMITICITY_GATE ||A||_F; ``norm`` is ||A||_F
    when the caller holds it."""
    if norm is None:
        norm = fro(entries)
    return _skew_norm(entries) <= HERMITICITY_GATE * norm


def _freeze(entries) -> np.ndarray:
    """Finite entries as a read-only copy, stored by the rule above."""
    a = np.asarray(entries)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if not np.all(np.isfinite(a)):
        raise ValueError("entries contain non-finite values")
    if np.iscomplexobj(a) and not a.imag.view(np.uint64).any():
        a = a.real
    a = np.array(a)
    a.setflags(write=False)
    return a


def make_operator(dim: int, entries, label: str = "") -> Operator:
    """Validate and freeze a dense square matrix into an Operator.

    The entries are stored as float64 when every imaginary part is +0.0
    bit for bit, and as complex128 otherwise, in a frozen copy that never
    shares memory with ``entries``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    a = _freeze(entries)
    if a.shape != (dim, dim):
        raise ValueError(f"entries must be {dim}x{dim}, got shape {a.shape}")
    return Operator(dim=dim, entries=a, label=label)


class _UnitColumns:
    """SpectralDecomposition.eigenvectors: the stored basis, or, when None
    is stored for a real diagonal operator, its unit columns e_order[j] as
    an n x n permutation matrix, formed on the first read and kept.  The
    pipeline reads such a basis only through ``order``."""

    def __get__(self, spec, owner=None):
        if spec is None:  # no default: the field stays required
            raise AttributeError("eigenvectors")
        v = spec.__dict__["_eigenvectors"]
        if v is None:
            v = np.zeros((spec.dim, spec.dim))
            v[spec.order, np.arange(spec.dim)] = 1.0
            v.setflags(write=False)
            spec.__dict__["_eigenvectors"] = v
        return v

    def __set__(self, spec, value):
        spec.__dict__["_eigenvectors"] = value


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Full Hermitian eigendecomposition with degeneracy clusters.

    eigenvalues are ascending, eigenvectors are the matching orthonormal
    columns, clusters are half-open (start, stop) index ranges grouping
    numerically degenerate eigenvalues.  order is set for a real diagonal
    operator, whose eigenvectors are the unit columns e_order[j], formed
    only when read; it is None for a dense basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = _UnitColumns()
    clusters: tuple
    order: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @cached_property
    def cluster_values(self) -> tuple:
        """(mean eigenvalue of each cluster, size of each cluster): two
        read-only arrays, taken once per decomposition."""
        means = np.array([np.mean(self.eigenvalues[start:stop])
                          for start, stop in self.clusters])
        sizes = np.array([stop - start for start, stop in self.clusters])
        means.setflags(write=False)
        sizes.setflags(write=False)
        return means, sizes

    @cached_property
    def cluster_ids(self) -> np.ndarray:
        """ids[order[i]], the cluster of eigenvalue i, for each basis index
        when ``order`` is set; read-only, formed once."""
        ids = np.empty(self.dim, dtype=np.intp)
        ids[self.order] = np.repeat(np.arange(self.n_clusters),
                                    self.cluster_values[1])
        ids.setflags(write=False)
        return ids


def cluster_eigenvalues(values: Sequence[float], scale: float,
                        tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Group ascending values into maximal runs of consecutive gaps.

    Two neighbours land in the same cluster when their gap is at most
    rtol*scale, where scale is the norm of the operator they belong to.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return ()
    splits = np.flatnonzero(np.diff(values) > tol.rtol * scale) + 1
    bounds = [0, *splits.tolist(), len(values)]
    return tuple(zip(bounds[:-1], bounds[1:]))


def phase_canonicalize(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column of the float64 or complex128 ``vectors`` in place
    so its largest-magnitude entry is real positive; returns ``vectors``.

    Ties break to the lowest index (argmax picks the first maximum).  Real
    columns stay real: their phase is a sign.
    """
    magnitudes = np.abs(vectors.T, order="C")  # one contiguous row per column
    pivots = vectors[np.argmax(magnitudes, axis=1),
                     np.arange(vectors.shape[1])]
    if not np.iscomplexobj(vectors):
        vectors *= np.where(pivots < 0, -1.0, 1.0)
        return vectors
    # Each phase is a scalar division, as for one column: dividing the
    # pivots as an array can differ from it in the last bit.
    vectors *= np.array([abs(p) / p if abs(p) > 0 else 1.0 for p in pivots],
                        dtype=vectors.dtype)
    return vectors


def hermitian_eigh(a: Operator, tol: Tolerance = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator with canonical phases.

    A real diagonal operator is solved by the stable sort of its diagonal,
    with the unit columns in that order as eigenvectors (their phases are
    canonical already), formed only when a caller reads them; its
    eigenpair residual A V - V diag(w) is exactly zero, column o being
    d_o e_o - e_o d_o.  A dense operator is solved by
    eigh on the entries in place, and its residual is formed in A V's own
    buffer and checked against A itself; eigh's own eigenvectors are phased
    in place.

    eigh reads the lower triangle (LAPACK's xHEEVD reads one triangle):
    it solves the Hermitian L with A's lower triangle, which is A bit for
    bit when A is exactly Hermitian.  For an A Hermitian only to within
    the gate, ||L - (A + A^dag)/2||_F = ||A - A^dag||_F / 2 <= 5e-13
    ||A||_F, 200 times inside EIGH_RESIDUAL_BOUND.
    """
    if not a.hermitian:
        raise ValueError(f"operator {a.label!r} is not Hermitian within gate")
    scale = a.norm
    d = a.real_diagonal
    if d is None:
        w, v = np.linalg.eigh(a.entries)
        phase_canonicalize(v)
        order, av = None, a.entries @ v
        for rows in _bands(a.dim):
            av[rows] -= v[rows] * w[np.newaxis, :]
        residual = _largest_norm(av, axis=0)
        if residual > EIGH_RESIDUAL_BOUND * scale:
            raise NumericalError(f"eigensolver residual {residual:.3e} "
                                 f"exceeds contract for {a.label!r}")
    else:
        order = np.argsort(d, kind="stable")
        w, v = d[order], None
        order.setflags(write=False)
    clusters = cluster_eigenvalues(w, scale, tol)
    w.setflags(write=False)
    if v is not None:
        v.setflags(write=False)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v,
                                 clusters=clusters, order=order)


@dataclass(frozen=True, eq=False)
class _Blocks:
    """An n x n X held as blocks X[I_a, I_b] on M-clusters, zero elsewhere.

    ``groups`` holds one (rows, cols, data) per block shape (p, q): rows
    (B, p) and cols (B, q) index arrays and the (B, p, q) stack
    data = X[rows, cols]; no two blocks share a row or a column.  An X
    held whole is one block, rows = cols = arange(n).  ``norm`` is ||X||_F.
    """

    groups: tuple
    norm: float

    def times(self, v: np.ndarray) -> np.ndarray:
        """X V for an n x k V: one stacked gemm per block shape."""
        out = np.zeros(v.shape, np.result_type(
            v, *(data for _, _, data in self.groups)))
        for rows, cols, data in self.groups:
            out[rows] = data @ v[cols]
        return out

    def adjoint(self) -> "_Blocks":
        """X^dag, held the same way, in a copy."""
        return _Blocks(tuple(
            (cols, rows, np.ascontiguousarray(data.conj().transpose(0, 2, 1)))
            for rows, cols, data in self.groups), self.norm)

    def scaled(self, s: float) -> "_Blocks":
        """X s for a power of two s, each block scaled in place on its
        (re, im) parts: a complex product would turn a -0.0 part +0.0."""
        for _, _, data in self.groups:
            data.view(np.float64)[...] *= s
        return _Blocks(self.groups, self.norm * s)

    def count_nonzero(self) -> int:
        """The blocks' nonzero entries, X's own count when they hold all."""
        return sum(np.count_nonzero(data) for _, _, data in self.groups)

    def full(self, n: int) -> np.ndarray:
        """X as a new n x n array."""
        out = np.zeros((n, n), np.result_type(
            float, *(data for _, _, data in self.groups)))
        for rows, cols, data in self.groups:
            out[rows[:, :, np.newaxis], cols[:, np.newaxis, :]] = data
        return out


def _cluster_targets(m_spec: SpectralDecomposition,
                     gamma: float) -> np.ndarray:
    """target[b], the M-cluster a whose mean is nearest mu_b - gamma
    within |gamma| / 2, or -1: R's ladder block R[I_a, I_b].  Of several
    b nearest one a, the nearest (the first on a tie) keeps it."""
    mu = m_spec.cluster_values[0]
    t = mu - gamma
    hi = np.minimum(np.searchsorted(mu, t), len(mu) - 1)
    lo = np.maximum(hi - 1, 0)
    near = np.where(np.abs(mu[lo] - t) <= np.abs(mu[hi] - t), lo, hi)
    gap = np.abs(mu[near] - t)
    target = np.where(gap <= abs(gamma) / 2, near, -1)
    # By target, then gap: each b after the first of its run loses it.
    ranked = np.lexsort((gap, target))
    target[ranked[1:][np.diff(target[ranked]) == 0]] = -1
    return target


def _gather(x: np.ndarray, m_spec: SpectralDecomposition,
            target: np.ndarray) -> _Blocks:
    """X's blocks X[I_target[b], I_b] for each M-cluster b with
    target[b] >= 0, M read through ``order``: H0's diagonal blocks for
    target = arange, R's ladder blocks for _cluster_targets."""
    starts = np.array([start for start, _ in m_spec.clusters])
    sizes = m_spec.cluster_values[1]
    shapes = {}
    for b in np.flatnonzero(target >= 0).tolist():
        a = int(target[b])
        shapes.setdefault((sizes[a], sizes[b]), []).append((a, b))
    groups = []
    for (p, q), pairs in shapes.items():
        a, b = np.array(pairs).T
        rows = m_spec.order[starts[a][:, np.newaxis] + np.arange(p)]
        cols = m_spec.order[starts[b][:, np.newaxis] + np.arange(q)]
        groups.append((rows, cols,
                       x[rows[:, :, np.newaxis], cols[:, np.newaxis, :]]))
    return _Blocks(tuple(groups),
                   fro(np.array([fro(data) for _, _, data in groups])))


def _whole(x: np.ndarray) -> _Blocks:
    """X held whole, as one block that reads X in place."""
    idx = np.arange(len(x))[np.newaxis]
    return _Blocks(((idx, idx, x[np.newaxis]),), fro(x))


def _ladder_blocks(x: np.ndarray, gamma: float,
                   m_spec: SpectralDecomposition) -> _Blocks:
    """X with [X, M] = gamma X as its ladder blocks on the clusters of M,
    read through ``order``, or whole when an entry of X lies off them."""
    blocks = _gather(x, m_spec, _cluster_targets(m_spec, gamma))
    held = blocks.count_nonzero() == np.count_nonzero(x)
    return blocks if held else _whole(x)


def _rotate(x: np.ndarray, w: np.ndarray, back: bool = False) -> np.ndarray:
    """X <- W^dag X W (W X W^dag with ``back``) in X's buffer, TILE
    columns, then rows, at a time, with no copy of W^dag: W^dag Y =
    conj(W^T conj(Y)), Y W = (W^T Y^T)^T, Y W^dag = conj(W conj(Y)^T)^T."""
    for cols in _bands(len(x)):
        x[:, cols] = (_times_block(w, x[:, cols]) if back
                      else _times_block(w.T, x[:, cols].conj()).conj())
    for rows in _bands(len(x)):
        x[rows] = (_times_block(w, x[rows].conj().T).conj() if back
                   else _times_block(w.T, x[rows].T)).T
    return x


def _in_m_basis(x: np.ndarray, m_spec: SpectralDecomposition,
                s: float = 1.0) -> np.ndarray:
    """X s in M's eigenbasis, in a new array: W^dag X W s, rotated in its
    own buffer, for a dense M; X s for a real diagonal M."""
    if m_spec.order is not None:
        return x * s
    w = m_spec.eigenvectors
    return _rotate(np.multiply(x, s, dtype=np.result_type(x, w)), w)


def _in_eigenbasis(m_spec: SpectralDecomposition) -> SpectralDecomposition:
    """M's decomposition in its own eigenbasis, diag(mu): for a dense M
    with order arange(n) and no W, else as given."""
    if m_spec.order is not None:
        return m_spec
    order = np.arange(m_spec.dim)
    order.setflags(write=False)
    return replace(m_spec, eigenvectors=None, order=order)


def _m_eigenbasis(h_spec: SpectralDecomposition,
                  m_spec: SpectralDecomposition) -> tuple:
    """(h_spec, m_spec) in the eigenbasis W of M, as given for a real
    diagonal M.  For a dense M, V becomes C = W^dag V (W^dag a copy for a
    complex W) and m_spec _in_eigenbasis(m_spec)."""
    if m_spec.order is not None:
        return h_spec, m_spec
    coords = _times_block(m_spec.eigenvectors.conj().T, h_spec.eigenvectors)
    coords.setflags(write=False)
    return (replace(h_spec, eigenvectors=coords), _in_eigenbasis(m_spec))


def _lower_norm(a: np.ndarray) -> float:
    """||L||_F for the Hermitian L that eigh solves for A: A's lower
    triangle, its conjugate above the diagonal, and the real part of A's
    diagonal.  Read in place over the tile pairs of _add_adjoint."""
    norms = []
    for rows, cols in _tiles(len(a)):
        lower = a[cols, rows]
        if rows == cols:
            strict = fro(np.tril(lower, -1))
            norms += [strict, strict, fro(lower.diagonal().real)]
        else:
            norms += [fro(lower)] * 2
    return fro(np.array(norms))


def _hermitian_eigvalsh(a: Operator) -> np.ndarray:
    """Ascending eigenvalues of an operator whose Hermiticity is already gated.

    Values only: no eigenvectors, so the eigenpair residual of
    hermitian_eigh cannot be formed.  eigvalsh reads the entries in place
    and solves the L of hermitian_eigh, A's lower triangle: A itself when
    A is exactly Hermitian, and within ||A - A^dag||_F / 2 <= 5e-13
    ||A||_F of (A + A^dag)/2 when it is Hermitian only to within the gate,
    so the spectrum moves by at most that much (Hoffman-Wielandt).  A
    backward-stable solver returns the exact eigenvalues of L + E with
    ||E||_F <= e = EIGH_RESIDUAL_BOUND * ||A||_F, which implies
    |sum(w) - tr(L)| = |tr E| <= sqrt(n) e and
    |sum(w^2) - ||L||_F^2| <= 2 ||L||_F e + e^2 (Hoffman-Wielandt), with
    tr(L) the real part of tr(A).  Both are O(n^2) to check, and a
    violation of either raises.  The squared sums are compared in units
    of scale = ||A||_F (1.0 for a zero A), so they cannot overflow for
    finite entries.
    """
    w = np.linalg.eigvalsh(a.entries)
    scale = a.norm or 1.0
    e = EIGH_RESIDUAL_BOUND * scale
    trace_error = abs(float(np.sum(w)) - float(np.trace(a.entries).real))
    units, solved = w / scale, _lower_norm(a.entries) / scale
    square_error = abs(float(units @ units) - solved ** 2)
    # Written as "not <=" so a NaN from the solver fails the check too.
    if not (trace_error <= np.sqrt(len(w)) * e
            and square_error <= (2.0 * solved + EIGH_RESIDUAL_BOUND)
            * EIGH_RESIDUAL_BOUND):
        raise NumericalError(
            f"eigenvalues of {a.label!r} violate the eigensolver contract: "
            f"trace error {trace_error:.3e}, squared-sum error "
            f"{square_error:.3e} ||A||_F^2")
    w.setflags(write=False)
    return w
