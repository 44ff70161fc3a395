"""Stability of the eigenvectors of H = V diag(w) V^dag under a ladder triple.

An eigenvector psi is stable when {psi, R psi, R^dag psi} are linearly
dependent, decided in ladder units: R psi / ||R||_F beside the unit psi.
Case 1: R psi and R^dag psi are dependent; case 4: (R - R^dag) psi is
parallel to psi; case 5 otherwise, with a partner chi = exp(-zM) psi at a
shifted eigenvalue.  GenSymTriple's real gamma != 0 makes R nilpotent on
the finite spectrum of M, so cases 2 (R psi = psi / x) and 3
(R^dag psi = psi / y) have no solution psi != 0 and are not screened.
H0 is never read, and no eigenvector of H is checked a second time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .detection import GenSymTriple
from .operators import (
    DEFAULT_TOL,
    NumericalError,
    SpectralDecomposition,
    Tolerance,
    _Blocks,
    _in_m_basis,
    _ladder_blocks,
    _m_eigenbasis,
    _times_block,
    _unit,
    fro,
)

# Rank (sigma_3/sigma_1), coefficient and annihilation cutoff, ladder units.
STABILITY_CUTOFF = 1e-8

# Eigenvectors classified together: bounds the stacked-SVD and gemm
# workspace at O(n * _BLOCK) whatever the dimension.
_BLOCK = 32


@dataclass(frozen=True, eq=False)
class PartnerRecord:
    """Case-5 partner of an eigenvector psi: chi = exp(-zM) psi, which z
    fixes, is an eigenvector of H at e_second with the given residual."""

    z: complex
    e_second: float
    residual: float


@dataclass(frozen=True, eq=False)
class StabilityRecord:
    index: int
    eigenvalue: float
    stable: bool
    cases: Tuple[int, ...]
    primary_case: Optional[int]
    coeffs: Tuple[complex, complex, complex]
    r_annihilates: bool
    rd_annihilates: bool
    sum_annihilates: bool
    partner: Optional[PartnerRecord] = None


@dataclass(frozen=True, eq=False)
class _Ladder:
    """What every stability test of one (H, triple, M) reads, built once."""

    h_spec: SpectralDecomposition
    h_norm: float  # ||H||_F = ||w||, the unit of the residual gates
    r: _Blocks  # R's ladder blocks, or R whole when mass lies off them
    r_dag: _Blocks
    r_norm: float  # ||R||_F, the ladder unit; 1.0 for a zero R
    gamma: float
    m_spec: SpectralDecomposition  # real diagonal: read through order


def _ladder(h_spec: SpectralDecomposition, r: _Blocks, gamma: float,
            m_spec: SpectralDecomposition) -> _Ladder:
    return _Ladder(h_spec=h_spec, h_norm=fro(h_spec.eigenvalues), r=r,
                   r_dag=r.adjoint(), r_norm=r.norm or 1.0,
                   gamma=gamma, m_spec=m_spec)


def _rank_tests(a: np.ndarray, b: np.ndarray, psi: np.ndarray):
    """SVD rank test on [a_j | b_j | psi_j] for every column j at once.

    One stacked thin SVD of shape (columns, max(n, 3), 3).  Rows are
    zero-padded to three, which leaves the nonzero singular values as
    they are but keeps a full 3x3 ``vh`` when n < 3, where dependence is
    forced and the third singular value is zero.  Returns
    (stable, x, y, u) arrays with the null relation x*a + y*b = u*psi
    taken from the right-singular vector of the smallest singular value.
    """
    n, k = psi.shape
    stack = np.zeros((k, max(n, 3), 3), dtype=np.result_type(a, b, psi, float))
    stack[:, :n, 0] = a.T
    stack[:, :n, 1] = b.T
    stack[:, :n, 2] = psi.T
    if n >= 5:
        # From five rows on LAPACK's thin SVD factors the block by QR and
        # takes the SVD of R; doing so here gives the same singular values
        # and vh bit for bit without forming the n x 3 left factor.
        stack = np.linalg.qr(stack, mode="r")
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    null = vh[:, 2].conj()
    return (s[:, 2] <= STABILITY_CUTOFF * s[:, 0], null[:, 0], null[:, 1],
            -null[:, 2])


def _classify_block(ladder: _Ladder, vectors: np.ndarray,
                    eigenvalues: np.ndarray, tol: Tolerance) -> tuple:
    """Classify the columns of ``vectors``: R V and R^dag V by one stacked
    gemm per block shape of R's ladder blocks, the rank tests by one
    stacked SVD, every decision after them by array operations.  Returns
    per column its primary case (0 when unstable), its relation
    x R psi + y R^dag psi = u psi as a row (x, y, u) and whether R, R^dag
    and R + R^dag annihilate it, then _partners of its case-5 columns.
    """
    a, b = (ladder.r.times(vectors) / ladder.r_norm,
            ladder.r_dag.times(vectors) / ladder.r_norm)
    flags = np.stack([np.linalg.norm(v, axis=0) <= STABILITY_CUTOFF
                      for v in (a, b, a + b)], axis=1)
    stable, x, y, u = _rank_tests(a, b, vectors)

    # Screened as x a + y b = u psi, one row (x, y, u) per column.  A psi
    # that R and R^dag both annihilate has every (x, y, 0) as a null
    # relation and takes (1, 0, 0).
    rel = np.stack([x, y, u], axis=1).astype(complex)
    rel[flags[:, 0] & flags[:, 1]] = (1.0, 0.0, 0.0)
    mag = np.abs(rel)
    # Case 1 when u ~ 0; else the relation is read at u = 1, as case 4
    # when x + y ~ 0 and case 5 otherwise.
    case1 = stable & (mag[:, 2] <= STABILITY_CUTOFF * mag.max(axis=1))
    read = stable & ~case1
    rel[read, :2] /= rel[read, 2:]
    rel[read, 2] = 1.0
    case4 = (np.abs(rel[:, 0] + rel[:, 1])
             <= STABILITY_CUTOFF * np.abs(rel[:, :2]).max(axis=1))
    cases = np.select([case1, read & case4, read], [1, 4, 5], 0)
    # A case-1 or unstable relation is a unit null vector that the SVD
    # fixes only up to a phase: its largest-magnitude entry is rotated
    # real positive (ties to the first), as phase_canonicalize rotates a
    # column.
    pivot = rel[~read, mag[~read].argmax(axis=1)]
    rel[~read] *= (np.abs(pivot) / pivot)[:, np.newaxis]
    rel[:, :2] /= ladder.r_norm  # recorded as x R psi + y R^dag psi = u psi
    five = cases == 5
    return (cases, rel, flags, *_partners(
        ladder, vectors[:, five], eigenvalues[five], rel[five, 0],
        rel[five, 1], tol))


def _partners(ladder: _Ladder, vectors: np.ndarray, eigenvalues: np.ndarray,
              x: np.ndarray, y: np.ndarray, tol: Tolerance) -> tuple:
    """Case-5 partners (z, e_second, residual) of the columns psi of
    ``vectors``, given their relations x R psi + y R^dag psi = psi.

    exp(z*gamma) = -y/x, and the shift eps = (exp(-z*gamma) - 1) / x is
    real up to rtol ||H||_F, the unit of the residual gates.  M is real
    diagonal here, so chi = exp(-zM) psi scales psi_i by exp(-z mu), mu
    the mean of i's M-cluster, each exp(-z mu) taken once per M-cluster;
    chi's residual ||(w - E') o (V^T conj(chi))|| / ||chi|| against
    V diag(w) V^dag is one gemm, and chi is then dropped, as z fixes it.
    """
    # Case 5 has |-y/x - 1| > cutoff, and x, y != 0 as R is nilpotent.
    ratio = -y / x
    log_ratio = np.log(ratio)
    # On the branch cut up to rounding the principal branch would take
    # +i*pi or -i*pi from the sign of a rounding error: take +i*pi.
    on_cut = np.abs(ratio.imag) <= STABILITY_CUTOFF * np.abs(ratio)
    log_ratio.imag[on_cut & (ratio.real < 0)] = np.pi
    z = log_ratio / ladder.gamma
    eps = (np.exp(-z * ladder.gamma) - 1.0) / x
    bad = np.flatnonzero(np.abs(eps.imag) > tol.rtol * ladder.h_norm)
    if bad.size:
        raise NumericalError(
            f"eigenvalue shift {complex(eps[bad[0]])} is not real")
    e_second = eigenvalues + eps.real
    # exp(-z mu) / exp(-Re(z) c), c the midpoint of the spectrum of M, so
    # M + dI cannot overflow it; the residual is relative to ||chi||.
    mu = ladder.m_spec.cluster_values[0]
    chi = np.exp(-np.outer(mu - (mu[0] + mu[-1]) / 2, z.real)
                 - 1j * np.outer(mu, z.imag))[ladder.m_spec.cluster_ids]
    chi *= vectors
    w, v = ladder.h_spec.eigenvalues, ladder.h_spec.eigenvectors
    a = _unit(ladder.h_norm)  # w - E' over 2^a: no norm can overflow
    shifted = _times_block(v.T, np.conjugate(chi, out=chi))
    shifted *= (w[:, np.newaxis] - e_second) * 2.0 ** -a
    residuals = (np.linalg.norm(shifted, axis=0)
                 / np.linalg.norm(chi, axis=0))
    # Written as "not <=" so that a NaN residual fails the check too.
    bad = np.flatnonzero(~(residuals <= tol.rtol * ladder.h_norm * 2.0 ** -a))
    residuals *= 2.0 ** a
    if bad.size:
        raise NumericalError(
            f"partner residual {residuals[bad[0]]:.3e} exceeds tolerance")
    return z, e_second, residuals


def scan_spectrum_stability(h_spec: SpectralDecomposition,
                            triple: GenSymTriple,
                            m_spec: SpectralDecomposition,
                            tol: Tolerance = DEFAULT_TOL) -> List[StabilityRecord]:
    """Classify every eigenvector of H, in index order.

    H is read only as h_spec, its eigendecomposition V diag(w) V^dag;
    triple.h0 is never read.  In M's eigenbasis (_m_eigenbasis), R is held
    as its ladder blocks (_ladder_blocks) and the eigenvectors are
    classified _BLOCK columns at a time (_classify_block), in
    O(n * _BLOCK) workspace besides the n x n operators: no (n, n, 3)
    stack is formed, and each record depends on its own eigenvector only.
    """
    r = _in_m_basis(triple.r, m_spec) if m_spec.order is None else triple.r
    h_spec, m_spec = _m_eigenbasis(h_spec, m_spec)
    return _records(h_spec.eigenvalues, _scan_stability(
        h_spec, _ladder_blocks(r, triple.gamma, m_spec), triple.gamma,
        m_spec, tol))


def _records(eigenvalues: np.ndarray, scan: tuple) -> List[StabilityRecord]:
    """The records of _classify_block's or _scan_stability's arrays."""
    cases, coeffs, flags, *partners = scan
    partners = map(PartnerRecord, *(p.tolist() for p in partners))
    return [StabilityRecord(  # fields in order, the three flags as *f
        index, eigenvalue, case > 0, (case,) if case else (), case or None,
        tuple(c), *f, next(partners) if case == 5 else None)
        for index, (eigenvalue, case, c, f) in enumerate(zip(
            eigenvalues.tolist(), cases.tolist(), coeffs.tolist(),
            flags.tolist()))]


def _scan_stability(h_spec: SpectralDecomposition, r: _Blocks,
                    gamma: float, m_spec: SpectralDecomposition,
                    tol: Tolerance) -> tuple:
    """_classify_block's arrays over the whole spectrum, in index order, on
    the R and gamma of a triple in M's eigenbasis, R in H's units as
    _ladder_blocks holds it: (cases, coeffs, flags) per eigenvector and
    (z, e_second, residual) per case-5 eigenvector."""
    ladder = _ladder(h_spec, r, gamma, m_spec)
    blocks = [_classify_block(ladder, h_spec.eigenvectors[:, s:s + _BLOCK],
                              h_spec.eigenvalues[s:s + _BLOCK], tol)
              for s in range(0, h_spec.dim, _BLOCK)]
    return tuple(np.concatenate(arrays) for arrays in zip(*blocks))


def case_counts(records: List[StabilityRecord]) -> dict:
    """Summary histogram of primary cases; unstable counted under 0."""
    return dict(Counter(rec.primary_case or 0 for rec in records))
