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

import cmath
import math
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


def _pinned(x: complex, y: complex, u: complex):
    """A null relation (x, y, u) fixed only up to a unit phase, rotated so
    its largest-magnitude entry is real positive (ties to the first), as
    phase_canonicalize rotates a column."""
    pivot = max((x, y, u), key=abs)
    phase = abs(pivot) / pivot if abs(pivot) > 0 else 1.0
    return x * phase, y * phase, u * phase


def _screen(x: complex, y: complex, u: complex):
    """Case 1 (u ~ 0), 4 (x + y ~ 0 at u = 1) or 5, and the coeffs."""
    if abs(u) <= STABILITY_CUTOFF * max(abs(x), abs(y), abs(u)):
        return 1, (x, y, u)
    x, y = x / u, y / u
    case = 4 if abs(x + y) <= STABILITY_CUTOFF * max(abs(x), abs(y)) else 5
    return case, (x, y, 1.0 + 0.0j)


def _classify_block(ladder: _Ladder, vectors: np.ndarray,
                    eigenvalues: np.ndarray, indices, tol: Tolerance,
                    ) -> List[StabilityRecord]:
    """Classify the columns of ``vectors`` with one gemm per operator, or
    one stacked gemm per block shape for R's ladder blocks."""
    a, b = (ladder.r.times(vectors) / ladder.r_norm,
            ladder.r_dag.times(vectors) / ladder.r_norm)
    r_annihilates, rd_annihilates, sum_annihilates = (
        np.linalg.norm(v, axis=0) <= STABILITY_CUTOFF for v in (a, b, a + b))
    stable, xs, ys, us = _rank_tests(a, b, vectors)

    # Screened as x a + y b = u psi, recorded as x R psi + y R^dag psi = u psi.
    # A psi that R and R^dag both annihilate has every (x, y, 0) as a null
    # relation and takes (1, 0, 0).  A case-1 or unstable relation is a
    # null vector that the SVD fixes only up to a unit phase, which
    # _pinned fixes; cases 4 and 5 are read at u = 1.
    cases, coeffs = [], []
    for j in range(len(eigenvalues)):
        raw = ((1.0 + 0.0j, 0.0j, 0.0j)
               if r_annihilates[j] and rd_annihilates[j]
               else (complex(xs[j]), complex(ys[j]), complex(us[j])))
        case, (x, y, u) = _screen(*raw) if stable[j] else (None, raw)
        if case in (None, 1):
            x, y, u = _pinned(x, y, u)
        cases.append(case)
        coeffs.append((x / ladder.r_norm, y / ladder.r_norm, u))
    case5 = [j for j, case in enumerate(cases) if case == 5]
    partners = dict(zip(case5, _partners(
        ladder, vectors[:, case5], eigenvalues[case5],
        [coeffs[j][:2] for j in case5], tol)))

    return [
        StabilityRecord(
            index=index, eigenvalue=float(eigenvalues[j]),
            stable=bool(stable[j]), cases=(cases[j],) if stable[j] else (),
            primary_case=cases[j], coeffs=coeffs[j],
            r_annihilates=bool(r_annihilates[j]),
            rd_annihilates=bool(rd_annihilates[j]),
            sum_annihilates=bool(sum_annihilates[j]),
            partner=partners.get(j))
        for j, index in enumerate(indices)
    ]


def _ladder_exponent(x: complex, y: complex, ladder: _Ladder,
                     tol: Tolerance) -> Tuple[complex, float]:
    """z with exp(z*gamma) = -y/x, and the real eigenvalue shift, whose
    imaginary part is gated in the unit of the residual gates, ||H||_F."""
    # Case 5 has |-y/x - 1| > cutoff, and x, y != 0 as R is nilpotent.
    ratio = -y / x
    log_ratio = cmath.log(ratio)
    if ratio.real < 0 and abs(ratio.imag) <= STABILITY_CUTOFF * abs(ratio):
        # On the branch cut up to rounding: the principal branch would
        # take +i*pi or -i*pi from the sign of a rounding error.
        log_ratio = complex(log_ratio.real, math.pi)
    z = log_ratio / ladder.gamma
    eps = (cmath.exp(-z * ladder.gamma) - 1.0) / x
    if abs(eps.imag) > tol.rtol * ladder.h_norm:
        raise NumericalError(f"eigenvalue shift {eps} is not real")
    return z, eps.real


def _partners(ladder: _Ladder, vectors: np.ndarray, eigenvalues: np.ndarray,
              coeffs, tol: Tolerance) -> List[PartnerRecord]:
    """Case-5 partners of the columns of ``vectors``, in M's eigenbasis.

    M is real diagonal there, so exp(-zM) psi scales each entry psi_i by
    exp(-z mu), mu the mean eigenvalue of the M-cluster of index i: O(n)
    per vector, each exp(-z mu) taken once per M-cluster.  chi's residual
    against V diag(w) V^dag, ||(w - E') o (V^T conj(chi))|| / ||chi||, is
    one gemm; chi itself is then dropped, as z fixes it.
    """
    zs, e_second = [], []
    for (x, y), eigenvalue in zip(coeffs, eigenvalues):
        z, eps = _ladder_exponent(complex(x), complex(y), ladder, tol)
        zs.append(z)
        e_second.append(float(eigenvalue + eps))
    # exp(-z mu) / exp(-Re(z) c), c the midpoint of the spectrum of M, so
    # M + dI cannot overflow it; the residual is relative to ||chi||.
    mu, z_re, z_im = ladder.m_spec.cluster_values[0], np.real(zs), np.imag(zs)
    chi = np.exp(-np.outer(mu - (mu[0] + mu[-1]) / 2, z_re)
                 - 1j * np.outer(mu, z_im))[ladder.m_spec.cluster_ids]
    chi *= vectors
    chi_norms = np.linalg.norm(chi, axis=0)
    w, v = ladder.h_spec.eigenvalues, ladder.h_spec.eigenvectors
    a = _unit(ladder.h_norm)  # w - E' over 2^a: no norm can overflow
    shifted = _times_block(v.T, np.conjugate(chi, out=chi))
    shifted *= (w[:, np.newaxis] - e_second) * 2.0 ** -a
    residuals = np.linalg.norm(shifted, axis=0) / chi_norms
    del shifted
    # Written as "not <=" so that a NaN residual fails the check too.
    bad = np.flatnonzero(~(residuals <= tol.rtol * ladder.h_norm * 2.0 ** -a))
    residuals = [float(residual) * 2.0 ** a for residual in residuals]
    if bad.size:
        raise NumericalError(
            f"partner residual {residuals[bad[0]]:.3e} exceeds tolerance")
    return [PartnerRecord(z=z, e_second=e_second[j], residual=residuals[j])
            for j, z in enumerate(zs)]


def scan_spectrum_stability(h_spec: SpectralDecomposition,
                            triple: GenSymTriple,
                            m_spec: SpectralDecomposition,
                            tol: Tolerance = DEFAULT_TOL) -> List[StabilityRecord]:
    """Classify every eigenvector of H, in index order.

    H is read only as h_spec, its eigendecomposition V diag(w) V^dag;
    triple.h0 is never read.  Algorithm: in M's eigenbasis
    (_m_eigenbasis), R is held as its ladder blocks, which map M-cluster
    b to the cluster at mu_b - gamma, or whole when an entry lies off
    them (_ladder_blocks: a dense M's W leaves rounding there).
    Eigenvectors are taken in column blocks of _BLOCK: per block, R V and
    R^dag V are block gemms on V's rows, the n x 3 rank tests are one
    stacked thin SVD, and the case-5 partners exp(-zM) psi are row
    scales, checked against V diag(w) V^dag at rtol ||H||_F = rtol ||w||
    by one gemm.
    Each record depends on its own eigenvector only, not on its block.

    Memory: besides the n x n operators, O(n * _BLOCK) workspace per
    block, so no (n, n, 3) stack is ever formed.
    """
    r = _in_m_basis(triple.r, m_spec) if m_spec.order is None else triple.r
    h_spec, m_spec = _m_eigenbasis(h_spec, m_spec)
    return _scan_stability(h_spec, _ladder_blocks(r, triple.gamma, m_spec),
                           triple.gamma, m_spec, tol)


def _scan_stability(h_spec: SpectralDecomposition, r: _Blocks,
                    gamma: float, m_spec: SpectralDecomposition,
                    tol: Tolerance) -> List[StabilityRecord]:
    """scan_spectrum_stability on the R and gamma of a triple in M's
    eigenbasis, R in H's units as _ladder_blocks holds it."""
    ladder = _ladder(h_spec, r, gamma, m_spec)
    records: List[StabilityRecord] = []
    for start in range(0, h_spec.dim, _BLOCK):
        stop = min(start + _BLOCK, h_spec.dim)
        records.extend(_classify_block(
            ladder, h_spec.eigenvectors[:, start:stop],
            h_spec.eigenvalues[start:stop], range(start, stop), tol))
    return records


def case_counts(records: List[StabilityRecord]) -> dict:
    """Summary histogram of primary cases; unstable counted under 0."""
    return dict(Counter(rec.primary_case or 0 for rec in records))
