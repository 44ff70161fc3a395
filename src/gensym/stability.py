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
    _m_basis,
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
    r: np.ndarray
    r_dag: np.ndarray
    r_norm: float  # ||R||_F, the ladder unit; 1.0 for a zero R
    gamma: float
    m_spec: SpectralDecomposition
    mu: np.ndarray
    sizes: np.ndarray


def _ladder(h_spec: SpectralDecomposition, r: np.ndarray, gamma: float,
            m_spec: SpectralDecomposition) -> _Ladder:
    mu, sizes = m_spec.cluster_values()
    return _Ladder(h_spec=h_spec, h_norm=fro(h_spec.eigenvalues), r=r,
                   r_dag=r.conj().T, r_norm=fro(r) or 1.0,
                   gamma=gamma, m_spec=m_spec, mu=mu, sizes=sizes)


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
    """Classify the columns of ``vectors`` with one gemm per operator."""
    a, b = (ladder.r @ vectors / ladder.r_norm,
            ladder.r_dag @ vectors / ladder.r_norm)
    r_annihilates, rd_annihilates, sum_annihilates = (
        np.linalg.norm(v, axis=0) <= STABILITY_CUTOFF for v in (a, b, a + b))
    stable, xs, ys, us = _rank_tests(a, b, vectors)

    # Screened as x a + y b = u psi, recorded as x R psi + y R^dag psi = u psi.
    cases, coeffs = [], []
    for j in range(len(eigenvalues)):
        raw = (complex(xs[j]), complex(ys[j]), complex(us[j]))
        case, (x, y, u) = _screen(*raw) if stable[j] else (None, raw)
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
    """Case-5 partners of the columns of ``vectors``, with one gemm each way.

    exp(-zM) psi is applied in the eigenbasis of M as
    W diag(exp(-z mu)) W^dag psi, with mu the mean eigenvalue of each
    M-cluster: O(n^2) per vector instead of O(n^3).  Each
    exp(-z mu) is taken once per M-cluster and repeated over its rows.
    For a real diagonal M both gemms are row gathers, so each entry psi_i
    is scaled by its own exp(-z mu_i).  chi's residual against
    V diag(w) V^dag, ||(w - E') o (V^T conj(chi))|| / ||chi||, is one gemm;
    chi itself is then dropped, as z fixes it.
    """
    zs, e_second = [], []
    for (x, y), eigenvalue in zip(coeffs, eigenvalues):
        z, eps = _ladder_exponent(complex(x), complex(y), ladder, tol)
        zs.append(z)
        e_second.append(float(eigenvalue + eps))
    # exp(-z mu) / exp(-Re(z) c), c the midpoint of the spectrum of M, so
    # M + dI cannot overflow it; the residual is relative to ||chi||.
    mu, z_re, z_im = ladder.mu, np.real(zs), np.imag(zs)
    phases = np.repeat(np.exp(-np.outer(mu - (mu[0] + mu[-1]) / 2, z_re)
                              - 1j * np.outer(mu, z_im)),
                       ladder.sizes, axis=0)
    # Products are formed in place in one operand's buffer, each entry
    # the whole-array expression's.
    phases *= _m_basis(ladder.m_spec, vectors)
    chi = _m_basis(ladder.m_spec, phases, inverse=True)
    del phases
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
    triple.h0 is never read.  Algorithm: ||H||_F = ||w|| (every residual
    gate accepts up to rtol ||H||_F), ||R||_F and the M-cluster means are
    taken once.  Eigenvectors are then taken in column blocks of _BLOCK:
    per block, R V and R^dag V are two gemms, the n x 3 rank tests are one
    stacked thin SVD, and the case-5 partners W diag(exp(-z mu)) W^dag psi
    and their residuals against V diag(w) V^dag are three more gemms (one
    for a real diagonal M, whose W products are row gathers).
    Each record depends on its own eigenvector only, not on its block.

    Memory: besides the n x n operators, O(n * _BLOCK) workspace per
    block, so no (n, n, 3) stack is ever formed.
    """
    return _scan_stability(h_spec, triple.r, triple.gamma, m_spec, tol)


def _scan_stability(h_spec: SpectralDecomposition, r: np.ndarray,
                    gamma: float, m_spec: SpectralDecomposition,
                    tol: Tolerance) -> List[StabilityRecord]:
    """scan_spectrum_stability on the R and gamma of a triple, R in H's
    units."""
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
