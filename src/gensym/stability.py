"""Stability classification of H-eigenvectors relative to a ladder triple.

An eigenvector psi is stable when {psi, R psi, R^dag psi} are linearly
dependent.  scan_spectrum_stability sorts every eigenvector of H into
five cases; in the generic case 5 it builds a partner chi = exp(-zM) psi
at a shifted eigenvalue.  GenSymTriple guarantees the real, nonzero gamma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .detection import GenSymTriple
from .operators import (
    DEFAULT_TOL,
    SpectralDecomposition,
    Tolerance,
    _m_basis,
    fro,
)

# Scale-free SVD rank cutoff sigma_3/sigma_1 and coefficient cutoff.
STABILITY_CUTOFF = 1e-8

# Eigenvectors classified together: bounds the stacked-SVD and gemm
# workspace at O(n * _BLOCK) whatever the dimension.
_BLOCK = 32


@dataclass(frozen=True, eq=False)
class PartnerRecord:
    """Case-5 partner eigenvector data."""

    z: complex
    chi: np.ndarray
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
    """What every stability test of one (triple, M) pair reads, built once."""

    h: np.ndarray
    h_norm: float
    r: np.ndarray
    r_dag: np.ndarray
    r_scale: float
    gamma: float
    m_spec: SpectralDecomposition


def _ladder(triple: GenSymTriple, m_spec: SpectralDecomposition) -> _Ladder:
    r = triple.r
    r_dag = r.conj().T
    h = triple.h0 + r + r_dag
    return _Ladder(h=h, h_norm=fro(h), r=r, r_dag=r_dag,
                   r_scale=max(1.0, fro(r)), gamma=triple.gamma,
                   m_spec=m_spec)


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
    """Cases of a stable vector from its null relation; normalised coeffs."""
    mx = max(abs(x), abs(y), abs(u))
    if abs(u) <= STABILITY_CUTOFF * mx:
        return {1}, (x, y, u)
    x, y = x / u, y / u
    cx = max(abs(x), abs(y), 1.0)
    cases = set()
    if abs(y) <= STABILITY_CUTOFF * cx:
        cases.add(2)
    if abs(x) <= STABILITY_CUTOFF * cx:
        cases.add(3)
    if abs(x + y) <= STABILITY_CUTOFF * cx:
        cases.add(4)
    return cases or {5}, (x, y, 1.0 + 0.0j)


def _classify_block(ladder: _Ladder, vectors: np.ndarray,
                    eigenvalues: np.ndarray, indices, tol: Tolerance,
                    ) -> List[StabilityRecord]:
    """Classify the columns of ``vectors`` with one gemm per operator."""
    residuals = np.linalg.norm(ladder.h @ vectors - vectors * eigenvalues,
                               axis=0)
    bad = np.flatnonzero(residuals > tol.gap(ladder.h_norm))
    if bad.size:
        raise ValueError(
            f"psi is not an eigenvector of H at E={eigenvalues[bad[0]]} "
            f"(residual {residuals[bad[0]]:.3e})")
    a = ladder.r @ vectors
    b = ladder.r_dag @ vectors
    bound = STABILITY_CUTOFF * ladder.r_scale
    r_annihilates = np.linalg.norm(a, axis=0) <= bound
    rd_annihilates = np.linalg.norm(b, axis=0) <= bound
    sum_annihilates = np.linalg.norm(a + b, axis=0) <= bound
    stable, xs, ys, us = _rank_tests(a, b, vectors)

    screened = []
    for j in range(len(eigenvalues)):
        coeffs = (complex(xs[j]), complex(ys[j]), complex(us[j]))
        screened.append(_screen(*coeffs) if stable[j] else ((), coeffs))
    case5 = [j for j, (cases, _) in enumerate(screened) if 5 in cases]
    partners = dict(zip(case5, _partners(
        ladder, vectors[:, case5], eigenvalues[case5],
        [screened[j][1][:2] for j in case5], tol)))

    return [
        StabilityRecord(
            index=index, eigenvalue=float(eigenvalues[j]),
            stable=bool(stable[j]), cases=tuple(sorted(cases)),
            primary_case=min(cases) if cases else None, coeffs=coeffs,
            r_annihilates=bool(r_annihilates[j]),
            rd_annihilates=bool(rd_annihilates[j]),
            sum_annihilates=bool(sum_annihilates[j]),
            partner=partners.get(j))
        for j, (index, (cases, coeffs)) in enumerate(zip(indices, screened))
    ]


def _ladder_exponent(x: complex, y: complex, gamma: float,
                     tol: Tolerance) -> Tuple[complex, float]:
    """z with exp(z*gamma) = -y/x, and the real eigenvalue shift."""
    # _screen passes only case-5 (x, y): x, y != 0 and |-y/x - 1| > cutoff.
    ratio = -y / x
    log_ratio = cmath.log(ratio)
    if ratio.real < 0 and abs(ratio.imag) <= STABILITY_CUTOFF * abs(ratio):
        # On the branch cut up to rounding: the principal branch would
        # take +i*pi or -i*pi from the sign of a rounding error.
        log_ratio = complex(log_ratio.real, math.pi)
    z = log_ratio / gamma
    eps = (cmath.exp(-z * gamma) - 1.0) / x
    if abs(eps.imag) > tol.gap(abs(eps)):
        raise ValueError(f"eigenvalue shift {eps} is not real")
    return z, eps.real


def _partners(ladder: _Ladder, vectors: np.ndarray, eigenvalues: np.ndarray,
              coeffs, tol: Tolerance) -> List[PartnerRecord]:
    """Case-5 partners of the columns of ``vectors``, with one gemm each way.

    exp(-zM) psi is applied in the eigenbasis of M as
    W diag(exp(-z mu)) W^dag psi, with mu the per-cluster value that
    matrix_function uses: O(n^2) per vector instead of O(n^3).  Each
    exp(-z mu) is taken once per M-cluster and repeated over its rows.
    For a real diagonal M both gemms are row gathers, so each entry psi_i
    is scaled by its own exp(-z mu_i).
    """
    zs, e_second = [], []
    for (x, y), eigenvalue in zip(coeffs, eigenvalues):
        z, eps = _ladder_exponent(complex(x), complex(y), ladder.gamma, tol)
        zs.append(z)
        e_second.append(float(eigenvalue + eps))
    mu, sizes = ladder.m_spec.cluster_values()
    phases = np.repeat(np.exp(-np.outer(mu, zs)), sizes, axis=0)
    chi = _m_basis(ladder.m_spec,
                   phases * _m_basis(ladder.m_spec, vectors), inverse=True)
    chi_norms = np.linalg.norm(chi, axis=0)
    residuals = np.linalg.norm(ladder.h @ chi - chi * e_second,
                               axis=0) / chi_norms
    bad = np.flatnonzero(residuals > tol.gap(ladder.h_norm))
    if bad.size:
        raise ValueError(
            f"partner residual {residuals[bad[0]]:.3e} exceeds tolerance")
    chi = np.ascontiguousarray((chi / chi_norms).T)
    return [PartnerRecord(z=z, chi=chi[j], e_second=e_second[j],
                          residual=float(residuals[j]))
            for j, z in enumerate(zs)]


def scan_spectrum_stability(h_spec: SpectralDecomposition,
                            triple: GenSymTriple,
                            m_spec: SpectralDecomposition,
                            tol: Tolerance = DEFAULT_TOL) -> List[StabilityRecord]:
    """Classify every eigenvector of H, in index order.

    Algorithm: H = H0 + R + R^dag, its norm and ||R|| are built once.
    Eigenvectors are then taken in column blocks of _BLOCK: per block,
    H V, R V and R^dag V are three gemms, every eigenvector residual is
    checked at once, the n x 3 rank tests are one stacked thin SVD, and
    the case-5 partners W diag(exp(-z mu)) W^dag psi and their residuals
    are three more gemms (one for a real diagonal M, whose W products are
    row gathers).
    Each record depends on its own eigenvector only, not on its block.

    Memory: besides the n x n operators, O(n * _BLOCK) workspace per
    block, so no (n, n, 3) stack is ever formed.
    """
    ladder = _ladder(triple, m_spec)
    records: List[StabilityRecord] = []
    for start in range(0, h_spec.dim, _BLOCK):
        stop = min(start + _BLOCK, h_spec.dim)
        records.extend(_classify_block(
            ladder, h_spec.eigenvectors[:, start:stop],
            h_spec.eigenvalues[start:stop], range(start, stop), tol))
    return records


def case_counts(records: List[StabilityRecord]) -> dict:
    """Summary histogram of primary cases; unstable counted under 0."""
    counts: dict = {}
    for rec in records:
        key = rec.primary_case if rec.stable else 0
        counts[key] = counts.get(key, 0) + 1
    return counts
