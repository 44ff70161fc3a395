"""Detection of generalised symmetries via iterated-commutator fits.

A Hermitian M is a generalised symmetry of a Hermitian H when H splits as
H0 + R + R^dag with [H0, M] = 0 and [R, M] = gamma*R for some nonzero
complex gamma.  The split is decided by fitting the second and third
nested commutators of H with M against the first, and the triple
(H0, R, gamma) is then reconstructed in closed form.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    SpectralDecomposition,
    Tolerance,
    fro,
    frobenius_inner,
    is_hermitian,
    make_operator,
    matrix_function,
)

GENUINE = "genuine"
CASE1 = "case1"
CASE2 = "case2"
NO_GENSYM = "no_gensym"

# Gram condition number above which the two-parameter fit is flagged.
CONDITIONING_LIMIT = 1e8

# H0 must be Hermitian within this relative bound for a verified triple.
H0_HERMITICITY_BOUND = 1e-10


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the commutator-relation fit for a pair (H, M)."""

    kind: str
    gamma1: float = 0.0
    gamma2: float = 0.0
    residual: float = 0.0
    conditioning_flag: bool = False

    @property
    def gamma(self) -> complex:
        return complex(self.gamma1, self.gamma2)

    @property
    def real_gamma(self) -> bool:
        return self.kind == CASE2 and abs(self.gamma2) <= 1e-6 * max(1.0, abs(self.gamma1))


@dataclass(frozen=True)
class GenSymTriple:
    """Reconstructed (H0, R, gamma).

    verify_triple grades the triple against (H, M).  The commutes_* flags
    report whether R^dag R and R R^dag commute with M and H0
    (informational only).
    """

    h0: Operator
    r: Operator
    gamma: complex
    commutes_rdr_m: bool
    commutes_rrd_m: bool
    commutes_rdr_h0: bool
    commutes_rrd_h0: bool
    degenerate: bool = False


def _require_hermitian_pair(h: Operator, m: Operator):
    if h.dim != m.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {m.dim}")
    if not is_hermitian(h.entries):
        raise ValueError(f"H ({h.label!r}) is not Hermitian within gate")
    if not is_hermitian(m.entries):
        raise ValueError(f"M ({m.label!r}) is not Hermitian within gate")


def _commutator_chain(he: np.ndarray, me: np.ndarray):
    """Yield C_1, C_2, ... with C_k = [C_{k-1}, M] and C_0 = H.

    For Hermitian H and M, C_k is anti-Hermitian for odd k and Hermitian
    for even k, so C_k = X - X^dag or X + X^dag with X = C_{k-1} M: one
    gemm per commutator, and each C_k is exactly (anti-)Hermitian.
    Lazy, so a caller pays only for the commutators it takes.
    """
    c = he
    for k in itertools.count(1):
        c = c @ me
        if k % 2:
            c -= c.conj().T
        else:
            c += c.conj().T
        yield c


def fit_case2(c1: Operator, c2: Operator, c3: Operator,
              tol: Tolerance = DEFAULT_TOL):
    """Least-squares fit of C3 = 2i*g2*C2 + (g1^2 + g2^2)*C1.

    Solves for real (alpha, beta) in C3 = i*alpha*C2 + beta*C1 using the
    real part of the Frobenius inner product, then maps to
    gamma2 = alpha/2, gamma1^2 = beta - gamma2^2.  Returns
    (gamma1, gamma2, residual, conditioning); gamma1 is NaN when the
    gamma1^2 floor fails (the fit is then rejected).
    """
    return _fit_case2(c1.entries, c2.entries, c3.entries, tol)


def _fit_case2(c1: np.ndarray, c2: np.ndarray, c3: np.ndarray,
               tol: Tolerance):
    n1 = fro(c1)
    if n1 == 0.0:
        raise ValueError("fit_case2 requires [H,M] != 0")
    b1 = 1j * c2
    b2 = c1
    gram = np.array([
        [np.vdot(b1, b1).real, np.vdot(b1, b2).real],
        [np.vdot(b2, b1).real, np.vdot(b2, b2).real],
    ])
    rhs = np.array([np.vdot(b1, c3).real, np.vdot(b2, c3).real])
    conditioning = bool(np.linalg.cond(gram) > CONDITIONING_LIMIT)
    alpha, beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    gamma2 = alpha / 2.0
    gamma1_sq = beta - gamma2 ** 2
    denom = max(fro(c3), n1, tol.atol)
    residual = fro(c3 - 1j * alpha * c2 - beta * c1) / denom
    if gamma1_sq <= max(tol.atol, 1e-10 * (gamma2 ** 2 + 1.0)):
        return float("nan"), gamma2, residual, conditioning
    return float(np.sqrt(gamma1_sq)), float(gamma2), float(residual), conditioning


def fit_case1(c1: Operator, c2: Operator, tol: Tolerance = DEFAULT_TOL):
    """Least-squares fit of C2 = i*gamma2*C1 over real gamma2."""
    return _fit_case1(c1.entries, c2.entries, tol)


def _fit_case1(c1: np.ndarray, c2: np.ndarray, tol: Tolerance):
    n1 = fro(c1)
    if n1 == 0.0:
        raise ValueError("fit_case1 requires [H,M] != 0")
    gamma2 = np.vdot(1j * c1, c2).real / (n1 ** 2)
    denom = max(fro(c2), n1, tol.atol)
    residual = fro(c2 - 1j * gamma2 * c1) / denom
    return float(gamma2), float(residual)


def detect(h: Operator, m: Operator, tol: Tolerance = DEFAULT_TOL) -> DetectionResult:
    """Classify M against H: genuine symmetry, case 1, case 2, or neither.

    Fit order is genuine -> case 2 -> case 1.  Case 2 is preferred because
    for Hermitian pairs in finite dimension an accepted case 1 with
    gamma2 != 0 collapses to a genuine symmetry (trace argument).
    """
    return _detect(h, m, tol)[0]


def _detect(h: Operator, m: Operator, tol: Tolerance):
    """detect, plus the commutators (C1, C2) when the verdict is case 2.

    The commutators are what reconstruction needs, so a caller that goes
    on to reconstruct does not form them again; for any other verdict
    they are dropped here.
    """
    _require_hermitian_pair(h, m)
    he, me = h.entries, m.entries
    chain = _commutator_chain(he, me)
    c1 = next(chain)
    genuine_scale = max(1.0, fro(he) * fro(me))
    genuine_residual = fro(c1) / genuine_scale
    if genuine_residual <= tol.rtol:
        return DetectionResult(kind=GENUINE, residual=genuine_residual), None

    c2 = next(chain)
    c3 = next(chain)
    g1, g2, res2, conditioning = _fit_case2(c1, c2, c3, tol)
    if not np.isnan(g1) and res2 <= tol.rtol:
        result = DetectionResult(kind=CASE2, gamma1=g1, gamma2=g2,
                                 residual=res2, conditioning_flag=conditioning)
        return result, (c1, c2)

    g2_only, res1 = _fit_case1(c1, c2, tol)
    if abs(g2_only) > tol.atol and res1 <= tol.rtol:
        return DetectionResult(kind=CASE1, gamma2=g2_only, residual=res1,
                               conditioning_flag=conditioning), None

    return DetectionResult(kind=NO_GENSYM, residual=min(res2, res1),
                           conditioning_flag=conditioning), None


def _commutes(a: np.ndarray, b: np.ndarray, tol: Tolerance,
              hermitian: bool = False) -> bool:
    """||[A, B]|| <= rtol * max(1, ||A|| ||B||).

    With ``hermitian`` set, both operands are Hermitian by construction,
    so [A, B] = X - X^dag with X = AB: one gemm instead of two.
    """
    x = a @ b
    x -= x.conj().T if hermitian else b @ a
    return fro(x) <= tol.rtol * max(1.0, fro(a) * fro(b))


def _build_triple(h: Operator, m: Operator, h0: np.ndarray, r: np.ndarray,
                  gamma: complex, tol: Tolerance,
                  degenerate: bool = False) -> GenSymTriple:
    me = m.entries
    rd = r.conj().T
    rdr = rd @ r
    rrd = r @ rd
    return GenSymTriple(
        h0=make_operator(h.dim, h0, f"H0[{h.label}]"),
        r=make_operator(h.dim, r, f"R[{h.label}]"),
        gamma=complex(gamma),
        commutes_rdr_m=_commutes(rdr, me, tol, hermitian=True),
        commutes_rrd_m=_commutes(rrd, me, tol, hermitian=True),
        # H0 is Hermitian only to H0_HERMITICITY_BOUND: two gemms.
        commutes_rdr_h0=_commutes(rdr, h0, tol),
        commutes_rrd_h0=_commutes(rrd, h0, tol),
        degenerate=degenerate,
    )


def reconstruct_case2(h: Operator, m: Operator, gamma: complex,
                      tol: Tolerance = DEFAULT_TOL) -> GenSymTriple:
    """Closed-form (H0, R) for case 2 from the first two commutators."""
    return _reconstruct_case2(h, m, _commutator_chain(h.entries, m.entries),
                              gamma, tol)


def _reconstruct_case2(h: Operator, m: Operator, commutators,
                       gamma: complex, tol: Tolerance) -> GenSymTriple:
    """reconstruct_case2 from the first two of ``commutators`` (C1, C2)."""
    gamma = complex(gamma)
    gamma1, gamma2 = gamma.real, gamma.imag
    if gamma1 == 0.0:
        raise ValueError("reconstruct_case2 requires Re(gamma) != 0")
    c1, c2 = itertools.islice(commutators, 2)
    mod_sq = abs(gamma) ** 2
    if gamma2 == 0.0 and not np.iscomplexobj(c1):
        # Real (C1, C2) and real gamma: real coefficients keep R and H0
        # real, where complex scalars with zero imaginary part would not.
        r = (gamma1 / (2.0 * gamma1 * mod_sq)) * (c2 + gamma1 * c1)
        h0 = (-c2 + mod_sq * h.entries) / mod_sq
    else:
        conj = gamma.conjugate()
        r = (conj / (2.0 * gamma1 * mod_sq)) * (c2 + conj * c1)
        h0 = (-c2 + 2j * gamma2 * c1 + mod_sq * h.entries) / mod_sq
    return _build_triple(h, m, h0, r, gamma, tol)


def reconstruct_case1(h: Operator, m: Operator, gamma2: float,
                      tol: Tolerance = DEFAULT_TOL) -> GenSymTriple:
    """Hermitian R = R^dag reconstruction for case 1 (gamma = i*gamma2)."""
    if gamma2 == 0.0:
        raise ValueError("reconstruct_case1 requires gamma2 != 0")
    he, me = h.entries, m.entries
    c1 = next(_commutator_chain(he, me))
    h0 = (1j / gamma2) * c1 + he
    r = (-1j / (2.0 * gamma2)) * c1
    degenerate = fro(c1) <= tol.rtol * max(1.0, fro(he) * fro(me))
    return _build_triple(h, m, h0, r, 1j * gamma2, tol, degenerate=degenerate)


@dataclass(frozen=True)
class TripleReport:
    """Per-condition verification of a GenSymTriple."""

    sum_ok: bool
    h0_commutes_ok: bool
    ladder_ok: bool
    h0_hermitian_ok: bool
    degenerate: bool
    residual_sum: float
    residual_h0m: float
    residual_ladder: float

    @property
    def passed(self) -> bool:
        return (self.sum_ok and self.h0_commutes_ok and self.ladder_ok
                and self.h0_hermitian_ok)


def verify_triple(h: Operator, m: Operator, triple: GenSymTriple,
                  tol: Tolerance = DEFAULT_TOL) -> TripleReport:
    """Recompute the triple residuals against (H, M) and grade each one."""
    if not (h.dim == m.dim == triple.h0.dim == triple.r.dim):
        raise ValueError("dimension mismatch between (H, M) and triple")
    he, me = h.entries, m.entries
    h0, r = triple.h0.entries, triple.r.entries
    bound = tol.rtol * max(1.0, fro(he))
    residual_sum = fro(he - h0 - r - r.conj().T)
    residual_h0m = fro(h0 @ me - me @ h0)
    residual_ladder = fro((r @ me - me @ r) - triple.gamma * r)
    h0_herm = fro(h0 - h0.conj().T) <= H0_HERMITICITY_BOUND * max(1.0, fro(h0))
    # With R ~ 0 the ladder relation holds for any gamma; flag it.
    degenerate = fro(r) <= tol.rtol * max(1.0, fro(he))
    return TripleReport(
        sum_ok=residual_sum <= bound,
        h0_commutes_ok=residual_h0m <= bound,
        ladder_ok=residual_ladder <= bound,
        h0_hermitian_ok=h0_herm,
        degenerate=degenerate,
        residual_sum=residual_sum,
        residual_h0m=residual_h0m,
        residual_ladder=residual_ladder,
    )


def canonicalize(triple: GenSymTriple) -> GenSymTriple:
    """Resolve the R <-> R^dag ambiguity: make Re(gamma) positive.

    If [R, M] = gamma*R then [R^dag, M] = -conj(gamma)*R^dag, so swapping
    (gamma, R) -> (-conj(gamma), R^dag) maps a valid triple to a valid one.
    Idempotent.
    """
    if triple.gamma.real >= 0:
        return triple
    r_dag = make_operator(triple.r.dim, triple.r.entries.conj().T, triple.r.label)
    return replace(
        triple,
        r=r_dag,
        gamma=-triple.gamma.conjugate(),
        commutes_rdr_m=triple.commutes_rrd_m,
        commutes_rrd_m=triple.commutes_rdr_m,
        commutes_rdr_h0=triple.commutes_rrd_h0,
        commutes_rrd_h0=triple.commutes_rdr_h0,
    )


def similarity_transform(triple: GenSymTriple, m_spec: SpectralDecomposition,
                         z: complex, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Spectrum-preserving conjugation exp(-zM) H exp(zM).

    Computed two ways: directly through matrix functions of M, and as
    H0 + exp(z*gamma) R + exp(-z*conj(gamma)) R^dag.  The two must agree
    within rtol; the ladder form is returned.
    """
    z = complex(z)
    gamma = triple.gamma
    h0, r = triple.h0.entries, triple.r.entries
    h = h0 + r + r.conj().T
    ladder = (h0 + cmath.exp(z * gamma) * r
              + cmath.exp(-z * gamma.conjugate()) * r.conj().T)
    e_minus = matrix_function(m_spec, lambda lam: cmath.exp(-z * lam)).entries
    e_plus = matrix_function(m_spec, lambda lam: cmath.exp(z * lam)).entries
    direct = e_minus @ h @ e_plus
    deviation = fro(direct - ladder)
    if deviation > tol.rtol * max(1.0, fro(direct), fro(ladder)):
        raise NumericalError(
            f"direct and ladder-form transforms disagree by {deviation:.3e}")
    return make_operator(triple.h0.dim, ladder, "transformed")
