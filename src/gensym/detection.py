"""Detection of generalised symmetries via iterated-commutator fits.

A Hermitian M is a generalised symmetry of a Hermitian H when H splits as
H0 + R + R^dag with [H0, M] = 0 and [R, M] = gamma*R for some nonzero
gamma.  In finite dimension the spectrum of M is discrete, so gamma is
real (paper, Theorem 2).  The split is decided by fitting the third
nested commutator of H with M against the first, C3 = gamma^2 C1, and
the triple (H0, R, gamma) is then reconstructed in closed form.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    SpectralDecomposition,
    Tolerance,
    _freeze,
    _times_m,
    fro,
    is_hermitian,
    make_operator,
    matrix_function,
)

GENUINE = "genuine"
CASE2 = "case2"
NO_GENSYM = "no_gensym"

# H0 must be Hermitian within this relative bound for a verified triple.
H0_HERMITICITY_BOUND = 1e-10


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the commutator-relation fit for a pair (H, M)."""

    kind: str
    gamma1: float = 0.0
    residual: float = 0.0

    @property
    def gamma(self) -> float:
        return self.gamma1

    @property
    def real_gamma(self) -> bool:
        return self.kind == CASE2


def _real_nonzero(gamma) -> float:
    value = complex(gamma)
    if value.imag != 0.0 or value.real == 0.0 or not cmath.isfinite(value):
        raise ValueError(f"gamma must be real, finite and nonzero, got {gamma!r}")
    return value.real


@dataclass(frozen=True, eq=False)
class GenSymTriple:
    """Reconstructed (H0, R, gamma) as two read-only arrays and a float.

    The arrays are stored as make_operator stores entries.  gamma is real,
    finite and nonzero; any other gamma raises ValueError.  verify_triple
    grades the triple against (H, M).
    """

    h0: np.ndarray
    r: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "h0", _freeze(self.h0))
        object.__setattr__(self, "r", _freeze(self.r))
        object.__setattr__(self, "gamma", _real_nonzero(self.gamma))


def _require_hermitian_pair(h: Operator, m: Operator):
    if h.dim != m.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {m.dim}")
    if not is_hermitian(h.entries):
        raise ValueError(f"H ({h.label!r}) is not Hermitian within gate")
    if not is_hermitian(m.entries):
        raise ValueError(f"M ({m.label!r}) is not Hermitian within gate")


def _commutator_chain(he: np.ndarray, m: Operator):
    """Yield C_1, C_2, ... with C_k = [C_{k-1}, M] and C_0 = H.

    For Hermitian H and M, C_k is anti-Hermitian for odd k and Hermitian
    for even k, so C_k = X - X^dag or X + X^dag with X = C_{k-1} M: one
    gemm per commutator (a column scale for a real diagonal M), and each
    C_k is exactly (anti-)Hermitian.  Lazy, so a caller pays only for the
    commutators it takes.
    """
    c = he
    for k in itertools.count(1):
        c = _times_m(c, m)
        if k % 2:
            c -= c.conj().T
        else:
            c += c.conj().T
        yield c


def _fit_case2(c1: np.ndarray, c3: np.ndarray, tol: Tolerance):
    """Least-squares fit of C3 = gamma^2 * C1 over real gamma^2.

    Returns (gamma, residual) with gamma >= 0; gamma is NaN when gamma^2
    is not above max(atol, 1e-10) (the fit is then rejected).
    """
    n1 = fro(c1)
    if n1 == 0.0:
        raise ValueError("the case-2 fit requires [H,M] != 0")
    try:
        n1_sq = n1 ** 2
    except OverflowError:
        raise NumericalError(
            f"the case-2 fit overflows: ||[H,M]||_F = {n1:.3e}") from None
    gamma_sq = np.vdot(c1, c3).real / n1_sq
    residual = float(fro(c3 - gamma_sq * c1) / max(fro(c3), n1, tol.atol))
    if gamma_sq <= max(tol.atol, 1e-10):
        return float("nan"), residual
    return float(np.sqrt(gamma_sq)), residual


def detect(h: Operator, m: Operator, tol: Tolerance = DEFAULT_TOL) -> DetectionResult:
    """Classify M against H: genuine symmetry, case 2, or neither."""
    return _detect(h, m, tol)[0]


def _detect(h: Operator, m: Operator, tol: Tolerance):
    """detect, plus the commutators (C1, C2) when the verdict is case 2.

    The commutators are what reconstruction needs, so a caller that goes
    on to reconstruct does not form them again; for any other verdict
    they are dropped here.
    """
    _require_hermitian_pair(h, m)
    he = h.entries
    chain = _commutator_chain(he, m)
    c1 = next(chain)
    genuine_scale = max(1.0, fro(he) * fro(m.entries))
    genuine_residual = fro(c1) / genuine_scale
    if genuine_residual <= tol.rtol:
        return DetectionResult(kind=GENUINE, residual=genuine_residual), None

    c2 = next(chain)
    gamma, residual = _fit_case2(c1, next(chain), tol)
    if not np.isnan(gamma) and residual <= tol.rtol:
        return DetectionResult(kind=CASE2, gamma1=gamma,
                               residual=residual), (c1, c2)
    return DetectionResult(kind=NO_GENSYM, residual=residual), None


def _commutes(commutator: np.ndarray, a: np.ndarray, b: np.ndarray,
              tol: Tolerance) -> bool:
    """||[A, B]|| <= rtol * max(1, ||A|| ||B||), given [A, B]."""
    return fro(commutator) <= tol.rtol * max(1.0, fro(a) * fro(b))


def _m_commutator(x: np.ndarray, m: Operator) -> np.ndarray:
    """[X, M] for a Hermitian X: Y - Y^dag with Y = X M."""
    y = _times_m(x, m)
    y -= y.conj().T
    return y


def reconstruct_case2(h: Operator, m: Operator, gamma: float,
                      tol: Tolerance = DEFAULT_TOL) -> GenSymTriple:
    """Closed-form (H0, R) for case 2 from the first two commutators.

    ``tol`` is not read: verify_triple grades the triple.
    """
    c1, c2 = itertools.islice(_commutator_chain(h.entries, m), 2)
    return _reconstruct_case2(h.entries, c1, c2, gamma)


def _reconstruct_case2(he: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                       gamma: float) -> GenSymTriple:
    """reconstruct_case2 from H and the commutators C1 and C2 already formed.

    With C1 = gamma (R - R^dag) and C2 = gamma^2 (R + R^dag):
    R = (C2 + gamma C1) / (2 gamma^2) and H0 = H - C2 / gamma^2.
    """
    gamma = _real_nonzero(gamma)
    gamma_sq = gamma ** 2
    r = (c2 + gamma * c1) / (2.0 * gamma_sq)
    h0 = (-c2 + gamma_sq * he) / gamma_sq
    return GenSymTriple(h0=h0, r=r, gamma=gamma)


@dataclass(frozen=True)
class TripleReport:
    """Per-condition verification of a GenSymTriple.

    The commutes_* flags report whether R^dag R and R R^dag commute with
    M and H0; they are informational and do not enter ``passed``.
    """

    sum_ok: bool
    h0_commutes_ok: bool
    ladder_ok: bool
    h0_hermitian_ok: bool
    degenerate: bool
    residual_sum: float
    residual_h0m: float
    residual_ladder: float
    commutes_rdr_m: bool
    commutes_rrd_m: bool
    commutes_rdr_h0: bool
    commutes_rrd_h0: bool

    @property
    def passed(self) -> bool:
        return (self.sum_ok and self.h0_commutes_ok and self.ladder_ok
                and self.h0_hermitian_ok)


def verify_triple(h: Operator, m: Operator, triple: GenSymTriple,
                  tol: Tolerance = DEFAULT_TOL) -> TripleReport:
    """Recompute the triple residuals against (H, M) and grade each one."""
    h0, r = triple.h0, triple.r
    if not (h0.shape == r.shape == (h.dim, h.dim) and h.dim == m.dim):
        raise ValueError("dimension mismatch between (H, M) and triple")
    he, me = h.entries, m.entries
    rd = r.conj().T
    rdr = rd @ r
    rrd = r @ rd
    bound = tol.rtol * max(1.0, fro(he))
    residual_sum = fro(he - h0 - r - rd)
    residual_h0m = fro(_times_m(h0, m) - _times_m(h0, m, left=True))
    residual_ladder = fro((_times_m(r, m) - _times_m(r, m, left=True))
                          - triple.gamma * r)
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
        commutes_rdr_m=_commutes(_m_commutator(rdr, m), rdr, me, tol),
        commutes_rrd_m=_commutes(_m_commutator(rrd, m), rrd, me, tol),
        # H0 is Hermitian only to H0_HERMITICITY_BOUND: two gemms.
        commutes_rdr_h0=_commutes(rdr @ h0 - h0 @ rdr, rdr, h0, tol),
        commutes_rrd_h0=_commutes(rrd @ h0 - h0 @ rrd, rrd, h0, tol),
    )


def canonicalize(triple: GenSymTriple) -> GenSymTriple:
    """Resolve the R <-> R^dag ambiguity: make gamma positive.

    If [R, M] = gamma*R then [R^dag, M] = -gamma*R^dag for real gamma, so
    swapping (gamma, R) -> (-gamma, R^dag) maps a valid triple to a valid
    one.  Idempotent.
    """
    if triple.gamma > 0:
        return triple
    return replace(triple, r=triple.r.conj().T, gamma=-triple.gamma)


def similarity_transform(triple: GenSymTriple, m_spec: SpectralDecomposition,
                         z: complex, tol: Tolerance = DEFAULT_TOL) -> Operator:
    """Spectrum-preserving conjugation exp(-zM) H exp(zM).

    Computed two ways: directly through matrix functions of M, and as
    H0 + exp(z*gamma) R + exp(-z*gamma) R^dag.  The two must agree
    within rtol; the ladder form is returned.
    """
    z = complex(z)
    gamma = triple.gamma
    h0, r = triple.h0, triple.r
    h = h0 + r + r.conj().T
    ladder = (h0 + cmath.exp(z * gamma) * r
              + cmath.exp(-z * gamma) * r.conj().T)
    e_minus = matrix_function(m_spec, lambda lam: cmath.exp(-z * lam)).entries
    e_plus = matrix_function(m_spec, lambda lam: cmath.exp(z * lam)).entries
    direct = e_minus @ h @ e_plus
    deviation = fro(direct - ladder)
    if deviation > tol.rtol * max(1.0, fro(direct), fro(ladder)):
        raise NumericalError(
            f"direct and ladder-form transforms disagree by {deviation:.3e}")
    return make_operator(len(h0), ladder, "transformed")
