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
from typing import Optional

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    TILE,
    Tolerance,
    _add_adjoint,
    _freeze,
    _times_m,
    fro,
)

GENUINE = "genuine"
CASE2 = "case2"
NO_GENSYM = "no_gensym"

# Bound on ||H0 - H0^dag|| / ||H|| for a verified triple.
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
    if not h.hermitian:
        raise ValueError(f"H ({h.label!r}) is not Hermitian within gate")
    if not m.hermitian:
        raise ValueError(f"M ({m.label!r}) is not Hermitian within gate")


def _commutator_chain(he: np.ndarray, m: Operator):
    """Yield C_1, C_2, ... with C_k = [C_{k-1}, M] and C_0 = H.

    For Hermitian H and M, C_k is anti-Hermitian for odd k and Hermitian
    for even k, so C_k = X - X^dag or X + X^dag with X = C_{k-1} M: one
    gemm per commutator (a column scale for a real diagonal M), and each
    C_k is exactly (anti-)Hermitian.  C_k is formed in place in the gemm's
    output, so the chain holds one n^2 array per commutator taken.  Lazy,
    so a caller pays only for the commutators it takes.
    """
    c = he
    for k in itertools.count(1):
        c = _times_m(c, m)
        yield _add_adjoint(c, -1 if k % 2 else 1, c)


def _fit_case2(c1: np.ndarray, c3: np.ndarray,
               out: Optional[np.ndarray] = None):
    """Least-squares fit of C3 = gamma^2 * C1 over real gamma^2.

    Returns (sqrt(max(gamma^2, 0)), ||C3 - gamma^2 C1|| / ||C3||): the
    residual is the sine of the angle between C1 and C3, unchanged when H
    or M is scaled.  The difference is formed by row blocks in ``out``, a
    new array when None; ``out`` may be c3 itself, then overwritten.
    """
    n1 = fro(c1)
    if n1 == 0.0:
        raise ValueError("the case-2 fit requires [H,M] != 0")
    try:
        n1_sq = n1 ** 2
    except OverflowError:
        raise NumericalError(
            f"the case-2 fit overflows: ||[H,M]||_F = {n1:.3e}") from None
    n3 = fro(c3)
    if n3 == 0.0:  # C1 != 0 implies C3 != 0 in exact arithmetic
        raise NumericalError("the case-2 fit underflows: C3 = 0, C1 != 0")
    gamma_sq = np.vdot(c1, c3).real / n1_sq
    if out is None:
        out = np.empty(c3.shape, np.result_type(c3, c1))
    step = max(1, TILE ** 2 // len(c3))
    for i in range(0, len(c3), step):
        rows = slice(i, i + step)
        np.subtract(c3[rows], gamma_sq * c1[rows], out=out[rows])
    return float(np.sqrt(max(gamma_sq, 0.0))), float(fro(out) / n3)


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
    n1, scale = fro(c1), fro(he) * fro(m.entries)
    if n1 <= tol.rtol * scale:  # so for a zero H or M, where C1 = 0
        return DetectionResult(kind=GENUINE,
                               residual=n1 / scale if n1 else 0.0), None

    c2 = next(chain)
    c3 = next(chain)
    # The fit's difference overwrites C3: detection holds C1, C2 and C3.
    gamma, residual = _fit_case2(c1, c3, out=c3)
    if gamma > 0 and residual <= tol.rtol:
        return DetectionResult(kind=CASE2, gamma1=gamma,
                               residual=residual), (c1, c2)
    return DetectionResult(kind=NO_GENSYM, residual=residual), None


def _commutes(commutator: np.ndarray, a: np.ndarray, b: np.ndarray,
              tol: Tolerance) -> bool:
    """||[A, B]|| <= rtol * ||A|| ||B||, given [A, B]."""
    return fro(commutator) <= tol.rtol * fro(a) * fro(b)


def _m_commutator(x: np.ndarray, m: Operator) -> np.ndarray:
    """[X, M] for a Hermitian X: Y - Y^dag with Y = X M."""
    y = _times_m(x, m)
    return _add_adjoint(y, -1, y)


def _commutes_h0(x: np.ndarray, h0: np.ndarray, bound: float) -> bool:
    """||[X, H0]|| <= ||X|| bound from two gemms, with bound = rtol ||H||:
    H0 is Hermitian only to H0_HERMITICITY_BOUND, and is measured against
    H, of which it is a part, as it may be pure rounding.

    With X = R^dag R or R R^dag, X H0 is cubic in the scale of H and
    overflows once H is scaled past about 1e103.  Only then, as in fro,
    are the gemms taken again on X' = X / ||X||_F.
    """
    scale = fro(x)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = fro(x @ h0 - h0 @ x)
    if norm < np.inf and scale * bound < np.inf:
        return norm <= scale * bound
    x = x / scale
    return fro(x @ h0 - h0 @ x) <= fro(x) * bound


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
    h_norm = fro(he)
    bound = tol.rtol * h_norm
    m_bound = bound * fro(me)  # for [H0, M] and [R, M] - gamma R
    residual_sum = fro(he - h0 - r - rd)
    residual_h0m = fro(_times_m(h0, m) - _times_m(h0, m, left=True))
    residual_ladder = fro((_times_m(r, m) - _times_m(r, m, left=True))
                          - triple.gamma * r)
    h0_herm = fro(_add_adjoint(h0, -1)) <= H0_HERMITICITY_BOUND * h_norm
    # With R ~ 0 the ladder relation holds for any gamma; flag it.
    degenerate = fro(r) <= bound
    return TripleReport(
        sum_ok=residual_sum <= bound,
        h0_commutes_ok=residual_h0m <= m_bound,
        ladder_ok=residual_ladder <= m_bound,
        h0_hermitian_ok=h0_herm,
        degenerate=degenerate,
        residual_sum=residual_sum,
        residual_h0m=residual_h0m,
        residual_ladder=residual_ladder,
        commutes_rdr_m=_commutes(_m_commutator(rdr, m), rdr, me, tol),
        commutes_rrd_m=_commutes(_m_commutator(rrd, m), rrd, me, tol),
        commutes_rdr_h0=_commutes_h0(rdr, h0, bound),
        commutes_rrd_h0=_commutes_h0(rrd, h0, bound),
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
