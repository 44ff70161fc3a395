"""Detection of generalised symmetries via iterated-commutator fits.

A Hermitian M is a generalised symmetry of a Hermitian H when H splits as
H0 + R + R^dag with [H0, M] = 0 and [R, M] = gamma*R for some nonzero
gamma.  In finite dimension the spectrum of M is discrete, so gamma is
real (paper, Theorem 2).  The split is decided by fitting the third
nested commutator of H with M against the first, C3 = gamma^2 C1, and
the triple (H0, R, gamma) is then reconstructed in closed form.

Both run on (H / 2^a, M / 2^b), with 2^a and 2^b just above ||H||_F and
||M||_F.  The relation is homogeneous and a power-of-two scale is exact,
so every bit of the result is that of the unscaled arithmetic wherever
that stays inside the float range, and is defined far beyond it.

A dense pair from SCREEN_MIN_DIM on is first screened by PROBES seeded
random vectors V (Freivalds' check): C1 V and C3 V come from thin
products with H and M alone, and the pair is rejected as no_gensym,
with no commutator formed, only when neither the genuine gate nor the
case-2 fit can hold for (C1, C3) but with chance below 2^-40.  Any other
pair goes on to the exact fit, whose result the screen leaves bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
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
    _skew_norm,
    _stored_units,
    _times_block,
    _times_m,
    _unit,
    fro,
)

GENUINE = "genuine"
CASE2 = "case2"
NO_GENSYM = "no_gensym"

# Bound on ||H0 - H0^dag|| / ||H|| for a verified triple.
H0_HERMITICITY_BOUND = 1e-10

# Complex Gaussian probe columns of the no_gensym screen, drawn from a
# fixed seed so that a report is byte-deterministic.
PROBES = 8
PROBE_SEED = 20111014

# For V of PROBES columns whose entries have N(0, 1) real and imaginary
# parts, ||X V||_F^2 / (2 PROBES ||X||_F^2) is a mean of Gamma(PROBES) /
# PROBES variables weighted by the squared singular values of X.  Its
# log-MGF is convex in the weights, so rank one is the worst case for
# both tails, where the Chernoff bounds read
# P(ratio >= x), P(ratio <= x) <= (x e^(1 - x))^PROBES.  PROBE_UPPER and
# PROBE_LOWER solve (x e^(1 - x))^8 = 2^-41: each tail has chance below
# 2^-41, so the screen rejects a pair the exact fit accepts with chance
# below 2^-40.
PROBE_UPPER = 6.410282668357736
PROBE_LOWER = 0.01065501844926679
# A probe fit residual above PROBE_MARGIN * rtol rejects case 2 (24.5).
PROBE_MARGIN = math.sqrt(PROBE_UPPER / PROBE_LOWER)

# The screen takes 10 products of an n x n operand by an n x PROBES
# block (M V, M^2 V, M^3 V, H [V, MV, M^2 V, M^3 V] and three more by M),
# 10 PROBES n^2 multiply-adds against the exact chain's 3 n^3, but thin
# products run far below a square gemm's rate.  It runs from where, timed
# on one BLAS thread, it costs at most a third of the chain on a dense
# case-2 pair that it passes on: screen / chain was 0.38-0.42 at n = 128
# and 0.27-0.30 at n = 160 for a complex pair, and 0.29-0.38 at n = 256
# and 0.27-0.30 at n = 320 for a real pair, whose products with the
# complex probes take 2 PROBES real columns and whose chain is real.
SCREEN_MIN_DIM = 20 * PROBES
SCREEN_MIN_DIM_REAL = 2 * SCREEN_MIN_DIM


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of the commutator-relation fit for a pair (H, M)."""

    kind: str
    gamma1: float = 0.0
    residual: float = 0.0
    # no_gensym by the probe screen; residual is then the probes' fit's.
    screened: bool = False

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


def _commutator_chain(he: np.ndarray, m: Operator, a: int = 0, b: int = 0):
    """Yield C_1, C_2, ... with C_k = [C_{k-1}, M / 2^b], C_0 = H / 2^a.

    For Hermitian H and M, C_k is anti-Hermitian for odd k and Hermitian
    for even k, so C_k = X - X^dag or X + X^dag with X = C_{k-1} M / 2^b:
    one gemm per commutator (a column scale for a real diagonal M), and
    each C_k is exactly (anti-)Hermitian.  C_k is formed in place in the
    gemm's output, so the chain holds one n^2 array per commutator taken
    (H / 2^a is dropped once C_1 exists).  Lazy, so a caller pays only
    for the commutators it takes.
    """
    c = he * 2.0 ** -a
    for k in itertools.count(1):
        c = _times_m(c, m)
        c *= 2.0 ** -b
        yield _add_adjoint(c, -1 if k % 2 else 1)


def _fit_case2(c1: np.ndarray, c3: np.ndarray,
               out: Optional[np.ndarray] = None):
    """Least-squares fit of C3 = gamma^2 * C1 over real gamma^2.

    Returns (sqrt(max(gamma^2, 0)), ||C3 - gamma^2 C1|| / ||C3||): the
    residual is the sine of the angle between C1 and C3, unchanged when H
    or M is scaled.  The difference is formed by row blocks in ``out``, a
    new array when None; ``out`` may be c3 itself, then overwritten.
    C1 != 0: both callers fit only once ||C1|| has passed a gate.
    """
    n1 = fro(c1)
    n3 = fro(c3)
    if n3 == 0.0:  # C1 != 0 implies C3 != 0 in exact arithmetic
        raise NumericalError("the case-2 fit underflows: C3 = 0, C1 != 0")
    gamma_sq = np.vdot(c1, c3).real / n1 ** 2
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
    """detect, plus (C1, C2, a, b) when the verdict is case 2.

    C1 and C2 are the commutators of (H / 2^a, M / 2^b) that
    reconstruction needs, so a caller that goes on to reconstruct does not
    form them again; for any other verdict they are dropped here.  A pair
    the probe screen rejects is no_gensym with ``screened`` set, its
    residual the probes' fit residual, and forms no commutator.
    """
    _require_hermitian_pair(h, m)
    a, b = _unit(h.norm), _unit(m.norm)
    scale = math.ldexp(h.norm, -a) * math.ldexp(m.norm, -b)
    real = not (np.iscomplexobj(h.entries) or np.iscomplexobj(m.entries))
    cutoff = SCREEN_MIN_DIM_REAL if real else SCREEN_MIN_DIM
    # A real diagonal M makes the exact chain O(n^2): no screen.
    if m.real_diagonal is None and h.dim >= cutoff:
        residual = _probe_screen(h.entries, m.entries, a, b,
                                 tol.rtol * scale, tol.rtol)
        if residual is not None:
            return DetectionResult(kind=NO_GENSYM, residual=residual,
                                   screened=True), None
    chain = _commutator_chain(h.entries, m, a, b)
    c1 = next(chain)
    n1 = fro(c1)
    if n1 <= tol.rtol * scale:  # so for a zero H or M, where C1 = 0
        return DetectionResult(kind=GENUINE,
                               residual=n1 / scale if n1 else 0.0), None

    c2 = next(chain)
    c3 = next(chain)
    # The fit's difference overwrites C3: detection holds C1, C2 and C3.
    gamma, residual = _fit_case2(c1, c3, out=c3)
    if gamma > 0 and residual <= tol.rtol:
        return DetectionResult(kind=CASE2, gamma1=math.ldexp(gamma, b),
                               residual=residual), (c1, c2, a, b)
    return DetectionResult(kind=NO_GENSYM, residual=residual), None


def _probe_block(n: int) -> np.ndarray:
    """The n x PROBES complex probes, the same for every call at n."""
    rng = np.random.default_rng(PROBE_SEED)
    return rng.standard_normal((n, 2 * PROBES)).view(np.complex128)


def _centred_times(x: np.ndarray, a: int, v: np.ndarray) -> np.ndarray:
    """X' V with X' = X / 2^a - tr/n I, for an n x n X read in place.

    X' is formed a band of TILE rows at a time in one TILE x n scratch
    buffer, each band scaled and its diagonal part centred there before
    its thin product, so each entry is the one a whole centred copy of X
    would hold.
    """
    n = len(x)
    shift = np.sum(x.diagonal() * 2.0 ** -a).real / n  # = tr(X / 2^a) / n
    out = np.empty((n, v.shape[1]), np.result_type(x, v))
    scratch = np.empty((min(TILE, n), n), x.dtype)
    for i in range(0, n, TILE):
        band = scratch[:min(TILE, n - i)]
        np.multiply(x[i:i + len(band)], 2.0 ** -a, out=band)
        diagonal = np.arange(len(band))
        band[diagonal, i + diagonal] -= shift
        out[i:i + len(band)] = _times_block(band, v)
    return out


def _probe_screen(he: np.ndarray, me: np.ndarray, a: int, b: int,
                  gate: float, rtol: float) -> Optional[float]:
    """The probe fit residual when the probes reject the pair, else None.

    Runs on H' = H / 2^a - tr/n I and M' = M / 2^b - tr/n I, read in
    place by _centred_times: the shifts change no commutator, and keep a
    large trace from cancelling in the products.  C1 V = H'M'V - M'H'V,
    and C3 V = H'M'^3 V - 3 M'H'M'^2 V + 3 M'^2 H'M'V - M'^3 H'V by
    Horner's rule in M'.  Rejected when
    ||C1 V|| > sqrt(2 PROBES PROBE_UPPER) ``gate`` (not genuine) and
    min_beta ||C3 V - beta C1 V|| / ||C3 V|| > PROBE_MARGIN ``rtol`` (no
    case 2: an exact fit residual within ``rtol`` would give at most that
    at the exact beta, but with chance below 2^-40).
    """
    def times_m(v):
        return _centred_times(me, b, v)

    powers = [_probe_block(len(he))]  # V, M'V, M'^2 V, M'^3 V
    for _ in range(3):
        powers.append(times_m(powers[-1]))
    hv, hmv, hm2v, hm3v = np.hsplit(_centred_times(he, a, np.hstack(powers)),
                                    4)
    del powers
    mhv = times_m(hv)
    c1v = hmv - mhv
    if not fro(c1v) > math.sqrt(2 * PROBES * PROBE_UPPER) * gate:
        return None
    c3v = hm3v - times_m(3.0 * hm2v - times_m(3.0 * hmv - mhv))
    residual = _fit_case2(c1v, c3v)[1]
    return residual if residual > PROBE_MARGIN * rtol else None


def _commutes(x: np.ndarray, y: np.ndarray, norm: float,
              tol: Tolerance) -> bool:
    """||[X, B]|| <= rtol ||X|| ``norm``, given Y = X B for a Hermitian X:
    [X, B] is formed as Y - Y^dag, one product, which for a B Hermitian
    only to a gate differs from XB - BX by at most ||X|| ||B - B^dag||."""
    return fro(_add_adjoint(y, -1)) <= tol.rtol * fro(x) * norm


def reconstruct_case2(h: Operator, m: Operator, gamma: float,
                      tol: Tolerance = DEFAULT_TOL) -> GenSymTriple:
    """Closed-form (H0, R) for case 2 from the first two commutators.

    ``tol`` is not read: verify_triple grades the triple.
    """
    a, b = _unit(h.norm), _unit(m.norm)
    c1, c2 = itertools.islice(_commutator_chain(h.entries, m, a, b), 2)
    h0, r = _reconstruct_case2(h.entries, c1, c2, a, b, gamma)
    h0 *= 2.0 ** a
    r *= 2.0 ** a
    return GenSymTriple(h0=h0, r=r, gamma=gamma)


def _reconstruct_case2(he: np.ndarray, c1: np.ndarray, c2: np.ndarray,
                       a: int, b: int, gamma: float):
    """(H0, R) / 2^a from H and the commutators C1 and C2 of
    (H / 2^a, M / 2^b) already formed, each stored by the rule of the
    array in H's units, which must be finite (else ValueError).

    With g = gamma / 2^b, C1 = g (R' - R'^dag) and C2 = g^2 (R' + R'^dag):
    H0' = H / 2^a - C2 / g^2 is one new array, and
    R' = (C2 + g C1) / (2 g^2) is formed in C2's buffer with C1 as its
    scratch, so both commutators are overwritten.  Each entry is the one
    the whole-array expressions give.
    """
    gamma = _real_nonzero(gamma)
    g = math.ldexp(gamma, -b)
    g_sq = g ** 2
    h0 = he * 2.0 ** -a
    h0 *= g_sq
    # In place unless H is real and M complex.
    h0 = np.subtract(h0, c2, out=h0 if h0.dtype == c2.dtype else None)
    h0 /= g_sq
    c1 *= g
    c2 += c1
    c2 /= 2.0 * g_sq
    return _stored_units(h0, a), _stored_units(c2, a)


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
    """Recompute the triple residuals against (H, M) and grade each one.

    Runs on (H, H0, R) / 2^a, with 2^a the unit of ||H||_F as in
    detection, so no product leaves the float range and every gate reads
    the bits of the unscaled arithmetic wherever that stays inside it.
    Each residual is reported times 2^a: inf once that is past the range.
    """
    if not (triple.h0.shape == triple.r.shape == (h.dim, h.dim)
            and h.dim == m.dim):
        raise ValueError("dimension mismatch between (H, M) and triple")
    unit = 2.0 ** -_unit(h.norm)
    return _grade_triple(h, m, triple.h0 * unit, triple.r * unit,
                         triple.gamma, tol)


def _grade_triple(h: Operator, m: Operator, h0: np.ndarray, r: np.ndarray,
                  gamma: float, tol: Tolerance) -> TripleReport:
    """verify_triple on (H0, R) / 2^a as _reconstruct_case2 returns them,
    read in place."""
    a = _unit(h.norm)
    h_norm = math.ldexp(h.norm, -a)
    rd = r.conj().T
    bound = tol.rtol * h_norm
    m_bound = bound * m.norm  # for [H0, M] and [R, M] - gamma R
    residual_sum = fro(h.entries * 2.0 ** -a - h0 - r - rd)
    residual_h0m = fro(_times_m(h0, m) - _times_m(h0, m, left=True))
    residual_ladder = fro(_times_m(r, m) - _times_m(r, m, left=True)
                          - gamma * r)
    h0_herm = _skew_norm(h0) <= H0_HERMITICITY_BOUND * h_norm
    # With R ~ 0 the ladder relation holds for any gamma; flag it.
    degenerate = fro(r) <= bound

    def commutes(x):  # X = R^dag R or R R^dag, against M and H0
        return (_commutes(x, _times_m(x, m), m.norm, tol),
                _commutes(x, x @ h0, h_norm, tol))

    (rdr_m, rdr_h0), (rrd_m, rrd_h0) = commutes(rd @ r), commutes(r @ rd)
    unit = 2.0 ** a
    return TripleReport(
        sum_ok=residual_sum <= bound,
        h0_commutes_ok=residual_h0m <= m_bound,
        ladder_ok=residual_ladder <= m_bound,
        h0_hermitian_ok=h0_herm,
        degenerate=degenerate,
        residual_sum=residual_sum * unit,
        residual_h0m=residual_h0m * unit,
        residual_ladder=residual_ladder * unit,
        commutes_rdr_m=rdr_m, commutes_rrd_m=rrd_m,
        commutes_rdr_h0=rdr_h0, commutes_rrd_h0=rrd_h0,
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
