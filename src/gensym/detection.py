"""Detection of generalised symmetries via iterated-commutator fits.

A Hermitian M is a generalised symmetry of a Hermitian H when H splits as
H0 + R + R^dag with [H0, M] = 0 and [R, M] = gamma*R for some nonzero
gamma.  In finite dimension the spectrum of M is discrete, so gamma is
real (paper, Theorem 2).  The split is decided by fitting the third
nested commutator of H with M against the first, C3 = gamma^2 C1.  In
M's eigenbasis W the commutators are entrywise, C_k = Delta^k o H~ with
H~ = W^dag H W and Delta_ij = mu_j - mu_i: the fit weighs H~'s entries,
and H0 and R are read off its blocks.  All of it runs on (H / 2^a,
M / 2^b), 2^a and 2^b just above ||H||_F and ||M||_F: the relation is
homogeneous and a power-of-two scale is exact, so every bit is that of
the unscaled arithmetic wherever that stays inside the float range.

A pair with a dense M is first screened by PROBES seeded random vectors
V (Freivalds' check): C1 V and C3 V come from thin products with H and M
alone, and the pair is rejected as no_gensym, with no commutator formed,
only when neither the genuine gate nor the case-2 fit can hold for
(C1, C3) but with chance below 2^-40.  Any other pair goes on to the
exact gate and fit, whose result the screen leaves bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    SpectralDecomposition,
    TILE,
    Tolerance,
    _Blocks,
    _add_adjoint,
    _bands,
    _cluster_targets,
    _freeze,
    _gather,
    _in_eigenbasis,
    _in_m_basis,
    _rotate,
    _skew_norm,
    _times_block,
    _times_m,
    _unit,
    _whole,
    fro,
    hermitian_eigh,
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


def _fit_case2(c1: np.ndarray, c3: np.ndarray):
    """(sqrt(max(gamma^2, 0)), ||C3 - gamma^2 C1|| / ||C3||) for the
    least-squares fit C3 = gamma^2 C1 of the probe screen's C1 V and C3 V,
    which has passed a gate: C1 != 0.  gamma^2 is read on C1 / 2^s and
    C3 / 2^s, 2^s just above ||C1||, an exact rescale that keeps ||C1||^2
    inside the float range."""
    n1 = fro(c1)
    n3 = fro(c3)
    if n3 == 0.0:  # C1 != 0 implies C3 != 0 in exact arithmetic
        raise NumericalError("the case-2 fit underflows: C3 = 0, C1 != 0")
    unit = 2.0 ** -_unit(n1)
    gamma_sq = np.vdot(c1 * unit, c3 * unit).real / (n1 * unit) ** 2
    return (float(np.sqrt(max(gamma_sq, 0.0))),
            float(fro(c3 - gamma_sq * c1) / n3))


def _fit_entrywise(x: np.ndarray, unit: float, mu: np.ndarray):
    """(gamma, ||C3 - gamma^2 C1|| / ||C3||) of the least-squares fit
    C3 = gamma^2 C1 on C_k = Delta^k o X unit, Delta_ij = mu_j - mu_i:
    gamma^2 = (||C2|| / ||C1||)^2, and the residual is read as
    ||Delta (Delta^2 - gamma^2) o X unit||, where no two commutators
    cancel.  X is read in place TILE rows at a time, and fro keeps its
    range."""
    def norms(weights):
        """||W_k o ... o W_1 o X unit||_F for the weights(Delta) W_k."""
        bands = []
        for rows in _bands(len(x)):
            y = x[rows] * unit
            bands.append([fro(np.multiply(y, w, out=y))
                          for w in weights(mu - mu[rows, np.newaxis])])
        return [fro(np.array(v)) for v in zip(*bands)]

    n1, n2, n3 = norms(lambda delta: (delta,) * 3)
    if n3 == 0.0:  # C1 != 0 implies C3 != 0 in exact arithmetic
        raise NumericalError("the case-2 fit underflows: C3 = 0, C1 != 0")
    gamma_sq = (n2 / n1) ** 2
    (rest,) = norms(lambda delta: (delta * (delta * delta - gamma_sq),))
    return math.sqrt(gamma_sq), rest / n3


def _h_in_m_basis(h: Operator, m_spec: SpectralDecomposition):
    """(X, unit) with X unit = H / 2^a in M's eigenbasis: H read in place
    through ``order`` for a real diagonal M, else W^dag (H / 2^a) W."""
    unit = 2.0 ** -_unit(h.norm)
    if m_spec.order is not None:
        return h.entries, unit
    return _in_m_basis(h.entries, m_spec, unit), 1.0


def detect(h: Operator, m: Operator, tol: Tolerance = DEFAULT_TOL) -> DetectionResult:
    """Classify M against H: genuine symmetry, case 2, or neither.

    A pair the probe screen rejects is no_gensym with ``screened`` set,
    its residual the probes' fit residual, and forms no commutator.
    """
    return _detect(h, m, tol)[0]


def _detect(h: Operator, m: Operator, tol: Tolerance,
            m_spec: Optional[SpectralDecomposition] = None):
    """detect's result, and past the genuine gate the (m_spec, X, unit)
    the fit read, which _split takes: M's decomposition, ``m_spec`` when
    the caller holds it, and _h_in_m_basis(h, m_spec)."""
    if h.dim != m.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {m.dim}")
    for name, x in (("H", h), ("M", m)):
        if not x.hermitian:
            raise ValueError(
                f"{name} ({x.label!r}) is not Hermitian within gate")
    a, b = _unit(h.norm), _unit(m.norm)
    scale = math.ldexp(h.norm, -a) * math.ldexp(m.norm, -b)
    # A real diagonal M makes the exact gate and fit O(n^2): no screen.
    if m.real_diagonal is None:
        residual = _probe_screen(h.entries, m.entries, a, b,
                                 tol.rtol * scale, tol.rtol)
        if residual is not None:
            return DetectionResult(kind=NO_GENSYM, residual=residual,
                                   screened=True), None
    # C1 = Y - Y^dag, Y = (H / 2^a) M / 2^b, dropped once its norm is read.
    n1 = fro(_add_adjoint(_times_m(h.entries * 2.0 ** -a, m) * 2.0 ** -b, -1))
    if n1 <= tol.rtol * scale:  # so for a zero H or M, where C1 = 0
        return DetectionResult(kind=GENUINE,
                               residual=n1 / scale if n1 else 0.0), None

    m_spec = m_spec or hermitian_eigh(m, tol)
    x, unit = _h_in_m_basis(h, m_spec)
    mu = (m.real_diagonal if m_spec.order is not None
          else m_spec.eigenvalues) * 2.0 ** -b  # at each index of X
    gamma, residual = _fit_entrywise(x, unit, mu)
    if gamma > 0 and residual <= tol.rtol:
        result = DetectionResult(kind=CASE2, gamma1=math.ldexp(gamma, b),
                                 residual=residual)
    else:
        result = DetectionResult(kind=NO_GENSYM, residual=residual)
    return result, (m_spec, x, unit)


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


def _split(m_spec: SpectralDecomposition, x: np.ndarray, unit: float,
           gamma: float):
    """(H0, R, ||H - H0 - R - R^dag||_F) / 2^a for case 2, from (X, unit)
    = _h_in_m_basis(h, m_spec), where [X, diag(mu)]_ij = Delta_ij X_ij:
    H0 is X unit on the diagonal cluster blocks and R on the ladder
    blocks (_cluster_targets), and X unit's mass off them and R^dag's,
    read TILE rows at a time, is the split's backward error.
    """
    m_spec = _in_eigenbasis(m_spec)
    target = _cluster_targets(m_spec, gamma)
    ids = m_spec.cluster_ids
    col_target = target[ids]  # R's blocks hold (i, j): ids[i] == col_target[j]
    norms = []
    for rows in _bands(len(x)):
        row_ids = ids[rows, np.newaxis]
        rest = np.where((row_ids == ids) | (row_ids == col_target), 0, x[rows])
        mirror = col_target[rows, np.newaxis] == ids
        rest[mirror] -= x[:, rows].T[mirror].conj()
        norms.append(fro(rest))
    return (_gather(x, m_spec, np.arange(m_spec.n_clusters)).scaled(unit),
            _gather(x, m_spec, target).scaled(unit),
            fro(np.array(norms)) * unit)


def reconstruct_case2(h: Operator, m: Operator, gamma: float,
                      tol: Tolerance = DEFAULT_TOL) -> GenSymTriple:
    """(H0, R) for case 2, _split's blocks scattered back (and rotated
    back by a dense M's W).  ``tol`` clusters M's spectrum."""
    gamma = _real_nonzero(gamma)
    m_spec = hermitian_eigh(m, tol)
    h0, r = (x.full(h.dim) for x in _split(
        m_spec, *_h_in_m_basis(h, m_spec), gamma)[:2])
    if m_spec.order is None:
        w = m_spec.eigenvectors
        h0, r = (_rotate(x.astype(np.result_type(x, w), copy=False), w,
                         back=True) for x in (h0, r))
    for x in (h0, r):  # on the (re, im) parts, so that zeros keep their sign
        x.view(np.float64)[...] *= 2.0 ** _unit(h.norm)
    return GenSymTriple(h0=h0, r=r, gamma=gamma)


def _spread_norm(groups, mu: np.ndarray, shift: float = 0.0) -> float:
    """||[X, diag(mu)] - shift X||_F = ||(mu_j - mu_i - shift) X_ij||_F
    over X's (rows, cols, data) blocks, TILE block rows at a time."""
    norms = []
    for rows, cols, data in groups:
        for band in _bands(data.shape[1]):
            weight = (mu[cols][:, np.newaxis, :]
                      - mu[rows[:, band]][:, :, np.newaxis] - shift)
            norms.append(fro(weight * data[:, band]))
    return fro(np.array(norms))


def _skew_fro(y: np.ndarray) -> float:
    """||Y - Y^dag||_F over a stack of square blocks, read in place: one
    block by _skew_norm's tiles."""
    if len(y) == 1:
        return _skew_norm(y[0])
    return fro(y - y.conj().transpose(0, 2, 1))


def _commute_flags(r: _Blocks, h0: _Blocks, mu: np.ndarray, m_norm: float,
                   h_norm: float, tol: Tolerance):
    """commutes_* for X = R^dag R and R R^dag: (rdr_m, rdr_h0, rrd_m,
    rrd_h0), each ||[X, B]|| <= rtol ||X|| ||B||, from block gemms: X is
    R_ab^dag R_ab on cluster b (R_ab R_ab^dag on a).  [X, M] reads
    (mu_j - mu_i) X_ij; [X, H0] is Y - Y^dag, Y = X H0_bb (H0's block
    found by its first index), within ||X|| ||H0 - H0^dag|| of it.
    """
    h0_blocks = {i: block for rows, _, data in h0.groups
                 for i, block in zip(rows[:, 0].tolist(), data)}
    flags = []
    for rdr in (True, False):
        norms = []  # ||X||, ||[X, M]||, ||[X, H0]|| per stack of blocks
        for rows, cols, data in r.groups:
            idx, x = ((cols, data.conj().transpose(0, 2, 1) @ data) if rdr
                      else (rows, data @ data.conj().transpose(0, 2, 1)))
            y = x @ np.stack([h0_blocks[i] for i in idx[:, 0].tolist()])
            norms.append((fro(x), _spread_norm([(idx, idx, x)], mu),
                          _skew_fro(y)))
            del x, y
        x_norm, m_skew, h_skew = (fro(np.array(v)) for v in
                                  zip(*norms or [(0.0, 0.0, 0.0)]))
        flags += [m_skew <= tol.rtol * x_norm * m_norm,
                  h_skew <= tol.rtol * x_norm * h_norm]
    return flags


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
    ||H - H0 - R - R^dag|| is taken in the given basis, TILE rows at a
    time, the rest in M's eigenbasis on copies of H0 and R, held as
    their cluster blocks if no entry lies off them, else whole.
    """
    if not (triple.h0.shape == triple.r.shape == (h.dim, h.dim)
            and h.dim == m.dim):
        raise ValueError("dimension mismatch between (H, M) and triple")
    unit = 2.0 ** -_unit(h.norm)
    residual_sum = fro(np.array([fro(
        h.entries[rows] * unit - triple.h0[rows] * unit
        - triple.r[rows] * unit - triple.r[:, rows].conj().T * unit)
        for rows in _bands(h.dim)]))
    m_spec = hermitian_eigh(m, tol)
    h0, r = (_in_m_basis(x, m_spec, unit) for x in (triple.h0, triple.r))
    m_spec = _in_eigenbasis(m_spec)  # a dense M's W is released
    blocks = (_gather(h0, m_spec, np.arange(m_spec.n_clusters)),
              _gather(r, m_spec, _cluster_targets(m_spec, triple.gamma)))
    if (blocks[0].count_nonzero() + blocks[1].count_nonzero()
            < np.count_nonzero(h0) + np.count_nonzero(r)):
        blocks = _whole(h0), _whole(r)
    return _grade_triple(h, m, m_spec, *blocks, triple.gamma, residual_sum,
                         tol)


def _grade_triple(h: Operator, m: Operator, m_spec: SpectralDecomposition,
                  h0: _Blocks, r: _Blocks, gamma: float,
                  residual_sum: float, tol: Tolerance) -> TripleReport:
    """verify_triple on H0 and R / 2^a held as _Blocks in the basis of
    _in_eigenbasis(m_spec), and residual_sum = ||H - H0 - R - R^dag||_F
    / 2^a.  There [X, M]_ij = (mu_j - mu_i) X_ij: the residuals of
    [H0, M] and of [R, M] - gamma R weigh the blocks' entries."""
    m_spec = _in_eigenbasis(m_spec)
    a = _unit(h.norm)
    h_norm = math.ldexp(h.norm, -a)
    bound = tol.rtol * h_norm
    m_bound = bound * m.norm  # for [H0, M] and [R, M] - gamma R
    mu = np.empty(m_spec.dim)  # M's eigenvalue at each basis index
    mu[m_spec.order] = m_spec.eigenvalues
    residual_h0m = _spread_norm(h0.groups, mu)
    residual_ladder = _spread_norm(r.groups, mu, gamma)
    h0_herm = (fro(np.array([_skew_fro(data) for _, _, data in h0.groups]))
               <= H0_HERMITICITY_BOUND * h_norm)
    rdr_m, rdr_h0, rrd_m, rrd_h0 = _commute_flags(r, h0, mu, m.norm, h_norm,
                                                  tol)
    unit = 2.0 ** a
    return TripleReport(
        sum_ok=residual_sum <= bound,
        h0_commutes_ok=residual_h0m <= m_bound,
        ladder_ok=residual_ladder <= m_bound,
        h0_hermitian_ok=h0_herm,
        # With R ~ 0 the ladder relation holds for any gamma; flag it.
        degenerate=r.norm <= bound,
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
