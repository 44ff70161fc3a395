"""Dense reference computations the tests compare the library against.

None of these is on the library's path: each forms dense products the
pipeline avoids (nested commutators one by one, f(M) as a matrix, the
similarity transform both ways, a sector-reduced angular solver, the
commutes_* flags and the scan's R V and R^dag V with a dense R), or takes
one relation at a time where the scan takes arrays.
"""

import cmath
from typing import Callable

import numpy as np

from gensym.detection import GenSymTriple
from gensym.models import angular_block
from gensym.operators import (
    DEFAULT_TOL,
    NumericalError,
    Operator,
    SpectralDecomposition,
    Tolerance,
    fro,
    make_operator,
    phase_canonicalize,
)


def iterated_commutator(h: Operator, m: Operator, n: int) -> Operator:
    """n-fold nested commutator [...[[h, m], m], ..., m]."""
    if h.dim != m.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {m.dim}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = h.entries
    for _ in range(n):
        c = c @ m.entries - m.entries @ c
    return make_operator(h.dim, c, f"[{h.label},{m.label}]_{n}")


def matrix_function(m_spec: SpectralDecomposition,
                    f: Callable[[float], complex]) -> Operator:
    """Apply a function to an operator through its spectral decomposition.

    ``f`` is called on each degeneracy cluster's mean eigenvalue; one
    value is used per cluster.
    """
    diag = np.empty(m_spec.dim, dtype=complex)
    means = m_spec.cluster_values[0].tolist()
    for (start, stop), mu in zip(m_spec.clusters, means):
        diag[start:stop] = complex(f(mu))
    v = m_spec.eigenvectors
    return make_operator(m_spec.dim, (v * diag[np.newaxis, :]) @ v.conj().T,
                         "f(M)")


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


def recursion_block_solver(l: int, e_n: float, g: float, hbar: float = 1.0):
    """Eigenpairs of the angular block restricted to the antisymmetric
    sector c_{-m} = -c_m, c_0 = 0 (dimension l).

    The sector is invariant because L_x is centrosymmetric in the
    descending-m basis.  Returns (eigenvalues ascending, full-length
    eigenvector columns).
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    bundle = angular_block(l, e_n, g, hbar)
    dim = 2 * l + 1
    # w_m = (|m> - |-m>)/sqrt(2) for m = 1..l; index of m is l - m.
    basis = np.zeros((dim, l), dtype=complex)
    for col, m in enumerate(range(1, l + 1)):
        basis[l - m, col] = 1.0 / np.sqrt(2.0)
        basis[l + m, col] = -1.0 / np.sqrt(2.0)
    reduced = basis.conj().T @ bundle.h.entries @ basis
    reduced = (reduced + reduced.conj().T) / 2
    w, u = np.linalg.eigh(reduced)
    return w, phase_canonicalize(basis @ u)


def dense_commute_flags(h0: np.ndarray, r: np.ndarray, m: Operator,
                        h_norm: float, tol: Tolerance = DEFAULT_TOL):
    """(rdr_m, rdr_h0, rrd_m, rrd_h0) from dense products, as gensym 0.14.0
    formed them: X = R^dag R and R R^dag, each commutator [X, B] formed as
    Y - Y^dag with Y = XB, against rtol ||X|| ||B||, with ||B|| = ||M|| or
    ``h_norm``."""
    flags = []
    for x in (r.conj().T @ r, r @ r.conj().T):
        for b, norm in ((m.entries, m.norm), (h0, h_norm)):
            y = x @ b
            flags.append(fro(y - y.conj().T) <= tol.rtol * fro(x) * norm)
    return flags


def dense_ladder_products(r: np.ndarray, vectors: np.ndarray):
    """(R V, R^dag V) as two dense gemms."""
    return r @ vectors, r.conj().T @ vectors


def classify_relation(stable: bool, x: complex, y: complex, u: complex,
                      both_annihilate: bool, cutoff: float = 1e-8):
    """(case, (x, y, u)) of one rank-test relation x a + y b = u psi, one
    Python scalar at a time: (1, 0, 0) where R and R^dag both annihilate
    psi; case 1 when |u| <= cutoff max(|x|, |y|, |u|); else, at u = 1,
    case 4 when |x + y| <= cutoff max(|x|, |y|), case 5 otherwise; case 0
    when unstable.  A case-1 or unstable relation is rotated so that its
    first largest-magnitude entry is real positive."""
    if both_annihilate:
        x, y, u = 1.0 + 0.0j, 0.0j, 0.0j
    case = 0
    if stable and abs(u) <= cutoff * max(abs(x), abs(y), abs(u)):
        case = 1
    elif stable:
        x, y, u = x / u, y / u, 1.0 + 0.0j
        case = 4 if abs(x + y) <= cutoff * max(abs(x), abs(y)) else 5
    if case in (0, 1):
        pivot = max((x, y, u), key=abs)
        x, y, u = (v * abs(pivot) / pivot for v in (x, y, u))
    return case, (x, y, u)


def ladder_exponent(x: complex, y: complex, gamma: float,
                    cutoff: float = 1e-8):
    """(z, eps) of a case-5 relation x R psi + y R^dag psi = psi, by
    cmath: exp(z gamma) = -y/x, with Im(z gamma) = +pi on the branch cut
    up to cutoff, and eps = (exp(-z gamma) - 1) / x."""
    ratio = -y / x
    log_ratio = cmath.log(ratio)
    if ratio.real < 0 and abs(ratio.imag) <= cutoff * abs(ratio):
        log_ratio = complex(log_ratio.real, cmath.pi)
    z = log_ratio / gamma
    return z, (cmath.exp(-z * gamma) - 1.0) / x


def _structure(doc):
    if isinstance(doc, dict):
        return {key: _structure(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_structure(item) for item in doc]
    return None if isinstance(doc, float) else doc


def _only_floats(doc):
    """The floats of a list nested only of floats, else None."""
    if isinstance(doc, float):
        return [doc]
    if not isinstance(doc, list):
        return None
    leaves = [_only_floats(item) for item in doc]
    if not doc or any(leaf is None for leaf in leaves):
        return None
    return [x for leaf in leaves for x in leaf]


def _float_groups(doc, h_norm, path=()):
    """(path, values, scale) for the floats of a report: a list of floats
    (the spectrum, a record's coeffs, z) scaled by its largest entry, a
    partner's residual and e_second by ||H||_F, the unit of the gates on
    the residual and on e_second's shift, and any other float by its own
    magnitude."""
    values = _only_floats(doc)
    if values is not None:
        scale = (h_norm if path[-2:] in (("partner", "residual"),
                                         ("partner", "e_second"))
                 else max(map(abs, values)))
        yield path, values, scale
    elif isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        for name, item in items:
            yield from _float_groups(item, h_norm, path + (name,))


def assert_reports_agree(report: dict, expected: dict, rel: float = 1e-12):
    """Two analyze_pair reports agree: every field that is not a float
    (verdict, verified, the commutes_* flags, classes, cases) is equal, and
    every float of ``report`` agrees with ``expected``'s within ``rel`` of
    its scale in ``expected``: a list of floats (the spectrum, a record's
    coeffs, z) of its largest entry, a partner's residual and e_second of
    ||H||_F, the unit of their gates, and any other float of its own
    magnitude."""
    assert _structure(report) == _structure(expected)
    h_norm = float(np.linalg.norm(expected["spectrum"]))
    got = {path: values for path, values, _ in _float_groups(report, h_norm)}
    for path, want, scale in _float_groups(expected, h_norm):
        np.testing.assert_allclose(got[path], want, rtol=0,
                                   atol=rel * scale, err_msg=str(path))
