"""Each named threshold decides an input built just inside it and one just
outside it.

The inputs sit at 0.7x and 1.4x the threshold's documented value, written
out here rather than read from the module, so moving a constant 2x
either way puts one of them on the other side, where its test fails.
"""

import numpy as np
import pytest

from gensym import (NumericalError, SpectralDecomposition, Tolerance, detect,
                    hermitian_eigh, make_operator, partition)
from gensym.detection import (SCREEN_MIN_DIM, _probe_screen,
                              reconstruct_case2, verify_triple)
from gensym import stability
from gensym.operators import (_hermitian_eigvalsh, _ladder_blocks,
                              _skew_norm, _unit, fro, is_hermitian)
from gensym.stability import _classify_block, _ladder, _rank_tests

from conftest import op, random_hermitian

# operators.HERMITICITY_GATE, operators.EIGH_RESIDUAL_BOUND and
# stability.STABILITY_CUTOFF.
HERMITICITY_GATE, EIGH_RESIDUAL_BOUND, STABILITY_CUTOFF = 1e-12, 1e-10, 1e-8
# multiplets.DEFAULT_SUPPORT_EPS, detection.PROBE_MARGIN (24.53 to four
# figures) and the default Tolerance.rtol.
DEFAULT_SUPPORT_EPS, PROBE_MARGIN, DEFAULT_RTOL = 1e-8, 24.5, 1e-8

INSIDE, OUTSIDE = 0.7, 1.4
SIDES = pytest.mark.parametrize("factor, inside", [(INSIDE, True),
                                                   (OUTSIDE, False)])


@SIDES
def test_hermiticity_gate(factor, inside):
    # I + s e_0 e_1^T: ||A - A^dag||_F = sqrt(2) s, ||A||_F = 2 to 1e-24.
    a = np.eye(4)
    a[0, 1] = factor * HERMITICITY_GATE * 2.0 / np.sqrt(2.0)
    assert _skew_norm(a) / fro(a) == pytest.approx(
        factor * HERMITICITY_GATE, rel=1e-9)
    assert is_hermitian(a) is inside
    assert make_operator(4, a).hermitian is inside


def _stub(monkeypatch, name, perturb):
    """np.linalg.<name> with its eigenvalues passed through ``perturb``."""
    solve = getattr(np.linalg, name)

    def stub(a):
        out = solve(a)
        if name == "eigvalsh":
            return perturb(out)
        return perturb(out[0]), out[1]
    monkeypatch.setattr(np.linalg, name, stub)


@SIDES
def test_eigh_residual_bound(monkeypatch, rng, factor, inside):
    # Moving w_2 by d leaves column 2 of A V - V diag(w) at d ||v_2|| = d,
    # the largest column: the rest are rounding, about 1e-15 ||A||_F.
    a = make_operator(6, random_hermitian(rng, 6))
    d = factor * EIGH_RESIDUAL_BOUND * a.norm

    def perturb(w):
        w = w.copy()
        w[2] += d
        return w
    _stub(monkeypatch, "eigh", perturb)
    if inside:
        hermitian_eigh(a)
    else:
        with pytest.raises(NumericalError, match="eigensolver residual"):
            hermitian_eigh(a)


# An exact spectrum: the values-only checks compare its sum with tr A
# and its squared sum with ||A||_F^2, both exact here.
SPECTRUM = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])


def _values_only(monkeypatch, w):
    """_hermitian_eigvalsh of diag(SPECTRUM), its solver returning w."""
    _stub(monkeypatch, "eigvalsh", lambda _: w)
    a = make_operator(5, np.diag(SPECTRUM))
    return lambda: _hermitian_eigvalsh(a)


def _decides(solve, inside):
    if inside:
        solve()
    else:
        with pytest.raises(NumericalError, match="eigensolver contract"):
            solve()


@SIDES
def test_values_only_trace_check(monkeypatch, factor, inside):
    # Moving the eigenvalue 0 by d moves the sum by d and the squared sum
    # by d^2, 1e-10 of its bound: only the trace check decides.
    scale = np.linalg.norm(SPECTRUM)
    d = factor * np.sqrt(5) * EIGH_RESIDUAL_BOUND * scale
    _decides(_values_only(monkeypatch, SPECTRUM + [0, 0, d, 0, 0]), inside)


@SIDES
def test_values_only_squared_sum_check(monkeypatch, factor, inside):
    # Moving 3 up by d and 1 down by d keeps the sum and moves the
    # squared sum by 4d + 2d^2, in units of ||A||_F^2.
    scale = np.linalg.norm(SPECTRUM)
    bound = (2.0 + EIGH_RESIDUAL_BOUND) * EIGH_RESIDUAL_BOUND
    d = factor * bound * scale ** 2 / 4
    _decides(_values_only(monkeypatch, SPECTRUM + [0, 0, 0, -d, d]), inside)


@SIDES
def test_rank_test_cutoff(rng, factor, inside):
    # [a | b | psi] = Q diag(1, 0.5, s) P with Q (n x 3) and P (3 x 3)
    # orthonormal, so sigma_3/sigma_1 = s, to about 1e-16 / s relative.
    q = np.linalg.qr(rng.normal(size=(8, 3)))[0]
    p = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    block = q @ np.diag([1.0, 0.5, factor * STABILITY_CUTOFF]) @ p
    s = np.linalg.svd(block, compute_uv=False)
    assert s[2] / s[0] == pytest.approx(factor * STABILITY_CUTOFF, rel=1e-6)
    stable = _rank_tests(*(block[:, [j]] for j in range(3)))[0]
    assert bool(stable[0]) is inside


def screened_case(monkeypatch, x, y, u, stable=True):
    """_classify_block's case for psi = e_0 under R = e_1 e_0^T, gamma = 1,
    whose rank test is stubbed to the relation x a + y b = u psi, stable
    or not; a case-5 partner is not formed."""
    m = make_operator(2, np.diag([1.0, 0.0]))
    h = make_operator(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    triple = reconstruct_case2(h, m, 1.0)
    m_spec = hermitian_eigh(m)
    ladder = _ladder(hermitian_eigh(h), _ladder_blocks(triple.r, 1.0, m_spec),
                     1.0, m_spec)
    monkeypatch.setattr(stability, "_rank_tests", lambda a, b, psi: (
        np.array([stable]), *(np.array([v]) for v in (x, y, u))))
    monkeypatch.setattr(stability, "_partners",
                        lambda ladder, vectors, eigenvalues, x, y, tol:
                        (x, eigenvalues, eigenvalues))
    cases = _classify_block(ladder, np.array([[1.0], [0.0]]), np.zeros(1),
                            Tolerance())[0]
    return int(cases[0])


@SIDES
def test_case_1_screen(monkeypatch, factor, inside):
    # x a + y b = u psi with |u| at factor * cutoff * max(|x|, |y|, |u|).
    case = screened_case(monkeypatch, 1.0 + 0j, 0.5 + 0j,
                         factor * STABILITY_CUTOFF + 0j)
    assert (case == 1) is inside


@SIDES
def test_case_4_screen(monkeypatch, factor, inside):
    # u = 1 and x + y at factor * cutoff * max(|x|, |y|) = factor * cutoff;
    # unstable, the same relation takes no case on either side.
    relation = (1.0 + 0j, -1.0 + factor * STABILITY_CUTOFF + 0j, 1.0 + 0j)
    assert screened_case(monkeypatch, *relation) == (4 if inside else 5)
    assert screened_case(monkeypatch, *relation, stable=False) == 0


@SIDES
def test_support_eps(factor, inside):
    # psi = e_0 + s e_1 against M = diag(0, 1): ||psi|| = 1 to 1e-16, and
    # its component on the mu = 1 cluster is s; inside, it is no support.
    m_spec = hermitian_eigh(make_operator(2, np.diag([0.0, 1.0])))
    psi = np.array([[1.0], [factor * DEFAULT_SUPPORT_EPS]])
    spec = SpectralDecomposition(eigenvalues=np.zeros(1), eigenvectors=psi,
                                 clusters=((0, 1),))
    expected = ((0,),) if inside else ((0, 1),)
    assert partition(spec, m_spec).signatures == expected


@SIDES
def test_probe_margin(rng, factor, inside):
    # A dense complex pair at the screen's cutoff: its probe fit residual
    # rho is taken first, then rtol = rho / (factor * margin), so rho sits
    # at factor * margin * rtol.  Inside the margin the probes pass the
    # pair on to the exact fit; outside they reject it.
    h, m = (op(random_hermitian(rng, SCREEN_MIN_DIM)) for _ in range(2))
    rho = _probe_screen(h.entries, m.entries, _unit(h.norm), _unit(m.norm),
                        0.0, 0.0)
    assert 1e-3 < rho < 1.0
    result = detect(h, m, Tolerance(rtol=rho / (factor * PROBE_MARGIN)))
    assert result.screened is not inside
    if not inside:
        assert result.residual == rho


@SIDES
def test_default_rtol_cluster_gap(factor, inside):
    # diag(1, 1 + d) with d at factor * rtol * ||A||_F: inside, the two
    # eigenvalues are one cluster under the default Tolerance.
    gap = factor * DEFAULT_RTOL * np.sqrt(2.0)
    a = make_operator(2, np.diag([1.0, 1.0 + gap]))
    assert np.diff(np.diag(a.entries))[0] / a.norm == pytest.approx(
        factor * DEFAULT_RTOL, rel=1e-6)
    clusters = hermitian_eigh(a, Tolerance()).clusters
    assert clusters == (((0, 2),) if inside else ((0, 1), (1, 2)))


@SIDES
def test_default_rtol_split_backward_error(factor, inside):
    # M = diag(0, 1, 3) and gamma = 1: R's one ladder block is entry
    # (0, 1), H0's blocks are the diagonal, and the entry s coupling the
    # mu = 0 and mu = 3 clusters lies off them all, so the triple drops it
    # and residual_sum = sqrt(2) s, against rtol ||H||_F = 4 rtol to 1e-15.
    s = factor * DEFAULT_RTOL * 4.0 / np.sqrt(2.0)
    entries = np.diag([1.0, 2.0, 3.0])
    entries[0, 1] = entries[1, 0] = 1.0
    entries[0, 2] = entries[2, 0] = s
    h = make_operator(3, entries)
    m = make_operator(3, np.diag([0.0, 1.0, 3.0]))
    grade = verify_triple(h, m, reconstruct_case2(h, m, 1.0))
    assert grade.residual_sum / h.norm == pytest.approx(factor * DEFAULT_RTOL,
                                                        rel=1e-6)
    assert grade.h0_commutes_ok and grade.ladder_ok
    assert grade.sum_ok is inside
