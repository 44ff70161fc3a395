"""Each named threshold decides an input built just inside it and one just
outside it.

The inputs sit at 0.7x and 1.4x the threshold's documented value, written
out here rather than read from the module, so moving a constant 2x
either way puts one of them on the other side, where its test fails.
"""

import numpy as np
import pytest

from gensym import NumericalError, hermitian_eigh, make_operator
from gensym.operators import (_hermitian_eigvalsh, _skew_norm, fro,
                              is_hermitian)
from gensym.stability import _rank_tests, _screen

from conftest import random_hermitian

# operators.HERMITICITY_GATE, operators.EIGH_RESIDUAL_BOUND and
# stability.STABILITY_CUTOFF.
HERMITICITY_GATE, EIGH_RESIDUAL_BOUND, STABILITY_CUTOFF = 1e-12, 1e-10, 1e-8

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


@SIDES
def test_case_1_screen(factor, inside):
    # x a + y b = u psi with |u| at factor * cutoff * max(|x|, |y|, |u|).
    case, _ = _screen(1.0 + 0j, 0.5 + 0j, factor * STABILITY_CUTOFF + 0j)
    assert (case == 1) is inside


@SIDES
def test_case_4_screen(factor, inside):
    # u = 1 and x + y at factor * cutoff * max(|x|, |y|) = factor * cutoff.
    case, _ = _screen(1.0 + 0j, -1.0 + factor * STABILITY_CUTOFF + 0j,
                      1.0 + 0j)
    assert case == (4 if inside else 5)
