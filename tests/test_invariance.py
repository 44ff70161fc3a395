"""Covariance of the analysis under a diagonal unitary phase and scales.

Conjugating a real pair by D = diag(exp(i theta)) makes H complex and
leaves a diagonal M unchanged, so the complex pair (D H D^dag, M) runs the
complex-arithmetic code on the same physics as the real pair (H, M): the
verdict, multiplet classes, labels and primary stability cases must be
identical, and gamma and the spectrum must agree to rounding (gamma comes
from sums over complex entries in one case and real entries in the other).

Hard-core chains are left out there: their classes already change under
such a phase when every operator is stored complex (3 of 10 uniform draws
of theta for hardcore_chain(4, 0.2)), because repeated eigenvalues of the
compressions P_E M P_E leave a rotation free in the canonical basis.

Scaling (H, M) to (aH, cM) with a, c > 0 scales R by a and gamma by c,
and leaves the eigenvectors and every stability relation as they are, so
the verdict, whether the triple verifies, and each record's case,
stability and annihilation flags must not move with a or c.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensym.cli import analyze_pair
from gensym.models import (angular_block, fermion_chain, hardcore_chain,
                           involution_example, jaynes_cummings,
                           projection_example, random_triple)
from gensym.operators import Tolerance, make_operator

from conftest import random_hermitian

REAL_PAIRS = {
    "angular_l2": angular_block(2, -0.125, 0.1),
    "angular_l3": angular_block(3, -0.5, 0.1),
    "jc_7": jaynes_cummings(1.3, 1.0, 0.2, cutoff=7),
    "jc_31": jaynes_cummings(1.0, 1.0, 0.1, cutoff=31),
    "fermion_6": fermion_chain(6, 1.0, [0.3, 0.1, -0.2, 0.05, 0.1, 0.25]),
}


def _summary(report):
    """Everything of a case-2 report that must not depend on the phase."""
    return {
        "kind": report["detection"]["kind"],
        "verified": report["triple"]["verified"],
        "classes": [(c["members"], c["support_clusters"], c["label"])
                    for c in report["multiplets"]["classes"]],
        "primary_cases": [r["primary_case"]
                          for r in report["stability"]["records"]],
    }


@pytest.mark.parametrize("name", list(REAL_PAIRS))
@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(data=st.data())
def test_diagonal_phase_leaves_the_analysis_unchanged(name, data):
    bundle = REAL_PAIRS[name]
    h, m = bundle.h, bundle.m
    assert h.entries.dtype == m.entries.dtype == np.float64
    theta = np.array(data.draw(st.lists(
        st.floats(0.0, 2.0 * np.pi), min_size=h.dim, max_size=h.dim)))
    d = np.exp(1j * theta)
    h_phased = make_operator(
        h.dim, d[:, np.newaxis] * h.entries * d.conj()[np.newaxis, :])
    tol = Tolerance()
    real = analyze_pair(h, m, tol)
    phased = analyze_pair(h_phased, m, tol)
    assert real["detection"]["kind"] == "case2"
    assert _summary(phased) == _summary(real)
    gamma, gamma_phased = (complex(*r["triple"]["gamma"])
                           for r in (real, phased))
    assert abs(gamma_phased - gamma) <= 1e-12 * abs(gamma)
    bound = 1e-12 * max(1.0, h.norm)
    assert np.max(np.abs(np.subtract(phased["spectrum"],
                                     real["spectrum"]))) <= bound


SCALED_PAIRS = {
    "angular_l2": lambda: angular_block(2, -0.125, 0.1),
    "angular_l10": lambda: angular_block(10, 0.0, 0.1),
    "jc_16": lambda: jaynes_cummings(1.0, 1.0, 0.1, cutoff=16),
    "jc_31": lambda: jaynes_cummings(1.0, 1.0, 0.1, cutoff=31),
    "fermion_4": lambda: fermion_chain(4, 0.5, [0.3 + 0.1j, 0, -0.2, 0]),
    "hardcore_5": lambda: hardcore_chain(5, 0.3 + 0.1j),
    "hardcore_6": lambda: hardcore_chain(6, 0.2),
    "random_triple": lambda: random_triple([4, 3, 5], 0.7, 2),
    "projection_12": lambda: projection_example(12, 1),
    "involution_12": lambda: involution_example(12, 1),
}


def _summary_at(h, m, a=1.0, c=1.0):
    """The verdict, whether the triple verifies, gamma and the scale-free
    fields of every stability record of (H, M) scaled to (aH, cM)."""
    report = analyze_pair(make_operator(h.dim, a * h.entries),
                          make_operator(m.dim, c * m.entries), Tolerance())
    verdict = report["detection"]["kind"], report["triple"]["verified"]
    return verdict, report["triple"]["gamma"][0], [
        (r["primary_case"], r["stable"], r["r_annihilates"],
         r["rd_annihilates"], r["sum_annihilates"])
        for r in report["stability"]["records"]]


@functools.cache
def _unscaled_summary(name):
    """_summary_at of the model ``name`` as built, taken once per model."""
    bundle = SCALED_PAIRS[name]()
    return _summary_at(bundle.h, bundle.m)


def _scale_rows():
    """(name, a, c) for H*a, M*c and (H, M)*(c, c) on every model, keeping
    the ids of the H*a rows; on every model the rows where the triple's
    residuals or the partner residuals, graded in the input's units, left
    the float range; the angular_l2 rows that gave no_gensym or genuine
    while the gates had absolute floors; and the angular_l2 rows that gave
    genuine, no_gensym with a NaN residual, or exit 2 while detection ran
    in the units of the input, outside about 1e+-60."""
    for name in SCALED_PAIRS:
        for scale in (1e-7, 1e-4, 1e4, 1e7):
            yield pytest.param(name, scale, 1.0, id=f"{name}-{scale}")
            yield pytest.param(name, 1.0, scale, id=f"{name}-M{scale}")
            yield pytest.param(name, scale, scale, id=f"{name}-HM{scale}")
        for scale in (1e155, 1e160):
            yield pytest.param(name, scale, scale, id=f"{name}-HM{scale}")
        for scale in (1e200, 1e300):
            yield pytest.param(name, scale, 1.0, id=f"{name}-{scale}")
    for a, c in ((1.0, 1e-6), (1e-6, 1e-6), (1e-6, 1e-2), (1e6, 1.0),
                 (1e-10, 1.0), (1.0, 1e-9), (1.0, 1e9),
                 (1e-170, 1.0), (1e-200, 1.0), (1e-100, 1e-100),
                 (1e-160, 1e-160), (1.0, 1e-100), (1.0, 1e80),
                 (1e60, 1e60)):
        yield pytest.param("angular_l2", a, c, id=f"angular_l2-H{a}-M{c}")


@pytest.mark.parametrize("name, a, c", _scale_rows())
def test_scaling_h_leaves_the_stability_cases_unchanged(name, a, c):
    bundle = SCALED_PAIRS[name]()
    verdict, gamma, records = _unscaled_summary(name)
    assert verdict == ("case2", True)
    scaled_verdict, scaled_gamma, scaled_records = _summary_at(
        bundle.h, bundle.m, a, c)
    assert (scaled_verdict, scaled_records) == (verdict, records)
    assert scaled_gamma == pytest.approx(c * gamma, rel=1e-12)


@pytest.mark.parametrize("target", ["H", "M"])
def test_shifting_h_or_m_leaves_the_stability_cases_unchanged(target):
    bundle = SCALED_PAIRS["angular_l2"]()
    pair = {"H": bundle.h, "M": bundle.m}
    a = pair[target]
    pair[target] = make_operator(a.dim, a.entries + 1e3 * np.eye(a.dim))
    assert (_summary_at(pair["H"], pair["M"])
            == _summary_at(bundle.h, bundle.m))


@pytest.mark.parametrize("scale", [1e-6, 1e-9, 1e-12])
def test_a_random_pair_is_no_gensym_at_every_scale_of_h(scale):
    rng = np.random.default_rng(5)
    h, m = (make_operator(16, random_hermitian(rng, 16)) for _ in range(2))
    base = analyze_pair(h, m, Tolerance())["detection"]
    scaled = analyze_pair(make_operator(16, scale * h.entries), m,
                          Tolerance())["detection"]
    assert base["kind"] == scaled["kind"] == "no_gensym"
    assert scaled["residual"] == pytest.approx(base["residual"], rel=1e-12)
