"""Covariance of the analysis under a diagonal unitary phase and a scale.

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

Scaling H by a > 0 scales R and leaves its eigenvectors, gamma and every
stability relation as they are, so the verdict and each record's case,
stability and annihilation flags must not move with a.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensym.cli import analyze_pair
from gensym.models import (angular_block, fermion_chain, hardcore_chain,
                           involution_example, jaynes_cummings,
                           projection_example, random_triple)
from gensym.operators import Tolerance, make_operator

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

# At a = 1e-7 two eigenvalues of jc_31's H lie 9.9e-10 apart, below the
# absolute floor atol = 1e-9 of Tolerance.gap, so they merge into one
# H-cluster and the canonical basis, hence their records, changes.
ATOL_MERGE = pytest.mark.xfail(
    strict=True, reason="Tolerance.gap's atol floor merges two H-eigenvalues")


def _stability_summary(h, m):
    """The verdict, and the scale-free fields of every stability record."""
    report = analyze_pair(h, m, Tolerance())
    return report["detection"]["kind"], [
        (r["primary_case"], r["stable"], r["r_annihilates"],
         r["rd_annihilates"], r["sum_annihilates"])
        for r in report["stability"]["records"]]


@pytest.mark.parametrize("name, scale", [
    pytest.param(name, scale, marks=ATOL_MERGE
                 if (name, scale) == ("jc_31", 1e-7) else ())
    for name in SCALED_PAIRS for scale in (1e-7, 1e-4, 1e4, 1e7)])
def test_scaling_h_leaves_the_stability_cases_unchanged(name, scale):
    bundle = SCALED_PAIRS[name]()
    h, m = bundle.h, bundle.m
    base = _stability_summary(h, m)
    assert base[0] == "case2"
    scaled = make_operator(h.dim, scale * h.entries)
    assert _stability_summary(scaled, m) == base
