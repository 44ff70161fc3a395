"""Covariance of the analysis under a diagonal unitary phase.

Conjugating a real pair by D = diag(exp(i theta)) makes H complex and
leaves a diagonal M unchanged, so the complex pair (D H D^dag, M) runs the
complex-arithmetic code on the same physics as the real pair (H, M): the
verdict, multiplet classes, labels and primary stability cases must be
identical, and gamma and the spectrum must agree to rounding (gamma comes
from sums over complex entries in one case and real entries in the other).

Hard-core chains are left out: their classes already change under such a
phase when every operator is stored complex (3 of 10 uniform draws of
theta for hardcore_chain(4, 0.2)), because repeated eigenvalues of the
compressions P_E M P_E leave a rotation free in the canonical basis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensym.cli import analyze_pair
from gensym.models import angular_block, fermion_chain, jaynes_cummings
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
