"""The paper's supersymmetry-breaking example, held to its closed form.

hardcore_chain(L, z) is the lattice N = 2 chain with a term linear in the
supercharge: H = {Q, Q^dag} + conj(z) Q + z Q^dag, Q^2 = 0 and M the
fermion number, so gamma = 1 for the canonical R = z Q^dag.  With
S = Q + Q^dag, S^2 = H0, and the gauge exp(i arg(z) F) takes H to
S^2 + |z| S.  So, with no tolerance of gensym's own:

- the spectrum is {s^2 + |z| s} over the eigenvalues s of S;
- the case-1 records are the zero modes of S;
- every other eigenvector psi has (R + R^dag) psi = |z| s psi in the
  gauge, a relation with x = y, so its case-5 partner has z = i pi /
  gamma, and sits at s^2 - |z| s: the SUSY partner exp(-i pi F) psi.
"""

import functools
import math

import numpy as np
import pytest

from gensym import Tolerance
from gensym.cli import analyze_pair
from gensym.models import hardcore_chain

SITES = range(2, 8)
ZS = [0.3 + 0.1j, 0.2, -0.4]
# dim ker S for L = 2..7.
KERNEL = {2: 2, 3: 4, 4: 4, 5: 8, 6: 16, 7: 24}


@functools.lru_cache(maxsize=None)
def oracle(sites, z):
    """(report, eigenvalues s of S, ||H||_F) for hardcore_chain(sites, z)."""
    bundle = hardcore_chain(sites, z)
    q = bundle.extras["q"].entries
    s = np.linalg.eigvalsh(q + q.conj().T)
    return analyze_pair(bundle.h, bundle.m, Tolerance()), s, bundle.h.norm


CASES = [(sites, z) for sites in SITES for z in ZS]


def ids(cases):
    return [f"L{sites}-z{z}" for sites, z in cases]


@pytest.mark.parametrize("sites, z", CASES, ids=ids(CASES))
def test_spectrum_cases_and_partners(sites, z):
    report, s, h_norm = oracle(sites, z)
    assert report["triple"]["verified"] is True
    np.testing.assert_allclose(report["spectrum"],
                               np.sort(s ** 2 + abs(z) * s),
                               rtol=0, atol=4e-15 * h_norm)
    kernel = int(np.sum(np.abs(s) <= 1e-10 * np.linalg.norm(s)))
    assert kernel == KERNEL[sites]
    counts = report["stability"]["counts"]
    assert counts == {"1": kernel, "5": 2 ** sites - kernel}
    partners = [r["partner"] for r in report["stability"]["records"]
                if r["primary_case"] == 5]
    assert len(partners) == 2 ** sites - kernel
    second = s ** 2 - abs(z) * s
    for partner in partners:
        re, im = partner["z"]
        assert abs(abs(im) - math.pi) <= 4e-15
        assert abs(re) <= 1e-13
        assert np.min(np.abs(second - partner["e_second"])) <= (
            4e-15 * h_norm)


def partners_outside_their_class(report, h_norm):
    """Case-5 records with no eigenvector at their partner's eigenvalue,
    within rtol ||H||_F, in their own class."""
    class_of = {i: c for c, cls in enumerate(report["multiplets"]["classes"])
                for i in cls["members"]}
    values = np.array(report["spectrum"])
    outside = 0
    for record in report["stability"]["records"]:
        if record["primary_case"] != 5:
            continue
        at = np.flatnonzero(np.abs(values - record["partner"]["e_second"])
                            <= Tolerance().rtol * h_norm)
        outside += all(class_of[j] != class_of[record["index"]] for j in at)
    return outside


# The partner exp(-zM) psi is f(M) psi, in psi's multiplet by the paper's
# definition.  From L = 5 on, the partner's eigenvalue is degenerate and
# the canonical basis inside it knows nothing of R: 4, 24 and 58 partners
# at z = 0.3+0.1i (4, 24 and 54 at z = 0.2 and -0.4) fall outside their
# class (ROADMAP item 7).
CLOSURE = [pytest.param(sites, z, marks=pytest.mark.xfail(
    strict=True, reason="partners outside their class (ROADMAP item 7)"))
    if sites >= 5 else (sites, z) for sites, z in CASES]


@pytest.mark.parametrize("sites, z", CLOSURE, ids=ids(CASES))
def test_partner_closure(sites, z):
    report, _, h_norm = oracle(sites, z)
    assert partners_outside_their_class(report, h_norm) == 0
