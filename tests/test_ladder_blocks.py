"""R's ladder blocks and H0's diagonal blocks on a real diagonal M's clusters.

[R, M] = gamma R means that R maps the M-cluster at mu only to the one at
mu - gamma, and [H0, M] = 0 that H0 keeps every cluster: case 2 reads H0
and R off H as those blocks, and H's mass off them is the split's
backward error, graded as residual_sum.  The grade's commutes_* flags and
the stability scan's R V and R^dag V read the blocks.  These tests hold
the block form to the dense references in reference.py, on the
benchmark's case-2 models and the hard-core chains, each as built and
with symmetric noise of 1e-12 ||H||_F, and pin that mass off the blocks
is graded in full.
"""

import functools

import numpy as np
import pytest

from gensym import cli, detection
from gensym.detection import detect, reconstruct_case2, verify_triple
from gensym.models import (angular_block, fermion_chain, hardcore_chain,
                           jaynes_cummings, random_triple)
from gensym.multiplets import canonical_eigenbasis
from gensym.operators import (Tolerance, _ladder_blocks, _whole,
                              hermitian_eigh, make_operator)
from gensym.serialization import dump_json

import reference
from reference import assert_reports_agree

MODELS = {
    "angular_l40": lambda: angular_block(40, -0.5, 0.1),
    "jc_127": lambda: jaynes_cummings(1.0, 1.0, 0.1, 127),
    **{f"hardcore_{sites}": lambda sites=sites: hardcore_chain(sites,
                                                               0.3 + 0.1j)
       for sites in (5, 6, 7, 8)},
    "fermion_7": lambda: fermion_chain(7, 1.0,
                                       [0.2 + 0.1j * k for k in range(7)]),
    "random_triple": lambda: random_triple([32] * 4, 1.0, 3),
}
# angular_l40 with noise of 1e-12 ||H||_F is no_gensym on either path (its
# fit residual is 1.1e-7, ROADMAP item 1); at 1e-14 it is case 2, and its
# products are checked there.
CASES = [(name, noise) for name in MODELS for noise in (0.0, 1e-12)]
CASE2 = [case for case in CASES if case != ("angular_l40", 1e-12)] + [
    ("angular_l40", 1e-14)]


def ids(cases):
    return [f"{name}-noise{noise:g}" for name, noise in cases]


@functools.lru_cache(maxsize=None)
def pair(name, noise):
    """(H, M) of a model, H plus symmetric noise of noise * ||H||_F."""
    bundle = MODELS[name]()
    h = bundle.h.entries
    if noise:
        rng = np.random.default_rng(0)
        e = rng.normal(size=h.shape)
        if np.iscomplexobj(h):
            e = e + 1j * rng.normal(size=h.shape)
        e = (e + e.conj().T) / 2
        h = h + e * (noise * np.linalg.norm(h) / np.linalg.norm(e))
    return make_operator(len(h), h), bundle.m


@pytest.mark.parametrize("name, noise", CASE2, ids=ids(CASE2))
def test_block_products_match_the_dense_reference(name, noise):
    h, m = pair(name, noise)
    assert m.real_diagonal is not None
    tol = Tolerance()
    result = detect(h, m, tol)
    triple = reconstruct_case2(h, m, result.gamma1, tol)
    m_spec = hermitian_eigh(m, tol)
    ladder = _ladder_blocks(triple.r, triple.gamma, m_spec)
    # The blocks hold every entry of R, and a fraction of its n^2 entries.
    held = sum(data.size for _, _, data in ladder.groups)
    assert 0 < held <= h.dim ** 2 / 3
    # Every commutes_* flag, as verify_triple grades it.
    grade = verify_triple(h, m, triple, tol)
    assert [grade.commutes_rdr_m, grade.commutes_rdr_h0, grade.commutes_rrd_m,
            grade.commutes_rrd_h0] == reference.dense_commute_flags(
                triple.h0, triple.r, m, h.norm, tol)
    # R V and R^dag V on H's canonical basis.
    vectors = canonical_eigenbasis(h, m, tol).eigenvectors
    for got, want in zip((ladder.times(vectors),
                          ladder.adjoint().times(vectors)),
                         reference.dense_ladder_products(triple.r, vectors)):
        np.testing.assert_allclose(
            got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def dense_reference_report(monkeypatch, h, m, tol=Tolerance()):
    """analyze_pair with the scan reading R whole and the commutes_* flags
    taken from the dense reference products on the blocks scattered back;
    the patches are undone on return."""
    scan = cli._scan_stability

    def dense_flags(r, h0, mu, m_norm, h_norm, tol):
        return reference.dense_commute_flags(
            h0.full(len(mu)), r.full(len(mu)),
            make_operator(len(mu), np.diag(mu)), h_norm, tol)

    with monkeypatch.context() as patch:
        patch.setattr(detection, "_commute_flags", dense_flags)
        patch.setattr(cli, "_scan_stability", lambda h_spec, r, *args: scan(
            h_spec, _whole(r.full(h_spec.dim)), *args))
        return cli.analyze_pair(h, m, tol)


@pytest.mark.parametrize("name, noise", CASES, ids=ids(CASES))
def test_report_matches_the_dense_reference(monkeypatch, name, noise):
    h, m = pair(name, noise)
    report = cli.analyze_pair(h, m, Tolerance())
    expected = dense_reference_report(monkeypatch, h, m)
    if (name, noise) not in CASE2:
        assert report["detection"]["kind"] == "no_gensym"
        assert dump_json(report) == dump_json(expected)
        return
    assert report["triple"]["verified"] is True
    assert report["stability"] is not None
    # The blocks and the whole R hold the same entries: only the order of
    # the gemms' sums differs.
    assert_reports_agree(report, expected)


@pytest.mark.parametrize("rtol", [1e-8, 1e-11])
@pytest.mark.parametrize("factor, verified", [(0.7, True), (1.4, False)])
def test_noise_off_the_ladder_decides_the_path(rtol, factor, verified):
    # M = diag(0, 1e-4, 1) and gamma = 1: the entry c between the two
    # M-clusters 1e-4 apart lies off every block, so the triple drops it
    # and the grade reads it in full as residual_sum = sqrt(2) c, against
    # rtol ||H||_F, where [H0, M] would weigh it by 1e-4.  Set at factor
    # times that gate, the triple verifies inside it, which lets the
    # pipeline go on to the scan, and fails outside.  The fit reads c at
    # 1e-4 of its size, and stays case 2.
    tol = Tolerance(rtol)
    entries = np.array([[0.5, 0.0, 1.0], [0.0, 0.2, 0.0], [1.0, 0.0, 2.0]])
    m = make_operator(3, np.diag([0.0, 1e-4, 1.0]))
    c = factor * rtol * np.linalg.norm(entries) / np.sqrt(2.0)
    entries[0, 1] = entries[1, 0] = c
    h = make_operator(3, entries)
    result = detect(h, m, tol)
    assert result.kind == "case2"
    triple = reconstruct_case2(h, m, result.gamma1, tol)
    assert triple.h0[0, 1] == triple.r[0, 1] == 0.0
    grade = verify_triple(h, m, triple, tol)
    assert grade.residual_sum == pytest.approx(factor * rtol * h.norm,
                                               rel=1e-6)
    assert grade.residual_h0m == 0.0
    assert grade.passed is verified


def test_analyze_pair_never_forms_the_permutation_matrix(monkeypatch):
    # M's sorted eigenbasis is held as its order; the n x n unit columns
    # are formed only when a caller reads eigenvectors.
    h, m = pair("hardcore_5", 0.0)
    solved = []
    solve = detection.hermitian_eigh

    def recording(a, tol):
        solved.append(solve(a, tol))
        return solved[-1]
    monkeypatch.setattr(detection, "hermitian_eigh", recording)
    report = cli.analyze_pair(h, m, Tolerance())
    assert report["stability"] is not None
    (spec,) = solved
    assert spec.order is not None
    assert spec.__dict__["_eigenvectors"] is None
    # Read, it is the permutation matrix, formed once and read-only.
    vectors = spec.eigenvectors
    np.testing.assert_array_equal(vectors, np.eye(m.dim)[:, spec.order])
    assert spec.eigenvectors is vectors and not vectors.flags.writeable
