"""R's ladder blocks and H0's diagonal blocks on a real diagonal M's clusters.

[R, M] = gamma R means that R maps the M-cluster at mu only to the one at
mu - gamma, and [H0, M] = 0 that H0 keeps every cluster.  For a real
diagonal M the grade's commutes_* flags and the stability scan's R V and
R^dag V read R as those ladder blocks and H0 as its diagonal blocks.
These tests hold the block form to the dense references in reference.py,
on the benchmark's case-2 models and the hard-core chains, each as built
and with symmetric noise of 1e-12 ||H||_F, and pin the fallback to the
whole R above OFF_BLOCK_BOUND.
"""

import functools

import numpy as np
import pytest

from gensym import cli, detection, operators
from gensym.detection import detect, reconstruct_case2, verify_triple
from gensym.models import (angular_block, fermion_chain, hardcore_chain,
                           jaynes_cummings, random_triple)
from gensym.multiplets import canonical_eigenbasis
from gensym.operators import (OFF_BLOCK_BOUND, Tolerance,
                              _cluster_targets, _ladder_blocks,
                              _off_block_norm, hermitian_eigh, make_operator)
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
    ladder = _ladder_blocks(triple.r, triple.gamma, m_spec, tol)
    # The blocks are taken, and hold a fraction of R's n^2 entries.
    assert ladder.dense is None
    held = sum(data.size for _, _, data in ladder.groups)
    assert 0 < held <= h.dim ** 2 / 3
    # Every commutes_* flag, as verify_triple grades it.
    grade = verify_triple(h, m, triple, tol)
    assert [grade.commutes_rdr_m, grade.commutes_rdr_h0, grade.commutes_rrd_m,
            grade.commutes_rrd_h0] == reference.dense_commute_flags(
                triple.h0, triple.r, m, h.norm, tol)
    # R V and R^dag V on H's canonical basis: the blocks drop R's mass E
    # off them, which moves each entry by at most ||E||_2 <= ||E||_F.
    dropped = _off_block_norm(triple.r, m_spec.cluster_ids,
                              _cluster_targets(m_spec, triple.gamma))
    assert dropped <= OFF_BLOCK_BOUND * ladder.norm
    vectors = canonical_eigenbasis(h, m, tol).eigenvectors
    for got, want in zip((ladder.times(vectors),
                          ladder.adjoint().times(vectors)),
                         reference.dense_ladder_products(triple.r, vectors)):
        np.testing.assert_allclose(
            got, want, rtol=0, atol=dropped + 1e-12 * np.max(np.abs(want)))


def dropped_mass(h, m):
    """R's mass off its ladder blocks over ||R||_F."""
    triple = reconstruct_case2(h, m, detect(h, m).gamma1)
    m_spec = hermitian_eigh(m)
    return _off_block_norm(triple.r, m_spec.cluster_ids,
                           _cluster_targets(m_spec, triple.gamma)) \
        / np.linalg.norm(triple.r)


def dense_reference_report(monkeypatch, h, m, tol=Tolerance()):
    """analyze_pair with R kept whole and the commutes_* flags taken from
    the dense reference products; the patches are undone on return."""
    with monkeypatch.context() as patch:
        patch.setattr(operators, "OFF_BLOCK_BOUND", -1.0)
        patch.setattr(
            detection, "_commute_flags",
            lambda r, h0, m, h_norm, tol: reference.dense_commute_flags(
                h0, r.dense, m, h_norm, tol))
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
    # Every float read off R psi moves with the mass the blocks drop: an
    # unstable record's coeffs, the null vector of [a, b, psi], by that
    # mass over the gap of its two smallest singular values (2.5 times it
    # on random_triple with noise).
    assert_reports_agree(report, expected,
                         rel=max(1e-12, 10 * dropped_mass(h, m)))


def spy_scan(monkeypatch):
    """Patch cli._scan_stability to record whether it reads R whole."""
    whole = []
    scan = cli._scan_stability

    def spied(h_spec, r, *args):
        whole.append(r.dense is not None)
        return scan(h_spec, r, *args)
    monkeypatch.setattr(cli, "_scan_stability", spied)
    return whole


@pytest.mark.parametrize("rtol", [1e-8, 1e-11])
@pytest.mark.parametrize("factor, blocks", [(0.7, True), (1.4, False)])
def test_noise_off_the_ladder_decides_the_path(monkeypatch, rtol, factor,
                                               blocks):
    # angular_block(2) with H coupling m = -1 to m = +1, two steps of L_z
    # apart: the reconstructed R carries that coupling off its ladder
    # blocks, linearly in its size, which is set to put R's off-block mass
    # at factor times the bound.  The bound is OFF_BLOCK_BOUND at the
    # default rtol of 1e-8 and scales with a smaller one, so that it stays
    # 100 times inside the commutes_* gates.  The triple still verifies,
    # and the report agrees with the dense reference's.
    tol = Tolerance(rtol)
    bound = OFF_BLOCK_BOUND * rtol / 1e-8
    bundle = angular_block(2, -0.5, 0.1)
    h, m = bundle.h, bundle.m
    i, j = (int(np.flatnonzero(np.diag(m.entries) == mu)[0])
            for mu in (-1.0, 1.0))
    coupling = np.zeros((h.dim, h.dim))
    coupling[i, j] = coupling[j, i] = 1e-3 * h.norm
    m_spec = hermitian_eigh(m)

    def off_block_ratio(s):
        pair = make_operator(h.dim, h.entries + s * coupling)
        gamma = detect(pair, m).gamma1
        r = reconstruct_case2(pair, m, gamma).r
        ids, target = m_spec.cluster_ids, _cluster_targets(m_spec, gamma)
        return pair, _off_block_norm(r, ids, target) / np.linalg.norm(r)

    s = factor * bound / off_block_ratio(1e-8)[1] * 1e-8
    perturbed, ratio = off_block_ratio(s)
    assert ratio == pytest.approx(factor * bound, rel=1e-3)
    expected = dense_reference_report(monkeypatch, perturbed, m, tol)
    whole = spy_scan(monkeypatch)
    report = cli.analyze_pair(perturbed, m, tol)
    assert report["triple"]["verified"] is True
    assert whole == [not blocks]
    assert_reports_agree(report, expected, rel=max(1e-12, 10 * ratio))


def test_analyze_pair_never_forms_the_permutation_matrix(monkeypatch):
    # M's sorted eigenbasis is held as its order; the n x n unit columns
    # are formed only when a caller reads eigenvectors.
    h, m = pair("hardcore_5", 0.0)
    solved = []
    solve = cli.hermitian_eigh

    def recording(a, tol):
        solved.append(solve(a, tol))
        return solved[-1]
    monkeypatch.setattr(cli, "hermitian_eigh", recording)
    report = cli.analyze_pair(h, m, Tolerance())
    assert report["stability"] is not None
    (spec,) = solved
    assert spec.order is not None
    assert spec.__dict__["_eigenvectors"] is None
    # Read, it is the permutation matrix, formed once and read-only.
    vectors = spec.eigenvectors
    np.testing.assert_array_equal(vectors, np.eye(m.dim)[:, spec.order])
    assert spec.eigenvectors is vectors and not vectors.flags.writeable
