import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensym import (
    NumericalError,
    Tolerance,
    canonical_eigenbasis,
    canonicalize,
    cli,
    detect,
    hermitian_eigh,
    make_operator,
    reconstruct_case2,
    scan_spectrum_stability,
    stability,
    verify_triple,
)
from gensym.stability import (STABILITY_CUTOFF, _classify_block, _ladder,
                              _partners, _rank_tests, _records, case_counts)
from gensym.operators import _ladder_blocks
from gensym.models import (angular_block, fermion_chain, hardcore_chain,
                           involution_example, jaynes_cummings,
                           projection_example, random_triple)

import reference
from conftest import op, traced_peak
from reference import matrix_function


def rank_test(psi, a, b):
    """_rank_tests on one column: (stable, (x, y, u)), x a + y b = u psi."""
    stable, x, y, u = _rank_tests(
        *(np.reshape(np.asarray(v), (-1, 1)) for v in (a, b, psi)))
    return bool(stable[0]), (complex(x[0]), complex(y[0]), complex(u[0]))


def _triple_ladder(h_spec, triple, m_spec):
    """The scan's _Ladder for a GenSymTriple, R held as the scan holds it."""
    return _ladder(h_spec, _ladder_blocks(triple.r, triple.gamma, m_spec),
                   triple.gamma, m_spec)


def classify_column(psi, eigenvalue, h_spec, triple, m_spec):
    """_classify_block on one eigenvector of the H that h_spec decomposes,
    as a block of one column, read as a record."""
    eigenvalues = np.array([float(eigenvalue)])
    return _records(eigenvalues, _classify_block(
        _triple_ladder(h_spec, triple, m_spec), np.reshape(psi, (-1, 1)),
        eigenvalues, Tolerance()))[0]


def partner_column(psi, eigenvalue, coeffs, h_spec, triple, m_spec):
    """_partners on one eigenvector of h_spec's H with the given (x, y):
    its (z, e_second, residual)."""
    z, e_second, residual = _partners(
        _triple_ladder(h_spec, triple, m_spec), np.reshape(psi, (-1, 1)),
        np.array([float(eigenvalue)]), *np.array([coeffs]).T, Tolerance())
    return complex(z[0]), float(e_second[0]), float(residual[0])


def partner_vector(psi, partner, h, m_spec):
    """The unit chi = exp(-zM) psi of a partner record, exp(-zM) formed
    densely from eigh(M), checked against H at e_second by the scan's
    partner gate."""
    z = partner.z
    dense = matrix_function(m_spec, lambda lam: cmath.exp(-z * lam))
    chi = dense.entries @ psi
    chi /= np.linalg.norm(chi)
    residual = np.linalg.norm(h @ chi - partner.e_second * chi)
    assert residual <= Tolerance().rtol * np.linalg.norm(h)
    return chi


def angular_setup(l, e_n=-0.5, g=0.1):
    bundle = angular_block(l, e_n, g)
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    return triple, h_spec, m_spec


def annihilation_setup(mu=0.3):
    # R feeds level 0 into level 1 only; the third basis vector is an
    # isolated H-eigenvector killed by both R and R^dag.
    m = op(np.diag([1.0, 0.0, -1.0]))
    h0 = np.diag([0.0, 0.0, 5.0]).astype(complex)
    r = np.zeros((3, 3), dtype=complex)
    r[1, 0] = mu
    h = op(h0 + r + r.conj().T)
    triple = reconstruct_case2(h, m, 1.0)
    return triple, h, m


class TestLinearDependence:
    def test_parallel_columns(self):
        psi = np.array([1.0, 2.0, 0.0])
        stable, _ = rank_test(psi, psi, 2 * psi)
        assert stable

    def test_generic_columns_independent(self, rng):
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        stable, _ = rank_test(psi, a, b)
        assert not stable

    def test_middle_angular_vector_by_hand(self):
        # For the l=1 block R psi and R^dag psi are +-g(0,1,0)^T, so the
        # null relation is x*a + y*b = 0 with x = y.
        g = 0.1
        triple, h_spec, _ = angular_setup(1, g=g)
        psi = h_spec.eigenvectors[:, 1]
        a = triple.r @ psi
        b = triple.r.conj().T @ psi
        np.testing.assert_allclose(a + b, 0, atol=1e-14)
        np.testing.assert_allclose(np.abs(a[1]), g, atol=1e-12)
        stable, (x, y, u) = rank_test(psi, a, b)
        assert stable
        assert abs(u) <= 1e-12
        assert x == pytest.approx(y, abs=1e-12)


class TestClassify:
    def test_middle_vector_is_case1(self):
        triple, h_spec, m_spec = angular_setup(1)
        rec = classify_column(h_spec.eigenvectors[:, 1], -0.5, h_spec,
                              triple, m_spec)
        assert rec.stable
        assert rec.primary_case == 1
        assert rec.sum_annihilates
        assert not rec.r_annihilates and not rec.rd_annihilates

    def test_outer_vectors_are_case5(self):
        triple, h_spec, m_spec = angular_setup(1)
        for i in (0, 2):
            rec = classify_column(h_spec.eigenvectors[:, i],
                                  float(h_spec.eigenvalues[i]), h_spec,
                                  triple, m_spec)
            assert rec.primary_case == 5
            assert rec.partner is not None

    def test_double_annihilation(self):
        triple, h, m = annihilation_setup()
        rec = classify_column(np.array([0.0, 0.0, 1.0]), 5.0,
                              hermitian_eigh(h), triple, hermitian_eigh(m))
        assert rec.stable
        assert rec.primary_case == 1
        assert rec.r_annihilates and rec.rd_annihilates
        assert rec.sum_annihilates

    def test_rejects_complex_gamma(self):
        # The triple itself refuses a non-real gamma, so no classification
        # can ever see one.
        triple, h_spec, m_spec = angular_setup(1)
        with pytest.raises(ValueError):
            skewed = dataclasses.replace(triple, gamma=1.0 + 1.0j)
            classify_column(h_spec.eigenvectors[:, 1], -0.5, h_spec, skewed,
                            m_spec)


class TestPartner:
    def test_partner_shift_and_crossing(self):
        # The outer eigenvalues E = E_n -+ 2g swap under the partner map.
        g = 0.1
        triple, h_spec, m_spec = angular_setup(1, g=g)
        records = scan_spectrum_stability(h_spec, triple, m_spec)
        assert records[0].partner.e_second == pytest.approx(-0.3, abs=1e-10)
        assert records[2].partner.e_second == pytest.approx(-0.7, abs=1e-10)
        for rec in (records[0], records[2]):
            assert rec.partner.residual <= 1e-10
            assert abs(rec.partner.z.real) <= 1e-10
            assert abs(abs(rec.partner.z.imag) - np.pi) <= 1e-10

    def test_partner_matches_other_eigenvector(self):
        triple, h_spec, m_spec = angular_setup(1)
        records = scan_spectrum_stability(h_spec, triple, m_spec)
        chi = partner_vector(h_spec.eigenvectors[:, 0], records[0].partner,
                             angular_block(1, -0.5, 0.1).h.entries, m_spec)
        other = h_spec.eigenvectors[:, 2]
        assert abs(np.vdot(chi, other)) == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_through_partner(self):
        triple, h_spec, m_spec = angular_setup(1)
        records = scan_spectrum_stability(h_spec, triple, m_spec)
        first = records[0].partner
        chi = partner_vector(h_spec.eigenvectors[:, 0], first,
                             angular_block(1, -0.5, 0.1).h.entries, m_spec)
        back = classify_column(chi, first.e_second, h_spec, triple, m_spec)
        assert back.primary_case == 5
        assert back.partner.e_second == pytest.approx(
            records[0].eigenvalue, abs=1e-7)


class TestScan:
    def test_l1_census(self):
        triple, h_spec, m_spec = angular_setup(1)
        counts = case_counts(scan_spectrum_stability(h_spec, triple, m_spec))
        assert counts == {1: 1, 5: 2}

    def test_l0_trivial_block(self):
        bundle = angular_block(0, -0.5, 0.1)
        h_spec, m_spec = hermitian_eigh(bundle.h), hermitian_eigh(bundle.m)
        # R vanishes identically for l = 0; build the triple by hand.
        triple, _, _ = annihilation_setup()
        triple = dataclasses.replace(
            triple, h0=bundle.h.entries, r=np.zeros((1, 1)), gamma=1.0 + 0.0j)
        rec = classify_column(np.array([1.0]), -0.5, h_spec, triple, m_spec)
        assert rec.r_annihilates and rec.rd_annihilates
        assert rec.primary_case == 1

    def test_generic_triple_has_unstable_vectors(self):
        bundle = random_triple((3, 4, 3), 1.0, seed=17)
        triple = reconstruct_case2(bundle.h, bundle.m, 1.0)
        h_spec = canonical_eigenbasis(bundle.h, bundle.m)
        m_spec = hermitian_eigh(bundle.m)
        counts = case_counts(scan_spectrum_stability(h_spec, triple, m_spec))
        assert counts.get(0, 0) >= 1

    def test_sum_annihilation_implies_h0_eigenvector(self):
        triple, h_spec, m_spec = angular_setup(3)
        records = scan_spectrum_stability(h_spec, triple, m_spec)
        hits = 0
        for rec in records:
            if not rec.sum_annihilates:
                continue
            hits += 1
            psi = h_spec.eigenvectors[:, rec.index]
            defect = np.linalg.norm(
                triple.h0 @ psi - rec.eigenvalue * psi)
            assert defect <= 1e-8
        assert hits >= 1

    @pytest.mark.parametrize("bundle", [
        hardcore_chain(5, 0.3 + 0.1j), random_triple((3, 4, 3), 1.0, seed=17)],
        ids=["hardcore_5", "random_triple"])
    def test_unpinned_coeffs_are_fixed(self, bundle):
        # Both R and R^dag annihilate psi: every (x, y, 0) is a null
        # relation, and (1, 0, 0) in ladder units is reported.  A case-1
        # or unstable null vector has its largest entry, in ladder units,
        # real positive, up to the rounding of the rotation.
        h, m = bundle.h, bundle.m
        triple = reconstruct_case2(h, m, 1.0)
        records = scan_spectrum_stability(canonical_eigenbasis(h, m), triple,
                                          hermitian_eigh(m))
        r_norm = np.linalg.norm(triple.r)
        pinned = [rec for rec in records if rec.primary_case in (None, 1)]
        assert pinned
        for rec in pinned:
            x, y, u = rec.coeffs
            ladder = np.array([x * r_norm, y * r_norm, u])
            if rec.r_annihilates and rec.rd_annihilates:
                np.testing.assert_allclose(ladder, [1, 0, 0], rtol=1e-15)
                continue
            pivot = ladder[np.argmax(np.abs(ladder))]
            assert abs(pivot.imag) <= 1e-15 * pivot.real

    def test_records_in_index_order(self):
        triple, h_spec, m_spec = angular_setup(2)
        records = scan_spectrum_stability(h_spec, triple, m_spec)
        assert [rec.index for rec in records] == list(range(5))


def test_partner_z_is_stable_on_the_branch_cut():
    # -y/x = -1 up to a rounding error of either sign must give one z.
    triple, h_spec, m_spec = angular_setup(1)
    rec = classify_column(h_spec.eigenvectors[:, 0],
                          float(h_spec.eigenvalues[0]), h_spec, triple, m_spec)
    x = rec.coeffs[0]
    zs = [partner_column(h_spec.eigenvectors[:, 0], rec.eigenvalue,
                         (x, x * (1 + sign * 1e-17j)), h_spec, triple,
                         m_spec)[0]
          for sign in (1, -1)]
    assert zs[0] == zs[1]
    assert zs[0].imag * triple.gamma.real == pytest.approx(np.pi)


def test_two_dimensional_space_is_always_stable():
    # Fewer than three ambient dimensions force [R psi | R^dag psi | psi]
    # to be dependent; the rank test must still give three coefficients.
    bundle = random_triple([1, 1], 1.0, seed=0)
    report = cli.analyze_pair(bundle.h, bundle.m, Tolerance())
    assert report["stability"]["counts"] == {"5": 2}


SCAN_MODELS = {
    "angular_l1": lambda: angular_block(1, -0.5, 0.1),
    "angular_l3": lambda: angular_block(3, -0.5, 0.1),
    "jc_degenerate_h": lambda: jaynes_cummings(1.0, 1.0, 0.0, cutoff=4),
    "hardcore_4": lambda: hardcore_chain(4, 0.3 + 0.1j),
    "random_triple": lambda: random_triple((3, 4, 3), 1.0, seed=17),
    "random_triple_dim2": lambda: random_triple([1, 1], 1.0, seed=0),
}


def _rank_at_most_one(triple, psi):
    r = triple.r
    s = np.linalg.svd(np.column_stack([r @ psi, r.conj().T @ psi, psi]),
                      compute_uv=False)
    return s[1] <= STABILITY_CUTOFF * s[0]


@pytest.mark.parametrize("name", SCAN_MODELS)
def test_scan_matches_per_vector_classify(name):
    bundle = SCAN_MODELS[name]()
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    records = scan_spectrum_stability(h_spec, triple, m_spec)
    assert [rec.index for rec in records] == list(range(h_spec.dim))
    for rec in records:
        psi = h_spec.eigenvectors[:, rec.index]
        one = classify_column(psi, rec.eigenvalue, h_spec, triple, m_spec)
        assert (rec.stable, rec.cases, rec.primary_case) == (
            one.stable, one.cases, one.primary_case)
        assert (rec.r_annihilates, rec.rd_annihilates,
                rec.sum_annihilates) == (one.r_annihilates,
                                         one.rd_annihilates,
                                         one.sum_annihilates)
        if not _rank_at_most_one(triple, psi):
            # The null vector is unique up to a phase (cases 2-5 fix it
            # by u = 1); below rank 2 it is not unique at all.
            overlap = np.vdot(one.coeffs, rec.coeffs)
            np.testing.assert_allclose(
                rec.coeffs, np.multiply(one.coeffs, overlap / abs(overlap)),
                rtol=0, atol=1e-12)
        assert (rec.partner is None) == (one.partner is None)
        if rec.partner is None:
            continue
        z = rec.partner.z
        assert abs(z - one.partner.z) <= 1e-12 * abs(z)
        assert rec.partner.e_second == pytest.approx(one.partner.e_second,
                                                     rel=1e-12, abs=1e-12)
        partner_vector(psi, rec.partner, bundle.h.entries, m_spec)


@pytest.mark.parametrize("name", SCAN_MODELS)
def test_array_pass_matches_the_scalar_reference(name):
    # _classify_block's decisions equal reference.classify_relation's,
    # relation by relation, and its coeffs, z and e_second agree with the
    # Python scalar arithmetic to 1e-14 of their scale: numpy's complex
    # division, log and exp may round differently in the last digits.
    bundle = SCAN_MODELS[name]()
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    ladder = _triple_ladder(h_spec, triple, hermitian_eigh(bundle.m))
    vectors, w = h_spec.eigenvectors, h_spec.eigenvalues
    a, b = (ladder.r.times(vectors) / ladder.r_norm,
            ladder.r_dag.times(vectors) / ladder.r_norm)
    rank = _rank_tests(a, b, vectors)
    cases, coeffs, flags, z, e_second, _ = _classify_block(
        ladder, vectors, w, Tolerance())
    partners = iter(zip(z, e_second))
    for j, (stable, x, y, u) in enumerate(zip(*rank)):
        case, rel = reference.classify_relation(
            stable, x, y, u, flags[j, 0] and flags[j, 1])
        assert cases[j] == case
        want = np.array(rel) * [1 / ladder.r_norm, 1 / ladder.r_norm, 1]
        np.testing.assert_allclose(coeffs[j], want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())
        if case == 5:
            zj, ej = next(partners)
            z_ref, eps = reference.ladder_exponent(*want[:2], triple.gamma)
            assert abs(zj - z_ref) <= 1e-14 * abs(z_ref)
            assert abs(ej - (w[j] + eps.real)) <= 1e-14 * ladder.h_norm
    assert next(partners, None) is None


def _record_fields(rec):
    """Every field of a record."""
    partner = rec.partner and (rec.partner.z, rec.partner.e_second,
                               rec.partner.residual)
    return (rec.index, rec.eigenvalue, rec.stable, rec.cases,
            rec.primary_case, rec.coeffs, rec.r_annihilates,
            rec.rd_annihilates, rec.sum_annihilates, partner)


@pytest.mark.parametrize("name", SCAN_MODELS)
def test_scan_never_reads_h0(name):
    # H enters through h_spec alone: a zero H0 in the triple changes no bit.
    bundle = SCAN_MODELS[name]()
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    blank = dataclasses.replace(triple, h0=np.zeros_like(triple.h0))
    assert ([_record_fields(rec) for rec in
             scan_spectrum_stability(h_spec, blank, m_spec)]
            == [_record_fields(rec) for rec in
                scan_spectrum_stability(h_spec, triple, m_spec)])


def test_scan_forms_no_n_by_n_hamiltonian():
    # R^dag (a copy for a complex R), the partners the records hold and
    # O(n * _BLOCK) workspace, 3.98 n^2 here (complex units); one more
    # n x n array, such as H0 + R + R^dag, exceeds the bound.
    bundle = hardcore_chain(7, 0.3 + 0.1j)
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    n = h_spec.dim
    assert traced_peak(lambda: scan_spectrum_stability(
        h_spec, triple, m_spec)) <= 16 * 4.1 * n ** 2


def test_scan_makes_no_matrix_function_call(monkeypatch):
    # Cost model: each partner is O(n^2) through the eigenbasis of M,
    # never a dense O(n^3) matrix function.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return matrix_function(*args, **kwargs)

    monkeypatch.setattr(reference, "matrix_function", counted)
    monkeypatch.setattr(stability, "matrix_function", counted, raising=False)
    triple, h_spec, m_spec = angular_setup(3)
    records = scan_spectrum_stability(h_spec, triple, m_spec)
    assert sum(rec.partner is not None for rec in records) == 6
    assert calls == []


# Cases 2 (R psi = psi / x) and 3 (R^dag psi = psi / y) need R or R^dag to
# have a nonzero eigenvalue.  [R, M] = gamma R with real gamma != 0 shifts
# the finite spectrum of M, so R is nilpotent and neither case can occur.
def _screened_cases(report):
    return {c for rec in report["stability"]["records"] for c in rec["cases"]}


CASE_MODELS = {
    "angular_l1": lambda: angular_block(1, -0.5, 0.1),
    "angular_l2": lambda: angular_block(2, -0.125, 0.1),
    "angular_l10": lambda: angular_block(10, 0.0, 0.1),
    "jc_7": lambda: jaynes_cummings(1.0, 1.0, 0.1, cutoff=7),
    "jc_16": lambda: jaynes_cummings(1.3, 1.0, 0.2, cutoff=16),
    "hardcore_4": lambda: hardcore_chain(4, 0.3 + 0.1j),
    "hardcore_6": lambda: hardcore_chain(6, 0.2),
    "fermion_4": lambda: fermion_chain(4, 0.5, [0.3 + 0.1j, 0, -0.2, 0]),
    "projection_8": lambda: projection_example(8, seed=0),
    "involution_8": lambda: involution_example(8, seed=1),
}


@pytest.mark.parametrize("name", CASE_MODELS)
def test_acceptance_models_have_no_case_2_or_3(name):
    bundle = CASE_MODELS[name]()
    report = cli.analyze_pair(bundle.h, bundle.m, Tolerance())
    assert report["detection"]["kind"] == "case2"
    assert not _screened_cases(report) & {2, 3}


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(level_dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
       gamma=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_triples_have_no_case_2_or_3(level_dims, gamma, seed):
    bundle = random_triple(level_dims, gamma, seed=seed)
    report = cli.analyze_pair(bundle.h, bundle.m, Tolerance())
    assert report["detection"]["kind"] == "case2"
    assert not _screened_cases(report) & {2, 3}


@pytest.mark.parametrize("shift", [1e3, 1e6, -1e6])
def test_partners_stay_finite_when_m_is_shifted(shift):
    # exp(-zM) psi on M + dI: exp(-z mu) overflowed for d = 1e3, and a NaN
    # partner residual passed the residual gate.
    bundle = jaynes_cummings(1.0, 1.0, 0.1, cutoff=16)
    m = make_operator(bundle.m.dim,
                      bundle.m.entries + shift * np.eye(bundle.m.dim))
    report = cli.analyze_pair(bundle.h, m, Tolerance())
    assert report["stability"]["counts"] == {"1": 2, "5": 32}
    residuals = [r["partner"]["residual"]
                 for r in report["stability"]["records"] if "partner" in r]
    assert len(residuals) == 32
    assert max(residuals) <= Tolerance().rtol * bundle.h.norm


@pytest.mark.xfail(strict=True, raises=NumericalError, reason=(
    "stability accepts sigma3/sigma1 <= 1e-8, but the partner is then held "
    "to rtol ||H||, amplified by the condition number of exp(-zM)"))
def test_partner_gate_holds_at_noise_below_rtol():
    # Case 2 and verified, yet one partner residual reads 5.68e-7 against
    # a gate of 5.35e-7.
    bundle = jaynes_cummings(1.0, 1.0, 0.1, cutoff=16)
    h = bundle.h.entries
    e = np.random.default_rng(0).normal(size=h.shape)
    e = (e + e.T) / 2
    e *= 4.4e-10 * np.linalg.norm(h) / np.linalg.norm(e)
    report = cli.analyze_pair(make_operator(len(h), h + e), bundle.m,
                              Tolerance())
    assert report["triple"]["verified"]
    assert report["stability"]["counts"] == {"1": 2, "5": 32}


def small_tol_pair(rtol):
    """(H, M, Tolerance(rtol)): M = diag(0, 1e-4, 1) and H0 + c (e_0 e_1^T
    + e_1 e_0^T), c = 0.7 rtol ||H0||_F / sqrt(2), so that the coupling
    of M's two nearest levels is 0.7 of the triple's gate."""
    h = np.array([[0.5, 0.0, 1.0], [0.0, 0.2, 0.0], [1.0, 0.0, 2.0]])
    h[0, 1] = h[1, 0] = 0.7 * rtol * np.linalg.norm(h) / np.sqrt(2)
    m = make_operator(3, np.diag([0.0, 1e-4, 1.0]))
    return make_operator(3, h), m, Tolerance(rtol=rtol)


def test_partner_gate_at_the_default_tol():
    report = cli.analyze_pair(*small_tol_pair(1e-8))
    assert report["detection"]["kind"] == "case2"
    assert report["triple"]["verified"] is True
    assert report["stability"]["counts"] == {"0": 2, "5": 1}


@pytest.mark.xfail(strict=True, raises=NumericalError, reason=(
    "the case-5 relation is fixed at STABILITY_CUTOFF whatever rtol, so "
    "the partner residual does not scale with its gate (ROADMAP item 16)"))
def test_partner_gate_at_a_small_tol():
    # The triple verifies; the scan then raises "partner residual
    # 6.940e-11 exceeds tolerance" against a gate of 2.5e-11.
    h, m, tol = small_tol_pair(1e-11)
    triple = reconstruct_case2(h, m, detect(h, m, tol).gamma1, tol)
    assert verify_triple(h, m, triple, tol).passed
    report = cli.analyze_pair(h, m, tol)
    assert report["triple"]["verified"] is True
    assert report["stability"] is not None


@pytest.mark.parametrize("factor, passes", [(0.5, True), (2.0, False)])
def test_a_shift_off_the_real_axis_fails_the_gate(factor, passes):
    # exp(z gamma) = -y/x gives the shift eps = -1/x - 1/y, real for the
    # relation of a Hermitian H.  With x = 1 and 1/y = -1 - i t the shift
    # is i t, gated at rtol ||H||_F.  psi, H's ground state, lies in one
    # M-cluster, so its partner exp(-zM) psi is psi up to a factor and
    # passes the residual gate whatever z.
    bundle = jaynes_cummings(1.0, 1.0, 0.1, cutoff=4)
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    ladder = _triple_ladder(h_spec, triple, hermitian_eigh(bundle.m))
    t = factor * Tolerance().rtol * ladder.h_norm
    x, y = 1.0 + 0.0j, 1.0 / complex(-1.0, -t)
    psi, eigenvalue = h_spec.eigenvectors[:, [0]], h_spec.eigenvalues[:1]

    def partner():
        return _partners(ladder, psi, eigenvalue, np.array([x]),
                         np.array([y]), Tolerance())

    if passes:
        z, e_second, _ = partner()
        assert cmath.exp(z[0] * triple.gamma) == pytest.approx(-y / x)
        assert abs(e_second[0] - eigenvalue[0]) <= 1e-15
    else:
        with pytest.raises(NumericalError, match="is not real"):
            partner()


def test_a_nan_partner_residual_fails_the_gate(monkeypatch):
    bundle = jaynes_cummings(1.0, 1.0, 0.1, cutoff=4)
    triple = canonicalize(
        reconstruct_case2(bundle.h, bundle.m, bundle.known.gamma))
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    # A NaN gamma makes every exponent z, and so every partner
    # exp(-zM) psi, NaN; the shift gate passes a NaN shift on to it.
    # numpy warns when it divides by NaN.
    ladder = stability._ladder
    monkeypatch.setattr(stability, "_ladder", lambda h_spec, r, gamma, m_spec:
                        ladder(h_spec, r, np.nan, m_spec))
    with (np.errstate(invalid="ignore"),
          pytest.raises(NumericalError, match="partner residual nan")):
        scan_spectrum_stability(h_spec, triple, m_spec)
