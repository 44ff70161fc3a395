import dataclasses
import itertools

import numpy as np
import pytest

from gensym import (
    CASE2,
    GENUINE,
    NO_GENSYM,
    GenSymTriple,
    Tolerance,
    canonicalize,
    detect,
    hermitian_eigh,
    make_operator,
    reconstruct_case2,
    verify_triple,
)
from gensym.cli import analyze_pair
from gensym import detection
from gensym.detection import (
    PROBE_LOWER,
    PROBE_MARGIN,
    PROBE_UPPER,
    PROBES,
    SCREEN_MIN_DIM,
    SCREEN_MIN_DIM_REAL,
    DetectionResult,
    _centred_times,
    _commutator_chain,
    _fit_case2,
    _probe_block,
)
from gensym.models import (
    angular_block,
    fermion_chain,
    hardcore_chain,
    involution_example,
    jaynes_cummings,
    projection_example,
    random_triple,
)
from gensym.operators import TILE, NumericalError, _times_block, fro

from conftest import SX, SZ, op, random_hermitian, traced_peak
from reference import iterated_commutator, similarity_transform

PROJ = np.diag([1.0, 0.0])


def commutator_chain(h, m, depth=3):
    ops = [iterated_commutator(op(h), op(m), n) for n in range(1, depth + 1)]
    return ops


def acceptance_pairs():
    """(name, H, M) for the acceptance-suite models, one of each kind."""
    jc = jaynes_cummings(1.3, 1.0, 0.2, cutoff=16)
    bundles = {
        "angular_l1": angular_block(1, -0.5, 0.1),
        "angular_l3": angular_block(3, 0.2, 0.1),
        "jc_16": jc,
        "hardcore_4": hardcore_chain(4, 0.3 + 0.1j),
        "fermion_4": fermion_chain(4, 1.0, [0.2, 0.1j, 0.3 - 0.1j, 0.05]),
        "projection_8": projection_example(8, seed=0),
        "involution_8": involution_example(8, seed=1),
        "random_triple": random_triple((4, 4, 4), 1.0, seed=3),
    }
    pairs = [(name, b.h, b.m) for name, b in bundles.items()]
    pairs.append(("jc_16_excitations", jc.h, jc.extras["m_exc"]))
    return pairs


def random_pairs():
    rng = np.random.default_rng(7)
    return [(f"random_{dim}", op(random_hermitian(rng, dim)),
             op(random_hermitian(rng, dim)))
            for dim in (2, 3, 5, 8, 13, 21, 40)]


def reference_detect(h, m, tol=Tolerance()):
    """detect's decision rule on iterated_commutator output."""
    c1, c3 = (iterated_commutator(h, m, n) for n in (1, 3))
    if fro(c1.entries) <= tol.rtol * h.norm * m.norm:
        return GENUINE, 0.0
    gamma, residual = _fit_case2(c1.entries, c3.entries)
    if gamma > 0 and residual <= tol.rtol:
        return CASE2, gamma
    return NO_GENSYM, 0.0


PAIRS = acceptance_pairs() + random_pairs()


@pytest.mark.parametrize("name,h,m", PAIRS, ids=[p[0] for p in PAIRS])
class TestCommutatorChain:
    def test_matches_iterated_commutator(self, name, h, m):
        chain = _commutator_chain(h.entries, m)
        for k in (1, 2, 3):
            expected = iterated_commutator(h, m, k).entries
            bound = 1e-13 * h.norm * m.norm ** k
            assert fro(next(chain) - expected) <= bound

    def test_exact_hermitian_parity(self, name, h, m):
        c1, c2, c3 = itertools.islice(
            _commutator_chain(h.entries, m), 3)
        np.testing.assert_array_equal(c1, -c1.conj().T)
        np.testing.assert_array_equal(c2, c2.conj().T)
        np.testing.assert_array_equal(c3, -c3.conj().T)

    def test_detect_matches_fit_on_iterated_commutators(self, name, h, m):
        kind, gamma1 = reference_detect(h, m)
        result = detect(h, m)
        assert result.kind == kind
        assert abs(result.gamma1 - gamma1) <= 1e-12 * max(1.0, abs(gamma1))


class TestFitCase2:
    def test_pauli_projection(self):
        c1, _, c3 = commutator_chain(SX, PROJ)
        gamma, residual = _fit_case2(c1.entries, c3.entries)
        assert gamma == pytest.approx(1.0, abs=1e-12)
        assert residual <= 1e-12

    def test_pauli_involution(self):
        c1, _, c3 = commutator_chain(SX, SZ)
        gamma, residual = _fit_case2(c1.entries, c3.entries)
        assert gamma == pytest.approx(2.0, abs=1e-12)
        assert residual <= 1e-12

    def test_matches_the_whole_array_residual_and_keeps_its_inputs(self):
        # Dense M, case 2, and more rows than one block of the difference.
        bundle = projection_example(2 * TILE + 1, seed=4)
        c1, _, c3 = itertools.islice(
            _commutator_chain(bundle.h.entries, bundle.m), 3)
        saved = c1.tobytes(), c3.tobytes()
        gamma, residual = _fit_case2(c1, c3)
        assert (c1.tobytes(), c3.tobytes()) == saved
        gamma_sq = np.vdot(c1, c3).real / fro(c1) ** 2
        assert gamma == np.sqrt(gamma_sq) == pytest.approx(1.0)
        assert residual == fro(c3 - gamma_sq * c1) / fro(c3)
        # Into C3's own buffer, as detect takes it: the same values.
        assert _fit_case2(c1, c3, out=c3) == (gamma, residual)
        assert c1.tobytes() == saved[0] and c3.tobytes() != saved[1]

    def test_vanishing_third_commutator_is_a_numerical_failure(self):
        # C1 != 0 forces C3 != 0, so C3 = 0 can only be underflow.
        c1, _, _ = commutator_chain(SX, SZ)
        with pytest.raises(NumericalError, match="underflows"):
            _fit_case2(c1.entries, np.zeros((2, 2)))


class TestDetect:
    def test_projection_symmetry(self, rng):
        bundle = projection_example(8, seed=3)
        result = detect(bundle.h, bundle.m)
        assert result.kind == CASE2
        assert result.gamma1 ** 2 == pytest.approx(1.0, abs=1e-10)
        assert result.residual <= 1e-10

    def test_involution_symmetry(self):
        bundle = involution_example(8, seed=4)
        result = detect(bundle.h, bundle.m)
        assert result.kind == CASE2
        assert result.gamma1 ** 2 == pytest.approx(4.0, abs=1e-9)

    def test_identity_is_genuine(self, rng):
        h = op(random_hermitian(rng, 4))
        assert detect(h, op(np.eye(4))).kind == GENUINE

    @pytest.mark.parametrize("zero", ["H", "M"])
    def test_zero_operand_is_genuine_with_zero_residual(self, rng, zero):
        pair = {"H": op(random_hermitian(rng, 4)),
                "M": op(random_hermitian(rng, 4))}
        pair[zero] = op(np.zeros((4, 4)))
        assert detect(pair["H"], pair["M"]) == DetectionResult(kind=GENUINE)

    def test_generic_pair_rejected(self, rng):
        h = op(random_hermitian(rng, 16))
        m = op(random_hermitian(rng, 16))
        result = detect(h, m)
        assert result.kind == NO_GENSYM
        assert result.residual > 0.1

    def test_screened_dense_pair_holds_one_band(self, rng):
        # From SCREEN_MIN_DIM on the probe screen rejects a random pair
        # before any commutator: its peak is one TILE-row band of H' or M'
        # and the n x 8 probe blocks.  The chain's own peak is pinned by the
        # case-2 pair below.
        dim = 256
        h, m = (op(random_hermitian(rng, dim)) for _ in range(2))
        assert detect(h, m).screened
        assert traced_peak(lambda: detect(h, m)) <= 16 * (
            TILE * dim + 16 * dim * PROBES)

    def test_dense_case2_pair_holds_three_commutators(self):
        # The probe screen runs first and passes the pair on; its copies
        # are dropped before the chain starts, so the peak is the chain's.
        bundle = projection_example(256, seed=5)
        h, m = bundle.h, bundle.m
        assert h.hermitian and m.hermitian  # gated outside the trace
        assert detect(h, m).kind == CASE2
        assert traced_peak(lambda: detect(h, m)) <= 16 * (3 * 256 ** 2
                                                         + 4 * TILE ** 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            detect(op([[0, 1], [0, 0]]), op(SZ))


class TestReconstructCase2:
    def test_pauli_projection_closed_form(self):
        triple = reconstruct_case2(op(SX), op(PROJ), 1.0)
        np.testing.assert_allclose(triple.r, [[0, 0], [1, 0]],
                                   atol=1e-14)
        np.testing.assert_allclose(triple.h0, 0, atol=1e-14)
        report = verify_triple(op(SX), op(PROJ), triple)
        assert report.residual_sum <= 1e-14
        assert report.residual_h0m <= 1e-14
        assert report.residual_ladder <= 1e-14

    def test_angular_block_recovers_lowering(self):
        bundle = angular_block(1, -0.5, 0.1)
        result = detect(bundle.h, bundle.m)
        triple = canonicalize(reconstruct_case2(bundle.h, bundle.m,
                                                result.gamma))
        np.testing.assert_allclose(triple.r,
                                   bundle.known.r.entries, atol=1e-12)
        # R commutes with the scalar H0 on the block.
        h0, r = triple.h0, triple.r
        assert np.linalg.norm(r @ h0 - h0 @ r) <= 1e-12

    def test_synthetic_round_trip(self):
        bundle = random_triple((3, 4, 3), 2.0, seed=5)
        result = detect(bundle.h, bundle.m)
        assert result.gamma1 == pytest.approx(2.0, abs=1e-8)
        triple = canonicalize(reconstruct_case2(bundle.h, bundle.m,
                                                result.gamma))
        scale = np.linalg.norm(bundle.known.r.entries)
        assert np.linalg.norm(triple.r - bundle.known.r.entries) \
            <= 1e-8 * scale
        assert np.linalg.norm(triple.h0 - bundle.known.h0.entries) \
            <= 1e-8 * max(1.0, np.linalg.norm(bundle.known.h0.entries))

    def test_rejects_imaginary_gamma(self):
        with pytest.raises(ValueError):
            reconstruct_case2(op(SX), op(PROJ), 1j)


class TestGenSymTriple:
    def test_gamma_is_stored_as_float(self):
        triple = reconstruct_case2(op(SX), op(PROJ), 1.0 + 0.0j)
        assert type(triple.gamma) is float and triple.gamma == 1.0

    @pytest.mark.parametrize("gamma", [1j, 1.0 + 1e-300j, 0.0, -0.0,
                                       float("nan"), float("inf")])
    def test_rejects_gamma_that_is_not_real_and_nonzero(self, gamma):
        triple = reconstruct_case2(op(SX), op(PROJ), 1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(triple, gamma=gamma)
        with pytest.raises(ValueError):
            reconstruct_case2(op(SX), op(PROJ), gamma)


    def test_holds_read_only_arrays_by_the_storage_rule(self):
        h0 = np.array([[1.0, 1j], [-1j, 2.0]])
        r = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        triple = GenSymTriple(h0=h0, r=r, gamma=1.0)
        assert triple.h0.dtype == np.complex128
        assert triple.r.dtype == np.float64
        for held, given in ((triple.h0, h0), (triple.r, r)):
            assert not held.flags.writeable
            assert not np.shares_memory(held, given)
            np.testing.assert_array_equal(held, given)
        with pytest.raises(ValueError, match="non-finite"):
            GenSymTriple(h0=h0, r=r * np.nan, gamma=1.0)


class TestVerifyTriple:
    def test_projection_triple_passes(self):
        triple = reconstruct_case2(op(SX), op(PROJ), 1.0)
        report = verify_triple(op(SX), op(PROJ), triple)
        assert report.passed

    def test_perturbed_ladder_fails(self, rng):
        bundle = random_triple((4, 4), 1.0, seed=9)
        triple = reconstruct_case2(bundle.h, bundle.m, 1.0)
        noisy = dataclasses.replace(
            triple,
            r=triple.r + 1e-3 * random_hermitian(rng, 8))
        report = verify_triple(bundle.h, bundle.m, noisy)
        assert not report.ladder_ok

    def test_genuine_triple_flagged_degenerate(self, rng):
        # A commuting pair reconstructs to R = 0, H0 = H: the ladder
        # relation then holds for any gamma, so the report flags it.
        h = op(random_hermitian(rng, 4))
        m = op(np.eye(4))
        triple = reconstruct_case2(h, m, 1.0)
        np.testing.assert_array_equal(triple.r, 0)
        report = verify_triple(h, m, triple)
        assert report.sum_ok and report.h0_commutes_ok
        assert report.degenerate

    def test_rejects_a_triple_of_another_dimension(self):
        triple = reconstruct_case2(op(SX), op(PROJ), 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_triple(op(np.eye(3)), op(np.eye(3)), triple)

    @pytest.mark.parametrize("conjugate", [False, True],
                             ids=["diagonal_m", "dense"])
    def test_holds_at_most_six_arrays(self, conjugate):
        # Complex H with a real diagonal M, then both made complex and
        # dense by a random unitary.  The copies of H0 and R over 2^a, R^dag
        # and one R^dag R or R R^dag with its product are live at once:
        # 5.63 n^2 complex entries at dim 256, the tiles included.
        bundle = hardcore_chain(8, 0.3 + 0.1j)
        h, m = bundle.h, bundle.m
        if conjugate:
            h, m = _conjugated(bundle, m, np.random.default_rng(8))
        triple = reconstruct_case2(h, m, detect(h, m).gamma1)
        assert traced_peak(lambda: verify_triple(h, m, triple)) <= (
            16 * 6 * h.dim ** 2)


class TestCommutesFlags:
    """verify_triple's commutes_* flags on a triple where only R^dag R
    commutes with H0."""

    @staticmethod
    def two_level_pair(rng, gamma=1.5):
        # Level 0 (dim 2): H0 = c I and M = 0.  Level 1 (dim 3): a random
        # Hermitian H0 and M = -gamma.  R maps level 0 to level 1, so
        # R^dag R lives on level 0 and R R^dag on level 1.
        h0 = np.zeros((5, 5), dtype=complex)
        h0[:2, :2] = 0.7 * np.eye(2)
        h0[2:, 2:] = random_hermitian(rng, 3)
        r = np.zeros((5, 5), dtype=complex)
        r[2:, :2] = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        m = np.diag([0.0, 0.0, -gamma, -gamma, -gamma])
        return op(h0 + r + r.conj().T), op(m), gamma

    def test_only_rdr_commutes_with_h0(self, rng):
        h, m, gamma = self.two_level_pair(rng)
        report = verify_triple(h, m, reconstruct_case2(h, m, gamma))
        assert report.passed
        assert report.commutes_rdr_m and report.commutes_rrd_m
        assert report.commutes_rdr_h0 and not report.commutes_rrd_h0

    def test_canonicalized_negative_gamma_gives_the_same_flags(self, rng):
        h, m, gamma = self.two_level_pair(rng)
        flags = ("commutes_rdr_m", "commutes_rrd_m",
                 "commutes_rdr_h0", "commutes_rrd_h0")
        positive = verify_triple(h, m, reconstruct_case2(h, m, gamma))
        swapped = reconstruct_case2(h, m, -gamma)
        # Before canonicalize, R is the adjoint: R^dag R and R R^dag swap.
        assert verify_triple(h, m, swapped).commutes_rrd_h0
        canonical = verify_triple(h, m, canonicalize(swapped))
        assert ([getattr(canonical, f) for f in flags]
                == [getattr(positive, f) for f in flags])

    @pytest.mark.parametrize("scale", [1e110, 1e140])
    def test_flags_survive_an_overflowing_product(self, rng, scale):
        # R^dag R H0 is cubic in the scale of H and would overflow here;
        # verify_triple forms it on (H0, R) / 2^a, with no warning.
        h, m, gamma = self.two_level_pair(rng)
        huge = op(scale * h.entries)
        flags = ("commutes_rdr_m", "commutes_rrd_m",
                 "commutes_rdr_h0", "commutes_rrd_h0")
        expected = verify_triple(h, m, reconstruct_case2(h, m, gamma))
        report = verify_triple(huge, m, reconstruct_case2(huge, m, gamma))
        assert report.passed
        assert ([getattr(report, f) for f in flags]
                == [getattr(expected, f) for f in flags]
                == [True, True, True, False])

    @pytest.mark.parametrize("scale", [1.0, 1e103, 1e110, 1e140])
    def test_angular_block_flags_at_every_scale(self, scale):
        bundle = angular_block(2, -0.5, 0.1)
        h = make_operator(bundle.h.dim, scale * bundle.h.entries)
        triple = analyze_pair(h, bundle.m, Tolerance())["triple"]
        assert triple["verified"]
        assert triple["commutes_rdr_h0"] and triple["commutes_rrd_h0"]


class TestCanonicalize:
    def test_negative_real_gamma_swaps(self):
        bundle = hardcore_chain(3, 0.2)
        triple = reconstruct_case2(bundle.h, bundle.m, -1.0)
        fixed = canonicalize(triple)
        assert fixed.gamma == 1.0
        np.testing.assert_array_equal(fixed.r,
                                      triple.r.conj().T)
        assert verify_triple(bundle.h, bundle.m, fixed).passed

    def test_positive_gamma_unchanged(self):
        bundle = random_triple((3, 3), 1.0, seed=2)
        triple = reconstruct_case2(bundle.h, bundle.m, 1.0)
        assert canonicalize(triple) is triple

    def test_idempotent(self):
        bundle = hardcore_chain(3, 0.2)
        triple = reconstruct_case2(bundle.h, bundle.m, -1.0)
        once = canonicalize(triple)
        twice = canonicalize(once)
        assert twice.gamma == once.gamma
        np.testing.assert_array_equal(twice.r, once.r)


class TestSimilarityTransform:
    def test_z_zero_is_identity(self):
        bundle = random_triple((3, 3), 1.0, seed=6)
        triple = reconstruct_case2(bundle.h, bundle.m, 1.0)
        m_spec = hermitian_eigh(bundle.m)
        out = similarity_transform(triple, m_spec, 0.0)
        np.testing.assert_allclose(out.entries, bundle.h.entries, atol=1e-12)

    def test_projection_example_at_log2(self):
        triple = reconstruct_case2(op(SX), op(PROJ), 1.0)
        m_spec = hermitian_eigh(op(PROJ))
        out = similarity_transform(triple, m_spec, np.log(2.0))
        expected = (triple.h0 + 2.0 * triple.r
                    + 0.5 * triple.r.conj().T)
        np.testing.assert_allclose(out.entries, expected, atol=1e-12)
        np.testing.assert_allclose(sorted(np.linalg.eigvals(out.entries).real),
                                   [-1, 1], atol=1e-12)

    def test_spectrum_preserved_complex_z(self):
        bundle = hardcore_chain(4, 0.1 + 0.05j)
        triple = reconstruct_case2(bundle.h, bundle.m, -1.0)
        m_spec = hermitian_eigh(bundle.m)
        out = similarity_transform(triple, m_spec, 0.3 + 1.2j)
        transformed = np.sort(np.linalg.eigvals(out.entries).real)
        original = np.sort(np.linalg.eigvalsh(bundle.h.entries))
        np.testing.assert_allclose(transformed, original, atol=1e-8)


class TestInvariants:
    def test_detection_round_trip(self, rng):
        # Subset here; the acceptance suite runs the full 100.
        for seed, gamma in enumerate([1.0, 2.0, 0.5]):
            bundle = random_triple((3, 5, 4), gamma, seed=seed)
            result = detect(bundle.h, bundle.m)
            assert result.kind == CASE2
            assert result.gamma1 == pytest.approx(gamma, abs=1e-8)

    def test_swap_covariance(self):
        bundle = random_triple((4, 4), 1.5, seed=13)
        plus = reconstruct_case2(bundle.h, bundle.m, 1.5)
        minus = reconstruct_case2(bundle.h, bundle.m, -1.5)
        assert np.linalg.norm(minus.r - plus.r.conj().T) \
            <= 1e-12 * max(1.0, np.linalg.norm(plus.r))

    def test_linearity_in_r(self):
        bundle = random_triple((3, 3), 1.0, seed=21)
        h0 = bundle.known.h0.entries
        r = bundle.known.r.entries
        for s in (0.5, 2.0):
            scaled = make_operator(bundle.h.dim,
                                   h0 + s * (r + r.conj().T), "scaled")
            result = detect(scaled, bundle.m)
            assert result.kind == CASE2
            assert result.gamma1 == pytest.approx(1.0, abs=1e-8)

    def test_power_ladder(self):
        bundle = random_triple((3, 3, 3), 2.0, seed=8)
        r = bundle.known.r.entries
        m = bundle.m.entries
        r2 = r @ r
        defect = np.linalg.norm((r2 @ m - m @ r2) - 2 * 2.0 * r2)
        assert defect <= 1e-10 * max(1.0, np.linalg.norm(r2))

    def test_projection_identity(self, rng):
        # [H, P]_3 = [H, P] for every orthogonal projection P.
        for seed in range(100):
            bundle = projection_example(6, seed=seed)
            c1 = iterated_commutator(bundle.h, bundle.m, 1).entries
            c3 = iterated_commutator(bundle.h, bundle.m, 3).entries
            assert np.linalg.norm(c3 - c1) <= \
                1e-11 * max(1.0, np.linalg.norm(c1))

    def test_superalgebra_scalar_ladder(self):
        # [Q, M] is an exact scalar multiple of the supercharge.
        bundle = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
        q = bundle.known.r.entries
        m = bundle.m.entries
        c = q @ m - m @ q
        gamma = np.vdot(q, c) / np.vdot(q, q).real
        residual = np.linalg.norm(c - gamma * q) / np.linalg.norm(c)
        assert residual <= 1e-12

    def test_case1_collapse_on_hermitian_inputs(self, rng):
        # Case 1 (C2 = i gamma2 C1) collapses on Hermitian pairs: the
        # projection <iC1, C2> is zero up to rounding, so no verdict can
        # carry an imaginary gamma, and an accepted symmetry without a
        # real gamma is a genuine one.
        tol = Tolerance(rtol=1e-9)
        for _ in range(50):
            dim = int(rng.integers(4, 17))
            h = op(random_hermitian(rng, dim))
            m = op(random_hermitian(rng, dim))
            c1 = iterated_commutator(h, m, 1).entries
            c2 = iterated_commutator(h, m, 2).entries
            gamma2 = np.vdot(1j * c1, c2).real / np.vdot(c1, c1).real
            assert abs(gamma2) <= 1e-12 * max(1.0, np.linalg.norm(c2)
                                              / np.linalg.norm(c1))
            result = detect(h, m, tol)
            assert result.kind in (GENUINE, CASE2, NO_GENSYM)
            assert np.isrealobj(result.gamma)
            if result.kind == GENUINE:
                bound = 1e-6 * max(1.0, np.linalg.norm(h.entries)
                                   * np.linalg.norm(m.entries))
                assert np.linalg.norm(c1) <= bound


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    return q


def _conjugated(bundle, m, rng):
    u = _unitary(rng, bundle.h.dim)
    return [make_operator(a.dim, u @ a.entries @ u.conj().T)
            for a in (bundle.h, m)]


def _never_screened():
    """(name, H, M): dense case-2 and genuine pairs, shifted and noisy."""
    rng = np.random.default_rng(11)
    pairs = []
    for dim in (SCREEN_MIN_DIM, 257):
        for build in (projection_example, involution_example):
            bundle = build(dim, seed=3)
            pairs.append((f"{build.__name__}_{dim}", bundle.h, bundle.m))
    jc = jaynes_cummings(1.0, 1.0, 0.1, 127)
    bundles = {"angular_80": angular_block(80, -0.5, 0.1), "jc_127": jc,
               "hardcore_8": hardcore_chain(8, 0.3 + 0.1j),
               "random_triple": random_triple([48] * 4, 1.0, seed=4)}
    for name, bundle in bundles.items():
        h, m = _conjugated(bundle, bundle.m, rng)
        n, shift = h.dim, 1e3 * np.eye(h.dim)
        noise = random_hermitian(rng, n)
        noise *= Tolerance().rtol / 10 * h.norm / fro(noise)
        pairs += [(name, h, m),
                  (f"{name}_h_shift", make_operator(n, h.entries + shift), m),
                  (f"{name}_m_shift", h, make_operator(n, m.entries + shift)),
                  (f"{name}_noise", make_operator(n, h.entries + noise), m)]
    h, m = _conjugated(jc, jc.extras["m_exc"], rng)
    # Genuine, with ||[H, M]|| at half its gate: the screen's test of
    # ||C1 V|| needs its Chernoff factor not to reject it.
    noise = random_hermitian(rng, h.dim)
    c1 = noise @ m.entries - m.entries @ noise
    noise *= Tolerance().rtol / 2 * h.norm * m.norm / fro(c1)
    pairs += [("jc_127_excitations", h, m),
              ("jc_127_excitations_near_gate",
               make_operator(h.dim, h.entries + noise), m)]
    return pairs


NEVER_SCREENED = _never_screened()


def _random_pair(dim, real=False):
    """Two random dense Hermitian operators, real symmetric with ``real``."""
    rng = np.random.default_rng(dim)
    return [make_operator(dim, a.real if real else a)
            for a in (random_hermitian(rng, dim) for _ in range(2))]


class TestScreen:
    """The probe screen rejects dense random pairs from thin products, and
    leaves every pair the exact fit accepts to the exact fit."""

    @staticmethod
    def spied(monkeypatch):
        """The residuals (or None) of every probe screen run from here on."""
        runs = []
        screen = detection._probe_screen

        def spy(*args):
            runs.append(screen(*args))
            return runs[-1]

        monkeypatch.setattr(detection, "_probe_screen", spy)
        return runs

    @pytest.mark.parametrize("dim,real", [(160, False), (200, False),
                                          (320, True)])
    def test_random_dense_pair_is_screened(self, monkeypatch, dim, real):
        h, m = _random_pair(dim, real)
        runs = self.spied(monkeypatch)
        result = detect(h, m)
        assert result.kind == NO_GENSYM and result.screened
        assert runs == [result.residual] and detect(h, m) == result
        c1, _, c3 = itertools.islice(_commutator_chain(h.entries, m), 3)
        exact = _fit_case2(c1, c3)[1]
        assert exact / PROBE_MARGIN <= result.residual <= PROBE_MARGIN * exact

    @pytest.mark.parametrize("name,h,m", NEVER_SCREENED,
                             ids=[p[0] for p in NEVER_SCREENED])
    def test_pair_the_exact_fit_accepts_is_not_screened(self, monkeypatch,
                                                         name, h, m):
        runs = self.spied(monkeypatch)
        result = detect(h, m)
        monkeypatch.setattr(detection, "_probe_screen", lambda *args: None)
        exact = detect(h, m)
        assert result.kind == exact.kind
        if (exact.kind == NO_GENSYM
                and exact.residual > PROBE_MARGIN * Tolerance().rtol):
            # Far outside case 2: a screened no_gensym is the right verdict.
            assert runs == [result.residual]
            assert result.residual == pytest.approx(exact.residual, rel=0.1)
            return
        assert runs == [None]
        assert result == exact and not result.screened

    def test_chernoff_bounds_solve_the_tail_equation(self):
        assert PROBE_LOWER < 1 < PROBE_UPPER
        for x in (PROBE_LOWER, PROBE_UPPER):
            assert (x * np.exp(1 - x)) ** PROBES == pytest.approx(2.0 ** -41,
                                                                  rel=1e-12)
        assert PROBE_MARGIN == pytest.approx(24.5, abs=0.05)

    def test_rank_one_tails_stay_inside_the_bounds(self):
        # Rank one is the worst case for both tails: 10^4 draws of V as
        # the screen draws it, ||X V||^2 / E||X V||^2 with X = x y^dag.
        rng = np.random.default_rng(2)
        dim, draws = 6, 10 ** 4
        x, y = (rng.normal(size=dim) + 1j * rng.normal(size=dim)
                for _ in range(2))
        v = rng.standard_normal((draws, dim, 2 * PROBES)).view(complex)
        xv = np.einsum("i,j,djk->dik", x, y.conj(), v)
        expected = 2 * PROBES * np.linalg.norm(x) ** 2 * np.linalg.norm(y) ** 2
        ratio = np.linalg.norm(xv, axis=(1, 2)) ** 2 / expected
        assert ratio.mean() == pytest.approx(1.0, abs=0.02)
        assert PROBE_LOWER <= ratio.min() and ratio.max() <= PROBE_UPPER

    def test_probes_are_seeded(self):
        v = _probe_block(SCREEN_MIN_DIM)
        assert v.shape == (SCREEN_MIN_DIM, PROBES) and v.dtype == complex
        np.testing.assert_array_equal(v, _probe_block(SCREEN_MIN_DIM))

    @pytest.mark.parametrize("dim,real", [(SCREEN_MIN_DIM - 1, False),
                                          (SCREEN_MIN_DIM_REAL - 1, True)])
    def test_below_the_cutoff_the_screen_does_not_run(self, monkeypatch,
                                                      dim, real):
        h, m = _random_pair(dim, real)
        runs = self.spied(monkeypatch)
        assert detect(h, m).kind == NO_GENSYM and runs == []

    def test_diagonal_m_is_not_screened(self, monkeypatch):
        jc = jaynes_cummings(1.0, 1.0, 0.1, 255)
        runs = self.spied(monkeypatch)
        assert detect(jc.h, jc.extras["m_exc"]).kind == GENUINE
        assert runs == []

    def test_screened_pair_holds_one_band(self):
        # H' and M' are read in place a TILE-row band at a time, and no
        # commutator is formed: the peak is one band and the probe blocks.
        dim = 512
        for real in (False, True):
            h, m = _random_pair(dim, real)
            assert h.hermitian and m.hermitian  # gated outside the trace
            assert detect(h, m).screened
            itemsize = h.entries.itemsize
            assert traced_peak(lambda: detect(h, m)) <= (
                itemsize * TILE * dim + 16 * 16 * dim * PROBES)

    @pytest.mark.parametrize("dim", [1, TILE - 1, TILE, TILE + 1,
                                     2 * TILE + 1])
    @pytest.mark.parametrize("real", [False, True])
    def test_banded_product_matches_the_centred_copy(self, rng, dim, real):
        # Every entry of X' = X / 2^a - tr/n I is formed as in a whole
        # centred copy, and so is every row of X'V.
        x = random_hermitian(rng, dim) * 2.0 ** 40 + 1e3 * np.eye(dim)
        x = x.real if real else x
        v = _probe_block(dim)
        a = 41
        centred = x * 2.0 ** -a
        centred[np.diag_indices(dim)] -= np.trace(centred).real / dim
        expected = _times_block(centred, v)
        product = _centred_times(x, a, v)
        assert product.dtype == expected.dtype
        np.testing.assert_allclose(product, expected, rtol=0,
                                   atol=1e-14 * fro(centred) * fro(v))
