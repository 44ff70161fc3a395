import numpy as np
import pytest

from gensym import (
    CASE2,
    GENUINE,
    canonicalize,
    detect,
    hermitian_eigh,
    reconstruct_case2,
    verify_triple,
)
from gensym.models import (
    _fermion_chain_family,
    _jaynes_cummings_family,
    _jordan_wigner_ops,
    angular_block,
    fermion_chain,
    hardcore_chain,
    involution_example,
    jaynes_cummings,
    projection_example,
    random_triple,
)
from gensym.operators import is_hermitian, make_operator

from conftest import kron_jordan_wigner, traced_peak
from reference import iterated_commutator, recursion_block_solver


def assert_frozen_copies(operators, arrays):
    """Each operator holds the read-only array make_operator stores for
    the same name, with its dtype and bytes, signed zeros included."""
    assert operators.keys() == arrays.keys()
    for name, a in operators.items():
        expected = make_operator(a.dim, arrays[name]).entries
        assert not a.entries.flags.writeable, name
        assert a.entries.dtype == expected.dtype, name
        assert a.entries.tobytes() == expected.tobytes(), name


class TestAngularBlock:
    def test_l1_spectrum(self):
        bundle = angular_block(1, -0.5, 0.1)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(bundle.h.entries), [-0.7, -0.5, -0.3],
            atol=1e-12)

    def test_ladder_entries(self):
        l, g, hbar = 2, 0.3, 1.0
        bundle = angular_block(l, 0.0, g, hbar)
        r = bundle.known.r.entries
        for i in range(2 * l):
            m = l - i
            expected = -g * hbar * np.sqrt(l * (l + 1) - m * (m - 1))
            assert r[i + 1, i] == pytest.approx(expected, abs=1e-14)

    def test_hbar_scaling(self):
        a = angular_block(1, 0.0, 0.1, hbar=1.0)
        b = angular_block(1, 0.0, 0.1, hbar=2.0)
        np.testing.assert_allclose(b.m.entries, 2 * a.m.entries)
        np.testing.assert_allclose(b.known.r.entries, 2 * a.known.r.entries)
        assert b.known.gamma == 2.0

    def test_ladder_relation_exact(self):
        bundle = angular_block(3, 1.0, 0.2)
        r, m = bundle.known.r.entries, bundle.m.entries
        np.testing.assert_allclose(r @ m - m @ r, bundle.known.gamma * r,
                                   atol=1e-13)

    def test_detected_as_case2(self):
        bundle = angular_block(2, -0.125, 0.05)
        result = detect(bundle.h, bundle.m)
        assert result.kind == CASE2
        assert result.gamma1 == pytest.approx(1.0, abs=1e-9)
        assert result.real_gamma

    def test_rejects_negative_l(self):
        with pytest.raises(ValueError):
            angular_block(-1, 0.0, 0.1)


class TestRecursionBlockSolver:
    def test_l1_sector_pins_unperturbed_energy(self):
        w, _ = recursion_block_solver(1, -0.5, 0.1)
        np.testing.assert_allclose(w, [-0.5], atol=1e-12)

    def test_l2_sector_split(self):
        e_n, g = -0.125, 0.05
        w, _ = recursion_block_solver(2, e_n, g)
        np.testing.assert_allclose(w, [e_n - 2 * g, e_n + 2 * g], atol=1e-12)

    def test_agrees_with_dense_solver(self):
        for l in (1, 2, 3):
            bundle = angular_block(l, -0.5, 0.1)
            w, v = recursion_block_solver(l, -0.5, 0.1)
            # Each sector eigenpair is a true eigenpair of the full block.
            for k in range(l):
                residual = np.linalg.norm(
                    bundle.h.entries @ v[:, k] - w[k] * v[:, k])
                assert residual <= 1e-10
            full = np.linalg.eigvalsh(bundle.h.entries)
            for val in w:
                assert np.min(np.abs(full - val)) <= 1e-10

    def test_vectors_are_antisymmetric(self):
        l = 3
        _, v = recursion_block_solver(l, 0.0, 0.2)
        flipped = v[::-1, :]
        np.testing.assert_allclose(flipped, -v, atol=1e-12)
        np.testing.assert_allclose(v[l, :], 0, atol=1e-12)


class TestJaynesCummings:
    def test_dimension_and_hermiticity(self):
        bundle = jaynes_cummings(1.3, 1.0, 0.2, cutoff=16)
        assert bundle.h.dim == 34
        assert is_hermitian(bundle.h.entries) and is_hermitian(bundle.m.entries)

    def test_ladder_relation_exact(self):
        bundle = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
        r, m = bundle.known.r.entries, bundle.m.entries
        np.testing.assert_allclose(r @ m - m @ r, 2.0 * r, atol=1e-13)

    def test_detected_with_gamma_two(self):
        bundle = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
        result = detect(bundle.h, bundle.m)
        assert result.kind == CASE2
        assert result.gamma1 == pytest.approx(2.0, abs=1e-9)

    def test_quadratic_combinations_commute_with_m(self):
        bundle = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
        r, m = bundle.known.r.entries, bundle.m.entries
        for quad in (r.conj().T @ r, r @ r.conj().T):
            assert np.linalg.norm(quad @ m - m @ quad) <= 1e-12

    def test_excitation_number_is_genuine(self):
        bundle = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
        assert detect(bundle.h, bundle.extras["m_exc"]).kind == GENUINE

    def test_resonance_spectrum_pairing(self):
        # On resonance H_star splits into excitation sectors: a simple
        # level at 0 and a -+ kappa*sqrt(k) doublet around each k*omega.
        omega, kappa, cutoff = 1.0, 0.2, 6
        bundle = jaynes_cummings(omega, omega, kappa, cutoff=cutoff)
        w = np.linalg.eigvalsh(bundle.extras["h_star"].entries)
        expected = [0.0]
        for k in range(1, cutoff + 1):
            expected += [k * omega - kappa * np.sqrt(k),
                         k * omega + kappa * np.sqrt(k)]
        # Truncation leaves one unpaired level in the top sector.
        expected += [(cutoff + 1) * omega]
        np.testing.assert_allclose(w, np.sort(expected), atol=1e-10)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            jaynes_cummings(1.0, 1.0, 0.1, cutoff=0)

    @staticmethod
    def reference(omega0, omega, kappa, cutoff, hbar):
        """The arrays jaynes_cummings stores, built in one pass."""
        nf = cutoff + 1
        c = np.zeros((nf, nf), dtype=complex)
        for n in range(1, nf):
            c[n - 1, n] = np.sqrt(n)
        cd = c.conj().T
        i2 = np.eye(2, dtype=complex)
        i_f = np.eye(nf, dtype=complex)
        sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        n_spin = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        interaction = np.kron(sm, cd) + np.kron(sm.conj().T, c)
        h = (0.5 * hbar * omega0 * np.kron(sz, i_f)
             + 0.5 * hbar * omega * np.kron(i2, cd @ c + c @ cd)
             + hbar * kappa * interaction)
        r = hbar * kappa * np.kron(sm, cd)
        return {"h": h, "m": np.kron(sz, i_f), "r": r,
                "h0": h - r - r.conj().T,
                "m_exc": np.kron(n_spin, i_f) + np.kron(i2, cd @ c),
                "h_star": (hbar * omega * np.kron(n_spin, i_f)
                           + hbar * omega * np.kron(i2, cd @ c)
                           + hbar * kappa * interaction)}

    @pytest.mark.parametrize("params", [
        (1.3, 1.0, 0.2, 8, 1.0), (-0.0, -0.5, -0.1, 3, 0.7),
        (0.0, 0.0, 0.0, 1, 1.0), (1.0, 2.0, 0.3, 4, -0.0),
    ])
    def test_family_matches_the_one_pass_build(self, params):
        omega0, omega, kappa, cutoff, hbar = params
        build = _jaynes_cummings_family(cutoff)
        build(0.7, 0.3, 0.9, 1.1)  # one earlier step changes nothing
        for bundle in (build(omega0, omega, kappa, hbar),
                       jaynes_cummings(*params)):
            assert_frozen_copies(
                {"h": bundle.h, "m": bundle.m, "r": bundle.known.r,
                 "h0": bundle.known.h0, **bundle.extras},
                self.reference(*params))

    def test_every_cutoff_matches_the_dense_build(self):
        # The diagonal c^dag c and c c^dag against the gemms, cutoffs 1-255.
        for cutoff in range(1, 256):
            params = (1.3, -0.5, 0.2, cutoff, 0.7)
            bundle = jaynes_cummings(*params)
            assert_frozen_copies(
                {"h": bundle.h, "m": bundle.m, "r": bundle.known.r,
                 "h0": bundle.known.h0, **bundle.extras},
                self.reference(*params))


class TestJordanWigner:
    @staticmethod
    def dense(sites):
        """The index maps of _jordan_wigner_ops as dense matrices."""
        ops = []
        for j, (states, signs) in enumerate(_jordan_wigner_ops(sites)):
            b = np.zeros((2 ** sites, 2 ** sites))
            b[states ^ 1 << j, states] = signs
            ops.append(b)
        return ops

    def test_canonical_anticommutators(self):
        bs = self.dense(3)
        dim = 8
        for i, bi in enumerate(bs):
            for j, bj in enumerate(bs):
                anti = bi @ bj + bj @ bi
                np.testing.assert_allclose(anti, 0, atol=1e-14)
                mixed = bi @ bj.conj().T + bj.conj().T @ bi
                expected = np.eye(dim) if i == j else np.zeros((dim, dim))
                np.testing.assert_allclose(mixed, expected, atol=1e-14)

    def test_site_one_is_least_significant_bit(self):
        bs = self.dense(2)
        # B_1 annihilates the |01> state (index 1) into |00> (index 0).
        assert bs[0][0, 1] == pytest.approx(1.0)
        assert bs[1][0, 2] == pytest.approx(1.0)

    @pytest.mark.parametrize("sites", range(1, 8))
    def test_index_maps_are_the_kron_products(self, sites):
        for b, reference in zip(self.dense(sites), kron_jordan_wigner(sites)):
            np.testing.assert_array_equal(b, reference)


class TestFermionChain:
    def test_number_ladder_exact(self):
        bundle = fermion_chain(3, 0.7, [0.1, 0.0, 0.2j])
        bs = kron_jordan_wigner(3)
        m = bundle.m.entries
        for b in bs:
            np.testing.assert_allclose(b @ m - m @ b, b, atol=1e-14)

    def test_single_site_spectrum(self):
        bundle = fermion_chain(2, 1.0)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(bundle.h.entries), [-1.0, 0.0, 0.0, 1.0],
            atol=1e-12)

    def test_boundary_source_detected(self):
        bundle = fermion_chain(4, 0.5, [0.3, 0.0, 0.0, 0.0])
        result = detect(bundle.h, bundle.m)
        assert result.kind == CASE2
        assert result.gamma1 == pytest.approx(1.0, abs=1e-9)
        triple = canonicalize(
            reconstruct_case2(bundle.h, bundle.m, result.gamma))
        assert verify_triple(bundle.h, bundle.m, triple).passed

    def test_rejects_bad_source_count(self):
        with pytest.raises(ValueError):
            fermion_chain(3, 1.0, [0.1])

    @pytest.mark.parametrize("sites", [0, 11])
    def test_rejects_sites_out_of_range(self, sites):
        with pytest.raises(ValueError, match="sites must be in 1..10"):
            fermion_chain(sites, 1.0)

    @staticmethod
    def reference_family(sites, sources):
        """fermion_chain as dense kron and gemm products, a builder of eps."""
        sources = [complex(z) for z in sources or [0.0] * sites]
        bs = kron_jordan_wigner(sites)
        dim = 2 ** sites
        hops = []
        for i in range(sites - 1):
            hop = bs[i].conj().T @ bs[i + 1]
            hops.append(hop + hop.conj().T)
        r = sum(z.conjugate() * b for z, b in zip(sources, bs))
        m = sum(b.conj().T @ b for b in bs)

        def build(eps):
            h0 = np.zeros((dim, dim), dtype=complex)
            for hop in hops:
                h0 -= eps * hop
            return {"h": h0 + r + r.conj().T, "m": m, "r": r, "h0": h0}
        return build

    @classmethod
    def reference(cls, sites, eps, sources):
        return cls.reference_family(sites, sources)(eps)

    @pytest.mark.parametrize("params", [
        (3, 0.7, [0.1, 0.0, 0.2j]), (4, -0.5, None),
        (2, 0.0, [complex(-0.0, -0.3), 0.1]), (1, -0.0, [0.5]),
    ])
    def test_family_matches_the_one_pass_build(self, params):
        sites, eps, sources = params
        build = _fermion_chain_family(sites, sources)
        build(1.3)  # one earlier step changes nothing
        for bundle in (build(eps), fermion_chain(*params)):
            assert_frozen_copies(
                {"h": bundle.h, "m": bundle.m, "r": bundle.known.r,
                 "h0": bundle.known.h0}, self.reference(*params))

    @pytest.mark.parametrize("sites", range(1, 10))
    def test_matches_the_dense_build(self, sites):
        for sources in (None, [0.1 * (j + 1) for j in range(sites)],
                        [complex(0.2, 0.1 * j - 0.3) for j in range(sites)],
                        [complex(-0.0, -0.3)] + [-0.0] * (sites - 1)):
            reference = self.reference_family(sites, sources)
            build = _fermion_chain_family(sites, sources)
            for eps in (0.7, -0.5, 0.0, -0.0):
                bundle = build(eps)
                assert_frozen_copies(
                    {"h": bundle.h, "m": bundle.m, "r": bundle.known.r,
                     "h0": bundle.known.h0}, reference(eps))


class TestHardcoreChain:
    def test_supercharge_is_nilpotent(self):
        bundle = hardcore_chain(4, 0.2)
        q = bundle.extras["q"].entries
        assert np.linalg.norm(q @ q) <= 1e-14

    def test_h0_is_anticommutator_and_psd(self):
        bundle = hardcore_chain(4, 0.2)
        q = bundle.extras["q"].entries
        h0 = bundle.known.h0.entries
        np.testing.assert_allclose(
            h0, q @ q.conj().T + q.conj().T @ q, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(h0)) >= -1e-12

    def test_charge_ladder_exact(self):
        bundle = hardcore_chain(4, 0.2)
        q, m = bundle.extras["q"].entries, bundle.m.entries
        np.testing.assert_allclose(q @ m - m @ q, -q, atol=1e-14)

    def test_detected_and_canonicalized(self):
        bundle = hardcore_chain(4, 0.3 + 0.1j)
        result = detect(bundle.h, bundle.m)
        assert result.kind == CASE2
        assert result.gamma1 == pytest.approx(1.0, abs=1e-9)
        triple = canonicalize(
            reconstruct_case2(bundle.h, bundle.m, result.gamma))
        assert triple.gamma.real > 0
        assert verify_triple(bundle.h, bundle.m, triple).passed

    def test_rejects_long_chain(self):
        with pytest.raises(ValueError):
            hardcore_chain(9, 0.1)

    @staticmethod
    def reference(sites, z):
        """The arrays hardcore_chain stores, as dense kron and gemm products."""
        bs = kron_jordan_wigner(sites)
        dim = 2 ** sites
        z = complex(z)
        q = np.zeros((dim, dim), dtype=complex)
        for i in range(sites):
            p = np.eye(dim, dtype=complex)
            for j in (i - 1, i + 1):
                if 0 <= j < sites:
                    p = p @ (bs[j] @ bs[j].conj().T)
            q += p @ bs[i].conj().T
        h0 = q @ q.conj().T + q.conj().T @ q
        r = z.conjugate() * q
        return {"h": h0 + r + r.conj().T,
                "m": sum(b.conj().T @ b for b in bs), "r": r, "h0": h0,
                "q": q}

    @pytest.mark.parametrize("sites", range(2, 9))
    def test_matches_the_dense_build(self, sites):
        for z in (0.3 + 0.1j, 0.2, -0.4, 1.0):
            bundle = hardcore_chain(sites, z)
            assert_frozen_copies(
                {"h": bundle.h, "m": bundle.m, "r": bundle.known.r,
                 "h0": bundle.known.h0, **bundle.extras},
                self.reference(sites, z))


@pytest.mark.parametrize("build, dim", [
    (lambda: fermion_chain(10, 0.7, [0.1 + 0.2j] * 10), 2 ** 10),
    (lambda: hardcore_chain(8, 0.3 + 0.1j), 2 ** 8),
], ids=["fermion_10", "hardcore_8"])
def test_build_peak_memory(build, dim):
    # The bundle alone holds about four n^2 arrays; a dense build peaked
    # above 20 complex n^2 arrays.
    assert traced_peak(build) <= 8 * 16 * dim ** 2


class TestRandomExamples:
    def test_projection_is_projection(self):
        bundle = projection_example(8, seed=0)
        m = bundle.m.entries
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
        assert np.trace(m).real == pytest.approx(4.0, abs=1e-10)

    def test_projection_gamma_magnitude(self):
        for seed in range(5):
            result = detect(*_hm(projection_example(6, seed=seed)))
            assert result.kind == CASE2
            assert abs(result.gamma) == pytest.approx(1.0, abs=1e-8)

    def test_involution_squares_to_identity(self):
        bundle = involution_example(8, seed=1)
        m = bundle.m.entries
        np.testing.assert_allclose(m @ m, np.eye(8), atol=1e-12)

    def test_involution_gamma_magnitude(self):
        for seed in range(5):
            result = detect(*_hm(involution_example(6, seed=seed)))
            assert result.kind == CASE2
            assert abs(result.gamma) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("example", [projection_example,
                                         involution_example])
    def test_rejects_dim_below_two(self, example):
        with pytest.raises(ValueError, match="dim must be >= 2"):
            example(1, seed=0)

    def test_determinism(self):
        a = projection_example(8, seed=5)
        b = projection_example(8, seed=5)
        np.testing.assert_array_equal(a.h.entries, b.h.entries)
        np.testing.assert_array_equal(a.m.entries, b.m.entries)


class TestRandomTriple:
    def test_exact_construction(self):
        bundle = random_triple((3, 5, 4), 1.0, seed=1)
        r, m = bundle.known.r.entries, bundle.m.entries
        h0 = bundle.known.h0.entries
        np.testing.assert_allclose(r @ m - m @ r, r, atol=1e-12)
        np.testing.assert_allclose(h0 @ m - m @ h0, 0, atol=1e-12)
        np.testing.assert_allclose(
            bundle.h.entries, h0 + r + r.conj().T, atol=1e-14)

    def test_verify_reconstruction(self):
        bundle = random_triple((4, 4), 2.0, seed=3)
        triple = reconstruct_case2(bundle.h, bundle.m, 2.0)
        report = verify_triple(bundle.h, bundle.m, triple)
        assert report.passed
        assert max(report.residual_sum, report.residual_h0m,
                   report.residual_ladder) <= 1e-12 * max(
                       1.0, np.linalg.norm(bundle.h.entries))

    def test_real_gamma_commutator_matches(self):
        bundle = random_triple((3, 4), 1.5, seed=7)
        r = bundle.known.r.entries
        expected = 1.5 * r - 1.5 * r.conj().T
        np.testing.assert_allclose(
            iterated_commutator(bundle.h, bundle.m, 1).entries, expected,
            atol=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            random_triple((4,), 1.0, seed=0)
        with pytest.raises(ValueError):
            random_triple((2, 2), 0.0, seed=0)

    def test_rejects_complex_gamma(self):
        # A Hermitian M has a real ladder constant.
        with pytest.raises(TypeError):
            random_triple((3, 3), 1.5 + 0.7j, seed=7)


def _hm(bundle):
    return bundle.h, bundle.m
