import numpy as np
import pytest

from gensym import (
    Tolerance,
    adjoint,
    cluster_eigenvalues,
    commutator,
    frobenius_inner,
    hermitian_eigh,
    iterated_commutator,
    make_operator,
    matrix_function,
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
from gensym.operators import NumericalError, _hermitian_eigvalsh, is_hermitian

from conftest import SX, SY, SZ, op, random_hermitian

# Hamiltonians of the acceptance models.
MODEL_HAMILTONIANS = [
    ("angular_l1", angular_block(1, -0.5, 0.1).h),
    ("angular_l2", angular_block(2, -0.125, 0.1).h),
    ("jc_16", jaynes_cummings(1.3, 1.0, 0.2, cutoff=16).h),
    ("hardcore_6", hardcore_chain(6, 0.2).h),
    ("fermion_4", fermion_chain(4, 0.5, [0.3, 0, 0, 0]).h),
    ("projection_6", projection_example(6, seed=0).h),
    ("involution_6", involution_example(6, seed=0).h),
    ("random_triple", random_triple((3, 4, 5), 1.0, seed=1000).h),
]


class TestMakeOperator:
    def test_zero_matrix_is_hermitian(self):
        assert is_hermitian(make_operator(1, [[0]], "zero").entries)

    def test_pauli_is_hermitian(self):
        assert is_hermitian(make_operator(2, SX, "sx").entries)

    def test_raising_is_not_hermitian(self):
        assert not is_hermitian(make_operator(2, [[0, 1], [0, 0]], "sp").entries)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            make_operator(2, [[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_operator(2, [[np.inf, 0], [0, 0]])

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValueError):
            make_operator(3, SX)


class TestAdjoint:
    def test_hermitian_fixed_point(self):
        np.testing.assert_array_equal(adjoint(op(SX)).entries, SX)

    def test_real_transpose(self):
        np.testing.assert_array_equal(
            adjoint(op([[0, 1], [0, 0]])).entries, [[0, 0], [1, 0]])

    def test_conjugation(self):
        np.testing.assert_array_equal(adjoint(op([[1j]])).entries, [[-1j]])

    def test_involution_exact(self, rng):
        a = op(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        np.testing.assert_array_equal(adjoint(adjoint(a)).entries, a.entries)


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = op(random_hermitian(rng, 4))
        np.testing.assert_array_equal(commutator(a, a).entries, 0)

    def test_identity_commutes(self, rng):
        a = op(random_hermitian(rng, 4))
        np.testing.assert_array_equal(
            commutator(a, op(np.eye(4))).entries, 0)

    def test_pauli_pair(self):
        # Oracle: direct 2x2 matrix products.
        expected = SX @ SZ - SZ @ SX
        np.testing.assert_allclose(expected, -2j * SY)
        np.testing.assert_allclose(
            commutator(op(SX), op(SZ)).entries, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(op(SX), op(np.eye(3)))


class TestIteratedCommutator:
    def test_identity_gives_zero(self, rng):
        h = op(random_hermitian(rng, 4))
        np.testing.assert_array_equal(
            iterated_commutator(h, op(np.eye(4)), 3).entries, 0)

    def test_depth_one_is_commutator(self):
        np.testing.assert_array_equal(
            iterated_commutator(op(SX), op(SZ), 1).entries,
            commutator(op(SX), op(SZ)).entries)

    def test_two_explicit_commutators(self):
        c1 = SX @ SZ - SZ @ SX
        c2 = c1 @ SZ - SZ @ c1
        np.testing.assert_allclose(c2, 4 * SX)
        np.testing.assert_allclose(
            iterated_commutator(op(SX), op(SZ), 2).entries, c2)

    def test_involution_identity_at_depth_three(self):
        # M^2 = I makes the third nested commutator 4x the first.
        c1 = iterated_commutator(op(SX), op(SZ), 1).entries
        c3 = iterated_commutator(op(SX), op(SZ), 3).entries
        np.testing.assert_allclose(c3, 4 * c1)

    def test_rejects_depth_zero(self):
        with pytest.raises(ValueError):
            iterated_commutator(op(SX), op(SZ), 0)

    def test_parity_alternation(self, rng):
        # [H,M]_n is Hermitian for even n, anti-Hermitian for odd n.
        for _ in range(10):
            h = op(random_hermitian(rng, 6))
            m = op(random_hermitian(rng, 6))
            for n in range(1, 6):
                c = iterated_commutator(h, m, n).entries
                defect = np.linalg.norm(c.conj().T - (-1.0) ** n * c)
                assert defect <= 1e-12 * max(1.0, np.linalg.norm(c))


class TestFrobeniusInner:
    def test_pauli_norm(self):
        assert frobenius_inner(op(SX), op(SX)) == pytest.approx(2)

    def test_pauli_orthogonality(self):
        assert frobenius_inner(op(SX), op(SY)) == pytest.approx(0)

    def test_identity_trace(self):
        i3 = op(np.eye(3))
        assert frobenius_inner(i3, i3) == pytest.approx(3)

    def test_self_inner_real_nonnegative(self, rng):
        a = op(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        value = frobenius_inner(a, a)
        assert value.imag == pytest.approx(0, abs=1e-12)
        assert value.real >= 0


class TestHermitianEigh:
    def test_identity(self):
        spec = hermitian_eigh(op(np.eye(4)))
        np.testing.assert_allclose(spec.eigenvalues, 1.0)
        assert spec.clusters == ((0, 4),)

    def test_pauli_x(self):
        spec = hermitian_eigh(op(SX))
        np.testing.assert_allclose(spec.eigenvalues, [-1, 1], atol=1e-14)
        inv_sqrt2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(
            spec.eigenvectors[:, 0], [inv_sqrt2, -inv_sqrt2], atol=1e-14)
        np.testing.assert_allclose(
            spec.eigenvectors[:, 1], [inv_sqrt2, inv_sqrt2], atol=1e-14)

    def test_lz_diagonal(self):
        spec = hermitian_eigh(op(np.diag([1.0, 0.0, -1.0])))
        np.testing.assert_allclose(spec.eigenvalues, [-1, 0, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigh(op([[0, 1], [0, 0]]))

    def test_contract_on_random_matrices(self, rng):
        # Residual and orthonormality bounds on 200 random Hermitian inputs.
        for _ in range(200):
            dim = int(rng.integers(2, 65))
            a = op(random_hermitian(rng, dim))
            spec = hermitian_eigh(a)
            scale = np.linalg.norm(a.entries)
            residual = a.entries @ spec.eigenvectors \
                - spec.eigenvectors * spec.eigenvalues[np.newaxis, :]
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * scale
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10

    def test_deterministic(self, rng):
        a = op(random_hermitian(rng, 12))
        s1 = hermitian_eigh(a)
        s2 = hermitian_eigh(a)
        np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
        np.testing.assert_array_equal(s1.eigenvectors, s2.eigenvectors)


class TestHermitianEigvalsh:
    """The values-only spectrum and its trace and squared-sum checks."""

    @staticmethod
    def assert_matches_eigh(a):
        bound = 1e-12 * max(1.0, a.norm)
        w = _hermitian_eigvalsh(a)
        assert np.max(np.abs(w - hermitian_eigh(a).eigenvalues)) <= bound

    @pytest.mark.parametrize("h", [h for _, h in MODEL_HAMILTONIANS],
                             ids=[name for name, _ in MODEL_HAMILTONIANS])
    def test_matches_hermitian_eigh_on_models(self, h):
        self.assert_matches_eigh(h)

    def test_matches_hermitian_eigh_on_random(self, rng):
        for dim in (2, 3, 7, 16, 50, 120, 200):
            a = random_hermitian(rng, dim)
            for entries in (a, 1e6 * a, 1e-6 * a, a + 1e4 * np.eye(dim)):
                self.assert_matches_eigh(op(entries))

    @pytest.mark.parametrize("perturb", ["shift", "spread", "flip"])
    def test_contract_violation_raises(self, monkeypatch, rng, perturb):
        # "shift" moves every value by delta; "spread" moves the extremes
        # apart by delta each and keeps the sum, so only the squared-sum
        # check sees it; "flip" negates the largest value and keeps the
        # squared sum, so only the trace check sees it.
        a = op(random_hermitian(rng, 40), "probe")
        delta = 1e-8 * a.norm
        eigvalsh = np.linalg.eigvalsh

        def perturbed_eigvalsh(x):
            w = eigvalsh(x)
            if perturb == "shift":
                return w + delta
            if perturb == "spread":
                w[0] -= delta
                w[-1] += delta
            else:
                k = np.argmax(np.abs(w))
                w[k] = -w[k]
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed_eigvalsh)
        with pytest.raises(NumericalError, match="probe"):
            _hermitian_eigvalsh(a)

    def test_nan_fails_the_check(self, monkeypatch, rng):
        a = op(random_hermitian(rng, 8))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda x: np.full(len(x), np.nan))
        with pytest.raises(NumericalError):
            _hermitian_eigvalsh(a)


class TestSpectralDecomposition:
    def test_cluster_values_are_cluster_means(self):
        spec = hermitian_eigh(op(np.diag([0.3, 0.1, 0.1 + 1e-12, 0.7])))
        means = [float(np.mean(spec.eigenvalues[start:stop]))
                 for start, stop in spec.clusters]
        assert spec.n_clusters == 3
        assert [spec.cluster_value(k) for k in range(3)] == means
        np.testing.assert_array_equal(spec.cluster_values(),
                                      np.repeat(means, [2, 1, 1]))


class TestMatrixFunction:
    def test_constant_one_gives_identity(self, rng):
        spec = hermitian_eigh(op(random_hermitian(rng, 5)))
        np.testing.assert_allclose(
            matrix_function(spec, lambda lam: 1.0).entries, np.eye(5),
            atol=1e-12)

    def test_phase_rotation_of_lz(self):
        spec = hermitian_eigh(op(np.diag([1.0, 0.0, -1.0])))
        out = matrix_function(spec, lambda lam: np.exp(-1j * np.pi * lam))
        np.testing.assert_allclose(out.entries, np.diag([-1, 1, -1]),
                                   atol=1e-14)

    def test_spectral_round_trip(self, rng):
        a = op(random_hermitian(rng, 8))
        spec = hermitian_eigh(a)
        out = matrix_function(spec, lambda lam: lam)
        assert np.linalg.norm(out.entries - a.entries) <= 1e-10

    def test_missing_cluster_value(self):
        spec = hermitian_eigh(op(SX))
        with pytest.raises(ValueError):
            matrix_function(spec, {0: 1.0})

    def test_exponential_multiplicativity(self, rng):
        m_spec = hermitian_eigh(op(random_hermitian(rng, 10)))
        for z1, z2 in [(0.3, -0.2), (0.1 + 0.4j, -0.6j)]:
            e1 = matrix_function(m_spec, lambda lam: np.exp(-z1 * lam)).entries
            e2 = matrix_function(m_spec, lambda lam: np.exp(-z2 * lam)).entries
            e12 = matrix_function(
                m_spec, lambda lam: np.exp(-(z1 + z2) * lam)).entries
            assert (np.linalg.norm(e1 @ e2 - e12)
                    <= 1e-9 * np.linalg.norm(e12))


class TestClusterEigenvalues:
    def test_degenerate_pair(self):
        assert cluster_eigenvalues([0, 0, 1], 1.0) == ((0, 2), (2, 3))

    def test_well_separated(self):
        # Gaps of 0.2 are far above the default threshold.
        assert cluster_eigenvalues([-0.7, -0.5, -0.3], 1.0) == \
            ((0, 1), (1, 2), (2, 3))

    def test_gap_below_atol(self):
        assert cluster_eigenvalues([0, 5e-10, 1], 1.0) == ((0, 2), (2, 3))

    def test_custom_tolerance(self):
        tol = Tolerance(atol=0.5, rtol=0.0)
        assert cluster_eigenvalues([0.0, 0.4, 0.8, 2.0], 1.0, tol) == \
            ((0, 3), (3, 4))
