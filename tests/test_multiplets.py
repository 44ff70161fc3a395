import numpy as np
import pytest

from gensym import (
    SpectralDecomposition,
    Tolerance,
    canonical_eigenbasis,
    hermitian_eigh,
    matrix_function,
    partition,
    recover_f,
    same_multiplet,
    support_signature,
)
from gensym import multiplets
from gensym.multiplets import DEFAULT_SUPPORT_EPS, size_label
from gensym.models import (angular_block, hardcore_chain, jaynes_cummings,
                           random_triple)

from conftest import op, random_hermitian


def angular_setup(l, e_n=-0.5, g=0.1):
    bundle = angular_block(l, e_n, g)
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    return bundle, h_spec, m_spec


class TestCanonicalEigenbasis:
    def test_matches_plain_eigh_when_nondegenerate(self):
        bundle, h_spec, _ = angular_setup(1)
        plain = hermitian_eigh(bundle.h)
        np.testing.assert_allclose(h_spec.eigenvalues, plain.eigenvalues)
        np.testing.assert_allclose(h_spec.eigenvectors, plain.eigenvectors,
                                   atol=1e-14)

    def test_splits_degenerate_clusters_by_m(self):
        # kappa = 0 on resonance: H eigenvalues come in degenerate pairs.
        bundle = jaynes_cummings(1.0, 1.0, 0.0, cutoff=4)
        h_spec = canonical_eigenbasis(bundle.h, bundle.m)
        v = h_spec.eigenvectors
        compressed = v.conj().T @ bundle.m.entries @ v
        for start, stop in h_spec.clusters:
            block = compressed[start:stop, start:stop]
            off = block - np.diag(np.diag(block))
            assert np.linalg.norm(off) <= 1e-10
            diag = np.diag(block).real
            assert np.all(np.diff(diag) >= -1e-10)

    def test_real_h_with_complex_m(self):
        # A real H keeps real eigenvectors until a complex M rotates its
        # degenerate clusters, so the refined basis must turn complex.
        bundle = jaynes_cummings(1.0, 1.0, 0.0, cutoff=4)
        a = np.triu(np.ones((bundle.h.dim, bundle.h.dim)), 1)
        m = op(bundle.m.entries + 0.1j * (a - a.T))
        assert bundle.h.entries.dtype == np.float64
        h_spec = canonical_eigenbasis(bundle.h, m)
        v = h_spec.eigenvectors
        assert v.dtype == np.complex128
        np.testing.assert_allclose(v.conj().T @ v, np.eye(bundle.h.dim),
                                   atol=1e-12)
        compressed = v.conj().T @ m.entries @ v
        for start, stop in h_spec.clusters:
            block = compressed[start:stop, start:stop]
            assert np.linalg.norm(block - np.diag(np.diag(block))) <= 1e-10

    def test_rejects_non_hermitian_m(self, rng):
        h = op(random_hermitian(rng, 3))
        with pytest.raises(ValueError):
            canonical_eigenbasis(h, op([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


class TestSupportSignature:
    def test_m_eigenvector_single_cluster(self):
        _, _, m_spec = angular_setup(1)
        sig = support_signature(np.array([0.0, 1.0, 0.0]), m_spec)
        assert sig.present_clusters == (1,)

    def test_balanced_superposition(self):
        # (|m=1> - |m=-1>)/sqrt(2): present on the m = -1 and m = +1
        # clusters (ascending order puts m = -1 first).
        _, _, m_spec = angular_setup(1)
        psi = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        sig = support_signature(psi, m_spec)
        assert sig.present_clusters == (0, 2)
        for k in (0, 2):
            assert np.linalg.norm(sig.components[k]) == pytest.approx(1.0)

    def test_tiny_component_dropped(self):
        _, _, m_spec = angular_setup(1)
        psi = np.array([1.0, 1e-12, 0.0])
        assert support_signature(psi, m_spec).present_clusters == (2,)

    def test_eps_supp_override(self):
        # 1e-5 is above DEFAULT_SUPPORT_EPS, so the m = 0 cluster counts.
        _, _, m_spec = angular_setup(1)
        psi = np.array([1.0, 1e-5, 0.0])
        assert support_signature(psi, m_spec).present_clusters == (1, 2)


class TestSameMultiplet:
    def test_scalar_multiple(self):
        _, h_spec, m_spec = angular_setup(1)
        psi = h_spec.eigenvectors[:, 0]
        assert same_multiplet(psi, (2.0 - 1.0j) * psi, m_spec)

    def test_diagonal_rescaling(self):
        _, h_spec, m_spec = angular_setup(1)
        psi = h_spec.eigenvectors[:, 0]
        f_m = matrix_function(m_spec, lambda lam: 3.0 + lam).entries
        assert same_multiplet(psi, f_m @ psi, m_spec)

    def test_different_support_rejected(self):
        _, h_spec, m_spec = angular_setup(1)
        # Middle eigenvector lives on m = 0 only; the outer ones on m = +-1.
        assert not same_multiplet(h_spec.eigenvectors[:, 0],
                                  h_spec.eigenvectors[:, 1], m_spec)

    def test_non_parallel_within_degenerate_cluster(self):
        m_spec = hermitian_eigh(op(np.diag([1.0, 1.0, -1.0])))
        psi = np.array([1.0, 0.0, 1.0])
        phi = np.array([0.0, 1.0, 1.0])
        # Both supported on the degenerate +1 cluster and on -1, but the
        # +1 components point in different directions.
        assert not same_multiplet(psi, phi, m_spec)


class TestPartition:
    def test_l1_doublet_and_singlet(self):
        _, h_spec, m_spec = angular_setup(1)
        part = partition(h_spec, m_spec)
        assert part.classes == ((0, 2), (1,))
        assert part.labels == ("doublet", "singlet")
        # The outer eigenvectors touch every m; the middle one skips m = 0.
        assert part.signatures == ((0, 1, 2), (0, 2))

    def test_l2_two_doublets_one_singlet(self):
        _, h_spec, m_spec = angular_setup(2)
        part = partition(h_spec, m_spec)
        assert sorted(part.labels) == ["doublet", "doublet", "singlet"]
        assert sorted(len(c) for c in part.classes) == [1, 2, 2]
        assert sorted(part.signatures) == [
            (0, 1, 2, 3, 4), (0, 1, 3, 4), (0, 2, 4)]

    def test_identity_m_gives_singlets(self, rng):
        # f(I) is a scalar, so distinct (orthogonal) eigenvectors can
        # never be connected.
        h = op(random_hermitian(rng, 5))
        h_spec = hermitian_eigh(h)
        m_spec = hermitian_eigh(op(np.eye(5)))
        part = partition(h_spec, m_spec)
        assert part.classes == ((0,), (1,), (2,), (3,), (4,))
        assert part.labels == ("singlet",) * 5

    def test_class_count_bounded_by_supports(self, rng):
        h = op(random_hermitian(rng, 8))
        m = op(random_hermitian(rng, 8))
        part = partition(hermitian_eigh(h), hermitian_eigh(m))
        assert len(part.classes) <= 2 ** 8
        assert sorted(i for c in part.classes for i in c) == list(range(8))

    def test_size_labels(self):
        assert size_label(1) == "singlet"
        assert size_label(4) == "quartet"
        assert size_label(7) == "7-plet"


class TestRecoverF:
    def test_scalar_multiple(self):
        _, h_spec, m_spec = angular_setup(1)
        # The middle eigenvector has no m = 0 component.
        psi = h_spec.eigenvectors[:, 1]
        values = recover_f(psi, 2.0 * psi, m_spec)
        for k in (0, 2):
            assert values[k] == pytest.approx(2.0, abs=1e-12)
        assert values[1] == 1.0  # off support

    def test_doublet_connection_is_alternating(self):
        # The two outer eigenvectors are connected by f(m) proportional
        # to (-1)^m, which is constant over m = -1, +1.
        _, h_spec, m_spec = angular_setup(1)
        values = recover_f(h_spec.eigenvectors[:, 0],
                           h_spec.eigenvectors[:, 2], m_spec)
        assert values[0] == pytest.approx(values[2], abs=1e-10)
        assert abs(values[0]) == pytest.approx(1.0, abs=1e-10)

    def test_phase_function_round_trip(self):
        _, h_spec, m_spec = angular_setup(2)
        psi = h_spec.eigenvectors[:, 0]
        phi = matrix_function(
            m_spec, lambda lam: np.exp(-1j * np.pi * lam)).entries @ psi
        values = recover_f(psi, phi, m_spec)
        for k in values:
            mu = m_spec.cluster_value(k)
            expected = np.exp(-1j * np.pi * mu)
            if k in support_signature(psi, m_spec).present_clusters:
                assert values[k] == pytest.approx(expected, abs=1e-10)

    def test_rejects_cross_multiplet(self):
        _, h_spec, m_spec = angular_setup(1)
        with pytest.raises(ValueError):
            recover_f(h_spec.eigenvectors[:, 0],
                      h_spec.eigenvectors[:, 1], m_spec)


class TestEquivalenceRelation:
    def test_partition_is_an_equivalence(self):
        loose = Tolerance(atol=1e-8, rtol=1e-7)
        for l in (1, 2, 3, 4):
            _, h_spec, m_spec = angular_setup(l)
            part = partition(h_spec, m_spec)
            vectors = h_spec.eigenvectors
            for cls in part.classes:
                for i in cls:
                    assert same_multiplet(vectors[:, i], vectors[:, i],
                                          m_spec, loose)
                    for j in cls:
                        assert same_multiplet(vectors[:, i], vectors[:, j],
                                              m_spec, loose)
                        assert same_multiplet(vectors[:, j], vectors[:, i],
                                              m_spec, loose)
            for ca in part.classes:
                for cb in part.classes:
                    if ca is cb:
                        continue
                    assert not same_multiplet(vectors[:, ca[0]],
                                              vectors[:, cb[0]], m_spec)

    def test_invariance_under_exponential_transform(self):
        # exp(-zM) is an invertible f(M), so applying it to every
        # eigenvector must leave the partition unchanged.
        _, h_spec, m_spec = angular_setup(2)
        base = partition(h_spec, m_spec)
        for z in (0.2, -0.5):
            g = matrix_function(m_spec, lambda lam: np.exp(-z * lam)).entries
            transformed = g @ h_spec.eigenvectors
            transformed = transformed / np.linalg.norm(transformed, axis=0)
            spec = SpectralDecomposition(
                eigenvalues=h_spec.eigenvalues,
                eigenvectors=transformed,
                clusters=h_spec.clusters)
            assert partition(spec, m_spec).classes == base.classes


def pairwise_same_multiplet(psi, phi, m_spec, tol=Tolerance(),
                            eps_supp=DEFAULT_SUPPORT_EPS):
    """Reference definition: per-cluster projectors, one pair at a time."""
    def signature(v):
        present, components = [], {}
        for k in range(m_spec.n_clusters):
            basis = m_spec.cluster_basis(k)
            projected = basis @ (basis.conj().T @ v)
            p_norm = np.linalg.norm(projected)
            if p_norm > eps_supp * np.linalg.norm(v):
                present.append(k)
                components[k] = projected / p_norm
        return tuple(present), components

    sig_a, comp_a = signature(np.asarray(psi, dtype=complex))
    sig_b, comp_b = signature(np.asarray(phi, dtype=complex))
    return sig_a == sig_b and all(
        abs(np.vdot(comp_a[k], comp_b[k])) >= 1.0 - tol.rtol for k in sig_a)


def greedy_reference(h_spec, m_spec):
    """partition() as a brute-force greedy over pairwise tests."""
    classes, reps = [], []
    for i in range(h_spec.dim):
        psi = h_spec.eigenvectors[:, i]
        for c, rep in enumerate(reps):
            assert (same_multiplet(rep, psi, m_spec)
                    == pairwise_same_multiplet(rep, psi, m_spec))
            if pairwise_same_multiplet(rep, psi, m_spec):
                classes[c].append(i)
                break
        else:
            classes.append([i])
            reps.append(psi)
    signatures = tuple(support_signature(rep, m_spec).present_clusters
                       for rep in reps)
    return tuple(tuple(c) for c in classes), signatures


def equal_masks_pair():
    # Vectors 0 and 1 share the support mask (both clusters) but point
    # different ways inside the degenerate +1 cluster; vector 2 is
    # parallel to vector 0 there, vector 3 lives on -1 only.
    m_spec = hermitian_eigh(op(np.diag([-1.0, 1.0, 1.0])))
    vectors = np.array([[1.0, 1.0, 1.0, 1.0],
                        [1.0, 0.0, 2.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0]], dtype=complex)
    h_spec = SpectralDecomposition(eigenvalues=np.arange(4.0),
                                   eigenvectors=vectors,
                                   clusters=((0, 1), (1, 2), (2, 3), (3, 4)))
    return h_spec, m_spec


def bundle_specs(bundle):
    return canonical_eigenbasis(bundle.h, bundle.m), hermitian_eigh(bundle.m)


PARTITION_CASES = {
    "angular_l1": lambda: bundle_specs(angular_block(1, -0.5, 0.1)),
    "angular_l3": lambda: bundle_specs(angular_block(3, -0.5, 0.1)),
    "jc_degenerate_h": lambda: bundle_specs(
        jaynes_cummings(1.0, 1.0, 0.0, cutoff=4)),
    "hardcore_4": lambda: bundle_specs(hardcore_chain(4, 0.3 + 0.1j)),
    "random_triple": lambda: bundle_specs(
        random_triple((3, 4, 3), 1.0, seed=17)),
    "equal_masks": equal_masks_pair,
}


class TestPartitionMatchesPairwiseGreedy:
    @pytest.mark.parametrize("name", PARTITION_CASES)
    def test_classes_and_signatures(self, name):
        h_spec, m_spec = PARTITION_CASES[name]()
        part = partition(h_spec, m_spec)
        classes, signatures = greedy_reference(h_spec, m_spec)
        assert part.classes == classes
        assert part.signatures == signatures
        assert part.labels == tuple(size_label(len(c)) for c in classes)

    def test_equal_masks_split_by_direction(self):
        part = partition(*equal_masks_pair())
        assert part.classes == ((0, 2), (1,), (3,))
        assert part.signatures == ((0, 1), (0, 1), (0,))


def test_partition_makes_no_pairwise_calls(monkeypatch):
    # Cost model: partition is a few matrix products, never a per-vector
    # or per-pair support computation.
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("support_signature", "same_multiplet"):
        monkeypatch.setattr(multiplets, name,
                            counted(name, getattr(multiplets, name)))
    _, h_spec, m_spec = angular_setup(3)
    assert len(partition(h_spec, m_spec).classes) == 3
    assert calls == []
