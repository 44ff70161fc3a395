import numpy as np
import pytest

from gensym import (
    SpectralDecomposition,
    Tolerance,
    canonical_eigenbasis,
    hermitian_eigh,
    partition,
)
from gensym import multiplets
from gensym.multiplets import (DEFAULT_SUPPORT_EPS, _cluster_norms,
                               _first_parallel_representative, size_label)
from gensym.models import (angular_block, hardcore_chain, jaynes_cummings,
                           projection_example, random_triple)
from gensym.operators import make_operator, phase_canonicalize

from conftest import (force_dense, near_degenerate_pair, op, random_hermitian,
                      traced_peak)
from corpus import decisions
from reference import matrix_function


def angular_setup(l, e_n=-0.5, g=0.1):
    bundle = angular_block(l, e_n, g)
    h_spec = canonical_eigenbasis(bundle.h, bundle.m)
    m_spec = hermitian_eigh(bundle.m)
    return bundle, h_spec, m_spec


def column_partition(m_spec, *vectors, tol=Tolerance()):
    """partition of the given vectors, taken as the columns of a basis."""
    spec = SpectralDecomposition(
        eigenvalues=np.zeros(len(vectors)),
        eigenvectors=np.column_stack(vectors),
        clusters=tuple((j, j + 1) for j in range(len(vectors))))
    return partition(spec, m_spec, tol)


def support(psi, m_spec):
    """The M-clusters psi lives on: partition's signature of one column."""
    return column_partition(m_spec, psi).signatures[0]


def same_class(psi, phi, m_spec, tol=Tolerance()):
    """True when partition puts psi and phi in one class."""
    return len(column_partition(m_spec, psi, phi, tol=tol).classes) == 1


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

    @pytest.mark.parametrize("sites", [7, 8])
    @pytest.mark.parametrize("z", [0.3 + 0.1j, 0.2])
    def test_diagonal_m_compression_is_the_gemm_bit_for_bit(self, monkeypatch,
                                                            sites, z):
        # B^dag M for a real diagonal M is a column scale, in the gemm's C
        # order, and so every bit of the basis is the dense gemm's: 13
        # degenerate clusters on hardcore_7 and 25 on hardcore_8, whose
        # rotations hang on the last bits of their compressions.
        bundle = hardcore_chain(sites, z)
        assert bundle.m.real_diagonal is not None
        basis = canonical_eigenbasis(bundle.h, bundle.m).eigenvectors
        force_dense(monkeypatch)
        m = make_operator(bundle.m.dim, bundle.m.entries)
        assert m.real_diagonal is None
        dense = canonical_eigenbasis(bundle.h, m)
        assert basis.tobytes() == dense.eigenvectors.tobytes()

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

    @pytest.mark.parametrize("bundle", [
        None,  # near_degenerate_pair()
        jaynes_cummings(1.0, 1.0, 0.0, cutoff=8),
        hardcore_chain(5, 0.3 + 0.1j),
    ], ids=["near_degenerate", "jc_degenerate_h", "hardcore_5"])
    def test_columns_are_eigenvectors_to_their_cluster_spread(self, bundle):
        # The stability scan reads H only through V diag(w) V^dag and
        # checks no column again: each rotated column of a k-cluster is an
        # eigenvector to sqrt(k) times the eigensolver contract plus the
        # cluster's spread.
        h, m = ((op(a) for a in near_degenerate_pair()) if bundle is None
                else (bundle.h, bundle.m))
        spec = canonical_eigenbasis(h, m)
        v, w = spec.eigenvectors, spec.eigenvalues
        residuals = np.linalg.norm(h.entries @ v - v * w, axis=0)
        assert max(stop - start for start, stop in spec.clusters) > 1
        for start, stop in spec.clusters:
            bound = (np.sqrt(stop - start) * 1e-10 * h.norm
                     + w[stop - 1] - w[start])
            assert np.all(residuals[start:stop] <= bound)

    @pytest.mark.parametrize("bundle", [
        jaynes_cummings(1.0, 1.0, 0.1, cutoff=16),
        angular_block(3, -0.5, 0.1),
        projection_example(40, seed=1),
    ], ids=["jc_16", "angular_l3", "projection_40"])
    def test_basis_with_no_cluster_takes_one_phase_pass(self, bundle):
        # With nothing to rotate, the basis is hermitian_eigh's with its
        # phases canonicalised once more: a no-op for a real basis, whose
        # sign pass is exact and idempotent, which therefore is returned as
        # solved; last bits for a complex one.
        h, m = bundle.h, bundle.m
        solved = hermitian_eigh(h)
        assert all(stop - start == 1 for start, stop in solved.clusters)
        spec = canonical_eigenbasis(h, m)
        expected = phase_canonicalize(solved.eigenvectors.copy())
        assert spec.eigenvectors.dtype == expected.dtype
        assert spec.eigenvectors.tobytes() == expected.tobytes()
        assert not spec.eigenvectors.flags.writeable
        assert spec.order is None

    @pytest.mark.parametrize("bundle", [
        jaynes_cummings(1.0, 1.0, 0.1, cutoff=127),
        hardcore_chain(8, 0.3 + 0.1j),
        projection_example(256, seed=3),
    ], ids=["jc_127", "hardcore_8", "projection_256"])
    def test_holds_no_second_copy_of_the_basis(self, bundle):
        # A real basis with no cluster is returned as solved, and any other
        # is rotated and phased in one owned copy once hermitian_eigh's is
        # released, so the peak is eigh's own (1.57 real, 3.13 complex n^2
        # at dim 256); a second n x n copy adds 0.5 n^2 complex units.
        h, m = bundle.h, bundle.m
        assert h.hermitian and m.hermitian and h.dim == 256
        eigh_peak = traced_peak(lambda: hermitian_eigh(h))
        assert traced_peak(lambda: canonical_eigenbasis(h, m)) <= (
            eigh_peak + 16 * 16 * h.dim)

    def test_rejects_non_hermitian_m(self, rng):
        h = op(random_hermitian(rng, 3))
        with pytest.raises(ValueError):
            canonical_eigenbasis(h, op([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


class TestSupportSignature:
    def test_m_eigenvector_single_cluster(self):
        _, _, m_spec = angular_setup(1)
        assert support(np.array([0.0, 1.0, 0.0]), m_spec) == (1,)

    def test_balanced_superposition(self):
        # (|m=1> - |m=-1>)/sqrt(2): present on the m = -1 and m = +1
        # clusters (ascending order puts m = -1 first), half the weight on
        # each.
        _, _, m_spec = angular_setup(1)
        psi = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
        assert support(psi, m_spec) == (0, 2)
        norms, _ = _cluster_norms(np.reshape(psi, (-1, 1)), m_spec)
        np.testing.assert_allclose(norms[:, 0], [0.5 ** 0.5, 0, 0.5 ** 0.5],
                                   atol=1e-15)

    @pytest.mark.parametrize("tile", [1, 4, 6, 9, 64])
    def test_cluster_norms_in_runs_of_any_height(self, monkeypatch, tile):
        # Clusters of 3, 5, 2 and 4 rows summed in runs of at most
        # tile^2 // 14 rows, or one wider cluster: each norm is the
        # norm of the column's rows on its cluster.
        monkeypatch.setattr(multiplets, "TILE", tile)
        bundle = random_triple([3, 5, 2, 4], 1.0, seed=2)
        m_spec = hermitian_eigh(bundle.m)
        vectors = canonical_eigenbasis(bundle.h, bundle.m).eigenvectors
        norms, _ = _cluster_norms(vectors, m_spec)
        expected = [np.linalg.norm(vectors[m_spec.order[start:stop]], axis=0)
                    for start, stop in m_spec.clusters]
        np.testing.assert_allclose(norms, expected, rtol=1e-15)

    def test_tiny_component_dropped(self):
        _, _, m_spec = angular_setup(1)
        psi = np.array([1.0, 1e-12, 0.0])
        assert support(psi, m_spec) == (2,)

    def test_eps_supp_override(self):
        # 1e-5 is above DEFAULT_SUPPORT_EPS, so the m = 0 cluster counts.
        _, _, m_spec = angular_setup(1)
        psi = np.array([1.0, 1e-5, 0.0])
        assert support(psi, m_spec) == (1, 2)


class TestSameMultiplet:
    def test_scalar_multiple(self):
        _, h_spec, m_spec = angular_setup(1)
        psi = h_spec.eigenvectors[:, 0]
        assert same_class(psi, (2.0 - 1.0j) * psi, m_spec)

    def test_diagonal_rescaling(self):
        _, h_spec, m_spec = angular_setup(1)
        psi = h_spec.eigenvectors[:, 0]
        f_m = matrix_function(m_spec, lambda lam: 3.0 + lam).entries
        assert same_class(psi, f_m @ psi, m_spec)

    def test_different_support_rejected(self):
        _, h_spec, m_spec = angular_setup(1)
        # Middle eigenvector lives on m = 0 only; the outer ones on m = +-1.
        assert not same_class(h_spec.eigenvectors[:, 0],
                                  h_spec.eigenvectors[:, 1], m_spec)

    def test_non_parallel_within_degenerate_cluster(self):
        m_spec = hermitian_eigh(op(np.diag([1.0, 1.0, -1.0])))
        psi = np.array([1.0, 0.0, 1.0])
        phi = np.array([0.0, 1.0, 1.0])
        # Both supported on the degenerate +1 cluster and on -1, but the
        # +1 components point in different directions.
        assert not same_class(psi, phi, m_spec)


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


class TestEquivalenceRelation:
    def test_partition_is_an_equivalence(self):
        loose = Tolerance(rtol=1e-7)
        for l in (1, 2, 3, 4):
            _, h_spec, m_spec = angular_setup(l)
            part = partition(h_spec, m_spec)
            vectors = h_spec.eigenvectors
            for cls in part.classes:
                for i in cls:
                    assert same_class(vectors[:, i], vectors[:, i],
                                          m_spec, loose)
                    for j in cls:
                        assert same_class(vectors[:, i], vectors[:, j],
                                              m_spec, loose)
                        assert same_class(vectors[:, j], vectors[:, i],
                                              m_spec, loose)
            for ca in part.classes:
                for cb in part.classes:
                    if ca is cb:
                        continue
                    assert not same_class(vectors[:, ca[0]],
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


def reference_signature(v, m_spec):
    """Reference support of v: its clusters and unit component on each.

    One projector per M-cluster, built from that cluster's eigenvectors.
    """
    v = np.asarray(v, dtype=complex)
    present, components = [], {}
    for k, (start, stop) in enumerate(m_spec.clusters):
        basis = m_spec.eigenvectors[:, start:stop]
        projected = basis @ (basis.conj().T @ v)
        p_norm = np.linalg.norm(projected)
        if p_norm > DEFAULT_SUPPORT_EPS * np.linalg.norm(v):
            present.append(k)
            components[k] = projected / p_norm
    return tuple(present), components


def pairwise_same_multiplet(psi, phi, m_spec, tol=Tolerance()):
    """Reference definition: per-cluster projectors, one pair at a time."""
    sig_a, comp_a = reference_signature(psi, m_spec)
    sig_b, comp_b = reference_signature(phi, m_spec)
    return sig_a == sig_b and all(
        abs(np.vdot(comp_a[k], comp_b[k])) >= 1.0 - tol.rtol for k in sig_a)


def recover_f(psi, phi, m_spec, tol=Tolerance()):
    """Reference: the connecting function f with phi = f(M) psi, per cluster.

    f is set to 1 on clusters outside the common support.  Raises when the
    vectors are not in the same multiplet or the reconstruction check
    fails.
    """
    if not pairwise_same_multiplet(psi, phi, m_spec, tol):
        raise ValueError("vectors are not in the same M-multiplet")
    phi = np.asarray(phi, dtype=complex)
    vectors = np.column_stack([psi, phi])
    _, mask = _cluster_norms(vectors, m_spec)
    coords = m_spec.eigenvectors.conj().T @ vectors
    values = {}
    diag = np.ones(m_spec.dim, dtype=complex)
    for k, (start, stop) in enumerate(m_spec.clusters):
        if not mask[k, 0]:
            values[k] = 1.0
            continue
        c_psi, c_phi = coords[start:stop, 0], coords[start:stop, 1]
        values[k] = complex(np.vdot(c_psi, c_phi) / np.vdot(c_psi, c_psi).real)
        diag[start:stop] = values[k]
    rebuilt = m_spec.eigenvectors @ (diag * coords[:, 0])
    if np.linalg.norm(phi - rebuilt) > tol.rtol * np.linalg.norm(phi):
        raise ValueError("recovered f does not reproduce phi within tolerance")
    return values


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
        means = m_spec.cluster_values[0]
        for k in values:
            mu = means[k]
            expected = np.exp(-1j * np.pi * mu)
            if k in support(psi, m_spec):
                assert values[k] == pytest.approx(expected, abs=1e-10)

    def test_rejects_cross_multiplet(self):
        _, h_spec, m_spec = angular_setup(1)
        with pytest.raises(ValueError):
            recover_f(h_spec.eigenvectors[:, 0],
                      h_spec.eigenvectors[:, 1], m_spec)


def greedy_reference(h_spec, m_spec):
    """partition() as a brute-force greedy over pairwise tests."""
    classes, reps = [], []
    for i in range(h_spec.dim):
        psi = h_spec.eigenvectors[:, i]
        for c, rep in enumerate(reps):
            if pairwise_same_multiplet(rep, psi, m_spec):
                classes[c].append(i)
                break
        else:
            classes.append([i])
            reps.append(psi)
    signatures = tuple(reference_signature(rep, m_spec)[0] for rep in reps)
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


def non_transitive_pair():
    # Four unit vectors in one two-dimensional M-cluster at angles 0, 2t,
    # t and 1.5t, with 1 - cos(t) <= rtol < 1 - cos(1.5t): "parallel"
    # links 0-2, 1-2, 1-3 and 2-3 but not 0-1 or 0-3.  The greedy pass
    # makes 0 and 1 representatives; 2 joins 0, its first parallel
    # representative, and 3 joins 1.
    t = 1.2e-4
    angles = np.array([0.0, 2 * t, t, 1.5 * t])
    m_spec = hermitian_eigh(op(np.eye(2)))
    vectors = np.array([np.cos(angles), np.sin(angles)])
    h_spec = SpectralDecomposition(eigenvalues=np.arange(4.0),
                                   eigenvectors=vectors,
                                   clusters=((0, 1), (1, 2), (2, 3), (3, 4)))
    return h_spec, m_spec


PARTITION_CASES = {
    "angular_l1": lambda: bundle_specs(angular_block(1, -0.5, 0.1)),
    "angular_l3": lambda: bundle_specs(angular_block(3, -0.5, 0.1)),
    "jc_degenerate_h": lambda: bundle_specs(
        jaynes_cummings(1.0, 1.0, 0.0, cutoff=4)),
    "hardcore_4": lambda: bundle_specs(hardcore_chain(4, 0.3 + 0.1j)),
    "random_triple": lambda: bundle_specs(
        random_triple((3, 4, 3), 1.0, seed=17)),
    "equal_masks": equal_masks_pair,
    "non_transitive": non_transitive_pair,
}

# Members whose cluster components are parallel to within rtol in |cos|
# differ from f(M) psi by up to sqrt(2 rtol) ~ 1e-4, beyond recover_f's
# 1e-8 reconstruction check; every other case is exactly connected.
F_OF_M_CASES = [name for name in PARTITION_CASES if name != "non_transitive"]


class TestPartitionMatchesPairwiseGreedy:
    @pytest.mark.parametrize("name", PARTITION_CASES)
    def test_classes_and_signatures(self, name):
        h_spec, m_spec = PARTITION_CASES[name]()
        part = partition(h_spec, m_spec)
        classes, signatures = greedy_reference(h_spec, m_spec)
        assert part.classes == classes
        assert part.signatures == signatures
        assert part.labels == tuple(size_label(len(c)) for c in classes)

    @pytest.mark.parametrize("name", F_OF_M_CASES)
    def test_classes_are_connected_by_f_of_m(self, name):
        # The paper's definition of a multiplet: phi = f(M) psi with f
        # nonzero on the spectrum of M.  recover_f checks f(M) psi = phi.
        h_spec, m_spec = PARTITION_CASES[name]()
        vectors = h_spec.eigenvectors
        for members in partition(h_spec, m_spec).classes:
            for j in members[1:]:
                values = recover_f(vectors[:, members[0]], vectors[:, j],
                                   m_spec)
                assert all(abs(f) > 0 for f in values.values())

    def test_non_transitive_parallelism_follows_the_first_representative(self):
        part = partition(*non_transitive_pair())
        assert part.classes == ((0, 2), (1, 3))

    def test_representatives_match_the_one_by_one_loop(self, rng):
        for size in (1, 2, 5, 12, 40):
            for density in (0.1, 0.5, 0.9):
                upper = np.triu(rng.random((size, size)) < density, 1)
                parallel = upper | upper.T | np.eye(size, dtype=bool)
                reps, expected = [], []
                for j in range(size):
                    hits = [i for i in reps if parallel[i, j]]
                    expected.append(hits[0] if hits else j)
                    if not hits:
                        reps.append(j)
                assert _first_parallel_representative(
                    parallel).tolist() == expected

    def test_equal_masks_split_by_direction(self):
        part = partition(*equal_masks_pair())
        assert part.classes == ((0, 2), (1,), (3,))
        assert part.signatures == ((0, 1), (0, 1), (0,))


@pytest.mark.xfail(strict=True, reason=(
    "the basis inside a degenerate (H, M) cluster is left to the "
    "eigensolver's rounding (ROADMAP item 7), so eigh on H sorted into M's "
    "order (item 27) moves hardcore_chain(7)'s classes: 109 against 105"))
def test_classes_survive_sorting_into_m_order():
    # P stably sorts M's diagonal; (P H P^T, P M P^T) is the same pair in
    # another order, so its classes are the same sets of eigenvalue
    # clusters.
    bundle = hardcore_chain(7, 0.3 + 0.1j)
    order = np.argsort(bundle.m.real_diagonal, kind="stable")
    h, m = (make_operator(a.dim, a.entries[np.ix_(order, order)])
            for a in (bundle.h, bundle.m))
    got, want = (decisions(*pair, 1e-8)
                 for pair in ((h, m), (bundle.h, bundle.m)))
    assert got["classes"] == want["classes"]
