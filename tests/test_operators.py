import numpy as np
import pytest

from gensym import (
    Tolerance,
    canonicalize,
    hermitian_eigh,
    make_operator,
    reconstruct_case2,
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
from gensym.operators import (
    TILE,
    NumericalError,
    _add_adjoint,
    _hermitian_eigvalsh,
    _freeze,
    _m_basis,
    _stored_units,
    _times_block,
    cluster_eigenvalues,
    fro,
    is_hermitian,
    phase_canonicalize,
)

from conftest import SX, SY, SZ, op, random_hermitian, traced_peak
from reference import iterated_commutator, matrix_function

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


class TestTolerance:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf"), -1e-12])
    @pytest.mark.parametrize("field", ["rtol"])
    def test_rejects_non_finite_or_negative(self, field, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Tolerance(**{field: value})

    def test_accepts_zero(self):
        # rtol = 0 merges equal values only, however close the others are.
        assert cluster_eigenvalues([0.0, 0.0, 5e-324], 1.0,
                                   Tolerance(rtol=0.0)) == ((0, 2), (2, 3))


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

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            make_operator(0, np.zeros((0, 0)))


class TestStorageRule:
    """float64 when every imaginary part is +0.0 bit for bit, else complex128."""

    @pytest.mark.parametrize("entries", [
        np.array([[1.5, -2.0], [0.0, 3.0]]),
        [[1, 2], [3, 4]],
        np.array([[1.5, -2.0], [0.0, 3.0]], dtype=np.float32),
        np.array([[1.5, -2.0], [-0.0, 3.0]], dtype=complex),
        [[1 + 0j, 2], [3, 4]],
    ], ids=["float64", "int_list", "float32", "complex_zero_imag",
            "complex_list"])
    def test_real_values_are_float64(self, entries):
        a = make_operator(2, entries)
        assert a.entries.dtype == np.float64
        np.testing.assert_array_equal(a.entries, np.real(np.asarray(entries)))

    @pytest.mark.parametrize("imag", [1e-300, -2.0, 5e-324, -0.0])
    def test_any_other_imaginary_part_is_complex(self, imag):
        entries = np.eye(3, dtype=complex)
        entries[2, 1] = complex(0.0, imag)
        a = make_operator(3, entries)
        assert a.entries.dtype == np.complex128
        # Bit for bit, the sign of a zero included.
        assert a.entries.tobytes() == entries.tobytes()

    def test_real_part_keeps_its_signed_zeros(self):
        a = make_operator(1, np.array([[complex(-0.0, 0.0)]]))
        assert a.entries.dtype == np.float64
        assert np.signbit(a.entries[0, 0])

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 0.0),
                                     complex(0.0, np.nan), complex(0.0, -np.inf),
                                     complex(-np.inf, 1.0)],
                             ids=["nan_re", "inf_re", "nan_im", "inf_im",
                                  "inf_re_complex"])
    def test_rejects_non_finite_in_either_part(self, bad):
        entries = np.zeros((2, 2), dtype=complex)
        entries[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            make_operator(2, entries)

    @pytest.mark.parametrize("a", [-1022, -30, 0, 40, 1023])
    def test_units_follow_the_rule_of_the_scaled_array(self, a):
        # _stored_units(x, a) stores x = X / 2^a as _freeze stores X, read
        # off extremes of x: finiteness, and +0.0 imaginary parts after
        # the scale (2^-60 vanishes at 2^-1022, its negative leaves -0.0;
        # 3.0 and -3.0 overflow at 2^1023).
        cases = []
        for re in (3.0, -3.0, -0.75, 2.0 ** -60, 0.0, np.nan):
            for im in (None, 0.0, -0.0, 2.0 ** -60, -2.0 ** -60, 0.5,
                       np.inf):
                x = np.array([[1.0, -0.25], [re, 0.5]],
                             dtype=float if im is None else complex)
                if im is not None:
                    x[0, 1] = complex(-0.25, im)
                cases.append(x)
        for x in cases:
            with np.errstate(all="ignore"):
                scaled = x * 2.0 ** a
            try:
                expected = _freeze(scaled)
            except ValueError:
                with pytest.raises(ValueError, match="non-finite"):
                    _stored_units(x.copy(), a)
                continue
            got = _stored_units(x.copy(), a)
            assert got.dtype == expected.dtype
            with np.errstate(all="ignore"):
                assert (got * 2.0 ** a).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stored_copy_is_frozen_and_unaliased(self, dtype):
        entries = np.ones((2, 2), dtype=dtype)
        a = make_operator(2, entries)
        entries[0, 0] = 7.0
        assert a.entries[0, 0] == 1.0
        assert not a.entries.flags.writeable
        assert a.entries.flags.c_contiguous

    @pytest.mark.parametrize("bundle, real", [
        (angular_block(3, -0.5, 0.1), True),
        (jaynes_cummings(1.0, 1.0, 0.1, cutoff=7), True),
        (fermion_chain(4, 0.5, [0.3, 0, -0.2, 0]), True),
        (fermion_chain(4, 0.5, [0.3 + 0.1j, 0, 0, 0]), False),
        (hardcore_chain(4, 0.3 + 0.1j), False),
    ], ids=["angular", "jc", "fermion_real", "fermion_complex",
            "hardcore_complex"])
    def test_model_hamiltonians(self, bundle, real):
        expected = np.float64 if real else np.complex128
        assert bundle.h.entries.dtype == expected
        # Every number operator and sigma_z is real.
        assert bundle.m.entries.dtype == np.float64

    def test_real_pair_commutator_is_real(self):
        lz = angular_block(2, 0.0, 0.1)
        assert iterated_commutator(lz.h, lz.m, 1).entries.dtype == np.float64
        # canonicalize swaps R for its adjoint, which stays real too.
        triple = canonicalize(reconstruct_case2(lz.h, lz.m, -1.0))
        assert triple.r.dtype == triple.h0.dtype == np.float64

    def test_phase_canonicalize_keeps_real_columns_real(self, rng):
        v = rng.normal(size=(6, 4))
        out = phase_canonicalize(v)
        assert out.dtype == np.float64
        pivots = out[np.argmax(np.abs(out), axis=0), np.arange(4)]
        assert np.all(pivots > 0)
        np.testing.assert_array_equal(np.abs(out), np.abs(v))

    def test_phase_canonicalize_of_complex_is_complex(self, rng):
        v = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        out = phase_canonicalize(v)
        pivots = out[np.argmax(np.abs(out), axis=0), np.arange(4)]
        assert out.dtype == np.complex128
        np.testing.assert_allclose(pivots.imag, 0.0, atol=1e-15)
        assert np.all(pivots.real > 0)


    @pytest.mark.parametrize("dtype", [float, complex])
    def test_phase_canonicalize_matches_per_column_loop(self, rng, dtype):
        def per_column(vectors):
            out = np.array(vectors, dtype=np.result_type(vectors, float))
            for j in range(out.shape[1]):
                col = out[:, j]
                pivot = col[int(np.argmax(np.abs(col)))]
                if abs(pivot) > 0:
                    out[:, j] = col * (abs(pivot) / pivot)
            return out

        bases = [rng.normal(size=(n, n)) for n in (8, 64, 256)]
        if dtype is complex:
            bases = [v + 1j * rng.normal(size=v.shape) for v in bases]
        # Raw eigh bases of a real and of a complex model Hamiltonian.
        bases += [np.linalg.eigh(angular_block(10, 0.0, 0.1).h.entries)[1],
                  np.linalg.eigh(hardcore_chain(5, 0.3 + 0.1j).h.entries)[1]]
        tied = np.array(0.1 * rng.normal(size=(6, 5)), dtype=dtype)
        tied[:, 2] = 0.0
        tied[1, 3], tied[4, 3] = -3.0, 3.0  # tie: the first one is the pivot
        tied[0, 4] = tied[5, 4] = -3.0
        bases.append(tied)
        for v in bases:
            out = phase_canonicalize(v.copy())
            expected = per_column(v)
            assert out.dtype == expected.dtype
            assert out.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(phase_canonicalize(tied)[:, 2], 0.0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_phase_canonicalize_works_in_place(self, rng, dtype):
        v = np.array(rng.normal(size=(6, 4)), dtype=dtype)
        v[0] *= -1.0j if dtype is complex else -1.0
        expected = phase_canonicalize(v.copy())
        assert phase_canonicalize(v) is v
        assert v.tobytes() == expected.tobytes()
        v.setflags(write=False)
        with pytest.raises(ValueError):
            phase_canonicalize(v)

    @pytest.mark.parametrize("dim", [256, 512])
    def test_phase_canonicalize_holds_two_traced_buffers(self, rng, dim):
        # In place, |V^T| in C order is its one n^2 buffer; argmax along
        # axis 0 of a C-ordered |V| would add a transposed copy of |V|.
        v = rng.normal(size=(dim, dim))
        assert traced_peak(lambda: phase_canonicalize(v)) <= 8 * (
            2 * dim ** 2 + 4 * TILE ** 2)


class TestCommutator:
    def test_self_commutator_vanishes(self, rng):
        a = op(random_hermitian(rng, 4))
        np.testing.assert_array_equal(iterated_commutator(a, a, 1).entries,
                                      0)

    def test_identity_commutes(self, rng):
        a = op(random_hermitian(rng, 4))
        np.testing.assert_array_equal(
            iterated_commutator(a, op(np.eye(4)), 1).entries, 0)

    def test_pauli_pair(self):
        # Oracle: direct 2x2 matrix products.
        expected = SX @ SZ - SZ @ SX
        np.testing.assert_allclose(expected, -2j * SY)
        np.testing.assert_allclose(
            iterated_commutator(op(SX), op(SZ), 1).entries, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            iterated_commutator(op(SX), op(np.eye(3)), 1)


def awkward_matrix(rng, dim, dtype):
    """Random entries, about a third of whose parts are signed zeros or
    subnormals."""
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320])
    parts = rng.normal(size=(2, dim, dim))
    picks = rng.random(size=parts.shape) < 0.35
    parts[picks] = rng.choice(specials, size=int(picks.sum()))
    a = np.empty((dim, dim), dtype)
    a.real = parts[0]
    if dtype is complex:
        a.imag = parts[1]
    return a


class TestAddAdjoint:
    """_add_adjoint against the whole-array expressions it replaces."""

    @pytest.mark.parametrize("dim", [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bit_identical_to_the_whole_array_expression(self, rng, dim,
                                                          dtype, sign):
        a = awkward_matrix(rng, dim, dtype)
        expected = a + a.conj().T if sign > 0 else a - a.conj().T
        in_place = a.copy()
        assert _add_adjoint(in_place, sign) is in_place
        assert in_place.dtype == a.dtype and in_place.flags.c_contiguous
        assert in_place.tobytes() == expected.tobytes()

    def test_gate_holds_three_tiles(self, rng):
        # ||A - A^dag||_F tile pair by tile pair: a tile's conjugate mirror
        # and the difference, with numpy's temporaries, hold three tiles;
        # an n^2 buffer is 16 tiles here.
        dim = 512
        a = random_hermitian(rng, dim)
        assert traced_peak(lambda: is_hermitian(a)) <= 16 * (3 * TILE ** 2
                                                           + 1024)

    def test_values_only_spectrum_holds_two_tiles(self, rng):
        # eigvalsh reads the entries in place (LAPACK's copy is not
        # traced); the squared-sum check holds a tile's lower triangle and
        # numpy's temporaries.
        dim = 512
        a = op(random_hermitian(rng, dim))
        assert traced_peak(lambda: _hermitian_eigvalsh(a)) <= 16 * (
            2 * TILE ** 2 + 1024)


class TestTimesBlock:
    """A V for a thin block V, in real arithmetic for a real A."""

    def test_real_operand_times_complex_block_is_one_real_gemm(self, rng):
        # numpy's mixed product would hold a complex copy of A, 16 n^2 bytes.
        dim, k = 256, 8
        a = random_hermitian(rng, dim).real
        v = rng.normal(size=(dim, 2 * k)).view(complex)[:, ::2]  # strided
        av = _times_block(a, v)
        assert av.dtype == np.complex128 and av.shape == (dim, k // 2)
        np.testing.assert_allclose(av, a @ v, rtol=0, atol=1e-12 * fro(a))
        assert traced_peak(lambda: _times_block(a, v)) <= 16 * 4 * dim * k

    @pytest.mark.parametrize("inverse", [False, True])
    def test_dense_real_m_basis_is_one_real_gemm(self, inverse):
        # W^dag V (W V with inverse) for the real eigenbasis W of a dense
        # real M and complex V holds its n^2 output; numpy's mixed product
        # would also cast W to a complex n^2 copy.
        bundle = hardcore_chain(8, 0.3 + 0.1j)
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(
            size=(bundle.h.dim, bundle.h.dim)))
        h, m = (make_operator(a.dim, q @ a.entries @ q.T)
                for a in (bundle.h, bundle.m))
        m_spec, v = hermitian_eigh(m), hermitian_eigh(h).eigenvectors
        w = m_spec.eigenvectors
        dim = len(w)
        assert w.dtype == np.float64 and v.dtype == np.complex128
        product = _m_basis(m_spec, v, inverse)
        expected = (w if inverse else w.conj().T) @ v
        np.testing.assert_allclose(product, expected, rtol=0,
                                   atol=1e-12 * fro(expected))
        assert traced_peak(lambda: _m_basis(m_spec, v, inverse)) <= 16 * (
            dim ** 2 + TILE ** 2)

    @pytest.mark.parametrize("a_type,v_type", [(complex, complex),
                                               (complex, float),
                                               (float, float)])
    def test_other_operands_are_the_plain_product(self, rng, a_type, v_type):
        a = awkward_matrix(rng, 40, a_type)
        v = awkward_matrix(rng, 40, v_type)[:, :8]
        assert _times_block(a, v).tobytes() == (a @ v).tobytes()


class TestIteratedCommutator:
    def test_identity_gives_zero(self, rng):
        h = op(random_hermitian(rng, 4))
        np.testing.assert_array_equal(
            iterated_commutator(h, op(np.eye(4)), 3).entries, 0)

    def test_depth_one_is_commutator(self):
        np.testing.assert_array_equal(
            iterated_commutator(op(SX), op(SZ), 1).entries,
            SX @ SZ - SZ @ SX)

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

    def test_dense_residual_outside_the_contract_raises(self, monkeypatch,
                                                        rng):
        eigh = np.linalg.eigh

        def shifted_eigh(a):
            w, v = eigh(a)
            return w + 1e-8 * np.linalg.norm(a), v

        monkeypatch.setattr(np.linalg, "eigh", shifted_eigh)
        with pytest.raises(NumericalError, match="residual"):
            hermitian_eigh(op(random_hermitian(rng, 6), "probe"))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_phases_the_array_eigh_returned(self, monkeypatch, rng, dtype):
        eigh, solved = np.linalg.eigh, []

        def recording_eigh(a):
            w, v = eigh(a)
            solved.append(v)
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        a = random_hermitian(rng, 6)
        spec = hermitian_eigh(op(a if dtype is complex else a.real))
        assert len(solved) == 1
        assert np.shares_memory(spec.eigenvectors, solved[0])

    def test_sorted_diagonal_eigenpairs_are_exact(self):
        # Column o of A V - V diag(w) is d_o e_o - e_o d_o: exactly zero,
        # so the sort needs no residual check.
        a = op(np.diag([1e200, -0.0, 5e-324, 0.0, -3.0, 1e-200, -5e-324]))
        spec = hermitian_eigh(a)
        assert spec.order is not None
        v, w = spec.eigenvectors, spec.eigenvalues
        assert not np.any(a.entries @ v - v * w[np.newaxis, :])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_dense_solve_holds_four_traced_buffers(self, rng, dtype):
        # V, phased in place, A V and the residual's temporaries; eigh
        # reads A in place.
        dim = 256
        a = random_hermitian(rng, dim)
        a = make_operator(dim, a if dtype is complex else a.real)
        assert a.entries.dtype == dtype and a.real_diagonal is None
        assert traced_peak(lambda: hermitian_eigh(a)) <= (
            a.entries.itemsize * (4 * dim ** 2 + 4 * TILE ** 2))

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

    @pytest.mark.parametrize("h", [h for _, h in MODEL_HAMILTONIANS],
                             ids=[name for name, _ in MODEL_HAMILTONIANS])
    def test_exactly_hermitian_input_keeps_the_bits(self, h):
        # Read in place, an exactly Hermitian A is (A + A^dag)/2 bit for
        # bit, so both solvers return the bits of solving that.
        a = h.entries
        assert np.array_equal(a, a.conj().T)
        sym = (a + a.conj().T) / 2
        assert (_hermitian_eigvalsh(h).tobytes()
                == np.linalg.eigvalsh(sym).tobytes())
        w, v = np.linalg.eigh(sym)
        spec = hermitian_eigh(h)
        assert spec.eigenvalues.tobytes() == w.tobytes()
        assert (spec.eigenvectors.tobytes()
                == phase_canonicalize(v).tobytes())

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_input_hermitian_within_the_gate_moves_by_half_its_skew_part(
            self, rng, dtype):
        # The solved L, A's lower triangle, is ||A - A^dag||_F / 2 from
        # (A + A^dag)/2, and by Hoffman-Wielandt so is its spectrum.
        dim = 150
        s = random_hermitian(rng, dim)
        k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if dtype is float:
            s, k = s.real, k.real
        k = k - k.conj().T
        a = s + 0.45e-12 * fro(s) / fro(k) * k  # A - A^dag = 0.9e-12 ||S||
        h = make_operator(dim, a)
        assert h.hermitian and h.entries.dtype == dtype
        skew = fro(a - a.conj().T)
        assert skew > 0.5e-12 * fro(a)
        expected = np.linalg.eigvalsh((a + a.conj().T) / 2)
        rounding = 1e-14 * fro(a)
        for w in (_hermitian_eigvalsh(h), hermitian_eigh(h).eigenvalues):
            assert np.linalg.norm(w - expected) <= skew / 2 + rounding

    def test_nan_fails_the_check(self, monkeypatch, rng):
        a = op(random_hermitian(rng, 8))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda x: np.full(len(x), np.nan))
        with pytest.raises(NumericalError):
            _hermitian_eigvalsh(a)


class TestHugeEntries:
    """Finite entries beyond 1e154 or below 1e-154, whose plain sum of
    squares overflows or underflows; every check runs under
    filterwarnings = error."""

    def test_fro_is_finite(self):
        a = np.array([[1e200, 3e200], [0.0, -1e200]])
        assert fro(a) == pytest.approx(np.sqrt(11.0) * 1e200, rel=1e-15)
        assert fro(1j * a) == pytest.approx(np.sqrt(11.0) * 1e200, rel=1e-15)

    @pytest.mark.parametrize("shift", [-1000, -600, -500, 500, 600, 1000])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_fro_scales_exactly_by_powers_of_two(self, rng, shift, dtype):
        # Tiny entries square to zero and huge ones to inf in the plain
        # sum of squares; the norm still scales bit for bit.
        a = random_hermitian(rng, 12)
        a = a.real if dtype is float else a
        assert fro(a * 2.0 ** shift) == fro(a) * 2.0 ** shift

    def test_gate_rejects_a_huge_non_hermitian_matrix(self):
        a = np.array([[1e200, 3e200], [0.0, -1e200]])
        assert not is_hermitian(a)
        assert not is_hermitian(1e-100 * a)
        assert is_hermitian(a + a.T)

    def test_huge_eigenvalue_keeps_its_own_cluster(self):
        spec = hermitian_eigh(op(np.diag([1e200, 1.0, 2.0])))
        assert spec.clusters == ((0, 2), (2, 3))
        assert spec.clusters == hermitian_eigh(
            op(np.diag([1e100, 1e-100, 2e-100]))).clusters

    @pytest.mark.parametrize("scale", [1e160, 1e200])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_spectrum_at_huge_scale(self, rng, scale, dtype):
        a = random_hermitian(rng, 12)
        a = a.real if dtype is float else a
        expected = scale * np.linalg.eigvalsh(a)
        huge = op(scale * a)
        bound = 1e-12 * np.max(np.abs(expected))
        assert np.max(np.abs(_hermitian_eigvalsh(huge) - expected)) <= bound
        spec = hermitian_eigh(huge)
        assert np.max(np.abs(spec.eigenvalues - expected)) <= bound
        assert spec.n_clusters == 12


class TestSpectralDecomposition:
    def test_cluster_values_are_cluster_means(self):
        spec = hermitian_eigh(op(np.diag([0.3, 0.1, 0.1 + 1e-12, 0.7])))
        means = [float(np.mean(spec.eigenvalues[start:stop]))
                 for start, stop in spec.clusters]
        assert spec.n_clusters == 3
        values, sizes = spec.cluster_values()
        np.testing.assert_array_equal(values, means)
        np.testing.assert_array_equal(sizes, [2, 1, 1])


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
        tol = Tolerance(rtol=0.5)
        assert cluster_eigenvalues([0.0, 0.4, 0.8, 2.0], 1.0, tol) == \
            ((0, 3), (3, 4))

    def test_empty_and_single(self):
        assert cluster_eigenvalues([], 1.0) == ()
        assert cluster_eigenvalues([3.0], 1.0) == ((0, 1),)

    def test_matches_per_value_loop(self, rng):
        def per_value(values, gap):
            clusters, start = [], 0
            for i in range(1, len(values)):
                if values[i] - values[i - 1] > gap:
                    clusters.append((start, i))
                    start = i
            clusters.append((start, len(values)))
            return tuple(clusters)

        tol = Tolerance()
        for n in (2, 7, 64, 500):
            # Steps of zero, of exactly the gap, just above it, and large.
            gap = tol.rtol * 1.0
            steps = rng.choice([0.0, gap, np.nextafter(gap, 1.0), 0.3], size=n)
            values = np.cumsum(steps) - 5.0
            clusters = cluster_eigenvalues(values, 1.0, tol)
            assert clusters == per_value(values, gap)
            assert all(type(i) is int for c in clusters for i in c)
