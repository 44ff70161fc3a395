"""A real diagonal M takes a sorted eigh and scales for every product with M.

The generalised symmetries of every physical model here (L_z, sigma_z, the
excitation and fermion numbers) are real diagonal matrices.  For them
eigh(M) is a stable sort of the diagonal, and every product with M or its
eigenbasis is a row or column scale or a row gather.  These tests pin the
predicate that chooses that path, the sorted eigh against LAPACK, and that
sweep CSVs and every report that stops before the stability scan are
byte-identical to those of the dense path; a case-2 report, whose grade
and scan read R's ladder blocks, agrees with it to 1e-12.
"""

import numpy as np
import pytest

from gensym import cli, detect, models, operators
from gensym.operators import Tolerance, hermitian_eigh, make_operator
from gensym.serialization import dump_json

from conftest import force_dense
from reference import assert_reports_agree


class TestPredicate:
    def diagonal(self, entries):
        a = np.asarray(entries)
        return make_operator(a.shape[0], a).real_diagonal

    def test_real_diagonal(self):
        np.testing.assert_array_equal(self.diagonal(np.diag([1.0, -2.0, 0.0])),
                                      [1.0, -2.0, 0.0])

    def test_zero_and_dim_one(self):
        np.testing.assert_array_equal(self.diagonal(np.zeros((3, 3))), 0.0)
        np.testing.assert_array_equal(self.diagonal([[-0.0]]), [-0.0])

    def test_negative_zero_off_diagonal_counts_as_zero(self):
        a = np.diag([1.0, 2.0])
        a[0, 1] = a[1, 0] = -0.0
        np.testing.assert_array_equal(self.diagonal(a), [1.0, 2.0])

    def test_subnormal_off_diagonal_is_dense(self):
        a = np.diag([1.0, 2.0])
        a[0, 1] = a[1, 0] = 5e-324
        assert self.diagonal(a) is None

    @pytest.mark.parametrize("imag", [1.0, -0.0])
    def test_complex_is_dense(self, imag):
        # A -0.0 imaginary part keeps the operator complex (storage rule).
        a = np.diag([1.0, 2.0]).astype(complex)
        a.imag[0, 0] = imag
        assert self.diagonal(a) is None

    def test_decided_once_per_operator(self, monkeypatch):
        bundle = models.angular_block(2, -0.5, 0.1)
        asked = []
        predicate = operators._real_diagonal
        monkeypatch.setattr(operators, "_real_diagonal",
                            lambda e: asked.append(e is bundle.m.entries)
                            or predicate(e))
        report = cli.analyze_pair(bundle.h, bundle.m, Tolerance())
        assert report["stability"] is not None
        # Asked once for M, then held by the operator; once for H's eigh.
        assert asked.count(True) == 1 and len(asked) == 2


class TestSortedEigh:
    @pytest.mark.parametrize("d", [
        [3.0, 1.0, 1.0, 2.0, 3.0, 1.0],
        [-5.0, -1e-3, -7.5, 2.0, -7.5],
        [5e-324, 1e-300, 1.0, -5e-324, 1e-310, -1e-300],
        [1e100, -1e100, 1.0, 3e120, 1e150, -1e150, 7.3e147],
        [1e-200, -3e-200, 2e-210, 7.7e-250],
        [-0.0],
        [7.0],
        np.random.default_rng(3).integers(-5, 5, size=64).astype(float),
        np.random.default_rng(4).integers(-2, 2, size=300).astype(float),
    ], ids=["ties", "negative", "tiny", "huge", "all_tiny",
            "dim1_negative_zero", "dim1",
            "integer_ties_64", "integer_ties_300"])
    def test_eigenvalues_match_lapack_bit_for_bit(self, d):
        d = np.asarray(d, dtype=float)
        spec = hermitian_eigh(make_operator(len(d), np.diag(d)))
        expected = np.linalg.eigh(np.diag(d))[0]
        assert spec.eigenvalues.tobytes() == expected.tobytes()
        # The unit columns in sort order, and the permutation they follow.
        np.testing.assert_array_equal(spec.order, np.argsort(d, kind="stable"))
        np.testing.assert_array_equal(spec.eigenvectors,
                                      np.eye(len(d))[:, spec.order])

    def test_mixed_signed_zeros(self, monkeypatch):
        # +0.0 and -0.0 tie, and LAPACK puts tied columns in an order of its
        # own: the values agree, and so does every cluster mean, the only
        # place an eigenvalue of M enters a report.
        d = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0])
        spec = hermitian_eigh(make_operator(len(d), np.diag(d)))
        force_dense(monkeypatch)
        dense = hermitian_eigh(make_operator(len(d), np.diag(d)))
        np.testing.assert_array_equal(spec.eigenvalues,
                                      np.linalg.eigh(np.diag(d))[0])
        assert spec.clusters == dense.clusters
        assert (spec.cluster_values[0].tobytes()
                == dense.cluster_values[0].tobytes())

    @pytest.mark.parametrize("name", ["angular_l3", "jc_16", "hardcore_5",
                                      "fermion_5", "random_triple"])
    def test_model_m_matches_the_dense_path(self, monkeypatch, name):
        def build():
            return {
                "angular_l3": lambda: models.angular_block(3, -0.5, 0.1),
                "jc_16": lambda: models.jaynes_cummings(1.0, 1.0, 0.1, 16),
                "hardcore_5": lambda: models.hardcore_chain(5, 0.2),
                "fermion_5": lambda: models.fermion_chain(5, 1.0),
                "random_triple": lambda: models.random_triple([6, 5, 7], 0.7, 2),
            }[name]().m

        spec = hermitian_eigh(build())
        force_dense(monkeypatch)
        dense = hermitian_eigh(build())
        assert spec.order is not None and dense.order is None
        assert spec.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
        assert spec.clusters == dense.clusters
        # The same unit columns; only their order inside a cluster of tied
        # eigenvalues may differ.
        for start, stop in spec.clusters:
            rows = [sorted(np.nonzero(s.eigenvectors[:, start:stop])[0])
                    for s in (spec, dense)]
            assert rows[0] == rows[1]


def pair_builders():
    """(name, builder of (H, M)) for 56 pairs: 47 case 2 and 9 genuine."""
    pairs = []
    for l in (1, 2, 3, 10, 40):
        pairs.append((f"angular_l{l}",
                      lambda l=l: models.angular_block(l, -0.5, 0.1)))
    for cutoff in (7, 16, 127):
        for h in ("h", "h_star"):
            for m in ("sigma_z", "m_exc"):
                def jc(cutoff=cutoff, h=h, m=m):
                    b = models.jaynes_cummings(1.0, 1.0, 0.1, cutoff)
                    return (b.h if h == "h" else b.extras["h_star"],
                            b.m if m == "sigma_z" else b.extras["m_exc"])
                pairs.append((f"jc_{cutoff}_{h}_{m}", jc))
    for sites in (4, 5, 6, 7):
        for z in (0.3 + 0.1j, 0.2, 1.0, -0.4):
            pairs.append((f"hardcore_{sites}_{z}",
                          lambda s=sites, z=z: models.hardcore_chain(s, z)))
    for sites in (4, 6, 7):
        for kind, sources in (
                ("complex", [0.2 + 0.1j * k for k in range(sites)]),
                ("real", [0.1 * (k + 1) for k in range(sites)]),
                ("none", None)):
            pairs.append((f"fermion_{sites}_{kind}",
                          lambda s=sites, src=sources:
                          models.fermion_chain(s, 1.0, src)))
    for i, (dims, gamma) in enumerate([
            ((4, 4, 4), 1.0), ((3, 5, 2), 0.7), ((8, 8), 2.0),
            ((2, 2, 2, 2, 2), -1.3), ((6, 1, 6), 0.4), ((32,) * 4, 1.0),
            ((10, 12, 9), 3.0), ((1, 1), 1.0)]):
        pairs.append((f"random_triple_{i}",
                      lambda d=dims, g=gamma, s=100 + i:
                      models.random_triple(list(d), g, s)))
    for dim in (4, 8, 16):
        pairs.append((f"projection_{dim}",
                      lambda d=dim: models.projection_example(d, d)))
        pairs.append((f"involution_{dim}",
                      lambda d=dim: models.involution_example(d, d + 1)))
    return [(name, lambda b=b: _pair(b())) for name, b in pairs]


def _pair(built):
    return built if isinstance(built, tuple) else (built.h, built.m)


PAIRS = pair_builders()


def test_the_pair_set_has_47_case2_and_9_genuine():
    kinds = [detect(*build(), Tolerance()).kind for _, build in PAIRS]
    assert (len(kinds), kinds.count("case2"), kinds.count("genuine")) == \
        (56, 47, 9)


@pytest.mark.parametrize("build", [b for _, b in PAIRS],
                         ids=[name for name, _ in PAIRS])
def test_report_matches_the_dense_path(monkeypatch, build):
    # The case-2 grade and scan read R as its ladder blocks, which drop R's
    # rounding-level mass off them and sum in another order than the
    # dense gemms: every decision is the same and every float agrees to
    # 1e-12 of the largest.  Everything else is byte-identical.
    report = cli.analyze_pair(*build(), Tolerance())
    asked = force_dense(monkeypatch)
    dense = cli.analyze_pair(*build(), Tolerance())
    assert asked
    if report["stability"] is None:
        assert dump_json(report) == dump_json(dense)
    else:
        assert_reports_agree(report, dense)


@pytest.mark.parametrize("argv", [
    ["jc", "--cutoff", "9", "--param", "kappa", "--from", "-0.3",
     "--to", "0.5", "--steps", "4"],
    ["angular", "--l", "4", "--param", "g", "--from", "0",
     "--to", "0.25", "--steps", "4"],
    ["angular", "--l", "3", "--param", "hbar", "--from", "-1.5",
     "--to", "1.5", "--steps", "4"],
    ["fermion", "--sites", "5", "--sources", "0.2+0.1i,-0.05i,0.1,0.3-0.2i,0.1",
     "--param", "eps", "--from", "-0.5", "--to", "1.5", "--steps", "4"],
], ids=["jc_kappa", "angular_g", "angular_hbar", "fermion_eps"])
def test_sweep_csv_matches_the_dense_path(monkeypatch, tmp_path, argv):
    paths = [tmp_path / "diagonal.csv", tmp_path / "dense.csv"]
    assert cli.main(["sweep", *argv, "--out", str(paths[0])]) == cli.EXIT_OK
    force_dense(monkeypatch)
    assert cli.main(["sweep", *argv, "--out", str(paths[1])]) == cli.EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def conjugated(bundle, kind, seed=7):
    """(Q H Q^dag, Q M Q^dag) for a random orthogonal or unitary Q."""
    n = bundle.h.dim
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if kind == "unitary":
        a = a + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    return tuple(make_operator(x.dim, q @ x.entries @ q.conj().T)
                 for x in (bundle.h, bundle.m))


DENSE_PAIRS = {
    "projection": lambda: _pair(models.projection_example(40, 1)),
    "involution": lambda: _pair(models.involution_example(30, 2)),
    **{f"{name}_{kind}": lambda build=build, kind=kind:
       conjugated(build(), kind)
       for name, build in [
           ("jc_16", lambda: models.jaynes_cummings(1.0, 1.0, 0.1, 16)),
           ("angular_l10", lambda: models.angular_block(10, -0.5, 0.1)),
           ("random_triple", lambda: models.random_triple([4, 3, 5], 0.7, 2)),
           ("hardcore_5", lambda: models.hardcore_chain(5, 0.3 + 0.1j))]
       for kind in ("orthogonal", "unitary")},
}


def decisions(report):
    """Every decision of a report: verdict, verified, the commutes_*
    flags, classes and each record's cases."""
    triple = report["triple"]
    return (report["detection"]["kind"], triple["verified"],
            [triple[k] for k in sorted(triple) if k.startswith("commutes")],
            [c["members"] for c in report["multiplets"]["classes"]],
            [(r["cases"], r["primary_case"])
             for r in report["stability"]["records"]])


@pytest.mark.parametrize("name", list(DENSE_PAIRS))
def test_dense_m_decides_as_its_diagonalised_pair(name):
    # A dense M's scan and partition run in its eigenbasis W on diag(mu):
    # the pair (W^dag H W, diag(mu)), which takes the real diagonal path
    # from the start, makes every decision the same.
    h, m = DENSE_PAIRS[name]()
    assert m.real_diagonal is None
    m_spec = hermitian_eigh(m)
    w = m_spec.eigenvectors
    rotated = w.conj().T @ h.entries @ w
    diagonal = (make_operator(h.dim, (rotated + rotated.conj().T) / 2),
                make_operator(m.dim, np.diag(m_spec.eigenvalues)))
    assert diagonal[1].real_diagonal is not None
    report = cli.analyze_pair(h, m, Tolerance())
    assert report["stability"] is not None
    assert decisions(report) == decisions(
        cli.analyze_pair(*diagonal, Tolerance()))
