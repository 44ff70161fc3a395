import json
from pathlib import Path

import numpy as np
import pytest

from gensym import detection, load_operator, make_operator, save_operator
from gensym.cli import (
    EXIT_INPUT,
    EXIT_NOT_FOUND,
    EXIT_OK,
    analyze_pair,
    main,
    parse_complex,
)
from gensym.models import angular_block, hardcore_chain, jaynes_cummings
from gensym.operators import Tolerance, is_hermitian
from gensym.serialization import operator_from_dict, operator_to_dict

from conftest import SX, op, random_hermitian


class TestParseComplex:
    def test_real(self):
        assert parse_complex("0.5") == 0.5

    def test_i_suffix(self):
        assert parse_complex("0.3+1.2i") == 0.3 + 1.2j

    def test_j_suffix(self):
        assert parse_complex("-2j") == -2j

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_complex("one plus two i")


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        a = make_operator(6, random_hermitian(rng, 6), "probe")
        path = tmp_path / "a.json"
        save_operator(a, path)
        b = load_operator(path)
        np.testing.assert_array_equal(a.entries, b.entries)
        assert b.label == "probe"
        assert is_hermitian(b.entries)

    def test_repeated_save_identical_bytes(self, tmp_path, rng):
        a = make_operator(4, random_hermitian(rng, 4))
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        save_operator(a, p1)
        save_operator(a, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dict_round_trip(self):
        a = op(SX, "sx")
        doc = operator_to_dict(a)
        assert doc["dim"] == 2
        assert doc["entries"][0][1] == [1.0, 0.0]
        b = operator_from_dict(doc)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            operator_from_dict({"dim": 3,
                                "entries": [[[0.0, 0.0]] * 2] * 2})

    def test_rejects_bad_cells(self):
        for cell in ([1.0], [1.0, 2.0, 3.0], "x", [True, 0.0]):
            with pytest.raises(ValueError):
                operator_from_dict({"dim": 1, "entries": [[cell]]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            operator_from_dict({"dim": 1, "entries": [[[float("inf"), 0.0]]]})

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_operator(path)


class TestModelCommand:
    def test_angular_files(self, tmp_path):
        prefix = str(tmp_path / "ang_")
        code = main(["model", "angular", "--l", "1", "--en", "-0.5",
                     "--g", "0.1", "--out-prefix", prefix])
        assert code == EXIT_OK
        h = load_operator(prefix + "H.json")
        m = load_operator(prefix + "M.json")
        r = load_operator(prefix + "R.json")
        assert h.dim == m.dim == r.dim == 3
        meta = json.loads(Path(prefix + "meta.json").read_text(encoding="utf-8"))
        assert meta["model"] == "angular"
        assert meta["known_gamma"] == [1.0, 0.0]

    def test_jc_dimension(self, tmp_path):
        prefix = str(tmp_path / "jc_")
        code = main(["model", "jc", "--cutoff", "16",
                     "--out-prefix", prefix])
        assert code == EXIT_OK
        assert load_operator(prefix + "H.json").dim == 34

    def test_hardcore_dimension(self, tmp_path):
        prefix = str(tmp_path / "hc_")
        code = main(["model", "hardcore", "--sites", "6", "--z", "0.2+0.1i",
                     "--out-prefix", prefix])
        assert code == EXIT_OK
        assert load_operator(prefix + "H.json").dim == 64

    def test_projection_has_no_r_file(self, tmp_path):
        prefix = str(tmp_path / "pr_")
        code = main(["model", "projection", "--dim", "6", "--seed", "3",
                     "--out-prefix", prefix])
        assert code == EXIT_OK
        assert not (tmp_path / "pr_R.json").exists()

    def test_bad_model_parameter_exit_code(self, tmp_path):
        code = main(["model", "hardcore", "--sites", "40",
                     "--out-prefix", str(tmp_path / "x_")])
        assert code == EXIT_INPUT


class TestAnalyzeCommand:
    def analyze(self, tmp_path, model_argv, extra=()):
        prefix = str(tmp_path / "m_")
        assert main(model_argv + ["--out-prefix", prefix]) == EXIT_OK
        out = str(tmp_path / "report.json")
        code = main(["analyze", "--hamiltonian", prefix + "H.json",
                     "--symmetry", prefix + "M.json", "--out", out,
                     *extra])
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        return code, report

    def test_angular_full_report(self, tmp_path):
        code, report = self.analyze(
            tmp_path, ["model", "angular", "--l", "1", "--en", "-0.5",
                       "--g", "0.1"])
        assert code == EXIT_OK
        assert report["detection"]["kind"] == "case2"
        assert report["detection"]["gamma1"] == pytest.approx(1.0, abs=1e-8)
        assert report["triple"]["verified"]
        np.testing.assert_allclose(report["spectrum"], [-0.7, -0.5, -0.3],
                                   atol=1e-10)
        labels = [c["label"] for c in report["multiplets"]["classes"]]
        assert sorted(labels) == ["doublet", "singlet"]
        assert report["stability"]["counts"] == {"1": 1, "5": 2}
        assert report["inputs"]["hamiltonian"]["sha256"]

    def test_genuine_skips_downstream(self, tmp_path, rng):
        h = make_operator(4, random_hermitian(rng, 4))
        m = make_operator(4, np.eye(4))
        hp, mp = str(tmp_path / "h.json"), str(tmp_path / "m.json")
        save_operator(h, hp)
        save_operator(m, mp)
        out = str(tmp_path / "r.json")
        code = main(["analyze", "--hamiltonian", hp, "--symmetry", mp,
                     "--out", out])
        assert code == EXIT_OK
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert report["detection"]["kind"] == "genuine"
        assert report["triple"] is None
        assert report["stability"] is None
        assert "genuine" in report["skipped"]

    def test_require_flag_on_generic_pair(self, tmp_path, rng):
        h = make_operator(6, random_hermitian(rng, 6))
        m = make_operator(6, random_hermitian(rng, 6))
        hp, mp = str(tmp_path / "h.json"), str(tmp_path / "m.json")
        save_operator(h, hp)
        save_operator(m, mp)
        out = str(tmp_path / "r.json")
        assert main(["analyze", "--hamiltonian", hp, "--symmetry", mp,
                     "--out", out]) == EXIT_OK
        assert main(["analyze", "--hamiltonian", hp, "--symmetry", mp,
                     "--out", out, "--require"]) == EXIT_NOT_FOUND

    def test_missing_file_exit_code(self, tmp_path):
        code = main(["analyze", "--hamiltonian", str(tmp_path / "no.json"),
                     "--symmetry", str(tmp_path / "no.json")])
        assert code == EXIT_INPUT

    def test_dimension_mismatch_exit_code(self, tmp_path, rng):
        h = make_operator(4, random_hermitian(rng, 4))
        m = make_operator(3, random_hermitian(rng, 3))
        hp, mp = str(tmp_path / "h.json"), str(tmp_path / "m.json")
        save_operator(h, hp)
        save_operator(m, mp)
        assert main(["analyze", "--hamiltonian", hp,
                     "--symmetry", mp]) == EXIT_INPUT


class TestSweepCommand:
    def test_angular_g_sweep(self, tmp_path):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "angular", "--l", "1", "--en", "-0.5",
                     "--param", "g", "--from", "0.0", "--to", "0.25",
                     "--steps", "6", "--out", out])
        assert code == EXIT_OK
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "param,index,eigenvalue,multiplet_class"
        assert len(lines) == 1 + 6 * 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[1] == "0"

    def test_sweep_deterministic(self, tmp_path):
        argv = ["sweep", "angular", "--l", "2", "--param", "g",
                "--from", "0.05", "--to", "0.2", "--steps", "2"]
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(argv + ["--out", p1]) == EXIT_OK
        assert main(argv + ["--out", p2]) == EXIT_OK
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_rejects_unknown_param(self, tmp_path):
        code = main(["sweep", "angular", "--param", "seed",
                     "--from", "0", "--to", "1", "--steps", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INPUT

    def test_rejects_single_step(self, tmp_path):
        code = main(["sweep", "angular", "--param", "g",
                     "--from", "0", "--to", "1", "--steps", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INPUT


class TestCostModel:
    """analyze_pair forms each eigendecomposition and commutator once."""

    def analyze_counting(self, monkeypatch, h, m):
        """The report, full-size eigh calls and commutator-chain calls."""
        shapes, chains = [], []
        eigh, chain = np.linalg.eigh, detection._commutator_chain

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def counting_chain(*args):
            chains.append(args)
            return chain(*args)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(detection, "_commutator_chain", counting_chain)
        report = analyze_pair(h, m, Tolerance())
        return report, shapes.count((h.dim, h.dim)), len(chains)

    @pytest.mark.parametrize("bundle", [
        angular_block(2, -0.5, 0.1),
        hardcore_chain(4, 0.3 + 0.1j),  # degenerate H: refined per cluster
    ], ids=["angular_l2", "hardcore_4"])
    def test_case2_two_eigh_one_chain(self, monkeypatch, bundle):
        report, full_eigh, chains = self.analyze_counting(
            monkeypatch, bundle.h, bundle.m)
        assert report["detection"]["kind"] == "case2"
        assert report["stability"] is not None
        assert full_eigh == 2
        assert chains == 1

    def test_genuine_one_eigh(self, monkeypatch):
        jc = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
        report, full_eigh, chains = self.analyze_counting(
            monkeypatch, jc.h, jc.extras["m_exc"])
        assert report["detection"]["kind"] == "genuine"
        assert (full_eigh, chains) == (1, 1)

    def test_no_gensym_one_eigh(self, monkeypatch, rng):
        report, full_eigh, chains = self.analyze_counting(
            monkeypatch, op(random_hermitian(rng, 12)),
            op(random_hermitian(rng, 12)))
        assert report["detection"]["kind"] == "no_gensym"
        assert (full_eigh, chains) == (1, 1)
