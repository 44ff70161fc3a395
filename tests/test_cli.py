import itertools
import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gensym import (
    cli,
    detection,
    load_operator,
    make_operator,
    multiplets,
    operators,
    save_operator,
    stability,
)
from gensym.cli import (
    EXIT_INPUT,
    EXIT_NOT_FOUND,
    EXIT_NUMERICAL,
    EXIT_OK,
    analyze_pair,
    main,
    parse_complex,
)
from gensym.models import (
    angular_block,
    hardcore_chain,
    jaynes_cummings,
    projection_example,
    random_triple,
)
from gensym.operators import (NumericalError, Operator, Tolerance,
                              is_hermitian)
from gensym.serialization import (complex_pair, dump_json,
                                  operator_from_dict, operator_to_dict)
from gensym.stability import case_counts

from conftest import (SX, SY, force_dense, load_report, near_degenerate_pair,
                      op, random_hermitian, traced_peak)
from reference import assert_reports_agree


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
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_report_raises_and_writes_nothing(self, tmp_path,
                                                         value):
        # JSON holds no NaN or infinity: such a report is a numerical
        # failure, not a file with a token other readers reject.
        path = tmp_path / "report.json"
        with pytest.raises(NumericalError, match="report is not JSON"):
            dump_json({"stability": {"residual": [1.0, value]}}, str(path))
        assert not path.exists()
        assert dump_json({"residual": [1.0, 2.0]}) == \
            '{\n "residual": [\n  1.0,\n  2.0\n ]\n}'

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

    @pytest.mark.parametrize("kind", ["random", "real", "signed_zero",
                                      "subnormal", "jc_model"])
    def test_file_matches_per_element_encoding(self, tmp_path, rng, kind):
        entries = {
            "random": rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)),
            "real": rng.normal(size=(5, 5)).astype(complex),
            "signed_zero": np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                                     [complex(-0.0, -0.0), 1.0]]),
            "subnormal": np.array([[5e-324 + 2.2e-310j, -1e-315],
                                   [1e-320j, 1e300 - 3e-308j]]),
            "jc_model": jaynes_cummings(1.0, 1.0, 0.1, cutoff=7).h.entries,
        }[kind]
        a = make_operator(len(entries), entries, "probe")
        per_element = {"dim": a.dim, "label": a.label, "entries": [
            [[float(a.entries[i, j].real), float(a.entries[i, j].imag)]
             for j in range(a.dim)] for i in range(a.dim)]}
        path = tmp_path / "a.json"
        save_operator(a, path)
        assert path.read_text(encoding="utf-8") == \
            json.dumps(per_element, indent=1) + "\n"

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

    @pytest.mark.parametrize("doc", [
        [[[0.0, 0.0]]], {"entries": [[[0.0, 0.0]]]},
        {"dim": 0, "entries": []}, {"dim": 1.0, "entries": [[[0.0, 0.0]]]},
        {"dim": True, "entries": [[[0.0, 0.0]]]},
    ], ids=["list", "no_dim", "dim_0", "float_dim", "bool_dim"])
    def test_rejects_document_or_dim_of_wrong_kind(self, doc):
        with pytest.raises(ValueError, match="malformed operator document"):
            operator_from_dict(doc)

    def test_rejects_bad_cells(self):
        for cell in ([1.0], [1.0, 2.0, 3.0], "x", [True, 0.0]):
            with pytest.raises(ValueError):
                operator_from_dict({"dim": 1, "entries": [[cell]]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            operator_from_dict({"dim": 1, "entries": [[[float("inf"), 0.0]]]})

    @staticmethod
    def document(**replace):
        """A dim-3 document with row 1 or cell [1][2] replaced."""
        rows = [[[float(i), 0.5 * j] for j in range(3)] for i in range(3)]
        if "row" in replace:
            rows[1] = replace["row"]
        if "cell" in replace:
            rows[1][2] = replace["cell"]
        return {"dim": 3, "label": "probe", "entries": rows}

    @pytest.mark.parametrize("cell", [
        [True, 0.0], [0.0, False], [1.0], [1.0, 2.0, 3.0], [], "x", "12",
        1.5, None, {"re": 1.0, "im": 0.0}, (1.0, 0.0), ["1.0", 0.0],
        [None, 0.0], [1.0, [0.0]],
    ], ids=["bool_re", "bool_im", "short", "long", "empty", "string",
            "two_char_string", "number", "null", "dict", "tuple",
            "numeric_string", "null_part", "nested"])
    def test_rejects_cell_that_is_not_a_number_pair(self, cell):
        with pytest.raises(ValueError, match=r"entry \[1\]\[2\] is not"):
            operator_from_dict(self.document(cell=cell))

    @pytest.mark.parametrize("row", [
        [[0.0, 0.0]] * 2, [[0.0, 0.0]] * 4, "abc", None,
        ([0.0, 0.0],) * 3,
    ], ids=["short", "long", "string", "null", "tuple"])
    def test_rejects_row_of_wrong_length_or_type(self, row):
        with pytest.raises(ValueError, match="row 1 is not length 3"):
            operator_from_dict(self.document(row=row))

    @pytest.mark.parametrize("cell", [
        [float("inf"), 0.0], [0.0, float("-inf")], [float("nan"), 0.0],
        [0.0, float("nan")],
    ], ids=["inf_re", "minus_inf_im", "nan_re", "nan_im"])
    def test_rejects_non_finite_cell(self, cell):
        with pytest.raises(ValueError, match=r"non-finite entry \[1\]\[2\]"):
            operator_from_dict(self.document(cell=cell))

    def test_rejects_int_beyond_float_range(self):
        with pytest.raises(ValueError, match="malformed operator document"):
            operator_from_dict(self.document(cell=[10 ** 400, 0]))

    def test_reads_ints_and_floats(self):
        doc = self.document(cell=[2, -3])
        a = operator_from_dict(doc)
        assert a.label == "probe"
        assert a.entries[1, 2] == 2 - 3j
        assert a.entries[2, 1] == 2.0 + 0.5j

    @pytest.mark.parametrize("imag, dtype", [
        (0.0, np.float64), (0, np.float64), (-0.0, np.complex128),
        (1e-300, np.complex128),
    ], ids=["zero", "int_zero", "negative_zero", "tiny"])
    def test_loaded_dtype_follows_the_storage_rule(self, imag, dtype):
        doc = {"dim": 2, "entries": [[[1.0, 0.0], [2.0, 0.0]],
                                     [[2.0, imag], [3.0, 0.0]]]}
        a = operator_from_dict(doc)
        assert a.entries.dtype == dtype
        assert np.signbit(a.entries.imag[1, 0]) == np.signbit(imag)

    def test_real_storage_writes_the_complex_file(self, tmp_path):
        # The file of a float64 operator is the file the same matrix stored
        # as complex128 with +0.0 imaginary parts would give.
        a = jaynes_cummings(1.0, 1.0, 0.1, cutoff=7).h
        assert a.entries.dtype == np.float64
        as_complex = Operator(a.dim, a.entries.astype(complex), a.label)
        save_operator(a, tmp_path / "real.json")
        save_operator(as_complex, tmp_path / "complex.json")
        assert (tmp_path / "real.json").read_bytes() == \
            (tmp_path / "complex.json").read_bytes()

    @pytest.mark.parametrize("name, dtypes", [
        ("jc", {"H": np.float64, "M": np.float64, "R": np.float64}),
        # R = -g L_- has -0.0 real parts, which the float64 copy keeps.
        ("angular", {"H": np.float64, "M": np.float64, "R": np.float64}),
        ("hardcore", {"H": np.complex128, "M": np.float64,
                      "R": np.complex128}),
    ])
    def test_model_files_load_by_the_storage_rule(self, tmp_path, name,
                                                  dtypes):
        prefix = str(tmp_path / "m_")
        args = {"jc": ["--cutoff", "7"], "angular": ["--l", "2"],
                "hardcore": ["--sites", "3", "--z", "0.3+0.1i"]}[name]
        assert main(["model", name, *args, "--out-prefix", prefix]) == EXIT_OK
        for part, dtype in dtypes.items():
            path = Path(prefix + f"{part}.json")
            a = load_operator(path)
            assert a.entries.dtype == dtype
            save_operator(a, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

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

    def test_involution_files(self, tmp_path):
        prefix = str(tmp_path / "inv_")
        code = main(["model", "involution", "--dim", "6", "--seed", "2",
                     "--out-prefix", prefix])
        assert code == EXIT_OK
        m = load_operator(prefix + "M.json").entries
        np.testing.assert_allclose(m @ m, np.eye(6), atol=1e-12)
        assert not (tmp_path / "inv_R.json").exists()

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
        return code, load_report(out)

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
        report = load_report(out)
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

    def test_shifted_m_report_is_strict_json(self, tmp_path):
        # exp(-z(M + 1e3 I)) overflowed, and NaN partner residuals were
        # written as the non-JSON token NaN.
        bundle = jaynes_cummings(1.0, 1.0, 0.1, cutoff=16)
        m = make_operator(bundle.m.dim,
                          bundle.m.entries + 1e3 * np.eye(bundle.m.dim))
        hp, mp = str(tmp_path / "h.json"), str(tmp_path / "m.json")
        save_operator(bundle.h, hp)
        save_operator(m, mp)
        out = str(tmp_path / "r.json")
        assert main(["analyze", "--hamiltonian", hp, "--symmetry", mp,
                     "--out", out]) == EXIT_OK
        report = load_report(out)
        assert report["tolerances"] == {"rtol": Tolerance().rtol}
        assert report["stability"]["counts"] == {"1": 2, "5": 32}

    def test_report_without_out_goes_to_stdout(self, tmp_path, capsys):
        prefix = str(tmp_path / "m_")
        assert main(["model", "angular", "--l", "1",
                     "--out-prefix", prefix]) == EXIT_OK
        assert main(["analyze", "--hamiltonian", prefix + "H.json",
                     "--symmetry", prefix + "M.json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["detection"]["kind"] == "case2"
        assert report["stability"]["counts"] == {"1": 1, "5": 2}

    @pytest.mark.parametrize("scale", [1e200, 1e250])
    def test_report_past_the_float_range_exits_2(self, tmp_path, capsys,
                                                 scale):
        # Every stage grades the pair in power-of-two units and verifies
        # it, but the residual of [R, M] = gamma R, reported in the
        # input's units, is past the float range: the report would hold
        # inf, which JSON cannot, so nothing is written.  (On
        # angular_block(2, -0.125, 0.1), whose gamma the fit reads
        # exactly, that residual is 0.)
        bundle = hardcore_chain(4, 0.3 + 0.1j)
        hp, mp = str(tmp_path / "h.json"), str(tmp_path / "m.json")
        for a, path in ((bundle.h, hp), (bundle.m, mp)):
            save_operator(make_operator(a.dim, scale * a.entries), path)
        out = tmp_path / "r.json"
        assert main(["analyze", "--hamiltonian", hp, "--symmetry", mp,
                     "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("gensym: numerical failure: ")
        assert err.count("\n") == 1

    def test_fit_below_the_squared_range_exits_0_at_tol_0(self, tmp_path):
        # ||C1|| about 1e-170 passes no genuine gate at --tol 0, and its
        # square underflows: the fit runs on a power-of-two rescale, so the
        # report holds a finite residual and is strict JSON.  The fit
        # weighs H's entries by Delta = +-2 with no rounding: exactly case
        # 2, which --tol 0 accepts.
        hp, mp = str(tmp_path / "h.json"), str(tmp_path / "m.json")
        save_operator(make_operator(2, [[1.0, 1e-170], [1e-170, -1.0]]), hp)
        save_operator(make_operator(2, [[1.0, 0.0], [0.0, -1.0]]), mp)
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--hamiltonian", hp, "--symmetry", mp,
                         "--tol", "0", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"),
                            parse_constant=lambda token: pytest.fail(token))
        assert report["detection"]["kind"] == "case2"
        assert report["detection"]["residual"] == 0.0

    def test_near_degenerate_case2_pair_exits_0(self, tmp_path):
        # Three eigenvalues of H, s apart, form one cluster that spreads
        # over 2s > rtol ||H||.  The canonical basis rotates it, so its
        # columns are eigenvectors only to within that spread; 0.9.0
        # checked them a second time, against rtol ||H||, and exited 3.
        hp, mp = str(tmp_path / "h.json"), str(tmp_path / "m.json")
        for a, path in zip(near_degenerate_pair(), (hp, mp)):
            save_operator(make_operator(8, a), path)
        out = str(tmp_path / "r.json")
        assert main(["analyze", "--hamiltonian", hp, "--symmetry", mp,
                     "--out", out]) == EXIT_OK
        report = load_report(out)
        assert report["detection"]["kind"] == "case2"
        assert report["triple"]["verified"] is True
        assert report["stability"] is not None

    def test_nan_partner_residual_exits_2(self, tmp_path, monkeypatch):
        # The partner gate is a numerical check, not an input error.
        prefix = str(tmp_path / "m_")
        assert main(["model", "jc", "--cutoff", "4",
                     "--out-prefix", prefix]) == EXIT_OK
        # A NaN gamma makes every exponent z, and so every partner
        # exp(-zM) psi, NaN; numpy warns when it divides by NaN.
        ladder = stability._ladder
        monkeypatch.setattr(stability, "_ladder",
                            lambda h_spec, r, gamma, m_spec:
                            ladder(h_spec, r, np.nan, m_spec))
        out = tmp_path / "r.json"
        with np.errstate(invalid="ignore"):
            assert main(["analyze", "--hamiltonian", prefix + "H.json",
                         "--symmetry", prefix + "M.json",
                         "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8"])
    def test_tolerance_that_is_not_finite_and_non_negative(self, tmp_path,
                                                           tol):
        # NaN would fail every gate and inf pass every one; neither is a
        # number the JSON report could hold.
        prefix = str(tmp_path / "m_")
        assert main(["model", "angular", "--l", "2",
                     "--out-prefix", prefix]) == EXIT_OK
        out = tmp_path / "report.json"
        assert main(["analyze", "--hamiltonian", prefix + "H.json",
                     "--symmetry", prefix + "M.json", f"--tol={tol}",
                     "--require", "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()

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

    @pytest.mark.parametrize("name, param", [
        ("hardcore", "eps"), ("fermion", "hbar"), ("jc", "eps"),
        ("angular", "kappa"), ("projection", "g"), ("involution", "hbar")])
    def test_rejects_a_param_the_model_does_not_read(self, tmp_path, capsys,
                                                     name, param):
        out = tmp_path / "x.csv"
        code = main(["sweep", name, "--sites", "2", "--dim", "4",
                     "--param", param, "--from", "0", "--to", "1",
                     "--steps", "2", "--out", str(out)])
        assert code == EXIT_INPUT
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"does not read {param!r}" in err

    @pytest.mark.parametrize("name", sorted(cli.SWEEPABLE))
    def test_every_sweepable_param_moves_the_model(self, name):
        def build(**moved):
            args = cli.make_parser().parse_args(
                ["sweep", name, "--l", "2", "--cutoff", "3", "--sites", "3",
                 "--param", "-", "--from", "0", "--to", "1", "--steps", "2",
                 "--out", "-"])
            for param, step in moved.items():
                setattr(args, param, getattr(args, param) + step)
            return cli.build_model(args)

        base = build()
        for param in cli.SWEEPABLE[name]:
            bundle = build(**{param: 0.5})
            assert (bundle.h.entries.tobytes() != base.h.entries.tobytes()
                    or bundle.m.entries.tobytes()
                    != base.m.entries.tobytes()), param

    def test_rejects_single_step(self, tmp_path):
        code = main(["sweep", "angular", "--param", "g",
                     "--from", "0", "--to", "1", "--steps", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INPUT

    @staticmethod
    def reference_sweep(argv):
        """The sweep's CSV as a loop that holds nothing: each step builds its
        model, runs detection and the whole multiplet stage, eigh(M)
        included, and formats each row from its own eigenvalue.  It has no
        gamma guard."""
        args = cli.make_parser().parse_args(["sweep", *argv, "--out", "-"])
        tol = Tolerance()
        lines = ["param,index,eigenvalue,multiplet_class"]
        for value in np.linspace(args.start, args.stop, args.steps):
            setattr(args, args.param, float(value))
            bundle = cli.build_model(args)
            detection.detect(bundle.h, bundle.m, tol)
            h_spec = multiplets.canonical_eigenbasis(bundle.h, bundle.m, tol)
            m_spec = operators.hermitian_eigh(bundle.m, tol)
            part = multiplets.partition(h_spec, m_spec, tol)
            class_of = {i: c for c, members in enumerate(part.classes)
                        for i in members}
            for i in range(h_spec.dim):
                lines.append(f"{float(value)!r},{i},"
                             f"{float(h_spec.eigenvalues[i])!r},{class_of[i]}")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("argv", [
        ["jc", "--cutoff", "9", "--param", "kappa", "--from", "-0.3",
         "--to", "0.5", "--steps", "5"],
        ["jc", "--cutoff", "7", "--param", "omega", "--from", "0.5",
         "--to", "1.5", "--steps", "4"],
        ["jc", "--cutoff", "7", "--param", "omega0", "--from", "-1",
         "--to", "1.5", "--steps", "4"],
        ["jc", "--cutoff", "7", "--param", "hbar", "--from", "0.5",
         "--to", "2", "--steps", "4"],
        ["angular", "--l", "3", "--param", "g", "--from", "0",
         "--to", "0.25", "--steps", "4"],
        ["angular", "--l", "3", "--param", "en", "--from", "-1",
         "--to", "1", "--steps", "3"],
        # gamma = hbar moves with M = hbar L_z: the gamma guard lets it run.
        ["angular", "--l", "2", "--param", "hbar", "--from", "0.5",
         "--to", "1.5", "--steps", "3"],
        ["fermion", "--sites", "4", "--sources", "0.2+0.1i,-0.05i,0.1,0.3-0.2i",
         "--param", "eps", "--from", "-0.5", "--to", "1.5", "--steps", "4"],
    ], ids=["jc_kappa", "jc_omega", "jc_omega0", "jc_hbar", "angular_g",
            "angular_en", "angular_hbar", "fermion_eps"])
    def test_matches_the_per_step_reference(self, tmp_path, argv):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_OK
        assert out.read_text(encoding="utf-8") == self.reference_sweep(argv)

    @pytest.mark.parametrize("hbar, drift, code", [
        pytest.param(1.0, 1e-6, EXIT_NUMERICAL, id="1e-06-2"),
        pytest.param(1.0, 1e-10, EXIT_OK, id="1e-10-0"),
        # gamma = 1e9 moves by rounding alone more than 1e-8, but not by
        # more than rtol * gamma.
        pytest.param(1e9, 0.0, EXIT_OK, id="hbar_1e9"),
    ])
    def test_gamma_drift_at_fixed_m(self, monkeypatch, tmp_path, hbar, drift,
                                    code):
        # M = hbar L_z is held across a g sweep; gamma may not move under it.
        detect_, step = cli._detect, itertools.count(1)

        def drifting_detect(h, m, tol, m_spec):
            result, held = detect_(h, m, tol, m_spec)
            return (replace(result, gamma1=result.gamma1 + drift * next(step)),
                    held)

        monkeypatch.setattr(cli, "_detect", drifting_detect)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "angular", "--l", "2", "--hbar", str(hbar),
                     "--param", "g", "--from", "0.05", "--to", "0.2",
                     "--steps", "3", "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)


class NoGemm(np.ndarray):
    """An array that refuses to enter a matrix product; every other ufunc
    runs on its plain view and returns plain arrays."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            raise AssertionError("a gemm with M or its eigenbasis")
        plain = tuple(np.asarray(x) if isinstance(x, NoGemm) else x
                      for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*plain, **kwargs)


def rotated(bundle, seed=5, unitary=False):
    """(Q H Q^dag, Q M Q^dag) for a random orthogonal Q (a dense real M),
    or for a random unitary Q with ``unitary`` (a dense complex M)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(bundle.h.dim, bundle.h.dim))
    if unitary:
        a = a + 1j * rng.normal(size=a.shape)
    q, _ = np.linalg.qr(a)
    return tuple(make_operator(x.dim, q @ x.entries @ q.conj().T, x.label)
                 for x in (bundle.h, bundle.m))


# Traced peak of one whole case-2 analyze_pair, in complex n^2 (16 n^2
# bytes); README's Cost model quotes these bounds.  hardcore_8_unitary
# and projection_256 have a dense complex M, which 0.16.0 held to 5.56.
CASE2_OP_PEAKS = {"hardcore_8": 3.25, "hardcore_7": 3.8, "jc_127": 1.7,
                  "hardcore_8_unitary": 4.25, "projection_256": 4.3}


class TestCostModel:
    """analyze_pair forms each eigendecomposition and commutator once, and
    H's eigenvectors only when the verdict goes on to use them.  A real
    diagonal M is solved by a sort, not a full eigh, and enters no gemm."""

    @staticmethod
    def recording(monkeypatch, dim):
        """Patch the solvers, the genuine gate's commutator C1, the
        partition's cluster coordinates and the pipeline's grading of
        (H0, R) to record their operand dtypes (full-size eigh/eigvalsh
        only), and record the dim of every operator that detection or the
        multiplet stage solves by a sort; returns the record.  "chain"
        holds one entry per C1: detection forms no other commutator."""
        calls = {"eigh": [], "eigvalsh": [], "svd": [], "chain": [],
                 "coords": [], "triple": [], "sorted": []}
        times_m = detection._times_m
        cluster_norms = multiplets._cluster_norms
        grade = cli._grade_triple
        solve = operators.hermitian_eigh

        def recording(name):
            solver = getattr(np.linalg, name)

            def recorded(a, *args, **kwargs):
                if name == "svd" or np.shape(a) == (dim, dim):
                    calls[name].append(np.asarray(a).dtype)
                return solver(a, *args, **kwargs)
            return recorded

        def recording_commutator(a, m):
            calls["chain"].append((a.dtype, m.entries.dtype))
            return times_m(a, m)

        def recording_coordinates(vectors, m_spec):
            # The dtype of the M-coordinates: rows of the vectors that the
            # partition reads in M's eigenbasis.
            calls["coords"].append(np.asarray(vectors).dtype)
            return cluster_norms(vectors, m_spec)

        def recording_grade(h, m, m_spec, h0, r, *args):
            calls["triple"].append(tuple(
                np.result_type(*(data for _, _, data in x.groups))
                for x in (h0, r)))
            return grade(h, m, m_spec, h0, r, *args)

        def recording_solve(a, tol):
            if a.real_diagonal is not None:
                calls["sorted"].append(a.dim)
            return solve(a, tol)

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, recording(name))
        monkeypatch.setattr(detection, "_times_m", recording_commutator)
        monkeypatch.setattr(multiplets, "_cluster_norms",
                            recording_coordinates)
        monkeypatch.setattr(cli, "_grade_triple", recording_grade)
        for module in (cli, detection, multiplets):
            monkeypatch.setattr(module, "hermitian_eigh", recording_solve)
        return calls

    def analyze_recording(self, monkeypatch, h, m):
        """The report, and the operand dtypes of every eigh, eigvalsh and
        svd call (full-size eigh/eigvalsh only), of every C1 and of the
        partition's cluster coordinates, and of the (H0, R) arrays the
        pipeline grades."""
        calls = self.recording(monkeypatch, h.dim)
        return analyze_pair(h, m, Tolerance()), calls

    def analyze_counting(self, monkeypatch, h, m):
        """The report and the full-size eigh, eigvalsh and C1 calls."""
        report, calls = self.analyze_recording(monkeypatch, h, m)
        return (report, len(calls["eigh"]), len(calls["eigvalsh"]),
                len(calls["chain"]))

    @pytest.mark.parametrize("bundle", [
        angular_block(2, -0.5, 0.1),
        hardcore_chain(4, 0.3 + 0.1j),  # degenerate H: refined per cluster
        random_triple([4, 3, 5], 0.7, seed=2),
    ], ids=["angular_l2", "hardcore_4", "random_triple"])
    def test_case2_two_eigh_one_chain(self, monkeypatch, bundle):
        # Conjugated by a random orthogonal matrix, M is dense: eigh(H)
        # and eigh(M) are both full eigh calls.
        report, full_eigh, full_eigvalsh, chains = self.analyze_counting(
            monkeypatch, *rotated(bundle))
        assert report["detection"]["kind"] == "case2"
        assert report["stability"] is not None
        assert (full_eigh, full_eigvalsh, chains) == (2, 0, 1)

    @pytest.mark.parametrize("bundle", [
        angular_block(2, -0.5, 0.1),
        jaynes_cummings(1.0, 1.0, 0.1, cutoff=7),
        hardcore_chain(4, 0.3 + 0.1j),
        random_triple([4, 3, 5], 0.7, seed=2),
    ], ids=["angular_l2", "jc_7", "hardcore_4", "random_triple"])
    def test_case2_diagonal_m_one_eigh_no_gemm_with_m(self, monkeypatch,
                                                      bundle):
        # M and its eigenbasis W refuse every matrix product, also in the
        # canonical basis, whose refinement scales columns by M's diagonal.
        m = Operator(bundle.m.dim, bundle.m.entries.view(NoGemm),
                     bundle.m.label)
        report, calls = self.analyze_recording(monkeypatch, bundle.h, m)
        assert report["detection"]["kind"] == "case2"
        assert report["stability"] is not None
        assert (len(calls["eigh"]), len(calls["eigvalsh"]),
                len(calls["chain"]), calls["sorted"]) == (1, 0, 1, [m.dim])
        assert report == analyze_pair(bundle.h, bundle.m, Tolerance())

    def test_case2_diagonal_m_eigenbasis_enters_no_gemm(self, monkeypatch):
        # The sorted eigenbasis W of M, as the multiplet stage hands it on,
        # refuses every matrix product in partition and the stability scan.
        bundle = jaynes_cummings(1.0, 1.0, 0.1, cutoff=7)
        solve = cli.hermitian_eigh

        def no_gemm_basis(a, tol):
            spec = solve(a, tol)
            if a is not bundle.m:
                return spec
            return replace(spec, eigenvectors=spec.eigenvectors.view(NoGemm))

        monkeypatch.setattr(cli, "hermitian_eigh", no_gemm_basis)
        report = analyze_pair(bundle.h, bundle.m, Tolerance())
        assert report["stability"]["counts"] == {"1": 2, "5": 14}

    @pytest.mark.parametrize("bundle", [
        angular_block(2, -0.5, 0.1),
        jaynes_cummings(1.0, 1.0, 0.1, cutoff=7),
    ], ids=["angular_l2", "jc_7"])
    def test_real_pair_runs_in_float64(self, monkeypatch, bundle):
        report, calls = self.analyze_recording(monkeypatch, bundle.h, bundle.m)
        assert report["detection"]["kind"] == "case2"
        assert report["stability"] is not None
        f64 = np.dtype(np.float64)
        assert calls["chain"] == [(f64, f64)]
        assert calls["triple"] == [(f64, f64)]
        # eigh(H); the diagonal M is sorted.
        assert calls["eigh"] == [f64]
        assert calls["coords"] == [f64]
        # Every stacked rank-test SVD of the stability scan.
        assert calls["svd"] and set(calls["svd"]) == {f64}

    def test_complex_pair_stays_complex(self, monkeypatch):
        bundle = hardcore_chain(4, 0.3 + 0.1j)
        report, calls = self.analyze_recording(monkeypatch, bundle.h, bundle.m)
        assert report["detection"]["kind"] == "case2"
        c128, f64 = np.dtype(np.complex128), np.dtype(np.float64)
        # H is complex; the number operator M is real on its own, so it is
        # solved by a sort, in float64.
        assert calls["chain"] == [(c128, f64)]
        assert calls["triple"] == [(c128, c128)]
        assert calls["eigh"] == [c128]
        assert calls["coords"] == [c128]
        assert calls["svd"] and set(calls["svd"]) == {c128}
        # A dense real M keeps its own full eigh in float64, solved first:
        # the triple is read in M's eigenbasis.
        h, m = rotated(bundle)
        _, calls = self.analyze_recording(monkeypatch, h, m)
        assert calls["eigh"] == [f64, c128]

    def test_unverified_triple_values_only(self, monkeypatch):
        # A triple that does not verify: no eigh(H), partition or scan.
        bundle = angular_block(2, -0.125, 0.1)
        grade = cli._grade_triple
        monkeypatch.setattr(cli, "_grade_triple", lambda *args: replace(
            grade(*args), sum_ok=False))
        report, calls = self.analyze_recording(monkeypatch, bundle.h,
                                               bundle.m)
        assert report["detection"]["kind"] == "case2"
        assert report["triple"]["verified"] is False
        assert report["multiplets"] is None and report["stability"] is None
        assert report["skipped"] == "triple not verified"
        assert (len(calls["eigh"]), len(calls["eigvalsh"]),
                len(calls["svd"])) == (0, 1, 0)

    def test_residual_past_the_float_range_stops_before_eigh(self,
                                                             monkeypatch):
        # At (H, M) * 1e200 the triple verifies in power-of-two units, but
        # its [R, M] - gamma R residual in the input's units is inf:
        # analyze_pair stops there, before eigh(H), the partition and the
        # scan, whose report could not be written.  The diagonal M, the
        # fermion number, is sorted for the fit, and the grade's commutes_*
        # flags read R's ladder blocks on its clusters: a sort, no eigh.
        bundle = hardcore_chain(4, 0.3 + 0.1j)
        h, m = (make_operator(a.dim, 1e200 * a.entries)
                for a in (bundle.h, bundle.m))
        calls = self.recording(monkeypatch, h.dim)
        with pytest.raises(NumericalError, match="past the float range"):
            analyze_pair(h, m, Tolerance())
        assert len(calls["chain"]) == 1
        assert calls["eigh"] == calls["eigvalsh"] == []
        assert calls["sorted"] == [h.dim]

    def test_each_operand_norm_is_taken_once(self, monkeypatch):
        # The gate, detection, reconstruction, verify_triple and both
        # eigensolvers read Operator.norm: one fro of H and one of M for a
        # whole case-2 analysis.
        h, m = rotated(hardcore_chain(4, 0.3 + 0.1j))
        taken = []
        for module in (operators, detection, stability):
            fro = module.fro

            def counting_fro(a, fro=fro):
                taken.extend(name for name, x in (("H", h), ("M", m))
                             if a is x.entries)
                return fro(a)
            monkeypatch.setattr(module, "fro", counting_fro)
        report = analyze_pair(h, m, Tolerance())
        assert report["stability"] is not None
        assert sorted(taken) == ["H", "M"]

    def test_genuine_values_only(self, monkeypatch):
        jc = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
        report, full_eigh, full_eigvalsh, chains = self.analyze_counting(
            monkeypatch, jc.h, jc.extras["m_exc"])
        assert report["detection"]["kind"] == "genuine"
        assert (full_eigh, full_eigvalsh, chains) == (0, 1, 1)

    def test_no_gensym_values_only(self, monkeypatch, rng):
        # A real diagonal M is not screened: C1, a sort of M for the fit,
        # and the values of H.
        report, full_eigh, full_eigvalsh, chains = self.analyze_counting(
            monkeypatch, op(random_hermitian(rng, 12)),
            make_operator(12, np.diag(rng.normal(size=12))))
        assert report["detection"]["kind"] == "no_gensym"
        assert report["detection"]["screened"] is False
        assert (full_eigh, full_eigvalsh, chains) == (0, 1, 1)

    def test_screened_no_gensym_forms_no_commutator(self, monkeypatch, rng):
        # At any dim, the probe screen rejects a dense random pair from
        # thin products alone.
        dim = 12
        report, full_eigh, full_eigvalsh, chains = self.analyze_counting(
            monkeypatch, op(random_hermitian(rng, dim)),
            op(random_hermitian(rng, dim)))
        assert report["detection"]["kind"] == "no_gensym"
        assert report["detection"]["screened"] is True
        assert (full_eigh, full_eigvalsh, chains) == (0, 1, 0)

    def test_screened_pair_holds_one_band(self):
        # End to end from ungated operands: the gate's tiles, the probe
        # screen's TILE-row band and probe blocks, and the values-only
        # spectrum, with H and M read in place throughout.
        dim = 512
        rng = np.random.default_rng(dim)
        h, m = (op(random_hermitian(rng, dim)) for _ in range(2))
        report = {}

        def analyze():
            report.update(analyze_pair(h, m, Tolerance()))

        peak = traced_peak(analyze)
        assert report["detection"]["screened"] is True
        assert peak <= 16 * (detection.TILE * dim
                             + 16 * dim * detection.PROBES)

    @pytest.mark.parametrize("name, build", [
        ("hardcore_8", lambda: hardcore_chain(8, 0.3 + 0.1j)),
        ("hardcore_7", lambda: hardcore_chain(7, 0.3 + 0.1j)),
        ("jc_127", lambda: jaynes_cummings(1.0, 1.0, 0.1, 127)),
        ("hardcore_8_unitary",
         lambda: rotated(hardcore_chain(8, 0.3 + 0.1j), unitary=True)),
        ("projection_256", lambda: projection_example(256, 3)),
    ])
    def test_case2_op_peak(self, name, build):
        # A whole case-2 analysis, operands gated beforehand.  H0 and R are
        # gathered over 2^a as H's blocks in M's eigenbasis, H read in
        # place for a real diagonal M, and H0 is released once graded;
        # the grade, the scan and the partition read blocks, TILE-row
        # bands and M-coordinates gathered cluster by cluster, and M's
        # permutation matrix is never formed: 3.20 complex n^2 on
        # hardcore_8 (dim 256, complex H), 3.74 on hardcore_7 (dim 128,
        # where a TILE-row band is the whole matrix) and 1.64 on jc_127
        # (dim 256, real), where 0.16.0 read 3.82, 4.73 and 1.95.  For a
        # dense M, W^dag H W is formed once, in one n^2 buffer released
        # once its blocks are gathered, and the scan and the partition
        # read C = W^dag V: 4.20 on hardcore_8 under a random unitary and
        # 4.27 on projection_256, where 0.16.0 read 5.56 on both.
        pair = build()  # a model, or an (H, M) pair
        h, m = pair if isinstance(pair, tuple) else (pair.h, pair.m)
        assert h.hermitian and m.hermitian
        report = {}

        def analyze():
            report.update(analyze_pair(h, m, Tolerance()))

        peak = traced_peak(analyze)
        assert report["stability"] is not None
        assert peak <= 16 * CASE2_OP_PEAKS[name] * h.dim ** 2

    @pytest.mark.parametrize("bundle", [hardcore_chain(8, 0.3 + 0.1j),
                                        random_triple([4, 3, 5], 0.7, seed=2)],
                             ids=["hardcore_8", "random_triple"])
    def test_dense_real_m_basis_keeps_the_report(self, monkeypatch, bundle):
        # A real dense W of M times complex vectors runs as one real gemm;
        # against numpy's mixed product, which casts W to complex, the
        # verdict, classes and cases are the same and every float agrees
        # to 1e-12 of the largest.
        h, m = rotated(bundle)
        assert m.entries.dtype == np.float64 and m.real_diagonal is None
        report = analyze_pair(h, m, Tolerance())
        monkeypatch.setattr(operators, "_times_block", lambda a, v: a @ v)
        expected = analyze_pair(h, m, Tolerance())
        assert report["stability"] is not None

        def floats(doc):
            if isinstance(doc, dict):
                return [x for k in sorted(doc) for x in floats(doc[k])]
            if isinstance(doc, list):
                return [x for item in doc for x in floats(item)]
            return [doc] if isinstance(doc, float) else []

        def structure(doc):
            if isinstance(doc, dict):
                return {k: structure(v) for k, v in doc.items()}
            if isinstance(doc, list):
                return [structure(item) for item in doc]
            return None if isinstance(doc, float) else doc

        assert structure(report) == structure(expected)
        values, reference = floats(report), floats(expected)
        np.testing.assert_allclose(values, reference, rtol=0, atol=1e-12
                                   * np.max(np.abs(reference)))

    def test_dense_case2_forms_one_commutator_and_one_eigh_of_m(
            self, monkeypatch):
        # The screen passes the pair on.  Of the n x n by n x n products
        # that read H, M or eigh(M)'s W in place, the op forms three: C1's
        # H M and the eigenpair residuals M W and H V.  The fit reads
        # H~ = W^dag H W, rotated in n x TILE bands, and the split reuses
        # it; 0.18.0 also formed C2 and C3 (five).  eigh(M) runs once, as
        # eigh(H) does.
        bundle = projection_example(160, seed=3)
        gemms = []

        class Counting(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                shapes = [np.shape(x) for x in inputs]
                if ufunc is np.matmul and shapes == [(160, 160)] * 2:
                    gemms.append(shapes)
                plain = tuple(np.asarray(x) for x in inputs)
                if "out" in kwargs:
                    kwargs["out"] = tuple(np.asarray(x)
                                          for x in kwargs["out"])
                return getattr(ufunc, method)(*plain, **kwargs)

        h, m = (Operator(x.dim, x.entries.view(Counting), x.label)
                for x in (bundle.h, bundle.m))
        report, full_eigh, full_eigvalsh, chains = self.analyze_counting(
            monkeypatch, h, m)
        assert report["detection"]["kind"] == "case2"
        assert report["detection"]["screened"] is False
        assert (full_eigh, full_eigvalsh, chains) == (2, 0, 1)
        assert len(gemms) == 3
        assert report == analyze_pair(bundle.h, bundle.m, Tolerance())

    def sweep_counting(self, monkeypatch, tmp_path, argv, dense=False):
        """The full-size (dim 3) eigh, eigvalsh and C1 calls of a sweep
        that must stop after the partition, and its sorted solves of M;
        ``dense`` routes M through the dense path."""
        calls = self.recording(monkeypatch, 3)
        if dense:
            force_dense(monkeypatch)

        def unreachable(*args, **kwargs):
            raise AssertionError("a sweep step stops after the partition")

        for module, name in [(cli, "_split"),
                             (cli, "_grade_triple"),
                             (cli, "_scan_stability"),
                             (detection, "_split"),
                             (detection, "verify_triple"),
                             (detection, "_grade_triple"),
                             (stability, "scan_spectrum_stability"),
                             (stability, "_scan_stability")]:
            monkeypatch.setattr(module, name, unreachable)
        assert main(["sweep", "angular", "--l", "1", *argv,
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert calls["triple"] == []
        return (len(calls["eigh"]), len(calls["eigvalsh"]),
                len(calls["chain"]), len(calls["sorted"]))

    G_SWEEP = ["--param", "g", "--from", "0.05", "--to", "0.2", "--steps"]
    HBAR_SWEEP = ["--param", "hbar", "--from", "0.5", "--to", "1.5",
                  "--steps"]

    def test_sweep_step_two_eigh_one_chain(self, monkeypatch, tmp_path):
        # On the dense path, M = L_z does not move with g: eigh(M) runs
        # once, then one eigh(H) per step.  From g = 0.05 no step has a full-size
        # degenerate H-cluster, whose refinement would be one more
        # full-size eigh.
        k = 4
        assert self.sweep_counting(
            monkeypatch, tmp_path, [*self.G_SWEEP, str(k)],
            dense=True) == (k + 1, 0, k, 0)

    def test_sweep_step_one_eigh_one_chain(self, monkeypatch, tmp_path):
        # The diagonal M = L_z is sorted once and held; one eigh(H) per step.
        k = 4
        assert self.sweep_counting(
            monkeypatch, tmp_path,
            [*self.G_SWEEP, str(k)]) == (k, 0, k, 1)

    def test_sweep_with_moving_m_solves_each_m(self, monkeypatch, tmp_path):
        # M = hbar L_z moves with hbar: M is solved again at every step, by
        # a sort, so each step takes one full eigh, of H.
        k = 3
        assert self.sweep_counting(
            monkeypatch, tmp_path,
            [*self.HBAR_SWEEP, str(k)]) == (k, 0, k, k)

    def test_sweep_with_moving_dense_m_runs_two_eigh_per_step(
            self, monkeypatch, tmp_path):
        k = 3
        assert self.sweep_counting(
            monkeypatch, tmp_path, [*self.HBAR_SWEEP, str(k)],
            dense=True) == (2 * k, 0, k, 0)


class TestPipelineMatchesPublicCalls:
    """analyze_pair keeps (H0, R) over 2^a and never builds a GenSymTriple;
    its report equals, field by field, one built from the public calls
    for a real diagonal M.  For a dense M the public calls rotate the
    triple back by W and into W's basis again, so rounding alone
    separates the two: every decision is equal and every float agrees to
    1e-12, a triple residual in the unit of its gate."""

    @staticmethod
    def stability_section(records):
        """The report's stability section, written from the records."""
        rows = []
        for rec in records:
            row = {"index": rec.index, "eigenvalue": rec.eigenvalue,
                   "stable": rec.stable, "cases": list(rec.cases),
                   "primary_case": rec.primary_case,
                   "coeffs": [complex_pair(c) for c in rec.coeffs],
                   "r_annihilates": rec.r_annihilates,
                   "rd_annihilates": rec.rd_annihilates,
                   "sum_annihilates": rec.sum_annihilates}
            if rec.partner is not None:
                row["partner"] = {"z": complex_pair(rec.partner.z),
                                  "e_second": rec.partner.e_second,
                                  "residual": rec.partner.residual}
            rows.append(row)
        return {"records": rows, "counts": {
            str(k): v for k, v in sorted(case_counts(records).items())}}

    @staticmethod
    def public_report(h, m, tol):
        result = detection.detect(h, m, tol)
        triple = detection.reconstruct_case2(h, m, result.gamma1, tol)
        grade = detection.verify_triple(h, m, triple, tol)
        h_spec = multiplets.canonical_eigenbasis(h, m, tol)
        m_spec = operators.hermitian_eigh(m, tol)
        part = multiplets.partition(h_spec, m_spec, tol)
        records = stability.scan_spectrum_stability(h_spec, triple, m_spec,
                                                    tol)
        return {
            "tool": {"name": "gensym", "version": cli.__version__},
            "tolerances": {"rtol": tol.rtol},
            "inputs": {},
            "detection": cli._detection_record(result),
            "spectrum": h_spec.eigenvalues.tolist(),
            "triple": cli._triple_record(triple.gamma, grade),
            "multiplets": cli._partition_record(part, h_spec, m_spec),
            "stability": TestPipelineMatchesPublicCalls.stability_section(
                records),
            "skipped": None,
        }

    @pytest.mark.parametrize("build", [
        lambda: angular_block(3, -0.125, 0.1),
        lambda: jaynes_cummings(1.0, 1.0, 0.1, cutoff=16),
        lambda: hardcore_chain(5, 0.3 + 0.1j),
        lambda: random_triple([4, 3, 5], 0.7, seed=2),
        lambda: projection_example(40, seed=1),
        lambda: rotated(hardcore_chain(4, 0.3 + 0.1j)),
        lambda: (op(SX), op(SY)),
    ], ids=["angular_l3", "jc_16", "hardcore_5", "random_triple",
            "projection_40", "hardcore_4_dense_real_m", "real_h_complex_m"])
    def test_report_field_by_field(self, build):
        pair = build()
        h, m = (pair.h, pair.m) if hasattr(pair, "h") else pair
        report = analyze_pair(h, m, Tolerance())
        assert report["detection"]["kind"] == "case2"
        assert report["stability"] is not None
        expected = self.public_report(h, m, Tolerance())
        assert list(report) == list(expected)
        if m.real_diagonal is not None:
            for key in expected:
                assert report[key] == expected[key], key
            return
        units = {"residual_sum": h.norm, "residual_h0m": h.norm * m.norm,
                 "residual_ladder": h.norm * m.norm}
        for key, unit in units.items():
            assert abs(report["triple"].pop(key)
                       - expected["triple"].pop(key)) <= 1e-12 * unit, key
        assert_reports_agree(report, expected)


class TestHermiticityGate:
    """Each operand is gated once, whatever the verdict and however many
    analyses read it: Operator.hermitian caches the gate."""

    @staticmethod
    def count_full_size_gates(monkeypatch, dim):
        """Patch is_hermitian, which only Operator.hermitian calls; count
        n x n calls."""
        for module in (cli, detection, multiplets, stability):
            assert not hasattr(module, "is_hermitian"), module
        shapes = []
        gate = operators.is_hermitian

        def counting_gate(entries, *args, **kwargs):
            shapes.append(np.shape(entries))
            return gate(entries, *args, **kwargs)

        monkeypatch.setattr(operators, "is_hermitian", counting_gate)
        return lambda: shapes.count((dim, dim))

    @pytest.mark.parametrize("kind", ["case2", "genuine", "no_gensym"])
    def test_two_gates_per_analyze(self, monkeypatch, rng, kind):
        if kind == "case2":
            bundle = hardcore_chain(4, 0.3 + 0.1j)
            h, m = bundle.h, bundle.m
        elif kind == "genuine":
            jc = jaynes_cummings(1.3, 1.0, 0.2, cutoff=8)
            h, m = jc.h, jc.extras["m_exc"]
        else:
            h, m = op(random_hermitian(rng, 12)), op(random_hermitian(rng, 12))
        gates = self.count_full_size_gates(monkeypatch, h.dim)
        report = analyze_pair(h, m, Tolerance())
        assert report["detection"]["kind"] == kind
        assert gates() == 2

    def test_two_gates_per_sweep_step(self, monkeypatch, tmp_path):
        gates = self.count_full_size_gates(monkeypatch, 3)
        assert main(["sweep", "angular", "--l", "1", "--param", "g",
                     "--from", "0.0", "--to", "0.2", "--steps", "3",
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert gates() == 2 * 3

    def test_two_gates_for_two_analyses_of_one_pair(self, monkeypatch):
        bundle = hardcore_chain(4, 0.3 + 0.1j)
        gates = self.count_full_size_gates(monkeypatch, bundle.h.dim)
        first = analyze_pair(bundle.h, bundle.m, Tolerance())
        assert analyze_pair(bundle.h, bundle.m, Tolerance()) == first
        assert gates() == 2

    def test_sweep_with_held_m_gates_it_once(self, monkeypatch, tmp_path):
        # The jc family hands out one M at every step; each step builds a
        # new H.
        k = 4
        gates = self.count_full_size_gates(monkeypatch, 8)
        assert main(["sweep", "jc", "--cutoff", "3", "--param", "kappa",
                     "--from", "0.05", "--to", "0.2", "--steps", str(k),
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert gates() == k + 1

    @pytest.mark.parametrize("bad", ["H", "M"])
    def test_non_hermitian_operand_is_rejected(self, tmp_path, rng, bad):
        ops = {"H": random_hermitian(rng, 4), "M": random_hermitian(rng, 4)}
        ops[bad] = ops[bad] + np.triu(np.ones((4, 4)), 1)
        with pytest.raises(ValueError, match="not Hermitian"):
            analyze_pair(op(ops["H"]), op(ops["M"]), Tolerance())
        paths = {}
        for name, entries in ops.items():
            paths[name] = str(tmp_path / f"{name}.json")
            save_operator(op(entries), paths[name])
        assert main(["analyze", "--hamiltonian", paths["H"],
                     "--symmetry", paths["M"]]) == EXIT_INPUT


class TestNumericalFailureExitCode:
    """Eigensolver failures are internal numerical failures: exit 2."""

    def analyze_random_pair(self, tmp_path, rng):
        paths = []
        for name in ("h", "m"):
            paths.append(str(tmp_path / f"{name}.json"))
            save_operator(op(random_hermitian(rng, 6)), paths[-1])
        return main(["analyze", "--hamiltonian", paths[0],
                     "--symmetry", paths[1], "--out", str(tmp_path / "r.json")])

    def test_solver_non_convergence(self, monkeypatch, tmp_path, rng):
        def failing_eigvalsh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        assert self.analyze_random_pair(tmp_path, rng) == EXIT_NUMERICAL

    def test_values_outside_the_contract(self, monkeypatch, tmp_path, rng):
        eigvalsh = np.linalg.eigvalsh

        def shifted_eigvalsh(a):
            return eigvalsh(a) + 1e-8 * np.linalg.norm(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", shifted_eigvalsh)
        assert self.analyze_random_pair(tmp_path, rng) == EXIT_NUMERICAL
