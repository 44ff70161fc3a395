"""Decisions that do not depend on the BLAS thread count.

Threaded gemms sum in another order, so a report's floats may move in
their last digits between thread counts; its decisions may not.  Each
pair is analysed in two fresh processes, under OPENBLAS_NUM_THREADS=1
and =2 (set before numpy is loaded), and the two reports must agree: every
field that is not a float identical, every float within 1e-12 of its
scale (reference.assert_reports_agree), a residual within 1e-12 of its
gate's unit, as its value is rounding.

The acceptance suite's models also go through the command line in each
process: `gensym model` writes them and `gensym analyze` reads them back,
from paths relative to a scratch directory so that the reports' inputs
agree.

Run as a script, this module prints the reports of every pair as JSON.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from reference import assert_reports_agree

ROOT = Path(__file__).resolve().parent.parent
# `gensym model` arguments of the acceptance suite's models.
MODELS = {
    "cli_angular": ["angular", "--l", "2", "--en", "-0.125", "--g", "0.1"],
    "cli_jc": ["jc", "--omega0", "1.3", "--omega", "1.0", "--kappa", "0.2",
               "--cutoff", "16"],
    "cli_hardcore": ["hardcore", "--sites", "6", "--z", "0.2"],
    "cli_projection": ["projection", "--dim", "16", "--seed", "2"],
    "cli_involution": ["involution", "--dim", "16", "--seed", "3"],
}
NAMES = ["angular_l40", "jc_127", "hardcore_7", "hardcore_8", "fermion_7",
         "random_triple", "projection_200", "hardcore_7_orthogonal",
         "hardcore_8_orthogonal", "random_triple_orthogonal", *MODELS]


def pairs():
    """(name, H, M) for every pair, built in the calling process."""
    from gensym import make_operator, models

    def orthogonal(bundle):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(bundle.h.dim, bundle.h.dim)))
        return tuple(make_operator(x.dim, q @ x.entries @ q.T)
                     for x in (bundle.h, bundle.m))

    bundles = {
        "angular_l40": models.angular_block(40, -0.5, 0.1),
        "jc_127": models.jaynes_cummings(1.0, 1.0, 0.1, 127),
        "hardcore_7": models.hardcore_chain(7, 0.3 + 0.1j),
        "hardcore_8": models.hardcore_chain(8, 0.3 + 0.1j),
        "fermion_7": models.fermion_chain(
            7, 1.0, [0.2 + 0.1j * k for k in range(7)]),
        "random_triple": models.random_triple([32] * 4, 1.0, 3),
        "projection_200": models.projection_example(200, 3),
    }
    for name, bundle in bundles.items():
        yield name, bundle.h, bundle.m
    for name in ("hardcore_7", "hardcore_8", "random_triple"):
        yield (f"{name}_orthogonal", *orthogonal(bundles[name]))


@functools.lru_cache(maxsize=None)
def reports(threads):
    """{name: (report, ||M||_F)} from a fresh process under ``threads``
    BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tests")]))
    out = subprocess.run([sys.executable, __file__], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


# hardcore_chain(8, 0.3+0.1i) has 220 classes under one thread and 213
# under two: its degenerate eigenspaces' basis is left to rounding
# (ROADMAP item 7).  Every other field agrees.
CLASSES_MOVE = {"hardcore_8"}


def in_units(report, m_norm):
    """(copy, values): a copy of ``report`` without the floats whose value
    may be rounding alone, and values[path] = (float, unit) for each of
    them: the residuals in their gate's unit (the fit's is relative,
    residual_sum is in ||H||_F and the commutator residuals in
    ||H||_F ||M||_F), and each copy of an eigenvalue of H or M, which may
    be a zero, in ||H||_F or ||M||_F."""
    copy = json.loads(json.dumps(report))
    h_norm = float(np.linalg.norm(report["spectrum"]))
    values = {}

    def take(path, node, key, unit):
        values[path] = (node.pop(key), unit)

    take(("residual",), copy["detection"], "residual", 1.0)
    take(("residual_sum",), copy["triple"], "residual_sum", h_norm)
    for key in ("residual_h0m", "residual_ladder"):
        take((key,), copy["triple"], key, h_norm * m_norm)
    for i, record in enumerate(copy["stability"]["records"]):
        take(("record", i), record, "eigenvalue", h_norm)
    for i, cls in enumerate(copy["multiplets"]["classes"]):
        take(("class", i), cls, "eigenvalues", h_norm)
        take(("support", i), cls, "support_eigenvalues", m_norm)
    return copy, values


@pytest.mark.parametrize("name", NAMES)
def test_reports_agree_across_thread_counts(name):
    (one, m_norm), (two, _) = reports(1)[name], reports(2)[name]
    assert one["stability"] is not None
    if name in CLASSES_MOVE:
        one, two = ({**r, "multiplets": {"classes": []}} for r in (one, two))
    (one, expected), (two, got) = (in_units(r, m_norm) for r in (one, two))
    assert got.keys() == expected.keys()
    for path, (want, unit) in expected.items():
        np.testing.assert_allclose(got[path][0], want, rtol=0,
                                   atol=1e-12 * unit, err_msg=str(path))
    assert_reports_agree(two, one)


@pytest.mark.xfail(strict=True, reason="classes depend on the degenerate "
                   "eigenspaces' basis (ROADMAP item 7)")
@pytest.mark.parametrize("name", sorted(CLASSES_MOVE))
def test_classes_agree_across_thread_counts(name):
    assert (reports(1)[name][0]["multiplets"]
            == reports(2)[name][0]["multiplets"])


def cli_reports():
    """{name: (report, ||M||_F)} of `gensym model` and `gensym analyze`
    on each of MODELS, run in a scratch directory."""
    from gensym import load_operator
    from gensym.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for name, argv in MODELS.items():
            h, m, report = (f"{name}_{x}.json" for x in ("H", "M", "report"))
            assert main(["model", *argv, "--out-prefix", f"{name}_"]) == 0
            assert main(["analyze", "--hamiltonian", h, "--symmetry", m,
                         "--out", report]) == 0
            with open(report, encoding="utf-8") as fh:
                out[name] = (json.load(fh), load_operator(m).norm)
        os.chdir(ROOT)
    return out


if __name__ == "__main__":
    from gensym import Tolerance
    from gensym.cli import analyze_pair

    print(json.dumps({**{name: (analyze_pair(h, m, Tolerance()), m.norm)
                         for name, h, m in pairs()}, **cli_reports()}))
