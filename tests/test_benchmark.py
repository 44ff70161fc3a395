"""The benchmark's ops run against this checkout and pass their checks.

perfbench/ imports gensym through the public names its workloads call
(`cli.build_model(args)`, `cli.main`, `cli.analyze_pair`, and in the
traced replay `detect`, `reconstruct_case2`, `verify_triple`,
`canonical_eigenbasis`, `partition` and `scan_spectrum_stability`); one
op and one replay per input here break on a renamed or reshaped name
before a benchmark run does.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(monkeypatch, name):
    """perfbench/<name>.py as a module, registered for this test only
    (dataclasses look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["sweep_flow", "ladder_analyze"])
def test_each_op_passes_its_check(monkeypatch, tmp_path, name):
    workload = load(monkeypatch, "workloads").WORKLOADS[name]
    tracer = load(monkeypatch, "tracing").Tracer()
    inputs = workload.make_inputs(7, tracer, str(tmp_path))
    for inp in inputs:
        assert workload.check(inp, workload.run(inp)) == [], inp.name


@pytest.mark.parametrize("name", ["sweep_flow", "ladder_analyze"])
def test_each_traced_replay_passes_its_check(monkeypatch, tmp_path, name):
    # The traced run replays each op as gensym's public calls, by position.
    workload = load(monkeypatch, "workloads").WORKLOADS[name]
    tracer = load(monkeypatch, "tracing").Tracer()
    inputs = workload.make_inputs(1, tracer, str(tmp_path))
    for inp in inputs:
        assert workload.check(inp, workload.replay(inp, tracer)) == [], \
            inp.name


def test_screen_large_genuine_inputs_pass_their_check(monkeypatch, tmp_path):
    # The two genuine inputs run detection on the diagonal path.  The random
    # dense pairs (dim 512-1024) are neither built nor run, to keep this
    # short.
    workloads = load(monkeypatch, "workloads")
    monkeypatch.setattr(workloads, "_random_hermitian",
                        lambda rng, dim, label: None)
    workload = workloads.WORKLOADS["screen_large"]
    tracer = load(monkeypatch, "tracing").Tracer()
    inputs = {inp.name: inp
              for inp in workload.make_inputs(7, tracer, str(tmp_path))}
    for name in ("jc_255_exc", "fermion_9"):
        inp = inputs[name]
        assert inp.m.real_diagonal is not None
        assert workload.check(inp, workload.run(inp)) == [], name


def test_screen_large_dense_pair_passes_its_check(monkeypatch, tmp_path):
    # random_512 is dense and above the probe screen's cutoff: the screen
    # rejects it from thin products by n x 8 probe blocks, with no
    # commutator, then the values-only spectrum.  The dim-768 and
    # dim-1024 pairs are not built.
    workloads = load(monkeypatch, "workloads")
    random_hermitian = workloads._random_hermitian
    monkeypatch.setattr(
        workloads, "_random_hermitian",
        lambda rng, dim, label:
        random_hermitian(rng, dim, label) if dim == 512 else None)
    workload = workloads.WORKLOADS["screen_large"]
    tracer = load(monkeypatch, "tracing").Tracer()
    inp = next(inp for inp in workload.make_inputs(7, tracer, str(tmp_path))
               if inp.name == "random_512")
    assert inp.m.real_diagonal is None
    assert workload.check(inp, workload.run(inp)) == []
