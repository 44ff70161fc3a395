"""The gensym benchmark workloads.

A pass is one sweep over a workload's fixed input list.  One op runs one
input through gensym's public API as a caller would (`run`).  For the
traced run, `replay` makes the same public calls that `cli.analyze_pair`
or `cli.run_sweep` make, one span per call.  `check`
compares an op's output with the reference below by meaning, not by bytes,
so report-layout changes do not count as failures.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from gensym import cli, models
from gensym.detection import CASE2, GENUINE, NO_GENSYM, canonicalize, detect
from gensym.detection import reconstruct_case2, verify_triple
from gensym.multiplets import canonical_eigenbasis, partition
from gensym.operators import Tolerance, hermitian_eigh, make_operator
from gensym.stability import case_counts, scan_spectrum_stability

# Outputs of gensym 0.1.0 (commit ad94a04).  "classes" is the first 16 hex
# digits of the sha256 of the sorted multiplet classes; random_triple is all
# singlets, and every random pair is no_gensym, whatever the seed.
ANALYZE_REFERENCE = {
    "angular_l40": {"kind": CASE2, "classes": "cb4abf91dba3dbbd",
                    "cases": {"1": 1, "5": 80}},
    "jc_127": {"kind": CASE2, "classes": "187774ff647329df",
               "cases": {"1": 2, "5": 254}},
    "hardcore_7": {"kind": CASE2, "classes": "9ae2ebb121467fb0",
                   "cases": {"1": 24, "5": 104}},
    "fermion_7": {"kind": CASE2, "classes": "f18ffcfc5e089604",
                  "cases": {"0": 128}},
    "random_triple": {"kind": CASE2, "classes": "f18ffcfc5e089604",
                      "cases": {"0": 128}},
    "random_512": {"kind": NO_GENSYM},
    "random_768": {"kind": NO_GENSYM},
    "random_1024": {"kind": NO_GENSYM},
    "jc_255_exc": {"kind": GENUINE},
    "fermion_9": {"kind": GENUINE},
}

# Multiplet classes per sweep step at gensym 0.1.0; the fermion sweep's
# seeded sources do not change its count.
SWEEP_REFERENCE = {
    "jc_kappa": [33] * 20,
    "angular_g": [21] + [3] * 19,
    "fermion_eps": [64] * 10,
}

CSV_COLUMNS = ["param", "index", "eigenvalue", "multiplet_class"]


@dataclass(eq=False)
class Input:
    name: str
    dim: int
    h: object = None
    m: object = None
    gamma: Optional[float] = None  # |gamma| of the model's known triple
    argv: list = field(default_factory=list)
    steps: list = field(default_factory=list)  # (param value, H) per sweep step
    paths: dict = field(default_factory=dict)

    @property
    def dim_sum(self) -> int:
        """Operator dimensions one op handles: one per sweep step."""
        return self.dim * max(1, len(self.steps))


def _build(tracer, builder, *args):
    with tracer.span("models.build"):
        return builder(*args)


def _random_hermitian(rng, dim, label):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return make_operator(dim, (a + a.conj().T) / 2, label)


def _pair(name, bundle, m=None):
    """(H, M) from a model; the known |gamma| applies to the model's own M."""
    if m is not None:
        return Input(name, bundle.h.dim, h=bundle.h, m=m)
    return Input(name, bundle.h.dim, h=bundle.h, m=bundle.m,
                 gamma=abs(bundle.known.gamma))


# ---- inputs --------------------------------------------------------------

def ladder_inputs(seed, tracer, outdir):
    sources = [0.2 + 0.1j * k for k in range(7)]
    return [
        _pair("angular_l40", _build(tracer, models.angular_block, 40, -0.5, 0.1)),
        _pair("jc_127", _build(tracer, models.jaynes_cummings, 1.0, 1.0, 0.1, 127)),
        _pair("hardcore_7", _build(tracer, models.hardcore_chain, 7, 0.3 + 0.1j)),
        _pair("fermion_7", _build(tracer, models.fermion_chain, 7, 1.0, sources)),
        _pair("random_triple",
              _build(tracer, models.random_triple, [32] * 4, 1.0, seed)),
    ]


def screen_inputs(seed, tracer, outdir):
    rng = np.random.default_rng(seed)
    inputs = [Input(f"random_{n}", n, h=_random_hermitian(rng, n, "H"),
                    m=_random_hermitian(rng, n, "M"))
              for n in (512, 768, 1024)]
    jc = _build(tracer, models.jaynes_cummings, 1.0, 1.0, 0.1, 255)
    inputs.append(_pair("jc_255_exc", jc, m=jc.extras["m_exc"]))
    inputs.append(_pair("fermion_9", _build(tracer, models.fermion_chain, 9, 1.0)))
    return inputs


def sweep_inputs(seed, tracer, outdir):
    rng = np.random.default_rng(seed)
    sources = ",".join(f"{re:.3f}{im:+.3f}j" for re, im in
                       zip(rng.uniform(0.05, 0.3, 6), rng.uniform(-0.2, 0.2, 6)))
    specs = {
        "jc_kappa": ["jc", "--cutoff", "31", "--param", "kappa",
                     "--from", "0.05", "--to", "0.5", "--steps", "20"],
        "angular_g": ["angular", "--l", "10", "--param", "g",
                      "--from", "0", "--to", "0.25", "--steps", "20"],
        "fermion_eps": ["fermion", "--sites", "6", "--sources", sources,
                        "--param", "eps", "--from", "0.5", "--to", "1.5",
                        "--steps", "10"],
    }
    inputs = []
    for name, spec in specs.items():
        csv = os.path.join(outdir, f"{name}.csv")
        argv = ["sweep", *spec, "--out", csv]
        args = cli.make_parser().parse_args(argv)
        steps = []
        for value in np.linspace(args.start, args.stop, args.steps):
            setattr(args, args.param, float(value))
            steps.append((float(value), _build(tracer, cli.build_model, args).h))
        inputs.append(Input(name, steps[0][1].dim, argv=argv, steps=steps,
                            paths={"csv": csv}))
    return inputs


def warm_up():
    """Load the code paths every workload uses, on a tiny input."""
    small = models.angular_block(2, 0.0, 0.1)
    cli.analyze_pair(small.h, small.m, Tolerance())


# ---- ops and their replays -----------------------------------------------

def replay_analyze(h, m, tracer) -> dict:
    """cli.analyze_pair as its public calls; returns the report fields the
    check reads."""
    tol = Tolerance()
    with tracer.span("detection.detect") as counts:
        result = detect(h, m, tol)
    counts["detection.verdict." + result.kind] = 1
    with tracer.span("operators.hermitian_eigh_H"):
        h_spec = hermitian_eigh(h, tol)
    report = {"detection": {"kind": result.kind},
              "spectrum": [float(v) for v in h_spec.eigenvalues],
              "triple": None, "multiplets": None, "stability": None}
    if result.kind != CASE2:
        return report
    with tracer.span("detection.reconstruct"):
        triple = canonicalize(reconstruct_case2(h, m, result.gamma, tol))
    with tracer.span("detection.verify_triple"):
        verification = verify_triple(h, m, triple, tol)
    report["triple"] = {"gamma": [triple.gamma.real, triple.gamma.imag],
                        "verified": verification.passed}
    if not result.real_gamma:
        return report
    with tracer.span("operators.hermitian_eigh_M"):
        m_spec = hermitian_eigh(m, tol)
    with tracer.span("multiplets.canonical_eigenbasis"):
        h_spec = canonical_eigenbasis(h, m, tol)
    with tracer.span("multiplets.partition") as counts:
        part = partition(h_spec, m_spec, tol)
    counts["multiplets.classes"] = len(part.classes)
    counts["multiplets.m_clusters"] = m_spec.n_clusters
    with tracer.span("stability.scan") as counts:
        records = scan_spectrum_stability(h_spec, triple, m_spec, tol)
    counts["stability.case5_partners"] = sum(r.partner is not None
                                             for r in records)
    report["multiplets"] = {"classes": [{"members": list(c)}
                                        for c in part.classes]}
    report["stability"] = {"counts": {str(k): v for k, v in
                                      sorted(case_counts(records).items())}}
    return report


def run_analyze(inp) -> dict:
    return cli.analyze_pair(inp.h, inp.m, Tolerance())


def replay_analyze_op(inp, tracer) -> dict:
    return replay_analyze(inp.h, inp.m, tracer)


def run_sweep(inp) -> int:
    return cli.main(inp.argv)


def replay_sweep(inp, tracer) -> int:
    """cli.run_sweep as its public calls; writes the same CSV."""
    args = cli.make_parser().parse_args(inp.argv)
    tol = Tolerance()
    gammas = []
    lines = [",".join(CSV_COLUMNS)]
    for value in np.linspace(args.start, args.stop, args.steps):
        setattr(args, args.param, float(value))
        with tracer.span("cli.build_model"):
            bundle = cli.build_model(args)
        with tracer.span("detection.detect") as counts:
            result = detect(bundle.h, bundle.m, tol)
        counts["detection.verdict." + result.kind] = 1
        if result.kind == CASE2:
            gammas.append(result.gamma1)
        with tracer.span("operators.hermitian_eigh_M"):
            m_spec = hermitian_eigh(bundle.m, tol)
        with tracer.span("multiplets.canonical_eigenbasis"):
            h_spec = canonical_eigenbasis(bundle.h, bundle.m, tol)
        with tracer.span("multiplets.partition") as counts:
            part = partition(h_spec, m_spec, tol)
        counts["multiplets.classes"] = len(part.classes)
        counts["multiplets.m_clusters"] = m_spec.n_clusters
        class_of = {i: c for c, members in enumerate(part.classes)
                    for i in members}
        lines.extend(f"{float(value)!r},{i},{float(h_spec.eigenvalues[i])!r},"
                     f"{class_of[i]}" for i in range(h_spec.dim))
    if gammas and max(gammas) - min(gammas) > 1e-8:
        return cli.EXIT_NUMERICAL
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return cli.EXIT_OK


# ---- checks --------------------------------------------------------------

def _classes_digest(classes) -> str:
    canonical = sorted(sorted(int(i) for i in c) for c in classes)
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()[:16]


def check_report(inp, report) -> list:
    """Verdict, spectrum, gamma, verification, multiplets and cases."""
    ref = ANALYZE_REFERENCE[inp.name]
    kind = report["detection"]["kind"]
    if kind != ref["kind"]:
        return [f"verdict {kind}, expected {ref['kind']}"]
    problems = []
    spectrum = np.asarray(report["spectrum"], dtype=float)
    norm_sq = float(np.linalg.norm(inp.h.entries)) ** 2
    if spectrum.shape != (inp.dim,) or np.any(np.diff(spectrum) < 0):
        problems.append("spectrum is not dim ascending values")
    elif (abs(spectrum.sum() - np.trace(inp.h.entries).real)
          > 1e-9 * max(1.0, float(np.abs(spectrum).sum()))):
        problems.append("spectrum does not sum to trace(H)")
    elif abs(float(spectrum @ spectrum) - norm_sq) > 1e-9 * max(1.0, norm_sq):
        problems.append("squared spectrum does not sum to ||H||_F^2")
    if kind != CASE2:
        if any(report[k] is not None for k in ("triple", "multiplets", "stability")):
            problems.append(f"{kind} verdict with pipeline output")
        return problems
    gamma = complex(*report["triple"]["gamma"])
    if abs(gamma - inp.gamma) > 1e-8:
        problems.append(f"canonical gamma {gamma}, expected {inp.gamma}")
    if report["triple"]["verified"] is not True:
        problems.append("triple not verified")
    classes = [c["members"] for c in report["multiplets"]["classes"]]
    if sorted(i for c in classes for i in c) != list(range(inp.dim)):
        problems.append("multiplet classes do not cover each index once")
    elif _classes_digest(classes) != ref["classes"]:
        problems.append("multiplet classes differ from the reference")
    if report["stability"]["counts"] != ref["cases"]:
        problems.append(f"primary cases {report['stability']['counts']}, "
                        f"expected {ref['cases']}")
    return problems


def check_sweep(inp, code) -> list:
    """steps x dim rows, each step's spectrum, and valid class ids."""
    if code != cli.EXIT_OK:
        return [f"sweep exit code {code} (2: gamma-drift guard fired)"]
    with open(inp.paths["csv"], encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    if header.split(",") != CSV_COLUMNS:
        return [f"CSV columns {header!r}"]
    if len(rows) != len(inp.steps) * inp.dim:
        return [f"{len(rows)} CSV rows, expected {len(inp.steps)} x {inp.dim}"]
    table = np.array([row.split(",") for row in rows], dtype=float)
    table = table.reshape(len(inp.steps), inp.dim, len(CSV_COLUMNS))
    problems = []
    for s, ((value, h), block, n_classes) in enumerate(
            zip(inp.steps, table, SWEEP_REFERENCE[inp.name])):
        expected = np.linalg.eigvalsh(h.entries)
        ids = set(block[:, 3].astype(int))
        if np.any(block[:, 0] != value):
            problems.append(f"step {s}: parameter is not {value!r}")
        elif np.any(block[:, 1] != np.arange(inp.dim)):
            problems.append(f"step {s}: indices are not 0..{inp.dim - 1}")
        elif (np.max(np.abs(block[:, 2] - expected))
              > 1e-9 * max(1.0, float(np.abs(expected).max()))):
            problems.append(f"step {s}: eigenvalues differ from eigvalsh(H)")
        elif ids != set(range(n_classes)):
            problems.append(f"step {s}: {len(ids)} multiplet classes, "
                            f"expected {n_classes}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    # Pass time at gensym 0.1.0 on an AMD EPYC (2 CPUs, one BLAS thread).
    nominal_pass_s: float
    make_inputs: Callable
    run: Callable
    replay: Callable
    check: Callable


WORKLOADS = {w.name: w for w in (
    Workload("ladder_analyze", 5.45, ladder_inputs, run_analyze,
             replay_analyze_op, check_report),
    Workload("sweep_flow", 2.07, sweep_inputs, run_sweep, replay_sweep,
             check_sweep),
    Workload("screen_large", 1.79, screen_inputs, run_analyze,
             replay_analyze_op, check_report),
)}
