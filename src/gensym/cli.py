"""Command-line driver: model generation, end-to-end analysis, sweeps.

Exit codes: 0 ok, 1 required detection absent, 2 internal numerical
failure, 3 input/validation error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .detection import (
    CASE2,
    GENUINE,
    NO_GENSYM,
    _detect,
    _grade_triple,
    _split,
)
from .models import (
    ModelBundle,
    _fermion_chain_family,
    _jaynes_cummings_family,
    angular_block,
    hardcore_chain,
    involution_example,
    projection_example,
)
from .multiplets import _greedy_classes, canonical_eigenbasis, partition
from .operators import (
    NumericalError,
    Tolerance,
    _hermitian_eigvalsh,
    _m_eigenbasis,
    _unit,
    hermitian_eigh,
)
from .serialization import (
    complex_pair,
    dump_json,
    file_digest,
    load_operator,
    save_operator,
)
from .stability import _scan_stability

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_NUMERICAL = 2
EXIT_INPUT = 3


def parse_complex(text: str) -> complex:
    """Parse '0.1+0.05i' style complex literals (i or j accepted)."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}")


def _model_args(sub: argparse.ArgumentParser):
    sub.add_argument("name", choices=["angular", "jc", "fermion",
                                      "hardcore", "projection", "involution"])
    sub.add_argument("--l", type=int, default=1)
    sub.add_argument("--en", type=float, default=0.0)
    sub.add_argument("--g", type=float, default=0.1)
    sub.add_argument("--hbar", type=float, default=1.0)
    sub.add_argument("--omega", type=float, default=1.0)
    sub.add_argument("--omega0", type=float, default=1.0)
    sub.add_argument("--kappa", type=float, default=0.1)
    sub.add_argument("--cutoff", type=int, default=8)
    sub.add_argument("--sites", type=int, default=4)
    sub.add_argument("--eps", type=float, default=1.0)
    sub.add_argument("--sources", type=str, default="",
                     help="comma-separated complex source amplitudes")
    sub.add_argument("--z", type=str, default="0.1")
    sub.add_argument("--dim", type=int, default=8)
    sub.add_argument("--seed", type=int, default=0)


# The parameters each model reads, which a sweep may move; others read none.
SWEEPABLE = {"angular": ("en", "g", "hbar"), "fermion": ("eps",),
             "jc": ("omega0", "omega", "kappa", "hbar")}


def build_model(args: argparse.Namespace) -> ModelBundle:
    return _model_family(args)()


def _model_family(args: argparse.Namespace):
    """A builder of the model ``args`` names, read at each call.

    A sweep changes one attribute of ``args`` between calls.  jc and
    fermion build their parameter-free operators here, once per builder;
    no sweepable parameter enters them.
    """
    name = args.name
    if name == "angular":
        return lambda: angular_block(args.l, args.en, args.g, args.hbar)
    if name == "jc":
        jc = _jaynes_cummings_family(args.cutoff)
        return lambda: jc(args.omega0, args.omega, args.kappa, args.hbar)
    if name == "fermion":
        sources = None
        if args.sources:
            sources = [parse_complex(s) for s in args.sources.split(",")]
        chain = _fermion_chain_family(args.sites, sources)
        return lambda: chain(args.eps)
    if name == "hardcore":
        return lambda: hardcore_chain(args.sites, parse_complex(args.z))
    if name == "projection":
        return lambda: projection_example(args.dim, args.seed)
    if name == "involution":
        return lambda: involution_example(args.dim, args.seed)
    raise ValueError(f"unknown model {name!r}")


def run_model(args: argparse.Namespace) -> int:
    bundle = build_model(args)
    prefix = args.out_prefix
    save_operator(bundle.h, f"{prefix}H.json")
    save_operator(bundle.m, f"{prefix}M.json")
    meta = {
        "model": args.name,
        "params": bundle.params,
        "basis_doc": bundle.basis_doc,
    }
    if bundle.known is not None:
        save_operator(bundle.known.r, f"{prefix}R.json")
        meta["known_gamma"] = complex_pair(bundle.known.gamma)
    dump_json(meta, f"{prefix}meta.json")
    return EXIT_OK


def _detection_record(result) -> dict:
    return {
        "kind": result.kind,
        "gamma1": result.gamma1,
        "residual": result.residual,
        "screened": result.screened,
    }


def _triple_record(gamma, report) -> dict:
    return {
        "gamma": complex_pair(gamma),
        "residual_sum": report.residual_sum,
        "residual_h0m": report.residual_h0m,
        "residual_ladder": report.residual_ladder,
        "commutes_rdr_m": report.commutes_rdr_m,
        "commutes_rrd_m": report.commutes_rrd_m,
        "commutes_rdr_h0": report.commutes_rdr_h0,
        "commutes_rrd_h0": report.commutes_rrd_h0,
        "degenerate": report.degenerate,
        "verified": report.passed,
    }


def _partition_record(part, h_spec, m_spec) -> dict:
    classes = []
    values = m_spec.cluster_values[0]
    for members, sig, label in zip(part.classes, part.signatures, part.labels):
        classes.append({
            "members": list(members),
            "eigenvalues": h_spec.eigenvalues[list(members)].tolist(),
            "support_clusters": list(sig),
            "support_eigenvalues": values[list(sig)].tolist(),
            "label": label,
        })
    return {"classes": classes}


def _stability_record(eigenvalues: np.ndarray, scan: tuple) -> dict:
    """The report's stability section, from _scan_stability's arrays."""
    cases, coeffs, flags, *partners = scan
    partners = zip(*(p.tolist() for p in partners))
    rows = []
    for index, (eigenvalue, case, c, (r, rd, both)) in enumerate(zip(
            eigenvalues.tolist(), cases.tolist(), coeffs.tolist(),
            flags.tolist())):
        rows.append({"index": index, "eigenvalue": eigenvalue,
                     "stable": case > 0, "cases": [case] if case else [],
                     "primary_case": case or None,
                     "coeffs": [complex_pair(v) for v in c],
                     "r_annihilates": r, "rd_annihilates": rd,
                     "sum_annihilates": both})
        if case == 5:
            z, e_second, residual = next(partners)
            rows[-1]["partner"] = {"z": complex_pair(z), "e_second": e_second,
                                   "residual": residual}
    kinds, counts = np.unique(cases, return_counts=True)
    return {"records": rows,
            "counts": dict(zip(map(str, kinds.tolist()), counts.tolist()))}


def analyze_pair(h, m, tol: Tolerance, digests: Optional[dict] = None) -> dict:
    """Full pipeline on one (H, M) pair; returns the report document."""
    result, held = _detect(h, m, tol)
    report = {
        "tool": {"name": "gensym", "version": __version__},
        "tolerances": {"rtol": tol.rtol},
        "inputs": digests or {},
        "detection": _detection_record(result),
        "spectrum": None,
        "triple": None,
        "multiplets": None,
        "stability": None,
        "skipped": None,
    }
    # Only a verified case-2 triple goes on to use eigenvectors.
    skipped = {GENUINE: "genuine symmetry: H and M commute, R = 0",
               NO_GENSYM: "no generalised symmetry detected"}.get(result.kind)
    if result.kind == CASE2:
        # The fit returns gamma = sqrt(gamma^2) > 0: the triple is canonical.
        # (H0, R) are the fit's H in M's eigenbasis on its blocks, over 2^a
        # until the scan, and H0 is released once graded: the scan reads
        # only R and gamma.
        gamma = result.gamma1
        m_spec = held[0]
        h0, ladder, residual_sum = _split(*held, gamma)
        del held
        report["triple"] = _triple_record(gamma, _grade_triple(
            h, m, m_spec, h0, ladder, gamma, residual_sum, tol))
        del h0
        # A residual past the float range cannot be written: stop here.
        residuals = [report["triple"][k] for k in
                     ("residual_sum", "residual_h0m", "residual_ladder")]
        if not np.all(np.isfinite(residuals)):
            raise NumericalError(f"triple residuals {residuals} are past "
                                 "the float range")
        if not report["triple"]["verified"]:
            skipped = "triple not verified"
    if skipped:
        report["spectrum"] = _hermitian_eigvalsh(h).tolist()
        report["skipped"] = skipped
        return report

    # The scan runs before the partition so that R is released first;
    # neither reads the other's result.  Both run in M's eigenbasis.
    h_spec = canonical_eigenbasis(h, m, tol)
    report["spectrum"] = h_spec.eigenvalues.tolist()
    h_spec, m_spec = _m_eigenbasis(h_spec, m_spec)
    ladder = ladder.scaled(2.0 ** _unit(h.norm))  # R in H's units
    scan = _scan_stability(h_spec, ladder, gamma, m_spec, tol)
    report["stability"] = _stability_record(h_spec.eigenvalues, scan)
    del ladder
    report["multiplets"] = _partition_record(partition(h_spec, m_spec, tol),
                                             h_spec, m_spec)
    return report


def run_analyze(args: argparse.Namespace) -> int:
    tol = Tolerance(rtol=args.tol) if args.tol is not None else Tolerance()
    h = load_operator(args.hamiltonian)
    m = load_operator(args.symmetry)
    digests = {
        "hamiltonian": {"path": args.hamiltonian,
                        "sha256": file_digest(args.hamiltonian)},
        "symmetry": {"path": args.symmetry,
                     "sha256": file_digest(args.symmetry)},
    }
    report = analyze_pair(h, m, tol, digests)
    text = dump_json(report, args.out)
    if args.out is None:
        print(text)
    if args.require and report["detection"]["kind"] == NO_GENSYM:
        return EXIT_NOT_FOUND
    return EXIT_OK


def run_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError(f"steps must be >= 2, got {args.steps}")
    sweepable = SWEEPABLE.get(args.name, ())
    if args.param not in sweepable:
        raise ValueError(f"the {args.name} model does not read "
                         f"{args.param!r}; it sweeps "
                         f"{', '.join(sweepable) or 'no parameter'}")
    values = np.linspace(args.start, args.stop, args.steps).tolist()
    tol = Tolerance()
    build = _model_family(args)
    # eigh(M) and the case-2 gammas of the current run of steps whose M
    # is bit-identical; gamma may move only with M (angular: gamma = hbar).
    held_m, m_spec, gammas = None, None, []
    lines = ["param,index,eigenvalue,multiplet_class"]
    for value in values:
        setattr(args, args.param, value)
        bundle = build()
        me = bundle.m.entries
        if (held_m is None or held_m.dtype != me.dtype
                or held_m.tobytes() != me.tobytes()):
            held_m, m_spec, gammas = me, hermitian_eigh(bundle.m, tol), []
        result = _detect(bundle.h, bundle.m, tol, m_spec)[0]
        if result.kind == CASE2:
            gammas.append(result.gamma1)
            if max(gammas) - min(gammas) > tol.rtol * max(gammas):
                raise NumericalError(
                    f"gamma drifts at fixed M: {min(gammas)} .. {max(gammas)}")
        h_spec = canonical_eigenbasis(bundle.h, bundle.m, tol)
        classes, _ = _greedy_classes(h_spec, m_spec, tol)
        class_of = {i: c for c, members in enumerate(classes)
                    for i in members}
        for i, eigenvalue in enumerate(h_spec.eigenvalues.tolist()):
            lines.append(f"{value!r},{i},{eigenvalue!r},{class_of[i]}")
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gensym",
        description="Generalised-symmetry detection and spectrum analysis")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="run the full pipeline on a pair")
    p_analyze.add_argument("--hamiltonian", required=True)
    p_analyze.add_argument("--symmetry", required=True)
    p_analyze.add_argument("--tol", type=float, default=None)
    p_analyze.add_argument("--require", action="store_true")
    p_analyze.add_argument("--out", default=None)
    p_analyze.set_defaults(func=run_analyze)

    p_model = subs.add_parser("model", help="write model operator files")
    _model_args(p_model)
    p_model.add_argument("--out-prefix", required=True, dest="out_prefix")
    p_model.set_defaults(func=run_model)

    p_sweep = subs.add_parser("sweep", help="spectral flow over one parameter")
    _model_args(p_sweep)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--from", type=float, required=True, dest="start")
    p_sweep.add_argument("--to", type=float, required=True, dest="stop")
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=run_sweep)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError is a ValueError, so it must be caught before the input
    # errors: a solver that does not converge is a numerical failure.
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"gensym: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"gensym: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
