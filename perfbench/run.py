"""gensym benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gensym is imported from its src/.
The last line of standard output is the result as one JSON object; the
line before it holds the environment and the details behind the metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  See perfbench/README.md.
"""

import os

# One BLAS thread, pinned before numpy is first imported.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, ".out")

# Set-up is repeated this often and its median reported.
SETUP_REPEATS = 5
# op_s.tail needs this many samples: itself and ten beyond it.
TAIL_SAMPLES = 11
# At least six samples of each input: a burst of host load that slows one
# or two ops then moves neither op_s.p50 nor op_s.tail, and on
# ladder_analyze (five inputs) op_s.tail is an inner sample of one input.
MIN_PASSES = 6

STAGES = (
    "detection.detect", "detection.reconstruct", "detection.verify_triple",
    "operators.hermitian_eigh_H", "operators.hermitian_eigh_M",
    "multiplets.canonical_eigenbasis", "multiplets.partition",
    "stability.scan", "cli.build_model",
)
COUNTS = {
    "multiplets.classes": "count", "multiplets.m_clusters": "count",
    "stability.case5_partners": "count", "detection.verdict.case2": "count",
    "detection.verdict.genuine": "count", "detection.verdict.no_gensym": "count",
    "ops.dim_sum": "count",
}


def load_gensym():
    """Import gensym from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import gensym
    except ImportError:
        return None
    if not os.path.abspath(gensym.__file__).startswith(SRC + os.sep):
        return None
    return gensym


def environment(np, seed):
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "seed": seed,
    }


def tail(values):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def run_pass(workload, inputs, tracer, op_times):
    """One closed-loop pass; returns (wall seconds, ops attempted, problems).

    Appends (input name, seconds) to op_times for each op that returned.
    Outputs are checked after the pass, outside the timed region.
    """
    # A file left by the previous pass must not pass this pass's check.
    for inp in inputs:
        for path in inp.paths.values():
            if os.path.exists(path):
                os.remove(path)
    gc.collect()
    outputs = []
    start = time.perf_counter()
    for inp in inputs:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(inp)
            else:
                with tracer.span("op." + inp.name, op=True) as counts:
                    counts["ops.dim_sum"] = inp.dim_sum
                    out = workload.replay(inp, tracer)
        except Exception as exc:  # a failed op is counted; the run goes on
            outputs.append((inp, None, f"{type(exc).__name__}: {exc}"))
            continue
        op_times.append((inp.name, time.perf_counter() - t0))
        outputs.append((inp, out, None))
    wall = time.perf_counter() - start
    problems = []
    for inp, out, error in outputs:
        try:
            found = [error] if error else workload.check(inp, out)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            found = [f"output unreadable: {exc!r}"]
        problems.extend(f"{inp.name}: {p}" for p in found[:1])
    return wall, len(outputs), problems


def stage_totals(tracer, phase):
    """Seconds per span name (op spans excluded) and summed counts."""
    seconds, counts = {}, {}
    for span in tracer.spans:
        if span["phase"] != phase:
            continue
        for key, value in span["counts"].items():
            counts[key] = counts.get(key, 0) + value
        if not span["name"].startswith("op."):
            seconds[span["name"]] = (seconds.get(span["name"], 0.0)
                                     + span["end"] - span["start"])
    return seconds, counts


def per_layer(tracer, traced, untraced):
    """Per-layer metrics from the traced passes and the set-up spans."""
    totals = [stage_totals(tracer, phase) for phase, _ in traced]
    metrics = {f"{stage}.s": (statistics.median(t[0].get(stage, 0.0)
                                                for t in totals), "s")
               for stage in STAGES}
    for key, unit in COUNTS.items():
        values = sorted({t[1].get(key, 0) for t in totals})
        if len(values) > 1:
            raise RuntimeError(f"benchmark bug: count {key} differs "
                               f"between passes: {values}")
        metrics[key] = (values[0], unit)
    metrics["models.build.s"] = (statistics.median(
        stage_totals(tracer, f"setup{rep}")[0].get("models.build", 0.0)
        for rep in range(SETUP_REPEATS)), "s")
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(wall for _, wall in traced)
    spans_s = statistics.median(sum(t[0].values()) for t in totals)
    metrics["cli.unattributed.s"] = (untraced_s - spans_s, "s")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if load_gensym() is None:
        print("perfbench: no gensym package under src/ of this checkout",
              file=sys.stderr)
        return 2
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS, warm_up
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    outdir = os.path.join(OUT, workload.name)
    os.makedirs(outdir, exist_ok=True)
    tracer = Tracer()

    setup_s, inputs = [], None
    for rep in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        tracer.phase = f"setup{rep}"
        t0 = time.perf_counter()
        inputs = workload.make_inputs(args.seed, tracer, outdir)
        setup_s.append(time.perf_counter() - t0)
    try:
        warm_up()
    except Exception as exc:  # the timed ops fail the same way and count it
        print(f"perfbench: warm-up failed: {exc!r}", file=sys.stderr)

    # A fixed number of passes, so that both sides of a comparison time the
    # same ops and op_s.tail is the same percentile; at the nominal pass
    # time a run measures about --seconds.  From eight passes on, a run is
    # rounded up to eleven: then every input has ten samples beyond its
    # fastest one, and op_s.tail is the slowest input's fastest op rather
    # than an op at the edge between two inputs.
    passes = max(MIN_PASSES, math.ceil(TAIL_SAMPLES / len(inputs)),
                 round(args.seconds / workload.nominal_pass_s))
    if passes >= 8:
        passes = max(passes, TAIL_SAMPLES)
    if args.trace:
        schedule = [False, True] * max(2, math.ceil(passes / 2))
    else:
        schedule = [False] * passes
    op_times, untraced, traced, problems, attempted = [], [], [], [], 0
    for index, is_traced in enumerate(schedule):
        if is_traced:
            tracer.phase = f"pass{index}"
            wall, n, found = run_pass(workload, inputs, tracer, [])
            traced.append((tracer.phase, wall))
        else:
            wall, n, found = run_pass(workload, inputs, None, op_times)
            untraced.append(wall)
        attempted += n
        problems.extend(found)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if not op_times:
        print("perfbench: no op returned", file=sys.stderr)
        return 1

    latencies = [seconds for _, seconds in op_times]
    tail_s, tail_pct, beyond = tail(latencies)
    by_input = {}
    for name, seconds in op_times:
        by_input.setdefault(name, []).append(seconds)
    details = {
        "workload": workload.name,
        "environment": environment(np, args.seed),
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "pass_s": untraced},
        "setup_s": setup_s,
        "op_s.tail": {"percentile": tail_pct, "samples_beyond": beyond,
                      "samples": len(latencies)},
        "op_s.by_input": {name: statistics.median(values)
                          for name, values in by_input.items()},
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "pass_s": (statistics.median(untraced), "s"),
            # One op's latency, never the mean of two ops of different
            # inputs.
            "op_s.p50": (statistics.median_high(latencies), "s"),
            "op_s.tail": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
            "ok_frac": ((attempted - len(problems)) / attempted, "frac"),
        }
    else:
        metrics = per_layer(tracer, traced, untraced)
        spans_path = os.path.join(outdir, f"spans-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        details["spans"] = os.path.relpath(spans_path)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
