"""Child process for one workload: set up, then run passes for the time budget.

Started by ``run.py`` in a fresh interpreter, once per set-up sample and once
for the measured run.  The set-up clock starts before the program is
imported.  Prints one JSON line on stdout.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from statistics import median  # noqa: E402

from harness import QUERY_KINDS, Ops, Tracer, per_layer_metrics, percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "truncation-bfs": "truncation_bfs",
    "exhaustive-search": "exhaustive_search",
    "closed-form-queries": "closed_form_queries",
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import wreathnorm

    if not Path(wreathnorm.__file__).resolve().is_relative_to(src):
        print(f"wreathnorm imported from {wreathnorm.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = importlib.import_module(MODULES[args.workload])
    setup_tracer = Tracer(bool(args.trace))
    setup_ops = Ops(setup_tracer)
    ctx = workload.setup(setup_tracer, setup_ops, args.scale, args.seed, Path(args.scratch))
    setup_s = time.perf_counter() - SETUP_START
    out = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.setup_only:
        out.update(attempted=setup_ops.attempted, failed=setup_ops.failed, failures=setup_ops.failures)
        print(json.dumps(out))
        return 0

    # An untraced run measures whole cycles of the workload's segments, so
    # every run covers the same mix; another cycle starts while it is
    # predicted to end within the budget.  A traced run makes segment 0
    # untraced, then repeats it traced.
    deadline = time.perf_counter() + args.seconds
    passes = [_run_pass(workload, ctx, 0, traced=False)]
    if args.trace:
        passes.append(_run_pass(workload, ctx, 0, traced=True))
    else:
        passes += [_run_pass(workload, ctx, s, False) for s in range(1, workload.SEGMENTS)]
        cycles = [sum(p["wall_s"] for p in passes)]
        while time.perf_counter() + median(cycles) <= deadline:
            cycle = [_run_pass(workload, ctx, s, False) for s in range(workload.SEGMENTS)]
            cycles.append(sum(p["wall_s"] for p in cycle))
            passes += cycle

    untraced = [p for p in passes if not p["traced"]]
    # a whole pass through the segments, each at its median over the cycles
    wall = sum(
        median([p["wall_s"] for p in untraced if p["segment"] == s])
        for s in {p["segment"] for p in untraced}
    )
    if workload.QUERY_UNIT == "pass":
        # a query is a whole pass: its median is wall_s, its tail the slowest
        walls = [p["wall_s"] for p in untraced]
        p50, p999, samples = median(walls), max(walls), len(walls)
    else:
        # p99.9: the highest percentile with 10 samples beyond it in a cycle
        latencies = [t for p in untraced for t in p["latencies"]]
        p50, p999 = percentile(latencies, 50), percentile(latencies, 99.9)
        samples = len(latencies)
    out.update(
        attempted=setup_ops.attempted + sum(p["attempted"] for p in passes),
        failed=setup_ops.failed + sum(p["failed"] for p in passes),
        failures=setup_ops.failures + [f for p in passes for f in p["failures"]],
        passes=len(passes),
        wall_s=wall,
        query_p50_ms=p50 * 1e3,
        query_p999_ms=p999 * 1e3,
        query_unit=workload.QUERY_UNIT,
        query_samples=samples,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        counts=dict(passes[0]["counts"]),
        pass_walls=[(p["segment"], p["wall_s"], p["traced"]) for p in passes],
    )
    if args.trace:
        out["per_layer"] = per_layer_metrics(setup_tracer, passes)
    print(json.dumps(out))
    return 0


def _run_pass(workload, ctx, segment: int, traced: bool) -> dict:
    tracer = Tracer(traced)
    ops = Ops(tracer)
    start = time.perf_counter()
    workload.run_pass(ctx, tracer, ops, segment)
    summary = {
        "segment": segment,
        "wall_s": time.perf_counter() - start,
        "traced": traced,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "counts": ops.counts,
        "latencies": ops.latencies,
    }
    if traced:
        summary["self_times"] = tracer.self_times()
        summary["kind_durations"] = {k: tracer.durations(k) for k in QUERY_KINDS}
    return summary


if __name__ == "__main__":
    sys.exit(main())
