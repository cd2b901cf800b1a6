"""Benchmark entry point: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload truncation-bfs --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the program from its
``src/``.  Set-up is sampled in ``SETUP_SAMPLES`` fresh interpreters (the last
one goes on to measure) and reported as their median.  With ``--trace 0`` the
result carries the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The full record goes to ``perfbench/results/``; the last line on stdout is
the JSON summary.  Exits 1 when any operation failed its check, 2 when the
program or the child cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("truncation-bfs", "exhaustive-search", "closed-form-queries")
SETUP_SAMPLES = 7
# Time a run may take beyond --seconds: the set-up samples, plus a whole
# cycle that starts within the budget and ends past it.
RUN_MARGIN_S = 130.0
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny runs cut-down inputs, for the smoke test",
    )
    args = parser.parse_args()
    run_deadline = time.perf_counter() + args.seconds + RUN_MARGIN_S

    if not (ROOT / "src" / "wreathnorm" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    child_args = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
        "--scratch", str(results_dir),
    ]

    setup_samples = []
    children = []
    # set-up repeats matter only for setup_s, an end-to-end metric
    repeats = SETUP_SAMPLES - 1 if not args.trace else 0
    for _ in range(repeats):
        child = _run_child(child_args + ["--setup-only"], env, run_deadline)
        if child is None:
            return 2
        setup_samples.append(child["setup_s"])
        children.append(child)
    result = _run_child(child_args, env, run_deadline)
    if result is None:
        return 2
    setup_samples.append(result["setup_s"])

    attempted = result["attempted"] + sum(c["attempted"] for c in children)
    failed = result["failed"] + sum(c["failed"] for c in children)
    failures = result["failures"] + [f for c in children for f in c["failures"]]
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "query_p50_ms": {"value": result["query_p50_ms"], "unit": "ms"},
            "query_p999_ms": {"value": result["query_p999_ms"], "unit": "ms"},
        }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "error_rate": failed / attempted,
        "failures": failures,
        "setup_samples_s": setup_samples,
        "passes": result["passes"],
        "pass_walls_s": result["pass_walls"],
        "query_unit": result["query_unit"],
        "query_samples": result["query_samples"],
        "counts": result["counts"],
        "environment": _environment(result["numpy"]),
    }
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} ({failed}/{attempted})", file=sys.stderr)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


def _run_child(child_args: list[str], env: dict, run_deadline: float) -> dict | None:
    """Run one worker to completion (killed at the run's deadline) and parse
    its last stdout line; None, with the reason on stderr, if it fails."""
    remaining = run_deadline - time.perf_counter()
    try:
        proc = subprocess.run(
            child_args,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired:
        print("error: workload child exceeded the run time limit", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(ROOT / "src"),
        "child_thread_env": THREAD_ENV,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout's own .git, read directly (no git process, and no
    walking up into an enclosing repository); "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tree_digest(root: Path) -> str:
    """sha256 over the program's Python sources (path and bytes), so results
    from a checkout without git history still name the code they measured."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
