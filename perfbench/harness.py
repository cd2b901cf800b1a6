"""Shared pieces of the benchmark: spans, the closed-loop operation log, and
the metric definitions.

Spans are recorded here, around calls the workloads make into the program's
public functions; nothing inside ``src/`` is instrumented.  A span is
``[name, parent, start, end]`` kept in memory; a layer's self time is its
spans' durations minus the parts covered by child spans.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from statistics import median
from typing import Callable

DISAGREE_CLASSES = ("case1_shift_pm1", "case2_shift0_mixed", "unexplained")

# Span names whose per-call times are reported as p50/p99/count: the calls of
# each query kind in the closed-form stream.
QUERY_KINDS = (
    "gznorm.norm_gz",
    "gznorm.geodesic",
    "commutators.witness",
    "gznorm.almost_hom",
    "oracle.bounded_norm",
    "gznorm.norm_truncated",
    "norms.table",
    "weightfn.axioms",
)

TRUNCATION_LABELS = ("S3w1", "A4w1", "S4w1", "S3w2", "A5w1")

VALIDATORS = {
    "definiteness": "validate_definiteness",
    "symmetry": "validate_symmetry",
    "triangle": "validate_triangle_layers",
    "invariance": "validate_invariance_generators",
    "shift_bound": "validate_shift_bound",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def build_groups(tracer: "Tracer", ops: "Ops", names) -> dict:
    """Set-up shared by every workload: build the base groups and run the
    S1-S4 checks on each.  A5 must satisfy all four (C1); for A5 the
    statement cache the closed forms consult is filled here too, so the first
    timed call does not pay for it."""
    # imported here: this module loads before the worker puts src/ on the path
    from wreathnorm.groups import builtin_group
    from wreathnorm.props import check_all, satisfies_s_conditions

    groups = {}
    for name in names:
        with tracer.span("groups.build"):
            groups[name] = builtin_group(name)

        def check(name=name):
            with tracer.span("props.check_all"):
                reports = check_all(groups[name])
                if name == "A5":
                    return satisfies_s_conditions(groups[name]) and all(
                        r.holds for r in reports.values()
                    )
            return len(reports) == 4

        ops.run(f"check_all {name}", check)
    return groups


# -- spans ---------------------------------------------------------------------


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.record = [name, -1, 0.0, 0.0]

    def __enter__(self):
        tracer = self.tracer
        if tracer.open:
            self.record[1] = tracer.open[-1]
        tracer.open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[2] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[3] = time.perf_counter()
        self.tracer.open.pop()
        return False


class Tracer:
    """In-memory spans; a disabled tracer hands out a shared no-op span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, _, start, end), child in zip(self.spans, covered):
            totals[name] += end - start - child
        return dict(totals)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]


# -- metrics -------------------------------------------------------------------


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def per_layer_metrics(setup_tracer: "Tracer", passes: list[dict]) -> dict:
    """Every per-layer metric, from the traced pass(es) of one run.

    Times are per-pass self-time totals (medians if several passes were
    traced); set-up layers come from the traced set-up; counts come from one
    pass, since they repeat exactly.  A layer the workload does not call
    reads 0.
    """
    traced = [p for p in passes if p["traced"]]
    setup_times = setup_tracer.self_times()
    counts = traced[0]["counts"]
    out: dict[str, tuple[float, str]] = {}

    def span_s(name: str) -> float:
        return median([p["self_times"].get(name, 0.0) for p in traced])

    for layer in ("groups.build", "props.check_all", "oracle.sbar_context"):
        out[f"{layer}_s"] = (setup_times.get(layer, 0.0), "s")
    out["oracle.sbar_s"] = (span_s("oracle.sbar"), "s")
    out["oracle.sbar_gens"] = (counts.get("oracle.sbar_gens", 0), "count")
    for label in TRUNCATION_LABELS:
        out[f"oracle.bfs_s.{label}"] = (span_s(f"oracle.bfs.{label}"), "s")
    bfs_s = sum(span_s(f"oracle.bfs.{label}") for label in TRUNCATION_LABELS)
    out["oracle.bfs_states_per_s"] = (_rate(counts.get("oracle.bfs_states", 0), bfs_s), "1/s")
    for short in VALIDATORS:
        out[f"oracle.validate_{short}_s"] = (span_s(f"oracle.validate_{short}"), "s")
    out["oracle.set_power_s"] = (span_s("oracle.set_power"), "s")
    out["oracle.serialize_s"] = (span_s("oracle.serialize"), "s")
    out["oracle.serialize_bytes"] = (counts.get("oracle.serialize_bytes", 0), "B")
    for stem, work in (
        ("oracle.factor_image", "vectors"),
        ("oracle.pm_pair_image", "pairs"),
        ("oracle.pm_weight3", "triples"),
    ):
        out[f"{stem}_s"] = (span_s(stem), "s")
        out[f"{stem}_{work}"] = (counts.get(f"{stem}_{work}", 0), "count")
    targets_s = span_s("lamp.targets")
    out["lamp.targets_s"] = (targets_s, "s")
    out["lamp.elems_per_s"] = (_rate(counts.get("lamp.elems", 0), targets_s), "1/s")
    for layer in ("commutators.is_pm", "commutators.verify", "props.xi"):
        out[f"{layer}_s"] = (span_s(layer), "s")
    for kind in QUERY_KINDS:
        durations = [d for p in traced for d in p["kind_durations"][kind]]
        out[f"{kind}_ms.p50"] = (percentile(durations, 50) * 1e3, "ms")
        out[f"{kind}_ms.p99"] = (percentile(durations, 99) * 1e3, "ms")
        out[f"{kind}_ms.count"] = (len(durations) // len(traced), "count")
    for cls in DISAGREE_CLASSES:
        name = f"gznorm.oracle_mode_disagree.{cls}"
        out[name] = (counts.get(name, 0), "count")
    # the harness's own work: input generation, and checking outside any layer
    for layer in ("bench.inputs", "bench.check"):
        out[f"{layer}_s"] = (span_s(layer), "s")
    untraced_wall = median([p["wall_s"] for p in passes if not p["traced"]])
    out["trace.overhead_s"] = (median([p["wall_s"] for p in traced]) - untraced_wall, "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


# -- the closed-loop operation log -----------------------------------------------


class Ops:
    """One caller issuing one checked operation at a time.

    ``run`` times the operation end to end, wraps it in a ``bench.check`` span
    (whose self time is the harness's own checking) and counts it as failed
    when its check returns false or it raises.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: Counter = Counter()

    def run(self, label: str, fn: Callable[[], bool]) -> None:
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.tracer.span("bench.check"):
                ok = bool(fn())
            detail = "check failed"
        except Exception as exc:  # an operation that raises is a failed operation
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - start)
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {detail}")

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount
