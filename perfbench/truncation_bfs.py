"""Workload ``truncation-bfs``: the dense BFS oracle and its validators (C5).

Per pass, for each truncation: ``enumerate_Sbar``, ``bfs_norms`` and all five
large-table validators; then ``set_power_norms`` on S3 w1 against the BFS
distances, the oracle-mode case table over every S3 w1 state (as C5 does),
and a WNBF1 write and read of the last truncation.  The inputs are whole
groups, so the seed selects nothing here.  A4 w2 (1.24M states) is left out:
its BFS alone takes minutes.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from wreathnorm import gznorm, oracle
from wreathnorm.acceptance import classify_mismatch

from harness import VALIDATORS, build_groups

# A query is one whole pass: the job a caller of these bulk checks waits for.
QUERY_UNIT = "pass"
# The pass is one segment: it runs whole, as the criterion does.
SEGMENTS = 1
FULL = (("S3", 1), ("A4", 1), ("S4", 1), ("S3", 2), ("A5", 1))
TINY = (("S3", 1), ("A4", 1))

# Layer sizes, generator count and sha256 of the uint8 distance body, as
# computed by the dense BFS at the commit that introduced this benchmark.
PINNED = {
    "S3w1": ((1, 87, 497, 63), 87,
             "ae9a07a3c633c086f6f7fb681c3b373952793cf043353972c2097b70b78563f6"),
    "A4w1": ((1, 321, 3974, 888), 321,
             "dfc0d18ced609aba2f567f6fa90dfe1e4d6d693e0fc58111e810b03d591adfaf"),
    "S4w1": ((1, 1221, 33950, 6300), 1221,
             "6f1577784f1a4784d1dbc5668afb2aade1c4684b8036367a07f30dc07d6df495"),
    "S3w2": ((1, 2617, 24733, 11529), 2617,
             "8f8c80f9cebbc3696c3a7f5861a86b9d5a88279a3e5baf33142559161d18494a"),
    "A5w1": ((1, 7377, 627662, 12960), 7377,
             "b0816ae0579e4f17869fbb4c231edfac890ca3e98bd84267af116d4e892fa22f"),
}


class Context:
    def __init__(self, groups, truncations, scratch: Path):
        self.groups = groups
        self.truncations = truncations
        self.scratch = scratch


def setup(tracer, ops, scale: str, seed: int, scratch: Path) -> Context:
    truncations = FULL if scale == "full" else TINY
    names = sorted({name for name, _ in truncations})
    groups = build_groups(tracer, ops, names)
    return Context(groups, truncations, scratch)


def run_pass(ctx: Context, tracer, ops, segment: int) -> None:
    results: dict = {}
    for name, window in ctx.truncations:
        label = f"{name}w{window}"
        base = ctx.groups[name]
        _sbar(tracer, ops, base, window, label)
        _bfs(tracer, ops, base, window, label, results)
        for short, fn_name in VALIDATORS.items():
            _validate(tracer, ops, results, label, short, getattr(oracle, fn_name))
    _set_power(tracer, ops, ctx.groups["S3"], results)
    _oracle_mode_sweep(tracer, ops, results)
    name, window = ctx.truncations[-1]
    _serialize(tracer, ops, results, f"{name}w{window}", ctx.scratch)


def _sbar(tracer, ops, base, window, label):
    def op():
        with tracer.span("oracle.sbar"):
            gens = oracle.enumerate_Sbar(base, window)
        b, w = len(base), 2 * window + 1
        ops.count("oracle.sbar_gens", len(gens))
        return len(gens) == w * (b - 1) + 2 * b ** (w - 1)

    ops.run(f"enumerate_Sbar {label}", op)


def _bfs(tracer, ops, base, window, label, results):
    def op():
        with tracer.span(f"oracle.bfs.{label}"):
            res = oracle.bfs_norms(base, window)
        results[label] = res
        ops.count("oracle.bfs_states", len(res.group))
        layers, gen_count, digest = PINNED[label]
        return (
            tuple(res.layer_sizes) == layers
            and res.generator_count == gen_count
            and hashlib.sha256(res.distances.tobytes()).hexdigest() == digest
        )

    ops.run(f"bfs_norms {label}", op)


def _validate(tracer, ops, results, label, short, fn):
    def op():
        res = results[label]
        with tracer.span(f"oracle.validate_{short}"):
            return fn(res)

    ops.run(f"validate_{short} {label}", op)


def _set_power(tracer, ops, s3, results):
    def op():
        with tracer.span("oracle.set_power"):
            powers = oracle.set_power_norms(s3, 1)
        res = results["S3w1"]
        return len(powers) == len(res.group) and all(
            res.norm_of(elem) == d for elem, d in powers.items()
        )

    ops.run("set_power_norms S3w1", op)


def _oracle_mode_sweep(tracer, ops, results):
    """C5's sweep: the oracle-mode case table against BFS on every S3 w1 state.

    Oracle mode is advisory, so a disagreement is counted by class, and only
    an unexplained one on S3 w1 fails (as in C5).
    """

    def op():
        res = results["S3w1"]
        unexplained = 0
        for code in range(len(res.group)):
            elem = res.group.decode(code)
            with tracer.span("gznorm.norm_truncated"):
                value = gznorm.norm_truncated(elem, mode="oracle")
            if value != int(res.distances[code]):
                kind = classify_mismatch(elem)
                ops.count(f"gznorm.oracle_mode_disagree.{kind}")
                unexplained += kind == "unexplained"
        return unexplained == 0

    ops.run("norm_truncated oracle sweep S3w1", op)


def _serialize(tracer, ops, results, label, scratch: Path):
    def op():
        res = results[label]
        path = scratch / f"norms-{os.getpid()}.bin"
        try:
            with tracer.span("oracle.serialize"):
                oracle.write_norms_binary(path, res)
                header, body = oracle.read_norms_binary(path)
            ops.count("oracle.serialize_bytes", path.stat().st_size)
        finally:
            path.unlink(missing_ok=True)
        return (
            header["layer_sizes"] == res.layer_sizes
            and header["order"] == len(res.group)
            and body.tobytes() == res.distances.tobytes()
        )

    ops.run(f"WNBF1 write+read {label}", op)
