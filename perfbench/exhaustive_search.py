"""Workload ``exhaustive-search``: the pure-Python existential oracles (C4).

Per pass, with C4's inputs:

* ``factor_image`` over the window (1, 2, 3) on S3 (checked against every
  target) and on A5 (every image member, plus 20,000 outside targets per
  sign drawn from the seed), each compared with the telescoping predicate;
* ``pm_pair_image`` on S3 and Z3 at widths 3 and 4, compared on every target
  with ``is_pm_commutator`` in the direct and the inverted variant;
* ``pm_weight3_exhaustive`` on every A5 class-representative triple, its
  witness re-verified, compared with ``is_pm_commutator`` and ``xi``.

Targets are built in bulk with ``LampElem.make``; the numpy BFS is not used.
"""

from __future__ import annotations

import random
from itertools import product as iter_product

from wreathnorm import commutators, oracle, props
from wreathnorm.acceptance import random_torsion
from wreathnorm.groups import conjugacy_classes
from wreathnorm.lamp import LampElem

from harness import build_groups

# A query is one whole pass: the job a caller of these bulk checks waits for.
QUERY_UNIT = "pass"
# The pass is one segment: it runs whole, as the criterion does.
SEGMENTS = 1
POSITIONS = (1, 2, 3)
CHUNK = 4096
OUTSIDE_SAMPLES = 20_000

# Image sizes at the commit that introduced this benchmark: factor images per
# base (both signs), pair images per (base, window width) (both orders).
FACTOR_IMAGE_SIZE = {"S3": 216, "A5": 216_000}
PAIR_IMAGE_SIZE = {("S3", 3): 640, ("S3", 4): 3878, ("Z3", 3): 27, ("Z3", 4): 81}


class Context:
    def __init__(self, groups, scale: str, seed: int, a5_reps):
        self.groups = groups
        self.full = scale == "full"
        self.seed = seed
        self.a5_reps = a5_reps


def setup(tracer, ops, scale: str, seed: int, scratch) -> Context:
    names = ("A5", "S3", "Z3") if scale == "full" else ("S3", "Z3")
    groups = build_groups(tracer, ops, names)
    reps = None
    if "A5" in groups:
        a5 = groups["A5"]
        with tracer.span("groups.build"):
            table = conjugacy_classes(a5)
        reps = [min(c) for c in table.classes if min(c) != a5.identity_index]
    return Context(groups, scale, seed, reps)


def run_pass(ctx: Context, tracer, ops, segment: int) -> None:
    _telescoping_full(tracer, ops, ctx.groups["S3"])
    if ctx.full:
        _telescoping_sampled(tracer, ops, ctx.groups["A5"], ctx.seed)
    for name in ("S3", "Z3") if ctx.full else ("Z3",):
        _pm_small(tracer, ops, ctx.groups[name], name)
    # C4 resolves the xi variant only if the inverted one is separated on Z3.
    ops.run(
        "inverted variant separated on Z3",
        lambda: ops.counts["commutators.inverted_mismatch.Z3"] > 0,
    )
    if ctx.full:
        _pm_weight3(tracer, ops, ctx.groups["A5"], ctx.a5_reps)


def _window_supports(base) -> list[dict]:
    return [
        dict(zip(POSITIONS, choice))
        for choice in iter_product(range(len(base)), repeat=len(POSITIONS))
    ]


def _telescoping(values, base, sign) -> bool:
    order = values if sign == 1 else reversed(values)
    return base.mul_many(order) == base.identity_index


def _build_targets(tracer, ops, base, supports) -> list:
    with tracer.span("lamp.targets"):
        targets = [LampElem.make(base, s, 0, None) for s in supports]
    ops.count("lamp.elems", len(targets))
    return targets


def _factor_image(tracer, ops, base, name, sign, out):
    def op():
        with tracer.span("oracle.factor_image"):
            image = oracle.factor_image(base, POSITIONS, sign)
        ops.count("oracle.factor_image_vectors", len(base) ** len(POSITIONS))
        out["image"] = image
        return len(image) == FACTOR_IMAGE_SIZE[name]

    ops.run(f"factor_image {name} sign {sign}", op)


def _telescoping_full(tracer, ops, base):
    """Every window target of S3 against the image (C4 ``telescoping_S3``)."""
    supports = _window_supports(base)
    for sign in (1, -1):
        out: dict = {}
        _factor_image(tracer, ops, base, "S3", sign, out)

        def op(sign=sign):
            image = out["image"]
            targets = _build_targets(tracer, ops, base, supports)
            return all(
                _telescoping(t.support_values(), base, sign) == (t.support in image)
                for t in targets
            )

        ops.run(f"telescoping S3 sign {sign}", op)


def _telescoping_sampled(tracer, ops, base, seed):
    """A5: every image member, then a seeded outside sample (C4
    ``telescoping_A5_window``; C4 itself uses seed 4).  One sign at a time,
    so the harness keeps only one 216,000-member image alive."""
    for sign in (1, -1):
        _telescoping_sampled_sign(tracer, ops, base, seed, sign)


def _telescoping_sampled_sign(tracer, ops, base, seed, sign):
    out: dict = {}
    _factor_image(tracer, ops, base, "A5", sign, out)
    members = list(out.get("image", ()))
    for start in range(0, len(members), CHUNK):

        def op(chunk=members[start : start + CHUNK]):
            targets = _build_targets(tracer, ops, base, chunk)
            return all(_telescoping(t.support_values(), base, sign) for t in targets)

        ops.run(f"A5 image members sign {sign} @{start}", op)
    rng = random.Random(seed)
    for start in range(0, OUTSIDE_SAMPLES, CHUNK):
        size = min(CHUNK, OUTSIDE_SAMPLES - start)

        def op(size=size):
            image = out["image"]
            with tracer.span("lamp.targets"):
                targets = [random_torsion(rng, base, 3, (1, 3)) for _ in range(size)]
            ops.count("lamp.elems", size)
            return all(
                _telescoping(t.support_values(), base, sign) == (t.support in image)
                for t in targets
            )

        ops.run(f"A5 outside sample sign {sign} @{start}", op)


def _pm_small(tracer, ops, base, name):
    """Pair images against ``is_pm_commutator`` (C4 ``pm_S3`` / ``pm_Z3``).

    The direct variant and the window bound must never miss; the inverted
    variant's misses are counted (C4 requires some on Z3).
    """
    images = {}
    for width in (3, 4):
        window = tuple(range(1, width + 1))
        for order in ("-+", "+-"):

            def op(window=window, order=order, width=width):
                with tracer.span("oracle.pm_pair_image"):
                    image = oracle.pm_pair_image(base, window, order)
                ops.count("oracle.pm_pair_image_pairs", len(base) ** (2 * width))
                images[width, order] = image
                return len(image) == PAIR_IMAGE_SIZE[name, width]

            ops.run(f"pm_pair_image {name} width {width} {order}", op)
    wide = images.get((4, "-+"), set()) | images.get((4, "+-"), set())
    narrow = images.get((3, "-+"), set()) | images.get((3, "+-"), set())
    targets = _build_targets(tracer, ops, base, _window_supports(base))
    for target in targets:

        def op(target=target):
            truth = target.support in wide
            with tracer.span("commutators.is_pm"):
                direct = commutators.is_pm_commutator(target, "direct")
                inverted = commutators.is_pm_commutator(target, "inverted")
            ops.count(f"commutators.inverted_mismatch.{name}", inverted != truth)
            window_ok = target.weight() > 2 or (target.support in narrow) == truth
            return direct == truth and window_ok

        ops.run(f"is_pm_commutator {name} {target.support}", op)


def _pm_weight3(tracer, ops, base, reps):
    """Every A5 class-representative triple (C4 ``pm_A5_reps``)."""
    for v1, v2, v3 in iter_product(reps, repeat=3):

        def op(v1=v1, v2=v2, v3=v3):
            with tracer.span("oracle.pm_weight3"):
                found = oracle.pm_weight3_exhaustive(base, v1, v2, v3)
            ops.count("oracle.pm_weight3_triples")
            truth = found is not None
            with tracer.span("lamp.targets"):
                h = LampElem.make(base, {1: v1, 2: v2, 3: v3})
                if truth:
                    a, b, e = found
                    c = base.mul(base.inv(v1), a)
                    d = base.mul_many((base.inv(v2), b, base.inv(a), base.inv(v1), a))
                    g1 = LampElem.make(base, {2: a, 3: b, 4: e})
                    g2 = LampElem.make(base, {2: c, 3: d, 4: e})
            ops.count("lamp.elems", 3 if truth else 1)
            if truth:
                with tracer.span("commutators.verify"):
                    witness = commutators.CommWitness(("pm", "-+"), (g1, g2))
                    if not commutators.verify_witness(h, witness):
                        return False
            with tracer.span("commutators.is_pm"):
                direct = commutators.is_pm_commutator(h, "direct")
                inverted = commutators.is_pm_commutator(h, "inverted")
            with tracer.span("props.xi"):
                xi = props.xi(base, v1, v2, v3)
            ops.count("commutators.inverted_mismatch.A5", inverted != truth)
            return direct == truth and xi == truth

        ops.run(f"pm_weight3_exhaustive {(v1, v2, v3)}", op)
