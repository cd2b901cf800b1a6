"""Workload ``closed-form-queries``: a seeded stream of mixed single-element
queries against the closed forms and the per-element oracles (C3, C6, C8).

Each query builds its input from the stream's generator, makes its calls and
re-verifies its own output:

* ``norm_gz``: the value is conjugation-invariant and within the shift bounds;
* ``geodesic``: ``check_geodesic`` passes and the length is ``norm_gz``;
* ``witness``: C3's builders on one element, each witness re-verified;
* ``almost_hom``: one of C6's K-sets through ``verify_KQ_almost_hom``;
* ``truncated``: ``bounded_norm`` (exact here: both truncations have
  diameter 3) on a random state of S3 w2 or A5 w1, checked for symmetry,
  against oracle-mode ``norm_truncated``.  Oracle mode is advisory, so a
  disagreement is counted by ``classify_mismatch`` class, not failed;
* ``table``: one of C8's random S3 pseudo-norms through ``integer_round``,
  ``from_norm`` and ``check_axioms``, as C7 and C8 check them.

The mix follows the calls ``selftest --scale full`` makes (``CRITERION_CALLS``).
Each of the ``SEGMENTS`` segments of the stream issues exactly those counts,
in an order shuffled from the seed; pass k runs segment k.  The inputs come
from the seed, apart from the truncated states (see ``run_pass``).  Every segment has the same composition, and a run measures whole
cycles of segments, so every run medians over the same mix.
"""

from __future__ import annotations

import random
from fractions import Fraction

from wreathnorm import commutators as cm
from wreathnorm import gznorm as gz
from wreathnorm import norms as nm
from wreathnorm import oracle
from wreathnorm import weightfn as wf
from wreathnorm.acceptance import classify_mismatch, random_pseudo_norm, random_torsion
from wreathnorm.lamp import LampElem

from harness import build_groups

# A query is one operation of the stream.
QUERY_UNIT = "operation"
SEGMENTS = 3
# Per segment, the number of queries of each kind: the calls the acceptance
# criteria make at full scale (src/wreathnorm/acceptance.py).
CRITERION_CALLS = {
    "norm_gz": 450,  # C6: 100 K-sets of randint(1, 8) elements, 4.5 on average
    "geodesic": 450,  # one per norm_gz query; no criterion calls it alone
    "witness": 1000,  # C3: 1000 elements
    "almost_hom": 100,  # C6: 100 K-sets
    "truncated": 648,  # C5: oracle-mode norm_truncated on all 648 S3 w1 states
    "table": 1000,  # C7 and C8: 1000 random S3 tables (the same seeded ones)
}
TINY_DIVISOR = 100
Q_SET = (0, 1, 2, 3, 4, 5)


class Context:
    def __init__(self, groups, sbar, calls: dict, seed: int):
        self.groups = groups
        self.a5 = groups["A5"]
        self.sbar = sbar
        self.calls = calls
        self.seed = seed
        self.states = None


def setup(tracer, ops, scale: str, seed: int, scratch) -> Context:
    groups = build_groups(tracer, ops, ("A5", "S3"))
    sbar = []
    truncations = (("S3", 2), ("A5", 1)) if scale == "full" else (("S3", 1),)
    for name, window in truncations:

        def build(name=name, window=window):
            with tracer.span("oracle.sbar_context"):
                ctx = oracle.SbarContext(oracle.TruncatedGroup(groups[name], window))
                ball2 = ctx.ball2
            sbar.append(ctx)
            return bool(ball2[ctx.gen_codes].all())

        ops.run(f"SbarContext {name}w{window}", build)
    divisor = 1 if scale == "full" else TINY_DIVISOR
    calls = {kind: max(1, count // divisor) for kind, count in CRITERION_CALLS.items()}
    return Context(groups, sbar, calls, seed)


def run_pass(ctx: Context, tracer, ops, segment: int) -> None:
    rng = random.Random(f"{ctx.seed}:{segment}")
    kinds = [kind for kind, count in ctx.calls.items() for _ in range(count)]
    rng.shuffle(kinds)
    # The truncated states do not depend on the seed: about 1% of all
    # queries are slow shift-0 states of oracle mode, and the slowest of
    # them set query_p999_ms.  Drawn from the seed, their number and their
    # times changed from run to run, and so did the tail.  The seed still
    # orders them among the other queries.
    ctx.states = random.Random(f"truncated states {segment}")
    for i, kind in enumerate(kinds):
        ops.run(f"query {segment}.{i} {kind}", lambda: QUERIES[kind](ctx, tracer, ops, rng))


def _c6_element(ctx, tracer, ops, rng) -> LampElem:
    with tracer.span("lamp.targets"):
        torsion = random_torsion(rng, ctx.a5, 4, (-3, 3))
        elem = torsion.mul(LampElem.t_power(ctx.a5, rng.randint(-3, 3)))
    ops.count("lamp.elems", 2)
    return elem


def _norm_gz(ctx, tracer, ops, rng) -> bool:
    g = _c6_element(ctx, tracer, ops, rng)
    with tracer.span("lamp.targets"):
        if rng.random() < 0.5:
            y = LampElem.t_power(ctx.a5, rng.choice((-1, 1)))
        else:
            y = LampElem.single(ctx.a5, rng.randint(-3, 3), rng.randrange(1, len(ctx.a5)))
        conjugated = g.conjugate(y)
    ops.count("lamp.elems", 2)
    with tracer.span("gznorm.norm_gz"):
        value = gz.norm_gz(g)
    with tracer.span("gznorm.norm_gz"):
        again = gz.norm_gz(conjugated)
    m = abs(g.shift)
    return value == again and m <= value <= max(m, 3)


def _geodesic(ctx, tracer, ops, rng) -> bool:
    g = _c6_element(ctx, tracer, ops, rng)
    with tracer.span("gznorm.geodesic"):
        geo = gz.geodesic(g)
        ok = gz.check_geodesic(geo)
    with tracer.span("gznorm.norm_gz"):
        value = gz.norm_gz(g)
    return ok and len(geo) == value


def _witness(ctx, tracer, ops, rng) -> bool:
    """C3 on one element: both single-sign decompositions, both 2-commutators,
    both mixed orders when the weight allows, and a support transport."""
    with tracer.span("lamp.targets"):
        h = random_torsion(rng, ctx.a5, 7, (-5, 5))
    ops.count("lamp.elems")
    with tracer.span("commutators.witness"):
        ok = True
        for sign in (1, -1):
            witness, residual = cm.build_pm1_decomposition(h, sign)
            ok = ok and cm.evaluate_witness(witness).mul(residual) == h
            ok = ok and cm.verify_witness(h, cm.build_2_commutator(h, sign))
        if h.weight() >= 4:
            for order in ("-+", "+-"):
                ok = ok and cm.verify_witness(h, cm.build_pm_commutator(h, order))
        if h.weight() >= 1:
            old = list(h.support_indices())
            new = [idx + 2 * (j + 1) for j, idx in enumerate(old)]
            cm.transport(cm.build_2_commutator(h, 1), old, new)
    return ok


def _almost_hom(ctx, tracer, ops, rng) -> bool:
    size = rng.randint(1, 8)
    k_set = [_c6_element(ctx, tracer, ops, rng) for _ in range(size)]
    big_n = gz.max_extent(k_set)
    with tracer.span("gznorm.almost_hom"):
        report = gz.verify_KQ_almost_hom(
            lambda g: gz.phi(g, big_n),
            k_set,
            Q_SET,
            gz.norm_gz,
            lambda image: gz.norm_truncated(image, mode="theory"),
        )
    return report.ok


def _truncated(ctx, tracer, ops, rng) -> bool:
    states = ctx.states
    sbar = states.choice(ctx.sbar)
    group = sbar.group
    width = group.code.width
    with tracer.span("lamp.targets"):
        digits = [states.randrange(len(group.base)) for _ in range(width)]
        g = LampElem.make(
            group.base,
            {j - group.window: d for j, d in enumerate(digits)},
            states.randrange(width),
            group.window,
        )
        g_inv = g.inverse()
    ops.count("lamp.elems", 2)
    with tracer.span("oracle.bounded_norm"):
        value = oracle.bounded_norm(sbar, g, 3)
    with tracer.span("oracle.bounded_norm"):
        again = oracle.bounded_norm(sbar, g_inv, 3)
    with tracer.span("gznorm.norm_truncated"):
        advisory = gz.norm_truncated(g, mode="oracle")
    if advisory != value:
        ops.count(f"gznorm.oracle_mode_disagree.{classify_mismatch(g)}")
    return (
        value is not None
        and value == again
        and value >= abs(g.shift)
        and (value == 0) == g.is_identity()
    )


def _thresholds(table: nm.NormTable) -> list[Fraction]:
    values = sorted({Fraction(v) for v in table.values})
    sums = {a + b for a in values for b in values}
    return sorted(set(values) | sums | {Fraction(0)})


def _table(ctx, tracer, ops, rng) -> bool:
    with tracer.span("bench.inputs"):
        raw = random_pseudo_norm(rng, ctx.groups["S3"])
    with tracer.span("norms.table"):
        rounded = nm.integer_round(raw)
        pseudo = [nm.validate_pseudo_norm(t).ok for t in (raw, rounded)]
        ok = all(pseudo) and nm.integer_round(rounded).values == rounded.values
        validators = [
            p and nm.validate_invariance(t).ok for p, t in zip(pseudo, (raw, rounded))
        ]
    with tracer.span("weightfn.axioms"):
        for table, validators_ok in zip((raw, rounded), validators):
            f = wf.from_norm(table, _thresholds(table))
            recovered = wf.w_of(f)
            ok = ok and all(
                recovered[i] == Fraction(table[i]) for i in range(len(table))
            )
            ok = ok and wf.check_axioms(f, "T_IPMG").ok == validators_ok
    return ok


QUERIES = {
    "norm_gz": _norm_gz,
    "geodesic": _geodesic,
    "witness": _witness,
    "almost_hom": _almost_hom,
    "truncated": _truncated,
    "table": _table,
}
