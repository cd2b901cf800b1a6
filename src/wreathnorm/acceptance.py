"""The release gate: every criterion, runnable unattended.

Each criterion function returns a :class:`CriterionResult` with measured wall
time, the per-criterion budget, and a details dict suitable for machine
reports.  ``run_full`` executes all of them; ``run_quick`` executes the cheap
sanity tier.  The pytest acceptance module and the CLI selftest command both
call into here so there is a single source of truth.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, product as iter_product

from . import commutators as cm
from . import gznorm as gz
from . import norms as nm
from . import oracle as oc
from . import props as pr
from . import weightfn as wf
from .groups import (
    FiniteGroup,
    builtin_group,
    conjugacy_classes,
    normal_closure,
    perm_from_cycles,
)
from .lamp import LampElem, in_Sbar

C3_ELEMENTS = 1000  # random A5 torsion elements
C6_SETS = 100  # random K sets
RANDOM_TABLES = 1000  # seeded S3 pseudo-norms, in C7 and again in C8


@dataclass
class CriterionResult:
    cid: str
    name: str
    ok: bool
    elapsed: float
    budget: float | None
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        budget = f" (budget {self.budget:.0f}s)" if self.budget else ""
        return f"{self.cid} {self.name}: {status} in {self.elapsed:.1f}s{budget}"

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed, 3),
            "budget_s": self.budget,
            "details": self.details,
        }


@functools.cache
def group(name: str) -> FiniteGroup:
    return builtin_group(name)


def _timed(cid, name, budget, fn) -> CriterionResult:
    start = time.perf_counter()
    ok, details = fn()
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        ok = False
        details["budget_exceeded"] = elapsed
    return CriterionResult(cid, name, ok, elapsed, budget, details)


def random_torsion(
    rng: random.Random,
    base: FiniteGroup,
    max_weight: int,
    index_range: tuple[int, int],
) -> LampElem:
    lo, hi = index_range
    weight = rng.randint(0, max_weight)
    indices = rng.sample(range(lo, hi + 1), min(weight, hi - lo + 1))
    support = {i: rng.randrange(1, len(base)) for i in indices}
    return LampElem.make(base, support)


# -- criterion 1: S1-S4 on A5 -----------------------------------------------------


def criterion_1() -> CriterionResult:
    def run():
        base = group("A5")
        reports = pr.check_all(base)
        details = {k: r.to_json() for k, r in reports.items()}
        ok = all(r.holds for r in reports.values())
        witness = reports["S4"].witness
        if witness is not None:
            u1, u2, u3 = witness
            ident = base.identity_index
            reverified = (
                ident not in (u1, u2, u3)
                and not pr.xi(base, u1, u2, u3)
                and not pr.xi_naive(base, u1, u2, u3)
            )
            details["s4_witness_reverified"] = reverified
            ok = ok and reverified
        else:
            ok = False
        return ok, details

    return _timed("C1", "S1-S4 hold on A5 with re-verified S4 witness", 30.0, run)


# -- criterion 2: the xi counterexample -------------------------------------------


def criterion_2() -> CriterionResult:
    def run():
        base = group("A5")
        u1 = base.index[perm_from_cycles(5, [(0, 1), (2, 3)])]
        u2 = base.index[perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
        fast = pr.xi(base, u1, u2, u2)
        slow = pr.xi_naive(base, u1, u2, u2)
        return (fast is False and slow is False), {
            "xi_class_product": fast,
            "xi_direct_search": slow,
        }

    return _timed("C2", "xi((01)(23), 5-cycle, 5-cycle) is false on A5", None, run)


# -- criterion 3: witness round trips ----------------------------------------------


def criterion_3(seed: int = 20240901) -> CriterionResult:
    def run():
        base = group("A5")
        rng = random.Random(seed)
        failures = 0
        built = {"two_comm": 0, "pm": 0, "pm1": 0, "transport": 0}
        for _ in range(C3_ELEMENTS):
            h = random_torsion(rng, base, 7, (-5, 5))
            two_comm = {}
            for sign in (1, -1):
                witness, residual = cm.build_pm1_decomposition(h, sign)
                if cm.evaluate_witness(witness).mul(residual) != h:
                    failures += 1
                built["pm1"] += 1
                two_comm[sign] = cm.build_2_commutator(h, sign)
                if not cm.verify_witness(h, two_comm[sign]):
                    failures += 1
                built["two_comm"] += 1
            if h.weight() >= 4:
                for order in ("-+", "+-"):
                    wpm = cm.build_pm_commutator(h, order)
                    if not cm.verify_witness(h, wpm):
                        failures += 1
                    built["pm"] += 1
            if h.weight() >= 1:
                old = list(h.support_indices())
                new = [idx + 2 * (j + 1) for j, idx in enumerate(old)]
                try:
                    cm.transport(two_comm[1], old, new)
                except cm.TransportError:
                    failures += 1
                built["transport"] += 1
        return failures == 0, {"elements": C3_ELEMENTS, "failures": failures, **built}

    return _timed("C3", "witness builders round-trip on random elements", 120.0, run)


# -- criterion 4: predicate oracle equivalence --------------------------------------


def _window_targets(base: FiniteGroup, positions: tuple[int, ...]):
    for choice in iter_product(range(len(base)), repeat=len(positions)):
        yield LampElem.make(base, dict(zip(positions, choice)), 0, None)


def _telescoping_equivalence(
    base: FiniteGroup, targets: list[tuple], with_image: bool = False
) -> dict:
    """Ordered-product telescoping test against the exhaustive factor image,
    on each support in ``targets`` (and on every image member if asked)."""
    mismatches = 0
    checked = 0
    for sign in (1, -1):
        image = oc.factor_image(base, (1, 2, 3), sign)
        for support in chain(image if with_image else (), targets):
            checked += 1
            values = [v for _, v in support]
            if sign == -1:
                values.reverse()
            predicted = base.mul_many(values) == base.identity_index
            if predicted != (support in image):
                mismatches += 1
    return {"checked": checked, "mismatches": mismatches}


def _pm_equivalence_small(base: FiniteGroup) -> dict:
    """Exhaustive pair-search over vector windows versus the decider."""
    targets = list(_window_targets(base, (1, 2, 3)))
    wide = oc.pm_pair_image(base, (1, 2, 3, 4), "-+") | oc.pm_pair_image(
        base, (1, 2, 3, 4), "+-"
    )
    narrow = oc.pm_pair_image(base, (1, 2, 3), "-+") | oc.pm_pair_image(
        base, (1, 2, 3), "+-"
    )
    counts = {"direct_mismatch": 0, "inverted_mismatch": 0, "window_bound_mismatch": 0}
    for target in targets:
        truth = target.support in wide
        if cm.is_pm_commutator(target, "direct") != truth:
            counts["direct_mismatch"] += 1
        if cm.is_pm_commutator(target, "inverted") != truth:
            counts["inverted_mismatch"] += 1
        if target.weight() <= 2 and (target.support in narrow) != truth:
            counts["window_bound_mismatch"] += 1
    counts["targets"] = len(targets)
    return counts


def _pm_equivalence_a5_reps() -> dict:
    base = group("A5")
    reps = [r for r in base.conj_classes.reps if r != base.identity_index]
    counts = {"triples": 0, "direct_mismatch": 0, "inverted_mismatch": 0}
    for v1 in reps:
        for v2 in reps:
            for v3 in reps:
                counts["triples"] += 1
                found = oc.pm_weight3_exhaustive(base, v1, v2, v3)
                truth = found is not None
                h = LampElem.make(base, {1: v1, 2: v2, 3: v3})
                if truth:
                    a, b, e = found
                    c = base.mul(base.inv(v1), a)
                    d = base.mul_many((base.inv(v2), b, base.inv(a), base.inv(v1), a))
                    g1 = LampElem.make(base, {2: a, 3: b, 4: e})
                    g2 = LampElem.make(base, {2: c, 3: d, 4: e})
                    witness = cm.CommWitness(("pm", "-+"), (g1, g2))
                    if not cm.verify_witness(h, witness):
                        counts["direct_mismatch"] += 1
                        continue
                if cm.is_pm_commutator(h, "direct") != truth:
                    counts["direct_mismatch"] += 1
                if cm.is_pm_commutator(h, "inverted") != truth:
                    counts["inverted_mismatch"] += 1
    return counts


def criterion_4() -> CriterionResult:
    def run():
        details: dict = {}
        s3 = group("S3")
        s3_targets = [t.support for t in _window_targets(s3, (1, 2, 3))]
        details["telescoping_S3"] = _telescoping_equivalence(s3, s3_targets)
        # full target enumeration is 60^3 both ways on A5: compare on the
        # image itself plus a seeded sample of outside targets
        a5 = group("A5")
        rng = random.Random(4)
        a5_sample = [random_torsion(rng, a5, 3, (1, 3)).support for _ in range(20000)]
        details["telescoping_A5_window"] = _telescoping_equivalence(
            a5, a5_sample, with_image=True
        )
        details["pm_S3"] = _pm_equivalence_small(group("S3"))
        details["pm_Z3"] = _pm_equivalence_small(group("Z3"))
        details["pm_A5_reps"] = _pm_equivalence_a5_reps()
        core_clean = (
            details["telescoping_S3"]["mismatches"] == 0
            and details["telescoping_A5_window"]["mismatches"] == 0
            and details["pm_S3"]["direct_mismatch"] == 0
            and details["pm_S3"]["window_bound_mismatch"] == 0
            and details["pm_Z3"]["direct_mismatch"] == 0
            and details["pm_A5_reps"]["direct_mismatch"] == 0
        )
        inverted_separated = details["pm_Z3"]["inverted_mismatch"] > 0
        details["resolved_xi_variant"] = "direct" if core_clean and inverted_separated else "unresolved"
        return core_clean and inverted_separated, details

    return _timed(
        "C4", "derived predicates equal exhaustive search; xi variant resolved", 600.0, run
    )


# -- criterion 5: end-to-end norm oracle --------------------------------------------


def classify_mismatch(elem: LampElem) -> str:
    """The case-table row that a disagreement with BFS falls in."""
    if abs(elem.shift) == 1:
        return "case1_shift_pm1"
    if elem.shift == 0 and elem.weight() >= 3:
        return "case2_shift0_mixed"
    return "unexplained"


def criterion_5() -> CriterionResult:
    def run():
        details: dict = {}
        s3 = group("S3")
        res_s3 = oc.bfs_norms(s3, 1)
        powers = oc.set_power_norms(s3, 1)
        power_mismatch = sum(
            1 for elem, d in powers.items() if res_s3.norm_of(elem) != d
        )
        details["s3_order"] = len(res_s3.group)
        details["s3_set_power_mismatches"] = power_mismatch

        # oracle-mode table against BFS on every state; w2 has |m| = 2 rows
        formula_mismatches = {}
        for label, res in (("S3w1", res_s3), ("S3w2", oc.bfs_norms(s3, 2))):
            formula_mismatches[label] = sum(
                gz.norm_truncated(res.group.decode(code), mode="oracle")
                != int(res.distances[code])
                for code in range(len(res.group))
            )
        details["s3_formula_mismatches"] = formula_mismatches
        s3_ok = power_mismatch == 0 and not any(formula_mismatches.values())

        a5 = group("A5")
        res_a5 = oc.bfs_norms(a5, 1)
        details["a5_summary"] = res_a5.summary()
        a5_ok = (
            len(res_a5.group) == 648_000
            and res_a5.generator_count == 7377
            and oc.validate_definiteness(res_a5)
            and oc.validate_symmetry(res_a5)
            and oc.validate_triangle_layers(res_a5)
            and oc.validate_invariance_generators(res_a5)
            and oc.validate_shift_bound(res_a5)
        )
        details["a5_validators_ok"] = a5_ok
        return s3_ok and a5_ok, details

    return _timed("C5", "BFS oracle matches set powers; A5 truncation validates", 600.0, run)


# -- criterion 6: the truncation almost-homomorphism --------------------------------


def criterion_6(seed: int = 777) -> CriterionResult:
    def run():
        base = group("A5")
        rng = random.Random(seed)
        q_set = [0, 1, 2, 3, 4, 5]
        bad_sets = 0
        for _ in range(C6_SETS):
            size = rng.randint(1, 8)
            k_set = []
            for _ in range(size):
                torsion = random_torsion(rng, base, 4, (-3, 3))
                shift = rng.randint(-3, 3)
                k_set.append(torsion.mul(LampElem.t_power(base, shift)))
            big_n = gz.max_extent(k_set)
            report = gz.verify_KQ_almost_hom(
                lambda g, n=big_n: gz.phi(g, n),
                k_set,
                q_set,
                gz.norm_gz,
                lambda image: gz.norm_truncated(image, mode="theory"),
            )
            if not report.ok:
                bad_sets += 1
        return bad_sets == 0, {"k_sets": C6_SETS, "failing_sets": bad_sets}

    return _timed("C6", "truncation map is a K-Q almost-homomorphism", 300.0, run)


# -- criterion 7: norm transform properties ------------------------------------------


def _word_gens(base: FiniteGroup) -> frozenset[int]:
    return nm.conjugacy_closure(base, [base.index[g] for g in base.generators])


def _word_table(base: FiniteGroup) -> nm.NormTable:
    return nm.word_norm_bfs(base, _word_gens(base))


def _normal_subgroups_for(name: str, base: FiniteGroup) -> list[frozenset[int]]:
    if name == "S3":
        seed = base.index[perm_from_cycles(3, [(0, 1, 2)])]
        return [normal_closure(base, [seed])]
    if name == "A4":
        seed = base.index[perm_from_cycles(4, [(0, 1), (2, 3)])]
        return [normal_closure(base, [seed])]
    seeds = [
        base.index[perm_from_cycles(4, [(0, 1, 2)])],
        base.index[perm_from_cycles(4, [(0, 1), (2, 3)])],
    ]
    return [normal_closure(base, [s]) for s in seeds]


def random_pseudo_norm(rng: random.Random, base: FiniteGroup) -> nm.NormTable:
    """Shortest-path pseudo-norm from random symmetric rational edge costs.

    A cost a/b has b <= 8, so the search runs on integer multiples of
    1/840 = 1/lcm(1, ..., 8).
    """
    n = len(base)
    cost: dict[int, int] = {}
    for g in range(n):
        if g == base.identity_index or g in cost:
            continue
        a, b = rng.randint(1, 24), rng.randint(1, 8)
        cost[g] = cost[base.inv(g)] = a * (840 // b)
    dist: list[int | None] = [None] * n
    heap: list[tuple[int, int]] = [(0, base.identity_index)]
    while heap:
        d, x = heappop(heap)
        if dist[x] is not None:
            continue
        dist[x] = d
        row = base._mul_table[x]
        for s, c in cost.items():
            y = row[s]
            if dist[y] is None:
                heappush(heap, (d + c, y))
    return nm.NormTable(base, [Fraction(d or 0, 840) for d in dist])


def criterion_7(seed: int = 313) -> CriterionResult:
    def run():
        details: dict = {}
        failures = 0
        quotient_checks = []
        for name in ("S3", "A4", "S4"):
            base = group(name)
            gens = _word_gens(base)
            table = nm.word_norm_bfs(base, gens)
            for normal in _normal_subgroups_for(name, base):
                quotient_table, projection = nm.quotient_norm(table, normal)
                image = {projection[i] for i in gens}
                image.discard(quotient_table.group.identity_index)
                bfs = nm.word_norm_bfs(quotient_table.group, image)
                match = quotient_table.values == bfs.values
                quotient_checks.append(
                    {"group": name, "index": len(base) // len(normal), "match": match}
                )
                if not match:
                    failures += 1
                pulled = nm.NormTable(
                    base, [quotient_table[projection[i]] for i in range(len(base))]
                )
                lifted = nm.plus_epsilon(pulled, Fraction(1, 2))
                if not nm.validate_norm(lifted).ok:
                    failures += 1
        details["quotient_checks"] = quotient_checks

        base = group("S3")
        rng = random.Random(seed)
        round_bad = 0
        for _ in range(RANDOM_TABLES):
            table = random_pseudo_norm(rng, base)
            if not nm.validate_pseudo_norm(table).ok:
                round_bad += 1
                continue
            rounded = nm.integer_round(table)
            if not nm.validate_pseudo_norm(rounded).ok:
                round_bad += 1
            if nm.integer_round(rounded).values != rounded.values:
                round_bad += 1
        details["random_tables"] = RANDOM_TABLES
        details["integer_round_failures"] = round_bad
        failures += round_bad
        return failures == 0, details

    return _timed("C7", "norm transforms validate across S3, A4, S4", 300.0, run)


# -- criterion 8: the weight-function correspondence ---------------------------------


def _agreement_thresholds(table: nm.NormTable) -> list[Fraction]:
    """0, every value and every sum of two values, sorted.  The sums are
    formed on ``scale_to_integers`` of the values and mapped back."""
    values = {Fraction(v) for v in table.values}
    # a leading 1 scales to the common scale itself
    scale, *scaled = nm.scale_to_integers([Fraction(1), *values])
    sums = {a + b for a in scaled for b in scaled}
    return [Fraction(s, scale) for s in sorted(sums.union(scaled, [0]))]


def criterion_8(seed: int = 313) -> CriterionResult:
    def run():
        disagreements = 0
        roundtrip_bad = 0
        tables: list[nm.NormTable] = []
        for name in ("S3", "A4", "S4"):
            tables.append(_word_table(group(name)))
        rng = random.Random(seed)
        base = group("S3")
        for _ in range(RANDOM_TABLES):
            raw = random_pseudo_norm(rng, base)
            tables.append(raw)
            tables.append(nm.integer_round(raw))
        for table in tables:
            thresholds = _agreement_thresholds(table)
            f = wf.from_norm(table, thresholds)
            recovered = wf.w_of(f)
            if any(
                recovered[i] != Fraction(table[i]) for i in range(len(table.values))
            ):
                roundtrip_bad += 1
            axioms_ok = wf.check_axioms(f, "T_IPMG").ok
            validators_ok = (
                nm.validate_pseudo_norm(table).ok and nm.validate_invariance(table).ok
            )
            if axioms_ok != validators_ok:
                disagreements += 1
        return (disagreements == 0 and roundtrip_bad == 0), {
            "tables": len(tables),
            "roundtrip_failures": roundtrip_bad,
            "validator_disagreements": disagreements,
        }

    return _timed("C8", "weight functions round-trip and agree with validators", 300.0, run)


# -- runners -------------------------------------------------------------------------


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
]


def run_full(echo=print, seed: int = 0) -> list[CriterionResult]:
    """Run every criterion; a non-zero seed replaces the canonical seeds of
    the randomized selections (zero keeps the frozen defaults)."""
    results = []
    for fn in CRITERIA:
        params = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        result = fn(seed=seed) if (seed and "seed" in params) else fn()
        results.append(result)
        if echo:
            echo(result.line())
    return results


def run_quick(echo=print) -> list[CriterionResult]:
    """The cheap sanity tier: small identities that must always hold."""

    def run():
        base = group("S3")
        word = _word_table(base)
        a5 = group("A5")
        t = LampElem.t_power(a5, 1)
        checks = {
            "trivial_group_one_class": len(
                conjugacy_classes(builtin_group("Z2")).classes
            )
            == 2,
            "word_norm_gens_are_1": all(word[i] == 1 for i in _word_gens(base)),
            "ball_zero_is_identity": nm.ball(word, 0)
            == frozenset({base.identity_index}),
            "xi_trivial_instance": pr.xi(
                a5, 5, 9, a5.mul(a5.inv(9), a5.inv(5))
            ),
            "t_in_Tplus": in_Sbar(t),
            "t5_norm": gz.norm_gz(LampElem.t_power(a5, 5)) == 5,
            "single_norm": gz.norm_gz(LampElem.single(a5, 0, 7)) == 1,
            "identity_norm": gz.norm_gz(LampElem.identity(a5)) == 0,
            "phi_identity": gz.phi(LampElem.identity(a5), 2).is_identity(),
            "phi_overflow": gz.phi(LampElem.t_power(a5, 7), 2).is_identity(),
            "geodesic_t3": [f.shift for f in gz.geodesic(LampElem.t_power(a5, 3)).factors]
            == [1, 1, 1],
            "sbar_count_s3": len(oc.enumerate_Sbar(base, 1)) == 87,
        }
        return all(checks.values()), checks

    results = [_timed("Q", "quick sanity tier", 60.0, run)]
    if echo:
        for result in results:
            echo(result.line())
    return results
