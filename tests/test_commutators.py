import random
from collections import Counter
from itertools import product

import pytest

from wreathnorm.commutators import (
    CommWitness,
    SolverError,
    _feasible_classes,
    build_2_commutator,
    build_pm1_decomposition,
    build_pm_commutator,
    evaluate_witness,
    factor_minus,
    factor_plus,
    is_pm_commutator,
    reverse_element,
    transport,
    verify_witness,
)
from wreathnorm.groups import builtin_group, parse_group_spec
from wreathnorm.lamp import LampElem
from wreathnorm.oracle import bfs_norms, pm_pair_image

A6_SPEC = '{"degree": 6, "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]}'


def rand_torsion(rng, base, max_w=6, span=4):
    weight = rng.randint(0, max_w)
    idxs = rng.sample(range(-span, span + 1), min(weight, 2 * span + 1))
    return LampElem.make(base, {i: rng.randrange(1, len(base)) for i in idxs}, 0)


def test_factor_minus_is_inverse_of_factor_plus(a5):
    rng = random.Random(0)
    for _ in range(30):
        vec = rand_torsion(rng, a5)
        assert factor_minus(vec) == factor_plus(vec).inverse()


def test_verify_trivial_witness(a5):
    ident = LampElem.identity(a5)
    w = CommWitness(("pm", "-+"), (ident, ident))
    assert verify_witness(ident, w)
    w2 = CommWitness(("k", 2), (ident, ident))
    assert verify_witness(ident, w2)


def test_corrupted_witness_fails(a5):
    rng = random.Random(1)
    h = rand_torsion(rng, a5, max_w=5)
    w = build_2_commutator(h, 1)
    assert verify_witness(h, w)
    g1, g2 = w.vectors
    support = dict(g1.support) or {0: 1}
    idx = next(iter(support))
    support[idx] = (support[idx] + 1) % len(a5) or 1
    corrupted = CommWitness(w.kind, (LampElem.make(a5, support, 0), g2))
    assert not verify_witness(h, corrupted)


def test_pm1_decomposition_round_trip(a5):
    rng = random.Random(2)
    for _ in range(150):
        h = rand_torsion(rng, a5)
        for sign in (1, -1):
            witness, residual = build_pm1_decomposition(h, sign)
            assert witness.kind == ("k", sign)
            assert residual.weight() <= 1
            assert evaluate_witness(witness).mul(residual) == h
            if h.support:
                assert residual.support_indices() in ((), (h.support_indices()[-1],))


def test_pm1_identity_flagged_trivial(a5):
    witness, residual = build_pm1_decomposition(LampElem.identity(a5), 1)
    assert residual.is_identity()
    assert evaluate_witness(witness).is_identity()


def test_two_commutator_both_signs(a5):
    rng = random.Random(3)
    for _ in range(150):
        h = rand_torsion(rng, a5, max_w=7, span=5)
        for sign in (1, -1):
            w = build_2_commutator(h, sign)
            assert w.kind == ("k", 2 * sign)
            assert verify_witness(h, w)


def test_two_commutator_requires_s1_s2(s3):
    h = LampElem.make(s3, {0: 3}, 0)
    with pytest.raises(ValueError, match="S1"):
        build_2_commutator(h, 1)


def test_two_commutator_step_verifies_within_one_step():
    # seeded elements of weight up to 10 on span -7..7: odd and even spans, gaps
    spans = set()
    for spec in ("A5", A6_SPEC):
        base = parse_group_spec(spec)
        rng = random.Random(23)
        for _ in range(150):
            h = rand_torsion(rng, base, max_w=10, span=7)
            indices = h.support_indices()
            if not indices:
                continue
            lo, hi = indices[0], indices[-1]
            spans.add(((hi - lo + 1) % 2, hi - lo + 1 > len(indices)))
            padded_lo = lo - (hi - lo + 1) % 2
            layout = set(range(padded_lo + 1, hi + 2))
            for sign in (1, -1):
                w = build_2_commutator(h, sign)
                assert w.kind == ("k", 2 * sign)
                assert verify_witness(h, w)
                for vec in w.vectors:
                    assert set(vec.support_indices()) <= layout
    assert spans == {(0, False), (0, True), (1, False), (1, True)}


def test_two_commutator_scans_no_conjugators():
    base = builtin_group("A5")  # fresh, so no other test has built its tables
    h = LampElem.make(base, {-2: 5, 0: 17, 1: 42, 4: 9}, 0)
    for sign in (1, -1):
        assert verify_witness(h, build_2_commutator(h, sign))
    assert "_conj_first" not in base.__dict__


def test_monotonicity_by_extension(a5):
    rng = random.Random(4)
    ident = LampElem.identity(a5)
    for _ in range(60):
        h = rand_torsion(rng, a5, max_w=5)
        w3 = CommWitness(("k", 3), build_2_commutator(h, 1).vectors + (ident,))
        assert w3.kind == ("k", 3)
        assert verify_witness(h, w3)
        w4 = CommWitness(("k", -4), build_2_commutator(h, -1).vectors + (ident, ident))
        assert w4.kind == ("k", -4)
        assert verify_witness(h, w4)


def test_pm_decision_small_weights(a5):
    assert is_pm_commutator(LampElem.identity(a5))
    assert not is_pm_commutator(LampElem.single(a5, 3, 9))
    g = 21
    conj = a5.conj(a5.inv(g), 17)
    yes = LampElem.make(a5, {0: g, 5: conj}, 0)
    assert is_pm_commutator(yes)
    w = build_pm_commutator(yes)
    assert verify_witness(yes, w)


@pytest.mark.parametrize("name", ["S3", "A4", "A5", "Z3"])
def test_pm_weight2_decision_is_the_conjugacy_test(name):
    base = builtin_group(name)
    for v1, v2 in product(range(1, len(base)), repeat=2):
        h = LampElem.make(base, {0: v1, 1: v2}, 0)
        assert is_pm_commutator(h) == (
            base.first_conjugator(base.inv(v1), v2) is not None
        )


def test_pm_weight2_scans_no_conjugators():
    base = builtin_group("A5")  # fresh, so no other test has built its tables
    for v1, v2 in ((5, base.inv(5)), (5, 17), (42, 9)):
        is_pm_commutator(LampElem.make(base, {-1: v1, 3: v2}, 0))
    assert "_conj_first" not in base.__dict__


def test_pm_weight3_matches_xi_and_builder(a5):
    from wreathnorm.props import xi

    rng = random.Random(5)
    for _ in range(200):
        vals = [rng.randrange(1, 60) for _ in range(3)]
        h = LampElem.make(a5, {1: vals[0], 2: vals[1], 3: vals[2]}, 0)
        expected = xi(a5, *vals)
        assert is_pm_commutator(h, "direct") == expected
        if expected:
            assert verify_witness(h, build_pm_commutator(h))
        else:
            with pytest.raises(SolverError):
                build_pm_commutator(h)


def test_pm_weight4_always_builds(a5, weight_rule):
    rng = random.Random(6)
    for _ in range(120):
        h = rand_torsion(rng, a5, max_w=7, span=5)
        while h.weight() < 4:
            h = rand_torsion(rng, a5, max_w=7, span=5)
        assert is_pm_commutator(h) and weight_rule(h)
        for order in ("-+", "+-"):
            w = build_pm_commutator(h, order)
            assert w.kind == ("pm", order)
            assert verify_witness(h, w)


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "Z3"])
def test_pm_decision_is_the_weight_rule_at_weight_3_and_below(name, weight_rule):
    # every support on two position sets, one of them with gaps, in both
    # argument variants of the weight-3 case
    base = builtin_group(name)
    weights = Counter()
    for positions in ((1, 2, 3), (0, 2, 5)):
        for choice in product(range(len(base)), repeat=3):
            h = LampElem.make(base, dict(zip(positions, choice)), 0)
            for variant in ("direct", "inverted"):
                assert is_pm_commutator(h, variant) == weight_rule(h, variant)
            weights[h.weight(), is_pm_commutator(h)] += 1
    assert set(weights) == {(0, True), (1, False)} | {
        (w, mixed) for w in (2, 3) for mixed in (True, False)
    }


@pytest.mark.parametrize("name", ["S3", "Z3"])
def test_pm_decision_is_the_pair_image_on_four_positions(name):
    # every support on 1..4, weight 4 included, against both orders of the
    # exhaustive pair search over the vectors on 1..4
    base = builtin_group(name)
    positions = (1, 2, 3, 4)
    image = pm_pair_image(base, positions, "-+") | pm_pair_image(base, positions, "+-")
    outcomes = Counter()
    for choice in product(range(len(base)), repeat=4):
        h = LampElem.make(base, dict(zip(positions, choice)), 0)
        mixed = is_pm_commutator(h)
        assert mixed == (h.support in image)
        outcomes[h.weight() == 4, mixed] += 1
    assert outcomes[True, True] and outcomes[True, False]


@pytest.mark.parametrize("spec", ["A5", "S4", "s3_reordered"])
def test_walk_backward_pass_matches_pairwise_products(
    spec, group_of, pairwise_product, class_mask
):
    # N_(w-1) = {1} and N_j = K(h_j^-1) . N_(j+1), as element sets
    base = group_of(spec)
    table = base.conj_classes
    rng = random.Random(f"walk masks {spec}")
    elements = [rand_torsion(rng, base, max_w=5, span=3) for _ in range(20)]
    elements += [
        LampElem.make(base, {i: rng.randrange(len(base)) for i in range(-2, 3)}, 0, 2)
        for _ in range(10)
    ]
    for h in elements:
        _, values, feasible = _feasible_classes(h)
        reach = {base.identity_index}
        expected = [class_mask(base, reach)]
        for value in reversed(values[:-1]):
            klass = table.classes[table.class_of[base.inv(value)]]
            reach = pairwise_product(base, klass, reach)
            expected.append(class_mask(base, reach))
        assert feasible == expected[::-1]
        assert is_pm_commutator(h) == (values[-1] in reach)


def test_walk_on_a_base_whose_identity_is_not_element_0(s3_reordered):
    base = s3_reordered
    mixed = 0
    for choice in product(range(len(base)), repeat=3):
        h = LampElem.make(base, dict(zip((1, 2, 3), choice)), 0)
        if is_pm_commutator(h):
            mixed += 1
            assert verify_witness(h, build_pm_commutator(h))
        else:
            with pytest.raises(SolverError):
                build_pm_commutator(h)
    assert mixed == 102


def test_weight_rule_fails_on_z2_at_weight_5(weight_rule):
    # Z2 satisfies S3 as encoded, so the rule calls (z, z, z, z, z) mixed; its
    # class product is {z}, and neither the walk nor the pair search agrees
    z2 = builtin_group("Z2")
    z = 1
    h = LampElem.make(z2, {i: z for i in range(1, 6)}, 0)
    assert weight_rule(h)
    assert not is_pm_commutator(h)
    positions = tuple(range(0, 7))
    image = pm_pair_image(z2, positions, "-+") | pm_pair_image(z2, positions, "+-")
    assert h.support not in image
    for order in ("-+", "+-"):
        with pytest.raises(SolverError):
            build_pm_commutator(h, order)
    # at even weight the rule and the walk agree again
    h4 = LampElem.make(z2, {i: z for i in range(1, 5)}, 0)
    assert is_pm_commutator(h4) and weight_rule(h4) and h4.support in image


def test_reverse_element_swaps_factor_shapes(a5):
    rng = random.Random(7)
    for _ in range(40):
        vec = rand_torsion(rng, a5)
        lhs = reverse_element(factor_minus(vec), 0)
        rhs = factor_plus(reverse_element(vec, 1))
        assert lhs == rhs


@pytest.mark.parametrize("name", ["Z3", "S3"])
def test_pm_exhaustive_window_oracle(name):
    """Both mixed orders, vectors over a window one wider than the support."""
    base = builtin_group(name)
    wide = pm_pair_image(base, (1, 2, 3, 4), "-+") | pm_pair_image(
        base, (1, 2, 3, 4), "+-"
    )
    mism_direct = mism_inverted = 0
    built = Counter()
    for choice in product(range(len(base)), repeat=3):
        target = LampElem.make(base, dict(zip((1, 2, 3), choice)), 0)
        truth = target.support in wide
        if is_pm_commutator(target, "direct") != truth:
            mism_direct += 1
        if is_pm_commutator(target, "inverted") != truth:
            mism_inverted += 1
        for order in ("-+", "+-"):
            try:
                witness = build_pm_commutator(target, order)
            except SolverError:
                assert not truth
            else:
                assert truth and verify_witness(target, witness)
        built[truth] += 1
    assert mism_direct == 0
    assert built[True] and built[False]
    if name == "Z3":
        assert mism_inverted > 0  # the usage-variant is separated (and refuted) here


# (base, window, seeded sample size); None takes every shift-0 state
TRUNCATED_PM_STATES = [("S3", 1, None), ("A5", 1, 400), ("A5", 2, 200)]


@pytest.mark.parametrize(
    "name, window, samples",
    TRUNCATED_PM_STATES,
    ids=[f"{name}w{window}" for name, window, _ in TRUNCATED_PM_STATES],
)
def test_truncated_pm_builder_matches_the_decision(name, window, samples):
    # The builder wraps round the window: it succeeds in both orders exactly
    # where the truncated decision says mixed, full support or not.
    base = builtin_group(name)
    positions = range(-window, window + 1)
    if samples is None:
        rows = product(range(len(base)), repeat=len(positions))
    else:
        rng = random.Random(f"truncated pm builder {name}w{window}")
        rows = ([rng.randrange(len(base)) for _ in positions] for _ in range(samples))
    bfs = bfs_norms(base, window) if samples is None else None
    outcomes = Counter()
    for values in rows:
        h = LampElem.make(base, dict(zip(positions, values)), 0, window)
        mixed = is_pm_commutator(h)
        if bfs is not None and h.weight() >= 3:
            # two shift-0 factors reach weight 2 at most
            assert mixed == (bfs.norm_of(h) == 2)
        for order in ("-+", "+-"):
            if mixed:
                witness = build_pm_commutator(h, order)
                assert witness.kind == ("pm", order)
                assert verify_witness(h, witness)
            else:
                with pytest.raises(SolverError):
                    build_pm_commutator(h, order)
        outcomes[mixed, h.weight() == len(positions)] += 1
    assert outcomes[True, True]  # full support, so the witness wraps
    assert {mixed for mixed, _ in outcomes} == {True, False}


def test_pm_window_bound_for_small_weights(s3):
    narrow = pm_pair_image(s3, (1, 2, 3), "-+") | pm_pair_image(s3, (1, 2, 3), "+-")
    wide = pm_pair_image(s3, (1, 2, 3, 4), "-+") | pm_pair_image(
        s3, (1, 2, 3, 4), "+-"
    )
    for choice in product(range(6), repeat=2):
        target = LampElem.make(s3, dict(zip((1, 2), choice)), 0)
        assert (target.support in narrow) == (target.support in wide)


def test_transport_identity_reindexing(a5):
    h = LampElem.make(a5, {1: 3, 2: 7}, 0)
    w = build_2_commutator(h, 1)
    same = transport(w, [1, 2], [1, 2])
    assert verify_witness(h, same)


def test_transport_spread_and_compress(a5):
    rng = random.Random(8)
    for _ in range(60):
        h = rand_torsion(rng, a5, max_w=5, span=3)
        if not h.support:
            continue
        w = build_2_commutator(h, 1)
        old = list(h.support_indices())
        new = [i * 3 - 5 for i in range(len(old))]
        new = [n + o - new[0] + old[0] + 7 for n, o in zip(new, old)]
        new = sorted(set(new))
        if len(new) != len(old):
            continue
        moved = transport(w, old, new)
        back = transport(moved, new, old)
        assert verify_witness(h, back)


def test_transport_pm_round_trip(a5):
    g = 9
    conj = a5.conj(a5.inv(g), 30)
    vals = (g, conj)
    h = LampElem.make(a5, {1: vals[0], 2: vals[1]}, 0)
    if is_pm_commutator(h):
        w = build_pm_commutator(h)
        spread = transport(w, [1, 2], [-5, 7])
        target = LampElem.make(a5, {-5: vals[0], 7: vals[1]}, 0)
        assert verify_witness(target, spread)
        back = transport(spread, [-5, 7], [1, 2])
        assert verify_witness(h, back)


def test_transport_input_validation(a5):
    h = LampElem.make(a5, {1: 3, 2: 7}, 0)
    w = build_2_commutator(h, 1)
    with pytest.raises(ValueError):
        transport(w, [1, 2], [5])
    with pytest.raises(ValueError):
        transport(w, [2, 1], [1, 2])
    with pytest.raises(ValueError):
        transport(w, [4, 9], [1, 2])  # product not supported there


def test_witness_json_round_trip(a5):
    rng = random.Random(9)
    h = rand_torsion(rng, a5, max_w=5)
    w = build_2_commutator(h, -1)
    doc = w.to_json()
    assert doc["kind"] == {"k": -2}
    assert tuple(LampElem.from_json(a5, v) for v in doc["vectors"]) == w.vectors
    assert verify_witness(h, w)
