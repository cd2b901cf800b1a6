import itertools

import pytest

from wreathnorm.groups import (
    CapExceededError,
    FiniteGroup,
    builtin_group,
    canonical_group_json,
    compose,
    conjugacy_classes,
    generate_group,
    identity_perm,
    inverse_perm,
    is_normal,
    is_subgroup,
    normal_closure,
    parse_group_spec,
    perm_from_cycles,
    subgroup_closure,
)

A6_SPEC = '{"degree": 6, "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]}'
TABLE_GROUPS = ("S3", "A4", "S4", "A5", "Z2", "Z3", A6_SPEC, "psl27", "s3_reordered")


def chase(p, q):
    # independent image-chasing: where does i go under "p then q"?
    return tuple(q[p[i]] for i in range(len(p)))


def test_compose_identity_and_inverse():
    p = perm_from_cycles(5, [(0, 1, 2, 3, 4)])
    assert compose(identity_perm(5), p) == p
    assert compose(p, inverse_perm(p)) == identity_perm(5)


def test_compose_against_image_chasing_oracle():
    p = perm_from_cycles(5, [(0, 1, 2, 3, 4)])
    q = perm_from_cycles(5, [(0, 1, 2)])
    assert compose(p, q) == chase(p, q)
    # all pairs in S3 for good measure
    s3 = builtin_group("S3")
    for a in s3.elements:
        for b in s3.elements:
            assert compose(a, b) == chase(a, b)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_associativity_exhaustive_degree_3():
    s3 = builtin_group("S3")
    for p, q, r in itertools.product(s3.elements, repeat=3):
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_generate_group_orders():
    a5 = generate_group(
        [perm_from_cycles(5, [(0, 1, 2, 3, 4)]), perm_from_cycles(5, [(0, 1, 2)])]
    )
    assert len(a5) == 60
    assert len(generate_group([identity_perm(3)])) == 1
    assert len(generate_group([perm_from_cycles(2, [(0, 1)])])) == 2


def test_generate_group_deterministic_order():
    gens = [perm_from_cycles(5, [(0, 1, 2, 3, 4)]), perm_from_cycles(5, [(0, 1, 2)])]
    first = generate_group(gens)
    second = generate_group(gens)
    assert first.elements == second.elements
    assert first.identity_index == 0


def test_generate_group_cap():
    gens = [perm_from_cycles(5, [(0, 1, 2, 3, 4)]), perm_from_cycles(5, [(0, 1, 2)])]
    with pytest.raises(CapExceededError):
        generate_group(gens, size_cap=10)


def test_conjugacy_classes_a5(a5):
    table = conjugacy_classes(a5)
    assert sorted(table.sizes()) == [1, 12, 12, 15, 20]
    assert table.classes[table.class_of[a5.identity_index]] == frozenset(
        {a5.identity_index}
    )


def test_conjugacy_classes_s3_and_trivial(s3):
    assert sorted(conjugacy_classes(s3).sizes()) == [1, 2, 3]
    trivial = generate_group([identity_perm(1)])
    assert conjugacy_classes(trivial).sizes() == [1]


def test_conjugacy_witness_exists(a5):
    table = conjugacy_classes(a5)
    cls = next(c for c in table.classes if len(c) == 15)
    members = sorted(cls)
    g, h = members[0], members[5]
    x = a5.first_conjugator(g, h)
    assert x is not None and a5.conj(g, x) == h


def test_class_product_identity_class(s3, pairwise_product, class_mask):
    table = conjugacy_classes(s3)
    ident_cls = table.class_of[s3.identity_index]
    for cid in range(len(table.classes)):
        product = pairwise_product(s3, table.classes[ident_cls], table.classes[cid])
        assert product == table.classes[cid]
        assert table.mult[ident_cls][cid] == class_mask(s3, product) == 1 << cid


def test_class_product_s3_transpositions(s3, pairwise_product, class_mask):
    table = conjugacy_classes(s3)
    transpositions = next(c for c in table.classes if len(c) == 3)
    cid = table.class_of[min(transpositions)]
    product = pairwise_product(s3, transpositions, transpositions)
    three_cycles = next(c for c in table.classes if len(c) == 2)
    assert product == three_cycles | {s3.identity_index}
    assert table.mult[cid][cid] == class_mask(s3, product)


def test_class_product_a5_five_cycles_two_ways(a5, pairwise_product, class_mask):
    table = conjugacy_classes(a5)
    five_cycle_classes = [
        cid for cid, c in enumerate(table.classes) if len(c) == 12
    ]
    c1, c2 = five_cycle_classes
    fast = table.mult[c1][c2]
    # pairwise enumeration oracle
    slow = pairwise_product(a5, table.classes[c1], table.classes[c2])
    assert fast == class_mask(a5, slow)


@pytest.mark.parametrize("spec", TABLE_GROUPS)
def test_class_table_matches_pairwise_products(
    spec, group_of, pairwise_product, class_mask
):
    group = group_of(spec)
    table = group.conj_classes
    assert table.reps == tuple(min(c) for c in table.classes)
    assert list(table.reps) == sorted(table.reps)
    for c1, left in enumerate(table.classes):
        for c2, right in enumerate(table.classes):
            product = pairwise_product(group, left, right)
            assert table.mult[c1][c2] == class_mask(group, product)
            assert table.times(c1, 1 << c2) == table.mult[c1][c2]
        row_union = 0
        for m in table.mult[c1]:
            row_union |= m
        assert table.times(c1, (1 << len(table.classes)) - 1) == row_union
    n = len(group)
    commutators = {
        group.mul_many((group.inv(x), y, x, group.inv(y)))
        for x in range(n)
        for y in range(n)
    }
    assert table.commutators == class_mask(group, commutators)
    assert group.derived_subgroup == subgroup_closure(group, commutators)


def test_identity_class_follows_the_identity(s3_reordered):
    table = s3_reordered.conj_classes
    assert s3_reordered.identity_index == 2
    assert table.class_of[2] == 2 and table.classes[2] == {2}
    assert table.reps == (0, 1, 2)
    assert s3_reordered.derived_subgroup == {1, 2, 5}


def test_least_reads_the_least_class(s4):
    table = s4.conj_classes
    for mask in range(1, 1 << len(table.classes)):
        members = [a for a in range(len(s4)) if mask >> table.class_of[a] & 1]
        assert table.least(mask) == min(members)


def test_subgroup_and_normal_helpers(s3):
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    a3 = normal_closure(s3, [rot])
    assert len(a3) == 3 and is_subgroup(s3, a3) and is_normal(s3, a3)
    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    two = frozenset({s3.identity_index, tr})
    assert is_subgroup(s3, two) and not is_normal(s3, two)


def test_from_elements_rejects_non_closed(s3):
    tr = perm_from_cycles(3, [(0, 1)])
    rot = perm_from_cycles(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        FiniteGroup.from_elements([identity_perm(3), tr, rot])


def test_parse_group_spec_builtins_and_json():
    for name, order in [("A5", 60), ("S3", 6), ("S4", 24), ("A4", 12), ("Z2", 2), ("Z3", 3)]:
        assert len(parse_group_spec(name)) == order
    spec = {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]}
    assert len(parse_group_spec(spec)) == 6
    assert len(parse_group_spec('{"degree": 2, "generators": [[1, 0]]}')) == 2


def test_canonical_group_json_stable():
    a = canonical_group_json({"degree": 3, "generators": [[1, 0, 2]]})
    b = canonical_group_json('{"generators": [[1, 0, 2]], "degree": 3}')
    assert a == b
    assert canonical_group_json("A5") == canonical_group_json("A5")
