import gc
import random
import weakref
from collections import Counter
from itertools import product

import pytest

from wreathnorm import props
from wreathnorm.groups import (
    builtin_group,
    conjugacy_classes,
    parse_group_spec,
    perm_from_cycles,
)
from wreathnorm.props import (
    PropReport,
    check_all,
    check_S1,
    check_S2,
    check_S3,
    check_S4,
    require_statements,
    satisfies_s_conditions,
    statement_holds,
    xi,
    xi_naive,
)

STATEMENTS = ("S1", "S2", "S3", "S4")
INLINE_GROUPS = (
    '{"degree": 4, "generators": [[1, 2, 3, 0], [3, 2, 1, 0]]}',
    '{"degree": 5, "generators": [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]]}',
)


def _s1_reachable_reference(group, a1):
    ia1 = group.inv(a1)
    return {
        group.mul_many((group.inv(x), ia1, y, x, group.inv(y)))
        for x in range(len(group))
        for y in range(len(group))
    }


def _check_S1_reference(group):
    """S1 scanned over every a1 in element order (the element-level loop)."""
    full = set(range(len(group)))
    for a1 in range(len(group)):
        reachable = _s1_reachable_reference(group, a1)
        if reachable != full:
            return PropReport("S1", False, (a1, min(full - reachable)))
    return PropReport("S1", True, None)


def _s2_reachable_reference(group, a1, a3):
    table = group.conj_classes
    ia1, ia3 = group.inv(a1), group.inv(a3)
    reachable = set()
    for u in range(len(group)):
        w = group.mul_many((a3, u, ia1, ia3))
        cls = table.classes[table.class_of[group.inv(u)]]
        reachable.update(group.mul(w, c) for c in cls)
    return reachable


def _check_S2_reference(group):
    """S2 scanned over every (a1, a3) in element order (the element-level loop)."""
    n = len(group)
    full = set(range(n))
    for a1 in range(n):
        for a3 in range(n):
            reachable = _s2_reachable_reference(group, a1, a3)
            if reachable != full:
                return PropReport("S2", False, (a1, min(full - reachable), a3))
    return PropReport("S2", True, None)


def _nontrivial_reps(group):
    """The least member of each non-trivial class, in class-id order."""
    table = group.conj_classes
    ident = group.identity_index
    return [min(c) for c in table.classes if ident not in c]


def _check_S3_reference(group, pairwise_product):
    """S3 over class representatives, with element-set products throughout."""
    table = group.conj_classes
    wanted = set(range(len(group))) - {group.identity_index}
    reps = _nontrivial_reps(group)
    klass = lambda u: table.classes[table.class_of[u]]
    for u1 in reps:
        for u2 in reps:
            pair = pairwise_product(group, klass(u1), klass(u2))
            for u3 in reps:
                uncovered = wanted - pairwise_product(group, pair, klass(u3))
                if uncovered:
                    return PropReport("S3", False, (u1, u2, u3, min(uncovered)))
    return PropReport("S3", True, None)


def _check_S4_reference(group, pairwise_product):
    """S4 over class representatives: the first pair whose xi-product misses a
    non-trivial element, with the least such element."""
    table = group.conj_classes
    wanted = set(range(len(group))) - {group.identity_index}
    reps = _nontrivial_reps(group)
    klass = lambda u: table.classes[table.class_of[u]]
    for u1 in reps:
        for u2 in reps:
            product = pairwise_product(
                group, klass(group.inv(u2)), klass(group.inv(u1))
            )
            if wanted - product:
                return PropReport("S4", True, (u1, u2, min(wanted - product)))
    return PropReport("S4", False, None)


@pytest.mark.parametrize(
    "spec",
    ["S3", "A4", "S4", "A5", "Z2", "Z3", *INLINE_GROUPS, "psl27", "s3_reordered"],
)
def test_s3_s4_reports_match_element_scans(spec, group_of, pairwise_product):
    group = group_of(spec)
    assert check_S3(group) == _check_S3_reference(group, pairwise_product)
    assert check_S4(group) == _check_S4_reference(group, pairwise_product)


def test_reports_on_a_base_whose_identity_is_not_element_0(s3_reordered):
    # S3 with the identity at index 2, in class 2
    assert [(r.holds, r.witness) for r in check_all(s3_reordered).values()] == [
        (False, (2, 0)),
        (False, (2, 0, 2)),
        (False, (0, 0, 0, 1)),
        (True, (0, 0, 0)),
    ]
    assert s3_reordered.derived_subgroup == {1, 2, 5}


def test_psl27_satisfies_s1_to_s4(psl27):
    reports = check_all(psl27)
    assert all(r.holds for r in reports.values())
    assert reports["S4"].witness == (1, 1, 34)
    assert not xi(psl27, 1, 1, 34)


@pytest.mark.parametrize("spec", ["S3", "A4", "S4", "A5", "Z2", "Z3", *INLINE_GROUPS])
def test_class_minimum_scans_match_element_scans(spec):
    group = parse_group_spec(spec)
    assert check_S1(group) == _check_S1_reference(group)
    assert check_S2(group) == _check_S2_reference(group)


def test_s1_s2_reachable_sets_are_conjugation_equivariant(s4, pairwise_product):
    # conjugating a1 (and a3 with it) by g conjugates the reachable set by g;
    # and the lemma behind check_S1/check_S2: R1(a1) = C a1^-1 and
    # a3^-1 R2(a1, a3) a3 = R1(a1), with C the union of K(c^-1) K(c)
    table = s4.conj_classes
    commutators = {
        s4.mul_many((s4.inv(x), y, x, s4.inv(y)))
        for x in range(len(s4))
        for y in range(len(s4))
    }
    assert commutators == set().union(
        *(
            pairwise_product(
                s4, table.classes[table.class_of[s4.inv(min(members))]], members
            )
            for members in table.classes
        )
    )
    rng = random.Random(6)
    for _ in range(20):
        a1, a3, g = (rng.randrange(len(s4)) for _ in range(3))
        conj = lambda items, h: {s4.conj(i, h) for i in items}
        r1 = _s1_reachable_reference(s4, a1)
        r2 = _s2_reachable_reference(s4, a1, a3)
        assert _s1_reachable_reference(s4, s4.conj(a1, g)) == conj(r1, g)
        assert _s2_reachable_reference(
            s4, s4.conj(a1, g), s4.conj(a3, g)
        ) == conj(r2, g)
        assert r1 == {s4.mul(c, s4.inv(a1)) for c in commutators}
        assert conj(r2, a3) == r1


def test_each_statement_computed_once_per_group(monkeypatch):
    calls = Counter()
    for name in STATEMENTS:
        checker = getattr(props, f"check_{name}")

        def counted(group, name=name, checker=checker):
            calls[name] += 1
            return checker(group)

        monkeypatch.setattr(props, f"check_{name}", counted)
        monkeypatch.setitem(props._CHECKERS, name, counted)
    for spec in ("A5", "S3"):
        group = builtin_group(spec)
        calls.clear()
        reports = check_all(group)
        assert check_all(group) == reports
        assert satisfies_s_conditions(group) == all(
            r.holds for r in reports.values()
        )
        for name in STATEMENTS:
            assert statement_holds(group, name) == reports[name].holds
            if not reports[name].holds:
                with pytest.raises(ValueError):
                    require_statements(group, (name,))
            else:
                require_statements(group, (name,))
        assert calls == Counter({name: 1 for name in STATEMENTS})


@pytest.mark.parametrize("spec", ["A5", "S4", "Z3", "psl27", "s3_reordered"])
def test_xi_reads_the_class_product_table(spec, group_of, pairwise_product):
    group = group_of(spec)
    table = conjugacy_classes(group)
    assert table is group.conj_classes
    for u1 in table.reps:
        for u2 in table.reps:
            product = pairwise_product(
                group,
                table.classes[table.class_of[group.inv(u2)]],
                table.classes[table.class_of[group.inv(u1)]],
            )
            for u3 in range(len(group)):
                assert xi(group, u1, u2, u3) is (u3 in product)


def test_all_statements_hold_on_a5(a5):
    reports = check_all(a5)
    assert all(r.holds for r in reports.values())


def test_s1_fails_on_abelian(z3):
    report = check_S1(z3)
    assert not report.holds
    a1, a2 = report.witness
    # abelian: x^-1 a1^-1 y x y^-1 collapses to a1^-1
    assert a2 != z3.inv(a1)


def test_xi_counterexample_triple(a5):
    u1 = a5.index[perm_from_cycles(5, [(0, 1), (2, 3)])]
    u2 = a5.index[perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    assert not xi(a5, u1, u2, u2)


def test_xi_trivial_realization(a5):
    rng = random.Random(3)
    for _ in range(25):
        u1, u2 = rng.randrange(60), rng.randrange(60)
        u3 = a5.mul(a5.inv(u2), a5.inv(u1))
        assert xi(a5, u1, u2, u3)  # x = y = 1 realizes it


def test_xi_class_product_equals_naive_search(a5):
    table = conjugacy_classes(a5)
    reps = [min(c) for c in table.classes]
    for u1 in reps:
        for u2 in reps:
            for u3 in reps:
                assert xi(a5, u1, u2, u3) == xi_naive(a5, u1, u2, u3)


def test_xi_conjugation_invariant_in_each_argument(a5):
    rng = random.Random(5)
    for _ in range(40):
        u1, u2, u3 = (rng.randrange(60) for _ in range(3))
        a, b, c = (rng.randrange(60) for _ in range(3))
        assert xi(a5, u1, u2, u3) == xi(
            a5, a5.conj(u1, a), a5.conj(u2, b), a5.conj(u3, c)
        )


def _check_S3_raw(group):
    """S3 over raw element triples, every conjugate enumerated."""
    ident = group.identity_index
    n = len(group)
    nontrivial = [i for i in range(n) if i != ident]
    for u1 in nontrivial:
        for u2 in nontrivial:
            for u3 in nontrivial:
                covered = set()
                for x in range(n):
                    a = group.conj(u1, x)
                    for y in range(n):
                        ab = group.mul(a, group.conj(u2, y))
                        covered.update(group.mul(ab, group.conj(u3, z)) for z in range(n))
                for u4 in nontrivial:
                    if u4 not in covered:
                        return PropReport("S3", False, (u1, u2, u3, u4))
    return PropReport("S3", True, None)


def test_s3_class_reduction_matches_raw(s3, a4):
    assert check_S3(s3).holds == _check_S3_raw(s3).holds
    assert check_S3(a4).holds == _check_S3_raw(a4).holds


def test_s4_witness(a5):
    report = check_S4(a5)
    assert report.holds
    u1, u2, u3 = report.witness
    assert not xi(a5, u1, u2, u3)
    assert a5.identity_index not in (u1, u2, u3)


def test_s4_holds_on_z3_but_not_trivially(z3):
    # abelian classes are singletons, so a product of two non-trivial classes
    # is a single element and never covers the other two
    assert check_S4(z3).holds
    from wreathnorm.groups import generate_group, identity_perm
    trivial = generate_group([identity_perm(1)])
    assert not check_S4(trivial).holds


A6_SPEC = '{"degree": 6, "generators": [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]}'


def _commutator(group, x, y):
    return group.mul_many((group.inv(x), y, x, group.inv(y)))


@pytest.mark.parametrize("spec", ["A5", A6_SPEC])
def test_commutator_pairs_reverify(spec):
    group = parse_group_spec(spec)
    pairs = group._commutator_pairs
    assert len(pairs) == len(group)
    for a, (x, y) in pairs.items():
        assert _commutator(group, x, y) == a


@pytest.mark.parametrize("spec", ["S3", "A4", "S4", "A5", "Z3", A6_SPEC])
def test_commutator_pair_keys_are_the_class_algebra_commutator_set(
    spec, pairwise_product
):
    group = parse_group_spec(spec)
    table = group.conj_classes
    commutators = set().union(
        *(
            pairwise_product(group, table.classes[table.class_of[group.inv(rep)]], k)
            for rep, k in zip(table.reps, table.classes)
        )
    )
    assert group._commutator_pairs.keys() == commutators
    assert statement_holds(group, "S1") == (len(commutators) == len(group))
    assert group._commutator_pairs[group.identity_index] == (0, 0)


@pytest.mark.parametrize("spec", ["A5", "S4"])
def test_commutator_pairs_equal_a_full_lexicographic_scan(spec):
    # A5 stops the scan early (C = P); S4 runs all |P|^2 pairs (C != P)
    group = parse_group_spec(spec)
    full = {}
    for x, y in product(range(len(group)), repeat=2):
        full.setdefault(_commutator(group, x, y), (x, y))
    assert group._commutator_pairs == full


def test_satisfies_s_conditions(a5, s3):
    assert satisfies_s_conditions(a5)
    assert not satisfies_s_conditions(s3)


def test_cached_statements_do_not_keep_groups_alive():
    group = builtin_group("S3")
    assert xi(group, 1, 1, 0)
    assert not satisfies_s_conditions(group)
    with pytest.raises(ValueError):
        require_statements(group, ("S1",))
    ref = weakref.ref(group)
    del group
    gc.collect()
    assert ref() is None
