import gc
import random
import weakref
from collections import Counter
from itertools import product

import pytest

from wreathnorm import props
from wreathnorm.groups import (
    builtin_group,
    class_product,
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


@pytest.mark.parametrize("spec", ["S3", "A4", "S4", "A5", "Z2", "Z3", *INLINE_GROUPS])
def test_class_minimum_scans_match_element_scans(spec):
    group = parse_group_spec(spec)
    assert check_S1(group) == _check_S1_reference(group)
    assert check_S2(group) == _check_S2_reference(group)


def test_s1_s2_reachable_sets_are_conjugation_equivariant(s4):
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
            class_product(s4, table.class_of[s4.inv(min(members))], c)
            for c, members in enumerate(table.classes)
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


def test_xi_reads_the_group_class_table(a5):
    table = conjugacy_classes(a5)
    assert table is a5.conj_classes
    u1, u2 = 1, 8
    xi(a5, u1, u2, 0)
    key = (table.class_of[a5.inv(u2)], table.class_of[a5.inv(u1)])
    assert key in table.products


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


def test_s3_class_reduction_matches_raw(s3, a4):
    assert check_S3(s3).holds == props._check_S3_raw(s3).holds
    assert check_S3(a4).holds == props._check_S3_raw(a4).holds


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
def test_commutator_pair_keys_are_the_class_algebra_commutator_set(spec):
    group = parse_group_spec(spec)
    table = group.conj_classes
    commutators = set().union(
        *(
            class_product(group, table.class_of[group.inv(rep)], c)
            for c, rep in enumerate(table.representatives())
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
