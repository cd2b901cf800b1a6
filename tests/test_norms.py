import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wreathnorm.groups import (
    builtin_group,
    normal_closure,
    perm_from_cycles,
    subgroup_closure,
)
from wreathnorm.norms import (
    NormTable,
    ValidationReport,
    Violation,
    ball,
    conjugacy_closure,
    integer_round,
    plus_epsilon,
    profinite_norm,
    quotient_norm,
    restrict_norm,
    validate_invariance,
    validate_norm,
    validate_pseudo_norm,
    word_norm_bfs,
)


def zero_one_norm(group):
    return NormTable(
        group, [0 if i == group.identity_index else 1 for i in range(len(group))]
    )


def test_bfs_table_is_pseudo_norm(s3_word_table):
    assert validate_pseudo_norm(s3_word_table).ok


def test_identity_violation_detected(s3):
    values = [1] * len(s3)
    report = validate_pseudo_norm(NormTable(s3, values))
    assert not report.ok
    assert any(v.axiom == "N1" for v in report.violations)


def test_planted_triangle_violation_detected(s3, s3_word_table):
    values = list(s3_word_table.values)
    # push one non-identity pair's product value above the triangle bound
    values[5] = Fraction(99)
    values[s3.inv(5)] = Fraction(99)
    report = validate_pseudo_norm(NormTable(s3, values))
    assert not report.ok
    bad = [v for v in report.violations if v.axiom == "N3"]
    assert bad
    g, h, gh = bad[0].witness
    assert s3.mul(g, h) == gh
    assert values[gh] > values[g] + values[h]


def test_zero_one_norm_is_invariant_norm(s3):
    table = zero_one_norm(s3)
    assert validate_norm(table).ok
    assert validate_invariance(table).ok


def test_invariance_violation_over_non_closed_gens(s3):
    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    table = word_norm_bfs(s3, [tr, rot])  # not a class-closed set
    assert not validate_invariance(table).ok
    closed = word_norm_bfs(s3, conjugacy_closure(s3, [tr, rot]))
    assert validate_invariance(closed).ok


def test_restrict_norm(a5, a5_word_table):
    five = a5.index[perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    cyclic = subgroup_closure(a5, [five])
    table, embed = restrict_norm(a5_word_table, cyclic)
    assert len(table.group) == 5
    assert validate_pseudo_norm(table).ok
    for new, old in enumerate(embed):
        assert table[new] == a5_word_table[old]
    # restricting to the trivial subgroup leaves only the zero value
    trivial, _ = restrict_norm(a5_word_table, [a5.identity_index])
    assert trivial.values == (0,)


def test_restrict_rejects_non_subgroup(a5, a5_word_table):
    with pytest.raises(ValueError):
        restrict_norm(a5_word_table, [a5.identity_index, 5])


def test_quotient_trivial_and_full(s3, s3_word_table):
    same, proj = quotient_norm(s3_word_table, [s3.identity_index])
    assert sorted(same.values) == sorted(s3_word_table.values)
    assert sorted(proj) == list(range(6))
    collapsed, proj = quotient_norm(s3_word_table, range(len(s3)))
    assert collapsed.values == (0,)
    assert set(proj) == {0}


def test_quotient_s3_by_a3(s3, s3_word_table):
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    a3 = normal_closure(s3, [rot])
    table, proj = quotient_norm(s3_word_table, a3)
    assert len(table.group) == 2
    assert table[table.group.identity_index] == 0
    nontrivial = 1 - table.group.identity_index
    coset = [i for i in range(len(s3)) if proj[i] == nontrivial]
    assert table[nontrivial] == min(s3_word_table[i] for i in coset) == 1
    assert validate_norm(table).ok


def test_quotient_rejects_non_normal(s3, s3_word_table):
    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    with pytest.raises(ValueError):
        quotient_norm(s3_word_table, [s3.identity_index, tr])


def test_plus_epsilon(s3, s3_word_table):
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    a3 = normal_closure(s3, [rot])
    qt, proj = quotient_norm(s3_word_table, a3)
    pulled = NormTable(s3, [qt[proj[i]] for i in range(len(s3))])
    assert len(pulled.kernel()) == 3
    lifted = plus_epsilon(pulled, Fraction(1, 2))
    assert validate_norm(lifted).ok
    for i in range(len(s3)):
        if pulled[i] != 0:
            assert lifted[i] == pulled[i]
    with pytest.raises(ValueError):
        plus_epsilon(pulled, Fraction(1))  # >= min nonzero value
    with pytest.raises(ValueError):
        plus_epsilon(pulled, 0)


def test_integer_round_rules(s3):
    values = [0, Fraction(1, 2), Fraction(6, 5), 1, 2, Fraction(1, 2)]
    # make it symmetric under inversion for a well-formed table
    table = NormTable(s3, [values[i] for i in range(6)])
    rounded = integer_round(table)
    assert rounded[1] == 1  # 1/2 -> 1
    assert rounded[2] == 2  # 6/5 -> 2
    assert rounded[3] == 1 and rounded[4] == 2  # integers unchanged
    assert integer_round(rounded).values == rounded.values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=0, max_value=8), min_size=6, max_size=6))
def test_integer_round_never_breaks_achieved_triangle(raw):
    # force a valid pseudo-norm first: symmetrize and run a closure pass
    s3 = builtin_group("S3")
    values = [Fraction(0)] + [max(v, Fraction(1, 7)) for v in raw[1:]]
    for i in range(6):
        j = s3.inv(i)
        values[j] = values[i] = min(values[i], values[j])
    # shortest-path closure makes it a genuine pseudo-norm
    for _ in range(6):
        for g in range(6):
            for h in range(6):
                gh = s3.mul(g, h)
                if values[gh] > values[g] + values[h]:
                    values[gh] = values[g] + values[h]
    table = NormTable(s3, values)
    assert validate_pseudo_norm(table).ok
    assert validate_pseudo_norm(integer_round(table)).ok


def test_profinite_norm_z4():
    z4 = builtin_group("Z4")
    gen = z4.index[perm_from_cycles(4, [(0, 1, 2, 3)])]
    double = z4.mul(gen, gen)
    chain = [frozenset({z4.identity_index, double}), frozenset({z4.identity_index})]
    table = profinite_norm(z4, chain, 2)
    assert table[gen] == Fraction(1, 2)
    assert table[double] == Fraction(1, 4)
    assert table[z4.identity_index] == 0
    assert validate_norm(table).ok and validate_invariance(table).ok


def test_profinite_quotient_reproduces_values():
    z4 = builtin_group("Z4")
    gen = z4.index[perm_from_cycles(4, [(0, 1, 2, 3)])]
    double = z4.mul(gen, gen)
    n2 = frozenset({z4.identity_index})
    n1 = frozenset({z4.identity_index, double})
    table = profinite_norm(z4, [n1, n2], 2)
    quotient, proj = quotient_norm(table, n1)
    for g in range(len(z4)):
        if g not in n1:
            assert quotient[proj[g]] == table[g]


def test_profinite_rejects_malformed_chain():
    z4 = builtin_group("Z4")
    gen = z4.index[perm_from_cycles(4, [(0, 1, 2, 3)])]
    double = z4.mul(gen, gen)
    with pytest.raises(ValueError):
        profinite_norm(z4, [frozenset({z4.identity_index, double})], 2)
    with pytest.raises(ValueError):
        profinite_norm(
            z4,
            [frozenset({z4.identity_index}), frozenset({z4.identity_index, double})],
            2,
        )


def test_conjugacy_closure(s3):
    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    closed = conjugacy_closure(s3, [tr])
    assert len(closed) == 3
    assert conjugacy_closure(s3, [s3.identity_index]) == frozenset()
    assert conjugacy_closure(s3, closed) == closed


def test_word_norm_examples(s3, a5):
    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    table = word_norm_bfs(s3, conjugacy_closure(s3, [tr]))
    for g in conjugacy_closure(s3, [tr]):
        assert table[g] == 1
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    assert table[rot] == 2

    five = a5.index[perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    closure = conjugacy_closure(a5, [five])
    big = word_norm_bfs(a5, closure)
    assert validate_norm(big).ok and validate_invariance(big).ok


def test_word_norm_rejects_non_generating(s4):
    rot = s4.index[perm_from_cycles(4, [(0, 1, 2)])]
    with pytest.raises(ValueError):
        word_norm_bfs(s4, conjugacy_closure(s4, [rot]))  # lands inside A4


def test_ball(s3_word_table, s3):
    assert ball(s3_word_table, 0) == frozenset({s3.identity_index})
    assert ball(s3_word_table, 99) == frozenset(range(len(s3)))
    gens = {i for i in range(len(s3)) if s3_word_table[i] == 1}
    b2 = {s3.mul(a, b) for a in gens for b in gens} | gens | {s3.identity_index}
    assert ball(s3_word_table, 2) == frozenset(b2)


def test_table_json_round_trip(s3, s3_word_table):
    doc = s3_word_table.to_json()
    assert doc[0]["value"].count("/") == 1
    again = NormTable.from_json(s3, doc)
    assert again.values == s3_word_table.values


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: doc[:-1] + [{"element": -1, "value": "1"}], "outside"),
        (lambda doc: doc + [{"element": 6, "value": "1"}], "outside"),
        (lambda doc: doc + [dict(doc[2])], "duplicate"),
        (lambda doc: doc[:-1] + [{"element": 5}], "'value'"),
        (lambda doc: doc[:-1] + [{"value": "1"}], "'element'"),
        (lambda doc: doc[:1] + [{"element": 1.9, "value": "1"}] + doc[2:], "integer"),
        (lambda doc: doc[:1] + [{"element": True, "value": "1"}] + doc[2:], "integer"),
        (lambda doc: doc[:1] + [{"element": 1, "value": True}] + doc[2:], "string"),
        (lambda doc: doc[:1] + [{"element": 1, "value": "1/0"}] + doc[2:], "zero"),
        (lambda doc: doc[:1] + [{"element": 1, "value": None}] + doc[2:], "string"),
        (lambda doc: doc[:1] + [{"element": 1, "value": [1]}] + doc[2:], "string"),
        (lambda doc: doc[:1] + [{"element": 1, "value": 1e400}] + doc[2:], "string"),
    ],
)
def test_table_json_rejects_malformed_rows(s3, s3_word_table, edit, message):
    with pytest.raises(ValueError, match=message):
        NormTable.from_json(s3, edit(s3_word_table.to_json()))


def test_random_quotient_is_min_over_coset(s4):
    rng = random.Random(11)
    gens = conjugacy_closure(s4, [s4.index[g] for g in s4.generators])
    table = word_norm_bfs(s4, gens)
    v4 = normal_closure(s4, [s4.index[perm_from_cycles(4, [(0, 1), (2, 3)])]])
    qt, proj = quotient_norm(table, v4)
    for _ in range(20):
        g = rng.randrange(len(s4))
        coset = [h for h in range(len(s4)) if proj[h] == proj[g]]
        assert qt[proj[g]] == min(table[h] for h in coset)


def test_restrict_chain(a5, a5_word_table):
    five = a5.index[perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    cyclic = subgroup_closure(a5, [five])
    once, embed = restrict_norm(a5_word_table, cyclic)
    twice, embed2 = restrict_norm(once, range(len(once.group)))
    assert twice.values == once.values


# -- differential tests against the direct Fraction validators ------------------


def reference_validate_pseudo_norm(t):
    """``validate_pseudo_norm`` comparing the Fraction values themselves."""
    g = t.group
    violations = []
    e = g.identity_index
    if t[e] != 0:
        violations.append(Violation("N1", (e,), (t[e],)))
    for i in range(len(g)):
        j = g.inv(i)
        if t[i] != t[j]:
            violations.append(Violation("N2", (i, j), (t[i], t[j])))
    for i in range(len(g)):
        for j in range(len(g)):
            k = g.mul(i, j)
            if t[k] > t[i] + t[j]:
                violations.append(Violation("N3", (i, j, k), (t[i], t[j], t[k])))
    return ValidationReport(not violations, violations)


def reference_validate_invariance(t):
    """``validate_invariance`` through ``FiniteGroup.conj`` and Fraction values."""
    g = t.group
    violations = [
        Violation("INV", (i, x, g.conj(i, x)), (t[i], t[g.conj(i, x)]))
        for i in range(len(g))
        for x in range(len(g))
        if t[g.conj(i, x)] != t[i]
    ]
    return ValidationReport(not violations, violations)


def _assert_same_validation(table):
    reports = []
    for fast, slow in (
        (validate_pseudo_norm, reference_validate_pseudo_norm),
        (validate_invariance, reference_validate_invariance),
    ):
        report, expected = fast(table), slow(table)
        assert report.to_json() == expected.to_json()
        assert report.violations == expected.violations
        reports.append(report)
    return reports


def test_validators_match_reference_on_c8_tables(c8_tables):
    not_invariant = sum(not _assert_same_validation(t)[1].ok for t in c8_tables)
    assert 0 < not_invariant < len(c8_tables)


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "A5"])
def test_validators_match_reference_on_word_norms(name):
    base = builtin_group(name)
    table = word_norm_bfs(
        base, conjugacy_closure(base, [base.index[g] for g in base.generators])
    )
    for scale in (1, Fraction(1, 2), Fraction(2, 3)):
        pseudo, inv = _assert_same_validation(
            NormTable(base, [v * scale for v in table.values])
        )
        assert pseudo.ok and inv.ok


def test_validators_match_reference_on_random_tables(s3, a4):
    """Random values, ints mixed with fractions, a nonzero identity now and
    then: every axiom gets violated somewhere."""
    rng = random.Random(99)
    seen = set()
    for _ in range(500):
        base = rng.choice((s3, s3, a4))
        values = [
            rng.randint(0, 6)
            if rng.random() < 0.3
            else Fraction(rng.randint(0, 12), rng.randint(1, 4))
            for _ in range(len(base))
        ]
        if rng.random() < 0.8:
            values[base.identity_index] = 0
        for report in _assert_same_validation(NormTable(base, values)):
            seen.update(v.axiom for v in report.violations)
    assert seen == {"N1", "N2", "N3", "INV"}
