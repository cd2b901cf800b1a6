import random
from fractions import Fraction

import pytest

from wreathnorm.acceptance import _agreement_thresholds
from wreathnorm.groups import builtin_group, normal_closure, perm_from_cycles
from wreathnorm.norms import (
    NormTable,
    conjugacy_closure,
    quotient_norm,
    validate_invariance,
    validate_pseudo_norm,
    word_norm_bfs,
)
from wreathnorm.weightfn import (
    THEORIES,
    AxiomReport,
    WeightFn,
    check_axioms,
    from_norm,
    w_of,
)
import pytest as _pytest


@_pytest.fixture(scope="module")
def s3_transposition_table(s3):
    from wreathnorm.norms import conjugacy_closure, word_norm_bfs

    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    return word_norm_bfs(s3, conjugacy_closure(s3, [tr]))


def test_from_norm_signs(s3, s3_transposition_table):
    table = s3_transposition_table
    f = from_norm(table, [0, 1, 2])
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    assert table[rot] == 2
    assert f.symbol(rot, 2) == "="
    assert f.symbol(rot, 1) == ">"
    assert f.symbol(s3.identity_index, 0) == "="


def test_from_norm_requires_zero(s3_word_table):
    with pytest.raises(ValueError):
        from_norm(s3_word_table, [1, 2])


def test_zero_one_norm_full_table(s3):
    table = NormTable(
        s3, [0 if i == s3.identity_index else 1 for i in range(len(s3))]
    )
    f = from_norm(table, [0, Fraction(1, 2), 1])
    for g in range(len(s3)):
        expected = ("=", "<", "<") if g == s3.identity_index else (">", ">", "=")
        assert f.rows[g] == expected


def test_w_of_round_trip(s3_word_table, a5_word_table):
    for table in (s3_word_table, a5_word_table):
        values = sorted({Fraction(v) for v in table.values})
        f = from_norm(table, values)
        recovered = w_of(f)
        for i, v in enumerate(table.values):
            assert recovered[i] == v


def test_w_of_above_all_marker(s3, s3_transposition_table):
    f = from_norm(s3_transposition_table, [0, 1])
    recovered = w_of(f)
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    assert recovered[rot] is None


def test_w_of_coarsened_rounds_up(s3, s3_transposition_table):
    f = from_norm(s3_transposition_table, [0, 2])
    recovered = w_of(f)
    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    assert s3_transposition_table[tr] == 1 and recovered[tr] == 2


def test_axioms_pass_on_word_norm(s3_word_table):
    f = from_norm(s3_word_table, [0, 1, 2, 3, 4])
    for theory in ("T_W", "T_IPMG", "T_IMG"):
        assert check_axioms(f, theory).ok


def test_planted_monotonicity_violation(s3, s3_word_table):
    f = from_norm(s3_word_table, [0, 1, 2])
    rows = [list(r) for r in f.rows]
    g = s3.index[perm_from_cycles(3, [(0, 1)])]
    gi = s3.inv(g)  # transpositions are involutions, so W4 stays clean
    assert g == gi
    rows[g][1] = "="
    rows[g][2] = ">"
    bad = WeightFn(s3, f.thresholds, tuple(tuple(r) for r in rows))
    report = check_axioms(bad, "T_W")
    assert not report.ok
    assert any(
        v["axiom"] in ("W1", "W2") and v["g"] == g for v in report.violations
    )


def test_kernel_splits_ipmg_from_img(s3, s3_word_table):
    rot = s3.index[perm_from_cycles(3, [(0, 1, 2)])]
    a3 = normal_closure(s3, [rot])
    qt, proj = quotient_norm(s3_word_table, a3)
    pulled = NormTable(s3, [qt[proj[i]] for i in range(len(s3))])
    f = from_norm(pulled, [0, 1, 2])
    assert check_axioms(f, "T_IPMG").ok
    report = check_axioms(f, "T_IMG")
    assert not report.ok
    kernel_witnesses = {v["g"] for v in report.violations if v["axiom"] == "NORM"}
    assert kernel_witnesses == a3 - {s3.identity_index}


def test_agreement_with_validators_on_violating_table(s3):
    # a non-invariant pseudo-norm: cost 1 on one transposition, 3 on the others
    rng = random.Random(0)
    tr = s3.index[perm_from_cycles(3, [(0, 1)])]
    values = [Fraction(0)] * 6
    for g in range(6):
        if g == s3.identity_index:
            continue
        values[g] = Fraction(1) if g == tr else Fraction(2)
    table = NormTable(s3, values)
    assert validate_pseudo_norm(table).ok
    assert not validate_invariance(table).ok
    thresholds = sorted({Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(4)})
    f = from_norm(table, thresholds)
    assert not check_axioms(f, "T_IPMG").ok  # INV schema catches it


def test_triangle_skip_accounting(s3_word_table):
    f = from_norm(s3_word_table, [0, 1, 2])
    report = check_axioms(f, "T_IPMG")
    # pairs like 1+2 and 2+2 are not expressible over {0,1,2}
    assert ("1/1", "2/1") in report.skipped_triangle_pairs
    assert report.evaluated["triangle_instances"] > 0


def _in_place(change):
    """An edit that changes the document in place and returns it."""

    def edit(doc):
        change(doc)
        return doc

    return edit


def _renamed_row(key, new_key):
    """An edit that moves the row of ``key`` under ``new_key``."""
    return _in_place(lambda d: d["rows"].__setitem__(new_key, d["rows"].pop(key)))


@pytest.mark.parametrize(
    "edit, message",
    [
        (_in_place(lambda d: d["rows"].pop("4")), "missing"),
        (_in_place(lambda d: d["rows"]["2"].pop()), "one symbol per threshold"),
        (_in_place(lambda d: d["rows"]["1"].__setitem__(0, "<=")), "symbol other than"),
        (_in_place(lambda d: d["rows"]["1"].__setitem__(0, ["<"])), "symbol other than"),
        (lambda d: {**d, "thresholds": ["0/1", "2/1", "1/1"]}, "increasing"),
        (lambda d: {**d, "thresholds": ["0/1", "1/1", "1/1"]}, "increasing"),
        (lambda d: {**d, "thresholds": ["1/2", "1/1", "2/1"]}, "contain 0"),
        (_in_place(lambda d: d["rows"].__setitem__("6", d["rows"]["5"])), "element id"),
        (lambda d: {**d, "thresholds": ["0", "1", "1/0"]}, "zero denominator"),
        (lambda d: {**d, "thresholds": ["0", True, "2"]}, "not an integer or a string"),
        (lambda d: {"rows": d["rows"]}, "needs 'thresholds' and 'rows'"),
        (lambda d: [d], "needs 'thresholds' and 'rows'"),
        (lambda d: {**d, "rows": list(d["rows"].values())}, "'rows' an object"),
        (_renamed_row("0", "0_0"), "'0_0' is not a decimal integer"),
        (_renamed_row("4", "+4"), "'\\+4' is not a decimal integer"),
        (_renamed_row("5", " 5"), "' 5' is not a decimal integer"),
        (_renamed_row("1", "one"), "'one' is not a decimal integer"),
    ],
    ids=[
        "missing-row",
        "row-length",
        "symbol",
        "symbol-list",
        "unsorted",
        "duplicate",
        "no-zero",
        "bad-key",
        "zero-denominator",
        "threshold-bool",
        "no-thresholds",
        "list-document",
        "list-rows",
        "key-underscore",
        "key-plus",
        "key-space",
        "key-word",
    ],
)
def test_weightfn_from_json_rejects_malformed(s3, s3_word_table, edit, message):
    doc = edit(from_norm(s3_word_table, [0, 1, 2]).to_json())
    with pytest.raises(ValueError, match=message):
        WeightFn.from_json(s3, doc)


def test_weightfn_json_round_trip(s3, s3_word_table):
    f = from_norm(s3_word_table, [0, 1, 2])
    doc = f.to_json()
    again = WeightFn.from_json(s3, doc)
    assert again.thresholds == f.thresholds
    assert again.rows == f.rows


# -- differential tests against the direct element-by-threshold kernels -------


def _reference_sign(value, q):
    if value < q:
        return "<"
    if value == q:
        return "="
    return ">"


def reference_from_norm(table, thresholds):
    """``from_norm`` as one Fraction comparison per (element, threshold)."""
    qs = tuple(sorted({Fraction(q) for q in thresholds}))
    if Fraction(0) not in qs:
        raise ValueError("threshold set must contain 0")
    rows = tuple(tuple(_reference_sign(v, q) for q in qs) for v in table.values)
    return WeightFn(table.group, qs, rows)


def _reference_fmt_q(q):
    return f"{q.numerator}/{q.denominator}"


def reference_check_axioms(f, theory):
    """``check_axioms`` with Fraction sums and per-instance symbol reads."""
    if theory not in THEORIES:
        raise ValueError(f"theory must be one of {THEORIES}")
    group = f.group
    n = len(group)
    qs = f.thresholds
    report = AxiomReport(theory, True)
    violations = report.violations
    fmt = _reference_fmt_q

    checked = 0
    for g in range(n):
        row = f.rows[g]
        for a in range(len(qs)):
            for b in range(a + 1, len(qs)):
                checked += 1
                if row[a] in ("<", "=") and row[b] not in ("<", "="):
                    violations.append(
                        {"axiom": "W1", "g": g, "q": fmt(qs[a]), "q2": fmt(qs[b])}
                    )
                if row[b] in (">", "=") and row[a] not in (">", "="):
                    violations.append(
                        {"axiom": "W2", "g": g, "q": fmt(qs[a]), "q2": fmt(qs[b])}
                    )
    report.evaluated["monotonicity_instances"] = checked

    zero_idx = qs.index(Fraction(0))
    ident = group.identity_index
    if f.rows[ident][zero_idx] != "=":
        violations.append({"axiom": "W3", "g": ident})
    for g in range(n):
        if f.rows[g][zero_idx] == "<":
            violations.append({"axiom": "W3", "g": g})

    for g in range(n):
        gi = group.inv(g)
        if f.rows[g] != f.rows[gi]:
            violations.append({"axiom": "W4", "g": g, "g_inv": gi})
    report.evaluated["inverse_instances"] = n

    if theory in ("T_IPMG", "T_IMG"):
        q_index = {q: i for i, q in enumerate(qs)}
        tri_checked = 0
        for a, qa in enumerate(qs):
            for b, qb in enumerate(qs):
                total = qa + qb
                if total not in q_index:
                    report.skipped_triangle_pairs.append((fmt(qa), fmt(qb)))
                    continue
                ti = q_index[total]
                for g in range(n):
                    if f.rows[g][a] not in ("<", "="):
                        continue
                    for h in range(n):
                        if f.rows[h][b] not in ("<", "="):
                            continue
                        tri_checked += 1
                        gh = group.mul(g, h)
                        if f.rows[gh][ti] not in ("<", "="):
                            violations.append(
                                {"axiom": "TRI", "g": g, "h": h, "q": fmt(qa), "q2": fmt(qb)}
                            )
        report.evaluated["triangle_instances"] = tri_checked

        inv_checked = 0
        for g in range(n):
            for y in range(n):
                conj = group.conj(g, y)
                inv_checked += 1
                if f.rows[conj] != f.rows[g]:
                    violations.append({"axiom": "INV", "g": g, "y": y})
        report.evaluated["invariance_instances"] = inv_checked

    if theory == "T_IMG":
        for g in range(n):
            if g != ident and f.rows[g][zero_idx] in ("<", "="):
                violations.append({"axiom": "NORM", "g": g})

    report.ok = not violations
    return report


def _assert_same_weightfn(table, thresholds, theories):
    f = from_norm(table, thresholds)
    assert f == reference_from_norm(table, thresholds)
    reports = [check_axioms(f, theory) for theory in theories]
    for theory, report in zip(theories, reports):
        assert report.to_json() == reference_check_axioms(f, theory).to_json()
    return reports


def test_kernels_match_reference_on_c8_tables(c8_tables):
    violating = 0
    for table in c8_tables:
        (report,) = _assert_same_weightfn(
            table, _agreement_thresholds(table), ("T_IPMG",)
        )
        violating += not report.ok
    # most of C8's tables are not conjugation-invariant, so the violation
    # lists are compared too, not only empty ones
    assert 0 < violating < len(c8_tables)


HALF = Fraction(1, 2)
WORD_THRESHOLDS = (
    (0, 1, 2, 3, 4),
    (0, HALF, 1, 3 * HALF, 2, 5 * HALF, 3),
    (0, 1, 2),
    (0, 2, 4),
    (0, Fraction(1, 3), Fraction(2, 3), 1, Fraction(4, 3), 2),
)


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "A5"])
def test_kernels_match_reference_on_word_norms(name):
    base = builtin_group(name)
    gens = conjugacy_closure(base, [base.index[g] for g in base.generators])
    tables = [word_norm_bfs(base, gens)]
    if name == "S3":
        tr = base.index[perm_from_cycles(3, [(0, 1)])]
        tables.append(word_norm_bfs(base, conjugacy_closure(base, [tr])))
    for table in tables:
        for thresholds in WORD_THRESHOLDS:
            _assert_same_weightfn(table, thresholds, THEORIES)


def test_kernels_match_reference_on_planted_flips(c8_tables, a4):
    rng = random.Random(2024)
    gens = conjugacy_closure(a4, [a4.index[g] for g in a4.generators])
    sources = [
        (table, _agreement_thresholds(table)) for table in c8_tables[:40]
    ] + [(word_norm_bfs(a4, gens), WORD_THRESHOLDS[1])]
    symbols = ("<", "=", ">")
    violating = {theory: 0 for theory in THEORIES}
    for _ in range(500):
        table, thresholds = rng.choice(sources)
        f = from_norm(table, thresholds)
        rows = [list(row) for row in f.rows]
        for _ in range(rng.randint(1, 3)):
            g, qi = rng.randrange(len(rows)), rng.randrange(len(f.thresholds))
            rows[g][qi] = rng.choice([s for s in symbols if s != rows[g][qi]])
        flipped = WeightFn(f.group, f.thresholds, tuple(tuple(r) for r in rows))
        for theory in THEORIES:
            report = check_axioms(flipped, theory)
            assert report.to_json() == reference_check_axioms(flipped, theory).to_json()
            violating[theory] += not report.ok
    assert all(count > 0 for count in violating.values())
