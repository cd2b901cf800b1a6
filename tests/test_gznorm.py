import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from wreathnorm.acceptance import acyclic_mixed
from wreathnorm.commutators import (
    SolverError,
    build_pm_commutator,
    factor_minus,
    factor_plus,
    is_pm_commutator,
    pm_walk_hits,
)
from wreathnorm.groups import CapExceededError, builtin_group, perm_from_cycles
from wreathnorm.gznorm import (
    case_norm,
    check_geodesic,
    geodesic,
    max_extent,
    norm_gz,
    norm_truncated,
    phi,
    truncate_map,
    verify_KQ_almost_hom,
)
from wreathnorm.lamp import LampElem, in_Tminus, in_Tplus
from wreathnorm.oracle import bfs_norms
from wreathnorm.props import satisfies_s_conditions


def rand_elem(rng, base, max_w=5, span=4, max_shift=4, window=None):
    if window is not None:
        span = min(span, window)
    weight = rng.randint(0, min(max_w, 2 * span + 1))
    idxs = rng.sample(range(-span, span + 1), weight)
    support = {i: rng.randrange(1, len(base)) for i in idxs}
    return LampElem.make(base, support, rng.randint(-max_shift, max_shift), window)


def test_norm_rows_frozen(a5):
    assert norm_gz(LampElem.identity(a5)) == 0
    assert norm_gz(LampElem.t_power(a5, 5)) == 5
    assert norm_gz(LampElem.t_power(a5, -7)) == 7
    assert norm_gz(LampElem.single(a5, 0, 9)) == 1
    assert norm_gz(LampElem.single(a5, -12, 9)) == 1
    assert norm_gz(LampElem.make(a5, {0: 3, 11: 5}, 0)) == 2


def test_norm_weight3_uses_the_pm_test(a5):
    # the statement-S4 witness triple is precisely a non-mixed-commutator
    u1 = a5.index[perm_from_cycles(5, [(0, 1), (2, 3)])]
    u2 = a5.index[perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    bad = LampElem.make(a5, {0: u1, 1: u2, 2: u2}, 0)
    assert not is_pm_commutator(bad)
    assert norm_gz(bad) == 3
    good = LampElem.make(a5, {0: 5, 1: 9, 2: a5.mul(a5.inv(9), a5.inv(5))}, 0)
    assert is_pm_commutator(good)
    assert norm_gz(good) == 2


def test_norm_weight4_is_two(a5):
    rng = random.Random(0)
    for _ in range(40):
        h = rand_elem(rng, a5, max_w=6, max_shift=0)
        while h.weight() < 4:
            h = rand_elem(rng, a5, max_w=6, max_shift=0)
        assert norm_gz(h) == 2


def test_norm_shift_one_rows(a5):
    vec = LampElem.make(a5, {0: 13, 1: a5.inv(13)}, 0)
    member = vec.mul(LampElem.t_power(a5, 1))
    assert in_Tplus(member) and norm_gz(member) == 1
    other = LampElem.make(a5, {0: 13, 1: 13}, 1)
    if not in_Tplus(other):
        assert norm_gz(other) == 2
    down = LampElem.make(a5, {0: 13}, -1)
    assert not in_Tminus(down) and norm_gz(down) == 2


def test_norm_rejects_bad_base_and_mode(s3, a5):
    with pytest.raises(ValueError, match="S1"):
        norm_gz(LampElem.single(s3, 0, 3))
    with pytest.raises(ValueError):
        norm_gz(LampElem.single(a5, 0, 3, window=4))
    with pytest.raises(ValueError):
        norm_truncated(LampElem.single(a5, 0, 3))
    with pytest.raises(ValueError, match="mode"):
        norm_truncated(LampElem.single(a5, 0, 3, window=4), mode="auto")


def test_norm_triangle_and_invariance_sampled(a5):
    rng = random.Random(1)
    for _ in range(3000):
        x = rand_elem(rng, a5, max_w=4, span=3, max_shift=3)
        y = rand_elem(rng, a5, max_w=4, span=3, max_shift=3)
        assert norm_gz(x.mul(y)) <= norm_gz(x) + norm_gz(y)
        assert norm_gz(x.conjugate(y)) == norm_gz(x)
        assert norm_gz(x) >= abs(x.shift)


def test_geodesics_random(a5):
    rng = random.Random(2)
    for _ in range(400):
        g = rand_elem(rng, a5, max_w=6, span=4, max_shift=5)
        geo = geodesic(g)
        assert len(geo) == norm_gz(g)
        assert check_geodesic(geo)


def test_geodesic_t3_shape(a5):
    geo = geodesic(LampElem.t_power(a5, 3))
    assert [f.shift for f in geo.factors] == [1, 1, 1]
    assert all(f == LampElem.t_power(a5, 1) for f in geo.factors)


def test_geodesic_pm_pair_shape(a5):
    # a weight-3 mixed commutator factors as one T- and one T+ element
    h = LampElem.make(a5, {0: 5, 1: 9, 2: a5.mul(a5.inv(9), a5.inv(5))}, 0)
    assert is_pm_commutator(h)
    geo = geodesic(h)
    assert len(geo) == 2
    s1, s2 = geo.factors
    assert in_Tminus(s1) and in_Tplus(s2)
    assert check_geodesic(geo)


def test_geodesic_support_bounds(a5):
    rng = random.Random(3)
    for _ in range(200):
        g = rand_elem(rng, a5, max_w=6, span=4, max_shift=5)
        if not g.support:
            continue
        lo = g.support_indices()[0] - 2
        hi = g.support_indices()[-1] + 2
        for s in geodesic(g).factors:
            if s.support:
                assert s.support_indices()[0] >= lo
                assert s.support_indices()[-1] <= hi


def test_truncated_norm_basics(a5, s3):
    assert norm_truncated(LampElem.t_power(a5, 1, window=4)) == 1
    assert norm_truncated(LampElem.t_power(a5, 9, window=4)) == 0  # t^(2n+1) = 1
    assert norm_truncated(LampElem.single(a5, 2, 7, window=4)) == 1
    with pytest.raises(ValueError):
        norm_truncated(LampElem.t_power(a5, 1, window=1), mode="theory")
    with pytest.raises(ValueError, match="S1"):
        norm_truncated(LampElem.t_power(s3, 1, window=3), mode="theory")


def test_only_theory_mode_checks_the_base():
    # the default "oracle" mode returns the theory value without running
    # S1-S4, and geodesics at shift 0 and +-1 never reach the S1+S2 builder of
    # shift +-2
    a5 = builtin_group("A5")
    rng = random.Random(6)
    elems = [rand_elem(rng, a5, max_w=6, max_shift=1, window=4) for _ in range(200)]
    u1 = a5.index[perm_from_cycles(5, [(0, 1), (2, 3)])]
    u2 = a5.index[perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    elems.append(LampElem.make(a5, {0: u1, 1: u2, 2: u2}, 0, 4))  # norm 3
    values = [norm_truncated(g) for g in elems]
    assert values == [norm_truncated(g, mode="oracle") for g in elems]
    for g, value in zip(elems, values):
        geo = geodesic(g)
        assert len(geo) == value and check_geodesic(geo)
    assert {1, 2, 3} <= set(values)
    assert a5._statement_reports == {}
    assert values == [norm_truncated(g, mode="theory") for g in elems]
    assert set(a5._statement_reports) == {"S1", "S2", "S3", "S4"}


def test_truncated_matches_infinite_inside_margins(a5):
    rng = random.Random(4)
    window = 9
    for _ in range(300):
        g = rand_elem(rng, a5, max_w=4, span=3, max_shift=3)
        image = LampElem.make(a5, dict(g.support), g.shift, window)
        assert norm_truncated(image, mode="theory") == norm_gz(g)


def test_truncated_geodesics(a5):
    rng = random.Random(5)
    for _ in range(150):
        g = rand_elem(rng, a5, max_w=4, span=3, max_shift=3, window=9)
        geo = geodesic(g)
        assert len(geo) == norm_truncated(g)
        assert check_geodesic(geo)


def test_pm_truncated_full_support_cyclic_search(s3):
    # weight-2 full-window targets don't exist; use window 1 and weight 3
    yes = LampElem.make(s3, {-1: 3, 0: 3, 1: 3}, 0, window=1)
    result = pm_walk_hits(yes)
    # cross-check against a brute-force over the tiny truncation
    res = bfs_norms(s3, 1)
    assert result == (res.norm_of(yes) == 2)


# the reference loop refuses more free choices than this
REFERENCE_SEARCH_CAP = 2_000_000


def reference_pm_cyclic_exhaustive(h, orders=("-+", "+-")):
    """The cyclic factor search as one Python loop over the free digits, for
    each sign order in turn; returns (order, u, v) for the first hit."""
    base = h.base
    n = h.window
    width = 2 * n + 1
    total = len(base) ** (width - 1)
    if total > REFERENCE_SEARCH_CAP:
        raise CapExceededError(f"cyclic factor search would visit {total} states")
    positions = list(range(-n, n + 1))
    hvals = [h.value_at(i) for i in positions]
    ident = base.identity_index
    for order in orders:
        for choice in product(range(len(base)), repeat=width - 1):
            u_vals = list(choice)
            if order == "-+":
                # close the decreasing product u_n ... u_{-n} to the identity
                u_vals.append(base.inv(base.mul_many(reversed(u_vals))))
            else:
                u_vals.append(base.inv(base.mul_many(u_vals)))
            v_vals = [base.mul(base.inv(a), b) for a, b in zip(u_vals, hvals)]
            if order == "-+":
                ok = base.mul_many(v_vals) == ident
            else:
                ok = base.mul_many(reversed(v_vals)) == ident
            if ok:
                u_elem = LampElem.make(base, dict(zip(positions, u_vals)), 0, n)
                v_elem = LampElem.make(base, dict(zip(positions, v_vals)), 0, n)
                return order, u_elem, v_elem
    return None


# (base, window, seeded sample size); None compares every shift-0 state
CYCLIC_SEARCH_STATES = [
    ("S3", 1, None),
    ("A4", 1, None),
    ("S3", 2, 200),
    ("S4", 1, 100),
    ("A5", 1, 100),
    ("A4", 2, 5),
]


@pytest.mark.parametrize(
    "name, window, samples",
    CYCLIC_SEARCH_STATES,
    ids=[f"{name}w{window}" for name, window, _ in CYCLIC_SEARCH_STATES],
)
def test_cyclic_search_kernel_matches_reference(name, window, samples):
    base = builtin_group(name)
    positions = range(-window, window + 1)
    if samples is None:
        rows = product(range(len(base)), repeat=len(positions))
    else:
        rng = random.Random(f"cyclic search {name}w{window}")
        rows = ([rng.randrange(len(base)) for _ in positions] for _ in range(samples))
    outcomes = Counter()
    for values in rows:
        h = LampElem.make(base, dict(zip(positions, values)), 0, window)
        try:
            g1, g2 = build_pm_commutator(h).vectors
            found = factor_minus(g1), factor_plus(g2)
        except SolverError:
            found = None
        expected = reference_pm_cyclic_exhaustive(h)
        # the reference tries "+-" after a "-+" miss; the lemma says it never hits
        assert expected is None or expected[0] == "-+"
        assert found == (None if expected is None else expected[1:])
        # the decision reads the backward pass alone
        assert pm_walk_hits(h) == (expected is not None)
        outcomes[found is not None] += 1
    assert outcomes[False] and outcomes[True]


LEMMA_STATES = [("S3", 1), ("A4", 1), ("Z3", 1), ("Z4", 1), ("Z3", 2)]


@pytest.mark.parametrize(
    "name, window", LEMMA_STATES, ids=[f"{name}w{window}" for name, window in LEMMA_STATES]
)
def test_sign_orders_hit_on_the_same_states(name, window):
    # Sbar_1 . Sbar_-1 = Sbar_-1 . Sbar_1 (the lemma in the commutators docstring):
    # each order of the reference search, run alone, hits on the same states.
    base = builtin_group(name)
    positions = range(-window, window + 1)
    hits = Counter()
    for values in product(range(len(base)), repeat=len(positions)):
        h = LampElem.make(base, dict(zip(positions, values)), 0, window)
        minus_plus = reference_pm_cyclic_exhaustive(h, ("-+",)) is not None
        plus_minus = reference_pm_cyclic_exhaustive(h, ("+-",)) is not None
        assert minus_plus == plus_minus
        hits[minus_plus] += 1
    assert hits[False] and hits[True]


# (base, window, seeded sample size); None takes every full-support state
KERNEL_GEODESIC_STATES = [("S3", 1, None), ("A4", 1, None), ("A5", 1, 300)]


@pytest.mark.parametrize(
    "name, window, samples",
    KERNEL_GEODESIC_STATES,
    ids=[f"{name}w{window}" for name, window, _ in KERNEL_GEODESIC_STATES],
)
def test_kernel_path_geodesics(name, window, samples):
    # full-support shift-0 torsion: norm and geodesic both go through the
    # cyclic factor search
    base = builtin_group(name)
    positions = range(-window, window + 1)
    if samples is None:
        rows = product(range(1, len(base)), repeat=len(positions))
    else:
        rng = random.Random(f"kernel geodesics {name}w{window}")
        rows = (
            [rng.randrange(1, len(base)) for _ in positions] for _ in range(samples)
        )
    lengths = Counter()
    for values in rows:
        g = LampElem.make(base, dict(zip(positions, values)), 0, window)
        geo = geodesic(g)
        assert len(geo) == norm_truncated(g)
        assert check_geodesic(geo)
        lengths[len(geo)] += 1
    assert lengths[2] and lengths[3]
    if samples is None:
        assert sum(lengths.values()) == (len(base) - 1) ** len(positions)


def test_full_support_a5_geodesics_past_the_reference_cap(a5):
    # 60^4 and 60^6 free digits at windows 2 and 3: beyond the reference loop,
    # so each class-walk witness is checked by multiplying the geodesic out
    def full_support(window, rows):
        for values in rows:
            support = dict(zip(range(-window, window + 1), values))
            yield LampElem.make(a5, support, 0, window)

    satisfies_s_conditions(a5)
    for g in full_support(1, [[1, 1, 1], [5, 9, 17]]):
        assert check_geodesic(geodesic(g))
    attributes = set(vars(a5))
    rng = random.Random("full-support A5 past the reference cap")
    for window in (2, 3):
        width = 2 * window + 1
        ones = [1] * width
        with pytest.raises(CapExceededError):
            reference_pm_cyclic_exhaustive(next(full_support(window, [ones])))
        rows = [ones]
        rows += [[rng.randrange(1, len(a5)) for _ in range(width)] for _ in range(50)]
        for g in full_support(window, rows):
            assert norm_truncated(g) == 2
            geo = geodesic(g)
            assert len(geo) == 2 and check_geodesic(geo)
    # no table per window width is left on the group
    assert set(vars(a5)) == attributes
    classes = len(a5.conj_classes.classes)
    assert len(a5.conj_classes.products) <= classes * classes


def test_shift0_geodesics_match_bfs_s3w2(s3):
    # every shift-0 state, gap or full support, mixed or not: a checked
    # geodesic whose length is the BFS distance
    res = bfs_norms(s3, 2)
    lengths = Counter()
    for values in product(range(len(s3)), repeat=5):
        g = LampElem.make(s3, dict(zip(range(-2, 3), values)), 0, window=2)
        geo = geodesic(g)
        assert check_geodesic(geo)
        assert len(geo) == res.norm_of(g)
        lengths[len(geo)] += 1
    assert sum(lengths.values()) == 7776
    assert set(lengths) == {0, 1, 2, 3}


# (base, window, seeded sample size) of shift-0 states, identity values included
SAMPLED_GEODESIC_STATES = [("A4", 2, 400), ("S3", 4, 400), ("A5", 2, 200), ("A5", 3, 200)]


@pytest.mark.parametrize(
    "name, window, samples",
    SAMPLED_GEODESIC_STATES,
    ids=[f"{name}w{window}" for name, window, _ in SAMPLED_GEODESIC_STATES],
)
def test_shift0_geodesics_sampled(name, window, samples):
    # Past the widths checked against BFS: the geodesic checks and has the
    # case-table length.  On A4 w2 and S3 w4 most samples are norm 3 with
    # weight > 3, a single followed by a mixed pair.
    base = builtin_group(name)
    positions = range(-window, window + 1)
    rng = random.Random(f"shift-0 geodesics {name}w{window}")
    shapes = Counter()
    for _ in range(samples):
        values = [rng.randrange(len(base)) for _ in positions]
        g = LampElem.make(base, dict(zip(positions, values)), 0, window)
        geo = geodesic(g)
        assert check_geodesic(geo)
        assert len(geo) == norm_truncated(g)
        shapes[len(geo), g.weight() > 3] += 1
    assert shapes[2, True]
    if name != "A5":
        assert shapes[3, True]


# (base, window, seeded sample size); None takes every shift-0 state
GAP_STATES = [("S3", 2, None), ("A4", 1, None), ("A5", 3, 3000), ("A5", 9, 3000)]


@pytest.mark.parametrize(
    "name, window, samples",
    GAP_STATES,
    ids=[f"{name}w{window}" for name, window, _ in GAP_STATES],
)
def test_class_walk_with_a_gap_matches_the_acyclic_test(name, window, samples):
    # With a gap in the support the acyclic class-product test applies, and
    # over A5 (statement S3) weight >= 4 is always mixed.
    base = builtin_group(name)
    positions = range(-window, window + 1)
    if samples is None:
        rows = product(range(len(base)), repeat=len(positions))
    else:
        rng = random.Random(f"gap states {name}w{window}")
        rows = []
        for _ in range(samples):
            weight = rng.randint(2, len(positions) - 1)
            chosen = set(rng.sample(positions, weight))
            rows.append(
                [rng.randrange(1, len(base)) if i in chosen else 0 for i in positions]
            )
    outcomes = Counter()
    for values in rows:
        h = LampElem.make(base, dict(zip(positions, values)), 0, window)
        weight = h.weight()
        if not 2 <= weight < len(positions):
            continue
        mixed = pm_walk_hits(h)
        if weight <= 3:
            assert mixed == is_pm_commutator(h)
        else:
            assert name == "S3" or mixed
        outcomes[min(weight, 4), mixed] += 1
    assert {mixed for weight, mixed in outcomes if weight <= 3} == {True, False}
    if name == "A5":
        assert outcomes[4, True]


def test_oracle_mode_shift0_weight4_and_5_against_bfs(s3):
    # The S3 w2 states that test_case_tables_against_bfs leaves out: every
    # shift-0 state of weight >= 4, each decided by the cyclic search.
    res = bfs_norms(s3, 2)
    disagree = Counter()
    checked = 0
    for values in product(range(len(s3)), repeat=5):
        g = LampElem.make(s3, dict(zip(range(-2, 3), values)), 0, window=2)
        if g.weight() < 4:
            continue
        checked += 1
        value = norm_truncated(g, mode="oracle")
        bfs_val = int(res.distances[res.group.encode(g)])
        if value != bfs_val:
            disagree[value, bfs_val] += 1
    assert checked == 6250
    assert dict(disagree) == {}


# (base, window) -> states compared and the disagreements with BFS, as
# (shift, table value, BFS value) -> count; the same for both tables
CASE_TABLE_PINS = {
    ("S3", 1): (648, {}),
    ("A4", 1): (5184, {}),
    ("S3", 2): (32630, {(2, 2, 3): 3888, (-2, 2, 3): 3888}),
}


@pytest.mark.parametrize("name, window", list(CASE_TABLE_PINS), ids=["S3w1", "A4w1", "S3w2"])
def test_case_tables_against_bfs(name, window):
    # Oracle-mode norm_truncated (cyclic predicates) and the acyclic table of
    # criterion C5 against BFS.  Shift-0 weight >= 4 is left out; on S3 w2
    # test_oracle_mode_shift0_weight4_and_5_against_bfs covers it.
    res = bfs_norms(builtin_group(name), window)
    tables = {
        "cyclic": lambda g: norm_truncated(g, mode="oracle"),
        "acyclic": lambda g: case_norm(g, acyclic_mixed),
    }
    disagree = {key: Counter() for key in tables}
    checked = 0
    for code in range(len(res.group)):
        g = res.group.decode(code)
        if g.shift == 0 and g.weight() >= 4:
            continue
        checked += 1
        bfs_val = int(res.distances[code])
        for key, table in tables.items():
            value = table(g)
            if value != bfs_val:
                disagree[key][(g.shift, value, bfs_val)] += 1
    expected_checked, expected = CASE_TABLE_PINS[name, window]
    assert checked == expected_checked
    assert dict(disagree["cyclic"]) == expected
    assert dict(disagree["acyclic"]) == expected


def test_phi_rows(a5):
    assert phi(LampElem.identity(a5), 2).is_identity()
    assert phi(LampElem.t_power(a5, 7), 2).is_identity()  # extent exceeds 2N+2
    g = LampElem.make(a5, {-2: 5, 1: 9}, 1)
    image = phi(g, 2)
    assert image.window == 7
    assert image.support == g.support and image.shift == g.shift
    with pytest.raises(ValueError):
        phi(LampElem.identity(a5, window=3), 2)


def test_verify_kq_identity_map(a5):
    rng = random.Random(6)
    k_set = [rand_elem(rng, a5, max_w=3, span=3, max_shift=2) for _ in range(6)]
    report = verify_KQ_almost_hom(
        lambda g: g, k_set, [0, 1, 2, 3], norm_gz, norm_gz
    )
    assert report.ok


def test_verify_kq_requires_zero_threshold(a5):
    with pytest.raises(ValueError):
        verify_KQ_almost_hom(
            lambda g: g, [LampElem.identity(a5)], [1, 2], norm_gz, norm_gz
        )


def test_undersized_window_exhibits_failure(a5):
    t = LampElem.t_power
    k_set = [t(a5, 5), t(a5, 1), t(a5, 6)]
    big_n = max_extent(k_set)
    report = verify_KQ_almost_hom(
        lambda g: truncate_map(g, big_n, big_n - 1),
        k_set,
        [0, 1, 2],
        norm_gz,
        lambda image: norm_truncated(image, mode="oracle"),
    )
    assert not report.ok
    assert report.failures


def test_comparisons_table_shape(a5):
    k_set = [LampElem.t_power(a5, 2)]
    report = verify_KQ_almost_hom(
        lambda g: phi(g, max_extent(k_set)),
        k_set,
        [0, Fraction(3, 2), 2],
        norm_gz,
        lambda image: norm_truncated(image, mode="theory"),
    )
    assert report.ok
    rows = {(row["q"], row["source"]) for row in report.comparisons}
    assert ("3/2", ">") in rows and ("2/1", "=") in rows
