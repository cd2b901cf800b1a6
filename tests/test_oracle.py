import dataclasses
import hashlib
import random
import tracemalloc
from itertools import product as iter_product

import numpy as np
import pytest

from wreathnorm import oracle
from wreathnorm.groups import CapExceededError, FiniteGroup
from wreathnorm.lamp import LampElem, in_Sbar
from wreathnorm.oracle import (
    SbarContext,
    TruncatedGroup,
    bfs_norms,
    bounded_norm,
    enumerate_Sbar,
    factor_image,
    pm_pair_image,
    pm_weight3_exhaustive,
    read_norms_binary,
    set_power_norms,
    standard_generators,
    validate_definiteness,
    validate_invariance_generators,
    validate_shift_bound,
    validate_symmetry,
    validate_triangle_layers,
    write_norms_binary,
)


@pytest.fixture(scope="module")
def s3_bfs(s3):
    return bfs_norms(s3, 1)


@pytest.fixture(scope="module")
def a5_bfs(a5):
    return bfs_norms(a5, 1)


def test_enumerate_counts(a5, s3):
    assert len(enumerate_Sbar(a5, 1)) == 177 + 3600 + 3600
    assert len(enumerate_Sbar(s3, 1)) == 15 + 36 + 36
    gens = enumerate_Sbar(s3, 1)
    assert len(set(gens)) == len(gens)
    assert all(in_Sbar(g) for g in gens)


def _reference_enumerate_Sbar(base, window):
    """The S-bar listing through ``LampElem.make`` and ``.inverse()`` that
    preceded the direct supports."""
    out = [
        LampElem.single(base, i, v, window)
        for i in range(-window, window + 1)
        for v in range(len(base))
        if v != base.identity_index
    ]
    positions = list(range(-window, window + 1))
    plus = []
    for choice in iter_product(range(len(base)), repeat=2 * window):
        closing = base.inv(base.mul_many(choice))
        support = dict(zip(positions, list(choice) + [closing]))
        plus.append(LampElem.make(base, support, 1, window))
    return out + plus + [e.inverse() for e in plus]


@pytest.mark.parametrize(
    "name,window",
    [("s3", 1), ("s3", 2), ("z3", 2), ("a4", 1), ("a5", 1), ("s3_reordered", 1)],
)
def test_enumerate_Sbar_equals_the_element_reference(request, name, window):
    # same elements in the same order, with canonical supports built directly
    base = request.getfixturevalue(name)
    got = enumerate_Sbar(base, window)
    assert got == _reference_enumerate_Sbar(base, window)
    assert all(type(s.support) is tuple for s in got)


def test_window_zero_rejected(s3):
    with pytest.raises(ValueError):
        enumerate_Sbar(s3, 0)
    with pytest.raises(ValueError):
        TruncatedGroup(s3, 0)


def test_gen_cap(a5):
    with pytest.raises(CapExceededError):
        enumerate_Sbar(a5, 2, cap=1000)


def test_state_cap(a5):
    with pytest.raises(CapExceededError):
        TruncatedGroup(a5, 2, state_cap=10**6)


def test_codec_round_trip(s3):
    group = TruncatedGroup(s3, 1)
    rng = random.Random(0)
    seen = set()
    for _ in range(500):
        code = rng.randrange(len(group))
        elem = group.decode(code)
        assert group.encode(elem) == code
        seen.add(code)
    assert len(seen) > 300
    assert group.decode(0).is_identity()
    for code in range(len(group)):
        elem = group.decode(code)
        digits = [elem.value_at(i) for i in range(-1, 2)]
        assert group.encode(elem) == group.code.encode_parts(digits, elem.shift)
    for foreign in (LampElem.single(s3, 0, 1, 2), LampElem.single(s3, 0, 1)):
        with pytest.raises(ValueError, match="does not live"):
            group.encode(foreign)


def _code_product(group, c1, c2):
    return group.encode(group.decode(c1).mul(group.decode(c2)))


def _reencode(group, digits, luts, offset, shift):
    """Codes with digit j = luts[j][digits[(j + offset) % w]] (None: no lookup)
    and the given shift residue.  The general digit re-encoder of the batch
    kernel that preceded the product step, kept for the references below."""
    w, b = group.code.width, len(group.base)
    acc = np.zeros(digits[0].shape, dtype=np.int64)
    for j, lut in enumerate(luts):
        col = digits[(j + offset) % w]
        acc = acc * b + (col if lut is None else lut[col])
    return acc * w + shift % w


def _inverses(group, codes):
    """Yield (positions, codes of x^-1) per shift block of ``codes``."""
    luts = [group.np_tables["inv"]] * group.code.width
    for pos, k, digits in oracle._shift_blocks(group, codes):
        yield pos, _reencode(group, digits, luts, -k, -k)


def _right_products(group, k, digits, svecs, shifts):
    """Yield the codes of x * s for one shift block of states x, per s = (svec, m)."""
    w = group.code.width
    rows = group.np_tables["mulT_rows"]
    rotation = [(j + k) % w for j in range(w)]
    for svec, m in zip(svecs, shifts):
        yield _reencode(group, digits, [rows[svec[r]] for r in rotation], 0, k + m)


def test_code_arithmetic_matches_elements(s3):
    # the product step's digit columns, re-encoded, and the reference
    # re-encoder's products and inverses against LampElem's law
    group = TruncatedGroup(s3, 1)
    rng = random.Random(1)
    for _ in range(300):
        c1, c2 = rng.randrange(len(group)), rng.randrange(len(group))
        expected = _code_product(group, c1, c2)
        blocks = list(oracle._shift_blocks(group, np.array([c1], dtype=np.int64)))
        [(k, digits)] = oracle._products(group, blocks, c2)
        assert int(oracle._encode(group, digits, k)[0]) == expected
        [(_, k1, digits1)] = blocks
        svecs, shifts = _prep_generators(group, [group.decode(c2)])
        [prods] = _right_products(group, k1, digits1, svecs, shifts)
        assert int(prods[0]) == expected
        [(_, inv)] = _inverses(group, np.array([c1], dtype=np.int64))
        assert int(inv[0]) == group.encode(group.decode(c1).inverse())


def _conjugates(group, codes, by_codes):
    """Yield (positions, i, codes of y^-1 x y) per shift block of ``codes`` and
    per y = by_codes[i]; the two lookups are composed, so each digit is
    gathered once.  The block kernel that preceded the tensor validators,
    kept as a reference."""
    w, b = group.code.width, len(group.base)
    mul = group.np_tables["mul"].reshape(b, b)
    mul_rows = [None] + list(mul[1:])
    mulT_rows = group.np_tables["mulT_rows"]
    parts = [
        (
            group.code.decode_parts(group.encode(group.decode(y).inverse())),
            group.code.decode_parts(y)[0],
        )
        for y in by_codes
    ]
    for pos, k, digits in oracle._shift_blocks(group, codes):
        for i, ((avec, kappa), yvec) in enumerate(parts):
            luts = []
            for j in range(w):
                first, then = mul_rows[avec[j]], mulT_rows[yvec[(j + kappa + k) % w]]
                if first is None or then is None:
                    luts.append(then if first is None else first)
                else:
                    luts.append(then[first])
            yield pos, i, _reencode(group, digits, luts, kappa, k)


def test_batch_helpers(s3):
    group = TruncatedGroup(s3, 1)
    codes = np.arange(len(group), dtype=np.int64)
    inv = np.empty_like(codes)
    for pos, block in _inverses(group, codes):
        inv[pos] = block
    for c in codes[::17]:
        assert int(inv[c]) == group.encode(group.decode(int(c)).inverse())
    by = (123, 124, 125)  # one conjugator per shift residue
    conj = np.empty((len(by), codes.size), dtype=np.int64)
    for pos, i, block in _conjugates(group, codes, by):
        conj[i, pos] = block
    for i, y in enumerate(by):
        for c in codes[::17]:
            x = group.decode(int(c))
            assert int(conj[i, c]) == group.encode(x.conjugate(group.decode(y)))


def test_bfs_matches_set_power_oracle(s3, s3_bfs):
    powers = set_power_norms(s3, 1)
    assert len(powers) == len(s3_bfs.group) == 648
    for elem, dist in powers.items():
        assert s3_bfs.norm_of(elem) == dist


def _reference_set_power_norms(base, window):
    """The set-power growth on ``LampElem.mul`` that preceded the flat tuples."""
    gens = enumerate_Sbar(base, window)
    ident = LampElem.identity(base, window)
    dist = {ident: 0}
    frontier = [ident]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for x in frontier:
            for s in gens:
                y = x.mul(s)
                if y not in dist:
                    dist[y] = level
                    nxt.append(y)
        frontier = nxt
    return dist


@pytest.mark.parametrize("name,window", [("s3", 1), ("z3", 2)])
def test_set_power_norms_equal_the_lamp_growth(request, name, window):
    # also cross-checks LampElem.mul against the BFS, through the set powers
    base = request.getfixturevalue(name)
    got = set_power_norms(base, window)
    expected = _reference_set_power_norms(base, window)
    assert list(got.items()) == list(expected.items())
    assert all(type(elem) is LampElem for elem in got)
    res = bfs_norms(base, window)
    assert all(res.norm_of(elem) == dist for elem, dist in expected.items())


def test_generator_norms_are_one(s3, s3_bfs):
    for s in enumerate_Sbar(s3, 1):
        assert s3_bfs.norm_of(s) == 1


def test_bfs_chunk_independence(s3, s3_bfs, monkeypatch):
    labels = _labels(s3_bfs.group)
    for chunk in (7, 100):
        monkeypatch.setattr(oracle, "BLOCK_ROWS", chunk)
        again = bfs_norms(s3, 1)
        assert (again.distances == s3_bfs.distances).all()
        assert again.layer_sizes == s3_bfs.layer_sizes
        assert (_labels(again.group) == labels).all()


def test_validators_s3(s3_bfs):
    assert validate_definiteness(s3_bfs)
    assert validate_symmetry(s3_bfs)
    assert validate_triangle_layers(s3_bfs)
    assert validate_invariance_generators(s3_bfs)
    assert validate_shift_bound(s3_bfs)


def test_a5_bfs_shape_and_validators(a5_bfs):
    assert len(a5_bfs.group) == 648_000
    assert a5_bfs.generator_count == 7377
    assert a5_bfs.diameter == 3
    assert sum(a5_bfs.layer_sizes) == 648_000
    assert validate_definiteness(a5_bfs)
    assert validate_symmetry(a5_bfs)
    assert validate_triangle_layers(a5_bfs)
    assert validate_shift_bound(a5_bfs)


def test_bounded_norm_full_agreement_s3(s3, s3_bfs):
    ctx = SbarContext(s3_bfs.group)
    # one builder: the old context name returns the BfsResult of bfs_norms
    assert ctx.gen_codes.tobytes() == s3_bfs.gen_codes.tobytes()
    assert ctx.distances.tobytes() == s3_bfs.distances.tobytes()
    assert ctx.layer_sizes == s3_bfs.layer_sizes
    assert (np.diff(ctx.gen_codes) > 0).all()
    encoded = sorted(ctx.group.encode(s) for s in enumerate_Sbar(s3, 1))
    assert ctx.gen_codes.tolist() == encoded
    for r_max in range(4):
        for code in range(len(s3_bfs.group)):
            expected = int(s3_bfs.distances[code])
            got = bounded_norm(ctx, s3_bfs.group.decode(code), r_max)
            assert got == (expected if expected <= r_max else None)
    with pytest.raises(ValueError):
        bounded_norm(ctx, s3_bfs.group.decode(0), 4)
    # t of window 2 is a generator, but not of this window-1 truncation
    with pytest.raises(ValueError):
        bounded_norm(ctx, LampElem.t_power(s3, 1, 2), 3)


def test_bounded_norm_spot_agreement_a5(a5, a5_bfs):
    ctx = SbarContext(a5_bfs.group)
    rng = random.Random(2)
    for _ in range(1000):
        code = rng.randrange(len(a5_bfs.group))
        expected = int(a5_bfs.distances[code])
        got = bounded_norm(ctx, a5_bfs.group.decode(code), 3)
        assert got == (expected if expected <= 3 else None)


def test_standard_generators_generate(s3, s3_bfs):
    # every element is a product of standard generators: BFS over them reaches all
    listed = FiniteGroup.from_elements(s3.elements)  # no recorded generators
    assert listed.generators == () and listed.identity_index == 0
    for base, count in ((s3, len(s3.generators) + 1), (listed, len(s3))):
        group = TruncatedGroup(base, 1)
        gens = [group.encode(g) for g in standard_generators(group)]
        assert len(gens) == count
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for s in gens:
                    y = _code_product(group, x, s)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(seen) == len(group)
    assert (bfs_norms(listed, 1).distances == s3_bfs.distances).all()


def _prep_generators(group, gens):
    n = group.window
    rows = [[s.value_at(i) for i in range(-n, n + 1)] for s in gens]
    return rows, [s.shift for s in gens]


def _mark_products(group, blocks, svecs, shifts, mask):
    """Set mask at x * s for every state x in ``blocks`` and every s."""
    for _, k, digits in blocks:
        for prods in _right_products(group, k, digits, svecs, shifts):
            mask[prods] = True


def _dense_bfs_reference(base, window):
    """The dense BFS that preceded the class quotient, kept as a reference.

    Every state is visited: each level expands forward from the frontier, or
    probes the unvisited states backward, whichever set is smaller.
    """
    group = TruncatedGroup(base, window)
    gvecs, gshifts = _prep_generators(group, enumerate_Sbar(base, window))
    order = len(group)
    distances = np.full(order, 255, dtype=np.uint8)
    visited = np.zeros(order, dtype=bool)
    distances[0] = 0
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    layer_sizes = [1]
    level = 0
    while frontier.size:
        level += 1
        unvisited = np.flatnonzero(~visited)
        if unvisited.size == 0:
            break
        if frontier.size <= unvisited.size:
            reached = np.zeros(order, dtype=bool)
            blocks = oracle._shift_blocks(group, frontier)
            _mark_products(group, blocks, gvecs, gshifts, reached)
            new = np.flatnonzero(reached & ~visited)
        else:
            hit = np.zeros(unvisited.size, dtype=bool)
            for pos, k, digits in oracle._shift_blocks(group, unvisited):
                agg = np.zeros(pos.size, dtype=bool)
                for prods in _right_products(group, k, digits, gvecs, gshifts):
                    agg |= visited[prods]
                hit[pos] = agg
            new = unvisited[hit]
        if new.size == 0:
            break
        distances[new] = level
        visited[new] = True
        frontier = new
        layer_sizes.append(int(new.size))
    return distances, layer_sizes


def _sampled_labels(group, codes):
    labels = np.empty_like(codes)
    for pos, k, digits in oracle._shift_blocks(group, codes):
        labels[pos] = oracle._class_label_block(group, digits, k)
    return labels


def _labels(group):
    """Every state's class label by one pass of ``_class_label_block``: the
    dense int32 array the oracle kept per state before it labelled blocks."""
    codes = np.arange(len(group), dtype=np.int64)
    return _sampled_labels(group, codes).astype(np.int32)


def _class_count(result):
    labels = _labels(result.group)
    return int(np.count_nonzero(labels == np.arange(labels.size)))


@pytest.mark.parametrize(
    "name,window,classes",
    [("s3", 1, 17), ("a4", 1, 32), ("s4", 1, 55), ("s3", 2, 63), ("a5", 1, 55)],
)
def test_class_bfs_matches_dense_reference(request, name, window, classes):
    base = request.getfixturevalue(name)
    res = bfs_norms(base, window)
    distances, layer_sizes = _dense_bfs_reference(base, window)
    assert res.distances.tobytes() == distances.tobytes()
    assert res.layer_sizes == layer_sizes
    k, w = len(base.conj_classes.classes), 2 * window + 1
    assert _class_count(res) == (k**w - k) // w + k + (w - 1) * k == classes


def test_class_labels_are_class_minima(s3_bfs):
    group = s3_bfs.group
    labels = _labels(group)
    assert labels.dtype == np.int32
    assert (labels <= np.arange(len(group))).all()
    rng = random.Random(3)
    for _ in range(40):
        x, y = rng.randrange(len(group)), rng.randrange(len(group))
        conj = group.decode(x).conjugate(group.decode(y))
        assert labels[group.encode(conj)] == labels[x]


@pytest.mark.parametrize(
    "name,window", [("s3", 1), ("a4", 1), ("s4", 1), ("s3", 2), ("a5", 1)]
)
def test_ball2_matches_state_level_products(request, name, window):
    # every product s . s' of two generators, formed state by state
    base = request.getfixturevalue(name)
    group = TruncatedGroup(base, window)
    gens = enumerate_Sbar(base, window)
    gvecs, gshifts = _prep_generators(group, gens)
    ctx = SbarContext(group)
    expected = np.zeros(len(group), dtype=bool)
    expected[[group.encode(s) for s in gens]] = True
    expected[0] = True
    blocks = oracle._shift_blocks(group, ctx.gen_codes)
    _mark_products(group, blocks, gvecs, gshifts, expected)
    assert ctx.ball2.tobytes() == expected.tobytes()


# sha256 of the int32 labels' bytes, taken before the labels were built blockwise
CLASS_LABELS_SHA256 = {
    ("s3", 2): "fc0ad7293253a1e93b6c88185f70fb18df5d7b588e09959d54c82a787bea9a52",
    ("a5", 1): "acabb870880e63452fc18e6fe17fac199b2e939b501d47e45ffc53b42093758d",
}


@pytest.mark.parametrize("name,window", sorted(CLASS_LABELS_SHA256))
def test_class_labels_pinned(request, name, window):
    labels = _labels(TruncatedGroup(request.getfixturevalue(name), window))
    digest = hashlib.sha256(labels.tobytes()).hexdigest()
    assert digest == CLASS_LABELS_SHA256[name, window]


@pytest.mark.parametrize("name,window", [("a5", 1), ("a4", 2)])
def test_bfs_retains_one_byte_per_state(request, name, window):
    # the result keeps its uint8 distances and int64 generator codes; the
    # group caches only base-sized tables, no per-state array
    base = request.getfixturevalue(name)
    base.conj_classes  # the base's own caches are not the BFS's
    tracemalloc.start()
    try:
        res = bfs_norms(base, window)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= len(res.group) + 8 * res.generator_count + 256 * 2**10


def _propagation_labels(group):
    """The search that preceded the closed form, kept as a reference.

    Min-label propagation with pointer jumping under conjugation by the
    standard generators, per shift residue (conjugation keeps the shift).
    Once a round changes nothing, lab[x] <= lab[p(x)] for each conjugation p,
    and p has finite order, so lab is constant on its cycles, hence on the
    class, where it can only be the minimum.
    """
    w = group.code.width
    ys = [group.encode(y) for y in standard_generators(group)]
    labels = np.empty(len(group), dtype=np.int32)
    size = len(group) // w
    # conjugation by each y, as a permutation of the indices code // w
    perms = [np.empty(size, dtype=np.int32) for _ in ys]
    for k in range(w):
        for start in range(0, size, oracle.BLOCK_ROWS):
            index = np.arange(start, min(start + oracle.BLOCK_ROWS, size))
            for pos, i, conj in _conjugates(group, index * w + k, ys):
                perms[i][start + pos] = conj // w
        lab = np.arange(size, dtype=np.int32)
        changed = True
        while changed:
            changed = False
            for perm in perms:
                pulled = lab[perm]
                changed |= bool((pulled < lab).any())
                np.minimum(lab, pulled, out=lab)
            jumped = lab[lab]
            while not np.array_equal(jumped, lab):
                lab, jumped = jumped, jumped[jumped]
        labels[k::w] = lab * w + k
    return labels


@pytest.mark.parametrize(
    "name,window",
    [("s3", 1), ("s3", 2), ("s3", 3), ("a4", 1), ("s4", 1), ("a5", 1), ("z3", 2),
     ("z3", 4)],
)
def test_class_labels_equal_the_propagation(request, name, window):
    group = TruncatedGroup(request.getfixturevalue(name), window)
    assert _labels(group).tobytes() == _propagation_labels(group).tobytes()


@pytest.mark.parametrize(
    "name,window",
    [("s3", 1), ("s3", 2), ("a4", 1), ("z3", 2), ("s3", 3), ("z3", 4)],
)
def test_class_sizes_count_the_labels(request, name, window):
    group = TruncatedGroup(request.getfixturevalue(name), window)
    counts = np.bincount(_labels(group))
    reps = np.flatnonzero(counts)
    assert [group.class_size(c) for c in reps.tolist()] == counts[reps].tolist()
    assert oracle._all_labels(group).tolist() == reps.tolist()


def test_class_labels_on_a_composite_nonabelian_width(s3):
    # S3 w4: w = 9, 90,699,264 states, so only sampled states are labelled
    group = TruncatedGroup(s3, 4)
    w = group.code.width
    rng = random.Random(9)
    # every shift residue, so each divisor 1, 3, 9 of w occurs as gcd(k, w)
    codes = np.array(
        [rng.randrange(len(group) // w) * w + i % w for i in range(900)],
        dtype=np.int64,
    )
    labels = _sampled_labels(group, codes)
    assert (labels <= codes).all()
    assert (_sampled_labels(group, labels) == labels).all()
    conjugates = np.array(
        [
            group.encode(group.decode(int(x)).conjugate(group.decode(y)))
            for x in codes
            for y in [rng.randrange(len(group))]
        ],
        dtype=np.int64,
    )
    assert (_sampled_labels(group, conjugates) == labels).all()
    # the group caches base-sized tables, no per-state array
    assert set(group.__dict__) <= {"base", "window", "code", "np_tables"}


def test_class_labels_search_no_conjugates(s3):
    # no conjugation kernel is left in the oracle for the labels to call
    assert not [name for name in vars(oracle) if "conjugates" in name]
    labels = _labels(TruncatedGroup(s3, 2))
    digest = hashlib.sha256(labels.tobytes()).hexdigest()
    assert digest == CLASS_LABELS_SHA256["s3", 2]


@pytest.mark.parametrize("name,window", [("s3", 1), ("s3", 2), ("a4", 1), ("a5", 1)])
def test_generator_codes_equal_the_enumerated_generators(request, name, window):
    base = request.getfixturevalue(name)
    group = TruncatedGroup(base, window)
    expected = sorted(group.encode(s) for s in enumerate_Sbar(base, window))
    codes = oracle._sbar_codes(group)
    assert codes.dtype == np.int64 and codes.tolist() == expected
    assert bfs_norms(base, window).gen_codes.tolist() == expected
    with pytest.raises(CapExceededError, match="cap"):
        bfs_norms(base, window, gen_cap=len(expected) - 1)


def test_bfs_levels_account_for_every_state(s3_bfs, a5_bfs):
    for res in (s3_bfs, a5_bfs):
        assert [lv.level for lv in res.levels] == list(range(1, res.diameter + 1))
        assert [lv.new_states for lv in res.levels] == res.layer_sizes[1:]
        assert res.levels[0].frontier_classes == 1
        # each level expands the classes first met one level before, the
        # last only until every state is reached, possibly partway through
        # its last frontier class
        *full, last = res.levels
        for prev, lv in zip(res.levels, full[1:]):
            assert lv.frontier_classes == prev.new_classes
        assert 1 <= last.frontier_classes <= full[-1].new_classes
        g = res.generator_count
        assert all(lv.products == lv.frontier_classes * g for lv in full)
        assert (last.frontier_classes - 1) * g < last.products
        assert last.products <= last.frontier_classes * g
        assert all(lv.seconds >= 0 for lv in res.levels)
        assert sum(lv.new_classes for lv in res.levels) + 1 == _class_count(res)


def test_bfs_stops_once_every_state_is_reached(s3, monkeypatch):
    # no class step after the last layer: each step expands one frontier class
    # per call to _products, and the steps are exactly the recorded levels
    calls = []
    products = oracle._products

    def counted(group, blocks, code):
        calls.append(code)
        return products(group, blocks, code)

    monkeypatch.setattr(oracle, "_products", counted)
    res = bfs_norms(s3, 2)
    assert len(calls) == sum(lv.frontier_classes for lv in res.levels)
    assert res.layer_sizes == [1, 2617, 24733, 11529]


def test_bfs_rejects_generators_that_split_a_class(s3, monkeypatch):
    # drop one generator that is not its class's least code: the class is
    # still met through its other members, so the sizes overcount the codes
    sbar_codes = oracle._sbar_codes

    def one_short(group, cap):
        codes = sbar_codes(group, cap)
        [drop] = np.flatnonzero(_labels(group)[codes] != codes)[:1]
        return np.delete(codes, drop)

    monkeypatch.setattr(oracle, "_sbar_codes", one_short)
    with pytest.raises(RuntimeError, match="not a union of conjugacy classes"):
        bfs_norms(s3, 1)


@pytest.mark.parametrize("name,window", [("s4", 1), ("s3", 2)])
def test_bfs_stops_mid_level(request, name, window):
    # the last level reaches every state before its frontier runs out
    res = bfs_norms(request.getfixturevalue(name), window)
    assert res.levels[-1].frontier_classes < res.levels[-2].new_classes


def test_bfs_guards_the_unreached_sentinel(s3, monkeypatch):
    # with the sentinel at 2, the S3 w1 BFS (diameter 3) must stop at level 2
    monkeypatch.setattr(oracle, "UNREACHED", 2)
    with pytest.raises(RuntimeError, match="sentinel"):
        bfs_norms(s3, 1)


def test_validators_reject_a_non_invariant_table(s3_bfs):
    # one non-representative generator pushed to distance 2: the triangle
    # inequality still holds, invariance fails, and the class-representative
    # triangle check must refuse the table rather than miss it
    labels = _labels(s3_bfs.group)
    d = s3_bfs.distances.copy()
    x = np.flatnonzero((labels != np.arange(d.size)) & (d == 1))[0]
    d[x] = 2
    broken = dataclasses.replace(s3_bfs, distances=d)
    assert not validate_invariance_generators(broken)
    assert not validate_triangle_layers(broken)


def test_triangle_rejects_a_class_moved_up_a_layer(s3_bfs):
    # each of the 10 layer-2 classes in turn: some are met only through
    # products of later layer-1 representatives, so every one must be used
    labels = _labels(s3_bfs.group)
    d0 = s3_bfs.distances
    reps = np.flatnonzero((labels == np.arange(d0.size)) & (d0 == 2))
    assert reps.size == 10
    for rep in reps:
        d = d0.copy()
        d[labels == rep] = 3
        moved = dataclasses.replace(s3_bfs, distances=d)
        assert validate_invariance_generators(moved)
        assert not validate_triangle_layers(moved)


def _reference_symmetry(result):
    """``validate_symmetry`` through the block kernel ``_inverses``."""
    codes = np.arange(len(result.group), dtype=np.int64)
    d = result.distances
    blocks = _inverses(result.group, codes)
    return all((d[inv] == d[pos]).all() for pos, inv in blocks)


def _reference_invariance(result):
    """``validate_invariance_generators`` through the block kernel ``_conjugates``."""
    group = result.group
    d = result.distances
    ys = [group.encode(y) for y in standard_generators(group)]
    codes = np.arange(len(group), dtype=np.int64)
    blocks = _conjugates(group, codes, ys)
    return all((d[conj] == d[pos]).all() for pos, _, conj in blocks)


def _reference_shift_bound(result):
    """``validate_shift_bound`` on a per-state shift array."""
    group = result.group
    w = group.code.width
    shifts = np.arange(len(group), dtype=np.int64) % w
    canonical = np.where(shifts <= group.window, shifts, w - shifts)
    return bool((result.distances >= canonical).all())


TENSOR_VALIDATORS = (
    (validate_symmetry, _reference_symmetry),
    (validate_invariance_generators, _reference_invariance),
    (validate_shift_bound, _reference_shift_bound),
)


@pytest.fixture(scope="module")
def a4w2_bfs(a4):
    return bfs_norms(a4, 2)


@pytest.mark.parametrize(
    "name,window",
    [("s3", 1), ("a4", 1), ("s4", 1), ("s3", 2), ("a5", 1), ("a4", 2)],
)
def test_tensor_validators_equal_the_block_kernels(request, name, window):
    fixture = {("s3", 1): "s3_bfs", ("a5", 1): "a5_bfs", ("a4", 2): "a4w2_bfs"}
    if (name, window) in fixture:
        res = request.getfixturevalue(fixture[name, window])
    else:
        res = bfs_norms(request.getfixturevalue(name), window)
    for validator, reference in TENSOR_VALIDATORS:
        assert validator(res) is reference(res) is True


def _perturbed_tables(res, rng):
    """50 tables with one state moved to a random distance, then 20 with a
    state and its inverse moved together: symmetric tables off shift 0."""
    group = res.group
    for i in range(70):
        d = res.distances.copy()
        x = 0 if rng.random() < 0.2 else rng.randrange(d.size)
        d[x] = rng.randrange(4)
        if i >= 50:
            d[group.encode(group.decode(x).inverse())] = d[x]
        yield dataclasses.replace(res, distances=d)


@pytest.mark.parametrize("name,window", [("s3", 1), ("s3", 2), ("a4", 1)])
def test_tensor_validators_on_perturbed_tables(request, name, window):
    # the identity, the involutions and unchanged values keep some tables valid
    res = bfs_norms(request.getfixturevalue(name), window)
    verdicts = {validator: set() for validator, _ in TENSOR_VALIDATORS}
    for perturbed in _perturbed_tables(res, random.Random(5)):
        for validator, reference in TENSOR_VALIDATORS:
            verdict = validator(perturbed)
            assert verdict is reference(perturbed)
            verdicts[validator].add(verdict)
    assert all(seen == {True, False} for seen in verdicts.values())


# sha256 of the A4 w2 distance body from the dense reference BFS
A4W2_SHA256 = "aff20f0089606478d8a95283ed66eaca4f8d0fc1e64d7ecb7b1ee73a10a34329"


def test_a4_window_two_ground_truth(a4w2_bfs):
    res = a4w2_bfs
    assert len(res.group) == 1_244_160
    assert res.generator_count == 41_527
    # pinned from one run of _dense_bfs_reference (minutes; kept out of the suite)
    assert res.layer_sizes == [1, 41527, 705808, 496824]
    assert hashlib.sha256(res.distances.tobytes()).hexdigest() == A4W2_SHA256
    assert _class_count(res) == 224
    for validator in (
        validate_definiteness,
        validate_symmetry,
        validate_triangle_layers,
        validate_invariance_generators,
        validate_shift_bound,
    ):
        assert validator(res)
    ctx = SbarContext(res.group)
    rng = random.Random(4)
    for _ in range(200):
        code = rng.randrange(len(res.group))
        expected = int(res.distances[code])
        got = bounded_norm(ctx, res.group.decode(code), 2)
        assert got == (expected if expected <= 2 else None)


def test_binary_round_trip(tmp_path, s3_bfs):
    path = tmp_path / "norms.bin"
    write_norms_binary(path, s3_bfs)
    header, body = read_norms_binary(path)
    assert header["order"] == len(s3_bfs.group)
    assert header["window"] == 1
    assert header["diameter"] == s3_bfs.diameter
    assert (body == s3_bfs.distances).all()


@pytest.mark.parametrize(
    "header", [b'{"window": 1}', b'[648]', b'{"order": "3"}', b'{"order": true}']
)
def test_binary_header_must_be_an_object_with_an_integer_order(tmp_path, header):
    path = tmp_path / "norms.bin"
    path.write_bytes(oracle.BINARY_MAGIC + header + b"\n" + bytes(3))
    with pytest.raises(ValueError, match="integer order"):
        read_norms_binary(path)


# Z2 listed with its identity second: identity_index is 1, not 0.
def _z2_identity_second():
    return FiniteGroup.from_elements([(1, 0, 2), (0, 1, 2)])


def _factors(base, positions, sign):
    """The raw definition over LampElem: g . alpha(g^-1) for every vector g
    supported inside ``positions`` (sign +1), or alpha(g) . g^-1 (sign -1)."""
    out = []
    for choice in iter_product(range(len(base)), repeat=len(positions)):
        vec = LampElem.make(base, dict(zip(positions, choice)), 0, None)
        if sign == 1:
            out.append(vec.mul(vec.inverse().alpha(1)))
        else:
            out.append(vec.alpha(1).mul(vec.inverse()))
    return out


def _pair_supports(base, positions, order):
    first = -1 if order == "-+" else 1
    right = _factors(base, positions, -first)
    return {
        f1.mul(f2).support for f1 in _factors(base, positions, first) for f2 in right
    }


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", ["s3", "z3"])
def test_factor_image_matches_definition(request, name, sign):
    base = request.getfixturevalue(name)
    expected = {f.support for f in _factors(base, (1, 2, 3), sign)}
    assert factor_image(base, (1, 2, 3), sign) == expected
    assert factor_image(base, (3, 1), sign) == {
        f.support for f in _factors(base, (1, 3), sign)
    }


@pytest.mark.parametrize("order", ["-+", "+-"])
@pytest.mark.parametrize("name,width", [("z3", 4), ("s3", 3)])
def test_pm_pair_image_matches_pair_loop(request, name, width, order):
    base = request.getfixturevalue(name)
    positions = tuple(range(1, width + 1))
    assert pm_pair_image(base, positions, order) == _pair_supports(
        base, positions, order
    )


def test_pm_pair_image_cap(s3):
    with pytest.raises(CapExceededError):
        pm_pair_image(s3, (1, 2, 3, 4, 5), "-+")  # 6^10 pairs


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_distinct_matches_np_unique(dtype):
    rng = np.random.default_rng(0)
    for a in (
        np.array([], dtype=dtype),
        np.array([7], dtype=dtype),
        rng.integers(0, 50, size=300).astype(dtype),
        rng.integers(-9, 9, size=(40, 30)).astype(dtype),  # like pm_pair_image's
        np.full((3, 4), 5, dtype=dtype),
    ):
        got, expected = oracle._distinct(a), np.unique(a)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert (got == expected).all()


def _reference_shift_blocks(group, codes):
    """The np.unique form ``_shift_blocks`` replaced."""
    ks = codes % group.code.width
    for k in np.unique(ks):
        positions = np.nonzero(ks == k)[0]
        for start in range(0, positions.size, oracle.BLOCK_ROWS):
            pos = positions[start : start + oracle.BLOCK_ROWS]
            digits, _ = group.decode_batch(codes[pos])
            yield pos, int(k), digits


def test_shift_blocks_match_the_unique_form(s3, monkeypatch):
    monkeypatch.setattr(oracle, "BLOCK_ROWS", 50)  # several blocks per class
    group = TruncatedGroup(s3, 1)
    codes = np.arange(len(group), dtype=np.int64)
    w = group.code.width
    rng = np.random.default_rng(1)
    for sample in (
        codes,
        rng.permutation(codes)[:300],
        codes[codes % w != 1],  # residue 1 missing
        codes[codes % w == 2][::-1],  # one residue only
        codes[:0],
    ):
        got = list(oracle._shift_blocks(group, sample))
        expected = list(_reference_shift_blocks(group, sample))
        assert [k for _, k, _ in got] == sorted(k for _, k, _ in got)
        assert len(got) == len(expected)
        for (pos, k, digits), (pos0, k0, digits0) in zip(got, expected):
            assert k == k0 and type(k) is int and (pos == pos0).all()
            assert all((d == d0).all() for d, d0 in zip(digits, digits0))


def test_oracle_kernels_do_not_call_np_unique(s3, z3, monkeypatch):
    # numpy >= 2.3's np.unique hashes, a hundred times slower than a sort on
    # A5's factor codes; sizes pinned as in perfbench
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    assert len(factor_image(s3, (1, 2, 3), 1)) == 216
    assert len(pm_pair_image(z3, (1, 2, 3), "-+")) == 27
    assert bfs_norms(s3, 1).layer_sizes == [1, 87, 497, 63]


def test_exhaustive_oracles_use_the_base_identity():
    base = _z2_identity_second()
    assert base.identity_index == 1
    for sign in (1, -1):
        assert factor_image(base, (1, 2), sign) == {
            f.support for f in _factors(base, (1, 2), sign)
        }
    for order in ("-+", "+-"):
        image = pm_pair_image(base, (1, 2), order)
        assert image == _pair_supports(base, (1, 2), order)
        assert all(v != base.identity_index for s in image for _, v in s)


def test_truncation_rejects_nonzero_identity():
    with pytest.raises(ValueError, match="identity at index 0"):
        TruncatedGroup(_z2_identity_second(), 1)
    with pytest.raises(ValueError, match="identity at index 0"):
        bfs_norms(_z2_identity_second(), 1)


def test_pm_weight3_exhaustive_verifies(a5):
    found = pm_weight3_exhaustive(a5, 5, 9, a5.mul(a5.inv(9), a5.inv(5)))
    assert found is not None
    a, b, e = found
    lhs = a5.mul_many(
        (e, a5.inv(b), a5.inv(9), b, a5.inv(a), a5.inv(5), a, a5.inv(e))
    )
    assert lhs == a5.mul(a5.inv(9), a5.inv(5))
    u1 = a5.index[tuple([1, 0, 3, 2, 4])]
    five = a5.index[tuple([1, 2, 3, 4, 0])]
    assert pm_weight3_exhaustive(a5, u1, five, five) is None


def test_oracle_mode_boundary_on_s1s2_violating_base(s3):
    """On a base failing S1/S2 the case table stays exact at |shift| <= 1 and
    deviates from BFS only where its reasoning needs the two-factor
    absorption, i.e. the |shift| > 1 row."""
    from wreathnorm.gznorm import norm_truncated

    res = bfs_norms(s3, 2)
    rng = random.Random(0)
    for _ in range(800):
        code = rng.randrange(len(res.group))
        elem = res.group.decode(code)
        formula = norm_truncated(elem, mode="oracle")
        exact = int(res.distances[code])
        if abs(elem.shift) <= 1:
            assert formula == exact
        else:
            assert formula <= exact  # advisory value may undershoot here
