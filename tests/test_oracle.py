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


def _code_product(group, c1, c2):
    return group.encode(group.decode(c1).mul(group.decode(c2)))


def test_code_arithmetic_matches_elements(s3):
    # the batch kernel's products and inverses against LampElem's law
    group = TruncatedGroup(s3, 1)
    rng = random.Random(1)
    for _ in range(300):
        c1, c2 = rng.randrange(len(group)), rng.randrange(len(group))
        blocks = list(oracle._shift_blocks(group, np.array([c1], dtype=np.int64)))
        [(_, prods)] = oracle._times(group, blocks, c2)
        assert int(prods[0]) == _code_product(group, c1, c2)
        [(_, inv)] = oracle._inverses(group, np.array([c1], dtype=np.int64))
        assert int(inv[0]) == group.encode(group.decode(c1).inverse())


def test_batch_helpers(s3):
    group = TruncatedGroup(s3, 1)
    codes = np.arange(len(group), dtype=np.int64)
    inv = np.empty_like(codes)
    for pos, block in oracle._inverses(group, codes):
        inv[pos] = block
    for c in codes[::17]:
        assert int(inv[c]) == group.encode(group.decode(int(c)).inverse())
    by = (123, 124, 125)  # one conjugator per shift residue
    conj = np.empty((len(by), codes.size), dtype=np.int64)
    for pos, i, block in oracle._conjugates(group, codes, by):
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


def test_generator_norms_are_one(s3, s3_bfs):
    for s in enumerate_Sbar(s3, 1):
        assert s3_bfs.norm_of(s) == 1


def test_bfs_chunk_independence(s3, s3_bfs, monkeypatch):
    for chunk in (7, 100):
        monkeypatch.setattr(oracle, "BLOCK_ROWS", chunk)
        again = bfs_norms(s3, 1)
        assert (again.distances == s3_bfs.distances).all()
        assert again.layer_sizes == s3_bfs.layer_sizes
        assert (again.group.class_labels == s3_bfs.group.class_labels).all()


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
        for prods in oracle._right_products(group, k, digits, svecs, shifts):
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
                for prods in oracle._right_products(group, k, digits, gvecs, gshifts):
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


def _class_count(result):
    labels = result.group.class_labels
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
    labels = group.class_labels
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


# sha256 of class_labels.tobytes(), taken before the labels were built blockwise
CLASS_LABELS_SHA256 = {
    ("s3", 2): "fc0ad7293253a1e93b6c88185f70fb18df5d7b588e09959d54c82a787bea9a52",
    ("a5", 1): "acabb870880e63452fc18e6fe17fac199b2e939b501d47e45ffc53b42093758d",
}


@pytest.mark.parametrize("name,window", sorted(CLASS_LABELS_SHA256))
def test_class_labels_pinned(request, name, window):
    labels = TruncatedGroup(request.getfixturevalue(name), window).class_labels
    digest = hashlib.sha256(labels.tobytes()).hexdigest()
    assert digest == CLASS_LABELS_SHA256[name, window]


def test_class_labels_peak_memory(a5):
    group = TruncatedGroup(a5, 1)
    tracemalloc.start()
    try:
        group.class_labels
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_bfs_guards_the_unreached_sentinel(s3, monkeypatch):
    # with the sentinel at 2, the S3 w1 BFS (diameter 3) must stop at level 2
    monkeypatch.setattr(oracle, "UNREACHED", 2)
    with pytest.raises(RuntimeError, match="sentinel"):
        bfs_norms(s3, 1)


def test_validators_reject_a_non_invariant_table(s3_bfs):
    # one non-representative generator pushed to distance 2: the triangle
    # inequality still holds, invariance fails, and the class-representative
    # triangle check must refuse the table rather than miss it
    labels = s3_bfs.group.class_labels
    d = s3_bfs.distances.copy()
    x = np.flatnonzero((labels != np.arange(d.size)) & (d == 1))[0]
    d[x] = 2
    broken = dataclasses.replace(s3_bfs, distances=d)
    assert not validate_invariance_generators(broken)
    assert not validate_triangle_layers(broken)


def test_triangle_rejects_a_class_moved_up_a_layer(s3_bfs):
    labels = s3_bfs.group.class_labels
    d = s3_bfs.distances.copy()
    rep = np.flatnonzero((labels == np.arange(d.size)) & (d == 2))[0]
    d[labels == rep] = 3
    moved = dataclasses.replace(s3_bfs, distances=d)
    assert validate_invariance_generators(moved)
    assert not validate_triangle_layers(moved)


# sha256 of the A4 w2 distance body from the dense reference BFS
A4W2_SHA256 = "aff20f0089606478d8a95283ed66eaca4f8d0fc1e64d7ecb7b1ee73a10a34329"


def test_a4_window_two_ground_truth(a4):
    res = bfs_norms(a4, 2)
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
