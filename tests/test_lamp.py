import dataclasses
import random
from collections.abc import Mapping
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from wreathnorm.groups import FiniteGroup, generate_group
from wreathnorm.lamp import (
    LampElem,
    in_Sbar,
    in_single_support,
    in_Tminus,
    in_Tplus,
)


def rand_elem(rng, base, max_w=4, span=4, max_shift=3, window=None):
    if window is not None:
        span = min(span, window)
    weight = rng.randint(0, min(max_w, 2 * span + 1))
    idxs = rng.sample(range(-span, span + 1), weight)
    support = {i: rng.randrange(1, len(base)) for i in idxs}
    return LampElem.make(base, support, rng.randint(-max_shift, max_shift), window)


def test_canonical_form_drops_identities(s3):
    e = LampElem.make(s3, {0: s3.identity_index, 2: 3}, 0)
    assert e.support == ((2, 3),)


def test_truncated_reduction(s3):
    e = LampElem.make(s3, {4: 3}, 5, window=1)  # indices mod 3 into {-1,0,1}
    assert e.support == ((1, 3),)
    assert e.shift == -1
    assert LampElem.t_power(s3, 3, window=1).is_identity()


def test_truncated_rejects_collisions(s3, a5):
    with pytest.raises(ValueError):
        LampElem.make(s3, {0: 3, 3: 4}, 0, window=1)
    # two entries naming one reduced index, whatever their values and order
    for support, window in [
        ([(1, 0), (1, 5)], None),
        ([(1, 5), (1, 0)], None),
        ({1: 0, 6: 5}, 2),
        ({6: 5, 1: 0}, 2),
    ]:
        with pytest.raises(ValueError, match="duplicate support index"):
            LampElem.make(a5, support, 0, window)


def reference_make(base, support, shift, window):
    """The dict-and-set canonicalizer ``make`` replaced: (support, shift) of
    the element, raising ValueError where ``make`` must."""
    canon = _canon(window)
    items = support.items() if isinstance(support, Mapping) else support
    cleaned, dropped = {}, set()
    for idx, val in items:
        if not 0 <= val < len(base):
            raise ValueError("value outside the base")
        idx = canon(idx)
        if idx in cleaned or idx in dropped:
            raise ValueError("duplicate index")
        if val != base.identity_index:
            cleaned[idx] = val
        else:
            dropped.add(idx)
    return tuple(sorted(cleaned.items())), canon(shift)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    data=st.data(),
    window=st.sampled_from([None, 1, 2, 3]),
    shift=st.integers(-9, 9),
    form=st.sampled_from(["dict", "list", "tuple", "sorted tuple", "canonical tuple"]),
)
def test_make_matches_reference_canonicalizer(s3, data, window, shift, form):
    # indices in -8..8 collide often, and more so once reduced mod 2n+1;
    # values run one past each end of the base
    entry = st.tuples(st.integers(-8, 8), st.integers(-1, len(s3)), st.booleans())
    entries = data.draw(st.lists(entry, max_size=7))
    if form == "dict":
        support = {i: v for i, v, _ in entries}
    elif form == "canonical tuple":  # the form ``make`` returns as it is
        canon, kept = _canon(window), {}
        for i, v, _ in entries:
            if 0 <= v < len(s3) and v != s3.identity_index:
                kept.setdefault(canon(i), v)
        support = tuple(sorted(kept.items()))
    else:  # unsorted, repeated, identity and out-of-range entries, list pairs
        pairs = [(i, v) if as_tuple else [i, v] for i, v, as_tuple in entries]
        if form == "sorted tuple":  # by raw index: may still wrap or repeat
            pairs.sort(key=lambda pair: pair[0])
        support = pairs if form == "list" else tuple(pairs)
    try:
        expected = reference_make(s3, support, shift, window)
    except ValueError:
        expected = ValueError
    try:
        elem = LampElem.make(s3, support, shift, window)
        got = (elem.support, elem.shift)
    except ValueError:
        got = ValueError
    assert got == expected
    if form == "canonical tuple":
        assert elem.support is support


def test_make_allocates_only_the_element(a5):
    support = ((-2, 5), (0, 7), (3, 59))
    elem = LampElem.make(a5, support)
    assert elem.support is support
    assert elem.support == support
    assert all(new is old for new, old in zip(elem.support, support))
    assert not hasattr(elem, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        elem.shift = 1


@pytest.mark.parametrize("value", [999, 60, -1])
@pytest.mark.parametrize("support", [dict, list])
def test_make_rejects_values_outside_the_base(a5, value, support):
    items = support({0: 7, 2: value}.items())
    with pytest.raises(ValueError, match="outside"):
        LampElem.make(a5, items)
    assert LampElem.make(a5, support({0: 7, 2: 59}.items())).support == ((0, 7), (2, 59))


def test_mul_identity_and_inverse(a5):
    rng = random.Random(0)
    ident = LampElem.identity(a5)
    for _ in range(50):
        x = rand_elem(rng, a5)
        assert x.mul(ident) == x and ident.mul(x) == x
        assert x.mul(x.inverse()).is_identity()
        assert x.inverse().inverse() == x
        assert x.inverse().shift == -x.shift


def test_shift_conjugation_is_alpha(a5):
    rng = random.Random(1)
    t = LampElem.t_power(a5, 1)
    for _ in range(30):
        g = rand_elem(rng, a5, max_shift=0)
        assert t.mul(g).mul(t.inverse()) == g.alpha(1)
        assert g.alpha(1).alpha(-1) == g


def test_alpha_moves_support_down(a5):
    single = LampElem.single(a5, 0, 7)
    assert single.alpha(1).support_indices() == (-1,)
    wrapped = LampElem.single(a5, -1, 7, window=1)
    assert wrapped.alpha(1).support_indices() == (1,)


def test_associativity_sampled(a5):
    rng = random.Random(2)
    for _ in range(200):
        x, y, z = (rand_elem(rng, a5) for _ in range(3))
        assert x.mul(y).mul(z) == x.mul(y.mul(z))


def test_shift_is_homomorphism(a5):
    rng = random.Random(3)
    for _ in range(100):
        x, y = rand_elem(rng, a5), rand_elem(rng, a5)
        assert x.mul(y).shift == x.shift + y.shift
    for _ in range(100):
        x = rand_elem(rng, a5, window=2)
        y = rand_elem(rng, a5, window=2)
        assert x.mul(y).shift == ((x.shift + y.shift + 2) % 5) - 2


def test_conjugate_of_torsion_stays_torsion(a5):
    rng = random.Random(4)
    for _ in range(50):
        x = rand_elem(rng, a5, max_shift=0)
        y = rand_elem(rng, a5)
        assert x.conjugate(y).shift == 0


def test_stats(a5):
    assert LampElem.t_power(a5, 3).extent() == 3
    assert LampElem.make(a5, {-2: 5, 5: 9}, 1).extent() == 5
    assert LampElem.make(a5, {-6: 5, 2: 9}, 1).extent() == 6
    # inverse of a torsion element keeps the same support window
    x = LampElem.make(a5, {-2: 5, 5: 9}, 0)
    assert x.inverse().extent() == x.extent() == 5


def test_membership_basics(a5):
    t = LampElem.t_power(a5, 1)
    assert in_Tplus(t) and in_Sbar(t)
    assert in_Tminus(t.inverse())
    g = 17
    pair = LampElem.make(a5, {0: g, 1: a5.inv(g)}, 1)
    assert in_Tplus(pair)
    single = LampElem.single(a5, -4, 9)
    assert in_single_support(single) and in_Sbar(single)
    assert not in_Sbar(LampElem.identity(a5))


def tuple_factor_images(base, choices):
    """The plus and minus factor images over the vectors g with values
    ``choices`` at indices 1..3, built as support tuples: index i gets
    g_i g_(i+1)^-1 in the plus image and g_(i+1) g_i^-1 in the minus image."""
    e = base.identity_index
    size = range(len(base))
    over = [[base.mul(x, base.inv(y)) for y in size] for x in size]  # x y^-1
    plus_image, minus_image = set(), set()
    for a, b, c in choices:  # g_1, g_2, g_3; g_0 = g_4 = e
        plus = ((0, over[e][a]), (1, over[a][b]), (2, over[b][c]), (3, over[c][e]))
        minus = ((0, over[a][e]), (1, over[b][a]), (2, over[c][b]), (3, over[e][c]))
        plus_image.add(tuple([p for p in plus if p[1] != e]))
        minus_image.add(tuple([m for m in minus if m[1] != e]))
    return plus_image, minus_image


def _canon(n):
    return (lambda i: i) if n is None else (lambda i: (i + n) % (2 * n + 1) - n)


def reference_mul(x, y):
    """The semidirect law pointwise, (x.y)_i = x_i . y_(i + shift(x)),
    through the checked constructor ``make``."""
    base, k, canon = x.base, x.shift, _canon(x.window)
    idxs = {i for i, _ in x.support} | {canon(j - k) for j, _ in y.support}
    support = {i: base.mul(x.value_at(i), y.value_at(i + k)) for i in idxs}
    return LampElem.make(base, support, k + y.shift, x.window)


def reference_inverse(x):
    canon = _canon(x.window)
    support = {canon(j + x.shift): x.base.inv(v) for j, v in x.support}
    return LampElem.make(x.base, support, -x.shift, x.window)


def reference_alpha(x, k):
    return LampElem.make(x.base, {i - k: v for i, v in x.support}, 0, x.window)


@pytest.mark.parametrize("window", [None, 1, 2, 3])
def test_direct_arithmetic_matches_make(s3, a5, window):
    # mul, inverse and alpha build canonical results without make; the
    # references go through make, and truncated shift sums wrap
    rng = random.Random(f"direct arithmetic {window}")
    for base in (s3, a5):
        for _ in range(300):
            x = rand_elem(rng, base, max_w=7, max_shift=7, window=window)
            y = rand_elem(rng, base, max_w=7, max_shift=7, window=window)
            assert x.mul(y) == reference_mul(x, y)
            assert x.inverse() == reference_inverse(x)
            torsion = LampElem.make(base, dict(x.support), 0, window)
            k = rng.randint(-9, 9)
            assert torsion.alpha(k) == reference_alpha(torsion, k)


@pytest.mark.parametrize("group_name", ["S3", "A5"])
def test_telescoping_equals_existential_definition(group_name, s3, a5):
    base = {"S3": s3, "A5": a5}[group_name]
    window = (1, 2, 3)
    choices = list(product(range(len(base)), repeat=3))
    plus_image, minus_image = tuple_factor_images(base, choices)
    if group_name == "S3":
        # the tuple-built images are those of g . alpha(g^-1) and alpha(g) . g^-1
        vecs = [LampElem.make(base, dict(zip(window, c)), 0) for c in choices]
        assert plus_image == {v.mul(v.inverse().alpha(1)).support for v in vecs}
        assert minus_image == {v.alpha(1).mul(v.inverse()).support for v in vecs}
    t, t_inv = LampElem.t_power(base, 1), LampElem.t_power(base, -1)
    for choice in choices:
        target = LampElem.make(base, dict(zip(window, choice)), 0)
        assert in_Tplus(target.mul(t)) == (target.support in plus_image)
        assert in_Tminus(target.mul(t_inv)) == (target.support in minus_image)


def test_in_sbar_conjugation_invariant(a5):
    rng = random.Random(6)
    gens = [LampElem.single(a5, 0, 9), LampElem.t_power(a5, 1)]
    pair = LampElem.make(a5, {0: 3, 1: a5.inv(3)}, 1)
    for x in gens + [pair]:
        for _ in range(40):
            y = rand_elem(rng, a5)
            assert in_Sbar(x.conjugate(y)) == in_Sbar(x)
    # truncated mode: cyclic rotation leaves the cyclic product condition alone
    tr = LampElem.make(a5, {-1: 3, 0: 5, 1: a5.inv(a5.mul(3, 5))}, 1, window=1)
    assert in_Tplus(tr)
    t = LampElem.t_power(a5, 1, window=1)
    for k in range(3):
        assert in_Tplus(tr.conjugate(LampElem.t_power(a5, k, window=1)))


def embedding_into_permutations(base: FiniteGroup, n: int) -> dict:
    """The truncation acting on (position, point) pairs, as one permutation
    per element; a faithful action compatible with left-to-right composition."""
    width = 2 * n + 1
    degree = width * base.degree

    def to_perm(elem: LampElem):
        images = [0] * degree
        for pos in range(width):
            i = pos - n
            h = base.elements[elem.value_at(i)]
            for x in range(base.degree):
                new_pos = (i + elem.shift + n) % width
                images[pos * base.degree + x] = new_pos * base.degree + h[x]
        return tuple(images)

    return to_perm


def test_truncated_mul_matches_permutation_embedding(s3):
    to_perm = embedding_into_permutations(s3, 1)
    gens = [LampElem.single(s3, 0, v, 1) for v in range(1, 6)]
    gens += [LampElem.t_power(s3, 1, 1), LampElem.t_power(s3, -1, 1)]
    closure = generate_group([to_perm(g) for g in gens])
    assert len(closure) == 648  # the full truncation, fully enumerated

    from wreathnorm.groups import compose

    rng = random.Random(7)
    for _ in range(200):
        x = rand_elem(rng, s3, window=1, span=1)
        y = rand_elem(rng, s3, window=1, span=1)
        assert to_perm(x.mul(y)) == compose(to_perm(x), to_perm(y))
    # faithfulness on a sample
    seen = {to_perm(rand_elem(rng, s3, window=1, span=1)) for _ in range(200)}
    assert len(seen) > 100


def test_json_round_trip(a5):
    rng = random.Random(8)
    for window in (None, 2):
        for _ in range(20):
            x = rand_elem(rng, a5, window=window, span=2)
            doc = x.to_json()
            assert LampElem.from_json(a5, doc) == x
    with pytest.raises(ValueError):
        LampElem.from_json(a5, {"mode": "infinite", "shift": 0, "support": {"0": [1, 0, 2, 3, 4]}})
