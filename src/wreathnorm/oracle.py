"""Brute-force ground truth on finite truncations: full BFS word norms.

States are mixed-radix integers: base-group digits per window position (index
-n first, most significant) followed by the shift residue, so the whole
truncation indexes a dense array.  All batch products go through one step
that multiplies the digit columns of one shift class at a time by one state.

The conjugacy-closed generating set S-bar is a union of conjugacy classes
(checked before use), so every ball around the identity is one too.  A
state's class label, the least code in its class, is read in closed form off
the classes of its cycle products (``_class_label_block``), a block of digit
columns at a time: no search over conjugates finds it, and no state stores
it.  The class step: for X a union of classes, X . S-bar is the union of the
classes met by r . S-bar for one representative r per class of X, as
x = y^-1 r y gives x . S-bar = y^-1 (r . S-bar) y.  The BFS takes one class
step per level, keeping each class's distance at its label, then copies it
to the other states.  One ``BfsResult`` holds that search: ``bfs_norms``
returns it, and ``bounded_norm`` answers queries by lookup into it.  Distance
labels are convention-free, so runs are deterministic.

Both searches (the class BFS and ``set_power_norms``) stop the moment every
state has a distance, even partway through a level.  This is exact: a state
first met while expanding layer L - 1 has distance L, that layer is only read
while level L forms, and once every state is met no later product can lower
or set a distance.

The large-table validators are exact reformulations sized for millions of
states.  Most read the distances as a tensor D[v_0, ..., v_(w-1), k] (digit p
on axis p, the shift residue last: the code layout), so a check is a gather
along an axis or two of one shift slice and a transposed view:

* symmetry: (v, k)^-1 = (u, -k) with u_p = v_(p-k)^-1, so the -k slice with
  ``inv`` taken along every axis and the axes rotated by k is the k slice;
* a table is invariant under all conjugations iff it is invariant under a
  generating set (induction on the conjugator's word length; invariance
  under y gives it under y^-1), and the truncation is generated by the base's
  generators at index 0 plus the shift t.  A single a at digit p conjugates
  (v, k) by v_p -> a^-1 v_p and v_(p-k) -> v_(p-k) a (one axis when k = 0),
  and t^-1 (v, k) t = (v_(p-1), k) rotates the axes by one;
* the shift bound: the k slice is at least min(k, w - k);
* the triangle inequality holds iff layer_i * layer_j stays inside
  ball_{i+j} for all i, j, which is vacuous once i + j reaches the diameter;
  on an invariant table every layer is conjugation-closed, so one
  representative per class of layer_i against all of layer_j decides it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from pathlib import Path
from typing import Sequence

import numpy as np

from .groups import CapExceededError, FiniteGroup
from .lamp import LampElem

DEFAULT_STATE_CAP = 10**9
DEFAULT_GEN_CAP = 10**7
SET_POWER_STATE_CAP = 200_000
PAIR_IMAGE_CAP = 4_000_000
TRIANGLE_PAIR_CAP = 300_000_000
BINARY_MAGIC = b"WNBF1\n"
UNREACHED = 255  # uint8 distance sentinel; no level may reach it


@dataclass(frozen=True)
class DenseCode:
    """Bijection between truncation elements and 0..|P|^(2n+1)*(2n+1)-1."""

    base_order: int
    window: int

    @property
    def width(self) -> int:
        return 2 * self.window + 1

    @property
    def order(self) -> int:
        return self.base_order**self.width * self.width

    def encode_parts(self, digits: Sequence[int], shift: int) -> int:
        vec = 0
        for d in digits:
            vec = vec * self.base_order + d
        return vec * self.width + shift % self.width

    def decode_parts(self, code: int) -> tuple[list[int], int]:
        shift = code % self.width
        vec = code // self.width
        digits = [0] * self.width
        for j in range(self.width - 1, -1, -1):
            digits[j] = vec % self.base_order
            vec //= self.base_order
        return digits, shift


class TruncatedGroup:
    """The full finite truncation with dense integer element indices.

    Codecs to and from explicit elements (whose products are ``LampElem``'s)
    and the tables of the batch product step below.  The base identity must be
    element 0, so the identity has code 0.
    """

    def __init__(
        self, base: FiniteGroup, window: int, state_cap: int = DEFAULT_STATE_CAP
    ):
        if window < 1:
            raise ValueError("truncations need window n >= 1 (shift must act)")
        if base.identity_index != 0:
            raise ValueError("truncations need the base identity at index 0")
        self.base = base
        self.window = window
        self.code = DenseCode(len(base), window)
        if self.code.order > state_cap:
            raise CapExceededError(
                f"truncation has {self.code.order} states, over the cap {state_cap}"
            )

    def __len__(self) -> int:
        return self.code.order

    def __repr__(self) -> str:
        return f"TruncatedGroup(order={len(self)}, window={self.window})"

    def encode(self, elem: LampElem) -> int:
        if elem.base is not self.base or elem.window != self.window:
            raise ValueError("element does not live in this truncation")
        n = self.window
        values = dict(elem.support)
        digits = [values.get(i, 0) for i in range(-n, n + 1)]  # identity: 0
        return self.code.encode_parts(digits, elem.shift)

    def decode(self, code: int) -> LampElem:
        digits, shift = self.code.decode_parts(code)
        n = self.window
        return LampElem.make(
            self.base, {j - n: d for j, d in enumerate(digits)}, shift, n
        )

    @cached_property
    def np_tables(self) -> dict:
        b = len(self.base)
        mul = np.array(self.base._mul_table, dtype=np.int64)
        mulT = np.ascontiguousarray(mul.T)
        classes = self.base.conj_classes
        return {
            # per-element gather rows; None marks the identity (element 0)
            "mulT_rows": [None] + list(mulT[1:]),
            "mul": mul.ravel(),  # a * b at a * |P| + b
            "inv": np.array(self.base._inv_table, dtype=np.int64),
            # the least element of each element's class
            "least": np.array(classes.reps)[list(classes.class_of)],
            "radix": np.array(
                [b ** (self.code.width - 1 - j) for j in range(self.code.width)],
                dtype=np.int64,
            ),
        }

    def decode_batch(self, codes: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        w = self.code.width
        b = len(self.base)
        shifts = codes % w
        vec = codes // w
        radix = self.np_tables["radix"]
        digits = [(vec // radix[j]) % b for j in range(w)]
        return digits, shifts

    def class_size(self, label: int) -> int:
        """The number of states in the class whose least code is ``label``.

        By the class form in ``_class_label_block``: with d = gcd(k, w) and the
        cycle-product classes (c_0, ..., c_(d-1)) in the label's last d digits,
        each distinct rotation of that tuple is met by |P|^(w-d) prod |K(c_r)|
        base vectors (a cycle's w/d - 1 leading digits are free, its last one
        closes the product into its class).
        """
        w = self.code.width
        digits, k = self.code.decode_parts(label)
        d = gcd(k, w)
        classes = self.base.conj_classes
        ids = tuple(classes.class_of[v] for v in digits[w - d :])
        size = len({ids[s:] + ids[:s] for s in range(d)}) * len(self.base) ** (w - d)
        for c in ids:
            size *= len(classes.classes[c])
        return size


# -- the batch product step -------------------------------------------------------

BLOCK_ROWS = 1 << 14


def _shift_blocks(group: TruncatedGroup, codes: np.ndarray):
    """Yield (positions, k, digit columns) per shift class k of ``codes``, in
    ascending k, at most BLOCK_ROWS codes at a time.  The residues present
    are read from a count, not from ``np.unique``, which hashes in numpy >= 2.3
    (see ``_distinct``)."""
    w = group.code.width
    ks = codes % w
    for k in np.flatnonzero(np.bincount(ks, minlength=w)):
        positions = np.nonzero(ks == k)[0]
        for start in range(0, positions.size, BLOCK_ROWS):
            pos = positions[start : start + BLOCK_ROWS]
            digits, _ = group.decode_batch(codes[pos])
            yield pos, int(k), digits


def _products(group: TruncatedGroup, blocks, code: int):
    """Yield (shift residue, digit columns) of x * c over the shift blocks of
    states x, for the one state c = ``code``: digit j of (v, k) * (u, m) is
    v_j . u_(j+k), its shift k + m."""
    w = group.code.width
    rows = group.np_tables["mulT_rows"]
    cvec, cshift = group.code.decode_parts(code)
    for _, k, digits in blocks:
        lookups = (rows[cvec[(j + k) % w]] for j in range(w))
        yield (k + cshift) % w, [
            col if row is None else row[col] for row, col in zip(lookups, digits)
        ]


def _encode(group: TruncatedGroup, digits: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Codes of the states with the given digit columns and shift residue k."""
    b, w = len(group.base), group.code.width
    acc = digits[0].astype(np.int64)
    for col in digits[1:]:
        acc *= b
        acc += col
    acc *= w
    acc += k
    return acc


def _class_label_block(
    group: TruncatedGroup, digits: Sequence[np.ndarray], k: int
) -> np.ndarray:
    """Class labels, the least code in each state's conjugacy class, of the
    states with the given digit columns and shift residue k.

    Closed form, from the class structure of wreath products (James &
    Kerber, *The Representation Theory of the Symmetric Group*, 1981, ch. 4).
    Write a state as (v, k), digits v_0..v_(w-1) and shift k, so
    (h, k)(g, l) = (h . shift^k(g), k + l) with shift^k(g)_i = g_(i+k),
    indices mod w.  Let d = gcd(k, w) (d = w at k = 0) and, for r = 0..d-1,
    let C_r be the least element of the P-class of the forward cycle product
    v_r . v_(r+k) . v_(r+2k) ..., w/d factors.  The label is the least of
    the d codes with shift k, identity in the first w - d digits and
    (C_s, C_(s+1), ..., C_(s+d-1)) (indices mod d) in the last d, one per
    rotation s.

    Proof.  Conjugation keeps k.  A base vector y maps digit i to
    y_i^-1 . v_i . y_(i+k); along cycle r the inner factors cancel and
    (w/d) k = 0 mod w, so cycle product r becomes y_r^-1 . (product) . y_r.
    The cycles are disjoint, so base vectors conjugate the d cycle products
    independently, each to any of its conjugates; telescoping y along a cycle
    moves the whole product onto any one position of it.  Conjugating by t
    moves digit i to i + 1, which moves each cycle product to the next cycle,
    up to a cyclic rotation of its factors (itself a conjugation).  Every
    conjugator is a base vector times a power of t, so the class of (v, k) is
    k with the Z_d-rotation orbit of the d cycle-product classes.  Its least
    code puts each cycle's single non-identity digit at that cycle's last
    position, w - d + r, which makes the first w - d digits identity
    (element 0), and then takes the least class element there, at the least
    rotation; class minima ascend with class id, so comparing codes compares
    class ids.
    """
    w, b = group.code.width, len(group.base)
    mul, least = group.np_tables["mul"], group.np_tables["least"]
    d = gcd(k, w)
    cycles = []  # the least element of each cycle product's class
    for r in range(d):
        acc = digits[r]
        for j in range(1, w // d):
            acc = mul[acc * b + digits[(r + j * k) % w]]
        cycles.append(least[acc])
    best = None
    for s in range(d):
        code = cycles[s]
        for r in range(1, d):
            code = code * b + cycles[(s + r) % d]
        best = code if best is None else np.minimum(best, code)
    return best * w + k


def _all_labels(group: TruncatedGroup) -> np.ndarray:
    """Every class's label, ascending.  By the form in ``_class_label_block``,
    with d = gcd(k, w) these are the codes of shift k with identity in the
    first w - d digits and P-class minima in the last d that are their own
    labels."""
    w = group.code.width
    minima = np.array(group.base.conj_classes.reps, dtype=np.int64)
    found = []
    for k in range(w):
        d = gcd(k, w)
        tails = np.stack(np.meshgrid(*[minima] * d, indexing="ij")).reshape(d, -1)
        digits = [np.zeros(tails.shape[1], dtype=np.int64)] * (w - d) + list(tails)
        codes = _encode(group, digits, k)
        found.append(codes[_class_label_block(group, digits, k) == codes])
    return np.sort(np.concatenate(found))


# -- generators ----------------------------------------------------------------


def standard_generators(group: TruncatedGroup) -> list[LampElem]:
    """The base's recorded generators at index 0, plus the shift t.

    A base without recorded generators (``FiniteGroup.from_elements``)
    contributes every non-identity element at index 0.  Conjugating the
    index-0 copy by powers of t reaches every index, so these generate the
    truncation (t^-1 is a power of t there).
    """
    base = group.base
    values = [base.index[g] for g in base.generators] or range(len(base))
    singles = [
        LampElem.single(base, 0, v, group.window)
        for v in dict.fromkeys(values)
        if v != base.identity_index
    ]
    return singles + [LampElem.t_power(base, 1, group.window)]


def enumerate_Sbar(
    base: FiniteGroup, window: int, cap: int = DEFAULT_GEN_CAP
) -> list[LampElem]:
    """The conjugacy closure of the standard generators, listed explicitly.

    Singles at every index, then the shift-conjugates: vectors whose cyclic
    telescoping product vanishes, paired with shift +1 (and their inverses
    with shift -1).  The count is (2n+1)(|P|-1) + 2 |P|^(2n).

    The (w-1)-digit choices at indices -n..n-1 are walked in lexicographic
    order, each prefix carrying its running product and the support pairs of
    both signs, so no element is built twice.  A choice v closed by the
    inverse of its product at index n is the T+ element (v, 1); its inverse
    (v, 1)^-1 has value v_i^-1 at index i + 1 mod w, so the closing value
    comes back as the product itself at index -n.  Both supports are
    canonical tuples as built.
    """
    if window < 1:
        raise ValueError("window n must be >= 1 (the shift must move indices)")
    b = len(base)
    w = 2 * window + 1
    _require_gen_cap(b, w, cap)
    table, inv, ident = base._mul_table, base._inv_table, base.identity_index
    out: list[LampElem] = []
    for i in range(-window, window + 1):
        for v in range(b):
            if v != ident:
                out.append(LampElem.single(base, i, v, window))
    # per prefix: (product, T+ pairs, T- pairs) of its digits so far
    prefixes = [(ident, (), ())]
    for i in range(-window, window):
        prefixes = [
            (table[prod][v], plus, minus)
            if v == ident
            else (table[prod][v], plus + ((i, v),), minus + ((i + 1, inv[v]),))
            for prod, plus, minus in prefixes
            for v in range(b)
        ]
    for prod, plus, _ in prefixes:
        if prod != ident:
            plus += ((window, inv[prod]),)
        out.append(LampElem(base, window, 1, plus))
    for prod, _, minus in prefixes:
        if prod != ident:
            minus = ((-window, prod),) + minus
        out.append(LampElem(base, window, -1, minus))
    return out


def _require_gen_cap(b: int, w: int, cap: int) -> None:
    if (w * (b - 1) + 2 * b ** (w - 1)) > cap:
        raise CapExceededError(f"generating set would exceed cap {cap}")


def _sbar_codes(group: TruncatedGroup, cap: int = DEFAULT_GEN_CAP) -> np.ndarray:
    """``sorted(group.encode(s) for s in enumerate_Sbar(...))``, built on digit
    arrays: the singles, every (w-1)-digit choice v_0..v_(w-2) closed by the
    inverse of its product at shift +1, and their inverses.  (v, 1)^-1 is
    (u, -1) with u_p = v_(p-1)^-1, so its digits are the product, then
    v_0^-1, ..., v_(w-2)^-1."""
    w, b = group.code.width, len(group.base)
    _require_gen_cap(b, w, cap)
    tables = group.np_tables
    singles = np.arange(1, b)[:, None] * tables["radix"] * w  # shift 0
    choices = np.arange(b ** (w - 1), dtype=np.int64)
    product = np.zeros_like(choices)
    inverted = np.zeros_like(choices)  # the digits v_p^-1, base |P|
    for j in range(w - 1):
        digit = choices // b ** (w - 2 - j) % b
        product = tables["mul"][product * b + digit]
        inverted = inverted * b + tables["inv"][digit]
    plus = (choices * b + tables["inv"][product]) * w + 1
    minus = (product * b ** (w - 1) + inverted) * w + w - 1
    return np.sort(np.concatenate([singles.ravel(), plus, minus]))


# -- breadth-first search --------------------------------------------------------


@dataclass(frozen=True)
class BfsLevel:
    """One class step of the BFS: the frontier classes it expanded (all of
    them, except on the last level, which stops once every state is reached),
    the products it formed (each expanded representative times the
    generators, the last one possibly only some shift blocks of them), the
    classes and states it reached first, and its wall time."""

    level: int
    frontier_classes: int
    products: int
    new_classes: int
    new_states: int
    seconds: float


@dataclass
class BfsResult:
    """Distances from the identity over the sorted codes of the
    conjugacy-closed generators of one truncation."""

    group: TruncatedGroup
    gen_codes: np.ndarray  # int64, sorted
    distances: np.ndarray  # uint8; UNREACHED (255) = unreached
    layer_sizes: list[int]
    diameter: int
    elapsed: float = field(default=0.0, compare=False)
    levels: list[BfsLevel] = field(default_factory=list, compare=False)

    @property
    def generator_count(self) -> int:
        return int(self.gen_codes.size)

    @property
    def ball2(self) -> np.ndarray:
        """Mask of the states of norm at most 2."""
        return self.distances <= 2

    def norm_of(self, elem: LampElem) -> int:
        return int(self.distances[self.group.encode(elem)])

    def summary(self) -> dict:
        return {
            "base_order": len(self.group.base),
            "window": self.group.window,
            "order": len(self.group),
            "generator_count": self.generator_count,
            "layer_sizes": self.layer_sizes,
            "diameter": self.diameter,
        }


def _class_bfs(group: TruncatedGroup, gen_cap: int = DEFAULT_GEN_CAP) -> BfsResult:
    """The class BFS of a truncation over its conjugacy-closed generators
    (the codes of ``enumerate_Sbar``, at most ``gen_cap`` of them).

    Level-synchronized over conjugacy classes, one class step (see the module
    docstring) per level from the representatives of the last layer, each
    recorded as a ``BfsLevel``.  Each product block is labelled in closed
    form, marks the classes it is first to meet with the current level at
    their labels in ``distances`` and adds their sizes to the covered count;
    the search stops as soon as that count is every state, even mid-level
    (exact: the module docstring's stop rule).  One blockwise pass then sets
    distances[x] = distances[label(x)] for every state x.  That is exact in
    place: a label is its class's least code, so the pass copies each label's
    entry onto itself and writes only entries that no label reads.
    Raises RuntimeError if the generators are not a union of classes, if a
    level would reach the UNREACHED sentinel, or if states stay unreached.
    """
    started = time.perf_counter()
    gen_codes = _sbar_codes(group, gen_cap)
    gen_blocks = list(_shift_blocks(group, gen_codes))
    # S-bar lies inside the union of the classes its members meet, and its
    # codes are distinct, so it is that union iff their sizes add up to its count
    gen_labels = [_class_label_block(group, digits, k) for _, k, digits in gen_blocks]
    gen_classes = _distinct(np.concatenate(gen_labels)).tolist()
    if sum(map(group.class_size, gen_classes)) != gen_codes.size:
        raise RuntimeError("the generating set is not a union of conjugacy classes")
    distances = np.full(len(group), UNREACHED, dtype=np.uint8)  # at labels first
    distances[0] = 0
    frontier = [0]
    level = 0
    layer_sizes = [1]  # the identity is a class of its own
    covered = 1
    steps = []  # (frontier classes, products, new classes, seconds) per level
    while covered < len(group):
        step_started = time.perf_counter()
        level += 1
        if level >= UNREACHED:
            raise RuntimeError(
                f"BFS level {level} would collide with the unreached sentinel"
            )
        new = []  # per product block, the classes it is first to meet
        products = 0
        layer_start = covered
        blocks = (
            (expanded, k, digits)
            for expanded, rep in enumerate(frontier, 1)
            for k, digits in _products(group, gen_blocks, rep)
        )
        for expanded, k, digits in blocks:
            products += digits[0].size
            met = _class_label_block(group, digits, k)
            met = _distinct(met[distances[met] == UNREACHED])
            distances[met] = level
            new.append(met)
            covered += sum(map(group.class_size, met.tolist()))
            if covered == len(group):
                break  # every state has its distance: nothing left to change
        if covered == layer_start:
            break
        frontier = np.sort(np.concatenate(new)).tolist()
        layer_sizes.append(covered - layer_start)
        steps.append(
            (expanded, products, len(frontier), time.perf_counter() - step_started)
        )

    if covered < len(group):
        raise RuntimeError(
            "generators failed to reach the whole truncation; "
            f"{len(group) - covered} states missing"
        )
    w, b = group.code.width, len(group.base)
    by_shift = distances.reshape(-1, w)  # row code // w, column the shift
    rows, radix = by_shift.shape[0], group.np_tables["radix"]
    for start in range(0, rows, BLOCK_ROWS):
        vec = np.arange(start, min(start + BLOCK_ROWS, rows), dtype=np.int64)
        digits = [(vec // r) % b for r in radix]
        for k in range(w):
            labels = _class_label_block(group, digits, k)
            by_shift[start : start + vec.size, k] = distances[labels]
    levels = [
        BfsLevel(lvl, f, p, c, layer_sizes[lvl], round(sec, 6))
        for lvl, (f, p, c, sec) in enumerate(steps, 1)
    ]
    return BfsResult(
        group,
        gen_codes,
        distances,
        layer_sizes,
        diameter=level,
        elapsed=time.perf_counter() - started,
        levels=levels,
    )


def bfs_norms(
    base: FiniteGroup,
    window: int,
    state_cap: int = DEFAULT_STATE_CAP,
    gen_cap: int = DEFAULT_GEN_CAP,
) -> BfsResult:
    """Exact distances from the identity over the conjugacy-closed generators
    (see ``_class_bfs`` for the search and the errors it raises)."""
    return _class_bfs(TruncatedGroup(base, window, state_cap), gen_cap)


# -- independent oracle: naive ball growth ---------------------------------------


def set_power_norms(base: FiniteGroup, window: int) -> dict[LampElem, int]:
    """Distances by naive ball growth B_{m+1} = B_m . Sbar over flat tuples.

    Pure-Python second oracle, independent of the dense coding and of numpy.
    A state is the tuple (v_0, ..., v_(w-1), k): the values at indices -n..n
    and the shift residue.  A generator is its shift m and its non-identity
    (position, value) pairs.  By the product law (h, k)(g, l) =
    (h . shift^k(g), k + l) with shift^k(g)_q = g_(q+k), multiplying by the
    generator sets y_q = y_q . u at q = (p - k) mod w for each pair (p, u)
    and the residue to (k + m) mod w.  The growth stops once every state has
    a distance, even mid-level (the module docstring's stop rule).  The
    elements are built at the end.
    """
    w = 2 * window + 1
    order = len(base) ** w * w
    if order > SET_POWER_STATE_CAP:
        raise CapExceededError(f"{order} states is over the set-power cap")
    table = base._mul_table
    gens = [
        (s.shift % w, [(i + window, u) for i, u in s.support])
        for s in enumerate_Sbar(base, window)
    ]
    # per shift residue k of the left factor: (k + m) mod w and the (q, u) moves
    steps = [
        [((k + m) % w, [((p - k) % w, u) for p, u in pairs]) for m, pairs in gens]
        for k in range(w)
    ]
    ident = base.identity_index
    start = (ident,) * w + (0,)
    dist = {start: 0}
    frontier = [start]
    level = 0
    while frontier and len(dist) < order:
        level += 1
        nxt = []
        for x in frontier:
            for shift, moves in steps[x[w]]:
                y = list(x)
                for q, u in moves:
                    y[q] = table[y[q]][u]
                y[w] = shift
                y = tuple(y)
                if y not in dist:
                    dist[y] = level
                    nxt.append(y)
            if len(dist) == order:
                break  # every state has its distance: nothing left to change
        frontier = nxt
    if len(dist) != order:
        raise RuntimeError("set-power growth failed to reach the whole group")
    return {
        LampElem.make(
            base,
            tuple((q - window, v) for q, v in enumerate(y[:w]) if v != ident),
            y[w],
            window,
        ): d
        for y, d in dist.items()
    }


# -- bounded-norm queries over one BFS -----------------------------------------

# The old name of the builder, still called by the benchmark (ROADMAP item 5).
SbarContext = _class_bfs


def bounded_norm(ctx: BfsResult, g: LampElem, r_max: int) -> int | None:
    """Exact norm when it is <= r_max (r_max <= 3), else None.  Raises
    ValueError if g does not live in the result's truncation."""
    if not 0 <= r_max <= 3:
        raise ValueError("bounded_norm supports r_max <= 3 only")
    d = int(ctx.distances[ctx.group.encode(g)])
    return d if d <= r_max else None


# -- exhaustive existential searches backing the derived predicates ---------------


def _factor_digits(
    base: FiniteGroup, positions: Sequence[int], sign: int
) -> tuple[list[int], np.ndarray]:
    """Row r: the factor (see ``factor_image``) of the vector with the base-|P|
    digits of r at the sorted ``positions``; column j: its value at span[j],
    the indices i with i or i + 1 in the window.  int32 if row codes fit."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    b, k = len(base), len(positions)
    rows = np.arange(b**k)
    g = {p: rows // b ** (k - 1 - m) % b for m, p in enumerate(sorted(positions))}
    span = sorted(g.keys() | {p - 1 for p in g})
    dtype = np.int32 if b ** len(span) <= np.iinfo(np.int32).max else np.int64
    mul = np.asarray(base._mul_table, dtype=dtype)
    inv = np.asarray(base._inv_table)
    digits = np.empty((rows.size, len(span)), dtype=dtype)
    for j, i in enumerate(span):
        gi, gi1 = g.get(i, base.identity_index), g.get(i + 1, base.identity_index)
        digits[:, j] = mul[gi, inv[gi1]] if sign == 1 else mul[gi1, inv[gi]]
    return span, digits


# Codes decoded per block; the transient digit and column arrays set the
# oracles' peak RSS.
DECODE_ROWS = 1 << 14


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)``: the distinct values of ``a``, sorted and flattened.

    numpy >= 2.3 finds them by hashing, which took 0.13-0.18 s on A5's
    216,000 distinct factor codes (numpy 2.4.6) against 1.3-1.7 ms for this sort
    and neighbour comparison.
    """
    flat = np.sort(a, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _decode_supports(
    base: FiniteGroup, span: Sequence[int], codes: np.ndarray
) -> set[tuple[tuple[int, int], ...]]:
    """Support tuples of base-|P| codes whose digit j is the value at span[j].

    Rows of a block with one non-identity digit mask share a support shape,
    so each shape is zipped from object columns of shared (index, value)
    pairs and a code allocates only its support tuple: each further tracked
    allocation per code hastens the full collections that walk the image.
    The masks present are found by sort (``_distinct``): numpy >= 2.3's
    ``np.unique`` hashes, about a hundred times slower on large code sets.
    """
    b, e, k = len(base), base.identity_index, len(span)
    powers = b ** np.arange(k - 1, -1, -1)
    bits = 1 << np.arange(k)
    cells = np.empty((k, b), dtype=object)  # cells[j, d]: the pair (span[j], d)
    for j, i in enumerate(span):
        for d in range(b):
            cells[j, d] = (i, d)
    out: set[tuple[tuple[int, int], ...]] = set()
    for start in range(0, codes.size, DECODE_ROWS):
        digits = codes[start : start + DECODE_ROWS, None] // powers % b
        masks = (digits != e) @ bits
        for mask in _distinct(masks).tolist():
            rows = digits[masks == mask]
            columns = [cells[j, rows[:, j]].tolist() for j in range(k) if mask >> j & 1]
            out.update(zip(*columns) if mask else [()])  # no columns: empty support
    return out


def factor_image(
    base: FiniteGroup, vector_positions: Sequence[int], sign: int
) -> set[tuple[tuple[int, int], ...]]:
    """Support tuples of all one-vector factors over a window of vectors.

    sign +1 enumerates g . alpha(g^-1) over every vector g supported inside
    ``vector_positions``, value mul[g_i, inv[g_(i+1)]] at index i; sign -1
    the mirror alpha(g) . g^-1, value mul[g_(i+1), inv[g_i]].  g is
    ``base.identity_index`` off the window; supports omit identity values.
    This existential definition is the oracle for the ordered-product
    membership test.  Only distinct base-|P| factor codes are decoded; they
    are found by sort (``_distinct``), since numpy >= 2.3's ``np.unique``
    hashes and took about a hundred times as long on A5's 216,000 codes.
    """
    span, digits = _factor_digits(base, vector_positions, sign)
    codes = np.zeros(len(digits), dtype=digits.dtype)
    for col in digits.T:
        codes = codes * len(base) + col
    return _decode_supports(base, span, _distinct(codes))


def pm_pair_image(
    base: FiniteGroup, vector_positions: Sequence[int], order: str
) -> set[tuple[tuple[int, int], ...]]:
    """Support tuples of all two-vector mixed products over a vector window.

    Multiplies every pair of factors over the k positions of
    ``vector_positions`` (digits and identity as in ``factor_image``) in the
    given order ("-+" is the minus-factor first).  Base-|P| digit j of the
    |P|^k x |P|^k code matrix is mul[left[:, j], right[:, j]]; at most 2k
    digits, so int32 codes under ``PAIR_IMAGE_CAP``.
    """
    if order not in ("-+", "+-"):
        raise ValueError("order must be '-+' or '+-'")
    b = len(base)
    if (b ** len(vector_positions)) ** 2 > PAIR_IMAGE_CAP:
        raise CapExceededError("pair enumeration over this window is too large")
    first_sign = -1 if order == "-+" else 1
    span, left = _factor_digits(base, vector_positions, first_sign)
    _, right = _factor_digits(base, vector_positions, -first_sign)
    mul = np.asarray(base._mul_table, dtype=left.dtype)
    codes = np.zeros((len(left), len(right)), dtype=left.dtype)
    for j in range(len(span)):
        codes *= b
        codes += mul[left[:, j, None], right[None, :, j]]
    return _decode_supports(base, span, _distinct(codes))


def pm_weight3_exhaustive(
    base: FiniteGroup, v1: int, v2: int, v3: int
) -> tuple[int, int, int] | None:
    """Mechanical search for a weight-3 mixed factorization at positions 1..3.

    Eliminating the determined coordinates of the two vectors leaves free
    parameters (a, b, e) and the single equation
    e (b^-1 v2^-1 b)(a^-1 v1^-1 a) e^-1 = v3; the first solution in scan order
    is returned and the built witness re-verifies by multiplication.
    """
    iv1, iv2 = base.inv(v1), base.inv(v2)
    for a in range(len(base)):
        xa = base.conj(iv1, a)
        for b in range(len(base)):
            z = base.mul(base.conj(iv2, b), xa)
            e_inv = base.first_conjugator(z, v3)
            if e_inv is not None:
                return a, b, base.inv(e_inv)
    return None


# -- large-table validators -------------------------------------------------------


def validate_definiteness(result: BfsResult) -> bool:
    d = result.distances
    return bool(d[0] == 0 and (d == 0).sum() == 1 and (d != UNREACHED).all())


def _distance_tensor(result: BfsResult) -> np.ndarray:
    """The distances as D[v_0, ..., v_(w-1), k], a view: axis p is digit p
    (index p - n) and the last axis the shift residue, as codes are laid out."""
    b, w = len(result.group.base), result.group.code.width
    return result.distances.reshape((b,) * w + (w,))


def _rotated(table: np.ndarray, k: int) -> np.ndarray:
    """The view v -> table[v_(-k), v_(1-k), ..., v_(w-1-k)], indices mod w."""
    w = table.ndim
    return table.transpose([(p + k) % w for p in range(w)])


def validate_symmetry(result: BfsResult) -> bool:
    """(v, k)^-1 = (u, -k) with u_p = v_(p-k)^-1: the shift -k slice, with
    ``inv`` taken along every digit axis and rotated by k, is the k slice."""
    group = result.group
    inv = group.np_tables["inv"]
    d = _distance_tensor(result)
    w = group.code.width
    for k in range(w):
        inverted = d[..., -k % w]
        for axis in range(w):
            inverted = inverted.take(inv, axis=axis)
        if not np.array_equal(_rotated(inverted, k), d[..., k]):
            return False
    return True


def validate_triangle_layers(result: BfsResult) -> bool:
    """Triangle inequality via layer products; False unless also invariant.

    Checks layer_i * layer_j inside ball_{i+j} for every pair with
    i + j < diameter (larger sums are vacuous: the ball is everything).  On an
    invariant table each layer is conjugation-closed: a * b is conjugate to
    r * b' with r the class representative of a and b' in layer_j, and
    layer_j * r = r * layer_j.  So only the representatives of layer_i are
    multiplied, against all of layer_j; invariance is checked first so the
    shortcut stays exact when this validator runs alone.
    """
    if not validate_invariance_generators(result):
        return False
    group = result.group
    d = result.distances
    labels = _all_labels(group)
    diameter = result.diameter
    layers = {lvl: np.flatnonzero(d == lvl) for lvl in range(1, diameter - 1)}
    for i, left in layers.items():
        reps = labels[d[labels] == i].tolist()
        for j, right in layers.items():
            if i + j >= diameter:
                continue
            if len(reps) * right.size > TRIANGLE_PAIR_CAP:
                raise CapExceededError(
                    f"layer pair ({i},{j}) needs {len(reps) * right.size} products"
                )
            blocks = list(_shift_blocks(group, right))
            for rep in reps:
                for k, digits in _products(group, blocks, rep):
                    if (d[_encode(group, digits, k)] > i + j).any():
                        return False
    return True


def validate_invariance_generators(result: BfsResult) -> bool:
    """Invariance under conjugation by the standard generators.

    They generate the truncation, and invariance under y also gives it under
    y^-1, so by induction on word length this is invariance under every
    conjugation.  Each conjugation is a gather on one shift slice of the
    distance tensor (see the module docstring).
    """
    group = result.group
    b, n, w = len(group.base), group.window, group.code.width
    mul = group.np_tables["mul"].reshape(b, b)
    inv = group.np_tables["inv"]
    d = _distance_tensor(result)
    gens = standard_generators(group)
    for k in range(w):
        dk = d[..., k]
        for y in gens:
            if y.shift:  # t
                conj = _rotated(dk, 1)
            else:
                [(i, a)] = y.support
                p = i + n
                conj = dk.take(mul[inv[a]], axis=p).take(mul[:, a], axis=(p - k) % w)
            if not np.array_equal(conj, dk):
                return False
    return True


def validate_shift_bound(result: BfsResult) -> bool:
    """distance >= |canonical shift| = min(k, w - k) at shift residue k (the
    shift map is a homomorphism)."""
    w = result.group.code.width
    k = np.arange(w, dtype=np.uint8)
    return bool((result.distances.reshape(-1, w) >= np.minimum(k, w - k)).all())


# -- binary serialization ----------------------------------------------------------


def write_norms_binary(path: str | Path, result: BfsResult) -> None:
    """Header (magic + one JSON line) then one byte per state (255 = unreached)."""
    header = {
        "format": "wreathnorm-bfs",
        "version": 1,
        "base_order": len(result.group.base),
        "base_degree": result.group.base.degree,
        "window": result.group.window,
        "order": len(result.group),
        "generator_count": result.generator_count,
        "encoding": "code = vec*(2n+1) + shift_residue; vec digits msb at index -n",
        "layer_sizes": result.layer_sizes,
        "diameter": result.diameter,
    }
    blob = BINARY_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n"
    Path(path).write_bytes(blob + result.distances.tobytes())


def read_norms_binary(path: str | Path) -> tuple[dict, np.ndarray]:
    """The header and distance body of a ``write_norms_binary`` file.  Raises
    ValueError unless the header is a JSON object with an integer "order"
    that the body length matches."""
    raw = Path(path).read_bytes()
    if not raw.startswith(BINARY_MAGIC):
        raise ValueError("not a wreathnorm BFS file")
    rest = raw[len(BINARY_MAGIC) :]
    nl = rest.index(b"\n")
    header = json.loads(rest[:nl].decode())
    order = header.get("order") if isinstance(header, dict) else None
    if type(order) is not int:  # a bool is no order
        raise ValueError("header is not a JSON object with an integer order")
    body = np.frombuffer(rest[nl + 1 :], dtype=np.uint8)
    if body.size != order:
        raise ValueError("truncated body")
    return header, body
