"""Brute-force ground truth on finite truncations: full BFS word norms.

States are mixed-radix integers: base-group digits per window position (index
-n first, most significant) followed by the shift residue, so the whole
truncation indexes a dense array.  All batch products go through one kernel
that re-encodes the digits of one shift class at a time.

The conjugacy-closed generating set S-bar is a union of conjugacy classes
(checked before use), so every ball around the identity is one too.  Each
state carries a class label, the least code in its class.  The class step: for
X a union of classes, X . S-bar is the union of the classes met by r . S-bar
for one representative r per class of X, as x = y^-1 r y gives x . S-bar =
y^-1 (r . S-bar) y.  The BFS takes one class step per level and reads each
state's distance back through its label.  One ``BfsResult`` holds that
search: ``bfs_norms`` returns it, and ``bounded_norm`` answers queries by
lookup into it.  Distance labels are convention-free, so runs are
deterministic.

The large-table validators are exact reformulations sized for millions of
states:

* a table is invariant under all conjugations iff it is invariant under a
  generating set (induction on the conjugator's word length; invariance
  under y gives it under y^-1), and the truncation is generated by the base's
  generators at index 0 plus the shift t;
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
from itertools import product as iter_product
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
    and the tables of the batch kernel below.  The base identity must be
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
        digits = [elem.value_at(i) for i in range(-n, n + 1)]
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
        return {
            # per-element gather rows; None marks the identity (element 0)
            "mul_rows": [None] + list(mul[1:]),
            "mulT_rows": [None] + list(mulT[1:]),
            "inv": np.array(self.base._inv_table, dtype=np.int64),
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

    @cached_property
    def class_labels(self) -> np.ndarray:
        """int32: for each state, the least code in its conjugacy class.

        Min-label propagation with pointer jumping under conjugation by the
        standard generators, per shift residue (conjugation keeps the shift)
        and BLOCK_ROWS codes at a time.  A label is always a code of the
        state's own class and at most the state.  Forward pulls suffice: once
        a round changes nothing, lab[x] <= lab[p(x)] for each conjugation p,
        and p has finite order, so lab is constant on its cycles, hence on
        the class, where it can only be the minimum.
        """
        w = self.code.width
        if len(self) > np.iinfo(np.int32).max:
            raise CapExceededError(f"{len(self)} states do not fit int32 labels")
        ys = [self.encode(y) for y in standard_generators(self)]
        labels = np.empty(len(self), dtype=np.int32)
        size = len(self) // w
        # conjugation by each y, as a permutation of the indices code // w
        perms = [np.empty(size, dtype=np.int32) for _ in ys]
        for k in range(w):
            for start in range(0, size, BLOCK_ROWS):
                index = np.arange(start, min(start + BLOCK_ROWS, size), dtype=np.int64)
                for pos, i, conj in _conjugates(self, index * w + k, ys):
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


# -- the batch product kernel -----------------------------------------------------
#
# Every batch-by-constant operation on states x = (digits, k) of one shift class
# re-encodes digit j as lut_j[digits[(j + offset) % w]]:
#   x * s      lut_j = mulT row of s[(j + k) % w],  offset 0
#   a * x      lut_j = mul row of a[j],             offset kappa
#   x^-1       lut_j = inv,                         offset -k
#   y^-1 x y   lut_j = the two lookups composed,    offset kappa of y^-1

BLOCK_ROWS = 1 << 14


def _shift_blocks(group: TruncatedGroup, codes: np.ndarray):
    """Yield (positions, k, digit columns) per shift class k of ``codes``,
    at most BLOCK_ROWS codes at a time."""
    ks = codes % group.code.width
    for k in np.unique(ks):
        positions = np.nonzero(ks == k)[0]
        for start in range(0, positions.size, BLOCK_ROWS):
            pos = positions[start : start + BLOCK_ROWS]
            digits, _ = group.decode_batch(codes[pos])
            yield pos, int(k), digits


def _encode(
    group: TruncatedGroup,
    digits: Sequence[np.ndarray],
    luts: Sequence[np.ndarray | None],
    offset: int,
    shift: int,
) -> np.ndarray:
    """Codes with digit j = luts[j][digits[(j + offset) % w]] (None: no lookup)
    and the given shift residue."""
    w = group.code.width
    b = len(group.base)
    cols = (
        digits[(j + offset) % w] if lut is None else lut[digits[(j + offset) % w]]
        for j, lut in enumerate(luts)
    )
    acc = next(cols).astype(np.int64)
    for col in cols:
        acc *= b
        acc += col
    acc *= w
    acc += shift % w
    return acc


def _right_products(
    group: TruncatedGroup,
    k: int,
    digits: Sequence[np.ndarray],
    svecs: Sequence[Sequence[int]],
    shifts: Sequence[int],
):
    """Yield the codes of x * s for one shift block of states x, per s = (svec, m)."""
    w = group.code.width
    rows = group.np_tables["mulT_rows"]
    rotation = [(j + k) % w for j in range(w)]
    for svec, m in zip(svecs, shifts):
        yield _encode(group, digits, [rows[svec[r]] for r in rotation], 0, k + m)


def _times(group: TruncatedGroup, blocks, code: int):
    """Yield (positions, codes of x * c) over the shift blocks of states x,
    for the one state c = ``code``."""
    cvec, cshift = group.code.decode_parts(code)
    for pos, k, digits in blocks:
        yield pos, next(_right_products(group, k, digits, [cvec], [cshift]))


def _conjugates(group: TruncatedGroup, codes: np.ndarray, by_codes: Sequence[int]):
    """Yield (positions, i, codes of y^-1 x y) per shift block of ``codes`` and
    per y = by_codes[i]; the two lookups are composed, so each digit is
    gathered once."""
    w = group.code.width
    mul_rows = group.np_tables["mul_rows"]
    mulT_rows = group.np_tables["mulT_rows"]
    parts = [
        (
            group.code.decode_parts(group.encode(group.decode(y).inverse())),
            group.code.decode_parts(y)[0],
        )
        for y in by_codes
    ]
    for pos, k, digits in _shift_blocks(group, codes):
        for i, ((avec, kappa), yvec) in enumerate(parts):
            luts = []
            for j in range(w):
                first, then = mul_rows[avec[j]], mulT_rows[yvec[(j + kappa + k) % w]]
                if first is None or then is None:
                    luts.append(then if first is None else first)
                else:
                    luts.append(then[first])
            yield pos, i, _encode(group, digits, luts, kappa, k)


def _inverses(group: TruncatedGroup, codes: np.ndarray):
    """Yield (positions, codes of x^-1) per shift block of ``codes``."""
    luts = [group.np_tables["inv"]] * group.code.width
    for pos, k, digits in _shift_blocks(group, codes):
        yield pos, _encode(group, digits, luts, -k, -k)


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
    """
    if window < 1:
        raise ValueError("window n must be >= 1 (the shift must move indices)")
    b = len(base)
    w = 2 * window + 1
    if (w * (b - 1) + 2 * b ** (w - 1)) > cap:
        raise CapExceededError(f"generating set would exceed cap {cap}")
    out: list[LampElem] = []
    for i in range(-window, window + 1):
        for v in range(b):
            if v != base.identity_index:
                out.append(LampElem.single(base, i, v, window))
    plus: list[LampElem] = []
    positions = list(range(-window, window + 1))
    for choice in iter_product(range(b), repeat=w - 1):
        closing = base.inv(base.mul_many(choice))
        support = dict(zip(positions, list(choice) + [closing]))
        plus.append(LampElem.make(base, support, 1, window))
    out.extend(plus)
    out.extend(e.inverse() for e in plus)
    return out


# -- breadth-first search --------------------------------------------------------


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
    (``enumerate_Sbar``, at most ``gen_cap`` of them).

    Level-synchronized over conjugacy classes, one class step (see the module
    docstring) per level from the representatives of the last layer.  Each
    state's distance is its class's.  Raises RuntimeError if the generators
    are not a union of classes, if a level would reach the UNREACHED
    sentinel, or if states stay unreached.
    """
    started = time.perf_counter()
    gens = enumerate_Sbar(group.base, group.window, gen_cap)
    gen_codes = np.array(sorted(group.encode(s) for s in gens), dtype=np.int64)
    del gens
    # labels first: no other per-state array is alive while they are built
    labels = group.class_labels
    # a union of classes: a state is a generator iff its class label is one
    in_sbar = np.zeros(labels.size, dtype=bool)
    in_sbar[gen_codes] = True
    if not np.array_equal(in_sbar[labels], in_sbar):
        raise RuntimeError("the generating set is not a union of conjugacy classes")
    del in_sbar
    gen_blocks = list(_shift_blocks(group, gen_codes))
    class_dist = np.full(len(group), UNREACHED, dtype=np.uint8)  # at representatives
    class_dist[0] = 0
    frontier = [0]
    level = 0
    while frontier:
        reached = np.zeros(len(group), dtype=bool)
        for rep in frontier:
            for _, prods in _times(group, gen_blocks, rep):
                reached[labels[prods]] = True
        new = np.flatnonzero(reached & (class_dist == UNREACHED))
        if new.size == 0:
            break
        level += 1
        if level >= UNREACHED:
            raise RuntimeError(
                f"BFS level {level} would collide with the unreached sentinel"
            )
        class_dist[new] = level
        frontier = new.tolist()

    distances = class_dist[labels]
    missing = int(np.count_nonzero(distances == UNREACHED))
    if missing:
        raise RuntimeError(
            f"generators failed to reach the whole truncation; {missing} states missing"
        )
    # counted per level: np.bincount would widen the distances to int64
    return BfsResult(
        group,
        gen_codes,
        distances,
        [int(np.count_nonzero(distances == lvl)) for lvl in range(level + 1)],
        diameter=level,
        elapsed=time.perf_counter() - started,
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
    """Distances by naive ball growth B_{m+1} = B_m . Sbar on explicit elements.

    Pure-Python second oracle, independent of the dense coding and of numpy.
    """
    order = len(base) ** (2 * window + 1) * (2 * window + 1)
    if order > SET_POWER_STATE_CAP:
        raise CapExceededError(f"{order} states is over the set-power cap")
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
    if len(dist) != order:
        raise RuntimeError("set-power growth failed to reach the whole group")
    return dist


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


def _decode_supports(
    base: FiniteGroup, span: Sequence[int], codes: np.ndarray
) -> set[tuple[tuple[int, int], ...]]:
    """Support tuples of base-|P| codes whose digit j is the value at span[j].

    Rows of a block with one non-identity digit mask share a support shape,
    so each shape is zipped from object columns of shared (index, value)
    pairs and a code allocates only its support tuple: each further tracked
    allocation per code hastens the full collections that walk the image.
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
        for mask in np.unique(masks).tolist():
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
    membership test.  Only distinct base-|P| factor codes are decoded.
    """
    span, digits = _factor_digits(base, vector_positions, sign)
    codes = np.zeros(len(digits), dtype=digits.dtype)
    for col in digits.T:
        codes = codes * len(base) + col
    return _decode_supports(base, span, np.unique(codes))


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
    return _decode_supports(base, span, np.unique(codes))


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


def validate_symmetry(result: BfsResult) -> bool:
    codes = np.arange(len(result.group), dtype=np.int64)
    d = result.distances
    return all((d[inv] == d[pos]).all() for pos, inv in _inverses(result.group, codes))


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
    labels = group.class_labels
    diameter = result.diameter
    layers = {lvl: np.flatnonzero(d == lvl) for lvl in range(1, diameter - 1)}
    for i, left in layers.items():
        reps = left[labels[left] == left].tolist()
        for j, right in layers.items():
            if i + j >= diameter:
                continue
            if len(reps) * right.size > TRIANGLE_PAIR_CAP:
                raise CapExceededError(
                    f"layer pair ({i},{j}) needs {len(reps) * right.size} products"
                )
            blocks = list(_shift_blocks(group, right))
            for rep in reps:
                for _, prods in _times(group, blocks, rep):
                    if (d[prods] > i + j).any():
                        return False
    return True


def validate_invariance_generators(result: BfsResult) -> bool:
    """Invariance under conjugation by the standard generators.

    They generate the truncation, and invariance under y also gives it under
    y^-1, so by induction on word length this is invariance under every
    conjugation.
    """
    group = result.group
    d = result.distances
    ys = [group.encode(y) for y in standard_generators(group)]
    codes = np.arange(len(group), dtype=np.int64)
    return all(
        (d[conj] == d[pos]).all() for pos, _, conj in _conjugates(group, codes, ys)
    )


def validate_shift_bound(result: BfsResult) -> bool:
    """distance >= |canonical shift| (the shift map is a homomorphism)."""
    group = result.group
    w = group.code.width
    codes = np.arange(len(group), dtype=np.int64)
    shifts = codes % w
    canonical = np.where(shifts <= group.window, shifts, w - shifts)
    return bool((result.distances >= canonical).all())


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
    raw = Path(path).read_bytes()
    if not raw.startswith(BINARY_MAGIC):
        raise ValueError("not a wreathnorm BFS file")
    rest = raw[len(BINARY_MAGIC) :]
    nl = rest.index(b"\n")
    header = json.loads(rest[:nl].decode())
    body = np.frombuffer(rest[nl + 1 :], dtype=np.uint8)
    if body.size != header["order"]:
        raise ValueError("truncated body")
    return header, body
