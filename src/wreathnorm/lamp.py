"""Elements of the shift extension of a direct sum of copies of a finite group.

An element is a finitely supported vector over a base group P (indexed by the
integers, or by residues mod 2n+1 in truncated mode) together with an integer
shift.  The product follows the semidirect law

    (h, k) * (g, l) = (h . shift^k(g), k + l)

where ``shift`` moves support one step down: value at index j lands at j - 1.
Canonical form stores no identity values, reduces truncated indices and shifts
into {-n, ..., n}, and makes elements hashable and safe to share.  ``make`` is
the checked entry point; ``mul``, ``inverse`` and ``alpha`` keep canonical
operands canonical and build their results directly.

Construction allocates only what it returns: an element is one slotted object
with no per-instance dict, and ``make`` checks, reduces and deduplicates in
one pass over the sorted pairs, keeping each input pair that is already an
exact tuple.  The exhaustive checks build hundreds of thousands of elements
while a large oracle image is alive, and each extra tracked allocation per
element hastens the next full garbage collection, which walks that image.

Membership predicates for the conjugacy-closed generating set: a non-identity
element belongs iff it is a single support with shift 0, or has shift +1 and
its support values multiply to the identity in increasing index order
(cyclically from -n in truncated mode), or the mirror condition with shift -1
and decreasing order.  The ordered-product test replaces the existential
definition; tests check the two against each other by exhaustive search.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .groups import FiniteGroup


@dataclass(frozen=True, slots=True)
class LampElem:
    base: FiniteGroup
    window: int | None  # None = infinite mode, n >= 1 = truncated on {-n..n}
    shift: int
    support: tuple[tuple[int, int], ...]  # (index, base element index), sorted

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(
        base: FiniteGroup,
        support: Mapping[int, int] | Iterable[tuple[int, int]],
        shift: int = 0,
        window: int | None = None,
    ) -> "LampElem":
        if window is not None and window < 1:
            raise ValueError("truncated mode needs n >= 1")
        # the exact-type test spares a dict the slower ABC check
        mapping = type(support) is dict or isinstance(support, Mapping)
        items = support.items() if mapping else map(tuple, support)
        if window is not None:
            items = [(_reduce(i, window), v) for i, v in items]
            shift = _reduce(shift, window)
        size, ident = len(base.elements), base.identity_index
        kept = []
        prev = None
        for pair in sorted(items):  # equal indices end up side by side
            idx, val = pair
            if not 0 <= val < size:
                raise ValueError(f"support value {val} is outside [0, {size})")
            if idx == prev:
                raise ValueError(f"duplicate support index {idx}")
            prev = idx
            if val != ident:
                kept.append(pair)
        return LampElem(base, window, shift, tuple(kept))

    @staticmethod
    def identity(base: FiniteGroup, window: int | None = None) -> "LampElem":
        return LampElem.make(base, {}, 0, window)

    @staticmethod
    def single(
        base: FiniteGroup, index: int, value: int, window: int | None = None
    ) -> "LampElem":
        return LampElem.make(base, {index: value}, 0, window)

    @staticmethod
    def t_power(base: FiniteGroup, k: int, window: int | None = None) -> "LampElem":
        return LampElem.make(base, {}, k, window)

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "LampElem") -> None:
        if self.base is not other.base or self.window != other.window:
            raise ValueError("operands live in different groups")

    def mul(self, other: "LampElem") -> "LampElem":
        """Semidirect product (h, k)(g, l) = (h . shift^k(g), k + l)."""
        self._check_compatible(other)
        base = self.base
        acc = dict(self.support)
        for j, v in other.support:
            i = j - self.shift
            if self.window is not None:
                i = _reduce(i, self.window)
            cur = acc.get(i)
            w = v if cur is None else base.mul(cur, v)
            if w == base.identity_index:
                acc.pop(i, None)
            else:
                acc[i] = w
        shift = self.shift + other.shift
        if self.window is not None:
            shift = _reduce(shift, self.window)
        return LampElem(base, self.window, shift, tuple(sorted(acc.items())))

    def __mul__(self, other: "LampElem") -> "LampElem":
        return self.mul(other)

    def inverse(self) -> "LampElem":
        base = self.base
        acc = {}
        for j, v in self.support:
            i = j + self.shift
            if self.window is not None:
                i = _reduce(i, self.window)
            acc[i] = base.inv(v)
        return LampElem(base, self.window, -self.shift, tuple(sorted(acc.items())))

    def conjugate(self, y: "LampElem") -> "LampElem":
        """y^-1 * self * y, matching the package-wide conjugation convention."""
        return y.inverse().mul(self).mul(y)

    def alpha(self, k: int = 1) -> "LampElem":
        """Apply the shift automorphism k times to a shift-0 element."""
        if self.shift != 0:
            raise ValueError("alpha acts on shift-0 elements")
        n = self.window
        moved = ((i - k if n is None else _reduce(i - k, n), v) for i, v in self.support)
        return LampElem(self.base, n, 0, tuple(sorted(moved)))

    def is_identity(self) -> bool:
        return self.shift == 0 and not self.support

    # -- inspection ----------------------------------------------------------

    def weight(self) -> int:
        return len(self.support)

    def value_at(self, index: int) -> int:
        if self.window is not None:
            index = _reduce(index, self.window)
        for i, v in self.support:
            if i == index:
                return v
        return self.base.identity_index

    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.support)

    def support_values(self) -> tuple[int, ...]:
        """Base values in increasing index order."""
        return tuple([v for _, v in self.support])

    def extent(self) -> int:
        """The largest absolute index of the support, or of the shift."""
        if not self.support:
            return abs(self.shift)
        return max(abs(self.support[0][0]), abs(self.support[-1][0]), abs(self.shift))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        mode: object = "infinite" if self.window is None else {"truncated": self.window}
        return {
            "mode": mode,
            "shift": self.shift,
            "support": {
                str(i): list(self.base.elements[v]) for i, v in self.support
            },
        }

    @staticmethod
    def from_json(base: FiniteGroup, doc: Mapping | str) -> "LampElem":
        """Parse :meth:`to_json` output; ValueError if malformed (a bool is no int)."""
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, Mapping):
            raise ValueError(f"an element must be a JSON object, got {doc!r}")
        mode = doc.get("mode", "infinite")
        window = mode.get("truncated") if isinstance(mode, Mapping) else None
        if mode != "infinite" and type(window) is not int:
            raise ValueError(f"element mode {mode!r} is not infinite or truncated(n)")
        shift, values = doc.get("shift", 0), doc.get("support", {})
        if type(shift) is not int or not isinstance(values, Mapping):
            raise ValueError("element shift must be an integer and support an object")
        support = []  # pairs, so make rejects keys that wrap to one index
        for key, images in values.items():
            ints = isinstance(images, list) and all(type(x) is int for x in images)
            if not ints or tuple(images) not in base.index:
                raise ValueError(f"support value {images!r} not in the base group")
            try:
                index = int(key)
            except (TypeError, ValueError):
                index = None
            if index is None or str(index) != key:  # the form to_json writes
                raise ValueError(f"support key {key!r} is not a decimal integer")
            support.append((index, base.index[tuple(images)]))
        return LampElem.make(base, support, shift, window)


def _reduce(value: int, n: int) -> int:
    """Representative of value mod 2n+1 inside {-n, ..., n}."""
    w = 2 * n + 1
    return (value + n) % w - n


# -- generating set membership ----------------------------------------------


def in_single_support(x: LampElem) -> bool:
    return x.shift == 0 and x.weight() == 1


def _ordered_product(x: LampElem, increasing: bool) -> int:
    base = x.base
    values = x.support_values()
    if not increasing:
        values = values[::-1]
    return base.mul_many(values)


def in_Tplus(x: LampElem) -> bool:
    """Shift +1 with telescoping support: increasing-order product is 1.

    In truncated mode the product is taken cyclically starting at -n; the
    condition is invariant under the choice of starting point.
    """
    if x.shift != 1:
        return False
    return _ordered_product(x, increasing=True) == x.base.identity_index


def in_Tminus(x: LampElem) -> bool:
    if x.shift != -1:
        return False
    return _ordered_product(x, increasing=False) == x.base.identity_index


def in_Sbar(x: LampElem) -> bool:
    return in_single_support(x) or in_Tplus(x) or in_Tminus(x)
