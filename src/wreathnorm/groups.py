"""Finite permutation groups: element arithmetic, enumeration, conjugacy classes.

A permutation of degree d is a tuple ``p`` of length d with ``p[i]`` the image
of point ``i``.  Composition is fixed left-to-right everywhere in this package:
``compose(p, q)`` acts as "p then q", and ``conj(g, h) = h^-1 g h``.  Groups are
fully enumerated; element order is BFS order from the identity with generators
taken in input order, so every derived table is reproducible bit for bit.

Groups are immutable after construction apart from derived tables, which are
computed on first use and cached on the group itself.  Each group has exactly
one conjugacy-class table, ``FiniteGroup.conj_classes``, and it holds the
group's class algebra: which classes each product of two classes meets, as
class-id bitmasks.  ``conjugacy_classes`` returns it; ``derived_subgroup``,
``normal_closure`` and ``is_normal`` read it.  The S1-S4 reports of ``props``
are cached on the group the same way, so nothing here is keyed on ``id()``.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from typing import Iterable, Mapping, Sequence

Perm = tuple[int, ...]

DEFAULT_SIZE_CAP = 10**7


class CapExceededError(RuntimeError):
    """An enumeration outgrew its configured size cap."""


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(p: Sequence[int]) -> bool:
    return sorted(p) == list(range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right composition: ``compose(p, q)[i] == q[p[i]]`` (p then q)."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(q[p[i]] for i in range(len(p)))


def inverse_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def perm_from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation from disjoint cycles over 0-based points."""
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:]):
            images[a] = b
        if cycle:
            images[cycle[-1]] = cycle[0]
    p = tuple(images)
    if not is_perm(p):
        raise ValueError(f"cycles {cycles!r} do not describe a permutation")
    return p


class FiniteGroup:
    """A fully enumerated permutation group with integer element indices.

    ``elements[i]`` is the i-th permutation, ``index[p]`` inverts that map and
    the identity sits at ``identity_index`` (0 when ``generate_group`` built
    the group).  Arithmetic on indices (``mul``, ``inv``, ``conj``) is
    table-backed.
    """

    def __init__(self, elements: Sequence[Perm], generators: Sequence[Perm] = ()):
        if not elements:
            raise ValueError("a group needs at least one element")
        self.degree = len(elements[0])
        self.elements: tuple[Perm, ...] = tuple(elements)
        self.index: dict[Perm, int] = {p: i for i, p in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate elements")
        ident = identity_perm(self.degree)
        if ident not in self.index:
            raise ValueError("identity missing")
        self.identity_index = self.index[ident]
        self.generators: tuple[Perm, ...] = tuple(generators)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={len(self)}, degree={self.degree})"

    @classmethod
    def from_elements(cls, elements: Iterable[Perm]) -> "FiniteGroup":
        """Wrap an explicit element set, verifying closure under product/inverse."""
        elems = list(dict.fromkeys(elements))
        group = cls(elems)
        idx = group.index
        for p in elems:
            if inverse_perm(p) not in idx:
                raise ValueError(f"not closed under inversion at {p}")
            for q in elems:
                if compose(p, q) not in idx:
                    raise ValueError(f"not closed under composition at {p}*{q}")
        return group

    @cached_property
    def _mul_table(self) -> list[list[int]]:
        idx = self.index
        return [
            [idx[compose(p, q)] for q in self.elements] for p in self.elements
        ]

    @cached_property
    def _inv_table(self) -> list[int]:
        return [self.index[inverse_perm(p)] for p in self.elements]

    def mul(self, i: int, j: int) -> int:
        return self._mul_table[i][j]

    def inv(self, i: int) -> int:
        return self._inv_table[i]

    def conj(self, i: int, j: int) -> int:
        """Index of ``j^-1 * i * j``."""
        t = self._mul_table
        return t[t[self._inv_table[j]][i]][j]

    def mul_many(self, indices: Iterable[int]) -> int:
        table, acc = self._mul_table, self.identity_index
        for i in indices:
            acc = table[acc][i]
        return acc

    @cached_property
    def _conj_first(self) -> dict[tuple[int, int], int]:
        """(a, b) -> smallest-index y with y^-1 a y == b, for conjugate pairs."""
        table: dict[tuple[int, int], int] = {}
        for a in range(len(self)):
            for y in range(len(self)):
                b = self.conj(a, y)
                table.setdefault((a, b), y)
        return table

    def first_conjugator(self, a: int, b: int) -> int | None:
        """Smallest-index y with y^-1 a y == b, or None if not conjugate."""
        return self._conj_first.get((a, b))

    @cached_property
    def _commutator_pairs(self) -> dict[int, tuple[int, int]]:
        """a -> the first (x, y) in element order with x^-1 y x y^-1 == a.

        The scan runs x-major and stops after the first row at which every
        element has a pair, so it is short exactly when every element is a
        commutator; otherwise it runs all |P|^2 pairs and misses the rest.
        """
        mul, inv, n = self._mul_table, self._inv_table, len(self)
        pairs: dict[int, tuple[int, int]] = {}
        for x in range(n):
            left = mul[inv[x]]
            for y in range(n):
                pairs.setdefault(mul[mul[left[y]][x]][inv[y]], (x, y))
            if len(pairs) == n:
                break
        return pairs

    @cached_property
    def derived_subgroup(self) -> frozenset[int]:
        """[P,P], generated by the classes of the commutator set."""
        table = self.conj_classes
        commutators = table.commutators
        return subgroup_closure(
            self, (a for a, c in enumerate(table.class_of) if commutators >> c & 1)
        )

    @cached_property
    def conj_classes(self) -> ConjClassTable:
        """The group's one class table, with its class products."""
        return ConjClassTable(self)

    @cached_property
    def _statement_reports(self) -> dict:
        """S-statement name -> its ``props.PropReport``, filled on demand."""
        return {}


def generate_group(
    gens: Sequence[Perm], size_cap: int = DEFAULT_SIZE_CAP
) -> FiniteGroup:
    """Enumerate the group generated by ``gens`` (BFS from the identity).

    Element order is deterministic: identity first, then breadth-first layers,
    expanding each element by the generators in input order.
    """
    if not gens:
        raise ValueError("need at least one generator")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree:
            raise ValueError("generators must share a degree")
        if not is_perm(g):
            raise ValueError(f"not a permutation: {g}")
    ident = identity_perm(degree)
    seen: dict[Perm, int] = {ident: 0}
    order: list[Perm] = [ident]
    frontier = [ident]
    while frontier:
        nxt: list[Perm] = []
        for p in frontier:
            for s in gens:
                q = compose(p, s)
                if q not in seen:
                    seen[q] = len(order)
                    order.append(q)
                    nxt.append(q)
                    if len(order) > size_cap:
                        raise CapExceededError(
                            f"group closure exceeded size cap {size_cap}"
                        )
        frontier = nxt
    return FiniteGroup(order, generators=gens)


class ConjClassTable:
    """Partition of a group into conjugacy classes, and the products of classes.

    ``class_of[i]`` is the class id of element i, ``classes[c]`` the set of
    element indices in class c and ``reps[c]`` its least member.  Class ids are
    assigned in order of first appearance along the element order, so
    ``reps`` ascends with the class id.  The identity's class is
    ``class_of[group.identity_index]``: class 0 when the identity is element
    0, as in every group ``generate_group`` builds, but not in every group
    ``FiniteGroup.from_elements`` wraps.

    A set of classes is a bitmask, bit c for class c.  ``mult[c1][c2]`` is the
    set of classes that K(c1) . K(c2) meets; a product of classes is a union
    of classes, so it is that union.  Lemma: x^-1 a x . b =
    x^-1 (a . x b x^-1) x, so every product is conjugate to one whose left
    factor is ``reps[c1]``, and the row is read off the |P| products
    ``reps[c1] . K(c2)``.  ``commutators`` is the set C of commutators
    x^-1 y x y^-1 = x^-1 . (y x y^-1).  Each lies in K(x^-1) . K(x), and by the
    lemma each element of K(c) . K(c^-1) is conjugate to r . (y r^-1 y^-1)
    with r = ``reps[c]``, a commutator; so C is the union over c of
    K(c) . K(c^-1).
    """

    def __init__(self, group: FiniteGroup):
        n = len(group)
        class_of = [-1] * n
        classes: list[frozenset[int]] = []
        for i in range(n):
            if class_of[i] >= 0:
                continue
            members = {group.conj(i, x) for x in range(n)}
            cid = len(classes)
            for m in members:
                class_of[m] = cid
            classes.append(frozenset(members))
        self.class_of: tuple[int, ...] = tuple(class_of)
        self.classes: tuple[frozenset[int], ...] = tuple(classes)
        self.reps: tuple[int, ...] = tuple(min(c) for c in classes)
        self.mult: tuple[tuple[int, ...], ...] = tuple(
            tuple(sum(1 << c for c in {class_of[row[b]] for b in k}) for k in classes)
            for row in (group._mul_table[r] for r in self.reps)
        )
        self.commutators: int = 0
        for c, r in enumerate(self.reps):
            self.commutators |= self.mult[c][class_of[group.inv(r)]]

    def sizes(self) -> list[int]:
        return [len(c) for c in self.classes]

    def times(self, c: int, mask: int) -> int:
        """The set of classes that K(c) . N meets, for N the classes in mask."""
        row, out = self.mult[c], 0
        while mask:
            bit = mask & -mask  # the lowest class left in mask
            mask ^= bit
            out |= row[bit.bit_length() - 1]
        return out

    def least(self, mask: int) -> int:
        """The least element of a non-empty set of classes."""
        return self.reps[(mask & -mask).bit_length() - 1]


def conjugacy_classes(group: FiniteGroup) -> ConjClassTable:
    """The group's class table, ``group.conj_classes`` (built on first use)."""
    return group.conj_classes


def subgroup_closure(group: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """Indices of the subgroup generated by ``seed`` (indices into ``group``)."""
    todo = list(dict.fromkeys(seed))
    members = {group.identity_index}
    members.update(todo)
    queue = list(members)
    while queue:
        a = queue.pop()
        for b in list(members):
            for c in (group.mul(a, b), group.mul(b, a)):
                if c not in members:
                    members.add(c)
                    queue.append(c)
        i = group.inv(a)
        if i not in members:
            members.add(i)
            queue.append(i)
    return frozenset(members)


def normal_closure(group: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    table = group.conj_classes
    conj_seed = {c for a in seed for c in table.classes[table.class_of[a]]}
    return subgroup_closure(group, conj_seed)


def is_subgroup(group: FiniteGroup, subset: Iterable[int]) -> bool:
    members = frozenset(subset)
    if group.identity_index not in members:
        return False
    return all(
        group.inv(a) in members and group.mul(a, b) in members
        for a in members
        for b in members
    )


def is_normal(group: FiniteGroup, subset: Iterable[int]) -> bool:
    members = frozenset(subset)
    if not is_subgroup(group, members):
        return False
    table = group.conj_classes
    return all(table.classes[table.class_of[a]] <= members for a in members)


# Built-in group specs.  "Z<n>" is accepted for any small n.

_BUILTIN_GENS: dict[str, tuple[int, tuple[tuple[int, ...], ...]]] = {
    "A5": (5, ((0, 1, 2, 3, 4), (0, 1, 2))),
    "S3": (3, ((0, 1), (0, 1, 2))),
    "S4": (4, ((0, 1), (0, 1, 2, 3))),
    "A4": (4, ((0, 1, 2), (1, 2, 3))),
}


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    if n == 1:
        return generate_group([identity_perm(1)])
    return generate_group([perm_from_cycles(n, [tuple(range(n))])])


def builtin_group(name: str) -> FiniteGroup:
    if name in _BUILTIN_GENS:
        degree, cycles = _BUILTIN_GENS[name]
        return generate_group([perm_from_cycles(degree, [c]) for c in cycles])
    m = re.fullmatch(r"Z(\d+)", name)
    if m:
        return cyclic_group(int(m.group(1)))
    raise ValueError(f"unknown built-in group {name!r}")


def perm_lists(value: object, what: str) -> list[list[int]]:
    """``value`` if it is a list of integer lists, else a ValueError (a bool
    is no integer)."""
    if not isinstance(value, list) or not all(
        isinstance(p, list) and all(type(x) is int for x in p) for p in value
    ):
        raise ValueError(f"{what} must be a list of permutations (integer lists)")
    return value


def _inline_spec(spec: Mapping) -> tuple[int, list[list[int]]]:
    missing = [key for key in ("degree", "generators") if key not in spec]
    if missing:
        raise ValueError(f"inline group spec is missing {', '.join(missing)}")
    if type(spec["degree"]) is not int:
        raise ValueError("inline group spec degree must be an integer")
    return spec["degree"], perm_lists(spec["generators"], "generators")


def parse_group_spec(spec: str | Mapping) -> FiniteGroup:
    """Accept a built-in name or ``{"degree": n, "generators": [[...], ...]}``."""
    if isinstance(spec, str):
        stripped = spec.strip()
        if stripped.startswith("{"):
            return parse_group_spec(json.loads(stripped))
        return builtin_group(stripped)
    degree, generators = _inline_spec(spec)
    gens = [tuple(int(x) for x in images) for images in generators]
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise ValueError(f"bad generator {g} for degree {degree}")
    return generate_group(gens)


def canonical_group_json(spec: str | Mapping) -> str:
    """Stable JSON used for content-hashing group specs in reports."""
    if isinstance(spec, str) and not spec.strip().startswith("{"):
        doc: object = {"builtin": spec.strip()}
    else:
        degree, generators = _inline_spec(
            json.loads(spec) if isinstance(spec, str) else spec
        )
        doc = {
            "degree": degree,
            "generators": [list(map(int, g)) for g in generators],
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
