"""Pseudo-norms and norms on finite groups: validation, transforms, word norms.

Values are exact: ``Fraction`` (or int) throughout, so every validator decision
is crisp.  Axiom ids used in validation reports:

* ``N1``   value at the identity is 0
* ``N2``   symmetry, value(g) == value(g^-1)
* ``N3``   triangle, value(gh) <= value(g) + value(h)
* ``N1'``  definiteness, value(g) == 0 only at the identity
* ``INV``  conjugation invariance
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .groups import (
    FiniteGroup,
    conjugacy_classes,
    is_normal,
    is_subgroup,
)

Value = Fraction | int


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]
    values: tuple[Value, ...]

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "witness": list(self.witness),
            "values": [fmt_fraction(v) for v in self.values],
        }


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}


def parse_fraction(v: int | str) -> Fraction:
    """``Fraction(v)``, raising ValueError (not ZeroDivisionError) on "n/0"."""
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"{v!r} has a zero denominator") from None


def fmt_fraction(v: Value) -> str:
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


class NormTable:
    """A total assignment of exact nonnegative values to group elements.

    ``notes`` records normalization steps applied while building the table
    (e.g. generator symmetrization).
    """

    def __init__(
        self,
        group: FiniteGroup,
        values: Sequence[Value],
        notes: Sequence[str] = (),
    ):
        if len(values) != len(group):
            raise ValueError("table must be total on the group")
        self.group = group
        self.values: tuple[Value, ...] = tuple(
            v if isinstance(v, int) else Fraction(v) for v in values
        )
        for v in self.values:
            if v < 0:
                raise ValueError("norm values must be nonnegative")
        self.notes: tuple[str, ...] = tuple(notes)

    def __getitem__(self, i: int) -> Value:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def kernel(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.values) if v == 0)

    def to_json(self) -> list[dict]:
        return [
            {"element": i, "value": fmt_fraction(v)} for i, v in enumerate(self.values)
        ]

    @classmethod
    def from_json(cls, group: FiniteGroup, doc: Iterable[dict]) -> "NormTable":
        """One ``{"element": id, "value": v}`` row per element: ids are JSON
        integers in [0, |G|), values integers or strings such as "3/2"."""
        values: list[Value] = [Fraction(0)] * len(group)
        seen = [False] * len(group)
        for row in doc:
            if not isinstance(row, dict) or not {"element", "value"} <= row.keys():
                raise ValueError(f"table row {row!r} needs 'element' and 'value'")
            i, v = row["element"], row["value"]
            if type(i) is not int:
                raise ValueError(f"element id {i!r} is not an integer")
            if not 0 <= i < len(group):
                raise ValueError(f"element id {i} is outside [0, {len(group)})")
            if seen[i]:
                raise ValueError(f"duplicate row for element {i}")
            if type(v) not in (int, str):
                raise ValueError(f"value {v!r} is not an integer or a string")
            values[i] = parse_fraction(v)
            seen[i] = True
        if not all(seen):
            raise ValueError("table must cover every element")
        return cls(group, values)


def scale_to_integers(values: Sequence[Value]) -> list[int]:
    """The values times the lcm of their denominators: exact integers that
    order, add and compare for equality exactly as the values do."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def validate_pseudo_norm(t: NormTable) -> ValidationReport:
    """Exhaustively check axioms N1, N2, N3; violations carry witnesses.

    The comparisons run on ``scale_to_integers`` of the values; the witnesses
    carry the table's own values.
    """
    g = t.group
    values = t.values
    scaled = scale_to_integers(values)
    inv = g._inv_table
    violations: list[Violation] = []
    e = g.identity_index
    if scaled[e] != 0:
        violations.append(Violation("N1", (e,), (values[e],)))
    for i, j in enumerate(inv):
        if scaled[i] != scaled[j]:
            violations.append(Violation("N2", (i, j), (values[i], values[j])))
    for i, row in enumerate(g._mul_table):
        si = scaled[i]
        for j, k in enumerate(row):
            if scaled[k] > si + scaled[j]:
                violations.append(
                    Violation("N3", (i, j, k), (values[i], values[j], values[k]))
                )
    return ValidationReport(not violations, violations)


def validate_norm(t: NormTable) -> ValidationReport:
    """Pseudo-norm axioms plus definiteness (N1')."""
    report = validate_pseudo_norm(t)
    for i in range(len(t.group)):
        if i != t.group.identity_index and t[i] == 0:
            report.violations.append(Violation("N1'", (i,), (t[i],)))
    report.ok = not report.violations
    return report


def validate_invariance(t: NormTable) -> ValidationReport:
    """Exhaustively check INV, comparing ``scale_to_integers`` of the values."""
    g = t.group
    values = t.values
    scaled = scale_to_integers(values)
    mul, inv = g._mul_table, g._inv_table
    n = len(g)
    violations = []
    for i in range(n):
        si = scaled[i]
        for x in range(n):
            c = mul[mul[inv[x]][i]][x]  # g.conj(i, x)
            if scaled[c] != si:
                violations.append(Violation("INV", (i, x, c), (values[i], values[c])))
    return ValidationReport(not violations, violations)


def restrict_norm(t: NormTable, subgroup: Iterable[int]) -> tuple[NormTable, list[int]]:
    """Restrict to a subgroup, returned as its own group on the same points.

    Returns the restricted table plus the list mapping new element indices to
    old ones.
    """
    members = sorted(frozenset(subgroup))
    g = t.group
    if not is_subgroup(g, members):
        raise ValueError("element set is not a subgroup")
    perms = [g.elements[i] for i in members]
    sub = FiniteGroup.from_elements(
        sorted(perms, key=lambda p: (p != g.elements[g.identity_index], g.index[p]))
    )
    embed = [g.index[p] for p in sub.elements]
    return NormTable(sub, [t[i] for i in embed]), embed


def quotient_norm(t: NormTable, normal: Iterable[int]) -> tuple[NormTable, list[int]]:
    """Push a pseudo-norm to G/N: value of a coset is the min over the coset.

    Returns the quotient table together with the projection sending each
    element index of G to its coset index in the quotient group.  The quotient
    is realized as a permutation group acting on its own cosets, ordered by
    smallest member, identity coset first.
    """
    g = t.group
    members = frozenset(normal)
    if not is_normal(g, members):
        raise ValueError("subgroup is not normal")
    coset_of: dict[int, int] = {}
    cosets: list[list[int]] = []
    for i in range(len(g)):
        if i in coset_of:
            continue
        coset = sorted(g.mul(i, h) for h in members)
        cid = len(cosets)
        for m in coset:
            coset_of[m] = cid
        cosets.append(coset)
    order = sorted(
        range(len(cosets)),
        key=lambda c: (g.identity_index not in cosets[c], cosets[c][0]),
    )
    relabel = {old: new for new, old in enumerate(order)}
    n_cosets = len(cosets)
    perms = []
    for old in order:
        rep = cosets[old][0]
        images = [0] * n_cosets
        for c_old in range(n_cosets):
            images[relabel[c_old]] = relabel[coset_of[g.mul(cosets[c_old][0], rep)]]
        perms.append(tuple(images))
    quotient = FiniteGroup.from_elements(perms)
    values: list[Value] = [Fraction(0)] * n_cosets
    for old in order:
        values[relabel[old]] = min(t[m] for m in cosets[old])
    projection = [relabel[coset_of[i]] for i in range(len(g))]
    return NormTable(quotient, values), projection


def plus_epsilon(t: NormTable, eps: Value) -> NormTable:
    """Lift kernel elements (except 1) to eps, turning a pseudo-norm into a norm."""
    eps = Fraction(eps)
    nonzero = [v for v in t.values if v != 0]
    bound = min(nonzero) if nonzero else None
    if eps <= 0 or (bound is not None and eps >= bound):
        raise ValueError(f"epsilon must lie in (0, {bound})")
    values = [
        eps if v == 0 and i != t.group.identity_index else v
        for i, v in enumerate(t.values)
    ]
    return NormTable(t.group, values, t.notes)


def integer_round(t: NormTable) -> NormTable:
    """Round values up to naturals: anything in (n, n+1] becomes n+1."""
    return NormTable(
        t.group, [v if v == int(v) else math.ceil(v) for v in t.values], t.notes
    )


def profinite_norm(
    group: FiniteGroup, chain: Sequence[Iterable[int]], p: int
) -> NormTable:
    """Norm 1/p^s at the first subgroup of the chain excluding the element.

    ``chain`` is a strictly descending sequence of normal subgroups of
    ``group`` whose last entry is the trivial subgroup; the whole group itself
    is not part of the chain.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    sets = [frozenset(s) for s in chain]
    if not sets or sets[-1] != frozenset({group.identity_index}):
        raise ValueError("chain must end at the trivial subgroup")
    for s in sets:
        if not is_normal(group, s):
            raise ValueError("chain entries must be normal subgroups")
    for a, b in zip(sets, sets[1:]):
        if not (b < a):
            raise ValueError("chain must be strictly descending")
    values: list[Value] = []
    for i in range(len(group)):
        excluded = [s + 1 for s, members in enumerate(sets) if i not in members]
        values.append(Fraction(1, p ** excluded[0]) if excluded else Fraction(0))
    return NormTable(group, values)


def conjugacy_closure(group: FiniteGroup, gens: Iterable[int]) -> frozenset[int]:
    """Union of conjugacy classes meeting gens (symmetrized), identity dropped."""
    table = conjugacy_classes(group)
    seed = set(gens)
    seed.update(group.inv(i) for i in list(seed))
    out: set[int] = set()
    for i in seed:
        out.update(table.classes[table.class_of[i]])
    out.discard(group.identity_index)
    return frozenset(out)


def word_norm_bfs(group: FiniteGroup, gens: Iterable[int]) -> NormTable:
    """Exact word length over ``gens`` by breadth-first search from 1.

    The generating set is symmetrized and identity-stripped first; a note in
    the resulting table records when that changed the input.
    """
    notes: list[str] = []
    raw = list(dict.fromkeys(gens))
    gen_set = set(raw)
    gen_set.update(group.inv(i) for i in raw)
    gen_set.discard(group.identity_index)
    if gen_set != set(raw):
        notes.append("generators symmetrized and identity-stripped")
    if not gen_set:
        raise ValueError("no usable generators")
    gens_sorted = sorted(gen_set)
    dist = [-1] * len(group)
    dist[group.identity_index] = 0
    frontier = [group.identity_index]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for i in frontier:
            row = group._mul_table[i]
            for s in gens_sorted:
                j = row[s]
                if dist[j] < 0:
                    dist[j] = level
                    nxt.append(j)
        frontier = nxt
    if any(d < 0 for d in dist):
        missing = sum(d < 0 for d in dist)
        raise ValueError(f"generators do not generate: {missing} elements unreached")
    return NormTable(group, dist, notes)


def ball(t: NormTable, radius: Value) -> frozenset[int]:
    """Elements within ``radius`` of the identity; radius 0 gives the kernel."""
    return frozenset(i for i, v in enumerate(t.values) if v <= radius)
