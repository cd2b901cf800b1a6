"""The four base-group conditions S1-S4 and the class-product predicate Xi.

``xi(P, u1, u2, u3)`` holds iff u3 lies in the product of the conjugacy
classes of u2^-1 and u1^-1.  Class products commute as sets, so xi is fully
symmetric in its three arguments; the checkers exploit that by quantifying
over class representatives wherever a statement is class-invariant.  Raw-tuple
evaluation survives as a slow oracle mode for cross-checks.

Instance solvers return the first solution in element order (loop order
documented per solver), so witnesses are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, class_product


class SolverError(RuntimeError):
    """No solution exists; the base group fails the relevant S-statement."""


@dataclass(frozen=True)
class PropReport:
    property_id: str
    holds: bool
    witness: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {
            "property": self.property_id,
            "holds": self.holds,
            "witness": None if self.witness is None else list(self.witness),
        }


def _class_prod(group: FiniteGroup, c1: int, c2: int) -> frozenset[int]:
    memo = group._class_products
    if (c1, c2) not in memo:
        memo[(c1, c2)] = class_product(group, group.conj_classes, c1, c2)
    return memo[(c1, c2)]


def xi(group: FiniteGroup, u1: int, u2: int, u3: int) -> bool:
    """True iff u3 = x^-1 u2^-1 x y^-1 u1^-1 y is solvable."""
    table = group.conj_classes
    c2 = table.class_of[group.inv(u2)]
    c1 = table.class_of[group.inv(u1)]
    return u3 in _class_prod(group, c2, c1)


def xi_naive(group: FiniteGroup, u1: int, u2: int, u3: int) -> bool:
    """Direct existential search over (x, y); oracle for :func:`xi`."""
    iu1, iu2 = group.inv(u1), group.inv(u2)
    n = len(group)
    for x in range(n):
        left = group.conj(iu2, x)
        target = group.mul(group.inv(left), u3)
        for y in range(n):
            if group.conj(iu1, y) == target:
                return True
    return False


def _s1_reachable(group: FiniteGroup, a1: int) -> set[int]:
    """{x^-1 a1^-1 y x y^-1} = union over x of x^-1 a1^-1 * class(x)."""
    table = group.conj_classes
    ia1 = group.inv(a1)
    out: set[int] = set()
    for x in range(len(group)):
        prefix = group.mul(group.inv(x), ia1)
        cls = table.classes[table.class_of[x]]
        out.update(group.mul(prefix, c) for c in cls)
    return out


def check_S1(group: FiniteGroup) -> PropReport:
    """S1: every a2 equals x^-1 a1^-1 y x y^-1 for every a1."""
    full = set(range(len(group)))
    for a1 in range(len(group)):
        reachable = _s1_reachable(group, a1)
        if reachable != full:
            a2 = min(full - reachable)
            return PropReport("S1", False, (a1, a2))
    return PropReport("S1", True, None)


def check_S2(group: FiniteGroup) -> PropReport:
    """S2: every a2 equals a3 u a1^-1 a3^-1 v u^-1 v^-1 for all a1, a3."""
    table = group.conj_classes
    n = len(group)
    full = set(range(n))
    for a1 in range(n):
        ia1 = group.inv(a1)
        for a3 in range(n):
            ia3 = group.inv(a3)
            reachable: set[int] = set()
            for u in range(n):
                w = group.mul_many((a3, u, ia1, ia3))
                row = group._mul_table[w]
                cls = table.classes[table.class_of[group.inv(u)]]
                reachable.update(row[c] for c in cls)
            if reachable != full:
                a2 = min(full - reachable)
                return PropReport("S2", False, (a1, a2, a3))
    return PropReport("S2", True, None)


def check_S3(group: FiniteGroup, raw: bool = False) -> PropReport:
    """S3: products of any three non-trivial classes cover the non-identity part."""
    if raw:
        return _check_S3_raw(group)
    table = group.conj_classes
    ident = group.identity_index
    nontrivial = [
        c for c in range(len(table.classes)) if table.classes[c] != frozenset({ident})
    ]
    full = frozenset(range(len(group))) - {ident}
    for c1 in nontrivial:
        for c2 in nontrivial:
            pair = _class_prod(group, c1, c2)
            for c3 in nontrivial:
                covered = set()
                for w in pair:
                    row = group._mul_table[w]
                    covered.update(row[z] for z in table.classes[c3])
                if not full <= covered:
                    u4 = min(full - covered)
                    return PropReport(
                        "S3",
                        False,
                        (
                            min(table.classes[c1]),
                            min(table.classes[c2]),
                            min(table.classes[c3]),
                            u4,
                        ),
                    )
    return PropReport("S3", True, None)


def _check_S3_raw(group: FiniteGroup) -> PropReport:
    ident = group.identity_index
    n = len(group)
    nontrivial = [i for i in range(n) if i != ident]
    for u1 in nontrivial:
        for u2 in nontrivial:
            for u3 in nontrivial:
                covered = set()
                for x in range(n):
                    a = group.conj(u1, x)
                    for y in range(n):
                        ab = group.mul(a, group.conj(u2, y))
                        row = group._mul_table[ab]
                        covered.update(
                            row[group.conj(u3, z)] for z in range(n)
                        )
                for u4 in nontrivial:
                    if u4 not in covered:
                        return PropReport("S3", False, (u1, u2, u3, u4))
    return PropReport("S3", True, None)


def check_S4(group: FiniteGroup) -> PropReport:
    """S4: some product of two non-trivial classes misses a non-trivial element.

    The witness is a realizing triple (u1, u2, u3) with xi(u1, u2, u3) false.
    """
    table = group.conj_classes
    ident = group.identity_index
    nontrivial = [
        c for c in range(len(table.classes)) if table.classes[c] != frozenset({ident})
    ]
    for c1 in nontrivial:
        for c2 in nontrivial:
            u1 = min(table.classes[c1])
            u2 = min(table.classes[c2])
            prod = _class_prod(
                group,
                table.class_of[group.inv(u2)],
                table.class_of[group.inv(u1)],
            )
            missing = [
                u3 for u3 in range(len(group)) if u3 != ident and u3 not in prod
            ]
            if missing:
                return PropReport("S4", True, (u1, u2, min(missing)))
    return PropReport("S4", False, None)


def check_all(group: FiniteGroup) -> dict[str, PropReport]:
    return {
        "S1": check_S1(group),
        "S2": check_S2(group),
        "S3": check_S3(group),
        "S4": check_S4(group),
    }


_CHECKERS = {"S1": check_S1, "S2": check_S2, "S3": check_S3, "S4": check_S4}


def statement_holds(group: FiniteGroup, name: str) -> bool:
    """Whether the group satisfies the named statement (checked once per group)."""
    verdicts = group._statement_verdicts
    if name not in verdicts:
        verdicts[name] = _CHECKERS[name](group).holds
    return verdicts[name]


def require_statements(group: FiniteGroup, names: tuple[str, ...]) -> None:
    """Raise unless the group satisfies the named statements (cached checks)."""
    for name in names:
        if not statement_holds(group, name):
            raise ValueError(
                f"base group fails ({name}); {'+'.join(names)} required here"
            )


def satisfies_s_conditions(group: FiniteGroup) -> bool:
    return all(statement_holds(group, name) for name in ("S1", "S2", "S3", "S4"))


def solve_S1_instance(group: FiniteGroup, a1: int, a2: int) -> tuple[int, int]:
    """First (x, y) in element order with a2 = x^-1 a1^-1 y x y^-1.

    Loop order: x ascending, then y ascending via the conjugator table, so the
    returned witness is the lexicographically first solution.
    """
    ia1 = group.inv(a1)
    for x in range(len(group)):
        # a2 = x^-1 ia1 y x y^-1  <=>  y x y^-1 = ia1^-1 x a2^-1 ... solved via
        # y^-1 (x) y = w with w = a1 x a2 read off the rearranged equation.
        w = group.mul_many((a1, x, a2))
        y = group.first_conjugator(w, x)
        if y is not None:
            return x, y
    raise SolverError("no (x, y) realizes S1 for this pair")


def solve_S2_instance(
    group: FiniteGroup, a1: int, a2: int, a3: int
) -> tuple[int, int, int]:
    """First (z, u, v) with a1 = a3^-1 z a3 u and a2 = z^-1 v u^-1 v^-1.

    Solves the equivalent original form a2 = a3 u a1^-1 a3^-1 v u^-1 v^-1 by
    scanning u ascending then v ascending; z is determined by u.
    """
    ia1, ia3 = group.inv(a1), group.inv(a3)
    for u in range(len(group)):
        w = group.mul_many((a3, u, ia1, ia3))
        target = group.mul(group.inv(w), a2)
        # v u^-1 v^-1 = target  <=>  v^-1 target v = u^-1
        v = group.first_conjugator(target, group.inv(u))
        if v is not None:
            z = group.mul_many((a3, a1, group.inv(u), ia3))
            return z, u, v
    raise SolverError("no (z, u, v) realizes S2 for this triple")


def solve_S3_instance(
    group: FiniteGroup, u1: int, u2: int, u3: int, u4: int
) -> tuple[int, int, int]:
    """First (x, y, z) with u4 = x^-1 u1 x y^-1 u2 y z^-1 u3 z."""
    ident = group.identity_index
    if ident in (u1, u2, u3):
        raise ValueError("S3 instances need non-trivial u1, u2, u3")
    n = len(group)
    for x in range(n):
        a = group.conj(u1, x)
        rest1 = group.mul(group.inv(a), u4)
        for y in range(n):
            b = group.conj(u2, y)
            target = group.mul(group.inv(b), rest1)
            z = group.first_conjugator(u3, target)
            if z is not None:
                return x, y, z
    raise SolverError("no (x, y, z) realizes S3 for this quadruple")
