"""The four base-group conditions S1-S4 and the class-product predicate Xi.

``xi(P, u1, u2, u3)`` holds iff u3 lies in the product of the conjugacy
classes of u2^-1 and u1^-1, one bit of the group's class-product table
(``FiniteGroup.conj_classes.mult``).  Class products commute as sets, so xi
is fully symmetric in its three arguments.

Every checker reads that table only, as class-id bitmasks.  Let C be the set
of commutators x^-1 y x y^-1, a union of classes (``conj_classes.commutators``).
S1: with y' = a1^-1 y, x^-1 a1^-1 y x y^-1 = (x^-1 y' x y'^-1) a1^-1, so a1
reaches C a1^-1, the whole group iff C is.  S2: conjugating its equation by
a3 gives S1's, a3^-1 R2(a1, a3) a3 = R1(a1).  As encoded, S1 and S2 are thus
one statement, C = P (O. Ore proved it for A_n, Proc. AMS 2, 1951), with
witnesses (1, min(P - C)) and (1, min(P - C), 1).  These are the first
failures of the scans over a1 (and a3) in element order only when the identity
is element 0, as ``generate_group`` lists it; elsewhere they are failures, not
the first (S3 with its identity at index 2 gives (2, 0) and (2, 0, 2), the
scans (0, 1) and (0, 1, 0)).  S3: a product of two classes is a union of
classes, so the triple product is the product of the pair product's classes
with the third class.  Class minima ascend with the class id, so the least
element outside a union of classes is the least member of its least missing
class, and every witness reads ``conj_classes.least``.  ``xi_naive``
evaluates raw tuples and survives as a slow oracle for cross-checks.

``check_all``, ``statement_holds``, ``require_statements`` and
``satisfies_s_conditions`` share one report cache on the group, so each
statement is computed at most once per group object.  S1 and S2 decide from
the class algebra alone; their instances are solved by the one commutator
table ``FiniteGroup._commutator_pairs``, which ``commutators`` reads once C = P.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup


class SolverError(RuntimeError):
    """No witness exists: the element is not a mixed commutator."""


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


def xi(group: FiniteGroup, u1: int, u2: int, u3: int) -> bool:
    """True iff u3 = x^-1 u2^-1 x y^-1 u1^-1 y is solvable."""
    class_of = group.conj_classes.class_of
    row = group.conj_classes.mult[class_of[group.inv(u2)]]
    return bool(row[class_of[group.inv(u1)]] >> class_of[u3] & 1)


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


def _first_non_commutator(group: FiniteGroup) -> int | None:
    """min(P - C) for the commutator set C, or None when C = P."""
    table = group.conj_classes
    missing = ((1 << len(table.reps)) - 1) & ~table.commutators
    return table.least(missing) if missing else None


def check_S1(group: FiniteGroup) -> PropReport:
    """S1: every a2 equals x^-1 a1^-1 y x y^-1 for every a1, i.e. C = P.

    Witness (identity, min(P - C)); see the module docstring for its order.
    """
    a2 = _first_non_commutator(group)
    if a2 is None:
        return PropReport("S1", True, None)
    return PropReport("S1", False, (group.identity_index, a2))


def check_S2(group: FiniteGroup) -> PropReport:
    """S2: every a2 equals a3 u a1^-1 a3^-1 v u^-1 v^-1 for all a1, a3, i.e. C = P.

    Witness (identity, min(P - C), identity); see the module docstring.
    """
    a2 = _first_non_commutator(group)
    if a2 is None:
        return PropReport("S2", True, None)
    ident = group.identity_index
    return PropReport("S2", False, (ident, a2, ident))


def _nontrivial(group: FiniteGroup) -> tuple[list[int], int]:
    """The non-trivial class ids, ascending, and their set as a mask."""
    trivial = group.conj_classes.class_of[group.identity_index]
    ids = [c for c in range(len(group.conj_classes.reps)) if c != trivial]
    return ids, sum(1 << c for c in ids)


def check_S3(group: FiniteGroup) -> PropReport:
    """S3: products of any three non-trivial classes cover the non-identity part."""
    table = group.conj_classes
    reps = table.reps
    nontrivial, wanted = _nontrivial(group)
    for c1 in nontrivial:
        for c2 in nontrivial:
            pair = table.mult[c1][c2]
            for c3 in nontrivial:
                missing = wanted & ~table.times(c3, pair)
                if missing:
                    u4 = table.least(missing)
                    return PropReport("S3", False, (reps[c1], reps[c2], reps[c3], u4))
    return PropReport("S3", True, None)


def check_S4(group: FiniteGroup) -> PropReport:
    """S4: some product of two non-trivial classes misses a non-trivial element.

    The witness is a realizing triple (u1, u2, u3) with xi(u1, u2, u3) false.
    """
    table = group.conj_classes
    class_of, inv = table.class_of, group.inv
    nontrivial, wanted = _nontrivial(group)
    reps = [table.reps[c] for c in nontrivial]
    for u1 in reps:
        for u2 in reps:
            missing = wanted & ~table.mult[class_of[inv(u2)]][class_of[inv(u1)]]
            if missing:
                return PropReport("S4", True, (u1, u2, table.least(missing)))
    return PropReport("S4", False, None)


_CHECKERS = {"S1": check_S1, "S2": check_S2, "S3": check_S3, "S4": check_S4}


def _report(group: FiniteGroup, name: str) -> PropReport:
    """The named statement's report, computed at most once per group."""
    reports = group._statement_reports
    if name not in reports:
        reports[name] = _CHECKERS[name](group)
    return reports[name]


def check_all(group: FiniteGroup) -> dict[str, PropReport]:
    return {name: _report(group, name) for name in _CHECKERS}


def statement_holds(group: FiniteGroup, name: str) -> bool:
    """Whether the group satisfies the named statement (checked once per group)."""
    return _report(group, name).holds


def require_statements(group: FiniteGroup, names: tuple[str, ...]) -> None:
    """Raise unless the group satisfies the named statements (cached checks)."""
    for name in names:
        if not statement_holds(group, name):
            raise ValueError(
                f"base group fails ({name}); {'+'.join(names)} required here"
            )


def satisfies_s_conditions(group: FiniteGroup) -> bool:
    return all(statement_holds(group, name) for name in ("S1", "S2", "S3", "S4"))
