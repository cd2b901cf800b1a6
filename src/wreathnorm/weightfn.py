"""Three-valued comparison tables encoding norms, and universal axiom checkers.

A weight function assigns each (element, threshold) pair one of "<", "=", ">".
A pseudo-norm induces one by exact comparison, and is recovered as the least
threshold carrying "<" or "=" (None when every row entry is ">", the
above-all-thresholds marker).

``check_axioms`` evaluates the universal schemas of three theories over the
finite threshold fragment:

* T_W      the weight-function conditions (monotonicity in the threshold,
           the zero row, inverse symmetry)
* T_IPMG   T_W plus the triangle schema and the invariance schema
* T_IMG    T_IPMG plus the norm axiom (zero row only at the identity)

Triangle instances with q + q' outside the threshold set are not expressible
in the fragment; they are skipped and accounted for in the report.

The kernels do no ``Fraction`` arithmetic inside their loops: ``from_norm``
places each value with one bisection, and ``check_axioms`` reads symbols
through boolean rows built once and finds q + q' among the thresholds scaled
to integers by the lcm of their denominators.  The reports are byte for byte
those of the direct element-by-threshold evaluation, which the tests keep as
a reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .groups import FiniteGroup
from .norms import NormTable, fmt_fraction, parse_fraction, scale_to_integers

Symbol = str  # one of "<", "=", ">"

THEORIES = ("T_W", "T_IPMG", "T_IMG")


@dataclass(frozen=True)
class WeightFn:
    group: FiniteGroup
    thresholds: tuple[Fraction, ...]  # sorted, distinct
    rows: tuple[tuple[Symbol, ...], ...]  # rows[element][threshold index]

    def symbol(self, element: int, qi: int) -> Symbol:
        return self.rows[element][qi]

    def to_json(self) -> dict:
        return {
            "thresholds": [fmt_fraction(q) for q in self.thresholds],
            "rows": {str(i): list(row) for i, row in enumerate(self.rows)},
        }

    @staticmethod
    def from_json(group: FiniteGroup, doc: Mapping) -> "WeightFn":
        """Parse :meth:`to_json` output; ValueError unless ``doc`` is an object
        whose "thresholds" (integers or strings such as "3/2") increase strictly
        and include 0, and whose "rows" give each element one of <, =, > per
        threshold."""
        if not isinstance(doc, Mapping) or not {"thresholds", "rows"} <= doc.keys():
            raise ValueError("a weight function needs 'thresholds' and 'rows'")
        raw, rows_doc = doc["thresholds"], doc["rows"]
        if not isinstance(raw, list) or not isinstance(rows_doc, Mapping):
            raise ValueError("'thresholds' must be a list and 'rows' an object")
        for q in raw:
            if type(q) not in (int, str):
                raise ValueError(f"threshold {q!r} is not an integer or a string")
        thresholds = tuple(parse_fraction(q) for q in raw)
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if 0 not in thresholds:
            raise ValueError("threshold set must contain 0")
        n = len(group)
        rows: list[tuple[Symbol, ...] | None] = [None] * n
        for key, row in rows_doc.items():
            try:
                g = int(key)
            except (TypeError, ValueError):
                g = None
            if g is None or str(g) != key:  # the form to_json writes
                raise ValueError(f"row key {key!r} is not a decimal integer")
            if not 0 <= g < n or rows[g] is not None:
                raise ValueError(f"row key {key!r} is not a new element id in [0, {n})")
            if not isinstance(row, (list, tuple)) or len(row) != len(thresholds):
                raise ValueError(f"row {key} needs one symbol per threshold")
            if not all(symbol in ("<", "=", ">") for symbol in row):
                raise ValueError(f"row {key} has a symbol other than <, =, >")
            rows[g] = tuple(row)
        missing = [g for g, row in enumerate(rows) if row is None]
        if missing:
            raise ValueError(f"rows missing for elements {missing}")
        return WeightFn(group, thresholds, tuple(rows))


def from_norm(table: NormTable, thresholds: Sequence[Fraction | int]) -> WeightFn:
    """Comparison table of a norm against a finite threshold set (0 required).

    Thresholds and values are scaled to integers together; each row is ">"
    at the thresholds below the value, "=" at the value if it is a threshold,
    and "<" above, placed by one bisection per element.
    """
    given = [Fraction(q) for q in thresholds]
    scaled = scale_to_integers(given + list(table.values))
    by_scaled = dict(zip(scaled, given))  # distinct thresholds by scaled value
    if 0 not in by_scaled:
        raise ValueError("threshold set must contain 0")
    keys = sorted(by_scaled)
    k = len(keys)
    rows = []
    for v in scaled[len(given):]:
        i = bisect_left(keys, v)
        at = i < k and keys[i] == v
        rows.append(tuple(">" * i + "=" * at + "<" * (k - i - at)))
    qs = tuple(by_scaled[key] for key in keys)
    return WeightFn(table.group, qs, tuple(rows))


def w_of(f: WeightFn) -> list[Fraction | None]:
    """Per element, the least threshold with symbol in {<, =}; None if none."""
    out: list[Fraction | None] = []
    for row in f.rows:
        value = None
        for q, sym in zip(f.thresholds, row):
            if sym in ("<", "="):
                value = q
                break
        out.append(value)
    return out


@dataclass
class AxiomReport:
    theory: str
    ok: bool
    violations: list[dict] = field(default_factory=list)
    evaluated: dict = field(default_factory=dict)
    skipped_triangle_pairs: list[tuple[str, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "theory": self.theory,
            "ok": self.ok,
            "violations": self.violations,
            "evaluated": self.evaluated,
            "skipped_triangle_pairs": [list(p) for p in self.skipped_triangle_pairs],
        }


def check_axioms(f: WeightFn, theory: str) -> AxiomReport:
    """Exhaustively evaluate every schema instance expressible over the
    thresholds; each violation carries a witness."""
    if theory not in THEORIES:
        raise ValueError(f"theory must be one of {THEORIES}")
    group = f.group
    n = len(group)
    rows = f.rows
    qs = f.thresholds
    k = len(qs)
    fmt = [fmt_fraction(q) for q in qs]
    le = [[s in ("<", "=") for s in row] for row in rows]  # value <= q
    ge = [[s in (">", "=") for s in row] for row in rows]  # value >= q
    report = AxiomReport(theory, True)
    violations = report.violations

    # T_W (1)/(2): threshold monotonicity; only a row whose le row does not
    # ascend or whose ge row does not descend has violating pairs
    for g in range(n):
        le_g, ge_g = le[g], ge[g]
        if le_g == sorted(le_g) and ge_g == sorted(ge_g, reverse=True):
            continue
        for a in range(k):
            for b in range(a + 1, k):
                if le_g[a] and not le_g[b]:
                    violations.append({"axiom": "W1", "g": g, "q": fmt[a], "q2": fmt[b]})
                if ge_g[b] and not ge_g[a]:
                    violations.append({"axiom": "W2", "g": g, "q": fmt[a], "q2": fmt[b]})
    report.evaluated["monotonicity_instances"] = n * (k * (k - 1) // 2)

    # T_W (3): the zero row
    scaled = tuple(scale_to_integers(qs))
    zero_idx = scaled.index(0)
    ident = group.identity_index
    if rows[ident][zero_idx] != "=":
        violations.append({"axiom": "W3", "g": ident})
    for g in range(n):
        if rows[g][zero_idx] == "<":
            violations.append({"axiom": "W3", "g": g})

    # T_W (4): inverse symmetry, on interned row ids
    row_ids: dict = {}
    ids = [row_ids.setdefault(row, len(row_ids)) for row in rows]
    inv = group._inv_table
    for g in range(n):
        gi = inv[g]
        if ids[g] != ids[gi]:
            violations.append({"axiom": "W4", "g": g, "g_inv": gi})
    report.evaluated["inverse_instances"] = n

    if theory in ("T_IPMG", "T_IMG"):
        # q + q' is looked up among the integer-scaled thresholds
        q_index = {q: i for i, q in enumerate(scaled)}
        columns = list(zip(*le))  # columns[qi][g] == le[g][qi]
        members = [[g for g in range(n) if col[g]] for col in columns]
        mul = group._mul_table
        tri_checked = 0
        skipped = report.skipped_triangle_pairs
        for a, sa in enumerate(scaled):
            below_a = members[a]
            for b, sb in enumerate(scaled):
                ti = q_index.get(sa + sb)
                if ti is None:
                    skipped.append((fmt[a], fmt[b]))
                    continue
                below_b, target = members[b], columns[ti]
                tri_checked += len(below_a) * len(below_b)
                for g in below_a:
                    row = mul[g]
                    for h in below_b:
                        if not target[row[h]]:
                            violations.append(
                                {"axiom": "TRI", "g": g, "h": h, "q": fmt[a], "q2": fmt[b]}
                            )
        report.evaluated["triangle_instances"] = tri_checked

        for g in range(n):
            id_g = ids[g]
            for y in range(n):
                if ids[mul[mul[inv[y]][g]][y]] != id_g:  # group.conj(g, y)
                    violations.append({"axiom": "INV", "g": g, "y": y})
        report.evaluated["invariance_instances"] = n * n

    if theory == "T_IMG":
        for g in range(n):
            if g != ident and le[g][zero_idx]:
                violations.append({"axiom": "NORM", "g": g})

    report.ok = not violations
    return report
