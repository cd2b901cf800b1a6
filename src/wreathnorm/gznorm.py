"""Closed-form invariant word norm on the shift extension, and its finite images.

The norm is taken over the conjugacy closure of (copies of the base group at
each index) together with the shift generator and its inverse.  Its value
depends only on the shift and on cheap predicates of the torsion part:

    0            identity
    1            single support, shift 0
    2            weight 2, shift 0
    2            shift 0 and a mixed commutator
    3            shift 0, weight 3, not a mixed commutator
    1            shift +-1 with telescoping torsion (the element lies in T+-)
    2            shift +-1 otherwise
    |m|          |shift| = |m| > 1

One function, :func:`case_norm`, holds this table; its only parameter is the
predicate for the mixed-commutator row.  Three predicates fill it:

* ``is_pm_commutator`` in the infinite group (:func:`norm_gz`);
* the cyclic ``pm_commutator_truncated`` on truncations
  (:func:`norm_truncated`);
* in the acceptance gate, the acyclic predicate on the canonical
  linearization, whose disagreements with BFS isolate the wrap-around cases.

The weight-3 test uses the resolved argument order of xi
(``RESOLVED_XI_VARIANT``, see ``commutators``).  On truncations, windows of
size >= 7 with a base satisfying S1-S4 run in "theory" mode, mirroring the
window margins of the almost-homomorphism construction; smaller windows run in
"oracle" mode where the value is advisory and breadth-first search over the
actual Cayley graph is authoritative.  Full-support torsion in oracle mode is
decided by exhaustive search over factor pairs, one numpy kernel that returns
the first hit in ``itertools.product`` order and refuses more than
``PM_SEARCH_CAP`` free choices; its factor tables are cached per window width
on the base group.

One sign order suffices for that search.  Write Sbar_k for the members of
the generating set with shift k; on a truncation Sbar_1 = T+, Sbar_-1 = T-.

Lemma.  A shift-0 h lies in Sbar_1 . Sbar_-1 iff it lies in Sbar_-1 . Sbar_1,
and the "-+" search decides the latter.

Proof.  (1) x = (u, -1) is in T- iff u has vanishing decreasing cyclic
product; y = (a, 1) is in T+ iff a has vanishing increasing cyclic product,
iff v = alpha^-1(a) does (a cyclic rotation of a product is a conjugate of
it).  As x.y = (u . shift^-1(a), 0) = u.v pointwise, h is in T- . T+ iff
some such u makes v_i = u_i^-1 h_i vanish in increasing order.  The search
frees u at -n..n-1, closes u at n and tests exactly that; a hit gives the
factors u.t^-1 and alpha(v).t.
(2) Sbar is conjugation-closed and the shift is a homomorphism: if h = a.b
with a in Sbar_1 and b in Sbar_-1, then h = b.(b^-1 a b) with b^-1 a b in
Sbar_1, and if h = b.a, then h = (b a b^-1).b.  So the two products are one
set, and a "+-" search would hit on exactly the same states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .commutators import (
    RESOLVED_XI_VARIANT,  # re-exported: the recorded xi decision
    SolverError,
    build_2_commutator,
    build_pm1_decomposition,
    build_pm_commutator,
    factor_minus,
    factor_plus,
    is_pm_commutator,
)
from .groups import CapExceededError, FiniteGroup
from .lamp import LampElem, in_Sbar, in_Tminus, in_Tplus
from .norms import fmt_fraction
from .props import require_statements, satisfies_s_conditions, statement_holds

PM_SEARCH_CAP = 2_000_000


def _torsion(g: LampElem) -> LampElem:
    return LampElem.make(g.base, dict(g.support), 0, g.window)


def case_norm(g: LampElem, mixed: Callable[[LampElem], bool]) -> int:
    """The case table; ``mixed`` decides the shift-0 rows of weight >= 3."""
    m, w = g.shift, g.weight()
    if m == 0:
        if w <= 2:
            return w
        return 2 if mixed(g) else 3
    if abs(m) == 1:
        return 1 if (in_Tplus(g) or in_Tminus(g)) else 2
    return abs(m)


def norm_gz(g: LampElem) -> int:
    """Exact word norm in the infinite-mode group (base must satisfy S1-S4)."""
    if g.window is not None:
        raise ValueError("norm_gz expects infinite mode; see norm_truncated")
    require_statements(g.base, ("S1", "S2", "S3", "S4"))
    return case_norm(g, is_pm_commutator)


def norm_truncated(g: LampElem, mode: str = "auto") -> int:
    """Case-table norm on a truncation, with cyclic predicates.

    ``mode`` is "theory" (window >= 7, base satisfying S1-S4: the value is the
    exact norm for elements within the window margins of the truncation map),
    "oracle" (advisory; BFS is authoritative), or "auto" to pick by window
    size.
    """
    if g.window is None:
        raise ValueError("norm_truncated expects a truncated element")
    width = 2 * g.window + 1
    if mode == "auto":
        mode = "theory" if width >= 7 and satisfies_s_conditions(g.base) else "oracle"
    if mode == "theory":
        if width < 7:
            raise ValueError("theory mode needs window size >= 7")
        require_statements(g.base, ("S1", "S2", "S3", "S4"))
    elif mode != "oracle":
        raise ValueError("mode must be 'auto', 'theory' or 'oracle'")
    return case_norm(g, pm_commutator_truncated)


def pm_commutator_truncated(h: LampElem) -> bool:
    """Mixed-commutator test with cyclic index arithmetic.

    With a gap in the support the circle can be cut there and the acyclic
    decision applies (the class-product predicate is invariant under cyclic
    rotation of its arguments, so the cut position does not matter).  Weight
    >= 4 over an S3 base is always yes, gap or not.  Everything else (full
    support of weight <= 3, weight >= 4 without S3) is decided by
    :func:`_pm_cyclic_exhaustive`, the numpy kernel over all factor pairs,
    which raises ``CapExceededError`` when its |P|^(2n) free choices exceed
    ``PM_SEARCH_CAP``.
    """
    if h.window is None or h.shift != 0:
        raise ValueError("expects a shift-0 truncated element")
    w = h.weight()
    gap = w < 2 * h.window + 1
    if (gap and w <= 3) or (w >= 4 and statement_holds(h.base, "S3")):
        return is_pm_commutator(h)
    return _pm_cyclic_exhaustive(h) is not None


def _closed_factors(
    base: FiniteGroup, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(mul, inv, digits, closing): every factor u of the cyclic search.

    Row j of ``digits`` is u at index j - n: entry r holds base-|P| digit j
    of r, most significant first, so entries run in ``itertools.product``
    order.  ``closing`` is u at index n, the inverse of the decreasing
    product of the digits.  All arrays, the group tables included, use the
    smallest unsigned dtype that holds |P| - 1.  Built once per width and
    cached on the group: for |P| <= 256, |P|^(width-1) * width bytes, so at
    most 2,000,000 * width under ``PM_SEARCH_CAP`` (15.1 MB for S3 at
    window 4).
    """
    tables = base._cyclic_factor_tables
    if width not in tables:
        b, k = len(base), width - 1
        dtype = np.min_scalar_type(b - 1)
        mul = np.asarray(base._mul_table, dtype=dtype)
        inv = np.asarray(base._inv_table, dtype=dtype)
        values = np.arange(b, dtype=dtype)
        digits = np.stack(
            [np.tile(np.repeat(values, b ** (k - 1 - j)), b**j) for j in range(k)]
        )
        dec = digits[0]
        for col in digits[1:]:
            dec = mul[col, dec]
        tables[width] = mul, inv, digits, inv[dec]
    return tables[width]


def _pm_cyclic_exhaustive(h: LampElem) -> tuple[LampElem, LampElem] | None:
    """Search factor pairs u, v with h = u.v pointwise ("-+" order).

    The decreasing cyclic product of u and the increasing cyclic product of
    v must vanish.  Fixing u at -n..n-1 determines u at n (see
    :func:`_closed_factors`) and v_i = u_i^-1 h_i, so one numpy fold over all
    |P|^(2n) choices decides the search; by the lemma in the module docstring
    the "+-" order hits on the same states.  Returns (u, v) for the first hit
    in ``itertools.product`` order over the free digits, or None.  Raises
    ``CapExceededError`` before allocating anything when |P|^(2n) exceeds
    ``PM_SEARCH_CAP``.
    """
    base = h.base
    n = h.window
    assert n is not None
    width = 2 * n + 1
    total = len(base) ** (width - 1)
    if total > PM_SEARCH_CAP:
        raise CapExceededError(f"cyclic factor search would visit {total} states")
    mul, inv, digits, closing = _closed_factors(base, width)
    positions = list(range(-n, n + 1))
    u_cols = [*digits, closing]
    v_cols = [mul[inv, h.value_at(i)][col] for i, col in zip(positions, u_cols)]
    acc = v_cols[0]
    for col in v_cols[1:]:
        acc = mul[acc, col]
    hits = np.flatnonzero(acc == base.identity_index)
    if not hits.size:
        return None
    r = hits[0]
    u, v = (
        LampElem.make(base, {i: int(col[r]) for i, col in zip(positions, cols)}, 0, n)
        for cols in (u_cols, v_cols)
    )
    return u, v


# -- geodesics -----------------------------------------------------------------


@dataclass(frozen=True)
class Geodesic:
    """A factorization of the target into generating-set members.

    Invariants (re-checked by :func:`check_geodesic`): every factor satisfies
    the membership predicate, the factors multiply to the target, the length
    equals the case-table norm, and in infinite mode each factor's support
    stays within two steps of the target's support.
    """

    target: LampElem
    factors: tuple[LampElem, ...]

    def __len__(self) -> int:
        return len(self.factors)


def geodesic(g: LampElem) -> Geodesic:
    """Geodesic factorization realizing the case-table norm."""
    base = g.base
    window = g.window
    t = LampElem.t_power(base, 1, window)
    t_inv = LampElem.t_power(base, -1, window)
    m, w = g.shift, g.weight()
    norm = norm_gz(g) if window is None else norm_truncated(g)
    if norm == 0:
        return Geodesic(g, ())
    if norm == 1:
        return Geodesic(g, (g,))
    torsion = _torsion(g)
    if m == 0:
        if norm == 2 and w > 2:
            u, v = _pm_witness_factors(torsion)
            return Geodesic(g, (u.mul(t_inv), v.alpha(1).mul(t)))
        if w > 3:
            raise ValueError(
                "no length-3 factorization for a non-mixed element of weight > 3"
            )
        singles = (LampElem.single(base, i, v, window) for i, v in g.support)
        return Geodesic(g, tuple(singles))
    if m == 1:
        witness, residual = build_pm1_decomposition(torsion, 1)
        s1 = factor_plus(witness.vectors[0]).mul(t)
        return Geodesic(g, (s1, residual.alpha(-1)))
    if m == -1:
        witness, residual = build_pm1_decomposition(torsion, -1)
        s1 = factor_minus(witness.vectors[0]).mul(t_inv)
        return Geodesic(g, (s1, residual.alpha(1)))
    if window is not None and g.support:
        # the two-factor construction writes one index above the support (and
        # may pad one below) and must not wrap; truncation-map images always
        # leave this margin
        lo, hi = g.support_indices()[0], g.support_indices()[-1]
        lo -= (hi - lo + 1) % 2
        if hi + 1 > window or lo < -window:
            raise ValueError("torsion too wide for a geodesic in this window")
    if m > 1:
        w2 = build_2_commutator(torsion, 1)
        s1 = factor_plus(w2.vectors[0]).mul(t)
        s2 = factor_plus(w2.vectors[1]).alpha(-1).mul(t)
        return Geodesic(g, (s1, s2) + (t,) * (m - 2))
    w2 = build_2_commutator(torsion, -1)
    s1 = factor_minus(w2.vectors[0]).mul(t_inv)
    s2 = factor_minus(w2.vectors[1]).alpha(1).mul(t_inv)
    return Geodesic(g, (s1, s2) + (t_inv,) * (-m - 2))


def _pm_witness_factors(h: LampElem) -> tuple[LampElem, LampElem]:
    """Factor pair (u, v) with h = u*v pointwise.

    The vector u has vanishing decreasing product (it feeds a t^-1
    conjugate) and v vanishing increasing product.  Only called when the
    norm branch already decided the element is a mixed commutator.
    """
    if h.window is None:
        g1, g2 = build_pm_commutator(h, "-+").vectors
        return factor_minus(g1), factor_plus(g2)
    n = h.window
    if h.weight() == 2 * n + 1:
        found = _pm_cyclic_exhaustive(h)
        if found is None:
            raise SolverError("not a mixed commutator (cyclic search exhausted)")
        return found
    # Rotate a free position onto the window top so the acyclic construction
    # has one spare index, build there, and rotate back.
    free = next(q for q in range(-n, n + 1) if h.value_at(q) == h.base.identity_index)
    r = free - n
    rotated = h.alpha(r)
    infinite = LampElem.make(h.base, dict(rotated.support), 0, None)
    witness = build_pm_commutator(infinite, "-+")
    g1, g2 = (
        LampElem.make(h.base, dict(vec.support), 0, n).alpha(-r)
        for vec in witness.vectors
    )
    return factor_minus(g1), factor_plus(g2)


def check_geodesic(geo: Geodesic) -> bool:
    g = geo.target
    acc = LampElem.identity(g.base, g.window)
    for s in geo.factors:
        if not in_Sbar(s):
            return False
        acc = acc.mul(s)
    if acc != g:
        return False
    if g.window is None and g.support:
        lo = g.support_indices()[0] - 2
        hi = g.support_indices()[-1] + 2
        for s in geo.factors:
            if s.support and (
                s.support_indices()[0] < lo or s.support_indices()[-1] > hi
            ):
                return False
    return True


# -- the truncation almost-homomorphism ----------------------------------------


def truncate_map(g: LampElem, window: int, bound: int) -> LampElem:
    """Send g to the window-truncation if its extent is within bound, else 1."""
    if g.window is not None:
        raise ValueError("truncate_map applies to infinite-mode elements")
    if g.stats().n_value <= bound:
        return LampElem.make(g.base, dict(g.support), g.shift, window)
    return LampElem.identity(g.base, window)


def phi(g: LampElem, big_n: int) -> LampElem:
    """The standard almost-homomorphism into the window-(2N+3) truncation."""
    return truncate_map(g, 2 * big_n + 3, 2 * big_n + 2)


def max_extent(elems: Iterable[LampElem]) -> int:
    return max((e.stats().n_value for e in elems), default=0)


@dataclass
class AlmostHomReport:
    injective_on_k: bool
    multiplicative_ok: bool
    comparisons: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.injective_on_k and self.multiplicative_ok and not any(
            not row["ok"] for row in self.comparisons
        )

    def to_json(self) -> dict:
        return {
            "injective_on_K": self.injective_on_k,
            "multiplicative_triples_ok": self.multiplicative_ok,
            "comparisons": self.comparisons,
            "failures": self.failures,
            "ok": self.ok,
        }


def _symbol(value, q) -> str:
    if value < q:
        return "<"
    if value == q:
        return "="
    return ">"


def verify_KQ_almost_hom(
    phi_map: Callable[[LampElem], LampElem],
    k_set: Sequence[LampElem],
    q_set: Sequence[Fraction | int],
    ell_source: Callable[[LampElem], Fraction | int],
    ell_target: Callable[[LampElem], Fraction | int],
) -> AlmostHomReport:
    """Check injectivity on K, multiplicativity on triples in K, and that all
    comparisons of the two norms against the thresholds in Q agree."""
    qs = [Fraction(q) for q in q_set]
    if Fraction(0) not in qs:
        raise ValueError("Q must contain 0")
    k_list = list(dict.fromkeys(k_set))
    images = [phi_map(g) for g in k_list]
    report = AlmostHomReport(True, True)
    if len(set(images)) != len(images):
        report.injective_on_k = False
        report.failures.append({"kind": "injectivity"})
    k_index = {g: i for i, g in enumerate(k_list)}
    for a_i, a in enumerate(k_list):
        for b_i, b in enumerate(k_list):
            c = a.mul(b)
            if c in k_index:
                if phi_map(c) != images[a_i].mul(images[b_i]):
                    report.multiplicative_ok = False
                    report.failures.append(
                        {"kind": "multiplicativity", "h": a_i, "g": b_i}
                    )
    for g_i, (g, image) in enumerate(zip(k_list, images)):
        src_val = ell_source(g)
        tgt_val = ell_target(image)
        for q in qs:
            src, tgt = _symbol(src_val, q), _symbol(tgt_val, q)
            row = {
                "g": g_i,
                "q": fmt_fraction(q),
                "source": src,
                "target": tgt,
                "ok": src == tgt,
            }
            report.comparisons.append(row)
            if src != tgt:
                report.failures.append({"kind": "comparison", **row})
    return report
