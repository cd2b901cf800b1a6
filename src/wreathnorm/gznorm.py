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
actual Cayley graph is authoritative.  In both modes the shift-0 row is decided
by the class walk of ``commutators``, for every support, full or with a gap.
Mixed geodesics take their factor pair from the same walk, in infinite mode
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

from .commutators import (
    RESOLVED_XI_VARIANT,  # re-exported: the recorded xi decision
    SolverError,
    _pm_cyclic_exhaustive,
    build_2_commutator,
    build_pm1_decomposition,
    factor_minus,
    factor_plus,
    is_pm_commutator,
)
from .lamp import LampElem, in_Sbar, in_Tminus, in_Tplus
from .norms import fmt_fraction
from .props import require_statements, satisfies_s_conditions


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
    """Mixed-commutator test with cyclic index arithmetic: whether the class
    walk of ``commutators`` finds a factor pair over the window, for any
    support."""
    if h.window is None or h.shift != 0:
        raise ValueError("expects a shift-0 truncated element")
    return _pm_cyclic_exhaustive(h) is not None


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
            found = _pm_cyclic_exhaustive(torsion)
            if found is None:
                raise SolverError("the class walk finds no mixed factor pair")
            u, v = found
            return Geodesic(g, (u.mul(t_inv), v.alpha(1).mul(t)))
        if w > 3:
            # Norm 3 at shift 0 takes factor shifts (0, 0, 0) or (0, +1, -1) up
            # to order, and conjugation closure moves the single to the front,
            # so s^-1 . g is mixed for some single s.  Only truncations get
            # here: over an S3 base weight > 3 is always mixed.
            for i, value in product(range(-window, window + 1), range(len(base))):
                if value == base.identity_index:
                    continue
                s = LampElem.single(base, i, value, window)
                found = _pm_cyclic_exhaustive(s.inverse().mul(torsion))
                if found is not None:
                    u, v = found
                    return Geodesic(g, (s, u.mul(t_inv), v.alpha(1).mul(t)))
            raise ValueError("no length-3 factorization through a single")
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
