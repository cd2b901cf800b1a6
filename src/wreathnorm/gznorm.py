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
by the class walk below, for every support, full or with a gap.

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

The "-+" search needs no enumeration of its |P|^(2n) free choices: its state
is one group element, and the conjugacy classes of P decide where it can go.

Lemma (class walk).  Number the positions -n..n as 0..w-1, write K(x) for the
class of x, dec_j = u_(j-1) ... u_0, inc_j = v_0 ... v_(j-1) and
p_j = inc_j . dec_j, and let N_(w-1) = {1} and N_j = K(h_j^-1) . N_(j+1).
From step j on, the search can still hit iff p_j . h_n lies in N_j.  So it
hits at all iff h_n lies in N_0, that is iff 1 lies in K(h_-n) ... K(h_n).

Proof.  The closing digit gives v_(w-1) = dec_(w-1) . h_n, so the search hits
iff p_(w-1) = h_n^-1.  Choosing u_j gives
p_(j+1) = (inc_j . u_j^-1 h_j u_j . inc_j^-1) . p_j, and as u_j runs over P
this covers all of K(h_j) . p_j, whatever inc_j is.  So from p_j the reachable
p_(w-1) form K(h_(w-2)) ... K(h_j) . p_j, which contains h_n^-1 iff
p_j . h_n lies in K(h_j^-1) ... K(h_(w-2)^-1) = N_j.  Each N_j is a union of
classes, built backward from class products.

Taking at each step the least u_j whose p_(j+1) stays feasible therefore
yields the lexicographically least hit: the first hit in
``itertools.product`` order over the free digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

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
from .groups import class_product
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
    """Mixed-commutator test with cyclic index arithmetic: whether h_n lies in
    N_0 of the class walk (module docstring), for any support."""
    if h.window is None or h.shift != 0:
        raise ValueError("expects a shift-0 truncated element")
    values, feasible = _feasible_classes(h)
    return h.base.conj_classes.class_of[values[-1]] in feasible[0]


def _feasible_classes(h: LampElem) -> tuple[list[int], list[frozenset[int]]]:
    """(h_-n..h_n, [N_0, ..., N_(w-1)]): the values of h in window order and the
    class ids of the feasible sets of the class walk, built backward."""
    base = h.base
    table = base.conj_classes
    reps = table.representatives()
    n = h.window
    given = dict(h.support)
    values = [given.get(i, base.identity_index) for i in range(-n, n + 1)]
    every = frozenset(range(len(reps)))
    feasible = [frozenset((table.class_of[base.identity_index],))]
    for value in reversed(values[:-1]):
        after = feasible[-1]
        # K(1) . N = N, and N = P stays P
        if value != base.identity_index and after != every:
            k = table.class_of[base.inv(value)]
            reach = set().union(*(class_product(base, k, c) for c in after))
            after = frozenset(c for c, r in enumerate(reps) if r in reach)
        feasible.append(after)
    feasible.reverse()
    return values, feasible


def _pm_cyclic_exhaustive(h: LampElem) -> tuple[LampElem, LampElem] | None:
    """Search factor pairs u, v with h = u.v pointwise ("-+" order).

    The decreasing cyclic product of u and the increasing cyclic product of
    v must vanish; by the sign-order lemma the "+-" order hits on the same
    states.  The class walk of the module docstring takes, at each free
    position, the least u_j that keeps p_(j+1) . h_n in N_(j+1), and closes u
    at n.  Returns (u, v) for the first hit in ``itertools.product`` order
    over the free digits, or None.
    """
    base = h.base
    class_of = base.conj_classes.class_of
    mul, inv = base._mul_table, base._inv_table
    values, feasible = _feasible_classes(h)
    last = values[-1]
    if class_of[last] not in feasible[0]:
        return None
    inc = dec = base.identity_index
    u_vals, v_vals = [], []
    for value, allowed in zip(values, feasible[1:]):
        # p_j is feasible, so some u_j keeps p_(j+1) feasible
        for u in range(len(base)):
            v = mul[inv[u]][value]
            nxt_inc, nxt_dec = mul[inc][v], mul[u][dec]
            if class_of[mul[mul[nxt_inc][nxt_dec]][last]] in allowed:
                break
        u_vals.append(u)
        v_vals.append(v)
        inc, dec = nxt_inc, nxt_dec
    u_vals.append(inv[dec])
    v_vals.append(mul[dec][last])
    n = h.window
    u, v = (
        LampElem.make(base, dict(zip(range(-n, n + 1), vals)), 0, n)
        for vals in (u_vals, v_vals)
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


def _pm_witness_factors(h: LampElem) -> tuple[LampElem, LampElem]:
    """Factor pair (u, v) with h = u*v pointwise.

    The vector u has vanishing decreasing product (it feeds a t^-1
    conjugate) and v vanishing increasing product.  Only called when the
    norm branch already decided the element is a mixed commutator.
    """
    if h.window is None:
        g1, g2 = build_pm_commutator(h, "-+").vectors
        return factor_minus(g1), factor_plus(g2)
    found = _pm_cyclic_exhaustive(h)
    if found is None:
        raise SolverError("not a mixed commutator (cyclic search exhausted)")
    return found


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
