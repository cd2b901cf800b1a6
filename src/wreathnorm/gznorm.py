"""Closed-form invariant word norm on the shift extension, and its finite images.

The norm is taken over the conjugacy closure of (copies of the base group at
each index) together with the shift generator and its inverse.  Its value
depends only on the shift and on cheap predicates of the torsion part:

    0            identity
    1            single support, shift 0
    2            weight 2, shift 0
    2            shift 0 and a mixed commutator
    3            shift 0, weight >= 3, not a mixed commutator
    1            shift +-1 with telescoping torsion (the element lies in T+-)
    2            shift +-1 otherwise
    |m|          |shift| = |m| > 1, the product of the torsion values in [P,P]
    |m| + 1      |shift| = |m| > 1 otherwise

One function, :func:`case_norm`, holds this table, and one predicate decides
its mixed row: ``is_pm_commutator``, the backward pass of the class walk of
``commutators``, in the infinite group (:func:`norm_gz`) and on truncations
(:func:`norm_truncated`) alike, for every support, full or with a gap.  The
coset term of the last row vanishes on S1-S4 bases, where [P,P] = P, so it
moves only truncations over other bases.

On truncations both modes of :func:`norm_truncated` return one value.  Only
"theory" mode checks the hypotheses under which it is the exact norm: window
size >= 7, mirroring the window margins of the almost-homomorphism
construction, and a base satisfying S1-S4.  Elsewhere breadth-first search is
authoritative.

Where the shift-0 norm is below the weight, geodesics read their factors off
a walk witness (g1, g2), in infinite mode too: the mixed pair is
F-(g1) . t^-1 and F+(g2) . alpha . t.

Lemma (norm-3 row).  If the shift-0 torsion h is not mixed, h_last is its
value at the walk's last position and the class of x lies in N_0, then
x != h_last, and s^-1 . h is mixed for the single s = (h_last . x^-1 there).

Proof.  By the walk lemma h is mixed iff the class of h_last lies in N_0, so
x != h_last and s != 1; N_0, a product of classes, is never empty.  s^-1 . h
reads x . h_last^-1 . h_last = x at the last position and agrees with h
elsewhere.  The N_j are built from the values before the last position, so
the walk on s^-1 . h has the same N_0 and hits.  Only truncations reach this
row above weight 3: over an S1-S4 base such weights are mixed (the weight
rule in ``commutators``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .commutators import (
    _feasible_classes,
    _walk_vectors,
    build_2_commutator,
    build_pm1_decomposition,
    build_pm_commutator,
    factor_minus,
    factor_plus,
    is_pm_commutator,
)
from .lamp import LampElem, in_Sbar, in_Tminus, in_Tplus
from .norms import fmt_fraction
from .props import require_statements


def _torsion(g: LampElem) -> LampElem:
    return LampElem.make(g.base, dict(g.support), 0, g.window)


def case_norm(g: LampElem) -> int:
    """The case table of the module docstring."""
    m, w = g.shift, g.weight()
    if m == 0:
        if w <= 2:
            return w
        return 2 if is_pm_commutator(g) else 3
    if abs(m) == 1:
        return 1 if (in_Tplus(g) or in_Tminus(g)) else 2
    base = g.base
    return abs(m) + (base.mul_many(g.support_values()) not in base.derived_subgroup)


def norm_gz(g: LampElem) -> int:
    """Exact word norm in the infinite-mode group (base must satisfy S1-S4)."""
    if g.window is not None:
        raise ValueError("norm_gz expects infinite mode; see norm_truncated")
    require_statements(g.base, ("S1", "S2", "S3", "S4"))
    return case_norm(g)


def norm_truncated(g: LampElem, mode: str = "oracle") -> int:
    """Case-table norm on a truncation, with cyclic predicates.

    Both modes return the same value.  "theory" first checks the hypotheses
    under which it is the exact norm for elements within the window margins
    of the truncation map (window size >= 7, base satisfying S1-S4) and raises
    ValueError if one fails; "oracle" checks nothing, and there the value is
    advisory (BFS is authoritative).
    """
    if g.window is None:
        raise ValueError("norm_truncated expects a truncated element")
    if mode == "theory":
        if 2 * g.window + 1 < 7:
            raise ValueError("theory mode needs window size >= 7")
        require_statements(g.base, ("S1", "S2", "S3", "S4"))
    elif mode != "oracle":
        raise ValueError("mode must be 'theory' or 'oracle'")
    return case_norm(g)


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
        if norm == w:
            singles = (LampElem.single(base, i, v, window) for i, v in g.support)
            return Geodesic(g, tuple(singles))
        if norm == 2:
            head, (g1, g2) = (), build_pm_commutator(torsion).vectors
        else:
            # the norm-3 lemma of the module docstring
            positions, values, feasible = _feasible_classes(torsion)
            x = base.conj_classes.least(feasible[0])
            last = base.mul(values[-1], base.inv(x))
            head = (LampElem.single(base, positions[-1], last, window),)
            values[-1] = x
            g1, g2 = _walk_vectors(base, window, positions, values, feasible)
        pair = (factor_minus(g1).mul(t_inv), factor_plus(g2).alpha(1).mul(t))
        return Geodesic(g, head + pair)
    sign = 1 if m > 0 else -1
    step = t if sign == 1 else t_inv
    fac = factor_plus if sign == 1 else factor_minus
    if abs(m) == 1:
        witness, residual = build_pm1_decomposition(torsion, sign)
        return Geodesic(g, (fac(witness.vectors[0]).mul(step), residual.alpha(-sign)))
    if window is not None and g.support:
        # the two-factor construction writes one index above the support (and
        # may pad one below) and must not wrap; truncation-map images always
        # leave this margin
        lo, hi = g.support_indices()[0], g.support_indices()[-1]
        lo -= (hi - lo + 1) % 2
        if hi + 1 > window or lo < -window:
            raise ValueError("torsion too wide for a geodesic in this window")
    w2 = build_2_commutator(torsion, sign)
    s1 = fac(w2.vectors[0]).mul(step)
    s2 = fac(w2.vectors[1]).alpha(-sign).mul(step)
    return Geodesic(g, (s1, s2) + (step,) * (abs(m) - 2))


def check_geodesic(geo: Geodesic) -> bool:
    """Whether ``geo`` keeps every invariant its class docstring lists."""
    g = geo.target
    if len(geo) != case_norm(g):
        return False
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
    if g.extent() <= bound:
        return LampElem.make(g.base, dict(g.support), g.shift, window)
    return LampElem.identity(g.base, window)


def phi(g: LampElem, big_n: int) -> LampElem:
    """The standard almost-homomorphism into the window-(2N+3) truncation."""
    return truncate_map(g, 2 * big_n + 3, 2 * big_n + 2)


def max_extent(elems: Iterable[LampElem]) -> int:
    return max((e.extent() for e in elems), default=0)


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
