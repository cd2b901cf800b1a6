"""Torsion-part factorizations through the shift generator: deciders + witnesses.

A shift-0 element h is a k-fold plus-commutator (k > 0) if it is a product of
k factors of the shape  F+(g) = g . alpha(g^-1),  a k-fold minus-commutator
(k < 0) if a product of |k| factors  F-(g) = alpha(g) . g^-1,  and a mixed
commutator if one factor of each shape, in either order.  Since
``F-(g) == F+(g)^-1`` regardless of commutativity, minus-side builders reduce
to plus-side builders on the inverse element.

Every builder returns a :class:`CommWitness` whose defining product is checked
by :func:`verify_witness` through plain element multiplication; nothing
downstream trusts a builder without that check.

Decision procedure for the mixed case, by support weight w (after compressing
the support to consecutive indices, which is harmless in both directions):

* w = 0: trivially yes;  w = 1: never (the two telescoping factor conditions
  force the single remaining value to cancel);
* w = 2: yes iff the second value is conjugate to the inverse of the first;
* w = 3: yes iff the class-product predicate xi holds on the value triple;
* w >= 4: always, provided the base group satisfies S3.

This is the paper's rule, and :func:`is_pm_commutator` applies it.  The
class walk below constructs every mixed witness, in infinite mode and on
truncations alike; the acceptance gate compares its decisions with the rule.

Two candidate argument conventions exist for the weight-3 test,
xi(h1, h2, h3) ("direct") and xi(h1^-1, h2^-1, h3) ("inverted").  They agree
on any group whose classes are closed under inversion (A5, S3) and are
separated by cyclic base groups; exhaustive small-window searches pin
"direct" as the correct one (``RESOLVED_XI_VARIANT``).  Everything else uses
that default; ``is_pm_commutator`` keeps its ``variant`` argument only so the
acceptance gate can show that the inverted convention is refuted.

The mixed witnesses come from one search.  Write Sbar_k for the members of
the generating set with shift k, so Sbar_1 = T+ and Sbar_-1 = T-, and K(x)
for the conjugacy class of x in P (for symmetric and alternating bases, the
classes of James & Kerber, *The Representation Theory of the Symmetric Group*,
1981, ch. 4).

Lemma (sign order).  A shift-0 h lies in Sbar_1 . Sbar_-1 iff it lies in
Sbar_-1 . Sbar_1, and the "-+" search decides the latter.

Proof.  (1) x = (u, -1) is in T- iff u has vanishing decreasing product;
y = (a, 1) is in T+ iff a has vanishing increasing product, iff
v = alpha^-1(a) does (on a truncation both products are cyclic, and a cyclic
rotation of a product is a conjugate of it).  As
x.y = (u . shift^-1(a), 0) = u.v pointwise, h is in T- . T+ iff some such u
makes v_i = u_i^-1 h_i vanish in increasing order.  The search frees u at
every position but the last, closes u there and tests exactly that; a hit
gives the factors u.t^-1 and alpha(v).t.
(2) Sbar is conjugation-closed and the shift is a homomorphism: if h = a.b
with a in Sbar_1 and b in Sbar_-1, then h = b.(b^-1 a b) with b^-1 a b in
Sbar_1, and if h = b.a, then h = (b a b^-1).b.  So the two products are one
set, and a "+-" search would hit on exactly the same states.

The "-+" search needs no enumeration of its |P|^(w-1) free choices: its state
is one group element, and the conjugacy classes of P decide where it can go.

Lemma (class walk).  Number the search's positions 0..w-1, let h_j be the
value of h at position j, write dec_j = u_(j-1) ... u_0,
inc_j = v_0 ... v_(j-1) and p_j = inc_j . dec_j, and let N_(w-1) = {1} and
N_j = K(h_j^-1) . N_(j+1).  From step j on, the search can still hit iff
p_j . h_(w-1) lies in N_j.  So it hits at all iff h_(w-1) lies in N_0, that
is iff 1 lies in K(h_0) ... K(h_(w-1)).

Proof.  The closing digit gives v_(w-1) = dec_(w-1) . h_(w-1), so the search
hits iff p_(w-1) = h_(w-1)^-1.  Choosing u_j gives
p_(j+1) = (inc_j . u_j^-1 h_j u_j . inc_j^-1) . p_j, and as u_j runs over P
this covers all of K(h_j) . p_j, whatever inc_j is.  So from p_j the
reachable p_(w-1) form K(h_(w-2)) ... K(h_j) . p_j, which contains
h_(w-1)^-1 iff p_j . h_(w-1) lies in K(h_j^-1) ... K(h_(w-2)^-1) = N_j.  Each
N_j is a union of classes, built backward from class products.

Taking at each step the least u_j whose p_(j+1) stays feasible therefore
yields the lexicographically least hit: the first hit in
``itertools.product`` order over the free digits.

Where the walk runs.  On a truncation its positions are the window -n..n.  In
infinite mode they are the support's span lo..hi, and that is exact.  Suppose
the two factors live on some segment a..b containing lo..hi.  The walk lemma
on a..b gives 1 in K(h_a) ... K(h_b), and this equals K(h_lo) ... K(h_hi)
because K(1) = {1}.  Conversely, the walk on lo..hi builds factors supported
there.  So every mixed geodesic factor stays within one step of the support,
inside the two-step bound that ``check_geodesic`` tests.

The walk splits in two.  The backward pass builds N_0 ... N_(w-1) and alone
decides, by h_(w-1) in N_0.  The forward pass picks the digits, and its
running products are the witness: g1_j = dec_j and g2_j = inc_j^-1.  Proof:
u = alpha(g1) . g1^-1 reads dec_(j+1) . dec_j^-1 = u_j at position j, and
v = g2 . alpha(g2^-1) reads inc_j^-1 . inc_(j+1) = v_j; a hit closes both
products, dec_w = inc_w = 1, so both vectors are trivial again past the last
position (at -n, cyclically, on a truncation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

from .groups import FiniteGroup, class_product
from .lamp import LampElem
from .props import SolverError, require_statements, solve_S1_instance, solve_S2_instance, xi

XI_VARIANTS = ("direct", "inverted")
RESOLVED_XI_VARIANT = "direct"
"""Argument variant of xi used in the weight-3 branch.

The direct variant xi(h1, h2, h3) and the inverted variant
xi(h1^-1, h2^-1, h3) coincide on bases whose classes are inverse-closed; the
exhaustive small-window equivalence test over a cyclic base separates them
and confirms the direct one.
"""
PmOrder = Literal["+-", "-+"]


@dataclass(frozen=True)
class CommWitness:
    """Certificate that an element factors through shift-conjugate generators.

    ``kind`` is ``("k", k)`` with k != 0, or ``("pm", "+-")`` / ``("pm", "-+")``
    for the mixed forms.  ``vectors`` are the shift-0 elements fed to the
    factor maps.
    """

    kind: tuple[str, int] | tuple[str, str]
    vectors: tuple[LampElem, ...]

    def to_json(self) -> dict:
        tag, val = self.kind
        head = {"k": val} if tag == "k" else {"pm": val}
        return {"kind": head, "vectors": [v.to_json() for v in self.vectors]}


def factor_plus(g: LampElem) -> LampElem:
    """g . alpha(g^-1), the conjugate-of-t torsion factor."""
    return g.mul(g.inverse().alpha(1))


def factor_minus(g: LampElem) -> LampElem:
    """alpha(g) . g^-1 == factor_plus(g)^-1."""
    return g.alpha(1).mul(g.inverse())


def evaluate_witness(w: CommWitness) -> LampElem:
    if not w.vectors:
        raise ValueError("witness needs at least one vector")
    for v in w.vectors:
        if v.shift != 0:
            raise ValueError("witness vectors must have shift 0")
    tag, val = w.kind
    if tag == "k":
        k = int(val)
        if abs(k) != len(w.vectors) or k == 0:
            raise ValueError("vector count must match |k|")
        fac = factor_plus if k > 0 else factor_minus
        parts = [fac(v) for v in w.vectors]
    else:
        if len(w.vectors) != 2:
            raise ValueError("mixed witnesses take exactly two vectors")
        g1, g2 = w.vectors
        if val == "+-":
            parts = [factor_plus(g1), factor_minus(g2)]
        elif val == "-+":
            parts = [factor_minus(g1), factor_plus(g2)]
        else:
            raise ValueError(f"unknown mixed order {val!r}")
    acc = parts[0]
    for p in parts[1:]:
        acc = acc.mul(p)
    return acc


def verify_witness(h: LampElem, w: CommWitness) -> bool:
    """True iff the witness's defining product multiplies out to h."""
    if h.shift != 0:
        return False
    return evaluate_witness(w) == h


# -- support compression / transport ------------------------------------------


class TransportError(RuntimeError):
    """Transported witness failed re-verification."""


def _pullback(vec: LampElem, old: Sequence[int], new: Sequence[int]) -> LampElem:
    """Re-index a witness vector along the anchor map old -> new.

    Each new coordinate pulls its value from the nearest old anchor at or
    above it, with rigid translation outside the anchor range.  This is the
    partial-shift composite in closed form.
    """
    base = vec.base
    support = {}
    for y in _relevant_positions(vec, old, new):
        v = vec.value_at(_sigma(y, old, new))
        if v != base.identity_index:
            support[y] = v
    return LampElem.make(base, support, 0, vec.window)


def _sigma(y: int, old: Sequence[int], new: Sequence[int]) -> int:
    # Positions between anchors attach rigidly above the lower anchor and the
    # spread slack replicates the upper anchor's value, clamped so interior
    # gap blocks of the old window travel unchanged.
    if y <= new[0]:
        return old[0] + (y - new[0])
    for j in range(1, len(new)):
        if y <= new[j]:
            return min(old[j - 1] + (y - new[j - 1]), old[j])
    return old[-1] + (y - new[-1])


def _relevant_positions(
    vec: LampElem, old: Sequence[int], new: Sequence[int]
) -> range:
    if not vec.support:
        return range(0)
    v_lo = vec.support_indices()[0]
    v_hi = vec.support_indices()[-1]
    lo = min(new[0] - (old[0] - v_lo), new[0])
    hi = max(new[-1] + (v_hi - old[-1]), new[-1])
    return range(lo, hi + 1)


def transport(
    w: CommWitness, old_indices: Sequence[int], new_indices: Sequence[int]
) -> CommWitness:
    """Carry a witness from an element supported on old_indices to new_indices.

    The target's values are re-placed at the new indices; the returned witness
    is re-verified against that element and a :class:`TransportError` is
    raised if the index maps cannot carry this particular witness (possible
    only when compressing a witness that is not constant between anchors).
    """
    old = list(old_indices)
    new = list(new_indices)
    if len(old) != len(new):
        raise ValueError("index sequences must have equal length")
    if any(a >= b for a, b in zip(old, old[1:])) or any(
        a >= b for a, b in zip(new, new[1:])
    ):
        raise ValueError("index sequences must be strictly increasing")
    product = evaluate_witness(w)
    if not set(product.support_indices()) <= set(old):
        raise ValueError("witness product is not supported on old_indices")
    base = product.base
    target = LampElem.make(
        base,
        {n: product.value_at(o) for o, n in zip(old, new)},
        0,
        product.window,
    )
    moved = CommWitness(w.kind, tuple(_pullback(v, old, new) for v in w.vectors))
    if evaluate_witness(moved) != target:
        raise TransportError("witness does not survive this re-indexing")
    return moved


# -- single-sign decompositions ------------------------------------------------


def build_pm1_decomposition(
    h: LampElem, sign: int
) -> tuple[CommWitness, LampElem]:
    """Split h (shift 0) as (single-factor witness) * residual single support.

    The residual sits at the top support index; for the identity both parts
    are trivial.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if h.shift != 0:
        raise ValueError("decomposition applies to shift-0 elements")
    base = h.base
    if not h.support:
        return (
            CommWitness(("k", sign), (LampElem.identity(base, h.window),)),
            LampElem.identity(base, h.window),
        )
    lo = h.support_indices()[0]
    hi = h.support_indices()[-1]
    values = [h.value_at(i) for i in range(lo, hi + 1)]
    g: dict[int, int] = {}
    prev = base.identity_index
    for j, v in enumerate(values[:-1], start=1):
        # plus:  g_{j+1} = v_j^-1 g_j ;  minus:  g_{j+1} = v_j g_j
        prev = base.mul(base.inv(v), prev) if sign == 1 else base.mul(v, prev)
        g[lo + j] = prev
    top = values[-1]
    residual_val = (
        base.mul(base.inv(prev), top) if sign == 1 else base.mul(prev, top)
    )
    witness = CommWitness(("k", sign), (LampElem.make(base, g, 0, h.window),))
    residual = LampElem.make(base, {hi: residual_val}, 0, h.window)
    return witness, residual


def build_2_commutator(h: LampElem, sign: int) -> CommWitness:
    """Express any shift-0 h with two factors of one sign (needs S1 and S2)."""
    if sign == -1:
        w = build_2_commutator(h.inverse(), 1)
        return CommWitness(("k", -2), (w.vectors[1], w.vectors[0]))
    if sign != 1:
        raise ValueError("sign must be +1 or -1")
    if h.shift != 0:
        raise ValueError("2-commutator builders apply to shift-0 elements")
    base = h.base
    require_statements(base, ("S1", "S2"))
    if not h.support:
        ident = LampElem.identity(base, h.window)
        return CommWitness(("k", 2), (ident, ident))
    lo = h.support_indices()[0]
    hi = h.support_indices()[-1]
    values = [h.value_at(i) for i in range(lo, hi + 1)]
    if len(values) % 2:
        # pad below so the factors stay within one step of the support
        values.insert(0, base.identity_index)
        lo -= 1
    g1: dict[int, int] = {}
    g2: dict[int, int] = {}
    x, y = solve_S1_instance(base, values[0], values[1])
    g1[lo + 1] = base.mul(base.inv(x), base.inv(values[0]))
    g1[lo + 2] = base.inv(y)
    g2[lo + 1] = x
    g2[lo + 2] = y
    carry = y
    for j in range(2, len(values), 2):
        z, u, v = solve_S2_instance(base, values[j], values[j + 1], carry)
        g1[lo + j + 1] = base.inv(z)
        g1[lo + j + 2] = base.inv(v)
        g2[lo + j + 1] = base.inv(u)
        g2[lo + j + 2] = v
        carry = v
    return CommWitness(
        ("k", 2),
        (
            LampElem.make(base, g1, 0, h.window),
            LampElem.make(base, g2, 0, h.window),
        ),
    )


# -- the mixed-commutator decision --------------------------------------------


def is_pm_commutator(h: LampElem, variant: str = RESOLVED_XI_VARIANT) -> bool:
    """Decide the mixed-commutator property from the ordered support values."""
    if variant not in XI_VARIANTS:
        raise ValueError(f"variant must be one of {XI_VARIANTS}")
    if h.shift != 0:
        raise ValueError("the mixed-commutator property applies at shift 0")
    base = h.base
    values = h.support_values()
    w = len(values)
    if w == 0:
        return True
    if w == 1:
        return False
    if w == 2:
        v1, v2 = values
        return base.first_conjugator(base.inv(v1), v2) is not None
    if w == 3:
        v1, v2, v3 = values
        if variant == "inverted":
            v1, v2 = base.inv(v1), base.inv(v2)
        return xi(base, v1, v2, v3)
    require_statements(base, ("S3",))
    return True


def reverse_element(x: LampElem, about: int = 0) -> LampElem:
    """Pointwise index reversal i -> about - i (values untouched).

    Reversal is multiplicative on shift-0 elements and swaps the two factor
    shapes: reversing a minus-factor about c gives the plus-factor of the
    vector reversed about c + 1.
    """
    if x.shift != 0:
        raise ValueError("reversal applies to shift-0 elements")
    return LampElem.make(
        x.base, {about - i: v for i, v in x.support}, 0, x.window
    )


def build_pm_commutator(h: LampElem, order: PmOrder = "-+") -> CommWitness:
    """Construct a verifying mixed witness; raises SolverError when h has none.

    The class walk's forward pass records the witness vectors (module
    docstring), so they live within the walk's span: the window, or the
    support's span in infinite mode.  Only the "-+" order is built directly;
    "+-" comes from index reversal, which exchanges the factor shapes.
    """
    if order == "+-":
        w = build_pm_commutator(reverse_element(h, 0), "-+")
        g1, g2 = w.vectors
        return CommWitness(
            ("pm", "+-"), (reverse_element(g1, 1), reverse_element(g2, 1))
        )
    if order != "-+":
        raise ValueError("order must be '+-' or '-+'")
    _, values, feasible = walk = _feasible_classes(h)
    if h.base.conj_classes.class_of[values[-1]] not in feasible[0]:
        raise SolverError(
            "not a mixed commutator: the class product of its values misses 1"
        )
    return CommWitness(("pm", "-+"), _walk_vectors(h.base, h.window, *walk))


def pm_walk_hits(h: LampElem) -> bool:
    """Whether the class walk hits, read off its backward pass alone:
    h_(w-1) lies in N_0, that is 1 lies in K(h_0) ... K(h_(w-1))."""
    _, values, feasible = _feasible_classes(h)
    return h.base.conj_classes.class_of[values[-1]] in feasible[0]


def _feasible_classes(h: LampElem) -> tuple[range, list[int], list[frozenset[int]]]:
    """The walk's backward pass: its positions (the window, or the support's
    span), h's values there, and N_0 ... N_(w-1) as sets of class ids."""
    if h.shift != 0:
        raise ValueError("mixed commutators have shift 0")
    base = h.base
    table = base.conj_classes
    class_of, reps = table.class_of, table.representatives()
    ident = base.identity_index
    if h.window is not None:
        positions = range(-h.window, h.window + 1)
    elif h.support:
        positions = range(h.support[0][0], h.support[-1][0] + 1)
    else:
        positions = range(0, 1)
    given = dict(h.support)
    values = [given.get(i, ident) for i in positions]
    every = frozenset(range(len(reps)))
    feasible = [frozenset((class_of[ident],))]
    for value in reversed(values[:-1]):
        after = feasible[-1]
        # K(1) . N = N, and N = P stays P
        if value != ident and after != every:
            k = class_of[base.inv(value)]
            reach = set().union(*(class_product(base, k, c) for c in after))
            after = frozenset(c for c, r in enumerate(reps) if r in reach)
        feasible.append(after)
    feasible.reverse()
    return positions, values, feasible


def _walk_vectors(
    base: FiniteGroup,
    window: int | None,
    positions: range,
    values: list[int],
    feasible: list[frozenset[int]],
) -> tuple[LampElem, LampElem]:
    """The walk's forward pass on a hit, taking the least feasible u_j at each
    free position: the "-+" witness vectors g1_j = dec_j, g2_j = inc_j^-1."""
    class_of = base.conj_classes.class_of
    mul, inv = base._mul_table, base._inv_table
    inc = dec = base.identity_index
    last = values[-1]
    g1: dict[int, int] = {}
    g2: dict[int, int] = {}
    for i, value, allowed in zip(positions[1:], values, feasible[1:]):
        # p_j is feasible, so some u_j keeps p_(j+1) feasible
        for u in range(len(base)):
            nxt_inc, nxt_dec = mul[inc][mul[inv[u]][value]], mul[u][dec]
            if class_of[mul[mul[nxt_inc][nxt_dec]][last]] in allowed:
                break
        inc, dec = nxt_inc, nxt_dec
        g1[i], g2[i] = dec, inv[inc]
    return LampElem.make(base, g1, 0, window), LampElem.make(base, g2, 0, window)


def extend_witness(w: CommWitness) -> CommWitness:
    """Append a trivial vector: a [k,t]-witness becomes a [k+sign,t]-witness."""
    tag, val = w.kind
    if tag != "k":
        raise ValueError("only k-witnesses extend")
    k = int(val)
    ident = LampElem.identity(w.vectors[0].base, w.vectors[0].window)
    new_k = k + 1 if k > 0 else k - 1
    return CommWitness(("k", new_k), w.vectors + (ident,))
