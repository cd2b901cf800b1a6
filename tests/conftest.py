import random

import pytest

from wreathnorm.acceptance import random_pseudo_norm
from wreathnorm.groups import (
    FiniteGroup,
    builtin_group,
    generate_group,
    parse_group_spec,
    perm_from_cycles,
)
from wreathnorm.norms import conjugacy_closure, integer_round, word_norm_bfs
from wreathnorm.props import require_statements, xi


@pytest.fixture(scope="session")
def a5():
    return builtin_group("A5")


@pytest.fixture(scope="session")
def s3():
    return builtin_group("S3")


@pytest.fixture(scope="session")
def s4():
    return builtin_group("S4")


@pytest.fixture(scope="session")
def a4():
    return builtin_group("A4")


@pytest.fixture(scope="session")
def z3():
    return builtin_group("Z3")


@pytest.fixture(scope="session")
def psl27():
    """PSL(2,7) on 7 points, with A5 the second base that satisfies S1-S4."""
    cycles = ([(0, 1, 2, 3, 4, 5, 6)], [(1, 2, 4), (3, 6, 5)], [(0, 1), (2, 5)])
    return generate_group([perm_from_cycles(7, c) for c in cycles])


@pytest.fixture(scope="session")
def s3_reordered(s3):
    """S3 listed so that the identity is element 2, and so in class 2."""
    return FiniteGroup.from_elements([s3.elements[i] for i in (1, 2, 0, 3, 4, 5)])


FIXTURE_GROUPS = ("psl27", "s3_reordered")


@pytest.fixture
def group_of(request):
    """spec -> group, for a group spec or one of the ``FIXTURE_GROUPS``."""

    def get(spec):
        if spec in FIXTURE_GROUPS:
            return request.getfixturevalue(spec)
        return parse_group_spec(spec)

    return get


@pytest.fixture(scope="session")
def pairwise_product():
    """{a . b : a in A, b in B} for element sets, the reference for the class
    table: ``pairwise_product(group, K(c1), K(c2))`` is the product of two
    classes, found without the table's representative lemma."""

    def product(group, left, right):
        return frozenset(group.mul(a, b) for a in left for b in right)

    return product


@pytest.fixture(scope="session")
def class_mask():
    """The classes an element set meets, as a class-id bitmask (bit c for c)."""

    def mask(group, elements):
        class_of = group.conj_classes.class_of
        return sum(1 << c for c in {class_of[a] for a in elements})

    return mask


@pytest.fixture(scope="session")
def s3_word_table(s3):
    gens = conjugacy_closure(s3, [s3.index[g] for g in s3.generators])
    return word_norm_bfs(s3, gens)


@pytest.fixture(scope="session")
def a5_word_table(a5):
    gens = conjugacy_closure(a5, [a5.index[g] for g in a5.generators])
    return word_norm_bfs(a5, gens)


@pytest.fixture(scope="session")
def c8_tables(s3):
    """C8's 2,000 seeded S3 tables: each random pseudo-norm, then its rounding."""
    rng = random.Random(313)
    tables = []
    for _ in range(1000):
        raw = random_pseudo_norm(rng, s3)
        tables += [raw, integer_round(raw)]
    return tables


@pytest.fixture(scope="session")
def weight_rule():
    """The paper's mixed-commutator rule by support weight, the reference for
    ``is_pm_commutator``: weight 2 is a conjugacy test, weight 3 reads xi (the
    "inverted" variant on its first two values inverted), and weight >= 4 is
    always mixed over a base satisfying S3."""

    def rule(h, variant="direct"):
        base = h.base
        values = h.support_values()
        if len(values) <= 1:
            return not values
        if len(values) == 2:
            a, b = values
            return base.first_conjugator(base.inv(a), b) is not None
        if len(values) == 3:
            a, b, c = values
            if variant == "inverted":
                a, b = base.inv(a), base.inv(b)
            return xi(base, a, b, c)
        require_statements(base, ("S3",))
        return True

    return rule
