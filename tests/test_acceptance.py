"""The acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
or equivalently ``wreathnorm selftest --scale full``.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush

import pytest

from wreathnorm import acceptance


@cache
def _result(criterion):
    """Each criterion runs once; its one result serves every test below."""
    return criterion()


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"C{i}" for i in range(1, len(acceptance.CRITERIA) + 1)],
)
def test_criterion(criterion):
    result = _result(criterion)
    print(result.line())
    if not result.ok:
        print(json.dumps(result.details, indent=1, default=str))
    assert result.ok, result.line()
    if result.budget is not None:
        assert result.elapsed < result.budget


# sha256 of the criterion rows of ``selftest --scale full`` (seed 0), serialized
# as the command prints them (sorted keys, indent 2) with ``elapsed_s`` removed
REPORT_ROWS_SHA256 = "b02524229af6b3ae9a715a6b184c45b30f26a034ef367b9d472232bbb56db0f4"


def test_report_rows_pinned():
    rows = [_result(criterion).to_json() for criterion in acceptance.CRITERIA]
    for row in rows:
        del row["elapsed_s"]
    text = json.dumps(rows, sort_keys=True, indent=2, default=str) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_ROWS_SHA256


def test_quick_tier():
    results = acceptance.run_quick(echo=None)
    for r in results:
        print(r.line())
    assert all(r.ok for r in results)


def test_xi_variant_resolution_recorded():
    result = _result(acceptance.criterion_4)
    assert result.details["resolved_xi_variant"] == "direct"
    from wreathnorm.commutators import RESOLVED_XI_VARIANT

    assert RESOLVED_XI_VARIANT == "direct"


def _reference_random_pseudo_norm(rng, base):
    """``random_pseudo_norm`` with Fraction costs and Fraction path sums."""
    cost = {}
    for g in range(len(base)):
        if g == base.identity_index or g in cost:
            continue
        value = Fraction(rng.randint(1, 24), rng.randint(1, 8))
        cost[g] = value
        cost[base.inv(g)] = value
    dist = [None] * len(base)
    heap = [(Fraction(0), base.identity_index)]
    while heap:
        d, x = heappop(heap)
        if dist[x] is not None:
            continue
        dist[x] = d
        for s, c in cost.items():
            y = base.mul(x, s)
            if dist[y] is None:
                heappush(heap, (d + c, y))
    return [d if d is not None else Fraction(0) for d in dist]


@pytest.mark.parametrize("name", ["S3", "A4"])
def test_random_pseudo_norm_matches_fraction_search(name):
    base = acceptance.group(name)
    fast, slow = random.Random(313), random.Random(313)
    for _ in range(300):
        values = acceptance.random_pseudo_norm(fast, base).values
        assert values == tuple(_reference_random_pseudo_norm(slow, base))
        assert all(type(v) is Fraction for v in values)
    assert fast.random() == slow.random()


def _reference_agreement_thresholds(table):
    """``_agreement_thresholds`` with the sums formed on Fractions."""
    values = sorted({Fraction(v) for v in table.values})
    sums = {a + b for a in values for b in values}
    return sorted(set(values) | sums | {Fraction(0)})


def test_agreement_thresholds_match_fraction_sums(c8_tables):
    words = [acceptance._word_table(acceptance.group(n)) for n in ("S3", "A4", "S4")]
    for table in words + c8_tables:
        thresholds = acceptance._agreement_thresholds(table)
        assert thresholds == _reference_agreement_thresholds(table)
        assert all(type(q) is Fraction for q in thresholds)
