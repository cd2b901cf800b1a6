"""The acceptance gate: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
or equivalently ``wreathnorm selftest --scale full``.
"""

import json
from functools import cache

import pytest

from wreathnorm import acceptance


@cache
def _criterion_4():
    """C4 is the slowest criterion; its one result serves every test below."""
    return acceptance.criterion_4()


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"C{i}" for i in range(1, len(acceptance.CRITERIA) + 1)],
)
def test_criterion(criterion):
    result = _criterion_4() if criterion is acceptance.criterion_4 else criterion()
    print(result.line())
    if not result.ok:
        print(json.dumps(result.details, indent=1, default=str))
    assert result.ok, result.line()
    if result.budget is not None:
        assert result.elapsed < result.budget


def test_quick_tier():
    results = acceptance.run_quick(echo=None)
    for r in results:
        print(r.line())
    assert all(r.ok for r in results)


def test_xi_variant_resolution_recorded():
    result = _criterion_4()
    assert result.details["resolved_xi_variant"] == "direct"
    from wreathnorm.gznorm import RESOLVED_XI_VARIANT

    assert RESOLVED_XI_VARIANT == "direct"
