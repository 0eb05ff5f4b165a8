"""End-to-end acceptance gate: every shipped criterion must pass within its
runtime budget."""

import pytest

from zetalab import acceptance

BUDGETS = {
    "epstein-oracle": 60.0,
    "functional-equation": 30.0,
    "residue": 30.0,
    "kronecker-limit": 20.0,
    "block-limit": 120.0,
    "heegner-identity": 20.0,
    "eigenfunction": 60.0,
    "laplace-constant": 20.0,
    "ground-state": 60.0,
    "potential-growth": 30.0,
    "exotic-roots": 120.0,
    "greens-constant-term": 180.0,
    "repulsion": 300.0,
    "specfun-floor": 60.0,
    "factorization": 20.0,
}


def test_criteria_registry_is_complete():
    assert [name for name, _ in acceptance.CRITERIA] == list(BUDGETS)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(BUDGETS))
def test_criterion(name):
    result = acceptance.run_all([name])[0]
    assert result.passed, f"{name} failed: {result.detail}"
    assert result.elapsed < BUDGETS[name], (
        f"{name} exceeded its {BUDGETS[name]:.0f}s budget: {result.elapsed:.1f}s")


def test_run_all_rejects_unknown_name():
    with pytest.raises(KeyError):
        acceptance.run_all(["no-such-criterion"])
