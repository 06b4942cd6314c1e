"""Scenario-level parity of the default search against the full-grid oracle.

Every registered scenario runs once with the default policy search
(``"frontier"``) and once with ``search="full"``.  The canonical reports
(sorted-key JSON) must be identical apart from the ``"search"`` field:
same selected policies, hence the same energy, latency, state fractions,
controller and tenant blocks.  This is scenario-level evidence for the
``policy-search`` oracle-parity contract (REP003), next to the per-input
fuzzing in ``tests/core/test_search.py``.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core.policy_manager import PolicyManager
from repro.core.search import PolicySearchEngine
from repro.experiments.scenario_runner import run_scenario
from repro.scenarios import available_scenarios

#: Three 5-minute epochs: the cold-start epoch plus two predicted ones, so
#: the warm-started frontier search runs on every search-driven scenario.
SHORT = {"duration_minutes": 15}


@pytest.fixture
def selections(monkeypatch):
    """Counts policy selections and accepted frontier selections."""
    counts: Counter[str] = Counter()
    select = PolicyManager.select
    frontier_select = PolicySearchEngine._frontier_select

    def counting_select(self, jobs, utilization):
        counts[self.search] += 1
        return select(self, jobs, utilization)

    def counting_frontier_select(self, jobs, utilization, trace_key):
        selection = frontier_select(self, jobs, utilization, trace_key)
        counts["accepted"] += selection is not None
        return selection

    monkeypatch.setattr(PolicyManager, "select", counting_select)
    monkeypatch.setattr(
        PolicySearchEngine, "_frontier_select", counting_frontier_select
    )
    return counts


def _canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(available_scenarios()))
def test_default_search_report_matches_full_oracle(name, selections):
    fast = run_scenario(name, seed=2, overrides=SHORT)
    oracle = run_scenario(name, seed=2, search="full", overrides=SHORT)
    assert fast.pop("search") == "frontier"
    assert oracle.pop("search") == "full"
    assert _canonical(fast) == _canonical(oracle)
    # Both runs made the same number of policy selections.
    assert selections["frontier"] == selections["full"]


def test_frontier_search_is_exercised(selections):
    """The parity above is not vacuous: the frontier engine keeps winners."""
    run_scenario("mega-farm", seed=2, overrides=SHORT)
    assert selections["frontier"] > 0
    assert selections["accepted"] > selections["frontier"] // 2
