"""Tests of the benchmark's own arithmetic, wrappers and report metrics.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import importlib
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bench_trace
from bench_metrics import qos_met_frac, report_digest, sim_jobs_per_s, undefined_metrics
from bench_trace import Span, outermost_time, self_times, summed_self_times
from bench_workloads import LAYERS
from repro.experiments.scenario_runner import run_scenario

BENCH = Path(__file__).resolve().parent.parent


def _spans(*rows):
    return [Span(index, *row, "test") for index, row in enumerate(rows)]


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("farm", "run", 0.0, 10.0, -1),
        ("dispatch", "assign", 1.0, 4.0, 0),
        ("runtime", "run", 5.0, 9.0, 0),
        ("kernel", "solve", 6.0, 7.0, 2),
    )
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    by_layer = summed_self_times(spans)
    assert by_layer == {"farm": 3.0, "dispatch": 3.0, "runtime": 3.0, "kernel": 1.0}
    assert sum(by_layer.values()) == 10.0
    assert summed_self_times(spans, "name") == {"run": 6.0, "assign": 3.0, "solve": 1.0}


def test_layer_calling_back_into_itself_is_counted_once():
    # validated_assignment -> assign_chunk -> (kernel) -> back in dispatch
    spans = _spans(
        ("dispatch", "validated_assignment", 0.0, 10.0, -1),
        ("dispatch", "assign_chunk", 2.0, 8.0, 0),
        ("kernel", "solve", 3.0, 4.0, 1),
        ("dispatch", "assign_chunk", 5.0, 6.0, 1),
    )
    assert summed_self_times(spans) == {"dispatch": 9.0, "kernel": 1.0}
    assert outermost_time(spans, "dispatch") == 10.0
    assert outermost_time(spans, "kernel") == 1.0


def test_layer_metrics_coverage_and_inclusive_executor_time():
    spans = _spans(
        ("run", "run_scenario", 0.0, 10.0, -1),
        ("scenarios", "Scenario.build", 0.0, 1.0, 0),
        ("farm", "ServerFarm.run", 1.0, 9.0, 0),
        ("executor", "SerialExecutor.map", 2.0, 8.0, 2),
        ("report", "report_from_result", 9.0, 9.5, 0),
    )
    metrics, by_layer = bench_trace.layer_metrics(spans, Counter(), root="run", shard_bytes=0)
    assert metrics["trace.run_s"] == 10.0
    assert metrics["trace.coverage_frac"] == pytest.approx(0.95)
    assert metrics["executor.map_s"] == 6.0
    assert metrics["farm.self_s"] == 2.0
    assert metrics["report.build_s"] == 0.5
    assert "run" not in by_layer


# -- wrappers ------------------------------------------------------------------

TINY = {
    "overrides": {"xeon_servers": 1, "atom_servers": 1, "duration_minutes": 4},
    "seed": 3,
}


def _bindings():
    """The identity of every attribute the wrappers may replace."""
    found = {}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attr, value in vars(module).items():
                found[(module.__name__, attr)] = id(value)
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        found[(module.__name__, attr, name)] = id(member)
    return found


def test_wrappers_record_and_are_removed_without_changing_the_report():
    plain = report_digest(run_scenario("mega-farm", **copy.deepcopy(TINY)))
    before = _bindings()
    recorder = bench_trace.Recorder()
    with bench_trace.install(recorder) as installation:
        assert installation.patches
        traced = report_digest(run_scenario("mega-farm", **copy.deepcopy(TINY)))
    assert _bindings() == before
    assert traced == plain
    assert report_digest(run_scenario("mega-farm", **copy.deepcopy(TINY))) == plain

    metrics, by_layer = bench_trace.layer_metrics(
        recorder.spans(), recorder.counts, root="run", shard_bytes=0
    )
    assert metrics["kernel.solves"] > 0
    assert metrics["search.selections"] > 0
    assert metrics["power.calls"] > 0
    # One validated_assignment call; its nested assign_chunk is not a second.
    assert metrics["dispatch.calls"] == 1
    assert metrics["dispatch.jobs"] == metrics["scenarios.jobs"]
    assert {"farm", "runtime", "search", "kernel", "dispatch"} <= set(by_layer)


def test_every_layer_target_resolves():
    for layer in LAYERS:
        for target in layer.targets:
            module = importlib.import_module(target.module)
            owner = module if target.owner is None else getattr(module, target.owner)
            if target.attr != "*":
                assert hasattr(owner, target.attr), (layer.name, target)


# -- report-derived metrics ----------------------------------------------------


def _report(**tenants):
    return {
        "workload": {"num_jobs": 1000},
        "energy": {"average_power_w": 120.0},
        "response_time": {"meets_budget": False},
        "tenants": {"mode": "none", "rows": [], **tenants},
        "per_server": [{"server": "a", "num_jobs": 600}, {"server": "b", "num_jobs": 400}],
    }


def test_sim_jobs_per_s_divides_jobs_by_host_seconds():
    assert sim_jobs_per_s(_report(), 4.0) == 250.0
    with pytest.raises(ValueError):
        sim_jobs_per_s(_report(), 0.0)


def test_qos_met_frac_single_budget():
    report = _report()
    assert qos_met_frac(report) == 0.0
    report["response_time"]["meets_budget"] = True
    assert qos_met_frac(report) == 1.0


def test_qos_met_frac_per_tenant_counts_each_row():
    rows = [
        {"name": "crowd", "num_jobs": 700, "meets_budget": False},
        {"name": "victim", "num_jobs": 300, "meets_budget": True},
    ]
    report = _report(mode="per-tenant", rows=rows)
    # The farm-level flag is ignored in per-tenant mode.
    report["response_time"]["meets_budget"] = True
    assert qos_met_frac(report) == 0.5
    assert undefined_metrics(report) == []


def test_undefined_metrics_flags_idle_servers_and_empty_tenants():
    report = _report(
        mode="per-tenant",
        rows=[{"name": "crowd", "num_jobs": 0, "meets_budget": True}],
    )
    report["per_server"][1]["num_jobs"] = 0
    problems = undefined_metrics(report)
    assert any("servers without jobs: b" in problem for problem in problems)
    assert any("tenants without jobs: crowd" in problem for problem in problems)
    assert undefined_metrics(_report(mode="per-tenant", rows=[]))


def test_digest_ignores_key_order():
    first = {"a": 1, "b": [1.5, None]}
    assert report_digest(first) == report_digest({"b": [1.5, None], "a": 1})
    assert report_digest(first) != report_digest({"a": 2, "b": [1.5, None]})


# -- the command ---------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mega-search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
