"""Metrics derived from a scenario report, and summary statistics."""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any


def report_digest(report: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of *report* (sorted keys, no spaces)."""
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


def sim_jobs_per_s(report: dict[str, Any], host_seconds: float) -> float:
    """Simulated jobs per host second."""
    if host_seconds <= 0:
        raise ValueError(f"host time must be positive, got {host_seconds}")
    return report["workload"]["num_jobs"] / host_seconds


def qos_met_frac(report: dict[str, Any]) -> float:
    """Share of the report's QoS budgets that were met.

    In per-tenant mode every tenant row is one budget; otherwise the
    farm-level ``response_time.meets_budget`` is the only one.
    """
    tenants = report["tenants"]
    if tenants["mode"] == "per-tenant":
        rows = tenants["rows"]
        return sum(1 for row in rows if row["meets_budget"]) / len(rows)
    return 1.0 if report["response_time"]["meets_budget"] else 0.0


def undefined_metrics(report: dict[str, Any]) -> list[str]:
    """Reasons the end-to-end metrics of *report* would be ill-defined."""
    problems = []
    if report["workload"]["num_jobs"] <= 0:
        problems.append("the trace has no jobs")
    if not report["energy"]["average_power_w"] > 0:
        problems.append("average power is not positive")
    idle = [row["server"] for row in report["per_server"] if row["num_jobs"] == 0]
    if idle:
        problems.append(f"servers without jobs: {', '.join(idle)}")
    tenants = report["tenants"]
    if tenants["mode"] == "per-tenant":
        if not tenants["rows"]:
            problems.append("per-tenant report without tenant rows")
        empty = [row["name"] for row in tenants["rows"] if row["num_jobs"] == 0]
        if empty:
            problems.append(f"tenants without jobs: {', '.join(empty)}")
    return problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of *values*."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3
