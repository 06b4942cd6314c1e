"""The pinned workloads of the scenario benchmark and the layer map.

Each workload is one call of
:func:`repro.experiments.scenario_runner.run_scenario` (the call
``python -m repro.experiments run-scenario`` makes) with fixed arguments;
only the seed comes from the command line.  ``LAYERS`` names each layer
by its module, the public functions the traced run wraps, and the
end-to-end metric the layer is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a registered scenario at a pinned size."""

    name: str
    scenario: str
    why: str
    overrides: dict[str, Any]
    #: Extra keyword arguments of ``run_scenario`` (executor, isolation, ...).
    options: dict[str, Any] = field(default_factory=dict)
    #: Workload whose report must be bit-identical at the same seed.
    parity_with: str | None = None

    def run_kwargs(self, seed: int) -> dict[str, Any]:
        """Keyword arguments of ``run_scenario`` for this workload."""
        return {"seed": seed, "overrides": dict(self.overrides), **self.options}


_MEGA = {"xeon_servers": 16, "atom_servers": 16, "duration_minutes": 20}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="mega-search",
            scenario="mega-farm",
            why=(
                "32-server mega-farm, serial: per-epoch policy search (kernel "
                "solves, search, power model) dominates host time"
            ),
            overrides=dict(_MEGA),
            options={"executor": "serial"},
        ),
        Workload(
            name="mega-process",
            scenario="mega-farm",
            why=(
                "mega-search inputs on a 2-worker fork pool: the only workload "
                "that runs the pickled process-shard path"
            ),
            overrides=dict(_MEGA),
            options={"executor": "process", "max_workers": 2},
            parity_with="mega-search",
        ),
        Workload(
            name="autoscale-day",
            scenario="autoscale-diurnal",
            why=(
                "8-server diurnal day under the reactive controller: bypasses "
                "policy search, bound by regime-masked dispatch"
            ),
            overrides={
                "workload": "google",
                "servers": 8,
                "duration_minutes": 360,
                "trough_utilization": 0.05,
                "peak_utilization": 0.95,
            },
        ),
        Workload(
            name="tenant-burst",
            scenario="noisy-neighbor",
            why=(
                "two tenants, priority dispatch, chunked feed and solo "
                "isolation replays under a long load burst"
            ),
            overrides={"duration_minutes": 60, "crowd_minutes": 50},
            options={"isolation": True, "chunk_jobs": 32768},
        ),
    )
}


@dataclass(frozen=True)
class Target:
    """A public function or method the traced run wraps.

    ``attr`` names the method of class ``owner`` (``None`` for a module
    function); ``"*"`` wraps every public method the class defines.  With
    ``subclasses`` every subclass that defines the method gets a wrapper
    too, so overridden implementations are timed as well.
    """

    module: str
    owner: str | None
    attr: str
    subclasses: bool = False


@dataclass(frozen=True)
class Layer:
    """One layer of the program, named by its module."""

    name: str
    module: str
    targets: tuple[Target, ...]
    moves: str


LAYERS: tuple[Layer, ...] = (
    Layer(
        "scenarios",
        "repro.scenarios",
        (Target("repro.scenarios.base", "Scenario", "build"),),
        "setup_s, most on autoscale-day",
    ),
    Layer(
        "dispatch",
        "repro.cluster.dispatch",
        (
            Target("repro.cluster.dispatch", "JobDispatcher", "validated_assignment", True),
            Target("repro.cluster.dispatch", "StreamAssigner", "assign_chunk", True),
            Target("repro.cluster.controller", None, "controller_assignment"),
        ),
        "sim_jobs_per_s on autoscale-day and tenant-burst; flat on mega-search",
    ),
    Layer(
        "controller",
        "repro.cluster.controller",
        (Target("repro.cluster.controller", "FarmController", "plan"),),
        "avg_power_w on autoscale-day",
    ),
    Layer(
        "tenancy",
        "repro.cluster.tenancy",
        (Target("repro.cluster.tenancy", None, "isolation_report"),),
        "sim_jobs_per_s on tenant-burst only",
    ),
    Layer(
        "runtime",
        "repro.core.runtime",
        (
            Target("repro.core.runtime", "SleepScaleRuntime", "run"),
            Target("repro.core.runtime", "RuntimeSession", "feed"),
            Target("repro.core.runtime", "RuntimeSession", "finish"),
        ),
        "sim_jobs_per_s everywhere; peak_rss_mb on tenant-burst",
    ),
    Layer(
        "search",
        "repro.core.search",
        (
            Target("repro.core.strategies", "PolicySearchStrategy", "select_policy", True),
            Target("repro.core.policy_manager", "PolicyManager", "select"),
            Target("repro.core.policy_manager", "PolicyManager", "characterize_batch"),
            Target("repro.core.search", "PolicySearchEngine", "select"),
        ),
        "sim_jobs_per_s on mega-search and tenant-burst; flat on autoscale-day",
    ),
    Layer(
        "kernel",
        "repro.simulation.kernel",
        (
            Target("repro.simulation.kernel", "TraceKernel", "__init__"),
            Target("repro.simulation.kernel", "TraceKernel", "solve"),
        ),
        "sim_jobs_per_s on mega-search (and mega-process via its workers)",
    ),
    Layer(
        "power",
        "repro.power",
        (Target("repro.power.platform", "ServerPowerModel", "*"),),
        "sim_jobs_per_s on mega-search",
    ),
    Layer(
        "prediction",
        "repro.prediction",
        (
            Target("repro.prediction.base", "UtilizationPredictor", "observe", True),
            Target("repro.prediction.base", "UtilizationPredictor", "predict", True),
        ),
        "under 1% everywhere",
    ),
    Layer(
        "executor",
        "repro.concurrency",
        (Target("repro.concurrency", "Executor", "map", True),),
        "sim_jobs_per_s and peak_rss_mb on mega-process",
    ),
    Layer(
        "farm",
        "repro.cluster.farm",
        (Target("repro.cluster.farm", "ServerFarm", "run"),),
        "sim_jobs_per_s everywhere",
    ),
    Layer(
        "report",
        "repro.experiments.scenario_runner",
        (
            Target("repro.experiments.scenario_runner", None, "report_from_result"),
            Target("repro.experiments.scenario_runner", None, "validate_report"),
        ),
        "about 1% everywhere",
    ),
)
