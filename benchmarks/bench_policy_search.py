"""Policy-search engine benchmark: frontier + cache vs. the full grid.

Measures the epoch-loop policy search — the per-epoch characterisation and
selection inside ``select_policy`` — on three workloads:

* a **200-epoch diurnal run** (one Xeon SleepScale server, Google-like jobs,
  5-minute epochs, one day/night cycle),
* the **16-server heterogeneous farm** (8 Xeon + 8 Atom behind a power-aware
  dispatcher, the farm-scale regime of constant heavy aggregate load), and
* a **mega-farm-shaped fleet** (Xeon + Atom servers behind the least-loaded
  dispatcher at about 0.03 utilisation per server, 2-minute epochs, no
  cache: the ``mega-farm`` scenario's regime, where the power floors prune
  most of the grid), which also reports cells solved per selection and the
  ``bound_pruned`` count,

each executed twice: ``search="full"`` (the exhaustive grid, the oracle) and
``search="frontier"`` (the floor-certified frontier search; the first two
with a farm-shared characterisation cache).  **Full-grid parity is asserted
in-benchmark**: the two runs must select the identical policy in every epoch
of every server and produce bit-identical total energy; any divergence
aborts the benchmark.

The headline numbers use the paper's evaluation frequency grid (Section
4.1: minimum ``rho + 0.01`` with step 0.01); the coarser 0.05 runtime grid
is reported alongside, since the frontier's advantage grows with grid
resolution while the full search scales linearly in it.

Run directly (sizes shrink for CI smoke)::

    PYTHONPATH=src python benchmarks/bench_policy_search.py \
        --epochs 200 --farm-minutes 60 --output BENCH_pr4.json

Not a pytest module on purpose: the measurements need fixed large sizes and
a JSON artifact, not statistical repetition.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import date

import numpy as np

from repro.cluster.dispatch import LeastLoadedDispatcher, PowerAwareDispatcher
from repro.cluster.farm import ServerFarm, ServerSpec
from repro.core.qos import mean_qos_from_baseline
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.search import SEARCH_FRONTIER, SEARCH_FULL, CharacterizationCache
from repro.core.strategies import sleepscale_strategy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.prediction.lms_cusum import LmsCusumPredictor
from repro.scenarios.builders import LmsCusumPredictorFactory
from repro.units import minutes
from repro.workloads.generator import generate_trace_driven_jobs
from repro.workloads.spec import google_workload
from repro.workloads.traces import UtilizationTrace

EPOCH_MINUTES = 5.0
RHO_B = 0.8
CHARACTERIZATION_JOBS = 600
NUM_XEON = 8
NUM_ATOM = 8
ATOM_CEILING = 0.7
MEGA_SERVERS_PER_CLASS = 16
MEGA_MINUTES = 20
MEGA_EPOCH_MINUTES = 2.0
MEGA_SERVER_UTILIZATION = 0.03


def _epoch_signature(result):
    """Per-epoch selection trace used for the parity assertion."""
    return [
        (epoch.policy_label, epoch.sleep_state, epoch.selected_frequency)
        for epoch in result.epochs
    ]


def _assert_parity(name, full_results, frontier_results, full_energy, frontier_energy):
    # repro: ignore[REP004] -- in-benchmark oracle-parity gate: the frontier
    # search selects the identical policy to the full grid, so energies must
    # be bit-identical by contract; an approximate check would mask drift.
    if full_energy != frontier_energy:
        raise SystemExit(
            f"FATAL: {name}: frontier run diverged from the full grid "
            f"(energy {frontier_energy!r} != {full_energy!r})"
        )
    for index, (full_one, fast_one) in enumerate(
        zip(full_results, frontier_results)
    ):
        if _epoch_signature(full_one) != _epoch_signature(fast_one):
            raise SystemExit(
                f"FATAL: {name}: server {index} selected different policies "
                "under frontier search (the search-engine contract is broken)"
            )


def bench_diurnal(epochs: int, frequency_step: float, seed: int) -> dict:
    """One SleepScale server over a compressed day/night cycle."""
    spec = google_workload()
    num_samples = int(epochs * EPOCH_MINUTES)
    phase = 2.0 * math.pi * np.arange(num_samples) / num_samples
    values = 0.04 + (0.42 - 0.04) * 0.5 * (1.0 - np.cos(phase))
    trace = UtilizationTrace(values, interval=minutes(1), name="bench-diurnal")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed).jobs

    def run(search):
        strategy = sleepscale_strategy(
            xeon_power_model(),
            mean_qos_from_baseline(RHO_B),
            frequency_step=frequency_step,
            characterization_jobs=CHARACTERIZATION_JOBS,
            seed=seed,
            search=search,
            cache=CharacterizationCache() if search == SEARCH_FRONTIER else None,
        )
        runtime = SleepScaleRuntime(
            xeon_power_model(),
            spec,
            strategy,
            LmsCusumPredictor(history=10),
            RuntimeConfig(
                epoch_minutes=EPOCH_MINUTES, rho_b=RHO_B, over_provisioning=0.35
            ),
        )
        return runtime.run(jobs), strategy

    full_result, full_strategy = run(SEARCH_FULL)
    frontier_result, frontier_strategy = run(SEARCH_FRONTIER)
    _assert_parity(
        "diurnal",
        [full_result],
        [frontier_result],
        full_result.total_energy,
        frontier_result.total_energy,
    )
    speedup = full_strategy.search_seconds / frontier_strategy.search_seconds
    stats = frontier_strategy.search_stats
    row = {
        "epochs": len(full_result.epochs),
        "jobs": len(jobs),
        "frequency_step": frequency_step,
        "full_search_s": round(full_strategy.search_seconds, 3),
        "frontier_search_s": round(frontier_strategy.search_seconds, 3),
        "speedup": round(speedup, 2),
        "parity": True,
        "frontier_stats": stats.as_dict() if stats else None,
    }
    print(
        f"{'diurnal':24s} step={frequency_step:<5} "
        f"full {full_strategy.search_seconds:7.2f} s   "
        f"frontier {frontier_strategy.search_seconds:7.2f} s   "
        f"speedup {speedup:5.2f}x   parity=True"
    )
    return row


def _farm_servers(
    search: str,
    frequency_step: float,
    seed: int,
    servers_per_class: tuple[int, int],
    epoch_minutes: float,
    strategies: list,
) -> tuple[ServerSpec, ...]:
    """Xeon then Atom SleepScale servers; built strategies land in *strategies*."""
    qos = mean_qos_from_baseline(RHO_B)
    num_xeon, num_atom = servers_per_class

    def server(name, power_model, server_seed, max_frequency=1.0):
        def factory(power_model=power_model, server_seed=server_seed):
            strategy = sleepscale_strategy(
                power_model,
                qos,
                frequency_step=frequency_step,
                characterization_jobs=CHARACTERIZATION_JOBS,
                seed=server_seed,
                search=search,
            )
            strategies.append(strategy)
            return strategy

        return ServerSpec(
            name=name,
            power_model=power_model,
            # repro: ignore[REP002] -- serial-only benchmark
            # instrumentation: the local factory appends every built
            # strategy to a closure list for the cache-stats report and
            # never crosses a process boundary.
            strategy_factory=factory,
            predictor_factory=LmsCusumPredictorFactory(history=10),
            config=RuntimeConfig(
                epoch_minutes=epoch_minutes,
                rho_b=RHO_B,
                over_provisioning=0.35,
            ),
            max_frequency=max_frequency,
        )

    xeon, atom = xeon_power_model(), atom_power_model()
    return tuple(
        [server(f"xeon-{i}", xeon, seed + i) for i in range(num_xeon)]
        + [
            server(f"atom-{i}", atom, seed + num_xeon + i, ATOM_CEILING)
            for i in range(num_atom)
        ]
    )


def _farm_parity_and_stats(name, full_run, frontier_run) -> tuple[float, float, dict]:
    """Assert parity of two farm runs; return search seconds and summed stats."""
    (full_result, full_strategies), (frontier_result, frontier_strategies) = (
        full_run,
        frontier_run,
    )
    _assert_parity(
        name,
        [r for r in full_result.per_server if r is not None],
        [r for r in frontier_result.per_server if r is not None],
        full_result.total_energy,
        frontier_result.total_energy,
    )
    full_seconds = sum(s.search_seconds for s in full_strategies)
    frontier_seconds = sum(s.search_seconds for s in frontier_strategies)
    stats: dict[str, int] = {}
    for strategy in frontier_strategies:
        if strategy.search_stats is not None:
            for key, value in strategy.search_stats.as_dict().items():
                stats[key] = stats.get(key, 0) + value
    return full_seconds, frontier_seconds, stats


def bench_heterogeneous_farm(
    duration_minutes: int, frequency_step: float, seed: int
) -> dict:
    """16 mixed Xeon/Atom servers behind the power-aware dispatcher."""
    spec = google_workload()
    values = np.full(duration_minutes, 0.9)
    trace = UtilizationTrace(values, interval=minutes(1), name="bench-farm")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed + 1).jobs

    def run(search):
        strategies: list = []
        servers = _farm_servers(
            search, frequency_step, seed, (NUM_XEON, NUM_ATOM), EPOCH_MINUTES,
            strategies,
        )
        farm = ServerFarm(
            servers=servers,
            spec=spec,
            dispatcher=PowerAwareDispatcher.from_power_models(
                [s.power_model for s in servers]
            ),
            search_cache=(
                CharacterizationCache() if search == SEARCH_FRONTIER else None
            ),
        )
        return farm.run(jobs), strategies

    full_seconds, frontier_seconds, stats = _farm_parity_and_stats(
        "heterogeneous-farm", run(SEARCH_FULL), run(SEARCH_FRONTIER)
    )
    speedup = full_seconds / frontier_seconds
    row = {
        "servers": NUM_XEON + NUM_ATOM,
        "duration_minutes": duration_minutes,
        "jobs": len(jobs),
        "frequency_step": frequency_step,
        "full_search_s": round(full_seconds, 3),
        "frontier_search_s": round(frontier_seconds, 3),
        "speedup": round(speedup, 2),
        "parity": True,
        "frontier_stats": stats,
    }
    print(
        f"{'heterogeneous farm (16)':24s} step={frequency_step:<5} "
        f"full {full_seconds:7.2f} s   frontier {frontier_seconds:7.2f} s   "
        f"speedup {speedup:5.2f}x   parity=True"
    )
    return row


def bench_mega_farm(frequency_step: float, seed: int) -> dict:
    """Xeon + Atom servers at about 0.03 utilisation each, least-loaded."""
    spec = google_workload()
    num_servers = 2 * MEGA_SERVERS_PER_CLASS
    values = np.full(MEGA_MINUTES, MEGA_SERVER_UTILIZATION * num_servers)
    trace = UtilizationTrace(values, interval=minutes(1), name="bench-mega-farm")
    jobs = generate_trace_driven_jobs(spec, trace, seed=seed + 2).jobs

    def run(search):
        strategies: list = []
        servers = _farm_servers(
            search, frequency_step, seed,
            (MEGA_SERVERS_PER_CLASS, MEGA_SERVERS_PER_CLASS),
            MEGA_EPOCH_MINUTES, strategies,
        )
        farm = ServerFarm(servers=servers, spec=spec, dispatcher=LeastLoadedDispatcher())
        return farm.run(jobs), strategies

    full_seconds, frontier_seconds, stats = _farm_parity_and_stats(
        "mega-farm", run(SEARCH_FULL), run(SEARCH_FRONTIER)
    )
    speedup = full_seconds / frontier_seconds
    selections = max(stats["selections"], 1)
    # Cells solved per searched selection (the winner's row re-solve aside).
    solves_per_selection = stats["candidates_evaluated"] / selections
    row = {
        "servers": num_servers,
        "server_utilization": MEGA_SERVER_UTILIZATION,
        "duration_minutes": MEGA_MINUTES,
        "jobs": len(jobs),
        "frequency_step": frequency_step,
        "full_search_s": round(full_seconds, 3),
        "frontier_search_s": round(frontier_seconds, 3),
        "speedup": round(speedup, 2),
        "parity": True,
        "grid_cells_per_selection": round(stats["candidates_seen"] / selections, 2),
        "solves_per_selection": round(solves_per_selection, 2),
        "frontier_stats": stats,
    }
    print(
        f"{f'mega-farm ({num_servers})':24s} step={frequency_step:<5} "
        f"full {full_seconds:7.2f} s   frontier {frontier_seconds:7.2f} s   "
        f"speedup {speedup:5.2f}x   parity=True   "
        f"solves/selection {solves_per_selection:5.2f}   "
        f"bound_pruned {stats['bound_pruned']}"
    )
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=200)
    parser.add_argument("--farm-minutes", type=int, default=60)
    parser.add_argument(
        "--frequency-step",
        type=float,
        default=0.01,
        help="headline candidate grid step (the paper's evaluation grid is 0.01)",
    )
    parser.add_argument(
        "--coarse-step",
        type=float,
        default=0.05,
        help="secondary (runtime-search) grid step reported alongside",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None, metavar="FILE")
    arguments = parser.parse_args(argv)

    diurnal_fine = bench_diurnal(
        arguments.epochs, arguments.frequency_step, arguments.seed
    )
    diurnal_coarse = bench_diurnal(
        arguments.epochs, arguments.coarse_step, arguments.seed
    )
    farm_fine = bench_heterogeneous_farm(
        arguments.farm_minutes, arguments.frequency_step, arguments.seed
    )
    farm_coarse = bench_heterogeneous_farm(
        arguments.farm_minutes, arguments.coarse_step, arguments.seed
    )
    # The mega-farm scenario searches the runtime grid, hence the coarse step.
    mega_farm = bench_mega_farm(arguments.coarse_step, arguments.seed)

    report = {
        "pr": 4,
        "title": (
            "Epoch-scale policy-search engine: cached + frontier "
            "characterization with full-grid parity"
        ),
        # repro: ignore[REP001] -- report metadata stamp, not simulation input.
        "date": date.today().isoformat(),
        "benchmark_file": "benchmarks/bench_policy_search.py",
        "workload": (
            "Google-like jobs (mean 4.2 ms); diurnal day/night cycle on one "
            "Xeon SleepScale server, constant 0.9 aggregate load on 16 "
            "mixed Xeon/Atom servers behind a power-aware dispatcher, and "
            "about 0.03 load per server on 32 mixed Xeon/Atom servers behind "
            "a least-loaded dispatcher"
        ),
        "diurnal": {"fine_grid": diurnal_fine, "coarse_grid": diurnal_coarse},
        "heterogeneous_farm": {"fine_grid": farm_fine, "coarse_grid": farm_coarse},
        "mega_farm": mega_farm,
        "acceptance": {
            "target_speedup": 5.0,
            "measured_diurnal_speedup": diurnal_fine["speedup"],
            "measured_farm_speedup": farm_fine["speedup"],
            "grid": f"paper evaluation grid (step {arguments.frequency_step})",
            "full_grid_parity_asserted": True,
            "equivalence_suite": "tests/core/test_search.py",
        },
    }
    if arguments.output:
        with open(arguments.output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {arguments.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
