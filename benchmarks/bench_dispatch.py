"""Farm-scale dispatch benchmark: 1M jobs over 16 mixed Xeon/Atom servers.

Measures the dispatch-engine contract end to end:

* ``LeastLoadedDispatcher`` on the ``"heap"`` engine vs. the retained
  per-job ``"loop"`` oracle, asserting **byte-identical assignments** and
  reporting the speedups across traffic regimes (the farm-scale regime —
  heavy aggregate traffic spread over 16 servers — is the headline),
  including the one- and two-server saturated regimes a right-sizing
  controller leaves at peak;
* ``PriorityDispatcher`` on a two-tenant burst (four servers, and the
  two-server tenant-burst shape) and on the bottom tenant's solo stream
  vs. the plain transcription of its rule in
  ``tests/cluster/priority_reference.py``, asserting byte-identical
  assignments;
* a chunked (streaming) ``ServerFarm.run`` behind a
  ``PowerAwareDispatcher`` vs. the one-shot path on a reduced trace,
  asserting equivalence within ``rtol <= 1e-9``.  Power-aware dispatch
  has a single engine, so it has no heap-vs-loop case.

Run directly (sizes shrink for CI smoke)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py \
        --jobs 1000000 --farm-jobs 200000 --output BENCH_pr3.json

Not a pytest module on purpose: the measurements need fixed large sizes and
a JSON artifact, not statistical repetition.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np

from repro.cluster.dispatch import (
    ENGINE_HEAP,
    ENGINE_LOOP,
    LeastLoadedDispatcher,
    PowerAwareDispatcher,
)
from repro.cluster.farm import ServerFarm, ServerSpec
from repro.cluster.tenancy import PriorityDispatcher, TenantSpec
from repro.core.qos import mean_qos_from_baseline
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import FixedPolicyStrategy
from repro.policies.policy import race_to_halt_policy
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C6_S0I
from repro.prediction.naive import NaivePreviousPredictor
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import google_workload

# The priority dispatcher's oracle lives with its test suite.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.cluster.priority_reference import reference_priority_assignment  # noqa: E402

MEAN_SERVICE = 0.0042  # Google-like (Table 5) job size, seconds
NUM_XEON = 8
NUM_ATOM = 8
ATOM_CEILING = 0.7  # dispatch-visible DVFS ceiling for the Atom half


def synthetic_jobs(num_jobs: int, utilization: float, seed: int) -> JobTrace:
    """Poisson arrivals at *utilization* of one full-frequency server."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(MEAN_SERVICE / utilization, num_jobs)
    return JobTrace(np.cumsum(gaps), rng.exponential(MEAN_SERVICE, num_jobs))


def time_call(function, jobs, num_servers, server_speeds):
    start = time.perf_counter()
    assignment = function(jobs, num_servers, server_speeds)
    return time.perf_counter() - start, assignment


def labelled_jobs(num_jobs: int, utilization: float, seed: int) -> JobTrace:
    """:func:`synthetic_jobs` with a 3:1 crowd:victim tenant split."""
    jobs = synthetic_jobs(num_jobs, utilization, seed)
    labels = (np.random.default_rng(seed + 1).random(num_jobs) < 0.25).astype(np.int64)
    return jobs.with_tenant_ids(labels)


def crowd_solo_jobs(num_jobs: int, utilization: float, seed: int) -> JobTrace:
    """:func:`synthetic_jobs` labelled as the crowd alone (its isolation replay)."""
    jobs = synthetic_jobs(num_jobs, utilization, seed)
    return jobs.with_tenant_ids(np.zeros(num_jobs, dtype=np.int64))


#: The two tenants of the noisy-neighbor scenario: a low-priority crowd and
#: a protected high-priority victim.
PRIORITY_TENANTS = (
    TenantSpec(name="crowd", qos=mean_qos_from_baseline(0.8)),
    TenantSpec(name="victim", qos=mean_qos_from_baseline(0.8), priority=1),
)


def reference_priority(jobs, num_servers, server_speeds):
    """The priority rule's plain transcription (the suite's oracle)."""
    return reference_priority_assignment(
        jobs.arrival_times,
        jobs.service_demands,
        jobs.tenant_ids,
        PRIORITY_TENANTS,
        num_servers,
        server_speeds,
    )


def bench_dispatchers(num_jobs: int, seed: int) -> dict:
    """Fast path vs. oracle on every (dispatcher, regime, farm) case.

    Each case names a ``(fast, oracle)`` pair of assignment functions; the
    least-loaded oracle is the ``"loop"`` engine, the priority dispatcher's
    is the reference transcription its test suite pins it to.
    """
    num_servers = NUM_XEON + NUM_ATOM
    het_speeds = [1.0] * NUM_XEON + [ATOM_CEILING] * NUM_ATOM
    least_loaded = tuple(
        lambda jobs, servers, speeds, engine=engine: LeastLoadedDispatcher(
            engine
        ).assign(jobs, servers, server_speeds=speeds)
        for engine in (ENGINE_HEAP, ENGINE_LOOP)
    )
    priority = (
        lambda jobs, servers, speeds: PriorityDispatcher(PRIORITY_TENANTS).assign(
            jobs, servers, server_speeds=speeds
        ),
        reference_priority,
    )
    # name: (engines, utilization, servers, speeds, trace builder)
    cases = {
        # The farm-scale regime: aggregate traffic of ~0.9 of one server
        # spread over 16 servers (per-server load ~6%), homogeneous speeds.
        "least_loaded_farm_scale": (least_loaded, 0.9, num_servers, None, synthetic_jobs),
        # Same regime, the mixed Xeon/Atom speed model (merge fast path is
        # homogeneous-only, so this shows the heap-tier floor).
        "least_loaded_heterogeneous": (
            least_loaded, 0.9, num_servers, het_speeds, synthetic_jobs,
        ),
        # Aggregate load near half the farm's capacity.
        "least_loaded_heavy": (least_loaded, 8.0, num_servers, None, synthetic_jobs),
        # The regimes a right-sizing controller leaves at peak (the
        # autoscale-day workload): one or two awake servers running hot.
        "least_loaded_two_server_saturated": (least_loaded, 2.5, 2, None, synthetic_jobs),
        "least_loaded_one_server": (least_loaded, 0.9, 1, None, synthetic_jobs),
        # Two tenants on four servers (two-server blocks, so the per-job
        # block scan runs) under a load that saturates the crowd's block.
        "priority_two_tenant_burst": (priority, 3.0, 4, None, labelled_jobs),
        # The tenant-burst workload's shape: two tenants on two servers,
        # one server per block.
        "priority_two_server_burst": (priority, 3.0, 2, None, labelled_jobs),
        # The crowd's isolation replay on that farm: the bottom tenant's
        # solo stream, which never reads tracked state.
        "priority_bottom_tenant_solo": (priority, 3.0, 2, None, crowd_solo_jobs),
    }
    results = {}
    for name, ((fast, oracle), utilization, servers, speeds, build) in cases.items():
        jobs = build(num_jobs, utilization, seed)
        fast_seconds, fast_assignment = time_call(fast, jobs, servers, speeds)
        oracle_seconds, oracle_assignment = time_call(oracle, jobs, servers, speeds)
        identical = bool(np.array_equal(fast_assignment, oracle_assignment))
        if not identical:
            raise SystemExit(
                f"FATAL: {name}: fast-path and oracle assignments differ "
                "(the dispatch-engine contract is broken)"
            )
        results[name] = {
            "jobs": num_jobs,
            "servers": servers,
            "offered_load_of_one_server": utilization,
            "speed_model": "heterogeneous" if speeds else "homogeneous",
            "heap_ms": round(fast_seconds * 1e3, 1),
            "loop_ms": round(oracle_seconds * 1e3, 1),
            "speedup": round(oracle_seconds / fast_seconds, 1),
            "byte_identical": identical,
        }
        print(
            f"{name:34s} fast {fast_seconds*1e3:8.1f} ms   "
            f"oracle {oracle_seconds*1e3:8.1f} ms   "
            f"speedup {oracle_seconds/fast_seconds:5.1f}x   identical={identical}"
        )
    return results


@dataclasses.dataclass(frozen=True)
class _FixedPolicyStrategyFactory:
    """Picklable factory so the benchmark farm stays process-ready (REP002)."""

    power_model: object

    def __call__(self) -> FixedPolicyStrategy:
        return FixedPolicyStrategy(race_to_halt_policy(self.power_model, C6_S0I))


@dataclasses.dataclass(frozen=True)
class _NaivePredictorFactory:
    def __call__(self) -> NaivePreviousPredictor:
        return NaivePreviousPredictor()


def _fixed_policy_server(name, power_model, max_frequency=1.0) -> ServerSpec:
    return ServerSpec(
        name=name,
        power_model=power_model,
        strategy_factory=_FixedPolicyStrategyFactory(power_model),
        predictor_factory=_NaivePredictorFactory(),
        config=RuntimeConfig(epoch_minutes=5.0, rho_b=0.8, over_provisioning=0.0),
        max_frequency=max_frequency,
    )


def bench_chunked_farm(num_jobs: int, chunk_jobs: int, seed: int) -> dict:
    """Streaming vs. one-shot farm run on the 16-server mixed fleet."""
    xeon, atom = xeon_power_model(), atom_power_model()
    servers = tuple(
        [_fixed_policy_server(f"xeon-{i}", xeon) for i in range(NUM_XEON)]
        + [
            _fixed_policy_server(f"atom-{i}", atom, max_frequency=ATOM_CEILING)
            for i in range(NUM_ATOM)
        ]
    )
    spec = google_workload()
    jobs = synthetic_jobs(num_jobs, 0.9, seed)
    dispatcher = PowerAwareDispatcher.from_power_models(
        [server.power_model for server in servers]
    )

    def build():
        return ServerFarm(servers=servers, spec=spec, dispatcher=dispatcher)

    start = time.perf_counter()
    one_shot = build().run(jobs)
    one_shot_seconds = time.perf_counter() - start
    start = time.perf_counter()
    chunked = build().run(jobs, chunk_jobs=chunk_jobs)
    chunked_seconds = time.perf_counter() - start

    energy_error = abs(chunked.total_energy - one_shot.total_energy) / max(
        one_shot.total_energy, 1e-300
    )
    latency_error = abs(
        chunked.mean_response_time - one_shot.mean_response_time
    ) / max(one_shot.mean_response_time, 1e-300)
    if energy_error > 1e-9 or latency_error > 1e-9:
        raise SystemExit(
            "FATAL: chunked farm run diverged from one-shot "
            f"(energy rel err {energy_error:.3e}, latency rel err {latency_error:.3e})"
        )
    print(
        f"{'farm_run (16 servers)':32s} one-shot {one_shot_seconds:6.2f} s   "
        f"chunked {chunked_seconds:6.2f} s   "
        f"energy rel err {energy_error:.1e}   latency rel err {latency_error:.1e}"
    )
    return {
        "jobs": num_jobs,
        "servers": len(servers),
        "chunk_jobs": chunk_jobs,
        "one_shot_s": round(one_shot_seconds, 2),
        "chunked_s": round(chunked_seconds, 2),
        "energy_rel_error": energy_error,
        "latency_rel_error": latency_error,
        "rtol_target": 1e-9,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1_000_000)
    parser.add_argument("--farm-jobs", type=int, default=200_000)
    parser.add_argument("--chunk-jobs", type=int, default=32_768)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None, metavar="FILE")
    arguments = parser.parse_args(argv)

    dispatch_results = bench_dispatchers(arguments.jobs, arguments.seed)
    farm_results = bench_chunked_farm(
        arguments.farm_jobs, arguments.chunk_jobs, arguments.seed
    )
    headline = dispatch_results["least_loaded_farm_scale"]["speedup"]
    report = {
        "pr": 3,
        "title": (
            "Farm-scale dispatch engine: speed-aware heap dispatchers + "
            "streaming farm runs"
        ),
        # repro: ignore[REP001] -- report metadata stamp, not simulation input.
        "date": date.today().isoformat(),
        "benchmark_file": "benchmarks/bench_dispatch.py",
        "workload": (
            "synthetic Google-like jobs (mean 4.2 ms), Poisson arrivals, "
            "16 servers (8 Xeon + 8 Atom at 0.7 dispatch ceiling)"
        ),
        "dispatch": dispatch_results,
        "chunked_farm_run": farm_results,
        "acceptance": {
            "target_speedup_1M_jobs_16_servers": 10.0,
            "measured_headline_speedup": headline,
            "byte_identical_assignments": True,
            "chunked_rtol": 1e-9,
            "equivalence_suite": "tests/cluster/test_dispatch_engine.py, "
            "tests/cluster/test_farm_streaming.py",
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
