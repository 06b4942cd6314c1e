"""Trace storage backends must be result-invisible (and leak-free).

The analogue of the executor contract: wherever the trace's arrays live —
in-process memory or a memory-mapped file — a farm produces
**bit-identical** ``FarmResult``s.  This suite pins that across every
registered scenario (serial/memory oracle vs zero-copy process sharding over
mmap, and the serial mmap-spill path), proves the temporary trace and arena
directories are deleted on every exit path (normal, pickling failure,
worker crash), and runs a memory-mapped trace larger than a configured
memory cap through a chunked farm in bounded memory.
"""

from __future__ import annotations

import glob
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from repro.cluster.dispatch import RoundRobinDispatcher
from repro.cluster.farm import ServerFarm, ServerSpec
from repro.core.runtime import RuntimeConfig
from repro.core.strategies import race_to_halt_c3
from repro.exceptions import ExecutorError
from repro.power.platform import xeon_power_model
from repro.prediction.naive import NaivePreviousPredictor
from repro.scenarios import available_scenarios, get_scenario
from repro.workloads.jobs import JobTrace
from repro.workloads.storage import TraceBuffer

from tests.cluster.test_executor_parity import (
    _tiny_overrides,
    assert_farm_results_identical,
)


def trace_directories() -> set[str]:
    """The farm's spill and arena directories under the temp root."""
    root = tempfile.gettempdir()
    return {
        path
        for prefix in ("repro_arena_", "repro_trace_")
        for path in glob.glob(os.path.join(root, f"{prefix}*"))
    }


@pytest.fixture(autouse=True)
def no_leaked_directories():
    before = trace_directories()
    yield
    leaked = trace_directories() - before
    assert not leaked, f"leaked trace directories: {sorted(leaked)}"


#: (executor, trace_backend) pairs compared against the serial/memory oracle.
#: The process run exercises the zero-copy descriptor sharding; the serial
#: mmap run exercises the spill-to-file path without an arena.
BACKEND_MATRIX = (
    ("process", "mmap"),
    ("serial", "mmap"),
)


class TestEveryScenarioBackendParity:
    """The tentpole's equivalence claim, across all registered scenarios."""

    @pytest.fixture(params=sorted(available_scenarios()))
    def name(self, request):
        return request.param

    def test_backends_match_the_memory_oracle(self, name):
        overrides = _tiny_overrides(name)
        oracle = get_scenario(name).build(
            seed=9, executor="serial", **overrides
        ).run()
        for executor, backend in BACKEND_MATRIX:
            built = get_scenario(name).build(
                seed=9, executor=executor, trace_backend=backend, **overrides
            )
            built.farm.max_workers = 2 if executor == "process" else None
            assert_farm_results_identical(oracle, built.run())


# ---------------------------------------------------------------------------
# Cleanup on the unhappy paths
# ---------------------------------------------------------------------------


def _fresh_strategy():
    return race_to_halt_c3(xeon_power_model())


def _fresh_predictor():
    return NaivePreviousPredictor()


def _crashing_strategy():
    # Hard worker death (no exception, no cleanup handlers in the worker):
    # the pool reports a BrokenProcessPool and the parent's arena context
    # must still delete every file.
    os._exit(17)


def _small_farm(strategy_factory, *, trace_backend: str = "mmap") -> ServerFarm:
    from repro.workloads.spec import dns_workload

    servers = tuple(
        ServerSpec(
            name=f"server-{index}",
            power_model=xeon_power_model(),
            strategy_factory=strategy_factory,
            predictor_factory=_fresh_predictor,
            config=RuntimeConfig(epoch_minutes=1.0, rho_b=0.8),
        )
        for index in range(2)
    )
    return ServerFarm(
        servers=servers,
        spec=dns_workload(),
        dispatcher=RoundRobinDispatcher(),
        executor="process",
        max_workers=2,
        trace_backend=trace_backend,
    )


def _small_jobs() -> JobTrace:
    from repro.workloads.generator import generate_jobs
    from repro.workloads.spec import dns_workload

    return generate_jobs(dns_workload(), num_jobs=400, utilization=0.4, seed=3)


class TestArenaCleanup:
    def test_no_directories_survive_a_normal_run(self):
        before = trace_directories()
        result = _small_farm(_fresh_strategy).run(_small_jobs())
        assert result.num_jobs == 400
        assert trace_directories() == before

    def test_no_directories_survive_an_executor_error(self):
        # A lambda factory cannot be pickled into the shard task: the
        # executor raises ExecutorError after the arena published the trace,
        # and the arena's __exit__ must still delete everything.
        before = trace_directories()
        farm = _small_farm(lambda: _fresh_strategy())
        with pytest.raises(ExecutorError, match="pickl"):
            farm.run(_small_jobs())
        assert trace_directories() == before

    def test_no_directories_survive_a_worker_crash(self):
        from concurrent.futures.process import BrokenProcessPool

        before = trace_directories()
        farm = _small_farm(_crashing_strategy)
        with pytest.raises(BrokenProcessPool):
            farm.run(_small_jobs())
        assert trace_directories() == before


# ---------------------------------------------------------------------------
# Out-of-core: an mmap trace larger than the configured memory cap
# ---------------------------------------------------------------------------


class TestOutOfCoreMmapRun:
    def test_chunked_run_stays_under_the_memory_cap(self, tmp_path):
        # A trace bigger than the memory cap the run must respect: the cap
        # is deliberately smaller than the trace, so completing the run
        # proves the memory-mapped arrays never materialise — only the
        # chunks in flight and the O(n) result arrays are resident.
        num_jobs = 1_200_000
        path = tmp_path / "big.npy"
        arrivals = np.arange(num_jobs, dtype=np.float64) * 0.001
        demands = np.full(num_jobs, 0.0004)
        TraceBuffer.write_file(path, arrivals, demands)
        trace_bytes = 2 * 8 * num_jobs
        memory_cap = int(0.75 * trace_bytes)
        del arrivals, demands

        farm = _out_of_core_farm()
        tracemalloc.start()
        try:
            jobs = JobTrace.from_file(path, mmap=True, validate=False)
            result = farm.run(jobs, chunk_jobs=16384)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.num_jobs == num_jobs
        assert memory_cap < trace_bytes  # the cap really is out-of-core
        assert peak < memory_cap, (
            f"peak traced memory {peak / 1e6:.1f} MB exceeded the "
            f"{memory_cap / 1e6:.1f} MB cap for a {trace_bytes / 1e6:.1f} MB trace"
        )

    def test_mmap_backend_spills_and_matches_memory(self):
        # The ServerFarm-level knob: an in-memory trace run under the mmap
        # backend spills to a temporary file, and the spilled run is
        # bit-identical to the in-memory one.
        jobs = _small_jobs()
        import dataclasses

        farm = _small_farm(_fresh_strategy, trace_backend="memory")
        serial = dataclasses.replace(farm, executor="serial", max_workers=None)
        oracle = serial.run(jobs)
        spilled = dataclasses.replace(serial, trace_backend="mmap").run(jobs)
        assert_farm_results_identical(oracle, spilled)


def _out_of_core_farm() -> ServerFarm:
    from repro.workloads.spec import dns_workload

    servers = tuple(
        ServerSpec(
            name=f"server-{index}",
            power_model=xeon_power_model(),
            strategy_factory=_fresh_strategy,
            predictor_factory=_fresh_predictor,
            # Epochs much shorter than the trace span: a streaming session
            # buffers fed jobs only until the next epoch boundary, so short
            # epochs keep the per-server buffers small (a single epoch
            # spanning the whole trace would re-materialise it).
            config=RuntimeConfig(epoch_minutes=1.0, rho_b=0.8),
        )
        for index in range(8)
    )
    return ServerFarm(
        servers=servers,
        spec=dns_workload(),
        dispatcher=RoundRobinDispatcher(),
        executor="serial",
    )
