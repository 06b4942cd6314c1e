"""Tests for the policy-search engine (cache + frontier vs. full-grid oracle).

The central contract: for any inputs, ``search="frontier"`` (with or without
a cache) selects the **identical** policy to the full-grid search.  The fuzz
classes sweep policy-space shapes, QoS constraint types, both simulation
backends and both platform presets; the structural classes pin the cache
key behaviour, the lazy candidate grid, the fallback paths and the farm
cache threading.
"""

from __future__ import annotations

import weakref
import zlib

import numpy as np
import pytest

import repro.core.search as search_module
import repro.simulation.kernel as kernel_module

from repro.cluster.farm import ClusterRuntime, ServerFarm, ServerSpec
from repro.core.policy_manager import PolicyManager, evaluation_from_result
from repro.core.qos import (
    PercentileResponseTimeConstraint,
    QosConstraint,
    mean_qos_from_baseline,
    percentile_qos_from_baseline,
)
from repro.core.runtime import RuntimeConfig, SleepScaleRuntime
from repro.core.search import (
    SEARCH_FRONTIER,
    SEARCH_FULL,
    CharacterizationCache,
    PolicySearchEngine,
    _PolicyGrid,
    policy_space_fingerprint,
    power_model_fingerprint,
    qos_fingerprint,
    quantize_utilization,
    trace_fingerprint,
    validate_search,
)
from repro.core.strategies import sleepscale_strategy
from repro.exceptions import ConfigurationError
from repro.policies.space import (
    PolicySpace,
    dvfs_only_space,
    full_space,
    single_state_space,
)
from repro.power.states import C3_S0I, C6_S0I
from repro.prediction.naive import NaivePreviousPredictor
from repro.simulation.kernel import TraceKernel
from repro.workloads.generator import generate_jobs
from repro.workloads.jobs import JobTrace


def _managers(power_model, space, qos, backend="vectorized", cache=None):
    """A (full oracle, frontier) pair over identical configuration."""
    full = PolicyManager(
        power_model, space, qos, seed=0, backend=backend, search=SEARCH_FULL
    )
    frontier = PolicyManager(
        power_model,
        space,
        qos,
        seed=0,
        backend=backend,
        search=SEARCH_FRONTIER,
        cache=cache,
    )
    return full, frontier


class TestValidation:
    def test_search_modes(self):
        assert validate_search("full") == SEARCH_FULL
        assert validate_search("frontier") == SEARCH_FRONTIER
        with pytest.raises(ConfigurationError):
            validate_search("heap")

    def test_quantize(self):
        assert quantize_utilization(0.3141, 0.0) == 0.3141
        assert quantize_utilization(0.3141, 0.05) == pytest.approx(0.3)
        assert quantize_utilization(0.999, 0.0) == 0.98  # clamped
        with pytest.raises(ConfigurationError):
            quantize_utilization(0.5, -0.1)


class TestFingerprints:
    def test_trace_fingerprint_is_content_based(self):
        a = JobTrace([0.0, 1.0], [0.5, 0.25])
        b = JobTrace(np.array([0.0, 1.0]), np.array([0.5, 0.25]))
        c = JobTrace([0.0, 1.0], [0.5, 0.2500001])
        assert trace_fingerprint(a) == trace_fingerprint(b)
        assert trace_fingerprint(a) != trace_fingerprint(c)

    def test_model_space_qos_fingerprints_distinguish(self, xeon, atom):
        assert power_model_fingerprint(xeon) != power_model_fingerprint(atom)
        assert policy_space_fingerprint(full_space(xeon)) != (
            policy_space_fingerprint(dvfs_only_space(xeon))
        )
        assert qos_fingerprint(mean_qos_from_baseline(0.8)) != (
            qos_fingerprint(mean_qos_from_baseline(0.7))
        )


class TestLazyGrid:
    """The lazy grid must enumerate exactly like candidate_policies."""

    @pytest.mark.parametrize("utilization", [0.0, 0.15, 0.5, 0.9])
    def test_matches_candidate_policies(self, xeon, utilization):
        spaces = [
            full_space(xeon, frequency_step=0.05),
            dvfs_only_space(xeon, frequency_step=0.1),
            single_state_space(xeon, C3_S0I, frequency_step=0.07),
            PolicySpace(power_model=xeon, deep_entry_delays=(0.5, 2.0)),
            PolicySpace(power_model=xeon, use_pstates=True, include_dvfs_only=True),
        ]
        for space in spaces:
            grid = _PolicyGrid.build(space, utilization)
            assert grid is not None
            assert grid.policies == space.candidate_policies(utilization)

    def test_subclassed_space_is_not_gridded(self, xeon):
        class CustomSpace(PolicySpace):
            pass

        space = CustomSpace(power_model=xeon)
        assert _PolicyGrid.build(space, 0.3) is None

    def test_subclassed_space_still_selects_oracle_identically(self, xeon, dns_ideal):
        class CustomSpace(PolicySpace):
            pass

        space = CustomSpace(power_model=xeon)
        qos = mean_qos_from_baseline(0.8)
        full, frontier = _managers(xeon, space, qos)
        jobs = generate_jobs(
            dns_ideal, num_jobs=300, utilization=0.3,
            rng=np.random.default_rng(0),
        )
        assert frontier.select(jobs, 0.3).policy == full.select(jobs, 0.3).policy


class TestFrontierFullEquivalence:
    """The headline contract: identical selected policy on every case."""

    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    @pytest.mark.parametrize("space_kind", ["full", "single", "dvfs", "deep"])
    @pytest.mark.parametrize("qos_kind", ["mean", "percentile"])
    def test_equivalence_fuzz(
        self, xeon, atom, dns_ideal, backend, space_kind, qos_kind
    ):
        # crc32, not hash(): string hashes change with PYTHONHASHSEED, and
        # the cases must not.
        rng = np.random.default_rng(
            zlib.crc32(f"{backend}/{space_kind}/{qos_kind}".encode())
        )
        cases = 2 if backend == "reference" else 4
        for index in range(cases):
            power_model = xeon if index % 2 == 0 else atom
            step = 0.05 if backend == "reference" else (0.05, 0.02)[index % 2]
            space = {
                "full": lambda: full_space(power_model, frequency_step=step),
                "single": lambda: single_state_space(
                    power_model, C6_S0I, frequency_step=step
                ),
                "dvfs": lambda: dvfs_only_space(power_model, frequency_step=step),
                "deep": lambda: PolicySpace(
                    power_model=power_model,
                    frequency_step=step,
                    deep_entry_delays=(0.05,),
                ),
            }[space_kind]()
            qos = (
                mean_qos_from_baseline(0.8)
                if qos_kind == "mean"
                else percentile_qos_from_baseline(
                    0.8, dns_ideal.mean_service_time
                )
            )
            utilization = float(rng.uniform(0.02, 0.95))
            jobs = generate_jobs(
                dns_ideal,
                num_jobs=250 if backend == "reference" else 700,
                utilization=utilization,
                rng=np.random.default_rng(int(rng.integers(1 << 30))),
            )
            full, frontier = _managers(
                power_model, space, qos, backend=backend,
                cache=CharacterizationCache(),
            )
            oracle = full.select(jobs, utilization)
            fast = frontier.select(jobs, utilization)
            assert fast.policy == oracle.policy
            assert fast.feasible == oracle.feasible
            assert fast.best.average_power == oracle.best.average_power

    def test_warm_started_sequence_stays_exact(self, xeon, dns_ideal):
        """Consecutive selects at drifting utilisations (the epoch-loop shape)."""
        qos = mean_qos_from_baseline(0.8)
        space = full_space(xeon, frequency_step=0.02)
        full, frontier = _managers(xeon, space, qos, cache=CharacterizationCache())
        rng = np.random.default_rng(11)
        utilization = 0.1
        for _ in range(12):
            utilization = float(
                np.clip(utilization + rng.uniform(-0.05, 0.07), 0.02, 0.9)
            )
            jobs = generate_jobs(
                dns_ideal, num_jobs=600, utilization=utilization, rng=rng
            )
            assert (
                frontier.select(jobs, utilization).policy
                == full.select(jobs, utilization).policy
            )

    def test_zero_job_trace_matches_full(self, xeon):
        qos = mean_qos_from_baseline(0.8)
        space = full_space(xeon, frequency_step=0.1)
        full, frontier = _managers(xeon, space, qos)
        empty = JobTrace.empty()
        oracle = full.select(empty, 0.3)
        fast = frontier.select(empty, 0.3)
        assert fast.policy == oracle.policy
        assert fast.feasible == oracle.feasible is False

    def test_frontier_selection_carries_only_winner(self, xeon, dns_ideal):
        qos = mean_qos_from_baseline(0.8)
        space = full_space(xeon, frequency_step=0.05)
        full, frontier = _managers(xeon, space, qos)
        jobs = generate_jobs(
            dns_ideal, num_jobs=500, utilization=0.3,
            rng=np.random.default_rng(1),
        )
        fast = frontier.select(jobs, 0.3)
        oracle = full.select(jobs, 0.3)
        if fast.feasible:
            assert fast.evaluations == (fast.best,)
        assert len(oracle.evaluations) == space.size(0.3)


class _InvertedQos(QosConstraint):
    """Met only when the system is *slow*: slack decreases in frequency.

    This breaks the frontier's feasible-set-is-a-suffix assumption on
    purpose — the feasible set is a prefix — so every column's top probe is
    infeasible and the engine must take the full-grid fallback.
    """

    def __init__(self, minimum_normalized_response: float):
        self._minimum = minimum_normalized_response

    def is_met(self, result) -> bool:
        return result.normalized_mean_response_time >= self._minimum

    def slack(self, result) -> float:
        return result.normalized_mean_response_time - self._minimum

    def describe(self) -> str:  # pragma: no cover - not exercised
        return f"mu*E[R] >= {self._minimum}"


class TestFallbacks:
    def test_non_monotone_space_takes_fallback_and_stays_exact(
        self, xeon, dns_ideal
    ):
        qos = _InvertedQos(1.8)
        space = full_space(xeon, frequency_step=0.05)
        full, frontier = _managers(xeon, space, qos)
        rng = np.random.default_rng(5)
        for utilization in (0.1, 0.3, 0.55):
            jobs = generate_jobs(
                dns_ideal, num_jobs=600, utilization=utilization, rng=rng
            )
            oracle = full.select(jobs, utilization)
            fast = frontier.select(jobs, utilization)
            assert fast.policy == oracle.policy
            assert fast.feasible == oracle.feasible
        stats = frontier.search_stats
        assert stats is not None
        # The broken monotonicity must have been detected, not silently
        # trusted: every column the power floors could not rule out went
        # through the exhaustive fallback, and every other one was pruned
        # whole by its floor.
        assert stats.fallback_columns > 0
        assert stats.candidates_evaluated + stats.bound_pruned == stats.candidates_seen

    def test_infeasible_everywhere_matches_oracle(self, xeon, dns_ideal):
        # An impossibly tight budget: nothing meets it, so the engine must
        # reproduce the oracle's largest-slack ranking over the full table.
        qos = mean_qos_from_baseline(0.8)
        tight = percentile_qos_from_baseline(0.8, dns_ideal.mean_service_time)
        del qos
        space = full_space(xeon, frequency_step=0.05)
        needle = PercentileResponseTimeConstraint(deadline=1e-6)
        full, frontier = _managers(xeon, space, needle)
        del tight
        jobs = generate_jobs(
            dns_ideal, num_jobs=400, utilization=0.4,
            rng=np.random.default_rng(9),
        )
        oracle = full.select(jobs, 0.4)
        fast = frontier.select(jobs, 0.4)
        assert oracle.feasible is False
        assert fast.policy == oracle.policy
        assert fast.feasible is False


def _jobs(spec, utilization, seed, num_jobs=400):
    return generate_jobs(
        spec, num_jobs=num_jobs, utilization=utilization,
        rng=np.random.default_rng(seed),
    )


class TestSearchStats:
    @pytest.mark.parametrize("search", [SEARCH_FULL, SEARCH_FRONTIER])
    def test_candidates_seen_is_grid_size_per_selection(
        self, xeon, dns_ideal, search
    ):
        space = full_space(xeon, frequency_step=0.05)
        engine = PolicySearchEngine(
            xeon, space, mean_qos_from_baseline(0.8), search=search,
            cache=CharacterizationCache(),
        )
        utilizations = (0.2, 0.35, 0.5)
        for seed, utilization in enumerate(utilizations):
            engine.select(_jobs(dns_ideal, utilization, seed), utilization)
        stats = engine.stats
        assert stats.selections == len(utilizations)
        assert stats.candidates_seen == sum(space.size(u) for u in utilizations)
        if search == SEARCH_FULL:
            assert stats.candidates_evaluated == stats.candidates_seen
        else:
            assert stats.frontier_selections == len(utilizations)
            assert stats.candidates_evaluated < stats.candidates_seen

    def test_frontier_fallback_to_full_counts_the_grid_once(
        self, xeon, dns_ideal
    ):
        space = full_space(xeon, frequency_step=0.05)
        needle = PercentileResponseTimeConstraint(deadline=1e-6)
        engine = PolicySearchEngine(xeon, space, needle, search=SEARCH_FRONTIER)
        engine.select(_jobs(dns_ideal, 0.4, 9), 0.4)
        stats = engine.stats
        assert stats.fallback_full == stats.full_selections == 1
        assert stats.candidates_seen == space.size(0.4)
        # The probes of the abandoned frontier pass plus the whole grid.
        assert stats.candidates_evaluated > stats.candidates_seen


class TestRetention:
    """What a frontier search keeps alive once ``select`` returns."""

    def test_probes_release_their_per_job_arrays(
        self, xeon, dns_ideal, monkeypatch
    ):
        probes: list = []
        arrays: list[weakref.ref] = []
        probe_init = search_module._Probe.__init__
        batch_arrays = kernel_module._GapBatch.arrays

        def recording_init(self, solution, qos):
            probe_init(self, solution, qos)
            probes.append(self)  # kept alive: a probe holding arrays shows

        def recording_arrays(self):
            if self._arrays is None:
                # A new assembly: every earlier probe has let go of its
                # arrays, so at most one probe's arrays are ever alive.
                assert all(ref() is None for ref in arrays)
            assembled = batch_arrays(self)
            arrays.extend(weakref.ref(array) for array in assembled)
            return assembled

        monkeypatch.setattr(search_module._Probe, "__init__", recording_init)
        monkeypatch.setattr(kernel_module._GapBatch, "arrays", recording_arrays)
        engine = PolicySearchEngine(
            xeon, full_space(xeon, frequency_step=0.05),
            mean_qos_from_baseline(0.8), search=SEARCH_FRONTIER,
        )
        for seed, utilization in enumerate((0.3, 0.35)):
            engine.select(_jobs(dns_ideal, utilization, seed), utilization)
        assert engine.stats.frontier_selections == 2
        assert any(probe.slack_computed for probe in probes)
        assert arrays and all(ref() is None for ref in arrays)

    def test_engine_keeps_only_the_last_grid(self, xeon, dns_ideal):
        space = full_space(xeon, frequency_step=0.05)
        engine = PolicySearchEngine(
            xeon, space, mean_qos_from_baseline(0.8), search=SEARCH_FRONTIER
        )
        utilizations = (0.1, 0.5, 0.8, 0.5)
        for seed, utilization in enumerate(utilizations):
            engine.select(_jobs(dns_ideal, utilization, seed), utilization)
            assert len(engine._grids) <= 1
        axes = {space.candidate_frequencies(u).tobytes() for u in utilizations}
        assert len(axes) > 1

    @pytest.mark.parametrize("qos_kind", ["mean", "p95"])
    def test_winner_row_matches_a_fresh_evaluation(self, xeon, dns_ideal, qos_kind):
        qos = (
            mean_qos_from_baseline(0.8)
            if qos_kind == "mean"
            else percentile_qos_from_baseline(0.8, dns_ideal.mean_service_time)
        )
        engine = PolicySearchEngine(
            xeon, full_space(xeon, frequency_step=0.05), qos,
            search=SEARCH_FRONTIER,
        )
        jobs = _jobs(dns_ideal, 0.4, 3)
        best = engine.select(jobs, 0.4).best
        assert engine.stats.frontier_selections == 1
        fresh = evaluation_from_result(
            best.policy,
            TraceKernel(jobs, xeon).evaluate(
                best.policy.frequency, best.policy.sleep
            ),
            qos,
        )
        assert (
            best.average_power,
            best.mean_response_time,
            best.p95_response_time,
            best.qos_slack,
        ) == (
            fresh.average_power,
            fresh.mean_response_time,
            fresh.p95_response_time,
            fresh.qos_slack,
        )
        assert best == fresh


class TestCharacterizationCache:
    def test_selection_cache_hits_on_identical_inputs(self, xeon, dns_ideal):
        cache = CharacterizationCache()
        qos = mean_qos_from_baseline(0.8)
        manager = PolicyManager(
            xeon, full_space(xeon, frequency_step=0.1), qos,
            seed=0, search=SEARCH_FRONTIER, cache=cache,
        )
        jobs = generate_jobs(
            dns_ideal, num_jobs=400, utilization=0.3,
            rng=np.random.default_rng(2),
        )
        first = manager.select(jobs, 0.3)
        second = manager.select(jobs, 0.3)
        assert second is first  # whole selection reused
        assert cache.stats.selection_hits == 1
        # A different utilisation is a different key.
        manager.select(jobs, 0.35)
        assert cache.stats.selection_hits == 1

    def test_table_cache_round_trip(self, xeon, dns_ideal):
        cache = CharacterizationCache()
        qos = mean_qos_from_baseline(0.8)
        manager = PolicyManager(
            xeon, full_space(xeon, frequency_step=0.1), qos, seed=0, cache=cache
        )
        jobs = generate_jobs(
            dns_ideal, num_jobs=400, utilization=0.3,
            rng=np.random.default_rng(3),
        )
        table = manager.characterize(jobs, 0.3)
        again = manager.characterize(jobs, 0.3)
        assert again is table
        assert cache.stats.table_hits == 1

    def test_cache_distinguishes_qos_and_model(self, xeon, atom, dns_ideal):
        cache = CharacterizationCache()
        jobs = generate_jobs(
            dns_ideal, num_jobs=300, utilization=0.3,
            rng=np.random.default_rng(4),
        )
        selections = []
        for power_model, rho in ((xeon, 0.8), (xeon, 0.7), (atom, 0.8)):
            manager = PolicyManager(
                power_model,
                full_space(power_model, frequency_step=0.1),
                mean_qos_from_baseline(rho),
                seed=0,
                search=SEARCH_FRONTIER,
                cache=cache,
            )
            selections.append(manager.select(jobs, 0.3))
        # Three distinct keys: no cross-talk between configurations.
        assert cache.stats.selection_hits == 0
        assert cache.stats.selection_misses == 3

    def test_lru_eviction(self):
        cache = CharacterizationCache(max_tables=2)
        cache.store_table(("a",), (1,))
        cache.store_table(("b",), (2,))
        cache.store_table(("c",), (3,))
        assert cache.lookup_table(("a",)) is None
        assert cache.lookup_table(("c",)) == (3,)

    def test_kernel_reuse_across_engines(self, xeon, dns_ideal):
        cache = CharacterizationCache()
        jobs = generate_jobs(
            dns_ideal, num_jobs=300, utilization=0.3,
            rng=np.random.default_rng(6),
        )
        for rho in (0.8, 0.7):  # different QoS, same trace/platform
            manager = PolicyManager(
                xeon,
                full_space(xeon, frequency_step=0.1),
                mean_qos_from_baseline(rho),
                seed=0,
                search=SEARCH_FRONTIER,
                cache=cache,
            )
            manager.select(jobs, 0.3)
        assert cache.stats.kernel_hits >= 1

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            CharacterizationCache(max_tables=0)


class TestEngineSurface:
    def test_manager_exposes_mode_and_stats(self, xeon):
        qos = mean_qos_from_baseline(0.8)
        plain = PolicyManager(xeon, full_space(xeon), qos)
        assert plain.search == SEARCH_FULL
        assert plain.search_stats is None
        fast = PolicyManager(xeon, full_space(xeon), qos, search=SEARCH_FRONTIER)
        assert fast.search == SEARCH_FRONTIER
        assert fast.search_stats is not None

    def test_attach_search_cache_builds_engine(self, xeon):
        qos = mean_qos_from_baseline(0.8)
        manager = PolicyManager(xeon, full_space(xeon), qos)
        cache = CharacterizationCache()
        manager.attach_search_cache(cache)
        assert manager.search_cache is cache

    def test_invalid_mode_rejected(self, xeon):
        with pytest.raises(ConfigurationError):
            PolicyManager(
                xeon, full_space(xeon), mean_qos_from_baseline(0.8),
                search="bisect",
            )

    def test_engine_full_mode_matches_plain_manager(self, xeon, dns_ideal):
        qos = mean_qos_from_baseline(0.8)
        space = full_space(xeon, frequency_step=0.05)
        plain = PolicyManager(xeon, space, qos, seed=0)
        engined = PolicyManager(
            xeon, space, qos, seed=0, cache=CharacterizationCache()
        )
        jobs = generate_jobs(
            dns_ideal, num_jobs=500, utilization=0.45,
            rng=np.random.default_rng(8),
        )
        a = plain.select(jobs, 0.45)
        b = engined.select(jobs, 0.45)
        assert a.policy == b.policy
        assert [e.average_power for e in a.evaluations] == [
            e.average_power for e in b.evaluations
        ]


class TestRuntimeIntegration:
    """The engine inside the epoch loop: run() and stream() parity."""

    def _runtime(self, xeon, spec, search, cache=None):
        strategy = sleepscale_strategy(
            xeon,
            mean_qos_from_baseline(0.8),
            characterization_jobs=200,
            seed=0,
            search=search,
            cache=cache,
        )
        runtime = SleepScaleRuntime(
            xeon,
            spec,
            strategy,
            NaivePreviousPredictor(),
            RuntimeConfig(
                epoch_minutes=1.0, rho_b=0.8, over_provisioning=0.35
            ),
        )
        return runtime, strategy

    def test_epoch_loop_parity_run_and_stream(self, xeon, dns_ideal):
        jobs = generate_jobs(
            dns_ideal, num_jobs=1500, utilization=0.4,
            rng=np.random.default_rng(10),
        )
        full_rt, _ = self._runtime(xeon, dns_ideal, SEARCH_FULL)
        oracle = full_rt.run(jobs)
        frontier_rt, strategy = self._runtime(
            xeon, dns_ideal, SEARCH_FRONTIER, CharacterizationCache()
        )
        fast = frontier_rt.run(jobs)
        assert [e.policy_label for e in fast.epochs] == [
            e.policy_label for e in oracle.epochs
        ]
        assert [e.selected_frequency for e in fast.epochs] == [
            e.selected_frequency for e in oracle.epochs
        ]
        assert fast.total_energy == oracle.total_energy
        assert fast.extra["search"] == SEARCH_FRONTIER
        assert oracle.extra["search"] == SEARCH_FULL
        # Streamed chunks reproduce the one-shot run exactly.
        streamed_rt, _ = self._runtime(
            xeon, dns_ideal, SEARCH_FRONTIER, CharacterizationCache()
        )
        session = streamed_rt.stream()
        third = len(jobs) // 3
        session.feed(jobs.arrival_times[:third], jobs.service_demands[:third])
        session.feed(jobs.arrival_times[third:], jobs.service_demands[third:])
        chunked = session.finish()
        assert chunked.total_energy == fast.total_energy
        assert [e.policy_label for e in chunked.epochs] == [
            e.policy_label for e in fast.epochs
        ]


class TestFarmThreading:
    def test_server_farm_attaches_shared_cache(self, xeon, dns_ideal):
        cache = CharacterizationCache()
        built = []

        def factory():
            strategy = sleepscale_strategy(
                xeon,
                mean_qos_from_baseline(0.8),
                characterization_jobs=150,
                seed=0,
                search=SEARCH_FRONTIER,
            )
            built.append(strategy)
            return strategy

        farm = ServerFarm(
            servers=tuple(
                ServerSpec(
                    name=f"s{index}",
                    power_model=xeon,
                    strategy_factory=factory,
                    predictor_factory=lambda: NaivePreviousPredictor(),
                    config=RuntimeConfig(epoch_minutes=1.0),
                )
                for index in range(2)
            ),
            spec=dns_ideal,
            search_cache=cache,
        )
        jobs = generate_jobs(
            dns_ideal, num_jobs=600, utilization=0.4,
            rng=np.random.default_rng(12),
        )
        farm.run(jobs)
        assert built and all(
            strategy.policy_manager.search_cache is cache for strategy in built
        )

    def test_cluster_runtime_passes_cache_through(self, xeon, dns_ideal):
        cache = CharacterizationCache()
        cluster = ClusterRuntime(
            num_servers=2,
            power_model=xeon,
            spec=dns_ideal,
            strategy_factory=lambda index: sleepscale_strategy(
                xeon,
                mean_qos_from_baseline(0.8),
                characterization_jobs=150,
                seed=index,
                search=SEARCH_FRONTIER,
            ),
            predictor_factory=lambda index: NaivePreviousPredictor(),
            config=RuntimeConfig(epoch_minutes=1.0),
            search_cache=cache,
        )
        assert cluster.as_server_farm().search_cache is cache
