"""The frontier search's power floor and the exactness it buys.

``_PolicyGrid.power_floors`` bounds every cell's average power from below
without a kernel solve; ``FrontierSearch`` orders, prunes and certifies with
it.  These tests pin the three things that must hold:

* named regressions — inputs on which the earlier shape-family search
  (valley bisection plus a flat-band walk) picked a different policy from
  the full-grid oracle, because the C6S3 power curve had two valleys;
* the floor is at or below the solved power on every cell, under both
  simulation backends, every variant kind and every scaling kind;
* frontier equals full on random traces, grids, QoS kinds and spaces.

Hypothesis runs ``derandomize=True`` so the suite stays deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy_manager import PolicyManager
from repro.core.qos import mean_qos_from_baseline, percentile_qos_from_baseline
from repro.core.search import SEARCH_FRONTIER, SEARCH_FULL, _PolicyGrid
from repro.policies.space import PolicySpace, dvfs_only_space, full_space
from repro.power.platform import atom_power_model, xeon_power_model
from repro.power.states import C0I_S0I, C6_S3, LOW_POWER_STATES
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import TraceKernel
from repro.simulation.service_scaling import ServiceScaling
from repro.workloads.generator import generate_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import dns_workload

_MODELS = {"xeon": xeon_power_model(), "atom": atom_power_model()}
_DNS = dns_workload(empirical=False)


def _fuzz_case(seed: int, case: int) -> tuple[float, int]:
    """Utilisation and job seed of one case of the equivalence fuzz loop."""
    rng = np.random.default_rng(seed)
    for _ in range(case + 1):
        utilization = float(rng.uniform(0.02, 0.95))
        jobs_seed = int(rng.integers(1 << 30))
    return utilization, jobs_seed


def _select_both(power_model, space, qos, jobs, utilization):
    return [
        PolicyManager(power_model, space, qos, seed=0, search=search).select(
            jobs, utilization
        )
        for search in (SEARCH_FULL, SEARCH_FRONTIER)
    ]


class TestTwoValleyRegressions:
    """Atom, step 0.02, p95 QoS, 700 jobs: C6S3 curves with two valleys."""

    @pytest.mark.parametrize(
        "space_kind, seed, case",
        [("full", 228962200, 1), ("full", 845659391, 3), ("deep", 4173871014, 3)],
    )
    def test_frontier_picks_the_oracle_policy(self, space_kind, seed, case):
        atom = _MODELS["atom"]
        utilization, jobs_seed = _fuzz_case(seed, case)
        space = (
            full_space(atom, frequency_step=0.02)
            if space_kind == "full"
            else PolicySpace(
                power_model=atom, frequency_step=0.02, deep_entry_delays=(0.05,)
            )
        )
        qos = percentile_qos_from_baseline(0.8, _DNS.mean_service_time)
        jobs = generate_jobs(
            _DNS, num_jobs=700, utilization=utilization,
            rng=np.random.default_rng(jobs_seed),
        )
        oracle, fast = _select_both(atom, space, qos, jobs, utilization)
        assert fast.policy == oracle.policy
        assert fast.best.average_power == oracle.best.average_power

    def test_first_case_is_the_documented_two_valley_curve(self):
        atom = _MODELS["atom"]
        utilization, jobs_seed = _fuzz_case(228962200, 1)
        assert utilization == pytest.approx(0.0839, abs=5e-5)
        jobs = generate_jobs(
            _DNS, num_jobs=700, utilization=utilization,
            rng=np.random.default_rng(jobs_seed),
        )
        qos = percentile_qos_from_baseline(0.8, _DNS.mean_service_time)
        space = full_space(atom, frequency_step=0.02)
        oracle, fast = _select_both(atom, space, qos, jobs, utilization)
        assert oracle.policy.sleep.name == C6_S3.name
        assert oracle.policy.frequency == pytest.approx(0.63, abs=0.005)
        assert oracle.best.average_power == pytest.approx(21.9787, abs=1e-4)
        assert fast.best == oracle.best


# ---------------------------------------------------------------------------
# floor <= solved power
# ---------------------------------------------------------------------------


@st.composite
def traces(draw) -> JobTrace:
    """Random traces plus the tight shapes: one job, one busy period."""
    kind = draw(st.sampled_from(["random", "one-job", "one-busy-period"]))
    count = 1 if kind == "one-job" else draw(st.integers(min_value=2, max_value=40))
    demands = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=0.5), min_size=count, max_size=count
        )
    )
    if kind == "random":
        gaps = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=3.0), min_size=count, max_size=count
            )
        )
    else:
        # Every job arrives before the previous one can finish even at full
        # speed, so the server never idles between them.
        gaps = [0.0] + [
            draw(st.floats(min_value=0.0, max_value=1.0)) * demand
            for demand in demands[:-1]
        ]
    # Far-from-zero starts put absolute rounding into the solved horizon.
    start = draw(st.sampled_from([0.0, 1e3, 1e6])) + draw(
        st.floats(min_value=0.0, max_value=10.0)
    )
    return JobTrace.from_interarrivals([start + gaps[0], *gaps[1:]], demands)


@st.composite
def floor_cases(draw):
    power_model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    scaling = ServiceScaling(beta=draw(st.sampled_from([0.0, 0.5, 1.0])))
    delay = draw(st.floats(min_value=1e-4, max_value=2.0))
    space = PolicySpace(
        power_model=power_model,
        frequency_step=0.1,
        deep_entry_delays=(delay,),
        include_dvfs_only=True,
        scaling=scaling,
    )
    utilization = draw(st.floats(min_value=0.0, max_value=0.9))
    return draw(traces()), power_model, scaling, space, utilization


def _assert_floors_hold(case, backend):
    jobs, power_model, scaling, space, utilization = case
    grid = _PolicyGrid.build(space, utilization)
    floors = grid.power_floors(jobs, power_model, scaling)
    assert floors.shape == (grid.num_frequencies, grid.num_variants)
    kernel = TraceKernel(jobs, power_model, scaling=scaling)
    for freq_index in range(grid.num_frequencies):
        for variant in range(grid.num_variants):
            policy = grid.policy_at(freq_index, variant)
            if backend == "vectorized":
                power = kernel.solve(policy.frequency, policy.sleep).average_power
            else:
                power = simulate_trace(
                    jobs, policy.frequency, policy.sleep, power_model,
                    scaling=scaling, backend=backend,
                ).average_power
            assert floors[freq_index, variant] <= power, (policy, power)


class TestPowerFloor:
    @given(case=floor_cases())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_floor_below_solved_power_vectorized(self, case):
        _assert_floors_hold(case, "vectorized")

    @given(case=floor_cases())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_floor_below_solved_power_reference(self, case):
        _assert_floors_hold(case, "reference")

    @pytest.mark.parametrize(
        "shape",
        [
            "dvfs-only, many jobs",
            "wake-free, many jobs",
            "every variant, one job",
            "every variant, one instant",
        ],
    )
    def test_floor_is_tight_where_exact(self, shape):
        # No idle time to bound (one job, one arrival instant), idling at the
        # active power (DVFS-only), or no wake-up to delay the no-wake
        # horizon (C0(i)S0(i)): the floor is the solved power up to
        # rounding, so the margin keeps it just below.
        xeon = _MODELS["xeon"]
        if shape.startswith("dvfs"):
            space = dvfs_only_space(xeon, frequency_step=0.05)
            jobs = generate_jobs(_DNS, num_jobs=300, utilization=0.3, seed=4)
        elif shape.startswith("wake-free"):
            space = PolicySpace(
                power_model=xeon, states=(C0I_S0I,), frequency_step=0.05
            )
            jobs = generate_jobs(_DNS, num_jobs=300, utilization=0.3, seed=4)
        else:
            space = PolicySpace(
                power_model=xeon, frequency_step=0.05, deep_entry_delays=(0.01,),
                include_dvfs_only=True,
            )
            count = 1 if shape.endswith("one job") else 5
            jobs = JobTrace([3.0] * count, [0.02 * (k + 1) for k in range(count)])
        grid = _PolicyGrid.build(space, 0.3)
        floors = grid.power_floors(jobs, xeon, space.scaling)
        kernel = TraceKernel(jobs, xeon)
        for freq_index in range(grid.num_frequencies):
            for variant in range(grid.num_variants):
                policy = grid.policy_at(freq_index, variant)
                power = kernel.solve(policy.frequency, policy.sleep).average_power
                floor = floors[freq_index, variant]
                assert power * (1.0 - 2e-9) <= floor <= power

    def test_floor_holds_far_from_time_zero(self):
        # At t = 1e5 the solved horizon of a 4.2 ms job is off by an ulp of
        # 1e5, a relative error of about 3e-9, above the fixed margin.
        xeon = _MODELS["xeon"]
        space = full_space(xeon, frequency_step=0.05, include_dvfs_only=True)
        grid = _PolicyGrid.build(space, 0.3)
        jobs = JobTrace([1e5], [0.0042])
        floors = grid.power_floors(jobs, xeon, space.scaling)
        kernel = TraceKernel(jobs, xeon)
        for freq_index in range(grid.num_frequencies):
            for variant in range(grid.num_variants):
                policy = grid.policy_at(freq_index, variant)
                power = kernel.solve(policy.frequency, policy.sleep).average_power
                assert floors[freq_index, variant] <= power, policy

    def test_zero_demand_instant_trace_has_no_floor(self):
        # The kernel replaces the empty horizon of such a trace by a tiny
        # constant, so the solved power is 0 and only a zero floor holds.
        xeon = _MODELS["xeon"]
        jobs = JobTrace([1.0, 1.0], [0.0, 0.0])
        grid = _PolicyGrid.build(full_space(xeon, include_dvfs_only=True), 0.3)
        floors = grid.power_floors(jobs, xeon, ServiceScaling())
        assert np.all(floors == 0.0)
        dvfs = grid.policy_at(0, grid.num_variants - 1)
        solved = TraceKernel(jobs, xeon).solve(dvfs.frequency, dvfs.sleep)
        assert solved.average_power == 0.0

    def test_array_power_matches_scalar_power(self):
        for power_model in _MODELS.values():
            frequencies = np.linspace(0.05, 1.0, 20)
            for state in LOW_POWER_STATES:
                array = np.broadcast_to(
                    power_model.system_power(state, frequencies), frequencies.shape
                )
                scalar = [power_model.system_power(state, float(f)) for f in frequencies]
                np.testing.assert_allclose(array, scalar, rtol=1e-15)
            np.testing.assert_allclose(
                power_model.active_power(frequencies),
                [power_model.active_power(float(f)) for f in frequencies],
                rtol=1e-15,
            )


# ---------------------------------------------------------------------------
# frontier == full
# ---------------------------------------------------------------------------


_SPACES = {
    "full": lambda model, step: full_space(model, frequency_step=step),
    "single": lambda model, step: PolicySpace(
        power_model=model, states=(C6_S3,), frequency_step=step
    ),
    "dvfs": lambda model, step: dvfs_only_space(model, frequency_step=step),
    "deep": lambda model, step: PolicySpace(
        power_model=model, frequency_step=step, deep_entry_delays=(0.05,)
    ),
    "deep-dvfs": lambda model, step: PolicySpace(
        power_model=model,
        frequency_step=step,
        deep_entry_delays=(0.01, 0.5),
        include_dvfs_only=True,
    ),
}


@st.composite
def selection_cases(draw):
    power_model = _MODELS[draw(st.sampled_from(sorted(_MODELS)))]
    step = draw(st.sampled_from([0.02, 0.05, 0.1]))
    space = _SPACES[draw(st.sampled_from(sorted(_SPACES)))](power_model, step)
    rho_b = draw(st.sampled_from([0.6, 0.8, 0.9]))
    qos = (
        mean_qos_from_baseline(rho_b)
        if draw(st.booleans())
        else percentile_qos_from_baseline(rho_b, _DNS.mean_service_time)
    )
    utilization = draw(st.floats(min_value=0.02, max_value=0.9))
    jobs = generate_jobs(
        _DNS,
        num_jobs=draw(st.integers(min_value=1, max_value=400)),
        utilization=utilization,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )
    return power_model, space, qos, jobs, utilization


class TestFrontierEqualsFull:
    @given(case=selection_cases())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_same_policy_and_power(self, case):
        power_model, space, qos, jobs, utilization = case
        oracle, fast = _select_both(power_model, space, qos, jobs, utilization)
        assert fast.policy == oracle.policy
        assert fast.feasible == oracle.feasible
        assert fast.best.average_power == oracle.best.average_power
