"""Batched characterisation is the per-policy evaluation, row for row.

``PolicyManager.characterize_batch`` groups candidates by frequency and
resolves each group in one kernel pass (``TraceKernel.evaluate_many``).
Every row must be byte-identical to characterising the policy alone —
``evaluation_from_result(p, kernel.evaluate(...))`` — on both platforms,
under every QoS form, for multi-state sequences (the general gap branch),
degenerate traces and a trace that starts behind a busy backlog.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.tenancy import CompositeQosConstraint, TenantSpec
from repro.core.policy_manager import (
    PolicyManager,
    characterize_on_kernel,
    evaluation_from_result,
)
from repro.core.qos import MeanResponseTimeConstraint, PercentileResponseTimeConstraint
from repro.policies.space import PolicySpace
from repro.simulation.kernel import TraceKernel
from repro.workloads.generator import generate_jobs
from repro.workloads.jobs import JobTrace
from repro.workloads.spec import google_workload

QOS_FORMS = {
    "mean": MeanResponseTimeConstraint(5.0),
    "p95": PercentileResponseTimeConstraint(deadline=0.05),
    "p99": PercentileResponseTimeConstraint(deadline=0.05, percentile=99.0),
    "per-tenant": CompositeQosConstraint(
        (
            TenantSpec("web", MeanResponseTimeConstraint(8.0)),
            TenantSpec("batch", PercentileResponseTimeConstraint(deadline=0.2)),
        )
    ),
}

FLOAT_FIELDS = (
    "average_power",
    "mean_response_time",
    "normalized_mean_response_time",
    "p95_response_time",
    "qos_slack",
)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def assert_rows_identical(batched, reference) -> None:
    assert len(batched) == len(reference)
    for fast, slow in zip(batched, reference, strict=True):
        assert fast.policy == slow.policy
        assert fast.meets_qos == slow.meets_qos
        for name in FLOAT_FIELDS:
            assert _bits(getattr(fast, name)) == _bits(getattr(slow, name)), name


def assert_results_identical(fast, slow) -> None:
    assert fast.response_times.tobytes() == slow.response_times.tobytes()
    assert fast.waiting_times.tobytes() == slow.waiting_times.tobytes()
    assert fast.energy == slow.energy
    assert _bits(fast.horizon) == _bits(slow.horizon)
    assert list(fast.state_residency.items()) == list(slow.state_residency.items())
    assert fast.wake_up_count == slow.wake_up_count
    assert _bits(fast.mean_response_time) == _bits(slow.mean_response_time)
    for percentile in (50.0, 95.0, 99.0):
        assert _bits(fast.response_time_percentile(percentile)) == _bits(
            slow.response_time_percentile(percentile)
        )


def per_policy_rows(kernel_factory, candidates, qos):
    """The oracle: each policy characterised on its own, in order."""
    return tuple(
        evaluation_from_result(
            policy, kernel_factory().evaluate(policy.frequency, policy.sleep), qos
        )
        for policy in candidates
    )


def google_trace(num_jobs: int = 2_000, utilization: float = 0.3) -> JobTrace:
    return generate_jobs(
        google_workload(empirical=False),
        num_jobs=num_jobs,
        utilization=utilization,
        seed=11,
    )


SPACES = {
    "immediate": {},
    "multi-state": {"deep_entry_delays": (0.002, 0.05), "include_dvfs_only": True},
}


@pytest.fixture(params=["xeon", "atom"])
def platform(request):
    return request.getfixturevalue(request.param)


class TestCharacterizeBatchParity:
    @pytest.mark.parametrize("qos_name", sorted(QOS_FORMS))
    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_rows_equal_per_policy_evaluation(self, platform, qos_name, space_name):
        qos = QOS_FORMS[qos_name]
        space = PolicySpace(
            power_model=platform, frequency_step=0.1, **SPACES[space_name]
        )
        manager = PolicyManager(platform, space, qos)
        jobs = google_trace()
        batched = manager.characterize_batch(jobs, 0.3)
        reference = per_policy_rows(
            lambda: TraceKernel(jobs, platform),
            space.candidate_policies(0.3),
            qos,
        )
        assert_rows_identical(batched, reference)

    @pytest.mark.parametrize(
        "jobs",
        [JobTrace.empty(), JobTrace([3.0], [0.5])],
        ids=["zero-job", "one-job"],
    )
    @pytest.mark.parametrize("qos_name", ["mean", "p95"])
    def test_degenerate_traces(self, platform, jobs, qos_name):
        qos = QOS_FORMS[qos_name]
        space = PolicySpace(power_model=platform, **SPACES["multi-state"])
        batched = PolicyManager(platform, space, qos).characterize_batch(jobs, 0.3)
        reference = per_policy_rows(
            lambda: TraceKernel(jobs, platform), space.candidate_policies(0.3), qos
        )
        assert_rows_identical(batched, reference)

    @pytest.mark.parametrize("space_name", sorted(SPACES))
    def test_trace_behind_a_busy_backlog(self, platform, space_name):
        # The first job arrives while earlier work still occupies the
        # server, so the no-wake busy period starts at ``busy_until``.
        jobs = google_trace(num_jobs=800, utilization=0.5).shifted(2.0)
        start = 1.0
        busy_until = float(jobs.arrival_times[0]) + 0.5

        def kernel():
            return TraceKernel(
                jobs, platform, start_time=start, busy_until=busy_until
            )

        space = PolicySpace(
            power_model=platform, frequency_step=0.1, **SPACES[space_name]
        )
        candidates = space.candidate_policies(0.5)
        qos = QOS_FORMS["p95"]
        assert_rows_identical(
            characterize_on_kernel(kernel(), candidates, qos),
            per_policy_rows(kernel, candidates, qos),
        )


class TestEvaluateMany:
    def test_results_equal_single_evaluations(self, xeon):
        jobs = google_trace()
        space = PolicySpace(power_model=xeon, **SPACES["multi-state"])
        frequency = float(space.candidate_frequencies(0.3)[2])
        sleeps = [
            policy.sleep
            for policy in space.candidate_policies(0.3)
            if policy.frequency == frequency
        ]
        assert len(sleeps) > 5
        batched = TraceKernel(jobs, xeon).evaluate_many(frequency, sleeps)
        for sleep, result in zip(sleeps, batched, strict=True):
            single = TraceKernel(jobs, xeon).evaluate(frequency, sleep)
            assert_results_identical(result, single)

    def test_primed_statistics_are_the_computed_ones(self, atom):
        jobs = google_trace()
        sleeps = [
            policy.sleep
            for policy in PolicySpace(power_model=atom).candidate_policies(0.3)
            if policy.frequency == 1.0
        ]
        for result in TraceKernel(jobs, atom).evaluate_many(1.0, sleeps):
            assert _bits(result.mean_response_time) == _bits(
                float(np.mean(result.response_times))
            )
            assert _bits(result.response_time_percentile(95.0)) == _bits(
                float(np.percentile(result.response_times, 95.0))
            )
