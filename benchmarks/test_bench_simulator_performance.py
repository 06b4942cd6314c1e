"""Micro-benchmarks of the policy-evaluation primitive.

Section 4.1 of the paper reports that evaluating a single policy (one
frequency and low-power state combination, 10,000 jobs) takes about 6.3 ms in
Matlab, and argues the per-epoch policy search is therefore negligible
against a minutes-long update interval.  These benchmarks measure the same
primitive for this implementation: one Algorithm 1 evaluation, a whole
policy-space characterisation, and the analytic (closed-form) evaluation that
could replace simulation for the idealised model.

Both simulation backends are benchmarked — the vectorized kernel (the
default everywhere) and the per-job reference loop it replaced — so the
speedup and any future regression are visible in one report.
"""

from __future__ import annotations

import pytest

from repro.analytic.mm1_sleep import evaluate_policy
from repro.core.policy_manager import PolicyManager
from repro.core.qos import MeanResponseTimeConstraint
from repro.policies.space import full_space, single_state_space
from repro.power.platform import xeon_power_model
from repro.power.states import C6_S0I, C6_S3
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import TraceKernel
from repro.workloads.generator import generate_jobs
from repro.workloads.spec import dns_workload, google_workload


@pytest.fixture(scope="module")
def power_model():
    return xeon_power_model()


@pytest.fixture(scope="module")
def job_stream():
    return generate_jobs(dns_workload(empirical=False), num_jobs=10_000, utilization=0.3, seed=0)


def make_manager(power_model, backend):
    return PolicyManager(
        power_model=power_model,
        policy_space=full_space(power_model, frequency_step=0.1),
        qos=MeanResponseTimeConstraint(5.0),
        characterization_jobs=1_000,
        seed=0,
        backend=backend,
    )


@pytest.mark.benchmark(group="simulator")
def test_bench_single_policy_evaluation(benchmark, power_model, job_stream):
    """One Algorithm 1 run: 10,000 jobs under one (frequency, state) policy."""
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    result = benchmark(
        simulate_trace, job_stream, 0.7, sleep, power_model
    )
    assert result.num_jobs == 10_000


@pytest.mark.benchmark(group="simulator")
def test_bench_single_policy_evaluation_reference(benchmark, power_model, job_stream):
    """The same single-policy run through the per-job reference loop."""
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    result = benchmark(
        simulate_trace, job_stream, 0.7, sleep, power_model, backend="reference"
    )
    assert result.num_jobs == 10_000


@pytest.mark.benchmark(group="simulator")
def test_bench_warm_kernel_evaluation(benchmark, power_model, job_stream):
    """One policy evaluation with the trace kernel's per-frequency cache warm.

    This is the amortised per-candidate cost inside a batched policy-space
    characterisation, where many sleep states share each frequency.
    """
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    kernel = TraceKernel(job_stream, power_model)
    kernel.evaluate(0.7, sleep)
    result = benchmark(kernel.evaluate, 0.7, sleep)
    assert result.num_jobs == 10_000


@pytest.mark.benchmark(group="simulator")
def test_bench_policy_space_characterization(benchmark, power_model):
    """A full per-epoch policy search over the default SleepScale space."""
    manager = make_manager(power_model, "vectorized")
    spec = dns_workload(empirical=False)
    jobs = generate_jobs(spec, num_jobs=1_000, utilization=0.3, seed=1)

    selection = benchmark(manager.select, jobs, 0.3)
    assert selection.feasible


@pytest.mark.benchmark(group="simulator")
def test_bench_deep_sleep_characterization(benchmark, power_model):
    """The policy space restricted to C6S3 (1 s wake-up) on Google-like jobs.

    Every idle gap is shorter than the wake-up, so each candidate resolves a
    long chain of closed gaps: the vectorized wake-delay chain path.
    """
    manager = PolicyManager(
        power_model=power_model,
        policy_space=single_state_space(power_model, C6_S3, frequency_step=0.1),
        qos=MeanResponseTimeConstraint(5.0),
        seed=0,
    )
    jobs = generate_jobs(
        google_workload(empirical=False), num_jobs=2_000, utilization=0.3, seed=1
    )

    evaluations = benchmark(manager.characterize, jobs, 0.3)
    assert len(evaluations) == manager.policy_space.size(0.3)
    assert all(evaluation.mean_response_time > 0.5 for evaluation in evaluations)


@pytest.mark.benchmark(group="simulator")
def test_bench_policy_space_characterization_reference(benchmark, power_model):
    """The same policy search forced through the per-job reference loop."""
    manager = make_manager(power_model, "reference")
    spec = dns_workload(empirical=False)
    jobs = generate_jobs(spec, num_jobs=1_000, utilization=0.3, seed=1)

    selection = benchmark(manager.select, jobs, 0.3)
    assert selection.feasible


@pytest.mark.benchmark(group="simulator")
def test_bench_analytic_policy_evaluation(benchmark, power_model):
    """The closed-form evaluation of one policy (no simulation at all)."""
    spec = dns_workload(empirical=False)
    sleep = power_model.immediate_sleep_sequence(C6_S0I, 0.7)
    arrival_rate = 0.3 * spec.service_rate

    point = benchmark(
        evaluate_policy,
        arrival_rate,
        spec.service_rate,
        0.7,
        sleep,
        power_model.active_power(0.7),
    )
    assert point.average_power > 0
