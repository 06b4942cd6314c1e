"""``PriorityDispatcher`` pinned to a plain transcription of its rule.

The priority dispatcher has no loop engine of its own, so
``tests/cluster/priority_reference.py`` restates the documented rule
(least-loaded inside the tenant's own block, else the first tracked-idle
lower-priority server) and this suite holds the dispatcher to it byte for
byte, one-shot and chunked, across tenant tables, loads and speed models.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.tenancy import PriorityDispatcher, TenantSpec
from repro.core.qos import mean_qos_from_baseline
from repro.workloads.jobs import JobTrace
from tests.cluster.priority_reference import reference_priority_assignment

MEAN_SERVICE = 0.0042

#: Tenant tables: two and three tenants with mixed weights and priorities
#: (including a priority tie, which keeps table order).
TENANT_TABLES = {
    "two": (
        TenantSpec(name="victim", qos=mean_qos_from_baseline(0.8), priority=1),
        TenantSpec(name="crowd", qos=mean_qos_from_baseline(0.8), weight=2.0),
    ),
    "three": (
        TenantSpec(name="batch", qos=mean_qos_from_baseline(0.8), weight=2.0),
        TenantSpec(name="web", qos=mean_qos_from_baseline(0.8), priority=2),
        TenantSpec(name="api", qos=mean_qos_from_baseline(0.8), weight=1.5),
    ),
}

#: Heterogeneous fleet: fast and slow servers interleaved across blocks.
SPEEDS = [1.0, 0.7, 1.0, 0.5, 0.9, 0.7]

CHUNKS = [1, 7, 997, None]


def labelled_jobs(num_jobs: int, utilization: float, num_tenants: int, seed: int):
    """Poisson arrivals at *utilization* of one server, random tenant labels."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(MEAN_SERVICE / utilization, num_jobs)
    return JobTrace(
        np.cumsum(gaps),
        rng.exponential(MEAN_SERVICE, num_jobs),
        tenant_ids=rng.integers(0, num_tenants, num_jobs),
    )


def chunked_assignment(dispatcher, jobs, num_servers, speeds, chunk):
    assigner = dispatcher.assigner(
        num_servers,
        server_speeds=speeds,
        total_jobs=len(jobs),
        tenant_ids=jobs.tenant_ids,
    )
    step = len(jobs) if chunk is None else chunk
    parts = [
        assigner.assign_chunk(
            jobs.arrival_times[i : i + step], jobs.service_demands[i : i + step]
        )
        for i in range(0, len(jobs), step)
    ]
    return np.concatenate(parts)


class TestPriorityMatchesReference:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("utilization", [0.1, 0.9, 3.0])
    @pytest.mark.parametrize("speeds", [None, SPEEDS], ids=["homogeneous", "mixed"])
    @pytest.mark.parametrize("table", sorted(TENANT_TABLES))
    def test_byte_identical_to_reference(self, table, speeds, utilization, chunk):
        tenants = TENANT_TABLES[table]
        jobs = labelled_jobs(3000, utilization, len(tenants), seed=len(tenants))
        expected = reference_priority_assignment(
            jobs.arrival_times,
            jobs.service_demands,
            jobs.tenant_ids,
            tenants,
            len(SPEEDS),
            speeds,
        )
        actual = chunked_assignment(
            PriorityDispatcher(tenants), jobs, len(SPEEDS), speeds, chunk
        )
        np.testing.assert_array_equal(actual, expected)

    def test_overflow_is_exercised(self):
        """The saturated case really leaves the own block, so the overflow
        branch of the rule is under test and not only the block scan."""
        tenants = TENANT_TABLES["two"]
        jobs = labelled_jobs(3000, 3.0, 2, seed=2)
        assignment = PriorityDispatcher(tenants).assign(jobs, len(SPEEDS))
        victim_block_end = 2  # victim (priority 1) owns the top block
        victim = assignment[np.asarray(jobs.tenant_ids) == 0]
        assert (victim >= victim_block_end).any()

    @pytest.mark.parametrize("speeds", [None, SPEEDS], ids=["homogeneous", "mixed"])
    def test_unlabelled_single_tenant_matches_reference(self, speeds):
        tenants = (TenantSpec(name="solo", qos=mean_qos_from_baseline(0.8)),)
        jobs = labelled_jobs(2000, 3.0, 1, seed=5).with_tenant_ids(None)
        expected = reference_priority_assignment(
            jobs.arrival_times, jobs.service_demands, None, tenants, 6, speeds
        )
        actual = PriorityDispatcher(tenants).assign(jobs, 6, server_speeds=speeds)
        np.testing.assert_array_equal(actual, expected)
