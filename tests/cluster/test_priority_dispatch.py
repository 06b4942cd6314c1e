"""``PriorityDispatcher`` pinned to a plain transcription of its rule.

The priority dispatcher has no loop engine of its own, so
``tests/cluster/priority_reference.py`` restates the documented rule
(least-loaded inside the tenant's own block, else the first tracked-idle
lower-priority server) and this suite holds the dispatcher to it byte for
byte, one-shot and chunked, across tenant tables, loads and speed models.
The tables cover multi-server blocks (2-3 tenants on 6 servers) and
one-server blocks (the tenant-burst shape, and 3 tenants on 3 servers),
each tenant's solo stream (the bottom tenant's is state-free) and
coarse-decimal traces whose exact ``arrival == busy`` ties reach the
overflow test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.tenancy import PriorityDispatcher, TenantSpec
from repro.core.qos import mean_qos_from_baseline
from repro.exceptions import ConfigurationError
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


#: One server per tenant: the tenant-burst workload's shape (two tenants on
#: two servers) and three tenants on three servers with a priority tie
#: (web and api tie at priority 1 and keep table order above batch).
ONE_SERVER_TABLES = {
    "burst": (
        TenantSpec(name="crowd", qos=mean_qos_from_baseline(0.8)),
        TenantSpec(name="victim", qos=mean_qos_from_baseline(0.8), priority=1),
    ),
    "tie": (
        TenantSpec(name="web", qos=mean_qos_from_baseline(0.8), priority=1),
        TenantSpec(name="batch", qos=mean_qos_from_baseline(0.8)),
        TenantSpec(name="api", qos=mean_qos_from_baseline(0.8), priority=1),
    ),
}
ONE_SERVER_SPEEDS = {"burst": [1.0, 0.5], "tie": [0.7, 1.0, 0.5]}
#: The label of each table's bottom tenant, the one with no lower server.
BOTTOM_TENANT = {"burst": 0, "tie": 1}
SOLO_STREAMS = [
    (table, label)
    for table in sorted(ONE_SERVER_TABLES)
    for label in range(len(ONE_SERVER_TABLES[table]))
]


def solo_jobs(num_jobs: int, utilization: float, label: int, seed: int):
    """One tenant's stream alone, as an isolation replay feeds it."""
    jobs = labelled_jobs(num_jobs, utilization, 1, seed)
    return jobs.with_tenant_ids(np.full(num_jobs, label, dtype=np.int64))


def coarse_decimal_jobs(num_jobs: int, num_tenants: int, seed: int):
    """One-decimal arrivals and demands: finish times often land exactly on
    a later arrival, so ``busy == arrival`` ties reach the overflow test."""
    rng = np.random.default_rng(seed)
    return JobTrace(
        np.round(np.cumsum(rng.exponential(0.1, num_jobs)), 1),
        np.round(rng.exponential(0.2, num_jobs), 1) + 0.1,
        tenant_ids=rng.integers(0, num_tenants, num_jobs),
    )


def assert_matches_reference(jobs, tenants, speeds, chunk):
    num_servers = len(tenants)
    expected = reference_priority_assignment(
        jobs.arrival_times,
        jobs.service_demands,
        jobs.tenant_ids,
        tenants,
        num_servers,
        speeds,
    )
    actual = chunked_assignment(
        PriorityDispatcher(tenants), jobs, num_servers, speeds, chunk
    )
    np.testing.assert_array_equal(actual, expected)


def speed_model(table, speeds):
    return None if speeds == "homogeneous" else ONE_SERVER_SPEEDS[table]


class TestOneServerBlocks:
    """Every block holds one server, so the per-job scan reads the home
    server directly, and a bottom tenant's solo stream is state-free."""

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("utilization", [0.1, 0.9, 3.0])
    @pytest.mark.parametrize("speeds", ["homogeneous", "mixed"])
    @pytest.mark.parametrize("table", sorted(ONE_SERVER_TABLES))
    def test_combined_stream_matches_reference(self, table, speeds, utilization, chunk):
        tenants = ONE_SERVER_TABLES[table]
        jobs = labelled_jobs(3000, utilization, len(tenants), seed=7)
        assert_matches_reference(jobs, tenants, speed_model(table, speeds), chunk)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("utilization", [0.1, 0.9, 3.0])
    @pytest.mark.parametrize("speeds", ["homogeneous", "mixed"])
    @pytest.mark.parametrize(
        "table,label", SOLO_STREAMS, ids=[f"{table}-{label}" for table, label in SOLO_STREAMS]
    )
    def test_solo_stream_matches_reference(self, table, label, speeds, utilization, chunk):
        tenants = ONE_SERVER_TABLES[table]
        jobs = solo_jobs(3000, utilization, label, seed=label)
        assert_matches_reference(jobs, tenants, speed_model(table, speeds), chunk)

    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("speeds", ["homogeneous", "mixed"])
    @pytest.mark.parametrize("table", sorted(ONE_SERVER_TABLES))
    @pytest.mark.parametrize("seed", range(3))
    def test_coarse_decimal_ties_match_reference(self, seed, table, speeds, chunk):
        tenants = ONE_SERVER_TABLES[table]
        jobs = coarse_decimal_jobs(2000, len(tenants), seed)
        assert_matches_reference(jobs, tenants, speed_model(table, speeds), chunk)

    @pytest.mark.parametrize("table", sorted(ONE_SERVER_TABLES))
    def test_coarse_decimal_traces_hit_exact_overflow_ties(self, table):
        """Replaying the reference assignment finds jobs whose own server is
        busy past the arrival while a lower server frees up exactly at it,
        so the ``<=`` of the overflow test decides them."""
        tenants = ONE_SERVER_TABLES[table]
        order = sorted(range(len(tenants)), key=lambda t: (-tenants[t].priority, t))
        home = {tenant: rank for rank, tenant in enumerate(order)}
        ties = 0
        for seed in range(3):
            jobs = coarse_decimal_jobs(2000, len(tenants), seed)
            assignment = reference_priority_assignment(
                jobs.arrival_times, jobs.service_demands, jobs.tenant_ids,
                tenants, len(tenants),
            )
            finish = [0.0] * len(tenants)
            for arrival, demand, label, server in zip(
                jobs.arrival_times.tolist(), jobs.service_demands.tolist(),
                jobs.tenant_ids.tolist(), assignment.tolist(),
            ):
                own = home[label]
                if finish[own] > arrival and arrival in finish[own + 1 :]:
                    ties += 1
                finish[server] = max(finish[server], arrival) + demand
        assert ties > 0

    @pytest.mark.parametrize("table", sorted(ONE_SERVER_TABLES))
    def test_only_the_bottom_tenant_solo_stream_is_state_free(self, table):
        tenants = ONE_SERVER_TABLES[table]
        for label in range(len(tenants)):
            jobs = solo_jobs(10, 3.0, label, seed=0)
            assigner = PriorityDispatcher(tenants).assigner(
                len(tenants), tenant_ids=jobs.tenant_ids
            )
            state_free = assigner._solo_home is not None
            assert state_free == (label == BOTTOM_TENANT[table])
        combined = labelled_jobs(10, 3.0, len(tenants), seed=0)
        assigner = PriorityDispatcher(tenants).assigner(
            len(tenants), tenant_ids=combined.tenant_ids
        )
        assert assigner._solo_home is None

    @pytest.mark.parametrize("speeds", [None, [0.5]], ids=["homogeneous", "mixed"])
    def test_unlabelled_one_server_farm_is_state_free(self, speeds):
        tenants = (TenantSpec(name="solo", qos=mean_qos_from_baseline(0.8)),)
        jobs = labelled_jobs(500, 3.0, 1, seed=3).with_tenant_ids(None)
        assigner = PriorityDispatcher(tenants).assigner(1, server_speeds=speeds)
        assert assigner._solo_home == 0
        expected = reference_priority_assignment(
            jobs.arrival_times, jobs.service_demands, None, tenants, 1, speeds
        )
        actual = PriorityDispatcher(tenants).assign(jobs, 1, server_speeds=speeds)
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("label", [0, 1], ids=["state-free", "scanned"])
    def test_stream_longer_than_its_labels_is_rejected(self, label):
        tenants = ONE_SERVER_TABLES["burst"]
        jobs = solo_jobs(10, 3.0, label, seed=0)
        assigner = PriorityDispatcher(tenants).assigner(
            2, tenant_ids=jobs.tenant_ids[:6]
        )
        assigner.assign_chunk(jobs.arrival_times[:6], jobs.service_demands[:6])
        with pytest.raises(ConfigurationError, match="longer than its tenant label"):
            assigner.assign_chunk(jobs.arrival_times[6:], jobs.service_demands[6:])
