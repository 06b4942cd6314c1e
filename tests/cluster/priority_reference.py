"""A plain transcription of the documented priority-dispatch rule.

``PriorityDispatcher`` has no loop engine, so this module is its oracle.
It restates the rule from the dispatcher's docstring without sharing any
code with it:

* tenants are ordered by descending ``priority`` (ties keep table order)
  and each owns a contiguous block of servers, laid out in that order and
  sized by largest remainder on ``weight``;
* a job goes to the least-loaded server of its tenant's own block (lowest
  index on ties);
* if even that server is still busy at the job's arrival, the job takes
  the first lower-priority server (higher index) that is idle by then;
* the chosen server's estimated finish time becomes
  ``max(finish, arrival) + demand * (1 / speed)``.

An unlabelled trace is one tenant owning the whole farm.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _largest_remainder_sizes(num_servers: int, weights: Sequence[float]) -> list[int]:
    spare = num_servers - len(weights)
    total = sum(weights)
    quotas = [spare * weight / total for weight in weights]
    sizes = [1 + int(np.floor(quota)) for quota in quotas]
    remainders = [quota - np.floor(quota) for quota in quotas]
    leftover = num_servers - sum(sizes)
    by_remainder = sorted(range(len(weights)), key=lambda i: (-remainders[i], i))
    for index in by_remainder[:leftover]:
        sizes[index] += 1
    return sizes


def reference_priority_assignment(
    arrivals: Sequence[float],
    demands: Sequence[float],
    labels: Sequence[int] | None,
    tenants: Sequence,
    num_servers: int,
    server_speeds: Sequence[float] | None = None,
) -> np.ndarray:
    """Server index per job under the documented priority rule."""
    if labels is None:
        blocks = [(0, num_servers)]
        labels = [0] * len(arrivals)
    else:
        order = sorted(range(len(tenants)), key=lambda t: (-tenants[t].priority, t))
        sizes = _largest_remainder_sizes(
            num_servers, [tenants[t].weight for t in order]
        )
        blocks = [(0, 0)] * len(tenants)
        start = 0
        for tenant, size in zip(order, sizes):
            blocks[tenant] = (start, size)
            start += size
    speeds = [1.0] * num_servers if server_speeds is None else list(server_speeds)
    factors = [1.0 / speed for speed in speeds]
    finish = [0.0] * num_servers
    assignment = []
    for arrival, demand, label in zip(arrivals, demands, labels):
        arrival, demand = float(arrival), float(demand)
        start, size = blocks[int(label)]
        server = start
        for candidate in range(start, start + size):
            if finish[candidate] < finish[server]:
                server = candidate
        if finish[server] > arrival:
            for candidate in range(start + size, num_servers):
                if finish[candidate] <= arrival:
                    server = candidate
                    break
        finish[server] = max(finish[server], arrival) + demand * factors[server]
        assignment.append(server)
    return np.asarray(assignment, dtype=np.int64)
