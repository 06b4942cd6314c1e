"""Vectorized simulation backend — the fast path of Algorithm 1.

The reference implementation in :mod:`repro.simulation.engine` walks the job
stream one job at a time in Python, which costs several milliseconds per
10,000-job policy evaluation.  SleepScale's policy manager re-evaluates the
*same* trace under every candidate policy once per epoch, so that loop is the
hot path of the entire reproduction.  This module replaces it with a NumPy
formulation that produces numerically matching results (the equivalence suite
in ``tests/simulation/test_backend_equivalence.py`` pins the two backends
against each other):

1. **No-wake departures** (the Lindley recursion).  Ignoring wake-up
   latencies, the departure of job *i* is
   ``D0[i] = C[i] + max(base, max_{j<=i}(A[j] - C[j-1]))`` where ``C`` is the
   cumulative sum of scaled service times, ``A`` the arrival times and
   ``base`` the time the server frees up from earlier backlog.  This is one
   ``np.cumsum`` plus one ``np.maximum.accumulate``.

2. **Idle-gap resolution.**  Wake-up latencies only ever *delay* departures,
   so every idle period of the real system starts at a candidate gap of the
   no-wake system (``A[i] >= D0[i-1]``).  The extra delay carried into each
   gap is at most the deepest state's wake-up latency ``w_max``; a gap whose
   no-wake idle time is at least ``w_max`` away from every sleep-state entry
   boundary therefore resolves to the same state (and survives) regardless of
   the exact delay, so its outcome is computed vectorized.  Only the *risky*
   gaps — shorter than ``w_max``, or straddling an entry-delay boundary —
   need the exact carried delay.  For an immediate single-state sequence
   (every policy of the default space) a surviving gap hands exactly ``w``
   to the next gap and a closed gap hands on its residual, so the chain is
   a left fold ``c = c - idle0[g]`` restarted at ``w`` after each survivor.
   Long chains (a 1 s wake-up on millisecond jobs makes every gap risky) are
   resolved by :func:`_chain_vectorized`: a cumulative sum predicts the
   survivors, one ``np.subtract.accumulate`` over a padded survivors ×
   run-length matrix recomputes every closure run with the loop's own
   subtractions, and every closed/survived decision is checked against those
   exact values.  A mismatch falls back to the scalar loop
   (:func:`_chain_loop`), which is also the bitwise test oracle.
   Multi-state sequences resolve their risky gaps in a scalar loop.

3. **Sleep-segment accounting.**  Per-state residency and idle energy over
   all surviving gaps are computed with ``np.searchsorted``/``np.clip``
   against the entry-delay ladder, one vector operation per sleep state.

:class:`TraceKernel` memoises the per-frequency structure (scaled services,
no-wake departures, candidate gaps) and resolves every sleep sequence of
one frequency in a single pass (:meth:`TraceKernel.solve_many`): the
immediate single-state sequences share one states × gaps matrix, and the
per-job response times of all of them are assembled as one states × jobs
array, so a policy space that crosses the same frequencies with several
sleep sequences pays the Lindley recursion and the per-call NumPy overhead
once per frequency, not once per policy.

**Backend contract** (see ``docs/ARCHITECTURE.md``): this module is the
``backend="vectorized"`` side; :mod:`repro.simulation.engine` keeps the
``backend="reference"`` per-job loop as the readable oracle.  Both must
produce numerically matching results (``rtol <= 1e-9``) for every trace,
frequency, sleep sequence and power model — any intentional behaviour change
must land in *both* backends and keep the equivalence suite green.  Every
simulating entry point (``simulate_trace``, ``simulate_workload``,
``PolicyManager``, the strategy factories, ``Scenario.build``) accepts a
``backend=`` argument and passes it down unchanged.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.power.platform import ServerPowerModel
from repro.power.sleep import SleepSequence
from repro.simulation.metrics import (
    STATE_PRE_SLEEP,
    STATE_SERVING,
    STATE_WAKING,
    EnergyBreakdown,
    SimulationResult,
    linear_percentile_rows,
)
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.jobs import JobTrace

#: Backend identifiers accepted by ``simulate_trace``/``simulate_workload``.
BACKEND_REFERENCE = "reference"
BACKEND_VECTORIZED = "vectorized"
BACKENDS = (BACKEND_VECTORIZED, BACKEND_REFERENCE)

#: Risky-gap count above which the scalar gap loops run on Python floats;
#: per-element ndarray access would dominate longer chains.
_LIST_MIN_RISKY = 32
#: Risky-gap count above which an immediate chain is resolved vectorized.
#: The vectorized set-up and its walk cost about as much as the scalar loop
#: over ~400 risky gaps when closures outnumber survivors several to one
#: (a 1 s wake-up on millisecond jobs); shorter chains stay in the loop.
CHAIN_VECTOR_MIN_RISKY = 384
#: Largest padded survivors × run-length matrix the vectorized chain builds,
#: in multiples of the gap count; a longer pad falls back to the loop.
CHAIN_PAD_FACTOR = 16


def validate_frequency(frequency: float) -> float:
    """Validate a DVFS scaling factor and return it as a plain float."""
    if not 0.0 < frequency <= 1.0:
        raise ConfigurationError(
            f"operating frequency must lie in (0, 1], got {frequency}"
        )
    return float(frequency)


def validate_backend(backend: str) -> str:
    """Validate a simulation backend name."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def zero_job_result(
    frequency: float,
    sleep: SleepSequence,
    clock_start: float,
    busy_until: float | None = None,
) -> SimulationResult:
    """A well-defined result for a trace containing no jobs.

    The server does nothing over the (possibly zero-length) window, so all
    energies and residencies are zero and the per-job arrays are empty.  The
    horizon covers any declared backlog window and falls back to a tiny
    positive value so average power stays well defined.
    """
    horizon = 0.0 if busy_until is None else busy_until - clock_start
    horizon = max(horizon, 1e-12)
    residency = {STATE_SERVING: 0.0, STATE_WAKING: 0.0, STATE_PRE_SLEEP: 0.0}
    for spec in sleep:
        residency.setdefault(spec.name, 0.0)
    return SimulationResult(
        response_times=np.empty(0),
        waiting_times=np.empty(0),
        energy=EnergyBreakdown(serving=0.0, waking=0.0, idle=0.0),
        horizon=horizon,
        state_residency=residency,
        frequency=validate_frequency(frequency),
        wake_up_count=0,
        mean_service_demand=0.0,
    )


def _chain_loop(
    idle0: np.ndarray, risky_indices: np.ndarray, offset: np.ndarray
) -> None:
    """Immediate single-state chain, one risky gap at a time (the oracle).

    Every surviving gap reaches the one state and hands the constant wake-up
    ``w`` to the next gap, so only closures and their successors need
    fixing.  Gap ``g`` closes when the delay carried into it exceeds its
    no-wake idle time (``offset[g] - idle0[g] > 0``); it then hands on that
    residual delay, which keeps decaying until some gap absorbs it.  Works
    in place on the delay carried into each gap, which the caller fills
    with ``[0, w, w, ...]``.
    """
    num_gaps = idle0.size
    if risky_indices.size > _LIST_MIN_RISKY:
        idle0_view = idle0.tolist()
        offset_view = offset.tolist()
    else:
        idle0_view, offset_view = idle0, offset
    for gap in risky_indices.tolist():
        carried = offset_view[gap] - idle0_view[gap]
        if carried > 0.0 and gap + 1 < num_gaps:
            offset_view[gap + 1] = carried
    if offset_view is not offset:
        offset[:] = offset_view


def _chain_vectorized(
    idle0: np.ndarray, risky_indices: np.ndarray, w_max: float, offset: np.ndarray
) -> bool:
    """The chain of :func:`_chain_loop`, exact and vectorized, in place.

    From a surviving gap ``s`` the next gap receives ``w_max``; the delay
    then decays by each following gap's no-wake idle time, closing gaps
    until it drops to zero or below.  The cumulative idle sum predicts the
    next survivor, ``searchsorted(cs, cs[s] + w_max, "right")``, and
    following those jump pointers visits only the survivors (a survivor
    that is not risky starts a stretch of safe survivors, skipped up to the
    gap before the next risky one).  Each run is then recomputed as the
    same left fold the loop performs — ``np.subtract.accumulate`` over
    ``[w_max, idle0[s+1], idle0[s+2], ...]``, one row per run, padded past
    the last gap with ``inf`` — and every predicted decision is verified
    against those exact values: idle times are non-negative, so the fold
    never increases and a run is right exactly when its count of positive
    carried delays matches the prediction.  Returns ``False``, with
    *offset* untouched, on any mismatch or an oversized pad (take the loop);
    a run that sums to exactly ``w_max`` is predicted closed, so an exact
    boundary always falls back.
    """
    num_gaps = idle0.size
    cumulative = np.cumsum(idle0)
    successor = np.searchsorted(cumulative, cumulative + w_max, side="right")
    np.maximum(successor, np.arange(1, num_gaps + 1), out=successor)
    step = successor
    if risky_indices.size < num_gaps:
        first_risky = np.append(risky_indices, num_gaps)[
            np.searchsorted(risky_indices, successor)
        ]
        step = first_risky - (first_risky > successor)
    next_start = step.item
    run_starts = []
    start = 0
    while start < num_gaps - 1:
        run_starts.append(start)
        start = next_start(start)
    starts = np.array(run_starts)
    ends = successor[starts]  # predicted next survivor (num_gaps: none)
    width = int((ends - starts).max()) + 1
    if starts.size * width > CHAIN_PAD_FACTOR * num_gaps:
        return False
    gaps = starts[:, None] + np.arange(width)  # column j >= 1 is gap starts + j
    values = np.append(idle0, np.inf)[np.minimum(gaps, num_gaps)]
    values[:, 0] = w_max
    carried = np.subtract.accumulate(values, axis=1)
    positive = carried > 0.0
    if not np.array_equal(np.count_nonzero(positive, axis=1), ends - starts):
        return False
    # Column j carries its delay into gap starts + j + 1; only a final run
    # that closes the last gap carries a delay past the end.
    receiving = gaps[positive] + 1
    delays = carried[positive]
    if receiving[-1] == num_gaps:
        receiving, delays = receiving[:-1], delays[:-1]
    offset[receiving] = delays
    return True


def _immediate_chain(idle0: np.ndarray, w_max: float, offset: np.ndarray) -> None:
    """Resolve the chain of one immediate state with wake-up *w_max* in place.

    *offset* is filled as :func:`_chain_loop` expects.  Exact:
    :func:`_chain_vectorized` for long risky chains (it verifies itself),
    the scalar :func:`_chain_loop` otherwise and as its fallback.
    """
    risky_indices = (idle0 < w_max).nonzero()[0]
    if risky_indices.size > CHAIN_VECTOR_MIN_RISKY and _chain_vectorized(
        idle0, risky_indices, w_max, offset
    ):
        return
    _chain_loop(idle0, risky_indices, offset)


def _resolve_gaps(
    idle0: np.ndarray, entry_delays: np.ndarray, wake_latencies: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve candidate idle gaps into actual idle periods (any sequence).

    Parameters are the no-wake idle durations of the candidate gaps and the
    sleep sequence's entry-delay / wake-latency ladders.  Returns, per gap:

    * ``offset`` — delay carried into the gap (actual minus no-wake departure
      of the preceding job),
    * ``idle`` — actual idle duration (negative when the gap closed),
    * ``survived`` — whether the gap is an idle period of the real system,
    * ``reached`` — index of the deepest sleep state entered (-1 for none),
    * ``wake_latency`` — wake-up latency paid at the end of the gap.

    :meth:`TraceKernel.solve_many` resolves immediate single-state sequences
    through :func:`_immediate_chain` instead; for them this general loop
    produces the same values.
    """
    num_gaps = idle0.size
    offset = np.zeros(num_gaps)
    if num_gaps == 0:
        empty = np.empty(0)
        return offset, empty, np.empty(0, dtype=bool), np.empty(0, dtype=int), empty
    w_max = float(wake_latencies[-1])
    reached = np.searchsorted(entry_delays, idle0, side="right") - 1
    if w_max > 0.0:
        # Vectorized fill: the delay carried into gap g is the wake-up paid at
        # gap g-1, which for non-risky gaps is determined by the no-wake idle
        # time alone.
        w0 = np.where(reached >= 0, wake_latencies[np.maximum(reached, 0)], 0.0)
        offset[1:] = w0[:-1]
        reached_shifted = (
            np.searchsorted(
                entry_delays, np.maximum(idle0 - w_max, 0.0), side="right"
            )
            - 1
        )
        risky_indices = np.nonzero((idle0 < w_max) | (reached_shifted != reached))[0]
        if risky_indices.size:
            delays_list = entry_delays.tolist()
            wakes_list = wake_latencies.tolist()
            if risky_indices.size > _LIST_MIN_RISKY:
                idle0_view = idle0.tolist()
                offset_view = offset.tolist()
                reached_view = reached.tolist()
            else:
                idle0_view, offset_view, reached_view = idle0, offset, reached
            for gap in risky_indices.tolist():
                remaining = idle0_view[gap] - offset_view[gap]
                if remaining >= 0.0:
                    state = bisect_right(delays_list, remaining) - 1
                    carried = wakes_list[state] if state >= 0 else 0.0
                else:
                    # The carried delay swallowed the gap: the job queues and
                    # the residual delay propagates to the next candidate gap.
                    state = -2  # marks a closed gap
                    carried = -remaining
                reached_view[gap] = state
                if gap + 1 < num_gaps:
                    offset_view[gap + 1] = carried
            if offset_view is not offset:
                offset = np.asarray(offset_view)
                reached = np.asarray(reached_view)
    idle = idle0 - offset
    survived = idle >= 0.0
    # ``reached`` already holds the exact state for every gap: non-risky gaps
    # resolve to the same state as in the no-wake system, and risky gaps were
    # corrected (closed ones marked) in the loop above.
    reached = np.where(survived, np.maximum(reached, -1), -1)
    wake_latency = np.where(
        reached >= 0, wake_latencies[np.maximum(reached, 0)], 0.0
    )
    return offset, idle, survived, reached, wake_latency


def _solve_immediate(
    sleeps: list[SleepSequence], idle0: np.ndarray, shortest_idle: float
) -> tuple[np.ndarray, list[tuple]]:
    """Resolve immediate single-state sequences as one states × gaps pass.

    Every surviving gap reaches the one state and pays its wake-up, so the
    gap state is the carried-delay matrix plus a survival mask; only rows
    with risky gaps (idle shorter than the wake-up) run the chain.  Row sums
    of a C-contiguous matrix are bit-identical to the 1-D sums of each row,
    so only rows with closed gaps sum their survivors alone.  Returns the
    states × gaps delays carried out of each gap and each sequence's
    (waking time, wake-ups, idle residency, idle energy).
    """
    num_gaps = idle0.size
    specs = [sleep[0] for sleep in sleeps]
    wakes = np.array([spec.wake_up_latency for spec in specs])
    offset = np.empty((len(specs), num_gaps))
    if num_gaps:
        offset[:, 0] = 0.0
        offset[:, 1:] = wakes[:, None]
    for index, w_max in enumerate(wakes.tolist()):
        if num_gaps > 1 and shortest_idle < w_max:
            _immediate_chain(idle0, w_max, offset[index])
    # A gap closes when the delay carried into it outlasts its idle time.
    excess = offset - idle0
    survived = excess <= 0.0
    idle = idle0 - offset
    wake_latency = np.where(survived, wakes[:, None], 0.0)
    carried = np.where(survived, wake_latency, excess)
    waking_times = np.add.reduce(wake_latency, axis=1).tolist()
    wake_up_counts = np.add.reduce(survived, axis=1).tolist()
    idle_totals = np.add.reduce(idle, axis=1)
    for index in np.flatnonzero(~survived.all(axis=1)).tolist():
        idle_totals[index] = idle[index][survived[index]].sum()
    idle_energies = np.array([spec.power for spec in specs]) * idle_totals
    aggregates = [
        (
            waking_times[index],
            wake_up_counts[index],
            {STATE_PRE_SLEEP: 0.0, spec.name: float(idle_totals[index])},
            idle_energies[index],
        )
        for index, spec in enumerate(specs)
    ]
    return carried, aggregates


def _solve_general(
    sleep: SleepSequence, idle0: np.ndarray, pre_sleep_power: float
) -> tuple[np.ndarray, tuple]:
    """Resolve one multi-state (or delayed) sequence gap by gap.

    Returns the delay carried out of each gap and the sequence's (waking
    time, wake-ups, idle residency, idle energy).
    """
    entry_delays = np.array([spec.entry_delay for spec in sleep])
    sleep_powers = np.array([spec.power for spec in sleep])
    wake_latencies = np.array([spec.wake_up_latency for spec in sleep])
    offset, idle, survived, reached, wake_latency = _resolve_gaps(
        idle0, entry_delays, wake_latencies
    )
    idle_durations = idle[survived] if not survived.all() else idle
    pre_sleep_time = float(np.minimum(idle_durations, entry_delays[0]).sum())
    residency: dict[str, float] = {STATE_PRE_SLEEP: pre_sleep_time}
    for spec in sleep:
        residency.setdefault(spec.name, 0.0)
    idle_energy = pre_sleep_power * pre_sleep_time
    num_states = len(sleep)
    for state_index in range(num_states):
        lower = entry_delays[state_index]
        upper = (
            entry_delays[state_index + 1] if state_index + 1 < num_states else np.inf
        )
        segment = np.clip(np.minimum(idle_durations, upper) - lower, 0.0, None)
        total = float(segment.sum())
        residency[sleep[state_index].name] += total
        idle_energy += sleep_powers[state_index] * total
    return np.where(survived, wake_latency, offset - idle0), (
        float(wake_latency.sum()),
        int(np.count_nonzero(reached >= 0)),
        residency,
        idle_energy,
    )


class TraceKernel:
    """Evaluates many policies against one job trace, sharing per-trace work.

    The kernel is the batched-characterisation primitive: construct it once
    per trace (one epoch log, one generated stream) and call
    :meth:`solve_many` once per frequency with every candidate sleep
    sequence at that frequency.  The demand cumulative sum is shared across
    all evaluations, the no-wake busy-period structure is memoised per
    frequency, and one call resolves all its sequences' gaps and assembles
    all their per-job response times as one states × jobs array.
    :meth:`solve` and :meth:`evaluate` are the one-sequence case of the
    same pass.

    Parameters mirror :func:`repro.simulation.engine.simulate_trace`.
    """

    def __init__(
        self,
        jobs: JobTrace,
        power_model: ServerPowerModel,
        scaling: ServiceScaling | None = None,
        start_time: float | None = None,
        busy_until: float | None = None,
    ):
        self._arrivals = np.asarray(jobs.arrival_times, dtype=float)
        self._demands = np.asarray(jobs.service_demands, dtype=float)
        self._power_model = power_model
        self._scaling = scaling or cpu_bound()
        num_jobs = self._arrivals.size
        if num_jobs:
            clock_start = (
                float(self._arrivals[0]) if start_time is None else float(start_time)
            )
            if clock_start > self._arrivals[0]:
                raise ConfigurationError(
                    "start_time must not be later than the first arrival"
                )
        else:
            clock_start = 0.0 if start_time is None else float(start_time)
        base = clock_start
        if busy_until is not None:
            if busy_until < clock_start:
                raise ConfigurationError(
                    "busy_until must not be earlier than the observation start"
                )
            base = float(busy_until)
        self._clock_start = clock_start
        self._base = base
        self._busy_until = None if busy_until is None else float(busy_until)
        self._demand_cumsum = np.cumsum(self._demands)
        self._mean_demand = float(jobs.mean_service_demand) if num_jobs else 0.0
        self._frequency_cache: dict[float, tuple] = {}

    @property
    def num_jobs(self) -> int:
        """Number of jobs in the underlying trace."""
        return int(self._arrivals.size)

    def _structure(self, frequency: float) -> tuple:
        """No-wake busy-period structure at one frequency (memoised)."""
        cached = self._frequency_cache.get(frequency)
        if cached is None:
            time_factor = self._scaling.time_factor(frequency)
            services = self._demands * time_factor
            cumulative = self._demand_cumsum * time_factor
            previous_cumulative = np.empty_like(cumulative)
            previous_cumulative[0] = 0.0
            previous_cumulative[1:] = cumulative[:-1]
            slack = self._arrivals - previous_cumulative
            departures0 = cumulative + np.maximum(
                np.maximum.accumulate(slack), self._base
            )
            previous_departure = np.empty_like(departures0)
            previous_departure[0] = self._base
            previous_departure[1:] = departures0[:-1]
            gap_indices = np.nonzero(self._arrivals >= previous_departure)[0]
            idle0 = self._arrivals[gap_indices] - previous_departure[gap_indices]
            cached = (
                time_factor,
                services,
                departures0,
                gap_indices,
                idle0,
                float(services.sum()),
                self._power_model.active_power(frequency),
                self._power_model.idle_power(frequency),
                float(idle0.min()) if idle0.size else 0.0,
            )
            self._frequency_cache[frequency] = cached
        return cached

    def solve_many(
        self, frequency: float, sleeps: Sequence[SleepSequence]
    ) -> list["GapSolution"]:
        """Resolve every ``(frequency, sleep)`` policy of one frequency at once.

        Returns one :class:`GapSolution` per sequence, in order.  Their scalar
        aggregates — average power, energy breakdown, horizon, residencies —
        are available immediately at ``O(idle gaps)`` cost beyond the
        memoised per-frequency structure.  The per-job response/waiting
        arrays are assembled lazily, for all sequences together, on the first
        access to any solution's :attr:`GapSolution.result`.  Every derived
        quantity is bit-identical to solving each sequence on its own (which
        is this call with one sequence).
        """
        frequency = validate_frequency(frequency)
        if self.num_jobs == 0:
            return [
                GapSolution(
                    kernel=self,
                    frequency=frequency,
                    _result=zero_job_result(
                        frequency, sleep, self._clock_start, self._busy_until
                    ),
                )
                for sleep in sleeps
            ]
        (
            time_factor,
            services,
            departures0,
            gap_indices,
            idle0,
            serving_time,
            active_power,
            pre_sleep_power,
            shortest_idle,
        ) = self._structure(frequency)
        num_gaps = idle0.size
        # Per sequence: the delay carried out of each candidate gap, and its
        # (waking time, wake-ups, idle residency, idle energy).
        carried_after = np.empty((len(sleeps), num_gaps))
        rows: list[tuple] = [()] * len(sleeps)
        # One state entered as soon as the queue empties.
        immediate = [
            row
            for row, sleep in enumerate(sleeps)
            if len(sleep) == 1 and sleep[0].entry_delay == 0.0
        ]
        if immediate:
            carried, aggregates = _solve_immediate(
                [sleeps[row] for row in immediate], idle0, shortest_idle
            )
            if len(immediate) == len(sleeps):
                carried_after = carried
            else:
                carried_after[immediate] = carried
            for row, aggregate in zip(immediate, aggregates, strict=True):
                rows[row] = aggregate
        for row, sleep in enumerate(sleeps):
            if not rows[row]:
                carried_after[row], rows[row] = _solve_general(
                    sleep, idle0, pre_sleep_power
                )

        if num_gaps:
            last_departures = (departures0[-1] + carried_after[:, -1]).tolist()
        else:
            last_departures = [float(departures0[-1])] * len(sleeps)
        batch = _GapBatch(
            kernel=self,
            services=services,
            departures0=departures0,
            gap_indices=gap_indices,
            carried_after=carried_after,
        )
        solutions = []
        for row, (waking_time, wake_up_count, idle_residency, idle_energy) in enumerate(
            rows
        ):
            residency: dict[str, float] = {
                STATE_SERVING: serving_time,
                STATE_WAKING: waking_time,
            }
            residency.update(idle_residency)
            # Last departure without materialising the per-job offset array:
            # the offset of the final job is the delay carried out of the last
            # candidate gap (``np.repeat`` places exactly that value there).
            horizon = last_departures[row] - self._clock_start
            if horizon <= 0.0:
                # Degenerate single-instant trace; fall back to the total
                # service time so power is still well defined.
                horizon = max(float(np.sum(self._demands)) * time_factor, 1e-12)
            solutions.append(
                GapSolution(
                    kernel=self,
                    frequency=frequency,
                    energy=EnergyBreakdown(
                        serving=active_power * serving_time,
                        waking=active_power * waking_time,
                        idle=idle_energy,
                    ),
                    horizon=horizon,
                    state_residency=residency,
                    wake_up_count=wake_up_count,
                    _batch=batch,
                    _row=row,
                )
            )
        return solutions

    def solve(self, frequency: float, sleep: SleepSequence) -> "GapSolution":
        """Resolve one ``(frequency, sleep)`` policy without per-job arrays.

        The one-sequence case of :meth:`solve_many`.  Most frontier-search
        probes only ever compare :attr:`GapSolution.average_power`, so they
        never pay for the per-job arrays.
        """
        return self.solve_many(frequency, (sleep,))[0]

    def evaluate(self, frequency: float, sleep: SleepSequence) -> SimulationResult:
        """Simulate one ``(frequency, sleep)`` policy against the trace."""
        return self.solve(frequency, sleep).result

    def evaluate_many(
        self, frequency: float, sleeps: Sequence[SleepSequence]
    ) -> list[SimulationResult]:
        """Simulate every sequence of one frequency; rows share one pass.

        The mean and the 95th-percentile response time of every result —
        the statistics a characterisation table reads — are computed
        row-wise over the states × jobs array and installed in the results'
        caches (bit-identical to computing them per result).
        """
        solutions = self.solve_many(frequency, sleeps)
        results = [solution.result for solution in solutions]
        batch = solutions[0]._batch if solutions else None
        if batch is not None:  # zero-job results have no per-job statistics
            response_times = batch.arrays()[0]
            means = response_times.mean(axis=1).tolist()
            values = linear_percentile_rows(response_times, 95.0).tolist()
            for result, mean, value in zip(results, means, values, strict=True):
                result.prime_statistics(mean, {95.0: value})
        return results


@dataclass(eq=False, slots=True)
class _GapBatch:
    """The per-job arrays of one :meth:`TraceKernel.solve_many` call.

    Holds the states × gaps matrix of delays carried out of each candidate
    gap and assembles the states × jobs response/waiting arrays once, on
    first use; each :class:`GapSolution` reads its own row.
    """

    kernel: TraceKernel
    services: np.ndarray
    departures0: np.ndarray
    gap_indices: np.ndarray
    carried_after: np.ndarray
    _arrays: tuple[np.ndarray, np.ndarray] | None = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The states × jobs response and waiting times (assembled once)."""
        if self._arrays is None:
            kernel = self.kernel
            departures0 = self.departures0
            gap_indices = self.gap_indices
            num_rows = self.carried_after.shape[0]
            # Per-job departures: the no-wake departure plus the delay
            # introduced at the last candidate gap at or before the job
            # (piecewise constant between gaps).
            if gap_indices.size:
                counts = np.empty(gap_indices.size, dtype=np.intp)
                counts[:-1] = np.diff(gap_indices)
                counts[-1] = kernel.num_jobs - gap_indices[-1]
                job_offset = np.repeat(self.carried_after, counts, axis=1)
                if gap_indices[0] == 0:
                    departures = job_offset
                    departures += departures0
                else:
                    departures = np.repeat(departures0[None, :], num_rows, axis=0)
                    departures[:, gap_indices[0] :] += job_offset
            else:
                departures = np.repeat(departures0[None, :], num_rows, axis=0)
            departures -= kernel._arrivals
            response_times = departures
            self._arrays = (response_times, response_times - self.services)
        return self._arrays


class GapSolution:
    """One policy's resolved gap structure, with lazily assembled arrays.

    Produced by :meth:`TraceKernel.solve_many`.  The scalar aggregates
    (``energy``, ``horizon``, ``average_power``, residencies) are final;
    :attr:`result` reads this policy's row of the per-job arrays its batch
    assembles on first access and returns the full
    :class:`~repro.simulation.metrics.SimulationResult` — identical to what
    :meth:`TraceKernel.evaluate` returns, because ``evaluate`` *is*
    ``solve().result``.
    """

    __slots__ = (
        "kernel",
        "frequency",
        "energy",
        "horizon",
        "state_residency",
        "wake_up_count",
        "_batch",
        "_row",
        "_result",
    )

    def __init__(
        self,
        kernel: TraceKernel,
        frequency: float,
        energy: EnergyBreakdown | None = None,
        horizon: float = 0.0,
        state_residency: dict[str, float] | None = None,
        wake_up_count: int = 0,
        _batch: _GapBatch | None = None,
        _row: int = 0,
        _result: SimulationResult | None = None,
    ):
        self.kernel = kernel
        self.frequency = frequency
        self.energy = energy
        self.horizon = horizon
        self.state_residency = state_residency
        self.wake_up_count = wake_up_count
        self._batch = _batch
        self._row = _row
        self._result = _result
        if _result is not None:
            self.energy = _result.energy
            self.horizon = _result.horizon

    @property
    def average_power(self) -> float:
        """Average power over the horizon (identical to the full result's)."""
        if self._result is not None:
            return self._result.average_power
        return self.energy.total / self.horizon

    @property
    def result(self) -> SimulationResult:
        """The full simulation result (per-job arrays assembled on demand)."""
        if self._result is None:
            assert self._batch is not None  # only zero-job solutions lack one
            response_times, waiting_times = self._batch.arrays()
            self._result = SimulationResult(
                response_times=response_times[self._row],
                waiting_times=waiting_times[self._row],
                energy=self.energy,
                horizon=self.horizon,
                state_residency=self.state_residency,
                frequency=self.frequency,
                wake_up_count=self.wake_up_count,
                mean_service_demand=self.kernel._mean_demand,
            )
        return self._result
