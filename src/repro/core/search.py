"""The policy-search engine: cached and frontier-accelerated policy selection.

SleepScale's per-epoch policy search evaluates every candidate
``(frequency, sleep-state)`` policy against the characterisation trace —
once per epoch, per server.  At farm scale that search, not the queueing
simulation, is the hot path: ``PolicyManager.characterize_batch`` rebuilds a
fresh :class:`~repro.simulation.kernel.TraceKernel` per call and walks the
whole grid even when the winner barely moves between epochs.  This module
makes the search sublinear in the candidate grid while keeping the selected
policy **identical** to the full-grid oracle:

* :class:`CharacterizationCache` — a thread-safe LRU keyed by
  ``(trace fingerprint, quantized utilization, policy-space fingerprint,
  power-model identity, QoS, scaling, backend)``.  Repeated epochs with
  identical inputs (cold-start epochs pinned at ``rho_b``, quiet epochs
  floored at ``min_utilization``) and identical servers in a
  :class:`~repro.cluster.farm.ServerFarm` sharing one cache reuse whole
  characterisation tables, whole selections, and the per-frequency kernel
  structure of a trace.

* :class:`FrontierSearch` — exploits the monotone structure of the grid
  (the speed-scaling frontier of Wierman et al.): at a fixed sleep state,
  QoS slack is non-decreasing in frequency, so the feasible set is a suffix
  of the sorted frequency axis whose boundary can be *bisected*, warm-started
  from the previous epoch's boundary.  Power needs no shape assumption —
  sleep-state wake penalties can give a column several valleys — because
  every cell carries a solve-free **power floor**
  (:meth:`_PolicyGrid.power_floors`, built from the trace's total demand and
  no-wake horizon and the platform's state powers over the whole frequency
  axis).  The floors order the columns, skip every column and every suffix
  cell that cannot beat the incumbent, and certify each column's minimum:
  the feasible suffix is walked best-first in floor order until the next
  floor exceeds the best power found.

The engine never trusts the slack structure blindly.  Every probe is
recorded, and a per-column **monotonicity certificate** — QoS slack
non-decreasing in frequency over every probe whose slack was read, the
feasible set exactly the bisected suffix, no NaNs — is checked before a
column winner is accepted.  A violated certificate falls the column back to
exhaustive evaluation; when no column has a feasible candidate at all, the
engine falls back to the exhaustive grid so the infeasible ranking (largest
slack, NaN-aware) also matches the oracle.  The selected
``PolicySelection.policy`` therefore always equals the full-grid search on
the same inputs, which ``tests/core/test_search.py`` and
``tests/core/test_search_bound.py`` fuzz and
``benchmarks/bench_policy_search.py`` asserts on whole scenario runs.

Contract notes (see ``docs/ARCHITECTURE.md``):

* ``"frontier"`` is the default search of the strategies, scenarios, the
  ``run-scenario`` CLI and campaigns; ``"full"`` stays the oracle and
  :class:`~repro.core.policy_manager.PolicyManager`'s default, because its
  selections carry the whole table figure code reads.  No entry point
  attaches a cache on its own: sharing one is opt-in
  (``ServerFarm(search_cache=...)``);
* a frontier search holds the per-job arrays of at most the probe it is
  reading (probes release them once slack and feasibility are read, and
  the winner is solved once more for its row), and the engine keeps the
  candidate grid of the last frequency axis only;
* frontier selections carry only the winning evaluation in
  ``PolicySelection.evaluations`` (the probed metrics are engine-internal);
  use ``search="full"`` or :meth:`PolicySearchEngine.characterize` when the
  full table is needed;
* ``utilization_quantum`` (default 0: exact) snaps the searched utilisation
  to a grid *before* candidate enumeration, so coarser quanta trade a tiny
  amount of prediction resolution for cross-epoch cache hits — both search
  modes quantize identically, so parity is unaffected.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.core.policy_manager import (
    PolicyEvaluation,
    PolicySelection,
    characterize_on_kernel,
    evaluation_from_result,
    pick_selection,
)
from repro.core.qos import QosConstraint
from repro.exceptions import ConfigurationError
from repro.policies.policy import Policy, dvfs_only_policy
from repro.policies.space import PolicySpace
from repro.power.platform import ServerPowerModel
from repro.power.states import SystemState
from repro.simulation.engine import simulate_trace
from repro.simulation.kernel import (
    BACKEND_VECTORIZED,
    TraceKernel,
    validate_backend,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.service_scaling import ServiceScaling, cpu_bound
from repro.workloads.jobs import JobTrace

#: Search-mode identifiers accepted by ``PolicyManager``/strategies/scenarios.
SEARCH_FULL = "full"
SEARCH_FRONTIER = "frontier"
SEARCHES = (SEARCH_FULL, SEARCH_FRONTIER)


def validate_search(search: str) -> str:
    """Validate a policy-search mode name."""
    if search not in SEARCHES:
        raise ConfigurationError(
            f"unknown policy search mode {search!r}; expected one of {SEARCHES}"
        )
    return search


# ---------------------------------------------------------------------------
# Fingerprints (cache-key components)
# ---------------------------------------------------------------------------


def trace_fingerprint(jobs: JobTrace) -> str:
    """Content hash of a job trace (arrival times and demands, byte-exact)."""
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(jobs.arrival_times, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(jobs.service_demands, dtype=float).tobytes())
    return digest.hexdigest()


def power_model_fingerprint(model: ServerPowerModel) -> str:
    """Identity of a power model: name plus its full (frozen) parameterisation."""
    return _digest_of(repr(model))


def policy_space_fingerprint(space: PolicySpace) -> str:
    """Identity of a candidate policy space (states, grid, flags, scaling)."""
    return _digest_of(repr(space))


def qos_fingerprint(qos: QosConstraint) -> str:
    """Identity of a QoS constraint (type and parameters)."""
    return _digest_of(f"{type(qos).__qualname__}:{qos!r}")


def scaling_fingerprint(scaling: ServiceScaling) -> str:
    """Identity of a service-scaling rule."""
    return _digest_of(repr(scaling))


def _digest_of(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def quantize_utilization(utilization: float, quantum: float) -> float:
    """Snap *utilization* to the engine's quantisation grid.

    A quantum of 0 (the default) keeps the exact value.  The result is
    clamped to ``[0, 0.98]`` so quantisation can never push a prediction
    outside the range the candidate enumeration accepts.
    """
    if quantum < 0:
        raise ConfigurationError(
            f"utilization quantum must be non-negative, got {quantum}"
        )
    if quantum:
        utilization = round(utilization / quantum) * quantum
    return min(max(float(utilization), 0.0), 0.98)


# ---------------------------------------------------------------------------
# The characterisation cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`CharacterizationCache`."""

    table_hits: int = 0
    table_misses: int = 0
    selection_hits: int = 0
    selection_misses: int = 0
    kernel_hits: int = 0
    kernel_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for reports and benchmarks)."""
        return {
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "selection_hits": self.selection_hits,
            "selection_misses": self.selection_misses,
            "kernel_hits": self.kernel_hits,
            "kernel_misses": self.kernel_misses,
        }


class CharacterizationCache:
    """Thread-safe LRU cache shared by policy-search engines.

    Three kinds of entries live here, all immutable once stored:

    * whole characterisation **tables** (tuples of
      :class:`~repro.core.policy_manager.PolicyEvaluation`),
    * whole **selections** (:class:`~repro.core.policy_manager.PolicySelection`),
    * per-trace **kernels** (:class:`~repro.simulation.kernel.TraceKernel`),
      which memoise the per-frequency Lindley/busy-period structure, so two
      searches over the same trace — even with different QoS or candidate
      spaces — never recompute it.

    One cache may be shared across the servers of a farm and across threads:
    the LRU book-keeping is lock-protected, and table/selection values are
    immutable.  Kernels memoise their per-frequency structure internally
    with plain (GIL-atomic) dict writes, so concurrent evaluation of one
    shared kernel is safe — at worst a frequency's structure is computed
    twice.  Sharing is always *correct* regardless of how heterogeneous the
    farm is, because every key carries the trace, utilisation, space,
    power-model, QoS, scaling and backend identity; it only pays off for
    servers whose spec/QoS/space coincide.
    """

    def __init__(self, max_tables: int = 512, max_kernels: int = 8):
        if max_tables < 1 or max_kernels < 1:
            raise ConfigurationError(
                "cache sizes must be at least 1, got "
                f"max_tables={max_tables}, max_kernels={max_kernels}"
            )
        self._max_tables = int(max_tables)
        self._max_kernels = int(max_kernels)
        self._tables: OrderedDict[tuple, object] = OrderedDict()
        self._kernels: OrderedDict[tuple, TraceKernel] = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # -- generic LRU plumbing -------------------------------------------------

    @staticmethod
    def _get(store: OrderedDict, key: tuple):
        value = store.get(key)
        if value is not None:
            store.move_to_end(key)
        return value

    @staticmethod
    def _put(store: OrderedDict, key: tuple, value, limit: int) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > limit:
            store.popitem(last=False)

    # -- tables and selections ------------------------------------------------

    def lookup_table(self, key: tuple) -> tuple[PolicyEvaluation, ...] | None:
        """The cached characterisation table for *key*, if any."""
        with self._lock:
            value = self._get(self._tables, ("table", *key))
            if value is None:
                self.stats.table_misses += 1
            else:
                self.stats.table_hits += 1
            return value

    def store_table(self, key: tuple, table: tuple[PolicyEvaluation, ...]) -> None:
        """Insert a characterisation table."""
        with self._lock:
            self._put(self._tables, ("table", *key), table, self._max_tables)

    def lookup_selection(self, search: str, key: tuple) -> PolicySelection | None:
        """The cached selection for *key* under the given search mode."""
        with self._lock:
            value = self._get(self._tables, ("selection", search, *key))
            if value is None:
                self.stats.selection_misses += 1
            else:
                self.stats.selection_hits += 1
            return value

    def store_selection(
        self, search: str, key: tuple, selection: PolicySelection
    ) -> None:
        """Insert a selection outcome."""
        with self._lock:
            self._put(
                self._tables, ("selection", search, *key), selection, self._max_tables
            )

    # -- kernels --------------------------------------------------------------

    def kernel_for(
        self,
        jobs: JobTrace,
        trace_key: str,
        power_model: ServerPowerModel,
        power_key: str,
        scaling: ServiceScaling,
        scaling_key: str,
    ) -> TraceKernel:
        """A (possibly shared) trace kernel for *jobs* under one power model."""
        key = (trace_key, power_key, scaling_key)
        with self._lock:
            kernel = self._get(self._kernels, key)
            if kernel is not None:
                self.stats.kernel_hits += 1
                return kernel
            self.stats.kernel_misses += 1
        kernel = TraceKernel(jobs, power_model, scaling=scaling)
        with self._lock:
            self._put(self._kernels, key, kernel, self._max_kernels)
        return kernel

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._tables.clear()
            self._kernels.clear()


# ---------------------------------------------------------------------------
# The candidate grid
# ---------------------------------------------------------------------------


class _ResultSolution:
    """Adapter giving a plain :class:`SimulationResult` the solution shape."""

    __slots__ = ("result",)

    def __init__(self, result: SimulationResult):
        self.result = result

    @property
    def average_power(self) -> float:
        return self.result.average_power


class _Probe:
    """One evaluated candidate, with QoS metrics computed lazily.

    Average power is read immediately (a scalar aggregate of the gap
    solution); slack and feasibility materialise the per-job arrays on
    first access, so power-walk probes that cannot become the column's best
    never pay for them.  Once slack and feasibility have been read the solution
    is released, so a search holds the per-job arrays of at most the probe
    it is reading, not of every probe it has made.  ``slack_computed`` lets
    the certificate check slack monotonicity over exactly the probes whose
    slack the search actually used.
    """

    __slots__ = ("power", "_solution", "_qos", "_metrics")

    def __init__(self, solution, qos: QosConstraint):
        self.power: float = solution.average_power
        self._solution = solution
        self._qos = qos
        self._metrics: tuple[float, bool] | None = None

    def _qos_metrics(self) -> tuple[float, bool]:
        """``(slack, meets)``, read once; the solution is dropped after."""
        if self._metrics is None:
            result = self._solution.result
            self._metrics = (self._qos.slack(result), self._qos.is_met(result))
            self._solution = None
        return self._metrics

    @property
    def slack(self) -> float:
        return self._qos_metrics()[0]

    @property
    def meets(self) -> bool:
        return self._qos_metrics()[1]

    @property
    def slack_computed(self) -> bool:
        return self._metrics is not None


class _PolicyGrid:
    """The candidate space reshaped as (frequency x sleep-variant), lazily.

    Candidate construction is surprisingly expensive (each policy's sleep
    sequence sums the platform component powers in pure Python), so the
    grid builds only the cells the search probes, one frequency row at a
    time, replicating the row body of
    :meth:`PolicySpace.candidate_policies` exactly — the enumeration order
    (frequency-major, variants in declaration order) and the produced
    :class:`Policy` values are identical to the full search's, which
    ``tests/core/test_search.py`` pins for every space shape.  Laziness is
    only used for :class:`PolicySpace` itself; subclasses overriding the
    enumeration fall back to the exhaustive search (``build`` returns
    ``None``).
    """

    def __init__(self, space: PolicySpace, frequencies: np.ndarray):
        self.space = space
        self.frequencies = frequencies
        self.num_frequencies = int(frequencies.size)
        self._deep_pairs = []
        states = space.states
        for delay in space.deep_entry_delays:
            deepest = states[-1] if states else None
            shallow = states[0] if states else None
            if deepest is None or shallow is None or deepest == shallow:
                continue
            self._deep_pairs.append((shallow, deepest, delay))
        self.num_variants = (
            len(states) + len(self._deep_pairs) + int(space.include_dvfs_only)
        )
        self._cells: dict[tuple[int, int], Policy] = {}

    @classmethod
    def build(
        cls,
        space: PolicySpace,
        utilization: float,
        frequencies: np.ndarray | None = None,
    ) -> "_PolicyGrid | None":
        if type(space) is not PolicySpace:
            return None
        if frequencies is None:
            frequencies = space.candidate_frequencies(utilization)
        if frequencies.size == 0:
            return None
        grid = cls(space, frequencies)
        return grid if grid.num_variants > 0 else None

    @property
    def policies(self) -> list[Policy]:
        """Every candidate in full-enumeration order (materialises all cells)."""
        return [
            self.policy_at(freq_index, variant_index)
            for freq_index in range(self.num_frequencies)
            for variant_index in range(self.num_variants)
        ]

    def policy_at(self, freq_index: int, variant_index: int) -> Policy:
        """The candidate at one grid cell, in full-enumeration identity.

        Mirrors the per-frequency body of ``candidate_policies`` for a
        single cell, so only the probed candidates are ever constructed.
        """
        cell = (freq_index, variant_index)
        policy = self._cells.get(cell)
        if policy is None:
            space = self.space
            frequency = float(self.frequencies[freq_index])
            num_states = len(space.states)
            if variant_index < num_states:
                sequence = space.power_model.immediate_sleep_sequence(
                    space.states[variant_index], frequency
                )
                policy = Policy(frequency=frequency, sleep=sequence)
            elif variant_index < num_states + len(self._deep_pairs):
                shallow, deepest, delay = self._deep_pairs[
                    variant_index - num_states
                ]
                sequence = space.power_model.sleep_sequence(
                    [shallow, deepest], [0.0, delay], frequency
                )
                policy = Policy(frequency=frequency, sleep=sequence)
            else:
                policy = dvfs_only_policy(space.power_model, frequency)
            self._cells[cell] = policy
        return policy

    def power_floors(
        self, jobs: JobTrace, power_model: ServerPowerModel, scaling: ServiceScaling
    ) -> np.ndarray:
        """A solve-free lower bound on every cell's average power (F x V).

        Let ``s = D * time_factor(f)`` be the serving time of the trace's
        total demand ``D``, ``W`` the (unknown) total waking time, ``A`` the
        active power and ``p`` the cell's cheapest resident power.  Serving
        and waking draw ``A`` and every idle second at least ``p``, so over
        the horizon ``H`` the energy is at least
        ``A * (s + W) + p * (H - s - W)``.  Wake-ups only delay departures,
        and the delay carried into the last job is one wake-up at most, so
        ``H <= H0 + W`` with ``H0`` the no-wake horizon: the Lindley last
        departure minus the first arrival, a function of ``f`` alone.  As
        ``s <= H0``, ``(s + W) / (H0 + W)`` only grows with ``W``, so
        ``power >= p + (A - p) * s / H0`` when ``A >= p``, and
        ``power >= A`` otherwise — whatever shape the power curve has.  The
        result is shrunk by :data:`_FLOOR_MARGIN`.

        ``p`` is the cheapest state a variant's sequence can sit in; the
        DVFS-only pseudo state draws ``A``.  Every sequence of the grid is
        entered at ``tau_1 = 0``, so the pre-sleep idle power never applies.
        Each state is evaluated over the whole frequency axis in one array
        call, and ``H0`` over the whole axis in one matrix reduction.
        """
        shape = (self.num_frequencies, self.num_variants)
        arrivals = jobs.arrival_times
        demand = float(np.sum(jobs.service_demands))
        span = float(arrivals[-1] - arrivals[0])
        if demand == 0.0 and span == 0.0:
            # Zero-demand jobs at one instant: the kernel replaces the empty
            # horizon by a tiny constant, so no floor holds.
            return np.zeros(shape)
        model = self.space.power_model
        states = self.space.states
        # Deep pairs are made of these states too.  Frequency-independent
        # states give scalars, which the column assignments broadcast.
        powers = {state: model.system_power(state, self.frequencies) for state in states}
        resident_columns = [powers[state] for state in states]
        resident_columns += [
            np.minimum(powers[shallow], powers[deepest])
            for shallow, deepest, _ in self._deep_pairs
        ]
        if self.space.include_dvfs_only:
            resident_columns.append(model.active_power(self.frequencies))
        residents = np.empty(shape)
        for variant, resident in enumerate(resident_columns):
            residents[:, variant] = resident
        column = self.frequencies[:, None]
        # A column of factors, or the scalar 1.0 under memory-bound scaling.
        time_factor = scaling.time_factor(column)
        serving = demand * time_factor
        # The no-wake last departure is ``c * D + max_j (a_j - c * P_j)`` with
        # ``c`` the time factor, ``a_j`` the arrivals and ``P_j`` the demand
        # arrived before job j.  A job that wins the max at the largest ``c``
        # beats every earlier job at every smaller ``c``, so the max only
        # needs the jobs from that one on.
        before = np.cumsum(jobs.service_demands) - jobs.service_demands
        first = int(np.argmax(arrivals - np.max(time_factor) * before))
        latest_start = np.max(
            arrivals[first:] - time_factor * before[first:], axis=-1, keepdims=True
        )
        horizon = serving + (latest_start - arrivals[0])
        active = power_model.active_power(column)
        busy_share = serving / horizon
        floors = np.where(
            active >= residents, residents + (active - residents) * busy_share, active
        )
        # The kernel's idle gaps and horizon are differences of absolute
        # times, each a few ulps of their magnitude off; summed over the jobs,
        # a trace far from t = 0 turns that into a relative error of about
        # ``jobs * eps * (1 + |a_0| / H)``, largest at the shortest horizon.
        rounding = (4 * arrivals.size + 12) * np.finfo(float).eps * (
            1.0 + abs(float(arrivals[0])) / float(np.min(horizon))
        )
        return floors * (1.0 - _FLOOR_MARGIN - rounding)


#: Relative margin taken off every power floor.  The floor is exact for
#: DVFS-only cells, wake-free cells and one-job traces, where it equals the
#: solved power up to rounding; but the solved power sums its energy terms in
#: another order (and the array power formulas may differ from the scalar
#: ones by an ulp), so an unmargined floor could exceed a solved power by a
#: few ulps and prune the winner.  Relative rounding stays orders of
#: magnitude below this margin; the absolute rounding of times far from
#: ``t = 0`` is given up separately (see :meth:`_PolicyGrid.power_floors`).
_FLOOR_MARGIN = 1e-9


class _CertificateViolation(Exception):
    """Raised inside a column search when a monotonicity assumption fails."""


# ---------------------------------------------------------------------------
# The frontier search
# ---------------------------------------------------------------------------


@dataclass
class SearchStats:
    """Counters describing how the engine earned its selections."""

    selections: int = 0
    full_selections: int = 0
    frontier_selections: int = 0
    fallback_columns: int = 0
    fallback_full: int = 0
    #: Grid cells of every searched selection, once per selection in either
    #: mode (selection-cache hits are not searched, so not counted).
    candidates_seen: int = 0
    #: Cells actually solved (a frontier -> full fallback solves some twice).
    candidates_evaluated: int = 0
    #: Cells a frontier search never solved because their power floor lay
    #: above the incumbent (whole columns, or the tail of a feasible suffix).
    bound_pruned: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (for reports and benchmarks)."""
        return {
            "selections": self.selections,
            "full_selections": self.full_selections,
            "frontier_selections": self.frontier_selections,
            "fallback_columns": self.fallback_columns,
            "fallback_full": self.fallback_full,
            "candidates_seen": self.candidates_seen,
            "candidates_evaluated": self.candidates_evaluated,
            "bound_pruned": self.bound_pruned,
        }


class FrontierSearch:
    """Per-column feasibility bisection plus a floor-ordered power search.

    :meth:`run` takes the grid's power-floor matrix (see
    :meth:`_PolicyGrid.power_floors`) and visits the sleep-variant columns
    in ascending order of their smallest floor; a column whose smallest
    floor lies above the incumbent's power is skipped unsolved.  Within a
    column the feasibility boundary is bisected (QoS slack is certified
    monotone over the probes), then the feasible suffix is walked
    best-first in floor order until the next floor exceeds the best power
    found, which makes the column minimum exact whatever shape the power
    curve has.

    One instance lives inside each :class:`PolicySearchEngine` and carries
    the previous epoch's feasibility boundary per column across
    selections.  The warm start only changes *which* indices are probed
    first, never the answer.
    """

    def __init__(self) -> None:
        #: variant index -> boundary frequency of the previous accepted
        #: frontier selection.
        self._warm: dict[int, float] = {}

    def reset(self) -> None:
        """Drop all warm-start state (selections are unaffected either way)."""
        self._warm.clear()

    # -- column search --------------------------------------------------------

    def _column_winner(
        self,
        grid: _PolicyGrid,
        variant: int,
        probe: Callable[[int, int], _Probe],
        floors: np.ndarray,
        incumbent: tuple[float, int, int] | None,
        stats: SearchStats,
    ) -> int | None:
        """Index of the column's cheapest feasible frequency, or ``None``.

        *floors* are the column's power floors and *incumbent* the best
        ``(power, freq index, variant)`` of the columns already searched.
        The returned index is the exact column minimum whenever that minimum
        beats *incumbent*; otherwise it is some feasible cell that does not.
        Raises :class:`_CertificateViolation` when the probes contradict the
        monotone-slack structure.
        """
        last = grid.num_frequencies - 1
        probed: dict[int, _Probe] = {}

        def at(index: int) -> _Probe:
            entry = probed.get(index)
            if entry is None:
                entry = probe(index, variant)
                if not np.isfinite(entry.power):
                    raise _CertificateViolation("non-finite probe")
                probed[index] = entry
            return entry

        warm_boundary = self._warm.get(variant)
        if warm_boundary is not None:
            warm_boundary = int(
                np.clip(
                    np.searchsorted(grid.frequencies, warm_boundary - 1e-12), 0, last
                )
            )

        # Phase 1 — find the feasibility boundary (slack is non-decreasing
        # in frequency, so the feasible set is a suffix).  The boundary
        # drifts by at most an index or two between epochs even though the
        # frequency axis itself shifts, so the warm start is confirmed with
        # a short local walk before resorting to bisection.
        low, high = 0, None  # high: smallest index known feasible
        if warm_boundary is not None and at(warm_boundary).meets:
            high = warm_boundary
            for _ in range(2):  # walk left over small drift
                if high == 0 or not at(high - 1).meets:
                    low = high
                    break
                high -= 1
        elif warm_boundary is not None:
            low = warm_boundary + 1
            if low <= last and at(low).meets:  # drift of one index right
                low = high = low
        if high is None:
            if not at(last).meets:
                # Under a monotone slack an infeasible top means an empty
                # column — but that conclusion rests on unprobed structure,
                # so verify it at the other end: a feasible bottom, or a
                # bottom with *more* slack than the top, contradicts
                # monotonicity and sends the column to the exhaustive
                # fallback instead of being silently skipped.
                bottom = at(0)
                if bottom.meets or not bottom.slack <= at(last).slack:
                    raise _CertificateViolation("slack not monotone at column ends")
                return None
            high = last
        while low < high:
            mid = (low + high) // 2
            if at(mid).meets:
                high = mid
            else:
                low = mid + 1
        boundary = high
        if not at(boundary).meets or (boundary > 0 and at(boundary - 1).meets):
            raise _CertificateViolation("feasibility bisection inconsistent")

        # Phase 2 — the power minimum of the feasible suffix.  No cell can
        # draw less than its floor, so walking the unprobed suffix cells in
        # ascending floor order and stopping at the first floor above the
        # best power in hand (this column's or the incumbent's, whichever is
        # lower) leaves only cells that cannot win.  The stop is strict: a
        # cell whose floor equals that power may still tie it from an
        # earlier index, and ties go to the earlier index like the oracle's
        # first-minimum scan.  Feasibility is read only on a cell that
        # would become the new best; under a monotone slack every suffix
        # cell is feasible, so an infeasible one voids the certificate.
        best = min((probed[index].power, index) for index in probed if index >= boundary)
        limit = best[0] if incumbent is None else min(best[0], incumbent[0])
        suffix = floors[boundary:]
        for index in (boundary + np.argsort(suffix, kind="stable")).tolist():
            if index in probed:
                continue
            if floors[index] > limit:
                break
            entry = at(index)
            order = (entry.power, index)
            if order < best and (
                incumbent is None or (*order, variant) < incumbent
            ):
                if not entry.meets:
                    raise _CertificateViolation("improving suffix cell infeasible")
                best = order
                limit = min(limit, entry.power)
        self._certify(probed, boundary)
        stats.bound_pruned += suffix.size - sum(index >= boundary for index in probed)
        self._warm[variant] = float(grid.frequencies[boundary])
        return best[1]

    @staticmethod
    def _certify(probed: dict[int, _Probe], boundary: int) -> None:
        """Check the probed window against the monotone-slack structure.

        Over every probe whose slack the search consumed, slack must be
        non-decreasing in frequency and the feasible set must be exactly
        the suffix from *boundary*.  Power needs no shape certificate: the
        floor-ordered walk is exact on any curve.
        """
        previous_slack = None
        for index in sorted(probed):
            entry = probed[index]
            if not entry.slack_computed:
                continue
            if previous_slack is not None and entry.slack < previous_slack:
                raise _CertificateViolation("slack not monotone over probes")
            previous_slack = entry.slack
            if entry.meets != (index >= boundary):
                raise _CertificateViolation("feasible set is not a suffix")

    # -- whole-grid search ----------------------------------------------------

    def run(
        self,
        grid: _PolicyGrid,
        probe: Callable[[int, int], _Probe],
        floors: np.ndarray,
        stats: SearchStats,
    ) -> tuple[int, int] | None:
        """The winning grid cell ``(freq index, variant index)``.

        *floors* is the grid's (frequency x variant) power-floor matrix.
        ``None`` means no candidate anywhere is feasible (the caller must
        fall back to the exhaustive grid for oracle-identical infeasible
        ranking).  Columns whose certificate fails are re-evaluated
        exhaustively, so the returned winner always matches the oracle's
        feasible minimum under its ``(power, freq index, variant)`` order.
        """
        incumbent: tuple[float, int, int] | None = None
        column_floors = floors.min(axis=0)
        for variant in np.argsort(column_floors, kind="stable").tolist():
            if incumbent is not None and column_floors[variant] > incumbent[0]:
                stats.bound_pruned += grid.num_frequencies
                continue
            try:
                winner = self._column_winner(
                    grid, variant, probe, floors[:, variant], incumbent, stats
                )
            except _CertificateViolation:
                stats.fallback_columns += 1
                self._warm.pop(variant, None)
                winner = self._exhaustive_column(grid, variant, probe)
            if winner is None:
                continue
            order = (probe(winner, variant).power, winner, variant)
            if incumbent is None or order < incumbent:
                incumbent = order
        if incumbent is None:
            return None
        return incumbent[1], incumbent[2]

    @staticmethod
    def _exhaustive_column(
        grid: _PolicyGrid, variant: int, probe: Callable[[int, int], _Probe]
    ) -> int | None:
        """Exact column minimum by evaluating every frequency (fallback)."""
        best: tuple[float, int] | None = None
        for index in range(grid.num_frequencies):
            entry = probe(index, variant)
            if not entry.meets:
                continue
            order = (entry.power, index)
            if best is None or order < best:
                best = order
        return None if best is None else best[1]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class PolicySearchEngine:
    """Cached, optionally frontier-accelerated policy characterisation/selection.

    One engine backs one :class:`~repro.core.policy_manager.PolicyManager`
    (hence one strategy, hence one server); the cache handle it holds may be
    shared farm-wide.  The engine owns:

    * the cache keys (fingerprints of its space/power model/QoS/scaling are
      computed once at construction),
    * the per-trace evaluator (kernel-backed for the vectorized backend,
      per-candidate :func:`simulate_trace` for the reference backend),
    * the :class:`FrontierSearch` warm-start state, and
    * the :class:`SearchStats` counters benchmarks read.
    """

    def __init__(
        self,
        power_model: ServerPowerModel,
        policy_space: PolicySpace,
        qos: QosConstraint,
        scaling: ServiceScaling | None = None,
        backend: str = BACKEND_VECTORIZED,
        search: str = SEARCH_FULL,
        cache: CharacterizationCache | None = None,
        utilization_quantum: float = 0.0,
    ):
        self._power_model = power_model
        self._space = policy_space
        self._qos = qos
        self._scaling = scaling or cpu_bound()
        self._backend = validate_backend(backend)
        self._search = validate_search(search)
        self._cache = cache
        self._quantum = float(utilization_quantum)
        quantize_utilization(0.0, self._quantum)  # validates the quantum
        self._frontier = FrontierSearch()
        #: The candidate grid of the last frequency axis: consecutive
        #: utilisations whose stability pruning yields the same axis share
        #: the same candidate policies, so the (pure-Python, surprisingly
        #: expensive) policy construction is not repeated per epoch.  Older
        #: axes are dropped — keeping more bought no extra hits.
        self._grids: dict[bytes, _PolicyGrid | None] = {}
        self.stats = SearchStats()
        self._power_key = power_model_fingerprint(power_model)
        self._space_key = policy_space_fingerprint(policy_space)
        self._qos_key = qos_fingerprint(qos)
        self._scaling_key = scaling_fingerprint(self._scaling)

    # -- accessors ------------------------------------------------------------

    @property
    def search(self) -> str:
        """The search mode in force (``"full"`` or ``"frontier"``)."""
        return self._search

    @property
    def cache(self) -> CharacterizationCache | None:
        """The (possibly shared) cache handle, if any."""
        return self._cache

    def attach_cache(self, cache: CharacterizationCache | None) -> None:
        """Swap the cache handle (e.g. for a farm-wide shared cache)."""
        self._cache = cache

    # -- evaluation plumbing --------------------------------------------------

    def _cache_key(self, trace_key: str, utilization: float) -> tuple:
        return (
            trace_key,
            utilization,
            self._space_key,
            self._power_key,
            self._qos_key,
            self._scaling_key,
            self._backend,
        )

    def _evaluator(
        self, jobs: JobTrace, trace_key: str | None
    ) -> Callable[[Policy], SimulationResult]:
        if self._backend != BACKEND_VECTORIZED:

            def evaluate(policy: Policy) -> _ResultSolution:
                return _ResultSolution(
                    simulate_trace(
                        jobs=jobs,
                        frequency=policy.frequency,
                        sleep=policy.sleep,
                        power_model=self._power_model,
                        scaling=self._scaling,
                        backend=self._backend,
                    )
                )

            return evaluate
        kernel = self._kernel(jobs, trace_key)
        return lambda policy: kernel.solve(policy.frequency, policy.sleep)

    def _kernel(self, jobs: JobTrace, trace_key: str | None) -> TraceKernel:
        """The trace kernel for *jobs* (shared through the cache if attached)."""
        if self._cache is not None and trace_key is not None:
            return self._cache.kernel_for(
                jobs,
                trace_key,
                self._power_model,
                self._power_key,
                self._scaling,
                self._scaling_key,
            )
        return TraceKernel(jobs, self._power_model, scaling=self._scaling)

    # -- characterisation -----------------------------------------------------

    def characterize(
        self, jobs: JobTrace, utilization: float
    ) -> tuple[PolicyEvaluation, ...]:
        """The full characterisation table (cached when a cache is attached)."""
        utilization = quantize_utilization(utilization, self._quantum)
        trace_key = trace_fingerprint(jobs) if self._cache is not None else None
        key = None
        if self._cache is not None and trace_key is not None:
            key = self._cache_key(trace_key, utilization)
            table = self._cache.lookup_table(key)
            if table is not None:
                return table
        table = self._full_table(jobs, utilization, trace_key)
        if self._cache is not None and key is not None:
            self._cache.store_table(key, table)
        return table

    def _grid_for(self, utilization: float) -> "_PolicyGrid | None":
        """The candidate grid at *utilization* (reused while the axis holds)."""
        frequencies = self._space.candidate_frequencies(utilization)
        key = frequencies.tobytes()
        if key not in self._grids:
            self._grids = {
                key: _PolicyGrid.build(self._space, utilization, frequencies)
            }
        return self._grids[key]

    def _full_table(
        self, jobs: JobTrace, utilization: float, trace_key: str | None
    ) -> tuple[PolicyEvaluation, ...]:
        grid = self._grid_for(utilization)
        candidates = (
            grid.policies
            if grid is not None
            else self._space.candidate_policies(utilization)
        )
        self.stats.candidates_evaluated += len(candidates)
        if self._backend == BACKEND_VECTORIZED:
            return characterize_on_kernel(
                self._kernel(jobs, trace_key), candidates, self._qos
            )
        evaluate = self._evaluator(jobs, trace_key)
        return tuple(
            evaluation_from_result(policy, evaluate(policy).result, self._qos)
            for policy in candidates
        )

    # -- selection ------------------------------------------------------------

    def select(self, jobs: JobTrace, utilization: float) -> PolicySelection:
        """Select the minimum-power feasible policy, oracle-identically."""
        utilization = quantize_utilization(utilization, self._quantum)
        self.stats.selections += 1
        trace_key = trace_fingerprint(jobs) if self._cache is not None else None
        key = None
        if self._cache is not None and trace_key is not None:
            key = self._cache_key(trace_key, utilization)
            cached = self._cache.lookup_selection(self._search, key)
            if cached is not None:
                return cached
        selection = None
        if self._search == SEARCH_FRONTIER and len(jobs) > 0:
            selection = self._frontier_select(jobs, utilization, trace_key)
        if selection is None:
            self.stats.full_selections += 1
            table = self._table_for_selection(jobs, utilization, trace_key, key)
            # A frontier selection counts its grid only when it succeeds, so
            # a frontier -> full fallback is counted here, exactly once.
            self.stats.candidates_seen += len(table)
            selection = pick_selection(table)
        if self._cache is not None and key is not None:
            self._cache.store_selection(self._search, key, selection)
        return selection

    def _table_for_selection(
        self,
        jobs: JobTrace,
        utilization: float,
        trace_key: str | None,
        key: tuple | None,
    ) -> tuple[PolicyEvaluation, ...]:
        """Full table for a full/fallback selection, shared with the cache."""
        if self._cache is not None and key is not None:
            table = self._cache.lookup_table(key)
            if table is None:
                table = self._full_table(jobs, utilization, trace_key)
                self._cache.store_table(key, table)
            return table
        return self._full_table(jobs, utilization, trace_key)

    def _frontier_select(
        self, jobs: JobTrace, utilization: float, trace_key: str | None
    ) -> PolicySelection | None:
        """Frontier-accelerated selection; ``None`` requests the full path."""
        grid = self._grid_for(utilization)
        if grid is None or grid.num_frequencies < 2:
            return None
        evaluate = self._evaluator(jobs, trace_key)
        qos = self._qos
        probes: dict[tuple[int, int], _Probe] = {}

        def probe(freq_index: int, variant_index: int) -> _Probe:
            cell = (freq_index, variant_index)
            entry = probes.get(cell)
            if entry is None:
                solution = evaluate(grid.policy_at(freq_index, variant_index))
                entry = _Probe(solution, qos)
                probes[cell] = entry
                self.stats.candidates_evaluated += 1
            return entry

        floors = grid.power_floors(jobs, self._power_model, self._scaling)
        winner = self._frontier.run(grid, probe, floors, self.stats)
        if winner is None:
            # Nothing feasible anywhere: the oracle ranks by largest slack
            # over the whole table, so only the exhaustive grid can match it.
            self.stats.fallback_full += 1
            return None
        # The probes released their per-job arrays once read, so the winning
        # cell is solved once more for its table row (the kernel is
        # deterministic: the row is the one the probe saw).
        policy = grid.policy_at(*winner)
        best = evaluation_from_result(policy, evaluate(policy).result, qos)
        self.stats.frontier_selections += 1
        # Count without touching grid.policies: materialising every cell
        # just to count it would defeat the lazy grid.
        self.stats.candidates_seen += grid.num_frequencies * grid.num_variants
        return PolicySelection(best=best, evaluations=(best,), feasible=True)
