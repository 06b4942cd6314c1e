"""Trace storage backends: in-memory and memory-mapped.

A :class:`~repro.workloads.jobs.JobTrace` is two parallel float64 arrays.
Where those arrays *live* is orthogonal to what they mean, and at farm scale
it matters for process-sharded runs: by default the process executor
pickles each server's full dispatched sub-stream into its shard task, so a
million-job farm serialises the whole trace once per farm.  This module
makes the storage pluggable (the ``trace_backend`` knob on
:class:`~repro.cluster.farm.ServerFarm`, ``Scenario.build`` and the
``run-scenario`` CLI):

* ``"memory"`` — plain in-process ndarrays; the default.  Process shards
  carry pickled array copies.
* ``"mmap"`` — ``numpy.memmap`` over ``.npy`` files.  The parent publishes
  the (server-grouped) arrival/demand arrays into a
  :class:`SharedTraceArena` *once*; shard tasks carry only
  :class:`ArrayDescriptor`\\ s — ``(file path, offset, length)`` tuples of
  constant size — and worker processes copy their range out of the file.
  Per-shard pickled bytes drop from O(jobs) to O(1).  The same files let
  traces larger than RAM stream through chunked farm runs
  (``JobTrace.to_file``/``from_file`` + ``ServerFarm.run(chunk_jobs=...)``).

Lifecycle
---------

The arena owns a fresh ``repro_arena_*`` temporary directory and deletes
it on ``close()``/``__exit__`` — which runs even when a worker crashes (the
executor's ``map`` raises and the ``with`` block unwinds).  Workers only
read the files; they never delete them.

The storage backend is **result-invisible**, exactly like the executor
choice: the arrays a worker copies out of a descriptor are byte-for-byte
the arrays the memory path would have pickled, so serial/process runs stay
bit-identical across both backends (pinned by
``tests/cluster/test_trace_backend_parity.py``).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError, TraceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (jobs imports storage)
    from repro.workloads.jobs import JobTrace

#: Trace storage backends accepted by every ``trace_backend=`` knob.
TRACE_BACKEND_MEMORY = "memory"
TRACE_BACKEND_MMAP = "mmap"
TRACE_BACKENDS = (TRACE_BACKEND_MEMORY, TRACE_BACKEND_MMAP)

#: Chunk size (elements) for the streaming invariant validation, chosen so
#: validating a memory-mapped trace never materialises more than a few MB.
_VALIDATE_CHUNK = 1 << 20


def validate_trace_backend(backend: str) -> str:
    """Check *backend* names a known trace storage backend and return it."""
    if backend not in TRACE_BACKENDS:
        raise ConfigurationError(
            f"unknown trace backend {backend!r}; expected one of {TRACE_BACKENDS}"
        )
    return backend


def validate_trace_arrays(
    arrivals: np.ndarray,
    demands: np.ndarray,
    *,
    chunk: int = _VALIDATE_CHUNK,
) -> None:
    """Run the :class:`~repro.workloads.jobs.JobTrace` invariant scans chunked.

    Identical checks to the trusting-nothing constructor — finite,
    non-negative, arrivals non-decreasing — but streamed ``chunk`` elements
    at a time, so validating a memory-mapped trace larger than RAM stays in
    bounded memory (``np.isfinite`` over the whole array would materialise
    an O(n) boolean mask).
    """
    if arrivals.ndim != 1 or demands.ndim != 1:
        raise TraceError("arrival times and service demands must be 1-D")
    if arrivals.size != demands.size:
        raise TraceError(
            f"got {arrivals.size} arrival times but {demands.size} service demands"
        )
    previous = -np.inf
    for start in range(0, arrivals.size, chunk):
        stop = start + chunk
        arrival_chunk = np.asarray(arrivals[start:stop], dtype=float)
        demand_chunk = np.asarray(demands[start:stop], dtype=float)
        if not np.all(np.isfinite(arrival_chunk)) or not np.all(
            np.isfinite(demand_chunk)
        ):
            raise TraceError("arrival times and service demands must be finite")
        if np.any(arrival_chunk < 0) or np.any(demand_chunk < 0):
            raise TraceError(
                "arrival times and service demands must be non-negative"
            )
        if arrival_chunk.size and (
            arrival_chunk[0] < previous or np.any(np.diff(arrival_chunk) < 0)
        ):
            raise TraceError("arrival times must be non-decreasing")
        if arrival_chunk.size:
            previous = float(arrival_chunk[-1])


def is_mmap_backed(array: np.ndarray) -> bool:
    """Whether *array* is (a view of) a :class:`numpy.memmap`."""
    current: np.ndarray | None = array
    while current is not None:
        if isinstance(current, np.memmap):
            return True
        current = getattr(current, "base", None)
    return False


# ---------------------------------------------------------------------------
# The file arena: descriptors out, files deleted on close
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayDescriptor:
    """Picklable, constant-size handle to (a slice of) a published array.

    ``location`` is the path of the ``.npy`` file :class:`SharedTraceArena`
    wrote.  ``offset`` and ``length`` are in *elements*, so one published
    array can hand out many non-overlapping sub-range descriptors (the
    per-server index slices of a farm shard) without further copies.
    """

    location: str
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ConfigurationError(
                f"descriptor offset/length must be non-negative, got "
                f"offset={self.offset}, length={self.length}"
            )

    def narrow(self, start: int, length: int) -> "ArrayDescriptor":
        """A descriptor for ``[start, start + length)`` of this one's range."""
        if start < 0 or length < 0 or start + length > self.length:
            raise ConfigurationError(
                f"narrow({start}, {length}) outside descriptor of "
                f"length {self.length}"
            )
        return replace(self, offset=self.offset + start, length=length)

    def load(self) -> np.ndarray:
        """A private in-process *copy* of this descriptor's range.

        The file is memory-mapped only for the copy, so no mapping outlives
        the call and the owning arena may delete the file at any time after.
        """
        data = np.load(self.location, mmap_mode="r")
        return np.array(data[self.offset : self.offset + self.length])


class SharedTraceArena:
    """Owner of published trace files: write once, read anywhere, delete always.

    ``publish`` writes an array to a fresh ``.npy`` file in the arena's own
    ``repro_arena_*`` temporary directory (one copy total, not one per
    shard) and returns its :class:`ArrayDescriptor`; worker processes copy
    their range out with :meth:`ArrayDescriptor.load`.  ``close()`` — or
    leaving the ``with`` block, including when a worker raised or the pool
    broke — deletes the directory and every file in it.
    """

    def __init__(self) -> None:
        self._directory = tempfile.TemporaryDirectory(prefix="repro_arena_")
        self._counter = 0

    @property
    def closed(self) -> bool:
        return self._directory is None

    def publish(self, array: np.ndarray, label: str = "array") -> ArrayDescriptor:
        """Write *array* to a fresh file and return its descriptor.

        The write is paid exactly once per published array; every shard task
        built from the returned descriptor (or its :meth:`ArrayDescriptor.narrow`
        slices) ships only the descriptor.
        """
        if self._directory is None:
            raise ConfigurationError("cannot publish into a closed arena")
        data = np.ascontiguousarray(array)
        if data.ndim != 1:
            raise ConfigurationError(
                f"only 1-D arrays can be published, got ndim={data.ndim}"
            )
        self._counter += 1
        path = Path(self._directory.name) / f"{self._counter}_{label}.npy"
        np.save(path, data, allow_pickle=False)
        return ArrayDescriptor(location=str(path), offset=0, length=int(data.size))

    def close(self) -> None:
        """Delete every published file (idempotent)."""
        if self._directory is not None:
            self._directory.cleanup()
            self._directory = None

    def __enter__(self) -> "SharedTraceArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# TraceBuffer: the (arrivals, demands) pair behind a backend
# ---------------------------------------------------------------------------


class TraceBuffer:
    """A trace's two parallel arrays behind one of the storage backends.

    This is the array-level substrate :class:`~repro.workloads.jobs.JobTrace`
    persistence builds on:

    * :meth:`in_memory` wraps plain ndarrays (the default backend);
    * :meth:`from_file` / :meth:`write_file` give the ``.npy`` on-disk form
      (one ``(2, n)`` float64 array: row 0 arrivals, row 1 demands) that
      memory-mapped, larger-than-RAM traces stream from.

    Whatever the backend, :attr:`arrivals` / :attr:`demands` are read-only
    float64 views with byte-identical contents, which is what makes the
    ``trace_backend`` knob result-invisible.
    """

    def __init__(
        self,
        backend: str,
        arrivals: np.ndarray,
        demands: np.ndarray,
    ):
        validate_trace_backend(backend)
        if arrivals.shape != demands.shape or arrivals.ndim != 1:
            raise TraceError(
                "arrival times and service demands must be matching 1-D arrays"
            )
        self.backend = backend
        self._arrivals = arrivals
        self._demands = demands

    # -- constructors ------------------------------------------------------

    @classmethod
    def in_memory(cls, arrivals: np.ndarray, demands: np.ndarray) -> "TraceBuffer":
        """Plain in-process arrays (today's default behaviour)."""
        return cls(
            TRACE_BACKEND_MEMORY,
            np.asarray(arrivals, dtype=float),
            np.asarray(demands, dtype=float),
        )

    @staticmethod
    def write_file(
        path: str | Path, arrivals: np.ndarray, demands: np.ndarray
    ) -> None:
        """Write the on-disk ``(2, n)`` float64 ``.npy`` form of a trace."""
        arrivals = np.asarray(arrivals, dtype=float)
        demands = np.asarray(demands, dtype=float)
        if arrivals.shape != demands.shape or arrivals.ndim != 1:
            raise TraceError(
                "arrival times and service demands must be matching 1-D arrays"
            )
        target = np.lib.format.open_memmap(
            str(path), mode="w+", dtype=np.float64, shape=(2, arrivals.size)
        )
        try:
            # Row-at-a-time chunked writes keep the resident set bounded
            # even when the source arrays are themselves memory-mapped.
            for row, source in ((0, arrivals), (1, demands)):
                for start in range(0, arrivals.size, _VALIDATE_CHUNK):
                    stop = start + _VALIDATE_CHUNK
                    target[row, start:stop] = source[start:stop]
            target.flush()
        finally:
            del target

    @classmethod
    def from_file(cls, path: str | Path, *, mmap: bool = True) -> "TraceBuffer":
        """Open a trace file written by :meth:`write_file`.

        With ``mmap=True`` (default) the arrays are read-only views of a
        :class:`numpy.memmap` — only the pages a farm run actually touches
        are ever resident, so traces larger than RAM stream through
        ``ServerFarm.run(chunk_jobs=...)``.  ``mmap=False`` loads eagerly.
        """
        path = Path(path)
        if not path.exists():
            raise TraceError(f"trace file {path} does not exist")
        data = np.load(str(path), mmap_mode="r" if mmap else None)
        if data.ndim != 2 or data.shape[0] != 2 or data.dtype != np.float64:
            raise TraceError(
                f"{path} is not a trace file (expected a (2, n) float64 "
                f"array, got shape {data.shape}, dtype {data.dtype})"
            )
        backend = TRACE_BACKEND_MMAP if mmap else TRACE_BACKEND_MEMORY
        return cls(backend, data[0], data[1])

    # -- array surface -----------------------------------------------------

    @property
    def arrivals(self) -> np.ndarray:
        """Absolute arrival times, seconds (read-only view)."""
        view = self._arrivals.view()
        view.flags.writeable = False
        return view

    @property
    def demands(self) -> np.ndarray:
        """Nominal service demands, seconds (read-only view)."""
        view = self._demands.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return int(self._arrivals.size)

    def validate(self) -> "TraceBuffer":
        """Run the chunked invariant scans over the buffer; return self."""
        validate_trace_arrays(self._arrivals, self._demands)
        return self

    def as_trace(self) -> "JobTrace":
        """The :class:`~repro.workloads.jobs.JobTrace` over these arrays.

        Trusted construction — no O(n) re-validation.  Call
        :meth:`validate` first when the buffer came from an external file.
        """
        from repro.workloads.jobs import JobTrace

        return JobTrace.from_validated_arrays(self._arrivals, self._demands)

    def iter_chunks(
        self, chunk: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Arrival-ordered ``(arrivals, demands)`` slices of *chunk* elements.

        Basic slices of a memory-mapped buffer are themselves views, so
        iterating a larger-than-RAM trace touches one chunk at a time.
        """
        if chunk < 1:
            raise ConfigurationError(f"chunk must be at least 1, got {chunk}")
        for start in range(0, len(self), chunk):
            stop = start + chunk
            yield self._arrivals[start:stop], self._demands[start:stop]
