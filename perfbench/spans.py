"""Span tracer that times the program's layers from outside.

The benchmark never edits the program: it replaces public functions and
methods of ``repro`` with timing wrappers (:meth:`Tracer.install`) and
restores them afterwards (:meth:`Tracer.uninstall`).  The shm and tcp
transports fork their rank processes, so wrappers installed before a
world forms are inherited by every rank; each forked rank clears what it
inherited, records its own spans and writes them to a file when its main
returns, and the benchmark merges those files (:meth:`Tracer.collect`).

Two kinds of record are kept, both in memory until the run ends:

* *stats*: per layer, calls, total seconds, self seconds (span minus the
  spans nested in it) and bytes.  Every wrapped call updates them.
* *events*: one entry per coarse span (per chunk, message, task or
  superstep, never per record), with start time and parent.  They feed
  the trace-event JSON export and every metric that must be restricted
  to job windows.

``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so event times
from rank processes and from the benchmark process share one clock.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
from typing import Any, Callable, Iterable, Iterator

#: Spans that enclose a whole job or rank; they attribute nothing.
ROOT_SPANS = ("job", "rank")


class _Frames(threading.local):
    """Per-thread span stack; the bottom frame absorbs top-level time."""

    def __init__(self) -> None:
        self.frames: list[list[Any]] = [[0.0, None]]


def _payload_bytes(payload: Any) -> int:
    if isinstance(payload, memoryview):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 0


class Tracer:
    """Span recorder for one benchmark process and the ranks it forks."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.owner_pid = os.getpid()
        self._local = _Frames()
        #: layer -> [calls, total_s, self_s, bytes]
        self.stats: dict[str, list[Any]] = {}
        #: (name, start, duration, self, bytes, thread id, parent name)
        self.events: list[tuple] = []
        #: merged records of forked ranks: {"pid", "stats", "events"}
        self.rank_dumps: list[dict[str, Any]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrappers ----------------------------------------------------------------

    def _stat(self, name: str) -> list[Any]:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def hot(self, name: str, fn: Callable) -> Callable:
        """Wrap a per-record function: stats only, no events."""
        stat = self._stat(name)
        local = self._local
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frames = local.frames
            frame = [0.0, name]
            frames.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                frames.pop()
                frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]

        return traced

    def span(self, name: str, fn: Callable, *,
             nbytes: Callable[[tuple, Any], int] | None = None,
             errors: str | None = None) -> Callable:
        """Wrap a coarse function: stats plus one event per call.

        ``nbytes(args, result)`` adds to the layer's byte count;
        ``errors`` names a stat whose call count counts raised exceptions.
        """
        stat = self._stat(name)
        error_stat = self._stat(errors) if errors is not None else None
        local = self._local
        events = self.events
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frames = local.frames
            frame = [0.0, name]
            frames.append(frame)
            start = perf()
            size = 0
            try:
                result = fn(*args, **kwargs)
                if nbytes is not None:
                    size = nbytes(args, result)
                return result
            except BaseException:
                if error_stat is not None:
                    error_stat[0] += 1
                raise
            finally:
                elapsed = perf() - start
                frames.pop()
                parent = frames[-1]
                parent[0] += elapsed
                own = elapsed - frame[0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += own
                stat[3] += size
                events.append((name, start, elapsed, own, size,
                               threading.get_ident(), parent[1]))

        return traced

    def timed_iter(self, name: str, iterator: Iterable) -> Iterator:
        """Charge the time spent producing each item to ``name``.

        For lazy iterators (``heapq.merge``, ``decode_stream``) whose work
        happens while the caller consumes them.  Adds to self time only;
        the call count stays with the function that made the iterator.
        """
        stat = self._stat(name)
        local = self._local
        perf = time.perf_counter
        source = iter(iterator)
        while True:
            frames = local.frames
            frame = [0.0, name]
            frames.append(frame)
            start = perf()
            try:
                item = next(source)
            except StopIteration:
                return
            finally:
                elapsed = perf() - start
                frames.pop()
                frames[-1][0] += elapsed
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            yield item

    def counted_iter(self, name: str, fn: Callable) -> Callable:
        """Wrap a function returning a lazy iterator: count the call and
        time the iteration under ``name``."""
        stat = self._stat(name)

        def traced(*args, **kwargs):
            stat[0] += 1
            return self.timed_iter(name, fn(*args, **kwargs))

        return traced

    def rank_main(self, main: Callable) -> Callable:
        """Wrap a rank's main so a forked rank records only its own spans
        and writes them out before it reports its result."""
        traced_main = self.span("rank", main)

        def rank(*args, **kwargs):
            forked = os.getpid() != self.owner_pid
            if forked:
                self._reset_inherited()
            try:
                return traced_main(*args, **kwargs)
            finally:
                if forked:
                    self._dump()

        return rank

    # -- installation ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, jobs: Iterable[Any] = ()) -> None:
        """Wrap every traced layer, and the o/a tasks of ``jobs``."""
        if self._undo:
            raise RuntimeError("tracer hooks already installed")
        import repro.datampi.buffers as buffers
        import repro.datampi.context as context
        import repro.datampi.job as job_module
        import repro.datampi.partition as partition
        import repro.mpi.comm as comm
        import repro.serving.pool as pool
        import repro.storage.chunkstore as chunkstore
        import repro.storage.spill as spill

        def sent_bytes(args: tuple, _result: Any) -> int:
            return _payload_bytes(args[2]) if len(args) > 2 else 0

        merged = chunkstore.ChunkStore.merged

        def traced_merged(*args, **kwargs):
            return self.timed_iter("storage.merge", merged(*args, **kwargs))

        mpi_run = job_module.mpi_run

        def traced_mpi_run(world_size, main, *args, **kwargs):
            return mpi_run(world_size, self.rank_main(main), *args, **kwargs)

        patches = [
            # datampi.partition
            (context, "hash_partitioner", self.hot("partition", context.hash_partitioner)),
            (partition.RangePartitioner, "__call__",
             self.hot("partition", partition.RangePartitioner.__call__)),
            # common.kv: size accounting, encode, decode
            (buffers, "record_size", self.hot("kv.size", buffers.record_size)),
            (buffers, "encode_stream", self.span(
                "kv.encode", buffers.encode_stream,
                nbytes=lambda _args, result: len(result))),
            (chunkstore, "decode_stream",
             self.counted_iter("kv.decode", chunkstore.decode_stream)),
            # datampi.context
            (context.OContext, "send", self.hot("context.send", context.OContext.send)),
            (context.AContext, "drain", self.span("context.drain", context.AContext.drain)),
            # datampi.buffers
            (buffers.PartitionedSendBuffer, "flush",
             self.span("buffers.flush", buffers.PartitionedSendBuffer.flush)),
            # storage
            (chunkstore.ChunkStore, "add", self.span("storage.add", chunkstore.ChunkStore.add)),
            (chunkstore.ChunkStore, "merged", self.span("storage.merge", traced_merged)),
            (spill.SpillStore, "put", self.span("storage.put", spill.SpillStore.put)),
            (spill.SpillStore, "get", self.span("storage.get", spill.SpillStore.get)),
            # mpi.transport, seen through the Comm every layer above uses
            (comm.Comm, "send", self.span("transport.send", comm.Comm.send,
                                          nbytes=sent_bytes, errors="transport.errors")),
            (comm.Comm, "recv", self.span("transport.recv", comm.Comm.recv,
                                          errors="transport.errors")),
            # rank entry points: cold jobs and the serving pool
            (job_module, "mpi_run", traced_mpi_run),
            (pool, "_serve_world", self.rank_main(pool._serve_world)),
            (pool, "run_superstep", self.span("pool.superstep", pool.run_superstep)),
            (pool, "recycle_world", self.span("pool.recycle", pool.recycle_world)),
        ]
        for job in jobs:
            patches.append((job, "o_task", self.span("task.o", job.o_task)))
            patches.append((job, "a_task", self.span("task.a", job.a_task)))
        for owner, attr, replacement in patches:
            self._patch(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore everything :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- rank processes ----------------------------------------------------------

    def _reset_inherited(self) -> None:
        # The wrappers hold references to these containers: clear in place.
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.events.clear()
        self.rank_dumps.clear()
        self._local.frames = [[0.0, None]]

    def _dump(self) -> None:
        record = {"pid": os.getpid(), "stats": self.stats, "events": self.events}
        path = os.path.join(self.out_dir, f"rank-{os.getpid()}-{time.monotonic_ns()}")
        with open(path + ".tmp", "w") as handle:
            json.dump(record, handle)
        os.replace(path + ".tmp", path + ".json")

    def collect(self) -> None:
        """Merge (and delete) the span files of ranks that have exited."""
        for name in sorted(os.listdir(self.out_dir)):
            if not (name.startswith("rank-") and name.endswith(".json")):
                continue
            path = os.path.join(self.out_dir, name)
            with open(path) as handle:
                self.rank_dumps.append(json.load(handle))
            os.unlink(path)

    # -- results -----------------------------------------------------------------

    def merged_stats(self) -> dict[str, list[Any]]:
        """Stats summed over this process and every collected rank."""
        total: dict[str, list[Any]] = {}
        for stats in [self.stats] + [dump["stats"] for dump in self.rank_dumps]:
            for name, (calls, elapsed, own, size) in stats.items():
                into = total.setdefault(name, [0, 0.0, 0.0, 0])
                into[0] += calls
                into[1] += elapsed
                into[2] += own
                into[3] += size
        return total

    def all_events(self) -> list[tuple[int, tuple]]:
        """``(pid, event)`` for this process's and every rank's events."""
        merged = [(self.owner_pid, event) for event in self.events]
        for dump in self.rank_dumps:
            merged.extend((dump["pid"], tuple(event)) for event in dump["events"])
        return merged

    def export(self, path: str, windows: list[tuple[float, float]]) -> None:
        """Write every event, and the job windows, as trace-event JSON."""
        events = self.all_events()
        origin = min([start for start, _ in windows] + [e[1] for _, e in events],
                     default=0.0)
        trace = [
            {"name": "job", "ph": "X", "pid": self.owner_pid, "tid": 0,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"job": index}}
            for index, (start, end) in enumerate(windows)
        ]
        for pid, (name, start, elapsed, own, size, tid, parent) in events:
            trace.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": (start - origin) * 1e6, "dur": elapsed * 1e6,
                "args": {"parent": parent, "self_us": own * 1e6, "bytes": size},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, handle)


class Windows:
    """Sorted, disjoint job windows and overlap queries against them."""

    def __init__(self, windows: list[tuple[float, float]]) -> None:
        self.windows = sorted(windows)
        self._starts = [start for start, _ in self.windows]

    def index_of(self, moment: float) -> int | None:
        """Index of the window containing ``moment``, if any."""
        index = bisect.bisect_right(self._starts, moment) - 1
        if index >= 0 and moment <= self.windows[index][1]:
            return index
        return None

    def overlaps(self, start: float, end: float) -> list[tuple[int, float]]:
        """``(window index, overlap seconds)`` for each window ``[start,
        end]`` intersects."""
        found = []
        index = max(0, bisect.bisect_right(self._starts, start) - 1)
        while index < len(self.windows) and self.windows[index][0] < end:
            low = max(start, self.windows[index][0])
            high = min(end, self.windows[index][1])
            if high > low:
                found.append((index, high - low))
            index += 1
        return found

    def uncovered(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Per window: seconds that no interval covers."""
        covered = [0.0] * len(self.windows)
        merged: list[list[float]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        for start, end in merged:
            for index, seconds in self.overlaps(start, end):
                covered[index] += seconds
        return [end - start - cover
                for (start, end), cover in zip(self.windows, covered)]
