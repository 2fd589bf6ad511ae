"""Task-facing contexts: the DataMPI programming interface.

``OContext.send`` and ``AContext.recv`` are the Python counterparts of
DataMPI's ``MPI_D_Send(key, value)`` / ``MPI_D_Recv()``.  An O task is a
function ``o_task(ctx, split)`` that emits key-value pairs; an A task is
a function ``a_task(ctx)`` that consumes them (in key order when sorting
is enabled) and returns its output.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from repro.common.errors import CommunicatorError
from repro.common.kv import KeyValue, encode_field
from repro.mpi import faultinject
from repro.datampi.buffers import PartitionedSendBuffer
from repro.datampi.communicator import TAG_DATA, BipartiteComm
from repro.datampi.partition import (
    Partitioner,
    hash_key_field,
    hash_partitioner,
    validate_partition,
)
from repro.storage import ChunkStore, KVCache


class OContext:
    """Context handed to O tasks; ``send`` is the MPI_D_Send equivalent."""

    def __init__(
        self,
        bcomm: BipartiteComm,
        *,
        partitioner: Partitioner | None = None,
        sort: bool = True,
        combiner=None,
        send_buffer_bytes: int | None = None,
        cache: KVCache | None = None,
        superstep: int | None = None,
    ):
        self._bcomm = bcomm
        self._num_a = bcomm.num_a
        #: None routes with ``hash_key_field`` on the key bytes ``send``
        #: encodes anyway — the same destinations as ``hash_partitioner``.
        self._partitioner = None if partitioner is hash_partitioner else partitioner
        self._closed = False
        #: Rank-lifetime KV cache (iteration/streaming modes); None in
        #: run-once jobs, whose ranks do not outlive a single superstep.
        self.cache = cache
        #: 1-based iteration (or streaming window) this context serves;
        #: None in run-once jobs.
        self.superstep = superstep
        kwargs = {"sort": sort, "combiner": combiner}
        if send_buffer_bytes is not None:
            kwargs["threshold_bytes"] = send_buffer_bytes

        # The ``shuffle`` fault point fires per flushed chunk — after some
        # chunks may already be in flight, before the EOFs — which is the
        # window where a death leaves peers mid-protocol.  Per-chunk (not
        # per-record) keeps the hot send path untouched.
        def chunk_sink(a_index: int, payload: bytes) -> None:
            faultinject.fire(
                "shuffle", rank=bcomm.comm.rank, superstep=superstep
            )
            bcomm.send_chunk(a_index, payload)

        self._buffer = PartitionedSendBuffer(bcomm.num_a, chunk_sink, **kwargs)

    @property
    def rank(self) -> int:
        return self._bcomm.o_index

    @property
    def num_o(self) -> int:
        return self._bcomm.num_o

    @property
    def num_a(self) -> int:
        return self._bcomm.num_a

    def send(self, key: Any, value: Any) -> None:
        """Emit one key-value pair toward its A task (pipelined)."""
        if self._closed:
            raise CommunicatorError("send after O context was closed")
        key_field = encode_field(key)
        if self._partitioner is None:
            destination = hash_key_field(key_field, self._num_a)
        else:
            destination = validate_partition(
                self._partitioner(key, self._num_a), self._num_a
            )
        self._buffer.add(destination, key, value, key_field)

    def close(self) -> None:
        """Flush remaining buffers and signal EOF to every A task.

        EOF flows even when the final flush raises: A ranks must never
        block on a failed O task, and iterative supersteps rely on the EOF
        count staying exact so the failure can propagate through the
        control channel instead of a receive timeout.
        """
        if self._closed:
            return
        try:
            self._buffer.flush_all()
        finally:
            self._bcomm.send_eof()
            self._closed = True

    @property
    def counters(self) -> dict[str, int]:
        return {
            "o.records_emitted": self._buffer.records_buffered,
            "o.records_sent": self._buffer.records_sent,
            "o.bytes_sent": self._buffer.bytes_sent,
            "o.chunks_sent": self._buffer.chunks_sent,
            "o.records_combined_away": self._buffer.records_combined_away,
        }


class AContext:
    """Context handed to A tasks; ``recv`` is the MPI_D_Recv equivalent."""

    def __init__(self, bcomm: BipartiteComm | None, store: ChunkStore, *,
                 sort: bool = True, a_index: int | None = None, num_o: int = 0,
                 cache: KVCache | None = None, superstep: int | None = None):
        self._bcomm = bcomm
        self._store = store
        self._sort = sort
        self.cache = cache
        self.superstep = superstep
        self._a_index = a_index if a_index is not None else (
            bcomm.a_index if bcomm is not None else 0
        )
        self._num_o = num_o or (bcomm.num_o if bcomm is not None else 0)
        self._drained = bcomm is None  # restored-from-checkpoint contexts skip drain
        self._iterator: Iterator[KeyValue] | None = None
        self.records_received = 0
        self.bytes_received = 0

    @property
    def rank(self) -> int:
        return self._a_index

    def drain(self) -> None:
        """Receive chunks until every O task has sent EOF (the implicit
        data-movement phase)."""
        if self._drained:
            return
        assert self._bcomm is not None
        eof_remaining = self._num_o
        sequence_of: dict[int, int] = {}
        while eof_remaining > 0:
            message = self._bcomm.recv_any()
            if message.tag == TAG_DATA:
                # Origin-stamp each chunk so downstream merge order is
                # canonical even when transports deliver out of order.
                sequence = sequence_of.get(message.source, 0)
                sequence_of[message.source] = sequence + 1
                self._store.add(message.payload, origin=(message.source, sequence))
                self.bytes_received += len(message.payload)
            else:
                eof_remaining -= 1
        self._drained = True

    def _ensure_iterator(self) -> Iterator[KeyValue]:
        self.drain()
        if self._iterator is None:
            self._iterator = self._store.merged(sort=self._sort)
        return self._iterator

    def recv(self) -> KeyValue | None:
        """Next key-value record, or ``None`` when input is exhausted."""
        iterator = self._ensure_iterator()
        record = next(iterator, None)
        if record is not None:
            self.records_received += 1
        return record

    def __iter__(self) -> Iterator[KeyValue]:
        iterator = self._ensure_iterator()
        for record in iterator:
            self.records_received += 1
            yield record

    def grouped(self) -> Iterator[tuple[Any, list[Any]]]:
        """Iterate ``(key, [values])`` groups.

        With sorting enabled this streams ``itertools.groupby`` runs; with
        sorting disabled it must accumulate a dictionary (documented memory
        cost), preserving first-seen key order.
        """
        if self._sort:
            for key, group in itertools.groupby(self, key=lambda kv: kv.key):
                yield key, [record.value for record in group]
        else:
            table: dict[Any, list[Any]] = {}
            for record in self:
                table.setdefault(record.key, []).append(record.value)
            yield from table.items()

    @property
    def counters(self) -> dict[str, int]:
        return {
            "a.records_received": self.records_received,
            "a.bytes_received": self.bytes_received,
            "a.spills": self._store.spills,
            "a.spilled_bytes": self._store.spilled_bytes,
            "a.bytes_spilled": self._store.bytes_spilled,
            "a.spill_reads": self._store.spill_reads,
        }

    def cleanup(self) -> None:
        self._store.cleanup()
