"""O-side partitioned send buffers — the pipelining half of DataMPI.

Each O task keeps one buffer per destination A task, and every record
in it is already encoded: ``OContext.send`` encodes each key once (and
partitions on those same bytes), and the buffer encodes the value as
the record arrives.  The flush threshold therefore counts real encoded
bytes — the bytes that will go on the wire — and a flush writes its
chunk from the stored bytes instead of encoding again.

When a buffer reaches the send threshold it is *flushed* — sorted by
key (DataMPI delivers key-ordered data to A tasks), written out as one
chunk, and sent immediately — while the O task keeps computing.  This is the "data
movement is pipelining with the computation overlapped in O tasks"
design of Section 2.3, and it is why DataMPI's shuffle is largely
complete by the time the O phase ends (Section 4.4's network analysis).

With a combiner, records are combined by hashing: each destination
aggregates values in a table keyed by the encoded key bytes (so any
encodable key works, hashable or not), and a flush sorts only the
unique keys, not every record, before applying the combiner once per
key.  Keys that compare equal but encode differently (``1``, ``1.0``,
``True``) stay separate records; the A side groups them as before.
With ``sort=False`` a flush sends keys in first-seen order and merges
every duplicate in it, not only adjacent ones.

Encoded chunks leave here as ``bytes`` and stay binary all the way to
the A task: the transports move them verbatim (``FMT_RAW`` — never
through pickle), and the shm backend coalesces chunks below its batch
threshold into a single ring slot, so a small ``threshold_bytes`` here
does not translate into per-chunk descriptor traffic.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

from repro.common.errors import DataMPIError

# ``record_size`` and ``encode_stream`` are unused here, but perfbench's
# span tracer wraps them under these module names, so they stay imported.
from repro.common.kv import (
    RECORD_HEADER,
    encode_field,
    encode_stream,
    join_record,
    record_size,
)

#: Default flush threshold per destination buffer (bytes of encoded data).
DEFAULT_SEND_BUFFER_BYTES = 256 * 1024

_HEADER_BYTES = RECORD_HEADER.size

Combiner = Callable[[Any, list[Any]], Any]


class PartitionedSendBuffer:
    """Per-destination buffering with threshold-triggered pipelined sends."""

    def __init__(
        self,
        num_destinations: int,
        send: Callable[[int, bytes], None],
        *,
        sort: bool = True,
        combiner: Combiner | None = None,
        threshold_bytes: int = DEFAULT_SEND_BUFFER_BYTES,
    ):
        if num_destinations < 1:
            raise DataMPIError(f"need >= 1 destination, got {num_destinations}")
        if threshold_bytes < 1:
            raise DataMPIError(f"threshold must be >= 1 byte, got {threshold_bytes}")
        self._send = send
        self._sort = sort
        self._combiner = combiner
        self._threshold = threshold_bytes
        #: Without a combiner: ``(key, encoded record)`` in arrival order.
        self._records: list[list[tuple[Any, bytes]]] = [[] for _ in range(num_destinations)]
        #: With a combiner: encoded key -> ``(key, first encoded value, values)``.
        self._groups: list[dict[bytes, tuple[Any, bytes, list[Any]]]] = [
            {} for _ in range(num_destinations)
        ]
        self._bytes: list[int] = [0] * num_destinations
        self.records_buffered = 0
        self.records_sent = 0
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.records_combined_away = 0

    def add(self, destination: int, key: Any, value: Any,
            key_field: bytes | None = None) -> None:
        """Buffer one record; flush the destination if over threshold.

        ``key_field`` is ``encode_field(key)`` when the caller already
        has it, so the key is encoded once per record.
        """
        if key_field is None:
            key_field = encode_field(key)
        value_field = encode_field(value)
        self.records_buffered += 1
        if self._combiner is None:
            self._records[destination].append((key, join_record(key_field, value_field)))
        else:
            groups = self._groups[destination]
            group = groups.get(key_field)
            if group is None:
                groups[key_field] = (key, value_field, [value])
            else:
                group[2].append(value)
        size = self._bytes[destination] + _HEADER_BYTES + len(key_field) + len(value_field)
        self._bytes[destination] = size
        if size >= self._threshold:
            self.flush(destination)

    def flush(self, destination: int) -> None:
        """Sort, combine and send one destination's buffer as one chunk."""
        if self._combiner is None:
            records = self._records[destination]
            if not records:
                return
            if self._sort:
                records.sort(key=itemgetter(0))
            payload = b"".join([record for _, record in records])
            count = len(records)
            self._records[destination] = []
        else:
            groups = self._groups[destination]
            if not groups:
                return
            payload, count = self._combine(groups)
            self._groups[destination] = {}
        self._send(destination, payload)
        self.records_sent += count
        self.bytes_sent += len(payload)
        self.chunks_sent += 1
        self._bytes[destination] = 0

    def _combine(self, groups: dict[bytes, tuple[Any, bytes, list[Any]]]) -> tuple[bytes, int]:
        """One record per unique key, in key order when sorting."""
        combiner = self._combiner
        assert combiner is not None
        entries = list(groups.items())
        if self._sort:
            entries.sort(key=lambda entry: entry[1][0])
        records = []
        emitted = 0
        for key_field, (key, value_field, values) in entries:
            emitted += len(values)
            if len(values) > 1:
                value_field = encode_field(combiner(key, values))
            records.append(join_record(key_field, value_field))
        self.records_combined_away += emitted - len(records)
        return b"".join(records), len(records)

    def flush_all(self) -> None:
        """Flush every destination (called when the O task finishes)."""
        for destination in range(len(self._bytes)):
            self.flush(destination)

    @property
    def buffered_bytes(self) -> int:
        return sum(self._bytes)
