"""Partitioners: route a key to one of the A tasks.

DataMPI partitions the data emitted by O tasks across the A communicator
(Section 2.3: "DataMPI partitions and stores the emitted data by O tasks").
The default is a stable hash partitioner (CRC32 over the encoded key, so
results do not depend on Python's per-process hash randomization); Sort
uses a range partitioner so that concatenating the A outputs in rank order
yields a totally ordered result, as TeraSort-style jobs do.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Callable, Sequence

from repro.common.errors import DataMPIError
from repro.common.kv import RECORD_HEADER, encode_field

Partitioner = Callable[[Any, int], int]


#: ``hash_partitioner`` hashes ``encode_record(key, None)``: the record
#: header, the key field, then this encoded None.
_NONE_FIELD = encode_field(None)

#: CRC32 of that record header, by key field length (short keys).
_HEADER_CRCS = [zlib.crc32(RECORD_HEADER.pack(length, len(_NONE_FIELD)))
                for length in range(256)]


def hash_partitioner(key: Any, num_partitions: int) -> int:
    """Stable hash partitioning (the library default): CRC32 of
    ``encode_record(key, None)``."""
    return hash_key_field(encode_field(key), num_partitions)


def hash_key_field(key_field: bytes, num_partitions: int) -> int:
    """:func:`hash_partitioner` for a key already encoded by
    ``encode_field``: the same CRC32 over the same bytes, so a sender that
    encodes each key once routes exactly as ``hash_partitioner`` does."""
    length = len(key_field)
    if length < len(_HEADER_CRCS):
        header_crc = _HEADER_CRCS[length]
    else:
        header_crc = zlib.crc32(RECORD_HEADER.pack(length, len(_NONE_FIELD)))
    return zlib.crc32(_NONE_FIELD, zlib.crc32(key_field, header_crc)) % num_partitions


class RangePartitioner:
    """Quantile-based range partitioning for totally-ordered output.

    Built from a sample of keys; partition ``i`` receives keys in the
    half-open interval between boundaries ``i-1`` and ``i``.
    """

    def __init__(self, sample_keys: Sequence[Any], num_partitions: int):
        if num_partitions < 1:
            raise DataMPIError(f"need >= 1 partition, got {num_partitions}")
        if not sample_keys:
            raise DataMPIError("range partitioner needs a non-empty key sample")
        self.num_partitions = num_partitions
        ordered = sorted(sample_keys)
        self.boundaries = [
            ordered[(len(ordered) * (i + 1)) // num_partitions - 1]
            for i in range(num_partitions - 1)
        ]

    def __call__(self, key: Any, num_partitions: int) -> int:
        if num_partitions != self.num_partitions:
            raise DataMPIError(
                f"partitioner built for {self.num_partitions} partitions, "
                f"asked for {num_partitions}"
            )
        return bisect.bisect_left(self.boundaries, key)


def validate_partition(partition: int, num_partitions: int) -> int:
    """Bounds-check a partitioner result (guards user-supplied partitioners)."""
    if not 0 <= partition < num_partitions:
        raise DataMPIError(
            f"partitioner returned {partition}, valid range is [0, {num_partitions})"
        )
    return partition
