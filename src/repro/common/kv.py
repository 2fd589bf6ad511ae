"""Key-value records — the unit of data in every engine in this library.

DataMPI's central idea (Section 2.3 of the paper) is that Big Data
communication is key-value based rather than buffer based.  All three
engines in this reproduction (Hadoop, Spark, DataMPI) exchange
:class:`KeyValue` records, and the serialization here defines the byte
sizes the performance models charge to disks and networks.
"""

from __future__ import annotations

import struct
from typing import Any, Iterable, Iterator, NamedTuple


class KeyValue(NamedTuple):
    """An immutable key-value record."""

    key: Any
    value: Any

    def serialized_size(self) -> int:
        """Size in bytes of the encoded record (see :func:`record_size`)."""
        return record_size(self.key, self.value)


#: Length prefix of every encoded record: key field length, value field length.
RECORD_HEADER = struct.Struct(">II")


_ITEM_LEN = struct.Struct(">I")


def _encode_items(items: Iterable[Any]) -> bytes:
    out = bytearray()
    for item in items:
        encoded = encode_field(item)
        out += _ITEM_LEN.pack(len(encoded))
        out += encoded
    return bytes(out)


def _decode_items(payload: bytes | memoryview) -> list[Any]:
    items: list[Any] = []
    offset = 0
    while offset < len(payload):
        (length,) = _ITEM_LEN.unpack_from(payload, offset)
        offset += _ITEM_LEN.size
        items.append(_decode_field(payload[offset:offset + length]))
        offset += length
    return items


def encode_field(obj: Any) -> bytes:
    """Encode one field (a key or a value) with its one-byte type tag."""
    # Exact-type checks first: str and int keys are the common case, and
    # subclasses (IntEnum members, str subclasses) still take the chain.
    if type(obj) is str:
        return b"S" + obj.encode()
    if type(obj) is int:
        return b"I%d" % obj
    if isinstance(obj, bytes):
        return b"B" + obj
    if isinstance(obj, str):
        return b"S" + obj.encode("utf-8")
    if isinstance(obj, bool):
        return b"T" if obj else b"F"
    if isinstance(obj, int):
        return b"I" + str(obj).encode("ascii")
    if isinstance(obj, float):
        return b"D" + struct.pack(">d", obj)
    if obj is None:
        return b"N"
    if isinstance(obj, tuple):
        return b"U" + _encode_items(obj)
    if isinstance(obj, list):
        return b"L" + _encode_items(obj)
    if isinstance(obj, dict):
        return b"M" + _encode_items(
            item for pair in obj.items() for item in pair
        )
    raise TypeError(f"cannot encode field of type {type(obj).__name__}")


# Field tag markers as ints: indexing bytes *or* a memoryview yields an
# int, so one dispatch serves both the copying and the zero-copy path.
_T_BYTES, _T_STR, _T_TRUE, _T_FALSE = ord("B"), ord("S"), ord("T"), ord("F")
_T_INT, _T_FLOAT, _T_NONE = ord("I"), ord("D"), ord("N")
_T_TUPLE, _T_LIST, _T_DICT = ord("U"), ord("L"), ord("M")


def _decode_field(data: bytes | memoryview) -> Any:
    """Decode one encoded field from ``bytes`` or a ``memoryview``.

    Memoryview input decodes in place: container fields recurse over
    zero-copy slices, and only leaf values materialise new objects.
    """
    if not len(data):
        raise ValueError("unknown field tag b''")
    tag, payload = data[0], data[1:]
    if tag == _T_BYTES:
        return payload if isinstance(payload, bytes) else bytes(payload)
    if tag == _T_STR:
        return str(payload, "utf-8")
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return int(payload if isinstance(payload, bytes) else bytes(payload))
    if tag == _T_FLOAT:
        return struct.unpack(">d", payload)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TUPLE:
        return tuple(_decode_items(payload))
    if tag == _T_LIST:
        return _decode_items(payload)
    if tag == _T_DICT:
        flat = _decode_items(payload)
        return dict(zip(flat[0::2], flat[1::2]))
    raise ValueError(f"unknown field tag {bytes(data[:1])!r}")


def encode_record(key: Any, value: Any) -> bytes:
    """Encode one record to bytes (length-prefixed key and value fields)."""
    return join_record(encode_field(key), encode_field(value))


def join_record(key_field: bytes, value_field: bytes) -> bytes:
    """One record from fields :func:`encode_field` already produced: the
    same bytes as ``encode_record(key, value)``, without encoding again."""
    return RECORD_HEADER.pack(len(key_field), len(value_field)) + key_field + value_field


def _field_length(obj: Any) -> int:
    """Length of ``obj``'s encoded field, for :func:`record_size`."""
    if isinstance(obj, (bytearray, memoryview)):
        # Bytes-like views (the FMT_BATCH zero-copy path hands them out)
        # are charged as the ``B``-tagged bytes they would encode to.
        return 1 + memoryview(obj).nbytes
    try:
        return len(encode_field(obj))
    except TypeError:
        # Types the codec cannot encode (opaque A outputs pinned in a
        # KVCache) are sized by their repr, so accounting never raises.
        return len(repr(obj))


def record_size(key: Any, value: Any) -> int:
    """Size in bytes of one encoded record: ``len(encode_record(key, value))``.

    The one size function: every engine's byte counters use it, so the
    cross-engine byte ratios compare real encoded bytes.
    """
    return RECORD_HEADER.size + _field_length(key) + _field_length(value)


def decode_record(data: bytes | memoryview,
                  offset: int = 0) -> tuple[KeyValue, int]:
    """Decode one record at ``offset``; returns ``(record, next_offset)``.

    ``data`` may be ``bytes`` or a ``memoryview``; with a view the field
    payloads are sliced without copying (the transport's zero-copy read
    path decodes records straight out of a shared batch buffer).
    """
    key_len, value_len = RECORD_HEADER.unpack_from(data, offset)
    start = offset + RECORD_HEADER.size
    key = _decode_field(data[start:start + key_len])
    value = _decode_field(data[start + key_len:start + key_len + value_len])
    return KeyValue(key, value), start + key_len + value_len


def encode_stream(records: Iterable[tuple[Any, Any]]) -> bytes:
    """Encode an iterable of ``(key, value)`` pairs into one byte string."""
    out = bytearray()
    for key, value in records:
        key_bytes = encode_field(key)
        value_bytes = encode_field(value)
        out += RECORD_HEADER.pack(len(key_bytes), len(value_bytes))
        out += key_bytes
        out += value_bytes
    return bytes(out)


def decode_stream(data: bytes | memoryview) -> Iterator[KeyValue]:
    """Decode all records from :func:`encode_stream` output (``bytes`` or
    ``memoryview`` — views decode in place)."""
    offset = 0
    while offset < len(data):
        record, offset = decode_record(data, offset)
        yield record
