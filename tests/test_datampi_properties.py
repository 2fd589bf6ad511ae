"""Hypothesis property tests for partitioning and the O-side send buffer.

Invariants under test:

* every key lands on exactly one A rank, always inside ``[0, num_a)``,
  and deterministically (same key, same destination);
* the range partitioner's destinations are monotone in the key, and the
  partition intervals cover the whole key space;
* ``PartitionedSendBuffer`` delivers every record exactly once to the
  destination it was added for, preserving per-destination FIFO order of
  flushes (chunk N's records were all added before chunk N+1's);
* ``OContext.send``, which encodes each key once and hashes those bytes,
  routes every key exactly as ``hash_partitioner`` does;
* whatever the combiner, sort order and threshold, the chunks a buffer
  sends group to the same result as the records it was given.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DataMPIError
from repro.common.kv import decode_stream, encode_record
from repro.datampi.buffers import DEFAULT_SEND_BUFFER_BYTES, PartitionedSendBuffer
from repro.datampi.communicator import TAG_DATA, BipartiteComm
from repro.datampi.context import AContext, OContext
from repro.datampi.partition import (
    RangePartitioner,
    hash_partitioner,
    validate_partition,
)
from repro.storage import ChunkStore

keys = st.one_of(
    st.text(max_size=24),
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.binary(max_size=24),
    st.tuples(st.text(max_size=8), st.integers(min_value=0, max_value=1000)),
)


class TestHashPartitioner:
    @given(key=keys, num_a=st.integers(min_value=1, max_value=64))
    def test_lands_on_exactly_one_valid_rank(self, key, num_a):
        destination = hash_partitioner(key, num_a)
        assert 0 <= destination < num_a
        assert validate_partition(destination, num_a) == destination

    @given(key=keys, num_a=st.integers(min_value=1, max_value=64))
    def test_deterministic(self, key, num_a):
        assert hash_partitioner(key, num_a) == hash_partitioner(key, num_a)

    @settings(max_examples=25)
    @given(
        keys_list=st.lists(st.text(max_size=12), min_size=1, max_size=200),
        num_a=st.integers(min_value=2, max_value=8),
    )
    def test_partitions_cover_range(self, keys_list, num_a):
        """Each key maps into [0, num_a); the image never escapes it."""
        destinations = {hash_partitioner(key, num_a) for key in keys_list}
        assert destinations <= set(range(num_a))


class TestRangePartitioner:
    @given(
        sample=st.lists(st.integers(min_value=0, max_value=10 ** 6),
                        min_size=1, max_size=100),
        num_a=st.integers(min_value=1, max_value=16),
        key=st.integers(min_value=-10, max_value=10 ** 6 + 10),
    )
    def test_valid_and_deterministic(self, sample, num_a, key):
        partitioner = RangePartitioner(sample, num_a)
        destination = partitioner(key, num_a)
        assert 0 <= destination < num_a
        assert partitioner(key, num_a) == destination

    @given(
        sample=st.lists(st.integers(min_value=0, max_value=1000),
                        min_size=2, max_size=50),
        num_a=st.integers(min_value=2, max_value=8),
        a=st.integers(min_value=-5, max_value=1005),
        b=st.integers(min_value=-5, max_value=1005),
    )
    def test_monotone_in_key(self, sample, num_a, a, b):
        """key order implies destination order — the property that makes
        concatenating A outputs in rank order a total sort."""
        partitioner = RangePartitioner(sample, num_a)
        low, high = min(a, b), max(a, b)
        assert partitioner(low, num_a) <= partitioner(high, num_a)


# Records: (destination-selector key, value); destination = hash of key.
records_strategy = st.lists(
    st.tuples(st.text(max_size=12), st.integers(min_value=0, max_value=100)),
    max_size=300,
)


class TestPartitionedSendBuffer:
    @settings(max_examples=40)
    @given(
        records=records_strategy,
        num_destinations=st.integers(min_value=1, max_value=6),
        threshold=st.integers(min_value=1, max_value=512),
    )
    def test_exactly_once_delivery_and_fifo(self, records, num_destinations, threshold):
        sent: dict[int, list[bytes]] = {d: [] for d in range(num_destinations)}

        buffer = PartitionedSendBuffer(
            num_destinations,
            lambda dest, payload: sent[dest].append(payload),
            sort=False,
            threshold_bytes=threshold,
        )
        expected: dict[int, list[tuple[str, int]]] = {
            d: [] for d in range(num_destinations)
        }
        for key, value in records:
            destination = hash_partitioner(key, num_destinations)
            buffer.add(destination, key, value)
            expected[destination].append((key, value))
        buffer.flush_all()

        for destination in range(num_destinations):
            delivered = [
                (kv.key, kv.value)
                for chunk in sent[destination]
                for kv in decode_stream(chunk)
            ]
            # Exactly once, and (sort=False) in per-destination FIFO order:
            # concatenating flushed chunks reproduces insertion order.
            assert delivered == expected[destination]

    @settings(max_examples=40)
    @given(
        records=records_strategy,
        num_destinations=st.integers(min_value=1, max_value=6),
        threshold=st.integers(min_value=1, max_value=512),
    )
    def test_sorted_chunks_preserve_multiset(self, records, num_destinations, threshold):
        sent: dict[int, list[bytes]] = {d: [] for d in range(num_destinations)}
        buffer = PartitionedSendBuffer(
            num_destinations,
            lambda dest, payload: sent[dest].append(payload),
            sort=True,
            threshold_bytes=threshold,
        )
        expected: dict[int, list[tuple[str, int]]] = {
            d: [] for d in range(num_destinations)
        }
        for key, value in records:
            destination = hash_partitioner(key, num_destinations)
            buffer.add(destination, key, value)
            expected[destination].append((key, value))
        buffer.flush_all()

        for destination in range(num_destinations):
            chunks = [
                [(kv.key, kv.value) for kv in decode_stream(chunk)]
                for chunk in sent[destination]
            ]
            # Each flushed chunk is internally key-sorted...
            for chunk in chunks:
                assert chunk == sorted(chunk, key=lambda kv: kv[0])
            # ...and nothing is lost or duplicated across chunks.
            delivered = sorted(kv for chunk in chunks for kv in chunk)
            assert delivered == sorted(expected[destination])

    @given(
        records=records_strategy,
        threshold=st.integers(min_value=1, max_value=256),
    )
    def test_counters_consistent(self, records, threshold):
        chunks: list[bytes] = []
        buffer = PartitionedSendBuffer(
            3, lambda dest, payload: chunks.append(payload),
            sort=False, threshold_bytes=threshold,
        )
        for key, value in records:
            buffer.add(hash_partitioner(key, 3), key, value)
        buffer.flush_all()
        assert buffer.records_buffered == len(records)
        assert buffer.records_sent == len(records)
        assert buffer.chunks_sent == len(chunks)
        assert buffer.bytes_sent == sum(len(chunk) for chunk in chunks)
        assert buffer.buffered_bytes == 0


# -- the O-side send path ------------------------------------------------------

#: Keys in every shape the codec encodes.
codec_keys = st.recursive(
    st.one_of(
        st.text(max_size=12),
        st.text(alphabet="éßж中😀", max_size=4),
        st.binary(max_size=12),
        st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
        st.floats(allow_nan=False),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=8,
)


class RecordingComm:
    """Rank 0 of an O/A world; records what it sends instead of sending."""

    rank = 0

    def __init__(self, size: int):
        self.size = size
        self.sent: list[tuple[int, object, int]] = []

    def send(self, dest, payload, tag):
        self.sent.append((dest, payload, tag))


def o_context(num_a: int, **kwargs) -> tuple[OContext, RecordingComm]:
    comm = RecordingComm(1 + num_a)
    return OContext(BipartiteComm(comm, 1, num_a), **kwargs), comm


def sent_destinations(comm: RecordingComm) -> list[int]:
    """A index of every data chunk, one per record at a 1-byte threshold."""
    return [dest - 1 for dest, _payload, tag in comm.sent if tag == TAG_DATA]


class TestSendPathPartitioning:
    @given(key=codec_keys, num_a=st.integers(min_value=1, max_value=8))
    def test_default_route_equals_hash_partitioner(self, key, num_a):
        ctx, comm = o_context(num_a, send_buffer_bytes=1)
        ctx.send(key, None)
        expected = hash_partitioner(key, num_a)
        assert expected == zlib.crc32(encode_record(key, None)) % num_a
        assert sent_destinations(comm) == [expected]

    @given(key=codec_keys, num_a=st.integers(min_value=1, max_value=8))
    def test_explicit_hash_partitioner_routes_the_same(self, key, num_a):
        ctx, comm = o_context(num_a, partitioner=hash_partitioner, send_buffer_bytes=1)
        ctx.send(key, None)
        assert sent_destinations(comm) == [hash_partitioner(key, num_a)]

    @given(
        sample=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
        num_a=st.integers(min_value=1, max_value=8),
        keys=st.lists(st.integers(min_value=-10, max_value=1010), max_size=20),
    )
    def test_range_partitioner_routes_as_before(self, sample, num_a, keys):
        partitioner = RangePartitioner(sample, num_a)
        ctx, comm = o_context(num_a, partitioner=partitioner, send_buffer_bytes=1)
        for key in keys:
            ctx.send(key, None)
        assert sent_destinations(comm) == [partitioner(key, num_a) for key in keys]

    @pytest.mark.parametrize("bad", [-1, 4, 100])
    def test_out_of_range_user_partitioner_raises(self, bad):
        ctx, comm = o_context(4, partitioner=lambda key, n: bad)
        with pytest.raises(DataMPIError):
            ctx.send("k", 1)
        assert comm.sent == []


# -- whole-buffer equivalence ------------------------------------------------------

#: Keys of one family are mutually comparable, as sorting needs; the
#: numeric family mixes ``1``, ``1.0`` and ``True``, which compare equal
#: but encode differently.
numeric_keys = st.one_of(
    st.sampled_from([0, 0.0, -0.0, False, 1, 1.0, True]),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)
sortable_key_families = [
    numeric_keys,
    st.text(alphabet="abé", max_size=3),
    st.lists(st.integers(min_value=0, max_value=2), max_size=3),  # unhashable
    st.tuples(st.text(alphabet="ab", max_size=2), st.integers(min_value=0, max_value=2)),
]
#: Without sorting any mix of shapes goes, dict keys included.
unsorted_keys = st.one_of(
    *sortable_key_families,
    st.dictionaries(st.sampled_from("ab"), st.integers(min_value=0, max_value=2),
                    max_size=2),
    st.none(),
    st.binary(max_size=2),
)


def emission_streams(keys):
    return st.lists(st.tuples(keys, st.integers(min_value=0, max_value=100)),
                    max_size=120)


sorted_streams = st.one_of(*[emission_streams(keys) for keys in sortable_key_families])
unsorted_streams = emission_streams(unsorted_keys)


def grouped(records, combine: bool) -> list[tuple]:
    """Plain-Python grouping by key equality, in first-seen order (lists
    and dicts are unhashable, so no dict): ``(first key, its type, the
    sum of the values)`` with a summing combiner, else the sorted values."""
    groups: list[list] = []
    for key, value in records:
        for group in groups:
            if group[0] == key:
                group[2].append(value)
                break
        else:
            groups.append([key, type(key), [value]])
    return [(key, kind, sum(values) if combine else sorted(values))
            for key, kind, values in groups]


def summed(_key, values):
    return sum(values)


class TestWholeBufferEquivalence:
    NUM_DESTINATIONS = 3

    def check(self, stream, combine, sort, threshold):
        sent: list[tuple[int, bytes]] = []
        buffer = PartitionedSendBuffer(
            self.NUM_DESTINATIONS, lambda dest, payload: sent.append((dest, payload)),
            sort=sort, combiner=summed if combine else None, threshold_bytes=threshold,
        )
        emitted: dict[int, list] = {d: [] for d in range(self.NUM_DESTINATIONS)}
        for key, value in stream:
            destination = hash_partitioner(key, self.NUM_DESTINATIONS)
            buffer.add(destination, key, value)
            emitted[destination].append((key, value))
        buffer.flush_all()

        decoded: dict[int, list] = {d: [] for d in range(self.NUM_DESTINATIONS)}
        for destination, payload in sent:
            chunk = [(kv.key, kv.value) for kv in decode_stream(payload)]
            if sort:
                keys = [key for key, _ in chunk]
                assert all(a <= b for a, b in zip(keys, keys[1:]))
            decoded[destination].extend(chunk)
        for destination in range(self.NUM_DESTINATIONS):
            got = grouped(decoded[destination], combine)
            want = grouped(emitted[destination], combine)
            if sort:  # each chunk is key-sorted: compare in key order
                got.sort(key=lambda group: group[0])
                want.sort(key=lambda group: group[0])
            assert got == want

        total = sum(len(records) for records in decoded.values())
        assert buffer.records_sent == total
        assert buffer.bytes_sent == sum(len(payload) for _, payload in sent)
        assert buffer.chunks_sent == len(sent)
        assert buffer.records_buffered == len(stream)
        assert buffer.records_buffered == \
            buffer.records_sent + buffer.records_combined_away
        if not combine:
            assert buffer.records_combined_away == 0
        assert buffer.buffered_bytes == 0

    @pytest.mark.parametrize("threshold", [1, 64, DEFAULT_SEND_BUFFER_BYTES])
    @pytest.mark.parametrize("combine", [True, False])
    @settings(max_examples=30, deadline=None)
    @given(stream=sorted_streams)
    def test_sorted(self, stream, combine, threshold):
        self.check(stream, combine, True, threshold)

    @pytest.mark.parametrize("threshold", [1, 64, DEFAULT_SEND_BUFFER_BYTES])
    @pytest.mark.parametrize("combine", [True, False])
    @settings(max_examples=30, deadline=None)
    @given(stream=unsorted_streams)
    def test_unsorted(self, stream, combine, threshold):
        self.check(stream, combine, False, threshold)

    def test_threshold_counts_encoded_bytes(self):
        """A flush fires once the buffered records' encoded length
        reaches the threshold: two 15-byte ``("w123", 1)`` records fill
        a 30-byte buffer exactly."""
        sent: list[bytes] = []
        buffer = PartitionedSendBuffer(1, lambda d, p: sent.append(p),
                                       threshold_bytes=30)
        buffer.add(0, "w123", 1)
        assert buffer.buffered_bytes == len(encode_record("w123", 1)) == 15
        assert sent == []
        buffer.add(0, "w123", 1)
        assert sent == [encode_record("w123", 1) * 2]


#: Equal keys of three types, emitted interleaved, with a summing
#: combiner.  The expected A-side groups were recorded from the earlier
#: send buffer, which sorted every record and combined runs of equal keys.
EQUAL_KEYS_EMITTED = [(1.0, 1), (1, 2), (True, 4), (2, 8), (1, 16), (True, 32),
                      (1.0, 64), (0.5, 128)]
EQUAL_KEYS_GROUPED = {
    True: [(0.5, float, 128), (1.0, float, 119), (2, int, 8)],
    False: [(1.0, float, 119), (2, int, 8), (0.5, float, 128)],
}


class TestEqualKeysOfDifferentTypes:
    @pytest.mark.parametrize("threshold", [1, 64, DEFAULT_SEND_BUFFER_BYTES])
    @pytest.mark.parametrize("sort", [True, False])
    def test_a_side_groups_match_earlier_buffer(self, sort, threshold):
        chunks: list[bytes] = []
        buffer = PartitionedSendBuffer(1, lambda d, p: chunks.append(p), sort=sort,
                                       combiner=summed, threshold_bytes=threshold)
        for key, value in EQUAL_KEYS_EMITTED:
            buffer.add(0, key, value)
        buffer.flush_all()
        store = ChunkStore()
        for sequence, chunk in enumerate(chunks):
            store.add(chunk, origin=(0, sequence))
        a_side = AContext(None, store, sort=sort)
        grouped_output = [(key, type(key), sum(values)) for key, values in a_side.grouped()]
        assert grouped_output == EQUAL_KEYS_GROUPED[sort]
