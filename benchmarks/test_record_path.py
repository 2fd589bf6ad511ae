"""Record-path micro-benchmark: nanoseconds per record on the O->A path.

The per-layer view of a DataMPI job's record path, on the WordCount
record shape (a generated word and the count ``1``):

* ``send-combiner`` — ``OContext.send`` with a summing combiner: key
  encode, hash partition, value encode and hash-combine into the
  destination's table.
* ``send-plain`` — ``OContext.send`` without a combiner: the same, but
  every record is kept, encoded, in arrival order.
* ``flush`` — one ``PartitionedSendBuffer.flush`` of a combining buffer:
  sort the unique keys, combine each key's values, write the chunk.
* ``encode-stream`` / ``decode-stream`` — the codec alone, over the
  records the A side would receive without a combiner.

Each case records ``records`` and ``ns_per_record`` (the median round
divided by the records it handled) into the benchmark JSON via
``extra_info``; the structural CI gate requires both to be positive.
"""

import pytest

from repro.bigdatabench import TextGenerator
from repro.common.kv import decode_stream, encode_stream
from repro.datampi.buffers import PartitionedSendBuffer
from repro.datampi.communicator import BipartiteComm
from repro.datampi.context import OContext

LINES = 2_000
NUM_A = 2
ROUNDS = 5

#: WordCount records: 12 words a line, each counted once.
RECORDS = [(word, 1)
           for line in TextGenerator(seed=1, words_per_line=(12, 12)).lines(LINES)
           for word in line.split()]


def summed(_word, counts):
    return sum(counts)


class NullComm:
    """Rank 0 of a 1 O + ``NUM_A`` A world that drops what it sends."""

    rank = 0
    size = 1 + NUM_A

    def send(self, dest, payload, tag):
        pass


def _record(benchmark, scenario: str, records: int) -> None:
    benchmark.extra_info["scenario"] = scenario
    benchmark.extra_info["records"] = records
    benchmark.extra_info["ns_per_record"] = round(
        benchmark.stats.stats.median / records * 1e9, 1)


def _rounds(benchmark, run, setup):
    benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1,
                       warmup_rounds=1)


@pytest.mark.parametrize("scenario, combiner", [
    ("send-combiner", summed),
    ("send-plain", None),
], ids=["combiner", "plain"])
def test_send(benchmark, scenario, combiner):
    def setup():
        ctx = OContext(BipartiteComm(NullComm(), 1, NUM_A), combiner=combiner)
        return (ctx,), {}

    def run(ctx):
        send = ctx.send
        for word, count in RECORDS:
            send(word, count)
        assert ctx.counters["o.records_emitted"] == len(RECORDS)

    _rounds(benchmark, run, setup)
    _record(benchmark, scenario, len(RECORDS))


def test_flush(benchmark):
    sent: list[bytes] = []

    def setup():
        buffer = PartitionedSendBuffer(1, lambda _dest, payload: sent.append(payload),
                                       combiner=summed, threshold_bytes=1 << 30)
        for word, count in RECORDS:
            buffer.add(0, word, count)
        return (buffer,), {}

    def run(buffer):
        buffer.flush(0)
        assert buffer.records_sent + buffer.records_combined_away == len(RECORDS)

    _rounds(benchmark, run, setup)
    assert sum(kv.value for kv in decode_stream(sent[-1])) == len(RECORDS)
    _record(benchmark, "flush", len(RECORDS))


def test_encode_stream(benchmark):
    payloads: list[bytes] = []

    def run():
        payloads.append(encode_stream(RECORDS))

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert len(set(payloads)) == 1
    _record(benchmark, "encode-stream", len(RECORDS))


def test_decode_stream(benchmark):
    payload = encode_stream(RECORDS)

    def run():
        return sum(1 for _ in decode_stream(payload))

    decoded = benchmark.pedantic(run, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert decoded == len(RECORDS)
    _record(benchmark, "decode-stream", len(RECORDS))
