"""The benchmark's three workloads: inputs, jobs and output checks.

Every input comes from ``repro.bigdatabench.TextGenerator`` on the
``lda_wiki1w`` seed model, seeded by the benchmark's ``--seed``; the
program only ever sees the generated lines.

* ``wordcount`` loads the O-side record path (partition, size accounting,
  ``OContext.send``, sort and combine); the combiner removes most records
  before encode, so codec and storage do little.  ``inline`` runs one
  rank at a time, so the scheduler adds no noise.
* ``text_sort`` is the opposite: unique long keys, no combiner, a
  trivial range partitioner, every record encoded, shipped across a
  process boundary, decoded and heap-merged, with a spill budget of a
  third of the received bytes so most chunks spill and some stay
  resident.
* ``small_jobs`` serves tiny wordcount jobs on a warm ``WorldPool`` over
  tcp, one at a time, so per-job fixed cost dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.bigdatabench.textgen import TextGenerator
from repro.datampi import DataMPIJob, JobResult, StorageConfig
from repro.workloads.base import split_round_robin
from repro.workloads.sort import sort_reference, text_sort_datampi_job
from repro.workloads.wordcount import wordcount_datampi_job, wordcount_reference

#: Full-size input shapes; ``--scale`` multiplies the line counts.
WORDCOUNT_LINES = 40_000
TEXT_SORT_LINES = 200_000
SMALL_JOB_LINES = 160


def _input_mb(lines: list[str]) -> float:
    return sum(len(line.encode("utf-8")) + 1 for line in lines) / 1e6


def _scaled(lines: int, scale: float) -> int:
    return max(1, round(lines * scale))


def conservation_problems(counters: dict[str, int]) -> list[str]:
    """What every O/A job must satisfy: records and bytes that O ranks
    sent are exactly those the A ranks received."""
    problems = []
    if counters.get("o.records_sent") != counters.get("a.records_received"):
        problems.append(
            f"records not conserved: o.records_sent={counters.get('o.records_sent')} "
            f"a.records_received={counters.get('a.records_received')}")
    if counters.get("o.bytes_sent") != counters.get("a.bytes_received"):
        problems.append(
            f"bytes not conserved: o.bytes_sent={counters.get('o.bytes_sent')} "
            f"a.bytes_received={counters.get('a.bytes_received')}")
    return problems


@dataclass
class BatchWorkload:
    """One input, run again and again as cold-world DataMPI jobs."""

    name: str
    transport: str
    world_size: int
    lines: list[str]
    splits: list[list[str]]
    make_job: Callable[[], DataMPIJob]
    reference: Callable[[], Any]
    output_of: Callable[[JobResult], Any]
    must_spill: bool
    #: The job computes more than it waits, so its wall time is rescaled
    #: to nominal machine speed (see ``yardstick.py``).
    cpu_bound = True

    def __post_init__(self) -> None:
        self.input_mb = _input_mb(self.lines)
        self.expected = self.reference()

    def problems(self, result: JobResult) -> list[str]:
        """Why ``result`` is wrong; empty when it is right."""
        found = conservation_problems(result.counters)
        if self.output_of(result) != self.expected:
            found.append("output differs from the reference")
        if self.must_spill and not result.counters.get("a.bytes_spilled"):
            found.append("expected the A rank to spill, a.bytes_spilled=0")
        return found


def wordcount(seed: int, scale: float, storage: StorageConfig) -> BatchWorkload:
    """DataMPI WordCount on ``inline`` with 2 O and 2 A ranks."""
    lines = TextGenerator(seed=seed, words_per_line=(12, 12)).lines(
        _scaled(WORDCOUNT_LINES, scale))
    return BatchWorkload(
        name="wordcount", transport="inline", world_size=4, lines=lines,
        splits=split_round_robin(lines, 2),
        make_job=lambda: wordcount_datampi_job(2, transport="inline", storage=storage),
        reference=lambda: wordcount_reference(lines),
        output_of=lambda result: dict(result.merged_outputs()),
        must_spill=False,
    )


def text_sort(seed: int, scale: float, spill_dir: str) -> BatchWorkload:
    """DataMPI Text Sort on ``shm`` with 1 O and 1 A rank, spilling."""
    lines = TextGenerator(seed=seed).lines(_scaled(TEXT_SORT_LINES, scale))
    # A (str, None) record encodes to 8 length bytes, a tag byte plus the
    # UTF-8 key, and a one-byte None: the bytes the A rank will receive.
    received = sum(len(line.encode("utf-8")) + 10 for line in lines)
    storage = StorageConfig(spill_threshold=max(1, received // 3), spill_dir=spill_dir)
    return BatchWorkload(
        name="text_sort", transport="shm", world_size=2, lines=lines,
        splits=split_round_robin(lines, 1),
        make_job=lambda: text_sort_datampi_job(lines, 1, transport="shm", storage=storage),
        reference=lambda: sort_reference(lines),
        output_of=lambda result: [line for output in result.outputs for line in output],
        must_spill=True,
    )


class SmallJobs:
    """Seeded 160-line wordcount jobs for a warm tcp ``WorldPool``."""

    name = "small_jobs"
    transport = "tcp"
    world_size = 2
    #: A job mostly waits on messages, so only its CPU seconds are rescaled.
    cpu_bound = False

    def __init__(self, seed: int, scale: float) -> None:
        self.lines_per_job = _scaled(SMALL_JOB_LINES, scale)
        self._generator = TextGenerator(seed=seed, words_per_line=(12, 12))

    def job_input(self, index: int) -> tuple[list[str], float, dict[str, int]]:
        """Job ``index``'s lines, their MB, and the expected counts."""
        lines = self._generator.lines(self.lines_per_job, stream=index)
        return lines, _input_mb(lines), wordcount_reference(lines)

    @staticmethod
    def make_job() -> DataMPIJob:
        return wordcount_datampi_job(1)

    @staticmethod
    def problems(result: JobResult, expected: dict[str, int]) -> list[str]:
        found = conservation_problems(result.counters)
        if dict(result.merged_outputs()) != expected:
            found.append("output differs from the reference")
        return found
