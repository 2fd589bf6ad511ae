#!/usr/bin/env python3
"""Benchmark of the DataMPI reproduction: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures jobs with no tracing and reports the end-to-end
metrics, in nominal-speed seconds (see ``yardstick.py``); ``--trace 1``
alternates untraced and traced jobs and reports the per-layer metrics.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it print every
metric with its unit.  Each job's output is
checked against the plain-Python reference, outside the timed region,
and leaks (shared-memory segments, spill segment files, live rank
processes) count as failed operations.

Files are written only under ``.perfbench-out/`` in the repository: a
JSON report per run (with the program's own counters) and, for traced
runs, a trace-event file that chrome://tracing or Perfetto can open.
See ``perfbench/README.md`` for the workloads and the layer metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from multiprocessing import resource_tracker
from typing import Any, Callable

from spans import ROOT_SPANS, Tracer, Windows
from yardstick import NOMINAL_S, Yardstick

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("wordcount", "text_sort", "small_jobs")

#: Set-up is repeated and its median reported, so one slow fork, page
#: fault or first-run import does not read as a set-up regression.  A
#: pool sets up in a fraction of a second, so small_jobs does it
#: SETUP_REPEATS times first; a batch set-up runs a whole job, so those
#: workloads set up again before every SETUP_EVERY-th measured job, and
#: the set-up samples span the run as the job samples do.
SETUP_REPEATS = 5
SETUP_EVERY = 2
LAUNCH_REPEATS = 5
REFERENCE_REPEATS = 3
SMALL_REFERENCE_JOBS = 20
#: A pooled job that takes longer than this has hung.
JOB_TIMEOUT = 60.0
#: The whole run must end within 180 s; give up (with no result) before.
RUN_DEADLINE = 170

END_TO_END_UNITS = {
    "job_s_p50": "s",
    "job_s_p95": "s",
    "throughput_mb_s": "MB/s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "cpu_s_per_job": "s",
    "peak_rss_mb": "MB",
}

#: Layer metrics, per traced job unless the unit says otherwise.
PER_LAYER_UNITS = {
    "partition.calls": "count",
    "partition.self_s": "s",
    "kv.size.calls": "count",
    "kv.size.self_s": "s",
    "context.send.calls": "count",
    "context.send.self_s": "s",
    "context.drain.wait_s": "s",
    "buffers.flushes": "count",
    "buffers.self_s": "s",
    "buffers.combine_ratio": "ratio",
    "kv.encode.calls": "count",
    "kv.encode.bytes": "B",
    "kv.encode.self_s": "s",
    "kv.decode.chunks": "count",
    "kv.decode.self_s": "s",
    "storage.add.self_s": "s",
    "storage.merge.self_s": "s",
    "storage.put.self_s": "s",
    "storage.get.self_s": "s",
    "transport.send.msgs": "count",
    "transport.send.bytes": "B",
    "transport.send.self_s": "s",
    "transport.recv.msgs": "count",
    "transport.recv.wait_s": "s",
    "transport.errors": "count",
    "launcher.world_s": "s",
    "pool.superstep_s": "s",
    "pool.dispatch_s": "s",
    "pool.recycle_s": "s",
    "task.o.self_s": "s",
    "task.a.self_s": "s",
    "other.self_s": "s",
    "trace.overhead": "ratio",
    "trace.rank_processes": "count",
    "reference.wall_s": "s",
    "split.record_path_s": "s",
    "split.codec_storage_s": "s",
    "o.records_emitted": "count",
    "o.records_sent": "count",
    "o.bytes_sent": "B",
    "o.chunks_sent": "count",
    "o.records_combined_away": "count",
    "a.records_received": "count",
    "a.bytes_received": "B",
    "a.bytes_spilled": "B",
    "a.spill_reads": "count",
}

COUNTERS = [name for name in PER_LAYER_UNITS if name[:2] in ("o.", "a.")]
RECORD_PATH = ("partition", "kv.size", "context.send", "buffers.flush")
CODEC_STORAGE = ("kv.encode", "kv.decode", "storage.add", "storage.merge",
                 "storage.put", "storage.get")


# -- measurement helpers -----------------------------------------------------------


def _proc_cpu(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _rank_pids() -> list[int]:
    return [process.pid for process in multiprocessing.active_children()]


def cpu_seconds() -> float:
    """CPU of this process, its reaped children and its live rank processes."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for pid in _rank_pids():
        try:
            total += _proc_cpu(pid)
        except FileNotFoundError:
            pass  # exited between listing and reading
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and any rank process it ran."""
    peaks = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    for pid in _rank_pids():
        try:
            peaks.append(_proc_peak_kb(pid))
        except FileNotFoundError:
            pass
    return max(peaks) / 1024


def percentile(values: list[float], share: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[share - 1]


class Outcome:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


def attempt(call: Callable[[], Any]) -> tuple[Any, list[str]]:
    """Run ``call``; an exception becomes a problem, not a crash."""
    try:
        return call(), []
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        traceback.print_exc()
        return None, [f"raised {exc!r}"]


def _noop(_comm: Any) -> None:
    return None


# -- measuring ---------------------------------------------------------------------


def _measurement() -> dict[str, Any]:
    """Samples of one run: set-ups' and untraced jobs' (start, end) and
    their raw CPU seconds, and traced jobs' windows."""
    return {"setup": [], "jobs": [], "cpu": [], "mb": [], "counters": [],
            "windows": [], "traced_counters": []}


def measure(args, measured: dict[str, Any], run_job: Callable[[bool], tuple],
            set_up: Callable[[], tuple[float, float]] | None = None,
            yardstick: Yardstick | None = None) -> None:
    """Run jobs for ``args.seconds``.

    ``run_job(traced)`` returns ``(start, end, cpu, input_mb, counters)``.
    Traced runs alternate untraced and traced jobs and swap which goes
    first in each pair, so drift in the machine's speed biases neither.
    ``set_up``, if given, runs again before every ``SETUP_EVERY``-th pair
    and returns its start and end.  A ``yardstick`` ticks after each.
    """
    deadline = time.perf_counter() + args.seconds
    order = (False, True) if args.trace else (False,)
    pair = 0
    while not measured["jobs"] or time.perf_counter() < deadline:
        if set_up is not None and pair and pair % SETUP_EVERY == 0:
            measured["setup"].append(set_up())
            if yardstick is not None:
                yardstick.tick()
        for traced in (order if pair % 2 == 0 else order[::-1]):
            start, end, cpu, input_mb, counters = run_job(traced)
            if yardstick is not None:
                yardstick.tick()
            if traced:
                measured["windows"].append((start, end))
                measured["traced_counters"].append(counters)
            else:
                measured["jobs"].append((start, end))
                measured["cpu"].append(cpu)
                measured["mb"].append(input_mb)
                measured["counters"].append(counters)
        pair += 1
    if yardstick is not None:
        yardstick.time_loop()


def _timed_median(call: Callable[[], Any], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# -- batch workloads: wordcount, text_sort ------------------------------------------


def run_batch(workload, args, outcome: Outcome, tracer,
              yardstick: Yardstick | None) -> dict[str, Any]:
    perf = time.perf_counter
    measured = _measurement()
    job = None

    def set_up() -> tuple[float, float]:
        nonlocal job
        label = f"set-up {len(measured['setup'])}"
        start = perf()
        job = workload.make_job()
        result, problems = attempt(lambda: job.run(workload.splits))
        end = perf()
        outcome.record(label, problems or workload.problems(result))
        return start, end

    measured["setup"].append(set_up())
    if yardstick is not None:
        yardstick.tick()

    def run_job(traced: bool) -> tuple:
        if traced:
            tracer.install(jobs=[job])
        cpu_before = cpu_seconds()
        start = perf()
        try:
            result, problems = attempt(lambda: job.run(workload.splits))
        finally:
            end = perf()
            if traced:
                tracer.uninstall()
                tracer.collect()
        cpu = cpu_seconds() - cpu_before
        label = f"{'traced ' if traced else ''}job {outcome.attempted}"
        outcome.record(label, problems or workload.problems(result))
        counters = result.counters if result is not None else {}
        return start, end, cpu, workload.input_mb, counters

    # A traced run reports no setup_s, so it sets up once.
    measure(args, measured, run_job, None if args.trace else set_up, yardstick)
    if args.trace:
        measured["reference"] = _timed_median(workload.reference, REFERENCE_REPEATS)
    return measured


# -- small_jobs: a warm tcp pool, one closed-loop client ------------------------------


def run_small_jobs(workload, args, outcome: Outcome, tracer, spill_dir: str,
                   yardstick: Yardstick | None) -> dict[str, Any]:
    from repro.datampi import StorageConfig
    from repro.serving import WorldPool
    from repro.workloads.base import split_round_robin
    from repro.workloads.wordcount import wordcount_reference

    perf = time.perf_counter
    storage = StorageConfig(spill_dir=spill_dir)
    pools: list[Any] = []
    next_input = 0

    def new_pool(job) -> Any:
        pool = WorldPool(num_o=1, num_a=1, transport=workload.transport, storage=storage)
        pools.append(pool)
        return pool.register(workload.name, job).start()

    def one_job(pool, label: str) -> tuple:
        nonlocal next_input
        lines, input_mb, expected = workload.job_input(next_input)
        next_input += 1
        splits = split_round_robin(lines, 1)
        cpu_before = cpu_seconds()
        start = perf()
        result, problems = attempt(
            lambda: pool.submit(workload.name, splits).result(timeout=JOB_TIMEOUT))
        end = perf()
        cpu = cpu_seconds() - cpu_before
        outcome.record(label, problems or workload.problems(result, expected))
        counters = result.counters if result is not None else {}
        return start, end, cpu, input_mb, counters

    measured = _measurement()
    try:
        job = workload.make_job()
        pool = None
        for index in range(1 if args.trace else SETUP_REPEATS):
            if pool is not None:
                pool.close()
            start = perf()
            pool = new_pool(job)
            one_job(pool, f"set-up {index}")
            measured["setup"].append((start, perf()))
        traced_pool = None
        if args.trace:
            # The traced pool's ranks fork while the hooks are installed;
            # its first job proves the world formed, so the hooks can go.
            traced_job = workload.make_job()
            tracer.install(jobs=[traced_job])
            try:
                traced_pool = new_pool(traced_job)
                start, end, _cpu, _mb, counters = one_job(traced_pool, "traced job 0")
            finally:
                tracer.uninstall()
            measured["windows"].append((start, end))
            measured["traced_counters"].append(counters)

        def run_job(traced: bool) -> tuple:
            label = f"{'traced ' if traced else ''}job {outcome.attempted}"
            return one_job(traced_pool if traced else pool, label)

        measure(args, measured, run_job, yardstick=yardstick)
    finally:
        for pool in pools:
            pool.close()
    if args.trace:
        tracer.collect()
        samples = [workload.job_input(index)[0] for index in range(SMALL_REFERENCE_JOBS)]
        measured["reference"] = statistics.median(
            _timed_median(lambda lines=lines: wordcount_reference(lines), 1)
            for lines in samples)
    return measured


# -- metrics -------------------------------------------------------------------------


def end_to_end(measured: dict[str, Any], yardstick: Yardstick,
               cpu_bound: bool) -> dict[str, float]:
    """CPU seconds are rescaled to nominal machine speed on every workload,
    wall times only on a CPU-bound one (see ``yardstick.py``)."""
    def timed(spans: list[tuple[float, float]]) -> list[float]:
        return [(end - start) * (yardstick.factor(start, end) if cpu_bound else 1.0)
                for start, end in spans]

    times = timed(measured["jobs"])
    cpu = sum(seconds * yardstick.factor(*job)
              for seconds, job in zip(measured["cpu"], measured["jobs"]))
    return {
        "job_s_p50": statistics.median(times),
        "job_s_p95": percentile(times, 95),
        "throughput_mb_s": sum(measured["mb"]) / sum(times),
        "jobs_per_s": len(times) / sum(times),
        "setup_s": statistics.median(timed(measured["setup"])),
        "cpu_s_per_job": cpu / len(times),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(measured: dict[str, Any], tracer: Tracer, launcher_s: float) -> dict[str, float]:
    windows = Windows(measured["windows"])
    jobs = len(measured["windows"])
    traced_times = [end - start for start, end in windows.windows]
    stats = tracer.merged_stats()

    def stat(name: str, field: int) -> float:
        return stats.get(name, [0, 0.0, 0.0, 0])[field] / jobs

    metrics = {
        "partition.calls": stat("partition", 0),
        "partition.self_s": stat("partition", 2),
        "kv.size.calls": stat("kv.size", 0),
        "kv.size.self_s": stat("kv.size", 2),
        "context.send.calls": stat("context.send", 0),
        "context.send.self_s": stat("context.send", 2),
        # drain's span minus the stores it makes: time spent receiving.
        "context.drain.wait_s": stat("context.drain", 1) - stat("storage.add", 1),
        "buffers.flushes": stat("buffers.flush", 0),
        "buffers.self_s": stat("buffers.flush", 2),
        "kv.encode.calls": stat("kv.encode", 0),
        "kv.encode.bytes": stat("kv.encode", 3),
        "kv.encode.self_s": stat("kv.encode", 2),
        "kv.decode.chunks": stat("kv.decode", 0),
        "kv.decode.self_s": stat("kv.decode", 2),
        "storage.add.self_s": stat("storage.add", 2),
        "storage.merge.self_s": stat("storage.merge", 2),
        "storage.put.self_s": stat("storage.put", 2),
        "storage.get.self_s": stat("storage.get", 2),
        "transport.errors": stats.get("transport.errors", [0])[0],
        "task.o.self_s": stat("task.o", 2),
        "task.a.self_s": stat("task.a", 2),
        "split.record_path_s": sum(stat(name, 2) for name in RECORD_PATH),
        "split.codec_storage_s": sum(stat(name, 2) for name in CODEC_STORAGE),
        "launcher.world_s": launcher_s,
        "reference.wall_s": measured["reference"],
        "trace.overhead": statistics.median(traced_times)
        / statistics.median(_durations(measured["jobs"])) - 1,
        "trace.rank_processes": len({dump["pid"] for dump in tracer.rank_dumps}),
    }

    # Transport and pool spans also run between jobs (a pooled rank idles
    # in its broadcast receive), so they count only inside job windows.
    transport = dict.fromkeys(("send.msgs", "send.bytes", "send.self_s",
                               "recv.msgs", "recv.wait_s"), 0.0)
    # Per window: first rank into the superstep to last rank out, and the
    # longest recycle (ranks recycle side by side, or one at a time).
    # Only a pool makes these spans; the batch workloads read 0.
    superstep = [[float("inf"), float("-inf")] for _ in range(jobs)]
    recycle = [0.0] * jobs
    intervals = []
    for _pid, (name, start, elapsed, own, size, _tid, _parent) in tracer.all_events():
        end = start + elapsed
        if name not in ROOT_SPANS:
            intervals.append((start, end))
        if name == "transport.send" and windows.index_of(start) is not None:
            transport["send.msgs"] += 1
            transport["send.bytes"] += size
            transport["send.self_s"] += own
        elif name == "transport.recv":
            if windows.index_of(end) is not None:
                transport["recv.msgs"] += 1
            transport["recv.wait_s"] += sum(
                seconds for _, seconds in windows.overlaps(start, end))
        elif name == "pool.superstep":
            for index, _seconds in windows.overlaps(start, end):
                low, high = windows.windows[index]
                phase = superstep[index]
                phase[0] = min(phase[0], max(start, low))
                phase[1] = max(phase[1], min(end, high))
        elif name == "pool.recycle":
            for index, seconds in windows.overlaps(start, end):
                recycle[index] = max(recycle[index], seconds)
    for key, value in transport.items():
        metrics[f"transport.{key}"] = value / jobs

    steps = [max(0.0, high - low) for low, high in superstep]
    metrics["pool.superstep_s"] = statistics.fmean(steps)
    metrics["pool.recycle_s"] = statistics.fmean(recycle)
    metrics["pool.dispatch_s"] = statistics.fmean(
        latency - step if step else 0.0 for latency, step in zip(traced_times, steps))
    metrics["other.self_s"] = statistics.fmean(windows.uncovered(intervals))

    counters = _summed(measured["traced_counters"])
    for name in COUNTERS:
        metrics[name] = counters.get(name, 0) / jobs
    emitted = counters.get("o.records_emitted", 0)
    metrics["buffers.combine_ratio"] = \
        counters.get("o.records_combined_away", 0) / emitted if emitted else 0.0
    return metrics


def _durations(spans: list[tuple[float, float]]) -> list[float]:
    return [end - start for start, end in spans]


def _summed(counter_sets: list[dict[str, int]]) -> dict[str, int]:
    total: dict[str, int] = {}
    for counters in counter_sets:
        for name, value in counters.items():
            total[name] = total.get(name, 0) + value
    return total


def launcher_seconds(workload) -> float:
    from repro.mpi.launcher import mpi_run

    return _timed_median(
        lambda: mpi_run(workload.world_size, _noop, transport=workload.transport),
        LAUNCH_REPEATS)


# -- leaks ---------------------------------------------------------------------------


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _child_pids() -> set[int]:
    pids: set[int] = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except FileNotFoundError:
            pass
    return pids


def _resource_tracker_pid() -> int | None:
    return getattr(resource_tracker._resource_tracker, "_pid", None)


def leaks(shm_before: set[str], run_dir: str) -> list[str]:
    """Shared-memory segments, spill files and rank processes left over."""
    found = [f"shared-memory segment /dev/shm/{name} left behind"
             for name in sorted(_shm_segments() - shm_before)]
    for directory, _dirs, files in os.walk(run_dir):
        found.extend(f"spill segment {os.path.join(directory, name)} left behind"
                     for name in files if name.endswith(".seg"))
    found.extend(f"rank process {pid} still running" for pid in sorted(
        _child_pids() - {_resource_tracker_pid()}))
    return found


def stop_resource_tracker() -> None:
    """The shm transport's segments start multiprocessing's resource
    tracker process; stop it and wait for it, like every other child."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


# -- one workload --------------------------------------------------------------------


class RunTimeout(BaseException):
    """The run overran; a BaseException so no job's error handling swallows it."""


def _deadline_reached(_signum, _frame) -> None:
    raise RunTimeout(f"benchmark run exceeded {RUN_DEADLINE}s")


def run_workload(args) -> dict[str, Any]:
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    spill_dir = os.path.join(run_dir, "spill")
    span_dir = os.path.join(run_dir, "spans")
    os.makedirs(span_dir)
    # Anything the program puts in a temp directory stays in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(run_dir, "tmp")
    os.makedirs(tempfile.tempdir)

    shm_before = _shm_segments()
    outcome = Outcome()
    tracer = Tracer(span_dir)
    try:
        if args.workload == "small_jobs":
            workload = workloads.SmallJobs(args.seed, args.scale)
        elif args.workload == "wordcount":
            from repro.datampi import StorageConfig

            workload = workloads.wordcount(
                args.seed, args.scale, StorageConfig(spill_dir=spill_dir))
        else:
            workload = workloads.text_sort(args.seed, args.scale, spill_dir)
        # Only the end-to-end metrics are rescaled to nominal machine speed.
        yardstick = None if args.trace else Yardstick()
        if args.workload == "small_jobs":
            measured = run_small_jobs(workload, args, outcome, tracer, spill_dir, yardstick)
        else:
            measured = run_batch(workload, args, outcome, tracer, yardstick)
        launcher_s = launcher_seconds(workload) if args.trace else 0.0
    finally:
        stop_resource_tracker()
    for problem in leaks(shm_before, run_dir):
        outcome.record("leak check", [problem])
    shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(measured, tracer, launcher_s)
        units = PER_LAYER_UNITS
        tracer.export(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}.trace.json"), measured["windows"])
    else:
        metrics = end_to_end(measured, yardstick, workload.cpu_bound)
        units = END_TO_END_UNITS
    error_rate = outcome.failed / outcome.attempted
    counters = _summed(measured["counters"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "jobs_measured": len(measured["jobs"]),
        "jobs_traced": len(measured["windows"]), "error_rate": error_rate,
        "metrics": metrics,
        "counters_per_job": {name: counters.get(name, 0) / len(measured["jobs"])
                             for name in COUNTERS},
        "problems": outcome.problems,
        "job_wall_seconds": _durations(measured["jobs"]),
        "setup_wall_seconds": _durations(measured["setup"]),
        "yardstick_loop_seconds": [seconds for _, seconds in yardstick.samples]
        if yardstick else [],
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as handle:
        json.dump(report, handle, indent=1)

    print(f"{args.workload}: {report['jobs_measured']} jobs measured, "
          f"{report['jobs_traced']} traced, seed {args.seed}")
    if yardstick is not None:
        print(f"{args.workload}: median job wall time "
              f"{statistics.median(report['job_wall_seconds']):.6g} s, yardstick loop "
              f"{statistics.median(report['yardstick_loop_seconds']):.6g} s "
              f"(nominal {NOMINAL_S} s)")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for name, value in report["counters_per_job"].items():
        print(f"{args.workload} counter {name} = {value:.6g} per job")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> dict[str, Any]:
    """Every workload in its own process, so peak RSS and CPU stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", str(args.scale)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input's line count (smoke tests)")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    # An installed copy elsewhere is not the program under test.
    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(source) + os.sep):
        print(f"the program is not in {source} (found {repro.__file__})", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _deadline_reached)
    if args.workload != "all":
        signal.alarm(RUN_DEADLINE)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
