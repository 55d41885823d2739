"""The traced run: replay a workload through each layer's public functions.

The replay calls the layers in the order the runtime does —
``load_token_file`` -> ``plan_shards`` -> ``ShardPlan.tasks`` per record
-> ``encode_record_batch``/``decode_record_batch`` per batch -> the
``build_shard_engine`` engines' ``probe``/``insert`` -> ``merge_matches``
— and wraps every call in a span kept in memory. No span lives inside
the program: every clock read here is the benchmark's own.

:func:`layer_metrics` then adds whole-layer timings (the runtime, the
serial ground truth, the simulated cluster, the archive, an
instrumented run and the in-process CLI) and the deterministic work
counts, and checks that every path produced the same match rows.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.join import DistributedStreamJoin
from repro.core.metering import WorkMeter
from repro.datasets.loader import load_token_file
from repro.parallel.codec import INDEX, PROBE, decode_record_batch, encode_record_batch
from repro.parallel.merge import merge_matches
from repro.parallel.planner import plan_shards
from repro.parallel.runtime import ParallelJoinRunner, run_serial
from repro.parallel.worker import build_shard_engine

from workloads import WORKERS, Workload

#: Records of the untimed parallel run that precedes the timed ones.
WARMUP_RECORDS = 500

#: (untraced, traced) replay pairs that price the tracing.
OVERHEAD_PAIRS = 3

#: Per-layer metrics of the traced run, in report order, with units.
#: A layer the workload does not pass through reports 0.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("datasets.load_s", "s"),
    ("partition.plan_s", "s"),
    ("partition.shard_skew", "ratio"),
    ("routing.route_s", "s"),
    ("routing.msgs_per_record", "msgs/record"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes_per_record", "B/record"),
    ("core.probe_s", "s"),
    ("core.insert_s", "s"),
    ("core.posting_scan", "count"),
    ("core.candidate_admit", "count"),
    ("core.token_compare", "count"),
    ("core.results_per_candidate", "ratio"),
    ("sketch.probe_s", "s"),
    ("sketch.insert_s", "s"),
    ("sketch.results_per_candidate", "ratio"),
    ("merge.merge_s", "s"),
    ("merge.rows", "count"),
    ("runtime.run_s", "s"),
    ("runtime.serial_s", "s"),
    ("runtime.speedup", "ratio"),
    ("storm.run_s", "s"),
    ("storm.msgs_per_record", "msgs/record"),
    ("storm.bytes_per_record", "B/record"),
    ("storm.load_balance", "ratio"),
    ("obs.archive_s", "s"),
    ("obs.instrumented_run_s", "s"),
    ("cli.main_s", "s"),
    ("cli.emit_s", "s"),
    ("trace.replay_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)


class SpanLog:
    """In-memory spans of one replay: name, start, end, parent, run id.

    ``enabled=False`` keeps the call sites but reads no clock (its
    ``clock`` is the ``float`` builtin, which returns 0.0) and records
    nothing: that is the untraced replay which prices the tracing.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.clock: Callable[[], float] = time.perf_counter if enabled else float
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record one finished span; returns its id."""
        if not self.enabled:
            return -1
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name: each span's duration
        minus the time its children cover (children of one parent run
        one after another on one thread, so they never overlap)."""
        covered = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - covered[i]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write_jsonl(self, path: Path) -> int:
        """Write every span as one JSON line; returns the line count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, name in enumerate(self.names):
                handle.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i],
                }) + "\n")
        return len(self.names)


def _open_root(spans: SpanLog) -> int:
    """Reserve the root span's slot (id 0) before its children."""
    start = spans.clock()
    return spans.add("replay", start, start, -1)


def _close_root(spans: SpanLog, root: int) -> None:
    if root >= 0:
        spans.ends[root] = spans.clock()


def replay_parallel(
    workload: Workload, path: Path, spans: SpanLog
) -> Dict[str, object]:
    """Replay a parallel workload in this process, one span per call.

    Returns the merged match rows, the per-shard meters and the
    routing/codec counts.
    """
    clock = spans.clock
    root = _open_root(spans)
    t0 = clock()
    stream, _ = load_token_file(path)
    spans.add("datasets.load", t0, clock(), root)
    config = workload.config()
    records = list(stream)
    t0 = clock()
    plan = plan_shards(config, stream.corpus)
    spans.add("partition.plan", t0, clock(), root)

    layer = "sketch" if config.mode == "approx" else "core"
    probe_name, insert_name = f"{layer}.probe", f"{layer}.insert"
    shards = plan.num_shards
    meters = [WorkMeter() for _ in range(shards)]
    engines = [
        build_shard_engine(config, plan.func, s, shards, meters[s])
        for s in range(shards)
    ]
    workers = max(1, min(WORKERS, shards))
    chunks: List[List[tuple]] = [[] for _ in range(workers)]
    buffers: List[List[tuple]] = [[] for _ in range(shards)]
    batch_size = config.batch_size
    counts = {"messages": 0, "bytes": 0, "batches": 0}

    def deliver(shard: int, items) -> None:
        # What the driver sends and the hosting worker then executes
        # (ShardWorker.process_batch), one span per call.
        t0 = clock()
        payload = encode_record_batch(items)
        spans.add("codec.encode", t0, clock(), root)
        counts["bytes"] += len(payload)
        counts["batches"] += 1
        t0 = clock()
        decoded = decode_record_batch(payload)
        spans.add("codec.decode", t0, clock(), root)
        engine, meter = engines[shard], meters[shard]
        rows = chunks[shard % workers]
        with engine.batched():
            for op, record in decoded:
                if op & PROBE:
                    t0 = clock()
                    found = engine.probe(record)
                    spans.add(probe_name, t0, clock(), root)
                    meter.event("results", len(found))
                    ts, rid = record.timestamp, record.rid
                    for m in found:
                        rows.append((ts, rid, m.partner.rid, m.overlap, m.similarity))
                if op & INDEX:
                    t0 = clock()
                    engine.insert(record)
                    spans.add(insert_name, t0, clock(), root)

    for record in records:
        t0 = clock()
        tasks = plan.tasks(record)
        spans.add("routing.route", t0, clock(), root)
        counts["messages"] += len(tasks)
        for shard, op in tasks:
            buffer = buffers[shard]
            buffer.append((op, record))
            if len(buffer) >= batch_size:
                deliver(shard, buffer)
                buffer.clear()
    for shard, buffer in enumerate(buffers):
        if buffer:
            deliver(shard, buffer)
            buffer.clear()
    for chunk in chunks:
        chunk.sort()
    t0 = clock()
    matches = merge_matches(chunks)
    spans.add("merge.merge", t0, clock(), root)
    _close_root(spans, root)
    return {
        "stream": stream,
        "records": len(records),
        "matches": matches,
        "meters": meters,
        **counts,
    }


def replay_cluster(
    workload: Workload, path: Path, spans: SpanLog
) -> Dict[str, object]:
    """Replay the simulated-cluster workload: load, plan, route every
    record through the planned router, then run the topology."""
    clock = spans.clock
    root = _open_root(spans)
    t0 = clock()
    stream, _ = load_token_file(path)
    spans.add("datasets.load", t0, clock(), root)
    config = workload.config()
    join = DistributedStreamJoin(config)
    t0 = clock()
    router, _partition = join.plan(stream)
    spans.add("partition.plan", t0, clock(), root)
    messages = 0
    for record in stream:
        t0 = clock()
        decision = router.route(record)
        spans.add("routing.route", t0, clock(), root)
        messages += len(set(decision.index_tasks) | set(decision.probe_tasks))
    t0 = clock()
    report = join.run(stream)
    spans.add("storm.run", t0, clock(), root)
    _close_root(spans, root)
    return {
        "stream": stream,
        "records": len(stream.corpus),
        "report": report,
        "messages": messages,
    }


def _settle() -> None:
    """Collect garbage, then exempt every live object from later
    collections, so that a timed call never pays for scanning the heap
    the benchmark built before it."""
    gc.collect()
    gc.freeze()


def _timed(fn, *args, **kwargs):
    _settle()
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


class _Stopwatch:
    """Adds up the seconds spent inside the callables it wraps."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started

        return timed


def _cli_main(argv: List[str]) -> Tuple[int, float, float]:
    """``repro.cli.main`` in this process with stdout to the null device.

    Returns the exit code, the call's seconds and its emit seconds: the
    part of that same call spent outside ``load_token_file``, the join
    run and the archive capture (argument parsing, the summary table
    and the ``--pairs`` lines).
    """
    import repro.cli as cli

    inner = _Stopwatch()
    targets = [
        (cli, "load_token_file"), (cli, "_archive_capture"),
        (ParallelJoinRunner, "run"), (DistributedStreamJoin, "run"),
    ]
    saved = [(owner, name, vars(owner)[name]) for owner, name in targets]
    for owner, name, fn in saved:
        setattr(owner, name, inner.wrap(fn))
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code, main_s = _timed(cli.main, argv)
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)
    return code, main_s, main_s - inner.seconds


def _archive(fresh: Path, record) -> float:
    """Seconds to open a fresh archive and record one run, as the CLI's
    auto-capture does."""
    from repro.obs.archive import RunArchive

    _settle()
    started = time.perf_counter()
    with RunArchive(str(fresh)) as archive:
        record(archive)
    return time.perf_counter() - started


def _rows(found) -> List[tuple]:
    """Comparable ``(earlier, later, similarity)`` rows of a match-row
    list (runtime) or of a :class:`JoinRunReport` (simulated cluster)."""
    if isinstance(found, list):
        return sorted((row[2], row[1], row[4]) for row in found)
    return sorted((earlier, later, sim) for later, earlier, sim in found.pairs)


def layer_metrics(
    workload: Workload, path: Path, work_dir: Path, spans_out: Optional[Path],
    run_id: str,
) -> Tuple[Dict[str, float], List[str]]:
    """Every :data:`LAYER_METRICS` value for ``workload``, plus the list
    of correctness problems (empty when every path agreed)."""
    values = {name: 0.0 for name, _unit in LAYER_METRICS}
    problems: List[str] = []
    replay = replay_parallel if workload.parallel else replay_cluster

    # An untimed replay first takes every first-run cost (the file's
    # first read, lazy imports, heap growth), so no timed replay runs
    # cold. Untraced and traced replays then alternate, the order
    # flipping from pair to pair, and the overhead compares medians.
    result_key = "matches" if workload.parallel else "report"
    expected = _rows(replay(workload, path, SpanLog(run_id, False))[result_key])
    seconds: Dict[bool, List[float]] = {False: [], True: []}
    traced: Dict[str, object] = {}
    spans = SpanLog(run_id)
    for pair in range(OVERHEAD_PAIRS):
        for enabled in (False, True) if pair % 2 == 0 else (True, False):
            log = spans if enabled and not traced else SpanLog(run_id, enabled)
            found, elapsed = _timed(replay, workload, path, log)
            seconds[enabled].append(elapsed)
            if _rows(found[result_key]) != expected:
                problems.append("a replay's match rows differ from the first replay's")
            if enabled and not traced:
                traced = found
    untraced_s = statistics.median(seconds[False])
    traced_s = statistics.median(seconds[True])
    if spans_out is not None:
        spans.write_jsonl(spans_out)
    self_s = spans.self_times()
    root_s = spans.ends[0] - spans.starts[0]
    values["trace.replay_s"] = traced_s
    values["trace.overhead"] = traced_s / untraced_s - 1.0
    values["trace.coverage"] = 1.0 - self_s["replay"] / root_s
    for span_name, metric in (
        ("datasets.load", "datasets.load_s"),
        ("partition.plan", "partition.plan_s"),
        ("routing.route", "routing.route_s"),
        ("codec.encode", "codec.encode_s"),
        ("codec.decode", "codec.decode_s"),
        ("core.probe", "core.probe_s"),
        ("core.insert", "core.insert_s"),
        ("sketch.probe", "sketch.probe_s"),
        ("sketch.insert", "sketch.insert_s"),
        ("merge.merge", "merge.merge_s"),
        ("storm.run", "storm.run_s"),
    ):
        values[metric] = self_s.get(span_name, 0.0)
    records = traced["records"]
    values["routing.msgs_per_record"] = traced["messages"] / records

    stream = traced["stream"]
    config = workload.config()
    cli_argv = ["join", str(path), *workload.join_flags()]
    if workload.parallel:
        meters: List[WorkMeter] = traced["meters"]
        operations: Dict[str, float] = {}
        events: Dict[str, float] = {}
        for meter in meters:
            for key, value in meter.operations.items():
                operations[key] = operations.get(key, 0.0) + value
            for key, value in meter.events.items():
                events[key] = events.get(key, 0.0) + value
        work = [sum(meter.operations.values()) for meter in meters]
        values["partition.shard_skew"] = max(work) / (sum(work) / len(work))
        values["codec.bytes_per_record"] = traced["bytes"] / records
        values["merge.rows"] = len(traced["matches"])
        layer = "sketch" if config.mode == "approx" else "core"
        if layer == "core":
            for op in ("posting_scan", "candidate_admit", "token_compare"):
                values[f"core.{op}"] = operations.get(op, 0.0)
        candidates = events.get("candidates", 0.0)
        values[f"{layer}.results_per_candidate"] = (
            events.get("results", 0.0) / candidates if candidates else 0.0
        )

        serial, serial_s = _timed(run_serial, config, stream)
        runner = ParallelJoinRunner(config, workers=WORKERS, transport="auto")
        # The first parallel run in a process also starts multiprocessing's
        # resource tracker; run_s and cli.main_s should both exclude it.
        runner.run(list(stream)[:WARMUP_RECORDS])
        result, run_s = _timed(runner.run, stream)
        values["runtime.run_s"] = run_s
        values["runtime.serial_s"] = serial_s
        values["runtime.speedup"] = serial_s / run_s
        if traced["matches"] != result.matches:
            problems.append("replay match rows differ from runner.run's")
        if serial.matches != result.matches:
            problems.append("run_serial match rows differ from runner.run's")
        values["obs.archive_s"] = _archive(
            work_dir / "archive-layer.db",
            lambda a: a.record_parallel_run(result, argv=cli_argv),
        )
        instrumented = ParallelJoinRunner(
            config, workers=WORKERS, transport="auto",
            spans=True, telemetry=True, trace=True,
        )
        inst, values["obs.instrumented_run_s"] = _timed(instrumented.run, stream)
        if inst.matches != result.matches:
            problems.append("instrumented run's match rows differ")
    else:
        report = traced["report"]
        counters = report.cluster.counters
        for op in ("posting_scan", "candidate_admit", "token_compare"):
            values[f"core.{op}"] = counters.get(f"op:{op}", 0.0)
        values["core.results_per_candidate"] = (
            report.results / report.candidates if report.candidates else 0.0
        )
        values["partition.shard_skew"] = report.load_balance
        values["storm.msgs_per_record"] = report.messages_per_record
        values["storm.bytes_per_record"] = report.bytes_per_record
        values["storm.load_balance"] = report.load_balance
        serial_config = replace(config, use_bundles=False)
        serial = run_serial(serial_config, stream)
        if _rows(report) != _rows(serial.matches):
            problems.append("simulated cluster pairs differ from run_serial's")
        values["obs.archive_s"] = _archive(
            work_dir / "archive-layer.db",
            lambda a: a.record_cluster_run(
                report, config, wall_s=values["storm.run_s"], argv=cli_argv
            ),
        )
        from repro.obs import RunObserver

        observer = RunObserver.create(trace_stride=1, timeline=True, health=True)
        inst, values["obs.instrumented_run_s"] = _timed(
            DistributedStreamJoin(config).run, stream, observer=observer
        )
        if _rows(inst) != _rows(report):
            problems.append("instrumented run's pairs differ")

    os.environ["REPRO_ARCHIVE"] = str(work_dir / "archive-cli.db")
    code, values["cli.main_s"], values["cli.emit_s"] = _cli_main(cli_argv)
    if code != 0:
        problems.append(f"in-process repro.cli.main exited {code}")
    return values, problems
