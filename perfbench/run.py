"""End-to-end benchmark of ``repro join``: token file in, pairs out.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

``--trace 0`` times fresh ``python -m repro join FILE ... --pairs``
processes for about ``--seconds`` seconds, checks every run's pairs
against the reference, and reports the end-to-end metrics as medians
over the runs. ``--trace 1`` instead replays the workload once through
each layer's public functions with spans on (see ``replay.py``) and
reports the per-layer metrics. ``--all`` runs every workload with
``--trace 0`` and prints a table of every metric with its unit and the
error rate.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it carries the
run's provenance. Input generation and the reference run happen before
any timing and count toward no metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

from measure import (
    ROOT,
    SRC,
    Launcher,
    adopt_orphans,
    child_env,
    join_argv,
    reap_all,
    setup_argv,
)

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "records_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "recall": "ratio",
}

#: Fewest (set-up probe, join run) pairs a measurement takes, so that
#: every median is over at least this many samples.
MIN_PAIRS = 3

#: Scratch space of every invocation (removed at exit) and traced spans.
WORK = Path(__file__).resolve().parent / ".work"


def _source_digest() -> str:
    """SHA-256 over every file under ``src/`` (a checkout without git
    metadata cannot name its commit, so this identifies the code)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes here: a reading of how
    fast the host runs this process at the moment, kept with the
    samples so that drift of the host over time can be told apart from
    a change of the program."""
    started = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    return time.perf_counter() - started


def provenance(workload, seed: int, inputs: Dict[str, object]) -> Dict[str, object]:
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "join_flags": workload.join_flags(),
        "inputs": inputs,
    }


def measure(workload, seed: int, seconds: float, work: Path, launcher: Launcher):
    """Time join runs and set-up probes for ``seconds``.

    Every iteration runs one set-up probe and one join run, alternating
    which runs first. Iterations continue while the next one is
    expected to end within ``seconds``; there are always at least
    :data:`MIN_PAIRS`.
    """
    from workloads import check_output, make_input, reference

    input_path = work / "input.txt"
    inputs = make_input(workload, seed, input_path)
    ref = reference(workload, input_path)
    inputs["reference_pairs"] = len(ref.pairs)
    inputs["recall_floor"] = ref.recall_floor
    # Warm the bytecode cache so no timed run compiles the package.
    launcher.run([sys.executable, "-c", "import repro.cli, repro.parallel.worker"],
                 child_env(work / "warm.db"), work)

    runs: List[Dict[str, float]] = []
    setups: List[float] = []
    host: List[float] = []
    order: List[str] = []
    problems: List[str] = []

    def join_once() -> None:
        archive = work / "archive.db"
        run = launcher.run(join_argv(workload.join_flags(), input_path),
                           child_env(archive), work)
        archive.unlink(missing_ok=True)
        ok, recall, reason = check_output(workload, ref, run.stdout)
        if run.crashed:
            ok, reason = False, f"exit {run.returncode}: {run.stderr[-400:]}"
        if not ok:
            problems.append(reason)
        runs.append({
            "ok": ok, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
            "peak_rss_mb": run.peak_rss_mb, "recall": recall,
        })

    def setup_once() -> None:
        run = launcher.run(setup_argv(workload, input_path),
                           child_env(work / "setup.db"), work)
        if run.crashed:
            problems.append(f"set-up probe exit {run.returncode}: {run.stderr[-400:]}")
        setups.append(run.wall_s)

    started = time.perf_counter()
    while True:
        host.append(host_loop_s())
        step_started = time.perf_counter()
        first = "setup" if len(order) % 2 == 0 else "join"
        order.append(first)
        steps = (setup_once, join_once) if first == "setup" else (join_once, setup_once)
        for step in steps:
            step()
        now = time.perf_counter()
        if len(order) >= MIN_PAIRS and (now - started) + (now - step_started) > seconds:
            break
    inputs["first_in_pair"] = order
    inputs["samples"] = {
        "wall_s": [round(r["wall_s"], 4) for r in runs],
        "cpu_s": [round(r["cpu_s"], 4) for r in runs],
        "setup_s": [round(s, 4) for s in setups],
        "host_loop_s": [round(s, 4) for s in host],
    }
    records = inputs["records"]
    metrics = {
        "records_per_s": statistics.median(records / r["wall_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "recall": statistics.median(r["recall"] for r in runs),
    }
    failed = sum(1 for r in runs if not r["ok"])
    return metrics, len(runs), failed, problems, inputs


def traced(workload, seed: int, work: Path):
    """One traced replay plus the whole-layer timings (``replay.py``)."""
    from replay import LAYER_METRICS, layer_metrics
    from workloads import make_input

    input_path = work / "input.txt"
    inputs = make_input(workload, seed, input_path)
    run_id = f"{workload.name}-seed{seed}-{os.getpid()}"
    spans_out = WORK / "spans" / f"{workload.name}-seed{seed}.jsonl"
    values, problems = layer_metrics(workload, input_path, work, spans_out, run_id)
    inputs["spans_file"] = str(spans_out.relative_to(ROOT))
    units = dict(LAYER_METRICS)
    metrics = {name: values[name] for name in units}
    return metrics, units, 1, 1 if problems else 0, problems, inputs


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Measure one workload; returns ``(result, provenance)``."""
    from workloads import WORKLOADS, scaled

    workload = WORKLOADS[name]
    if scale != 1.0:
        workload = scaled(workload, scale)
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=str(WORK)))
    try:
        if trace:
            metrics, units, attempted, failed, problems, inputs = traced(
                workload, seed, work)
        else:
            with Launcher() as launcher:
                metrics, attempted, failed, problems, inputs = measure(
                    workload, seed, seconds, work, launcher)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems[:5]:
        print(f"{name}: FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }
    return result, provenance(workload, seed, inputs)


def _require_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro' / 'cli.py'} "
              f"is missing (run from a full checkout)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print a metric table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    from workloads import WORKLOADS

    if not args.all and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    adopt_orphans()
    try:
        if args.all:
            return _run_all(args, list(WORKLOADS))
        result, prov = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    finally:
        reap_all()
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


def _run_all(args, names: List[str]) -> int:
    """Every workload with ``--trace 0``: one table, one error rate."""
    rows: List[Tuple[str, str, float, str]] = []
    attempted = failed = 0
    for name in names:
        result, prov = run_workload(name, args.seed, args.seconds, False)
        print(json.dumps({"provenance": prov}))
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "error_rate", result["failed"] / result["attempted"],
                     "ratio"))
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<14} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            f"{name}.{metric}": {"value": value, "unit": unit}
            for name, metric, value, unit in rows
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
