"""Self-tests of the benchmark at smoke size.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import ROOT, Launcher  # noqa: E402
from replay import LAYER_METRICS  # noqa: E402
from run import END_TO_END, run_workload  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_output,
    make_input,
    reference,
    scaled,
)

SMOKE = 0.05
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "ratio", "msgs/record", "B/record"}


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == dict(LAYER_METRICS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_smoke(name):
    result, prov = run_workload(name, seed=5, seconds=0.1, trace=False, scale=SMOKE)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert prov["seed"] == 5 and prov["nproc"] >= 1
    assert prov["inputs"]["records"] == scaled(WORKLOADS[name], SMOKE).records


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_counts_repeat(name):
    first, _ = run_workload(name, seed=5, seconds=0.1, trace=True, scale=SMOKE)
    second, _ = run_workload(name, seed=5, seconds=0.1, trace=True, scale=SMOKE)
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == dict(LAYER_METRICS)
    for metric, unit in LAYER_METRICS:
        if unit in COUNT_UNITS and not metric.startswith("runtime.") \
                and not metric.startswith("trace."):
            assert first["metrics"][metric] == second["metrics"][metric], metric


def _reference_output(ref, drop=0, add=None):
    pairs = sorted(ref.pairs.items())[drop:]
    if add is not None:
        pairs.append(add)
    return "\n".join(f"{sim}\t{a}\t{b}" for (a, b), sim in pairs) + "\n"


@pytest.mark.parametrize("name", ["aol-exact", "aol-approx"])
def test_oracle_rejects_a_dropped_or_added_pair(name, tmp_path):
    workload = scaled(WORKLOADS[name], SMOKE)
    path = tmp_path / "input.txt"
    make_input(workload, 5, path)
    ref = reference(workload, path)
    assert len(ref.pairs) > 1
    ok, recall, _ = check_output(workload, ref, _reference_output(ref))
    assert ok and recall == 1.0
    stranger = ((10**6, 10**6 + 1), "0.9000")
    assert not check_output(workload, ref, _reference_output(ref, add=stranger))[0]
    assert not check_output(workload, ref, _reference_output(ref) * 2)[0]
    if workload.mode == "exact":
        assert not check_output(workload, ref, _reference_output(ref, drop=1))[0]
    else:
        # An approx run may miss pairs, down to the analytic floor.
        missing = int(len(ref.pairs) * (1 - ref.recall_floor)) + 1
        assert not check_output(workload, ref, _reference_output(ref, drop=missing))[0]


def test_rusage_is_per_child(tmp_path):
    # The spawning process is large, a later child is small: neither
    # the earlier child's peak nor the spawner's size may leak into it.
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"1" * len(ballast[::4096])
    touch = "x = bytearray(200 * 1024 * 1024); x[::4096] = b'1' * len(x[::4096])"
    with Launcher() as launcher:
        big = launcher.run([sys.executable, "-c", touch], {}, tmp_path)
        small = launcher.run([sys.executable, "-c", "pass"], {}, tmp_path)
    assert big.returncode == 0 and small.returncode == 0
    assert big.peak_rss_mb > 150
    assert small.peak_rss_mb < 100
    del ballast


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aol-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
