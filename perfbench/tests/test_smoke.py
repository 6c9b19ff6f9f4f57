"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest perfbench/tests -q

Each case runs perfbench/run.py as the benchmark command is run, on toy
inputs, and reads its last output line.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace, section):
    detail, result = parse(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, detail["failed_checks"]
    assert detail["failed_frac"] == 0
    assert len(detail["digest"]) == 64
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_injected_wrong_digest_raises_failed_frac():
    detail, result = parse(run("stability-paper", 0, "--expect-digest", "0" * 64))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["failed_frac"] > 0
    assert any("--expect-digest" in name for name in detail["failed_checks"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("stability-paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_timed_samples_the_reference_and_restores_the_alarm():
    sys.path.insert(0, str(BENCH))
    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.timed() as timing:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(timing.ref_s) >= 4  # one before, one after, and samples taken while the loop ran
    assert 0 < timing.wall_s < 0.3  # the time spent in the reference is left out
    assert timing.adjusted_s > 0
