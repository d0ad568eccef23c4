"""Smoke tests for the benchmark itself.

    python3 -m pytest -q perfbench

Each workload runs at a tiny size in both modes, a corrupted result is
counted as failed rather than passed, the traced counts repeat for a seed,
the speed clock samples and puts SIGALRM back, and a directory without
lietrace sources makes the benchmark exit non-zero without a result line.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "hook target missing" not in proc.stdout


def _measure(workload, tamper, trace=False):
    sys.path.insert(0, str(run.SRC))
    return run.measure(workload, 5, 0, trace, tiny=True, after_setup=tamper)


def test_wrong_number_counts_as_failed():
    def tamper(lib, ops, docs):
        real = lib.lefschetz.linearization
        lib.lefschetz.linearization = lambda a: real(a) + 1
    result = _measure("sweep", tamper)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_raise_counts_as_failed():
    def tamper(lib, ops, docs):
        def broken(*args, **kwargs):
            raise ArithmeticError("injected")
        lib.torus_oracle.count_fixed_points = broken
    result = _measure("sweep", tamper)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_cli_byte_mismatch_counts_as_failed():
    def tamper(lib, ops, docs):
        docs[0].expected_sha256 = "0" * 64
    result = _measure("deep", tamper)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_missing_hook_is_reported_by_name(monkeypatch, capsys):
    monkeypatch.setattr(run.tracing, "SPAN_SITES",
                        run.tracing.SPAN_SITES + [("cecomplex", "retired")])
    result = _measure("deep", None, trace=True)
    assert result["correct"]
    assert "hook target missing: lietrace.cecomplex.retired" in capsys.readouterr().out


def test_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        metrics = _measure("sweep", None, trace=True)["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items()
                       if m["unit"] in ("count", "bits", "ratio")})
    assert counts[0]["ratlin.as_fraction.calls"] > 0
    assert counts[0] == counts[1]


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "deep", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_speed_clock_samples_and_restores_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedClock() as clock:
        mark = clock.mark()
        deadline = time.perf_counter() + 0.05
        while time.perf_counter() < deadline:
            pass
        corrected = clock.since(mark)
    assert len(clock.probes) >= 10
    assert corrected > 0
    assert signal.getsignal(signal.SIGALRM) == before
