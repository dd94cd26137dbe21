"""The benchmark's own tests, at the tiny size.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_json(args, cwd=ROOT):
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return done, (json.loads(done.stdout.splitlines()[-1])
                  if done.returncode == 0 else None)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_produced(workload, trace):
    done, result = bench_json(["--workload", workload, "--seed", "3",
                               "--seconds", "0", "--trace", trace,
                               "--size", "tiny"])
    assert done.returncode == 0, done.stderr
    wanted = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failure_rate 0 ratio" in done.stdout


def test_corrupted_output_raises_failure_rate(monkeypatch):
    convergence = importlib.import_module("brolinlab.convergence")
    write = convergence.report_to_json
    calls = []

    def corrupting(report, path):
        write(report, path)
        calls.append(path)
        if len(calls) == 2:  # the second run's report no longer matches
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(" ")

    monkeypatch.setattr(convergence, "report_to_json", corrupting)
    result = run.measure("sweep-circle", 3, 0.0, False, size="tiny")
    assert len(calls) == 2
    assert result["failed"] == 1 and result["attempted"] > 1
    assert result["errors"] == ["check failed: output files differ from the "
                                "first run's"]


def test_traced_run_leaves_no_wrapper():
    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _, _ in tracer.TARGETS}
    result = run.measure("sweep-arcsine", 3, 0.0, True, size="tiny")
    assert result["failed"] == 0 and len(result["traced"]) == 1
    after = {(m, a): getattr(importlib.import_module(m), a)
             for m, a, _, _ in tracer.TARGETS}
    assert after == before
    layers = tracer.layer_metrics(result["spans"][0])
    assert layers["dynamics.sample.s"] > 0
    assert layers["convergence.sweep.self_s"] < layers["convergence.sweep.s"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = bench_json(["--workload", "sweep-circle", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
