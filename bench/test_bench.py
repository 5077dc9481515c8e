"""The benchmark's own tests: smoke runs of every workload, repeatable
per-layer counts, the tracer's namespace coverage, and refusal outside a
checkout.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer values that must repeat exactly for the same seed
EXACT_SUFFIXES = (
    ".calls", ".count", ".relations_checked", ".equations", ".points",
    ".hit_ratio", ".max_entry_terms",
)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@functools.cache
def smoke(workload: str, trace: int, attempt: int = 0) -> dict:
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_no_failures(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly_for_the_same_seed(workload):
    first, second = smoke(workload, 1), smoke(workload, 1, attempt=1)
    exact = [k for k in first["metrics"] if k.endswith(EXACT_SUFFIXES)]
    assert exact
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}


def test_traced_run_covers_all_six_layers():
    calls = {}
    for workload in WORKLOADS:
        for name, m in smoke(workload, 1)["metrics"].items():
            if name.endswith(".calls"):
                layer = name.split(".")[0]
                calls[layer] = calls.get(layer, 0) + m["value"]
    layers = ("scalars", "matrices", "groups", "reps", "analysis", "cli")
    assert all(calls.get(layer, 0) > 0 for layer in layers), calls


def test_tracer_rebinds_every_namespace_that_imported_a_wrapped_name():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import uvbraid.analysis
        import uvbraid.cli
        import uvbraid.reps
        from tracer import Tracer

        originals = (uvbraid.reps.eval_word, uvbraid.matrices.block_embed,
                     uvbraid.analysis.verify_relations)
        tracer = Tracer().install()
        try:
            assert tracer.unwrapped() == []
            assert uvbraid.analysis.eval_word is uvbraid.reps.eval_word is not originals[0]
            assert uvbraid.reps.block_embed is uvbraid.block_embed is not originals[1]
            assert uvbraid.cli.verify_relations is uvbraid.verify_relations is not originals[2]
        finally:
            tracer.uninstall()
        assert uvbraid.analysis.eval_word is originals[0]
        assert uvbraid.cli.verify_relations is originals[2]
    finally:
        del sys.path[:2]


def test_host_speed_calibrates_during_a_job_and_takes_that_time_out():
    sys.path.insert(0, str(BENCH))
    try:
        import worker

        host = worker.HostSpeed()
        host.sample(worker.BRACKET)
        host.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:  # a busy job
            pass
        during = host.stop()
        assert len(host.samples) >= worker.BRACKET + 3
        assert 0 < during < 0.5
    finally:
        del sys.path[0]


def test_refuses_without_a_checkout_to_measure(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
