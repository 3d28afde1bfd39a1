"""Tests of the benchmark itself (not of the system it measures).

    python3 -m pytest perfbench -q

They start real servers on a tiny stream, so they take about a minute.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ.setdefault("REPRO_NATIVE_CACHE", str(ROOT / ".bench_build" / "native"))

import gate  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
from inputs import KeyDrawer, make_inputs  # noqa: E402
from workloads import PHASE_QUERIES, QUERY_CONNECTIONS, QUERY_OPS, ingest_passes  # noqa: E402

TINY = 5_000
_original_measure = run.measure


def _shm_segments() -> set:
    return {entry.name for entry in served.SHM_DIR.iterdir()}


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    declared = _benchmark_json()
    assert [m["name"] for m in declared["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


def _tiny_main(monkeypatch, capsys, workload: str, trace: int):
    """``run.py`` on a tiny stream: (exit code, environment, result)."""
    monkeypatch.setattr(run, "measure", functools.partial(_original_measure, edges=TINY))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["environment"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit(monkeypatch, capsys, workload, trace):
    shm_before = _shm_segments()
    code, environment, result = _tiny_main(monkeypatch, capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], float), name
    assert environment["backend"] == "native" and environment["stream_edges"] == TINY
    assert {"cpu_count", "python", "numpy", "seed", "transport", "compile_flags", "cpu_steal_share"} <= set(environment)
    # Hygiene: every server and worker reaped, no shared-memory ring left.
    assert served.descendants(os.getpid()) == []
    assert _shm_segments() - shm_before == set()


def test_reference_fed_a_different_stream_reports_failed_operations():
    inputs = make_inputs(3, TINY)
    passes = ingest_passes(ROOT, inputs, 0.0, KeyDrawer(inputs, 1), min_rounds=1, read_servers=1)
    assert gate.check(inputs, passes).failed == 0
    # The read pass ran one whole cycle: every op a full phase on each connection.
    assert {op: len(samples) for op, samples in passes[-1].latencies.items()} == {
        op: QUERY_CONNECTIONS * PHASE_QUERIES for op in QUERY_OPS
    }
    other = make_inputs(4, TINY)
    wrong = {passes[0].fed_batches: other.fed(passes[0].fed_batches)}
    report = gate.check(inputs, passes, reference_batches=wrong)
    assert report.failed > 0 and report.examples


def test_gate_failure_makes_the_command_fail(monkeypatch, capsys):
    honest = gate.check

    def against_another_stream(inputs, passes, **_):
        other = make_inputs(inputs.seed + 1, len(inputs.stream))
        wrong = {p.fed_batches: other.fed(p.fed_batches) for p in passes}
        return honest(inputs, passes, reference_batches=wrong)

    monkeypatch.setattr(gate, "check", against_another_stream)
    code, _, last = _tiny_main(monkeypatch, capsys, "ingest", 0)
    assert code == 1
    assert last["correct"] is False and last["failed"] > 0


def test_refuses_without_the_native_kernel():
    env = dict(os.environ, REPRO_DISABLE_NATIVE="1")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert "refused" in done.stderr


def test_fails_without_the_program():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""


def test_server_count_mismatch_is_reported():
    from types import SimpleNamespace

    passes = [SimpleNamespace(latencies={"edge_query": [0.001] * 3, "successor_query": [0.01]})]
    ops = {"edge_query": {"count": 3}, "successor_query": {"count": 1}}
    assert run.server_count_mismatches(passes, ops) == []
    ops["edge_query"]["count"] = 5  # e.g. the gate's probe counted as well
    (mismatch,) = run.server_count_mismatches(passes, ops)
    assert "edge_query" in mismatch
