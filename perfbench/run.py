"""Served-GSS benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {ingest,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, measured on servers started with ``--no-obs``; ``--trace 1`` runs
an untraced and a traced pass of the workload (half the time each) plus the
in-process layer ledger, and prints the per-layer metrics.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment.  The exit code is 0 only when every
operation succeeded and every checked answer passed the gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("ingest", "query")

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "ingest_eps": "edges/s",
    "successor_query_p50_ms": "ms",
    "precursor_query_p50_ms": "ms",
    "query_qps": "queries/s",
    "rss_mb": "MiB",
    "successor_precision": "ratio",
}
PER_LAYER = {
    "edge_query_p50_ms": "ms",
    "edge_query_p99_ms": "ms",
    "successor_query_p99_ms": "ms",
    "precursor_query_p99_ms": "ms",
    "streaming.from_items.eps": "edges/s",
    "hashing.key_hashes": "count",
    "hashing.hashes_per_distinct_key": "ratio",
    "core.update_many_hashed.eps": "edges/s",
    "core.update_many.eps": "edges/s",
    "core.edge_query.p50_us": "us",
    "core.successor_query.p50_us": "us",
    "core.precursor_query.p50_us": "us",
    "core.buffer_share": "ratio",
    "core.occupancy": "ratio",
    "core.memory_bytes": "bytes",
    "edge_are": "ratio",
    "cluster.update_many_hashed.eps": "edges/s",
    "cluster.fraction_of_kernel": "ratio",
    "cluster.queue_wait_s": "s",
    "cluster.queue_depth_high_water": "count",
    "cluster.routing_imbalance": "ratio",
    "cluster.edge_query.p50_us": "us",
    "cluster.successor_query.p50_us": "us",
    "cluster.precursor_query.p50_us": "us",
    "serve.fraction_of_kernel": "ratio",
    "serve.ingest_batch.p50_ms": "ms",
    "serve.ingest_batch.p99_ms": "ms",
    "serve.request.edge_query.p50_ms": "ms",
    "serve.request.edge_query.p99_ms": "ms",
    "serve.request.successor_query.p50_ms": "ms",
    "serve.request.precursor_query.p50_ms": "ms",
    "serve.busy_replies": "count",
    "serve.busy_retries": "count",
    "serve.inflight_high_water": "count",
    "trace.overhead": "ratio",
}
#: Queries per op the ledger times in process (the first keys of the
#: ``query`` workload's first connection on its first server).
LEDGER_QUERIES = {"edge_query": 1200, "successor_query": 200, "precursor_query": 200}


class Refused(RuntimeError):
    """The environment cannot give a valid measurement; nothing is printed."""


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise Refused(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "native")


def warm_up() -> Dict:
    """Compile the kernel (outside every timed region) and refuse anything
    but the native backend."""
    import numpy

    from repro.core._native import compile_flags, warm_up as build_kernel
    from repro.core.backends import resolve_backend_name

    if not build_kernel() or resolve_backend_name("native") != "native":
        raise Refused("the native kernel is unavailable; refusing to measure another backend")
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": "native",
        "compile_flags": list(compile_flags()),
    }


def cpu_ticks() -> List[int]:
    """The machine's aggregate CPU time counters (``/proc/stat``)."""
    return [int(value) for value in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings (the eighth field is steal)."""
    spent = [b - a for a, b in zip(before, after)]
    return spent[7] / max(sum(spent[:8]), 1)


# -- metric assembly ------------------------------------------------------------


def _eps(passes) -> float:
    return statistics.median(run.ingest_edges / run.ingest_s for run in passes if run.ingest_edges)


def _qps(passes) -> float:
    return statistics.median(run.loop_queries / run.loop_s for run in passes if run.loop_queries)


def _main_metric(workload: str, passes) -> float:
    return _qps(passes) if workload == "query" else _eps(passes)


def client_p50s(passes) -> Dict[str, float]:
    """Each op's client round-trip p50: the median over the query passes
    of each pass's p50."""
    from repro.serve.loadgen import _percentile
    from workloads import QUERY_OPS

    return {
        f"{op}_p50_ms": statistics.median(
            _percentile(run.latencies[op], 0.50) for run in passes if run.latencies.get(op)
        )
        * 1e3
        for op in QUERY_OPS
    }


def client_p99s(passes) -> Dict[str, float]:
    """Each op's client round-trip p99 over every sample of the run."""
    from repro.serve.loadgen import _percentile
    from workloads import QUERY_OPS

    return {
        f"{op}_p99_ms": _percentile([value for run in passes for value in run.latencies.get(op, [])], 0.99) * 1e3
        for op in QUERY_OPS
    }


def end_to_end(passes, report) -> Dict[str, float]:
    metrics = client_p50s(passes)
    metrics.update(
        {
            "setup_s": statistics.median(run.setup_s for run in passes),
            "ingest_eps": _eps(passes),
            "query_qps": _qps(passes),
            "rss_mb": statistics.median(run.rss_mb for run in passes),
            "successor_precision": statistics.fmean(report.successor_precisions),
        }
    )
    return metrics


def server_ops(passes) -> Dict[str, Dict]:
    """The server's own per-op latency over the passes' timed traffic, from
    its ``repro_serve_request_seconds{op}`` histograms diffed across them."""
    from repro.obs.registry import merge_snapshots
    from repro.serve.loadgen import _server_op_latency

    return _server_op_latency(
        merge_snapshots(*(run.server_after.get("obs") for run in passes)),
        merge_snapshots(*(run.server_before.get("obs") for run in passes)),
    ) or {}


def server_count_mismatches(passes, ops: Dict[str, Dict]) -> List[str]:
    """Query ops whose server-side sample count differs from the number the
    client loops sent: then the two sides did not time the same traffic."""
    from workloads import QUERY_OPS

    mismatches = []
    for op in QUERY_OPS:
        sent = sum(len(run.latencies.get(op, [])) for run in passes)
        served = ops.get(op, {}).get("count", 0)
        if served != sent:
            mismatches.append(f"server timed {served} {op} requests, the client loops sent {sent}")
    return mismatches


def per_layer(workload, untraced, traced, ledger, tracer, report, ops) -> Dict[str, float]:
    from repro.serve.loadgen import _percentile

    # The client p99s and the edge p50 (from the untraced pass) sit here, not
    # end to end: their run-to-run spread on a 2-vCPU VM exceeds the largest
    # bound allowed there (README).
    metrics = client_p99s(untraced)
    metrics["edge_query_p50_ms"] = client_p50s(untraced)["edge_query_p50_ms"]
    metrics.update(ledger)
    batch_times = tracer.durations("serve.ServeClient.ingest_batch")
    served_eps = _eps(traced)
    metrics.update(
        {
            "edge_are": statistics.fmean(report.edge_errors),
            "serve.fraction_of_kernel": served_eps / ledger["core.update_many_hashed.eps"],
            "serve.ingest_batch.p50_ms": _percentile(batch_times, 0.50) * 1e3,
            "serve.ingest_batch.p99_ms": _percentile(batch_times, 0.99) * 1e3,
            "serve.request.edge_query.p50_ms": ops["edge_query"]["p50_ms"],
            "serve.request.edge_query.p99_ms": ops["edge_query"]["p99_ms"],
            "serve.request.successor_query.p50_ms": ops["successor_query"]["p50_ms"],
            "serve.request.precursor_query.p50_ms": ops["precursor_query"]["p50_ms"],
            "serve.busy_replies": float(
                sum(run.server_after["busy_replies"] - run.server_before["busy_replies"] for run in traced)
            ),
            "serve.busy_retries": float(sum(run.busy_retries for run in traced)),
            "serve.inflight_high_water": float(max(run.server_after["inflight_high_water"] for run in traced)),
            "trace.overhead": _main_metric(workload, traced) / _main_metric(workload, untraced),
        }
    )
    return metrics


# -- one run --------------------------------------------------------------------


def workload_passes(workload, inputs, seconds, tracer=None, half=False):
    """Every server one workload runs; ``half`` for each half of a traced
    run, on fewer servers."""
    from inputs import KeyDrawer
    from workloads import SERVERS, TRACED_INGEST_ROUNDS, TRACED_QUERY_SERVERS, ingest_passes, query_passes

    drawer = KeyDrawer(inputs, 1 if tracer is None else 100)
    if workload == "ingest" and half:
        return ingest_passes(ROOT, inputs, seconds, drawer, tracer, TRACED_INGEST_ROUNDS, read_servers=1)
    if workload == "ingest":
        return ingest_passes(ROOT, inputs, seconds, drawer, tracer)
    return query_passes(ROOT, inputs, seconds, drawer, tracer, TRACED_QUERY_SERVERS if half else SERVERS)


def measure(workload: str, seed: int, seconds: float, trace: bool, edges: Optional[int] = None) -> Dict:
    """One run; ``edges`` shrinks the stream (the benchmark's own tests)."""
    import gate
    from inputs import NODES, STREAM_EDGES, KeyDrawer, make_inputs
    from ledger import run_ledger
    from spans import Tracer
    from workloads import QUERY_OPS, draw_plans

    environment = warm_up()
    ticks = cpu_ticks()
    edges = edges or STREAM_EDGES
    inputs = make_inputs(seed, edges)
    # The generator must not stall collecting its own fixed inputs.
    gc.collect()
    gc.freeze()
    run_id = f"{workload}-{seed}-{'traced' if trace else 'untraced'}-{os.getpid()}-{int(time.time())}"
    tracer = Tracer(run_id) if trace else None
    if trace:
        untraced = workload_passes(workload, inputs, seconds / 2, half=True)
        traced = workload_passes(workload, inputs, seconds / 2, tracer, half=True)
        passes = untraced + traced
    else:
        passes = workload_passes(workload, inputs, seconds)
    attempted = sum(run.attempted for run in passes)
    failed = sum(run.failed for run in passes)
    errors = [error for run in passes for error in run.errors]
    report = gate.check(inputs, [run for run in passes if not run.failed])
    failed += report.failed
    errors += report.examples
    if trace and not failed:
        ops = server_ops(traced)
        mismatches = server_count_mismatches(traced, ops)
        failed += len(mismatches)
        errors += mismatches

    from repro.serve import protocol

    environment.update(
        {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "transport": passes[0].info.get("transport"),
            "workers": passes[0].info.get("workers"),
            "stream_edges": edges,
            "nodes": NODES,
            "distinct_edges": inputs.distinct_edges,
            "run_id": run_id,
            # Runs made while neighbours take the VM's CPUs read slower; this
            # tells them apart.
            "cpu_steal_share": steal_share(ticks, cpu_ticks()),
        }
    )
    samples = {op: sum(len(run.latencies.get(op, [])) for run in passes) for op in QUERY_OPS}
    if failed:
        metrics: Dict[str, float] = {}
    elif trace:
        plans = draw_plans(KeyDrawer(inputs, 1))
        plan = [query for op, count in LEDGER_QUERIES.items() for query in plans[op][0][:count]]
        spec = protocol.spec_from_wire(passes[0].info["hash_spec"])
        ledger = run_ledger(inputs, spec, plan, tracer)
        metrics = per_layer(workload, untraced, traced, ledger, tracer, report, ops)
    else:
        metrics = end_to_end(passes, report)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "environment": environment,
        "errors": errors[:10],
        "leaked_shm": [name for run in passes for name in run.leaked_shm],
        "gate": {"checked": report.checked, "failed": report.failed},
        "latency_samples": samples,
    }
    out = ROOT / ".bench_build" / "perfbench"
    if tracer is not None:
        tracer.write(out / "traces" / f"{run_id}.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{run_id}.json").write_text(json.dumps({**record, "result": result}, indent=1))
    return {"record": record, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated benchmark still reaps its servers (their finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        _bootstrap()
        sys.path.insert(0, str(HERE))
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as error:
        print(f"perfbench: refused: {error}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - no result line on a broken run
        traceback.print_exc()
        return 1
    finally:
        _reap_leftovers()
    result = outcome["result"]
    for line in outcome["record"]["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"environment": outcome["record"]["environment"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _reap_leftovers() -> None:
    """Stop the resource tracker the in-process clusters started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
