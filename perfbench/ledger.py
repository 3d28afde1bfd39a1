"""The in-process layer ledger of the traced run.

Replays the run's stream, in the same 1024-edge batches, through each layer
on its own — client hashing, the single-process ``GSS`` (the kernel
ceiling), then the 2-worker ``ShardedSummary`` — and times each layer
through its public functions inside :class:`~spans.Tracer` spans.  Each
layer's throughput divided by ``core.update_many_hashed.eps`` is its
fraction of the kernel.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from inputs import Inputs, Query, batch_hasher
from gate import served_spec
from served import in_process
from spans import Tracer
from repro.api import SketchSpec, build
from repro.hashing.hash_functions import count_key_hashes
from repro.streaming.batch import HashedBatch, HashSpec

QUEUE_WAIT_FAMILY = "repro_cluster_queue_wait_seconds"


def _prehash(inputs: Inputs, spec: HashSpec) -> List[HashedBatch]:
    hash_batch = batch_hasher(spec)
    return [hash_batch(batch) for batch in inputs.batches]


def _query_p50_us(summary, plan: List[Query]) -> Dict[str, float]:
    samples: Dict[str, List[float]] = {}
    for op, args in plan:
        begin = time.perf_counter()
        getattr(summary, op)(*args)
        samples.setdefault(op, []).append(time.perf_counter() - begin)
    return {op: statistics.median(values) * 1e6 for op, values in samples.items()}


def hashing_layer(inputs: Inputs, spec: HashSpec, tracer: Tracer) -> Dict[str, float]:
    """``HashedBatch.from_items`` over the stream, as the client runs it."""
    hash_batch = batch_hasher(spec)
    mark = len(tracer.spans)
    with count_key_hashes() as counter:
        for batch in inputs.batches:
            with tracer.span("streaming.HashedBatch.from_items"):
                hash_batch(batch)
    distinct_keys = len({key for edge in inputs.distinct for key in edge})
    return {
        "streaming.from_items.eps": len(inputs.stream) / sum(tracer.durations("streaming.HashedBatch.from_items", mark)),
        "hashing.key_hashes": float(counter.count),
        "hashing.hashes_per_distinct_key": counter.count / distinct_keys,
    }


def core_layer(inputs: Inputs, plan: List[Query], tracer: Tracer) -> Dict[str, float]:
    """Single-process native ``GSS``: prehashed (ceiling) and text paths."""
    spec = SketchSpec("gss", expected_edges=inputs.distinct_edges, backend="native")
    kernel = build(spec)
    if kernel.backend_name != "native":
        raise RuntimeError(f"GSS resolved to {kernel.backend_name!r}, not native")
    prehashed = _prehash(inputs, kernel.hash_spec())
    mark = len(tracer.spans)
    for batch in prehashed:
        with tracer.span("core.GSS.update_many_hashed"):
            kernel.update_many_hashed(batch)
    hashed_s = sum(tracer.durations("core.GSS.update_many_hashed", mark))

    text = build(spec)
    mark = len(tracer.spans)
    for batch in inputs.batches:
        with tracer.span("core.GSS.update_many"):
            text.update_many(batch)
    text_s = sum(tracer.durations("core.GSS.update_many", mark))
    del text

    p50 = _query_p50_us(kernel, plan)
    return {
        "core.update_many_hashed.eps": len(inputs.stream) / hashed_s,
        "core.update_many.eps": len(inputs.stream) / text_s,
        "core.edge_query.p50_us": p50["edge_query"],
        "core.successor_query.p50_us": p50["successor_query"],
        "core.precursor_query.p50_us": p50["precursor_query"],
        "core.buffer_share": kernel.buffer_percentage,
        "core.occupancy": kernel.occupancy(),
        "core.memory_bytes": float(kernel.memory_bytes()),
    }


def cluster_layer(inputs: Inputs, plan: List[Query], tracer: Tracer) -> Dict[str, float]:
    """The 2-worker ``ShardedSummary`` the server wraps, driven in process."""
    with in_process(build(served_spec(inputs.distinct_edges))) as cluster:
        cluster.enable_obs()
        prehashed = _prehash(inputs, cluster.hash_spec())
        mark = len(tracer.spans)
        for batch in prehashed:
            with tracer.span("cluster.ShardedSummary.update_many_hashed"):
                cluster.update_many_hashed(batch)
        with tracer.span("cluster.ShardedSummary.flush"):
            cluster.flush()
        elapsed = sum(tracer.durations("cluster.ShardedSummary.update_many_hashed", mark)) + sum(
            tracer.durations("cluster.ShardedSummary.flush", mark)
        )
        family = cluster.obs_snapshot(refresh=True)["families"].get(QUEUE_WAIT_FAMILY, {})
        queue_wait = sum(series["sum"] for series in family.get("series", {}).values())
        stats = cluster.shard_ingest_stats()
        p50 = _query_p50_us(cluster, plan)
    return {
        "cluster.update_many_hashed.eps": len(inputs.stream) / elapsed,
        "cluster.queue_wait_s": queue_wait,
        "cluster.queue_depth_high_water": float(stats.queue_depth_high_water),
        "cluster.routing_imbalance": stats.routing_imbalance,
        "cluster.edge_query.p50_us": p50["edge_query"],
        "cluster.successor_query.p50_us": p50["successor_query"],
        "cluster.precursor_query.p50_us": p50["precursor_query"],
    }


def run_ledger(inputs: Inputs, client_spec: HashSpec, plan: List[Query], tracer: Tracer) -> Dict[str, float]:
    metrics = hashing_layer(inputs, client_spec, tracer)
    metrics.update(core_layer(inputs, plan, tracer))
    metrics.update(cluster_layer(inputs, plan, tracer))
    kernel = metrics["core.update_many_hashed.eps"]
    metrics["cluster.fraction_of_kernel"] = metrics["cluster.update_many_hashed.eps"] / kernel
    return metrics
