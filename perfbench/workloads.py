"""The served workloads, each driven over TCP by ``ServeClient``.

* ``ingest`` — one connection, closed loop: the whole stream through
  ``ServeClient.ingest`` in 1024-edge batches, then a flush.  Repeated on a
  fresh server per round for the first half of the run; the second half is
  ``query`` passes on :data:`INGEST_READ_SERVERS` servers, so the run also
  reports read latencies (they come from those passes, never from the
  ingest rounds).
* ``query`` — on each of :data:`SERVERS` fresh servers in turn, the stream
  is loaded during set-up; then two connections run closed loops through
  phases of edge, successor and precursor queries for its share of the run.

Every pass ends, outside the timed region and after the server's own
figures are scraped, with the gate's probe: a seeded sweep of edge,
successor, precursor and node-weight queries whose answers :mod:`gate`
compares with an in-process reference.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from inputs import BATCH_EDGES, Inputs, KeyDrawer, Query
from served import ServedGSS
from spans import Tracer, maybe_span
from repro.serve.client import ServeClientError

#: The query mix: each op an equal share of the queries, as
#: ``repro.serve.loadgen``'s query clients rotate their three ops evenly
#: (``precursor_query`` here in place of its ``node_out_weight``).  The ops
#: are sent in phases of :data:`PHASE_QUERIES` queries per connection,
#: cycled in this order, and both connections enter each phase together:
#: the server answers on one executor, so an edge query (~0.5 ms) sent
#: beside a successor or precursor scan (~7 ms) would mostly time its wait
#: for that scan.
QUERY_OPS = ("edge_query", "successor_query", "precursor_query")
PHASE_QUERIES = 50
QUERY_CONNECTIONS = 2
#: Keys in each connection's plan per op (it cycles when the run outlasts it).
QUERY_PLAN = 8_000
#: Gate probe per pass: edges, and nodes swept with all four node ops.
PROBE_EDGES = 300
PROBE_NODES = 40
#: Servers a ``query`` run measures in turn.  Each read figure is the
#: median of the per-server figures.  The edge p50 of one server differs
#: from the next by up to ~40% on a 2-vCPU VM (the whole latency
#: distribution shifts, as the processes happen to be placed on the CPUs),
#: and a slow stretch of the machine may cover one server's share of the run.
SERVERS = 6
#: Share of an ``ingest`` run given to its closing ``query`` passes, and the
#: servers those passes use.
INGEST_READ_SHARE = 0.5
INGEST_READ_SERVERS = 3
#: Servers per half of a traced run (``ingest``: rounds, then read servers),
#: which keeps a traced run near the length of an untraced one.
TRACED_QUERY_SERVERS = 2
TRACED_INGEST_ROUNDS = 2
#: Socket timeout: a reply slower than this fails the operation.
CLIENT_TIMEOUT_S = 30.0


@dataclass
class Pass:
    """Everything one server's life in a run produced."""

    workload: str
    setup_s: float
    info: Dict = field(default_factory=dict)
    ingest_edges: int = 0
    ingest_s: float = 0.0
    fed_batches: int = 0
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    loop_queries: int = 0
    loop_s: float = 0.0
    #: Answers the query loop received.
    loop_answers: List[Tuple[str, tuple, object]] = field(default_factory=list)
    probe_answers: List[Tuple[str, tuple, object]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    rss_mb: float = 0.0
    busy_retries: int = 0
    server_before: Dict = field(default_factory=dict)
    server_after: Dict = field(default_factory=dict)
    leaked_shm: List[str] = field(default_factory=list)

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{type(error).__name__}: {error}")


def ask(client, op: str, args: tuple, tracer: Optional[Tracer] = None):
    with maybe_span(tracer, f"serve.ServeClient.{op}"):
        return getattr(client, op)(*args)


# -- pass steps --------------------------------------------------------------------


def _scrape(server: ServedGSS) -> Dict:
    with server.client() as control:
        return control.metrics()


def _probe(run: Pass, server: ServedGSS, drawer: KeyDrawer, tracer: Optional[Tracer]) -> None:
    """The gate's sweep, after a flush, outside every timed region."""
    with server.client(timeout=CLIENT_TIMEOUT_S) as client:
        client.flush()
        for op, args in drawer.probe(PROBE_EDGES, PROBE_NODES):
            run.attempted += 1
            try:
                run.probe_answers.append((op, args, ask(client, op, args, tracer)))
            except (ServeClientError, OSError) as error:
                run.fail(error)
                return


def _closed_loop_ingest(run: Pass, server: ServedGSS, inputs: Inputs, tracer: Optional[Tracer]) -> None:
    """The whole stream through ``ServeClient.ingest``, then a flush; timed."""
    with server.client(batch_size=BATCH_EDGES, timeout=CLIENT_TIMEOUT_S) as client:
        if tracer is not None:
            client.ingest_batch = tracer.wrap("serve.ServeClient.ingest_batch", client.ingest_batch)
        run.attempted += len(inputs.batches)
        begin = time.perf_counter()
        try:
            client.ingest(inputs.stream)
            client.flush()
        except (ServeClientError, OSError) as error:
            run.fail(error)
            return
        run.ingest_s = time.perf_counter() - begin
        run.ingest_edges = len(inputs.stream)
        run.fed_batches = len(inputs.batches)
        run.busy_retries += client.busy_retries


def _query_connection(server: ServedGSS, keys: Dict[str, Iterator[Query]], phases, tracer, out: Dict) -> None:
    """One connection's closed loop: :data:`PHASE_QUERIES` queries of the
    op of each phase ``phases`` releases, until it releases ``None``."""
    latencies: Dict[str, List[float]] = {}
    answers: List = []
    try:
        with server.client(timeout=CLIENT_TIMEOUT_S) as client:
            for op in phases:
                if op is None:
                    break
                for _ in range(PHASE_QUERIES):
                    args = next(keys[op])[1]
                    sent = time.perf_counter()
                    answer = ask(client, op, args, tracer)
                    latencies.setdefault(op, []).append(time.perf_counter() - sent)
                    answers.append((op, args, answer))
    except (ServeClientError, OSError) as error:
        out["error"] = error
    out["latencies"] = latencies
    out["answers"] = answers


class _Phases:
    """The phase sequence the connections step through together: each
    iteration waits until every connection has finished the phase before,
    then yields the next op, or ``None`` once ``seconds`` have passed at the
    end of a whole cycle (so every op gets the same number of queries)."""

    def __init__(self, connections: int, seconds: float) -> None:
        self._deadline = time.perf_counter() + seconds
        self._index = -1
        self._op: Optional[str] = None
        self._barrier = threading.Barrier(connections, action=self._advance)

    def _advance(self) -> None:
        self._index += 1
        cycle_done = self._index % len(QUERY_OPS) == 0
        over = self._index > 0 and cycle_done and time.perf_counter() >= self._deadline
        self._op = None if over else QUERY_OPS[self._index % len(QUERY_OPS)]

    def abort(self) -> None:
        """Release the other connections when one has failed."""
        self._barrier.abort()

    def __iter__(self) -> Iterator[Optional[str]]:
        while True:
            try:
                self._barrier.wait()
            except threading.BrokenBarrierError:
                return
            yield self._op


def draw_plans(drawer: KeyDrawer) -> Dict[str, List[List[Query]]]:
    """Each connection's key plan for each op."""
    return {op: [drawer.plan((op,), QUERY_PLAN) for _ in range(QUERY_CONNECTIONS)] for op in QUERY_OPS}


def _query_loop(run: Pass, server: ServedGSS, plans: Dict[str, List[List[Query]]], seconds: float, tracer) -> None:
    """``QUERY_CONNECTIONS`` closed loops, concurrently, through whole cycles
    of the ops' phases until ``seconds`` have passed."""
    outs: List[Dict] = [{} for _ in range(QUERY_CONNECTIONS)]
    begin = time.perf_counter()
    phases = _Phases(QUERY_CONNECTIONS, seconds)

    def connection(index: int) -> None:
        keys = {op: itertools.cycle(plans[op][index]) for op in QUERY_OPS}
        try:
            _query_connection(server, keys, phases, tracer, outs[index])
        finally:
            phases.abort()

    threads = [threading.Thread(target=connection, args=(index,)) for index in range(QUERY_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.loop_s = time.perf_counter() - begin
    for out in outs:
        for op, samples in out["latencies"].items():
            run.latencies.setdefault(op, []).extend(samples)
        run.loop_answers.extend(out["answers"])
        run.attempted += len(out["answers"])
        if "error" in out:
            run.attempted += 1
            run.fail(out["error"])
    run.loop_queries = len(run.loop_answers)


def _serve(workload: str, root: Path, inputs: Inputs, drawer: KeyDrawer, tracer: Optional[Tracer], body) -> Pass:
    """Run ``body(run, server)`` on a fresh server, then the gate's probe;
    always reap the server.  Traced, the server's figures are scraped around
    ``body`` (it may re-scrape ``server_before`` after its set-up), so they
    cover the workload's traffic and not the probe's."""
    server = ServedGSS(root, inputs.distinct_edges, obs=tracer is not None)
    run = Pass(workload, server.setup_s, dict(server.info))
    try:
        if tracer is not None:
            run.server_before = _scrape(server)
        with tracer.patch_from_items() if tracer is not None else contextlib.nullcontext():
            body(run, server)
        if tracer is not None:
            run.server_after = _scrape(server)
        if not run.failed:
            _probe(run, server, drawer, tracer)
        run.rss_mb = server.rss_mb()
    finally:
        run.leaked_shm = server.stop()
    return run


# -- workloads --------------------------------------------------------------------


def ingest_passes(root, inputs, seconds, drawer, tracer=None, min_rounds=3, read_servers=INGEST_READ_SERVERS) -> List[Pass]:
    """Ingest rounds for half of ``seconds``, then ``query`` passes for
    the read latencies."""
    passes: List[Pass] = []
    begin = time.perf_counter()
    rounds_s = seconds * (1 - INGEST_READ_SHARE)
    while len(passes) < min_rounds or time.perf_counter() - begin < rounds_s:

        def body(run: Pass, server: ServedGSS) -> None:
            _closed_loop_ingest(run, server, inputs, tracer)

        passes.append(_serve("ingest", root, inputs, drawer, tracer, body))
        if passes[-1].failed:
            return passes
    return passes + query_passes(root, inputs, seconds * INGEST_READ_SHARE, drawer, tracer, read_servers)


def query_passes(root, inputs, seconds, drawer, tracer=None, servers=SERVERS) -> List[Pass]:
    """``servers`` fresh servers in turn, each loaded, then queried for its
    share of ``seconds``."""
    passes: List[Pass] = []
    for _ in range(servers):
        plans = draw_plans(drawer)

        def body(run: Pass, server: ServedGSS) -> None:
            _closed_loop_ingest(run, server, inputs, tracer)  # set-up load
            if run.failed:
                return
            if tracer is not None:
                run.server_before = _scrape(server)
            _query_loop(run, server, plans, seconds / servers, tracer)

        passes.append(_serve("query", root, inputs, drawer, tracer, body))
        if passes[-1].failed:
            break
    return passes
