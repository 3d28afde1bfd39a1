"""Seeded inputs: the edge stream, its batches and the query key plans.

Everything here is a pure function of the workload seed, so one seed gives
the same stream, the same 1024-edge batches and the same query keys in
every run (dicts, never sets, keep iteration order independent of the
per-process string hash seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Tuple

from repro.serve.loadgen import synthetic_stream
from repro.streaming.batch import HashedBatch, HashSpec

#: Edges in the stream (fixed: the matrix grows with the stream length).
STREAM_EDGES = 300_000
#: Node universe of ``synthetic_stream``; sources are squared-uniform over it.
NODES = 2_000
BATCH_EDGES = 1024
#: One edge query in this many asks for an edge absent from the stream.
ABSENT_EVERY = 4

NODE_OPS = ("successor_query", "precursor_query", "node_out_weight", "node_in_weight")

Edge = Tuple[Hashable, Hashable, float]
Query = Tuple[str, tuple]


@dataclass
class Inputs:
    seed: int
    stream: List[Edge]
    batches: List[List[Edge]]
    #: Distinct (source, destination) pairs in stream order.
    distinct: Dict[Tuple[str, str], None] = field(repr=False)

    @property
    def distinct_edges(self) -> int:
        return len(self.distinct)

    def fed(self, batch_count: int) -> List[List[Edge]]:
        """The first ``batch_count`` batches of the stream."""
        return self.batches[:batch_count]


def make_inputs(seed: int, edges: int = STREAM_EDGES) -> Inputs:
    stream = synthetic_stream(edges, NODES, seed)
    batches = [stream[i : i + BATCH_EDGES] for i in range(0, len(stream), BATCH_EDGES)]
    distinct = dict.fromkeys((source, destination) for source, destination, _ in stream)
    return Inputs(seed, stream, batches, distinct)


def batch_hasher(spec: HashSpec) -> Callable[[List[Edge]], HashedBatch]:
    """``HashedBatch.from_items`` with one node and route memo shared by
    every call, as ``ServeClient`` hashes a stream."""
    node_memo: dict = {}
    route_memo: dict = {}
    return lambda batch: HashedBatch.from_items(batch, spec, node_memo=node_memo, route_memo=route_memo)


class KeyDrawer:
    """Draws query keys from one seeded generator.

    Present edges are drawn uniformly from the stream's distinct edges,
    absent ones from node pairs that never occur.  Nodes come from seeded
    shuffles of the whole node universe, each node once per shuffle, so
    every run queries nearly the same mix of hot and cold nodes and the
    latency tails do not hinge on how many hot nodes a seed happened to draw.
    """

    def __init__(self, inputs: Inputs, salt: int) -> None:
        self._rng = random.Random(inputs.seed * 1_000_003 + salt)
        self._present = list(inputs.distinct)
        self._distinct = inputs.distinct
        self._universe = [f"n{index}" for index in range(NODES)]
        self._shuffled: List[str] = []
        self._edges_drawn = 0

    def node(self) -> str:
        if not self._shuffled:
            self._shuffled = self._universe[:]
            self._rng.shuffle(self._shuffled)
        return self._shuffled.pop()

    def _any_node(self) -> str:
        return self._rng.choice(self._universe)

    def edge(self) -> Tuple[str, str]:
        self._edges_drawn += 1
        if self._edges_drawn % ABSENT_EVERY:
            return self._rng.choice(self._present)
        while True:
            pair = (self._any_node(), self._any_node())
            if pair not in self._distinct:
                return pair

    def plan(self, pattern: Tuple[str, ...], count: int) -> List[Query]:
        """``count`` queries cycling through ``pattern``'s op names."""
        queries: List[Query] = []
        for index in range(count):
            op = pattern[index % len(pattern)]
            queries.append((op, self.edge() if op == "edge_query" else (self.node(),)))
        return queries

    def probe(self, edges: int, nodes: int) -> List[Query]:
        """The gate's sweep: edges, then every node query on each node."""
        queries: List[Query] = [("edge_query", self.edge()) for _ in range(edges)]
        for _ in range(nodes):
            node = (self.node(),)
            queries.extend((op, node) for op in NODE_OPS)
        return queries
