"""The correctness gate: served answers against an in-process reference.

After every timed region, each pass's probe answers (a seeded sample of
edges and nodes) are compared bit for bit with a reference ``sharded-gss`` cluster built from
the same spec as the server and fed the same batches in the same order (so
every shard places the same items in the same order, which is what makes
equality a valid assertion).  Every answer the run received — probe and workload loop — is
also checked against the paper's one-sided guarantee on the exact graph
(``repro.exact``): no under-estimated edge, no missed successor or
precursor.  Each failing answer is one failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from inputs import Edge, Inputs, batch_hasher
from repro.api import SketchSpec, build
from repro.exact.adjacency_list import AdjacencyListGraph
from served import in_process


def served_spec(expected_edges: int, workers: int = 2) -> SketchSpec:
    """The spec ``repro serve --backend native --workers 2`` builds."""
    return SketchSpec(
        "sharded-gss",
        expected_edges=expected_edges,
        backend="native",
        params={"workers": workers, "transport": "auto"},
    )


@dataclass
class GateReport:
    checked: int = 0
    failed: int = 0
    examples: List[str] = field(default_factory=list)
    #: (estimate - exact) / exact of every present edge answered.
    edge_errors: List[float] = field(default_factory=list)
    #: |exact successors| / |reported successors| of every successor answer.
    successor_precisions: List[float] = field(default_factory=list)

    def mismatch(self, message: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(message)


def _one_sided(report: GateReport, exact: AdjacencyListGraph, op: str, args: tuple, answer) -> None:
    """Check one answer against the exact graph."""
    if op == "edge_query":
        truth = exact.edge_query(*args)
        if truth is None:
            return
        if answer is None or answer < truth:
            report.mismatch(f"edge {args} under-estimated: {answer!r} < {truth!r}")
        else:
            report.edge_errors.append((answer - truth) / truth)
    elif op in ("successor_query", "precursor_query"):
        truth = getattr(exact, op)(*args)
        missed = truth - answer
        if missed:
            report.mismatch(f"{op}{args} missed {len(missed)} true neighbours")
        elif op == "successor_query":
            report.successor_precisions.append(len(truth) / len(answer) if answer else 1.0)


def check(
    inputs: Inputs,
    passes,
    *,
    reference_batches: Optional[Dict[int, List[List[Edge]]]] = None,
) -> GateReport:
    """Gate every pass; ``reference_batches`` overrides what the reference
    and exact graph are fed (keyed by the passes' ``fed_batches``)."""
    report = GateReport()
    groups: Dict[int, list] = {}
    for run in passes:
        groups.setdefault(run.fed_batches, []).append(run)
    for fed, runs in groups.items():
        batches = (reference_batches or {}).get(fed) or inputs.fed(fed)
        exact = AdjacencyListGraph()
        for batch in batches:
            for source, destination, weight in batch:
                exact.update(source, destination, weight)
        with in_process(build(served_spec(inputs.distinct_edges))) as reference:
            hash_batch = batch_hasher(reference.hash_spec())
            for batch in batches:
                reference.update_many_hashed(hash_batch(batch))
            reference.flush()
            for run in runs:
                for op, args, answer in run.probe_answers:
                    report.checked += 1
                    expected = getattr(reference, op)(*args)
                    if answer != expected:
                        report.mismatch(f"{op}{args}: served {answer!r} != reference {expected!r}")
                    else:
                        _one_sided(report, exact, op, args, answer)
                for op, args, answer in run.loop_answers:
                    report.checked += 1
                    _one_sided(report, exact, op, args, answer)
    return report
