"""In-memory spans around the benchmark's own calls into each layer.

Nothing inside ``src/`` is instrumented: a :class:`Tracer` wraps public
functions from outside (``ServeClient.ingest_batch``, the query methods,
``HashedBatch.from_items``, ``GSS.update_many*``,
``ShardedSummary.update_many_hashed`` / ``flush``).  Each span records its
name, start, end, parent span and the run id; :meth:`Tracer.write` dumps
them as JSON at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from repro.streaming.batch import HashedBatch


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append({})
        parent = stack[-1] if stack else None
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = {
                "id": index,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run_id,
            }

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patch_from_items(self) -> Iterator[None]:
        """Span every ``HashedBatch.from_items`` call made inside the block."""
        original = HashedBatch.__dict__["from_items"]
        traced = self.wrap("streaming.HashedBatch.from_items", HashedBatch.from_items)
        HashedBatch.from_items = classmethod(lambda cls, *args, **kwargs: traced(*args, **kwargs))
        try:
            yield
        finally:
            HashedBatch.from_items = original

    def durations(self, name: str, since: int = 0) -> List[float]:
        return [
            span["end"] - span["start"]
            for span in self.spans[since:]
            if span.get("name") == name
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}))


def maybe_span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()
