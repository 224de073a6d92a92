"""In-memory spans, self times and Ray Data executor counters.

A span records a name, start, end, its parent span and optional
attributes (bytes, rows). Spans are kept in memory and written out once
when the run ends. A span's self time is its duration minus the part of
it covered by its child spans.

The untraced run passes :class:`NullTracer`, whose ``span`` is a shared
no-op context manager, so both runs execute the same pass code.
"""

from __future__ import annotations

import contextlib
import json
import re
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, id_: int, name: str, parent: int | None, start: float,
                 attrs: dict):
        self.id, self.name, self.parent = id_, name, parent
        self.start, self.end, self.attrs = start, start, attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.ray_summaries: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, time.perf_counter(), attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the child intervals clipped to
        the span (children of one thread never overlap, but the union
        keeps the rule exact for any input)."""
        ivs = sorted((max(c.start, span.start), min(c.end, span.end))
                     for c in self.children(span))
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return span.duration - covered

    def descendants(self, span: Span) -> list[Span]:
        out, todo = [], [span.id]
        while todo:
            pid = todo.pop()
            kids = [s for s in self.spans if s.parent == pid]
            out += kids
            todo += [k.id for k in kids]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([{"id": s.id, "name": s.name, "parent": s.parent,
                        "start": s.start, "end": s.end,
                        "self": self.self_time(s), **s.attrs}
                       for s in self.spans], f)


class NullTracer:
    """Tracing off: ``span`` yields None and records nothing."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._NULL


_TASKS = re.compile(r"(\d+) tasks executed")


def ray_counters(summaries) -> dict[str, float]:
    """Executor counters from ``Dataset.stats()`` summaries (the
    structured ``DatasetStatsSummary`` the stats string is rendered
    from), each executed dataset counted once even when it is the
    parent of several consumed datasets:

    - ``alltoall_ms``: task wall time summed over all-to-all
      sub-operators (shuffle map/reduce, sort sample, aggregate);
    - ``alltoall_rows``: rows those sub-operators output;
    - ``map_tasks``: tasks run by one-to-one operators (reads, maps).
    """
    seen = set()
    out = {"alltoall_ms": 0.0, "alltoall_rows": 0.0, "map_tasks": 0.0}

    def walk(s):
        if s.dataset_uuid in seen:
            return
        seen.add(s.dataset_uuid)
        for op in s.operators_stats:
            if op.is_sub_operator:
                out["alltoall_ms"] += (op.wall_time or {}).get("sum", 0) * 1e3
                out["alltoall_rows"] += (op.output_num_rows or {}).get("sum", 0)
            else:
                m = _TASKS.search(op.block_execution_summary_str or "")
                out["map_tasks"] += int(m.group(1)) if m else 0
        for p in s.parents:
            walk(p)

    for s in summaries:
        walk(s)
    return out


@contextlib.contextmanager
def record_to_pandas(tracer: Tracer):
    """While active, every ``Dataset.to_pandas`` call (the driver
    collects inside ``exact_dedup`` and ``remove_boilerplate_lines``)
    appends its executed dataset's stats summary to the tracer, so
    shuffles consumed inside library calls are counted too."""
    import ray.data

    orig = ray.data.Dataset.to_pandas

    def wrapped(self, *args, **kwargs):
        df = orig(self, *args, **kwargs)
        tracer.ray_summaries.append(self._get_stats_summary())
        return df

    ray.data.Dataset.to_pandas = wrapped
    try:
        yield
    finally:
        ray.data.Dataset.to_pandas = orig
