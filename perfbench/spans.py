"""Span tracer for the traced run.

The tracer wraps functions from outside the package.  Each call becomes a
span ``(id, parent id, name, start, end)``; a span's self time is its
duration minus the part of it that its child spans cover.  Aggregates per
span name (and call counts per parent-child pair of names) are kept for
every call, raw spans only up to a cap; :meth:`Tracer.dump` writes them out
at the end of the run.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.aggs: dict[str, list[float]] = {}         # name -> [calls, total, self]
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[list] = []                   # [id, name, child time]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, name: str, on_result=None, on_error=None):
        """``fn`` recording one span per call.  ``on_result(result, args)``
        and ``on_error(exc)`` see each outcome."""
        stack = self._stack

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close(frame, parent, start)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def _close(self, frame: list, parent: list | None, start: float) -> None:
        end = clock()
        self._stack.pop()
        sid, name, child_time = frame
        duration = end - start
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_time
        if parent is not None:
            parent[2] += duration
            self.edges[(parent[1], name)] += 1
        if len(self.spans) < self.keep:
            self.spans.append((sid, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    def calls(self, name: str) -> int:
        return int(self.aggs.get(name, (0,))[0])

    def total(self, name: str) -> float:
        return self.aggs.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.aggs.get(name, (0, 0.0, 0.0))[2]

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None, on_error=None):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result, on_error))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- persistence ----------------------------------------------------------

    def state(self) -> dict:
        return {"aggregates": {n: {"calls": a[0], "total_s": a[1], "self_s": a[2]}
                               for n, a in sorted(self.aggs.items())},
                "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
                "counts": dict(self.counts),
                "spans": self.spans, "dropped": self.dropped}

    @classmethod
    def load(cls, state: dict) -> Tracer:
        """A tracer holding another process's :meth:`state`."""
        tracer = cls()
        tracer.aggs = {n: [a["calls"], a["total_s"], a["self_s"]]
                       for n, a in state["aggregates"].items()}
        tracer.edges.update({(p, c): n for p, c, n in state["edges"]})
        tracer.counts.update(state["counts"])
        tracer.spans = [tuple(span) for span in state["spans"]]
        tracer.dropped = state["dropped"]
        return tracer

    def dump(self, path, **header) -> None:
        with open(path, "w") as fh:
            json.dump({**header, **self.state()}, fh)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered, cursor = 0.0, start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out[sid] = (end - start) - covered
    return out
