"""Spans and counters recorded around the calls into the program's layers.

The benchmark leaves the program untouched: for a traced run it replaces
the module and class attributes through which the layers call each other
with timing wrappers, and puts the originals back afterwards. Spans are
kept in memory (id, parent, name, start, end, counters) and written out
when the run ends.

Spark work is attributed per span through job groups: a span that can run
Spark jobs sets its own group on entry and restores its parent's on exit.
The job and task counts are read from the status tracker once, after the
run, when the listener bus has drained, so reading them costs the timed
work nothing.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager

_GROUP_PROP = "spark.jobGroup.id"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, *, spark: bool = False):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counters": {},
            "group": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        if spark:
            rec["group"] = f"span-{rec['id']}"
            self.sc.setJobGroup(rec["group"], name)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if rec["group"] is not None:
                outer = next((s["group"] for s in reversed(self._stack) if s["group"]), None)
                if outer is None:
                    self.sc.setLocalProperty(_GROUP_PROP, None)
                else:
                    self.sc.setJobGroup(outer, "")

    def count(self, counter: str, value: float = 1) -> None:
        """Add to a counter of the innermost open span."""
        if self._stack:
            c = self._stack[-1]["counters"]
            c[counter] = c.get(counter, 0) + value

    # ------------------------------------------------- instrumentation
    def wrap(self, owner, attr: str, name: str, *, spark: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name, spark=spark):
                return orig(*args, **kwargs)

        self._patch(owner, attr, orig, traced)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` and their time, without a span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.count(counter)
                self.count(counter + "_s", time.perf_counter() - t0)

        self._patch(owner, attr, orig, counted)

    def _patch(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------- results
    def resolve_spark_counts(self) -> None:
        """Attach ``spark_jobs`` / ``spark_tasks`` to every grouped span."""
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        for rec in self.spans:
            if rec["group"] is None:
                continue
            jobs = st.getJobIdsForGroup(rec["group"])
            tasks = 0
            for j in jobs:
                info = st.getJobInfo(j)
                for sid in (info.stageIds if info else ()):
                    stage = st.getStageInfo(sid)
                    tasks += stage.numCompletedTasks if stage else 0
            rec["counters"]["spark_jobs"] = len(jobs)
            rec["counters"]["spark_tasks"] = tasks

    def children(self) -> dict[int, list[dict]]:
        out: dict[int, list[dict]] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                out.setdefault(rec["parent"], []).append(rec)
        return out

    def subtree(self, root_id: int) -> list[dict]:
        """The span ``root_id`` and all its descendants."""
        kids = self.children()
        out, todo = [], [self.spans[root_id]]
        while todo:
            rec = todo.pop()
            out.append(rec)
            todo.extend(kids.get(rec["id"], ()))
        return out


def layer_totals(tracer: Tracer, root_id: int) -> dict[str, dict[str, float]]:
    """Per span name under ``root_id``: calls, total and self seconds, counters."""
    kids = tracer.children()
    out: dict[str, dict[str, float]] = {}
    for rec in tracer.subtree(root_id):
        agg = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = rec["end"] - rec["start"]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - sum(k["end"] - k["start"] for k in kids.get(rec["id"], ()))
        for k, v in rec["counters"].items():
            agg[k] = agg.get(k, 0) + v
    return out
