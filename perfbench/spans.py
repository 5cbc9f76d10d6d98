"""In-memory spans around the benchmark's calls into each layer.

A span has a name, start, end, parent and the run id shared by every
span of one benchmark run. When a SparkContext is attached, each span id
is also the Spark job group of the calls made inside it, so the jobs,
stages and tasks Spark ran are attributed to the span that caused them
(read from ``statusTracker()`` when the span closes).

Spans stay in memory and are written out once, at the end of the run.
"""
from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: str
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spark_work(sc, group: str) -> dict[str, int]:
    """Jobs, stages and tasks Spark ran under job group ``group``."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        for sid in info.stageIds:
            stages += 1
            st = tracker.getStageInfo(sid)
            if st is not None:
                tasks += st.numTasks
    return {"jobs": len(jobs), "stages": stages, "tasks": tasks}


class Tracer:
    """Records spans when ``enabled``; otherwise only tags Spark job groups.

    Job groups are set in both modes, so every timed call carries its own
    job count; only the traced run keeps spans.
    """

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self.sc = None
        self._stack: list[Span] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, *, spark: bool = True, **attrs):
        """A span around one call; ``spark=False`` for pure-Python calls,
        which need no job group."""
        sid = f"{self.run_id}-{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        s = Span(sid, name, parent.id if parent else None, time.perf_counter(), attrs=attrs)
        self._stack.append(s)
        tag = spark and self.sc is not None
        if tag:
            self.sc.setJobGroup(sid, name)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if tag:
                s.attrs.update(spark_work(self.sc, sid))
                if parent is not None:
                    self.sc.setJobGroup(parent.id, parent.name)
                else:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
            if self.enabled:
                self.spans.append(s)

    def self_seconds(self, root: str | None = None) -> dict[str, float]:
        """Per span name: Σ (duration − time covered by child spans), over
        the subtree under span id ``root`` (default: every span)."""
        keep = None
        if root is not None:
            keep = {root}
            for s in self.spans[::-1]:  # children close, and are appended, before parents
                if s.parent in keep:
                    keep.add(s.id)
        child_time: dict[str, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        out: dict[str, float] = {}
        for s in self.spans:
            if keep is None or s.id in keep:
                out[s.name] = out.get(s.name, 0.0) + s.seconds - child_time.get(s.id, 0.0)
        return out

    def total(self, name: str) -> float:
        """Σ duration over spans called ``name``."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": s.id,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )
