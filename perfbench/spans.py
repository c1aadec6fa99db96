"""In-memory span recorder for the traced benchmark run.

A span is one timed call into a package layer: id, name, start, end, parent
span id (-1 for a root) and run id (one run id per benchmark operation, such
as ``r1:center:tri-0``).  Spans stay in memory and are written once, when the
run ends, so recording costs two clock reads and a list append per call.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterator

# Field positions in a span record.
NAME, START, END, PARENT, RUN = range(5)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # span id == index
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run: str | None = None) -> Iterator[int]:
        """Time the enclosed block; ``run`` is required on root spans only."""
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        if run is None:
            run = self.spans[parent][RUN]
        rec = [name, 0.0, 0.0, parent, run]
        self.spans.append(rec)
        self._open.append(sid)
        rec[START] = time.perf_counter()
        try:
            yield sid
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def self_seconds(self, first: int = 0) -> dict[str, float]:
        """Self time summed by span name over spans ``first..``.

        A span's self time is its duration minus its children's durations
        (calls are sequential, so children never overlap).
        """
        own = {}
        for sid in range(first, len(self.spans)):
            s = self.spans[sid]
            own[sid] = s[END] - s[START]
        for sid in range(first, len(self.spans)):
            parent = self.spans[sid][PARENT]
            if parent in own:
                own[parent] -= self.spans[sid][END] - self.spans[sid][START]
        out: dict[str, float] = {}
        for sid, sec in own.items():
            name = self.spans[sid][NAME]
            out[name] = out.get(name, 0.0) + sec
        return out

    def child_seconds(self, root_name: str, first: int = 0) -> float:
        """Summed duration of the direct children of every ``root_name`` span."""
        roots = {
            sid
            for sid in range(first, len(self.spans))
            if self.spans[sid][NAME] == root_name
        }
        return sum(
            s[END] - s[START]
            for s in self.spans[first:]
            if s[PARENT] in roots
        )

    def root_seconds(self, first: int = 0) -> float:
        """Summed duration of the root spans ``first..``."""
        return sum(s[END] - s[START] for s in self.spans[first:] if s[PARENT] == -1)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )


def per_span_cost(samples: int = 2000) -> float:
    """Seconds one empty root span costs, from a calibration loop."""
    rec = SpanRecorder()
    t0 = time.perf_counter()
    for _ in range(samples):
        with rec.span("calibrate", run="calibrate"):
            pass
    return (time.perf_counter() - t0) / samples
