"""In-memory spans for the traced run.

The traced run wraps each call into a layer's public functions in a
span: name, start, end and the index of the enclosing span. Spans stay
in memory and are written out once, when the run ends. Probe spans time
extra work the benchmark does only to measure (a second feasibility
build, nonzero counting); they are excluded from busy time and from the
traced phase.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List


class SpanRecorder:
    """Nested spans and named counts, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, probe]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, probe: bool = False) -> Iterator[list]:
        """Time the block; the yielded record's name may be reassigned."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, probe]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a named count."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``."""
        return [end - start for span_name, start, end, _, _ in self.spans
                if span_name == name]

    def busy(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        """Number of spans called ``name``."""
        return len(self.durations(name))

    def top_level_busy(self, since: float = 0.0) -> Dict[str, float]:
        """Busy seconds per name over the outermost non-probe spans that
        start at or after ``since`` (a ``perf_counter`` reading)."""
        totals: Dict[str, float] = {}
        for name, start, end, parent, probe in self.spans:
            if parent == -1 and not probe and start >= since:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def probe_seconds(self) -> float:
        """Summed duration of the outermost probe spans."""
        return sum(end - start for _, start, end, parent, probe in self.spans
                   if parent == -1 and probe)

    def write(self, path: Path) -> None:
        """Write the spans as JSON (times in seconds from the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [
                {
                    "name": name,
                    "start_s": start - origin,
                    "end_s": end - origin,
                    "parent": parent,
                    "probe": probe,
                }
                for name, start, end, parent, probe in self.spans
            ],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
