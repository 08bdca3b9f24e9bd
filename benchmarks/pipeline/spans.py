"""In-memory spans for the traced benchmark run, and the self-time report.

A span is one call the benchmark made into a layer: a name
(``<layer>.<call>``), a start and end on the system-wide monotonic
clock, and the id of the span that caused it. Spans stay in memory
and are written out once, as JSON lines, when the run ends. Child
processes record their own spans and hand them back in their result;
their root spans are parented under the span open when the result
arrives. ``time.monotonic`` reads ``CLOCK_MONOTONIC`` on Linux, so the
processes share one clock.

A disabled tracer records nothing, so the untraced run pays only for
one attribute check per span.

The report computes each span's *self time*: its duration minus the
part of its interval that its child spans cover (children may
overlap, as concurrent requests do, so the covered part is the union
of their intervals).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "read_spans", "self_times", "format_report"]


class Tracer:
    """Collects spans in memory; ``enabled=False`` makes it a no-op.

    ``prefix`` keeps span ids unique when child processes' spans are
    merged into the parent's list.
    """

    def __init__(self, enabled: bool, prefix: str = "p") -> None:
        self.enabled = enabled
        self.prefix = prefix
        self.spans: List[Dict] = []
        self._stack: List[str] = []
        self._next = 0

    def _new_id(self) -> str:
        self._next += 1
        return f"{self.prefix}{self._next}"

    @property
    def current(self) -> Optional[str]:
        """Id of the innermost open span (the parent of the next one)."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[str]]:
        """Record the enclosed block as one span."""
        if not self.enabled:
            yield None
            return
        span_id = self._new_id()
        parent = self.current
        self._stack.append(span_id)
        start = time.monotonic()
        try:
            yield span_id
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "attrs": attrs,
            })

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        **attrs,
    ) -> Optional[str]:
        """Record a span whose interval was measured elsewhere."""
        if not self.enabled:
            return None
        span_id = self._new_id()
        self.spans.append({
            "id": span_id, "parent": parent if parent else self.current,
            "name": name, "start": start, "end": end, "attrs": attrs,
        })
        return span_id

    def extend(self, spans: List[Dict], parent: Optional[str] = None) -> None:
        """Merge spans a child process recorded; its root spans are
        parented under ``parent``."""
        if not self.enabled:
            return
        ids = {span["id"] for span in spans}
        for span in spans:
            if span["parent"] not in ids:
                span["parent"] = parent
        self.spans.extend(spans)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a version recorded as a span.

        Used to time a layer's public function when another layer calls
        it (``get_result`` calling ``SimulationEngine.run``), without
        touching the program's code.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)

    def write(self, path, header: Dict) -> None:
        """Write a header line and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path) -> Tuple[Dict, List[Dict]]:
    """``(header, spans)`` from a file :meth:`Tracer.write` produced."""
    header: Dict = {}
    spans: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if "header" in record:
                header = record["header"]
            else:
                spans.append(record)
    return header, spans


def _covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent"):
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children.get(span["id"], []), span["start"], span["end"])
        for span in spans
    }


def format_report(spans: List[Dict]) -> str:
    """Per-layer and per-call self time, heaviest first."""
    own = self_times(spans)
    by_layer: Dict[str, float] = defaultdict(float)
    by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        name = span["name"]
        by_layer[name.split(".", 1)[0]] += own[span["id"]]
        row = by_name[name]
        row[0] += 1
        row[1] += span["end"] - span["start"]
        row[2] += own[span["id"]]
    total = sum(by_layer.values()) or 1.0
    lines = [f"{'layer':<14} {'self s':>10} {'share':>7}"]
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<14} {seconds:>10.4f} {seconds / total:>7.1%}")
    lines.append("")
    lines.append(f"{'span':<44} {'count':>7} {'total s':>10} {'self s':>10}")
    ranked = sorted(by_name.items(), key=lambda kv: -kv[1][2])
    for name, (count, duration, self_s) in ranked:
        lines.append(f"{name:<44} {count:>7} {duration:>10.4f} {self_s:>10.4f}")
    return "\n".join(lines)
