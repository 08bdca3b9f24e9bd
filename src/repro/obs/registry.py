"""Process-wide metrics registry: counters, gauges, timing histograms.

One :class:`MetricsRegistry` instance (:data:`REGISTRY`) lives per
process; the module-level helpers (:func:`counter`, :func:`gauge`,
:func:`observe`, :func:`timer`) delegate to it. Metrics are named with
dotted lowercase paths (``cache.disk_hit``, ``http.latency_s``) plus
optional labels, and every mutation is guarded by one lock, so any
thread — engine, HTTP request handlers, pool bookkeeping — can record
without coordination. Worker *processes* each get their own registry
(module globals are per-process under every start method, including
``spawn``); cross-process aggregation happens through the shared trace
file (:mod:`repro.obs.trace`), never through shared memory.

Timing histograms keep count / sum / min / max plus fixed exponential
buckets, which is what the Prometheus text export needs and costs a few
dict operations per observation — cheap enough to leave on in the hot
paths (the ``REPRO_OBS=off`` switch exists for measuring that claim,
see ``tests/test_budgets.py``).

>>> registry = MetricsRegistry()
>>> registry.counter("demo.events")
1
>>> registry.counter("demo.events", 2, kind="warm")
2
>>> with registry.timer("demo.step_s"):
...     _ = sum(range(100))
>>> snap = registry.snapshot()
>>> snap["counters"]["demo.events"]
1
>>> snap["counters"]['demo.events{kind=warm}']
2
>>> snap["timers"]["demo.step_s"]["count"]
1
>>> "repro_demo_events_total 1" in registry.to_prometheus()
True
"""

from __future__ import annotations

import functools
import math
import os
import re
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "REGISTRY",
    "MetricsRegistry",
    "Timer",
    "counter",
    "enabled",
    "gauge",
    "observe",
    "peak_rss_bytes",
    "reset",
    "set_enabled",
    "snapshot",
    "timer",
    "to_prometheus",
]

#: Histogram bucket upper bounds, seconds. Exponential from 100 µs to
#: 10 min — spans a fast SQL page query up to a paper-scale cold build.
DEFAULT_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0, 600.0)

_LabelKey = Tuple[Tuple[str, str], ...]
_MetricKey = Tuple[str, _LabelKey]

_OFF_VALUES = {"0", "off", "none", "false"}


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _flat_name(key: _MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class _Histogram:
    """Count / sum / min / max plus cumulative exponential buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets = [0] * len(DEFAULT_BUCKETS)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                self.buckets[index] += 1
                break

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": round(self.min, 6) if self.count else 0.0,
            "max": round(self.max, 6),
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
        }


class Timer:
    """Times a block (context manager) or a function (decorator).

    On exit the elapsed seconds land in the registry's histogram under
    the timer's name; the measured value is also left on ``.elapsed``
    for callers that want to forward it into a trace event.
    """

    def __init__(
        self, registry: "MetricsRegistry", name: str, labels: Dict[str, Any]
    ) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = perf_counter() - self._started
        self._registry.observe(self._name, self.elapsed, **self._labels)

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._registry.timer(self._name, **self._labels):
                return fn(*args, **kwargs)

        return wrapper


class MetricsRegistry:
    """Thread-safe store of counters, gauges and timing histograms."""

    def __init__(self, enabled: bool = True) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_MetricKey, int] = {}
        self._gauges: Dict[_MetricKey, float] = {}
        self._histograms: Dict[_MetricKey, _Histogram] = {}
        self.enabled = enabled

    # -- recording ---------------------------------------------------------

    def counter(self, name: str, delta: int = 1, **labels: Any) -> int:
        """Add ``delta`` to a counter; returns the new value."""
        if not self.enabled:
            return 0
        key = (name, _label_key(labels))
        with self._lock:
            value = self._counters.get(key, 0) + delta
            self._counters[key] = value
        return value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge to its latest value (last write wins)."""
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, seconds: float, **labels: Any) -> None:
        """Record one duration into the named timing histogram."""
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _Histogram()
            histogram.observe(seconds)

    def timer(self, name: str, **labels: Any) -> Timer:
        """A :class:`Timer` bound to this registry (``with`` or ``@``)."""
        return Timer(self, name, labels)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """All metrics as one JSON-ready dict (labels folded into keys)."""
        with self._lock:
            return {
                "counters": {
                    _flat_name(k): v for k, v in sorted(self._counters.items())
                },
                "gauges": {
                    _flat_name(k): v for k, v in sorted(self._gauges.items())
                },
                "timers": {
                    _flat_name(k): h.summary()
                    for k, h in sorted(self._histograms.items())
                },
            }

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        lines: List[str] = []
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                key: (hist.count, hist.total, list(hist.buckets))
                for key, hist in self._histograms.items()
            }
        seen_types: set = set()

        def emit(kind: str, prom: str, label_pairs, value) -> None:
            if prom not in seen_types:
                lines.append(f"# TYPE {prom} {kind}")
                seen_types.add(prom)
            label_text = (
                "{" + ",".join(f'{k}="{v}"' for k, v in label_pairs) + "}"
                if label_pairs
                else ""
            )
            lines.append(f"{prom}{label_text} {_format_value(value)}")

        for (name, labels), value in sorted(counters.items()):
            emit("counter", _prom_name(name) + "_total", labels, value)
        for (name, labels), value in sorted(gauges.items()):
            emit("gauge", _prom_name(name), labels, value)
        for (name, labels), (count, total, buckets) in sorted(
            histograms.items()
        ):
            prom = _prom_name(name)
            if prom not in seen_types:
                lines.append(f"# TYPE {prom} histogram")
                seen_types.add(prom)
            label_text = ",".join(f'{k}="{v}"' for k, v in labels)
            prefix = label_text + "," if label_text else ""
            cumulative = 0
            for bound, bucket_count in zip(DEFAULT_BUCKETS, buckets):
                cumulative += bucket_count
                lines.append(
                    f'{prom}_bucket{{{prefix}le="{bound:g}"}} {cumulative}'
                )
            lines.append(f'{prom}_bucket{{{prefix}le="+Inf"}} {count}')
            suffix = "{" + label_text + "}" if label_text else ""
            lines.append(f"{prom}_sum{suffix} {_format_value(total)}")
            lines.append(f"{prom}_count{suffix} {count}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Drop every metric (tests and fresh CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def _prom_name(name: str) -> str:
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:g}"


#: The process-wide registry every instrumented layer records into.
REGISTRY = MetricsRegistry(
    enabled=os.environ.get("REPRO_OBS", "").strip().lower() not in _OFF_VALUES
)


def counter(name: str, delta: int = 1, **labels: Any) -> int:
    """Increment a counter on the process registry."""
    return REGISTRY.counter(name, delta, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge on the process registry."""
    REGISTRY.gauge(name, value, **labels)


def observe(name: str, seconds: float, **labels: Any) -> None:
    """Record a duration on the process registry."""
    REGISTRY.observe(name, seconds, **labels)


def timer(name: str, **labels: Any) -> Timer:
    """A timer recording into the process registry."""
    return REGISTRY.timer(name, **labels)


def snapshot() -> Dict[str, Dict]:
    """Snapshot the process registry."""
    return REGISTRY.snapshot()


def to_prometheus() -> str:
    """The process registry in Prometheus text format."""
    return REGISTRY.to_prometheus()


def reset() -> None:
    """Clear the process registry."""
    REGISTRY.reset()


def set_enabled(flag: bool) -> None:
    """Turn metric recording on or off process-wide."""
    REGISTRY.enabled = bool(flag)


def enabled() -> bool:
    """Whether the process registry is recording."""
    return REGISTRY.enabled


def _proc_vm_hwm_bytes() -> int:
    """``VmHWM`` from ``/proc/self/status``, in bytes (0 elsewhere).

    Preferred over ``ru_maxrss`` where available: on Linux the rusage
    high-water mark lives in the ``signal_struct``, which *survives
    execve* — a freshly exec'd subprocess inherits its forking parent's
    peak as a floor, so subprocess-isolated measurements (the scale
    benches) would read the launcher's peak, not their own. ``VmHWM``
    is reset on exec and tracks only this image's resident set.
    """
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _self_peak_bytes() -> int:
    """This process's own peak RSS, in bytes (0 without POSIX
    ``resource``); prefers ``VmHWM`` (see :func:`_proc_vm_hwm_bytes`)
    over ``ru_maxrss``."""
    hwm = _proc_vm_hwm_bytes()
    if hwm:
        return hwm
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    import sys

    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit


def peak_rss_bytes(children: bool = False) -> int:
    """High-water-mark resident set size of this process, in bytes.

    Reads ``VmHWM`` where ``/proc`` exists (exec-accurate), else
    ``getrusage`` — ``ru_maxrss`` is kilobytes on Linux, bytes on
    macOS — and records the value as the ``process.peak_rss_bytes``
    gauge as a side effect, so any snapshot/Prometheus export taken
    afterwards carries it. With ``children=True`` the maximum over
    reaped child processes (``RUSAGE_CHILDREN``) is folded in, which
    covers farm workers once the farm's pool has closed. Returns 0 on
    platforms without ``resource`` (Windows).
    """
    peak = _self_peak_bytes()
    if not peak:
        return 0
    if children:
        try:
            import resource
            import sys

            unit = 1 if sys.platform == "darwin" else 1024
            reaped = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                * unit
            )
        except ImportError:  # pragma: no cover - non-POSIX
            reaped = 0
        peak = max(peak, reaped)
    gauge("process.peak_rss_bytes", float(peak))
    return int(peak)
