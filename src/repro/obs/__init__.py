"""repro.obs — structured observability for every hot layer (stdlib only).

Two cooperating pieces:

* :mod:`repro.obs.registry` — a process-wide registry of counters,
  gauges and timing histograms (``obs.counter``, ``obs.gauge``,
  ``obs.timer`` context manager/decorator), with JSON snapshot and
  Prometheus text export. Served live by the explorer API's
  ``GET /metrics`` route.
* :mod:`repro.obs.trace` — a JSON-lines event log with a per-run trace
  id shared across processes (``--trace <path>`` on the CLIs, or the
  ``REPRO_TRACE`` environment variable; worker processes auto-join via
  the environment).

Everything is always-on but cheap: metrics cost a lock plus dict ops,
trace events are no-ops until a sink is configured. ``REPRO_OBS=off``
disables metric recording entirely — the overhead check in
``tests/test_budgets.py`` measures the difference and holds it under
its bound (DESIGN.md §9).

Typical use::

    from repro import obs

    obs.counter("cache.disk_hit")
    with obs.timer("cache.build_s") as timing:
        result = build()
    obs.trace_event("cache.build", wall_s=timing.elapsed)
"""

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    REGISTRY,
    MetricsRegistry,
    Timer,
    counter,
    enabled,
    gauge,
    observe,
    peak_rss_bytes,
    reset,
    set_enabled,
    snapshot,
    timer,
    to_prometheus,
)
from repro.obs.trace import (
    ENV_TRACE,
    ENV_TRACE_ID,
    TraceWriter,
    close_trace,
    configure_trace,
    trace_event,
    trace_id,
    tracing,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "ENV_TRACE",
    "ENV_TRACE_ID",
    "MetricsRegistry",
    "REGISTRY",
    "Timer",
    "TraceWriter",
    "close_trace",
    "configure_trace",
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
    "trace_event",
    "trace_id",
    "tracing",
]
