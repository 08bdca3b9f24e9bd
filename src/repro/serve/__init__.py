"""repro.serve — the HTTP tier over the ETL replica.

Layers a traffic-worthy HTTP explorer API on :mod:`repro.etl`:

* :mod:`repro.serve.server` — a bounded-queue server that starts
  workers on demand and leases each request a read-only WAL
  connection; sheds with 503 + ``Retry-After`` at saturation and
  drains gracefully on SIGTERM.
* :mod:`repro.serve.cache` — ETag response caching keyed on the
  ingest checkpoint, storing a body only for a request seen before, so
  cached bodies are never stale relative to the replica and
  ``If-None-Match`` revalidations collapse to 304s.
* :mod:`repro.serve.cursor` — opaque keyset-pagination tokens for the
  list endpoints (``next_cursor``), stable under concurrent ingest.
* :mod:`repro.serve.loadgen` — a zipf/bursty synthetic traffic
  generator (one selectors loop, thousands of simulated clients) behind
  ``python -m repro.serve load`` and the pipeline benchmark's explore
  workloads.

CLI: ``python -m repro.serve serve|load`` (see :mod:`repro.serve.cli`).
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.serve.cache": ["CacheEntry", "ResponseCache", "etag_for"],
    "repro.serve.cursor": ["CursorError", "decode_cursor", "encode_cursor"],
    "repro.serve.loadgen": ["LoadReport", "run_load"],
    "repro.serve.server": ["ServeServer", "create_server", "serve"],
})
