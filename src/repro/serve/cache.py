"""Checkpoint-keyed response cache with ETags and a TTL bound.

The cache exploits the one freshness fact the ETL tier makes cheap to
check: a response can only change when ingest advances the store's
``checkpoint_height``. Every entry is therefore keyed on
``(canonical request, checkpoint)`` and the ETag embeds the checkpoint,
which yields exact invalidation:

* while the checkpoint stands still, repeats are served from memory and
  ``If-None-Match`` revalidations collapse to an empty ``304``;
* the moment ingest commits a new checkpoint, every cached entry and
  every ETag in the wild stops validating — no stale body can ever be
  served, and no explicit invalidation hook is needed.

The TTL is a memory bound, not a freshness mechanism (freshness is the
checkpoint's job): entries idle longer than ``ttl_s`` are dropped, and
an LRU cap bounds the entry count. Hits, misses and evictions land in
the :mod:`repro.obs` registry under ``serve.cache.*``.

>>> cache = ResponseCache(max_entries=2, ttl_s=60.0)
>>> entry = cache.put("/stats", 7, b"{}", "application/json")
>>> cache.get("/stats", 7) is not None
True
>>> cache.get("/stats", 8) is None   # checkpoint advanced: miss
True
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from time import monotonic
from typing import NamedTuple, Optional, Tuple

from repro import obs

__all__ = ["CacheEntry", "ResponseCache", "etag_for", "etag_matches"]


def etag_for(canonical: str, checkpoint: int) -> str:
    """The ETag for a canonical request at an ingest checkpoint.

    Weak by designation (``W/``): two bodies rendered at the same
    checkpoint are semantically identical even if a serializer changed
    byte order. The checkpoint rides in the tag, so advancing ingest
    invalidates every outstanding ETag at once — a conditional request
    after ingest always revalidates to a fresh body. The suffix is the
    CRC-32 of the canonical request: a tag is only ever compared with
    the tag of the same request, so it needs no cryptographic strength.

    >>> etag_for("/stats", 7)
    'W/"ck7-d65d86f7"'
    """
    crc = zlib.crc32(canonical.encode("utf-8"))
    return f'W/"ck{int(checkpoint)}-{crc:08x}"'


def etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """RFC 7232 weak comparison of an ``If-None-Match`` header."""
    if not if_none_match:
        return False
    candidates = [value.strip() for value in if_none_match.split(",")]
    if "*" in candidates:
        return True
    normalized = {value[2:] if value.startswith("W/") else value
                  for value in candidates}
    bare = etag[2:] if etag.startswith("W/") else etag
    return bare in normalized


class CacheEntry(NamedTuple):
    """One cached response body and the metadata to serve it."""

    body: bytes
    content_type: str
    etag: str
    checkpoint: int
    stored_at: float


class ResponseCache:
    """LRU map of canonical request → rendered 200 response.

    Thread-safe; every serving worker reads and writes it. Only
    successful, full-body responses are cached — errors and 304s are
    cheap to recompute and would only pollute the working set.
    """

    def __init__(self, max_entries: int = 1024, ttl_s: float = 30.0) -> None:
        self.max_entries = int(max_entries)
        self.ttl_s = float(ttl_s)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    def get(
        self, canonical: str, checkpoint: int, now: Optional[float] = None
    ) -> Optional[CacheEntry]:
        """The live entry for a request at ``checkpoint``, else ``None``.

        An entry stored under a different checkpoint is stale by
        definition and dropped on sight; an entry idle past the TTL is
        dropped to bound memory.
        """
        now = monotonic() if now is None else now
        with self._lock:
            entry = self._entries.get(canonical)
            if entry is None:
                obs.counter("serve.cache.miss")
                return None
            if entry.checkpoint != int(checkpoint):
                del self._entries[canonical]
                obs.counter("serve.cache.invalidated")
                obs.counter("serve.cache.miss")
                return None
            if now - entry.stored_at > self.ttl_s:
                del self._entries[canonical]
                obs.counter("serve.cache.expired")
                obs.counter("serve.cache.miss")
                return None
            self._entries.move_to_end(canonical)
            obs.counter("serve.cache.hit")
            return entry

    def put(
        self,
        canonical: str,
        checkpoint: int,
        body: bytes,
        content_type: str,
        now: Optional[float] = None,
    ) -> CacheEntry:
        """Store a rendered 200 response; returns the entry."""
        now = monotonic() if now is None else now
        entry = CacheEntry(
            body=body,
            content_type=content_type,
            etag=etag_for(canonical, checkpoint),
            checkpoint=int(checkpoint),
            stored_at=now,
        )
        with self._lock:
            self._entries[canonical] = entry
            self._entries.move_to_end(canonical)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                obs.counter("serve.cache.evicted")
            obs.gauge("serve.cache.entries", len(self._entries))
        return entry

    def stats(self) -> Tuple[int, int]:
        """``(entries, max_entries)`` — for the index route."""
        with self._lock:
            return len(self._entries), self.max_entries

    def clear(self) -> None:
        """Drop everything (tests)."""
        with self._lock:
            self._entries.clear()
