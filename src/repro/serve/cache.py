"""Checkpoint-keyed response cache with ETags and seen-before admission.

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

A body is stored only for a request the cache has seen before: the
first 200 render of a request leaves a bodiless marker, and a later
render stores the body. Most pages of a cold scan are asked for once,
and holding their bodies would only fill memory. A body found stale at
a lookup turns back into a marker, so a page read before an ingest
commit is stored on its first render after it. Markers and bodies share
one LRU map, capped at :data:`MAX_ENTRIES` keys; that cap is the memory
bound, and freshness is the checkpoint's job. Hits, misses, declined
stores and evictions land in the :mod:`repro.obs` registry under
``serve.cache.*``.

>>> cache = ResponseCache()
>>> cache.put("/stats", 7, b"{}", "application/json") is None  # first render
True
>>> cache.get("/stats", 7) is None   # a marker reads as a miss
True
>>> cache.put("/stats", 7, b"{}", "application/json").body    # seen before
b'{}'
>>> cache.get("/stats", 7) is not None
True
>>> cache.get("/stats", 8) is None   # checkpoint advanced: miss
True
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import NamedTuple, Optional, Tuple

from repro import obs

__all__ = ["MAX_ENTRIES", "CacheEntry", "ResponseCache", "etag_for",
           "etag_matches"]

#: Most keys the cache holds, markers and bodies alike.
MAX_ENTRIES = 1024


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
    """RFC 9110 weak comparison of an ``If-None-Match`` header with the
    ETag of a page that exists; ``*`` matches any such page."""
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


class ResponseCache:
    """LRU map of canonical request → rendered 200 response, or a marker.

    Thread-safe; every serving worker reads and writes it. Only
    successful, full-body responses are offered — errors and 304s are
    cheap to recompute and would only pollute the working set — and
    only a request seen before keeps its body.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # None is a marker: the request was rendered, its body not kept.
        self._entries: "OrderedDict[str, Optional[CacheEntry]]" = (
            OrderedDict()
        )
        self._bodies = 0

    def get(self, canonical: str, checkpoint: int) -> Optional[CacheEntry]:
        """The live entry for a request at ``checkpoint``, else ``None``.

        An entry stored under a different checkpoint is stale by
        definition: its body is dropped on sight and its marker stays.
        """
        with self._lock:
            entry = self._entries.get(canonical)
            if entry is None:
                obs.counter("serve.cache.miss")
                return None
            if entry.checkpoint != int(checkpoint):
                self._entries[canonical] = None
                self._bodies -= 1
                obs.counter("serve.cache.invalidated")
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
    ) -> Optional[CacheEntry]:
        """Offer a rendered 200 response; returns the entry if stored.

        The first offer of a request leaves a marker and stores nothing
        (``serve.cache.declined``); an offer for a request the cache
        holds a key for stores the body.
        """
        with self._lock:
            if canonical in self._entries:
                entry: Optional[CacheEntry] = CacheEntry(
                    body=body,
                    content_type=content_type,
                    etag=etag_for(canonical, checkpoint),
                    checkpoint=int(checkpoint),
                )
                if self._entries[canonical] is None:
                    self._bodies += 1
            else:
                entry = None
                obs.counter("serve.cache.declined")
            self._entries[canonical] = entry
            self._entries.move_to_end(canonical)
            while len(self._entries) > MAX_ENTRIES:
                _, evicted = self._entries.popitem(last=False)
                if evicted is not None:
                    self._bodies -= 1
                obs.counter("serve.cache.evicted")
            obs.gauge("serve.cache.entries", self._bodies)
        return entry

    def stats(self) -> Tuple[int, int]:
        """``(bodies held, MAX_ENTRIES)`` — for the index route."""
        with self._lock:
            return self._bodies, MAX_ENTRIES

    def clear(self) -> None:
        """Drop everything (tests)."""
        with self._lock:
            self._entries.clear()
            self._bodies = 0
