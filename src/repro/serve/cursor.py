"""Opaque keyset-pagination cursors for the serving tier.

A cursor names a position in an indexed walk (``rowid`` of the last row
the client saw) without exposing the implementation: the token is
base64url over a tiny JSON payload plus a CRC-32 integrity tag. The
tag is not a secret — it exists so a truncated, hand-edited or
version-skewed token is rejected as a clean ``400 bad cursor`` instead
of turning into a surprising SQL predicate or a 500. (A CRC catches
accidents, not forgery; a forged token can only name a position in a
public listing, which ``offset=`` reaches anyway.)

Keyset position beats ``OFFSET`` in two ways the serving tier needs:

* a page at any depth costs one indexed range scan, not a scan-and-skip
  of everything before it;
* a walk is stable under concurrent ingest — rows the walk has passed
  never shift underneath it, so no duplicates and no gaps (the ledger
  only appends; rows land in insertion order).

>>> token = encode_cursor("hotspots", 42)
>>> decode_cursor(token, "hotspots")
42
>>> decode_cursor(token[:-2] + "zz", "hotspots")
Traceback (most recent call last):
    ...
repro.serve.cursor.CursorError: bad cursor: integrity check failed
"""

from __future__ import annotations

import base64
import binascii
import json
import zlib

__all__ = ["MAX_POSITION", "CursorError", "decode_cursor", "encode_cursor"]

#: Version tag baked into every token; bump on layout changes so old
#: cursors fail closed as 400s instead of decoding to nonsense.
_VERSION = 2

#: Domain-separation prefix for the integrity tag (not a secret).
_TAG_KEY = b"repro.serve.cursor.v2:"

#: SQLite's largest integer: a position past it cannot be bound.
MAX_POSITION = 2**63 - 1


class CursorError(ValueError):
    """A cursor token that does not decode to a valid position."""


def _tag(payload: bytes) -> str:
    return f"{zlib.crc32(_TAG_KEY + payload):08x}"


def encode_cursor(kind: str, after: int) -> str:
    """An opaque resume token for the row position ``after``.

    ``kind`` namespaces the walk (e.g. ``"hotspots"``), so a token from
    one endpoint can never be replayed against another.
    """
    payload = json.dumps(
        {"v": _VERSION, "k": kind, "a": int(after)},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("ascii")
    raw = payload + b"." + _tag(payload).encode("ascii")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_cursor(token: str, kind: str) -> int:
    """The row position a token resumes from, in ``[0, MAX_POSITION]``.

    Raises:
        CursorError: on anything that is not a well-formed, untampered
            token of the right kind naming such a position — the HTTP
            layer maps this to 400.
    """
    if not token or len(token) > 256:
        raise CursorError("bad cursor: empty or oversized token")
    try:
        raw = base64.urlsafe_b64decode(token + "=" * (-len(token) % 4))
    except (binascii.Error, ValueError) as exc:
        raise CursorError(f"bad cursor: {exc}") from None
    payload, sep, tag = raw.rpartition(b".")
    if not sep or _tag(payload) != tag.decode("ascii", "replace"):
        raise CursorError("bad cursor: integrity check failed")
    try:
        fields = json.loads(payload)
    except ValueError:
        raise CursorError("bad cursor: undecodable payload") from None
    if not isinstance(fields, dict) or fields.get("v") != _VERSION:
        raise CursorError("bad cursor: unknown version")
    if fields.get("k") != kind:
        raise CursorError(
            f"bad cursor: token is for {fields.get('k')!r}, not {kind!r}"
        )
    after = fields.get("a")
    if (not isinstance(after, int) or isinstance(after, bool)
            or not 0 <= after <= MAX_POSITION):
        raise CursorError("bad cursor: invalid position")
    return after
