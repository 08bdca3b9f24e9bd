"""Append-to-disk chain log: framed, digest-chained block records.

The resident-object chain (:class:`~repro.chain.blockchain.Blockchain`
holding every :class:`~repro.chain.block.Block` as live Python objects)
dominates RSS at scale: receipts, witnesses and per-day reward shares
are small dataclasses, but two simulated years of them add up to
gigabytes at the 100× tier. Real DePIN measurement pipelines never hold
the chain resident — the DeWi ETL the paper relies on treats the chain
as an append-only on-disk log that analyses *tail*. This module is that
representation for the simulated chain:

* **Frames.** The log is a magic header followed by one frame per
  block: a fixed 20-byte frame header (little-endian ``u32`` payload
  length, ``u64`` block height, 8-byte chained digest) and the payload.
  The payload is byte-for-byte the JSONL line
  :func:`repro.chain.serialize.dump_chain` writes for that block —
  including the trailing newline — so dumping a log-backed chain is a
  straight byte copy and every pinned digest is unchanged *by
  construction*, not by re-serialization luck.
* **Digest chain.** Frame *i* carries
  ``sha256(digest8(i-1) + payload_i)[:8]``, seeded from the file magic.
  A reader that walks the chain verifies every frame's link; any
  corruption (or a frame spliced in from another run) breaks the chain
  at the exact frame.
* **Torn tails.** A crash mid-append leaves a partial final frame.
  :func:`scan_frames`, the one reader of chain-log files, detects it —
  a header that does not fit, a payload shorter than its declared
  length, a frame crossing the recorded extent, or a digest-chain
  break — and raises :class:`ChainLogError`, so a torn tail is never
  silently skipped. A writer continuing a file cuts what a killed
  append left past the recorded extent
  (:func:`repro.chain.serialize.write_chain_log`).
* **Random access.** Frames are indexed in memory by two compact
  arrays, offsets (``u64``) and payload lengths (``u32``, the header's
  width); :meth:`payload` is one ``os.pread``, so lazily materialising
  block *i* never touches the rest of the file.

A run's :class:`ChainLog` is backed by an anonymous unlinked temporary
file: the descriptor keeps the bytes alive for the run and the kernel
reclaims them when the process exits, crash included. A finished run
loaded from disk needs no copy, since nothing appends to it:
:meth:`ChainLog.reader` is a read-only log over the saved file itself,
indexed by the scan that verified it
(:func:`repro.chain.serialize.open_chain_log`).
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from array import array
from typing import IO, Iterator, Optional, Tuple

from repro.errors import ChainError

__all__ = [
    "CHAINLOG_MAGIC",
    "ChainLog",
    "ChainLogError",
    "encode_frame",
    "seed_digest",
    "split_frame",
]

#: File magic: identifies a framed chain log and versions the layout.
CHAINLOG_MAGIC = b"RPCHLOG1"

_FRAME_HEADER = struct.Struct("<IQ8s")
FRAME_HEADER_SIZE = _FRAME_HEADER.size  # 20 bytes

#: Materialised-block LRU size used by log-backed block sequences.
#: Small on purpose: the working set of a day-loop consumer is the tip,
#: and analyses stream forward, so a handful of slots absorbs the
#: re-read patterns that matter without re-growing the object graph.
BLOCK_CACHE_SLOTS = 64


class ChainLogError(ChainError):
    """A structurally invalid, corrupt, or torn chain log."""


def seed_digest() -> bytes:
    """The digest-chain seed (the link "before" the first frame)."""
    return hashlib.sha256(CHAINLOG_MAGIC).digest()[:8]


def encode_frame(
    height: int, payload: bytes, prev_digest: bytes
) -> Tuple[bytes, bytes]:
    """Encode one frame; returns ``(frame_bytes, digest8)``.

    ``digest8`` chains over ``prev_digest`` and the payload, so two
    logs holding the same block prefix are byte-identical.
    """
    digest = hashlib.sha256(prev_digest + payload).digest()[:8]
    header = _FRAME_HEADER.pack(len(payload), height, digest)
    return header + payload, digest


def split_frame(frame: bytes) -> Tuple[int, bytes, bytes]:
    """``(height, payload, digest8)`` of one frame's bytes."""
    _, height, digest = _FRAME_HEADER.unpack_from(frame)
    return height, frame[FRAME_HEADER_SIZE:], digest


class ChainLog:
    """One append-only framed record log plus its in-memory frame index.

    Appends go through :meth:`append` (payload serialization) or
    :meth:`append_frame` (verified raw bytes, used when seeding a run
    log from a chain-log file); reads are positional and stateless.
    :meth:`reader` makes a read-only log over an existing chain-log
    file instead, whose frames its verifying scan indexes
    (:meth:`index_frame`).
    """

    def __init__(self) -> None:
        fd, tmp_path = tempfile.mkstemp(prefix="repro-chainlog-")
        os.unlink(tmp_path)  # anonymous: vanishes with the fd
        os.write(fd, CHAINLOG_MAGIC)
        self._open(fd, writable=True)

    @classmethod
    def reader(cls, fd: int) -> "ChainLog":
        """A read-only log over the chain-log file open at ``fd``, which
        it takes over (and closes). It holds no frame until the caller's
        scan indexes them, in file order, with :meth:`index_frame`."""
        log = cls.__new__(cls)
        log._open(fd, writable=False)
        return log

    def _open(self, fd: int, writable: bool) -> None:
        self._fd = fd
        self.writable = writable
        self.size = len(CHAINLOG_MAGIC)
        self.tail_digest = seed_digest()
        self._offsets = array("Q")
        self._lengths = array("I")

    # -- append ------------------------------------------------------------

    def append(self, height: int, payload: bytes) -> None:
        """Append one block's payload as the next frame."""
        frame, digest = encode_frame(height, payload, self.tail_digest)
        self.append_frame(frame, digest)

    def append_frame(self, frame: bytes, digest: bytes) -> None:
        """Append pre-encoded frame bytes whose chain digest the caller
        has already verified (a resumed run seeds its own log this way
        from the checkpoint's verified frames)."""
        if not self.writable:
            raise ChainLogError("cannot append to a read-only chain log")
        os.write(self._fd, frame)
        self.index_frame(len(frame), digest)

    def index_frame(self, frame_size: int, digest: bytes) -> None:
        """Index the ``frame_size``-byte frame that follows the last
        indexed one in the file; ``digest`` is its chain digest."""
        self._offsets.append(self.size)
        self._lengths.append(frame_size - FRAME_HEADER_SIZE)
        self.size += frame_size
        self.tail_digest = digest

    # -- read --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._offsets)

    def payload(self, index: int) -> bytes:
        """The payload bytes of frame ``index`` (one positional read)."""
        offset = self._offsets[index]
        length = self._lengths[index]
        data = os.pread(
            self._fd, FRAME_HEADER_SIZE + length, offset
        )
        if len(data) != FRAME_HEADER_SIZE + length:
            raise ChainLogError(
                f"short read at frame {index} (offset {offset})"
            )
        return data[FRAME_HEADER_SIZE:]

    def frame_bytes(self, index: int) -> bytes:
        """Raw frame bytes (header + payload) of frame ``index``."""
        offset = self._offsets[index]
        length = FRAME_HEADER_SIZE + self._lengths[index]
        data = os.pread(self._fd, length, offset)
        if len(data) != length:
            raise ChainLogError(
                f"short read at frame {index} (offset {offset})"
            )
        return data

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except OSError:
            pass


def scan_frames(
    handle: IO[bytes], limit_bytes: Optional[int] = None
) -> Iterator[Tuple[bytes, int, bytes, bytes]]:
    """Stream-verify frames from ``handle`` (positioned at the magic).

    Yields ``(frame_bytes, height, payload, digest8)`` per frame,
    verifying the digest chain as it goes; consumes exactly
    ``limit_bytes`` when given (checkpoint metas record the extent —
    a hardlinked file may have grown past it). Raises
    :class:`ChainLogError` on a bad magic, a torn frame inside the
    limit, or a digest-chain break.
    """
    magic = handle.read(len(CHAINLOG_MAGIC))
    if magic != CHAINLOG_MAGIC:
        raise ChainLogError("not a chain log (bad magic)")
    consumed = len(CHAINLOG_MAGIC)
    tail = seed_digest()
    while True:
        if limit_bytes is not None and consumed >= limit_bytes:
            break
        header = handle.read(FRAME_HEADER_SIZE)
        if not header and limit_bytes is None:
            break
        if len(header) < FRAME_HEADER_SIZE:
            raise ChainLogError(
                f"torn frame header at offset {consumed}"
            )
        length, height, digest = _FRAME_HEADER.unpack(header)
        if limit_bytes is not None and (
            consumed + FRAME_HEADER_SIZE + length > limit_bytes
        ):
            raise ChainLogError(
                f"frame at offset {consumed} crosses the recorded "
                f"extent ({limit_bytes} bytes)"
            )
        payload = handle.read(length)
        if len(payload) < length:
            raise ChainLogError(f"torn frame payload at offset {consumed}")
        expected = hashlib.sha256(tail + payload).digest()[:8]
        if digest != expected:
            raise ChainLogError(
                f"digest chain broken at offset {consumed}"
            )
        yield header + payload, height, payload, digest
        tail = digest
        consumed += FRAME_HEADER_SIZE + length
