"""JSON-lines event trace shared by every process of one run.

A trace is one append-only file of single-line JSON events. Every event
carries the wall-clock timestamp, the emitting process id, the run's
``trace`` id and a dotted ``kind`` (``engine.run``, ``cache.build``,
``worker.task``, ``http.request``, …); everything else is free-form
per-kind fields. Lines are written on an ``O_APPEND`` descriptor and
drained to completion under the writer lock (a single ``os.write`` may
return short for a large event or when interrupted by a signal), so
concurrent writers — the farm's worker processes, the HTTP server's
request threads — interleave at line granularity and the file stays
parseable.

Activation is lazy and environment-driven: :func:`configure_trace`
opens the file *and* exports ``REPRO_TRACE`` / ``REPRO_TRACE_ID``, so
any child process (``fork`` or ``spawn`` — both inherit the
environment) auto-joins the same trace on its first
:func:`trace_event`. Without a configured path and without the
environment variable, :func:`trace_event` is a cheap no-op, which keeps
instrumented hot paths free to call it unconditionally.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Optional, Union

__all__ = [
    "ENV_TRACE",
    "ENV_TRACE_ID",
    "TraceWriter",
    "close_trace",
    "configure_trace",
    "trace_event",
    "trace_id",
    "tracing",
]

ENV_TRACE = "REPRO_TRACE"
ENV_TRACE_ID = "REPRO_TRACE_ID"


class TraceWriter:
    """Appends JSON-lines events to one trace file."""

    def __init__(
        self, path: Union[str, Path], trace_id: Optional[str] = None
    ) -> None:
        self.path = str(path)
        # 16 random hex digits; os.urandom keeps uuid (and the platform
        # module it imports) out of every process.
        self.trace_id = trace_id or os.urandom(8).hex()
        parent = Path(self.path).resolve().parent
        parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._lock = threading.Lock()

    def event(self, kind: str, **fields: Any) -> None:
        """Write one event line (thread-safe, drained to completion).

        ``os.write`` may consume only part of the buffer — oversized
        events past the pipe/filesystem chunk limit, or a syscall
        interrupted by a signal on pre-3.10 Pythons. A partial line on
        the shared ``O_APPEND`` stream would corrupt the JSON-lines
        framing for every reader, so the buffer is drained in a loop
        under the lock (holding it keeps the tail contiguous with its
        head even with other threads writing).
        """
        record = {
            "ts": round(time.time(), 6),
            "trace": self.trace_id,
            "pid": os.getpid(),
            "kind": kind,
        }
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        view = memoryview(line.encode("utf-8"))
        with self._lock:
            while view:
                try:
                    written = os.write(self._fd, view)
                except InterruptedError:
                    continue
                view = view[written:]

    def close(self) -> None:
        os.close(self._fd)


_WRITER: Optional[TraceWriter] = None
_ENV_CHECKED = False
_STATE_LOCK = threading.Lock()


def configure_trace(
    path: Union[str, Path],
    trace_id: Optional[str] = None,
    export_env: bool = True,
) -> TraceWriter:
    """Start tracing this process into ``path``.

    With ``export_env`` (the default) the path and trace id are also
    exported as ``REPRO_TRACE`` / ``REPRO_TRACE_ID`` so worker processes
    spawned later join the same trace file and id.
    """
    global _WRITER, _ENV_CHECKED
    with _STATE_LOCK:
        if _WRITER is not None:
            _WRITER.close()
        _WRITER = TraceWriter(path, trace_id=trace_id)
        _ENV_CHECKED = True
        if export_env:
            os.environ[ENV_TRACE] = _WRITER.path
            os.environ[ENV_TRACE_ID] = _WRITER.trace_id
        return _WRITER


def _active_writer() -> Optional[TraceWriter]:
    global _WRITER, _ENV_CHECKED
    if _WRITER is not None or _ENV_CHECKED:
        return _WRITER
    with _STATE_LOCK:
        if _WRITER is None and not _ENV_CHECKED:
            _ENV_CHECKED = True
            path = os.environ.get(ENV_TRACE)
            if path and path.strip().lower() not in {"0", "off", "none"}:
                try:
                    _WRITER = TraceWriter(
                        path, trace_id=os.environ.get(ENV_TRACE_ID)
                    )
                except OSError:
                    _WRITER = None  # unwritable path: stay silent
        return _WRITER


def trace_event(kind: str, **fields: Any) -> None:
    """Emit one event if tracing is active; no-op otherwise."""
    writer = _active_writer()
    if writer is not None:
        writer.event(kind, **fields)


def tracing() -> bool:
    """Whether this process currently writes trace events."""
    return _active_writer() is not None


def trace_id() -> Optional[str]:
    """The active trace id, or ``None`` when not tracing."""
    writer = _active_writer()
    return None if writer is None else writer.trace_id


def close_trace(clear_env: bool = False) -> None:
    """Stop tracing (tests; also re-arms the lazy env check)."""
    global _WRITER, _ENV_CHECKED
    with _STATE_LOCK:
        if _WRITER is not None:
            _WRITER.close()
        _WRITER = None
        _ENV_CHECKED = False
        if clear_env:
            os.environ.pop(ENV_TRACE, None)
            os.environ.pop(ENV_TRACE_ID, None)
