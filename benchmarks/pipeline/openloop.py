"""Open-loop HTTP load over a few keep-alive connections, one thread.

Explorer users are independent, so the benchmark offers load on a
schedule (an open loop) rather than waiting for each reply before the
next request (a closed loop, which would slow down with the server).
Arrivals are Poisson, drawn from the workload seed before they are
sent, and the program under test receives only those requests.

* Every request is timed from when it was **due**, so the time it waits
  for a free connection counts: a stall on one request shows in the
  latency of the requests queued behind it.
* A request not completed within :data:`DEADLINE_S` of its due time is
  a failure. One still queued at its deadline is never sent; one that
  completes late is kept, and its latency reads as infinite.
* Load runs over at most ``nproc`` HTTP/1.1 keep-alive connections
  (:func:`connection_cap`), one request in flight on each. With
  ``keep_alive=False`` each request instead opens its own HTTP/1.0
  connection, still at most ``nproc`` at a time.
* **Generator lag** is how late the loop itself sent a request: send
  time minus the later of the due time and the moment a connection
  became free. It measures the benchmark, not the program.

Passing every arrival at offset 0 with ``deadline_s=None`` turns the
same loop into a closed-loop crawl: each connection sends its next
request as soon as the previous one completes.
"""

from __future__ import annotations

import math
import os
import random
import selectors
import socket
from collections import deque
from dataclasses import dataclass
from time import monotonic
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = [
    "DEADLINE_S",
    "OpenLoop",
    "Request",
    "connection_cap",
    "fetch_once",
    "poisson_arrivals",
]

#: A request is a failure unless it completes this long after it was due.
DEADLINE_S = 1.0

#: An in-flight request with no response this long after it was sent is
#: abandoned (its connection closed), so a hung server cannot hang the run.
HANG_S = 10.0


def connection_cap(requested: int) -> int:
    """``requested`` connections, capped at the CPUs this process may use."""
    return max(1, min(int(requested), len(os.sched_getaffinity(0))))


def poisson_arrivals(
    seed: int,
    rate: float,
    duration_s: float,
    choose: Callable[[random.Random], str],
) -> Iterator[Tuple[float, str]]:
    """``(offset_s, path)`` pairs: Poisson at ``rate``/s up to ``duration_s``.

    The same seed yields the same schedule and the same paths.
    """
    rng = random.Random(seed)
    offset = 0.0
    while True:
        offset += rng.expovariate(rate)
        if offset >= duration_s:
            return
        yield offset, choose(rng)


@dataclass
class Request:
    """One request: when it was due, sent and done, and what came back."""

    path: str
    due: float
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    nbytes: int = 0
    lag: float = 0.0
    failed: bool = False
    body: Optional[bytes] = None

    @property
    def latency(self) -> float:
        """Seconds from due to the last byte; infinite for a failure."""
        return math.inf if self.failed else self.done - self.due


class _Connection:
    __slots__ = ("sock", "buf", "request", "free_at", "reused")

    def __init__(self) -> None:
        self.sock: Optional[socket.socket] = None
        self.buf = b""
        self.request: Optional[Request] = None
        self.free_at = 0.0
        self.reused = False


def _parse(buf: bytes) -> Optional[Tuple[int, int, Dict[bytes, bytes]]]:
    """``(status, response length, headers)`` once ``buf`` holds a whole
    response, else ``None``."""
    head_end = buf.find(b"\r\n\r\n")
    if head_end < 0:
        return None
    lines = buf[:head_end].split(b"\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    length = head_end + 4 + int(headers.get(b"content-length", b"0"))
    if len(buf) < length:
        return None
    return int(lines[0][9:12]), length, headers


class OpenLoop:
    """Sends a schedule of GETs and records every :class:`Request`.

    Args:
        host, port: the server under test.
        connections: keep-alive connections to use (capped at nproc).
        etags: path → ETag map replayed as ``If-None-Match`` and updated
            from responses; ``None`` sends no revalidation headers.
        deadline_s: see :data:`DEADLINE_S`; ``None`` disables it.
        keep_bodies: paths whose 200 bodies are kept for checking.
        on_request: called with each finished request (tracing).
        keep_alive: reuse connections (HTTP/1.1) or open one per
            request (HTTP/1.0).
    """

    def __init__(
        self,
        host: str,
        port: int,
        connections: int,
        etags: Optional[Dict[str, str]] = None,
        deadline_s: Optional[float] = DEADLINE_S,
        keep_bodies: Optional[Set[str]] = None,
        on_request: Optional[Callable[[Request], None]] = None,
        keep_alive: bool = True,
    ) -> None:
        self.address = (host, port)
        self.keep_alive = keep_alive
        self.connections = [_Connection() for _ in range(connection_cap(connections))]
        self.etags = etags
        self.deadline_s = deadline_s
        self.keep_bodies = keep_bodies or set()
        self.on_request = on_request
        self.retries = 0
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make the generator up to 1 ms late.
        self._selector = selectors.SelectSelector()
        self._idle: Deque[_Connection] = deque(self.connections)
        self._finished: List[Request] = []

    # -- connections -------------------------------------------------------

    def _close(self, conn: _Connection) -> None:
        if conn.sock is not None:
            self._selector.unregister(conn.sock)
            conn.sock.close()
            conn.sock = None
        conn.buf = b""

    def _send(self, conn: _Connection, request: Request, now: float) -> None:
        request.lag = now - max(request.due, conn.free_at)
        request.sent = now
        conn.request = request
        conn.reused = conn.sock is not None
        try:
            if conn.sock is None:
                conn.sock = socket.create_connection(self.address, timeout=5.0)
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._selector.register(conn.sock, selectors.EVENT_READ, conn)
            version = "HTTP/1.1" if self.keep_alive else "HTTP/1.0"
            head = f"GET {request.path} {version}\r\nHost: {self.address[0]}\r\n"
            etag = self.etags.get(request.path) if self.etags is not None else None
            if etag:
                head += f"If-None-Match: {etag}\r\n"
            conn.sock.sendall((head + "\r\n").encode("ascii"))
        except OSError:
            self._broken(conn, monotonic())

    def _broken(self, conn: _Connection, now: float) -> None:
        """The connection died: replay a request sent on a reused
        connection once on a fresh one (the server may have idled it
        out), otherwise fail the request."""
        request, reused, partial = conn.request, conn.reused, bool(conn.buf)
        self._close(conn)
        conn.request = None
        if request is None:
            return
        if reused and not partial:
            self.retries += 1
            self._send(conn, request, now)
        else:
            self._finish(conn, request, now, failed=True)

    def _finish(
        self, conn: _Connection, request: Request, now: float, failed: bool
    ) -> None:
        request.done = now
        late = self.deadline_s is not None and now - request.due > self.deadline_s
        request.failed = failed or late or request.status not in (200, 304)
        conn.request = None
        conn.free_at = now
        self._idle.append(conn)
        self._finished.append(request)
        if self.on_request is not None:
            self.on_request(request)

    def _on_readable(self, conn: _Connection, now: float) -> None:
        try:
            chunk = conn.sock.recv(1 << 16)
        except OSError:
            chunk = b""
        if not chunk:
            if conn.request is None:
                self._close(conn)  # idle connection closed by the server
            else:
                self._broken(conn, now)
            return
        conn.buf += chunk
        parsed = _parse(conn.buf)
        if parsed is None or conn.request is None:
            return
        status, length, headers = parsed
        request = conn.request
        request.status = status
        request.nbytes = length
        if status == 200:
            etag = headers.get(b"etag")
            if self.etags is not None and etag:
                self.etags[request.path] = etag.decode("ascii")
            if request.path in self.keep_bodies:
                request.body = conn.buf[conn.buf.find(b"\r\n\r\n") + 4:length]
        close = (not self.keep_alive
                 or headers.get(b"connection", b"").lower() == b"close")
        conn.buf = conn.buf[length:]
        if close:
            self._close(conn)
        self._finish(conn, request, now, failed=False)

    # -- the loop ----------------------------------------------------------

    def run(
        self,
        arrivals: Iterable[Tuple[float, str]],
        stop: Optional[Callable[[], bool]] = None,
        start: Optional[float] = None,
    ) -> List[Request]:
        """Send ``arrivals`` (offsets from ``start``, default now); return
        every request in completion order. ``stop()`` returning true ends
        the schedule early; requests already due still complete."""
        start = monotonic() if start is None else start
        upcoming = iter(arrivals)
        following = next(upcoming, None)
        pending: Deque[Request] = deque()
        self._finished = []
        while True:
            now = monotonic()
            if following is not None and stop is not None and stop():
                following = None
            while following is not None and start + following[0] <= now:
                pending.append(Request(following[1], start + following[0]))
                following = next(upcoming, None)
            while (
                pending and self.deadline_s is not None
                and now - pending[0].due >= self.deadline_s
            ):
                expired = pending.popleft()
                expired.failed = True
                self._finished.append(expired)
            while pending and self._idle:
                self._send(self._idle.popleft(), pending.popleft(), now)
            busy = [c for c in self.connections if c.request is not None]
            for conn in busy:
                if now - conn.request.sent > HANG_S:
                    request = conn.request
                    self._close(conn)
                    self._finish(conn, request, now, failed=True)
            if following is None and not pending and not busy:
                break
            timeout = 0.05
            if following is not None:
                timeout = min(timeout, start + following[0] - now)
            if pending and self.deadline_s is not None:
                timeout = min(timeout, pending[0].due + self.deadline_s - now)
            for key, _ in self._selector.select(max(0.0, timeout)):
                self._on_readable(key.data, monotonic())
        return self._finished

    def close(self) -> None:
        """Close every connection."""
        for conn in self.connections:
            self._close(conn)
        self._selector.close()


def fetch_once(
    host: str, port: int, path: str, timeout: float = 30.0
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP/1.0 GET on a fresh connection: ``(status, headers, body)``.

    Used for warm-up passes and ``/metrics`` snapshots, which must not
    occupy the measured keep-alive connections.
    """
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("ascii"))
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0][9:12]), headers, body
