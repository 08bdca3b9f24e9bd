"""Synthetic explorer traffic: zipf hotspots, bursty clients, one loop.

Drives an HTTP explorer (:mod:`repro.serve`, or any server with the
same routes) with the workload shape the paper's ecosystem actually
sees: a long-tailed population of analysts and dashboards hammering a
shared replica, where

* **popularity is zipf-distributed** — a few hotspot pages and the
  ``/stats`` head take most of the traffic while the tail stays warm
  enough to matter (``zipf_s`` sets the exponent);
* **arrivals are bursty, not fluid** — each simulated client is a
  Poisson on/off source: exponentially-distributed busy periods of
  back-to-back requests separated by exponential idle gaps, so
  instantaneous concurrency swings well above the mean;
* **clients revalidate** — a client remembers the last ``ETag`` per
  path and replays it as ``If-None-Match``, the way a browser or
  caching proxy would, which is what gives the checkpoint-keyed cache
  its 304 fast path.

Implementation: one thread, one ``selectors`` event loop, thousands of
non-blocking sockets — a thread per simulated client would cap the
generator far below the server under test. In the default HTTP/1.0
mode every request opens a fresh connection and measures
connect-to-close latency, which is what a cold user sees. With
``keep_alive=True`` each client speaks HTTP/1.1 and reuses its
connection for every request in an on-burst (responses framed by
``Content-Length``), tearing it down when the burst ends — the way a
browser actually behaves — and a request sent on a connection the
server idled out is retried once on a fresh one.

``run_load`` returns a :class:`LoadReport`; the CLI (``python -m
repro.serve load``) builds on it.
"""

from __future__ import annotations

import bisect
import errno
import heapq
import json
import random
import selectors
import socket
import struct
import urllib.request
from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

__all__ = [
    "LoadReport",
    "ZipfPaths",
    "discover_paths",
    "fetch_metrics",
    "percentile",
    "run_load",
]


def percentile(sorted_values: List[float], fraction: float) -> float:
    """The ``fraction`` percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


class ZipfPaths:
    """Zipf-weighted sampling over a ranked list of request paths.

    Rank ``r`` (1-based) carries weight ``1 / r**s``. Sampling is a
    binary search over the cumulative weights — O(log n) per draw, no
    numpy needed in the serving tier.
    """

    def __init__(self, paths: List[str], s: float = 1.1) -> None:
        if not paths:
            raise ValueError("need at least one path to sample")
        self.paths = list(paths)
        self.s = float(s)
        self._cumulative: List[float] = []
        total = 0.0
        for rank in range(1, len(self.paths) + 1):
            total += 1.0 / rank ** self.s
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> str:
        point = rng.random() * self._total
        return self.paths[bisect.bisect_left(self._cumulative, point)]


def discover_paths(
    base_url: str, max_hotspots: int = 200, timeout: float = 10.0
) -> List[str]:
    """A ranked path population discovered from the server itself.

    Head of the ranking: the cheap, universally-hit routes; body: one
    page per hotspot (the zipf tail). Works against either tier.
    """
    with urllib.request.urlopen(
        f"{base_url}/hotspots?limit={max_hotspots}", timeout=timeout
    ) as response:
        listing = json.loads(response.read().decode("utf-8"))
    paths = ["/stats", "/hotspots?limit=50"]
    paths.extend(
        "/hotspot/" + h["gateway"] for h in listing["hotspots"]
    )
    paths.append("/coverage/dots")
    return paths


def fetch_metrics(base_url: str, timeout: float = 10.0) -> Dict:
    """The server's ``/metrics`` JSON snapshot (empty dict on failure)."""
    try:
        with urllib.request.urlopen(
            f"{base_url}/metrics", timeout=timeout
        ) as response:
            return json.loads(response.read().decode("utf-8"))
    except (OSError, ValueError):
        return {}


@dataclass
class LoadReport:
    """What one load run measured (:meth:`summary` gives the JSON)."""

    clients: int
    duration_s: float
    requests: int = 0
    status_200: int = 0
    status_304: int = 0
    status_503: int = 0
    status_other: int = 0
    errors: int = 0
    bytes_read: int = 0
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    def summary(self) -> Dict:
        """The JSON document the bench and CLI emit."""
        latencies = sorted(self.latencies_ms)
        return {
            "clients": self.clients,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "requests_per_s": round(self.requests_per_s, 1),
            "status": {
                "200": self.status_200,
                "304": self.status_304,
                "503_shed": self.status_503,
                "other": self.status_other,
                "errors": self.errors,
            },
            "latency_ms": {
                "p50": round(percentile(latencies, 0.50), 3),
                "p90": round(percentile(latencies, 0.90), 3),
                "p99": round(percentile(latencies, 0.99), 3),
                "max": round(latencies[-1], 3) if latencies else 0.0,
                "mean": round(
                    sum(latencies) / len(latencies), 3
                ) if latencies else 0.0,
            },
        }


# Client connection states.
_CONNECTING, _SENDING, _READING = 0, 1, 2


class _Client:
    """One simulated user: a Poisson on/off request source."""

    __slots__ = (
        "index", "rng", "etags", "state", "sock", "sendbuf", "recvbuf",
        "started", "path", "on_until", "reused",
    )

    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.rng = random.Random((seed << 20) ^ index)
        self.etags: Dict[str, str] = {}
        self.state = -1
        self.sock: Optional[socket.socket] = None
        self.sendbuf = b""
        self.recvbuf = b""
        self.started = 0.0
        self.path = ""
        self.on_until = 0.0
        #: This request went out on a reused keep-alive connection (so
        #: a dead socket means "idled out", retried fresh, not an error).
        self.reused = False


class _Loop:
    """The selectors event loop driving every client concurrently."""

    def __init__(
        self,
        host: str,
        port: int,
        paths: ZipfPaths,
        clients: int,
        duration_s: float,
        seed: int,
        mean_on_s: float,
        mean_off_s: float,
        revalidate: bool,
        rst_close: bool,
        keep_alive: bool,
    ) -> None:
        self.host = host
        self.port = port
        self.paths = paths
        self.duration_s = duration_s
        self.revalidate = revalidate
        self.rst_close = rst_close
        self.keep_alive = keep_alive
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.selector = selectors.DefaultSelector()
        self.report = LoadReport(clients=clients, duration_s=duration_s)
        self.sleepers: List[Tuple[float, int]] = []  # (wake_at, index)
        self.clients = [_Client(i, seed) for i in range(clients)]

    # -- client state machine ---------------------------------------------

    def _schedule(self, client: _Client, now: float) -> None:
        """Move a client into its next on-period (maybe after an off)."""
        if now >= client.on_until:
            # Burst over: draw an off gap, then a fresh on-period. A
            # keep-alive connection is torn down here — holding a
            # server worker through the idle gap would model a leak,
            # not a browser.
            self._teardown(client)
            off = client.rng.expovariate(1.0 / self.mean_off_s)
            client.on_until = now + off + client.rng.expovariate(
                1.0 / self.mean_on_s
            )
            heapq.heappush(self.sleepers, (now + off, client.index))
        else:
            self._start_request(client, now)

    def _start_request(self, client: _Client, now: float) -> None:
        client.path = self.paths.sample(client.rng)
        client.started = now
        self._send_request(client, now)

    def _send_request(self, client: _Client, now: float) -> None:
        client.recvbuf = b""
        version = "HTTP/1.1" if self.keep_alive else "HTTP/1.0"
        headers = f"GET {client.path} {version}\r\nHost: {self.host}\r\n"
        etag = self.revalidate and client.etags.get(client.path)
        if etag:
            headers += f"If-None-Match: {etag}\r\n"
        client.sendbuf = (headers + "\r\n").encode("ascii")
        if self.keep_alive and client.sock is not None:
            # Reuse the burst's connection; a send/read on a socket the
            # server already idled out is retried once on a fresh one.
            client.reused = True
            client.state = _SENDING
            self.selector.register(
                client.sock, selectors.EVENT_WRITE, client
            )
            return
        client.reused = False
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        client.sock = sock
        code = sock.connect_ex((self.host, self.port))
        if code not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            self._finish_error(client, now)
            return
        client.state = _CONNECTING
        self.selector.register(sock, selectors.EVENT_WRITE, client)

    def _retry_fresh(self, client: _Client, now: float) -> None:
        """The reused connection was dead (server idle timeout): replay
        this request once on a new socket, keeping the original start
        time so the latency sample stays honest."""
        self._teardown(client)
        self._send_request(client, now)

    def _on_writable(self, client: _Client, now: float) -> None:
        sock = client.sock
        try:
            if client.state == _CONNECTING:
                error = sock.getsockopt(
                    socket.SOL_SOCKET, socket.SO_ERROR
                )
                if error:
                    self._finish_error(client, now)
                    return
                client.state = _SENDING
            sent = sock.send(client.sendbuf)
            client.sendbuf = client.sendbuf[sent:]
            if not client.sendbuf:
                client.state = _READING
                self.selector.modify(sock, selectors.EVENT_READ, client)
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            if client.reused:
                self._retry_fresh(client, now)
            else:
                self._finish_error(client, now)

    def _on_readable(self, client: _Client, now: float) -> None:
        sock = client.sock
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:  # EOF
                    if not self.keep_alive:
                        # HTTP/1.0: close *is* the framing → complete.
                        self._finish_response(client, now)
                    elif client.reused and not client.recvbuf:
                        self._retry_fresh(client, now)
                    elif client.recvbuf:
                        # Server closed after the response (e.g. a shed
                        # 503 or Connection: close).
                        self._finish_response(client, now)
                    else:
                        self._finish_error(client, now)
                    return
                client.recvbuf += chunk
                if self.keep_alive and self._maybe_complete(client, now):
                    return
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            if client.reused and not client.recvbuf:
                self._retry_fresh(client, now)
            else:
                self._finish_error(client, now)

    def _maybe_complete(self, client: _Client, now: float) -> bool:
        """Content-Length framing for keep-alive mode: finish as soon
        as the full response is buffered, leaving the connection open
        unless the server asked to close it."""
        raw = client.recvbuf
        head_end = raw.find(b"\r\n\r\n")
        if head_end < 0:
            return False
        length = _content_length(raw, head_end)
        if length is None or len(raw) < head_end + 4 + length:
            return False
        keep = b"\r\nconnection: close" not in raw[:head_end].lower()
        self._finish_response(client, now, keep=keep)
        return True

    # -- completion --------------------------------------------------------

    def _teardown(self, client: _Client) -> None:
        if client.sock is None:
            return
        try:
            self.selector.unregister(client.sock)
        except (KeyError, ValueError):
            pass
        try:
            if self.rst_close:
                # RST on close: no TIME_WAIT piles up on either side —
                # a load generator recycling thousands of ephemeral
                # ports per second needs this to stay honest.
                client.sock.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
            client.sock.close()
        except OSError:
            pass
        client.sock = None

    def _finish_error(self, client: _Client, now: float) -> None:
        self._teardown(client)
        self.report.errors += 1
        # Back off briefly instead of re-dialling in a tight loop — a
        # refused or reset connection repeated at CPU speed would turn
        # the generator into a connect flood, not a workload.
        heapq.heappush(self.sleepers, (now + 0.05, client.index))

    def _finish_response(
        self, client: _Client, now: float, keep: bool = False
    ) -> None:
        if keep and client.sock is not None:
            # Keep-alive: the connection outlives the request — just
            # quiesce it until the next request in this burst.
            try:
                self.selector.unregister(client.sock)
            except (KeyError, ValueError):
                pass
            client.state = -1
        else:
            self._teardown(client)
        report = self.report
        raw = client.recvbuf
        client.recvbuf = b""
        report.bytes_read += len(raw)
        status, etag = _parse_response(raw)
        if status is None:
            report.errors += 1
        else:
            report.requests += 1
            report.latencies_ms.append((now - client.started) * 1000.0)
            if status == 200:
                report.status_200 += 1
            elif status == 304:
                report.status_304 += 1
            elif status == 503:
                report.status_503 += 1
            else:
                report.status_other += 1
            if etag:
                client.etags[client.path] = etag
        self._schedule(client, now)

    # -- the loop ----------------------------------------------------------

    def run(self) -> LoadReport:
        start = monotonic()
        deadline = start + self.duration_s
        # Stagger the first on-periods across one mean off-gap so the
        # run does not begin with a synchronized thundering herd.
        for client in self.clients:
            first = client.rng.uniform(0, self.mean_off_s)
            client.on_until = start + first + client.rng.expovariate(
                1.0 / self.mean_on_s
            )
            heapq.heappush(self.sleepers, (start + first, client.index))
        now = start
        while now < deadline:
            timeout = deadline - now
            if self.sleepers:
                timeout = min(timeout, max(0.0, self.sleepers[0][0] - now))
            events = self.selector.select(timeout=min(timeout, 0.25))
            now = monotonic()
            for key, mask in events:
                client: _Client = key.data
                if mask & selectors.EVENT_WRITE:
                    self._on_writable(client, now)
                elif mask & selectors.EVENT_READ:
                    self._on_readable(client, now)
            while self.sleepers and self.sleepers[0][0] <= now:
                _, index = heapq.heappop(self.sleepers)
                if now >= deadline:
                    break
                self._start_request(self.clients[index], now)
        # Give in-flight requests a short grace period to finish, so
        # the tail of the measurement is not all artificial errors.
        grace = monotonic() + 0.5
        while monotonic() < grace and any(
            c.sock is not None for c in self.clients
        ):
            for key, mask in self.selector.select(timeout=0.05):
                client = key.data
                if mask & selectors.EVENT_WRITE:
                    self._on_writable(client, monotonic())
                elif mask & selectors.EVENT_READ:
                    self._on_readable(client, monotonic())
        for client in self.clients:
            self._teardown(client)
        self.selector.close()
        self.report.duration_s = monotonic() - start
        return self.report


def _content_length(raw: bytes, head_end: int) -> Optional[int]:
    """``Content-Length`` from a buffered response head, or ``None``."""
    head = raw[:head_end].lower()
    marker = head.find(b"\r\ncontent-length:")
    if marker < 0:
        return None
    line_end = head.find(b"\r\n", marker + 2)
    if line_end < 0:
        line_end = head_end
    try:
        return int(head[marker + 17:line_end].strip())
    except ValueError:
        return None


def _parse_response(raw: bytes) -> Tuple[Optional[int], Optional[str]]:
    """``(status, etag)`` from a raw HTTP response, cheaply."""
    if not raw.startswith(b"HTTP/"):
        return None, None
    try:
        status = int(raw[9:12])
    except ValueError:
        return None, None
    etag: Optional[str] = None
    head_end = raw.find(b"\r\n\r\n")
    if head_end > 0:
        marker = raw.find(b"\r\nETag: ", 0, head_end)
        if marker >= 0:
            line_end = raw.find(b"\r\n", marker + 2, head_end + 2)
            etag = raw[marker + 8:line_end].decode("ascii", "replace")
    return status, etag


def run_load(
    base_url: str,
    clients: int = 256,
    duration_s: float = 5.0,
    seed: int = 2021,
    zipf_s: float = 1.1,
    mean_on_s: float = 0.5,
    mean_off_s: float = 0.5,
    paths: Optional[List[str]] = None,
    revalidate: bool = True,
    rst_close: bool = True,
    keep_alive: bool = False,
) -> LoadReport:
    """Drive a server with zipf/bursty traffic; returns the report.

    Args:
        base_url: e.g. ``http://127.0.0.1:8700`` (either tier).
        clients: simulated users (each a Poisson on/off source). The
            event loop handles thousands; mind ``ulimit -n`` past ~1k.
        duration_s: measurement window.
        zipf_s: popularity exponent (higher → hotter hotspots).
        mean_on_s / mean_off_s: mean busy/idle period lengths.
        paths: optional explicit ranked path list; discovered from the
            server when omitted.
        revalidate: replay remembered ETags as ``If-None-Match``.
        rst_close: close sockets with RST to avoid TIME_WAIT pileup.
        keep_alive: speak HTTP/1.1 and reuse each client's connection
            for the whole on-burst (requires a server that frames with
            ``Content-Length``, which both tiers do).
    """
    parsed = urlparse(base_url)
    host = parsed.hostname or "127.0.0.1"
    port = parsed.port or (443 if parsed.scheme == "https" else 80)
    ranked = ZipfPaths(paths or discover_paths(base_url), s=zipf_s)
    loop = _Loop(
        host, port, ranked,
        clients=clients, duration_s=duration_s, seed=seed,
        mean_on_s=mean_on_s, mean_off_s=mean_off_s,
        revalidate=revalidate, rst_close=rst_close,
        keep_alive=keep_alive,
    )
    return loop.run()
