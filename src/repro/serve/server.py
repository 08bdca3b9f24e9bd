"""The explorer's HTTP tier: pooled workers over read-only replicas.

Serves the ETL replica's hotspot, owner, witness and coverage pages as
JSON, built for sustained concurrent traffic:

* **A worker pool sized by its load, not a thread per connection.**
  Accepted sockets go onto a bounded queue that long-lived workers
  drain; a socket that finds no idle worker starts one, up to
  ``workers``. Each store request leases a read-only WAL connection
  (:class:`repro.etl.store.ReadReplicas`) for its read snapshot, so
  requests run genuinely in parallel with each other and with the
  ingest writer — no two share a handle and no lock sits on the query
  path — and the process holds as many threads and handles as
  connections and requests were ever in flight at once.
* **Checkpoint-keyed response caching.** Every cacheable response
  carries an ETag that embeds the store's ingest checkpoint
  (:mod:`repro.serve.cache`); a page asked for again is kept and then
  served from memory, and ``If-None-Match`` revalidations collapse to
  empty 304s — and all of it invalidates exactly when ingest commits a
  new checkpoint.
* **Snapshot-consistent reads.** A request renders inside one SQLite
  read transaction (:meth:`EtlStore.read_snapshot`), so a multi-query
  page can never mix rows from two ingest commits; the checkpoint in
  the ETag is exactly the checkpoint the body reflects.
* **Bounded backpressure.** When the queue is full the server sheds the
  connection immediately with ``503`` + ``Retry-After`` instead of
  letting latency (or thread count) grow without bound; ``drain()``
  stops accepting, finishes what is queued, and joins the workers —
  the CLI wires it to ``SIGTERM``.
* **Cursor pagination.** List endpoints accept an opaque ``cursor``
  token (:mod:`repro.serve.cursor`) and return ``next_cursor``,
  alongside the ``offset`` form.
* **Its own HTTP/1.1 framing.** The handler reads and writes the
  socket itself (``socketserver``, not ``http.server``, whose import
  chain maps OpenSSL into a process that never speaks TLS). HTTP/1.1
  connections stay open until the client sends ``Connection: close``;
  HTTP/1.0 gets one response per connection. The request head is
  bounded: the request line and every header line must fit in
  :data:`MAX_LINE` bytes, at most :data:`MAX_HEADERS` header lines, and
  the whole head must arrive within ``keepalive_idle_s`` of when the
  worker starts reading it — one deadline across every ``recv``, so a
  client trickling bytes holds a worker no longer than a silent one.
  A malformed head gets a JSON 400 / 414 / 431 / 505 and the
  connection closes. The API takes no request bodies: a request that
  declares one (``Content-Length`` above zero, or any
  ``Transfer-Encoding``) is answered and the connection closed, so an
  unread body is never parsed as the next request. A connection that
  closes with input left unread (a rejected head, a body, requests
  pipelined behind a closing one) is half-closed and drained first,
  so the client reads its reply rather than a reset. Every response
  leaves as one write carrying ``Content-Length``, ``Server`` and
  ``Date``.

Routes: ``/stats``, ``/hotspots``, ``/hotspot/<id>[/witnesses]``,
``/owner/<addr>``, ``/coverage/dots``, ``/search``, ``/healthz`` (pool,
queue and cache state) and ``/metrics``; ``/`` lists them. List responses
carry ``checkpoint`` and ``next_cursor``. Errors are ``{"error": …}``
with a 4xx: 404 for unknown resources, 400 for a negative or
non-integer ``limit``/``offset``, an ``offset`` or cursor position past
SQLite's largest integer, or a bad cursor (an oversized ``limit``
clamps to :data:`repro.etl.store.MAX_PAGE_LIMIT`); a handler fault is a
JSON 500. ``HEAD`` mirrors ``GET`` headers; every other method is 405
with ``Allow: GET, HEAD``. ``If-None-Match: *`` turns only a 200 into a
304.

Observability (:mod:`repro.obs`): ``serve.requests{route=,status=}``
counters, ``serve.latency_s{route=}`` histograms,
``serve.cache.{hit,miss,revalidated,...}`` counters, the
``serve.queue_depth``, ``serve.workers_started`` and
``serve.replicas_open`` gauges and a ``serve.shed`` counter — all
visible on ``GET /metrics``. A head the framing rejects counts in
``serve.rejected{status=}`` instead of ``serve.requests``, and a head
cut off by its deadline in ``serve.head_timeouts``.
"""

from __future__ import annotations

import json
import os
import queue
import re
import socket
import socketserver
import sys
import threading
from time import gmtime, monotonic, perf_counter, sleep, strftime
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlencode, urlparse

from repro import obs
from repro.errors import EtlError
from repro.etl.server import event_to_json, owner_to_json, page_to_json
from repro.etl.store import MAX_PAGE_LIMIT, EtlStore, ReadReplicas
from repro.serve.cache import ResponseCache, etag_for, etag_matches
from repro.serve.cursor import (
    MAX_POSITION, CursorError, decode_cursor, encode_cursor,
)

__all__ = ["ServeServer", "create_server", "default_workers", "serve"]

#: Longest request line or header line accepted, in bytes (line
#: terminator excluded); a longer one is a 414 or a 431.
MAX_LINE = 65536

#: Most header lines one request may carry; more is a 431.
MAX_HEADERS = 100

_RECV_BYTES = 65536

#: RFC 9110 ``token``: what a method or a header name may be made of.
_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

_HTTP_VERSION = re.compile(rb"HTTP/(\d)\.(\d)")

_REASONS = {
    200: "OK", 304: "Not Modified", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 414: "URI Too Long",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    505: "HTTP Version Not Supported",
}

_SERVER = "repro-serve/1 Python/" + sys.version.split()[0]

_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")

#: Poison pill that tells a worker thread to exit its loop.
_STOP = object()

_SHED_BODY = json.dumps(
    {"error": "server overloaded, retry shortly"}, separators=(",", ":")
).encode("utf-8")

_DRAIN_BODY = json.dumps(
    {"error": "server draining"}, separators=(",", ":")
).encode("utf-8")

_ROUTES = [
    "/stats",
    "/hotspots?limit=&cursor=|offset=",
    "/hotspot/<name-or-address>",
    "/hotspot/<name-or-address>/witnesses?limit=",
    "/owner/<address>",
    "/coverage/dots",
    "/search?q=&limit=",
    "/healthz",
    "/metrics?format=json|prometheus",
]

_KNOWN_HEADS = {"stats", "hotspots", "coverage", "search", "metrics",
                "healthz"}

#: Routes whose 200 bodies go through the checkpoint-keyed cache.
#: ``/metrics`` and ``/healthz`` describe the process, not the replica,
#: so caching them would be wrong twice over.
_UNCACHED = {"metrics", "healthz", "index", "unknown"}


def default_workers() -> int:
    """Worker-pool cap when the caller does not pick one.

    Readers block on SQLite I/O and page rendering releases the GIL at
    the socket writes, so a small multiple of the cores keeps the pool
    busy without thrashing; clamped so a 1-core CI box still overlaps
    I/O and a 128-core box does not open 512 connections.
    """
    return max(4, min(32, 4 * (os.cpu_count() or 1)))


def _http_date() -> str:
    """The current time as an RFC 9110 ``Date`` value."""
    t = gmtime()
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _route_key(parts: List[str]) -> str:
    """Bounded metric label for a request path (shape, not resource)."""
    if not parts:
        return "index"
    head = parts[0]
    if head == "hotspot":
        return "hotspot/witnesses" if len(parts) > 2 else "hotspot"
    if head == "owner":
        return "owner"
    if head == "coverage":
        return "coverage/dots" if parts == ["coverage", "dots"] else "unknown"
    if head in _KNOWN_HEADS and len(parts) == 1:
        return head
    return "unknown"


def _canonical(parts: List[str], params: Dict[str, List[str]]) -> str:
    """One cache key per logical request: sorted, normalised query."""
    path = "/" + "/".join(parts)
    if not params:
        return path
    flat = sorted((k, v) for k, values in params.items() for v in values)
    return path + "?" + urlencode(flat)


class _BadHead(Exception):
    """A request head the framing layer rejects: ``(status, message)``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeHandler(socketserver.BaseRequestHandler):
    """One connection's requests, executed on a pool worker.

    The handler frames HTTP/1.1 on the raw socket (see the module
    docstring for the rules). It keeps its own receive buffer rather
    than a buffered file over the socket: the head deadline has to
    span every ``recv``, and bytes read past one request's head must
    stay for the next, pipelined one.
    """

    def setup(self) -> None:
        self.connection: socket.socket = self.request
        # Nagle would hold the last, partial segment of a response
        # until the client ACKs the ones before it, which a delayed
        # ACK can put off for ~40 ms.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = bytearray()

    def handle(self) -> None:
        while True:
            self.command = self.requestline = ""
            self._close = self._drain = False
            try:
                head = self._read_head()
                if head is None:
                    return  # client closed, or no whole head in time
                self._parse(head)
            except _BadHead as exc:
                obs.counter("serve.rejected", status=exc.status)
                self._close = True
                self._error(str(exc), exc.status)
                self._linger()
                return
            if self.command in ("GET", "HEAD"):
                self._dispatch()
            else:
                self._method_not_allowed()
            if self._close:
                if self._drain or self._input_left():
                    self._linger()
                return

    # -- framing -------------------------------------------------------------

    def _read_head(self) -> Optional[List[bytes]]:
        """The next request's request line and header lines.

        Buffers ``recv`` output until a blank line ends the head; bytes
        beyond it stay in ``_pending``. ``None`` when the client closes
        (or resets) or the head is not complete ``keepalive_idle_s`` after the call;
        the latter counts as a ``serve.head_timeouts`` when part of a
        head had come (a connection idle between requests is not one).
        Blank lines before the request line are skipped (RFC 9112 2.2);
        a bare LF ends a line as CRLF does.
        """
        deadline = monotonic() + self.server.keepalive_idle_s
        pending = self._pending
        lines: List[bytes] = []
        scanned = 0
        while True:
            end = pending.find(b"\n", scanned)
            if end < 0:
                if len(pending) > MAX_LINE + 1:  # + 1: room for a CR
                    raise self._too_long(lines)
                scanned = len(pending)
                remaining = deadline - monotonic()
                if remaining <= 0:
                    return self._head_timeout(lines)
                self.connection.settimeout(remaining)
                try:
                    chunk = self.connection.recv(_RECV_BYTES)
                except TimeoutError:
                    return self._head_timeout(lines)
                except ConnectionError:
                    return None  # a reset is a close
                if not chunk:
                    return None
                pending += chunk
                continue
            line = bytes(pending[:end])
            del pending[:end + 1]
            scanned = 0
            if line.endswith(b"\r"):
                line = line[:-1]
            if len(line) > MAX_LINE:
                raise self._too_long(lines)
            if line:
                lines.append(line)
                if len(lines) > MAX_HEADERS + 1:
                    raise _BadHead(431, f"more than {MAX_HEADERS} headers")
            elif lines:
                return lines

    def _head_timeout(self, lines: List[bytes]) -> None:
        if lines or self._pending:
            obs.counter("serve.head_timeouts")
        return None

    @staticmethod
    def _too_long(lines: List[bytes]) -> _BadHead:
        if lines:
            return _BadHead(431, f"header line over {MAX_LINE} bytes")
        return _BadHead(414, f"request line over {MAX_LINE} bytes")

    def _parse(self, lines: List[bytes]) -> None:
        """Set the request's method, target, headers and connection fate."""
        words = lines[0].split()
        if len(words) != 3 or not _TOKEN.fullmatch(words[0]):
            raise _BadHead(
                400, f"bad request line {lines[0][:100].decode('latin-1')!r}"
            )
        version = _HTTP_VERSION.fullmatch(words[2])
        if version is None:
            raise _BadHead(
                400, f"bad HTTP version {words[2][:20].decode('latin-1')!r}"
            )
        if version.group(1) != b"1":
            raise _BadHead(505, "only HTTP/1.x is served")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, colon, value = line.partition(b":")
            if not colon or not _TOKEN.fullmatch(name):
                raise _BadHead(
                    400, f"bad header line {line[:100].decode('latin-1')!r}"
                )
            key = name.decode("ascii").lower()
            text = value.strip(b" \t").decode("latin-1")
            if key in headers:  # a repeated field is one list (RFC 9110 5.3)
                text = f"{headers[key]}, {text}"
            headers[key] = text
        length = headers.get("content-length")
        if length is not None and not (length.isascii() and length.isdigit()):
            raise _BadHead(400, f"bad Content-Length {length[:20]!r}")
        tokens = headers.get("connection", "").lower().split(",")
        self._drain = "transfer-encoding" in headers or bool(
            length and length.lstrip("0")
        )
        self._close = (
            self._drain
            or version.group(2) == b"0"
            or "close" in (token.strip() for token in tokens)
        )
        self.requestline = lines[0].decode("latin-1")
        self.command = words[0].decode("ascii")
        self.path = words[1].decode("latin-1")
        if self.path.startswith("//"):
            # Not an authority: "//x" would otherwise parse as a host.
            self.path = "/" + self.path.lstrip("/")
        self.headers = headers

    def _input_left(self) -> bool:
        """Whether bytes past the last head were read or wait unread.

        A client may pipeline more requests behind one that closes the
        connection (HTTP/1.0, ``Connection: close``); those bytes are
        never answered, but must not be left unread either.
        """
        if self._pending:
            return True
        self.connection.settimeout(0.0)
        try:
            return bool(self.connection.recv(1, socket.MSG_PEEK))
        except OSError:  # nothing waiting, or a reset
            return False

    def _linger(self) -> None:
        """Close the write side, then read until the client hangs up.

        Closing a socket with unread bytes resets the connection, and a
        reset can destroy a reply the client has not read yet. So after
        a reply that leaves bytes unread (a rejected head, a body,
        requests pipelined behind a closing one) the worker reads and
        drops input until EOF, for at most ``keepalive_idle_s``.
        """
        deadline = monotonic() + self.server.keepalive_idle_s
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while (remaining := deadline - monotonic()) > 0:
                self.connection.settimeout(remaining)
                if not self.connection.recv(_RECV_BYTES):
                    return
        except OSError:
            pass  # reset or timed out: either way, done with it

    # -- plumbing ----------------------------------------------------------

    def _send(
        self,
        body: bytes,
        content_type: str,
        status: int,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._status = status
        lines = [
            f"HTTP/1.1 {status} {_REASONS[status]}",
            f"Server: {_SERVER}",
            f"Date: {_http_date()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        if self._close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.connection.settimeout(self.server.keepalive_idle_s)
        try:
            self.connection.sendall(
                head if self.command == "HEAD" else head + body
            )
        except (ConnectionError, TimeoutError):
            # The peer left, or stopped reading, mid-reply: a client
            # abort, not a handler fault. Nothing more goes out on it.
            obs.counter("serve.client_aborts")
            self._close = True
            return
        if self.server.verbose:
            sys.stderr.write(
                f"{self.client_address[0]} - - "
                f"[{strftime('%d/%b/%Y %H:%M:%S')}] "
                f"\"{self.requestline}\" {status} -\n"
            )

    def _reply(
        self,
        payload: Any,
        status: int = 200,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self._send(body, "application/json", status, extra_headers)

    def _error(self, message: str, status: int) -> None:
        self._reply({"error": message}, status=status)

    def _int_param(
        self,
        params: Dict[str, List[str]],
        name: str,
        default: int,
        max_value: Optional[int] = None,
    ) -> int:
        values = params.get(name)
        if not values:
            return default
        try:
            value = int(values[0])
        except ValueError:
            raise ValueError(
                f"query parameter {name!r} must be an integer, "
                f"got {values[0]!r}"
            ) from None
        if value < 0:
            raise ValueError(
                f"query parameter {name!r} must be >= 0, got {value}"
            )
        if max_value is not None and value > max_value:
            return max_value
        if value > MAX_POSITION:  # SQLite could not bind it
            raise ValueError(
                f"query parameter {name!r} must be <= {MAX_POSITION}, "
                f"got {value}"
            )
        return value

    # -- dispatch ----------------------------------------------------------

    def _method_not_allowed(self) -> None:
        started = perf_counter()
        self._reply(
            {"error": f"method {self.command} not allowed; this API is "
             "read-only", "allow": "GET, HEAD"},
            status=405,
            extra_headers={"Allow": "GET, HEAD"},
        )
        obs.counter("serve.requests", route="method", status=405)
        obs.observe(
            "serve.latency_s", perf_counter() - started, route="method"
        )

    def _dispatch(self) -> None:
        server: "ServeServer" = self.server  # type: ignore[assignment]
        route = "unknown"
        self._status: Optional[int] = None  # set when a reply starts
        started = perf_counter()
        try:
            # urlparse raises ValueError on a malformed authority
            # ("http://[x/"): a 400 like any other bad parameter.
            parsed = urlparse(self.path)
            parts = [unquote(p) for p in parsed.path.split("/") if p]
            # keep_blank_values: ``?cursor=`` must be rejected as a bad
            # cursor, not silently treated as "no cursor".
            params = parse_qs(parsed.query, keep_blank_values=True)
            route = _route_key(parts)
            if route == "metrics":
                self._metrics(server, params)
            elif route == "healthz":
                self._healthz(server)
            elif route == "index":
                entries, cap = server.cache.stats()
                self._reply({
                    "service": "repro.serve",
                    "routes": _ROUTES,
                    "workers": server.workers,
                    "workers_started": server.workers_started,
                    "replicas_open": server.replicas.open_count,
                    "cache_entries": entries,
                    "cache_max_entries": cap,
                })
            elif (
                server.test_routes
                and parts
                and parts[0] == "debug"
            ):
                self._debug(parts, params)
            else:
                self._serve_route(server, route, parts, params)
        except CursorError as exc:
            self._error(str(exc), status=400)
        except (ValueError, KeyError) as exc:
            self._error(f"bad request: {exc}", status=400)
        except Exception:
            # A fault before any reply is a JSON 500, and the connection
            # closes once the worker records the error. A reply whose
            # write failed (the peer left) keeps the status it carried.
            if self._status is None:
                self._close = True
                self._error("internal server error", status=500)
            raise
        finally:
            elapsed = perf_counter() - started
            obs.counter("serve.requests", route=route, status=self._status)
            obs.observe("serve.latency_s", elapsed, route=route)
            obs.trace_event(
                "serve.request", route=route, path=self.path,
                status=self._status, wall_s=round(elapsed, 6),
            )

    def _metrics(
        self, server: "ServeServer", params: Dict[str, List[str]]
    ) -> None:
        # The pool gauges are read when scraped: exact, and no metric
        # write on the request path.
        obs.gauge("serve.workers_started", server.workers_started)
        obs.gauge("serve.replicas_open", server.replicas.open_count)
        fmt = params.get("format", ["json"])[0].lower()
        if fmt in ("prometheus", "prom", "text"):
            self._send(
                obs.to_prometheus().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
                200,
            )
        elif fmt == "json":
            self._reply(obs.snapshot())
        else:
            raise ValueError(f"unknown metrics format {fmt!r}")

    def _healthz(self, server: "ServeServer") -> None:
        entries, cap = server.cache.stats()
        self._reply({
            "status": "draining" if server.draining else "ok",
            "workers": server.workers,
            "workers_started": server.workers_started,
            "replicas_open": server.replicas.open_count,
            "queue_depth": server.queue_size(),
            "queue_limit": server.queue_depth,
            "cache_entries": entries,
        })

    def _debug(
        self, parts: List[str], params: Dict[str, List[str]]
    ) -> None:
        """Test-only routes (``test_routes=True``): a sleeping handler
        lets the backpressure tests hold workers busy deterministically.
        """
        if parts == ["debug", "sleep"]:
            seconds = float(params.get("s", ["0.1"])[0])
            sleep(min(seconds, 5.0))
            self._reply({"slept_s": seconds})
        else:
            self._error(f"no such route: /{'/'.join(parts)}", status=404)

    # -- the cached, snapshot-consistent store routes ----------------------

    def _serve_route(
        self,
        server: "ServeServer",
        route: str,
        parts: List[str],
        params: Dict[str, List[str]],
    ) -> None:
        canonical = _canonical(parts, params)
        condition = self.headers.get("if-none-match")
        # The snapshot ends before the lease does, so no handle goes
        # back to the pool with a read transaction open.
        with server.replicas.lease() as store, store.read_snapshot():
            # Everything below — checkpoint, conditional check, cache
            # lookup, render — sees one committed snapshot, so the ETag
            # names exactly the data the body was rendered from.
            checkpoint = store.checkpoint_height
            etag = etag_for(canonical, checkpoint)
            if route not in _UNCACHED:
                # A listed tag was issued with a 200 of this request, so
                # it can match before the render; "*" matches only a
                # page that exists (RFC 9110 13.1.2), which takes a 200.
                if (condition and "*" not in condition
                        and etag_matches(condition, etag)):
                    self._not_modified(etag, checkpoint)
                    return
                entry = server.cache.get(canonical, checkpoint)
                if entry is not None:
                    if etag_matches(condition, entry.etag):
                        self._not_modified(etag, checkpoint)
                    else:
                        self._send(
                            entry.body, entry.content_type, 200,
                            {"ETag": entry.etag,
                             "X-Checkpoint": str(entry.checkpoint)},
                        )
                    return
            payload, status = self._render(store, parts, params, checkpoint)
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        headers = {"X-Checkpoint": str(checkpoint)}
        if status == 200 and route not in _UNCACHED:
            server.cache.put(canonical, checkpoint, body, "application/json")
            if etag_matches(condition, etag):
                self._not_modified(etag, checkpoint)
                return
            headers["ETag"] = etag
        self._send(body, "application/json", status, headers)

    def _not_modified(self, etag: str, checkpoint: int) -> None:
        obs.counter("serve.cache.revalidated")
        self._send(
            b"", "application/json", 304,
            {"ETag": etag, "X-Checkpoint": str(checkpoint)},
        )

    def _render(
        self,
        store: EtlStore,
        parts: List[str],
        params: Dict[str, List[str]],
        checkpoint: int,
    ) -> Tuple[Any, int]:
        """``(payload, status)`` for a store-backed route."""
        if parts == ["stats"]:
            return {
                "checkpoint_height": checkpoint,
                "tip_hash": store.get_meta("tip_hash"),
                "tables": store.counts(),
            }, 200
        if parts == ["hotspots"]:
            return self._render_hotspots(store, params, checkpoint)
        if parts[0] == "hotspot" and len(parts) in (2, 3):
            return self._render_hotspot(store, parts, params)
        if parts[0] == "owner" and len(parts) == 2:
            page = store.query_owner_page(parts[1])
            if page is None:
                return {"error": f"unknown wallet: {parts[1]}"}, 404
            return owner_to_json(page), 200
        if parts == ["coverage", "dots"]:
            return {
                "dots": [
                    {"token": token, "lat": lat, "lon": lon,
                     "hotspots": count}
                    for token, lat, lon, count in store.coverage_dot_rows()
                ],
            }, 200
        if parts == ["search"]:
            query = params.get("q", [""])[0]
            limit = self._int_param(params, "limit", 10, MAX_PAGE_LIMIT)
            matches = store.search_names(query, limit) if query else []
            return {
                "query": query,
                "matches": [
                    {"gateway": gateway, "name": name}
                    for gateway, name in matches
                ],
            }, 200
        return {"error": f"no such route: /{'/'.join(parts)}"}, 404

    def _render_hotspots(
        self,
        store: EtlStore,
        params: Dict[str, List[str]],
        checkpoint: int,
    ) -> Tuple[Any, int]:
        limit = self._int_param(params, "limit", 50, MAX_PAGE_LIMIT)
        cursor_token = params.get("cursor", [None])[0]
        if cursor_token is not None and "offset" in params:
            raise ValueError(
                "pass either cursor= or offset=, not both"
            )
        if cursor_token is not None or "offset" not in params:
            # Keyset paging is the default; an explicit offset= selects
            # the offset form. A walk starts with no cursor at all and
            # follows next_cursor to the end.
            after = (
                0 if cursor_token is None
                else decode_cursor(cursor_token, "hotspots")
            )
            rows = store.hotspot_cursor_rows(after, limit)
            page, extra = rows[:limit], rows[limit:]
            if extra or (limit == 0 and page):
                # More rows exist past this page; resume after the last
                # row served (or from the same position for limit=0).
                resume = page[-1][0] if page else after
                next_cursor: Optional[str] = encode_cursor(
                    "hotspots", resume
                )
            else:
                next_cursor = None
            return {
                "total": store.hotspot_count,
                "checkpoint": checkpoint,
                "hotspots": [
                    {"gateway": gateway, "name": name, "location_token": tok}
                    for _, gateway, name, tok in page
                ],
                "next_cursor": next_cursor,
            }, 200
        offset = self._int_param(params, "offset", 0)
        rows = store.hotspot_page_rows(limit, offset)
        return {
            "total": store.hotspot_count,
            "checkpoint": checkpoint,
            "hotspots": [
                {"gateway": gateway, "name": name, "location_token": tok}
                for gateway, name, tok in rows
            ],
            "next_cursor": None,
        }, 200

    def _render_hotspot(
        self,
        store: EtlStore,
        parts: List[str],
        params: Dict[str, List[str]],
    ) -> Tuple[Any, int]:
        key = parts[1]
        gateway: Optional[str] = key if key.startswith("hs_") else (
            store.gateway_by_name(key.replace("-", " "))
        )
        page = (
            store.query_hotspot_page(gateway) if gateway is not None else None
        )
        if page is None:
            return {"error": f"unknown hotspot: {key}"}, 404
        if len(parts) == 2:
            return page_to_json(page), 200
        if parts[2] != "witnesses":
            return {"error": f"unknown hotspot subresource: {parts[2]}"}, 404
        limit = self._int_param(params, "limit", 100, MAX_PAGE_LIMIT)
        events = store.witness_events(
            page.gateway, direction="witnessing", limit=limit
        )
        return {
            "gateway": page.gateway,
            "name": page.name,
            "witnesses": [event_to_json(e) for e in events],
        }, 200


class ServeServer(socketserver.TCPServer):
    """Bounded-queue HTTP server over leased read replicas.

    The accept loop (``serve_forever``) only enqueues sockets, starting
    a worker thread when no started one is idle, up to ``workers``; the
    workers own the request lifecycle end to end. A full queue sheds
    with 503 + ``Retry-After`` at accept time — the cheapest possible
    rejection — so latency stays bounded at saturation instead of
    growing a thread pile.
    """

    allow_reuse_address = True
    request_queue_size = 512  # kernel listen(2) backlog

    def __init__(
        self,
        address: Tuple[str, int],
        db_path: str,
        workers: Optional[int] = None,
        queue_depth: int = 128,
        retry_after_s: int = 1,
        keepalive_idle_s: float = 5.0,
        verbose: bool = False,
        test_routes: bool = False,
    ) -> None:
        super().__init__(address, ServeHandler)
        self.db_path = str(db_path)
        self.workers = int(workers) if workers else default_workers()
        self.queue_depth = int(queue_depth)
        self.retry_after_s = int(retry_after_s)
        # Persistent connections hold their worker between requests, so
        # the idle timeout is what bounds how long a quiet client can
        # park in the pool.
        self.keepalive_idle_s = float(keepalive_idle_s)
        self.verbose = verbose
        self.test_routes = test_routes
        self.cache = ResponseCache()
        self.replicas = ReadReplicas(self.db_path)  # fails fast on a bad db
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.queue_depth)
        self._threads: List[threading.Thread] = []
        self._accepting = False
        self._drained = threading.Event()
        self.draining = False

    # -- pool lifecycle ----------------------------------------------------

    @property
    def workers_started(self) -> int:
        """Worker threads started so far (at most ``workers``)."""
        return len(self._threads)

    def _ensure_worker(self) -> None:
        """Start a worker for a just-queued item unless one is idle."""
        # unfinished_tasks counts the items queued or in a worker's
        # hands (task_done comes just before the connection's close):
        # more of them than workers started leaves no worker idle for
        # this one.
        started = len(self._threads)
        if self._queue.unfinished_tasks > started and started < self.workers:
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"serve-worker-{started}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def serve_forever(self, poll_interval: float = 0.25) -> None:
        self._accepting = True
        try:
            super().serve_forever(poll_interval)
        finally:
            self._accepting = False

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            request, client_address = item
            obs.gauge("serve.queue_depth", self._queue.qsize())
            try:
                self.finish_request(request, client_address)
            except Exception:  # noqa: BLE001 - a handler fault
                self.handle_error(request, client_address)
            finally:
                # Done before the close: a client that reconnects once
                # it reads EOF then finds this worker idle.
                self._queue.task_done()
                self.shutdown_request(request)

    # -- accept path -------------------------------------------------------

    def process_request(self, request, client_address) -> None:
        """Enqueue, or shed with 503 when the queue is full."""
        if self.draining:
            self._refuse(request, _DRAIN_BODY)
            return
        try:
            self._queue.put_nowait((request, client_address))
        except queue.Full:
            obs.counter("serve.shed")
            obs.counter("serve.requests", route="shed", status=503)
            self._refuse(request, _SHED_BODY)
            return
        obs.gauge("serve.queue_depth", self._queue.qsize())
        self._ensure_worker()

    def _refuse(self, request, body: bytes) -> None:
        """A minimal 503 written straight onto the socket.

        No handler object, no parsing of the request we are refusing —
        shedding must stay orders of magnitude cheaper than serving,
        or the queue limit would not protect anything.
        """
        try:
            request.sendall(
                b"HTTP/1.0 503 Service Unavailable\r\n"
                b"Content-Type: application/json\r\n"
                + f"Retry-After: {self.retry_after_s}\r\n".encode("ascii")
                + f"Content-Length: {len(body)}\r\n".encode("ascii")
                + b"Connection: close\r\n\r\n"
                + body
            )
        except OSError:
            pass  # the peer gave up first; nothing to refuse
        finally:
            self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A handler fault; a peer that leaves mid-reply is counted in
        # serve.client_aborts instead (ServeHandler._send).
        if self.verbose:
            super().handle_error(request, client_address)
        obs.counter("serve.handler_errors")

    # -- drain -------------------------------------------------------------

    def queue_size(self) -> int:
        """Requests currently waiting for a worker."""
        return self._queue.qsize()

    def drain(self, timeout_s: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, finish the queue, join.

        New connections get an immediate 503 while queued ones complete;
        the started worker threads exit once the queue is empty. Safe to
        call from a signal-handling thread while ``serve_forever`` runs
        in another.
        """
        if self._drained.is_set():
            return
        self.draining = True
        obs.trace_event("serve.drain", queued=self.queue_size())
        if self._accepting:
            self.shutdown()  # stops the accept loop; waits until it did
        for _ in self._threads:
            self._queue.put(_STOP)
        deadline = perf_counter() + timeout_s
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - perf_counter()))
        self._drained.set()
        obs.trace_event("serve.drained")

    def server_close(self) -> None:
        self.drain()
        super().server_close()
        self.replicas.close_all()


def create_server(
    db_path: str,
    host: str = "127.0.0.1",
    port: int = 8700,
    workers: Optional[int] = None,
    queue_depth: int = 128,
    keepalive_idle_s: float = 5.0,
    verbose: bool = False,
    test_routes: bool = False,
) -> ServeServer:
    """Build (but do not start) the serving tier.

    Pass ``port=0`` for an ephemeral port (``server.server_address``).
    Raises :class:`repro.errors.EtlError` if ``db_path`` is not a
    readable ETL store.
    """
    if not os.path.exists(db_path):
        raise EtlError(f"no ETL store at {db_path}")
    return ServeServer(
        (host, port),
        db_path,
        workers=workers,
        queue_depth=queue_depth,
        keepalive_idle_s=keepalive_idle_s,
        verbose=verbose,
        test_routes=test_routes,
    )


def serve(
    db_path: str,
    host: str = "127.0.0.1",
    port: int = 8700,
    workers: Optional[int] = None,
    queue_depth: int = 128,
    verbose: bool = True,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    The accept loop runs on a helper thread; the calling thread waits
    for a shutdown signal so the signal handler only has to set an
    event — ``drain()`` (stop accepting → flush the queue → join the
    workers) runs outside handler context.
    """
    import signal

    server = create_server(
        db_path, host=host, port=port, workers=workers,
        queue_depth=queue_depth, verbose=verbose,
    )
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro.serve listening on http://{bound_host}:{bound_port}/ "
        f"(up to {server.workers} workers, queue depth {server.queue_depth})"
    )
    obs.trace_event(
        "serve.start", host=bound_host, port=bound_port, db=db_path,
        workers=server.workers, queue_depth=server.queue_depth,
    )
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:  # noqa: ARG001
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # non-main thread / exotic platform
            pass
    accept_thread = threading.Thread(
        target=server.serve_forever, name="serve-accept", daemon=True
    )
    accept_thread.start()
    try:
        # Poll rather than block forever: CPython delivers signal
        # handlers on the main thread only between bytecodes, and an
        # untimed Event.wait() can park in an uninterruptible acquire.
        while not stop.wait(timeout=0.5):
            pass
        print("repro.serve draining…")
        server.drain()
        accept_thread.join(timeout=5)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        obs.trace_event("serve.stop", host=bound_host, port=bound_port)
