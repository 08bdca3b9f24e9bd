"""The serving tier's HTTP/1.1 framing, over raw sockets.

The framing layer in :mod:`repro.serve.server` parses request heads
itself, so these tests speak bytes, not a client library:

* a declared body is never parsed as the next request;
* a malformed head gets a JSON 4xx / 505 with a status line, and the
  connection closes;
* a head must arrive within ``keepalive_idle_s`` as a whole, so a
  client trickling bytes cannot hold a worker;
* pipelined requests are answered in order, each response in one
  write;
* Hypothesis-generated heads (missing colons, oversized lines, bare
  LF, non-ASCII bytes, bodies) only ever get a well-formed reply with
  a status from a fixed set, and leave the server healthy;
* every reply is counted once, a rejected head in ``serve.rejected``,
  and a head cut off by its deadline in ``serve.head_timeouts``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.serve.server import (
    MAX_HEADERS, MAX_LINE, ServeHandler, create_server,
)

from tests.test_serve import LiveServer, _build_db

#: Idle timeout of the fuzzed server: a reply that has not come by
#: then counts as a hang.
IDLE_S = 1.0

_STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [^\r\n]*")


def _exchange(live, data: bytes, timeout: float = 10.0) -> bytes:
    """Send ``data``, half-close, and return everything the server sends
    until it closes the connection."""
    address = (live.host, live.port)
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _responses(data: bytes, head_only=()):
    """Split a response stream into ``(status, headers, body)`` triples,
    framing each body by ``Content-Length``. The i-th response has no
    body if ``i`` is in ``head_only`` (answers to ``HEAD``)."""
    out = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        assert sep, f"unterminated head: {data[:200]!r}"
        lines = head.split(b"\r\n")
        match = _STATUS_LINE.fullmatch(lines[0])
        assert match, f"no status line: {lines[0][:200]!r}"
        headers = {}
        for line in lines[1:]:
            name, colon, value = line.partition(b":")
            assert colon, line
            key = name.decode("ascii").lower()
            headers[key] = value.strip().decode("latin-1")
        length = 0 if len(out) in head_only else int(headers["content-length"])
        out.append((int(match.group(1)), headers, rest[:length]))
        data = rest[length:]
    return out


@pytest.fixture()
def live(db_path):
    _build_db(db_path)
    live = LiveServer(create_server(db_path, port=0, workers=2))
    yield live
    live.close()


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "serve.db")


class TestBodies:
    @pytest.mark.parametrize("request_head, status", [
        (b"POST /stats HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello",
         405),
        (b"POST /stats HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"5\r\nhello\r\n0\r\n\r\n", 405),
        (b"GET /stats HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello", 200),
    ])
    def test_unread_body_is_never_parsed_as_a_request(
        self, live, request_head, status
    ):
        """The stdlib handler answered the GET below with
        ``501 Unsupported method ('helloGET')``: the body it never read
        became the next request line."""
        data = _exchange(
            live, request_head + b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        [(got, headers, body)] = _responses(data)
        assert got == status
        assert headers["connection"] == "close"
        assert json.loads(body)

    @pytest.mark.parametrize("closing", [
        b"GET /stats HTTP/1.0\r\n\r\n",
        b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n",
    ], ids=["http10", "connection-close"])
    def test_requests_behind_a_closing_one_do_not_reset_it(
        self, live, closing
    ):
        """Closing with a pipelined request still unread reset the
        connection: the client's half-close failed with ENOTCONN about
        half the time, and its reply could be lost."""
        behind = b"GET /stats HTTP/1.1\r\nX: " + b"a" * MAX_LINE + b"\r\n\r\n"
        for _ in range(8):
            [(status, headers, body)] = _responses(
                _exchange(live, closing + behind)
            )
            assert status == 200
            assert headers["connection"] == "close"
            assert "checkpoint_height" in json.loads(body)

    def test_zero_length_body_keeps_the_connection(self, live):
        data = _exchange(
            live,
            b"GET /stats HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\n\r\n",
        )
        assert [status for status, _, _ in _responses(data)] == [200, 200]


class TestMalformedHeads:
    @pytest.mark.parametrize("request_head, status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET /stats\r\n\r\n", 400),
        (b"GET /stats FTP/1.1\r\n\r\n", 400),
        (b"GET /stats HTTP/2.0\r\n\r\n", 505),
        (b"GET /stats HTTP/1.1\r\nNoColon\r\n\r\n", 400),
        (b"GET /stats HTTP/1.1\r\n Folded: x\r\n\r\n", 400),
        (b"GET /stats HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
        (b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /stats HTTP/1.1\r\nX: " + b"a" * MAX_LINE + b"\r\n\r\n", 431),
        (b"GET /stats HTTP/1.1\r\n"
         + b"".join(b"X-%d: y\r\n" % i for i in range(MAX_HEADERS + 1))
         + b"\r\n", 431),
    ], ids=["one-word", "two-words", "not-http", "http2", "no-colon",
            "folded", "bad-length", "long-request-line", "long-header",
            "too-many-headers"])
    def test_rejected_as_json_with_a_status_line(
        self, live, request_head, status
    ):
        data = _exchange(live, request_head + b"GET /stats HTTP/1.1\r\n\r\n")
        [(got, headers, body)] = _responses(data)
        assert got == status
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert "error" in json.loads(body)

    def test_limits_are_inclusive(self, live):
        """A header line of exactly MAX_LINE bytes among exactly
        MAX_HEADERS headers is still served."""
        headers = [b"X: " + b"a" * (MAX_LINE - 3)] + [
            b"X-%d: y" % i for i in range(MAX_HEADERS - 1)
        ]
        data = _exchange(
            live,
            b"GET /stats HTTP/1.1\r\n" + b"\r\n".join(headers) + b"\r\n\r\n",
        )
        assert [status for status, _, _ in _responses(data)] == [200]

    def test_bare_lf_and_leading_blank_lines_are_accepted(self, live):
        data = _exchange(live, b"\r\n\nGET /stats HTTP/1.1\nHost: t\n\n")
        assert [status for status, _, _ in _responses(data)] == [200]


class TestHeadDeadline:
    def test_trickled_head_cannot_pin_the_only_worker(self, db_path):
        """Client A sends a head one byte every 0.5 s. With a per-recv
        timeout it held the only worker for all 6 s; with one deadline
        per head it loses the worker after ``keepalive_idle_s``."""
        _build_db(db_path, seed=7, n_hotspots=3, blocks=4)
        live = LiveServer(create_server(
            db_path, port=0, workers=1, keepalive_idle_s=1.0
        ))
        stop = threading.Event()

        def trickle():
            with socket.create_connection(
                (live.host, live.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /stats HTTP/1.1\r\nX-Slow: ")
                for _ in range(12):
                    if stop.wait(0.5):
                        return
                    try:
                        sock.sendall(b"a")
                    except OSError:
                        return  # the server hung up: what should happen

        client_a = threading.Thread(target=trickle, daemon=True)
        try:
            client_a.start()
            time.sleep(0.2)  # A is on the worker now
            started = time.perf_counter()
            status, _, _ = live.request("/stats")
            waited = time.perf_counter() - started
        finally:
            stop.set()
            client_a.join(timeout=10)
            live.close()
        assert status == 200
        assert waited < 2.0, f"client B waited {waited:.2f} s"

    def test_only_a_cut_off_head_counts_as_a_timeout(self, db_path):
        """A connection left idle after its request is not a head
        timeout; one that stops halfway through a head is."""
        _build_db(db_path, seed=7, n_hotspots=3, blocks=4)
        live = LiveServer(create_server(
            db_path, port=0, workers=2, keepalive_idle_s=0.3
        ))

        def until_closed(head: bytes) -> bytes:
            # The server hangs up once its deadline passes.
            with socket.create_connection(
                (live.host, live.port), timeout=10
            ) as sock:
                sock.sendall(head)
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
            return data

        def timeouts() -> int:
            return obs.snapshot()["counters"].get("serve.head_timeouts", 0)

        try:
            before = timeouts()
            idle = until_closed(b"GET /stats HTTP/1.1\r\n\r\n")
            assert [s for s, _, _ in _responses(idle)] == [200]
            assert timeouts() == before
            assert until_closed(b"GET /stats HTTP/1.1\r\nX-Slow: a") == b""
            assert timeouts() == before + 1
        finally:
            live.close()

    def test_pipelined_bytes_survive_the_deadline_reader(self, live):
        """Bytes read past one head belong to the next request."""
        address = (live.host, live.port)
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(b"GET /stats HTTP/1.1\r\n\r\nGET /hea")
            time.sleep(0.2)
            sock.sendall(b"lthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        statuses = [(s, json.loads(b)) for s, _, b in _responses(data)]
        assert [s for s, _ in statuses] == [200, 200]
        assert "checkpoint_height" in statuses[0][1]
        assert statuses[1][1]["status"] == "ok"


class _CountingSocket:
    """A socket proxy that records every ``sendall``."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def sendall(self, data):
        self._writes.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_each_response_leaves_in_one_write(live, monkeypatch):
    writes = []
    real_setup = ServeHandler.setup

    def counting_setup(self):
        real_setup(self)
        self.connection = _CountingSocket(self.connection, writes)

    monkeypatch.setattr(ServeHandler, "setup", counting_setup)
    data = _exchange(
        live,
        b"GET /stats HTTP/1.1\r\n\r\nHEAD /stats HTTP/1.1\r\n\r\n"
        b"GET /nope HTTP/1.1\r\n\r\nPOST /stats HTTP/1.1\r\n\r\n",
    )
    assert [s for s, _, _ in _responses(data, head_only={1})] == [
        200, 200, 404, 405,
    ]
    assert len(writes) == 4
    assert b"".join(writes) == data
    assert all(w.startswith(b"HTTP/1.1 ") for w in writes)


# -- fuzzing ---------------------------------------------------------------

_ALLOWED = {200, 304, 400, 404, 405, 414, 431, 505}

_PATHS = [
    "/", "/stats", "/hotspots?limit=3", "/hotspots?limit=-1",
    "/hotspots?cursor=bogus", "/coverage/dots", "/search?q=a", "/healthz",
    "/metrics", "/no/such/route", "//stats", "http://[x/", "*",
]

#: One line's bytes: anything but a line terminator, non-ASCII included.
_LINE_BYTES = st.binary(max_size=40).map(
    lambda b: b.replace(b"\r", b"").replace(b"\n", b"")
)

_request_lines = st.one_of(
    st.builds(
        lambda method, path, version: b" ".join([method, path, version]),
        # No HEAD: whether its reply has a body depends on whether the
        # rest of the head parses. The one-write test above and
        # tests/test_serve.py cover HEAD.
        st.sampled_from([b"GET", b"POST", b"DELETE", b"get", b"G\xc3T",
                         b"BREW"]),
        st.one_of(st.sampled_from(_PATHS).map(str.encode), _LINE_BYTES),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1",
                         b"HTTP/0.9", b"http/1.1", b"HTTP/1.1 extra"]),
    ),
    # Never empty: blank lines before a request are skipped, so an
    # empty "request line" rightly gets no reply at all.
    _LINE_BYTES.filter(bool),
    st.just(b"GET /" + b"a" * (MAX_LINE + 1) + b" HTTP/1.1"),
)

_header_lines = st.one_of(
    st.builds(
        lambda name, value: name + b": " + value,
        st.sampled_from([b"Host", b"Accept", b"If-None-Match", b"Connection",
                         b"X-\xff", b"Bad Name", b""]),
        _LINE_BYTES,
    ),
    _LINE_BYTES,  # missing colons, stray bytes
    st.just(b"X-Long: " + b"a" * (MAX_LINE + 1)),
)


@st.composite
def _requests(draw):
    """One raw request: a head, maybe a declared body."""
    lines = [draw(_request_lines)]
    if draw(st.integers(0, 9)) == 0:
        lines += [b"X-%d: y" % i for i in range(MAX_HEADERS + 1)]
    else:
        lines += draw(st.lists(_header_lines, max_size=6))
    body = b""
    framing = draw(st.sampled_from(["none", "length", "chunked"]))
    if framing == "length":
        body = draw(st.binary(max_size=64))
        lines.append(b"Content-Length: %d" % len(body))
    elif framing == "chunked":
        lines.append(b"Transfer-Encoding: chunked")
        body = b"3\r\nabc\r\n0\r\n\r\n"
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    # A header line that is itself blank ends the head early; what
    # follows is then a second request, as on the wire.
    return eol.join(lines) + eol + eol + body


@pytest.fixture(scope="class")
def fuzzed(tmp_path_factory):
    db_path = str(tmp_path_factory.mktemp("fuzz") / "serve.db")
    _build_db(db_path, seed=5, n_hotspots=4, blocks=6)
    live = LiveServer(create_server(
        db_path, port=0, workers=2, keepalive_idle_s=IDLE_S
    ))
    live.counters = dict(obs.snapshot()["counters"])
    #: Every reply the tests below read, by status.
    live.replies = Counter()
    yield live
    live.close()


class TestFuzzedHeads:
    """Runs in order: the last test checks what the others left."""

    @settings(max_examples=60, deadline=None)
    @given(raw=_requests())
    def test_every_reply_is_well_formed(self, fuzzed, raw):
        started = time.perf_counter()
        data = _exchange(fuzzed, raw, timeout=IDLE_S + 3)
        assert time.perf_counter() - started < IDLE_S + 1, "hang"
        # The first response answers the request line that was sent;
        # later ones, if any, answer what followed a blank header line.
        replies = _responses(data)
        fuzzed.replies.update(status for status, _, _ in replies)
        assert replies, f"no reply to {raw[:200]!r}"
        for status, headers, _ in replies:
            assert status in _ALLOWED, (status, raw[:200])
            assert {"content-length", "server", "date"} <= set(headers)

    @settings(max_examples=25, deadline=None)
    @given(paths=st.lists(st.sampled_from(_PATHS[:10]), min_size=1,
                          max_size=6))
    def test_pipelined_gets_answered_in_order(self, fuzzed, paths):
        expected = [fuzzed.request(path)[::2] for path in paths]
        raw = b"".join(
            b"GET %s HTTP/1.1\r\nHost: t\r\n\r\n" % path.encode()
            for path in paths
        )
        replies = _responses(_exchange(fuzzed, raw))
        fuzzed.replies.update(status for status, _ in expected)
        fuzzed.replies.update(status for status, _, _ in replies)
        assert len(replies) == len(paths)
        for (status, _, body), (want_status, want_body), path in zip(
            replies, expected, paths
        ):
            assert status == want_status, path
            # The index, /metrics and /healthz describe the process at
            # that moment, not the replica.
            if path not in ("/", "/metrics", "/healthz"):
                assert body == want_body, path

    def test_server_is_healthy_afterwards(self, fuzzed):
        """Every reply above was counted once: in ``serve.requests`` when
        its head parsed, in ``serve.rejected`` when the framing refused
        it; no head timed out. No 5xx besides shedding, no handler
        error, and it answers."""
        after = obs.snapshot()["counters"]
        grown = {key for key in after
                 if after[key] != fuzzed.counters.get(key, 0)}
        counted: Counter = Counter()
        rejected: Counter = Counter()
        for key in grown:
            match = re.fullmatch(
                r"serve\.(requests|rejected)\{(?:route=[^,]*,)?"
                r"status=(\d+)\}", key,
            )
            if match:
                delta = after[key] - fuzzed.counters.get(key, 0)
                counted[int(match.group(2))] += delta
                if match.group(1) == "rejected":
                    rejected[int(match.group(2))] += delta
        assert counted == fuzzed.replies
        assert set(rejected) <= {400, 414, 431, 505}
        for status in (414, 431, 505):  # only the framing sends these
            assert rejected[status] == fuzzed.replies[status]
        assert "serve.head_timeouts" not in grown
        assert any(key.startswith("serve.requests{") for key in grown)
        # A 505 refusing an HTTP/2 head is a rejection, checked above.
        assert not {
            key for key in grown
            if (re.search(r"status=5(?!03)", key)
                and not key.startswith("serve.rejected{"))
            or key == "serve.handler_errors"
        }
        status, _, payload = fuzzed.get_json("/healthz")
        assert (status, payload["status"]) == (200, "ok")
