"""The load generator: schedule, due-time latency, deadline, connection cap."""

from __future__ import annotations

import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from openloop import DEADLINE_S, OpenLoop, connection_cap, poisson_arrivals


class _SleepyHandler(BaseHTTPRequestHandler):
    """``GET /sleep/<ms>``: wait that long, then answer 200 (keep-alive)."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 - http.server API
        self.server.peers.add(self.client_address)
        time.sleep(int(self.path.rsplit("/", 1)[1]) / 1000)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def toy_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _SleepyHandler)
    server.daemon_threads = True
    server.peers = set()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _run(server, arrivals, connections=1):
    loop = OpenLoop("127.0.0.1", server.server_address[1], connections)
    try:
        return sorted(loop.run(arrivals), key=lambda r: r.due)
    finally:
        loop.close()


def test_arrival_schedule_is_deterministic_from_the_seed():
    def choose(rng):
        return f"/p{rng.randrange(10)}"

    first = list(poisson_arrivals(7, 100.0, 2.0, choose))
    assert first == list(poisson_arrivals(7, 100.0, 2.0, choose))
    assert first != list(poisson_arrivals(8, 100.0, 2.0, choose))
    assert 120 < len(first) < 280
    assert all(0 < offset < 2.0 for offset, _ in first)


def test_latency_counts_the_wait_for_a_busy_connection(toy_server):
    first, second = _run(toy_server, [(0.0, "/sleep/50"), (0.01, "/sleep/50")])
    assert first.status == second.status == 200
    # The second request was due 10 ms in but could only be sent once
    # the first freed the one connection ~50 ms in.
    assert second.sent - second.due > 0.03
    assert second.latency >= 0.085
    assert second.latency == pytest.approx(second.done - second.due)
    assert not second.failed


def test_requests_past_the_deadline_fail(toy_server):
    slow_ms = int(DEADLINE_S * 1000) + 100
    late, queued = _run(toy_server, [(0.0, f"/sleep/{slow_ms}"),
                                     (0.01, "/sleep/0")])
    assert late.status == 200 and late.failed
    assert math.isinf(late.latency)
    # Still waiting for the busy connection at its deadline: never sent.
    assert queued.failed and math.isnan(queued.sent)


def test_connection_count_is_capped_at_nproc(toy_server):
    nproc = len(os.sched_getaffinity(0))
    assert connection_cap(64) == nproc
    assert connection_cap(1) == 1
    requests = _run(toy_server, [(0.0, "/sleep/20")] * 16, connections=64)
    assert len(requests) == 16 and not any(r.failed for r in requests)
    assert 1 <= len(toy_server.peers) <= nproc
