"""The explorer documents of :mod:`repro.etl.server`, over a real socket.

The renderers in :mod:`repro.etl.server` produce the hotspot, owner and
witness documents; :mod:`repro.serve` is the HTTP tier that serves them
off read-only replicas of a file-backed store. These checks pin the
HTTP contract on the document routes themselves: every document route
is advertised, unknown explorer paths are 404s, HEAD and the rejected
write verbs behave on a rendered page, and concurrent readers of one
store file all see the same data.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.etl import EtlStore, ingest_chain
from repro.etl.store import ReadReplicas
from repro.serve.server import create_server

from tests.etl_chains import ChainBuilder


def _start(db_path: str, workers: int = 4):
    """A running serving tier over ``db_path``; returns (server, thread)."""
    server = create_server(db_path, port=0, workers=workers)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _ingest(path, seed: int, n_hotspots: int, blocks: int) -> ChainBuilder:
    builder = ChainBuilder(seed=seed, n_hotspots=n_hotspots)
    builder.grow(blocks)
    with EtlStore(str(path)) as store:
        ingest_chain(builder.chain, store)
    return builder


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A live tier over a randomized chain; yields (server, builder)."""
    db_path = tmp_path_factory.mktemp("etl_server") / "etl.db"
    builder = _ingest(db_path, seed=99, n_hotspots=5, blocks=15)
    server, thread = _start(str(db_path))
    yield server, builder
    _stop(server, thread)


def _raw(server, path: str, method: str = "GET"):
    """``(status, headers, body)`` for one request to ``server``."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _json(server, path: str, method: str = "GET"):
    status, headers, body = _raw(server, path, method)
    assert headers["Content-Type"] == "application/json"
    return status, json.loads(body.decode("utf-8"))


class TestRoutes:
    def test_index_lists_routes(self, served):
        server, _ = served
        status, payload = _json(server, "/")
        assert status == 200
        routes = payload["routes"]
        for prefix in (
            "/stats", "/hotspots?", "/hotspot/<", "/owner/<",
            "/coverage/dots", "/search?",
        ):
            assert any(r.startswith(prefix) for r in routes), prefix
        assert any(
            r.startswith("/hotspot/") and "/witnesses" in r for r in routes
        )


class TestErrors:
    def test_unknown_route_is_404(self, served):
        server, builder = served
        gateway = builder.gateways[0]
        wallet = builder.owners[0]
        for path in (
            "/no/such/route",
            "/coverage/squares",
            f"/hotspot/{gateway}/not-a-subresource",
            f"/hotspot/{gateway}/witnesses/extra",
            f"/owner/{wallet}/extra",
        ):
            status, payload = _json(server, path)
            assert status == 404, path
            assert "error" in payload, path


class TestHttpMethods:
    """HEAD mirrors GET's headers on a rendered page; write verbs get
    405 with the allowed methods in both the header and the body."""

    def test_head_has_get_headers_and_no_body(self, served):
        server, builder = served
        path = f"/hotspot/{builder.gateways[0]}"
        get_status, get_headers, body = _raw(server, path, "GET")
        head_status, headers, head_body = _raw(server, path, "HEAD")
        assert (get_status, head_status) == (200, 200)
        assert json.loads(body.decode("utf-8"))["gateway"] == (
            builder.gateways[0]
        )
        assert head_body == b""
        assert headers["Content-Length"] == str(len(body))
        assert headers["Content-Type"] == "application/json"
        assert headers["ETag"] == get_headers["ETag"]

    @pytest.mark.parametrize("method", [
        "POST", "PUT", "DELETE", "PATCH", "OPTIONS",
    ])
    def test_mutating_methods_are_405(self, served, method):
        server, builder = served
        path = f"/hotspot/{builder.gateways[0]}"
        status, headers, body = _raw(server, path, method)
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"
        payload = json.loads(body.decode("utf-8"))
        assert payload["allow"] == "GET, HEAD"
        assert "error" in payload


class TestFileBackedReplicas:
    """Each worker reads the store file through its own read-only
    replica, so concurrent readers never share a handle."""

    def test_file_store_serves_through_replicas(self, tmp_path):
        db_path = str(tmp_path / "etl.db")
        builder = _ingest(db_path, seed=42, n_hotspots=4, blocks=6)
        server, thread = _start(db_path)
        try:
            assert isinstance(server.replicas, ReadReplicas)
            assert server.replicas.path == db_path
            status, payload = _json(server, "/stats")
            assert status == 200
            assert payload["checkpoint_height"] == builder.chain.height
            results = []

            def _hit():
                results.append(_json(server, "/hotspots")[1]["total"])

            readers = [threading.Thread(target=_hit) for _ in range(8)]
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=10)
            assert results == [len(builder.gateways)] * 8
        finally:
            _stop(server, thread)
