"""The serving tier, end-to-end over real sockets.

Covers the explorer routes (pages equal to those of the chain-walk
oracle ``tests.reference_twins.ChainExplorer``, 4xx handling,
``/metrics``)
and the four behaviours that let :mod:`repro.serve` take traffic:

* checkpoint-keyed ETags — ``If-None-Match`` collapses to 304 while the
  checkpoint stands still and *stops validating* the moment ingest
  advances it;
* cursor pagination — a ``next_cursor`` walk visits every row exactly
  once, stays stable under concurrent ingest, and rejects tampered
  tokens as clean 400s;
* bounded backpressure — a full queue sheds 503 + ``Retry-After``, and
  ``drain()`` finishes queued work before the workers exit;
* reads-under-ingest — N reader threads against a store being actively
  ingested see no "database is locked" and only snapshot-consistent
  bodies.
"""

from __future__ import annotations

import base64
import http.client
import json
import socket
import struct
import threading
import time
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.errors import EtlError
from repro.etl import EtlStore, ingest_chain
from repro.etl.server import owner_to_json, page_to_json
from repro.etl.store import MAX_PAGE_LIMIT
from repro.experiments import context
from repro.serve import cache as cache_module
from repro.serve.cache import (
    MAX_ENTRIES, ResponseCache, etag_for, etag_matches,
)
from repro.serve.cli import _open_or_ingest
from repro.serve.cursor import (
    MAX_POSITION, CursorError, _tag, decode_cursor, encode_cursor,
)
from repro.serve.server import ServeHandler, create_server, default_workers

from tests.etl_chains import ChainBuilder
from tests.reference_twins import ChainExplorer


# -- harness ---------------------------------------------------------------


class LiveServer:
    """A running ServeServer plus plain http.client access to it."""

    def __init__(self, server):
        self.server = server
        self.thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        self.thread.start()
        self.host, self.port = server.server_address[:2]

    def request(self, path, method="GET", headers=None):
        """``(status, headers_dict, body_bytes)`` for one request."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request(method, path, headers=headers or {})
            response = conn.getresponse()
            body = response.read()
            return response.status, dict(response.getheaders()), body
        finally:
            conn.close()

    def get_json(self, path, headers=None):
        status, resp_headers, body = self.request(path, headers=headers)
        payload = json.loads(body.decode("utf-8")) if body else None
        return status, resp_headers, payload

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def _counter(name):
    """A counter of the process registry the in-process servers share."""
    return obs.snapshot()["counters"].get(name, 0)


def _build_db(path, seed=21, n_hotspots=8, blocks=12):
    """Ingest a fresh randomized chain into ``path``; returns builder."""
    builder = ChainBuilder(seed=seed, n_hotspots=n_hotspots)
    builder.grow(blocks)
    with EtlStore(str(path)) as store:
        ingest_chain(builder.chain, store)
    return builder


@pytest.fixture()
def db_path(tmp_path):
    return str(tmp_path / "serve.db")


@pytest.fixture()
def live(db_path):
    """A live serving tier over a freshly ingested store."""
    builder = _build_db(db_path)
    server = create_server(db_path, port=0, workers=4, test_routes=True)
    live = LiveServer(server)
    live.builder = builder
    live.db_path = db_path
    yield live
    live.close()


@pytest.fixture(scope="module")
def explorer(tmp_path_factory):
    """One live tier shared by the read-only route checks."""
    db_path = str(tmp_path_factory.mktemp("explorer") / "serve.db")
    builder = _build_db(db_path, seed=99, n_hotspots=5, blocks=15)
    live = LiveServer(create_server(db_path, port=0, workers=4))
    live.builder = builder
    yield live
    live.close()


def _walk_cursor(live, limit):
    """Follow next_cursor from the start; returns the gateways seen."""
    seen = []
    path = f"/hotspots?limit={limit}"
    for _ in range(1000):  # bounded: a broken walk must not hang the test
        status, _, payload = live.get_json(path)
        assert status == 200
        seen.extend(h["gateway"] for h in payload["hotspots"])
        if payload["next_cursor"] is None:
            return seen
        path = f"/hotspots?limit={limit}&cursor={payload['next_cursor']}"
    raise AssertionError("cursor walk did not terminate")


def _mint(payload: bytes) -> str:
    """A token with a valid integrity tag around any payload bytes: the
    tag is no secret, so any client can make one."""
    raw = payload + b"." + _tag(payload).encode("ascii")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

#: Tokens with a valid tag around JSON payloads: right or wrong version
#: and kind, and positions of every JSON type, SQLite's bound included.
_MINTED = st.builds(
    lambda fields: _mint(json.dumps(fields).encode("utf-8")),
    _JSON | st.fixed_dictionaries({
        "v": st.just(2) | _JSON,
        "k": st.just("hotspots") | _JSON,
        "a": st.integers(min_value=MAX_POSITION - 2,
                         max_value=MAX_POSITION + 2)
        | st.integers(min_value=-2**70, max_value=2**70) | _JSON,
    }),
)


# -- ETag / caching --------------------------------------------------------


class TestEtagCaching:
    def test_200_carries_etag_and_checkpoint(self, live):
        status, headers, payload = live.get_json("/hotspots")
        assert status == 200
        assert headers["ETag"].startswith('W/"ck')
        assert int(headers["X-Checkpoint"]) == live.builder.chain.height
        assert payload["checkpoint"] == live.builder.chain.height

    def test_if_none_match_revalidates_to_304(self, live):
        _, headers, _ = live.get_json("/stats")
        etag = headers["ETag"]
        status, headers_304, body = live.request(
            "/stats", headers={"If-None-Match": etag}
        )
        assert status == 304
        assert body == b""
        assert headers_304["ETag"] == etag

    def test_repeat_request_is_a_cache_hit(self, live):
        live.server.cache.clear()
        _, _, first = live.get_json("/coverage/dots")
        assert live.server.cache.stats()[0] == 0  # seen once: no body
        _, _, second = live.get_json("/coverage/dots")
        assert live.server.cache.stats()[0] == 1  # asked again: stored
        hits = _counter("serve.cache.hit")
        _, _, third = live.get_json("/coverage/dots")
        assert _counter("serve.cache.hit") == hits + 1
        assert first == second == third

    def test_first_render_carries_its_etag_and_revalidates(self, live):
        live.server.cache.clear()
        status, headers, _ = live.request("/hotspots?limit=3")
        assert status == 200
        checkpoint = int(headers["X-Checkpoint"])
        assert headers["ETag"] == etag_for("/hotspots?limit=3", checkpoint)
        assert live.server.cache.stats()[0] == 0
        status, headers_304, body = live.request(
            "/hotspots?limit=3", headers={"If-None-Match": headers["ETag"]}
        )
        assert (status, body) == (304, b"")
        assert headers_304["ETag"] == headers["ETag"]

    def test_page_seen_before_a_commit_is_stored_on_its_first_render_after(
        self, live
    ):
        live.server.cache.clear()
        live.get_json("/stats")  # a marker
        live.get_json("/hotspots")
        live.get_json("/hotspots")  # a body
        assert live.server.cache.stats()[0] == 1
        live.builder.grow(2)
        with EtlStore(live.db_path) as writer:
            ingest_chain(live.builder.chain, writer)
        invalidated = _counter("serve.cache.invalidated")
        for path in ("/stats", "/hotspots"):
            live.get_json(path)
        assert _counter("serve.cache.invalidated") == invalidated + 1
        assert live.server.cache.stats()[0] == 2
        hits = _counter("serve.cache.hit")
        for path in ("/stats", "/hotspots"):
            _, headers, _ = live.get_json(path)
            assert int(headers["X-Checkpoint"]) == live.builder.chain.height
        assert _counter("serve.cache.hit") == hits + 2

    @pytest.mark.parametrize("path, status", [
        ("/hotspot/nope", 404),
        ("/hotspots?limit=abc", 400),
        ("/stats", 304),
    ])
    def test_star_matches_only_a_page_that_exists(self, live, path, status):
        # Three times: a first render, a stored render and, for a 200,
        # a cache hit.
        live.server.cache.clear()
        for _ in range(3):
            got, headers, body = live.request(
                path, headers={"If-None-Match": "*"}
            )
            assert got == status, body
            assert ("ETag" in headers) == (status == 304)

    def test_checkpoint_advance_invalidates_stale_etag(self, live):
        """The acceptance-criteria staleness test: grow the chain, ingest
        it into the live store, and the old ETag must stop validating —
        the conditional request gets a fresh 200 at the new checkpoint.
        """
        _, headers, payload = live.get_json("/hotspots")
        old_etag = headers["ETag"]
        old_checkpoint = int(headers["X-Checkpoint"])

        live.builder.grow(3)  # ingest advances the checkpoint
        with EtlStore(live.db_path) as writer:
            ingest_chain(live.builder.chain, writer)

        status, headers, payload = live.get_json(
            "/hotspots", headers={"If-None-Match": old_etag}
        )
        assert status == 200  # not 304: the old tag no longer validates
        assert headers["ETag"] != old_etag
        assert int(headers["X-Checkpoint"]) > old_checkpoint
        assert payload["checkpoint"] == live.builder.chain.height

        # ... and the *new* tag does validate.
        status, _, _ = live.request(
            "/hotspots", headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 304

    def test_metrics_and_healthz_are_never_cached(self, live):
        for path in ("/metrics", "/healthz"):
            _, headers, _ = live.get_json(path)
            assert "ETag" not in headers


class TestCacheUnit:
    def test_etag_embeds_checkpoint(self):
        assert etag_for("/stats", 7) != etag_for("/stats", 8)
        assert etag_for("/stats", 7) == etag_for("/stats", 7)

    def test_etag_matches_weak_and_star(self):
        etag = etag_for("/stats", 7)
        assert etag_matches(etag, etag)
        assert etag_matches(etag[2:], etag)  # strong form of same tag
        assert etag_matches(f"{etag}, W/\"other\"", etag)
        assert etag_matches("*", etag)
        assert not etag_matches(None, etag)
        assert not etag_matches(etag_for("/stats", 8), etag)

    def test_checkpoint_mismatch_drops_entry(self):
        cache = ResponseCache()
        for _ in range(2):
            cache.put("/a", 1, b"{}", "application/json")
        assert cache.get("/a", 2) is None
        assert cache.get("/a", 1) is None  # dropped, not resurrected

    def test_lru_eviction_at_capacity(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache = ResponseCache()
        for _ in range(2):
            cache.put("/a", 1, b"a", "t")
        for _ in range(2):
            cache.put("/b", 1, b"b", "t")
        cache.get("/a", 1)  # touch /a so /b is the LRU victim
        for _ in range(2):
            cache.put("/c", 1, b"c", "t")
        assert cache.get("/b", 1) is None
        assert cache.get("/a", 1) is not None

    def test_one_hit_scan_holds_no_body(self):
        cache = ResponseCache()
        scan = MAX_ENTRIES + 500
        declined = _counter("serve.cache.declined")
        for index in range(scan):
            canonical = f"/hotspot/hs_{index}"
            assert cache.get(canonical, 1) is None
            assert cache.put(canonical, 1, b"{}", "application/json") is None
        assert cache.stats() == (0, MAX_ENTRIES)
        assert len(cache._entries) <= MAX_ENTRIES
        assert _counter("serve.cache.declined") == declined + scan


# -- cursor pagination -----------------------------------------------------


class TestCursorPagination:
    def test_walk_visits_every_hotspot_once(self, live):
        expected = sorted(live.builder.gateways)
        for limit in (1, 3, 50):
            seen = _walk_cursor(live, limit)
            assert sorted(seen) == expected
            assert len(seen) == len(set(seen))  # no duplicates

    def test_offset_form_still_works_and_has_no_cursor(self, live):
        status, _, payload = live.get_json("/hotspots?limit=2&offset=1")
        assert status == 200
        assert payload["next_cursor"] is None
        _, _, full = live.get_json("/hotspots?limit=50")
        assert payload["hotspots"] == full["hotspots"][1:3]

    def test_cursor_and_offset_together_is_400(self, live):
        token = encode_cursor("hotspots", 1)
        status, _, payload = live.get_json(
            f"/hotspots?cursor={token}&offset=2"
        )
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize("token", [
        "notacursor",
        encode_cursor("hotspots", 3)[:-4] + "AAAA",  # tampered tag
        encode_cursor("witnesses", 3),  # wrong kind
        "",
        "x" * 300,  # oversized
        encode_cursor("hotspots", 2**63),  # a position SQLite cannot bind
    ])
    def test_invalid_cursor_is_400(self, live, token):
        status, _, payload = live.get_json(f"/hotspots?cursor={token}")
        assert status == 400
        assert "error" in payload

    def test_walk_is_stable_under_concurrent_ingest(self, live):
        """No dups and no gaps: every hotspot present before the walk
        started is seen exactly once, even while ingest rewrites the
        ledger tables between pages.
        """
        before = set(live.builder.gateways)
        seen = []
        path = "/hotspots?limit=2"
        page_index = 0
        while True:
            status, _, payload = live.get_json(path)
            assert status == 200
            seen.extend(h["gateway"] for h in payload["hotspots"])
            if page_index == 1:
                # Mid-walk: advance the chain and re-ingest.
                live.builder.grow(2)
                with EtlStore(live.db_path) as writer:
                    ingest_chain(live.builder.chain, writer)
            if payload["next_cursor"] is None:
                break
            path = f"/hotspots?limit=2&cursor={payload['next_cursor']}"
            page_index += 1
        assert len(seen) == len(set(seen)), "cursor walk produced dups"
        assert before <= set(seen), "cursor walk dropped a pre-walk row"


class TestCursorUnit:
    @given(after=st.integers(min_value=0, max_value=2**53))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, after):
        assert decode_cursor(encode_cursor("hotspots", after),
                             "hotspots") == after

    @given(junk=st.text(max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_text_never_decodes_silently(self, junk):
        try:
            value = decode_cursor(junk, "hotspots")
        except CursorError:
            return
        # Only a genuine token may decode — and then it must roundtrip.
        assert encode_cursor("hotspots", value) == junk

    def test_kind_namespacing(self):
        token = encode_cursor("hotspots", 9)
        with pytest.raises(CursorError):
            decode_cursor(token, "owners")

    def test_negative_position_rejected(self):
        with pytest.raises(CursorError):
            decode_cursor(encode_cursor("hotspots", -1), "hotspots")

    @given(token=st.one_of(st.text(max_size=64), _MINTED))
    @example(token=encode_cursor("hotspots", MAX_POSITION + 1))
    @settings(max_examples=300, deadline=None)
    def test_any_token_is_a_position_or_a_cursor_error(self, token):
        try:
            after = decode_cursor(token, "hotspots")
        except CursorError:
            return
        assert type(after) is int and 0 <= after <= MAX_POSITION


class TestStoreCursorRows:
    @given(
        limits=st.lists(
            st.integers(min_value=1, max_value=7), min_size=1, max_size=8
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_keyset_pages_tile_the_table(self, limits):
        """Pages fetched with varying limits concatenate to exactly the
        full listing — no row repeated, none skipped.
        """
        store = _keyset_store()
        full = [
            (gateway, name, token)
            for _, gateway, name, token in store.hotspot_cursor_rows(
                0, 10_000
            )
        ]
        collected = []
        after = 0
        index = 0
        while True:
            limit = limits[index % len(limits)]
            index += 1
            rows = store.hotspot_cursor_rows(after, limit)
            page = rows[:limit]
            if not page:
                break
            collected.extend(
                (gateway, name, token) for _, gateway, name, token in page
            )
            if len(rows) <= limit:
                break
            after = page[-1][0]
        assert collected == full


_KEYSET_STORE = None


def _keyset_store():
    """One shared in-memory store for the Hypothesis tiling test."""
    global _KEYSET_STORE
    if _KEYSET_STORE is None:
        builder = ChainBuilder(seed=5, n_hotspots=12)
        builder.grow(8)
        _KEYSET_STORE = EtlStore()
        ingest_chain(builder.chain, _KEYSET_STORE)
    return _KEYSET_STORE


# -- HTTP conformance ------------------------------------------------------


class TestHttpConformance:
    def test_head_matches_get_headers_with_empty_body(self, live):
        get_status, get_headers, body = live.request("/stats")
        head_status, head_headers, head_body = live.request(
            "/stats", method="HEAD"
        )
        assert (get_status, head_status) == (200, 200)
        assert head_body == b""
        assert head_headers["Content-Length"] == str(len(body))
        assert head_headers["Content-Type"] == get_headers["Content-Type"]

    @pytest.mark.parametrize("method", [
        "POST", "PUT", "DELETE", "PATCH", "OPTIONS",
    ])
    def test_write_methods_are_405_with_allow(self, live, method):
        status, headers, body = live.request("/stats", method=method)
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"
        assert "error" in json.loads(body.decode("utf-8"))

    def test_unknown_route_is_404(self, live):
        status, _, payload = live.get_json("/no/such/route")
        assert status == 404
        assert "error" in payload

    def test_healthz_reports_pool_state(self, live):
        status, _, payload = live.get_json("/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["workers"] == 4
        assert payload["workers_started"] == 1
        assert payload["replicas_open"] == 0  # /healthz reads no store
        assert payload["queue_limit"] == live.server.queue_depth

    def test_index_lists_routes(self, live):
        status, _, payload = live.get_json("/")
        assert status == 200
        assert "/stats" in payload["routes"]
        assert any("cursor" in route for route in payload["routes"])

    def test_metrics_counts_serve_requests(self, live):
        live.get_json("/stats")
        _, _, payload = live.get_json("/metrics")
        keys = [k for k in payload["counters"]
                if k.startswith("serve.requests{route=stats")]
        assert keys, payload["counters"]

    def test_create_server_rejects_missing_db(self, tmp_path):
        with pytest.raises(EtlError):
            create_server(str(tmp_path / "absent.db"))


# -- explorer routes -------------------------------------------------------


def _ok(live, path):
    status, headers, payload = live.get_json(path)
    assert status == 200, (path, payload)
    assert headers["Content-Type"] == "application/json"
    return payload


class TestExplorerRoutes:
    """Served pages equal the renders of the chain-walk oracle's pages."""

    def test_hotspot_by_address(self, explorer):
        gateway = explorer.builder.gateways[0]
        expected = page_to_json(ChainExplorer(explorer.builder.chain).hotspot(
            gateway
        ))
        assert _ok(explorer, f"/hotspot/{gateway}") == expected

    def test_hotspot_by_name(self, explorer):
        gateway = explorer.builder.gateways[1]
        page = ChainExplorer(explorer.builder.chain).hotspot(gateway)
        slug = quote(page.name.replace(" ", "-"))
        assert _ok(explorer, f"/hotspot/{slug}") == page_to_json(page)

    def test_owner(self, explorer):
        wallet = explorer.builder.owners[0]
        expected = owner_to_json(ChainExplorer(explorer.builder.chain).owner(
            wallet
        ))
        assert _ok(explorer, f"/owner/{wallet}") == expected

    def test_hotspot_witnesses(self, explorer):
        gateway = explorer.builder.gateways[2]
        payload = _ok(explorer, f"/hotspot/{gateway}/witnesses?limit=5")
        assert payload["gateway"] == gateway
        assert len(payload["witnesses"]) <= 5
        for event in payload["witnesses"]:
            assert set(event) == {
                "block", "counterparty", "counterparty_name",
                "rssi_dbm", "distance_km", "valid",
            }

    def test_hotspots_listing_paginates(self, explorer):
        full = _ok(explorer, "/hotspots")
        assert full["total"] == len(explorer.builder.gateways)
        page = _ok(explorer, "/hotspots?limit=2&offset=1")
        assert [h["gateway"] for h in page["hotspots"]] == [
            h["gateway"] for h in full["hotspots"][1:3]
        ]

    def test_coverage_dots(self, explorer):
        payload = _ok(explorer, "/coverage/dots")
        located = [
            record.location_token
            for record in explorer.builder.chain.ledger.hotspots.values()
            if record.location_token is not None
        ]
        assert {dot["token"] for dot in payload["dots"]} == set(located)
        assert sum(dot["hotspots"] for dot in payload["dots"]) == len(
            located
        )

    def test_search(self, explorer):
        chain = explorer.builder.chain
        name = ChainExplorer(chain).hotspot(explorer.builder.gateways[0]).name
        needle = name.split()[0].lower()
        payload = _ok(explorer, f"/search?q={quote(needle)}")
        assert any(m["name"] == name for m in payload["matches"])

    def test_stats(self, explorer):
        chain = explorer.builder.chain
        payload = _ok(explorer, "/stats")
        assert payload["checkpoint_height"] == chain.height
        assert payload["tip_hash"] == chain.tip.hash
        assert payload["tables"]["blocks"] == len(chain.blocks)


class TestExplorerErrors:
    def test_unknown_hotspot_is_404(self, explorer):
        status, _, payload = explorer.get_json("/hotspot/hs_not_a_real_one")
        assert status == 404
        assert "error" in payload

    @pytest.mark.parametrize("path", [
        "/hotspots?limit=-1",
        "/hotspots?offset=-1",
        "/hotspots?limit=notanint",
        "/hotspots?offset=notanint",
        "/hotspots?offset=9223372036854775808",  # 2**63: SQLite overflows
        "/hotspots?limit=banana",
        "/search?q=a&limit=-5",
        "/search?q=a&limit=nan",
        "/hotspot/{gateway}/witnesses?limit=-1",
    ])
    def test_negative_or_non_integer_paging_is_400(self, explorer, path):
        # A negative limit must never reach SQLite, where LIMIT -1
        # means "no limit" and dumps the whole table.
        path = path.format(gateway=explorer.builder.gateways[0])
        status, _, payload = explorer.get_json(path)
        assert status == 400
        assert "error" in payload

    def test_huge_limit_clamps_instead_of_unbounding(self, explorer):
        payload = _ok(explorer, "/hotspots?limit=999999999")
        # Clamped, not rejected: the page is bounded by MAX_PAGE_LIMIT.
        assert len(payload["hotspots"]) == min(
            len(explorer.builder.gateways), MAX_PAGE_LIMIT
        )

    def test_zero_limit_is_an_empty_page(self, explorer):
        assert _ok(explorer, "/hotspots?limit=0")["hotspots"] == []

    def test_largest_offset_is_an_empty_page(self, explorer):
        path = f"/hotspots?offset={MAX_POSITION}"
        assert _ok(explorer, path)["hotspots"] == []

    @given(token=st.one_of(st.text(max_size=64), _MINTED))
    @example(token=encode_cursor("hotspots", MAX_POSITION))
    @example(token=encode_cursor("hotspots", MAX_POSITION + 1))
    @settings(max_examples=60, deadline=None)
    def test_any_cursor_is_a_page_or_a_json_400(self, explorer, token):
        errors = _counter("serve.handler_errors")
        status, headers, body = explorer.request(
            f"/hotspots?cursor={quote(token)}"
        )
        assert status in (200, 400), body
        assert headers["Content-Type"] == "application/json"
        assert "error" in json.loads(body) or status == 200
        assert _counter("serve.handler_errors") == errors

    def test_a_handler_fault_is_a_json_500_never_a_200(
        self, live, monkeypatch
    ):
        def _fault(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(ServeHandler, "_render", _fault)
        ok = _counter("serve.requests{route=stats,status=200}")
        failed = _counter("serve.requests{route=stats,status=500}")
        errors = _counter("serve.handler_errors")
        status, headers, payload = live.get_json("/stats")
        assert status == 500 and "error" in payload
        assert headers["Connection"] == "close"
        live.server._queue.join()  # the worker has recorded the error
        assert _counter("serve.requests{route=stats,status=200}") == ok
        assert _counter("serve.requests{route=stats,status=500}") == (
            failed + 1
        )
        assert _counter("serve.handler_errors") == errors + 1

    def test_a_client_that_leaves_mid_reply_is_an_abort_not_a_fault(
        self, live, monkeypatch
    ):
        # An 8 MB body outgrows the socket buffers, so the write is
        # still going when the client resets the connection.
        monkeypatch.setattr(
            ServeHandler, "_render",
            lambda *args: ({"blob": "x" * (8 << 20)}, 200),
        )
        aborts = _counter("serve.client_aborts")
        errors = _counter("serve.handler_errors")
        with socket.create_connection((live.host, live.port)) as sock:
            sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            assert sock.recv(64).startswith(b"HTTP/1.1 200 ")
            # Linger 0: close resets the connection with the body unread.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        live.server._queue.join()  # the worker is done with it
        assert _counter("serve.client_aborts") == aborts + 1
        assert _counter("serve.handler_errors") == errors
        status, _, payload = live.get_json("/healthz")
        assert (status, payload["status"]) == (200, "ok")

    def test_a_reset_before_a_whole_head_is_a_close_not_a_fault(self, live):
        aborts = _counter("serve.client_aborts")
        errors = _counter("serve.handler_errors")
        with socket.create_connection((live.host, live.port)) as sock:
            sock.sendall(b"GET /sta")
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        # Accepted after the reset one, so by its reply that one is
        # queued, and the join waits for it too.
        assert live.get_json("/healthz")[0] == 200
        live.server._queue.join()
        assert _counter("serve.client_aborts") == aborts
        assert _counter("serve.handler_errors") == errors


class TestMetricsRoute:
    def test_json_metrics_cover_routes(self, explorer):
        _ok(explorer, "/stats")  # guarantee at least one counted request
        payload = _ok(explorer, "/metrics")
        assert set(payload) == {"counters", "gauges", "timers"}
        counters, timers = payload["counters"], payload["timers"]
        assert counters["serve.requests{route=stats,status=200}"] >= 1
        assert timers["serve.latency_s{route=stats}"]["count"] >= 1

    def test_error_statuses_are_labelled(self, explorer):
        explorer.get_json("/hotspots?limit=-1")
        counters = _ok(explorer, "/metrics")["counters"]
        assert counters["serve.requests{route=hotspots,status=400}"] >= 1

    def test_prometheus_format(self, explorer):
        _ok(explorer, "/stats")
        status, headers, body = explorer.request(
            "/metrics?format=prometheus"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_requests_total{route="stats",status="200"}' in (
            text
        )
        assert "repro_serve_latency_s_bucket" in text

    def test_unknown_format_is_400(self, explorer):
        status, _, payload = explorer.get_json("/metrics?format=xml")
        assert status == 400
        assert "error" in payload

    def test_index_advertises_metrics(self, explorer):
        routes = _ok(explorer, "/")["routes"]
        assert any("/metrics" in route for route in routes)


# -- keep-alive ------------------------------------------------------------


def _recv_response(sock):
    """One Content-Length-framed response off a raw socket."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError(f"EOF before headers: {raw!r}")
        raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    length = None
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    assert length is not None, head
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("EOF mid-body")
        body += chunk
    return head, body


class TestKeepAlive:
    def test_two_requests_on_one_connection(self, live):
        """HTTP/1.1 default: sequential requests reuse the socket."""
        import socket

        with socket.create_connection(
            (live.host, live.port), timeout=10
        ) as sock:
            for _ in range(2):
                sock.sendall(
                    b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                head, body = _recv_response(sock)
                assert head.startswith(b"HTTP/1.1 200")
                json.loads(body.decode("utf-8"))

    def test_keep_alive_bodies_do_not_wait_for_delayed_ack(self, live):
        """When headers and body left in two writes, Nagle held each
        body for the client's delayed ACK (~40 ms a response, ~800 ms
        for these 20). One write per response, with TCP_NODELAY, sends
        it at once."""
        _, _, listing = live.get_json("/hotspots?limit=20")
        gateways = [h["gateway"] for h in listing["hotspots"]]
        conn = http.client.HTTPConnection(live.host, live.port, timeout=10)
        try:
            started = time.perf_counter()
            for i in range(20):
                conn.request("GET", f"/hotspot/{gateways[i % len(gateways)]}")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["gateway"]
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive responses took {elapsed:.3f} s"

    def test_http10_client_still_closes_per_request(self, live):
        import socket

        with socket.create_connection(
            (live.host, live.port), timeout=10
        ) as sock:
            sock.sendall(b"GET /stats HTTP/1.0\r\nHost: t\r\n\r\n")
            head, _ = _recv_response(sock)
            # The server may answer with its own (higher) version, but
            # an HTTP/1.0 request must still get one-shot semantics.
            assert b" 200" in head.split(b"\r\n", 1)[0]
            assert sock.recv(65536) == b""  # server closed

    def test_idle_connection_is_reclaimed(self, db_path):
        """A silent keep-alive connection must not hold its worker
        past the idle timeout — the server hangs up."""
        import socket

        _build_db(db_path, seed=7, n_hotspots=3, blocks=4)
        server = create_server(
            db_path, port=0, workers=2, keepalive_idle_s=0.3
        )
        live = LiveServer(server)
        try:
            with socket.create_connection(
                (live.host, live.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
                _recv_response(sock)
                sock.settimeout(5)
                assert sock.recv(65536) == b""  # idled out
        finally:
            live.close()


class TestLoadGenerator:
    """run_load end-to-end against the live tier, in both modes."""

    def _drive(self, live, **kwargs):
        from repro.serve.loadgen import run_load

        return run_load(
            f"http://{live.host}:{live.port}",
            clients=8, duration_s=1.0, seed=3,
            mean_on_s=0.3, mean_off_s=0.2,
            **kwargs,
        )

    def test_legacy_http10_mode(self, live):
        report = self._drive(live)
        assert report.requests > 0
        assert report.errors == 0
        assert report.status_200 + report.status_304 == report.requests

    def test_keep_alive_mode(self, live):
        report = self._drive(live, keep_alive=True)
        assert report.requests > 0
        assert report.errors == 0
        assert report.status_200 + report.status_304 == report.requests
        assert len(report.latencies_ms) == report.requests


# -- backpressure and drain ------------------------------------------------


class TestBackpressure:
    def test_full_queue_sheds_503_with_retry_after(self, db_path):
        """One worker held busy + a one-slot queue: the next connections
        must be refused immediately with 503 + Retry-After, not queued.
        """
        _build_db(db_path, seed=3, n_hotspots=3, blocks=4)
        server = create_server(
            db_path, port=0, workers=1, queue_depth=1, test_routes=True
        )
        live = LiveServer(server)
        try:
            # Hold the only worker on a slow handler, then stuff the
            # queue; spare requests land on a full queue and shed.
            blocker = threading.Thread(
                target=live.request, args=("/debug/sleep?s=1.5",),
                daemon=True,
            )
            blocker.start()
            time.sleep(0.3)  # let the worker pick the sleeper up
            statuses, retry_after = [], []
            lock = threading.Lock()

            def _probe():
                status, headers, _ = live.request("/stats")
                with lock:
                    statuses.append(status)
                    if status == 503:
                        retry_after.append(headers.get("Retry-After"))

            probes = [
                threading.Thread(target=_probe, daemon=True)
                for _ in range(6)
            ]
            for thread in probes:  # concurrent: they must pile up
                thread.start()
            for thread in probes:
                thread.join(timeout=10)
            assert 503 in statuses, statuses
            assert all(value is not None for value in retry_after)
            blocker.join(timeout=5)
            _, _, metrics = live.get_json("/metrics")
            assert metrics["counters"].get("serve.shed", 0) >= 1
        finally:
            live.close()

    def test_drain_finishes_queued_work_and_joins_workers(self, db_path):
        _build_db(db_path, seed=4, n_hotspots=3, blocks=4)
        server = create_server(
            db_path, port=0, workers=2, test_routes=True
        )
        live = LiveServer(server)
        results = []

        def _slow_get():
            results.append(live.request("/debug/sleep?s=0.4")[0])

        inflight = [threading.Thread(target=_slow_get) for _ in range(2)]
        for thread in inflight:
            thread.start()
        time.sleep(0.1)  # both workers now mid-request
        server.drain(timeout_s=10)
        for thread in inflight:
            thread.join(timeout=5)
        # Queued/in-flight requests completed despite the drain...
        assert results == [200, 200]
        # ...and the pool is gone.
        assert all(not t.is_alive() for t in server._threads)
        server.server_close()
        live.thread.join(timeout=5)

    def test_drain_without_serve_forever_does_not_hang(self, db_path):
        _build_db(db_path, seed=5, n_hotspots=3, blocks=4)
        server = create_server(db_path, port=0, workers=2)
        server.drain(timeout_s=5)  # must return, not deadlock
        server.server_close()

    def test_default_workers_is_bounded(self):
        assert 4 <= default_workers() <= 32


# -- pool sizing -----------------------------------------------------------


class TestPoolSizing:
    """Workers start and replicas open only as the load needs them."""

    def test_sequential_requests_use_one_worker_and_one_replica(self, live):
        for index in range(20):
            path = "/stats" if index % 2 else f"/hotspots?limit={index}"
            assert live.request(path)[0] == 200
            # Every item done: the worker saw the client close and is
            # idle again before the next connection arrives.
            live.server._queue.join()
        _, _, health = live.get_json("/healthz")
        assert health["workers"] == 4
        assert (health["workers_started"], health["replicas_open"]) == (1, 1)
        gauges = live.get_json("/metrics")[2]["gauges"]
        assert gauges["serve.workers_started"] == 1
        assert gauges["serve.replicas_open"] == 1

    def test_clients_that_read_to_eof_find_their_worker_idle(self, live):
        for _ in range(200):
            with socket.create_connection(
                (live.host, live.port), timeout=10
            ) as sock:
                sock.sendall(b"GET /stats HTTP/1.0\r\n\r\n")
                while sock.recv(65536):
                    pass
        assert live.server.workers_started == 1

    def test_concurrent_requests_start_one_worker_each(self, live):
        workers = live.server.workers
        barrier = threading.Barrier(workers)
        statuses = []

        def _sleep():
            barrier.wait()
            statuses.append(live.request("/debug/sleep?s=0.3")[0])

        clients = [threading.Thread(target=_sleep) for _ in range(workers)]
        started = time.monotonic()
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=10)
        elapsed = time.monotonic() - started
        assert statuses == [200] * workers
        assert elapsed < 0.6, elapsed  # in parallel, not one after another
        assert live.server.workers_started == workers
        _, _, index = live.get_json("/")
        assert index["workers_started"] == workers

    def test_a_failed_request_returns_its_replica_with_no_snapshot(
        self, live
    ):
        before = live.builder.chain.height
        status, _, payload = live.get_json("/hotspots?cursor=bogus")
        assert status == 400, payload  # raised inside the read snapshot
        live.server._queue.join()
        live.builder.grow(2)
        with EtlStore(live.db_path) as writer:
            ingest_chain(live.builder.chain, writer)
        _, _, stats = live.get_json("/stats")
        # The same handle again, reading the commit made after its
        # failed request: it came back with no read transaction open.
        assert live.server.replicas.open_count == 1
        assert stats["checkpoint_height"] == live.builder.chain.height
        assert stats["checkpoint_height"] > before


# -- reads under ingest ----------------------------------------------------


class TestReadsUnderIngest:
    def test_readers_never_block_and_stay_consistent(self, db_path):
        """The satellite acceptance test: one ingest thread committing
        batches while N reader threads hammer the API. No reader may see
        "database is locked" (or any 5xx), and every ``/stats`` body
        must be internally consistent with *some* checkpoint — the
        blocks count equals ``checkpoint_height + 1`` (genesis included)
        because each response renders inside one read snapshot.
        """
        builder = _build_db(db_path, seed=11, n_hotspots=6, blocks=6)
        server = create_server(db_path, port=0, workers=4)
        live = LiveServer(server)
        errors = []
        inconsistent = []
        stop = threading.Event()

        def _reader():
            while not stop.is_set():
                try:
                    status, _, payload = live.get_json("/stats")
                    if status != 200:
                        errors.append(("status", status, payload))
                    elif (payload["tables"]["blocks"]
                          != payload["checkpoint_height"] + 1):
                        inconsistent.append(payload)
                    status, _, _ = live.get_json("/hotspots?limit=3")
                    if status != 200:
                        errors.append(("status", status, None))
                except Exception as exc:  # noqa: BLE001
                    errors.append(("exception", repr(exc), None))

        readers = [
            threading.Thread(target=_reader, daemon=True) for _ in range(4)
        ]
        for thread in readers:
            thread.start()
        try:
            with EtlStore(db_path) as writer:
                for _ in range(6):  # six separate ingest commits
                    builder.grow(2)
                    ingest_chain(builder.chain, writer)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            live.close()
        assert not errors, errors[:5]
        assert not inconsistent, inconsistent[:2]
        # The final state is visible to a fresh request path too.
        with EtlStore(db_path, create=False) as check:
            assert check.checkpoint_height == builder.chain.height


# -- CLI self-heal ---------------------------------------------------------


class TestServeSelfHeal:
    def test_open_or_ingest_rebuilds_a_corrupt_store(self, tmp_path):
        db = tmp_path / "broken.db"
        db.write_bytes(b"definitely not sqlite" * 50)
        store = _open_or_ingest(str(db), "small", 2021)
        assert store.checkpoint_height == (
            context.get_result("small").chain.height
        )

    def test_open_or_ingest_without_scenario_raises(self, tmp_path):
        with pytest.raises(EtlError):
            _open_or_ingest(str(tmp_path / "absent.db"), None, 2021)
