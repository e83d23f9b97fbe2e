"""HTTP serving tier (quickwit_ray/server.py): the ES-compatible REST
surface over a real socket — search/count/msearch/bulk/scroll/stats/
field_caps via urllib against an ephemeral-port SearchServer."""

import json
import urllib.error
import urllib.request

import pytest

from quickwit_ray.api import Index
from quickwit_ray.config import DocMapping, FieldMapping, IndexSettings
from quickwit_ray.server import SearchServer


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("httpsrv")
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True, stored=True),
            FieldMapping(name="lang", type="text", tokenizer="raw",
                         stored=True, fast=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    idx = Index.create(str(tmp / "idx"), "docs", mapping,
                       IndexSettings(split_num_docs_target=100_000))
    lines = []
    for i in range(30):
        lines.append('{"index": {}}')
        lines.append(json.dumps({
            "body": f"document {i} about {'scans' if i % 3 == 0 else 'merges'}",
            "lang": "de" if i % 5 == 0 else "en", "doc_id": i}))
    idx.bulk("\n".join(lines), commit_id="seed")
    with SearchServer({"docs": idx}) as srv:
        yield srv


def _req(srv, method, path, body=None, ctype="application/json"):
    data = None
    if body is not None:
        data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
    r = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}{path}", data=data, method=method,
        headers={"Content-Type": ctype})
    with urllib.request.urlopen(r) as resp:
        return resp.status, json.loads(resp.read())


def test_search_body_and_q_param(server):
    st, out = _req(server, "POST", "/api/v1/_elastic/docs/_search",
                   {"query": {"match": {"body": "scans"}}, "size": 100})
    assert st == 200 and out["hits"]["total"]["value"] == 10
    assert len(out["hits"]["hits"]) == 10
    assert out["hits"]["hits"][0]["_source"]["body"].startswith("document")
    # q= query param, GET
    st, out = _req(server, "GET", "/api/v1/_elastic/docs/_search?q=merges&size=3")
    assert st == 200 and out["hits"]["total"]["value"] == 20
    assert len(out["hits"]["hits"]) == 3


def test_accepted_sockets_set_tcp_nodelay(server, monkeypatch):
    """A reply is written as headers then body; with Nagle on, the body
    waits for the client's delayed ACK. Read the option back from the
    accepted connection itself."""
    import socket

    handler = server._httpd.RequestHandlerClass
    setup, seen = handler.setup, []

    def traced_setup(self):
        setup(self)
        seen.append(self.connection.getsockopt(socket.IPPROTO_TCP,
                                               socket.TCP_NODELAY))

    monkeypatch.setattr(handler, "setup", traced_setup)
    st, _ = _req(server, "GET", "/api/v1/_elastic/docs/_search?q=scans")
    assert st == 200 and seen and all(seen)


def test_count_msearch_stats_cat_fieldcaps(server):
    st, out = _req(server, "POST", "/api/v1/_elastic/docs/_count",
                   {"query": {"term": {"lang": "de"}}})
    assert (st, out["count"]) == (200, 6)
    nd = "\n".join([json.dumps({"index": "docs"}),
                    json.dumps({"query": {"match": {"body": "scans"}}}),
                    json.dumps({"index": "docs"}),
                    json.dumps({"query": {"match_all": {}}})]) + "\n"
    st, out = _req(server, "POST", "/api/v1/_elastic/_msearch", nd,
                   ctype="application/x-ndjson")
    assert st == 200
    totals = [r["hits"]["total"]["value"] for r in out["responses"]]
    assert totals == [10, 30]
    st, out = _req(server, "GET", "/api/v1/_elastic/_stats")
    assert st == 200 and out["_all"]["primaries"]["docs"]["count"] == 30
    st, out = _req(server, "GET", "/api/v1/_elastic/_cat/indices?format=json")
    assert st == 200 and out[0]["docs.count"] == "30"
    st, out = _req(server, "GET", "/api/v1/_elastic/docs/_field_caps")
    assert st == 200 and "body" in out["fields"]


def test_bulk_roundtrip_over_http(server):
    payload = "\n".join(['{"index": {}}',
                         json.dumps({"body": "freshly pushed over http",
                                     "lang": "en", "doc_id": 1000})])
    st, out = _req(server, "POST", "/api/v1/_elastic/docs/_bulk", payload,
                   ctype="application/x-ndjson")
    assert st == 200 and not out["errors"]
    assert out["items"][0]["index"]["status"] == 201
    st, out = _req(server, "GET",
                   "/api/v1/_elastic/docs/_search?q=freshly")
    assert out["hits"]["total"]["value"] == 1


def test_scroll_over_http(server):
    st, out = _req(server, "POST",
                   "/api/v1/_elastic/docs/_search?scroll=1m",
                   {"query": {"match_all": {}}, "size": 12,
                    "sort": [{"doc_id": {"order": "asc"}}]})
    assert st == 200
    sid = out["_scroll_id"]
    got = [h["_source"]["doc_id"] for h in out["hits"]["hits"]]
    while True:
        st, out = _req(server, "POST", "/api/v1/_elastic/_search/scroll",
                       {"scroll_id": sid, "scroll": "1m"})
        assert st == 200
        page = [h["_source"]["doc_id"] for h in out["hits"]["hits"]]
        if not page:
            break
        got.extend(page)
        sid = out["_scroll_id"]
    assert len(got) == len(set(got)) >= 30
    assert got[:12] == sorted(got)[:12]
    st, out = _req(server, "DELETE", "/api/v1/_elastic/_search/scroll",
                   {"scroll_id": sid})
    assert st == 200


def test_error_shapes(server):
    with pytest.raises(urllib.error.HTTPError) as e:
        _req(server, "POST", "/api/v1/_elastic/nosuch/_search",
             {"query": {"match_all": {}}})
    assert e.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as e:
        _req(server, "POST", "/api/v1/_elastic/docs/_search", "{not json")
    assert e.value.code == 400


def test_concurrent_requests_consistent(tmp_path):
    """Shared searcher/leaf/reader caches under HTTP handler threads:
    concurrent requests must all return the same (correct) counts."""
    import json
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as pq

    from quickwit_ray.api import Index
    from quickwit_ray.config import IndexSettings, documents_doc_mapping
    from quickwit_ray.server import SearchServer

    idx = Index.create(str(tmp_path / "c"), "docs", documents_doc_mapping(),
                       settings=IndexSettings(split_num_docs_target=100))
    rows = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet").to_pylist()
    for k in range(0, 500, 100):  # 5 splits
        idx.ingest_docs(rows[k:k + 100], commit_id=f"c{k}")
    with SearchServer({"docs": idx}) as srv:
        base = f"http://127.0.0.1:{srv.port}/api/v1"
        qs = ["text:scan", "text:merge", "lang:de"]

        def hit(i):
            q = qs[i % len(qs)]
            url = (f"{base}/_elastic/docs/_search"
                   f"?q={q.replace(' ', '%20')}&size=5")
            with urllib.request.urlopen(url) as r:
                return q, json.loads(r.read())["hits"]["total"]["value"]

        with ThreadPoolExecutor(8) as ex:
            results = list(ex.map(hit, range(120)))
    by_q = {}
    for q, n in results:
        by_q.setdefault(q, set()).add(n)
    truth = {q: idx.search(q, max_hits=0).num_hits for q in qs}
    assert all(by_q[q] == {truth[q]} for q in qs), by_q


def test_search_stream_chunked_over_http(tmp_path, ray_session):
    """Streaming export (round-3 verdict fix): the HTTP layer must send
    the fast-field export with Transfer-Encoding: chunked — one chunk per
    streamed block, never a driver-side concat — and the concatenated
    body must be byte-identical to the offline drain."""
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text"),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    idx = Index.create(str(tmp_path / "s"), "ts", mapping,
                       IndexSettings(split_num_docs_target=100_000))
    for c in range(3):  # 3 splits -> >=3 export blocks
        docs = [{"body": f"event {i} stream", "doc_id": c * 100 + i}
                for i in range(100)]
        idx.ingest_docs(docs, commit_id=f"c{c}")
    with SearchServer({"ts": idx}) as srv:
        url = (f"http://127.0.0.1:{srv.port}/api/v1/ts/search/stream"
               "?query=*&fast_field=doc_id")
        with urllib.request.urlopen(url) as resp:
            assert resp.status == 200
            assert resp.getheader("Transfer-Encoding") == "chunked"
            assert resp.getheader("Content-Length") is None
            body = resp.read()
        got = sorted(int(x) for x in body.decode().split())
        assert got == sorted(list(range(100)) + list(range(100, 200))
                             + list(range(200, 300)))
        # offline drain (service surface) is byte-set-identical
        st, offline = srv.qw.request("GET", "ts/search/stream",
                                     {"query": "*",
                                      "fast_field": "doc_id"}, None)
        assert st == 200
        assert sorted(offline.data.decode().split()) == \
            sorted(body.decode().split())
        # RowBinary path streams too
        with urllib.request.urlopen(
                url + "&output_format=click_house_row_binary") as resp:
            assert resp.getheader("Transfer-Encoding") == "chunked"
            import struct
            vals = resp.read()
            assert sorted(struct.unpack(f"<{len(vals)//8}q", vals)) == got


def _req_raw_bytes(srv, method, path, data: bytes,
                   ctype="application/json"):
    r = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}{path}", data=data, method=method,
        headers={"Content-Type": ctype})
    try:
        with urllib.request.urlopen(r) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_malformed_bodies_get_http_error_codes_not_torn_connections(server):
    """Parse-boundary hardening (fuzz-derived): invalid UTF-8, malformed
    msearch ndjson lines, non-dict native bodies, and structurally-bad
    DSL all come back as 4xx JSON over the socket — the handler never
    crashes (which would tear the connection instead of replying)."""
    # invalid UTF-8 body
    st, out = _req_raw_bytes(server, "POST",
                             "/api/v1/_elastic/docs/_search", b"\xff\xfe{")
    assert st == 400 and "JSON" in out["error"]["reason"]
    # malformed msearch ndjson line
    st, out = _req_raw_bytes(server, "POST", "/api/v1/_elastic/_msearch",
                             b'{"index": "docs"}\nnot json\n')
    assert st == 400
    # structurally-invalid DSL (list where object required)
    st, out = _req_raw_bytes(server, "POST",
                             "/api/v1/_elastic/docs/_search",
                             json.dumps({"query": {"bool": []}}).encode())
    assert st == 400 and out["status"] == 400
    # non-dict body on the native index-management API
    for payload in (b'5', b'"ts"', b'[1, 2]', b'true'):
        st, out = _req_raw_bytes(server, "POST", "/api/v1/indexes", payload)
        assert st == 400, (payload, st, out)
    # the server is still alive and serving afterwards
    st, out = _req(server, "GET",
                   "/api/v1/_elastic/docs/_search?q=merges&size=1")
    assert st == 200 and out["hits"]["total"]["value"] == 20


def test_nested_json_bomb_and_500_hygiene(server):
    """Round-4 ADVICE trio: (a) a pathologically nested JSON body
    (json.loads raises RecursionError on 100k '[') answers 400, not a
    torn connection; (b) an internal bug escaping the services answers a
    GENERIC 500 — no exception detail / paths leak to the client; (c) the
    raw-body (OTLP) dispatch goes through the same last-resort wrapper."""
    st, out = _req_raw_bytes(server, "POST",
                             "/api/v1/_elastic/docs/_search", b"[" * 100_000)
    assert st == 400 and "JSON" in out["error"]["reason"]

    # inject an internal fault: every route raises with a secret in it
    orig = server.qw.request
    def boom(*a, **k):
        raise RuntimeError("secret: /var/lib/index/private-layout")
    server.qw.request = boom
    try:
        st, out = _req_raw_bytes(server, "POST", "/api/v1/indexes", b"{}")
        assert st == 500
        assert out["error"]["reason"] == "internal server error"
        assert "secret" not in json.dumps(out)
        # raw-body (OTLP) dispatch: same wrapper, same generic body
        st, out = _req_raw_bytes(
            server, "POST", "/api/v1/otlp/v1/logs", b"\x0a\x00")
        assert st == 500
        assert out["error"]["reason"] == "internal server error"
        assert "secret" not in json.dumps(out)
    finally:
        server.qw.request = orig
    # server still alive
    st, out = _req(server, "GET",
                   "/api/v1/_elastic/docs/_search?q=merges&size=1")
    assert st == 200 and out["hits"]["total"]["value"] == 20
