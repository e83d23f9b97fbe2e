"""The doc pass (`sources.ingest._docs_to_table`) behind every push front:
one column-wise conversion that also names the docs the mapping refuses,
and how `_bulk`, the WAL front and the perfbench span wrappers use it."""

import json
import os
import subprocess
import sys

import pytest

from quickwit_ray.index_api import IndexApiService

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _service(tmp_path, mode="lenient"):
    svc = IndexApiService({}, index_root_dir=str(tmp_path / "root"))
    st, _ = svc.request("POST", "indexes", body={
        "version": "0.8", "index_id": "logs",
        "doc_mapping": {"mode": mode, "timestamp_field": "ts",
                        "field_mappings": [
                            {"name": "msg", "type": "text", "stored": True},
                            {"name": "ts", "type": "datetime", "fast": True,
                             "stored": True},
                            {"name": "n", "type": "i64", "fast": True,
                             "stored": True},
                            {"name": "u", "type": "u64", "fast": True,
                             "stored": True},
                            {"name": "f", "type": "f64", "fast": True,
                             "stored": True}]}})
    assert st == 200
    return svc


def _bulk(svc, docs):
    lines = []
    for d in docs:
        lines += [{"index": {"_index": "logs"}}, d]
    st, out = svc.request("POST", "_bulk", ndjson=lines)
    assert st == 200, out
    return [it["index"] for it in out["items"]], out["errors"]


def _hits(svc, query):
    st, out = svc.request("POST", "logs/_search", body={"query": query})
    assert st == 200, out
    return out["hits"]["total"]["value"]


def test_bulk_item_reasons(tmp_path):
    """Per-item `document_parsing_exception` reasons for a bad datetime,
    a non-numeric i64 and a negative u64; the valid doc gets 201."""
    svc = _service(tmp_path)
    items, errors = _bulk(svc, [
        {"msg": "a", "ts": "not-a-date"},
        {"msg": "b", "ts": "2024-01-01T00:00:00Z", "n": "many"},
        {"msg": "c", "ts": "2024-01-01T00:00:00Z", "u": -3},
        {"msg": "d", "ts": "2024-01-01T00:00:00Z", "n": 4, "u": 5},
    ])
    assert errors is True
    assert [it["status"] for it in items] == [400, 400, 400, 201]
    assert [it.get("error", {}).get("type") for it in items[:3]] == [
        "document_parsing_exception"] * 3
    assert [it["error"]["reason"] for it in items[:3]] == [
        "failed to parse datetime field `ts` with value `not-a-date`",
        "failed to parse i64 field `n` with value `many`",
        "failed to parse u64 field `u` with value `-3`",
    ]
    assert items[3]["result"] == "created"
    assert _hits(svc, {"match_all": {}}) == 1


def test_strict_bulk_unknown_key_rejects_only_that_doc(tmp_path):
    svc = _service(tmp_path, mode="strict")
    items, errors = _bulk(svc, [
        {"msg": "a", "ts": "2024-01-01T00:00:00Z"},
        {"msg": "b", "ts": "2024-01-01T00:00:00Z", "junk": 1},
        {"msg": "c", "ts": "2024-01-01T00:00:00Z"},
    ])
    assert errors is True
    assert [it["status"] for it in items] == [201, 400, 201]
    assert items[1]["error"]["type"] == "document_parsing_exception"
    assert "unknown fields ['junk']" in items[1]["error"]["reason"]
    assert _hits(svc, {"match_all": {}}) == 2


def test_bulk_mixed_value_forms_index_every_doc(tmp_path):
    """rfc3339 strings beside unix ints in one datetime field, and "2.5"
    beside numbers in one f64 field, are all valid input forms."""
    svc = _service(tmp_path)
    items, errors = _bulk(svc, [
        {"msg": "a", "ts": "2024-01-01T00:00:00Z", "f": 1},
        {"msg": "b", "ts": "2024-01-02T00:00:00Z", "f": "2.5"},
        {"msg": "c", "ts": "2024-01-03T00:00:00Z", "f": 3.5},
    ])
    assert errors is False and [it["status"] for it in items] == [201] * 3
    items, errors = _bulk(svc, [
        {"msg": "d", "ts": "2024-01-01T06:00:00Z"},
        {"msg": "e", "ts": 1704153600},
        {"msg": "f", "ts": "2024-01-03T06:00:00Z"},
    ])
    assert errors is False and [it["status"] for it in items] == [201] * 3
    assert _hits(svc, {"match_all": {}}) == 6
    assert _hits(svc, {"range": {"f": {"gte": 2, "lte": 3}}}) == 1
    # one doc of each datetime form in the range
    assert _hits(svc, {"bool": {
        "must": [{"match": {"msg": "d e f"}}],
        "filter": [{"range": {"ts": {"gte": "2024-01-01T00:00:00Z",
                                     "lt": "2024-01-02T12:00:00Z"}}}]}}) == 2


def test_single_form_columns_keep_their_values(tmp_path):
    svc = _service(tmp_path)
    _bulk(svc, [{"msg": "a", "ts": "2024-01-01T00:00:00Z", "n": 7},
                {"msg": "b", "ts": "2024-01-02T00:00:00Z", "n": 8}])
    st, out = svc.request("POST", "logs/_search", body={
        "query": {"match_all": {}}, "sort": [{"n": "asc"}]})
    assert st == 200
    assert [h["_source"] for h in out["hits"]["hits"]] == [
        {"msg": "a", "ts": "2024-01-01T00:00:00Z", "n": 7},
        {"msg": "b", "ts": "2024-01-02T00:00:00Z", "n": 8}]


def test_native_ingest_counts_rejects(tmp_path):
    svc = _service(tmp_path, mode="strict")
    st, out = svc.request("POST", "logs/ingest", ndjson=[
        {"msg": "a", "ts": "2024-01-01T00:00:00Z"},
        {"msg": "b", "ts": "bad"},
        {"msg": "c", "ts": "2024-01-01T00:00:00Z", "junk": 1},
        {"msg": "d"},
        "not an object",
    ])
    assert st == 200, out
    assert out == {"num_docs_for_processing": 5, "num_rejected_docs": 4}
    assert _hits(svc, {"match_all": {}}) == 1


def test_wal_refuses_a_poison_doc_before_acking(tmp_path):
    """A batch with a doc the strict mapping refuses raises at persist and
    appends nothing; the valid docs pushed around it become searchable."""
    from quickwit_ray.api import Index
    from quickwit_ray.config import DocMapping, FieldMapping

    idx = Index.create(str(tmp_path / "i"), "w", DocMapping(
        field_mappings=(FieldMapping(name="body", type="text"),
                        FieldMapping(name="id", type="i64", fast=True)),
        mode="strict", doc_id_field="id", default_search_fields=("body",)))
    wal = idx.open_wal(num_shards=1, fsync=False)
    wal.persist([{"body": "first", "id": 1}])
    with pytest.raises(ValueError, match="unknown fields"):
        wal.persist([{"body": "second", "id": 2}, {"body": "x", "junk": 1}])
    wal.persist([{"body": "third", "id": 3}])
    wal.close()
    idx.index_wal(execution="local")
    assert idx.search("*", max_hits=0).num_hits == 2
    assert idx.search("body:third", max_hits=0).num_hits == 1


_SPANS_PROBE = r"""
import json, sys
from perfbench import spans
from quickwit_ray.api import Index
from quickwit_ray.config import pages_doc_mapping
from quickwit_ray.server import SearchServer

idx = Index.create(sys.argv[1], "pages", pages_doc_mapping())
srv = SearchServer({"pages": idx}, host="127.0.0.1", port=0)
t = spans.Tracer("probe")
# install_server also runs install_state, install_search and
# install_write_path
spans.install_server(t, srv)
st, out = srv.qw.request("POST", "_bulk", ndjson=[
    {"index": {"_index": "pages"}},
    {"url": "u1", "warc_ts": "2024-01-01T00:00:00Z", "text": "hello",
     "lang": "en"}])
assert st == 200 and not out["errors"], out
st, out = srv.qw.request("POST", "pages/_search",
                         body={"query": {"match_all": {}}})
assert st == 200 and out["hits"]["total"]["value"] == 1, out
srv._httpd.server_close()
print(json.dumps(sorted({s[0] for s in t.spans})))
"""


def test_perfbench_span_wrappers_install(tmp_path):
    """perfbench's traced runs wrap engine functions by name: installing
    every wrapper and pushing one `_bulk` plus one search through them
    must work on this tree (run in a child process so the wrappers never
    reach other tests)."""
    out = subprocess.run([sys.executable, "-c", _SPANS_PROBE,
                          str(tmp_path / "pages")], cwd=REPO,
                         capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=REPO))
    assert out.returncode == 0, out.stderr[-3000:]
    names = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert {"server.es_bulk", "ingest.docs_to_table", "ingest.ingest_docs",
            "writer.add_batch", "manifest.load", "search.root"} <= names
