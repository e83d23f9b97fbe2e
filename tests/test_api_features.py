"""ES DSL adapter, list_terms/list_fields, delete tasks, transform hook,
Index API + CLI."""

import json

import numpy as np
import pyarrow.parquet as pq
import pytest

from quickwit_ray.api import Index
from quickwit_ray.config import (
    IndexConfig,
    IndexSettings,
    documents_doc_mapping,
)
from quickwit_ray.functions.tokenizers import tokenize
from quickwit_ray.index.build import build_index
from quickwit_ray.search.es_dsl import es_query_to_ast, es_search_request
from quickwit_ray.search.ast import (
    BoolQuery,
    FullTextQuery,
    RangeQuery,
    TermSetQuery,
)

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def idx(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("apidx")
    index_dir = str(tmp / "index")
    index = Index.create(index_dir, "documents", documents_doc_mapping(),
                         IndexSettings(split_num_docs_target=10_000,
                                       commit_docs_threshold=200))
    index.ingest(DOCS, execution="local", read_batch_size=200)
    return index


def _truth():
    return pq.read_table(DOCS).to_pandas()


def test_es_dsl_shapes():
    ast = es_query_to_ast({"bool": {
        "must": [{"match": {"text": {"query": "scan merge", "operator": "and"}}}],
        "must_not": [{"term": {"lang": {"value": "de"}}}],
        "filter": [{"range": {"n_chars": {"gte": 100, "lt": 900}}}],
    }})
    assert isinstance(ast, BoolQuery)
    assert isinstance(ast.must[0], FullTextQuery) and ast.must[0].mode == "and"
    assert isinstance(ast.filter[0], RangeQuery)
    ast2 = es_query_to_ast({"terms": {"lang": ["de", "fr"]}})
    assert isinstance(ast2, TermSetQuery)


def test_es_search_end_to_end(idx):
    t = _truth()
    toks = [set(tokenize(x, "default")) for x in t["text"]]
    expected = sum(1 for tk, lg in zip(toks, t["lang"])
                   if "scan" in tk and "merge" in tk and lg != "de")
    resp = idx.es_search({
        "query": {"bool": {
            "must": [{"match": {"text": {"query": "scan merge", "operator": "and"}}}],
            "must_not": [{"term": {"lang": "de"}}]}},
        "size": 0})
    assert resp.num_hits == expected


def test_es_match_phrase_and_sort(idx):
    t = _truth()
    resp = idx.es_search({"query": {"match_all": {}},
                          "sort": [{"n_chars": {"order": "desc"}},
                                   {"doc_id": {"order": "desc"}}],
                          "size": 5})
    top = t.sort_values(["n_chars", "doc_id"], ascending=False).head(5)
    assert list(resp.hits["doc_id"]) == list(top["doc_id"])


def test_es_query_string():
    kw = es_search_request({"query": {"query_string": {
        "query": "text:scan -text:merge", "fields": ["text"]}}, "from": 5, "size": 7})
    assert kw["start_offset"] == 5 and kw["max_hits"] == 7


def test_list_terms(idx):
    t = _truth()
    truth_terms = {}
    for x in t["text"]:
        for tok in set(tokenize(x, "default")):
            if tok.startswith("me"):
                truth_terms[tok] = truth_terms.get(tok, 0) + 1
    df = idx.list_terms("text", prefix="me", limit=1000)
    got = dict(zip(df["term"], df["doc_freq"]))
    assert got == truth_terms


def test_list_fields(idx):
    df = idx.list_fields()
    assert "text" in list(df["field"])
    row = df[df["field"] == "text"].iloc[0]
    assert row["tokenizer"] == "default" and bool(row["fieldnorms"])


def test_delete_task_applies(tmp_path):
    index_dir = str(tmp_path / "idx")
    index = Index.create(index_dir, "documents", documents_doc_mapping(),
                         IndexSettings(split_num_docs_target=10_000,
                                       commit_docs_threshold=200))
    index.ingest(DOCS, execution="local", read_batch_size=200)
    before = index.search("*", max_hits=0).num_hits
    n_de = index.search("lang:de", max_hits=0).num_hits
    assert n_de > 0
    index.create_delete_task("lang:de")
    rewritten = index.apply_deletes()
    assert rewritten >= 1
    assert index.search("lang:de", max_hits=0).num_hits == 0
    assert index.search("*", max_hits=0).num_hits == before - n_de
    # docs that remain are intact (byte-identical text)
    t = _truth().set_index("doc_id")
    hits = index.search("text:scan", max_hits=5, sort_by="_score").hits
    for _, row in hits.iterrows():
        assert row["text"] == t.loc[row["doc_id"], "text"]
    # idempotent: re-apply is a no-op
    assert index.apply_deletes() == 0


def test_transform_hook(tmp_path):
    import pyarrow as pa

    def upper_lang(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.set_column(batch.column_names.index("lang"), "lang",
                                pc.utf8_upper(batch["lang"]))

    index_dir = str(tmp_path / "idx")
    cfg = IndexConfig("documents", documents_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000))
    build_index(DOCS, index_dir, cfg, execution="local", transform=upper_lang)
    idx2 = Index.open(index_dir)
    t = _truth()
    # raw tokenizer keeps case -> terms are upper-cased now
    n_en = int((t["lang"] == "en").sum())
    assert idx2.search("lang:EN", max_hits=0).num_hits == n_en
    assert idx2.search("lang:en", max_hits=0).num_hits == 0


def test_cli_smoke(tmp_path, capsys):
    from quickwit_ray.cli import main

    index_dir = str(tmp_path / "cliidx")
    assert main(["create", index_dir, "--index-id", "docs",
                 "--mapping", "documents"]) == 0
    assert main(["ingest", index_dir, "--input", DOCS, "--local"]) == 0
    assert main(["search", index_dir, "--query", "text:scan",
                 "--max-hits", "3", "--sort-by", "_score"]) == 0
    assert main(["describe", index_dir]) == 0
    assert main(["list-terms", index_dir, "--field", "lang"]) == 0
    out = capsys.readouterr().out
    assert '"num_hits"' in out and "created index docs" in out
    # round-5: `list` over the parent dir + `split mark-for-deletion`
    assert main(["list", str(tmp_path)]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert [r["index_id"] for r in listed] == ["docs"]
    assert listed[0]["num_docs"] == 500
    sid = listed and __import__("quickwit_ray.state.manifest",
                                fromlist=["Manifest"]) \
        .Manifest(index_dir).published_splits()[0].split_id
    assert main(["split", "mark-for-deletion", index_dir, sid]) == 0
    assert "marked 1" in capsys.readouterr().out
    assert main(["split", "mark-for-deletion", index_dir, "nope"]) == 1
    assert main(["list", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["num_docs"] < 500


def test_concatenate_field(tmp_path):
    """Concatenate field: tokens from several source columns indexed under
    one inverted field (field_mapping_entry.rs:672-700 semantics)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.search.engine import IndexSearcher

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "title": ["alpha bravo", "charlie", "delta"],
        "body": ["echo foxtrot", "alpha golf", "hotel"],
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="title", type="text", record="freq", fieldnorms=True),
            FieldMapping(name="body", type="text", record="freq", fieldnorms=True),
            FieldMapping(name="all", type="text", record="position",
                         fieldnorms=True, stored=False,
                         sources=("title", "body")),
            FieldMapping(name="doc_id", type="i64", fast=True),
        ),
        doc_id_field="doc_id", default_search_fields=("all",))
    cfg = IndexConfig("concat", mapping)
    d = str(tmp_path / "idx")
    build_index(inp, d, cfg, execution="local")
    s = IndexSearcher(d)
    assert s.search("all:alpha", max_hits=0).num_hits == 2  # title of 0, body of 1
    assert s.search("all:echo", max_hits=0).num_hits == 1
    # phrase must NOT match across source fields ("bravo echo" spans title|body)
    assert s.search('all:"bravo echo"', max_hits=0).num_hits == 0
    assert s.search('all:"echo foxtrot"', max_hits=0).num_hits == 1


def test_dynamic_mapping_mode(tmp_path):
    """Dynamic mode: unmapped string columns are indexed + stored and
    queryable by name (the `_dynamic` catch-all analog)."""
    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.search.engine import IndexSearcher

    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", record="freq", fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", fast=True),
        ),
        mode="dynamic", doc_id_field="doc_id", default_search_fields=("text",))
    cfg = IndexConfig("dyn", mapping)
    d = str(tmp_path / "idx")
    build_index(DOCS, d, cfg, execution="local")
    s = IndexSearcher(d)
    t = _truth()
    # lang and source are NOT mapped -> dynamic text fields
    assert s.search("lang:de", max_hits=0).num_hits == int((t["lang"] == "de").sum())
    n_src = int((t["source"] == "src3").sum())
    assert s.search("source:src3", max_hits=0).num_hits == n_src
    hits = s.search("source:src3", max_hits=3, fetch_fields=["doc_id", "source"]).hits
    assert set(hits["source"]) == {"src3"}


def test_es_count_and_msearch(idx):
    t = _truth()
    n = idx.es_count({"query": {"term": {"lang": "de"}}})
    assert n == int((t["lang"] == "de").sum())
    assert idx.es_count() == len(t)
    rs = idx.es_msearch([
        {"query": {"match": {"text": "scan"}}, "size": 0},
        {"query": {"term": {"lang": "fr"}}, "size": 0},
    ])
    from quickwit_ray.functions.tokenizers import tokenize

    exp0 = sum("scan" in tokenize(x, "default") for x in t["text"])
    assert rs[0].num_hits == exp0
    assert rs[1].num_hits == int((t["lang"] == "fr").sum())


def test_json_field_type(tmp_path):
    """json field (field_mapping_type Json): path-addressed terms,
    queryable as `props.key:value` (expand_dots semantics)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.search.engine import IndexSearcher

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "props": ['{"k": 69, "tag": "red blue"}',
                  '{"k": 70, "nested": {"deep": "value"}}',
                  '{"k": 69, "flag": true}',
                  None],
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="props", type="json", tokenizer="default",
                         record="freq", fieldnorms=True, stored=True),
            FieldMapping(name="doc_id", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=())
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("js", mapping), execution="local")
    s = IndexSearcher(d)
    assert s.search("props.k:69", max_hits=0).num_hits == 2
    assert s.search("props.k:70", max_hits=0).num_hits == 1
    assert s.search("props.tag:blue", max_hits=0).num_hits == 1
    assert s.search("props.nested.deep:value", max_hits=0).num_hits == 1
    assert s.search("props.flag:true", max_hits=0).num_hits == 1
    assert s.search("props.k:9999", max_hits=0).num_hits == 0


def test_json_path_exists(tmp_path):
    """Per-path presence inside a json field (field-presence analog):
    `props.k:*` matches docs whose json carries that key, incl. nested."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import DocMapping, FieldMapping, IndexConfig
    from quickwit_ray.index.build import build_index
    from quickwit_ray.search.engine import IndexSearcher

    rows = [
        {"doc_id": 0, "props": json.dumps({"k": 1, "tag": "x"})},
        {"doc_id": 1, "props": json.dumps({"other": 5})},
        {"doc_id": 2, "props": json.dumps({"k": {"nested": "deep"}})},
        {"doc_id": 3, "props": None},
        {"doc_id": 4, "props": json.dumps({"kk": 9})},  # prefix must NOT match
    ]
    tbl = pa.table({"doc_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
                    "props": pa.array([r["props"] for r in rows], pa.string())})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="props", type="json", record="freq"),
            FieldMapping(name="doc_id", type="i64", stored=True)),
        doc_id_field="doc_id", default_search_fields=())
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("jx", mapping), execution="local")
    s = IndexSearcher(d)

    def ids(q):
        r = s.search(q, max_hits=100, fetch_fields=["doc_id"])
        if not len(r.hits):
            return []
        return sorted(int(x) for x in r.hits["doc_id"])

    assert ids("props.k:*") == [0, 2]          # direct + nested object
    assert ids("props.other:*") == [1]
    assert ids("props.k.nested:*") == [2]
    assert ids("props.missing:*") == []
    assert ids("props.kk:*") == [4]            # and k did not leak into kk


def test_cli_bulk_queue_stats(tmp_path, capsys):
    import json as _json

    from quickwit_ray.cli import main as cli_main
    from quickwit_ray.sources.queue import PartitionedQueue

    d = str(tmp_path / "idx")
    assert cli_main(["create", d, "--index-id", "docs",
                     "--mapping", "documents"]) == 0
    payload = "\n".join([
        '{"index": {}}',
        _json.dumps({"doc_id": 1, "text": "hello bulk world", "lang": "en",
                     "source": "s", "n_chars": 16}),
    ])
    pf = tmp_path / "bulk.ndjson"
    pf.write_text(payload)
    assert cli_main(["bulk", d, "--input", str(pf)]) == 0
    out = capsys.readouterr().out
    assert '"indexed_docs": 1' in out
    # queue-ingest (local)
    import pyarrow as pa

    q = PartitionedQueue.create(str(tmp_path / "q"), 1)
    q.append(0, pa.table({"doc_id": pa.array([2], pa.int64()),
                          "text": ["queued doc body"], "lang": ["en"],
                          "source": ["s"], "n_chars": pa.array([15], pa.int64())}))
    assert cli_main(["queue-ingest", d, "--queue-dir", str(tmp_path / "q"),
                     "--local"]) == 0
    assert '"num_docs": 1' in capsys.readouterr().out
    # stats shapes
    assert cli_main(["stats", d]) == 0
    assert '"count": 2' in capsys.readouterr().out
    assert cli_main(["stats", d, "--format", "cat"]) == 0
    assert '"docs.count": "2"' in capsys.readouterr().out
    assert cli_main(["search", d, "--query", "text:hello"]) == 0
    assert '"num_hits": 1' in capsys.readouterr().out


def test_cli_split_and_clear(tmp_path, capsys):
    """`split list/describe/extract` + `clear` (quickwit index clear /
    split CLI analogs): inspection shapes, artifact extraction, and the
    atomic splits+checkpoints reset preserving the index config."""
    import json as _json
    import os

    from quickwit_ray.api import Index
    from quickwit_ray.cli import main as cli_main
    from quickwit_ray.state.manifest import Manifest

    d = str(tmp_path / "idx")
    assert cli_main(["create", d, "--index-id", "docs",
                     "--mapping", "documents"]) == 0
    capsys.readouterr()
    idx = Index.open(d)
    idx.bulk("\n".join([
        '{"index": {}}',
        _json.dumps({"doc_id": 1, "text": "clear me later", "lang": "en",
                     "source": "s", "n_chars": 14})]))
    assert cli_main(["split", "list", d]) == 0
    splits = _json.loads(capsys.readouterr().out)
    assert len(splits) == 1 and splits[0]["num_docs"] == 1
    sid = splits[0]["split_id"]
    assert cli_main(["split", "describe", d, sid]) == 0
    footer = _json.loads(capsys.readouterr().out)
    assert footer["num_docs"] == 1 and "postings.parquet" in footer["files"]
    out_dir = str(tmp_path / "extracted")
    assert cli_main(["split", "extract", d, sid, out_dir]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(out_dir, "footer.json"))
    # clear: splits + checkpoints drop, config survives, re-ingest works
    assert cli_main(["clear", d]) == 0
    assert "dropped 1 splits" in capsys.readouterr().out
    m = Manifest(d)
    assert not m.published_splits() and not m.checkpoints
    assert idx.search("*", max_hits=0).num_hits == 0
    idx.ingest_docs([{"doc_id": 2, "text": "fresh start", "lang": "en",
                      "source": "s", "n_chars": 11}])
    assert idx.search("text:fresh", max_hits=0).num_hits == 1


def test_rest_clear_and_describe(tmp_path):
    """Native REST `PUT /indexes/{id}/clear` + describe/splits routes."""
    from quickwit_ray.index_api import IndexApiService

    svc = IndexApiService({}, index_root_dir=str(tmp_path / "ix"))
    st, _ = svc.request("POST", "indexes/", None, {
        "version": "0.8", "index_id": "c1",
        "doc_mapping": {"mode": "dynamic", "field_mappings": []}})
    assert st == 200
    st, _ = svc.request("POST", "c1/ingest", {"commit": "force"}, None,
                        [{"body": "to be cleared"}])
    assert st == 200
    st, r = svc.request("GET", "indexes/c1/describe", None, None)
    assert st == 200 and r["num_docs"] == 1
    st, r = svc.request("GET", "indexes/c1/splits", None, None)
    assert st == 200 and len(r["splits"]) == 1
    st, r = svc.request("PUT", "indexes/c1/clear", None, None)
    assert st == 200 and r["num_splits_dropped"] == 1
    st, r = svc.request("GET", "c1/_search", None,
                        {"query": {"match_all": {}}})
    assert st == 200 and r["hits"]["total"]["value"] == 0
    st, _ = svc.request("PUT", "indexes/missing/clear", None, None)
    assert st == 404


def test_multi_index_search(tmp_path):
    """Federated search over two indexes == one index over the union
    (root.rs multi-index resolution)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.search.engine import IndexSearcher
    from quickwit_ray.search.multi import search_indexes

    full = pq.read_table(DOCS)
    langs = full["lang"].to_pylist()
    sel_a = pa.array([l in ("de", "fr") for l in langs])
    a_dir, b_dir, u_dir = (tmp_path / "a", tmp_path / "b", tmp_path / "u")
    ina, inb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(full.filter(sel_a), ina)
    pq.write_table(full.filter(pa.compute.invert(sel_a)), inb)
    cfg = IndexConfig("d", documents_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000,
                                    commit_docs_threshold=100))
    build_index(ina, str(a_dir), cfg, execution="local")
    build_index(inb, str(b_dir), cfg, execution="local")
    build_index(DOCS, str(u_dir), cfg, execution="local")
    su = IndexSearcher(str(u_dir))

    # counts federate
    r = search_indexes([str(a_dir), str(b_dir)], "text:scan", max_hits=0)
    assert r.num_hits == su.search("text:scan", max_hits=0).num_hits
    # sorted top-k federates with the comparator (fast-field sort ->
    # identical values regardless of which index holds the doc)
    rm = search_indexes([str(a_dir), str(b_dir)], "text:scan", max_hits=20,
                        sort_by="n_chars", fetch_fields=["doc_id", "n_chars"])
    ru = su.search("text:scan", max_hits=20, sort_by="n_chars",
                   fetch_fields=["doc_id", "n_chars"])
    assert list(rm.hits["n_chars"]) == list(ru.hits["n_chars"])
    # ties at the kth boundary may resolve differently (split ids differ
    # between the federated and union layouts); non-boundary docs agree
    boundary = ru.hits["n_chars"].iloc[-1]
    assert set(rm.hits.loc[rm.hits["n_chars"] != boundary, "doc_id"]) == \
        set(ru.hits.loc[ru.hits["n_chars"] != boundary, "doc_id"])
    # full result set federates exactly
    rm2 = search_indexes([str(a_dir), str(b_dir)], "text:scan",
                         max_hits=10_000, fetch_fields=["doc_id"])
    ru2 = su.search("text:scan", max_hits=10_000, fetch_fields=["doc_id"])
    assert sorted(rm2.hits["doc_id"]) == sorted(ru2.hits["doc_id"])


def test_multi_index_aggs_offset_and_routing(tmp_path):
    """Review-2 fixes: federated aggs merge from partials; start_offset
    applies after the cross-index merge; fetch routing is exact even when
    one index dir is a path prefix of another."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.search.engine import IndexSearcher
    from quickwit_ray.search.multi import search_indexes

    full = pq.read_table(DOCS)
    langs = full["lang"].to_pylist()
    sel_a = pa.array([l in ("de", "fr") for l in langs])
    # deliberately prefix-colliding dirs: "idx" and "idx2"
    a_dir, b_dir = str(tmp_path / "idx"), str(tmp_path / "idx2")
    u_dir = str(tmp_path / "u")
    ina, inb = str(tmp_path / "a.parquet"), str(tmp_path / "b.parquet")
    pq.write_table(full.filter(sel_a), ina)
    pq.write_table(full.filter(pa.compute.invert(sel_a)), inb)
    cfg = IndexConfig("d", documents_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000,
                                    commit_docs_threshold=100))
    build_index(ina, a_dir, cfg, execution="local")
    build_index(inb, b_dir, cfg, execution="local")
    build_index(DOCS, u_dir, cfg, execution="local")
    su = IndexSearcher(u_dir)

    # aggs merge across indexes
    agg_spec = {"langs": {"terms": {"field": "lang", "size": 20}}}
    rm = search_indexes([a_dir, b_dir], "*", max_hits=0, aggs=agg_spec)
    ru = su.search("*", max_hits=0, aggs=agg_spec)
    assert rm.aggs == ru.aggs

    # start_offset applies after the merge: page2 == rows 10..19 of full
    base = search_indexes([a_dir, b_dir], "text:scan", max_hits=20,
                          sort_by="n_chars", fetch_fields=[])
    page2 = search_indexes([a_dir, b_dir], "text:scan", max_hits=10,
                           start_offset=10, sort_by="n_chars",
                           fetch_fields=[])
    assert list(zip(page2.hits["_split_id"], page2.hits["_doc_id"])) == \
        list(zip(base.hits["_split_id"], base.hits["_doc_id"]))[10:20]

    # prefix-colliding dirs: no duplicated fetches
    r = search_indexes([a_dir, b_dir], "text:scan", max_hits=50,
                       fetch_fields=["doc_id"])
    assert len(r.hits) == len(set(zip(r.hits["_split_id"], r.hits["_doc_id"])))
    assert r.hits["doc_id"].notna().all()


def test_create_backend_mismatch_refused(tmp_path):
    """Review-2: creating with a different metastore backend over an
    existing index must fail, not shadow/orphan it."""
    from quickwit_ray.config import DocMapping as DM, FieldMapping as FM

    mapping = DM(field_mappings=(FM(name="t", type="text"),),
                 doc_id_field="t", default_search_fields=("t",))
    d = str(tmp_path / "i")
    Index.create(d, "x", mapping)  # file backend
    with pytest.raises(FileExistsError):
        Index.create(d, "x2", mapping, metastore="sqlite")
    d2 = str(tmp_path / "i2")
    Index.create(d2, "y", mapping, metastore="sqlite")
    with pytest.raises(FileExistsError):
        Index.create(d2, "y2", mapping, metastore="file")


def test_strict_rejects_unknown_dotted_fields(tmp_path):
    from quickwit_ray.config import DocMapping as DM, FieldMapping as FM

    mapping = DM(field_mappings=(
        FM(name="body", type="text", record="freq"),
        FM(name="props", type="json"),
        FM(name="doc_id", type="i64", stored=True)),
        mode="strict", doc_id_field="doc_id", default_search_fields=("body",))
    idx = Index.create(str(tmp_path / "i"), "x", mapping)
    # dotted path rooted at the mapped json field: fine
    assert idx.ingest_docs([{"doc_id": 1, "body": "ok", "props.k": 1}]) == 1
    # ... and actually folded into the parent json object, so it is
    # searchable as props.k (not silently dropped as a stray column)
    assert list(idx.search("props.k:1", max_hits=10).hits["doc_id"]) == [1]
    # nested dotted path merges with existing json content
    assert idx.ingest_docs(
        [{"doc_id": 3, "body": "ok", "props": {"a": "x"}, "props.b.c": "y"}]
    ) == 1
    assert list(idx.search("props.b.c:y", max_hits=10).hits["doc_id"]) == [3]
    assert list(idx.search("props.a:x", max_hits=10).hits["doc_id"]) == [3]
    # dotted path with an unmapped root: rejected
    with pytest.raises(ValueError, match="unknown fields"):
        idx.ingest_docs([{"doc_id": 2, "body": "ok", "junk.field": 2}])


def test_cli_ray_init_kwargs_cluster_vs_local():
    """`ray job submit` contract: RAY_ADDRESS=local (the sandbox default)
    starts a private instance sized by --num-cpus; any cluster address
    ("auto", ray://...) ATTACHES — no num_cpus/include_dashboard override
    (a job that passes num_cpus to an existing cluster raises; one that
    silently starts a nested local instance would run single-node)."""
    from quickwit_ray.cli import _ray_init_kwargs

    kw = _ray_init_kwargs("local", 8)
    assert kw["address"] == "local" and kw["num_cpus"] == 8
    assert kw["include_dashboard"] is False
    for addr in ("auto", "ray://head:10001"):
        kw = _ray_init_kwargs(addr, 8)
        assert kw["address"] == addr
        assert "num_cpus" not in kw and "include_dashboard" not in kw
