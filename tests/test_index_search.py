"""End-to-end: build splits, search them, reproduce the reference's
golden BM25 top-k (tests.rs:616-706) through the WHOLE engine."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from quickwit_ray.config import (
    DocMapping,
    FieldMapping,
    IndexConfig,
    IndexSettings,
    documents_doc_mapping,
)
from quickwit_ray.index.build import build_index, garbage_collect
from quickwit_ray.search.engine import IndexSearcher


@pytest.fixture()
def golden_index(tmp_path):
    """The reference's 3-doc corpus: title/nofreq fields."""
    docs = pa.table({
        "doc": pa.array([0, 1, 2], pa.int64()),
        "title": ["one pad", "one", "one one"],
        "nofreq": ["two pad", "two", "two two"],
    })
    inp = str(tmp_path / "docs.parquet")
    pq.write_table(docs, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="title", type="text", tokenizer="default",
                         record="freq", fieldnorms=True),
            FieldMapping(name="nofreq", type="text", tokenizer="default",
                         record="basic", fieldnorms=True),
            FieldMapping(name="doc", type="i64", fast=True),
        ),
        doc_id_field="doc",
        default_search_fields=("title", "nofreq"),
    )
    config = IndexConfig(index_id="golden", doc_mapping=mapping)
    index_dir = str(tmp_path / "index")
    build_index(inp, index_dir, config, execution="local")
    return index_dir


def _score_hits(searcher, q):
    resp = searcher.search(q, max_hits=1000, sort_by="_score")
    return [(np.float32(s), int(d)) for s, d in
            zip(resp.hits["sort_key0"], resp.hits["_doc_id"])]


def test_golden_bm25_title(golden_index):
    s = IndexSearcher(golden_index)
    hits = _score_hits(s, "title:one")
    assert hits == [(np.float32(0.1738279), 2),
                    (np.float32(0.15965714), 1),
                    (np.float32(0.12343242), 0)]


def test_golden_bm25_basic_record(golden_index):
    s = IndexSearcher(golden_index)
    hits = _score_hits(s, "nofreq:two")
    # equal scores tie-break on doc id DESC (default desc direction)
    assert hits == [(np.float32(0.15965714), 1),
                    (np.float32(0.12343242), 2),
                    (np.float32(0.12343242), 0)]


def test_golden_bm25_two_clauses(golden_index):
    s = IndexSearcher(golden_index)
    hits = _score_hits(s, "title:one nofreq:two")
    assert hits == [(np.float32(0.31931427), 1),
                    (np.float32(0.2972603), 2),
                    (np.float32(0.24686484), 0)]


DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def docs_index(tmp_path_factory):
    from quickwit_ray.config import documents_doc_mapping

    tmp = tmp_path_factory.mktemp("docsidx")
    config = IndexConfig(
        index_id="documents",
        doc_mapping=documents_doc_mapping(),
        settings=IndexSettings(split_num_docs_target=200, batch_size=128),
    )
    index_dir = str(tmp / "index")
    build_index(DOCS, index_dir, config, execution="local", read_batch_size=128)
    return index_dir


def _truth_texts():
    t = pq.read_table(DOCS, columns=["doc_id", "text", "lang"]).to_pandas()
    return t


def test_docs_index_splits(docs_index):
    s = IndexSearcher(docs_index)
    splits = s.manifest.published_splits()
    assert len(splits) == 3  # 500 docs, target 200 -> 200/200/100
    assert sum(sp.num_docs for sp in splits) == 500


def test_term_search_counts_match_python_truth(docs_index):
    from quickwit_ray.functions.tokenizers import tokenize

    s = IndexSearcher(docs_index)
    truth = _truth_texts()
    for term in ["scan", "merge", "the", "zzzznotaterm"]:
        expected = sum(term in tokenize(t, "default") for t in truth["text"])
        resp = s.search(f"text:{term}", max_hits=0)
        assert resp.num_hits == expected, term


def test_and_or_not(docs_index):
    from quickwit_ray.functions.tokenizers import tokenize

    s = IndexSearcher(docs_index)
    truth = _truth_texts()
    toks = [set(tokenize(t, "default")) for t in truth["text"]]
    n_and = sum(1 for t in toks if "scan" in t and "merge" in t)
    n_or = sum(1 for t in toks if "scan" in t or "merge" in t)
    n_not = sum(1 for t in toks if "scan" in t and "merge" not in t)
    assert s.search("+text:scan +text:merge", max_hits=0).num_hits == n_and
    assert s.search("text:scan OR text:merge", max_hits=0).num_hits == n_or
    assert s.search("text:scan -text:merge", max_hits=0).num_hits == n_not


def test_docstore_roundtrip_byte_identical(docs_index):
    """Per-row invariant: text byte-identical through the docstore."""
    s = IndexSearcher(docs_index)
    truth = _truth_texts().set_index("doc_id")
    resp = s.search("text:scan", max_hits=20, sort_by="_score")
    assert len(resp.hits) == 20
    for _, row in resp.hits.iterrows():
        assert row["text"] == truth.loc[row["doc_id"], "text"]


def test_phrase_search(docs_index):
    import re

    s = IndexSearcher(docs_index)
    truth = _truth_texts()
    # pick a two-word sequence present in the corpus
    first = truth["text"].iloc[0].split()[:2]
    phrase = " ".join(w.lower() for w in first)
    pat = re.compile(r"(^|[^a-z0-9])" + re.escape(first[0].lower())
                     + r"[^a-z0-9]+" + re.escape(first[1].lower())
                     + r"([^a-z0-9]|$)")
    expected = sum(bool(pat.search(t.lower())) for t in truth["text"])
    got = s.search(f'text:"{phrase}"', max_hits=0).num_hits
    assert got == expected and got >= 1


def test_termset_and_tag_pruning(docs_index):
    s = IndexSearcher(docs_index)
    truth = _truth_texts()
    expected = int(truth["lang"].isin(["de", "fr"]).sum())
    assert s.search("lang: IN [de fr]", max_hits=0).num_hits == expected


def test_range_query_on_fast_field(docs_index):
    s = IndexSearcher(docs_index)
    t = pq.read_table(DOCS, columns=["n_chars"]).to_pandas()
    expected = int(((t["n_chars"] >= 500) & (t["n_chars"] < 900)).sum())
    assert s.search("n_chars:[500 TO 900}", max_hits=0).num_hits == expected


def test_sort_by_fast_field(docs_index):
    s = IndexSearcher(docs_index)
    truth = _truth_texts()
    resp = s.search("*", max_hits=5, sort_by="n_chars")
    t = pq.read_table(DOCS, columns=["doc_id", "n_chars"]).to_pandas()
    top = t.sort_values(["n_chars", "doc_id"], ascending=False).head(5)
    assert list(resp.hits["doc_id"]) == list(top["doc_id"])
    _ = truth


def test_match_all_count_fast_path(docs_index):
    s = IndexSearcher(docs_index)
    assert s.search("*", max_hits=0).num_hits == 500


def test_exists_and_wildcard(docs_index):
    s = IndexSearcher(docs_index)
    assert s.search("n_chars:*", max_hits=0).num_hits == 500
    from quickwit_ray.functions.tokenizers import tokenize

    truth = _truth_texts()
    expected = sum(any(tok.startswith("mer") for tok in tokenize(t, "default"))
                   for t in truth["text"])
    assert s.search("text:mer*", max_hits=0).num_hits == expected


def test_search_after_pagination(docs_index):
    s = IndexSearcher(docs_index)
    all_hits = s.search("text:scan", max_hits=20, sort_by="_score",
                        fetch_fields=[]).hits
    page1 = s.search("text:scan", max_hits=10, sort_by="_score",
                     fetch_fields=[]).hits
    r1 = s.search("text:scan", max_hits=10, sort_by="_score", fetch_fields=[])
    page2 = s.search("text:scan", max_hits=10, sort_by="_score",
                     search_after=r1.scroll_cursor, fetch_fields=[]).hits
    got = list(zip(page1["_split_id"], page1["_doc_id"])) + list(zip(page2["_split_id"], page2["_doc_id"]))
    assert got == list(zip(all_hits["_split_id"], all_hits["_doc_id"]))


def test_aggregations(docs_index):
    s = IndexSearcher(docs_index)
    truth = _truth_texts()
    resp = s.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 20}},
        "chars": {"stats": {"field": "n_chars"}},
        "card": {"cardinality": {"field": "lang"}},
    })
    t = pq.read_table(DOCS, columns=["lang", "n_chars"]).to_pandas()
    vc = t["lang"].value_counts()
    got = {b["key"]: b["doc_count"] for b in resp.aggs["langs"]["buckets"]}
    assert got == vc.to_dict()
    assert resp.aggs["chars"]["count"] == 500
    assert resp.aggs["chars"]["sum"] == pytest.approx(t["n_chars"].sum())
    assert resp.aggs["card"]["value"] == pytest.approx(t["lang"].nunique(), rel=0.05)
    _ = truth


def test_terms_agg_custom_order(docs_index):
    """ES terms `order` — by sub-agg metric (the find-trace-ids collector
    pattern: terms ordered by max timestamp) and by _key."""
    s = IndexSearcher(docs_index)
    t = pq.read_table(DOCS, columns=["lang", "n_chars"]).to_pandas()

    resp = s.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 3,
                            "order": {"longest": "desc"}},
                  "aggs": {"longest": {"max": {"field": "n_chars"}}}}})
    got = [(b["key"], b["longest"]["value"])
           for b in resp.aggs["langs"]["buckets"]]
    truth = (t.groupby("lang")["n_chars"].max()
             .reset_index().sort_values(["n_chars", "lang"],
                                        ascending=[False, True]))
    want = [(r.lang, float(r.n_chars)) for r in truth.head(3).itertuples()]
    assert got == want

    # order by key ascending; and per-split truncation keeps the custom
    # order exact when split_size covers the per-split distinct keys
    resp2 = s.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 2,
                            "order": {"_key": "asc"}}}})
    keys = [b["key"] for b in resp2.aggs["langs"]["buckets"]]
    assert keys == sorted(t["lang"].unique())[:2]

    resp3 = s.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 3, "split_size": 50,
                            "order": {"longest": "desc"}},
                  "aggs": {"longest": {"max": {"field": "n_chars"}}}}})
    got3 = [(b["key"], b["longest"]["value"])
            for b in resp3.aggs["langs"]["buckets"]]
    assert got3 == want


def test_resume_idempotent(tmp_path, docs_index):
    """Re-running build over the same input is a no-op (checkpoints)."""
    from quickwit_ray.config import documents_doc_mapping

    config = IndexConfig(index_id="documents", doc_mapping=documents_doc_mapping(),
                         settings=IndexSettings(split_num_docs_target=200))
    before = sorted(os.listdir(os.path.join(docs_index, "splits")))
    stats = build_index(DOCS, docs_index, config, execution="local")
    assert stats.num_docs == 0  # nothing pending
    after = sorted(os.listdir(os.path.join(docs_index, "splits")))
    assert before == after


def test_gc_removes_orphans(docs_index):
    orphan = os.path.join(docs_index, "splits", "deadbeef-00000.staged")
    os.makedirs(orphan, exist_ok=True)
    removed = garbage_collect(docs_index)
    assert "deadbeef-00000.staged" in removed
    assert not os.path.exists(orphan)


def test_partition_routing(tmp_path):
    """Doc routing via partition_key: rows hash-route to per-partition
    workbenches; splits carry partition_id; counts preserved."""
    from quickwit_ray.config import DocMapping, FieldMapping

    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", tokenizer="default",
                         record="freq", fieldnorms=True),
            FieldMapping(name="lang", type="text", tokenizer="raw",
                         record="basic", fast=True),
            FieldMapping(name="doc_id", type="i64", fast=True),
        ),
        partition_key="lang", max_num_partitions=8,
        doc_id_field="doc_id", default_search_fields=("text",))
    cfg = IndexConfig("routed", mapping)
    d = str(tmp_path / "idx")
    build_index(DOCS, d, cfg, execution="local", read_batch_size=100)
    s = IndexSearcher(d)
    splits = s.manifest.published_splits()
    pids = {sp.partition_id for sp in splits}
    assert len(pids) > 1  # several routing partitions materialized
    assert sum(sp.num_docs for sp in splits) == 500
    truth = _truth_texts()
    # per-language docs land wholly in one partition
    for lang in truth["lang"].unique():
        n = s.search(f"lang:{lang}", max_hits=0).num_hits
        assert n == int((truth["lang"] == lang).sum())


def test_distributed_ray_search(docs_index, ray_session):
    """The Ray actor-pool search path returns the same results as local."""
    s_local = IndexSearcher(docs_index, execution="local")
    s_ray = IndexSearcher(docs_index, execution="ray")
    for q in ["text:scan", "text:scan OR text:merge", "*"]:
        rl = s_local.search(q, max_hits=15, sort_by="_score", fetch_fields=[])
        rr = s_ray.search(q, max_hits=15, sort_by="_score", fetch_fields=[])
        assert rl.num_hits == rr.num_hits, q
        assert list(rl.hits["_doc_id"]) == list(rr.hits["_doc_id"]), q
    ra = s_ray.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 10}}})
    la = s_local.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 10}}})
    assert ra.aggs == la.aggs


def test_ray_partials_in_split_order(docs_index, ray_session, monkeypatch):
    """The ray fan-out returns partials in split order, not completion
    order: agg merges fold float sums in list order, so a scored ray
    query with aggs must fold them as the local fan-out does, whichever
    leaf finishes first."""
    import ray

    wait = ray.wait

    def last_ready_first(refs, num_returns=1, **kw):
        ready, _ = wait(refs, num_returns=len(refs), **kw)
        return [ready[-1]], [r for r in refs if r is not ready[-1]]

    kw = dict(max_hits=10, sort_by="_score", fetch_fields=[],
              keep_agg_partials=True,
              aggs={"l": {"terms": {"field": "lang"}},
                    "n": {"avg": {"field": "n_chars"}}})
    q = "text:scan OR text:merge"
    local = IndexSearcher(docs_index, execution="local").search(q, **kw)
    monkeypatch.setattr(ray, "wait", last_ready_first)
    rr = IndexSearcher(docs_index, execution="ray").search(q, **kw)
    assert len(local.agg_partials) == 3
    assert rr.agg_partials == local.agg_partials
    assert rr.aggs == local.aggs


def test_ray_search_survives_actor_kill(docs_index, ray_session):
    """A leaf whose searcher actor died is retried on another actor
    (reference cluster_client.rs retry-on-other-node): the query still
    completes with ZERO failed splits, and the dead slot is revived for
    subsequent queries."""
    import ray

    s = IndexSearcher(docs_index, execution="ray", concurrency=3)
    baseline = s.search("*", max_hits=15, fetch_fields=[])
    pool = s._actor_pool
    assert pool is not None and len(pool.actors) >= 2
    # kill the actor that actually serves the first split
    import os as _os
    sd = _os.path.join(docs_index, "splits",
                       s.manifest.published_splits()[0].split_id)
    victim = pool.actors[pool._route(sd)]
    ray.kill(victim, no_restart=True)
    r = s.search("*", max_hits=15, fetch_fields=[])
    assert r.failed_splits == []
    assert r.num_hits == baseline.num_hits
    assert list(r.hits["_doc_id"]) == list(baseline.hits["_doc_id"])
    assert pool.retries >= 1
    # the dead slot was replaced: the next query needs no retry
    n = pool.retries
    r2 = s.search("text:scan", max_hits=15, fetch_fields=[])
    assert r2.failed_splits == []
    assert pool.retries == n
    pool.shutdown()


def test_datetime_string_parsing(tmp_path):
    """String timestamp columns parse via the multi-format chain
    (rfc3339 / unix_timestamp / strptime) into fast timestamp fields."""
    from quickwit_ray.config import DocMapping, FieldMapping

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "msg": ["alpha", "bravo", "charlie", "delta"],
        "ts": ["2024-03-01T12:00:00Z", "2024-03-02T12:00:00Z",
               "1709463600", "02/03/2024 09:30"],
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="msg", type="text", record="freq", fieldnorms=True),
            FieldMapping(name="ts", type="datetime", fast=True, stored=True,
                         input_formats=("rfc3339", "unix_timestamp",
                                        "strptime:%d/%m/%Y %H:%M")),
            FieldMapping(name="doc_id", type="i64", fast=True),
        ),
        timestamp_field="ts", doc_id_field="doc_id",
        default_search_fields=("msg",))
    cfg = IndexConfig("dt", mapping)
    d = str(tmp_path / "idx")
    build_index(inp, d, cfg, execution="local")
    s = IndexSearcher(d)
    n = s.search('ts:[2024-03-02T00:00:00Z TO 2024-03-04T00:00:00Z}',
                 max_hits=0).num_hits
    # rows 1 (03-02), 2 (unix 1709463600 = 2024-03-03T11:00Z), 3 (03/03 strptime)
    assert n == 3
    n2 = s.search('ts:[2024-03-01T00:00:00Z TO 2024-03-02T00:00:00Z}',
                  max_hits=0).num_hits
    assert n2 == 1


def test_heap_size_flush(tmp_path):
    """The workbench seals a split when the heap estimate crosses
    heap_size_bytes (indexer.rs:604-611 memory commit trigger)."""
    cfg = IndexConfig(
        "documents", documents_doc_mapping(),
        IndexSettings(split_num_docs_target=1_000_000,
                      heap_size_bytes=200_000))
    d = str(tmp_path / "idx")
    build_index(DOCS, d, cfg, execution="local", read_batch_size=64)
    s = IndexSearcher(d)
    splits = s.manifest.published_splits()
    assert len(splits) > 1  # memory trigger forced multiple splits
    assert sum(sp.num_docs for sp in splits) == 500
    assert s.search("text:scan", max_hits=0).num_hits > 0


def test_wildcard_on_raw_field_keeps_case(tmp_path):
    import pyarrow as pa

    tbl = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                    "tagv": ["Alpha-One", "beta-two"]})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(field_mappings=(
        FieldMapping(name="tagv", type="text", tokenizer="raw", record="basic"),
        FieldMapping(name="doc_id", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=("tagv",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("wc", mapping), execution="local")
    s = IndexSearcher(d)
    assert s.search("tagv:Alpha*", max_hits=0).num_hits == 1
    assert s.search("tagv:alpha*", max_hits=0).num_hits == 0  # raw keeps case
    assert s.search("tagv:beta?two", max_hits=0).num_hits == 1


def test_multivalued_text_field(tmp_path):
    """Multi-valued text (list<string> column = Cardinality MultiValued):
    every element's tokens index under the field; phrases stay within one
    element."""
    import pyarrow as pa

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "tags": pa.array([["red apple", "green pear"], ["blue sky"], None],
                         pa.list_(pa.string())),
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(field_mappings=(
        FieldMapping(name="tags", type="text", record="position",
                     fieldnorms=True),
        FieldMapping(name="doc_id", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=("tags",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("mv", mapping), execution="local")
    s = IndexSearcher(d)
    assert s.search("tags:apple", max_hits=0).num_hits == 1
    assert s.search("tags:pear OR tags:sky", max_hits=0).num_hits == 2
    assert s.search('tags:"green pear"', max_hits=0).num_hits == 1
    # phrase across elements must NOT match
    assert s.search('tags:"apple green"', max_hits=0).num_hits == 0


def test_ip_field_type(tmp_path):
    """ip fields normalize to IPv6-mapped exploded form: equality and
    ranges work across mixed v4/v6 notations."""
    import pyarrow as pa

    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "client_ip": ["10.0.0.1", "10.0.0.200", "192.168.1.5",
                      "::ffff:10.0.0.50"],
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(field_mappings=(
        FieldMapping(name="client_ip", type="ip", fast=True, indexed=True,
                     stored=True),
        FieldMapping(name="doc_id", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=())
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("ipidx", mapping), execution="local")
    s = IndexSearcher(d)
    assert s.search("client_ip:10.0.0.1", max_hits=0).num_hits == 1
    # v6-mapped spelling of a v4 address matches the v4 doc
    assert s.search("client_ip:::ffff:10.0.0.200", max_hits=0).num_hits == 1
    # numeric-order range over the 10.0.0.0/24 block
    n = s.search("client_ip:[10.0.0.0 TO 10.0.0.255]", max_hits=0).num_hits
    assert n == 3  # .1, .200, and the v6-mapped .50


def test_failed_splits_reported_not_fatal(tmp_path):
    """A corrupt/missing split degrades the response (failed_splits
    reported, collector.rs:586-594 semantics) instead of failing it."""
    import shutil

    cfg = IndexConfig("documents", documents_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000,
                                    commit_docs_threshold=200))
    d = str(tmp_path / "idx")
    build_index(DOCS, d, cfg, execution="local", read_batch_size=200)
    s = IndexSearcher(d)
    victim = s.manifest.published_splits()[0].split_id
    shutil.rmtree(f"{d}/splits/{victim}")
    import quickwit_ray.search.engine as em

    em._GLOBAL_READER_CACHE._cache.clear()
    r = s.search("text:scan", max_hits=5, sort_by="_score", fetch_fields=[])
    assert len(r.failed_splits) == 1
    assert r.failed_splits[0]["failed"] == victim
    assert r.num_hits > 0  # surviving splits still answer


def test_object_field_struct_flattening(tmp_path):
    """Object fields: struct columns flatten to dotted names; with dynamic
    mode the children index + store automatically."""
    import pyarrow as pa

    tbl = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": ["alpha body", "beta body"],
        "meta": pa.array([{"author": "ada lovelace", "rev": "r1"},
                          {"author": "alan turing", "rev": "r2"}],
                         pa.struct([("author", pa.string()),
                                    ("rev", pa.string())])),
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(field_mappings=(
        FieldMapping(name="text", type="text", record="freq", fieldnorms=True),
        FieldMapping(name="doc_id", type="i64", fast=True)),
        mode="dynamic", doc_id_field="doc_id", default_search_fields=("text",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("obj", mapping), execution="local")
    s = IndexSearcher(d)
    assert s.search("meta.author:lovelace", max_hits=0).num_hits == 1
    assert s.search("meta.rev:r2", max_hits=0).num_hits == 1
    r = s.search("meta.author:turing", max_hits=1, fetch_fields=["doc_id"])
    assert int(r.hits["doc_id"].iloc[0]) == 1


def test_sloppy_phrase_vectorized_equals_reference_loop(tmp_path):
    """The vectorized sloppy-phrase must equal the per-doc reference
    definition on random position data, including stopword-dense docs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.search.engine import IndexSearcher

    rng = np.random.default_rng(11)
    vocab = ["the", "quick", "fox", "runs", "far", "pad"]
    texts = []
    for _ in range(300):
        n = rng.integers(3, 40)
        texts.append(" ".join(rng.choice(vocab, size=n)))
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "body": texts})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("slop", mapping), execution="local")
    s = IndexSearcher(d)

    def ref_matches(terms, slop):
        # Per-doc reference of the exact tantivy-style pairwise slop fold:
        # greedy maximal one-to-one windowed matching per adjacent pair over
        # adjusted positions; matched right positions become the chain.
        out = {}
        for did, t in enumerate(texts):
            words = t.split()
            pos = {w: [i for i, x in enumerate(words) if x == w] for w in set(terms)}
            if any(not pos.get(w) for w in terms):
                continue
            chain = list(pos[terms[0]])
            for i in range(1, len(terms)):
                rights = [q - i for q in pos[terms[i]]]
                nxt, p = [], 0
                for r in rights:
                    while p < len(chain) and chain[p] < r - slop:
                        p += 1
                    if p < len(chain) and chain[p] <= r + slop:
                        nxt.append(r)
                        p += 1
                chain = nxt
                if not chain:
                    break
            if chain:
                out[did] = len(chain)
        return out

    for terms, slop in [(["the", "quick"], 1), (["the", "fox"], 2),
                        (["the", "the"], 1), (["quick", "fox", "runs"], 3)]:
        q = f'body:"{" ".join(terms)}"~{slop}'
        r = s.search(q, max_hits=1000, fetch_fields=["doc_id"])
        want = ref_matches(terms, slop)
        got = sorted(int(x) for x in r.hits["doc_id"]) if len(r.hits) else []
        assert got == sorted(want), (terms, slop)


def test_slop_semantics_goldens(tmp_path):
    """Pinned asymmetric slop cases for the exact tantivy-style fold:
    transposition costs 2, and one-to-one consumption means a single
    anchor occurrence cannot validate two downstream occurrences."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.search.engine import IndexSearcher

    texts = [
        "bb aa",             # 0: transposed pair
        "aa bb bb xx xx cc",  # 1: one aa, two bb, far cc — consumption case
        "aa bb bb xx cc",     # 2: control — cc close enough to the chain
        "aa bb aa bb",        # 3: tf=2 for "aa bb"
        "aa bb cc dd",        # 4: tf=1, same length as 3
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "body": texts})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("slopg", mapping), execution="local")
    s = IndexSearcher(d)

    def ids(q):
        r = s.search(q, max_hits=100, fetch_fields=["doc_id"])
        return sorted(int(x) for x in r.hits["doc_id"]) if len(r.hits) else []

    # transposition: "aa bb" over "bb aa" needs slop 2, not 1
    assert 0 not in ids('body:"aa bb"~1')
    assert 0 in ids('body:"aa bb"~2')
    # consumption: the single aa anchors only ONE bb; cc@5 (adj 3) is not
    # within slop 2 of the surviving chain position (0) in doc 1, while in
    # doc 2 cc@4 (adj 2) is — the round-2 existence fold matched both.
    three = ids('body:"aa bb cc"~2')
    assert 1 not in three
    assert 2 in three
    # phrase tf feeds BM25: doc 3 (tf=2) outranks doc 4 (tf=1, same length)
    r = s.search('body:"aa bb"~1', max_hits=10, sort_by="_score",
                 fetch_fields=["doc_id"])
    got = [int(x) for x in r.hits["doc_id"]]
    assert got.index(3) < got.index(4)
