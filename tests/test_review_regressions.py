"""Regression tests for the round-1 code-review findings."""

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
from quickwit_ray.index.build import build_index
from quickwit_ray.search.engine import IndexSearcher
from tests.reference_eval import reference_search

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def docs_idx(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("regr")
    d = str(tmp / "idx")
    cfg = IndexConfig("documents", documents_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000,
                                    commit_docs_threshold=150))
    build_index(DOCS, d, cfg, execution="local", read_batch_size=150)
    return d


def test_search_after_with_tied_sort_values(docs_idx):
    """Pagination through a sort with MANY ties (lang has 5 values over
    500 docs) must neither drop nor duplicate hits — the cursor carries
    the (split_id, doc_id) address like the reference GlobalDocAddress."""
    s = IndexSearcher(docs_idx)
    # sort by a low-cardinality fast field -> ties everywhere
    pages = []
    cursor = None
    while True:
        r = s.search("text:scan", max_hits=25, sort_by="n_chars",
                     search_after=cursor, fetch_fields=[])
        if not len(r.hits):
            break
        pages.append(r.hits)
        cursor = r.scroll_cursor
        if len(pages) > 30:
            pytest.fail("pagination did not terminate")
    got = pd.concat(pages, ignore_index=True)
    full = s.search("text:scan", max_hits=10_000, sort_by="n_chars",
                    fetch_fields=[]).hits
    assert len(got) == len(full)
    assert list(zip(got["_split_id"], got["_doc_id"])) == \
        list(zip(full["_split_id"], full["_doc_id"]))


def test_search_after_single_key_desc_score(docs_idx):
    s = IndexSearcher(docs_idx)
    full = s.search("text:scan OR text:merge", max_hits=40, sort_by="_score",
                    fetch_fields=[]).hits
    p1 = s.search("text:scan OR text:merge", max_hits=20, sort_by="_score",
                  fetch_fields=[])
    p2 = s.search("text:scan OR text:merge", max_hits=20, sort_by="_score",
                  search_after=p1.scroll_cursor, fetch_fields=[]).hits
    got = list(zip(p1.hits["_split_id"], p1.hits["_doc_id"])) + \
        list(zip(p2["_split_id"], p2["_doc_id"]))
    assert got == list(zip(full["_split_id"], full["_doc_id"]))


def test_asc_score_sort_not_corrupted_by_pruning(docs_idx):
    """Ascending-_score sort must NOT use MaxScore partial scores."""
    s = IndexSearcher(docs_idx)
    fast = s.search("text:scan OR text:merge", max_hits=10,
                    sort_by=["+_score"], fetch_fields=[])
    slow = reference_search(s, "text:scan OR text:merge", max_hits=10,
                            sort_by=["+_score"])
    assert list(fast.hits["_doc_id"]) == list(slow.hits["_doc_id"])
    assert np.allclose(fast.hits["sort_key0"], slow.hits["sort_key0"],
                       rtol=0, atol=0)


def test_null_timestamp_rows_do_not_crash(tmp_path):
    tbl = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "msg": ["a b", "c d", "e f"],
        "ts": pa.array([1_700_000_000_000_000, None, 1_700_000_100_000_000],
                       pa.timestamp("us")),
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="msg", type="text", record="freq", fieldnorms=True),
            FieldMapping(name="ts", type="datetime", fast=True),
            FieldMapping(name="doc_id", type="i64", fast=True)),
        timestamp_field="ts", doc_id_field="doc_id",
        default_search_fields=("msg",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("nt", mapping), execution="local")
    s = IndexSearcher(d)
    assert s.search("msg:a", max_hits=0).num_hits == 1
    sm = s.manifest.published_splits()[0]
    assert sm.time_range_start == 1_700_000_000_000_000


def test_negative_range_bounds(docs_idx):
    from quickwit_ray.search.parser import parse_query
    from quickwit_ray.search.ast import RangeQuery

    node = parse_query("n_chars:[-5 TO 900}")
    assert isinstance(node, RangeQuery)
    assert node.gte == "-5" and node.lt == "900"
    s = IndexSearcher(docs_idx)
    t = pq.read_table(DOCS, columns=["n_chars"]).to_pandas()
    expected = int(((t["n_chars"] >= -5) & (t["n_chars"] < 900)).sum())
    assert s.search("n_chars:[-5 TO 900}", max_hits=0).num_hits == expected


def test_numeric_term_query_equality(docs_idx):
    """`field:123` on an indexed numeric field matches via the fast field
    instead of silently returning nothing."""
    s = IndexSearcher(docs_idx)
    t = pq.read_table(DOCS, columns=["n_chars"]).to_pandas()
    some = int(t["n_chars"].iloc[0])
    expected = int((t["n_chars"] == some).sum())
    assert s.search(f"n_chars:{some}", max_hits=0).num_hits == expected


def test_es_sort_defaults_consistent(docs_idx):
    from quickwit_ray.search.es_dsl import es_search_request

    kw1 = es_search_request({"query": {"match_all": {}}, "sort": ["n_chars"]})
    kw2 = es_search_request({"query": {"match_all": {}},
                             "sort": [{"n_chars": {}}]})
    assert kw1["sort_by"] == kw2["sort_by"] == ["+n_chars"]
    kw3 = es_search_request({"query": {"match_all": {}}, "sort": ["_score"]})
    assert kw3["sort_by"] == ["-_score"]


def test_raw_tokenizer_multibyte_length_cut():
    """255-BYTE cut applies to the batch path for multibyte text too."""
    from quickwit_ray.functions.tokenizers import tokenize, tokenize_batch

    val = "中" * 100  # 100 chars, 300 utf-8 bytes
    assert tokenize(val, "raw") == []
    di, toks, _ = tokenize_batch([val, "ok"], "raw")
    assert list(toks) == ["ok"]


def test_dynamic_field_appearing_mid_stream(tmp_path):
    """A dynamic column that is all-null in early batches still aligns its
    fieldnorms/postings to the right doc ids."""
    rows = {"doc_id": list(range(400)), "text": [f"base w{i}" for i in range(400)],
            "extra": [None] * 200 + [f"tail{i}" for i in range(200)]}
    tbl = pa.table({"doc_id": pa.array(rows["doc_id"], pa.int64()),
                    "text": pa.array(rows["text"], pa.string()),
                    "extra": pa.array(rows["extra"], pa.string())})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", record="freq", fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", fast=True)),
        mode="dynamic", doc_id_field="doc_id", default_search_fields=("text",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("dynmid", mapping), execution="local",
                read_batch_size=100)
    s = IndexSearcher(d)
    # "tail50" lives at absolute doc 250 (third read batch)
    r = s.search("extra:tail50", max_hits=2, fetch_fields=["doc_id"])
    assert r.num_hits == 1 and int(r.hits["doc_id"].iloc[0]) == 250


def test_pruned_or_scoring_respects_timestamp_window(tmp_path):
    """ADVICE r1 (high): the MaxScore-pruned OR path must not run when a
    timestamp window is set — the window mask is applied after scoring, so
    docs whose scoring was skipped (partial score) would surface with wrong
    scores. 5 high-idf 'rare' docs sit outside the window; 95 'common' docs
    inside. Pruned and naive paths must agree exactly."""
    base = 1_700_000_000_000_000
    n = 100
    texts, tss = [], []
    for i in range(n):
        if i < 5:
            texts.append("rare common filler")
            tss.append(base + 10_000_000_000)       # OUTSIDE window
        else:
            texts.append("common filler pad")
            tss.append(base + i * 1_000_000)        # inside window
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "msg": pa.array(texts, pa.string()),
        "ts": pa.array(tss, pa.timestamp("us")),
    })
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="msg", type="text", record="freq", fieldnorms=True),
            FieldMapping(name="ts", type="datetime", fast=True),
            FieldMapping(name="doc_id", type="i64", fast=True)),
        timestamp_field="ts", doc_id_field="doc_id",
        default_search_fields=("msg",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("tsprune", mapping), execution="local")
    s = IndexSearcher(d)
    kw = dict(max_hits=10, sort_by="_score",
              start_timestamp=base, end_timestamp=base + n * 1_000_000)
    fast = s.search("msg:rare OR msg:common", fetch_fields=[], **kw)
    slow = reference_search(s, "msg:rare OR msg:common", **kw)
    assert list(fast.hits["_doc_id"]) == list(slow.hits["_doc_id"])
    assert np.allclose(fast.hits["sort_key0"], slow.hits["sort_key0"],
                       rtol=0, atol=0)
    assert fast.hits["sort_key0"].iloc[0] > 0.0


def test_comparison_shorthand_ranges(docs_idx):
    """ADVICE r1 (medium): `field:>=v` / `<=` / `>` / `<` parse as one-sided
    ranges (docs/reference/query-language.md:167-185), not full-text."""
    from quickwit_ray.search.ast import RangeQuery
    from quickwit_ray.search.parser import parse_query

    node = parse_query("n_chars:>=10")
    assert isinstance(node, RangeQuery) and node.gte == "10"
    node = parse_query("n_chars:<900")
    assert isinstance(node, RangeQuery) and node.lt == "900"
    s = IndexSearcher(docs_idx)
    t = pq.read_table(DOCS, columns=["n_chars"]).to_pandas()
    assert s.search("n_chars:>=900", max_hits=0).num_hits == \
        int((t["n_chars"] >= 900).sum())
    assert s.search("n_chars:<=900", max_hits=0).num_hits == \
        int((t["n_chars"] <= 900).sum())
    assert s.search("n_chars:>900", max_hits=0).num_hits == \
        int((t["n_chars"] > 900).sum())
    assert s.search("n_chars:<900", max_hits=0).num_hits == \
        int((t["n_chars"] < 900).sum())
    # combined with other clauses
    expected = int((t["n_chars"] >= 500).sum())
    r = s.search("text:scan AND n_chars:>=500", max_hits=0)
    assert 0 < r.num_hits <= expected


def test_strict_bulk_rejects_unknown_fields(tmp_path):
    """Round-2 review: strict doc mappings must reject docs with unknown
    keys (quickwit strict-mode semantics), not drop them silently."""
    from quickwit_ray.api import Index
    from quickwit_ray.config import DocMapping as DM, FieldMapping as FM

    mapping = DM(field_mappings=(
        FM(name="body", type="text", record="freq"),
        FM(name="doc_id", type="i64", stored=True)),
        mode="strict", doc_id_field="doc_id", default_search_fields=("body",))
    idx = Index.create(str(tmp_path / "i"), "x", mapping)
    with pytest.raises(ValueError, match="unknown fields"):
        idx.ingest_docs([{"doc_id": 1, "body": "ok", "doc_idd": 2}])
    # _id bulk metadata is exempt; lenient mode drops unknowns
    assert idx.ingest_docs([{"doc_id": 1, "body": "ok", "_id": "a"}]) == 1
    mapping_l = DM(field_mappings=mapping.field_mappings, mode="lenient",
                   doc_id_field="doc_id", default_search_fields=("body",))
    idx2 = Index.create(str(tmp_path / "i2"), "x2", mapping_l)
    assert idx2.ingest_docs([{"doc_id": 1, "body": "ok", "junk": 2}]) == 1


def test_scroll_renewal_uses_context_ttl():
    """Round-2 review: es_scroll without a scroll param must renew with
    the context's OWN TTL, not the 60 s global default."""
    import time as _t

    from quickwit_ray.search.scroll import ScrollManager

    class _FakeSearcher:
        def search(self, query=None, **kw):
            from quickwit_ray.search.engine import SearchResponse, _empty_hits

            h = _empty_hits()
            return SearchResponse(num_hits=0, hits=h)

    mgr = ScrollManager(_FakeSearcher())
    _, sid = mgr.start(None, scroll="800ms", max_hits=1)
    _t.sleep(0.45)
    mgr.next(sid)          # no scroll param -> renew by 800ms, NOT 60s
    _t.sleep(0.45)
    mgr.next(sid)          # still alive thanks to renewal
    _t.sleep(1.0)
    with pytest.raises(KeyError):
        mgr.next(sid)      # 800ms TTL elapsed -> expired


def test_custom_tokenizer_conflict_raises():
    from quickwit_ray.functions.tokenizers import register_custom_tokenizers

    register_custom_tokenizers([{"name": "t_conflict", "type": "ngram",
                                 "min_gram": 2, "max_gram": 2}])
    with pytest.raises(ValueError, match="different parameters"):
        register_custom_tokenizers([{"name": "t_conflict", "type": "ngram",
                                     "min_gram": 3, "max_gram": 3}])


def test_detect_language_case_insensitive_dedup():
    """Round-2 review: 'De' and 'de' are ONE stopword hit (lowercased set
    semantics), so case variants cannot inflate a language's count."""
    from quickwit_ray.functions.textstats import detect_language

    # de has 2 distinct stopwords (der, und); es would reach 3 only if the
    # case variants of 'de' counted separately
    text = "de De dE el der und est les the"
    assert detect_language([text])[0] != "es"


def test_manifest_reader_never_truncates_writer_log(tmp_path):
    """Round-2 review: a READER racing the writer's in-flight append must
    not destroy the line (no truncation on load); the writer starts its
    next append on a fresh line instead."""
    import os

    from quickwit_ray.state.manifest import Manifest, SplitMetadata

    d = str(tmp_path / "idx")
    w = Manifest(d)
    w.create({"index_id": "x"})
    w.publish([SplitMetadata("s1", "x", 10, 100)], checkpoint_partition="p1")
    log = os.path.join(d, "manifest.log")
    size_before = os.path.getsize(log)
    # simulate the writer's half-written line...
    with open(log, "a") as f:
        f.write('{"op":"publish","splits":[{"split_id":"inflight"')
    # ...while a reader loads concurrently
    r = Manifest(d)
    assert sorted(s.split_id for s in r.published_splits()) == ["s1"]
    assert os.path.getsize(log) > size_before  # reader did NOT truncate
    # the WRITER completes its line; a fresh load sees it
    with open(log, "a") as f:
        f.write(',"index_id":"x","num_docs":5,'
                '"uncompressed_docs_size_in_bytes":1}],'
                '"replaced":[],"checkpoints":{"p2":{"committed_at":1}}}\n')
    r2 = Manifest(d)
    assert sorted(s.split_id for s in r2.published_splits()) == ["inflight", "s1"]


def test_field_scoped_group(docs_idx):
    """`field:(a AND b)` scopes every bare clause in the group to the
    field (docs/reference/query-language.md field grouping)."""
    s = IndexSearcher(docs_idx)
    a = s.search("text:(scan AND merge)", max_hits=0).num_hits
    b = s.search("+text:scan +text:merge", max_hits=0).num_hits
    assert a == b > 0
    c = s.search("text:(scan OR merge)", max_hits=0).num_hits
    d = s.search("text:scan OR text:merge", max_hits=0).num_hits
    assert c == d
    e = s.search("text:(scan -merge)", max_hits=0).num_hits
    f = s.search("+text:scan -text:merge", max_hits=0).num_hits
    assert e == f
    # nested explicit fields inside a group keep their own field
    g = s.search("text:(scan AND n_chars:>=500)", max_hits=0).num_hits
    h = s.search("+text:scan +n_chars:>=500", max_hits=0).num_hits
    assert g == h


def test_empty_stream_export_typed_schema(tmp_path):
    """search_stream_index over an index with zero published splits must
    emit the fast fields' REAL types (not null-typed columns), matching
    the non-empty path (round-2 ADVICE, search_stream.py)."""
    from quickwit_ray.api import Index
    from quickwit_ray.pipelines.search_stream import search_stream_index

    mapping = DocMapping(field_mappings=(
        FieldMapping(name="body", type="text", record="freq"),
        FieldMapping(name="ts", type="datetime", fast=True),
        FieldMapping(name="val", type="f64", fast=True),
        FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "i")
    Index.create(d, "x", mapping)
    out = search_stream_index(d, "body:x", ["doc_id", "val", "ts"])
    sch = out.schema()
    types = dict(zip(sch.names, sch.types))
    assert types["doc_id"] == pa.int64()
    assert types["val"] == pa.float64()
    # datetime fast fields surface as int64 on the non-empty path too
    assert types["ts"] == pa.int64()
