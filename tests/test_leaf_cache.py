"""Leaf request cache (quickwit-search/src/leaf_cache.rs analog):
per-(split, request) partial results are memoized; split immutability
makes entries permanently valid; new splits change the key set so
results never go stale."""

import pyarrow.parquet as pq

from quickwit_ray.api import Index
from quickwit_ray.config import IndexSettings, documents_doc_mapping
from quickwit_ray.search import engine

DOCS = "/root/testdata/sf0.001/documents.parquet"


def test_leaf_cache_hits_and_freshness(tmp_path):
    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping(),
                       settings=IndexSettings(split_num_docs_target=10_000))
    rows = pq.read_table(DOCS).to_pylist()
    idx.ingest_docs(rows[:300], commit_id="a")
    engine._GLOBAL_LEAF_CACHE.clear()
    h0, m0 = engine._GLOBAL_LEAF_CACHE.hits, engine._GLOBAL_LEAF_CACHE.misses

    r1 = idx.search("text:scan", max_hits=20, fetch_fields=["doc_id"])
    assert engine._GLOBAL_LEAF_CACHE.misses > m0
    r2 = idx.search("text:scan", max_hits=20, fetch_fields=["doc_id"])
    assert engine._GLOBAL_LEAF_CACHE.hits > h0
    assert r1.num_hits == r2.num_hits
    assert list(r1.hits["doc_id"]) == list(r2.hits["doc_id"])
    # aggs partials are cached safely (merge folds states in place — the
    # cache must hand out copies)
    a1 = idx.search("*", max_hits=0, aggs={
        "l": {"terms": {"field": "lang"}}}).aggs
    a2 = idx.search("*", max_hits=0, aggs={
        "l": {"terms": {"field": "lang"}}}).aggs
    assert a1 == a2
    # new split -> new (split, request) keys -> fresh results, no staleness
    idx.ingest_docs(rows[300:500], commit_id="b")
    r3 = idx.search("text:scan", max_hits=1000, fetch_fields=["doc_id"])
    batch = Index.create(str(tmp_path / "ref"), "ref",
                         documents_doc_mapping())
    batch.ingest_docs(rows, commit_id="all")
    want = batch.search("text:scan", max_hits=1000,
                        fetch_fields=["doc_id"])
    assert sorted(r3.hits["doc_id"]) == sorted(want.hits["doc_id"])


def test_theta_pruned_partials_not_reused_after_split_removal(tmp_path):
    """Review regression: a partial pruned under theta from ANOTHER split
    must not serve the same request once that split is gone — theta0 is
    part of the cache key, so the shrunken split set re-evaluates."""
    from quickwit_ray.state.manifest import Manifest

    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping(),
                       settings=IndexSettings(split_num_docs_target=10_000))
    # split A: docs where the query terms are dense (high BM25); split B:
    # docs that match weakly — B's leaf gets pruned under A's theta
    a_rows = ([{"doc_id": i, "text": "zebra alpha " * 5, "lang": "en",
                "source": "w", "n_chars": 60} for i in range(10)]
              + [{"doc_id": 100 + i, "text": f"plain filler doc {i}",
                  "lang": "en", "source": "w", "n_chars": 20}
                 for i in range(190)])
    b_rows = ([{"doc_id": 1000 + i,
                "text": "zebra " + "filler words here " * 40, "lang": "en",
                "source": "w", "n_chars": 700} for i in range(5)]
              + [{"doc_id": 1100 + i, "text": f"quiet other doc {i}",
                  "lang": "en", "source": "w", "n_chars": 20}
                 for i in range(45)])
    idx.ingest_docs(a_rows, commit_id="a")
    idx.ingest_docs(b_rows, commit_id="b")
    engine._GLOBAL_LEAF_CACHE.clear()
    r_full = idx.search("text:zebra OR text:alpha", max_hits=5,
                        sort_by="_score", fetch_fields=["doc_id"])
    assert all(d < 100 for d in r_full.hits["doc_id"])  # A wins
    # drop split A
    m = Manifest(idx.index_dir)
    a_split = next(s.split_id for s in m.published_splits()
                   if s.source_partition_id == "ingest:a")
    m.mark_for_deletion([a_split])
    r_cached = idx.search("text:zebra OR text:alpha", max_hits=5,
                          sort_by="_score", fetch_fields=["doc_id"])
    engine._GLOBAL_LEAF_CACHE.clear()
    r_truth = idx.search("text:zebra OR text:alpha", max_hits=5,
                         sort_by="_score", fetch_fields=["doc_id"])
    assert list(r_cached.hits["doc_id"]) == list(r_truth.hits["doc_id"])
    assert list(r_cached.hits["sort_key0"]) == list(r_truth.hits["sort_key0"])
    assert all(s > 0 for s in r_cached.hits["sort_key0"])


def test_theta_pruned_repeat_queries_hit(tmp_path):
    """Round-5: theta-pruned evaluations are STORED (tagged with their
    theta) and served under the dominance rule — a repeat of the same
    scored multi-split query must not re-evaluate ANY leaf, pruned or
    not (the dashboard-repeat p95 case)."""
    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping(),
                       settings=IndexSettings(split_num_docs_target=10_000))
    rows = pq.read_table(DOCS).to_pylist()
    idx.ingest_docs(rows[:250], commit_id="a")
    idx.ingest_docs(rows[250:500], commit_id="b")
    idx.ingest_docs(rows[500:750], commit_id="c")
    engine._GLOBAL_LEAF_CACHE.clear()
    q = "text:scan OR text:data"
    r1 = idx.search(q, max_hits=5, sort_by="_score",
                    fetch_fields=["doc_id"])
    m_after_fill = engine._GLOBAL_LEAF_CACHE.misses
    r2 = idx.search(q, max_hits=5, sort_by="_score",
                    fetch_fields=["doc_id"])
    assert engine._GLOBAL_LEAF_CACHE.misses == m_after_fill
    assert list(r1.hits["doc_id"]) == list(r2.hits["doc_id"])
    assert list(r1.hits["sort_key0"]) == list(r2.hits["sort_key0"])


def test_rebuilt_split_dir_not_served_stale(tmp_path):
    """Review regression: clear() + re-ingest under the SAME commit id
    recreates the same split_dir with different docs — the artifact
    stamp in the cache key must invalidate old entries."""
    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping())
    idx.ingest_docs([{"doc_id": 1, "text": "old corpus doc", "lang": "en",
                      "source": "w", "n_chars": 10}], commit_id="c")
    assert idx.search("text:old", max_hits=5).num_hits == 1
    idx.clear()
    idx.ingest_docs([{"doc_id": 2, "text": "new corpus doc", "lang": "en",
                      "source": "w", "n_chars": 10}], commit_id="c")
    assert idx.search("text:old", max_hits=5).num_hits == 0
    assert idx.search("text:new", max_hits=5).num_hits == 1


def test_leaf_cache_byte_budget_adversarial():
    """Byte ceiling under adversarial entry sizes (reference
    LeafSearchCache is 64 MB byte-bound, leaf_cache.rs): big partials
    evict early, a partial larger than the whole cache is never stored."""
    import numpy as np

    c = engine._LeafCache(capacity=512, byte_budget=1_000_000)
    # 10 entries x ~200 KB: only ~5 fit
    for i in range(10):
        c.put(("k", i), {"doc_ids": np.zeros(25_000, np.int64)})
    assert c.retained_bytes <= 1_000_000
    assert c.get(("k", 9)) is not None      # newest kept
    assert c.get(("k", 0)) is None          # oldest evicted
    # an entry bigger than the budget is refused outright
    c.put(("giant",), {"doc_ids": np.zeros(300_000, np.int64)})
    assert c.get(("giant",)) is None
    assert c.retained_bytes <= 1_000_000
    # replacing a key does not leak accounting
    before = c.retained_bytes
    c.put(("k", 9), {"doc_ids": np.zeros(25_000, np.int64)})
    assert abs(c.retained_bytes - before) < 1024


def test_reader_cache_byte_budget(tmp_path):
    """Reader LRU evicts by RETAINED bytes, keeping at least the most
    recent reader (fast-field/footer byte-budget analog)."""
    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping(),
                       settings=IndexSettings(split_num_docs_target=100))
    rows = pq.read_table(DOCS).slice(0, 400).to_pylist()
    for i in range(4):  # one split per commit
        idx.ingest_docs(rows[i * 100:(i + 1) * 100], commit_id=f"c{i}")
    from quickwit_ray.state.manifest import Manifest
    m = Manifest(idx.index_dir)
    dirs = [engine.os.path.join(idx.index_dir, "splits", s.split_id)
            for s in m.published_splits()]
    assert len(dirs) >= 3
    one = engine._ReaderCache(capacity=64).get(dirs[0])
    per_reader = max(one.retained_bytes, 1)
    rc = engine._ReaderCache(capacity=64, byte_budget=2 * per_reader)
    for d in dirs:
        rc.get(d)
    assert rc.retained_bytes <= max(2 * per_reader, per_reader)
    assert rc.evictions >= len(dirs) - 2
    # the most recently used reader always survives
    r_last = rc.get(dirs[-1])
    assert rc.get(dirs[-1]) is r_last
