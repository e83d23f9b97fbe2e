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
    # aggs partials are cached safely (hits share the stored partial, so
    # the merge must leave it unchanged)
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

    c = engine._LeafCache(byte_budget=1_000_000)
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


def _cache_entries() -> dict:
    return dict(engine._GLOBAL_LEAF_CACHE._cache)


def test_leaf_cache_holds_600_entries(tmp_path):
    """Bound by bytes alone: 3 splits x 200 distinct queries = 600
    (split, request) entries fit the default budget, so a repeat pass is
    served entirely from the cache."""
    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping(),
                       settings=IndexSettings(split_num_docs_target=10_000))
    rows = pq.read_table(DOCS).to_pylist()
    for c in "abc":
        idx.ingest_docs(rows[:150], commit_id=c)
        rows = rows[150:]
    queries = [f"n_chars:{n}" for n in range(200)]
    engine._GLOBAL_LEAF_CACHE.clear()
    for q in queries:
        idx.search(q, max_hits=3, fetch_fields=[])
    assert len(_cache_entries()) == 600
    c = engine._GLOBAL_LEAF_CACHE
    h0, m0 = c.hits, c.misses
    for q in queries:
        idx.search(q, max_hits=3, fetch_fields=[])
    assert (c.hits - h0, c.misses - m0) == (600, 0)


def test_pruned_entry_rejected_by_smaller_theta_counts_a_miss(tmp_path):
    """A cached partial pruned under theta cannot serve a request with a
    smaller theta: that lookup re-evaluates and counts as a miss, not a
    hit."""
    from quickwit_ray.search.ast import SearchRequest, SortField
    from quickwit_ray.search.parser import parse_query

    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping())
    idx.ingest_docs(pq.read_table(DOCS).slice(0, 200).to_pylist(),
                    commit_id="a")
    split_dir = engine.os.path.join(
        idx.index_dir, "splits",
        engine.Manifest(idx.index_dir).published_splits()[0].split_id)
    mapping = documents_doc_mapping()
    request = SearchRequest(query=parse_query("text:scan OR text:data",
                                              ["text"]),
                            max_hits=5,
                            sort_fields=(SortField("_score", "desc"),))
    c = engine._GLOBAL_LEAF_CACHE
    c.clear()
    engine.leaf_search_one(split_dir, mapping, request, theta0=5.0)
    h0, m0 = c.hits, c.misses
    engine.leaf_search_one(split_dir, mapping, request, theta0=1.0)
    assert (c.hits - h0, c.misses - m0) == (0, 1)
    # the more complete (theta 1.0) evaluation replaced the entry and
    # serves the dominating theta
    engine.leaf_search_one(split_dir, mapping, request, theta0=5.0)
    assert (c.hits - h0, c.misses - m0) == (1, 1)


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape
                and bool(np.all((a == b) | (a != a) & (b != b))))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b or (a != a and b != b)


def _arrays(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _arrays(v)


def _scribble(obj) -> None:
    """Mutate every dict and list of a response in place."""
    if isinstance(obj, dict):
        for v in list(obj.values()):
            _scribble(v)
        obj["scribbled"] = True
    elif isinstance(obj, list):
        for v in obj:
            _scribble(v)
        obj.append("scribbled")


ALL_AGGS = {
    "types": {"terms": {"field": "event_type"},
              "aggs": {"avg_value": {"avg": {"field": "value"}}}},
    "values": {"histogram": {"field": "value", "interval": 50}},
    "per_day": {"date_histogram": {"field": "ts", "fixed_interval": "1d"}},
    "ranges": {"range": {"field": "value",
                         "ranges": [{"to": 100}, {"from": 100}]}},
    "value_stats": {"stats": {"field": "value"}},
    "pct": {"percentiles": {"field": "value", "percents": [50, 99]}},
    "users": {"cardinality": {"field": "user_id"}},
    "top": {"top_hits": {"size": 2, "sort": [{"value": "desc"}],
                         "docvalue_fields": ["event_id"]}},
}


def test_cached_agg_partials_are_shared_read_only(tmp_path):
    """Every agg kind merges and renders over cached partials without
    changing them, even when callers scribble over the results; the
    entries' arrays are read-only."""
    import copy

    import pytest

    from quickwit_ray.config import IndexConfig, events_doc_mapping
    from quickwit_ray.index.build import build_index
    from quickwit_ray.search.es_rest import render_search_response
    from quickwit_ray.search.multi import search_indexes

    index_dir = str(tmp_path / "events")
    build_index("/root/testdata/sf0.001/events.parquet", index_dir,
                IndexConfig(index_id="events",
                            doc_mapping=events_doc_mapping(),
                            settings=IndexSettings(
                                commit_docs_threshold=300)),
                execution="local", read_batch_size=300)
    s = engine.get_searcher(index_dir)
    assert len(s.manifest.published_splits()) >= 3
    engine._GLOBAL_LEAF_CACHE.clear()
    first = s.search("*", max_hits=3, sort_by="value", aggs=ALL_AGGS)
    snapshot = copy.deepcopy(_cache_entries())
    want = render_search_response(first, "events", s.mapping,
                                  aggs_spec=ALL_AGGS)
    c = engine._GLOBAL_LEAF_CACHE
    m0 = c.misses
    for _ in range(2):
        r = s.search("*", max_hits=3, sort_by="value", aggs=ALL_AGGS)
        got = render_search_response(r, "events", s.mapping,
                                     aggs_spec=ALL_AGGS)
        assert got["aggregations"] == want["aggregations"]
        assert r.num_hits == first.num_hits == 1000
        _scribble(r.aggs)
        _scribble(got)
        fed = search_indexes([index_dir], "*", max_hits=3, sort_by="value",
                             aggs=ALL_AGGS)
        assert fed.aggs == first.aggs
        _scribble(fed.aggs)
    assert c.misses == m0
    assert first.aggs["top"]["hits"]["hits"][0]["fields"]["event_id"]
    entries = _cache_entries()
    assert _same(entries, snapshot)
    arrays = [a for v, _n in entries.values() for a in _arrays(v)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        arrays[0][:1] = 0


def test_merge_drops_leaf_entries_of_merged_away_splits(tmp_path):
    """After a merge publishes a new generation, the next search leaves
    no leaf-cache entry for the splits it replaced."""
    from quickwit_ray.config import IndexConfig, MergePolicyConfig
    from quickwit_ray.index.build import build_index
    from quickwit_ray.index.merge import run_merge_pipeline

    index_dir = str(tmp_path / "idx")
    build_index(DOCS, index_dir, IndexConfig(
        index_id="documents", doc_mapping=documents_doc_mapping(),
        settings=IndexSettings(
            split_num_docs_target=10_000, commit_docs_threshold=100,
            merge_policy=MergePolicyConfig(merge_factor=5, max_merge_factor=5,
                                           min_level_num_docs=1000))),
        execution="local", read_batch_size=100)
    engine._GLOBAL_LEAF_CACHE.clear()
    engine.get_searcher(index_dir).search("text:scan", max_hits=5)
    before = {k[0] for k in _cache_entries()}
    assert len(before) == 5
    run_merge_pipeline(index_dir, execution="local")
    s = engine.get_searcher(index_dir)
    live = {engine.os.path.join(index_dir, "splits", sp.split_id)
            for sp in s.manifest.published_splits()}
    assert len(live) == 1 and not live & before
    s.search("text:data", max_hits=5)
    assert {k[0] for k in _cache_entries()} == live


def test_leaf_cache_long_keys_within_budget():
    """Keys count toward the byte budget: entries with 5 KB keys and tiny
    values cannot hold more key bytes than the budget."""
    c = engine._LeafCache(byte_budget=100_000)
    for i in range(200):
        c.put(("split", i, "q" * 5000), {"num_hits": i})
    held = sum(len(k[2]) for k in c._cache)
    assert c.retained_bytes <= 100_000
    # the split-dir index forgets evicted keys
    assert c._keys_of == {"split": set(c._cache)}
    assert 0 < held <= 100_000
    assert c.get(("split", 199, "q" * 5000)) is not None
