"""Resume/checkpoint semantics (FIXTURES.md §6): a build interrupted
after partition j, then re-run, produces the IDENTICAL manifest (same
split ids, no duplicates) and identical query results as an uninterrupted
build."""

import json
import os

from quickwit_ray.config import IndexConfig, IndexSettings, pages_doc_mapping
from quickwit_ray.index.build import build_index, garbage_collect
from quickwit_ray.search.engine import IndexSearcher
from quickwit_ray.sources.fixtures import ensure_pages


def _manifest_split_ids(index_dir):
    from quickwit_ray.state.manifest import Manifest

    return sorted(s.split_id for s in Manifest(index_dir).published_splits())


def test_interrupted_build_resumes_identically(tmp_path):
    paths = ensure_pages(str(tmp_path / "pages"), 2000, 8, filler_bytes=1024)
    cfg = IndexConfig("pages", pages_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000,
                                    store_binary_columns=False))

    # uninterrupted reference build
    full_dir = str(tmp_path / "full")
    build_index(paths, full_dir, cfg, execution="local")

    # "killed" build: only 3 partitions committed, plus a leftover staged
    # dir simulating an artifact the dying worker didn't finish
    part_dir = str(tmp_path / "partial")
    build_index(paths[:3], part_dir, cfg, execution="local")
    os.makedirs(os.path.join(part_dir, "splits", "junk-00000.staged"))
    assert len(_manifest_split_ids(part_dir)) == 3

    # resume over the FULL input: only pending partitions are processed
    st = build_index(paths, part_dir, cfg, execution="local")
    assert st.num_partitions == 5  # 8 total - 3 committed
    garbage_collect(part_dir)

    assert _manifest_split_ids(part_dir) == _manifest_split_ids(full_dir)
    sf, sp = IndexSearcher(full_dir), IndexSearcher(part_dir)
    for q in ["text:baterm1", 'text:"intial commit"', "lang: IN [de]", "*"]:
        assert sf.search(q, max_hits=0).num_hits == sp.search(q, max_hits=0).num_hits
    hf = sf.search("text:baterm1", max_hits=10, sort_by="_score", fetch_fields=["url"]).hits
    hp = sp.search("text:baterm1", max_hits=10, sort_by="_score", fetch_fields=["url"]).hits
    assert list(hf["url"]) == list(hp["url"])
    assert list(hf["sort_key0"]) == list(hp["sort_key0"])


def test_rerun_counts_nothing(tmp_path):
    paths = ensure_pages(str(tmp_path / "pages"), 500, 2, filler_bytes=512)
    cfg = IndexConfig("pages", pages_doc_mapping(),
                      IndexSettings(store_binary_columns=False))
    d = str(tmp_path / "idx")
    st1 = build_index(paths, d, cfg, execution="local")
    assert st1.num_docs == 500
    st2 = build_index(paths, d, cfg, execution="local")
    assert st2.num_docs == 0 and st2.num_partitions == 0


def test_retention_policy(tmp_path):
    import time as _time

    from quickwit_ray.index.build import apply_retention
    from quickwit_ray.search.engine import IndexSearcher

    paths = ensure_pages(str(tmp_path / "pages"), 1000, 4, filler_bytes=512)
    cfg = IndexConfig("pages", pages_doc_mapping(),
                      IndexSettings(store_binary_columns=False))
    d = str(tmp_path / "idx")
    build_index(paths, d, cfg, execution="local")
    s = IndexSearcher(d)
    splits = sorted(s.manifest.published_splits(), key=lambda x: x.time_range_end)
    # cutoff chosen between split 1 and 2 end times (warc_ts is synthetic
    # 2024 time, so "now" is simulated relative to the data)
    cutoff_end = splits[1].time_range_end
    retention = 3600.0
    now = cutoff_end / 1e6 + retention + 1
    marked = apply_retention(d, retention, now=now)
    assert set(marked) == {splits[0].split_id, splits[1].split_id}
    s2 = IndexSearcher(d)
    remaining = sum(sp.num_docs for sp in s2.manifest.published_splits())
    assert remaining == 1000 - splits[0].num_docs - splits[1].num_docs


def test_manifest_append_log_commit_cost(tmp_path):
    """Publish cost is O(delta), not O(total splits): with hundreds of
    splits already published, one more publish appends a small log line
    instead of rewriting the whole split list (the round-1 scale-killer)."""
    from quickwit_ray.state.manifest import COMPACT_EVERY, Manifest, SplitMetadata

    d = str(tmp_path / "idx")
    m = Manifest(d)
    m.create({"index_id": "x"})
    for i in range(300):
        m.publish([SplitMetadata(f"s{i:05d}", "x", 100, 1000)],
                  checkpoint_partition=f"p{i}")
    log_path = os.path.join(d, "manifest.log")
    before = os.path.getsize(log_path)
    m.publish([SplitMetadata("slast", "x", 100, 1000)],
              checkpoint_partition="plast")
    delta = os.path.getsize(log_path) - before
    # one split's JSON is a few hundred bytes; 300 splits would be ~100 KB
    assert 0 < delta < 2_000
    # reload folds snapshot + log into the identical state
    m2 = Manifest(d)
    assert sorted(s.split_id for s in m2.published_splits()) == \
        sorted(s.split_id for s in m.published_splits())
    assert len(m2.published_splits()) == 301
    assert m2.checkpoints.keys() == m.checkpoints.keys()
    # compaction happened along the way and the state survived it
    assert 300 > COMPACT_EVERY


def test_manifest_log_torn_tail_ignored(tmp_path):
    from quickwit_ray.state.manifest import Manifest, SplitMetadata

    d = str(tmp_path / "idx")
    m = Manifest(d)
    m.create({"index_id": "x"})
    m.publish([SplitMetadata("s1", "x", 10, 100)], checkpoint_partition="p1")
    # simulate a crash mid-append: torn trailing line
    with open(os.path.join(d, "manifest.log"), "a") as f:
        f.write('{"op":"publish","splits":[{"split_id":"torn"')
    m2 = Manifest(d)
    assert sorted(s.split_id for s in m2.published_splits()) == ["s1"]
    # readers never truncate — they SKIP the torn fragment; the WRITER
    # repairs by prefixing its next append with a newline, so the new op
    # starts a clean line and BOTH ops survive a reload
    m2.publish([SplitMetadata("s2", "x", 10, 100)], checkpoint_partition="p2")
    m3 = Manifest(d)
    assert sorted(s.split_id for s in m3.published_splits()) == ["s1", "s2"]


def _publish_burst(args):
    d, tag, n = args
    from quickwit_ray.state.manifest import Manifest, SplitMetadata

    for i in range(n):
        Manifest(d).publish([SplitMetadata(f"{tag}-{i:03d}", "x", 1, 10)])
    return tag


def test_concurrent_writers_serialized_by_flock(tmp_path):
    """Two processes publishing into one file-backend manifest: the
    advisory writer lock serializes appends + compaction, so every op
    lands and replay sees no torn/interleaved lines."""
    import multiprocessing as mp

    from quickwit_ray.state.manifest import Manifest

    d = str(tmp_path / "idx")
    m = Manifest(d)
    m.create({"index_id": "x"})
    with mp.get_context("spawn").Pool(2) as pool:
        pool.map(_publish_burst, [(d, "a", 40), (d, "b", 40)])
    from quickwit_ray.state.manifest import Manifest as _M

    out = _M(d)
    ids = sorted(out.splits)
    assert len(ids) == 80
    assert ids == sorted([f"a-{i:03d}" for i in range(40)]
                         + [f"b-{i:03d}" for i in range(40)])


def test_sqlite_metastore_backend(tmp_path):
    """SQL metastore option (postgres analog, sqlite-backed): same Manifest
    API and semantics — publish/replace/stream offsets/delete tasks survive
    reloads through ACID transactions, auto-detected by metastore.db."""
    from quickwit_ray.state.manifest import Manifest, SplitMetadata

    d = str(tmp_path / "idx")
    m = Manifest(d, backend="sqlite")
    m.create({"index_id": "sx"})
    m.publish([SplitMetadata("s1", "sx", 10, 100)], checkpoint_partition="p1")
    m.publish([SplitMetadata("s2", "sx", 20, 200)],
              replaced_split_ids=["s1"], checkpoint_partition="p2")
    m.publish_stream({"queue:0": ([SplitMetadata("s3", "sx", 5, 50)], 0, 7)})
    op = m.create_delete_task("lang:de")
    # duplicate partition commit no-ops
    m.publish([SplitMetadata("dup", "sx", 1, 1)], checkpoint_partition="p1")
    m2 = Manifest(d)  # auto-detects sqlite via metastore.db
    assert m2._store.backend == "sqlite"
    assert m2.index_config_json == {"index_id": "sx"}
    assert sorted(s.split_id for s in m2.published_splits()) == ["s2", "s3"]
    assert m2.splits["s1"].split_state == "marked_for_deletion"
    assert "dup" not in m2.splits
    assert m2.source_offset("queue:0") == 7
    assert m2.delete_tasks == [{"opstamp": op, "query": "lang:de"}]
    m2.delete_splits(["s1"])
    assert "s1" not in Manifest(d).splits


def test_sqlite_metastore_end_to_end(tmp_path):
    """A sqlite-metastore index builds, searches, merges and GCs through
    the normal pipelines (every caller goes through the Manifest API)."""
    from quickwit_ray.api import Index
    from quickwit_ray.config import documents_doc_mapping

    from quickwit_ray.config import MergePolicyConfig

    d = str(tmp_path / "idx")
    idx = Index.create(d, "docs", documents_doc_mapping(),
                       IndexSettings(split_num_docs_target=10_000,
                                     commit_docs_threshold=150,
                                     merge_policy=MergePolicyConfig(
                                         merge_factor=3, max_merge_factor=4,
                                         min_level_num_docs=1000)),
                       metastore="sqlite")
    idx.ingest("/root/testdata/sf0.001/documents.parquet", execution="local",
               read_batch_size=150)
    r = idx.search("text:scan", max_hits=0)
    n = r.num_hits
    assert n > 0
    assert idx.merge() >= 1
    assert idx.search("text:scan", max_hits=0).num_hits == n
    idx.gc()
    assert idx.search("text:scan", max_hits=0).num_hits == n
    # resume-idempotence: re-ingest is a no-op through sqlite checkpoints
    st = idx.ingest("/root/testdata/sf0.001/documents.parquet",
                    execution="local", read_batch_size=150)
    assert st.num_docs == 0


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@given(st.lists(st.tuples(st.sampled_from(["publish", "mark", "delete",
                                           "stream", "task", "replace",
                                           "config", "shard", "source",
                                           "reset", "clear"]),
                          st.integers(0, 9)), min_size=1, max_size=25))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_manifest_backends_equivalent(tmp_path_factory, pg_dsn, ops):
    """Property: any op sequence leaves the file (append-log), sqlite,
    postgres (fake driver) and object-snapshot stores in identical
    reloaded states, with identical errors along the way."""
    import uuid

    from quickwit_ray import storage
    from quickwit_ray.state.manifest import (
        Manifest,
        SplitMetadata,
        StaleReplaceError,
    )

    dsn, _ = pg_dsn
    dirs = [str(tmp_path_factory.mktemp("file_be")),
            str(tmp_path_factory.mktemp("sql_be")),
            str(tmp_path_factory.mktemp("pg_be")),
            f"mock-s3://equiv-{uuid.uuid4().hex[:10]}/idx"]
    ms = [Manifest(dirs[0], backend="file"),
          Manifest(dirs[1], backend="sqlite"),
          Manifest(dirs[2], backend="postgres", dsn=dsn),
          Manifest(dirs[3], backend="object")]
    for m in ms:
        m.create({"index_id": "x"})
    offsets = {0: 0}
    # the only ops a sequence can make refuse (a stream gap, a replace of
    # a split that left the published state, a duplicate or missing
    # source); any other error fails the test
    refusals = {"stream": ValueError, "replace": StaleReplaceError,
                "source": (ValueError, KeyError)}

    def do(m, i, kind, n):
        if kind == "publish":
            m.publish([SplitMetadata(f"s{i}_{n}", "x", n + 1, 10)],
                      checkpoint_partition=(f"src.a:{i}" if n % 2
                                            else f"p{i}"))
        elif kind == "mark":
            m.mark_for_deletion([f"s{n}_{n}"])
        elif kind == "delete":
            m.delete_splits([f"s{n}_{n}"])
        elif kind == "stream":
            frm = offsets.get(0, 0)
            m.publish_stream({"queue:0": (
                [SplitMetadata(f"q{i}", "x", 1, 1)], frm, frm + n + 1)})
        elif kind == "task":
            m.create_delete_task(f"q{i}")
        elif kind == "replace":
            m.publish([SplitMetadata(f"r{i}", "x", n + 1, 10)],
                      replaced_split_ids=[f"s{n}_{n}"])
        elif kind == "config":
            m.update_config({"index_id": "x", "rev": i})
        elif kind == "shard":
            [lambda: m.open_shard(f"sh{n % 2}", f"t{i}"),
             lambda: m.acquire_shard(f"sh{n % 2}", f"t{i}"),
             lambda: m.prune_shards(-1.0)][n % 3]()
        elif kind == "source":
            [lambda: m.add_source({"source_id": f"src{n % 2}",
                                   "enabled": True}),
             lambda: m.toggle_source(f"src{n % 2}", bool(n % 2)),
             lambda: m.delete_source(f"src{n % 2}")][n % 3]()
        elif kind == "reset":
            m.reset_source_checkpoint("a")
        elif kind == "clear":
            m.clear()

    try:
        for i, (kind, n) in enumerate(ops):
            errors = set()
            for m in ms:
                try:
                    do(m, i, kind, n)
                    errors.add(None)
                except Exception as e:
                    if not isinstance(e, refusals.get(kind, ())):
                        raise
                    errors.add(type(e).__name__)
            assert len(errors) == 1, (kind, errors)
            if kind == "stream":
                offsets[0] = offsets.get(0, 0) + n + 1

        def state(d):
            m = Manifest(d)
            return (sorted((s.split_id, s.split_state, s.num_docs)
                           for s in m.splits.values()),
                    {k: v.get("offset") for k, v in m.checkpoints.items()},
                    [(t["opstamp"], t["query"]) for t in m.delete_tasks],
                    m.index_config_json,
                    {k: v["token"] for k, v in m.shards.items()},
                    m.sources)

        first = state(dirs[0])
        for d in dirs[1:]:
            assert state(d) == first, d
    finally:
        storage.rmtree(dirs[3], ignore_errors=True)


def test_manifest_incremental_refresh(tmp_path):
    """Round-5: the replacement-publish CAS folds only the log TAIL
    appended since the instance's last read (O(delta), not O(splits));
    a compaction (snapshot replace + truncate) forces a full reload."""
    from quickwit_ray.state import manifest as man_mod
    from quickwit_ray.state.manifest import Manifest, SplitMetadata

    d = str(tmp_path / "m")
    a = Manifest(d)
    a.create({"index_id": "x", "version": "0.8"})
    a.publish([SplitMetadata("s0", "x", 5, 50)], checkpoint_partition="p0")

    b = Manifest(d)  # fresh reader: current as of s0
    off0 = b._store.log_offset
    # writer A appends two more ops behind B's back
    a.publish([SplitMetadata("s1", "x", 5, 50)], checkpoint_partition="p1")
    a.publish([SplitMetadata("s2", "x", 5, 50)], checkpoint_partition="p2")
    with b._store.locked():
        b._store.refresh(b)
    assert b._store.log_offset > off0
    assert {s.split_id for s in b.published_splits()} == {"s0", "s1", "s2"}
    # the refreshed instance can now CAS-replace a split A published
    b.publish([SplitMetadata("m0", "x", 10, 100)],
              replaced_split_ids=["s1", "s2"])
    assert {s.split_id for s in Manifest(d).published_splits()} \
        == {"s0", "m0"}

    # stale-cursor safety: B appends while UNAWARE of A's newest op —
    # the cursor must NOT skip A's bytes
    a2 = Manifest(d)
    b2 = Manifest(d)
    a2.publish([SplitMetadata("s3", "x", 1, 10)], checkpoint_partition="p3")
    b2.publish([SplitMetadata("s4", "x", 1, 10)], checkpoint_partition="p4")
    with b2._store.locked():
        b2._store.refresh(b2)
    assert "s3" in {s.split_id for s in b2.published_splits()}

    # compaction invalidates the snapshot signature -> full reload path
    old = man_mod.COMPACT_EVERY
    man_mod.COMPACT_EVERY = 1
    try:
        a3 = Manifest(d)
        a3.publish([SplitMetadata("s5", "x", 1, 10)],
                   checkpoint_partition="p5")  # triggers compaction
    finally:
        man_mod.COMPACT_EVERY = old
    with b2._store.locked():
        b2._store.refresh(b2)
    assert "s5" in {s.split_id for s in b2.published_splits()}
    assert b2.index_config_json["index_id"] == "x"


def test_torn_but_complete_tail_op_visible_to_cas(tmp_path):
    """Round-5 review fix: a crashed writer can persist a complete op
    line minus the trailing newline. The next writer's fresh-line repair
    will terminate it, making it replay BEFORE later ops — so it must be
    VISIBLE to loads and to the replacement-publish CAS immediately, or
    a conflicting replacement gets approved and the split's docs double-
    count. A half-written (unparseable) tail stays invisible."""
    import json as _json
    import os

    import pytest as _pytest

    from quickwit_ray.state.manifest import (Manifest, SplitMetadata,
                                             StaleReplaceError)

    d = str(tmp_path / "m")
    m = Manifest(d)
    m.create({"index_id": "x", "version": "0.8"})
    m.publish([SplitMetadata("s1", "x", 5, 50)], checkpoint_partition="p1")
    m.publish([SplitMetadata("s2", "x", 5, 50)], checkpoint_partition="p2")

    # crashed writer: full publish-replacing-s1 op, NO trailing newline
    torn = {"op": "publish",
            "splits": [SplitMetadata("m_a", "x", 5, 50).to_json()],
            "replaced": ["s1"], "ts": 1.0}
    with open(os.path.join(d, "manifest.log"), "ab") as f:
        f.write(_json.dumps(torn, separators=(",", ":")).encode())

    fresh = Manifest(d)
    ids = {s.split_id for s in fresh.published_splits()}
    assert ids == {"m_a", "s2"}  # torn-but-complete op IS visible
    with _pytest.raises(StaleReplaceError):
        fresh.publish([SplitMetadata("m_b", "x", 5, 50)],
                      replaced_split_ids=["s1"])
    # a later clean append terminates the torn line; state stays stable
    fresh.publish([SplitMetadata("s3", "x", 1, 10)],
                  checkpoint_partition="p3")
    final = {s.split_id for s in Manifest(d).published_splits()}
    assert final == {"m_a", "s2", "s3"}

    # a HALF-written tail (invalid JSON) stays invisible as before
    with open(os.path.join(d, "manifest.log"), "ab") as f:
        f.write(b'{"op":"publish","splits":[{"split_id":"zz"')
    assert {s.split_id for s in Manifest(d).published_splits()} == final
