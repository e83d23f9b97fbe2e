"""The manifest's one commit path: every mutator refreshes, derives its op
from fresh state and commits it in one step, on every store (file log,
object snapshot, sqlite, postgres). Covers stale instances, the SQL
replacement CAS inside the transaction, and searcher caching keyed by
the metastore generation."""

import multiprocessing as mp
import sqlite3
import uuid

import pytest

from quickwit_ray import storage
from quickwit_ray.api import Index
from quickwit_ray.config import documents_doc_mapping
from quickwit_ray.state.manifest import (
    Manifest,
    SplitMetadata,
    StaleReplaceError,
)


def _root(tmp_path, backend: str) -> str:
    if backend == "object":
        return f"mock-s3://commit-{uuid.uuid4().hex[:10]}/idx"
    return str(tmp_path / backend)


@pytest.mark.parametrize("backend", ["file", "sqlite", "object"])
def test_stale_instance_does_not_publish_twice(tmp_path, backend):
    root = _root(tmp_path, backend)
    Manifest(root, backend=backend).create({"index_id": "x"})
    a, b = Manifest(root), Manifest(root)  # both loaded before any commit
    try:
        for m, tag in ((a, "a"), (b, "b")):
            m.publish([SplitMetadata(f"{tag}-part", "x", 1, 10)],
                      checkpoint_partition="part:0")
            m.publish_stream({"q:0": ([SplitMetadata(f"{tag}-q", "x", 1, 10)],
                                      0, 10)})
            m.publish_many({"many:0": [SplitMetadata(f"{tag}-many", "x",
                                                     1, 10)]})
        final = Manifest(root)
        assert sorted(s.split_id for s in final.published_splits()) == \
            ["a-many", "a-part", "a-q"]
        assert final.source_offset("q:0") == 10
        assert final.checkpoints == a.checkpoints
    finally:
        if backend == "object":
            storage.rmtree(root, ignore_errors=True)


def test_postgres_replace_cas_inside_transaction(tmp_path, pg_dsn):
    """Writer B refreshes (s1 published), then a competing writer on a
    second connection replaces s1 right before B's first write statement.
    B's transaction must see the conflict and B must fail the CAS: s1's
    docs are counted once."""
    from tests.fakepg import BEFORE_WRITE

    dsn, _ = pg_dsn
    d = str(tmp_path / "idx")

    def pg() -> Manifest:  # a new instance = a new connection
        return Manifest(d, backend="postgres", dsn=dsn)

    pg().create({"index_id": "x"})
    pg().publish([SplitMetadata("s1", "x", 10, 100)], checkpoint_partition="p0")

    def competing():
        pg().publish([SplitMetadata("a-merged", "x", 10, 100)],
                     replaced_split_ids=["s1"])

    b = pg()
    BEFORE_WRITE.append(competing)
    try:
        with pytest.raises(StaleReplaceError):
            b.publish([SplitMetadata("b-merged", "x", 10, 100)],
                      replaced_split_ids=["s1"])
    finally:
        fired = not BEFORE_WRITE
        BEFORE_WRITE.clear()
    assert fired
    live = pg().published_splits()
    assert [s.split_id for s in live] == ["a-merged"]
    assert sum(s.num_docs for s in live) == 10


def _replace_racer(d, tag, rounds, barrier, out):
    wins = []
    for r in range(rounds):
        m = Manifest(d)
        barrier.wait()
        try:
            m.publish([SplitMetadata(f"{tag}-m{r}", "x", 10, 100)],
                      replaced_split_ids=[f"r{r}"])
            wins.append(r)
        except StaleReplaceError:
            pass
    out.put((tag, wins))


def test_sqlite_replace_race_has_one_winner_per_round(tmp_path):
    d = str(tmp_path / "idx")
    rounds = 12
    m = Manifest(d, backend="sqlite")
    m.create({"index_id": "x"})
    m.publish([SplitMetadata(f"r{r}", "x", 10, 100) for r in range(rounds)])
    ctx = mp.get_context("spawn")
    barrier, out = ctx.Barrier(2), ctx.Queue()
    procs = [ctx.Process(target=_replace_racer,
                         args=(d, tag, rounds, barrier, out))
             for tag in ("a", "b")]
    for p in procs:
        p.start()
    wins = dict(out.get(timeout=120) for _ in procs)
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert sorted(wins["a"] + wins["b"]) == list(range(rounds))
    live = {s.split_id for s in Manifest(d).published_splits()}
    for r in range(rounds):
        assert len(live & {f"a-m{r}", f"b-m{r}"}) == 1
        assert f"r{r}" not in live


def _count_loads(monkeypatch) -> list:
    calls = []
    init = Manifest.__init__

    def counting(self, *a, **k):
        calls.append(a)
        init(self, *a, **k)

    monkeypatch.setattr(Manifest, "__init__", counting)
    return calls


def test_sqlite_root_searcher_cached_and_read_your_writes(tmp_path,
                                                          monkeypatch):
    from quickwit_ray.search.engine import get_searcher

    d = str(tmp_path / "idx")
    Index.create(d, "docs", documents_doc_mapping(), metastore="sqlite")
    first = get_searcher(d)
    calls = _count_loads(monkeypatch)
    assert get_searcher(d) is first
    assert calls == []
    Manifest(d).publish([SplitMetadata("s-new", "docs", 3, 30)])
    fresh = get_searcher(d)
    assert fresh is not first
    assert [s.split_id for s in fresh.manifest.published_splits()] == \
        ["s-new"]


def test_metrics_scrape_reads_cached_state(tmp_path, monkeypatch):
    from quickwit_ray.index_api import IndexApiService

    d = str(tmp_path / "idx")
    idx = Index.create(d, "docs", documents_doc_mapping(),
                       metastore="sqlite")
    Manifest(d).publish([SplitMetadata("s1", "docs", 7, 70)])
    gone = Index.create(str(tmp_path / "gone"), "gone",
                        documents_doc_mapping(), metastore="sqlite")
    Manifest(gone.index_dir).publish([SplitMetadata("g1", "gone", 3, 30)])
    svc = IndexApiService({"docs": idx, "gone": gone})
    st, _ = svc.request("GET", "metrics")
    assert st == 200
    calls = _count_loads(monkeypatch)
    st, body = svc.request("GET", "metrics")
    assert st == 200 and calls == []
    assert b'quickwit_index_num_docs{index="docs"} 7' in body.data
    assert b'quickwit_index_num_docs{index="gone"} 3' in body.data
    # an index deleted behind the registry's back reports 0, the scrape
    # still answers for the others
    storage.rmtree(gone.index_dir)
    st, body = svc.request("GET", "metrics")
    assert st == 200
    assert b'quickwit_index_num_docs{index="docs"} 7' in body.data
    assert b'quickwit_index_num_splits{index="gone"} 0' in body.data


def test_sqlite_db_without_generation_row_opens_commits_and_caches(tmp_path):
    from quickwit_ray.search.engine import get_searcher

    d = str(tmp_path / "idx")
    Index.create(d, "docs", documents_doc_mapping(), metastore="sqlite")
    Manifest(d).publish([SplitMetadata("s1", "docs", 1, 10)])
    con = sqlite3.connect(str(tmp_path / "idx" / "metastore.db"))
    con.execute("DELETE FROM meta WHERE key = 'generation'")
    con.commit()
    con.close()
    m = Manifest(d)
    assert [s.split_id for s in m.published_splits()] == ["s1"]
    m.publish([SplitMetadata("s2", "docs", 1, 10)],
              replaced_split_ids=["s1"])
    assert [s.split_id for s in Manifest(d).published_splits()] == ["s2"]
    s = get_searcher(d)
    assert get_searcher(d) is s
    assert [x.split_id for x in s.manifest.published_splits()] == ["s2"]


@pytest.mark.parametrize("backend", ["sqlite", "postgres"])
def test_recreated_index_not_served_from_dropped_ones_cache(tmp_path,
                                                            pg_dsn, backend):
    """A searcher cached for a dropped index must not be served for its
    recreation at the same path: a sqlite index loses its DB (and its
    generation counter) with its directory, a postgres drop keeps the
    counter growing."""
    from quickwit_ray.index_api import IndexApiService
    from quickwit_ray.search.engine import get_searcher

    d = str(tmp_path / "idx")

    def create() -> Index:
        return Index.create(d, "docs", documents_doc_mapping(),
                            metastore=backend, metastore_dsn=pg_dsn[0])

    idx = create()
    Manifest(d).publish([SplitMetadata("old", "docs", 1, 10)])
    assert [s.split_id for s in get_searcher(d).manifest.splits.values()] \
        == ["old"]
    st, _ = IndexApiService({"docs": idx}).request("DELETE", "indexes/docs")
    assert st == 200
    create()
    Manifest(d).publish([SplitMetadata("new", "docs", 1, 10)])
    assert [s.split_id for s in get_searcher(d).manifest.splits.values()] \
        == ["new"]


def test_stale_postgres_manifest_reloads_after_drop_and_recreate(tmp_path,
                                                                 pg_dsn):
    """A Manifest loaded before its index was dropped and recreated at the
    same path must not commit from the dropped index's state, however
    many commits the recreated index has made."""
    from quickwit_ray.index_api import IndexApiService

    d = str(tmp_path / "idx")

    def create() -> Index:
        return Index.create(d, "docs", documents_doc_mapping(),
                            metastore="postgres", metastore_dsn=pg_dsn[0])

    idx = create()
    Manifest(d).publish([SplitMetadata("old", "docs", 1, 10)])
    stale = Manifest(d)
    st, _ = IndexApiService({"docs": idx}).request("DELETE", "indexes/docs")
    assert st == 200
    create()
    Manifest(d).publish([SplitMetadata("new", "docs", 1, 10)])
    stale.publish([SplitMetadata("late", "docs", 1, 10)])
    assert sorted(stale.splits) == ["late", "new"]
    assert sorted(Manifest(d).splits) == ["late", "new"]


def test_postgres_connection_not_left_in_transaction(tmp_path, pg_dsn):
    """A commit that turns out a no-op or refuses ends the read it made:
    a postgres connection idling inside a transaction is killed by
    servers with an idle-in-transaction timeout."""
    from quickwit_ray.state.manifest import generation

    d = str(tmp_path / "idx")
    m = Manifest(d, backend="postgres", dsn=pg_dsn[0])
    m.create({"index_id": "x"})
    m.publish([SplitMetadata("s1", "x", 1, 10)], checkpoint_partition="p0")
    conn = m._store.conn
    assert not conn.in_transaction
    m.publish([SplitMetadata("dup", "x", 1, 10)], checkpoint_partition="p0")
    assert not conn.in_transaction
    with pytest.raises(StaleReplaceError):
        m.publish([SplitMetadata("m", "x", 1, 10)],
                  replaced_split_ids=["missing"])
    assert not conn.in_transaction
    assert m.prune_shards(60.0) == 0
    assert not conn.in_transaction
    generation(d)
    assert sorted(Manifest(d).splits) == ["s1"]
