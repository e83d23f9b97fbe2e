"""PostgreSQL metastore dialect (reference:
quickwit-metastore/src/metastore/postgres/metastore.rs — one shared
database hosts every index, rows scoped by index_uid, one op = one ACID
transaction). No postgres server exists in this sandbox, so a fake DBAPI
driver (tests/fakepg.py: sqlite-backed, enforcing postgres paramstyle) is
registered for the ``fakepg`` DSN scheme by the ``pg_dsn`` fixture."""

import sqlite3

import pyarrow.parquet as pq
import pytest

from quickwit_ray.api import Index
from quickwit_ray.config import IndexSettings, documents_doc_mapping
from quickwit_ray.state.manifest import Manifest, SplitMetadata
from tests.fakepg import SEEN_SQL

DOCS = "/root/testdata/sf0.001/documents.parquet"

def _mk(tmp_path, name, dsn):
    return Index.create(str(tmp_path / name), name, documents_doc_mapping(),
                        settings=IndexSettings(split_num_docs_target=10_000),
                        metastore="postgres", metastore_dsn=dsn)


def test_two_indexes_share_one_database(tmp_path, pg_dsn):
    dsn, db = pg_dsn
    rows = pq.read_table(DOCS).slice(0, 60).to_pylist()
    a = _mk(tmp_path, "idx-a", dsn)
    b = _mk(tmp_path, "idx-b", dsn)
    a.ingest_docs(rows[:40], commit_id="c1")
    b.ingest_docs(rows[40:60], commit_id="c1")  # same commit id, other index
    assert a.search("*", max_hits=100).num_hits == 40
    assert b.search("*", max_hits=100).num_hits == 20
    # rows live in ONE sqlite file under two distinct index_uids
    con = sqlite3.connect(db)
    uids = {r[0] for r in con.execute("SELECT DISTINCT index_uid FROM splits")}
    assert len(uids) == 2
    # upserts used postgres conflict syntax at least once
    assert any("ON CONFLICT" in s for s in SEEN_SQL)
    assert any("%s" in s for s in SEEN_SQL)


def test_pointer_autodetection_and_reopen(tmp_path, pg_dsn):
    dsn, _ = pg_dsn
    idx = _mk(tmp_path, "idx-auto", dsn)
    idx.ingest_docs(pq.read_table(DOCS).slice(0, 30).to_pylist(),
                    commit_id="x")
    # plain Manifest(dir) resolves the postgres backend via metastore.json
    m = Manifest(idx.index_dir)
    assert m._store.backend == "postgres"
    assert sum(s.num_docs for s in m.published_splits()) == 30
    # Index.open + search work without backend hints
    assert Index.open(idx.index_dir).search("*", max_hits=50).num_hits == 30
    # creating again over the same dir fails, not shadows
    with pytest.raises(FileExistsError):
        _mk(tmp_path, "idx-auto", dsn)


def test_exactly_once_semantics_on_postgres(tmp_path, pg_dsn):
    dsn, _ = pg_dsn
    d = str(tmp_path / "stream")
    from quickwit_ray.state.sql import write_pointer

    write_pointer(d, dsn)
    m = Manifest(d)
    m.create({"index_id": "s"})
    sm = SplitMetadata("s1", "s", 10, 100)
    m.publish_stream({"queue:0": ([sm], 0, 10)})
    # duplicate replay: no-op
    m.publish_stream({"queue:0": ([SplitMetadata("dup", "s", 9, 9)], 0, 10)})
    # fresh reader sees the committed state (ACID, no snapshot file)
    m2 = Manifest(d)
    assert m2.source_offset("queue:0") == 10
    assert "dup" not in m2.splits
    with pytest.raises(ValueError, match="not contiguous"):
        m2.publish_stream({"queue:0": ([SplitMetadata("s2", "s", 1, 1)], 15, 20)})
    # idempotent partition publish
    m2.publish([SplitMetadata("p1", "s", 5, 5)], checkpoint_partition="part:0")
    m2.publish([SplitMetadata("p2", "s", 5, 5)], checkpoint_partition="part:0")
    assert "p2" not in Manifest(d).splits


def test_clear_scopes_to_one_index(tmp_path, pg_dsn):
    dsn, _ = pg_dsn
    rows = pq.read_table(DOCS).slice(0, 20).to_pylist()
    a = _mk(tmp_path, "clr-a", dsn)
    b = _mk(tmp_path, "clr-b", dsn)
    a.ingest_docs(rows[:10], commit_id="c")
    b.ingest_docs(rows[10:], commit_id="c")
    a.clear()
    assert a.search("*", max_hits=50).num_hits == 0
    assert b.search("*", max_hits=50).num_hits == 10
    # config survives a clear
    assert Index.open(a.index_dir).config.index_id == "clr-a"


def test_delete_purges_rows_and_allows_recreation(tmp_path, pg_dsn):
    from quickwit_ray.index_api import IndexApiService

    dsn, db = pg_dsn
    idx = _mk(tmp_path, "reborn", dsn)
    idx.ingest_docs(pq.read_table(DOCS).slice(0, 10).to_pylist(),
                    commit_id="a")
    svc = IndexApiService({"reborn": idx})
    st, _ = svc.request("DELETE", "indexes/reborn")
    assert st == 200
    con = sqlite3.connect(db)
    for t in ("meta", "splits", "checkpoints", "sources"):
        assert con.execute(f"SELECT count(*) FROM {t}").fetchone()[0] == 0
    # same path is creatable again (stale rows would raise FileExists)
    idx2 = _mk(tmp_path, "reborn", dsn)
    assert idx2.search("*", max_hits=5).num_hits == 0


def test_pointer_uid_survives_directory_move(tmp_path, pg_dsn):
    import shutil

    dsn, _ = pg_dsn
    idx = _mk(tmp_path, "mover", dsn)
    idx.ingest_docs(pq.read_table(DOCS).slice(0, 15).to_pylist(),
                    commit_id="a")
    # NOTE: split ARTIFACTS move with the dir; only metastore rows are
    # keyed by uid — the pinned pointer uid keeps them reachable
    new_dir = str(tmp_path / "moved-here")
    shutil.move(idx.index_dir, new_dir)
    m = Manifest(new_dir)
    assert sum(s.num_docs for s in m.published_splits()) == 15
    assert Index.open(new_dir).search("*", max_hits=20).num_hits == 15


def test_update_config_and_delete_tasks_on_postgres(tmp_path, pg_dsn):
    from dataclasses import replace

    dsn, _ = pg_dsn
    idx = _mk(tmp_path, "upd", dsn)
    cfg = idx.config
    idx.update_config(replace(cfg, settings=replace(cfg.settings,
                                                    retention_secs=60)))
    assert Index.open(idx.index_dir).config.settings.retention_secs == 60
    n = idx.create_delete_task("text:zzz")
    m = Manifest(idx.index_dir)
    assert [t["opstamp"] for t in m.delete_tasks] == [n]
