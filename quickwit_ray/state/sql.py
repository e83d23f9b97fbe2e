"""SQL metastore store (sqlite file DB / PostgreSQL server).

The reference ships two production metastores: file-backed and PostgreSQL
(`quickwit-metastore/src/metastore/postgres/metastore.rs` — one database
hosts every index, rows keyed by index uid, each metastore op is one ACID
transaction). :class:`SqlStore` gives the repo's :class:`Manifest` the
same choice behind its store protocol (load / refresh / commit):

  * dialect ``sqlite`` — a per-index ``metastore.db`` file (plain
    tables, ``?`` params; the schema is unchanged from round 2).
  * dialect ``postgres`` — a shared server database; every table carries
    an ``index_uid`` column (composite primary keys), params are ``%s``
    — the reference's multi-index layout.

Both render writes as ``INSERT .. ON CONFLICT .. DO UPDATE`` upserts and
keyed deletes of the rows ``Manifest._apply`` reports as changed, inside
one transaction that first bumps the ``generation`` row.

Connections come from a DSN-scheme driver registry: ``postgresql://`` /
``postgres://`` DSNs use psycopg2 when installed (not in this sandbox);
tests register fake drivers (any DBAPI connection works — cursor(),
commit(), rollback()). The DSN for an index is pinned in a
``metastore.json`` pointer file next to the artifacts, written by the
store at index creation, so every ``Manifest(index_dir)`` resolves the
same server.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from typing import Any, Callable, Optional

from quickwit_ray.state.manifest import GenerationConflict, SplitMetadata

# -- DSN driver registry ------------------------------------------------------

_DRIVERS: dict[str, Callable[[str], Any]] = {}


def register_driver(scheme: str, factory: Callable[[str], Any]) -> None:
    """Register a DBAPI connection factory for a DSN scheme (tests inject
    fakes; deployments could map ``postgresql`` to psycopg2.connect)."""
    _DRIVERS[scheme] = factory


def _default_postgres(dsn: str):
    try:
        import psycopg2  # type: ignore
    except ImportError as e:  # pragma: no cover — not installed here
        raise RuntimeError(
            "postgres metastore requires psycopg2 (not installed); "
            "register_driver() a factory for this DSN scheme instead") from e
    return psycopg2.connect(dsn)  # pragma: no cover


def connect_dsn(dsn: str):
    scheme = dsn.split("://", 1)[0]
    factory = _DRIVERS.get(scheme)
    if factory is None and scheme in ("postgres", "postgresql"):
        factory = _default_postgres
    if factory is None:
        raise ValueError(f"no driver registered for DSN scheme {scheme!r}")
    return factory(dsn)


# -- store --------------------------------------------------------------------

_SQLITE_DDL = [
    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)",
    "CREATE TABLE IF NOT EXISTS splits (split_id TEXT PRIMARY KEY, json TEXT)",
    "CREATE TABLE IF NOT EXISTS checkpoints (partition TEXT PRIMARY KEY, json TEXT)",
    "CREATE TABLE IF NOT EXISTS delete_tasks (opstamp INTEGER PRIMARY KEY, query TEXT)",
    "CREATE TABLE IF NOT EXISTS shards (shard_id TEXT PRIMARY KEY, json TEXT)",
    "CREATE TABLE IF NOT EXISTS sources (source_id TEXT PRIMARY KEY, json TEXT)",
]

# reference layout: one database, rows scoped by index_uid
# (postgres/metastore.rs `indexes` / `splits` tables)
_PG_DDL = [
    "CREATE TABLE IF NOT EXISTS meta (index_uid TEXT NOT NULL, key TEXT NOT NULL,"
    " value TEXT, PRIMARY KEY (index_uid, key))",
    "CREATE TABLE IF NOT EXISTS splits (index_uid TEXT NOT NULL, split_id TEXT"
    " NOT NULL, json TEXT, PRIMARY KEY (index_uid, split_id))",
    "CREATE TABLE IF NOT EXISTS checkpoints (index_uid TEXT NOT NULL, partition"
    " TEXT NOT NULL, json TEXT, PRIMARY KEY (index_uid, partition))",
    "CREATE TABLE IF NOT EXISTS delete_tasks (index_uid TEXT NOT NULL, opstamp"
    " BIGINT NOT NULL, query TEXT, PRIMARY KEY (index_uid, opstamp))",
    "CREATE TABLE IF NOT EXISTS shards (index_uid TEXT NOT NULL, shard_id TEXT"
    " NOT NULL, json TEXT, PRIMARY KEY (index_uid, shard_id))",
    "CREATE TABLE IF NOT EXISTS sources (index_uid TEXT NOT NULL, source_id"
    " TEXT NOT NULL, json TEXT, PRIMARY KEY (index_uid, source_id))",
]

_COLS = {"meta": ("key", "value"), "splits": ("split_id", "json"),
         "checkpoints": ("partition", "json"),
         "delete_tasks": ("opstamp", "query"), "shards": ("shard_id", "json"),
         "sources": ("source_id", "json")}


class SqlStore:
    """The manifest's SQL store: one metastore op = one ACID transaction
    over six tables, in either dialect (``sqlite`` or ``postgres``; the
    latter scopes every row by ``index_uid``).

    A ``meta`` row keyed ``generation`` counts commits (missing = 0, so
    DBs written before it existed open unchanged). A commit that finds
    it missing (a new, pre-generation or dropped index) inserts a random
    seed instead of 1, so an index recreated at a dropped one's path
    never re-walks the old counter: a Manifest loaded or a searcher
    cached before the drop never passes for current. ``commit`` bumps it
    as the transaction's FIRST write and reads it back: anything but
    the expected value means another writer committed since this
    instance's refresh, so the transaction rolls back with
    :class:`GenerationConflict` and the manifest re-derives the op from
    fresh state. The bump holds the row's write lock until commit, so
    every check ``Manifest`` made on the refreshed state (split-state
    CAS, checkpoint dedup, opstamp allocation) holds inside the
    transaction. Only ``cursor().execute/fetchall``, ``commit`` and
    ``rollback`` are used from the DBAPI connection."""

    def __init__(self, connect: Callable[[], Any], dialect: str,
                 index_uid: str = "", marker: str = "",
                 pointer: Optional[tuple[str, str, str]] = None):
        assert dialect in ("sqlite", "postgres")
        self._connect = connect
        self._conn = None
        self.backend = dialect
        self.index_uid = index_uid
        self.marker = marker  # the file whose presence marks the index
        self.pointer = pointer  # (index_dir, dsn, uid) written at create
        self.gen: Optional[int] = None  # generation of the loaded state
        self._p = "?" if dialect == "sqlite" else "%s"

    @classmethod
    def sqlite(cls, index_dir: str) -> "SqlStore":
        import sqlite3

        db_path = os.path.join(index_dir, "metastore.db")

        def connect():
            os.makedirs(index_dir, exist_ok=True)
            conn = sqlite3.connect(db_path)
            conn.execute("PRAGMA journal_mode=WAL")
            return conn

        return cls(connect, "sqlite", marker=db_path)

    @classmethod
    def postgres(cls, index_dir: str, dsn: Optional[str]) -> "SqlStore":
        ptr = read_pointer(index_dir) or {}
        dsn = dsn or ptr.get("dsn")
        if dsn is None:
            raise FileNotFoundError(f"no metastore.json pointer at {index_dir}")
        uid = ptr.get("index_uid") or _index_uid(index_dir)
        from quickwit_ray import storage

        return cls(lambda: connect_dsn(dsn), "postgres", uid,
                   marker=storage.join(index_dir, "metastore.json"),
                   pointer=(index_dir, dsn, uid))

    @property
    def conn(self):
        if self._conn is None:
            self._conn = self._connect()
            cur = self._conn.cursor()
            for stmt in (_SQLITE_DDL if self.backend == "sqlite"
                         else _PG_DDL):
                cur.execute(stmt)
            self._conn.commit()
        return self._conn

    # -- dialect rendering -------------------------------------------------

    def _scoped(self, cols: tuple[str, ...]) -> tuple[str, ...]:
        return ("index_uid",) + cols if self.backend == "postgres" else cols

    def _where(self, cols: tuple[str, ...]) -> str:
        cols = self._scoped(cols)
        return " WHERE " + " AND ".join(f"{c} = {self._p}" for c in cols) \
            if cols else ""

    def _scope(self, row: tuple) -> tuple:
        return row if self.backend == "sqlite" else (self.index_uid, *row)

    def _upsert(self, cur, table: str, row: tuple, update: str) -> None:
        cols = self._scoped(_COLS[table])
        pk = cols[:-1]
        cur.execute(
            f"INSERT INTO {table} ({', '.join(cols)}) VALUES "
            f"({', '.join([self._p] * len(cols))}) ON CONFLICT "
            f"({', '.join(pk)}) DO UPDATE SET {cols[-1]} = {update}",
            self._scope(row))

    def _select(self, cur, table: str, order_by: str = "") -> list:
        cur.execute(f"SELECT {', '.join(_COLS[table])} FROM {table}"
                    f"{self._where(())}{order_by}", self._scope(()))
        return list(cur.fetchall())

    def _generation(self, cur) -> int:
        cur.execute(f"SELECT value FROM meta{self._where(('key',))}",
                    self._scope(("generation",)))
        rows = cur.fetchall()
        return int(rows[0][0]) if rows else 0

    # -- store protocol (see state.manifest) -------------------------------

    def locked(self):
        return contextlib.nullcontext()

    def generation(self) -> int:
        gen = self._generation(self.conn.cursor())
        self.conn.rollback()  # end the read (postgres opens one)
        return gen

    def load(self, m) -> None:
        if self.backend == "sqlite" and not os.path.exists(self.marker):
            self.gen = 0  # created lazily by the first commit
            return
        cur = self.conn.cursor()
        # generation FIRST: rows committed after it only make the label
        # conservative (the next commit conflicts and re-reads)
        self.gen = self._generation(cur)
        for k, v in self._select(cur, "meta"):
            if k == "index_config":
                m.index_config_json = json.loads(v)
        for sid, j in self._select(cur, "splits"):
            m.splits[sid] = SplitMetadata.from_json(json.loads(j))
        for o, q in self._select(cur, "delete_tasks", " ORDER BY opstamp"):
            m.delete_tasks.append({"opstamp": int(o), "query": q})
        for table in ("checkpoints", "shards", "sources"):
            getattr(m, table).update(
                (k, json.loads(j)) for k, j in self._select(cur, table))
        self.conn.rollback()

    def refresh(self, m) -> None:
        gen = self._generation(self.conn.cursor())
        # end the read now: the op may turn out a no-op or refuse, and a
        # postgres connection must not idle inside a transaction
        self.conn.rollback()
        if gen != self.gen:
            m._reset_state()
            self.load(m)

    def commit(self, m, op: dict[str, Any], changed: list) -> None:
        if op["op"] == "create" and self.pointer is not None:
            write_pointer(*self.pointer)
        expected, self.gen = self.gen, None  # unknown until the tx lands
        # a missing row starts at a random seed, not at 1: a recreated
        # index never re-walks the counter of the one dropped in its place
        seed = secrets.randbelow(1 << 62) + 1
        want = expected + 1 if expected else seed
        with _Tx(self.conn) as cur:
            self._upsert(cur, "meta", ("generation", str(seed)),
                         "CAST(CAST(meta.value AS BIGINT) + 1 AS TEXT)")
            if self._generation(cur) != want:
                raise GenerationConflict(self.index_uid)
            for table, key in changed:
                value = _row_value(m, table, key)
                if value is None:
                    cur.execute(f"DELETE FROM {table}"
                                f"{self._where(_COLS[table][:1])}",
                                self._scope((key,)))
                else:
                    self._upsert(cur, table, (key, value),
                                 f"EXCLUDED.{_COLS[table][1]}")
        self.gen = want

    def drop(self) -> None:
        with _Tx(self.conn) as cur:
            for table in _COLS:
                cur.execute(f"DELETE FROM {table}{self._where(())}",
                            self._scope(()))
        self.gen = None  # reload before the next commit


def _row_value(m, table: str, key) -> Optional[str]:
    """The stored value of one (table, key) row from manifest state;
    None when the key is gone (the row is deleted)."""
    if table == "meta":
        return json.dumps(m.index_config_json)
    if table == "delete_tasks":
        return next((t["query"] for t in m.delete_tasks
                     if t["opstamp"] == key), None)
    value = getattr(m, table).get(key)
    if value is None:
        return None
    return json.dumps(value.to_json() if table == "splits" else value)


class _Tx:
    """Commit-on-success / rollback-on-error transaction scope holding one
    cursor (works for sqlite3 connections and any DBAPI server conn)."""

    def __init__(self, conn):
        self.conn = conn

    def __enter__(self):
        return self.conn.cursor()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.conn.commit()
        else:
            self.conn.rollback()


def _index_uid(index_dir: str) -> str:
    """Deterministic per-index uid scoping rows in a SHARED postgres
    database (the reference's index_uid, postgres/metastore.rs). Derived
    from the artifact path/URI so every Manifest(index_dir) resolves the
    same rows without extra coordination."""
    import hashlib

    from quickwit_ray import storage

    key = index_dir if storage.is_object_uri(index_dir) \
        else os.path.abspath(index_dir)
    return hashlib.sha1(key.encode()).hexdigest()[:16]


# -- metastore pointer file -----------------------------------------------

def write_pointer(index_dir: str, dsn: str,
                  index_uid: Optional[str] = None) -> None:
    """Pin the DSN (and the row-scope uid, so the artifact dir can move
    or be mounted at another path without orphaning its rows). Storage-
    aware: the pointer may live on object storage next to the artifacts
    (the reference's PG-metastore + S3-artifacts layout)."""
    from quickwit_ray import storage

    obj: dict[str, Any] = {"backend": "postgres", "dsn": dsn}
    if index_uid is not None:
        obj["index_uid"] = index_uid
    storage.makedirs(index_dir)
    storage.write_bytes(storage.join(index_dir, "metastore.json"),
                        json.dumps(obj).encode())


def read_pointer(index_dir: str) -> Optional[dict[str, Any]]:
    from quickwit_ray import storage

    p = storage.join(index_dir, "metastore.json")
    if not storage.exists(p):
        return None
    return json.loads(storage.read_bytes(p))
