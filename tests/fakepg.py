"""Fake PostgreSQL DBAPI driver for the ``fakepg`` DSN scheme. No postgres
server exists in the test environment, so a sqlite-backed connection that
enforces postgres paramstyle stands in — the dialect layer must emit
``%s`` params and ``ON CONFLICT`` upserts for it to work at all. Tests get
it through the ``pg_dsn`` fixture in conftest.py."""

import sqlite3

SEEN_SQL: list[str] = []
# callables run (and removed) before the next INSERT/UPDATE/DELETE any
# fake connection executes: lets a test interleave a competing writer at
# an exact point of a transaction
BEFORE_WRITE: list = []


class _FakeCursor:
    def __init__(self, conn, cur):
        self._conn = conn
        self._cur = cur

    def execute(self, sql, params=()):
        # a real postgres driver would reject sqlite's '?' paramstyle
        assert "?" not in sql, f"postgres dialect emitted sqlite SQL: {sql}"
        SEEN_SQL.append(sql)
        if BEFORE_WRITE and sql.lstrip().upper().startswith(
                ("INSERT", "UPDATE", "DELETE")):
            BEFORE_WRITE.pop(0)()
        self._cur.execute(sql.replace("%s", "?"), params)
        # postgres opens a transaction at the first statement, SELECT
        # included (sqlite does not): track it like a server would
        self._conn.in_transaction = True

    def fetchall(self):
        return self._cur.fetchall()


class _FakePostgres:
    """DBAPI-shaped connection: cursor/commit/rollback only (what the
    dialect layer is allowed to use)."""

    def __init__(self, path):
        self._con = sqlite3.connect(path)
        self.in_transaction = False

    def cursor(self):
        return _FakeCursor(self, self._con.cursor())

    def commit(self):
        self._con.commit()
        self.in_transaction = False

    def rollback(self):
        self._con.rollback()
        self.in_transaction = False
