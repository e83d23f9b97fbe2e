"""Metastore analog: split manifest + source checkpoints.

Re-expresses the reference metastore data model
(`quickwit/quickwit-metastore/src/split_metadata.rs:61-135` for the split
fields, `checkpoint.rs:170-188` for source checkpoints) as one
:class:`Manifest` per index. The transactional publish of (new splits,
replaced splits, checkpoint delta) —
`quickwit/quickwit-indexing/src/actors/publisher.rs:137-160` — maps to
one ``Manifest.publish()`` call = one op committed atomically.

The state and its op ladder (``_apply``) are backend-free; persistence
sits behind three small stores, picked per index root by
:func:`_open_store` (the one place that knows the storage layout):

  * ``_FileStore`` — local append log (``manifest.log``) + periodic
    snapshot (``manifest.json``), serialized by an flock;
  * ``_ObjectStore`` — one whole-object ``manifest.json`` PUT per op on
    object storage (single writer per root across processes);
  * ``state.sql.SqlStore`` — sqlite ``metastore.db`` or a shared
    PostgreSQL database, one ACID transaction per op, guarded by a
    generation row.

Split states: staged -> published -> marked_for_deletion
(`split_metadata.rs:294-303`). Artifacts on disk but absent from the
manifest (or staged/marked) are garbage-collectible.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Optional


@dataclass
class SplitMetadata:
    split_id: str
    index_id: str
    num_docs: int
    uncompressed_docs_size_in_bytes: int
    # source partition lineage: which input fragment produced this split
    source_partition_id: str = ""
    # routing partition (doc_mapping.partition_key), 0 when unpartitioned
    partition_id: int = 0
    time_range_start: Optional[int] = None  # timestamp field min, epoch micros
    time_range_end: Optional[int] = None
    create_timestamp: float = 0.0
    tags: dict[str, list[str]] = field(default_factory=dict)
    num_merge_ops: int = 0
    delete_opstamp: int = 0
    split_state: str = "published"  # staged | published | marked_for_deletion
    # last state-transition time (quickwit's update_timestamp): set when
    # the split is marked for deletion, so the GC grace period runs from
    # the MARK, not the dir's creation mtime — an old split replaced a
    # second ago must still get its full in-flight-reader grace. 0.0 on
    # legacy rows (GC falls back to dir mtime).
    update_timestamp: float = 0.0
    # per-text-field stats needed for BM25 (per-split statistics!)
    field_stats: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "SplitMetadata":
        return SplitMetadata(**obj)


COMPACT_EVERY = 64  # log entries between snapshot compactions


class StaleReplaceError(ValueError):
    """A publish's replaced splits are no longer published — another
    writer (a concurrent merge, a delete-task rewrite, retention)
    replaced or dropped them first. The quickwit metastore's
    publish_splits split-state check analog: without it, two concurrent
    rewriters of the same split would BOTH land and the split's docs
    would be double-counted (caught live by tests/test_soak.py). The
    caller must discard its output split and re-plan."""


class GenerationConflict(Exception):
    """A store's commit found that another writer committed since this
    instance's last refresh; ``Manifest._commit`` refreshes and rebuilds
    the op."""


# per-index-root write locks: same-process writer threads (serve: ingest
# handlers + the janitor loop) serialize their read-modify-write commits
# here on every backend; across processes the file store adds its flock
# and the SQL store its generation check (object roots stay single-writer)
_ROOT_LOCKS: dict[str, threading.RLock] = {}
_ROOT_LOCKS_GUARD = threading.Lock()


def _root_lock(index_dir: str) -> threading.RLock:
    with _ROOT_LOCKS_GUARD:
        lock = _ROOT_LOCKS.get(index_dir)
        if lock is None:
            lock = _ROOT_LOCKS[index_dir] = threading.RLock()
        return lock


# -- snapshot format (manifest.json, shared by the file and object stores) --

def _snapshot_bytes(m: "Manifest") -> bytes:
    return json.dumps({
        "index_config": m.index_config_json,
        "splits": [s.to_json() for s in m.splits.values()],
        "checkpoints": m.checkpoints,
        "delete_tasks": m.delete_tasks,
        "shards": m.shards,
        "sources": m.sources,
    }, separators=(",", ":")).encode()


def _load_snapshot(m: "Manifest", raw: bytes) -> None:
    obj = json.loads(raw)
    m.index_config_json = obj.get("index_config")
    m.splits = {s["split_id"]: SplitMetadata.from_json(s)
                for s in obj["splits"]}
    m.checkpoints = obj.get("checkpoints", {})
    m.delete_tasks = obj.get("delete_tasks", [])
    m.shards = obj.get("shards", {})
    m.sources = obj.get("sources", {})


def _stat_sig(path: str):
    """Identity of one local file: an append or an atomic-rename
    replace changes (ino, mtime_ns, size)."""
    try:
        st = os.stat(path)
        return (st.st_ino, st.st_mtime_ns, st.st_size)
    except OSError:
        return None


class _FileStore:
    """Local APPEND-LOG + periodic snapshot: every op appends one fsync'd
    JSON line to ``manifest.log`` — O(delta) bytes per commit instead of
    rewriting the whole split list (a scale-killer at 10^5-10^6 splits).
    Compaction snapshots the full state to ``manifest.json`` via atomic
    rename and atomically truncates the log. Loading = read snapshot,
    replay log; a torn trailing line (crash mid-append) is ignored;
    replaying ops already folded into the snapshot is idempotent.

    Writers hold an exclusive flock across refresh + append (the design
    is single-writer, like the reference metastore's service, but two
    accidental concurrent publishers must not interleave partial appends
    or race the compaction rename); loads hold it shared."""

    backend = "file"

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        self.path = self.marker = os.path.join(index_dir, "manifest.json")
        self.log_path = os.path.join(index_dir, "manifest.log")
        # incremental-refresh bookkeeping: snapshot identity + consumed
        # log bytes, see refresh()
        self.snap_sig = None
        self.log_offset = 0
        self.log_entries = 0

    @contextlib.contextmanager
    def locked(self, shared: bool = False):
        import fcntl

        os.makedirs(self.index_dir, exist_ok=True)
        fd = os.open(os.path.join(self.index_dir, ".manifest.lock"),
                     os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def load(self, m: "Manifest") -> None:
        """Snapshot + log under a SHARED flock, so a concurrent writer's
        compaction (snapshot replace + log truncate) cannot interleave —
        without it a reader could pair the OLD snapshot with the NEW
        (truncated) log and miss up to COMPACT_EVERY-1 ops."""
        if os.path.exists(self.path) or os.path.exists(self.log_path):
            with self.locked(shared=True):
                self._read(m)

    def _read(self, m: "Manifest") -> None:
        self.snap_sig = _stat_sig(self.path)
        self.log_entries = 0
        if os.path.exists(self.path):
            with open(self.path, "rb") as f:
                _load_snapshot(m, f.read())
        self.log_offset = 0
        if os.path.exists(self.log_path):
            with open(self.log_path, "rb") as f:
                self._replay(m, f.read())

    def _replay(self, m: "Manifest", raw: bytes) -> None:
        """Fold raw log bytes read from ``log_offset`` into the state;
        advances the cursor past the last COMPLETE line (a torn tail is
        re-read on the next refresh, once the writer finishes it)."""
        consumed = raw.rfind(b"\n") + 1  # 0 when no complete line yet
        for chunk in raw[:consumed].split(b"\n"):
            if not chunk.strip():
                continue
            try:
                op = json.loads(chunk)
            except json.JSONDecodeError:
                # torn fragment from a writer that died mid-append (its
                # op was never acknowledged) — or a writer's append IN
                # FLIGHT while we read. NEVER truncate here: a reader
                # racing the single writer must not destroy the line the
                # writer is about to complete. The writer path starts
                # every append on a fresh line (see commit), so a skipped
                # fragment stays isolated and unacknowledged.
                continue
            m._apply(op)
            self.log_entries += 1
        self.log_offset += consumed
        # a newline-less tail that parses as a COMPLETE op (a crashed
        # writer persisted everything but the terminator) must be VISIBLE
        # now: the next writer's fresh-line repair will terminate it and
        # every later replay applies it BEFORE subsequent ops, so a CAS
        # that didn't see it could approve a conflicting replacement
        # (double-count). Fold it in WITHOUT advancing the cursor — it is
        # re-read (idempotently) once terminated. A strict prefix of a
        # JSON object can never parse as complete, so a half-written line
        # stays invisible as before.
        tail = raw[consumed:].strip()
        if tail:
            try:
                m._apply(json.loads(tail))
            except json.JSONDecodeError:
                pass

    def refresh(self, m: "Manifest") -> None:
        """Incremental freshness (caller holds the flock): if the snapshot
        was replaced (a compaction), reload everything; otherwise fold
        only the log bytes appended since our last read. Keeps every
        commit O(delta), not O(total splits) — at 10^6 splits a full
        reload per publish would parse ~100 MB of JSON."""
        if _stat_sig(self.path) != self.snap_sig:
            m._reset_state()
            self._read(m)
            return
        if not os.path.exists(self.log_path):
            return
        with open(self.log_path, "rb") as f:
            f.seek(self.log_offset)
            raw = f.read()
        if raw:
            self._replay(m, raw)

    def commit(self, m: "Manifest", op: dict[str, Any],
               changed: list) -> None:
        with open(self.log_path, "ab") as f:
            pre = f.tell()
            # start on a fresh line even after a predecessor's torn tail
            # (writer-side repair; readers never mutate the log)
            if pre > 0:
                with open(self.log_path, "rb") as rf:
                    rf.seek(-1, os.SEEK_END)
                    last = rf.read(1)
                if last != b"\n":
                    f.write(b"\n")
            f.write(json.dumps(op, separators=(",", ":")).encode() + b"\n")
            f.flush()
            os.fsync(f.fileno())
            # advance the refresh cursor past our own append — but ONLY
            # if we were current up to the pre-write end of the log (a
            # torn tail between would otherwise be skipped; leaving the
            # cursor put just re-replays idempotent ops instead)
            if self.log_offset == pre:
                self.log_offset = f.tell()
        self.log_entries += 1
        # snapshot at create (manifest.json presence is the "index
        # exists" signal), then LSM-style amortization: a snapshot costs
        # O(total state), so the trigger scales with state size — at
        # 10^6 splits a fixed every-64-ops policy would rewrite a huge
        # manifest.json per 64 publishes; letting the log grow to
        # ~state/8 keeps compaction O(1) amortized per op while replay
        # stays bounded
        if op["op"] == "create" or \
                self.log_entries >= max(COMPACT_EVERY, len(m.splits) // 8):
            self._compact(m)

    def _compact(self, m: "Manifest") -> None:
        """Snapshot + truncate the log, both via atomic rename, under the
        writer flock. A crash between the two leaves snapshot + stale
        log: replay is idempotent, so the state converges either way.
        Snapshots the ON-DISK state (re-read here), never memory alone."""
        m._reset_state()
        self._read(m)
        fd, tmp = tempfile.mkstemp(dir=self.index_dir, prefix=".manifest-")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(_snapshot_bytes(m))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)  # atomic on POSIX
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        fd, tmp = tempfile.mkstemp(dir=self.index_dir, prefix=".log-")
        os.close(fd)
        os.replace(tmp, self.log_path)
        # we ARE the post-compaction state: refresh bookkeeping restarts
        # at the new snapshot + empty log
        self.snap_sig = _stat_sig(self.path)
        self.log_offset = 0
        self.log_entries = 0

    def generation(self):
        return (_stat_sig(self.path), _stat_sig(self.log_path))

    def drop(self) -> None:
        pass  # deleting the index dir removes the state


class _ObjectStore:
    """Object-store root: the full state lives in ONE manifest.json
    object; a whole-object PUT is atomic by the store's contract, so
    readers see the previous or the next state, never a torn one
    (quickwit's file-backed metastore on S3 has the same model and the
    same SINGLE-WRITER-per-index contract across processes; multi-writer
    deployments use the SQL metastore with artifacts on the object
    store). No ETag in the storage API, so there is no generation:
    every commit and every searcher resolve re-reads the object."""

    backend = "object"

    def __init__(self, index_dir: str):
        from quickwit_ray import storage

        self.path = self.marker = storage.join(index_dir, "manifest.json")

    def locked(self):
        return contextlib.nullcontext()

    def load(self, m: "Manifest") -> None:
        from quickwit_ray import storage

        if storage.exists(self.path):
            _load_snapshot(m, storage.read_bytes(self.path))

    def refresh(self, m: "Manifest") -> None:
        m._reset_state()
        self.load(m)

    def commit(self, m: "Manifest", op: dict[str, Any],
               changed: list) -> None:
        from quickwit_ray import storage

        storage.write_bytes(self.path, _snapshot_bytes(m))

    def generation(self):
        return None

    def drop(self) -> None:
        pass


def _open_store(index_dir: str, backend: Optional[str] = None,
                dsn: Optional[str] = None):
    """The one backend switch: a metastore.json pointer marks a shared
    PostgreSQL metastore (quickwit-metastore/src/metastore/postgres), a
    metastore.db the per-index sqlite DB, an object URI the snapshot
    store; anything else is the local append log."""
    from quickwit_ray import storage
    from quickwit_ray.state import sql

    is_object = storage.is_object_uri(index_dir)
    if backend is None:
        ptr = sql.read_pointer(index_dir)
        if ptr is not None:
            backend = ptr.get("backend", "postgres")
        elif is_object:
            backend = "object"
        elif os.path.exists(os.path.join(index_dir, "metastore.db")):
            backend = "sqlite"
        else:
            backend = "file"
    if backend == "file" and is_object:
        backend = "object"
    if backend in ("sqlite", "object") and \
            (is_object != (backend == "object")):
        raise ValueError(
            f"metastore backend {backend!r} does not fit "
            f"{'object' if is_object else 'local'} root "
            f"{index_dir!r} (sqlite needs a local file; use "
            f"metastore='postgres' or the object snapshot backend)")
    if backend == "file":
        return _FileStore(index_dir)
    if backend == "object":
        return _ObjectStore(index_dir)
    if backend == "sqlite":
        return sql.SqlStore.sqlite(index_dir)
    if backend == "postgres":
        return sql.SqlStore.postgres(index_dir, dsn)
    raise ValueError(f"unknown metastore backend {backend!r}")


def generation(index_dir: str):
    """Freshness stamp of an index's committed metastore state, read
    without loading it: a commit on any backend changes it, so equal
    stamps mean the cached state is current. None = the backend cannot
    tell (object roots), callers must re-read."""
    return _open_store(index_dir).generation()


def has_metastore(index_dir: str) -> bool:
    """Whether ``index_dir`` holds an index's metastore (its snapshot,
    sqlite DB or postgres pointer)."""
    from quickwit_ray import storage

    return storage.exists(_open_store(index_dir).marker)


class Manifest:
    """One index's metastore state: splits, source checkpoints, delete
    tasks, message-queue shards and source configs, behind the same API
    on every backend (file log, object snapshot, sqlite, postgres).

    Every mutator commits through :meth:`_commit`: under the per-root
    lock it refreshes from the store, derives the op from that fresh
    state (so duplicate/contiguity/CAS checks never act on a stale
    instance), folds it in with ``_apply`` and hands it to the store."""

    def __init__(self, index_dir: str, backend: Optional[str] = None,
                 dsn: Optional[str] = None):
        self.index_dir = index_dir
        self._reset_state()
        self._store = _open_store(index_dir, backend, dsn)
        self._store.load(self)

    def _reset_state(self) -> None:
        self.index_config_json: Optional[dict[str, Any]] = None
        self.splits: dict[str, SplitMetadata] = {}
        # committed source partitions: partition_id -> {"committed_at": ts}
        self.checkpoints: dict[str, dict[str, Any]] = {}
        # delete tasks (stored queries applied at compaction time,
        # quickwit-janitor/src/actors/delete_task_planner.rs):
        # [{"opstamp": int, "query": str}]
        self.delete_tasks: list[dict[str, Any]] = []
        # message-queue shard ownership (queue_sources/shared_state.rs:
        # shard id = message content id, token = pipeline publish token):
        # {shard_id: {"token": str, "ts": float}}; COMPLETION is the
        # "mq:{shard_id}" checkpoint, transactional with split publish
        self.shards: dict[str, dict[str, Any]] = {}
        # declarative source configs (source-config.md; metastore
        # add_source/delete_source/toggle_source): {source_id: config}
        self.sources: dict[str, dict[str, Any]] = {}

    # -- the one commit path --------------------------------------------------

    def _commit(self, build_op: Callable[[], Optional[dict[str, Any]]]
                ) -> Optional[dict[str, Any]]:
        """Read-modify-write commit: refresh to the freshest committed
        state, let ``build_op()`` derive the op from it (None = no-op, an
        exception aborts), fold it in and persist it. Returns the
        committed op. The only retry is a SQL generation conflict (another
        process committed between refresh and transaction)."""
        with _root_lock(self.index_dir):
            while True:
                with self._store.locked():
                    self._store.refresh(self)
                    op = build_op()
                    if op is None:
                        return None
                    changed = self._apply(op)
                    try:
                        self._store.commit(self, op, changed)
                    except GenerationConflict:
                        continue
                    return op

    def _apply(self, op: dict[str, Any]) -> list[tuple[str, Any]]:
        """Fold one op into the in-memory state (replay-idempotent).
        Returns the (table, key) pairs it touched; the SQL store rewrites
        exactly those rows from the new state."""
        kind = op["op"]
        if kind in ("create", "update_config"):
            self.index_config_json = op["index_config"]
            return [("meta", "index_config")]
        if kind == "publish":
            touched = []
            for sj in op.get("splits", ()):
                sm = SplitMetadata.from_json(sj)
                sm.split_state = "published"
                self.splits[sm.split_id] = sm
                touched.append(("splits", sm.split_id))
            for sid in op.get("replaced", ()):
                if sid in self.splits:
                    self.splits[sid].split_state = "marked_for_deletion"
                    # ts from the OP (write time), not replay time — a
                    # log replay must reconstruct identical state
                    self.splits[sid].update_timestamp = op.get("ts", 0.0)
                    touched.append(("splits", sid))
            for pid, cp in op.get("checkpoints", {}).items():
                self.checkpoints[pid] = cp
                touched.append(("checkpoints", pid))
            return touched
        if kind == "mark_for_deletion":
            ids = [sid for sid in op["split_ids"] if sid in self.splits]
            for sid in ids:
                self.splits[sid].split_state = "marked_for_deletion"
                self.splits[sid].update_timestamp = op.get("ts", 0.0)
            return [("splits", sid) for sid in ids]
        if kind == "delete_splits":
            for sid in op["split_ids"]:
                self.splits.pop(sid, None)
            return [("splits", sid) for sid in op["split_ids"]]
        if kind == "delete_task":
            if not any(t["opstamp"] == op["opstamp"]
                       for t in self.delete_tasks):
                self.delete_tasks.append({"opstamp": op["opstamp"],
                                          "query": op["query"]})
            return [("delete_tasks", op["opstamp"])]
        if kind == "shard_open":
            self.shards.setdefault(op["id"], {"token": op["token"],
                                              "ts": op["ts"]})
            return [("shards", op["id"])]
        if kind == "shard_acquire":
            self.shards[op["id"]] = {"token": op["token"], "ts": op["ts"]}
            return [("shards", op["id"])]
        if kind == "shard_prune":
            for i in op["ids"]:
                self.shards.pop(i, None)
                self.checkpoints.pop(f"mq:{i}", None)
            return [(t, k) for i in op["ids"]
                    for t, k in (("shards", i), ("checkpoints", f"mq:{i}"))]
        if kind == "source_add":
            self.sources[op["source"]["source_id"]] = op["source"]
            return [("sources", op["source"]["source_id"])]
        if kind == "source_delete":
            self.sources.pop(op["source_id"], None)
            return [("sources", op["source_id"])]
        if kind == "source_toggle":
            if op["source_id"] in self.sources:
                self.sources[op["source_id"]]["enabled"] = bool(op["enable"])
            return [("sources", op["source_id"])]
        if kind == "checkpoint_reset":
            for k in op["keys"]:
                self.checkpoints.pop(k, None)
            return [("checkpoints", k) for k in op["keys"]]
        if kind == "clear":
            # `index clear` (index_api clear handler): all splits, source
            # checkpoints, delete tasks and shards drop in ONE op; the
            # index config and source CONFIGS survive
            touched = ([("splits", k) for k in self.splits]
                       + [("checkpoints", k) for k in self.checkpoints]
                       + [("delete_tasks", t["opstamp"])
                          for t in self.delete_tasks]
                       + [("shards", k) for k in self.shards])
            self.splits = {}
            self.checkpoints = {}
            self.delete_tasks = []
            self.shards = {}
            return touched
        raise ValueError(f"unknown manifest op {kind!r}")  # pragma: no cover

    # -- message-queue shard ownership (queue_sources/shared_state.rs) ----

    def open_shard(self, shard_id: str, token: str) -> str:
        """First-caller-wins ownership claim (OpenShards analog): records
        (shard_id -> token) if unclaimed and returns the OWNING token —
        the caller proceeds only when it equals its own. The claim check
        runs on fresh state inside the commit, so a losing concurrent
        claimant gets the WINNER's token back, never its own."""
        cur = self.shards.get(shard_id)
        if cur is not None:
            return cur["token"]

        def build() -> Optional[dict[str, Any]]:
            if shard_id in self.shards:
                return None  # lost the claim race: keep the winner
            return {"op": "shard_open", "id": shard_id, "token": token,
                    "ts": time.time()}

        self._commit(build)
        return self.shards[shard_id]["token"]

    def acquire_shard(self, shard_id: str, token: str) -> None:
        """Steal a stale shard (AcquireShards analog). Subject to the same
        documented race as the reference: two pipelines may acquire
        concurrently and one loses at commit time (the mq checkpoint
        no-ops the duplicate publish)."""
        op = {"op": "shard_acquire", "id": shard_id, "token": token,
              "ts": time.time()}
        self._commit(lambda: op)

    def shard_info(self, shard_id: str) -> Optional[dict[str, Any]]:
        return self.shards.get(shard_id)

    def is_shard_completed(self, shard_id: str) -> bool:
        return f"mq:{shard_id}" in self.checkpoints

    def prune_shards(self, older_than_sec: float) -> int:
        """GC shard rows (and their completion checkpoints) older than the
        deduplication window (design.md 'Cleanup of old shards'): bounds
        the table; a duplicate delivery AFTER the window would reprocess —
        the documented trade."""
        before = time.time() - older_than_sec

        def build() -> Optional[dict[str, Any]]:
            ids = [k for k, v in self.shards.items() if v["ts"] < before]
            return {"op": "shard_prune", "ids": ids} if ids else None

        op = self._commit(build)
        return len(op["ids"]) if op else 0

    def drop(self) -> None:
        """Remove this index's rows from a shared SQL metastore entirely
        (index deletion — unlike ``clear``, the config and source rows go
        too). File-backed state needs no extra work: deleting the index
        dir removes it."""
        self._store.drop()

    # -- declarative source configs (metastore add_source/delete_source/
    # toggle_source, quickwit-metastore index_metadata.rs) ----------------

    def add_source(self, source_config: dict[str, Any]) -> None:
        sid = source_config["source_id"]

        def build() -> dict[str, Any]:
            if sid in self.sources:
                raise ValueError(f"source {sid!r} already exists")
            return {"op": "source_add", "source": source_config}

        self._commit(build)

    def _source_op(self, source_id: str, op: dict[str, Any]) -> None:
        def build() -> dict[str, Any]:
            if source_id not in self.sources:
                raise KeyError(f"no source {source_id!r}")
            return op

        self._commit(build)

    def delete_source(self, source_id: str) -> None:
        self._source_op(source_id, {"op": "source_delete",
                                    "source_id": source_id})

    def toggle_source(self, source_id: str, enable: bool) -> None:
        self._source_op(source_id, {"op": "source_toggle",
                                    "source_id": source_id,
                                    "enable": bool(enable)})

    def reset_source_checkpoint(self, source_id: str) -> int:
        """Drop every committed checkpoint of one source (the reference's
        PUT .../sources/{id}/reset-checkpoint): the next ingestion run
        re-reads the source from the beginning. Returns keys removed."""
        prefix = f"src.{source_id}:"

        def build() -> Optional[dict[str, Any]]:
            keys = [k for k in self.checkpoints if k.startswith(prefix)]
            return {"op": "checkpoint_reset", "keys": keys} if keys else None

        op = self._commit(build)
        return len(op["keys"]) if op else 0

    def create_delete_task(self, query: str) -> int:
        """Record a stored delete query; returns its opstamp, allocated
        inside the commit from fresh state — derived from a stale
        instance, two concurrent creators would pick the same value and
        replay's opstamp-dedup would silently drop one query."""

        def build() -> dict[str, Any]:
            return {"op": "delete_task",
                    "opstamp": self.last_delete_opstamp + 1, "query": query}

        return self._commit(build)["opstamp"]

    @property
    def last_delete_opstamp(self) -> int:
        return max((t["opstamp"] for t in self.delete_tasks), default=0)

    # -- transactional operations (each = one committed op) -----------------

    def create(self, index_config_json: dict[str, Any]) -> None:
        op = {"op": "create", "index_config": index_config_json}
        self._commit(lambda: op)

    def update_config(self, index_config_json: dict[str, Any]) -> None:
        """Replace the stored index config (`quickwit index update` /
        metastore ``update_index`` analog). Validation of what may change
        lives in ``config.validate_config_update`` — the manifest records
        whatever the API layer approved. Existing splits are untouched
        (the reference's update semantics: no reindex; old splits keep the
        artifacts built under the old mapping)."""
        op = {"op": "update_config", "index_config": index_config_json}
        self._commit(lambda: op)

    def publish(self, new_splits: Iterable[SplitMetadata],
                replaced_split_ids: Iterable[str] = (),
                checkpoint_partition: Optional[str] = None,
                require_published: Iterable[str] = ()) -> None:
        """Atomic publish: add new splits, mark replaced ones for deletion,
        record the source-partition checkpoint. A re-publish of an
        already-committed partition is a no-op (exactly-once semantics).
        One op = one transaction (publisher.rs:137-160).

        Replacement publishes run under a split-state CAS (raise
        :class:`StaleReplaceError` when a replaced split already left the
        published state). ``require_published`` adds the same CAS to a
        metadata-only republish (delete-opstamp bump) WITHOUT marking the
        ids for deletion — re-publishing a split another writer merged
        away would otherwise resurrect its docs next to the merged
        copy's."""
        splits = [sm.to_json() for sm in new_splits]
        replaced = list(replaced_split_ids)
        check_ids = replaced + [s for s in require_published
                                if s not in replaced]

        def build() -> Optional[dict[str, Any]]:
            if checkpoint_partition in self.checkpoints:
                return None  # duplicate commit = no-op (checkpoint.rs)
            for sid in check_ids:
                sm = self.splits.get(sid)
                if sm is None or sm.split_state != "published":
                    raise StaleReplaceError(
                        f"replaced split {sid!r} is no longer published "
                        "(concurrent merge/delete/retention won the race)"
                        " — discard the output and re-plan")
            op: dict[str, Any] = {"op": "publish", "splits": splits,
                                  "replaced": replaced}
            if replaced:
                op["ts"] = time.time()  # mark time for the GC grace period
            if checkpoint_partition is not None:
                op["checkpoints"] = {
                    checkpoint_partition: {"committed_at": time.time()}}
            return op

        self._commit(build)

    def publish_many(self, by_partition: dict[str, list[SplitMetadata]]) -> None:
        """Publish several completed source partitions in ONE atomic commit
        (same exactly-once semantics; coarser commit batching so a build
        doesn't pay one fsync per partition)."""

        def build() -> Optional[dict[str, Any]]:
            op: dict[str, Any] = {"op": "publish", "splits": [],
                                  "replaced": [], "checkpoints": {}}
            for pid, sms in by_partition.items():
                if pid in self.checkpoints:
                    continue
                op["splits"].extend(sm.to_json() for sm in sms)
                op["checkpoints"][pid] = {"committed_at": time.time()}
            return op if op["checkpoints"] else None

        self._commit(build)

    def source_offset(self, partition: str):
        """Committed stream position for a queue partition (0 = nothing
        committed). Positions are ints (Kafka/file-queue record offsets)
        or OPAQUE ORDERED STRINGS (the reference's `Position` bytestring,
        position.rs:31-68 — Kinesis sequence numbers, Pulsar message ids;
        producers zero-pad so lexicographic order == stream order).
        Offsets live in the same checkpoint map the batch builds use, so
        batch and stream ingestion share one transactional publish path
        (checkpoint.rs:170-188 SourceCheckpoint analog)."""
        cp = self.checkpoints.get(partition)
        if not cp:
            return 0
        off = cp.get("offset", 0)
        return off if isinstance(off, str) else int(off)

    def publish_stream(self, by_partition: dict[str, tuple[list["SplitMetadata"], int, int]]) -> None:
        """Atomic publish of streaming micro-batches with their offset
        deltas: ``partition -> (splits, from_offset, to_offset)``.

        Exactly-once semantics per the reference checkpoint contiguity
        rules (checkpoint.rs:170-188 / IndexCheckpointDelta):
          * committed >= to  -> duplicate replay, no-op
          * committed != from -> gap or overlap, refuse (the poller must
            restart from the committed offset)
          * else commit splits + offset in ONE manifest write
        """

        def ge(a, b) -> bool:
            # position order: int 0 == Beginning < every opaque string;
            # like kinds compare natively (opaque producers zero-pad)
            if isinstance(a, str) != isinstance(b, str):
                return isinstance(a, str)  # a opaque, b Beginning(0)
            return a >= b

        def build() -> Optional[dict[str, Any]]:
            op: dict[str, Any] = {"op": "publish", "splits": [],
                                  "replaced": [], "checkpoints": {}}
            for pid, (sms, frm, to) in by_partition.items():
                cur = self.source_offset(pid)
                if ge(cur, to):
                    continue  # duplicate commit = no-op
                if cur != frm:
                    raise ValueError(
                        f"checkpoint delta not contiguous for {pid!r}: "
                        f"committed {cur}, delta [{frm}, {to})")
                op["splits"].extend(sm.to_json() for sm in sms)
                op["checkpoints"][pid] = {
                    "committed_at": time.time(),
                    "offset": to if isinstance(to, str) else int(to)}
            return op if op["checkpoints"] else None

        self._commit(build)

    def clear(self) -> list[str]:
        """Reset the index to empty (`quickwit index clear` /
        index_api clear handler): every split, source checkpoint, delete
        task and shard drops in one atomic op; the index config and id
        survive. Returns the dropped split ids so the caller can delete
        their artifact dirs."""
        ids: list[str] = []

        def build() -> dict[str, Any]:
            ids[:] = self.splits
            return {"op": "clear"}

        self._commit(build)
        return ids

    def mark_for_deletion(self, split_ids: Iterable[str]) -> None:
        op = {"op": "mark_for_deletion", "split_ids": list(split_ids),
              "ts": time.time()}
        self._commit(lambda: op)

    def delete_splits(self, split_ids: Iterable[str]) -> None:
        op = {"op": "delete_splits", "split_ids": list(split_ids)}
        self._commit(lambda: op)

    # -- queries ------------------------------------------------------------

    def published_splits(self) -> list[SplitMetadata]:
        return [s for s in self.splits.values() if s.split_state == "published"]

    def is_partition_committed(self, partition_id: str) -> bool:
        return partition_id in self.checkpoints

    def list_splits(self, time_start: Optional[int] = None,
                    time_end: Optional[int] = None,
                    tags: Optional[dict[str, list[str]]] = None) -> list[SplitMetadata]:
        """Split pruning 'semi-join' (root.rs:1108-1154 / ListSplitsQuery):
        keep splits whose time range overlaps [time_start, time_end) and
        whose tag sets intersect the requested tag values."""
        out = []
        for s in self.published_splits():
            if time_start is not None and s.time_range_end is not None \
                    and s.time_range_end < time_start:
                continue
            if time_end is not None and s.time_range_start is not None \
                    and s.time_range_start >= time_end:
                continue
            if tags:
                pruned = False
                for fld, wanted in tags.items():
                    have = s.tags.get(fld)
                    # tag sets are only recorded up to a cardinality cap;
                    # absence of the field in tags = no pruning possible
                    if have is not None and not (set(have) & set(wanted)):
                        pruned = True
                        break
                if pruned:
                    continue
            out.append(s)
        return out
