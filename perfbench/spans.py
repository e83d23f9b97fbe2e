"""In-memory span recording around the program's layer boundaries.

The benchmark never edits the program and sets none of its flags: a
traced run replaces public functions and methods of `quickwit_ray`
modules with thin wrappers that record a span (name, start, end, parent,
request id, value) and then call the original. Spans stay in memory and
are written out when the process stops serving (server), when a Ray task
returns (build workers), or when the run ends (benchmark process).

Timestamps come from `time.perf_counter`, which reads CLOCK_MONOTONIC on
Linux, so spans from the server, the Ray workers and the client share
one clock.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Spans are lists `[name, t0, t1, parent, req, val]`; `parent` is
    the index of the enclosing span in this tracer (-1 for a root), `req`
    the id shared by all spans of one request, `val` a number the
    wrapper attached (a count, bytes, 1/0 for a cache hit)."""

    def __init__(self, source: str):
        self.source = source
        self.spans: list[list] = []
        self.req_kind: dict[int, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_req = 0
        self.paused = False

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, root_kind: str | None = None) -> int:
        stack = self._stack()
        with self._lock:
            if root_kind is not None and not stack:
                parent, req = -1, self._next_req
                self._next_req += 1
                self.req_kind[req] = root_kind
            elif stack:
                parent = stack[-1]
                req = self.spans[parent][4]
            elif getattr(self._local, "inherited", -1) >= 0:
                # a pool thread running work a span submitted (bind)
                parent = self._local.inherited
                req = self.spans[parent][4]
            else:
                parent, req = -1, -1
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent, req,
                               0.0])
        stack.append(sid)
        return sid

    def close(self, sid: int, val: float = 0.0) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[5] = float(val)
        self._stack().pop()

    def depth(self) -> int:
        return len(self._stack())

    def bind(self, fn):
        """`fn`, made to parent the spans it opens on another thread (a
        pool worker) to the innermost span open here, the submitter."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        local = self._local

        def bound(*args, **kwargs):
            local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                local.inherited = -1

        return bound

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None,
             root_kind=None) -> None:
        """Replace `owner.attr` by a span-recording wrapper.

        `before(args, kwargs)` returns a context handed to
        `after(args, kwargs, result, ctx)`, whose return value becomes the
        span's value. `root_kind` opens a new request when the calling
        thread is not inside a span (a string, or a callable of the
        arguments)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return orig(*args, **kwargs)
            ctx = before(args, kwargs) if before is not None else None
            kind = (root_kind(args) if callable(root_kind) else root_kind)
            sid = tracer.open(name, kind)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer.close(sid, -1.0 if _is_stale(exc) else 0.0)
                raise
            val = after(args, kwargs, result, ctx) if after is not None \
                else 0.0
            tracer.close(sid, val or 0.0)
            return result

        setattr(owner, attr, wrapper)

    def snapshot(self) -> dict:
        with self._lock:
            return {"source": self.source, "spans": list(self.spans),
                    "req_kind": dict(self.req_kind)}

    def dump(self, path: str, extra: dict | None = None) -> None:
        obj = self.snapshot()
        obj.update(extra or {})
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(obj, f)
        os.replace(tmp, path)

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.req_kind = {}


class _BoundPool:
    """The engine's leaf pool, whose tasks' spans are children of the
    span that called `map` (the engine uses nothing else of it)."""

    def __init__(self, pool, tracer: Tracer):
        self._pool = pool
        self._tracer = tracer

    def map(self, fn, *iterables, **kwargs):
        return self._pool.map(self._tracer.bind(fn), *iterables, **kwargs)


def _is_stale(exc: BaseException) -> bool:
    return type(exc).__name__ == "StaleReplaceError"


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------------
# installers
# ---------------------------------------------------------------------------

def install_write_path(t: Tracer) -> None:
    """Ingest, writer, tokenizer, storage and merge layers."""
    from quickwit_ray import storage
    from quickwit_ray.index import merge, writer
    from quickwit_ray.sources import ingest

    t.wrap(ingest, "_docs_to_table", "ingest.docs_to_table",
           after=lambda a, k, r, c: r.num_rows)
    t.wrap(writer.SplitBuilder, "add_batch", "writer.add_batch",
           after=lambda a, k, r, c: a[1].num_rows)
    t.wrap(writer.SplitBuilder, "flush", "writer.flush",
           after=lambda a, k, r, c: dir_bytes(a[0].split_dir) if r else 0)
    for fn in ("tokenize_batch", "tokenize_batch_encoded"):
        t.wrap(writer, fn, "tokenize", after=lambda a, k, r, c: len(r[0]))
    t.wrap(storage, "finalize_dir", "storage.finalize",
           before=lambda a, k: dir_bytes(a[0]),
           after=lambda a, k, r, c: c)
    t.wrap(merge, "execute_merge", "merge.op",
           root_kind="merge", after=lambda a, k, r, c: r.num_docs)


def install_state(t: Tracer) -> None:
    from quickwit_ray.state import manifest

    M = manifest.Manifest
    t.wrap(M, "__init__", "manifest.load")
    for fn in ("publish", "publish_many", "publish_stream"):
        t.wrap(M, fn, "manifest.publish")
    t.wrap(M, "list_splits", "manifest.list_splits",
           after=lambda a, k, r, c: len(r))


def install_search(t: Tracer) -> None:
    from quickwit_ray.search import aggs, engine, permits

    def leaf_before(a, k):
        return engine._GLOBAL_READER_CACHE.peek_bytes_read(a[0]) or 0

    def leaf_after(a, k, r, b0):
        b1 = engine._GLOBAL_READER_CACHE.peek_bytes_read(a[0])
        return max(0, (b1 or 0) - b0)

    def reader_before(a, k):
        ent = a[0]._cache.get(a[1])
        return ent[1] if ent is not None else None

    t.wrap(engine, "get_searcher", "search.get_searcher")
    t.wrap(engine.IndexSearcher, "__init__", "search.searcher_build")
    t.wrap(engine.IndexSearcher, "search", "search.root")
    t.wrap(engine.IndexSearcher, "_execute", "search.execute",
           after=lambda a, k, r, c: len(a[1]) - r[1])
    t.wrap(engine.IndexSearcher, "_fetch_docs", "search.fetch_docs")
    pool = engine._leaf_thread_pool
    engine._leaf_thread_pool = functools.wraps(pool)(
        lambda: _BoundPool(pool(), t))
    t.wrap(engine, "leaf_search_one", "search.leaf",
           before=leaf_before, after=leaf_after)
    t.wrap(engine._ReaderCache, "get", "search.reader_get",
           before=reader_before, after=lambda a, k, r, c: float(r is c))
    t.wrap(permits.SearchPermitProvider, "acquire", "search.permit_wait")
    t.wrap(aggs, "merge_partial_aggs", "search.aggs_merge")


def install_server(t: Tracer, srv) -> None:
    """Everything a serving process runs, plus its HTTP front."""
    from quickwit_ray import api, janitor
    from quickwit_ray.search import es_rest

    install_state(t)
    install_search(t)
    install_write_path(t)
    handler = srv._httpd.RequestHandlerClass

    def kind(args):
        return "bulk" if "_bulk" in args[0].path else "search"

    for verb in ("do_GET", "do_POST"):
        t.wrap(handler, verb, "server.handler", root_kind=kind)
    t.wrap(es_rest.EsRestService, "_es_bulk", "server.es_bulk")
    t.wrap(api.Index, "ingest_docs", "ingest.ingest_docs",
           after=lambda a, k, r, c: r)
    t.wrap(janitor.MergeLoop, "run_cycle", "janitor.merge_cycle",
           root_kind="merge_cycle", after=lambda a, k, r, c: r)


def install_worker() -> None:
    """Ray `worker_process_setup_hook`: trace the build and merge tasks a
    worker runs and write each task's spans when it returns."""
    out_dir = os.environ.get(TRACE_DIR_ENV)
    if not out_dir:
        return
    from quickwit_ray.index import build, merge

    t = Tracer(f"worker-{os.getpid()}")
    install_write_path(t)
    t.wrap(build.IndexPartitionTask, "__call__", "build.task",
           root_kind="build_task",
           after=lambda a, k, r, c: len(r["split_json"]))
    dumps = [0]
    for owner, attr in ((build.IndexPartitionTask, "__call__"),
                        (merge, "execute_merge")):
        def dumping(*args, _inner=getattr(owner, attr), **kwargs):
            try:
                return _inner(*args, **kwargs)
            finally:
                if t.depth() == 0:   # a task's outermost span closed
                    dumps[0] += 1
                    t.dump(os.path.join(
                        out_dir, f"w{os.getpid()}-{dumps[0]}.json"))
                    t.clear()

        setattr(owner, attr, dumping)


def leaf_cache_counts() -> tuple[int, int]:
    from quickwit_ray.search import engine

    c = engine._GLOBAL_LEAF_CACHE
    return c.hits, c.misses


def load_dumps(paths: list[str]) -> list[dict]:
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out
