"""Root search — driver-side orchestration
(`quickwit-search/src/root.rs` re-expressed Ray-Data-first):

  1. prune the split manifest by time range + tags (driver-side semi-join,
     root.rs:1108-1154)
  2. count-only fast path answered from manifest num_docs sums
     (root.rs:638-695)
  3. fan out per-split leaf search -> per-split top-k partial hits:
     `execution="local"` on the process-wide leaf thread pool,
     `execution="ray"` on the persistent split-affine actor pool (each
     actor holds an LRU of open SplitReaders — the searcher's
     split/footer cache, node_config/mod.rs:206-278).
  4. driver merges partial hits with the reference comparator (sort keys
     in sort direction, trailing (split_id, doc_id) tie-break compared in
     the same direction, `collector.rs:834-991`)
  5. fetch-docs phase: group hits by split, point-lookup the doc store
     rows (fetch_docs.rs:41-267), optional snippets.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from typing import Any, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from quickwit_ray.config import DocMapping, IndexConfig
from quickwit_ray.functions.tokenizers import tokenize
from quickwit_ray.index.format import SplitReader, _in_request_order
from quickwit_ray.search.ast import (
    FullTextQuery,
    MatchAll,
    SearchRequest,
    SortField,
    extract_tags,
    extract_timestamp_bounds,
)
from quickwit_ray.search.parser import parse_query
from quickwit_ray.search.split_search import SplitSearcher
from quickwit_ray.state.manifest import Manifest, generation as manifest_generation


@dataclass
class SearchResponse:
    num_hits: int
    hits: pd.DataFrame  # columns: split_id, doc_id, sort_key0, sort_key1, _score? + stored fields
    elapsed_sec: float = 0.0
    aggs: Optional[dict] = None
    failed_splits: list = dc_field(default_factory=list)
    # False when time-sorted split skipping pruned splits whose docs cannot
    # appear in the top-k (leaf.rs CanSplitDoBetter): num_hits is then a
    # lower bound, the ES "gte" relation
    num_hits_exact: bool = True
    # raw per-split agg partial states (only when the caller asked to keep
    # them — federated search merges partials ACROSS indexes)
    agg_partials: Optional[list] = None

    @property
    def scroll_cursor(self) -> Optional[tuple]:
        """search_after cursor = last hit's sort tuple (root.rs:342-441)."""
        if self.hits is None or not len(self.hits):
            return None
        from quickwit_ray.search.sortkeys import py_scalar

        last = self.hits.iloc[-1]
        return (py_scalar(last["sort_key0"]), py_scalar(last["sort_key1"]),
                str(last["_split_id"]), int(last["_doc_id"]))


def _split_stamp(split_dir: str) -> int:
    """Identity stamp of a split's artifacts. Split ids are derived from
    the source partition, NOT content — `clear()` + re-ingest under the
    same commit id recreates the same split_dir with different docs, so
    caches must key on the artifact generation too (footer.json is
    rewritten whenever the split is rebuilt)."""
    try:
        st = os.stat(os.path.join(split_dir, "footer.json"))
        return st.st_mtime_ns ^ (st.st_size << 1) ^ st.st_ino
    except OSError:
        return -1


class _ReaderCache:
    """Byte-bounded LRU of open SplitReaders (per process / per actor);
    thread-safe (HTTP handler threads share it) and generation-checked (a
    rebuilt split_dir gets a fresh reader, see _split_stamp).

    The budget bounds the readers' RETAINED bytes (each reader's cache:
    dictionary, fieldnorms, fast fields, hotcache entries, and row groups
    and doc-store blocks up to its SPLIT_CACHE_BYTES) — the analog of
    the reference's byte-bound fast-field (1 GB) + footer (500 MB) caches
    (node_config/mod.rs:261-266). Readers grow lazily after insertion, so
    the budget is enforced on every access, not only on insert; the most
    recently used reader always survives (progress)."""

    def __init__(self, capacity: int = 64,
                 byte_budget: int = 1536 * 1024 * 1024):
        import threading

        self.capacity = capacity
        self.byte_budget = int(byte_budget)
        self._cache: OrderedDict[str, tuple[int, SplitReader]] = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0
        self._gets = 0

    def _enforce_budget_locked(self) -> None:
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
            self.evictions += 1
        while len(self._cache) > 1 and self.retained_bytes_locked() \
                > self.byte_budget:
            self._cache.popitem(last=False)
            self.evictions += 1

    def retained_bytes_locked(self) -> int:
        return sum(r.retained_bytes for _, r in self._cache.values())

    @property
    def retained_bytes(self) -> int:
        with self._lock:
            return self.retained_bytes_locked()

    def get(self, split_dir: str) -> SplitReader:
        stamp = _split_stamp(split_dir)
        with self._lock:
            ent = self._cache.get(split_dir)
            if ent is not None and ent[0] == stamp:
                self._cache.move_to_end(split_dir)
                # readers grow lazily after insertion, so the budget is
                # re-checked on hits too — but only every 64th get (the
                # sweep sums every cached reader under the lock; doing it
                # per hit serializes the threaded leaf fan-out)
                self._gets += 1
                if self._gets % 64 == 0:
                    self._enforce_budget_locked()
                return ent[1]
        r = SplitReader(split_dir)
        with self._lock:
            self._cache[split_dir] = (stamp, r)
            self._enforce_budget_locked()
        return r

    def drop_unlisted(self, splits_dir: str, keep: set) -> None:
        """Drop the cached readers of splits under ``splits_dir`` that
        are not in ``keep``, with their retained blocks and file handles.
        Only the cache forgets them: a scroll still over an old split
        re-opens it while its files last (the GC grace period)."""
        with self._lock:
            for d in [d for d in self._cache
                      if os.path.dirname(d) == splits_dir
                      and d not in keep]:
                del self._cache[d]

    def peek_bytes_read(self, split_dir: str) -> Optional[int]:
        """Cumulative materialized bytes of the cached reader, or None if
        no reader is open (permit accounting — never opens one)."""
        with self._lock:
            ent = self._cache.get(split_dir)
            return ent[1].bytes_read if ent is not None else None


_GLOBAL_READER_CACHE = _ReaderCache()


class _LeafCache:
    """Thread-safe LRU of leaf-search partial results keyed by
    (split artifacts generation, request) — leaf_cache.rs
    LeafSearchCache analog, bound by bytes alone like the reference's
    (64 MB, node_config/mod.rs:266 partial_request_cache_capacity). An
    entry's size counts its key as well as its value: keys carry the
    request repr and the doc mapping, so a byte budget that skipped them
    would not bound the cache.

    Entries are shared, not copied: a hit hands out the stored partial
    itself (callers take a shallow ``dict`` of it), and the leaf seals
    every numpy array in it read-only before storing, so an in-place
    write downstream raises instead of corrupting later hits.

    Leaf entries are ``{"t": theta_pruned_under, "v": partial}`` and
    serve a lookup only when the REQUESTED theta dominates the stored
    one (requested >= stored, theta-None = fully exact, serves
    anything): a theta-pruned partial encodes an assumption about the
    OTHER splits of that execution (docs below theta were skipped
    because splits elsewhere already beat them) — if the split set later
    shrinks (retention, mark-for-deletion), the same request derives
    SMALLER thetas, fails the dominance test, and re-evaluates instead
    of reusing partials pruned against deleted competition. A rejected
    entry counts as a miss. One key per (split, request) means
    timing-wobbly theta values never fragment the repeat-query hit rate.
    The artifact stamp (_split_stamp) catches split dirs rebuilt in
    place by clear()+re-ingest; ``drop_unlisted`` forgets the entries of
    splits a new manifest generation no longer publishes."""

    def __init__(self, byte_budget: int = 64 * 1024 * 1024):
        import threading

        self.byte_budget = int(byte_budget)
        self._cache: OrderedDict[tuple, tuple[dict, int]] = OrderedDict()
        # split dir (key[0]) -> its keys: drop_unlisted visits only the
        # entries it drops, not the whole cache
        self._keys_of: dict[str, set] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def retained_bytes(self) -> int:
        return self._bytes

    def _pop_locked(self, key: tuple) -> None:
        self._bytes -= self._cache.pop(key)[1]
        keys = self._keys_of[key[0]]
        keys.discard(key)
        if not keys:
            del self._keys_of[key[0]]

    def get(self, key: tuple, accept=None) -> Optional[dict]:
        """The entry under ``key``, or None. ``accept(entry)`` — checked
        under the lock — may still reject it; a rejected lookup counts
        as a miss, like an absent one."""
        with self._lock:
            ent = self._cache.get(key)
            if ent is None or (accept is not None and not accept(ent[0])):
                self.misses += 1
                return None
            self._cache.move_to_end(key)
            self.hits += 1
            return ent[0]

    def put(self, key: tuple, val: dict, nbytes: Optional[int] = None,
            keep_old_if=None) -> None:
        """Insert/replace. ``nbytes`` is the value's size when the caller
        has measured it already (else it is measured here); the key's
        size is added either way. ``keep_old_if(old_val)`` — checked
        UNDER the lock — skips the write when the existing entry should
        win (the dominance store uses it so a theta-pruned entry can
        never clobber a concurrently stored exact one)."""
        size = _approx_nbytes(key) + (
            _approx_nbytes(val) if nbytes is None else nbytes)
        if size > self.byte_budget:
            return  # larger than the whole cache: never stored
        with self._lock:
            if keep_old_if is not None:
                ent = self._cache.get(key)
                if ent is not None and keep_old_if(ent[0]):
                    return
            if key in self._cache:
                self._pop_locked(key)
            self._cache[key] = (val, size)
            self._keys_of.setdefault(key[0], set()).add(key)
            self._bytes += size
            while self._bytes > self.byte_budget:
                self._pop_locked(next(iter(self._cache)))

    def drop_unlisted(self, splits_dir: str, keep: set) -> None:
        """Drop the entries of splits under ``splits_dir`` that are not
        in ``keep`` (keys start with the split dir): merged-away splits
        are never searched again, so their entries would only hold
        budget until the LRU reaches them."""
        with self._lock:
            for d in [d for d in self._keys_of
                      if os.path.dirname(d) == splits_dir and d not in keep]:
                for k in list(self._keys_of[d]):
                    self._pop_locked(k)

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._keys_of.clear()
            self._bytes = 0


def _approx_nbytes(obj, seal: bool = False) -> int:
    """Recursive retained-size estimate for cached leaf partials (numpy
    arrays dominate; containers add per-slot overhead). Over-estimating
    is safe (earlier eviction), under-estimating is not. ``seal=True``
    also marks every numpy array it meets read-only (the one walk of a
    partial the leaf cache keeps)."""
    if isinstance(obj, np.ndarray):
        if seal:
            obj.flags.writeable = False
        return obj.nbytes + 96
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 48
    if isinstance(obj, str):
        return len(obj) + 56
    if isinstance(obj, dict):
        return 64 + sum(_approx_nbytes(k, seal) + _approx_nbytes(v, seal)
                        for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 56 + sum(_approx_nbytes(v, seal) + 8 for v in obj)
    return 32  # numbers, None, bools, small scalars


_GLOBAL_LEAF_CACHE = _LeafCache()


import threading as _threading  # noqa: E402 — eager lock, no init race

_LEAF_POOL = None
_LEAF_POOL_LOCK = _threading.Lock()


def _leaf_thread_pool():
    """Process-wide persistent leaf-search thread pool (the reference's
    long-lived searcher runtime): queries share it instead of paying
    thread spawn per search. Leaf tasks never re-enter the pool, so no
    nesting deadlock; concurrency ACROSS queries is governed by the
    permit provider's byte budget + warmup slots, not pool width."""
    global _LEAF_POOL
    if _LEAF_POOL is None:
        with _LEAF_POOL_LOCK:
            if _LEAF_POOL is None:
                from concurrent.futures import ThreadPoolExecutor

                _LEAF_POOL = ThreadPoolExecutor(
                    max_workers=min(32, (os.cpu_count() or 8)),
                    thread_name_prefix="leaf-search")
    return _LEAF_POOL


_SEARCHER_CACHE: OrderedDict = OrderedDict()
_SEARCHER_CACHE_LOCK = _threading.Lock()
_SEARCHER_CACHE_CAP = 64

# process-wide default execution for get_searcher(execution=None). The
# HTTP serving tier sets this to "ray" (`SearchServer(search_execution=
# "ray")` / `serve --search-execution ray`): the server process becomes
# the reference's ROOT searcher node and leaf searches fan out to the
# persistent rendezvous-routed actor pool — long-lived LEAF searcher
# processes with split-affine caches (cluster_client.rs root/leaf model,
# Ray actors instead of gRPC peers).
_DEFAULT_EXECUTION = "local"


def _check_execution(mode: str) -> None:
    if mode not in ("local", "ray"):
        raise ValueError(f"unknown search execution {mode!r}")


def set_default_search_execution(mode: str) -> None:
    _check_execution(mode)
    global _DEFAULT_EXECUTION
    _DEFAULT_EXECUTION = mode


def get_searcher(index_dir: str, execution: Optional[str] = None) -> "IndexSearcher":
    """Process-wide LRU of searchers with manifest-freshness validation:
    a fresh ``IndexSearcher`` re-reads the whole manifest (O(state) at
    10^5+ splits), which is wasteful once per HTTP request. The
    metastore generation preserves read-your-writes: any commit changes
    it and rebuilds the searcher. Object-backed indexes have no
    generation and construct fresh. "local"
    and "ray" searchers are cached alike; the "ray" leaf actor pool is
    process-global + mapping-agnostic, so leaf actors (and their
    split-affine reader caches) survive split publishes and searcher
    rebuilds by construction. Building a new generation's searcher also
    drops the cached readers and leaf entries of this index's splits it
    no longer publishes."""
    if execution is None:
        execution = _DEFAULT_EXECUTION
    stamp = manifest_generation(index_dir)
    if stamp is None:
        return IndexSearcher(index_dir, execution=execution)
    key = (index_dir, execution)
    with _SEARCHER_CACHE_LOCK:
        ent = _SEARCHER_CACHE.get(key)
        if ent is not None and ent[0] == stamp:
            _SEARCHER_CACHE.move_to_end(key)
            return ent[1]
    s = IndexSearcher(index_dir, execution=execution)
    # merged-away or deleted splits' readers and leaf entries would
    # otherwise hold their blocks, file handles and cache budget until
    # the LRUs reach them
    splits_dir = os.path.join(index_dir, "splits")
    keep = {os.path.join(splits_dir, sp.split_id)
            for sp in s.manifest.published_splits()}
    _GLOBAL_READER_CACHE.drop_unlisted(splits_dir, keep)
    _GLOBAL_LEAF_CACHE.drop_unlisted(splits_dir, keep)
    with _SEARCHER_CACHE_LOCK:
        ent = _SEARCHER_CACHE.get(key)
        if ent is not None and ent[0] == stamp:  # lost the build race
            _SEARCHER_CACHE.move_to_end(key)
            return ent[1]
        _SEARCHER_CACHE[key] = (stamp, s)
        _SEARCHER_CACHE.move_to_end(key)
        while len(_SEARCHER_CACHE) > _SEARCHER_CACHE_CAP:
            _SEARCHER_CACHE.popitem(last=False)
    return s


def leaf_search_one(split_dir: str, mapping: DocMapping, request: SearchRequest,
                    cache: Optional[_ReaderCache] = None,
                    theta0: Optional[float] = None,
                    request_key: Optional[tuple] = None) -> dict:
    """Leaf search over one split -> partial result dict (memoized in the
    process-wide :class:`_LeafCache`; the repeated-dashboard-query case
    skips the split read entirely).

    ``theta0`` is the cross-split kth-score threshold hint (leaf.rs
    CanSplitDoBetter sharing): the pruned scoring paths start from it
    instead of -inf, so later splits skip scoring docs that provably
    cannot enter the global top-k. The match mask (num_hits) stays exact;
    only sub-threshold scoring work is skipped. The cached entry records
    the theta it was pruned under and serves any request whose theta
    DOMINATES it (requested >= stored) — a partial pruned at t contains
    every doc scoring >= t, which is a superset of what any threshold
    >= t needs (see _LeafCache). Hits and stored entries share one
    read-only partial: the caller gets a shallow ``dict`` of it."""
    # the artifact stamp guards the rebuilt-split-dir staleness case (see
    # _LeafCache). Callers iterating many splits pass request_key
    # (repr(request), str(mapping)) computed ONCE per query instead of
    # per split.
    if request_key is None:
        request_key = (repr(request), str(mapping))
    key = (split_dir, _split_stamp(split_dir)) + request_key
    # dominance rule: theta-None entries are fully exact; a pruned entry
    # serves only thresholds >= its own. A shrunken split set (retention,
    # deletes) derives SMALLER thetas, so partials pruned against deleted
    # competition fail this test and re-evaluate, while repeat queries
    # with timing-wobbly thetas still hit.
    ent = _GLOBAL_LEAF_CACHE.get(key, accept=lambda old: old["t"] is None or (
        theta0 is not None and theta0 >= old["t"]))
    if ent is not None:
        return dict(ent["v"])
    # memory-budgeted admission (search_permit_provider.rs): reserve a
    # pessimistic warmup allocation before touching the split, report the
    # reader's actual materialized bytes after, release on completion.
    # FIFO + byte budget: concurrent fat queries degrade to sequential
    # under pressure instead of OOMing the process.
    from quickwit_ray.search.permits import get_permit_provider

    provider = get_permit_provider()
    rc = cache or _GLOBAL_READER_CACHE
    with provider.acquire_for_split(split_dir) as permit:
        b0 = rc.peek_bytes_read(split_dir) or 0
        out = _leaf_search_impl(split_dir, mapping, request, cache, theta0)
        b1 = rc.peek_bytes_read(split_dir)
        if b1 is not None:
            # post-warmup correction: hold the MEASURED bytes (cache-warm
            # repeats free their pessimistic reservation immediately)
            permit.set_actual_memory(b1 - b0)
    # the agg partial was sealed and measured where it was built
    # (agg_nbytes); the rest is a few hit arrays
    nbytes = 64 + out.get("agg_nbytes", 0) + sum(
        _approx_nbytes(k) + _approx_nbytes(v, seal=True)
        for k, v in out.items() if k != "agg_partial")
    # store under the single (split, request) key, tagged with the theta
    # this evaluation was pruned under. keep_old_if runs UNDER the cache
    # lock: a concurrent thread's MORE complete entry (smaller / None
    # theta) always survives — a pruned result can never clobber it.
    _GLOBAL_LEAF_CACHE.put(
        key, {"t": theta0, "v": dict(out)}, nbytes=nbytes,
        keep_old_if=lambda old: old["t"] is None or (
            theta0 is not None and old["t"] <= theta0))
    return out


def _pruned_scoring_terms(request: SearchRequest, mapping: DocMapping
                          ) -> Optional[tuple[str, list[str]]]:
    """The one eligibility predicate of the pruned scorers: a bare BM25
    match (``or`` / ``and``) on one non-JSON text field, sorted by
    ``_score desc`` alone, with no timestamp window and no cursor.
    Returns (field, query terms), else None. The window is applied
    after scoring, so a pruned evaluation (partial scores below theta)
    would surface wrongly scored docs once out-of-window top docs are
    masked away."""
    node = request.query
    if not (_score_theta_mode(request) and request.timestamp_field is None
            and isinstance(node, FullTextQuery)
            and node.mode in ("or", "and")
            and mapping.resolve_json_path(node.field) is None):
        return None
    try:
        fm = mapping.resolve_field(node.field)
    except KeyError:
        return None
    if fm.type != "text":
        return None
    return node.field, tokenize(node.text, fm.tokenizer)


def _leaf_search_impl(split_dir: str, mapping: DocMapping,
                      request: SearchRequest,
                      cache: Optional[_ReaderCache] = None,
                      theta0: Optional[float] = None) -> dict:
    """The leaf planner. A pruned-eligible request with one term and no
    aggs goes to the Block-Max scorer, which decodes only the posting
    blocks whose bound can reach the top-k; one with several ``or``
    terms goes to the MaxScore scorer, whose match mask stays exact for
    num_hits and aggs. Everything else goes to the full evaluator."""
    reader = (cache or _GLOBAL_READER_CACHE).get(split_dir)
    searcher = SplitSearcher(reader, mapping)
    k = request.start_offset + request.max_hits
    plan = _pruned_scoring_terms(request, mapping)
    if plan is not None:
        field, terms = plan
        if len(terms) == 1 and request.aggs is None:
            docs, scores, df = searcher.term_topk_blockmax(
                field, terms[0], k, theta0=theta0)
            if len(docs) > 4 * k + 64:
                # preselect by score, keeping all boundary ties for the
                # exact doc-id tie-break
                kth = np.partition(-scores, k - 1)[k - 1]
                keep = -scores <= kth
                docs, scores = docs[keep], scores[keep]
            order = np.lexsort((-docs, -scores))[:k]
            return {
                "num_hits": int(df), "split_dir": split_dir,
                "doc_ids": docs[order].astype(np.int64),
                "sort_key0": scores[order].astype(np.float64),
                "sort_key1": np.zeros(len(order)),
            }
        if len(terms) > 1 and request.query.mode == "or":
            mask, scores = searcher.eval_or_topk_pruned(field, terms, k,
                                                        theta0=theta0)
            return _collect_partial(searcher, split_dir, request, mask,
                                    scores)
    return _full_leaf_search(searcher, split_dir, request)


def _full_leaf_search(searcher: SplitSearcher, split_dir: str,
                      request: SearchRequest) -> dict:
    """The full evaluator: every matching doc is scored (``eval``), the
    request's timestamp window filters rows within the split (split
    pruning only removes fully disjoint splits), then top-k collection
    and aggs. It answers every request the pruned scorers do not take,
    and it is the reference the pruned scorers are tested against."""
    scoring = any(sf.field == "_score" for sf in request.sort_fields)
    mask, scores = searcher.eval(request.query, scoring)
    if request.timestamp_field and (request.start_timestamp is not None
                                    or request.end_timestamp is not None):
        ts = searcher.reader.fast_field(request.timestamp_field)
        if request.start_timestamp is not None:
            mask = mask & (ts >= request.start_timestamp)
        if request.end_timestamp is not None:
            mask = mask & (ts < request.end_timestamp)
    return _collect_partial(searcher, split_dir, request, mask, scores)


def _collect_partial(searcher: SplitSearcher, split_dir: str,
                     request: SearchRequest, mask: np.ndarray,
                     scores: Optional[np.ndarray]) -> dict:
    """One split's partial result from its match mask and scores."""
    num_hits = int(mask.sum())
    out: dict[str, Any] = {"num_hits": num_hits, "split_dir": split_dir}
    k = request.start_offset + request.max_hits
    if k > 0 and num_hits:
        docs, k0, k1 = searcher.collect_top_k(
            mask, scores, request.sort_fields, k, request.search_after,
            split_id=os.path.basename(split_dir))
        out["doc_ids"] = docs.astype(np.int64)
        out["sort_key0"] = k0
        out["sort_key1"] = k1
    else:
        out["doc_ids"] = np.empty(0, np.int64)
        out["sort_key0"] = np.empty(0)
        out["sort_key1"] = np.empty(0)
    if request.aggs:
        from quickwit_ray.search.aggs import compute_partial_aggs

        out["agg_partial"] = compute_partial_aggs(request.aggs, searcher, mask)
        # measured once, here: the leaf cache's byte accounting and the
        # root's aggregation memory limit both reuse this size
        out["agg_nbytes"] = _approx_nbytes(out["agg_partial"], seal=True)
    return out


def _warm_arrow() -> None:
    """One tiny in-memory zstd parquet round-trip. A fresh worker process
    pays ~270 ms of one-time Arrow/zstd/thread-pool initialization on its
    FIRST parquet read (measured: first split open 270-410 ms vs 35-60 ms
    for every later one, independent of the split). Calling this in actor
    __init__ moves that cost to pool construction — concurrent across
    actors, before any query — instead of query 1's critical path."""
    import io

    import pyarrow.parquet as pq

    try:
        buf = io.BytesIO()
        pq.write_table(pa.table({"a": [1, 2], "b": ["x", "y"]}), buf,
                       compression="zstd")
        buf.seek(0)
        pq.read_table(buf)
    except Exception:  # noqa: BLE001 — warmup is best-effort
        pass


class _SearchActorPool:
    """Persistent MAPPING-AGNOSTIC leaf-search actor pool — the
    reference's long-lived searcher processes with split-affinity routing
    (rendezvous hashing of split -> searcher so each split's
    footer/posting caches live on one actor, search_job_placer.rs
    semantics). As in the reference, leaf requests CARRY the doc mapping
    (LeafSearchRequest ships the serialized doc mapper), so one pool
    serves every index; actors cache parsed mappings by key, and callers
    broadcast the mapping JSON once via ``ray.put`` instead of pickling
    it per leaf call. Actors reserve FRACTIONAL CPUs (0.25): leaf servers
    sit idle between queries, and a full-CPU logical reservation starves
    concurrent Ray Data build jobs (observed scheduling deadlock on small
    clusters — N cached pools x num_cpus=1 pins every logical CPU)."""

    ACTOR_NUM_CPUS = 0.25

    def __init__(self, size: int):
        import ray

        @ray.remote(num_cpus=self.ACTOR_NUM_CPUS)
        class _SearchActor:
            def __init__(self):
                self._mappings: dict = {}  # mapping_key -> DocMapping
                self.cache = _ReaderCache(64)
                _warm_arrow()  # pay one-time Arrow init here, not on query 1

            def _mapping(self, key: str, mapping_json: dict):
                m = self._mappings.get(key)
                if m is None:
                    from quickwit_ray.config import IndexConfig as _IC

                    m = _IC.from_json({"index_id": "x",
                                       "doc_mapping": mapping_json}).doc_mapping
                    self._mappings[key] = m
                return m

            def leaf(self, split_dir: str, mapping_key: str,
                     mapping_json: dict, request_blob: bytes,
                     theta0: Optional[float] = None) -> bytes:
                import pickle

                request = pickle.loads(request_blob)
                return pickle.dumps(leaf_search_one(
                    split_dir, self._mapping(mapping_key, mapping_json),
                    request, self.cache, theta0=theta0))

        self._factory = _SearchActor
        self.actors = [_SearchActor.remote() for _ in range(size)]
        self.retries = 0  # observability: leaf retries after actor failure

    def _route(self, split_dir: str) -> int:
        import hashlib

        h = int(hashlib.md5(os.path.basename(split_dir).encode()).hexdigest()[:8], 16)
        return h % len(self.actors)

    def submit(self, split_dir: str, mapping_key: str, mapping_ref,
               request_blob: bytes, theta0: Optional[float] = None):
        """One leaf search future, affinity-routed. ``mapping_ref`` is the
        ``ray.put`` ObjectRef of the doc-mapping JSON (auto-dereferenced
        actor-side from the local object store)."""
        return self.actors[self._route(split_dir)].leaf.remote(
            split_dir, mapping_key, mapping_ref, request_blob, theta0)

    def retry_leaf(self, split_dir: str, mapping_key: str, mapping_ref,
                   request_blob: bytes, error: Exception) -> dict:
        """One retry on a DIFFERENT actor after a leaf failure (the
        reference retries a failed leaf on another searcher node,
        cluster_client.rs / retry/*), without a theta hint: a full
        evaluation is exact under any competition. A dead primary is
        replaced in its slot so subsequent queries regain the affinity
        route instead of failing forever."""
        import pickle

        import ray

        self.retries += 1
        i = self._route(split_dir)
        try:
            # probe-free revival: dead actors raise RayActorError on use
            if isinstance(error, ray.exceptions.RayActorError):
                self.actors[i] = self._factory.remote()
        except Exception:  # noqa: BLE001 — revival is best-effort
            pass
        alt = self.actors[(i + 1) % len(self.actors)] \
            if len(self.actors) > 1 else self.actors[i]
        try:
            return pickle.loads(ray.get(alt.leaf.remote(
                split_dir, mapping_key, mapping_ref, request_blob)))
        except Exception as exc:  # noqa: BLE001 — one retry, then report
            return {"failed": os.path.basename(split_dir),
                    "error": f"{error}; retry: {exc}"}

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a, no_restart=True)
        self.actors = []


_SHARED_ACTOR_POOL: Optional[_SearchActorPool] = None
_SHARED_ACTOR_POOL_LOCK = _threading.Lock()


def _shared_actor_pool() -> _SearchActorPool:
    """The process-global leaf tier: every ``execution="ray"`` searcher
    without an explicit ``concurrency`` shares ONE pool (the reference's
    cluster-wide set of searcher nodes — leaf processes are shared by all
    indexes, not per-index). Sized to the cluster CPUs once, at first use."""
    global _SHARED_ACTOR_POOL
    if _SHARED_ACTOR_POOL is None or not _SHARED_ACTOR_POOL.actors:
        with _SHARED_ACTOR_POOL_LOCK:
            if _SHARED_ACTOR_POOL is None or not _SHARED_ACTOR_POOL.actors:
                import ray

                size = max(2, min(64, int(
                    ray.cluster_resources().get("CPU", 8))))
                _SHARED_ACTOR_POOL = _SearchActorPool(size)
    return _SHARED_ACTOR_POOL


def shutdown_shared_actor_pool() -> None:
    global _SHARED_ACTOR_POOL
    with _SHARED_ACTOR_POOL_LOCK:
        if _SHARED_ACTOR_POOL is not None:
            _SHARED_ACTOR_POOL.shutdown()
            _SHARED_ACTOR_POOL = None


def _score_theta_mode(request: SearchRequest) -> bool:
    """Queries eligible for cross-split kth-SCORE sharing: single-key
    descending _score sort with a top-k and no cursor (the leaf planner,
    ``_pruned_scoring_terms``, adds its query-shape guards)."""
    return (request.start_offset + request.max_hits > 0
            and request.search_after is None
            and len(request.sort_fields) == 1
            and request.sort_fields[0].field == "_score"
            and request.sort_fields[0].order == "desc")


def merge_partial_hits(partials: list[dict], request: SearchRequest,
                       split_ids: dict[str, str]) -> pd.DataFrame:
    """Merge per-split top-k lists with the reference comparator
    (collector.rs:1086-1184): compare sort keys in sort direction, then
    GlobalDocAddress (split_id, doc_id) in the SAME direction."""
    parts = [p for p in partials if len(p["doc_ids"])]
    if not parts:
        return pd.DataFrame(columns=["_split_id", "_split_dir", "_doc_id",
                                     "sort_key0", "sort_key1"])
    counts = [len(p["doc_ids"]) for p in parts]
    # one frame from concatenated arrays (candidate set is <= splits * k)
    df = pd.DataFrame({
        "_split_id": np.repeat(np.asarray(
            [split_ids[p["split_dir"]] for p in parts], object), counts),
        "_split_dir": np.repeat(np.asarray(
            [p["split_dir"] for p in parts], object), counts),
        "_doc_id": np.concatenate(
            [np.asarray(p["doc_ids"]) for p in parts]),
        # dtype follows the parts: pure-float score keys stay float64
        # (callers np.allclose them), int/str exact keys are object
        "sort_key0": np.concatenate(
            [np.asarray(p["sort_key0"]) for p in parts]),
        "sort_key1": np.concatenate(
            [np.asarray(p["sort_key1"]) for p in parts]),
    })
    sfs = (list(request.sort_fields) or [SortField("_doc", "desc")])[:2]
    # exact comparator over Python scalars — float64 would corrupt
    # i64/u64 sort keys beyond 2^53 (sortkeys.py)
    from quickwit_ray.search.sortkeys import exact_hit_sort

    return exact_hit_sort(df, sfs, request.start_offset, request.max_hits)


class IndexSearcher:
    """User-facing search entry for one index directory."""

    def __init__(self, index_dir: str, execution: str = "local",
                 concurrency: Optional[int] = None):
        _check_execution(execution)
        self.index_dir = index_dir
        self.manifest = Manifest(index_dir)
        if self.manifest.index_config_json is None:
            raise FileNotFoundError(f"no index at {index_dir}")
        self.config = IndexConfig.from_json(self.manifest.index_config_json)
        self.mapping = self.config.doc_mapping
        self.execution = execution
        self.concurrency = concurrency
        self._actor_pool: Optional[_SearchActorPool] = None
        self._mapping_key: Optional[str] = None  # sha1 of canonical mapping
        self._mapping_ref = None  # ray.put broadcast of the mapping JSON

    # ------------------------------------------------------------------

    def _resolve_query(self, query: Any) -> Any:
        if isinstance(query, str):
            return parse_query(query, self.mapping.default_search_fields)
        return query

    def search(self, query: Any = None, *, max_hits: int = 10, start_offset: int = 0,
               sort_by: Any = None, aggs: Optional[dict] = None,
               start_timestamp: Optional[int] = None,
               end_timestamp: Optional[int] = None,
               search_after: Optional[tuple] = None,
               fetch_fields: Optional[list[str]] = None,
               snippet_fields: tuple = (),
               keep_agg_partials: bool = False) -> SearchResponse:
        import time as _time

        t0 = _time.time()
        if aggs:
            from quickwit_ray.search.aggs import validate_aggs
            validate_aggs(aggs, self.mapping)
        node = self._resolve_query(query if query is not None else MatchAll())
        sort_fields = _normalize_sort(sort_by)
        # ---- split pruning (time range from args AND query AST, + tags)
        ts_field = self.mapping.timestamp_field
        lo, hi = start_timestamp, end_timestamp
        if ts_field:
            qlo, qhi = extract_timestamp_bounds(node, ts_field)
            if qlo is not None:
                lo = qlo if lo is None else max(lo, qlo)
            if qhi is not None:
                hi = qhi if hi is None else min(hi, qhi)
        request = SearchRequest(query=node, max_hits=max_hits,
                                start_offset=start_offset,
                                sort_fields=tuple(sort_fields), aggs=aggs,
                                search_after=search_after,
                                snippet_fields=tuple(snippet_fields),
                                start_timestamp=start_timestamp,
                                end_timestamp=end_timestamp,
                                timestamp_field=ts_field if (
                                    start_timestamp is not None
                                    or end_timestamp is not None) else None)
        tags = extract_tags(node, self.mapping.tag_fields)
        splits = self.manifest.list_splits(lo, hi, tags)

        # ---- count-only fast path: match-all + no aggs answered from metadata
        if max_hits == 0 and aggs is None and isinstance(node, MatchAll) \
                and lo is None and hi is None:
            total = sum(s.num_docs for s in splits)
            return SearchResponse(num_hits=total, hits=_empty_hits(),
                                  elapsed_sec=_time.time() - t0)

        split_dirs = [os.path.join(self.index_dir, "splits", s.split_id) for s in splits]
        split_ids = dict(zip(split_dirs, [s.split_id for s in splits]))
        # CanSplitDoBetter (leaf.rs:958-1326): for a single-key sort on the
        # timestamp field, order splits most-promising-first by their time
        # range and SKIP splits whose whole range cannot beat the running
        # kth value. Otherwise: longest-first (straggler hiding).
        ts_sort_dir = None
        if (ts_field and len(sort_fields) == 1
                and sort_fields[0].field == ts_field
                and request.max_hits > 0 and aggs is None
                and request.search_after is None):
            ts_sort_dir = sort_fields[0].order
        if ts_sort_dir == "desc":
            order = np.argsort(
                [-(s.time_range_end if s.time_range_end is not None else 2**62)
                 for s in splits], kind="stable")
        elif ts_sort_dir == "asc":
            order = np.argsort(
                [(s.time_range_start if s.time_range_start is not None else -2**62)
                 for s in splits], kind="stable")
        else:
            order = np.argsort([-s.num_docs for s in splits], kind="stable")
        split_dirs = [split_dirs[i] for i in order]
        bounds = None
        if ts_sort_dir is not None:
            bounds = [(splits[i].time_range_start, splits[i].time_range_end)
                      for i in order]

        partials, skipped = self._execute(split_dirs, request, bounds,
                                          ts_sort_dir)
        failed = [p for p in partials if "failed" in p]
        partials = [p for p in partials if "failed" not in p]
        for f in failed:
            # REQUEST errors (agg limits) must surface as a rejection,
            # not hide inside failed_splits as an empty-looking result
            # (same class as the round-3 `missing` advice finding)
            if "aggregation bucket limit" in str(f.get("error", "")):
                raise ValueError(f["error"])

        num_hits = sum(p["num_hits"] for p in partials)
        hits = merge_partial_hits(partials, request, split_ids)
        merged_aggs = None
        agg_partials = None
        if aggs:
            from quickwit_ray.search.aggs import merge_partial_aggs

            agg_partials = [p["agg_partial"] for p in partials]
            merged_aggs = merge_partial_aggs(
                aggs, agg_partials, [p["agg_nbytes"] for p in partials])
        if len(hits) and (fetch_fields is None or fetch_fields):
            hits = self._fetch_docs(hits, fetch_fields, request)
        return SearchResponse(num_hits=num_hits, hits=hits, aggs=merged_aggs,
                              failed_splits=failed,
                              elapsed_sec=_time.time() - t0,
                              num_hits_exact=skipped == 0,
                              agg_partials=(agg_partials if keep_agg_partials
                                            else None))

    # ------------------------------------------------------------------

    @staticmethod
    def _kth_threshold(partials: list[dict], k: int, desc: bool) -> Optional[float]:
        """Current kth-best primary sort value across collected partials."""
        keys = np.concatenate([p["sort_key0"] for p in partials
                               if "failed" not in p and len(p["sort_key0"])]
                              or [np.empty(0)])
        if len(keys) < k:
            return None
        keys = np.sort(keys)
        return float(keys[len(keys) - k] if desc else keys[k - 1])

    @staticmethod
    def _split_can_do_better(bound: tuple, theta: Optional[float],
                             desc: bool) -> bool:
        if theta is None:
            return True
        lo, hi = bound
        if desc:
            return hi is None or float(hi) >= theta
        return lo is None or float(lo) <= theta

    def _execute(self, split_dirs: list[str], request: SearchRequest,
                 bounds: Optional[list[tuple]] = None,
                 ts_sort_dir: Optional[str] = None) -> tuple[list[dict], int]:
        if not split_dirs:
            return [], 0
        if self.execution == "ray" and len(split_dirs) > 1:
            return self._execute_ray(split_dirs, request, bounds, ts_sort_dir)
        k = request.start_offset + request.max_hits
        desc = ts_sort_dir == "desc"
        score_mode = _score_theta_mode(request)
        # threaded local fan-out (the reference searches leaves
        # CONCURRENTLY with a shared kth score, leaf.rs): numpy + Arrow
        # decompression release the GIL, so threads overlap real work.
        # The sequential path stays for time-sorted skipping, where split
        # order IS the pruning structure.
        if bounds is None and len(split_dirs) > 1 and self.execution == "local":
            return self._execute_threads(split_dirs, request, score_mode,
                                         k), 0
        out: list[dict] = []
        skipped = 0
        rkey = (repr(request), str(self.mapping))  # once, not per split
        for i, d in enumerate(split_dirs):
            if bounds is not None:
                theta = self._kth_threshold(out, k, desc)
                if not self._split_can_do_better(bounds[i], theta, desc):
                    # splits are ordered by the same criterion: everything
                    # after this one is provably no better either
                    skipped = len(split_dirs) - i
                    break
            # cross-split kth-score sharing: later splits start their
            # pruned scoring at the running global kth score
            theta0 = (self._kth_threshold(out, k, True)
                      if score_mode else None)
            try:
                out.append(leaf_search_one(d, self.mapping, request,
                                           theta0=theta0, request_key=rkey))
            except Exception as exc:  # noqa: BLE001 — report, don't fail the query
                out.append({"failed": os.path.basename(d), "error": str(exc)})
        return out, skipped

    def _execute_threads(self, split_dirs: list[str],
                         request: SearchRequest, score_mode: bool,
                         k: int) -> list[dict]:
        """Concurrent leaf search on the process-wide PERSISTENT thread
        pool (creating a pool per query cost ~5 thread spawns / several
        ms per search) with a shared running kth-score threshold: a leaf
        starting later reads the threshold the finished leaves
        established (approximate — timing-dependent — but pruning only
        ever skips provably sub-kth docs, so results are exact either
        way)."""
        import threading

        done: list[dict] = []  # theta source only (completion order)
        lock = threading.Lock()
        rkey = (repr(request), str(self.mapping))  # once, not per split

        def run(d: str) -> dict:
            theta0 = None
            if score_mode:
                with lock:
                    theta0 = self._kth_threshold(done, k, True)
            try:
                r = leaf_search_one(d, self.mapping, request, theta0=theta0,
                                    request_key=rkey)
            except Exception as exc:  # noqa: BLE001 — report, don't fail
                r = {"failed": os.path.basename(d), "error": str(exc)}
            with lock:
                done.append(r)
            return r

        # SUBMISSION order, not completion order: agg merges fold float
        # sums / sketches in list order and must stay deterministic
        # run-to-run
        return list(_leaf_thread_pool().map(run, split_dirs))

    def _execute_ray(self, split_dirs: list[str], request: SearchRequest,
                     bounds: Optional[list[tuple]] = None,
                     ts_sort_dir: Optional[str] = None) -> tuple[list[dict], int]:
        import ray

        if self.concurrency:
            # explicit concurrency -> PRIVATE pool (isolation for tests /
            # embedders); the default path shares the process-global tier
            if self._actor_pool is None or not self._actor_pool.actors:
                self._actor_pool = _SearchActorPool(self.concurrency)
            pool = self._actor_pool
        else:
            pool = _shared_actor_pool()
            self._actor_pool = pool  # observability (cluster endpoint, tests)
        if self._mapping_ref is None:
            import hashlib
            import json as _json

            mj = self.config.to_json()["doc_mapping"]
            self._mapping_key = hashlib.sha1(
                _json.dumps(mj, sort_keys=True).encode()).hexdigest()
            self._mapping_ref = ray.put(mj)  # broadcast once, not per leaf
        mkey, mref = self._mapping_key, self._mapping_ref
        score_mode = _score_theta_mode(request)
        # SLIDING-WINDOW dispatch (no wave barrier): keep up to 2x pool
        # width in flight; as each leaf completes, refresh the running kth
        # threshold — a split-skip bound for time-sorted queries, a scoring
        # theta hint for scored ones — and dispatch the next global split.
        # Global dispatch order is preserved, so the time-sorted skip keeps
        # its prefix semantics; affinity routing keeps reader caches warm.
        import pickle

        k = request.start_offset + request.max_hits
        desc = ts_sort_dir == "desc"
        window = 2 * max(len(pool.actors), 1)
        blob = pickle.dumps(request)
        done: list[dict] = []  # theta source only (completion order)
        out: list[Optional[dict]] = [None] * len(split_dirs)
        skipped = 0
        pending: dict = {}
        i = 0
        while i < len(split_dirs) or pending:
            while i < len(split_dirs) and len(pending) < window:
                if bounds is not None:
                    theta = self._kth_threshold(done, k, desc)
                    if not self._split_can_do_better(bounds[i], theta, desc):
                        skipped = len(split_dirs) - i
                        i = len(split_dirs)
                        break
                theta0 = (self._kth_threshold(done, k, True)
                          if score_mode else None)
                fut = pool.submit(split_dirs[i], mkey, mref, blob, theta0)
                pending[fut] = i
                i += 1
            if not pending:
                break
            ready, _ = ray.wait(list(pending), num_returns=1)
            for f in ready:
                j = pending.pop(f)
                try:
                    r = pickle.loads(ray.get(f))
                except Exception as exc:  # noqa: BLE001
                    r = pool.retry_leaf(split_dirs[j], mkey, mref, blob, exc)
                out[j] = r
                done.append(r)
        # SPLIT order, not completion order: agg merges fold float sums /
        # sketches in list order and must stay deterministic run-to-run
        return [r for r in out if r is not None], skipped

    # ------------------------------------------------------------------

    def _fetch_docs(self, hits: pd.DataFrame, fetch_fields: Optional[list[str]],
                    request: SearchRequest) -> pd.DataFrame:
        """fetch_docs phase: group top hits by split, point-lookup doc-store
        rows, and join them onto the hits in their merged order — one
        Arrow table over every split, converted to pandas once."""
        dynamic_extra = fetch_fields is None and self.mapping.mode == "dynamic"
        if fetch_fields is None:
            fetch_fields = [f.name for f in self.mapping.stored_fields
                            if f.type != "bytes"]
        mapped = {f.name for f in self.mapping.field_mappings}
        doc_ids = hits["_doc_id"].to_numpy()
        tables, order = [], []
        for split_dir, pos in hits.groupby("_split_dir",
                                           sort=False).indices.items():
            reader = _GLOBAL_READER_CACHE.get(str(split_dir))
            cols = list(fetch_fields)
            if dynamic_extra:
                # dynamic-mode hits render their catch-all columns too
                # (the doc store keeps unmapped fields; doc_mapper.rs
                # dynamic field)
                cols += [c for c in reader.docstore_columns()
                         if c not in mapped and c not in cols]
            tables.append(reader.fetch_docs(doc_ids[pos], columns=cols))
            order.append(pos)
        if tables:
            docs = _docs_frame(tables, order)
            docs.index = hits.index
            hits = pd.concat([hits, docs], axis=1)
        if request.snippet_fields:
            from quickwit_ray.search.snippets import generate_snippets

            hits = generate_snippets(hits, request, self.mapping)
        return hits


def _docs_frame(tables: list[pa.Table], order: list[np.ndarray]
                ) -> pd.DataFrame:
    """Per-split fetched rows (``tables[g]`` holds hit positions
    ``order[g]``) -> one frame in hit order."""
    try:
        tbl = pa.concat_tables(tables, promote_options="permissive")
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        # a dynamic field typed differently across splits (say int in
        # one, string in another) has no Arrow supertype: pandas
        # unifies it as object
        return pd.concat([t.to_pandas() for t in tables], ignore_index=True
                         ).iloc[np.argsort(np.concatenate(order))
                                ].reset_index(drop=True)
    if tbl.num_columns == 0:  # no requested column is stored anywhere
        return pd.DataFrame(index=pd.RangeIndex(sum(map(len, order))))
    return _in_request_order(tbl, order).to_pandas()


def _normalize_sort(sort_by: Any) -> list[SortField]:
    if sort_by is None:
        return []
    if isinstance(sort_by, str):
        sort_by = [sort_by]
    out = []
    for s in sort_by:
        if isinstance(s, SortField):
            out.append(s)
            continue
        s = s.strip()
        if s.startswith("-"):
            out.append(SortField(s[1:], "desc"))
        elif s.startswith("+"):
            out.append(SortField(s[1:], "asc"))
        else:
            # reference default order for explicit sort fields is desc
            out.append(SortField(s, "desc"))
    return out


def _empty_hits() -> pd.DataFrame:
    return pd.DataFrame(columns=["_split_id", "_split_dir", "_doc_id",
                                 "sort_key0", "sort_key1"])
