"""Merge pipeline — policy + executor
(`quickwit-indexing/src/merge_policy/stable_log_merge_policy.rs:181-300`
for the level/candidate algorithm, `actors/merge_executor.rs:299-570` for
execution semantics, `actors/merge_planner.rs` for the driver loop).

Policy is pure driver-side Python over manifest rows. Execution is a
stateless task per merge op (fan-in <= max_merge_factor): read N split
artifacts, remap doc ids by cumulative offsets, merge posting lists per
(field, term) (doc-id order is preserved because split doc ranges are
disjoint and increasing), concatenate fieldnorms/fastfields/docstore,
union time ranges and tags, sum per-field stats — then one atomic
publish replaces the N inputs with the merged split.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from quickwit_ray.config import IndexConfig, MergePolicyConfig
from quickwit_ray.index.format import (
    DOCSTORE_FILE,
    FASTFIELDS_FILE,
    FIELDNORMS_FILE,
    POSTINGS_FILE,
    ExactRowGroupWriter,
    write_footer,
    write_postings_file,
)
from quickwit_ray.index.writer import MAX_VALUES_PER_TAG_FIELD, deterministic_split_id
from quickwit_ray.state.manifest import (Manifest, SplitMetadata,
                                          StaleReplaceError)


# merges whose total dictionary rows fit under this take the one-window
# fast path (everything in RAM, zero extra passes); larger merges stream
# bounded row-group windows. Patchable in tests.
SMALL_MERGE_DICT_ROWS = 262_144
# compressed postings+positions input bytes above which one merge is big
# enough to parallelize its window merging on a private 2-thread pool.
# Below it the producer merges windows inline: the merge scheduler packs
# 20+ concurrent small merges per node, where extra per-merge threads
# only thrash (A/B'd at fleet concurrency; single big merges gained ~2x)
WINDOW_POOL_MIN_BYTES = 64 << 20
#: per-refill decoded-byte target for the streaming posting merge; the
#: one-window fast path additionally requires the whole merge to decode
#: under ONE_WINDOW_MAX_RAW_BYTES (uncompressed parquet metadata bytes)
REFILL_TARGET_RAW_BYTES = 48 << 20
REFILL_MIN_STREAM_BYTES = 4 << 20
ONE_WINDOW_MAX_RAW_BYTES = 512 << 20


@dataclass
class MergeOperation:
    splits: list[SplitMetadata]

    @property
    def num_docs(self) -> int:
        return sum(s.num_docs for s in self.splits)


def _is_mature(split: SplitMetadata, cfg: MergePolicyConfig,
               split_num_docs_target: int, now: float) -> bool:
    """split_maturity (stable_log_merge_policy.rs:108-124): mature when at
    target size, or past the maturation period since creation."""
    if split.num_docs >= split_num_docs_target:
        return True
    return split.create_timestamp + cfg.maturation_period_secs <= now


def _cmp_key(split: SplitMetadata):
    """cmp_splits_by_reverse_time_end (stable_log_merge_policy.rs:170-178):
    descending time_range end (None last), then num_docs asc, split_id asc."""
    end = split.time_range_end
    return (0 if end is not None else 1,
            -(end if end is not None else 0),
            split.num_docs, split.split_id)


class StableLogMergePolicy:
    """Default policy: level by size (level cap = 3x first-split docs,
    floored at min_level_num_docs), take merge_factor..max_merge_factor
    adjacent-by-recency splits per level."""

    def __init__(self, config: MergePolicyConfig = MergePolicyConfig(),
                 split_num_docs_target: int = 10_000_000):
        self.config = config
        self.split_num_docs_target = split_num_docs_target

    def operations(self, splits: list[SplitMetadata],
                   now: Optional[float] = None) -> list[MergeOperation]:
        now = time.time() if now is None else now
        if len(splits) < 2:
            return []
        young = [s for s in splits
                 if not _is_mature(s, self.config, self.split_num_docs_target, now)]
        young.sort(key=_cmp_key)
        ops: list[MergeOperation] = []
        levels = self._build_split_levels(young)
        for lo, hi in reversed(levels):
            # drain every candidate from the level (the reference emits one
            # per planner wake-up and re-plans after each publish; draining
            # here yields the same compaction steps but lets the driver run
            # them CONCURRENTLY — merge_scheduler_service.rs semantics)
            end = hi
            while True:
                rng = self._merge_candidate_from_level(young, lo, end)
                if rng is None:
                    break
                ops.append(MergeOperation(splits=young[rng[0]: rng[1]]))
                end = rng[0]
        return ops

    def _build_split_levels(self, splits: list[SplitMetadata]) -> list[tuple[int, int]]:
        if not splits:
            return []
        levels: list[tuple[int, int]] = []
        start = 0
        level_max = max(splits[0].num_docs * 3, self.config.min_level_num_docs)
        for i, s in enumerate(splits):
            if s.num_docs >= level_max:
                levels.append((start, i))
                start = i
                level_max = 3 * s.num_docs
        levels.append((start, len(splits)))
        return levels

    def _merge_candidate_from_level(self, splits, lo, hi) -> Optional[tuple[int, int]]:
        end = hi
        start = end
        for i in range(hi - 1, lo - 1, -1):
            if self._candidate_size(splits, start, end) == "too_big":
                break
            start = i
        if self._candidate_size(splits, start, end) == "too_small":
            return None
        return (start, end)

    def _candidate_size(self, splits, start, end) -> str:
        n = end - start
        if n <= 1:
            return "too_small"
        if n >= self.config.max_merge_factor:
            return "too_big"
        if sum(s.num_docs for s in splits[start:end]) >= self.split_num_docs_target:
            return "too_big"
        if n < self.config.merge_factor:
            return "too_small"
        return "valid"


class ConstWriteAmplificationMergePolicy:
    """Alternative policy (const_write_amplification.rs): group young
    splits by num_merge_ops level; merge merge_factor adjacent splits per
    level; a split merges at most max_merge_ops times."""

    def __init__(self, config: MergePolicyConfig = MergePolicyConfig(kind="const_write_amplification"),
                 split_num_docs_target: int = 10_000_000):
        self.config = config
        self.split_num_docs_target = split_num_docs_target

    def operations(self, splits: list[SplitMetadata],
                   now: Optional[float] = None) -> list[MergeOperation]:
        now = time.time() if now is None else now
        young = [s for s in splits
                 if s.num_merge_ops < self.config.max_merge_ops
                 and not _is_mature(s, self.config, self.split_num_docs_target, now)]
        by_level: dict[int, list[SplitMetadata]] = {}
        for s in young:
            by_level.setdefault(s.num_merge_ops, []).append(s)
        ops = []
        for level in sorted(by_level):
            group = sorted(by_level[level], key=_cmp_key)
            while len(group) >= self.config.merge_factor:
                cand = group[: self.config.merge_factor]
                group = group[self.config.merge_factor:]
                ops.append(MergeOperation(splits=cand))
        return ops


def make_policy(config: MergePolicyConfig, split_num_docs_target: int):
    if config.kind == "stable_log":
        return StableLogMergePolicy(config, split_num_docs_target)
    if config.kind == "const_write_amplification":
        return ConstWriteAmplificationMergePolicy(config, split_num_docs_target)
    if config.kind == "none":
        return None
    raise ValueError(f"unknown merge policy {config.kind!r}")


# ---------------------------------------------------------------------------
# merge execution
# ---------------------------------------------------------------------------

def _binary_buffers(arr: pa.Array) -> tuple[np.ndarray, pa.Buffer]:
    """(offsets int32 view incl. trailing, data buffer) of a BinaryArray
    with offset 0 and no nulls (how our postings columns are written)."""
    assert arr.offset == 0
    bufs = arr.buffers()
    offs = np.frombuffer(bufs[1], np.int32, count=len(arr) + 1)
    return offs, bufs[2]


def _collapsed_binary(arr: pa.Array, term_starts: np.ndarray,
                      data_buf: pa.Buffer | None = None) -> pa.Array:
    """Re-window a BinaryArray to one row per term: keep the data buffer,
    subset the offsets at term boundaries (zero-copy concat of each term's
    consecutive piece rows)."""
    offs, data = _binary_buffers(arr)
    ends = np.append(term_starts[1:], len(arr))
    new_offs = np.empty(len(term_starts) + 1, np.int32)
    new_offs[:-1] = offs[term_starts]
    new_offs[-1] = offs[ends[-1]] if len(ends) else 0
    return pa.Array.from_buffers(
        pa.binary(), len(term_starts),
        [None, pa.py_buffer(new_offs.tobytes()), data_buf or data])


class _SplitPostingsStream:
    """Row-group-at-a-time reader of one split's postings (+ positions
    sidecar), yielding key-ordered chunks — the input side of the
    streaming k-way merge. Peak memory per stream = the loaded row
    groups, never the whole file."""

    def __init__(self, split_dir: str, ord_: int, off: int,
                 rgs_per_refill: int = 8,
                 refill_bytes: Optional[int] = None):
        from quickwit_ray.index.format import (
            POS_TERMS_PER_ROW_GROUP,
            POSITIONS_FILE,
            TERMS_PER_ROW_GROUP,
            _artifact_exists,
            _open_parquet,
            open_postings,
        )

        self.split_dir = split_dir
        self.ord_ = ord_
        self.off = off
        self.rgs_per_refill = rgs_per_refill
        self.refill_bytes = refill_bytes
        self._pf = open_postings(split_dir)
        self._n_rg = self._pf.metadata.num_row_groups
        self._next_rg = 0
        pp = os.path.join(split_dir, POSITIONS_FILE)
        self._pos_pf = (_open_parquet(pp) if _artifact_exists(pp) else None)
        self._pos_rows_per_rg = POS_TERMS_PER_ROW_GROUP
        self._rows_per_rg = TERMS_PER_ROW_GROUP
        self._buf: Optional[pa.Table] = None
        self._consumed = 0
        if refill_bytes is not None:
            # per-rg decoded-byte weights (round-5 memory fix): posting
            # blobs are Zipf-skewed ACROSS row groups — the lexicographic
            # head groups carry the fattest terms, so a fixed rgs-per-
            # refill decodes O(split_size) bytes on the first windows.
            # Weight = the rg's own uncompressed bytes + a row-
            # proportional share of the positions sidecar.
            md = self._pf.metadata
            w = np.array([md.row_group(i).total_byte_size
                          for i in range(self._n_rg)], np.float64)
            if self._pos_pf is not None:
                pmd = self._pos_pf.metadata
                rows = np.array([pmd.row_group(i).num_rows
                                 for i in range(pmd.num_row_groups)])
                bts = np.array([pmd.row_group(i).total_byte_size
                                for i in range(pmd.num_row_groups)],
                               np.float64)
                row_bounds = np.concatenate([[0], np.cumsum(rows)])
                byte_prefix = np.concatenate([[0.0], np.cumsum(bts)])
                # piecewise-linear prefix bytes(row); posting rg i covers
                # rows [i*rows_per_rg, ...)
                post_bounds = np.minimum(
                    np.arange(self._n_rg + 1) * self._rows_per_rg,
                    md.num_rows)
                p = np.interp(post_bounds, row_bounds, byte_prefix)
                w += np.diff(p)
            self._rg_weights = w
        # async double-buffer: when a reader pool is attached, the NEXT
        # refill's row groups decode on the pool while the current buffer
        # is being merged/encoded (profiled: parquet decode was the
        # producer's critical path — consumers starved ~3 s per 8-way
        # 90k-doc merge). Output bytes are untouched: prefetch only moves
        # WHEN reads happen, never what a window contains.
        self._pool = None
        self._pending = None  # in-flight Future[Optional[pa.Table]]

    def attach_reader_pool(self, pool) -> None:
        """Enable prefetch through ``pool`` and schedule the first read."""
        self._pool = pool
        self._schedule_prefetch()

    def _next_range(self) -> tuple[int, int]:
        """The next refill's [start, end) row groups: a fixed count, or —
        with a byte budget — as many groups as fit it (min 1, so peak is
        O(max single-rg bytes) regardless of split size)."""
        start = self._next_rg
        if self.refill_bytes is None:
            return start, min(start + self.rgs_per_refill, self._n_rg)
        end = start + 1
        tot = self._rg_weights[start]
        while end < self._n_rg \
                and tot + self._rg_weights[end] <= self.refill_bytes:
            tot += self._rg_weights[end]
            end += 1
        return start, end

    def _schedule_prefetch(self) -> None:
        if (self._pool is None or self._pending is not None
                or self._next_rg >= self._n_rg):
            return
        start, end = self._next_range()
        self._next_rg = end
        self._pending = self._pool.submit(self._read_rgs, start, end)

    def _positions_slice(self, row_start: int, n: int) -> pa.Table:
        """Sidecar rows [row_start, row_start+n) (sidecar row == dict row)."""
        if self._pos_pf is None:
            empty = pa.array([b""] * n, pa.binary())
            return pa.table({"positions": empty, "pos_lens": empty})
        rg0 = row_start // self._pos_rows_per_rg
        rg1 = (row_start + n - 1) // self._pos_rows_per_rg
        t = self._pos_pf.read_row_groups(list(range(rg0, rg1 + 1)))
        lo = row_start - rg0 * self._pos_rows_per_rg
        return t.slice(lo, n)

    def _read_rgs(self, start_rg: int, end_rg: Optional[int] = None) -> pa.Table:
        """Read + assemble row groups [start_rg, end_rg) into a merge
        buffer (pure read — no stream state mutated; safe to run on a
        prefetch thread)."""
        if end_rg is None:
            end_rg = min(start_rg + self.rgs_per_refill, self._n_rg)
        take = list(range(start_rg, end_rg))
        row_start = start_rg * self._rows_per_rg
        t = self._pf.read_row_groups(take)
        pt = self._positions_slice(row_start, t.num_rows)
        n = t.num_rows
        t = t.append_column("positions", pt["positions"])
        t = t.append_column("pos_lens", pt["pos_lens"])
        t = t.append_column("_off", pa.array(np.full(n, self.off, np.int32)))
        t = t.append_column("_ord", pa.array(np.full(n, self.ord_, np.int32)))
        return t.combine_chunks()

    def _refill(self) -> None:
        fut, self._pending = self._pending, None
        if fut is not None:
            buf = fut.result()
        elif self._next_rg < self._n_rg:
            start, end = self._next_range()
            self._next_rg = end
            buf = self._read_rgs(start, end)
        else:
            self._buf, self._consumed = None, 0
            return
        self._buf = buf
        # keys bisect lazily against the arrow columns (O(log n) scalar
        # reads per window) — materializing a Python tuple per dictionary
        # row here dominated refill time on multi-million-term merges
        self._buf_field = self._buf["field"].chunk(0) \
            if self._buf["field"].num_chunks else self._buf["field"]
        self._buf_term = self._buf["term"].chunk(0) \
            if self._buf["term"].num_chunks else self._buf["term"]
        n_last = self._buf.num_rows - 1
        self._last_key = (self._buf_field[n_last].as_py(),
                          self._buf_term[n_last].as_py())
        self._consumed = 0
        self._schedule_prefetch()

    def ensure_loaded(self) -> None:
        if self._buf is None or self._consumed >= self._buf.num_rows:
            self._refill()

    @property
    def exhausted(self) -> bool:
        return (self._buf is None and self._pending is None
                and self._next_rg >= self._n_rg)

    def buffer_last_key(self) -> Optional[tuple[str, str]]:
        """Last (field, term) of the loaded buffer; None when exhausted.
        Unloaded rows all have keys strictly greater (keys are unique and
        sorted within a split's dictionary)."""
        if self._buf is None:
            return None
        return self._last_key

    def take_upto(self, key: tuple[str, str]) -> Optional[pa.Table]:
        """Consume and return the buffered rows with (field, term) <= key."""
        if self._buf is None:
            return None
        lo, hi = self._consumed, self._buf.num_rows
        while lo < hi:  # bisect_right over the arrow key columns
            mid = (lo + hi) // 2
            k = (self._buf_field[mid].as_py(), self._buf_term[mid].as_py())
            if k <= key:
                lo = mid + 1
            else:
                hi = mid
        hi = lo
        if hi == self._consumed:
            return None
        out = self._buf.slice(self._consumed, hi - self._consumed)
        self._consumed = hi
        if self._consumed >= self._buf.num_rows:
            self._buf = None
            self._consumed = 0
        return out


def _merge_postings_vectorized(split_dirs: list[str], offsets: np.ndarray,
                               tmp_dir: str) -> None:
    """Streaming k-way merge of the input splits' posting tables in
    (field, term) key windows — round-2 rework of the all-in-RAM merge.

    Each input streams row-group-at-a-time; a window is every buffered row
    with key <= the SAFE key (the minimum over streams of their buffer's
    last key), which guarantees a term's pieces from all inputs land in
    the same window so the byte-level patching stays self-contained. Peak
    memory = a few row groups per input, independent of split size."""
    from quickwit_ray.index.format import (
        POS_TERMS_PER_ROW_GROUP,
        POSITIONS_FILE,
        POSITIONS_SCHEMA,
        POSTINGS_SCHEMA,
        TERMS_PER_ROW_GROUP,
    )

    # size-adaptive windowing: small merges (test scale, tail compactions)
    # load everything in one refill — one window == the plain vectorized
    # merge with zero extra passes; big merges stream bounded row-group
    # windows. 256k dictionary rows across all inputs ~ a few hundred MB of
    # posting buffers, well inside a worker heap.
    total_rows = 0
    total_bytes = 0
    total_raw = 0  # uncompressed (≈ decoded arrow) bytes, from metadata
    from quickwit_ray import storage
    from quickwit_ray.index.format import _open_parquet

    for d in split_dirs:
        md = _open_parquet(os.path.join(d, POSTINGS_FILE)).metadata
        total_rows += md.num_rows
        total_raw += sum(md.row_group(i).total_byte_size
                         for i in range(md.num_row_groups))
        total_bytes += storage.file_size(os.path.join(d, POSTINGS_FILE))
        pp = os.path.join(d, POSITIONS_FILE)
        if storage.exists(pp):
            pmd = _open_parquet(pp).metadata
            total_raw += sum(pmd.row_group(i).total_byte_size
                             for i in range(pmd.num_row_groups))
            total_bytes += storage.file_size(pp)
    if total_rows <= SMALL_MERGE_DICT_ROWS \
            and total_raw <= ONE_WINDOW_MAX_RAW_BYTES:
        # small merge: everything in one refill == plain vectorized merge
        streams = [_SplitPostingsStream(d, i, int(off),
                                        rgs_per_refill=1_000_000)
                   for i, (d, off) in enumerate(zip(split_dirs, offsets))]
    else:
        # BYTE-budgeted refill (round-5 fix): posting blobs are Zipf-
        # skewed across lexicographic row groups AND grow linearly with
        # split size (a 2048-term head group of a 3.3M-doc split decodes
        # to ~80 MB), so the old fixed 8-rgs-per-refill made the 10M-doc
        # rewrite peak at ~11 GB (profiled: fat windows x double-buffer
        # x 2-window queue). REFILL_TARGET_RAW_BYTES budgets the WHOLE
        # window: each stream packs row groups into its 1/n share
        # (positions sidecar bytes included), so in-flight memory —
        # ~3 windows + their merged outputs + double-buffered refills —
        # stays O(budget), independent of split size AND fan-in; floor
        # 1 rg per refill (peak then O(max single-rg bytes), the floor
        # tantivy pays for one serialized block).
        per_stream = max(REFILL_MIN_STREAM_BYTES,
                         REFILL_TARGET_RAW_BYTES // len(split_dirs))
        streams = [_SplitPostingsStream(d, i, int(off),
                                        refill_bytes=per_stream)
                   for i, (d, off) in enumerate(zip(split_dirs, offsets))]
    # write the positions sidecar iff any input carries positions
    any_positions = any(s._pos_pf is not None for s in streams)
    out = ExactRowGroupWriter(os.path.join(tmp_dir, POSTINGS_FILE),
                               POSTINGS_SCHEMA, TERMS_PER_ROW_GROUP)
    pos_out = (ExactRowGroupWriter(os.path.join(tmp_dir, POSITIONS_FILE),
                                    POSITIONS_SCHEMA, POS_TERMS_PER_ROW_GROUP)
               if any_positions else None)
    wrote_any_pos = False
    # two-stage pipeline: a producer thread reads + merges the next
    # window while this thread parquet-encodes the previous one (pyarrow
    # reads/encodes release the GIL). Bounded queue -> bounded memory;
    # single producer + FIFO -> byte-identical output to the serial loop.
    import queue as _queue
    import threading

    q: "_queue.Queue" = _queue.Queue(maxsize=2)
    perr: list[BaseException] = []
    stop = threading.Event()  # consumer failed: producer must not block

    def _qput(item) -> bool:
        while not stop.is_set():
            try:
                q.put(item, timeout=0.2)
                return True
            except _queue.Full:
                continue
        return False

    from concurrent.futures import ThreadPoolExecutor

    # prefetch pool: each stream double-buffers its next row groups here
    # (parquet decode releases the GIL), so ensure_loaded below is mostly
    # a completed-future swap and the producer's wall is the window merge,
    # not the read. The old design refilled synchronously between windows
    # (a pool.map barrier) — profiled at ~3 s of consumer starvation per
    # 8-way 90k-doc merge.
    refill_pool = ThreadPoolExecutor(max_workers=min(8, len(streams) + 1))
    for s in streams:
        s.attach_reader_pool(refill_pool)
    # big merges only: window merging moves to a private pool and the
    # queue carries FUTURES resolved FIFO by the consumer (byte-identical
    # order). Small merges keep the window merge inline on the producer —
    # WINDOW_POOL_MIN_BYTES gates it so fleet-concurrency merges don't
    # multiply threads.
    merge_pool = (ThreadPoolExecutor(max_workers=2)
                  if total_bytes >= WINDOW_POOL_MIN_BYTES else None)

    def _produce() -> None:
        try:
            while not stop.is_set():
                for s in streams:
                    s.ensure_loaded()
                keys = [s.buffer_last_key() for s in streams
                        if s.buffer_last_key() is not None]
                if not keys:
                    break
                safe = min(keys)
                chunks = [s.take_upto(safe) for s in streams]
                chunks = [c for c in chunks if c is not None and c.num_rows]
                if not chunks:
                    continue
                window = pa.concat_tables(chunks).combine_chunks()
                item = (merge_pool.submit(_merge_window, window)
                        if merge_pool is not None else _merge_window(window))
                if not _qput(item):
                    return
        except BaseException as e:  # surfaced on the consumer side
            perr.append(e)
        finally:
            _qput(None)

    # third stage: the positions sidecar encodes on its own thread (its
    # file is independent of the postings file)
    posq: "_queue.Queue" = _queue.Queue(maxsize=2)

    def _pos_writer() -> None:
        try:
            while True:
                item = posq.get()
                if item is None:
                    return
                if stop.is_set():  # error path: drop pending, bail
                    return
                pos_out.write(item)
        except BaseException as e:
            perr.append(e)
            stop.set()

    producer = threading.Thread(target=_produce, daemon=True)
    producer.start()
    pos_thread = None
    if pos_out is not None:
        pos_thread = threading.Thread(target=_pos_writer, daemon=True)
        pos_thread.start()
    try:
        while True:
            try:
                item = q.get(timeout=0.2)
            except _queue.Empty:
                if stop.is_set():  # a writer thread failed: bail out
                    break
                continue
            if item is None:
                break
            # big-merge path enqueues futures (a merge-pool failure
            # raises here and the finally below reaps everything)
            tbl, ptbl, has_pos = (item.result()
                                  if hasattr(item, "result") else item)
            if pos_thread is not None:
                while not stop.is_set():
                    try:
                        posq.put(ptbl, timeout=0.2)
                        break
                    except _queue.Full:
                        continue
                wrote_any_pos = wrote_any_pos or has_pos
            out.write(tbl)
    finally:
        # on a consumer failure (e.g. ENOSPC) unblock + reap the
        # producer before propagating, so no thread / window tables /
        # input handles leak in a long-lived worker
        if pos_thread is not None:
            # graceful completion MUST block-put the sentinel: posq may
            # still hold queued windows and FIFO drain writes them all.
            # A put_nowait->stop.set() here silently dropped the tail
            # windows whenever the positions encoder lagged at EOF
            # (positions sidecar ended up rows short of the postings
            # file -> corrupt published split). Non-blocking escape is
            # for the error path only (writer dead, queue maybe full).
            while not stop.is_set():
                try:
                    posq.put(None, timeout=0.2)
                    break
                except _queue.Full:
                    continue
            if stop.is_set():
                try:
                    posq.put_nowait(None)
                except _queue.Full:
                    pass
            pos_thread.join()
        stop.set()
        try:
            while q.get_nowait() is not None:
                pass
        except _queue.Empty:
            pass
        producer.join()
        # cancel queued prefetches (in-flight reads finish and are dropped)
        refill_pool.shutdown(wait=False, cancel_futures=True)
        if merge_pool is not None:
            merge_pool.shutdown(wait=False, cancel_futures=True)
    if perr:
        raise perr[0]
    if out.total_rows == 0:
        write_postings_file(os.path.join(tmp_dir, POSTINGS_FILE),
                            {k: [] for k in POSTINGS_SCHEMA.names})
    else:
        out.close()
    if pos_out is not None:
        pos_out.close()
        # invariant: sidecar row i <-> dictionary row i. A short sidecar
        # means dropped windows (the bug class fixed above) and corrupts
        # every downstream reader — fail the merge, never publish.
        if pos_out.total_rows != out.total_rows:
            raise RuntimeError(
                f"positions sidecar rows ({pos_out.total_rows}) != "
                f"postings rows ({out.total_rows}) — merge window(s) "
                "dropped; refusing to produce a corrupt split")
        pp = os.path.join(tmp_dir, POSITIONS_FILE)
        if not wrote_any_pos and os.path.exists(pp):
            # no input term actually had positions: drop the empty sidecar
            os.unlink(pp)


def _merge_window(big: pa.Table) -> tuple[pa.Table, pa.Table, bool]:
    """Vectorized merge of one key window (all pieces of every term in the
    window are present). Returns (postings_rows, positions_rows, has_pos)."""
    import pyarrow.compute as pc

    from quickwit_ray.index.format import POSITIONS_SCHEMA, POSTINGS_SCHEMA

    order = pc.sort_indices(big, sort_keys=[("field", "ascending"),
                                            ("term", "ascending"),
                                            ("_ord", "ascending")])
    big = big.take(order).combine_chunks()
    big_pos = big.select(["positions", "pos_lens"])
    n = big.num_rows
    fcodes = np.asarray(pc.dictionary_encode(big["field"].combine_chunks()).indices)
    tcodes = np.asarray(pc.dictionary_encode(big["term"].combine_chunks()).indices)
    start = np.empty(n, bool)
    start[0] = True
    np.logical_or(fcodes[1:] != fcodes[:-1], tcodes[1:] != tcodes[:-1],
                  out=start[1:])
    term_starts = np.nonzero(start)[0]
    piece_off = np.asarray(big["_off"], np.int64)

    # block_last: += piece offset (one writable copy of the data buffer)
    bl_arr = big["block_last"].combine_chunks()
    bl_offs, bl_data = _binary_buffers(bl_arr)
    bl_i32 = np.frombuffer(bl_data, np.int32,
                           count=int(bl_offs[-1]) // 4).copy()
    bl_counts = np.diff(bl_offs) // 4
    bl_i32 += np.repeat(piece_off, bl_counts).astype(np.int32)
    # last global doc id of each piece (for first-delta patching)
    has_blocks = bl_counts > 0
    last_global = np.zeros(n, np.int64)
    last_idx = (bl_offs[1:] // 4) - 1
    last_global[has_blocks] = bl_i32[last_idx[has_blocks]]

    # doc_ids: patch each piece's first delta
    doc_arr = big["doc_ids"].combine_chunks()
    doc_offs, doc_data = _binary_buffers(doc_arr)
    doc_i32 = np.frombuffer(doc_data, np.int32,
                            count=int(doc_offs[-1]) // 4).copy()
    nonempty = np.diff(doc_offs) > 0
    first_idx = doc_offs[:-1] // 4
    prev_last = np.zeros(n, np.int64)
    prev_last[1:] = last_global[:-1]
    prev_last[term_starts] = 0
    is_start = start
    base = np.where(is_start, piece_off, piece_off - prev_last + 0)
    # first_global_delta = first_local + off - prev_last (0 at term start)
    sel = nonempty
    patched = (doc_i32[first_idx[sel]].astype(np.int64)
               + np.where(is_start[sel], piece_off[sel],
                          piece_off[sel] - prev_last[sel]))
    doc_i32[first_idx[sel]] = patched.astype(np.int32)
    _ = base

    # tfs: mixed empty/non-empty pieces within a term need materialization
    tf_arr = big["tfs"].combine_chunks()
    tf_offs, tf_data = _binary_buffers(tf_arr)
    tf_lens = np.diff(tf_offs)
    term_ends = np.append(term_starts[1:], n)
    has_tf_per_term = np.add.reduceat(
        (tf_lens > 0).astype(np.int64), term_starts)
    pieces_per_term = term_ends - term_starts
    mixed = (has_tf_per_term > 0) & (has_tf_per_term < pieces_per_term)
    if mixed.any():
        # rare (fields changed record option between splits): fill ones
        tf_bytes = []
        dfs_piece = np.asarray(big["df"], np.int64)
        tf_py = tf_arr.to_pylist()
        for ti in np.nonzero(mixed)[0]:
            parts = []
            for i in range(term_starts[ti], term_ends[ti]):
                parts.append(tf_py[i] if tf_lens[i] else
                             np.ones(dfs_piece[i], np.uint32).tobytes())
            tf_bytes.append(b"".join(parts))
        tfs_col_fixup = dict(zip(np.nonzero(mixed)[0].tolist(), tf_bytes))
    else:
        tfs_col_fixup = {}

    out_cols = {
        "field": big["field"].combine_chunks().take(pa.array(term_starts)),
        "term": big["term"].combine_chunks().take(pa.array(term_starts)),
        "df": pa.array(np.add.reduceat(np.asarray(big["df"], np.int64),
                                       term_starts).astype(np.int32)),
        "max_tf": pa.array(np.maximum.reduceat(
            np.asarray(big["max_tf"], np.int64), term_starts).astype(np.int32)),
        "doc_ids": _collapsed_binary(doc_arr, term_starts,
                                     pa.py_buffer(doc_i32.tobytes())),
        "tfs": _collapsed_binary(tf_arr, term_starts),
        "block_last": _collapsed_binary(bl_arr, term_starts,
                                        pa.py_buffer(bl_i32.tobytes())),
        "block_max_tf": _collapsed_binary(big["block_max_tf"].combine_chunks(),
                                          term_starts),
        "block_lens": _collapsed_binary(big["block_lens"].combine_chunks(),
                                        term_starts),
        "block_min_norm": _collapsed_binary(
            big["block_min_norm"].combine_chunks(), term_starts),
    }
    table = pa.table(out_cols, schema=POSTINGS_SCHEMA)
    if tfs_col_fixup:
        tf_list = table["tfs"].to_pylist()
        for ti, b in tfs_col_fixup.items():
            tf_list[ti] = b
        table = table.set_column(table.column_names.index("tfs"), "tfs",
                                 pa.array(tf_list, pa.binary()))
    pos_col = _collapsed_binary(big_pos["positions"].combine_chunks(), term_starts)
    ptable = pa.table(
        {"positions": pos_col,
         "pos_lens": _collapsed_binary(big_pos["pos_lens"].combine_chunks(),
                                       term_starts)},
        schema=POSITIONS_SCHEMA)
    has_pos = bool(pa.compute.max(pa.compute.binary_length(pos_col)).as_py() or 0)
    return table, ptable, has_pos


MAX_DOCSTORE_SEGMENTS = 32


def _split_docstore_units(split_dir: str, footer: dict,
                          num_docs: int) -> list[dict]:
    """Ordered doc-store units of one source split — shared resolution
    with SplitReader.docstore_units (format.resolve_docstore_units)."""
    from quickwit_ray.index.format import resolve_docstore_units

    return resolve_docstore_units(split_dir, footer, num_docs)


def _link_or_copy(src: str, dst: str) -> None:
    from quickwit_ray import storage

    if os.path.exists(dst):
        os.remove(dst)  # retried staged merge
    if storage.is_object_uri(src):
        # object storage has no hardlinks: stacking degrades to a byte
        # download (the reference's merge split downloader does the same
        # GET; the payload is still never re-encoded)
        storage.download_file(src, dst)
        return
    try:
        os.link(src, dst)
    except OSError:  # cross-device / fs without hardlinks
        import shutil as _sh

        _sh.copyfile(src, dst)


def _stack_docstores(split_dirs: list[str], footers: list[dict],
                     counts: list[int], tmp_dir: str) -> Optional[list[dict]]:
    """Doc-store *stacking* (tantivy's merge fast path: stored fields are
    appended as already-compressed blocks, never re-encoded — tantivy
    store/writer.rs stack()). The analog here: hardlink every source
    doc-store unit (parquet file + framed blob files) into the merged
    split as an ordered segment; readers map doc ordinals across
    segments (SplitReader.docstore_units).

    Returns the footer ``docstore_segments`` entries, or None when the
    sources are not uniformly stackable (a split without a doc store
    needs null placeholder rows) and the caller must fall back to the
    consolidating rewrite.

    Unit counts are capped: a merge whose sources carry more than
    MAX_DOCSTORE_SEGMENTS units rewrites instead, consolidating to one
    unit — so alternate merge levels re-encode and point reads never
    walk an unbounded segment list."""
    from quickwit_ray.index.format import _artifact_exists as _aex

    pieces: list[dict] = []
    for d, f, nd in zip(split_dirs, footers, counts):
        sub = _split_docstore_units(d, f, nd)
        if (not sub or sum(u["num_docs"] for u in sub) != nd
                or not all(_aex(u["parquet"])
                           for u in sub if u["parquet"])
                or not all(_aex(b["file"])
                           for u in sub for b in u["blobs"])):
            return None  # placeholder rows needed -> rewrite path
        pieces.extend(sub)
    if len(pieces) > MAX_DOCSTORE_SEGMENTS:
        return None
    entries = []
    for i, u in enumerate(pieces):
        entry: dict = {"num_docs": u["num_docs"]}
        if u["parquet"]:
            name = f"docstore-seg-{i:05d}.parquet"
            _link_or_copy(u["parquet"], os.path.join(tmp_dir, name))
            entry["file"] = name
        blobs = []
        for k, b in enumerate(u["blobs"]):
            name = f"docblobs-{i:05d}-{k:02d}.bin"
            _link_or_copy(b["file"], os.path.join(tmp_dir, name))
            blobs.append(dict(b, file=name))
        if blobs:
            entry["blobs"] = blobs
        entries.append(entry)
    return entries


def _consolidate_docstores_framecopy(
        split_dirs: list[str], footers: list[dict], counts: list[int],
        tmp_dir: str) -> Optional[list[dict]]:
    """Unit-count-overflow consolidation WITHOUT re-encoding the blob
    payloads (the fat half of a web-page doc store): every source unit's
    framed blob file byte-copies into one output at the zstd-frame level
    (format.concat_blob_files, QWRBLOB2 per-frame row grid); only the
    thin parquet part re-encodes. Store-less sources contribute all-null
    placeholder rows. Returns footer ``docstore_blobs`` specs, or None
    when the sources disagree on which columns are blobbed (mixed
    inline/blob layouts) — the caller then runs the full re-encoding
    rewrite."""
    from quickwit_ray.index.format import (
        DOCSTORE_FILE,
        concat_blob_files,
        docstore_row_group_size,
    )

    flat: list[dict] = []
    for d, f, nd in zip(split_dirs, footers, counts):
        sub = _split_docstore_units(d, f, nd)
        if not sub:
            flat.append({"parquet": None, "num_docs": nd, "blobs": ()})
            continue
        from quickwit_ray.index.format import _artifact_exists as _aex

        if (sum(u["num_docs"] for u in sub) != nd
                or not all(_aex(u["parquet"])
                           for u in sub if u["parquet"])
                or not all(_aex(b["file"])
                           for u in sub for b in u["blobs"])):
            return None
        flat.extend(sub)
    real = [u for u in flat if u["parquet"] or u["blobs"]]
    if not real:
        return None  # no doc store anywhere: nothing to consolidate
    blob_sets = {tuple(sorted((b["column"], b.get("type", "string"))
                              for b in u["blobs"])) for u in real}
    if len(blob_sets) != 1:
        return None  # a column is inline in one unit, blobbed in another

    written: list[str] = []
    try:
        specs: list[dict] = []
        for i, b0 in enumerate(real[0]["blobs"]):
            col = b0["column"]
            vt = b0.get("type", "string")
            srcs: list[tuple[Optional[str], int]] = []
            for u in flat:
                if u["blobs"]:
                    bf = next(bb for bb in u["blobs"]
                              if bb["column"] == col)
                    srcs.append((bf["file"], u["num_docs"]))
                else:
                    srcs.append((None, u["num_docs"]))
            fn = f"docblobs-{i:02d}.bin"
            out_path = os.path.join(tmp_dir, fn)
            written.append(out_path)
            nrows = concat_blob_files(srcs, out_path)
            specs.append({"column": col, "file": fn, "type": vt,
                          "rows_per_frame": 0, "num_rows": nrows})
        from quickwit_ray.index.format import (
            _open_parquet as _opq,
            _read_parquet as _rpq,
        )

        schemas = [_opq(u["parquet"]).schema_arrow for u in flat
                   if u["parquet"]]
        if schemas:
            unified = pa.unify_schemas(schemas, promote_options="default")
            parts = []
            for u in flat:
                if u["parquet"]:
                    parts.append(_rpq(u["parquet"]))
                else:
                    parts.append(pa.table(
                        {f.name: pa.nulls(u["num_docs"], f.type)
                         for f in unified}, schema=unified))
            big = pa.concat_tables(parts, promote_options="default")
            pq.write_table(big, os.path.join(tmp_dir, DOCSTORE_FILE),
                           compression="zstd", compression_level=1,
                           row_group_size=docstore_row_group_size(big))
        return specs
    except (ValueError, OSError):
        # structural mismatch (row-count drift, torn file): remove the
        # partial outputs — tmp_dir becomes the published split dir, so
        # leftovers must not leak — and fall back to the full rewrite
        for p in written:
            if os.path.exists(p):
                os.remove(p)
        return None


def execute_merge(index_dir: str, split_ids: list[str], index_id: str,
                  num_merge_ops: int) -> SplitMetadata:
    """Merge N split artifact dirs into one new split dir (stateless; safe
    to retry — output is written staged then atomically renamed)."""
    import json

    from quickwit_ray import storage

    split_dirs = [storage.join(index_dir, "splits", sid) for sid in split_ids]
    new_id = deterministic_split_id("merge:" + ",".join(split_ids), num_merge_ops)
    out_dir = storage.join(index_dir, "splits", new_id)
    tmp_dir = storage.staging_dir(out_dir)
    os.makedirs(tmp_dir, exist_ok=True)

    footers = []
    for d in split_dirs:
        footers.append(json.loads(
            storage.read_bytes(os.path.join(d, "footer.json"))))
    counts = [f["num_docs"] for f in footers]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    total_docs = int(sum(counts))

    # ---- postings: fully-vectorized byte-level concatenation.
    # Key facts exploited:
    #   * delta encoding is invariant under a constant doc-id offset except
    #     the FIRST delta of each piece (patched from block metadata — the
    #     last global doc id of a piece is its last block_last + offset);
    #   * merged row order = input rows sorted by (field, term, split_ord),
    #     so every output binary column is the TAKEN input column with
    #     intra-term offsets collapsed — zero-copy except two int32 buffer
    #     patch passes (piece first-deltas, block_last += offset).
    # Block layout after merge = concatenated piece blocks (<= BLOCK_SIZE
    # each; the reader treats them as contiguous (last_doc, max_tf) ranges).
    _merge_postings_vectorized(split_dirs, offsets, tmp_dir)

    # ---- per-doc tables: plain concatenation in split order. A split may
    # lack a per-doc file entirely (e.g. built from input with no fast
    # column): splice in a placeholder of that split's num_docs rows so the
    # concatenated table keeps the row-index == doc-id invariant (fieldnorm
    # placeholders are zeros — norm id 0 = length 0 — because the reader
    # casts the column straight to uint8; fast/docstore placeholders are
    # nulls).
    docstore_segments = _stack_docstores(split_dirs, footers, counts, tmp_dir)
    rewrite_blob_specs: list[dict] = []
    for fname in (FIELDNORMS_FILE, FASTFIELDS_FILE, DOCSTORE_FILE):
        if fname == DOCSTORE_FILE and docstore_segments is not None:
            continue  # stacked without re-encoding (segment hardlinks)
        if fname == DOCSTORE_FILE:
            # frame-copy fast path first: consolidates to one unit without
            # decompressing/re-encoding the blob payloads
            fast = _consolidate_docstores_framecopy(
                split_dirs, footers, counts, tmp_dir)
            if fast is not None:
                rewrite_blob_specs = fast
                continue
            # consolidating rewrite: read each source's FULL stored table
            # (parquet part + scanned blob columns), concat with null
            # placeholders for store-less sources, re-emit as one unit
            from quickwit_ray.index.format import (
                SplitReader as _SR,
                write_docstore,
            )

            tables = []
            for d, f, nd in zip(split_dirs, footers, counts):
                if _split_docstore_units(d, f, nd):
                    tables.append(_SR(d).read_docstore_table())
                else:
                    tables.append(None)
            real = [t for t in tables if t is not None]
            if not real:
                continue
            unified = pa.unify_schemas([t.schema for t in real],
                                       promote_options="default")
            parts = [t if t is not None else
                     pa.table({fld.name: pa.nulls(nd, fld.type)
                               for fld in unified}, schema=unified)
                     for t, nd in zip(tables, counts)]
            big_ds = pa.concat_tables(parts, promote_options="default")
            rewrite_blob_specs = write_docstore(tmp_dir, big_ds)
            continue
        from quickwit_ray.index.format import (
            _artifact_exists as _aex,
            _open_parquet as _opq,
            _read_parquet as _rpq,
        )

        paths = [os.path.join(d, fname) for d in split_dirs]
        present = [p for p in paths if _aex(p)]
        if not present:
            continue
        unified = pa.unify_schemas(
            [_opq(p).schema_arrow for p in present],
            promote_options="default")
        parts = []
        for p, nd in zip(paths, counts):
            if _aex(p):
                parts.append(_rpq(p))
            elif fname == FIELDNORMS_FILE:
                parts.append(pa.table(
                    {f.name: pa.array(np.zeros(nd, np.uint8), f.type)
                     for f in unified}, schema=unified))
            else:
                parts.append(pa.table(
                    {f.name: pa.nulls(nd, f.type) for f in unified},
                    schema=unified))
        pq.write_table(pa.concat_tables(parts, promote_options="default"),
                       os.path.join(tmp_dir, fname),
                       compression="zstd", compression_level=1,
                       # fieldnorms/fastfields are read whole (columnar)
                       row_group_size=None)

    # ---- footer: union of stats
    field_stats: dict[str, dict[str, float]] = {}
    for f in footers:
        for fld, st in f.get("field_stats", {}).items():
            tgt = field_stats.setdefault(fld, {"total_tokens": 0, "num_docs": 0})
            tgt["total_tokens"] += st.get("total_tokens", 0)
            tgt["num_docs"] += st.get("num_docs", 0)
    for st in field_stats.values():
        st["avgdl"] = float(np.float32(st["total_tokens"])
                            / np.float32(max(st["num_docs"], 1)))
    t_starts = [f["time_range"][0] for f in footers if f.get("time_range", [None])[0] is not None]
    t_ends = [f["time_range"][1] for f in footers if f.get("time_range", [None, None])[1] is not None]
    tags: dict[str, list[str]] = {}
    tag_fields = set.intersection(*[set(f.get("tags", {})) for f in footers]) if footers else set()
    for tf_ in tag_fields:
        vals = set()
        for f in footers:
            vals.update(f["tags"][tf_])
        if len(vals) <= MAX_VALUES_PER_TAG_FIELD:
            tags[tf_] = sorted(vals)
    # field-caps metadata: union of per-source (name, type) entries,
    # OR-ing searchable/aggregatable (list_fields.rs merge)
    fm_acc: dict[tuple[str, str], list[bool]] = {}
    for f in footers:
        for e in f["fields"]:
            cur = fm_acc.setdefault((e["name"], e["type"]), [False, False])
            cur[0] |= bool(e["searchable"])
            cur[1] |= bool(e["aggregatable"])
    footer = {
        "split_id": new_id,
        "index_id": index_id,
        "num_docs": total_docs,
        "field_stats": field_stats,
        "time_range": [min(t_starts) if t_starts else None,
                       max(t_ends) if t_ends else None],
        "tags": tags,
        "fields": [{"name": n, "type": t, "searchable": s, "aggregatable": a}
                   for (n, t), (s, a) in sorted(fm_acc.items())],
    }
    if docstore_segments is not None:
        footer["docstore_segments"] = docstore_segments
    elif rewrite_blob_specs:
        footer["docstore_blobs"] = rewrite_blob_specs
    write_footer(tmp_dir, footer)
    storage.finalize_dir(tmp_dir, out_dir)
    return SplitMetadata(
        split_id=new_id,
        index_id=index_id,
        num_docs=total_docs,
        uncompressed_docs_size_in_bytes=sum(
            f.get("uncompressed_bytes", 0) for f in footers),
        source_partition_id="merge",
        time_range_start=min(t_starts) if t_starts else None,
        time_range_end=max(t_ends) if t_ends else None,
        create_timestamp=time.time(),
        tags=tags,
        num_merge_ops=num_merge_ops,
        field_stats=field_stats,
    )


def execute_delete_merge(index_dir: str, splits: list[SplitMetadata],
                         index_id: str, num_merge_ops: int,
                         tasks: list[dict], last_opstamp: int,
                         config) -> Optional[SplitMetadata]:
    """Delete-and-merge (reference merge_executor.rs:342-460): when a
    planned merge's inputs lag the delete-task opstamp, fold the pending
    delete queries into the compaction itself — evaluate each input's
    lagging queries, then rebuild ONE merged split from the surviving
    docstore rows — so deletion and merging share a single write instead
    of a standalone rewrite followed by a byte-level merge. Requires the
    indexed fields to be stored (same docstore-rebuild constraint as
    index/deletes.py). Returns None when every doc is deleted."""
    from quickwit_ray.index.format import DOCSTORE_FILE, SplitReader
    from quickwit_ray.index.writer import SplitBuilder
    from quickwit_ray.search.parser import parse_query
    from quickwit_ray.search.split_search import SplitSearcher

    parts = []
    for sm in splits:
        sdir = os.path.join(index_dir, "splits", sm.split_id)
        reader = SplitReader(sdir)
        pending = [t for t in tasks if t["opstamp"] > sm.delete_opstamp]
        mask = np.zeros(reader.num_docs, bool)
        if pending:
            searcher = SplitSearcher(reader, config.doc_mapping)
            for t in pending:
                node = parse_query(t["query"],
                                   config.doc_mapping.default_search_fields)
                m, _ = searcher.eval(node, False)
                mask |= m
        docstore = reader.read_docstore_table()
        kept = docstore.filter(pa.array(~mask))
        if kept.num_rows:
            parts.append(kept)
    if not parts:
        return None
    merged = pa.concat_tables(parts, promote_options="default")
    builder = SplitBuilder(
        config, index_dir,
        source_partition_id="merge-delete:" + ",".join(s.split_id
                                                       for s in splits),
        seq=num_merge_ops)
    builder.add_batch(merged)
    sm = builder.flush()
    if sm is not None:
        sm.num_merge_ops = num_merge_ops
        sm.delete_opstamp = last_opstamp
    return sm


def run_merge_pipeline(index_dir: str, *, execution: str = "local",
                       max_concurrency: Optional[int] = None,
                       max_rounds: int = 16,
                       max_attempts_per_op: int = 2,
                       task_fn=None) -> int:
    """Driver merge loop (MergePlanner analog): compute ops from the
    policy over published splits, execute them (smallest-first, bounded
    concurrency — merge_scheduler_service.rs:81-113), publish replacements,
    repeat until stable. Under ``execution="ray"`` the scheduler is EAGER
    (the reference's planner is incremental — it re-plans on every split
    publish, merge_planner.rs): a sliding in-flight set via ``ray.wait``,
    each result published on completion, and a re-plan after every publish
    so a level-N+1 merge starts the moment its inputs exist instead of
    waiting for the whole level-N wave. Returns number of merges."""
    manifest = Manifest(index_dir)
    config = IndexConfig.from_json(manifest.index_config_json)
    policy = make_policy(config.settings.merge_policy,
                         config.settings.split_num_docs_target)
    if policy is None:
        return 0
    total = 0

    def _plan(claimed: set) -> tuple[list, int]:
        """One planner pass over published splits not claimed by queued or
        in-flight ops. Delete-at-merge ops (inputs lagging the delete
        opstamp fold pending delete queries into the compaction rewrite —
        one write) run inline, counted in the returned int."""
        nonlocal_total = 0
        splits = [s for s in manifest.published_splits()
                  if s.split_id not in claimed]
        ops = policy.operations(splits)
        ops.sort(key=lambda op: op.num_docs)  # smallest-merge-first
        last_del = manifest.last_delete_opstamp
        if last_del:
            del_tasks = manifest.delete_tasks
            plain = []
            for op in ops:
                if not any(s.delete_opstamp < last_del for s in op.splits):
                    plain.append(op)
                    continue
                n_ops = max(s.num_merge_ops for s in op.splits) + 1
                new_sm = execute_delete_merge(index_dir, list(op.splits),
                                              config.index_id, n_ops,
                                              del_tasks, last_del, config)
                ids = [s.split_id for s in op.splits]
                if new_sm is None:
                    manifest.mark_for_deletion(ids)
                    nonlocal_total += 1
                else:
                    try:
                        manifest.publish([new_sm], replaced_split_ids=ids)
                        nonlocal_total += 1
                    except StaleReplaceError:
                        pass  # inputs rewritten concurrently; re-planned
            ops = plain
        for op in ops:
            claimed.update(s.split_id for s in op.splits)
        return ops, nonlocal_total

    def _publish(op, new_sm) -> bool:
        # a plain merge preserves the inputs' delete progress: the output
        # is only as deleted-up-to as its least-advanced input
        new_sm.delete_opstamp = min(s.delete_opstamp for s in op.splits)
        try:
            manifest.publish([new_sm],
                             replaced_split_ids=[s.split_id
                                                 for s in op.splits])
        except StaleReplaceError:
            # another writer (standalone delete-task rewrite, retention)
            # replaced one of our inputs mid-merge: landing this output
            # would double-count the input's docs. Discard it — the
            # output dir is unpublished and GC sweeps it; the next
            # planner pass sees the current state and re-plans.
            return False
        return True

    if execution == "ray":
        import ray

        runner = task_fn or execute_merge

        @ray.remote(num_cpus=1)
        def _do(ids, n_ops):
            return runner(index_dir, ids, config.index_id, n_ops)

        # bounded merge concurrency (merge_scheduler_service.rs default
        # num_cpus * 2/3) so merges never starve the rest of the node
        limit = max_concurrency or max(
            1, int(ray.cluster_resources().get("CPU", 3) * 2 // 3))
        pending: dict = {}   # future -> op
        claimed: set = set()  # input split ids of queued/in-flight ops
        queue: list = []
        attempts: dict = {}  # op input-id tuple -> tries so far
        replans_from_idle = 0  # planner passes with nothing in flight
        while True:
            while queue and len(pending) < limit:
                op = queue.pop(0)
                fut = _do.remote([s.split_id for s in op.splits],
                                 max(s.num_merge_ops for s in op.splits) + 1)
                pending[fut] = op
            if not pending:
                if replans_from_idle >= max_rounds:
                    break
                replans_from_idle += 1
                ops, n_del = _plan(claimed)
                total += n_del
                if not ops and not n_del:
                    break  # stable
                queue.extend(ops)
                continue
            done, _ = ray.wait(list(pending), num_returns=1)
            for f in done:
                op = pending.pop(f)
                try:
                    new_sm = ray.get(f)
                except Exception:
                    # a failed merge (preempted worker, transient I/O)
                    # must not kill the pipeline: execute_merge is
                    # retry-safe (staged dir + atomic rename), so requeue
                    # the op with a bounded attempt budget — the
                    # reference's planner likewise just sees the inputs
                    # still unmerged and plans them again
                    key = tuple(sorted(s.split_id for s in op.splits))
                    attempts[key] = attempts.get(key, 1) + 1
                    if attempts[key] > max_attempts_per_op:
                        raise
                    queue.append(op)  # inputs stay claimed while queued
                    continue
                landed = _publish(op, new_sm)
                claimed.difference_update(s.split_id for s in op.splits)
                if landed:
                    total += 1
            # eager re-plan: the publish may have completed a higher
            # level's input set (claims only fresh splits, so sound)
            ops, n_del = _plan(claimed)
            total += n_del
            queue.extend(ops)
        return total

    for _ in range(max_rounds):
        ops, n_del = _plan(set())
        total += n_del
        if not ops and not n_del:
            break
        for op in ops:
            new_sm = execute_merge(index_dir, [s.split_id for s in op.splits],
                                   config.index_id,
                                   max(s.num_merge_ops for s in op.splits) + 1)
            if _publish(op, new_sm):
                total += 1
    return total
