"""Index build pipeline — Ray-Data-native re-expression of the reference
indexing pipeline (`quickwit-indexing/src/actors/indexing_pipeline.rs`
Source → DocProcessor → Indexer → IndexSerializer → Packager → Uploader →
Sequencer → Publisher).

Shape: one input Parquet file = one source partition = one unit of
lineage (the reference's per-source-partition checkpoint,
`checkpoint.rs:170-188`). The pipeline is

    from_items(pending_partitions)
      -> map_batches(index_partition_fn, batch_size=1)   # fan-out, no shuffle
      -> driver streams manifest rows, committing each partition atomically

Each task STREAMS its file through a SplitBuilder workbench
(pyarrow iter_batches, bounded memory), flushing immutable split dirs at
`split_num_docs_target` / heap thresholds, and returns one manifest row
per split. Indexing therefore needs NO shuffle at all: partitioning
comes from the input layout, and ≥4× more input partitions than cores
keeps every core busy (scaling-efficiency design, SURVEY.md §4).

Doc-routing partitioning (doc_mapping.partition_key,
`routing_expression/mod.rs:107-180`) is applied inside the task: rows of
a batch are routed to per-partition workbenches capped at
max_num_partitions with an OTHER overflow partition (indexer.rs:142-179).

Resumability: the driver skips partitions already in the manifest
checkpoint table; a killed run leaves at most per-partition garbage
(.staged dirs / unreferenced splits) that `garbage_collect()` removes.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass
from typing import Any, Iterator, Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from quickwit_ray.config import IndexConfig
from quickwit_ray.index.writer import SplitBuilder
from quickwit_ray.state.manifest import Manifest, SplitMetadata

OTHER_PARTITION = -1  # overflow partition id (indexer.rs:154-176)


@dataclass
class BuildStats:
    num_docs: int = 0
    num_splits: int = 0
    num_partitions: int = 0
    elapsed_sec: float = 0.0
    input_bytes: int = 0

    @property
    def docs_per_sec(self) -> float:
        return self.num_docs / self.elapsed_sec if self.elapsed_sec else 0.0

    @property
    def mb_per_sec(self) -> float:
        return self.input_bytes / 1e6 / self.elapsed_sec if self.elapsed_sec else 0.0


def _route_partition(batch: pa.Table, key: str, cap: int) -> np.ndarray:
    """Routing expr analog: partition = hash(key value) % cap, overflow ->
    OTHER. (Reference uses SipHash on the routing expr; any stable hash
    preserves the semantics — documented divergence: hash function.)
    Hashes through the PINNED vendored qhash1 (functions/stablehash.py),
    not pandas, so routing survives library upgrades."""
    from quickwit_ray.functions.stablehash import hash_strings

    vals = batch[key].to_pandas().astype(str)
    h = hash_strings(vals.to_numpy(dtype=object))
    return (h % np.uint64(cap)).astype(np.int64)


def read_batches(config: IndexConfig, path: str,
                 read_batch_size: int) -> Iterator[pa.Table]:
    """A source file's batches as every build reads them. The read keeps
    only the columns indexed (any type), stored (and not excluded
    binaries), fast, or needed for routing/timestamp/tags; every column
    in dynamic mode."""
    mapping = config.doc_mapping
    pf = pq.ParquetFile(path)
    cols = list(pf.schema_arrow.names)
    if mapping.mode != "dynamic":
        store_bin = config.settings.store_binary_columns
        needed = set()
        for f in mapping.field_mappings:
            stored = f.stored and (store_bin or f.type != "bytes")
            if f.indexed or stored or f.fast or f.tag:
                needed.add(f.name)
            needed.update(f.sources)
        if mapping.timestamp_field:
            needed.add(mapping.timestamp_field)
        if mapping.partition_key:
            needed.add(mapping.partition_key)
        # dotted field names ("meta.author") map to struct children:
        # their root struct column must be read
        roots = {n.split(".", 1)[0] for n in needed if "." in n}
        cols = [c for c in cols if c in needed or c in roots]
    for rb in pf.iter_batches(batch_size=read_batch_size, columns=cols):
        yield pa.Table.from_batches([rb])


class IndexPartitionTask:
    """One call indexes one source partition (file).

    Run per partition by `index_partition_fn` (the Ray Data stage) and
    in-process by `execution="local"`; returns the manifest rows (one per
    flushed split) as an Arrow-friendly dict so the driver can commit
    them.
    """

    def __init__(self, config_json: dict[str, Any], index_dir: str,
                 read_batch_size: int = 8192, transform=None):
        self.config = IndexConfig.from_json(config_json)
        self.index_dir = index_dir
        self.read_batch_size = read_batch_size
        # VRL transform (actors/vrl_processing.rs): a str compiles as a
        # VRL script (functions/vrl.py runs the reference's TransformConfig
        # scripts of the documented subset); a callable is the raw
        # fn(pa.Table) -> pa.Table batch hook. Scripts stay strings until
        # first use so the task pickles to Ray workers.
        self.transform = transform

    def __call__(self, item_batch: dict[str, np.ndarray]) -> dict[str, list]:
        out_rows: list[SplitMetadata] = []
        for path in [str(p) for p in item_batch["path"]]:
            out_rows.extend(self._index_one(path))
        return {
            "split_json": [_sm_to_json_str(s) for s in out_rows],
            "source_partition_id": [s.source_partition_id for s in out_rows],
        }

    def _index_one(self, path: str) -> list[SplitMetadata]:
        mapping = self.config.doc_mapping
        source_partition_id = path
        splits: list[SplitMetadata] = []
        # workbench: routing partition -> (builder, seq counter)
        bench: dict[int, SplitBuilder] = {}
        seqs: dict[int, int] = {}

        def get_builder(pid: int) -> SplitBuilder:
            b = bench.get(pid)
            if b is None:
                seqs[pid] = seqs.get(pid, 0)
                b = SplitBuilder(self.config, self.index_dir, source_partition_id,
                                 seqs[pid], partition_id=pid)
                bench[pid] = b
            return b

        def roll(pid: int) -> None:
            b = bench.pop(pid)
            sm = b.flush()
            if sm is not None:
                splits.append(sm)
            seqs[pid] += 1

        for batch in read_batches(self.config, path, self.read_batch_size):
            if self.transform is not None:
                if isinstance(self.transform, str):  # compile once, in
                    # the worker (closures don't pickle; scripts do)
                    from quickwit_ray.functions.vrl import (
                        vrl_table_transform,
                    )

                    self.transform = vrl_table_transform(self.transform)
                batch = self.transform(batch)
            if mapping.partition_key:
                pids = _route_partition(batch, mapping.partition_key,
                                        mapping.max_num_partitions)
                for pid in np.unique(pids):
                    sub = batch.filter(pa.array(pids == pid))
                    b = get_builder(int(pid))
                    b.add_batch(sub)
                    if b.should_flush():
                        roll(int(pid))
            else:
                b = get_builder(0)
                # split a too-large batch across split boundaries
                offset = 0
                seal_docs = (self.config.settings.commit_docs_threshold
                             or self.config.settings.split_num_docs_target)
                while offset < batch.num_rows:
                    room = seal_docs - b.num_docs
                    sub = batch.slice(offset, room)
                    b.add_batch(sub)
                    offset += sub.num_rows
                    if b.should_flush():
                        roll(0)
                        b = get_builder(0)
        for pid in list(bench):
            roll(pid)
        return splits


def index_partition_fn(item_batch: dict[str, np.ndarray], *, config_json: dict,
                       index_dir: str, read_batch_size: int = 8192,
                       transform=None) -> dict[str, list]:
    """Stateless-task form of IndexPartitionTask (used with
    map_batches(fn, fn_kwargs=...)): tasks reuse Ray's warm worker pool, so
    repeated builds skip actor cold-start entirely."""
    task = IndexPartitionTask(config_json, index_dir, read_batch_size, transform)
    return task(item_batch)


def _sm_to_json_str(sm: SplitMetadata) -> str:
    import json

    return json.dumps(sm.to_json())


def resolve_input(inputs: str | list[str]) -> list[str]:
    if isinstance(inputs, str):
        if os.path.isdir(inputs):
            return sorted(glob.glob(os.path.join(inputs, "*.parquet")))
        return sorted(glob.glob(inputs)) or [inputs]
    return list(inputs)


def build_index(inputs: str | list[str], index_dir: str, config: IndexConfig,
                *, concurrency: Optional[int] = None,
                read_batch_size: int = 8192,
                execution: str = "ray", transform=None) -> BuildStats:
    """Build (or resume building) an index over Parquet inputs.

    Driver-side: manifest bookkeeping + streaming commit loop only; all
    doc work happens in Ray tasks (`execution="local"` runs the same task
    code in-process for tests / tiny inputs).
    """
    import json as _json

    if execution not in ("local", "ray"):
        raise ValueError(f"unknown build execution {execution!r}")
    t0 = time.time()
    paths = resolve_input(inputs)
    manifest = Manifest(index_dir)
    if manifest.index_config_json is None:
        manifest.create(config.to_json())
    pending = [p for p in paths if not manifest.is_partition_committed(p)]
    stats = BuildStats(num_partitions=len(pending))

    pending_commits: dict[str, list[SplitMetadata]] = {}

    def commit_batch(split_jsons: list[str], flush: bool = False) -> None:
        # a task returns all splits of its partition in one output batch,
        # so every partition seen here is complete; buffer a handful of
        # completed partitions per atomic manifest write (fewer fsyncs,
        # still exactly-once per partition)
        for sj in split_jsons:
            sm = SplitMetadata.from_json(_json.loads(sj))
            pending_commits.setdefault(sm.source_partition_id, []).append(sm)
        if len(pending_commits) >= 8 or (flush and pending_commits):
            for sms in pending_commits.values():
                stats.num_docs += sum(s.num_docs for s in sms)
                stats.num_splits += len(sms)
            manifest.publish_many(pending_commits)
            pending_commits.clear()

    if pending and execution == "local":
        task = IndexPartitionTask(config.to_json(), index_dir, read_batch_size,
                                  transform)
        for p in pending:
            out = task({"path": np.asarray([p], object)})
            commit_batch(out["split_json"])
    elif pending:
        import ray
        import ray.data

        ds = ray.data.from_items([{"path": p} for p in pending])
        kwargs = dict(config_json=config.to_json(), index_dir=index_dir,
                      read_batch_size=read_batch_size, transform=transform)
        # stateless tasks: elastic, reuse warm worker processes (no
        # per-dataset actor cold start); the tokenizer state they need is
        # module-level compiled regexes
        out = ds.map_batches(index_partition_fn, fn_kwargs=kwargs,
                             batch_size=1, num_cpus=1,
                             concurrency=concurrency)
        # stream results; commit completed source partitions as they land
        for b in out.iter_batches(batch_size=None, batch_format="pyarrow"):
            commit_batch(b["split_json"].to_pylist())
        commit_batch([], flush=True)
    if pending:
        commit_batch([], flush=True)
        # partitions that produced zero splits (empty files) still checkpoint
        leftover = {p: [] for p in pending if not manifest.is_partition_committed(p)}
        if leftover:
            manifest.publish_many(leftover)
    stats.input_bytes = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    stats.elapsed_sec = time.time() - t0
    return stats


def garbage_collect(index_dir: str, grace_period_secs: float = 0.0) -> list[str]:
    """Remove split dirs not referenced by the manifest as published, plus
    leftover .staged dirs (reference GC semantics,
    `garbage_collection.rs:106-220`)."""
    from quickwit_ray import storage

    manifest = Manifest(index_dir)
    keep = {s.split_id for s in manifest.published_splits()}
    removed = []
    split_root = storage.join(index_dir, "splits")
    if not storage.isdir(split_root):
        return removed
    now = time.time()
    for name in storage.listdir(split_root):
        p = storage.join(split_root, name)
        sid = name.removesuffix(".staged")
        if sid in keep and not name.endswith(".staged"):
            continue
        try:
            mt = storage.getmtime(p)
        except OSError:
            mt = 0.0
        if not mt:
            # object stores carry no mtime on directory PREFIXES —
            # without this, a freshly uploaded-but-not-yet-published
            # split dir would look infinitely old and be reaped before
            # its publish lands. Age = newest contained object (upload
            # completion time). A prefix that lists no objects is left
            # alone: a real store has none, and mock-s3's is a PUT that
            # has made its directory but not yet opened its object.
            try:
                objs = storage.listdir(p)
                if not objs:
                    continue
                mt = max(storage.getmtime(storage.join(p, f)) for f in objs)
            except OSError:
                mt = 0.0
        # the grace period protects IN-FLIGHT readers, so it runs from
        # the split's state transition (manifest update_timestamp — an
        # old split replaced a second ago gets its full grace), not just
        # the dir's creation mtime; legacy rows (ts 0.0) keep the mtime
        sm = manifest.splits.get(sid)
        if sm is not None:
            mt = max(mt, sm.update_timestamp)
        if now - mt >= grace_period_secs:
            storage.rmtree(p, ignore_errors=True)
            removed.append(name)
    # drop marked_for_deletion manifest rows whose files are gone
    dead = [s.split_id for s in manifest.splits.values()
            if s.split_state == "marked_for_deletion"
            and not storage.exists(storage.join(split_root, s.split_id))]
    if dead:
        manifest.delete_splits(dead)
    return removed


def apply_retention(index_dir: str, retention_secs: float,
                    now: Optional[float] = None) -> list[str]:
    """Retention policy (quickwit-janitor/src/retention_policy_execution.rs:
    39-100): mark splits whose time_range end predates now - retention for
    deletion. Returns the marked split ids; GC removes the artifacts."""
    manifest = Manifest(index_dir)
    now = time.time() if now is None else now
    cutoff_us = int((now - retention_secs) * 1_000_000)
    stale = [s.split_id for s in manifest.published_splits()
             if s.time_range_end is not None and s.time_range_end < cutoff_us]
    if stale:
        manifest.mark_for_deletion(stale)
    return stale
