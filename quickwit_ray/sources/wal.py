"""Ingest-v2 write-ahead-log ingestion (persist -> ack -> index -> truncate).

Re-expresses the reference's ingest v2 durability model
(`quickwit-ingest/src/ingest_v2/ingester.rs` — a router sends doc batches
to an ingester which PERSISTS them to a per-shard `mrecordlog` WAL and
only then acks the client; the indexing pipeline later consumes the shard
as a source, publishes splits with the shard position in the checkpoint,
and the WAL is truncated up to the published position) on this repo's
manifest checkpoints:

  * :class:`RecordLog` — a segmented append-only framed record log (the
    `mrecordlog` analog): frames of ``[u32 len][u32 crc32][payload]`` in
    ``seg-<first_position>.log`` files. Positions are record ordinals.
    The single WRITER repairs a torn tail at open (this log has exactly
    one writer — unlike the manifest log, whose readers must never
    truncate). ``truncate_upto`` deletes whole sealed segments; position
    continuity across a full truncation survives via a marker file.
  * :class:`IngestWal` — the ingester front: ``persist(docs)`` appends
    ONE framed ndjson record per doc batch to a round-robin-routed shard
    and fsyncs BEFORE returning — the ack point. A crash after an ack
    never loses the batch.
  * :func:`index_wal` — the indexing consumer: drives the existing
    queue-source wave machinery (`sources/queue.py::ingest_queue`, i.e.
    micro-batch planning, deterministic split ids, atomic
    splits+position publish) over a queue-contract adapter
    (:class:`WalQueueClient`, shards = partitions, committed position =
    manifest checkpoint ``wal:{shard}``), then truncates each shard's
    log up to its published position. A crash between publish and
    truncate only delays GC — replay skips committed positions.

Scale notes: the WAL is a per-ingester local-disk structure in the
reference; here each shard directory is independent, so shards can live
on different nodes' local disks and the consumer fans out one Ray task
per micro-batch exactly like the queue source.
"""

from __future__ import annotations

import glob
import json
import os
import struct
import zlib
from typing import Any, Iterator, Optional

import pyarrow as pa

_HDR = struct.Struct("<II")  # (payload_len, crc32(payload))
_SEG_GLOB = "seg-*.log"


def _seg_path(log_dir: str, first_pos: int) -> str:
    return os.path.join(log_dir, f"seg-{first_pos:020d}.log")


def _fsync_dir(path: str) -> None:
    """fsync a directory so entry creation/rename survives power loss
    (file fsync alone does not persist the new directory entry)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class RecordLog:
    """Segmented append-only framed record log; positions are ordinals.

    Single-writer: construct one writer per directory. Readers may scan
    concurrently (frames are append-only and crc-checked).
    """

    def __init__(self, log_dir: str, *, segment_bytes: int = 64 << 20,
                 repair: bool = False):
        """``repair=True`` is for the single WRITER only: it truncates a
        torn tail in the last segment at open. Readers/consumers MUST
        open with ``repair=False`` (default) — a concurrent reader that
        truncated the live segment under the writer would corrupt later
        acked frames; with repair off, a torn tail is merely not counted
        (it was never acked)."""
        self.log_dir = log_dir
        self.segment_bytes = int(segment_bytes)
        self.repair = bool(repair)
        os.makedirs(log_dir, exist_ok=True)
        self._segs: list[tuple[int, int, str]] = []  # (first_pos, count, path)
        self._fh = None
        self._cur_first = 0
        self._lock_fd: Optional[int] = None
        if self.repair:
            # the WRITER advertises liveness via a per-shard flock so a
            # concurrent truncation (index_wal GC) never unlinks the live
            # segment under it (round-3 ADVICE medium finding: a batch
            # persisted+acked between a consumer's scan and os.remove
            # would keep appending to an unlinked inode)
            self._lock_fd = os.open(
                os.path.join(log_dir, ".writer.lock"),
                os.O_CREAT | os.O_RDWR)
            try:
                import fcntl
                fcntl.flock(self._lock_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(self._lock_fd)
                self._lock_fd = None
                raise RuntimeError(
                    f"another writer holds the WAL at {log_dir}")
        self._scan()

    # -- open / repair -----------------------------------------------------

    def _scan(self) -> None:
        """Index existing segments; repair a torn tail in the LAST segment
        (only the last can be torn — rotation seals earlier files)."""
        paths = sorted(glob.glob(os.path.join(self.log_dir, _SEG_GLOB)))
        segs = []
        for i, path in enumerate(paths):
            first = int(os.path.basename(path)[4:-4])
            last = i == len(paths) - 1
            count = self._count_records(path, verify=last,
                                        repair=(self.repair and last))
            segs.append((first, count, path))
        self._segs = segs
        marker = os.path.join(self.log_dir, "truncated.json")
        if not segs and os.path.exists(marker):
            with open(marker) as f:
                self._cur_first = int(json.load(f)["next_pos"])
        elif segs:
            first, count, _ = segs[-1]
            self._cur_first = first + count

    @staticmethod
    def _count_records(path: str, *, verify: bool, repair: bool = False) -> int:
        """Count complete frames. ``verify`` crc-checks payloads and stops
        at the first torn frame (always on for the LAST segment — only it
        can be torn; sealed segments use a seek-only header walk).
        ``repair`` (writer only) additionally truncates the torn tail."""
        size = os.path.getsize(path)
        n, off = 0, 0
        with open(path, "rb") as f:
            while off + _HDR.size <= size:
                ln, crc = _HDR.unpack(f.read(_HDR.size))
                if off + _HDR.size + ln > size:
                    break  # partial payload
                if verify:
                    payload = f.read(ln)
                    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                        break  # torn frame: everything after is suspect
                else:
                    f.seek(ln, os.SEEK_CUR)
                off += _HDR.size + ln
                n += 1
        if repair and off < size:
            with open(path, "r+b") as f:
                f.truncate(off)
        return n

    # -- writer ------------------------------------------------------------

    def end_pos(self) -> int:
        return self._cur_first if not self._segs else (
            self._segs[-1][0] + self._segs[-1][1])

    def append(self, payload: bytes) -> int:
        """Append one record; returns its position. Not fsynced — call
        :meth:`sync` at the ack point."""
        pos = self.end_pos()
        if self._fh is None or self._fh_size() >= self.segment_bytes:
            self._rotate(pos)
        frame = _HDR.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
        self._fh.write(frame + payload)
        first, count, path = self._segs[-1]
        self._segs[-1] = (first, count + 1, path)
        return pos

    def _fh_size(self) -> int:
        return self._fh.tell() if self._fh else 0

    def _rotate(self, first_pos: int) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
        path = _seg_path(self.log_dir, first_pos)
        existed = os.path.exists(path)
        self._fh = open(path, "ab")
        self._fh.seek(0, os.SEEK_END)
        if not existed:
            # persist the new directory entry before anything is acked
            _fsync_dir(self.log_dir)
        if not self._segs or self._segs[-1][2] != path:
            self._segs.append((first_pos, self._count_if_existing(path), path))

    @staticmethod
    def _count_if_existing(path: str) -> int:
        # re-opening the live segment of a prior writer (restart path)
        if os.path.getsize(path) == 0:
            return 0
        return RecordLog._count_records(path, verify=True)

    def sync(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None
        if self._lock_fd is not None:
            os.close(self._lock_fd)  # releases the flock
            self._lock_fd = None

    def __del__(self):
        # a crashed/garbage-collected writer must release its flock the
        # way a dead process would (the kernel drops flocks on close)
        try:
            self.close()
        except Exception:
            pass

    def _live_writer_elsewhere(self) -> bool:
        """True when ANOTHER process/instance holds this shard's writer
        lock (this instance's own lock does not count — it can seal its
        live segment itself)."""
        if self._lock_fd is not None:
            return False
        path = os.path.join(self.log_dir, ".writer.lock")
        if not os.path.exists(path):
            return False
        fd = os.open(path, os.O_RDWR)
        try:
            import fcntl
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return True
            fcntl.flock(fd, fcntl.LOCK_UN)
            return False
        finally:
            os.close(fd)

    # -- reader ------------------------------------------------------------

    def read_from(self, frm: int, to: Optional[int] = None
                  ) -> Iterator[tuple[int, bytes]]:
        """Yield ``(position, payload)`` for records in ``[frm, to)``."""
        end = self.end_pos() if to is None else to
        for first, count, path in self._segs:
            if first + count <= frm or first >= end:
                continue
            pos = first
            with open(path, "rb") as f:
                for _ in range(count):
                    ln, crc = _HDR.unpack(f.read(_HDR.size))
                    payload = f.read(ln)
                    if pos >= end:
                        return
                    if pos >= frm:
                        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                            raise IOError(
                                f"crc mismatch at position {pos} in {path}")
                        yield pos, payload
                    pos += 1

    def frame_sizes_from(self, frm: int) -> Iterator[tuple[int, int]]:
        """Yield ``(position, payload_bytes)`` without reading payloads
        (seek-based header walk — micro-batch planning)."""
        for first, count, path in self._segs:
            if first + count <= frm:
                continue
            pos = first
            with open(path, "rb") as f:
                for _ in range(count):
                    ln, _crc = _HDR.unpack(f.read(_HDR.size))
                    if pos >= frm:
                        yield pos, ln
                    f.seek(ln, os.SEEK_CUR)
                    pos += 1

    # -- truncation (GC after publish) --------------------------------------

    def truncate_upto(self, pos: int) -> int:
        """Delete whole segments entirely below ``pos`` (records < pos are
        eligible for GC — they are published). Returns segments removed.
        Keeps position continuity when ALL segments go via a marker.

        The NEWEST segment is only removed when no live writer holds the
        shard lock — a concurrent ``IngestWal`` may still have it open,
        and an fsync-acked batch appended between our scan and the
        ``os.remove`` must not land on an unlinked inode. Skipping it
        merely delays GC to the next drain after the writer closes or
        rotates."""
        if pos >= self.end_pos() and self._fh is not None:
            # seal the live segment so it can be removed too
            self._fh.close()
            self._fh = None
        keep_live = self._segs and self._live_writer_elsewhere()
        keep, removed = [], 0
        for first, count, path in self._segs:
            live = keep_live and path == self._segs[-1][2]
            if first + count <= pos and not live:
                os.remove(path)
                removed += 1
            else:
                keep.append((first, count, path))
        self._segs = keep
        if not keep:
            self._cur_first = max(self._cur_first, pos)
            tmp = os.path.join(self.log_dir, ".truncated.tmp")
            with open(tmp, "w") as f:
                json.dump({"next_pos": self._cur_first}, f)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, os.path.join(self.log_dir, "truncated.json"))
        if removed or not keep:
            _fsync_dir(self.log_dir)
        return removed


# ---------------------------------------------------------------------------
# ingester front
# ---------------------------------------------------------------------------

def _index_config(index_dir: str):
    from quickwit_ray.config import IndexConfig
    from quickwit_ray.state.manifest import Manifest

    cfg_json = Manifest(index_dir).index_config_json
    if cfg_json is None:
        raise FileNotFoundError(f"no index at {index_dir}")
    return IndexConfig.from_json(cfg_json)


def _shard_dir(index_dir: str, source_id: str, shard: int,
               wal_root: Optional[str] = None) -> str:
    """Shard directory. ``wal_root`` relocates the WAL off the index dir
    (shared storage, or an ingester node's local disk on a multi-node
    cluster — the consumer then pins its drain tasks to that node or
    mounts the same path)."""
    base = wal_root if wal_root is not None \
        else os.path.join(index_dir, "wal")
    return os.path.join(base, source_id, f"shard-{shard:04d}")


class IngestWal:
    """Durable push-ingest front: ``persist`` appends + fsyncs a doc batch
    to a shard WAL and returns the ack position. Routing is round-robin
    over ``num_shards`` (the reference router picks open shards by
    ingester load; round-robin is the single-node analog)."""

    def __init__(self, index_dir: str, *, source_id: str = "_ingest-api",
                 num_shards: int = 2, segment_bytes: int = 64 << 20,
                 fsync: bool = True, wal_root: Optional[str] = None,
                 replica_root: Optional[str] = None):
        """``replica_root`` enables RF-2 ingestion (the reference's
        `ingest_v2/replication.rs`: the leader persists, replicates the
        batch to a follower's WAL, and acks only after BOTH are
        durable). Here the follower log is a second directory tree —
        another disk or mount point; on a real cluster, the follower
        node's storage. Positions are identical on both by construction
        (the replication stream's strict ordering), so promotion is just
        draining the replica root. Divergence: the reference replicates
        over gRPC with a persist/ack protocol; this is the same
        durability contract executed locally."""
        self._mapping = _index_config(index_dir).doc_mapping
        self.index_dir = index_dir
        self.source_id = source_id
        self.num_shards = int(num_shards)
        self.fsync = fsync
        self.wal_root = wal_root
        self.replica_root = replica_root
        self._logs = [RecordLog(_shard_dir(index_dir, source_id, k,
                                           wal_root),
                                segment_bytes=segment_bytes, repair=True)
                      for k in range(self.num_shards)]
        self._replicas = None
        if replica_root is not None:
            self._replicas = [
                RecordLog(_shard_dir(index_dir, source_id, k, replica_root),
                          segment_bytes=segment_bytes, repair=True)
                for k in range(self.num_shards)]
            for k in range(self.num_shards):
                self._sync_replica(k)
        self._rr = 0

    def _sync_replica(self, shard: int) -> None:
        """Catch a (re)attached follower up to the leader — the
        replication stream's initial sync. Positions must agree on the
        shared prefix; a follower AHEAD of the leader means the leader
        lost acked data: fail over instead of ingesting."""
        leader, follower = self._logs[shard], self._replicas[shard]
        if follower.end_pos() > leader.end_pos():
            raise RuntimeError(
                f"replica shard {shard} is ahead of the leader "
                f"({follower.end_pos()} > {leader.end_pos()}): the leader "
                "lost acked records — drain the replica root instead")
        for _pos, payload in leader.read_from(follower.end_pos()):
            follower.append(payload)
        if self.fsync:
            follower.sync()

    def persist(self, docs: list[dict[str, Any]],
                shard: Optional[int] = None) -> tuple[int, int]:
        """Durably persist one doc batch; returns ``(shard, position)``.
        The return IS the ack: the batch survives any crash after this.
        The batch runs the doc pass first: a doc the mapping refuses
        raises `RejectedDocs` and nothing of the batch is appended, so no
        acked record can fail the indexing consumer later."""
        from quickwit_ray.sources.ingest import _docs_to_table

        _docs_to_table(docs, self._mapping)
        if shard is None:
            shard = self._rr % self.num_shards
            self._rr += 1
        payload = "\n".join(
            json.dumps(d, separators=(",", ":"), default=str)
            for d in docs).encode()
        log = self._logs[shard]
        pos = log.append(payload)
        if self._replicas is not None:
            # RF-2: the follower must hold the batch BEFORE the ack
            # (replication.rs: leader ack waits for the replica persist)
            rpos = self._replicas[shard].append(payload)
            assert rpos == pos, "replica position diverged"
            if self.fsync:
                self._replicas[shard].sync()
        if self.fsync:
            log.sync()
        return shard, pos

    def close(self) -> None:
        for log in self._logs:
            log.close()
        for log in (self._replicas or ()):
            log.close()


def _decode_record(payload: bytes) -> list[dict[str, Any]]:
    return [json.loads(line) for line in payload.decode().splitlines() if line]


# ---------------------------------------------------------------------------
# indexing consumer (queue-contract adapter + truncate-after-publish)
# ---------------------------------------------------------------------------

class WalQueueClient:
    """Adapter exposing an index's WAL shards through the
    ``PartitionedQueue`` read contract (``num_partitions`` /
    ``end_offset`` / ``read`` / ``estimate_batch_ranges``) so
    ``ingest_queue`` can consume them unchanged. Constructed inside each
    Ray task (cheap: directory listing + manifest config read)."""

    def __init__(self, index_dir: str, source_id: str = "_ingest-api",
                 wal_root: Optional[str] = None):
        self.index_dir = index_dir
        self.source_id = source_id
        self.wal_root = wal_root
        base = os.path.dirname(_shard_dir(index_dir, source_id, 0, wal_root))
        shards = sorted(glob.glob(os.path.join(base, "shard-*")))
        self.num_partitions = len(shards)
        self._mapping = _index_config(index_dir).doc_mapping
        self._log_cache: dict[int, RecordLog] = {}

    def _log(self, partition: int) -> RecordLog:
        # read-only (repair=False: never truncate under a live writer —
        # an unacked torn tail is simply not counted); cached per
        # partition so one wave's plan+read calls scan headers once
        log = self._log_cache.get(partition)
        if log is None:
            log = RecordLog(_shard_dir(self.index_dir, self.source_id,
                                       partition, self.wal_root))
            self._log_cache[partition] = log
        return log

    def end_offset(self, partition: int) -> int:
        return self._log(partition).end_pos()

    def read(self, partition: int, from_offset: int,
             to_offset: Optional[int] = None) -> pa.Table:
        from quickwit_ray.sources.ingest import _docs_to_table

        docs: list[dict[str, Any]] = []
        for _pos, payload in self._log(partition).read_from(from_offset,
                                                            to_offset):
            docs.extend(_decode_record(payload))
        if not docs:
            return pa.table({})
        return _docs_to_table(docs, self._mapping)

    def estimate_batch_ranges(self, partition: int, from_offset: int,
                              max_batch_bytes: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        start, acc = None, 0
        last = from_offset
        for pos, nbytes in self._log(partition).frame_sizes_from(from_offset):
            if start is None:
                start = pos
            if acc and acc + nbytes > max_batch_bytes:
                out.append((start, pos))
                start, acc = pos, 0
            acc += nbytes
            last = pos + 1
        if start is not None and start < last:
            out.append((start, last))
        return out


def index_wal(index_dir: str, config=None, *,
              source_id: str = "_ingest-api",
              max_batch_bytes: int = 5 << 20,
              execution: str = "ray",
              max_batches_per_wave: Optional[int] = None,
              fault_after_commits: Optional[int] = None,
              truncate: bool = True,
              wal_root: Optional[str] = None):
    """Index every acked-but-unindexed WAL record, then truncate.

    Exactly-once end to end: ``persist`` acks only after fsync; this
    consumer publishes splits + shard positions in one atomic manifest
    write per wave (``Manifest.publish_stream`` refuses gaps and no-ops
    replays); truncation runs strictly AFTER publish, so a crash anywhere
    leaves either unindexed-but-durable records or published-but-not-yet-
    GCed segments — never loss, never duplication.
    """
    from quickwit_ray.sources.queue import ingest_queue
    from quickwit_ray.state.manifest import Manifest

    config = config or _index_config(index_dir)
    prefix = f"wal.{source_id}"
    factory = _WalClientFactory(index_dir, source_id, wal_root)
    stats = ingest_queue(index_dir, index_dir, config,
                         max_batch_bytes=max_batch_bytes,
                         execution=execution,
                         max_batches_per_wave=max_batches_per_wave,
                         fault_after_commits=fault_after_commits,
                         client_factory=factory,
                         checkpoint_prefix=prefix)
    if truncate:
        manifest = Manifest(index_dir)
        client = factory()
        for p in range(client.num_partitions):
            pos = manifest.source_offset(f"{prefix}:{p}")
            if isinstance(pos, int) and pos > 0:
                RecordLog(_shard_dir(index_dir, source_id, p, wal_root)
                          ).truncate_upto(pos)
    return stats


class _WalClientFactory:
    """Picklable zero-arg factory for Ray tasks. On a multi-node cluster
    a non-None ``wal_root`` must be reachable from the drain tasks —
    shared storage, or pin the tasks to the ingester node with a Ray
    scheduling hint (NodeAffinitySchedulingStrategy)."""

    def __init__(self, index_dir: str, source_id: str,
                 wal_root: Optional[str] = None):
        self.index_dir = index_dir
        self.source_id = source_id
        self.wal_root = wal_root

    def __call__(self) -> WalQueueClient:
        return WalQueueClient(self.index_dir, self.source_id, self.wal_root)
