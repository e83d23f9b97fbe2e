"""Kinesis shard-consumer adapter behind the queue-source contract.

Mirrors the reference Kinesis source
(`quickwit-indexing/src/source/kinesis/kinesis_source.rs` +
`api.rs:23-60`): one consumer per shard, positions are the records'
OPAQUE SEQUENCE NUMBERS (the committed position is the last consumed
record's sequence number; resume uses `AfterSequenceNumber` iterators —
kinesis_source.rs:146-150, 258), never Kinesis checkpoint tables — the
index's own manifest owns the positions.

``KinesisQueueClient`` implements the ``PartitionedQueue`` read contract
(``num_partitions`` / ``estimate_batch_ranges`` / ``read``), so
``ingest_queue(..., client_factory=...)`` runs the SAME poller,
micro-batching, atomic position-delta publish and kill-resume semantics
over Kinesis. Positions cross the manifest as zero-padded decimal
strings (``Manifest.publish_stream`` opaque-position support) so
lexicographic order == stream order, like the reference's `Position`
bytestring (quickwit-proto position.rs:31-68).

boto3 is not installed in this environment, so construction takes the
client object (or factory) directly — tests inject fakes with the boto3
kinesis call shapes (``list_shards`` / ``get_shard_iterator`` /
``get_records``); a production deployment passes
``boto3.client("kinesis")`` unchanged.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

import pyarrow as pa

from quickwit_ray.sources.ingest import raw_table

# Kinesis sequence numbers are <= 56 decimal digits; zero-padding to a
# fixed width makes lexicographic comparison numeric (position.rs pads
# u64 offsets to 20 digits for the same reason)
_SEQ_WIDTH = 56


def pad_seq(seq: str) -> str:
    return str(seq).rjust(_SEQ_WIDTH, "0")


def unpad_seq(pos: str) -> str:
    return pos.lstrip("0") or "0"


class KinesisQueueClient:
    """PartitionedQueue-contract adapter over a boto3-shaped Kinesis
    client. Partitions are the stream's shards in ``ShardId`` order;
    a position is the zero-padded sequence number of the last consumed
    record (``0`` = beginning, read via ``TRIM_HORIZON``)."""

    def __init__(self, stream_name: str, client: Any = None, *,
                 client_factory: Optional[Callable[[], Any]] = None,
                 decode: Optional[Callable[[bytes], dict]] = None,
                 records_per_batch: int = 50_000,
                 get_records_limit: int = 10_000):
        if client is None and client_factory is None:
            raise ValueError("pass client= (boto3.client('kinesis')) or "
                             "client_factory=")
        self.stream_name = stream_name
        self._client = client if client is not None else client_factory()
        self._decode = decode or (lambda v: json.loads(v))
        self.records_per_batch = int(records_per_batch)
        self.get_records_limit = int(get_records_limit)
        self._shards: Optional[list[str]] = None

    # -- shard discovery --------------------------------------------------

    def _shard_ids(self) -> list[str]:
        if self._shards is None:
            shards, token = [], None
            while True:
                kw = {"StreamName": self.stream_name}
                if token:
                    kw = {"NextToken": token}
                resp = self._client.list_shards(**kw)
                shards.extend(s["ShardId"] for s in resp.get("Shards", ()))
                token = resp.get("NextToken")
                if not token:
                    break
            self._shards = sorted(shards)
        return self._shards

    @property
    def num_partitions(self) -> int:
        return len(self._shard_ids())

    # -- iteration --------------------------------------------------------

    def _iterator(self, shard_id: str, after_pos) -> str:
        if after_pos in (0, "", None):
            kw = {"ShardIteratorType": "TRIM_HORIZON"}
        else:
            kw = {"ShardIteratorType": "AFTER_SEQUENCE_NUMBER",
                  "StartingSequenceNumber": unpad_seq(after_pos)}
        return self._client.get_shard_iterator(
            StreamName=self.stream_name, ShardId=shard_id, **kw
        )["ShardIterator"]

    def _records_after(self, partition: int, after_pos,
                       stop_at: Optional[str] = None):
        """Yield (padded_seq, data_bytes) strictly after ``after_pos``,
        draining until caught up (MillisBehindLatest == 0 with no
        records) or ``stop_at`` (inclusive) is passed."""
        shard_id = self._shard_ids()[partition]
        it = self._iterator(shard_id, after_pos)
        while it:
            resp = self._client.get_records(ShardIterator=it,
                                            Limit=self.get_records_limit)
            for rec in resp.get("Records", ()):
                pos = pad_seq(rec["SequenceNumber"])
                if stop_at is not None and pos > stop_at:
                    return
                yield pos, rec["Data"]
                if stop_at is not None and pos == stop_at:
                    return
            it = resp.get("NextShardIterator")
            if not resp.get("Records") \
                    and not resp.get("MillisBehindLatest", 0):
                return  # caught up (api.rs get_records drain condition)

    # -- PartitionedQueue contract ----------------------------------------

    def estimate_batch_ranges(self, partition: int, from_pos,
                              max_batch_bytes: int) -> list:
        """Plan contiguous micro-batch position ranges past ``from_pos``:
        scan the backlog once, cutting a boundary whenever the byte or
        record budget fills. Each range is (exclusive-from, inclusive-to)
        in padded sequence numbers, chained so the manifest's delta
        contiguity check holds."""
        out = []
        start = from_pos
        size = n = 0
        last = None
        for pos, data in self._records_after(partition, from_pos):
            size += len(data)
            n += 1
            last = pos
            if size >= max_batch_bytes or n >= self.records_per_batch:
                out.append((start, last))
                start, size, n, last = last, 0, 0, None
        if last is not None:
            out.append((start, last))
        return out

    def read(self, partition: int, from_pos,
             to_pos: Optional[str] = None) -> pa.Table:
        """Read records with positions in (from_pos, to_pos] — an
        ``AfterSequenceNumber`` iterator bounded by the inclusive upper
        sequence number, so a re-run of the same range is identical."""
        docs = []
        for _pos, data in self._records_after(partition, from_pos, to_pos):
            if isinstance(data, str):
                data = data.encode()
            docs.append(self._decode(data))
        return raw_table(docs)

    def close(self) -> None:
        close = getattr(self._client, "close", None)
        if close:
            close()
