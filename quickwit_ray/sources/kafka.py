"""Kafka consumer adapter behind the queue-source contract.

Mirrors the reference Kafka source
(`quickwit-indexing/src/source/kafka_source.rs`): manual partition
ASSIGNMENT (never consumer-group subscription — offsets come from the
index's own checkpoint, kafka_source.rs stores them in the
SourceCheckpoint, not in Kafka's __consumer_offsets), watermark-bounded
reads, one consumer per task. ``KafkaQueueClient`` implements the same
read contract as ``sources.queue.PartitionedQueue``
(``num_partitions`` / ``end_offset`` / ``read`` /
``estimate_batch_ranges``), so ``ingest_queue(...,
client_factory=lambda: KafkaQueueClient(...))`` runs the SAME poller,
micro-batching, atomic offset-delta publish and kill-resume semantics
over a real broker.

confluent-kafka is not installed in this environment, so the import is
gated; ``consumer_factory`` lets tests (and exotic deployments) inject
any object with the small consumer surface used here
(``get_watermark_offsets`` / ``assign`` / ``poll`` / ``close``).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

import pyarrow as pa

from quickwit_ray.sources.ingest import raw_table


def _default_consumer_factory(bootstrap_servers: str):
    try:
        from confluent_kafka import Consumer  # type: ignore
    except ImportError as e:  # pragma: no cover - not installed in sandbox
        raise ImportError(
            "confluent-kafka is not installed; pass consumer_factory= "
            "(any object with get_watermark_offsets/assign/poll/close)"
        ) from e
    return Consumer({
        "bootstrap.servers": bootstrap_servers,
        # kafka_source.rs: no consumer group magic — offsets are OURS
        "group.id": "quickwit-ray-noop",
        "enable.auto.commit": False,
        "enable.partition.eof": True,
        "auto.offset.reset": "earliest",
    })


class _TopicPartition:
    """Minimal TopicPartition stand-in (constructed via the injected
    module's class when available, else this shim)."""

    def __init__(self, topic: str, partition: int, offset: int = -1001):
        self.topic = topic
        self.partition = partition
        self.offset = offset


class KafkaQueueClient:
    """PartitionedQueue-contract adapter over a Kafka consumer.

    Offsets are Kafka's native per-partition record offsets, so the
    manifest's contiguity-checked ``queue:{p}`` checkpoints apply
    unchanged. ``decode`` turns one message value (bytes) into a doc
    dict (default: JSON object per message).
    """

    def __init__(self, topic: str,
                 bootstrap_servers: str = "localhost:9092", *,
                 consumer_factory: Optional[Callable[[], Any]] = None,
                 decode: Optional[Callable[[bytes], dict]] = None,
                 records_per_batch: int = 50_000,
                 poll_timeout_sec: float = 1.0):
        self.topic = topic
        self._factory = (consumer_factory
                         or (lambda: _default_consumer_factory(bootstrap_servers)))
        self._consumer = self._factory()
        self._decode = decode or (lambda v: json.loads(v))
        self.records_per_batch = int(records_per_batch)
        self.poll_timeout_sec = float(poll_timeout_sec)

    # -- PartitionedQueue contract ---------------------------------------

    @property
    def num_partitions(self) -> int:
        n = 0
        while True:
            lo, hi = self._watermarks(n)
            if lo is None:
                return n
            n += 1

    def _watermarks(self, partition: int):
        try:
            lo, hi = self._consumer.get_watermark_offsets(
                _TopicPartition(self.topic, partition))
            return lo, hi
        except Exception:  # unknown partition
            return None, None

    def end_offset(self, partition: int) -> int:
        _lo, hi = self._watermarks(partition)
        return int(hi or 0)

    def estimate_batch_ranges(self, partition: int, from_offset: int,
                              max_batch_bytes: int) -> list:
        """Kafka exposes no per-range byte sizes without reading, so
        micro-batches are RECORD-count slices (records_per_batch tuned to
        ~max_batch_bytes / avg message size by the operator); offsets stay
        contiguous so the manifest delta contract is identical."""
        end = self.end_offset(partition)
        lo, _ = self._watermarks(partition)
        cur = max(int(from_offset), int(lo or 0))
        out = []
        while cur < end:
            hi = min(cur + self.records_per_batch, end)
            out.append((cur, hi))
            cur = hi
        return out

    def read(self, partition: int, from_offset: int,
             to_offset: Optional[int] = None) -> pa.Table:
        """Assigned, watermark-bounded read of [from_offset, to_offset).
        Polls until the range is drained; tolerates sparse offsets after
        compaction (stops at the first message >= to_offset)."""
        end = self.end_offset(partition) if to_offset is None else int(to_offset)
        if from_offset >= end:
            return pa.table({})
        self._consumer.assign(
            [_TopicPartition(self.topic, partition, int(from_offset))])
        docs = []
        while True:
            msg = self._consumer.poll(self.poll_timeout_sec)
            if msg is None:
                break  # watermark said more, broker stalled: return partial
            if getattr(msg, "error", lambda: None)():
                err = msg.error()
                if getattr(err, "code", lambda: None)() == -191:  # _PARTITION_EOF
                    break
                raise RuntimeError(f"kafka error: {err}")
            if msg.offset() >= end:
                break
            docs.append(self._decode(msg.value()))
            if msg.offset() == end - 1:
                break
        return raw_table(docs)

    def close(self) -> None:
        try:
            self._consumer.close()
        except Exception:
            pass
