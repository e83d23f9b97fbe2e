"""Pulsar reader adapter behind the queue-source contract.

Mirrors the reference Pulsar source
(`quickwit-indexing/src/source/pulsar_source.rs`): non-durable READERS
positioned by MessageId (never subscriptions/cursors — the index's own
manifest owns the positions, pulsar_source.rs:185, 373-377), one reader
per topic partition. A committed position is the last consumed
message's id serialized as a fixed-width ``ledger.entry.batch`` string
(the reference's `msg_id_to_position`), ordered lexicographically ==
stream order, carried through ``Manifest.publish_stream``'s
opaque-position support.

``PulsarQueueClient`` implements the ``PartitionedQueue`` read contract
(``num_partitions`` / ``estimate_batch_ranges`` / ``read``) so
``ingest_queue(..., client_factory=...)`` runs the SAME poller,
micro-batching, atomic position-delta publish and kill-resume semantics
over Pulsar.

pulsar-client is not installed in this environment, so construction
takes the client object (or factory) directly — tests inject fakes with
the pulsar-client call shapes (``get_topic_partitions`` /
``create_reader`` / ``read_next`` / ``has_message_available``); a
production deployment passes ``pulsar.Client(service_url)`` unchanged
(with ``message_id_factory=pulsar.MessageId``).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional

import pyarrow as pa

from quickwit_ray.sources.ingest import raw_table

_W_LEDGER = 20
_W_ENTRY = 20
_W_BATCH = 12


def msg_id_to_position(ledger_id: int, entry_id: int,
                       batch_index: int) -> str:
    """Fixed-width ``ledger.entry.batch`` (pulsar_source.rs
    msg_id_to_position): batch_index -1 (non-batched) encodes as 0 so
    every component is non-negative and lexicographic order holds."""
    return (f"{ledger_id:0{_W_LEDGER}d}."
            f"{entry_id:0{_W_ENTRY}d}."
            f"{batch_index + 1:0{_W_BATCH}d}")


def position_to_msg_id(pos: str) -> tuple[int, int, int]:
    ledger, entry, batch = pos.split(".")
    return int(ledger), int(entry), int(batch) - 1


def _default_message_id_factory():
    try:
        from pulsar import MessageId  # type: ignore
    except ImportError as e:  # pragma: no cover - not installed in sandbox
        raise ImportError(
            "pulsar-client is not installed; pass message_id_factory= "
            "(a callable (partition, ledger, entry, batch) -> MessageId)"
        ) from e
    return MessageId


class PulsarQueueClient:
    """PartitionedQueue-contract adapter over a pulsar-client-shaped
    client. Partitions are the topic's partitions in
    ``get_topic_partitions`` order; a position is the serialized
    MessageId of the last consumed message (``0`` = beginning, read via
    the earliest message id)."""

    def __init__(self, topic: str, client: Any = None, *,
                 client_factory: Optional[Callable[[], Any]] = None,
                 message_id_factory: Optional[Callable] = None,
                 decode: Optional[Callable[[bytes], dict]] = None,
                 records_per_batch: int = 50_000,
                 read_timeout_millis: int = 1000):
        if client is None and client_factory is None:
            raise ValueError("pass client= (pulsar.Client(url)) or "
                             "client_factory=")
        self.topic = topic
        self._client = client if client is not None else client_factory()
        self._msg_id = message_id_factory
        self._decode = decode or (lambda v: json.loads(v))
        self.records_per_batch = int(records_per_batch)
        self.read_timeout_millis = int(read_timeout_millis)
        self._partitions: Optional[list[str]] = None

    def _partition_topics(self) -> list[str]:
        if self._partitions is None:
            self._partitions = list(
                self._client.get_topic_partitions(self.topic))
        return self._partitions

    @property
    def num_partitions(self) -> int:
        return len(self._partition_topics())

    # -- iteration --------------------------------------------------------

    def _start_id(self, partition: int, after_pos):
        if after_pos in (0, "", None):
            if self._msg_id is None:
                self._msg_id = _default_message_id_factory()
            return getattr(self._msg_id, "earliest", None) or self._msg_id(
                partition, -1, -1, -1)
        if self._msg_id is None:
            self._msg_id = _default_message_id_factory()
        ledger, entry, batch = position_to_msg_id(after_pos)
        return self._msg_id(partition, ledger, entry, batch)

    def _messages_after(self, partition: int, after_pos,
                        stop_at: Optional[str] = None):
        """Yield (position, data_bytes) strictly after ``after_pos`` up
        to the current backlog end (or ``stop_at`` inclusive)."""
        reader = self._client.create_reader(
            self._partition_topics()[partition],
            self._start_id(partition, after_pos),
            start_message_id_inclusive=False)
        try:
            while reader.has_message_available():
                msg = reader.read_next(self.read_timeout_millis)
                if msg is None:
                    break
                mid = msg.message_id()
                pos = msg_id_to_position(mid.ledger_id(), mid.entry_id(),
                                         mid.batch_index())
                if stop_at is not None and pos > stop_at:
                    return
                yield pos, msg.data()
                if stop_at is not None and pos == stop_at:
                    return
        finally:
            close = getattr(reader, "close", None)
            if close:
                close()

    # -- PartitionedQueue contract ----------------------------------------

    def estimate_batch_ranges(self, partition: int, from_pos,
                              max_batch_bytes: int) -> list:
        """Plan contiguous (exclusive-from, inclusive-to] micro-batch
        position ranges over the current backlog, cut by byte/record
        budget, chained from ``from_pos`` for the manifest's delta
        contiguity check."""
        out = []
        start = from_pos
        size = n = 0
        last = None
        for pos, data in self._messages_after(partition, from_pos):
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
        docs = []
        for _pos, data in self._messages_after(partition, from_pos, to_pos):
            if isinstance(data, str):
                data = data.encode()
            docs.append(self._decode(data))
        return raw_table(docs)

    def close(self) -> None:
        close = getattr(self._client, "close", None)
        if close:
            close()
