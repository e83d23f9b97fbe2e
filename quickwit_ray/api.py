"""User-facing API — the `quickwit index create/ingest/search/describe`
surface (`quickwit-cli/src/cli.rs:56-95`) as a Python class."""

from __future__ import annotations

from typing import Any, Optional

import pandas as pd

from quickwit_ray.config import DocMapping, IndexConfig, IndexSettings
from quickwit_ray.index.build import BuildStats, build_index, garbage_collect
from quickwit_ray.index.deletes import apply_delete_tasks
from quickwit_ray.index.merge import run_merge_pipeline
from quickwit_ray.search.engine import IndexSearcher, SearchResponse
from quickwit_ray.state.manifest import Manifest


class Index:
    """One index rooted at a directory; its metastore (file log, object
    snapshot, sqlite or postgres) is resolved by ``Manifest``."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir

    # ------------------------------------------------------------------

    @staticmethod
    def create(index_dir: str, index_id: str, doc_mapping: DocMapping,
               settings: Optional[IndexSettings] = None,
               metastore: str = "file",
               metastore_dsn: Optional[str] = None) -> "Index":
        """``metastore="sqlite"`` stores the manifest in an ACID sqlite DB;
        ``metastore="postgres"`` stores it in a SHARED PostgreSQL database
        (the reference's postgres metastore: one DB hosts many indexes,
        rows scoped by index_uid) reached via ``metastore_dsn``, which the
        metastore pins next to the artifacts so later opens resolve the
        same server. All backends speak the same Manifest API."""
        # auto-detecting probe first: creating with a DIFFERENT backend
        # over an existing index must fail, not shadow/orphan it
        probe = Manifest(index_dir)
        if probe.index_config_json is not None:
            raise FileExistsError(f"index already exists at {index_dir}")
        if metastore == "postgres" and metastore_dsn is None:
            raise ValueError("metastore='postgres' needs metastore_dsn")
        manifest = Manifest(index_dir, backend=metastore, dsn=metastore_dsn)
        if manifest.index_config_json is not None:
            raise FileExistsError(f"index already exists at {index_dir}")
        config = IndexConfig(index_id=index_id, doc_mapping=doc_mapping,
                             settings=settings or IndexSettings())
        manifest.create(config.to_json())
        return Index(index_dir)

    @staticmethod
    def open(index_dir: str) -> "Index":
        m = Manifest(index_dir)
        if m.index_config_json is None:
            raise FileNotFoundError(f"no index at {index_dir}")
        return Index(index_dir)

    @property
    def config(self) -> IndexConfig:
        """The committed config, resolved through the generation-checked
        searcher cache: no Manifest load unless a commit moved it."""
        from quickwit_ray.search.engine import get_searcher

        return get_searcher(self.index_dir).config

    # ------------------------------------------------------------------

    def ingest(self, inputs: str | list[str], *, execution: str = "ray",
               transform=None, **kw) -> BuildStats:
        return build_index(inputs, self.index_dir, self.config,
                           execution=execution, transform=transform, **kw)

    def search(self, query: Any = None, **kw) -> SearchResponse:
        from quickwit_ray.search.engine import get_searcher

        return get_searcher(self.index_dir).search(query, **kw)

    def es_search(self, body: dict, scroll: Optional[str] = None):
        """ES-compatible `_search` body. With ``scroll`` (e.g. "1m") the
        first page is returned together with a scroll_id, mirroring
        `_search?scroll=...` (root.rs:342-441)."""
        from quickwit_ray.search.es_dsl import es_search_request

        from quickwit_ray.search.engine import get_searcher

        searcher = get_searcher(self.index_dir)
        kw = es_search_request(body,
                               searcher.mapping.default_search_fields)
        if scroll is not None:
            query = kw.pop("query", None)
            return self._scroll_manager().start(query, scroll=scroll, **kw)
        return searcher.search(**kw)

    # -- scroll contexts (scroll_context.rs:1-260) -----------------------

    _scroll_mgr = None

    def _scroll_manager(self):
        from quickwit_ray.search.engine import get_searcher
        from quickwit_ray.search.scroll import ScrollManager

        if self._scroll_mgr is None:
            self._scroll_mgr = ScrollManager(get_searcher(self.index_dir))
        return self._scroll_mgr

    def scroll_search(self, query: Any = None, *, scroll: str = "1m", **kw):
        """(first page, scroll_id) — native-API scroll entry."""
        return self._scroll_manager().start(query, scroll=scroll, **kw)

    def es_scroll(self, scroll_id: str, scroll: Optional[str] = None):
        """ES `_search/scroll` analog: next page, TTL renewed."""
        return self._scroll_manager().next(scroll_id, scroll)

    def clear_scroll(self, scroll_id: str) -> bool:
        """ES DELETE `_search/scroll` analog."""
        return self._scroll_manager().clear(scroll_id)

    def es_count(self, body: Optional[dict] = None) -> int:
        """ES-compatible `_count` (rest_handler.rs handler list)."""
        from quickwit_ray.search.es_dsl import es_query_to_ast

        from quickwit_ray.search.engine import get_searcher

        searcher = get_searcher(self.index_dir)
        node = es_query_to_ast((body or {}).get("query", {}),
                               searcher.mapping.default_search_fields)
        return searcher.search(node, max_hits=0).num_hits

    def es_msearch(self, bodies: list[dict]) -> list[SearchResponse]:
        """ES-compatible `_msearch`: a batch of independent searches
        sharing the searcher's split caches."""
        from quickwit_ray.search.es_dsl import es_search_request

        from quickwit_ray.search.engine import get_searcher

        searcher = get_searcher(self.index_dir)
        dflt = searcher.mapping.default_search_fields
        return [searcher.search(**es_search_request(b, dflt)) for b in bodies]

    # -- push ingestion (ingest API / ES _bulk analog) -------------------

    def bulk(self, payload: bytes | str, *, commit_id: Optional[str] = None) -> int:
        """ES `_bulk` NDJSON ingestion (rest_handler.rs `_bulk`): parse the
        action/doc lines, build one split, publish atomically. Returns the
        number of docs indexed."""
        from quickwit_ray.sources.ingest import ingest_docs, parse_bulk_ndjson

        return ingest_docs(self.index_dir, parse_bulk_ndjson(payload),
                           commit_id=commit_id)

    def open_ingest_workbench(self, **kw):
        """Open an accumulating ingest workbench: many small `_bulk` /
        push calls buffer into ONE commit wave sealed by the reference's
        indexer triggers (commit_timeout_secs / docs / bytes —
        actors/indexer.rs:592-626) instead of one split per call."""
        from quickwit_ray.sources.ingest import IngestWorkbench

        return IngestWorkbench(self.index_dir, **kw)

    def ingest_docs(self, docs: list[dict], *,
                    commit_id: Optional[str] = None) -> int:
        """Push a batch of JSON docs (ingest API analog)."""
        from quickwit_ray.sources.ingest import ingest_docs

        return ingest_docs(self.index_dir, docs, commit_id=commit_id)

    def open_wal(self, **kw):
        """Open the durable ingest-v2 WAL front (ingester.rs analog):
        ``persist(docs)`` fsyncs doc batches to per-shard record logs and
        acks; :meth:`index_wal` later indexes + truncates them."""
        from quickwit_ray.sources.wal import IngestWal

        return IngestWal(self.index_dir, **kw)

    def index_wal(self, **kw):
        """Index every acked-but-unindexed WAL record exactly once, then
        truncate the logs up to the published positions."""
        from quickwit_ray.sources.wal import index_wal

        return index_wal(self.index_dir, **kw)

    def ingest_payload(self, payload: bytes | str, input_format: str = "json",
                       *, commit_id: Optional[str] = None) -> int:
        """Decode + ingest a raw payload in any supported source input
        format (json/ndjson, plain_text, otlp_logs_json, otlp_traces_json
        — doc_processor.rs:153-226)."""
        from quickwit_ray.sources.ingest import decode_input, ingest_docs

        return ingest_docs(self.index_dir, decode_input(payload, input_format),
                           commit_id=commit_id)

    # -- ES REST surface breadth (rest_handler.rs:71-294) ----------------

    def list_field_entries(self, fields: Optional[list[str]] = None,
                           start_timestamp: Optional[int] = None,
                           end_timestamp: Optional[int] = None) -> list[dict]:
        """Per-(field, type) listing merged across time-pruned splits
        (list_fields.rs); timestamps in seconds."""
        from quickwit_ray.search.listers import list_field_entries

        return list_field_entries(self.index_dir, fields,
                                  start_timestamp, end_timestamp)

    def es_field_caps(self, fields: Optional[list[str]] = None,
                      start_timestamp: Optional[int] = None,
                      end_timestamp: Optional[int] = None) -> dict:
        """ES `_field_caps` from per-split field metadata
        (field_capability.rs conversion; Str fields report keyword AND
        text). Timestamp filters prune splits, so a field only present
        in pruned splits disappears."""
        from quickwit_ray.search.listers import es_field_caps_response

        m = Manifest(self.index_dir)
        index_id = m.index_config_json["index_id"]
        return es_field_caps_response({index_id: self.list_field_entries(
            fields, start_timestamp, end_timestamp)})

    def es_stats(self) -> dict:
        """ES `_stats` shape: doc counts + store bytes from the manifest."""
        from quickwit_ray import storage

        m = Manifest(self.index_dir)
        splits = m.published_splits()
        n_docs = sum(s.num_docs for s in splits)
        store = 0
        for s in splits:
            d = storage.join(self.index_dir, "splits", s.split_id)
            store += sum(storage.file_size(f) for f in storage.list_files(d))
        seg = {"count": len(splits)}
        body = {"primaries": {"docs": {"count": n_docs, "deleted": 0},
                              "store": {"size_in_bytes": store},
                              "segments": dict(seg)},
                "total": {"docs": {"count": n_docs, "deleted": 0},
                          "store": {"size_in_bytes": store},
                          "segments": dict(seg)}}
        index_id = m.index_config_json["index_id"]
        return {"_all": body, "indices": {index_id: body}}

    def es_cat_indices(self) -> list[dict]:
        """ES `_cat/indices?format=json` shape (the reference renders
        human-readable sizes — "272.4kb" — and rep "1",
        rest-api-tests 0021-cat-indices.yaml)."""
        m = Manifest(self.index_dir)
        stats = self.es_stats()["_all"]["primaries"]
        size = _es_human_size(stats["store"]["size_in_bytes"])
        return [{
            "health": "green", "status": "open",
            "index": m.index_config_json["index_id"],
            "pri": "1", "rep": "1",
            "docs.count": str(stats["docs"]["count"]),
            "docs.deleted": "0",
            "dataset.size": size,
            "store.size": size,
            "pri.store.size": size,
        }]

    def update_config(self, new_config: Optional[IndexConfig] = None, *,
                      api_json: Optional[dict] = None,
                      doc_mapping=None, settings=None) -> IndexConfig:
        """Update the index config in place (`quickwit index update` /
        `PUT /api/v1/indexes/{id}`, rest handler update_index). Accepts a
        full :class:`IndexConfig`, the public API JSON payload, or just a
        replacement doc_mapping/settings. Validates against the
        reference's update rules (`index_config/serialize.rs:73-151` via
        ``validate_config_update``: index_id/timestamp_field immutable,
        tokenizers superset, no type flips). Existing splits are NOT
        reindexed; already-open searchers keep their loaded config —
        reopen to pick up the change."""
        from quickwit_ray.config import (index_config_from_api_json,
                                         validate_config_update)

        from dataclasses import replace as _rep

        current = self.config
        if api_json is not None:
            new_config = index_config_from_api_json(api_json)
            # the public payload replaces what it can express (reference
            # full-config-replace semantics: an absent `retention` removes
            # the policy) but must not reset fields it CANNOT express
            ns = _rep(new_config.settings,
                      batch_size=current.settings.batch_size,
                      store_binary_columns=current.settings.store_binary_columns,
                      commit_docs_threshold=current.settings.commit_docs_threshold)
            if "indexing_settings" not in api_json:
                ns = _rep(ns,
                          split_num_docs_target=current.settings.split_num_docs_target,
                          heap_size_bytes=current.settings.heap_size_bytes,
                          merge_policy=current.settings.merge_policy)
            # doc_id_field is an internal artifact detail the public
            # payload cannot express — keep the current one
            nm = _rep(new_config.doc_mapping,
                      doc_id_field=current.doc_mapping.doc_id_field)
            new_config = _rep(new_config, settings=ns, doc_mapping=nm)
        if new_config is None:
            from dataclasses import replace

            new_config = replace(
                current,
                **({"doc_mapping": doc_mapping} if doc_mapping else {}),
                **({"settings": settings} if settings else {}))
        validate_config_update(current, new_config)
        Manifest(self.index_dir).update_config(new_config.to_json())
        return new_config

    def apply_retention(self, retention_secs: Optional[float] = None,
                        now: Optional[float] = None) -> list[str]:
        """Drop splits whose time range fully predates now - retention
        (janitor retention_policy_execution.rs). Uses the config's
        ``settings.retention_secs`` when no explicit period is given;
        no-op (returns []) if neither is set."""
        from quickwit_ray.index.build import apply_retention

        if retention_secs is None:
            retention_secs = self.config.settings.retention_secs
        if retention_secs is None:
            return []
        kw = {"now": now} if now is not None else {}
        return apply_retention(self.index_dir, retention_secs, **kw)

    def merge(self, execution: str = "local") -> int:
        return run_merge_pipeline(self.index_dir, execution=execution)

    def gc(self, grace_period_secs: float = 0.0) -> list[str]:
        return garbage_collect(self.index_dir, grace_period_secs)

    def clear(self) -> int:
        """Reset the index to empty keeping its config (`quickwit index
        clear` / index_api `PUT /indexes/{id}/clear`): drops all splits,
        checkpoints, delete tasks and shards atomically, then removes the
        artifact dirs. Returns the number of splits dropped."""
        from quickwit_ray import storage

        ids = Manifest(self.index_dir).clear()
        for sid in ids:
            d = storage.join(self.index_dir, "splits", sid)
            if storage.isdir(d):
                storage.rmtree(d)
        return len(ids)

    # -- declarative sources (source-config.md; CLI `quickwit source
    # create/delete/enable/disable/reset-checkpoint`) ---------------------

    def add_source(self, source_config: dict) -> dict:
        """Attach a declarative source config (validated + normalized);
        returns the stored config. ``ingest_source`` runs it."""
        from quickwit_ray.config import validate_source_config

        cfg = validate_source_config(source_config)
        Manifest(self.index_dir).add_source(cfg)
        return cfg

    def list_sources(self) -> list[dict]:
        return list(Manifest(self.index_dir).sources.values())

    def delete_source(self, source_id: str) -> None:
        Manifest(self.index_dir).delete_source(source_id)

    def toggle_source(self, source_id: str, enable: bool) -> None:
        Manifest(self.index_dir).toggle_source(source_id, enable)

    def reset_source_checkpoint(self, source_id: str) -> int:
        return Manifest(self.index_dir).reset_source_checkpoint(source_id)

    def ingest_source(self, source_id: str, *, execution: str = "ray",
                      client_factory=None, **kw):
        """Run one configured source to drain its current backlog.

        Broker-backed types (queue/kafka/kinesis/pulsar) poll through the
        offset-checkpointed queue machinery under the source-scoped
        checkpoint prefix ``src.{source_id}`` (so reset-checkpoint can
        target it); ``mq``/``sqs``/``pub_sub`` use the message-ack
        coordinator; ``file`` builds from the configured parquet inputs;
        ``wal`` indexes the record logs; ``ingest-api``/``void`` are
        push-based / no-ops. ``client_factory`` overrides the broker
        client (tests; real deployments build one from ``params``)."""
        m = Manifest(self.index_dir)
        src = m.sources.get(source_id)
        if src is None:
            raise KeyError(f"no source {source_id!r}")
        if not src.get("enabled", True):
            return None
        stype, params = src["source_type"], src.get("params", {})
        if stype in ("ingest-api", "void"):
            return None
        if stype == "file":
            tf = (src.get("transform") or {}).get("vrl_script")
            if tf is not None and "transform" not in kw:
                kw["transform"] = tf  # VRL script, compiled in-worker
            return self.ingest(params["filepath"], execution=execution, **kw)
        if stype == "wal":
            from quickwit_ray.sources.wal import index_wal

            return index_wal(self.index_dir, execution=execution,
                             source_id=params.get("wal_source_id",
                                                  "_ingest-api"), **kw)
        if stype in ("mq", "sqs", "pub_sub"):
            from quickwit_ray.sources.mq import ingest_message_queue

            if client_factory is None:
                raise ValueError(
                    f"source_type {stype!r} needs a broker client "
                    "(pass client_factory; SDKs are not installed here)")
            return ingest_message_queue(
                client_factory(), self.index_dir, self.config,
                token=kw.pop("token", f"src-{source_id}"), **kw)
        # offset-checkpointed queue family
        from quickwit_ray.sources.queue import ingest_queue

        if client_factory is None:
            if stype != "queue":
                raise ValueError(
                    f"source_type {stype!r} needs a broker client "
                    "(pass client_factory; SDKs are not installed here)")
            qdir = params["queue_dir"]
        else:
            qdir = params.get("queue_dir", self.index_dir)
        return ingest_queue(qdir, self.index_dir, self.config,
                            execution=execution,
                            client_factory=client_factory,
                            checkpoint_prefix=f"src.{source_id}", **kw)

    def create_delete_task(self, query: str) -> int:
        return Manifest(self.index_dir).create_delete_task(query)

    def apply_deletes(self) -> int:
        return apply_delete_tasks(self.index_dir)

    def describe(self) -> dict:
        m = Manifest(self.index_dir)
        splits = m.published_splits()
        return {
            "index_id": m.index_config_json["index_id"],
            "num_published_splits": len(splits),
            "num_docs": sum(s.num_docs for s in splits),
            "num_committed_partitions": len(m.checkpoints),
            "num_delete_tasks": len(m.delete_tasks),
            "splits": [{"split_id": s.split_id, "num_docs": s.num_docs,
                        "num_merge_ops": s.num_merge_ops,
                        "time_range": [s.time_range_start, s.time_range_end]}
                       for s in sorted(splits, key=lambda x: x.split_id)],
        }

    def list_terms(self, field: str, **kw) -> pd.DataFrame:
        from quickwit_ray.search.listers import list_terms

        return list_terms(self.index_dir, field, **kw)

    def list_fields(self) -> pd.DataFrame:
        from quickwit_ray.search.listers import list_fields

        return list_fields(self.index_dir)


def _es_human_size(nbytes: int) -> str:
    """ES human-readable byte size ("272.4kb", 1kb = 1024b) as `_cat`
    renders store sizes."""
    n = float(nbytes)
    for unit in ("b", "kb", "mb", "gb", "tb"):
        if n < 1024 or unit == "tb":
            if unit == "b":
                return f"{int(n)}b"
            s = f"{n:.1f}"
            return (s[:-2] if s.endswith(".0") else s) + unit
        n /= 1024.0
    return f"{int(n)}pb"
