"""Native REST API — the one router for everything under /api/v1.

Re-expresses the reference's non-ES REST surface
(`quickwit-serve/src/index_api/rest_handler.rs`: GET/POST /indexes,
GET/PUT/DELETE /indexes/{id}, PUT /indexes/{id}/clear, GET .../describe,
source CRUD + toggle + reset-checkpoint; `template_api/rest_handler.rs`
index templates; `search_api/rest_handler.rs`: GET {index}/search with
query/max_hits/start_offset/sort_by/timestamps/snippet_fields, plus
search/stream and search-plan; OTLP, Jaeger, delete-task, node and
developer endpoints). ES-shaped endpoints (`_bulk`, `{index}/_search`,
`_msearch`, ...) fall through to an embedded :class:`EsRestService` over
the SAME live registry — one service serves both API roots, like the
reference's single server mounting /api/v1 and /api/v1/_elastic, so an
index created here is immediately ES-searchable.

The same (method, endpoint, params, body, ndjson) -> (status, payload)
contract drives the HTTP server and the offline replay of the
reference's rest-api-tests native suites. Indexes are created on demand
under a root directory from the PUBLIC index-config JSON
(`config.index_config_from_api_json`); invalid configs surface as HTTP
400 exactly where the reference's serde / validation layer rejects them.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

from quickwit_ray import storage
from quickwit_ray.api import Index
from quickwit_ray.config import (
    IndexConfig,
    index_config_from_api_json,
    validate_identifier,
    validate_index_id_pattern,
)
from quickwit_ray.search.es_rest import (
    EsApiError,
    EsRestService,
    _clean_scalar,
    _hit_source,
    normalize_endpoint,
    run_mapped,
)
from quickwit_ray.state.manifest import Manifest, has_metastore


def _assert_under_root(path: str, root: str) -> None:
    """Refuse any index directory that escapes the configured root
    (defense in depth behind config.validate_identifier: an id like
    ``..`` or ``a/../..`` must never materialize — or delete — outside
    index_root_dir)."""
    rp, rr = os.path.realpath(path), os.path.realpath(root)
    if not rp.startswith(rr + os.sep):
        raise EsApiError(400, f"index path {path!r} escapes the index "
                         "root directory")


class StreamingResponse:
    """Chunked byte-stream response: the HTTP layer sends each yielded
    chunk with ``Transfer-Encoding: chunked`` (the reference streams
    CSV/RowBinary per split leaf, search_stream/leaf.rs:51-356) — the
    export never materializes on the serving node. ``.data`` drains the
    stream for offline/service callers (tests, small results)."""

    def __init__(self, chunk_factory, content_type: str):
        self._factory = chunk_factory  # zero-arg callable -> byte iterator
        self.content_type = content_type

    def chunks(self):
        return self._factory()

    @property
    def data(self) -> bytes:
        return b"".join(self.chunks())


class RawResponse:
    """Non-JSON payload (the stream endpoint's CSV / RowBinary bytes)."""

    def __init__(self, data: bytes, content_type: str):
        self.data = data
        self.content_type = content_type


class IndexApiService:
    """Routes (method, endpoint, params, body, ndjson) for the native API.

    ``indexes`` is the live registry, shared (not copied) with the
    embedded ES dispatcher ``es``. ``index_root_dir`` is where POST
    /indexes and template auto-creation materialize new index
    directories (default_index_root_uri analog); creation is rejected
    when unset.
    """

    def __init__(self, indexes: dict[str, Index],
                 index_root_dir: Optional[str] = None):
        self.indexes = indexes
        self.index_root_dir = index_root_dir
        if index_root_dir is not None:
            os.makedirs(index_root_dir, exist_ok=True)
        self.es = EsRestService({})
        self.es.indexes = self.indexes  # shared live registry
        self.es.index_factory = self._auto_create
        # index templates (index_template.rs): pattern-matched configs
        # that auto-create an index on first ingest to a matching name
        self.templates: dict[str, dict] = {}

    # -- entry ------------------------------------------------------------

    def request(self, method: str, endpoint: str,
                params: Optional[dict] = None, body: Any = None,
                ndjson: Optional[list] = None) -> tuple[int, Any]:
        endpoint, params = normalize_endpoint(endpoint, params)
        if endpoint.startswith("api/developer/"):
            # the reference mounts the developer API at /api/developer,
            # OUTSIDE the /api/v1 prefix (developer_api/mod.rs)
            endpoint = endpoint[len("api/"):]
        parts = endpoint.split("/")
        if (endpoint == "" or parts[0].startswith("_")
                or (len(parts) >= 2 and parts[1].startswith("_"))
                or (method.upper() == "DELETE" and len(parts) == 1
                    and parts[0] not in ("indexes", "templates"))):
            # ES-shaped endpoint -> the embedded ES dispatcher (its own
            # error-body format)
            return self.es.request(method, endpoint, params, body, ndjson)
        # the native REST error body is {"message": ...} (quickwit-serve
        # rest error format)
        return run_mapped(lambda: self._route(method.upper(), endpoint,
                                              params, body, ndjson),
                          lambda e: {"message": e.reason})

    @staticmethod
    def wants_raw_body(endpoint: str) -> bool:
        """OTLP endpoints take protobuf (or JSON) BYTES — the HTTP layer
        must not pre-parse the body. Segment-exact so an index merely
        NAMED '*otlp' keeps normal JSON parsing."""
        parts = endpoint.strip("/").split("/")
        return parts[0] == "otlp" or (len(parts) >= 2 and parts[1] == "otlp")

    # -- routing ----------------------------------------------------------

    def _route(self, method: str, endpoint: str, params: dict,
               body: Any, ndjson: Optional[list]) -> Any:
        parts = endpoint.split("/")
        if parts[0] == "indexes":
            return self._route_indexes(method, parts[1:], params, body)
        if parts[0] == "templates":
            return self._route_templates(method, parts[1:], body)
        if len(parts) == 2 and parts[1] == "ingest" and method == "POST":
            return self._ingest(parts[0], ndjson or [])
        if len(parts) == 2 and parts[1] == "search":
            return self._search(parts[0], params,
                                body if isinstance(body, dict) else {})
        if len(parts) == 3 and parts[1:] == ["search", "stream"]:
            return self._search_stream(parts[0], params)
        if len(parts) == 2 and parts[1] == "search-plan":
            return self._search_plan(parts[0], params, body or {})
        if len(parts) >= 3 and parts[1] == "jaeger" and parts[2] == "api":
            return self._jaeger(parts[0], parts[3:], params)
        if len(parts) == 2 and parts[1] == "delete-tasks":
            return self._delete_tasks(method, parts[0], body)
        if parts[0] == "version":
            return {"build": {"version": "0.8.0-quickwit-ray",
                              "commit_date": "", "commit_hash": ""}}
        if parts[0] == "cluster":
            # cluster snapshot (cluster_api/mod.rs shape subset): this
            # process is the root node; under execution="ray" the shared
            # leaf actor pool members are the live LEAF searcher nodes
            # (membership = Ray actor liveness, the chitchat analog)
            import quickwit_ray.search.engine as _eng

            leaf_nodes = []
            if _eng._SHARED_ACTOR_POOL is not None:
                leaf_nodes = [f"leaf-{i}" for i in
                              range(len(_eng._SHARED_ACTOR_POOL.actors))]
            nodes = ["node-1"] + leaf_nodes
            return {"cluster_id": "quickwit-ray", "self_node_id": "node-1",
                    "live_nodes": nodes, "ready_nodes": nodes,
                    "search_execution": _eng._DEFAULT_EXECUTION,
                    "num_indexes": len(self.indexes)}
        if parts[0] == "health" and len(parts) == 2 \
                and parts[1] in ("livez", "readyz"):
            return True  # the reference returns a bare JSON boolean
        if parts[0] == "metrics":
            return self._metrics()
        if parts[0] == "developer":
            return self._developer(parts[1:], params)
        if parts[0] == "otlp" and len(parts) == 3 and parts[1] == "v1":
            return self._otlp(None, parts[2], body, params)
        if len(parts) == 4 and parts[1] == "otlp" and parts[2] == "v1":
            return self._otlp(parts[0], parts[3], body, params)
        raise EsApiError(400, f"unsupported endpoint {endpoint!r}")

    def _route_indexes(self, method: str, parts: list[str], params: dict,
                       body: Any) -> Any:
        if not parts or parts == [""]:
            if method == "GET":
                return [self._metadata(n) for n in sorted(self.indexes)]
            if method == "POST":
                return self._create(body or {})
        elif len(parts) == 1:
            name = parts[0]
            if method == "GET":
                return self._metadata(name)
            if method == "PUT":
                idx = self._idx(name)
                idx.update_config(api_json=body or {})
                return self._metadata(name)
            if method == "DELETE":
                return self._delete(name)
        elif len(parts) == 2 and parts[1] == "clear" and method == "PUT":
            # drop splits + checkpoints, keep the config
            n = self._idx(parts[0]).clear()
            return {"acknowledged": True, "num_splits_dropped": n}
        elif len(parts) == 2 and parts[1] == "describe" and method == "GET":
            return self._idx(parts[0]).describe()
        elif len(parts) >= 2 and parts[1] == "sources":
            return self._route_sources(method, parts[0], parts[2:], body)
        elif len(parts) == 2 and parts[1] == "splits" and method == "GET":
            return self._splits(parts[0], params)
        elif len(parts) == 3 and parts[1] == "splits" \
                and parts[2] == "mark-for-deletion" and method == "PUT":
            ids = (body or {}).get("split_ids", [])
            Manifest(self._idx(parts[0]).index_dir).mark_for_deletion(ids)
            return {"acknowledged": True}
        raise EsApiError(
            400, f"unsupported endpoint indexes/{'/'.join(parts)!r}")

    def _route_sources(self, method: str, name: str, rest: list[str],
                       body: Any) -> Any:
        idx = self._idx(name)
        if not rest:
            if method == "GET":
                return idx.list_sources()
            if method == "POST":
                return idx.add_source(body or {})
        elif len(rest) == 1:
            if method == "DELETE":
                idx.delete_source(rest[0])
                return {"acknowledged": True}
            if method == "GET":
                src = Manifest(idx.index_dir).sources.get(rest[0])
                if src is None:
                    raise EsApiError(404, f"no source {rest[0]!r}")
                return src
        elif len(rest) == 2 and rest[1] == "toggle" and method == "PUT":
            idx.toggle_source(rest[0], bool((body or {}).get("enable", True)))
            return {"acknowledged": True}
        elif len(rest) == 2 and rest[1] == "reset-checkpoint" \
                and method == "PUT":
            n = idx.reset_source_checkpoint(rest[0])
            return {"acknowledged": True, "checkpoints_removed": n}
        raise EsApiError(400, "unsupported sources endpoint")

    # -- handlers ----------------------------------------------------------

    def _idx(self, name: str) -> Index:
        idx = self.indexes.get(name)
        if idx is None:
            raise EsApiError(404, f"index not found: {name}")
        return idx

    def _metadata(self, name: str) -> dict:
        m = Manifest(self._idx(name).index_dir)
        return {
            "version": "0.8",
            "index_config": IndexConfig.from_json(
                m.index_config_json).to_json(),
            "checkpoint": m.checkpoints,
            "sources": list(m.sources.values()),
        }

    def _create(self, payload: dict) -> dict:
        if self.index_root_dir is None:
            raise EsApiError(400, "index creation is disabled: the server "
                             "was started without an index root dir")
        try:
            cfg = index_config_from_api_json(payload)
        except ValueError as e:
            raise EsApiError(400, str(e))
        if cfg.index_id in self.indexes:
            raise EsApiError(400, f"index {cfg.index_id!r} already exists")
        d = os.path.join(self.index_root_dir, cfg.index_id)
        _assert_under_root(d, self.index_root_dir)
        try:
            # NEVER clobber an on-disk index that merely isn't registered
            # (e.g. after a server restart): Index.create refuses
            self.indexes[cfg.index_id] = Index.create(
                d, cfg.index_id, cfg.doc_mapping, settings=cfg.settings)
        except FileExistsError:
            raise EsApiError(
                400, f"index {cfg.index_id!r} already exists on disk at "
                f"{d} — open/serve it or DELETE it first")
        return self._metadata(cfg.index_id)

    # -- index templates ----------------------------------------------------

    def _route_templates(self, method: str, parts: list[str],
                         body: Any) -> Any:
        if method == "GET" and not parts:
            # list_index_templates (template_api/rest_handler.rs)
            return sorted(self.templates.values(),
                          key=lambda t: t["template_id"])
        if method == "POST" and not parts:
            tpl = self._validate_template(body or {})
            if tpl["template_id"] in self.templates:
                raise EsApiError(
                    400, f"index template {tpl['template_id']!r} "
                    "already exists")
            self.templates[tpl["template_id"]] = tpl
            return tpl
        if method == "PUT" and len(parts) == 1:
            # update_index_template: the path id OVERRIDES any id in the
            # body, then create-with-overwrite
            # (template_api/rest_handler.rs update_index_template)
            tpl = self._validate_template(
                dict(body or {}, template_id=parts[0]))
            self.templates[tpl["template_id"]] = tpl
            return tpl
        if method == "DELETE" and len(parts) == 1:
            if self.templates.pop(parts[0], None) is None:
                raise EsApiError(404, f"template not found: {parts[0]}")
            return {"acknowledged": True}
        if method == "GET" and len(parts) == 1:
            t = self.templates.get(parts[0])
            if t is None:
                raise EsApiError(404, f"template not found: {parts[0]}")
            return t
        raise EsApiError(
            400, f"unsupported endpoint {'/'.join(['templates', *parts])!r}")

    def _auto_create(self, name: str) -> Optional[Index]:
        """Index-template auto-creation hook for `_bulk` to an unknown
        index: the first template whose pattern matches the name creates
        it with the template's doc mapping. An index already ON DISK at
        the target path (unregistered after a restart) is opened, never
        clobbered."""
        if self.index_root_dir is None:
            return None  # creation disabled: no index root dir configured
        try:
            validate_identifier("index", name)
        except ValueError:
            return None  # traversal-shaped names never auto-create
        tpl = self._find_matching_template(name)
        if tpl is not None:
            cfg = index_config_from_api_json(
                {"index_id": name,
                 "doc_mapping": tpl.get("doc_mapping") or {},
                 "indexing_settings": tpl.get("indexing_settings"),
                 "retention": tpl.get("retention"),
                 "search_settings": tpl.get("search_settings")})
            d = os.path.join(self.index_root_dir, name)
            try:
                return Index.create(d, name, cfg.doc_mapping,
                                    settings=cfg.settings)
            except FileExistsError:
                return Index.open(d)
        return None

    def _validate_template(self, body: dict) -> dict:
        """IndexTemplate.validate (index_template/mod.rs:81-99):
        identifier-checked template_id, >= 1 pattern, every pattern
        validated with negatives allowed; priority defaults to 0."""
        tpl = dict(body)
        try:
            validate_identifier("template", tpl.get("template_id"))
            patterns = tpl.get("index_id_patterns") or []
            if not isinstance(patterns, (list, tuple)) or not patterns:
                raise ValueError("`index_id_patterns` must not be empty")
            for p in patterns:
                validate_index_id_pattern(p, allow_negative=True)
            prio = tpl.setdefault("priority", 0)
            if not isinstance(prio, int) or prio < 0:
                raise ValueError("`priority` must be a non-negative "
                                 "integer")
        except ValueError as e:
            raise EsApiError(400, f"invalid index template: {e}")
        return tpl

    def _find_matching_template(self, name: str) -> Optional[dict]:
        """First match by (-priority, template_id) order; a template
        matches when any positive pattern matches AND no negative
        (``-``-prefixed) pattern does (file_backed/index_template_matcher
        .rs + index_id_matcher.rs is_match)."""
        import fnmatch

        for tpl in sorted(self.templates.values(),
                          key=lambda t: (-t.get("priority", 0),
                                         t.get("template_id", ""))):
            pats = tpl.get("index_id_patterns", ())
            pos = [p for p in pats if not p.startswith("-")]
            neg = [p[1:] for p in pats if p.startswith("-")]
            if (any(fnmatch.fnmatchcase(name, p) for p in pos)
                    and not any(fnmatch.fnmatchcase(name, p)
                                for p in neg)):
                return tpl
        return None

    # -- index lifecycle ----------------------------------------------------

    def _delete(self, name: str) -> dict:
        idx = self._idx(name)
        del self.indexes[name]
        # never rmtree a directory that is not actually an index root: a
        # registration pointing at anything else must not take the tree
        # with it
        if not has_metastore(idx.index_dir):
            raise EsApiError(
                500, f"refusing to delete {idx.index_dir}: no metastore "
                "(not an index directory)")
        # purge shared-metastore rows BEFORE the dir (and its DSN
        # pointer) disappears, or a pg-backed index could never be
        # recreated at the same path
        Manifest(idx.index_dir).drop()
        storage.rmtree(idx.index_dir, ignore_errors=True)
        return {"acknowledged": True}

    def _splits(self, name: str, params: dict) -> dict:
        """Split listing resource (index_api/split_resource.rs: optional
        split-state and timestamp-overlap filters)."""
        m = Manifest(self._idx(name).index_dir)
        states = params.get("split_states")
        wanted = ({s.strip().lower() for s in str(states).split(",")}
                  if states else None)
        lo = params.get("start_timestamp")
        hi = params.get("end_timestamp")
        lo = int(lo) if lo is not None else None
        hi = int(hi) if hi is not None else None
        if wanted is None or wanted == {"published"}:
            splits = m.list_splits(lo, hi)
        else:
            # state filter composes with the timestamp-overlap filter
            # (split_resource.rs ListSplitsQuery)
            splits = [
                s for s in m.splits.values()
                if s.split_state.lower() in wanted
                and not (lo is not None and s.time_range_end is not None
                         and s.time_range_end < lo)
                and not (hi is not None and s.time_range_start is not None
                         and s.time_range_start >= hi)]
        out = [s.to_json() for s in splits]
        return {"splits": out, "total": len(out)}

    def _search_plan(self, name: str, params: dict, body: dict) -> dict:
        """Query planning metadata (search_api search-plan handlers): how
        many splits the request would touch after time/tag pruning."""
        from quickwit_ray.search.ast import (
            extract_tags,
            extract_timestamp_bounds,
        )
        from quickwit_ray.search.engine import get_searcher

        idx = self._idx(name)
        p = {**body, **params}
        s = get_searcher(idx.index_dir)
        node = s._resolve_query(p.get("query", "*"))
        lo = int(p["start_timestamp"]) if p.get("start_timestamp") is not None else None
        hi = int(p["end_timestamp"]) if p.get("end_timestamp") is not None else None
        ts = idx.config.doc_mapping.timestamp_field
        if ts:
            qlo, qhi = extract_timestamp_bounds(node, ts)
            if qlo is not None:
                lo = qlo if lo is None else max(lo, qlo)
            if qhi is not None:
                hi = qhi if hi is None else min(hi, qhi)
        tags = extract_tags(node, idx.config.doc_mapping.tag_fields)
        all_splits = s.manifest.published_splits()
        pruned = s.manifest.list_splits(lo, hi, tags)
        return {
            "quickwit_query_ast": repr(node),
            "num_splits_total": len(all_splits),
            "num_splits_after_pruning": len(pruned),
            "split_ids": sorted(x.split_id for x in pruned),
            "start_timestamp": lo, "end_timestamp": hi,
        }

    def _delete_tasks(self, method: str, name: str, body: Any):
        """Delete-task API (delete_task_api/handler.rs: POST creates a
        stored delete query with optional search fields / timestamp
        bounds folded into the query; GET lists pending tasks)."""
        idx = self._idx(name)
        if method == "GET":
            return Manifest(idx.index_dir).delete_tasks
        if method == "POST":
            b = dict(body or {})
            q = b.get("query")
            if not q:
                raise EsApiError(400, "`query` is required")
            fields = b.get("search_fields") or []
            if fields:
                q = " OR ".join(f"{f}:({q})" for f in fields)
            ts = idx.config.doc_mapping.timestamp_field
            lo, hi = b.get("start_timestamp"), b.get("end_timestamp")
            if (lo is not None or hi is not None):
                if ts is None:
                    raise EsApiError(400, "index has no timestamp field")
                if lo is not None:
                    q = f"({q}) AND {ts}:>={int(lo)}"
                if hi is not None:
                    q = f"({q}) AND {ts}:<{int(hi)}"
            opstamp = idx.create_delete_task(q)
            return {"opstamp": opstamp, "query": q}
        raise EsApiError(400, "unsupported delete-tasks method")

    def _developer(self, parts: list[str], params: dict) -> Any:
        """Developer API (quickwit-serve/src/developer_api): `/debug`
        dumps the node's internal state; `/log-level?level=` retunes the
        process logger (single-node analog of the env-filter reload)."""
        import fnmatch
        import logging

        if parts and parts[0] == "debug":
            pat = (params.get("node_ids") or "*").split(",")
            if not any(fnmatch.fnmatchcase("node-1", p.strip().lower())
                       for p in pat):
                return {}
            from quickwit_ray.search.permits import get_permit_provider

            out: dict = {"node_id": "node-1", "indexes": {}}
            from quickwit_ray.state.manifest import Manifest

            for name, idx in sorted(self.indexes.items()):
                try:
                    m = Manifest(idx.index_dir)
                    splits = m.published_splits()
                    out["indexes"][name] = {
                        "num_splits": len(splits),
                        "num_docs": int(sum(s.num_docs for s in splits)),
                        "num_delete_tasks": len(m.delete_tasks),
                    }
                except Exception as e:  # noqa: BLE001 — debug must not 500
                    out["indexes"][name] = {"error": str(e)}
            p = get_permit_provider()
            out["search_permits"] = {
                "memory_budget": p.memory_budget,
                "peak_allocated": p.peak_allocated,
                "peak_in_flight": p.peak_in_flight}
            return out
        if parts and parts[0] == "log-level":
            level = str(params.get("level", "")).upper()
            if level not in ("DEBUG", "INFO", "WARNING", "WARN", "ERROR"):
                raise ValueError(f"unsupported log level {level!r}")
            logging.getLogger("quickwit_ray").setLevel(
                "WARNING" if level == "WARN" else level)
            return RawResponse(f"set log level to {level}\n".encode(),
                               "text/plain")
        raise KeyError(f"unsupported developer endpoint {'/'.join(parts)!r}")

    def _metrics(self) -> RawResponse:
        """Prometheus text exposition of per-index state (a pragmatic
        subset of the reference's /metrics — quickwit-common metrics)."""
        lines = [
            "# TYPE quickwit_index_num_docs gauge",
            "# TYPE quickwit_index_num_splits gauge",
            "# TYPE quickwit_index_size_bytes gauge",
        ]
        from quickwit_ray.search.engine import get_searcher

        for name in sorted(self.indexes):
            # the cached searcher's manifest: a scrape with no commit in
            # between loads nothing; an index deleted behind the
            # registry's back reports 0 instead of failing the scrape
            try:
                splits = get_searcher(
                    self.indexes[name].index_dir).manifest.published_splits()
            except FileNotFoundError:
                splits = []
            lines.append(f'quickwit_index_num_docs{{index="{name}"}} '
                         f"{sum(s.num_docs for s in splits)}")
            lines.append(f'quickwit_index_num_splits{{index="{name}"}} '
                         f"{len(splits)}")
            lines.append(f'quickwit_index_size_bytes{{index="{name}"}} '
                         f"{sum(s.uncompressed_docs_size_in_bytes for s in splits)}")
        return RawResponse(("\n".join(lines) + "\n").encode(),
                           "text/plain; version=0.0.4")

    def _jaeger(self, name: str, rest: list[str], params: dict):
        """Jaeger HTTP query API over a traces index
        (jaeger_api/rest_handler.rs paths {index}/jaeger/api/...)."""
        from quickwit_ray.search.jaeger import JaegerService

        svc = JaegerService(self._idx(name))
        if rest == ["services"]:
            return svc.services()
        if len(rest) == 3 and rest[0] == "services" \
                and rest[2] == "operations":
            sk = params.get("spanKind")
            return svc.operations(rest[1],
                                  span_kind=int(sk) if sk is not None
                                  else None)
        if rest == ["traces"]:
            return svc.find_traces(params)
        if len(rest) == 2 and rest[0] == "traces":
            return svc.get_trace(rest[1])
        raise EsApiError(400, "unsupported jaeger endpoint")

    def _otlp(self, name: Optional[str], signal: str, body: Any,
              params: dict) -> dict:
        """OTLP HTTP ingest (otlp_api/rest_handler.rs: POST
        [{index}/]otlp/v1/logs|traces, protobuf or JSON payload; default
        index ids otel-logs-v0_9 / otel-traces-v0_9)."""
        from quickwit_ray.sources.ingest import decode_input

        if signal not in ("logs", "traces"):
            raise EsApiError(400, f"unknown OTLP signal {signal!r}")
        if name is None:
            name = ("otel-logs-v0_9" if signal == "logs"
                    else "otel-traces-v0_9")
        idx = self._idx(name)
        raw = body if isinstance(body, (bytes, bytearray)) else (
            json.dumps(body).encode() if body is not None else b"")
        ctype = params.get("_content_type", "")
        is_json = ("json" in ctype
                   or (not ctype and raw.lstrip()[:1] == b"{"))
        docs = decode_input(
            raw, f"otlp_{signal}_{'json' if is_json else 'protobuf'}")
        n = idx.ingest_docs(docs)
        # ExportLogsServiceResponse / ExportTraceServiceResponse: empty on
        # full success (partialSuccess omitted)
        return {"num_docs_for_processing": n}

    def _search_stream(self, name: str, params: dict) -> RawResponse:
        """Fast-field export endpoint (search_api/rest_handler.rs
        search_stream_handler: query + fast_field + output_format
        csv|click_house_row_binary + timestamp bounds). The underlying
        pipeline fans one Ray task per split and streams Arrow blocks;
        the HTTP shim drains them into the response body."""
        from quickwit_ray.pipelines.search_stream import (
            export_rowbinary,
            search_stream_index,
        )
        from quickwit_ray.search.ast import BoolQuery, RangeQuery
        from quickwit_ray.search.engine import get_searcher

        idx = self._idx(name)
        fast_field = params.get("fast_field")
        if not fast_field:
            raise EsApiError(400, "`fast_field` is required")
        searcher = get_searcher(idx.index_dir)
        node = searcher._resolve_query(params.get("query", "*"))
        lo = params.get("start_timestamp")
        hi = params.get("end_timestamp")
        if lo is not None or hi is not None:
            ts = idx.config.doc_mapping.timestamp_field
            if ts is None:
                raise EsApiError(400, "index has no timestamp field")
            rng = RangeQuery(ts,
                             gte=int(lo) if lo is not None else None,
                             lt=int(hi) if hi is not None else None)
            node = BoolQuery(must=(node,), filter=(rng,))
        fmt = params.get("output_format", "csv")
        if fmt not in ("csv", "click_house_row_binary",
                       "clickhouse_row_binary"):
            raise EsApiError(400, f"unknown output_format {fmt!r}")
        ds = search_stream_index(idx.index_dir, node, [fast_field])
        binary = fmt != "csv"

        def gen():
            # one encoded chunk per streamed Arrow block — the export is
            # never concatenated on the serving node (a 100x-scale ts
            # export previously OOMed the driver via ds.to_pandas())
            for b in ds.iter_batches(batch_size=None,
                                     batch_format="pandas"):
                if not len(b):
                    continue
                yield (export_rowbinary(b, fast_field) if binary
                       else b.to_csv(index=False, header=False).encode())

        return StreamingResponse(
            gen, "application/octet-stream" if binary else "text/csv")

    # -- ingest + search ----------------------------------------------------

    def _ingest(self, name: str, docs: list) -> dict:
        import pyarrow.compute as pc

        from quickwit_ray.sources.ingest import RejectedDocs, _docs_to_table

        idx = self._idx(name)
        mapping = idx.config.doc_mapping
        rejected = 0
        try:
            table = _docs_to_table(docs, mapping)
        except RejectedDocs as e:
            table, rejected = e.table, len(e.rejects)
        if mapping.timestamp_field:
            # the doc processor rejects docs missing the timestamp field
            # (doc_processor.rs: a time-series index needs every doc on
            # the time axis for split pruning)
            timed = table.filter(pc.is_valid(table[mapping.timestamp_field]))
            rejected += table.num_rows - timed.num_rows
            table = timed
        if table.num_rows:
            idx.ingest_docs(table)
        return {"num_docs_for_processing": len(docs),
                "num_rejected_docs": rejected}

    def _search(self, name: str, params: dict, body: dict) -> dict:
        """Native search endpoint (search_api/rest_handler.rs
        SearchRequestQueryString -> SearchResponseRest). GET query params
        or an equivalent JSON body; params win."""
        idx = self._idx(name)
        p = {**body, **params}

        def csv(v) -> list[str]:
            return [s.strip() for s in str(v).split(",") if s.strip()]

        mh = p.get("max_hits")
        kw: dict[str, Any] = {"max_hits": 20 if mh is None else int(mh)}
        if p.get("start_offset") is not None:
            kw["start_offset"] = int(p["start_offset"])
        # the public API takes unix SECONDS; fast columns hold micros
        for t in ("start_timestamp", "end_timestamp"):
            if p.get(t) is not None:
                kw[t] = int(p[t]) * 1_000_000
        sort_by = p.get("sort_by") or p.get("sort_by_field")
        if sort_by:
            # "+field,-other" strings; engine._normalize_sort handles the
            # +/- prefixes with the reference's default (bare = desc)
            kw["sort_by"] = csv(sort_by)
        snippet_cols = []
        if p.get("snippet_fields"):
            kw["snippet_fields"] = tuple(csv(p["snippet_fields"]))
            snippet_cols = [f"snippet_{f}" for f in kw["snippet_fields"]]
        resp = idx.search(p.get("query", "*"), **kw)
        mapping = idx.config.doc_mapping
        hits = []
        for row in resp.hits.to_dict("records"):
            hit = {k: _clean_scalar(v)
                   for k, v in _hit_source(row, mapping).items()}
            # a stored `_source` does not carry the snippet columns
            hit.update((c, row[c]) for c in snippet_cols if c in row)
            hits.append(hit)
        return {
            "num_hits": int(resp.num_hits),
            "hits": hits,
            "elapsed_time_micros": int(resp.elapsed_sec * 1e6),
            "errors": [str(f) for f in resp.failed_splits],
        }
