"""Offline ES-compatible REST dispatcher — the library-level analog of the
reference's elasticsearch REST tier (`quickwit-serve/src/elasticsearch_api/
rest_handler.rs:71-294`): `_search`, `_search/scroll`, `_count`, `_msearch`,
`_stats`, `_cat/indices`, `_bulk`, plus quickwit's native `{index}/ingest`.

There is no HTTP server (library/CLI target); `EsRestService.request()`
takes (method, endpoint, params, body) and returns ``(status, payload)``
shaped exactly like the reference's JSON responses, so the reference's
rest-api-tests conformance corpus replays against it offline
(tests/test_es_conformance.py).
"""

from __future__ import annotations

import fnmatch
import os
import json
from typing import Any, Callable, Optional
from urllib.parse import parse_qsl, unquote

import numpy as np
import pandas as pd

from quickwit_ray.api import Index
from quickwit_ray.search.engine import IndexSearcher, SearchResponse
from quickwit_ray.search.es_dsl import es_query_to_ast, es_search_request
from quickwit_ray.search.parser import parse_query


class EsApiError(Exception):
    """Maps to a non-2xx REST response. ``type`` and ``extra`` feed the
    ES error object (`{"error": {"type", "reason", ...}}`)."""

    def __init__(self, status: int, reason: str, type: Optional[str] = None,
                 extra: Optional[dict] = None):
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.type = type
        self.extra = extra or {}

    def body(self) -> dict:
        err: dict[str, Any] = {}
        if self.type:
            err["type"] = self.type
        err["reason"] = self.reason
        err.update(self.extra)
        return {"status": self.status, "error": err}


def normalize_endpoint(endpoint: str,
                       params: Optional[dict]) -> tuple[str, dict]:
    """Unquoted, slash-stripped endpoint and a params copy with any
    ``?query`` suffix of the endpoint folded in."""
    params = dict(params or {})
    endpoint = unquote(endpoint).strip("/")
    if "?" in endpoint:
        endpoint, qs = endpoint.split("?", 1)
        params.update(dict(parse_qsl(qs)))
    return endpoint, params


def run_mapped(route: Callable[[], Any],
               error_body: Callable[[EsApiError], Any]) -> tuple[int, Any]:
    """``(200, route())``, or the error status with ``error_body(err)``:
    :class:`EsApiError` keeps its status; malformed request shapes
    (ValueError/KeyError/TypeError) are client errors, 400, never 500.

    AttributeError/IndexError are deliberately NOT caught: the
    parse-boundary wrappers (es_dsl, body validation) already convert
    parse-shaped failures to ValueError, so those escaping here are
    internal bugs that must reach the server's last-resort 500, not
    masquerade as client 400s."""
    try:
        return 200, route()
    except EsApiError as e:
        return e.status, error_body(e)
    except (ValueError, KeyError, TypeError) as e:
        return 400, error_body(EsApiError(400, f"Invalid argument: {e}"))


# ---------------------------------------------------------------------------
# response rendering
# ---------------------------------------------------------------------------

def _parse_source_param(v) -> Optional[list[str]]:
    if v is None:
        return None
    if isinstance(v, str):
        return [s for s in v.split(",") if s]
    return list(v)


def _filter_source(src: dict, includes: Optional[list[str]],
                   excludes: Optional[list[str]]) -> dict:
    """ES _source_includes/_source_excludes with dotted-path support
    (excludes win on overlap, matching ES)."""
    def pick(obj: dict, path: list[str]):
        node = obj
        for p in path:
            if not isinstance(node, dict) or p not in node:
                return False, None
            node = node[p]
        return True, node

    def put(obj: dict, path: list[str], val):
        node = obj
        for p in path[:-1]:
            node = node.setdefault(p, {})
        node[path[-1]] = val

    out = src
    if includes is not None:
        out = {}
        for inc in includes:
            ok, val = pick(src, inc.split("."))
            if ok:
                put(out, inc.split("."), val)
    if excludes:
        out = json.loads(json.dumps(out))  # deep copy before pruning
        for exc in excludes:
            parts = exc.split(".")
            node = out
            for p in parts[:-1]:
                node = node.get(p) if isinstance(node, dict) else None
                if node is None:
                    break
            if isinstance(node, dict):
                node.pop(parts[-1], None)
    return out


def _clean_scalar(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        f = float(v)
        return int(f) if f.is_integer() and abs(f) < 2**53 else f
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def _hit_source(row: dict, mapping) -> dict:
    """_source for one hit (row = one hits-DataFrame record as a dict —
    renderers iterate `to_dict("records")`, never pandas iterrows): the
    verbatim stored `_source` column when the mapping has one (the
    reference's store_source), else the stored fields re-assembled (json
    columns parsed back to objects, nulls dropped)."""
    if isinstance(row.get("_source"), str):
        return json.loads(row["_source"])
    src: dict[str, Any] = {}
    json_fields = {f.name for f in mapping.field_mappings if f.type == "json"}
    for col, v in row.items():
        if col.startswith("_") or col in ("sort_key0", "sort_key1"):
            continue
        if v is None or (isinstance(v, float) and np.isnan(v)):
            continue
        if col in json_fields and isinstance(v, str):
            try:
                v = json.loads(v)
            except ValueError:
                pass
        src[col] = _clean_scalar(v)
    return _nest_dotted(src)


def _nest_dotted(src: dict) -> dict:
    """Re-nest dotted stored columns into objects for `_source` rendering
    (`actor.login` -> {"actor": {"login": ...}}) — the inverse of the
    ingest-side struct flattening (expand_dots); the reference renders the
    dynamic doc as nested JSON. Keys whose path collides with a non-object
    value stay flat."""
    if not any("." in k for k in src):
        return src
    out: dict[str, Any] = {}
    for k, v in src.items():
        if "." not in k:
            out.setdefault(k, v)
    for k, v in src.items():
        if "." not in k:
            continue
        parts = k.split(".")
        d: Any = out
        ok = True
        for p in parts[:-1]:
            nxt = d.get(p)
            if nxt is None:
                nxt = d[p] = {}
            elif not isinstance(nxt, dict):
                ok = False
                break
            d = nxt
        if ok:
            d.setdefault(parts[-1], v)
        else:
            out[k] = v
    return out


def _sort_values(row: dict, sort_fields, mapping,
                 sort_formats: Optional[dict] = None) -> list:
    out = []
    for i, sf in enumerate(sort_fields[:2]):
        v = row[f"sort_key{i}"]
        if v is None or (isinstance(v, float) and np.isnan(v)):
            out.append(None)
            continue
        # datetime sort keys surface as epoch millis (ES convention) or
        # nanos with `format: epoch_nanos_int`; internal values are micros
        try:
            fm = mapping.resolve_field(sf.field)
        except KeyError:
            fm = None
        if fm is not None and fm.type == "datetime":
            fmt = (sort_formats or {}).get(sf.field)
            if fmt == "epoch_nanos_int":
                out.append(int(v) * 1000)
            else:
                out.append(int(v) // 1000)
        else:
            from quickwit_ray.search.sortkeys import py_scalar

            v = py_scalar(v)
            # exact ints/bools stay themselves (i64::MAX must
            # round-trip); floats render through the integer-collapse
            # cleanup
            out.append(v if isinstance(v, int)  # bool is an int subclass
                       else _clean_scalar(np.float64(v)))
    return out


def _render_aggs(aggs_spec: Optional[dict], aggs: Optional[dict],
                 mapping) -> Optional[dict]:
    """Post-process native agg output into the ES response shape:
    date_histogram keys become epoch millis + key_as_string."""
    if aggs is None or aggs_spec is None:
        return aggs

    def walk(spec: dict, out: dict) -> dict:
        res = {}
        for name, body in spec.items():
            kind = next(k for k in body if k != "aggs")
            node = out.get(name)
            if node is None:
                res[name] = None
                continue
            node = json.loads(json.dumps(node, default=_clean_scalar))

            def _buckets(n):
                # keyed=true responses carry a hashmap; walk its values
                b = n.get("buckets")
                return b.values() if isinstance(b, dict) else (b or [])

            if kind == "date_histogram" and "buckets" in node:
                for b in _buckets(node):
                    us = float(b["key"])
                    ms = us / 1000.0
                    b["key"] = ms
                    b["key_as_string"] = (
                        pd.Timestamp(int(us), unit="us", tz="UTC")
                        .strftime("%Y-%m-%dT%H:%M:%SZ"))
                if isinstance(node.get("buckets"), dict):
                    # keyed=true: ES keys the hashmap by key_as_string,
                    # not the internal microsecond key (round-3 ADVICE)
                    node["buckets"] = {b["key_as_string"]: b
                                       for b in node["buckets"].values()}
            sub = body.get("aggs")
            if sub and "buckets" in node:
                for b in _buckets(node):
                    rendered = walk(sub, b)
                    b.update(rendered)
            res[name] = node
        return res

    return walk(aggs_spec, aggs)


def render_search_response(resp: SearchResponse, index_id: str, mapping,
                           sort_fields=(), aggs_spec: Optional[dict] = None,
                           source_includes: Optional[list[str]] = None,
                           source_excludes: Optional[list[str]] = None,
                           scroll_id: Optional[str] = None,
                           sort_formats: Optional[dict] = None,
                           index_prefix_map: Optional[dict] = None,
                           mapping_by_index: Optional[dict] = None) -> dict:
    hits = []
    for row in resp.hits.to_dict("records"):
        iname, m = index_id, mapping
        if index_prefix_map:
            # federated search: attribute each hit to ITS index by split
            # directory (multi.py routes the fetch the same way)
            sd = str(row.get("_split_dir", ""))
            for pref, n in index_prefix_map.items():
                if sd.startswith(pref):
                    iname = n
                    if mapping_by_index:
                        m = mapping_by_index.get(n, mapping)
                    break
        h: dict[str, Any] = {"_index": iname}
        src = _hit_source(row, m)
        doc_id_field = m.doc_id_field
        if doc_id_field in src:
            h["_id"] = str(src[doc_id_field])
        if row.get("_score") is not None:
            s = row["_score"]
            h["_score"] = None if (isinstance(s, float) and np.isnan(s)) else (
                _clean_scalar(np.float64(s)) if s is not None else None)
        h["_source"] = _filter_source(src, source_includes, source_excludes)
        if sort_fields:
            h["sort"] = _sort_values(row, list(sort_fields), m,
                                     sort_formats)
        hits.append(h)
    out = {
        "took": int(resp.elapsed_sec * 1000),
        "timed_out": False,
        "hits": {
            "total": {"value": int(resp.num_hits),
                      "relation": "eq" if resp.num_hits_exact else "gte"},
            "hits": hits,
        },
    }
    rendered_aggs = _render_aggs(aggs_spec, resp.aggs, mapping)
    if rendered_aggs is not None:
        out["aggregations"] = rendered_aggs
    if scroll_id is not None:
        out["_scroll_id"] = scroll_id
    return out


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

class EsRestService:
    """Routes (method, endpoint, params, body) over a registry of indexes,
    exactly like the reference's REST handlers — minus the HTTP socket."""

    def __init__(self, indexes: dict[str, Index]):
        self.indexes = dict(indexes)
        # optional hook: called with an unknown index name on `_bulk`;
        # returns a freshly created Index (index-template auto-create,
        # IndexApiService wires this) or None
        self.index_factory = None
        self._scroll_owner: dict[str, str] = {}  # scroll_id -> index name
        # federated scrolls: scroll_id -> {names, kw, pos, sort_formats}.
        # Pages re-execute the merged search at an advancing offset (the
        # single-index path keeps real cached scroll contexts).
        self._multi_scroll: dict[str, dict] = {}

    # -- registry -------------------------------------------------------

    def _index(self, name: str) -> Index:
        idx = self.indexes.get(name)
        if idx is None:
            raise EsApiError(404, f"index not found: {name}")
        return idx

    def _match_indexes(self, pattern: str) -> dict[str, Index]:
        return {n: i for n, i in self.indexes.items()
                if fnmatch.fnmatch(n, pattern)}

    def _resolve_targets(self, expr: str) -> list[str]:
        """ES index-target expression (root.rs index-id-pattern
        resolution): comma-separated items, each a name, a wildcard
        pattern, or a `-pattern` exclusion removing already-selected
        names. A wildcard may match nothing; a CONCRETE missing name is a
        404 (`multi-indices/0001` semantics)."""
        selected: dict[str, None] = {}
        for item in str(expr).split(","):
            item = item.strip()
            if not item:
                continue
            if item.startswith("-"):
                pat = item[1:]
                for n in [n for n in selected if fnmatch.fnmatch(n, pat)]:
                    del selected[n]
                continue
            if "*" in item or "?" in item:
                for n in self.indexes:
                    if fnmatch.fnmatch(n, item):
                        selected[n] = None
            elif item in self.indexes:
                selected[item] = None
            else:
                raise EsApiError(
                    404, f"no such index [{item}]",
                    type="index_not_found_exception",
                    extra={"index": item})
        return list(selected)

    # -- entry ----------------------------------------------------------

    def request(self, method: str, endpoint: str,
                params: Optional[dict] = None, body: Any = None,
                ndjson: Optional[list] = None) -> tuple[int, Any]:
        endpoint, params = normalize_endpoint(endpoint, params)
        # the reference answers malformed request shapes with
        # x_content_parse_exception-style 400s
        return run_mapped(lambda: self._route(method.upper(), endpoint,
                                              params, body, ndjson),
                          EsApiError.body)

    # -- routing --------------------------------------------------------

    def _route(self, method: str, endpoint: str, params: dict, body: Any,
               ndjson: Optional[list]) -> Any:
        parts = endpoint.split("/")
        if endpoint == "":
            # root info (elasticsearch_api es_compat_cluster_info_handler)
            return {"name": "quickwit", "cluster_name": "quickwit",
                    "version": {"number": "7.17.0",
                                "distribution": "quickwit",
                                "build_date": "2026-01-01T00:00:00Z"},
                    "tagline": "You Know, for Search"}
        if endpoint == "_cluster/health":
            return {"cluster_name": "quickwit", "status": "green",
                    "timed_out": False,
                    "number_of_nodes": 1, "number_of_data_nodes": 1}
        if parts[0] == "_resolve" and len(parts) == 3 and parts[1] == "index":
            names = sorted(self._match_indexes(parts[2]))
            return {"indices": [{"name": n, "attributes": ["open"]}
                                for n in names],
                    "aliases": [], "data_streams": []}
        if method == "DELETE" and len(parts) == 1 \
                and not parts[0].startswith("_"):
            return self._delete_indices(parts[0], params)
        if endpoint == "_bulk":
            return self._es_bulk(None, ndjson, body)
        if endpoint == "_msearch":
            return self._msearch(params, ndjson or body or [])
        if endpoint == "_search/scroll":
            if method == "DELETE":
                sid = (body or {}).get("scroll_id") or params.get("scroll_id")
                ok = bool(sid) and any(
                    i.clear_scroll(sid) for i in self.indexes.values())
                return {"succeeded": ok, "num_freed": int(ok)}
            return self._scroll_next(params, body or {})
        if endpoint == "_stats":
            return self._stats(list(self.indexes))
        if endpoint == "_field_caps":
            return self._field_caps(list(self.indexes), params)
        if parts[0] == "_cat" and len(parts) >= 2 and parts[1] == "indices":
            pattern = parts[2] if len(parts) > 2 else "*"
            return self._cat_indices(pattern, params)
        if len(parts) == 2:
            index, verb = parts
            if verb == "_search":
                if index in self.indexes:
                    return self._search(index, params, body or {})
                return self._search_multi(self._resolve_targets(index),
                                          params, body or {})
            if verb == "_count":
                if index in self.indexes:
                    return self._count(index, params, body or {})
                names = self._resolve_targets(index)
                return {"count": sum(self._count(n, params, body or {})
                                     ["count"] for n in names)}
            if verb == "_stats":
                return self._stats(list(self._match_indexes(index)))
            if verb == "_bulk":
                return self._es_bulk(index, ndjson, body)
            if verb == "_field_caps":
                names = ([index] if index in self.indexes
                         else self._resolve_targets(index))
                return self._field_caps(names, params)
            if verb == "ingest":
                docs = body if isinstance(body, list) else [body]
                n = self._index(index).ingest_docs(docs)
                return {"num_docs_for_processing": n}
        raise EsApiError(400, f"unsupported endpoint {endpoint!r}")

    # -- handlers -------------------------------------------------------

    def _field_caps(self, names: list[str], params: dict) -> dict:
        """Cross-index `_field_caps` (field_capability.rs): `fields`
        comma list with `*` wildcards, start/end_timestamp split-pruning
        filters (seconds, non-ES extension)."""
        from quickwit_ray.search.listers import es_field_caps_response

        fields = None
        if params.get("fields"):
            fields = [p for p in str(params["fields"]).split(",") if p]
        lo = (int(params["start_timestamp"])
              if params.get("start_timestamp") not in (None, "") else None)
        hi = (int(params["end_timestamp"])
              if params.get("end_timestamp") not in (None, "") else None)
        return es_field_caps_response(
            {n: self.indexes[n].list_field_entries(fields, lo, hi)
             for n in names})

    def _apply_params(self, dflt, params: dict, body: dict) -> dict:
        """Query-string params q/size/from/sort override the body (the
        reference's SearchQueryParams extraction, rest_handler.rs)."""
        body = dict(body)
        if params.get("q"):
            body["query"] = {"query_string": {"query": params["q"],
                                              "fields": list(dflt)}}
        if params.get("size") is not None:
            body["size"] = int(params["size"])
        if params.get("from") is not None:
            body["from"] = int(params["from"])
        if params.get("sort"):
            out = []
            for piece in str(params["sort"]).split(","):
                if ":" in piece:
                    f, o = piece.rsplit(":", 1)
                    out.append({f: {"order": o}})
                else:
                    out.append(piece)
            body["sort"] = out
        if params.get("extra_filters"):
            # quickwit-specific: comma-separated query-language clauses
            # ANDed onto the request query (rest_handler extra_filters)
            filters = [{"query_string": {"query": f, "fields": list(dflt)}}
                       for f in str(params["extra_filters"]).split(",")]
            base = body.get("query") or {"match_all": {}}
            body["query"] = {"bool": {"must": [base], "filter": filters}}
        return body

    def _search(self, index_name: str, params: dict, body: dict) -> dict:
        index = self._index(index_name)
        mapping = index.config.doc_mapping
        body = self._apply_params(mapping.default_search_fields, params, body)
        kw = es_search_request(body, mapping.default_search_fields)
        sort_formats = _extract_sort_formats(body)
        if kw.get("search_after") and kw.get("sort_by"):
            kw["search_after"] = _coerce_cursor_units(
                kw["search_after"], _sortfields(kw["sort_by"]), mapping,
                sort_formats)
        src_inc = _parse_source_param(params.get("_source_includes"))
        src_exc = _parse_source_param(params.get("_source_excludes"))
        scroll = params.get("scroll")
        if scroll is not None:
            apsr = str(params.get("allow_partial_search_results", "true"))
            if apsr.lower() == "false":
                raise EsApiError(400, "Invalid argument: Quickwit only "
                                 "supports scroll API with "
                                 "allow_partial_search_results set to true")
            query = kw.pop("query", None)
            resp, sid = index._scroll_manager().start(query, scroll=scroll, **kw)
            self._scroll_owner[sid] = index_name
            return render_search_response(
                resp, index_name, mapping,
                sort_fields=_sortfields(kw.get("sort_by")),
                aggs_spec=body.get("aggs") or body.get("aggregations"),
                source_includes=src_inc, source_excludes=src_exc,
                scroll_id=sid, sort_formats=sort_formats)
        from quickwit_ray.search.engine import get_searcher

        resp = get_searcher(index.index_dir).search(**kw)
        if resp.failed_splits and resp.num_hits == 0 and not len(resp.hits):
            # every split rejected the query — an invalid request (e.g. a
            # type error on a non-lenient field), not a partial shard
            # failure; the reference surfaces it as a 400
            raise EsApiError(400, str(resp.failed_splits[0].get("error")))
        return render_search_response(
            resp, index_name, mapping,
            sort_fields=_sortfields(kw.get("sort_by")),
            aggs_spec=body.get("aggs") or body.get("aggregations"),
            source_includes=src_inc, source_excludes=src_exc,
            sort_formats=sort_formats)

    def _search_multi(self, names: list[str], params: dict,
                      body: dict) -> dict:
        """Federated `_search` over several indexes (root.rs multi-index
        resolution; `multi-indices` conformance suite): one merged result
        with per-hit `_index` attribution. An empty target set is valid
        (0 hits, no aggregations key)."""
        import uuid

        from quickwit_ray.search.multi import search_indexes

        indexes = [self.indexes[n] for n in names]
        dflt = (indexes[0].config.doc_mapping.default_search_fields
                if indexes else ())
        mapping0 = indexes[0].config.doc_mapping if indexes else None
        body = self._apply_params(dflt, params, body)
        kw = es_search_request(body, dflt)
        sort_formats = _extract_sort_formats(body)
        if kw.get("search_after") and kw.get("sort_by") and mapping0:
            kw["search_after"] = _coerce_cursor_units(
                kw["search_after"], _sortfields(kw["sort_by"]), mapping0,
                sort_formats)
        src_inc = _parse_source_param(params.get("_source_includes"))
        src_exc = _parse_source_param(params.get("_source_excludes"))
        aggs_spec = body.get("aggs") or body.get("aggregations")
        resp = search_indexes([i.index_dir for i in indexes], **kw)
        prefix_map = {os.path.join(i.index_dir, "splits") + os.sep: n
                      for n, i in zip(names, indexes)}
        mapping_map = {n: i.config.doc_mapping
                       for n, i in zip(names, indexes)}
        sid = None
        if params.get("scroll") is not None:
            sid = "fed-" + uuid.uuid4().hex
            self._multi_scroll[sid] = {
                "names": list(names), "kw": dict(kw),
                "pos": (kw.get("start_offset", 0) or 0)
                       + kw.get("max_hits", 10),
                "sort_formats": sort_formats}
            if len(self._multi_scroll) > 256:  # bounded contexts
                self._multi_scroll.pop(next(iter(self._multi_scroll)))
        return render_search_response(
            resp, names[0] if names else "", mapping0,
            sort_fields=_sortfields(kw.get("sort_by")),
            aggs_spec=aggs_spec, source_includes=src_inc,
            source_excludes=src_exc, scroll_id=sid,
            sort_formats=sort_formats, index_prefix_map=prefix_map,
            mapping_by_index=mapping_map)

    def _multi_scroll_next(self, sid: str, st: dict) -> dict:
        from quickwit_ray.search.multi import search_indexes

        names = [n for n in st["names"] if n in self.indexes]
        indexes = [self.indexes[n] for n in names]
        kw = dict(st["kw"])
        kw["start_offset"] = st["pos"]
        st["pos"] += kw.get("max_hits", 10)
        resp = search_indexes([i.index_dir for i in indexes], **kw)
        prefix_map = {os.path.join(i.index_dir, "splits") + os.sep: n
                      for n, i in zip(names, indexes)}
        mapping_map = {n: i.config.doc_mapping
                       for n, i in zip(names, indexes)}
        mapping0 = indexes[0].config.doc_mapping if indexes else None
        return render_search_response(
            resp, names[0] if names else "", mapping0,
            sort_fields=_sortfields(kw.get("sort_by")), scroll_id=sid,
            sort_formats=st.get("sort_formats"),
            index_prefix_map=prefix_map, mapping_by_index=mapping_map)

    def _scroll_next(self, params: dict, body: dict) -> dict:
        sid = body.get("scroll_id") or params.get("scroll_id")
        if not sid:
            raise EsApiError(400, "missing scroll_id")
        st = self._multi_scroll.get(sid)
        if st is not None:
            return self._multi_scroll_next(sid, st)
        owner = self._scroll_owner.get(sid)
        if owner is None:
            raise EsApiError(404, f"scroll context {sid!r} expired or unknown")
        index = self._index(owner)
        resp, sid2 = index.es_scroll(sid, params.get("scroll") or body.get("scroll"))
        st = index._scroll_manager()._ctx.get(sid)
        sort_by = (st.search_kwargs.get("sort_by") if st is not None else None)
        return render_search_response(
            resp, owner, index.config.doc_mapping,
            sort_fields=_sortfields(sort_by), scroll_id=sid2)

    def _count(self, index_name: str, params: dict, body: dict) -> dict:
        index = self._index(index_name)
        if params.get("q"):
            dflt = index.config.doc_mapping.default_search_fields
            node = parse_query(params["q"], dflt)
            from quickwit_ray.search.engine import get_searcher

            n = get_searcher(index.index_dir).search(node, max_hits=0).num_hits
        else:
            n = index.es_count(body)
        return {"count": int(n)}

    def _delete_indices(self, expr: str, params: dict) -> dict:
        """ES `DELETE /{targets}` (rest_handler es_compat_delete_index):
        comma/wildcard targets; a concrete missing name is a 404 unless
        `ignore_unavailable=true`."""
        ignore = str(params.get("ignore_unavailable", "false")
                     ).lower() == "true"
        victims: dict[str, None] = {}
        for item in expr.split(","):
            item = item.strip()
            if not item:
                continue
            if "*" in item or "?" in item:
                for n in self._match_indexes(item):
                    victims[n] = None
            elif item in self.indexes:
                victims[item] = None
            elif not ignore:
                raise EsApiError(404, f"no such index [{item}]",
                                 type="index_not_found_exception",
                                 extra={"index": item})
        for n in victims:
            self.indexes.pop(n, None)
        return {"acknowledged": True}

    def _es_bulk(self, default_index: Optional[str],
                 ndjson: Optional[list], body: Any) -> dict:
        """ES `_bulk` with per-item statuses (elasticsearch_api/bulk.rs +
        the `bulk` conformance suite): 201 per indexed doc, per-item 400
        `document_parsing_exception` on a doc the mapping rejects,
        per-item 404 `index_not_found_exception` (after consulting
        ``index_factory`` for template auto-creation), request-level 400
        for malformed action lines and missing-index validation."""
        import time as _time

        from quickwit_ray.sources.ingest import RejectedDocs, _docs_to_table

        t0 = _time.monotonic()
        lines = list(ndjson) if ndjson is not None else []
        if not lines and body is not None:
            payload = body.decode() if isinstance(body, bytes) else str(body)
            lines = [json.loads(ln) for ln in payload.split("\n")
                     if ln.strip()]
        # -- parse action/doc pairs ------------------------------------
        ops: list[tuple[str, Optional[str], Optional[str], Any]] = []
        i = 0
        while i < len(lines):
            line = lines[i]
            lineno = i + 1
            i += 1
            if (not isinstance(line, dict) or len(line) != 1
                    or next(iter(line)) not in ("index", "create")):
                found = (next(iter(line)) if isinstance(line, dict) and line
                         else str(line)[:40])
                raise EsApiError(
                    400,
                    f"Malformed action/metadata line [{lineno}], expected "
                    f"one of [create, index] but found [{found}]",
                    type="illegal_argument_exception")
            action, meta = next(iter(line.items()))
            meta = meta if isinstance(meta, dict) else {}
            # the next line is ALWAYS the document for index/create
            doc = lines[i] if i < len(lines) else {}
            i += 1
            _id = meta.get("_id")
            if _id is not None and isinstance(doc, dict):
                doc = dict(doc, _id=_id)
            ops.append((action, meta.get("_index", default_index), _id, doc))
        # -- request-level validation (ES collects ALL missing-index
        # actions before rejecting the whole request) ------------------
        missing = [k + 1 for k, (_, name, _, _) in enumerate(ops)
                   if not name]
        if missing:
            raise EsApiError(
                400,
                "Validation Failed: " + "".join(
                    f"{m}: index is missing;" for m in missing),
                type="action_request_validation_exception")
        # -- per-item statuses -----------------------------------------
        items: list[dict[str, Any]] = []
        targets: dict[str, list[int]] = {}
        for k, (_action, name, _id, _doc) in enumerate(ops):
            item: dict[str, Any] = {"_index": name}
            if _id is not None:
                item["_id"] = str(_id)
            items.append(item)
            idx = self.indexes.get(name)
            if idx is None and self.index_factory is not None:
                idx = self.index_factory(name)
                if idx is not None:
                    self.indexes[name] = idx
            if idx is None:
                item["status"] = 404
                item["error"] = {
                    "type": "index_not_found_exception",
                    "reason": f"no such index [{name}]",
                    "index": name}
                continue
            targets.setdefault(name, []).append(k)
        # one doc pass, then one ingest (= one split before merges), per
        # target index; the pass names the docs the mapping refuses
        for name, ks in targets.items():
            idx = self.indexes[name]
            rejects: dict[int, str] = {}
            try:
                table = _docs_to_table([ops[k][3] for k in ks],
                                       idx.config.doc_mapping)
            except RejectedDocs as e:
                table, rejects = e.table, e.rejects
            for j, k in enumerate(ks):
                item = items[k]
                if j in rejects:
                    item["status"] = 400
                    item["error"] = {"type": "document_parsing_exception",
                                     "reason": rejects[j]}
                else:
                    item["status"] = 201
                    item["result"] = "created"
            if table.num_rows:
                idx.ingest_docs(table)
        return {"took": int((_time.monotonic() - t0) * 1000),
                "errors": any(it["status"] != 201 for it in items),
                "items": [{op[0]: it} for op, it in zip(ops, items)]}

    def _msearch(self, params: dict, lines: list) -> dict:
        if len(lines) % 2:
            raise EsApiError(400, "_msearch needs header/body line pairs")
        responses = []
        for i in range(0, len(lines), 2):
            header, body = lines[i], lines[i + 1]
            index_name = header.get("index")
            if not index_name:
                raise EsApiError(400, "_msearch header missing `index`")
            responses.append(self._search(index_name, params, body))
        return {"responses": responses}

    def _stats(self, names: list[str]) -> dict:
        all_docs = 0
        all_store = 0
        all_segs = 0
        indices = {}
        for n in sorted(names):
            st = self._index(n).es_stats()["_all"]["primaries"]
            all_docs += st["docs"]["count"]
            all_store += st["store"]["size_in_bytes"]
            all_segs += st["segments"]["count"]
            per = {"docs": dict(st["docs"]), "store": dict(st["store"]),
                   "segments": dict(st["segments"])}
            indices[n] = {"primaries": per, "total": json.loads(json.dumps(per))}
        body = {"docs": {"count": all_docs, "deleted": 0},
                "store": {"size_in_bytes": all_store},
                "segments": {"count": all_segs}}
        return {"_all": {"primaries": body,
                         "total": json.loads(json.dumps(body))},
                "indices": indices}

    def _cat_indices(self, pattern: str, params: dict) -> list[dict]:
        # the reference's _cat API only renders JSON and rejects unknown
        # parameters (rest-api-tests 0021-cat-indices.yaml: missing
        # format=json, v=, or bytes= are 400s)
        if params.get("format") != "json":
            raise EsApiError(
                400, "_cat/indices only supports `format=json`")
        unknown = set(params) - {"format", "h", "health", "s"}
        if unknown:
            raise EsApiError(
                400, f"unsupported _cat parameters: {sorted(unknown)}")
        rows = []
        for n in sorted(self._match_indexes(pattern)):
            rows.extend(self._index(n).es_cat_indices())
        h = params.get("h")
        if h:
            keep = [c for c in str(h).split(",") if c]
            rows = [{k: r[k] for k in keep if k in r} for r in rows]
        if params.get("health"):
            rows = [r for r in rows if r.get("health") == params["health"]]
        return rows


def _sortfields(sort_by) -> tuple:
    from quickwit_ray.search.engine import _normalize_sort

    return tuple(_normalize_sort(sort_by))


def _extract_sort_formats(body: dict) -> dict:
    """{field: format} from the ES sort spec ({"f": {"order", "format"}})."""
    out: dict[str, str] = {}
    sort = body.get("sort")
    for s in sort if isinstance(sort, list) else ([sort] if sort else []):
        if isinstance(s, dict) and len(s) == 1:
            f, p = next(iter(s.items()))
            if isinstance(p, dict) and p.get("format"):
                out[f] = p["format"]
    return out


def _coerce_cursor_units(cursor: tuple, sort_fields, mapping,
                         sort_formats: dict) -> tuple:
    """ES search_after values arrive in wire units (epoch millis for dates,
    nanos under `format: epoch_nanos_int`) — convert to internal micros and
    quantize to the fast column's precision."""
    out = []
    for v, sf in zip(cursor, list(sort_fields)[:2]):
        try:
            fm = mapping.resolve_field(sf.field)
        except KeyError:
            fm = None
        if fm is not None and fm.type == "datetime" and isinstance(
                v, (int, float)) and not isinstance(v, bool):
            if sort_formats.get(sf.field) == "epoch_nanos_int":
                us = int(v) // 1000
            else:
                from quickwit_ray.functions.datetimes import _unix_to_us

                us = int(_unix_to_us(pd.Series([v]))[0])
            q = fm.fast_precision_us
            out.append((us // q) * q if q > 1 else us)
        else:
            out.append(v)
    return tuple(out) + tuple(cursor[len(out):])
