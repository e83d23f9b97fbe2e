"""Aggregations — ES-compatible JSON DSL subset, executed as per-split
partial states merged on the driver (the reference's collector fan-out /
intermediate-merge design, `quickwit-search/src/collector.rs:598-716`,
DSL documented in `docs/reference/aggregation.md`).

Supported:
  bucket:  terms, histogram, date_histogram, range  (with nested `aggs`)
  metric:  avg, sum, min, max, value_count, count, stats, extended_stats
  approx:  cardinality (HyperLogLog), percentiles (quantile sketch)

Limits mirror the reference defaults: max 65_000 buckets per request
(`node_config/mod.rs:269-270`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
import pyarrow as pa

MAX_BUCKETS = 65_000

_METRICS = {"avg", "sum", "min", "max", "value_count", "stats", "extended_stats",
            "percentiles", "cardinality", "top_hits"}
_BUCKETS = {"terms", "histogram", "date_histogram", "range"}

_INTERVALS_MS = {
    "ms": 1, "s": 1000, "m": 60_000, "h": 3_600_000, "d": 86_400_000,
}


def parse_fixed_interval(s: str) -> int:
    """'30s' / '1d' / '5m' -> microseconds."""
    import re

    m = re.fullmatch(r"(\d+)(ms|s|m|h|d)", s)
    if not m:
        raise ValueError(f"bad fixed_interval {s!r}")
    return int(m.group(1)) * _INTERVALS_MS[m.group(2)] * 1000


def _parse_offset(v, kind: str) -> float:
    """Histogram offset — date_histogram accepts signed durations
    ('-4d', '1h') next to bare numbers (aggregation.md offset)."""
    if isinstance(v, str) and kind == "date_histogram":
        sign = -1 if v.startswith("-") else 1
        return sign * parse_fixed_interval(v.lstrip("+-"))
    return float(v)


def _th_sort_spec(body: dict) -> tuple[list[str], list[bool]]:
    fields, descs = [], []
    for s_ in body.get("sort") or []:
        if isinstance(s_, dict):
            (f, o), = s_.items()
            order = o.get("order", "desc") if isinstance(o, dict) else o
        else:
            f, order = s_, "desc"
        fields.append(f)
        descs.append(str(order) == "desc")
    return fields, descs


def _th_docvalue_fields(body: dict) -> list[str]:
    out = []
    for f in body.get("docvalue_fields") or []:
        out.append(f["field"] if isinstance(f, dict) else f)
    return out


def _top_hits_partial(body: dict, searcher, mask: np.ndarray) -> dict:
    """Per-split top_hits partial (tantivy's TopHits metric aggregation,
    passed through by the reference): top-`size` docs by the fast-field
    sort spec, with requested docvalue fields. Mergeable: the root keeps
    the global top `size` of the per-split partials."""
    size = int(body.get("size", 3))
    fields, descs = _th_sort_spec(body)
    docs = np.nonzero(mask)[0]
    total = int(len(docs))
    if total == 0 or not fields:
        return {"total": total, "hits": []}
    keys = []
    for f, desc in zip(fields, descs):
        v = _field_values(searcher, f, mask)
        if v.dtype.kind not in "iufb":
            # strings sort via their ordinal codes (unique is sorted)
            _, v = np.unique(v.astype(str), return_inverse=True)
        v = v.astype(np.float64)
        keys.append(-v if desc else v)
    order = np.lexsort(keys[::-1])[:size]  # first sort field is primary
    top = docs[order]
    sort_cols = [_field_values(searcher, f, mask)[order] for f in fields]
    dv = {f: _field_values(searcher, f, mask)[order]
          for f in _th_docvalue_fields(body)}
    hits = []
    for i in range(len(top)):
        hits.append({
            "sort": [_clean_agg_scalar(c[i]) for c in sort_cols],
            "fields": {f: [_clean_agg_scalar(vals[i])]
                       for f, vals in dv.items()},
        })
    return {"total": total, "hits": hits}


def _clean_agg_scalar(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.str_):
        return str(v)
    if isinstance(v, np.bool_):
        return bool(v)
    return v


def _field_values(searcher, field: str, mask: np.ndarray) -> np.ndarray:
    vals = searcher._fast_values(field)
    return vals[mask[: len(vals)]] if len(vals) else vals


def _terms_order_spec(body: dict, sub: Optional[dict]):
    """Parse a terms-agg ``order`` clause. Returns None for the default
    (_count desc) or (target, metric_kind, ascending) where target is
    "_key"/"_count" (metric_kind None) or a single-valued sub-agg name.
    ES terms `order` semantics; the find-trace-ids collector
    (quickwit-search/src/find_trace_ids_collector.rs) is the reference
    use: terms(trace_id) ordered by max(span_start_timestamp_nanos)."""
    o = body.get("order")
    if o is None:
        return None
    if isinstance(o, list):
        if len(o) != 1:
            raise ValueError("terms order: only one criterion is supported")
        o = o[0]
    if not isinstance(o, dict) or len(o) != 1:
        raise ValueError(f"unsupported terms order {o!r}")
    ((target, direction),) = o.items()
    asc = str(direction) == "asc"
    if target in ("_count", "_key", "_term"):
        return ("_key" if target == "_term" else target, None, asc)
    if sub and target in sub:
        m_kind = next(k for k in sub[target] if k != "aggs")
        if m_kind in ("avg", "sum", "min", "max", "value_count"):
            return (target, m_kind, asc)
        raise ValueError(
            f"terms order target {target!r} is not a single-value metric")
    raise ValueError(f"terms order target {target!r} is not a sub-agg")


def _metric_order_value(m_kind: str, st: dict):
    """Order key from a (merged or per-split) metric partial state."""
    if not st or st.get("count", 0) == 0:
        return None
    if m_kind == "avg":
        return st["sum"] / st["count"]
    if m_kind == "sum":
        return st["sum"]
    if m_kind == "value_count":
        return st["count"]
    return st[m_kind]


def _terms_sort_key(order_spec, numeric: bool):
    """Sort key for (key, value_or_none, doc_count) bucket triples.
    Missing order values sort last in either direction; ties break by
    ascending key (ES tie-break)."""
    target, _m, asc = order_spec

    def keyfn(triple):
        key, val, count = triple
        kkey = _bucket_key_typed(key, numeric)
        if target == "_key":
            return kkey if asc else _reverse_key(kkey)
        v = count if target == "_count" else val
        if v is None:
            return (1, 0.0, kkey)
        return (0, float(v) if asc else -float(v), kkey)
    return keyfn


def _bucket_key_typed(key: str, numeric: bool):
    if numeric:
        try:
            return float(key)
        except ValueError:
            pass
    return key


def _reverse_key(k):
    if isinstance(k, str):
        return _NegStr(k)
    return -k


_NUMERIC_FIELD_TYPES = {"i64", "u64", "f64", "bool", "datetime"}
_NUMERIC_AGG_KINDS = {"avg", "sum", "min", "max", "value_count", "stats",
                      "extended_stats", "percentiles", "histogram"}


def validate_aggs(aggs: dict, mapping=None) -> None:
    """Reject malformed agg requests BEFORE leaf fan-out (the 400 class).
    Leaf exceptions are reported as failed_splits, so a request error that
    only surfaces inside a leaf would masquerade as an empty-but-valid
    result (round-3 ADVICE: terms/avg with a non-numeric ``missing`` on an
    f64 column returned ``buckets: []``). Checks: a ``missing`` value on a
    numeric agg kind — or on any agg over a numeric MAPPED field — must be
    float-coercible."""
    for name, spec in aggs.items():
        if not isinstance(spec, dict):
            raise ValueError(f"aggregation {name!r} must be an object")
        kind = next((k for k in spec if k != "aggs"), None)
        if kind is None:
            raise ValueError(f"aggregation {name!r} has no agg kind")
        body = spec[kind]
        if not isinstance(body, dict):
            # every ES agg kind takes an object body; a scalar here would
            # otherwise crash deep inside the partial-merge (AttributeError)
            raise ValueError(
                f"aggregation {name!r}: {kind!r} body must be an object")
        mv = body.get("missing") if isinstance(body, dict) else None
        if mv is not None and not isinstance(mv, (int, float, bool)):
            numeric = kind in _NUMERIC_AGG_KINDS
            if not numeric and mapping is not None:
                try:
                    fm = mapping.field(body["field"])
                    numeric = fm.type in _NUMERIC_FIELD_TYPES
                except (KeyError, TypeError):
                    pass
            if numeric:
                try:
                    float(mv)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"aggregation {name!r}: `missing` value {mv!r} is "
                        f"not numeric but {kind!r} requires a numeric field")
        if isinstance(spec.get("aggs"), dict):
            validate_aggs(spec["aggs"], mapping)


def compute_partial_aggs(aggs: dict, searcher, mask: np.ndarray) -> dict:
    """One split's partial agg state for a (possibly nested) agg request."""
    out: dict[str, Any] = {}
    for name, spec in aggs.items():
        kind = next(k for k in spec if k != "aggs")
        body = spec[kind]
        sub = spec.get("aggs")
        if kind in ("avg", "sum", "min", "max", "value_count", "stats", "extended_stats"):
            v = _with_missing(
                _field_values(searcher, body["field"], mask).astype(np.float64),
                body)
            v = v[~np.isnan(v)] if v.dtype.kind == "f" else v
            out[name] = {
                "count": int(len(v)),
                "sum": float(v.sum()) if len(v) else 0.0,
                "min": float(v.min()) if len(v) else None,
                "max": float(v.max()) if len(v) else None,
                "sum_sq": float((v * v).sum()) if len(v) else 0.0,
            }
        elif kind == "cardinality":
            from quickwit_ray.functions.sketches import HyperLogLog

            hll = HyperLogLog()
            # missing values don't count toward the cardinality (unless a
            # `missing` substitute is configured)
            vals = _drop_missing(_with_missing(
                _field_values(searcher, body["field"], mask), body))
            if vals.dtype.kind in "iu":
                # one split may surface the column as int (no nulls) and
                # another as float (nulls) — hash one canonical dtype
                vals = vals.astype(np.float64)
            hll.add(vals)
            out[name] = {"hll": hll.to_bytes()}
        elif kind == "percentiles":
            from quickwit_ray.functions.sketches import QuantileSketch

            qs = QuantileSketch()
            qs.add(_with_missing(
                _field_values(searcher, body["field"], mask).astype(np.float64),
                body))
            vb, wb = qs.state()
            out[name] = {"qs_values": vb, "qs_weights": wb,
                         "percents": body.get("percents", [1, 5, 25, 50, 75, 95, 99])}
        elif kind == "top_hits":
            out[name] = _top_hits_partial(body, searcher, mask)
        elif kind == "terms":
            vals = _with_missing(
                _field_values(searcher, body["field"], mask), body)
            exploded = _explode_multivalued(vals)
            numeric = False
            if exploded is None:  # single-valued path
                arrow_col = None
                # (the exact-u64 Arrow path would bypass the `missing`
                # substitution, so it only serves missing-free requests)
                if vals.dtype.kind == "f" and body.get("missing") is None:
                    getter = getattr(searcher.reader, "fast_field_arrow", None)
                    arrow_col = getter(body["field"]) if getter else None
                if arrow_col is not None and pa.types.is_integer(arrow_col.type):
                    # int column that fell back to float (nulls): take the
                    # keys from Arrow so u64 values beyond 2^53 stay exact
                    acol = arrow_col.filter(pa.array(mask[: len(arrow_col)]))
                    valid = np.asarray(acol.is_valid())
                    keys_arr = np.asarray(
                        acol.drop_null().cast(pa.string()).to_pylist(), object)
                    pos = np.nonzero(valid)[0]
                    numeric = True
                else:
                    valid = _valid_mask(vals)
                    keys_arr = vals[valid].astype(str)
                    # positions into the masked doc array, so sub-agg
                    # members stay aligned when missing values were dropped
                    pos = np.nonzero(valid)[0]
                    numeric = vals.dtype.kind in "iuf"
            else:
                keys_arr, pos = exploded
            uniq = np.unique(keys_arr)
            if len(uniq) > MAX_BUCKETS:
                # aggregation_bucket_limit (node_config/mod.rs:270): a
                # high-cardinality terms agg must error, not OOM the leaf
                raise ValueError(
                    f"too many buckets ({len(uniq)}) in {name}: the "
                    f"aggregation bucket limit is {MAX_BUCKETS}; use "
                    "split_size/size or a coarser key")
            buckets = {}
            for u, c, idxs in _bucket_members(keys_arr, uniq):
                b = {"doc_count": int(c)}
                if sub:
                    b["aggs"] = _sub_partial(sub, searcher, mask,
                                             np.unique(pos[idxs]))
                buckets[str(u)] = b
            total = sum(b["doc_count"] for b in buckets.values())
            error = 0
            # split_size (the reference terms-agg param, aggregation.md):
            # per-split truncation to the top split_size buckets; the first
            # truncated bucket's count bounds what this split may have
            # under-reported (doc_count_error_upper_bound contribution)
            split_size = (body.get("split_size") or body.get("segment_size")
                          or body.get("shard_size"))
            order_spec = _terms_order_spec(body, sub)
            if split_size is not None and len(buckets) > int(split_size):
                if order_spec is None:
                    ordered = sorted(buckets.items(),
                                     key=lambda kv: (-kv[1]["doc_count"], kv[0]))
                    error = ordered[int(split_size)][1]["doc_count"]
                else:
                    # custom order: truncate by the same criterion the
                    # merge will use, computed from this split's partial
                    # state (the find-trace-ids collector keeps the
                    # per-split top num_traces by max timestamp the same
                    # way). No doc_count error bound applies.
                    target, m_kind, _asc = order_spec
                    triples = [
                        (k, _metric_order_value(m_kind, b.get("aggs", {})
                                                .get(target, {}))
                         if m_kind else None, b["doc_count"])
                        for k, b in buckets.items()]
                    triples.sort(key=_terms_sort_key(order_spec, numeric))
                    ordered = [(k, buckets[k]) for k, _v, _c in triples]
                buckets = dict(ordered[: int(split_size)])
            out[name] = {"buckets": buckets, "size": int(body.get("size", 10)),
                         "total": total, "error": error,
                         "numeric_keys": bool(numeric)}
        elif kind in ("histogram", "date_histogram"):
            field = body["field"]
            vals = _field_values(searcher, field, mask).astype(np.float64)
            valid = ~np.isnan(vals)
            # positions into the masked doc array: sub-agg members must
            # stay aligned after dropping docs with a missing bucket key
            pos = np.nonzero(valid)[0]
            vals = vals[valid]
            if kind == "date_histogram":
                interval = parse_fixed_interval(body.get("fixed_interval", "1d"))
            else:
                interval = float(body["interval"])
            offset = _parse_offset(body.get("offset", 0), kind)
            keys = np.floor((vals - offset) / interval) * interval + offset
            uniq, counts = np.unique(keys, return_counts=True)
            if len(uniq) > MAX_BUCKETS:
                raise ValueError(
                    f"too many buckets ({len(uniq)}) in {name}: the "
                    f"aggregation bucket limit is {MAX_BUCKETS}; widen "
                    "the interval or add hard_bounds")
            buckets = {}
            for u, c, idxs in _bucket_members(keys, uniq):
                b = {"doc_count": int(c)}
                if sub:
                    b["aggs"] = _sub_partial(sub, searcher, mask, pos[idxs])
                buckets[float(u)] = b
            out[name] = {"buckets": buckets, "interval": interval}
        elif kind == "range":
            field = body["field"]
            vals = _field_values(searcher, field, mask).astype(np.float64)
            buckets = {}
            for r in body["ranges"]:
                lo = r.get("from")
                hi = r.get("to")
                m = np.ones(len(vals), bool)
                if lo is not None:
                    m &= vals >= lo
                if hi is not None:
                    m &= vals < hi
                key = r.get("key") or (
                    f"{lo if lo is not None else '*'}-{hi if hi is not None else '*'}")
                b = {"doc_count": int(m.sum()), "from": lo, "to": hi}
                if sub:
                    doc_sel = np.nonzero(mask)[0][m]
                    b["aggs"] = _sub_partial(sub, searcher, mask, doc_sel, absolute=True)
                buckets[key] = b
            out[name] = {"buckets": buckets}
        else:
            raise ValueError(f"unsupported aggregation kind {kind!r}")
    return out


def _with_missing(vals: np.ndarray, body: dict) -> np.ndarray:
    """Apply the ``missing`` parameter (aggregation.md terms/metric aggs:
    docs without a value are treated as if they had the given one)."""
    mv = body.get("missing")
    if mv is None:
        return vals
    if vals.dtype == object:
        out = vals.copy()
        probe = next((x for x in out if x is not None), None)
        is_multi = isinstance(probe, (list, tuple, np.ndarray))
        for i in np.nonzero(~_valid_mask(out))[0]:
            out[i] = [mv] if is_multi else mv
        return out
    if vals.dtype.kind == "f":
        out = vals.astype(np.float64).copy()
        out[np.isnan(out)] = float(mv)
        return out
    return vals  # int/uint/bool fast columns carry no nulls


def _explode_multivalued(vals: np.ndarray):
    """Multi-valued (list) fast column -> (term keys, doc positions) with
    per-doc dedup (ES terms semantics: a doc counts once per distinct
    value). Returns None when the column is single-valued."""
    if vals.dtype != object or not len(vals):
        return None
    probe = next((x for x in vals if x is not None), None)
    if not isinstance(probe, (list, tuple, np.ndarray)):
        return None
    keys, pos = [], []
    for i, xs in enumerate(vals):
        if xs is None:
            continue
        seen = set()
        for v in xs:
            if v is None or v in seen:
                continue
            seen.add(v)
            keys.append(str(v))
            pos.append(i)
    return np.asarray(keys, object), np.asarray(pos, np.int64)


def _valid_mask(vals: np.ndarray) -> np.ndarray:
    """True where the value is present (ES: missing values don't bucket)."""
    if vals.dtype.kind == "f":
        return ~np.isnan(vals)
    if vals.dtype == object:
        import pandas as pd

        return np.asarray(pd.notna(vals))
    return np.ones(len(vals), bool)


def _drop_missing(vals: np.ndarray) -> np.ndarray:
    """ES semantics: missing values don't form buckets."""
    return vals[_valid_mask(vals)]


def _bucket_members(keys: np.ndarray, uniq: np.ndarray):
    """Yield (key, count, member-row-positions) per unique key, vectorized."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.searchsorted(sorted_keys, uniq, side="left")
    ends = np.searchsorted(sorted_keys, uniq, side="right")
    for u, s, e in zip(uniq, starts, ends):
        yield u, e - s, order[s:e]


def _sub_partial(sub: dict, searcher, mask: np.ndarray, member_pos: np.ndarray,
                 absolute: bool = False) -> dict:
    sub_mask = np.zeros(len(mask), bool)
    if absolute:
        sub_mask[member_pos] = True
    else:
        doc_ids = np.nonzero(mask)[0]
        sub_mask[doc_ids[member_pos]] = True
    return compute_partial_aggs(sub, searcher, sub_mask)


# ---------------------------------------------------------------------------
# driver-side merge + final rendering
# ---------------------------------------------------------------------------

class _NegStr(str):
    """Order-reversing string wrapper for descending string sort keys."""

    def __lt__(self, other):  # type: ignore[override]
        return str.__gt__(self, other)


AGG_MEMORY_LIMIT = 500 * 1024 * 1024  # aggregation_memory_limit default


def merge_partial_aggs(aggs: dict, partials: list[dict],
                       nbytes: Optional[list[int]] = None) -> dict:
    """Merge per-split agg partials into the final agg tree. Partials are
    read only (the leaf cache shares them across requests), and the
    result shares no mutable object with them.

    aggregation_memory_limit (node_config/mod.rs:269): the driver-side
    merge must reject, not OOM, when the collected partial states exceed
    the budget (each leaf already enforces the bucket limit). It is
    checked once, here, over ``nbytes`` — the sizes the leaves recorded
    when they built the partials — or over a fresh measurement when the
    caller has none."""
    if nbytes is None:
        from quickwit_ray.search.engine import _approx_nbytes

        nbytes = [_approx_nbytes(p) for p in partials if p]
    total = sum(nbytes)
    if total > AGG_MEMORY_LIMIT:
        raise ValueError(
            f"aggregation intermediate results exceed the "
            f"{AGG_MEMORY_LIMIT >> 20} MB aggregation memory limit "
            f"({total >> 20} MB across {len(partials)} splits)")
    return _merge_aggs(aggs, partials)


def _merge_aggs(aggs: dict, partials: list[dict]) -> dict:
    """The merge itself. Nested sub-agg merges recurse here, past the
    memory check: their partials are parts of the top-level ones."""
    out: dict[str, Any] = {}
    for name, spec in aggs.items():
        kind = next(k for k in spec if k != "aggs")
        body = spec[kind]
        sub = spec.get("aggs")
        states = [p[name] for p in partials if p and name in p]
        if kind in ("avg", "sum", "min", "max", "value_count"):
            st = _merge_metric(states)
            if kind == "avg":
                out[name] = {"value": st["sum"] / st["count"] if st["count"] else None}
            elif kind == "value_count":
                out[name] = {"value": st["count"]}
            else:
                out[name] = {"value": st[kind]}
        elif kind in ("stats", "extended_stats"):
            st = _merge_metric(states)
            res = {"count": st["count"], "sum": st["sum"], "min": st["min"],
                   "max": st["max"],
                   "avg": st["sum"] / st["count"] if st["count"] else None}
            if kind == "extended_stats" and st["count"]:
                var = max(st["sum_sq"] / st["count"] - (st["sum"] / st["count"]) ** 2, 0.0)
                std = float(np.sqrt(var))
                mean = st["sum"] / st["count"]
                # sigma (aggregation.md extended_stats, default 2):
                # std_deviation_bounds at mean +/- sigma * std
                sigma = float(body.get("sigma", 2.0))
                res.update(sum_of_squares=st["sum_sq"], variance=var,
                           std_deviation=std,
                           std_deviation_bounds={
                               "upper": mean + sigma * std,
                               "lower": mean - sigma * std})
            out[name] = res
        elif kind == "cardinality":
            from quickwit_ray.functions.sketches import HyperLogLog

            hll = HyperLogLog()
            for s in states:
                hll = hll.merge(HyperLogLog.from_bytes(s["hll"]))
            out[name] = {"value": float(hll.estimate())}
        elif kind == "percentiles":
            from quickwit_ray.functions.sketches import QuantileSketch

            qs = QuantileSketch()
            percents = body.get("percents", [1, 5, 25, 50, 75, 95, 99])
            for s in states:
                qs = qs.merge(QuantileSketch.from_state(s["qs_values"], s["qs_weights"]))
            if body.get("keyed", True):
                out[name] = {"values": {str(p): qs.percentile(p)
                                        for p in percents}}
            else:  # ES keyed=false: list of {key, value} pairs
                out[name] = {"values": [{"key": float(p),
                                         "value": qs.percentile(p)}
                                        for p in percents]}
        elif kind == "top_hits":
            size = int(body.get("size", 3))
            _fields, descs = _th_sort_spec(body)
            all_hits = [h for s in states for h in s["hits"]]

            def srt_key(h):
                out_k = []
                for v, d in zip(h["sort"], descs):
                    if isinstance(v, str):
                        # lexicographic; desc needs an order-reversing
                        # transform that keeps string comparison
                        out_k.append(_NegStr(v) if d else v)
                    else:
                        x = float(v) if v is not None else float("-inf")
                        out_k.append(-x if d else x)
                return tuple(out_k)

            all_hits.sort(key=srt_key)
            total = sum(int(s["total"]) for s in states)
            # copies: the partials' hit dicts stay out of the response
            out[name] = {"hits": {
                "total": {"value": total, "relation": "eq"},
                "hits": [{"sort": list(h["sort"]),
                          "fields": {f: list(v)
                                     for f, v in h["fields"].items()}}
                         for h in all_hits[:size]]}}
        elif kind == "terms":
            merged: dict[str, dict] = {}
            for s in states:
                for key, b in s["buckets"].items():
                    tgt = merged.setdefault(key, {"doc_count": 0, "partials": []})
                    tgt["doc_count"] += b["doc_count"]
                    if "aggs" in b:
                        tgt["partials"].append(b["aggs"])
            size = int(body.get("size", 10))
            numeric = any(s.get("numeric_keys") for s in states)
            order_spec = _terms_order_spec(body, sub)
            if order_spec is None:
                ordered = sorted(merged.items(),
                                 key=lambda kv: (-kv[1]["doc_count"], kv[0]))
            else:
                target, m_kind, _asc = order_spec
                triples = [
                    (k, _metric_order_value(
                        m_kind, _merge_metric([p[target] for p in b["partials"]
                                               if target in p]))
                     if m_kind else None, b["doc_count"])
                    for k, b in merged.items()]
                triples.sort(key=_terms_sort_key(order_spec, numeric))
                ordered = [(k, merged[k]) for k, _v, _c in triples]
            # terms min_doc_count (aggregation.md; ES default 1): filter
            # BEFORE the size cut, on the merged cross-split counts
            mdc = int(body.get("min_doc_count", 1))
            if mdc > 1:
                ordered = [(k, b) for k, b in ordered
                           if b["doc_count"] >= mdc]
            buckets = []
            for key, b in ordered[:size]:
                k = key
                if numeric:
                    try:
                        f = float(key)
                        k = int(key) if f.is_integer() and "." not in key else f
                    except ValueError:
                        pass
                eb = {"key": k, "doc_count": b["doc_count"]}
                if sub and b["partials"]:
                    eb.update(_merge_aggs(sub, b["partials"]))
                buckets.append(eb)
            # ES response extras: sum_other = matched docs not in the shown
            # buckets (per-split `total` is pre-truncation, so this stays
            # right under split_size); error bound = sum of each split's
            # first-truncated-bucket count
            total = sum(s.get("total", sum(bb["doc_count"]
                                           for bb in s["buckets"].values()))
                        for s in states)
            shown = sum(b["doc_count"] for b in buckets)
            out[name] = {"buckets": buckets,
                         "sum_other_doc_count": total - shown,
                         "doc_count_error_upper_bound": sum(
                             s.get("error", 0) for s in states)}
        elif kind in ("histogram", "date_histogram"):
            merged = {}
            for s in states:
                for key, b in s["buckets"].items():
                    tgt = merged.setdefault(float(key), {"doc_count": 0, "partials": []})
                    tgt["doc_count"] += b["doc_count"]
                    if "aggs" in b:
                        tgt["partials"].append(b["aggs"])
            # min_doc_count=0 semantics (ES/quickwit default): empty
            # buckets fill every gap between the first and last key, and
            # extended_bounds stretches that span. Bare-number bounds on a
            # date_histogram auto-detect the epoch unit.
            eb_spec = body.get("extended_bounds") or {}

            def _bound(v):
                if kind == "date_histogram" and isinstance(v, (int, float)):
                    import pandas as pd

                    from quickwit_ray.functions.datetimes import _unix_to_us

                    return float(_unix_to_us(pd.Series([v]))[0])
                return float(v)

            if merged or eb_spec:
                if kind == "date_histogram":
                    interval = float(
                        parse_fixed_interval(body.get("fixed_interval", "1d")))
                else:
                    interval = float(body["interval"])
                offset = _parse_offset(body.get("offset", 0), kind)
                lo_keys = [np.floor((_bound(eb_spec["min"]) - offset) / interval)
                           * interval + offset] if "min" in eb_spec else []
                hi_keys = [np.floor((_bound(eb_spec["max"]) - offset) / interval)
                           * interval + offset] if "max" in eb_spec else []
                span = list(merged) + lo_keys + hi_keys
                if span:
                    k = min(span)
                    while k <= max(span) + 1e-9:
                        merged.setdefault(float(k), {"doc_count": 0,
                                                     "partials": []})
                        k += interval
            # hard_bounds (aggregation.md): drop buckets outside the
            # closed [min, max] interval
            hb = body.get("hard_bounds") or {}
            if hb:
                lo_h = _bound(hb["min"]) if "min" in hb else None
                hi_h = _bound(hb["max"]) if "max" in hb else None
                merged = {k: v for k, v in merged.items()
                          if (lo_h is None or k >= lo_h - 1e-9)
                          and (hi_h is None or k <= hi_h + 1e-9)}
            # min_doc_count (default 0 = keep gap-filled empty buckets)
            mdc = int(body.get("min_doc_count", 0))
            buckets = []
            for key in sorted(merged):
                b = merged[key]
                if b["doc_count"] < mdc:
                    continue
                eb = {"key": key, "doc_count": b["doc_count"]}
                if sub and b["partials"]:
                    eb.update(_merge_aggs(sub, b["partials"]))
                buckets.append(eb)
            if body.get("keyed", False):
                # keyed=true: hashmap keyed by the bucket key
                out[name] = {"buckets": {str(b["key"]): b for b in buckets}}
            else:
                out[name] = {"buckets": buckets}
        elif kind == "range":
            merged = {}
            for s in states:
                for key, b in s["buckets"].items():
                    tgt = merged.setdefault(key, {"doc_count": 0, "partials": [],
                                                  "from": b.get("from"), "to": b.get("to")})
                    tgt["doc_count"] += b["doc_count"]
                    if "aggs" in b:
                        tgt["partials"].append(b["aggs"])
            buckets = []
            for key, b in merged.items():
                eb = {"key": key, "from": b["from"], "to": b["to"],
                      "doc_count": b["doc_count"]}
                if sub and b["partials"]:
                    eb.update(_merge_aggs(sub, b["partials"]))
                buckets.append(eb)
            if body.get("keyed", False):
                out[name] = {"buckets": {b["key"]: b for b in buckets}}
            else:
                out[name] = {"buckets": buckets}
    return out


def _merge_metric(states: list[dict]) -> dict:
    count = sum(s["count"] for s in states)
    total = sum(s["sum"] for s in states)
    sum_sq = sum(s.get("sum_sq", 0.0) for s in states)
    mins = [s["min"] for s in states if s["min"] is not None]
    maxs = [s["max"] for s in states if s["max"] is not None]
    return {"count": count, "sum": total, "sum_sq": sum_sq,
            "min": min(mins) if mins else None,
            "max": max(maxs) if maxs else None}
