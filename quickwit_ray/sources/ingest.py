"""Push ingestion: input decoding, the doc pass, and the ingest fronts.

Decoding re-expresses:
  * ES `_bulk` NDJSON (reference `rest_handler.rs:71-294` routes `_bulk`
    into ingest v2): alternating action/doc lines; `index` and `create`
    actions supported, `delete`/`update` rejected (the reference's bulk
    only appends).
  * Source input formats (`actors/doc_processor.rs:153-226`):
    json / ndjson, plain_text (one doc per line under the "plain_text"
    key, doc_processor.rs:47), otlp_logs_json and otlp_traces_json
    (flattening per `quickwit-opentelemetry/src/otlp/logs.rs:396-505` and
    `traces.rs:184-245` — one doc per logRecord / span with the reference
    model's field names), and the same two OTLP models as protobuf.

The doc pass, `_docs_to_table`, is the only place a pushed doc meets its
mapping (doc_mapper_impl.rs:433-561 as run by doc_processor.rs:464-508):
one column-wise pass from parsed docs to a typed Arrow table. The
conversion is the validation — each datetime column is parsed by one
`parse_datetimes` call, each number column by one numeric coercion — and
the docs that do not fit (not an object, unknown keys under a strict
mapping, unparseable datetimes, non-numeric numbers, negative u64s) come
back as `RejectedDocs` with a reason per position and the table of the
rest. Every push front runs it once and keeps only its own policy for
rejects: `_bulk` answers a per-item 400, native `{index}/ingest` counts
them, and the Python API, the workbench, the WAL front and the mq/WAL
consumers refuse the push.

`ingest_docs` turns docs (or the pass's table) into one committed split
(SplitBuilder -> atomic manifest publish): one bulk call = one commit
wave, mirroring the ingest API's commit-on-request semantics at this
engine's granularity. `IngestWorkbench` buffers the tables of many pushes
into one commit wave.
"""
from __future__ import annotations

import base64
import json
import time
from typing import Any, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from quickwit_ray.functions.datetimes import parse_datetimes

PLAIN_TEXT_FIELD = "plain_text"  # doc_processor.rs:47


# ---------------------------------------------------------------------------
# ES _bulk
# ---------------------------------------------------------------------------

def parse_bulk_ndjson(payload: bytes | str) -> list[dict[str, Any]]:
    """Parse an ES `_bulk` body: action line then (for index/create) the
    document line. Returns the documents; `_id` from the action metadata is
    attached as `_id` when present."""
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8")
    docs: list[dict[str, Any]] = []
    lines = [ln for ln in payload.split("\n") if ln.strip()]
    i = 0
    while i < len(lines):
        action = json.loads(lines[i])
        if not isinstance(action, dict) or len(action) != 1:
            raise ValueError(f"bad bulk action line: {lines[i][:80]!r}")
        kind, meta = next(iter(action.items()))
        if kind in ("delete", "update"):
            raise ValueError(f"bulk action {kind!r} not supported (append-only)")
        if kind not in ("index", "create"):
            raise ValueError(f"unknown bulk action {kind!r}")
        i += 1
        if i >= len(lines):
            raise ValueError("bulk action line without a document line")
        doc = json.loads(lines[i])
        if not isinstance(doc, dict):
            raise ValueError("bulk document line must be a JSON object")
        if isinstance(meta, dict) and meta.get("_id") is not None:
            doc = dict(doc, _id=meta["_id"])
        docs.append(doc)
        i += 1
    return docs


# ---------------------------------------------------------------------------
# OTLP JSON decoding
# ---------------------------------------------------------------------------

def _attr_value(v: dict) -> Any:
    if "stringValue" in v:
        return v["stringValue"]
    if "intValue" in v:
        return int(v["intValue"])
    if "doubleValue" in v:
        return float(v["doubleValue"])
    if "boolValue" in v:
        return bool(v["boolValue"])
    if "arrayValue" in v:
        return [_attr_value(x) for x in v["arrayValue"].get("values", [])]
    if "kvlistValue" in v:
        return {kv["key"]: _attr_value(kv["value"])
                for kv in v["kvlistValue"].get("values", [])}
    if "bytesValue" in v:
        return base64.b64decode(v["bytesValue"])
    return None


def _extract_attributes(attrs: list[dict]) -> dict[str, Any]:
    return {a["key"]: _attr_value(a.get("value", {})) for a in attrs or []}


_HEX_CHARS = set("0123456789abcdefABCDEF")


def _hex_id(value: Optional[str]) -> Optional[str]:
    """Normalize an OTLP JSON trace/span id to lowercase hex; None when
    absent or all-zero. The OTLP/JSON spec encodes ids as hex (16 chars for
    span, 32 for trace); base64 only appears from proto-JSON transcoders,
    so hex-shaped values are taken verbatim and base64 is the fallback."""
    if not value:
        return None
    if len(value) in (16, 32) and set(value) <= _HEX_CHARS:
        hexed = value.lower()
    else:
        try:
            hexed = base64.b64decode(value, validate=True).hex()
        except Exception:  # noqa: BLE001
            hexed = value.lower()
    return None if set(hexed) <= {"0"} else hexed


def parse_otlp_logs_json(payload: bytes | str) -> list[dict[str, Any]]:
    """ExportLogsServiceRequest JSON -> one flat doc per logRecord
    (logs.rs:396-505 model: timestamps, service_name from
    resource.attributes['service.name'], severity, body, attributes,
    trace/span ids, resource/scope context)."""
    return _otlp_logs_docs(json.loads(payload))


def _otlp_logs_docs(obj: dict) -> list[dict[str, Any]]:
    """Shared doc builder over the proto-JSON object model — the protobuf
    wire decoder feeds the SAME structure, so json and protobuf payloads
    of one export produce identical docs."""
    now_nanos = int(time.time() * 1e9)
    docs = []
    for rl in obj.get("resourceLogs", []):
        resource_attrs = _extract_attributes(
            (rl.get("resource") or {}).get("attributes", []))
        service_name = resource_attrs.pop("service.name", "unknown_service")
        if not isinstance(service_name, str):
            service_name = "unknown_service"
        for sl in rl.get("scopeLogs", []):
            scope = sl.get("scope") or {}
            scope_name = scope.get("name") or None
            scope_version = scope.get("version") or None
            scope_attrs = _extract_attributes(scope.get("attributes", []))
            for rec in sl.get("logRecords", []):
                observed = int(rec.get("observedTimeUnixNano", 0) or 0)
                if observed == 0:
                    observed = now_nanos
                ts = int(rec.get("timeUnixNano", 0) or 0) or observed
                body = rec.get("body")
                if isinstance(body, dict):
                    body = _attr_value(body)
                docs.append({
                    "timestamp_nanos": ts,
                    "observed_timestamp_nanos": observed,
                    "service_name": service_name,
                    "severity_text": rec.get("severityText") or None,
                    "severity_number": int(rec.get("severityNumber", 0) or 0),
                    "body": body,
                    "attributes": _extract_attributes(rec.get("attributes", [])),
                    "trace_id": _hex_id(rec.get("traceId")),
                    "span_id": _hex_id(rec.get("spanId")),
                    "trace_flags": int(rec.get("flags", 0) or 0),
                    "resource_attributes": resource_attrs,
                    "scope_name": scope_name,
                    "scope_version": scope_version,
                    "scope_attributes": scope_attrs,
                })
    return docs


def parse_otlp_spans_json(payload: bytes | str) -> list[dict[str, Any]]:
    """ExportTraceServiceRequest JSON -> one flat doc per span
    (traces.rs:184-245 model field names)."""
    return _otlp_spans_docs(json.loads(payload))


#: quickwit's SpanFingerprint separator (traces.rs:441-447): service
#: name, span-kind digit, and span name joined by NUL.
SPAN_FINGERPRINT_SEP = "\x00"

_STATUS_CODES = {0: "unset", 1: "ok", 2: "error",
                 "STATUS_CODE_UNSET": "unset", "STATUS_CODE_OK": "ok",
                 "STATUS_CODE_ERROR": "error"}


def span_fingerprint(service_name: str, span_kind: int, span_name: str) -> str:
    """service\\0kind\\0name concatenation (traces.rs SpanFingerprint::new)."""
    return (f"{service_name}{SPAN_FINGERPRINT_SEP}{int(span_kind)}"
            f"{SPAN_FINGERPRINT_SEP}{span_name}")


def _span_status(status: dict) -> dict:
    """OTLP Status -> {'code': unset|ok|error[, 'message']} exactly as the
    reference serializes SpanStatus (traces.rs:509-560; the code enum is
    snake_case per opentelemetry.proto.trace.v1 serde)."""
    code = _STATUS_CODES.get(status.get("code", 0), "unset")
    out: dict[str, Any] = {"code": code}
    msg = status.get("message")
    if msg and code == "error":
        out["message"] = msg
    return out


def _otlp_spans_docs(obj: dict) -> list[dict[str, Any]]:
    docs = []
    for rs in obj.get("resourceSpans", []):
        resource = rs.get("resource") or {}
        resource_attrs = _extract_attributes(resource.get("attributes", []))
        # service.name moves out of the attribute map into its own column
        # (traces.rs Resource::from_otlp)
        service_name = resource_attrs.pop("service.name", "unknown_service")
        if not isinstance(service_name, str):
            service_name = "unknown_service"
        for ss in rs.get("scopeSpans", []):
            scope = ss.get("scope") or {}
            for sp in ss.get("spans", []):
                start = int(sp.get("startTimeUnixNano", 0) or 0)
                end = int(sp.get("endTimeUnixNano", 0) or 0)
                parent = _hex_id(sp.get("parentSpanId"))
                span_name = sp.get("name") or "unknown"
                span_kind = int(sp.get("kind", 0) or 0)
                events = [{
                    "event_timestamp_nanos": int(ev.get("timeUnixNano", 0) or 0),
                    "event_name": ev.get("name") or "",
                    "event_attributes": _extract_attributes(
                        ev.get("attributes", [])),
                    "event_dropped_attributes_count": int(
                        ev.get("droppedAttributesCount", 0) or 0),
                } for ev in sp.get("events", []) or []]
                links = [{
                    "link_trace_id": _hex_id(lk.get("traceId")),
                    "link_span_id": _hex_id(lk.get("spanId")),
                    "link_trace_state": lk.get("traceState") or None,
                    "link_attributes": _extract_attributes(
                        lk.get("attributes", [])),
                    "link_dropped_attributes_count": int(
                        lk.get("droppedAttributesCount", 0) or 0),
                } for lk in sp.get("links", []) or []]
                docs.append({
                    "trace_id": _hex_id(sp.get("traceId")),
                    "trace_state": sp.get("traceState") or None,
                    "service_name": service_name,
                    "resource_attributes": resource_attrs,
                    "resource_dropped_attributes_count": int(
                        resource.get("droppedAttributesCount", 0) or 0),
                    "scope_name": scope.get("name") or None,
                    "scope_version": scope.get("version") or None,
                    "scope_attributes": _extract_attributes(
                        scope.get("attributes", [])),
                    "scope_dropped_attributes_count": int(
                        scope.get("droppedAttributesCount", 0) or 0),
                    "span_id": _hex_id(sp.get("spanId")),
                    "parent_span_id": parent,
                    "span_kind": span_kind,
                    "span_name": span_name,
                    "span_fingerprint": span_fingerprint(
                        service_name, span_kind, span_name),
                    "span_start_timestamp_nanos": start,
                    "span_end_timestamp_nanos": end,
                    "span_duration_millis": max((end - start) // 1_000_000, 0),
                    "span_attributes": _extract_attributes(sp.get("attributes", [])),
                    "span_dropped_attributes_count": int(
                        sp.get("droppedAttributesCount", 0) or 0),
                    "span_dropped_events_count": int(
                        sp.get("droppedEventsCount", 0) or 0),
                    "span_dropped_links_count": int(
                        sp.get("droppedLinksCount", 0) or 0),
                    "span_status": _span_status(sp.get("status") or {}),
                    "is_root": parent is None,
                    "events": events,
                    "event_names": [ev["event_name"] for ev in events],
                    "links": links,
                })
    return docs


# ---------------------------------------------------------------------------
# OTLP protobuf wire-format decoding (public opentelemetry-proto schema)
# ---------------------------------------------------------------------------
# A minimal hand-rolled protobuf wire decoder: the OTLP message tree is
# walked by field number per the PUBLIC opentelemetry-proto .proto files
# (logs/v1/logs.proto, trace/v1/trace.proto, common/v1/common.proto) and
# rebuilt as the proto-JSON object model, so the SAME doc builders serve
# json and protobuf payloads (reference accepts both:
# quickwit-opentelemetry/src/otlp/traces.rs, logs.rs). No protoc, no
# generated classes — wire format is varint/fixed/length-delimited only.

import struct as _struct


def _pb_varint(buf, i: int) -> tuple[int, int]:
    shift = out = 0
    while True:
        b = buf[i]
        i += 1
        out |= (b & 0x7F) << shift
        if not b & 0x80:
            return out, i
        shift += 7
        if shift > 70:
            raise ValueError("malformed varint")


def _pb_fields(buf):
    """Yield (field_number, wire_type, value): int for varint, raw bytes
    for fixed64/fixed32, memoryview for length-delimited."""
    buf = memoryview(buf)
    i, n = 0, len(buf)
    while i < n:
        tag, i = _pb_varint(buf, i)
        fn, wt = tag >> 3, tag & 7
        if wt == 0:
            v, i = _pb_varint(buf, i)
        elif wt == 1:
            v = bytes(buf[i:i + 8]); i += 8
        elif wt == 5:
            v = bytes(buf[i:i + 4]); i += 4
        elif wt == 2:
            ln, i = _pb_varint(buf, i)
            v = buf[i:i + ln]; i += ln
        else:
            raise ValueError(f"unsupported protobuf wire type {wt}")
        yield fn, wt, v


def _pb_str(v) -> str:
    return bytes(v).decode("utf-8")


def _pb_i64(v: int) -> int:
    """varint -> signed int64 (two's complement, NOT zigzag: OTLP uses
    plain int64 fields)."""
    return v - (1 << 64) if v >= (1 << 63) else v


def _pb_fixed64(v: bytes) -> int:
    return int.from_bytes(v, "little")


# AnyValue nests via arrayValue/kvlistValue; a crafted ~34KB payload can
# nest thousands of levels and blow the Python stack (RecursionError is NOT
# a parse error the boundary wrappers catch). Cap well above any real OTLP
# attribute tree but far below the interpreter recursion limit.
_PB_MAX_NEST = 100


def _pb_anyvalue(buf, _depth: int = 0) -> dict:
    if _depth > _PB_MAX_NEST:
        raise ValueError(
            f"OTLP AnyValue nested deeper than {_PB_MAX_NEST} levels")
    out: dict = {}
    for fn, _wt, v in _pb_fields(buf):
        if fn == 1:
            out = {"stringValue": _pb_str(v)}
        elif fn == 2:
            out = {"boolValue": bool(v)}
        elif fn == 3:
            out = {"intValue": _pb_i64(v)}
        elif fn == 4:
            out = {"doubleValue": _struct.unpack("<d", v)[0]}
        elif fn == 5:
            vals = [_pb_anyvalue(x, _depth + 1)
                    for f2, _w, x in _pb_fields(v) if f2 == 1]
            out = {"arrayValue": {"values": vals}}
        elif fn == 6:
            vals = [_pb_keyvalue(x, _depth + 1)
                    for f2, _w, x in _pb_fields(v) if f2 == 1]
            out = {"kvlistValue": {"values": vals}}
        elif fn == 7:
            out = {"bytesValue": base64.b64encode(bytes(v)).decode()}
    return out


def _pb_keyvalue(buf, _depth: int = 0) -> dict:
    if _depth > _PB_MAX_NEST:
        raise ValueError(
            f"OTLP KeyValue nested deeper than {_PB_MAX_NEST} levels")
    key, val = "", {}
    for fn, _wt, v in _pb_fields(buf):
        if fn == 1:
            key = _pb_str(v)
        elif fn == 2:
            val = _pb_anyvalue(v, _depth + 1)
    return {"key": key, "value": val}


def _pb_hex(v) -> str:
    return bytes(v).hex()


def _pb(spec: dict):
    """A decoder for one protobuf message: ``spec`` maps each field
    number to (proto-JSON key, value decoder); a bracketed key
    (``"[attributes]"``) is a repeated field. Other fields are skipped."""
    def decode(buf) -> dict:
        out: dict = {}
        for fn, _wt, v in _pb_fields(buf):
            if fn in spec:
                key, dec = spec[fn]
                if key[0] == "[":
                    out.setdefault(key[1:-1], []).append(dec(v))
                else:
                    out[key] = dec(v)
        return out
    return decode


# logs.proto / trace.proto / resource.proto / common.proto field numbers
_pb_resource = _pb({1: ("[attributes]", _pb_keyvalue),
                    2: ("droppedAttributesCount", int)})
_pb_scope = _pb({1: ("name", _pb_str), 2: ("version", _pb_str),
                 3: ("[attributes]", _pb_keyvalue),
                 4: ("droppedAttributesCount", int)})
_pb_log_record = _pb({
    1: ("timeUnixNano", _pb_fixed64), 2: ("severityNumber", int),
    3: ("severityText", _pb_str), 5: ("body", _pb_anyvalue),
    6: ("[attributes]", _pb_keyvalue),
    8: ("flags", lambda v: int.from_bytes(v, "little")),
    9: ("traceId", _pb_hex), 10: ("spanId", _pb_hex),
    11: ("observedTimeUnixNano", _pb_fixed64)})
_pb_span = _pb({
    1: ("traceId", _pb_hex), 2: ("spanId", _pb_hex),
    3: ("traceState", _pb_str), 4: ("parentSpanId", _pb_hex),
    5: ("name", _pb_str), 6: ("kind", int),
    7: ("startTimeUnixNano", _pb_fixed64),
    8: ("endTimeUnixNano", _pb_fixed64),
    9: ("[attributes]", _pb_keyvalue), 10: ("droppedAttributesCount", int),
    11: ("[events]", _pb({1: ("timeUnixNano", _pb_fixed64),
                          2: ("name", _pb_str),
                          3: ("[attributes]", _pb_keyvalue),
                          4: ("droppedAttributesCount", int)})),
    12: ("droppedEventsCount", int),
    13: ("[links]", _pb({1: ("traceId", _pb_hex), 2: ("spanId", _pb_hex),
                         3: ("traceState", _pb_str),
                         4: ("[attributes]", _pb_keyvalue),
                         5: ("droppedAttributesCount", int)})),
    14: ("droppedLinksCount", int),
    15: ("status", _pb({2: ("message", _pb_str), 3: ("code", int)}))})


def _pb_export(payload: bytes, what: str, keys: tuple[str, str, str],
               decode_item, to_docs) -> list[dict[str, Any]]:
    """An Export{Logs,Trace}ServiceRequest protobuf -> the docs its
    proto-JSON tree builds (logs.proto / trace.proto share the shape:
    request: resource entries=1; entry: resource=1, scope entries=2;
    scope entry: scope=1, items=2; ``keys`` names the three lists). The
    parse boundary for untrusted wire bytes: malformed varints /
    truncated length-delimited fields / wire-type mismatches raise
    ValueError (the gRPC/HTTP layer answers 400), never a raw
    Index/TypeError (fuzz-hardened)."""
    root, scopes, items = keys
    entry = _pb({1: ("resource", _pb_resource), 2: (f"[{scopes}]", _pb(
        {1: ("scope", _pb_scope), 2: (f"[{items}]", decode_item)}))})
    try:
        return to_docs({root: _pb({1: (f"[{root}]", entry)})(payload)
                        .get(root, [])})
    except ValueError:
        raise
    except (IndexError, TypeError, OverflowError, MemoryError,
            RecursionError) as e:
        raise ValueError(
            f"malformed OTLP {what} protobuf: {type(e).__name__}: {e}") from e


def parse_otlp_logs_proto(payload: bytes) -> list[dict[str, Any]]:
    """ExportLogsServiceRequest protobuf -> same docs as the JSON parser."""
    return _pb_export(payload, "logs",
                      ("resourceLogs", "scopeLogs", "logRecords"),
                      _pb_log_record, _otlp_logs_docs)


def parse_otlp_spans_proto(payload: bytes) -> list[dict[str, Any]]:
    """ExportTraceServiceRequest protobuf -> same docs as the JSON parser."""
    return _pb_export(payload, "trace",
                      ("resourceSpans", "scopeSpans", "spans"),
                      _pb_span, _otlp_spans_docs)


def decode_input(payload: bytes | str, input_format: str = "json"
                 ) -> list[dict[str, Any]]:
    """Source input-format decode (doc_processor.rs try_into_json_docs)."""
    if input_format in ("json", "ndjson"):
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        return [json.loads(ln) for ln in payload.split("\n") if ln.strip()]
    if input_format == "plain_text":
        if isinstance(payload, bytes):
            payload = payload.decode("utf-8")
        return [{PLAIN_TEXT_FIELD: ln} for ln in payload.split("\n") if ln]
    if input_format == "otlp_logs_json":
        return parse_otlp_logs_json(payload)
    if input_format == "otlp_traces_json":
        return parse_otlp_spans_json(payload)
    if input_format in ("otlp_logs_protobuf", "otlp_logs_proto"):
        return parse_otlp_logs_proto(payload)
    if input_format in ("otlp_traces_protobuf", "otlp_traces_proto"):
        return parse_otlp_spans_proto(payload)
    raise ValueError(f"unknown input format {input_format!r}")


# ---------------------------------------------------------------------------
# push ingestion into an index
# ---------------------------------------------------------------------------

#: Arrow type of a mapped field no doc of the batch carries (strict mode
#: rejects UNKNOWN doc keys, not missing ones)
_NULL_TYPES = {"text": pa.string(), "i64": pa.int64(), "u64": pa.uint64(),
               "f64": pa.float64(), "bool": pa.bool_(),
               "datetime": pa.timestamp("us"), "bytes": pa.binary(),
               "ip": pa.string(), "json": pa.string()}


class RejectedDocs(ValueError):
    """Some docs do not fit the mapping. ``rejects`` maps the position of
    each refused doc to its reason; ``table`` holds every other doc,
    converted by the same pass. A front that refuses the whole push lets
    this propagate; `_bulk` and native ingest go on with ``table``."""

    def __init__(self, rejects: dict[int, str], table: pa.Table):
        self.rejects, self.table = rejects, table
        first = min(rejects)
        super().__init__(f"{len(rejects)} doc(s) refused; doc {first}: "
                         f"{rejects[first]}")


def _infer(vals: list) -> Optional[pa.Array]:
    """Arrow's own inference of a column, or None when its values mix
    JSON types (rfc3339 strings beside unix ints, "2.5" beside numbers).
    Ints beyond i64 (the u64 upper half, e.g. 18e18 doc ids) overflow
    the default int64 inference and retry as uint64."""
    for typ in (None, pa.uint64()):
        try:
            return pa.array(vals, typ)
        except (OverflowError, pa.ArrowInvalid, pa.ArrowTypeError):
            pass
    return None


def _check_column(fm, vals: list) -> tuple[np.ndarray, np.ndarray]:
    """Convert a datetime or number column at once: (values as float64,
    mask of the values the field refuses). Datetimes take ONE
    `parse_datetimes` call (epoch µs) and numbers are unix timestamps
    there, never refused; a number must parse and a u64 must not be
    negative."""
    if fm.type == "datetime":
        us = parse_datetimes(vals, fm.input_formats
                             or ("rfc3339", "unix_timestamp"))
        text = np.fromiter((v is not None and not isinstance(v, (int, float))
                            for v in vals), bool, len(vals))
        return us, text & np.isnan(us)
    num = pd.to_numeric(pd.Series(vals, dtype=object),
                        errors="coerce").to_numpy(np.float64)
    bad = np.isnan(num) & np.fromiter((v is not None for v in vals), bool,
                                      len(vals))
    return num, (bad | (num < 0)) if fm.type == "u64" else bad


def _docs_to_table(docs: list, mapping) -> pa.Table:
    """The doc pass: parsed docs -> one Arrow table of the mapped columns
    (dynamic mode keeps every key), checked and converted column by column
    (doc_mapper_impl.rs:433-561 as run by doc_processor.rs:464-508).

    A doc is refused when it is not a JSON object, carries keys a strict
    mapping lacks, or holds a value its datetime or number field cannot
    take (`_check_column`). Refused docs raise `RejectedDocs` with their
    reasons and the table of the others. A column keeps its values as
    pushed; only a column mixing value forms takes the converted values
    (timestamp[us], float64). json-typed columns are re-serialized to
    strings."""
    rejects: dict[int, str] = {}
    keys: dict[str, None] = {}
    for i, d in enumerate(docs):
        if isinstance(d, dict):
            keys.update(dict.fromkeys(d))
        else:
            rejects[i] = "the document is not a JSON object"
    if rejects:
        docs = [d if isinstance(d, dict) else {} for d in docs]
    names = list(keys)
    fields = {f.name: f for f in mapping.field_mappings}
    if mapping.mode != "dynamic":
        # dotted keys are legal only when rooted at a mapped json field;
        # `_id` is bulk-action metadata, never a schema violation
        mapped = set(fields) | {mapping.doc_id_field}
        names = [k for k in names if k in mapped or (
            "." in k and mapping.resolve_json_path(k) is not None)]
        unknown = set(keys) - set(names) - {"_id"}
        if unknown and mapping.mode == "strict":
            for i, d in enumerate(docs):
                found = sorted(unknown.intersection(d))[:5]
                if found:
                    rejects.setdefault(
                        i, f"strict doc mapping: unknown fields {found} "
                           "(use mode=lenient to drop them, dynamic to "
                           "index them)")
    # Fold dotted keys rooted at a mapped json field into the parent json
    # object (expand_dots semantics, field_mapping_entry.rs:578): `props.k`
    # merges {'k': v} into the `props` column instead of becoming a
    # standalone column the split writer would silently drop. An EXPLICIT
    # mapping with the dotted name wins (mapped fields first,
    # query_builder.rs:84-141) and stays a standalone column.
    dotted = [k for k in names
              if "." in k and k not in fields
              and mapping.resolve_json_path(k) is not None]
    if dotted:
        names = [k for k in names if k not in dotted]
        docs = [dict(d) for d in docs]  # don't mutate caller's docs
        for d in docs:
            for k in list(d.keys()):
                if k not in dotted:
                    continue
                fm, path = mapping.resolve_json_path(k)
                obj = d.get(fm.name)
                obj = dict(obj) if isinstance(obj, dict) else {}
                node = obj
                parts = path.split(".")
                for p in parts[:-1]:
                    nxt = node.get(p)
                    if not isinstance(nxt, dict):
                        nxt = {}
                        node[p] = nxt
                    node = nxt
                node[parts[-1]] = d.pop(k)
                d[fm.name] = obj
                if fm.name not in names:
                    names.append(fm.name)
    converted = {}
    for k in names:
        fm = fields.get(k)
        if fm is not None and fm.type in ("datetime", "i64", "u64", "f64"):
            vals = [d.get(k) for d in docs]
            converted[k], bad = _check_column(fm, vals)
            for i in np.flatnonzero(bad):
                rejects.setdefault(int(i), f"failed to parse {fm.type} field "
                                           f"`{k}` with value `{vals[i]}`")
    keep = np.ones(len(docs), bool)
    keep[list(rejects)] = False
    if rejects:
        docs = [d for d, ok in zip(docs, keep) if ok]
    cols = {}
    for k in names:
        vals = [d.get(k) for d in docs]
        if k in fields and fields[k].type == "json":
            cols[k] = pa.array([None if v is None else json.dumps(
                v, separators=(",", ":")) for v in vals], pa.string())
            continue
        cols[k] = _infer(vals)
        if cols[k] is None and k in converted:  # mixed value forms
            cols[k] = pa.array(converted[k][keep], from_pandas=True)
            if fields[k].type == "datetime":
                cols[k] = cols[k].cast(pa.int64(), safe=False).cast(
                    pa.timestamp("us"))
        if cols[k] is None:
            raise ValueError(f"field `{k}` mixes JSON value types")
    for f in mapping.field_mappings:
        if f.name not in cols:
            cols[f.name] = pa.nulls(len(docs),
                                    _NULL_TYPES.get(f.type, pa.string()))
    if mapping.store_document_size:
        # per-doc serialized-JSON byte length (doc_mapper_impl.rs:549-551,
        # `document_len = json_doc.len()`); parsed dicts re-serialize with
        # the canonical separators the NDJSON producer used
        cols["_doc_length"] = pa.array(
            [len(json.dumps(d, default=str).encode()) for d in docs],
            pa.uint64())
    table = pa.table(cols)
    if rejects:
        raise RejectedDocs(rejects, table)
    return table


def raw_table(docs: list) -> pa.Table:
    """Docs pulled from a queue source -> a table of every key as pulled
    (the doc pass under an empty dynamic mapping); the index mapping
    applies when the split is built."""
    from quickwit_ray.config import DocMapping

    return _docs_to_table(docs, DocMapping((), mode="dynamic"))


def ingest_docs(index_dir: str, docs: list | pa.Table, *,
                commit_id: Optional[str] = None) -> int:
    """Build one split from pushed docs and publish atomically. ``docs``
    may be the table `_docs_to_table` already built (fronts that answer
    per doc convert first). Passing a ``commit_id`` makes the call
    idempotent (replayed commit ids no-op, the ingest-v2 shard-position
    analog). Returns docs indexed."""
    from quickwit_ray.config import IndexConfig
    from quickwit_ray.index.writer import SplitBuilder
    from quickwit_ray.state.manifest import Manifest

    if not len(docs):
        return 0
    manifest = Manifest(index_dir)
    if manifest.index_config_json is None:
        raise FileNotFoundError(f"no index at {index_dir}")
    config = IndexConfig.from_json(manifest.index_config_json)
    partition = (f"ingest:{commit_id}" if commit_id is not None
                 else f"ingest:{time.time_ns()}")
    if manifest.is_partition_committed(partition):
        return 0
    table = (docs if isinstance(docs, pa.Table)
             else _docs_to_table(docs, config.doc_mapping))
    builder = SplitBuilder(config, index_dir, partition, 0)
    builder.add_batch(table)
    sm = builder.flush()
    manifest.publish([sm] if sm else [], checkpoint_partition=partition)
    return table.num_rows

# ---------------------------------------------------------------------------
# ingest workbench: accumulate many small pushes into O(1) splits
# ---------------------------------------------------------------------------

def _stack(tables: list[pa.Table]) -> pa.Table:
    """Concatenate the tables of several pushes. A column one push left
    all-null (a mapped field it never set) takes the type the pushes that
    carry values gave it; numeric types widen."""
    typed = {f.name: f.type for t in tables
             for f, c in zip(t.schema, t.columns) if c.null_count < len(c)}
    return pa.concat_tables(
        [pa.table({f.name: pa.nulls(len(c), typed[f.name])
                   if f.name in typed and c.null_count == len(c) else c
                   for f, c in zip(t.schema, t.columns)}) for t in tables],
        promote_options="permissive")


class IngestWorkbench:
    """Accumulating push-ingest workbench (reference
    quickwit-indexing/src/actors/indexer.rs:592-626: the Indexer holds an
    open ``IndexingWorkbench`` and seals it when a commit trigger fires —
    ``commit_timeout_secs`` since the FIRST buffered doc, a docs
    threshold, or a memory threshold — instead of cutting one split per
    ingest request). Many small ``_bulk`` calls therefore produce O(1)
    splits per commit wave, not O(calls).

    Exactly-once: each push's ``commit_id`` is checked against the
    manifest checkpoints (and this workbench's pending set) at PUSH time,
    and every pending commit_id is recorded in the SAME atomic manifest
    append that publishes the sealed splits (``Manifest.publish_many``).
    A crash before commit loses only the uncommitted buffer; replaying
    those bulks into a fresh workbench ingests them exactly once.

    No background thread: the timeout trigger is evaluated on every push
    and via :meth:`poll` / :meth:`commit` / :meth:`close` — deterministic
    for tests, and the long-lived-server analog would call ``poll`` from
    its event loop.
    """

    def __init__(self, index_dir: str, *,
                 commit_timeout_secs: float = 60.0,
                 commit_docs_threshold: int = 100_000,
                 commit_bytes_threshold: int = 64 << 20):
        from quickwit_ray.config import IndexConfig
        from quickwit_ray.state.manifest import Manifest

        self.index_dir = index_dir
        self.manifest = Manifest(index_dir)
        if self.manifest.index_config_json is None:
            raise FileNotFoundError(f"no index at {index_dir}")
        self.config = IndexConfig.from_json(self.manifest.index_config_json)
        self.commit_timeout_secs = float(commit_timeout_secs)
        self.commit_docs_threshold = int(commit_docs_threshold)
        self.commit_bytes_threshold = int(commit_bytes_threshold)
        self._tables: list[pa.Table] = []
        self._num_docs = self._bytes = 0
        self._first_ts: Optional[float] = None
        self._pending: list[str] = []
        self.commits = 0
        self.splits_built = 0

    # -- push fronts (same decode surface as the one-shot functions) -----

    def bulk(self, payload: bytes | str, *, commit_id: Optional[str] = None) -> int:
        return self.push(parse_bulk_ndjson(payload), commit_id=commit_id)

    def ingest_payload(self, payload: bytes | str, input_format: str = "json",
                       *, commit_id: Optional[str] = None) -> int:
        return self.push(decode_input(payload, input_format), commit_id=commit_id)

    def push(self, docs: list[dict[str, Any]], *,
             commit_id: Optional[str] = None) -> int:
        """Convert and buffer parsed docs; returns docs queued (0 for a
        replayed commit_id). A doc the mapping refuses raises
        `RejectedDocs` HERE, so a poison doc fails its own push, not a
        later commit carrying other pushes."""
        if commit_id is not None:
            partition = f"ingest:{commit_id}"
            if (partition in self._pending
                    or self.manifest.is_partition_committed(partition)):
                return 0
        table = _docs_to_table(docs, self.config.doc_mapping) if docs else None
        if commit_id is not None:
            self._pending.append(f"ingest:{commit_id}")
        if table is not None:
            self._tables.append(table)
            self._num_docs += table.num_rows
            self._bytes += table.nbytes
            if self._first_ts is None:
                self._first_ts = time.monotonic()
        n = len(docs)
        self._maybe_commit()
        return n

    # -- commit triggers -------------------------------------------------

    def _triggered(self) -> bool:
        if self._first_ts is None:
            return False
        return (self._num_docs >= self.commit_docs_threshold
                or self._bytes >= self.commit_bytes_threshold
                or (time.monotonic() - self._first_ts) >= self.commit_timeout_secs)

    def _maybe_commit(self) -> None:
        if self._triggered():
            self.commit()

    def poll(self) -> bool:
        """Evaluate the timeout trigger outside a push; True if committed."""
        if self._triggered():
            self.commit()
            return True
        return False

    def commit(self) -> int:
        """Seal the open workbench: build O(1) splits (chunked only at the
        index's split_num_docs_target) and publish them with ALL pending
        commit_ids in one atomic manifest append."""
        from quickwit_ray.index.writer import SplitBuilder

        tables, cids, n = self._tables, self._pending, self._num_docs
        self._tables, self._pending = [], []
        self._num_docs = self._bytes = 0
        self._first_ts = None
        if not n and not cids:
            return 0
        sms = []
        if n:
            table = _stack(tables)
            target = max(1, int(self.config.settings.split_num_docs_target))
            base = cids[0] if cids else f"ingest:{time.time_ns()}"
            for i in range(0, table.num_rows, target):
                builder = SplitBuilder(self.config, self.index_dir,
                                       f"{base}", i // target)
                builder.add_batch(table.slice(i, target))
                sm = builder.flush()
                if sm:
                    sms.append(sm)
        live = [c for c in cids
                if not self.manifest.is_partition_committed(c)]
        if not live:
            live = [f"ingest:{time.time_ns()}"]
        by: dict[str, list] = {live[0]: sms}
        for c in live[1:]:
            by[c] = []
        self.manifest.publish_many(by)
        self.commits += 1
        self.splits_built += len(sms)
        return n

    def close(self) -> int:
        """Commit any remaining buffered docs."""
        return self.commit()

    def __enter__(self) -> "IngestWorkbench":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


# ---------------------------------------------------------------------------
# OTLP protobuf fixture encoder (tests / contract fixtures — the decoder
# above is independently round-trip-tested against a separately written
# encoder in tests/test_ingest_api.py)
# ---------------------------------------------------------------------------

def _pbe_varint(n: int) -> bytes:
    out = b""
    n &= (1 << 64) - 1
    while True:
        b, n = n & 0x7F, n >> 7
        if n:
            out += bytes([b | 0x80])
        else:
            return out + bytes([b])


def _pbe_len(fn: int, payload: bytes) -> bytes:
    return _pbe_varint(fn << 3 | 2) + _pbe_varint(len(payload)) + payload


def _pbe_f64(fn: int, v: int) -> bytes:
    return _pbe_varint(fn << 3 | 1) + _struct.pack("<Q", v)


def encode_otlp_logs_request(records: list[dict[str, Any]],
                             service_name: str = "unknown_service") -> bytes:
    """Encode flat log records into an ExportLogsServiceRequest protobuf
    (one resource, one scope). Record keys: time_unix_nano,
    severity_number, severity_text, body (str)."""
    recs = b""
    for r in records:
        rec = b""
        if r.get("time_unix_nano"):
            rec += _pbe_f64(1, int(r["time_unix_nano"]))
        if r.get("severity_number"):
            rec += _pbe_varint(2 << 3 | 0) + _pbe_varint(int(r["severity_number"]))
        if r.get("severity_text"):
            rec += _pbe_len(3, str(r["severity_text"]).encode())
        if r.get("body") is not None:
            rec += _pbe_len(5, _pbe_len(1, str(r["body"]).encode()))
        if r.get("observed_time_unix_nano"):
            rec += _pbe_f64(11, int(r["observed_time_unix_nano"]))
        recs += _pbe_len(2, rec)
    scope_logs = _pbe_len(1, b"") + recs
    kv = (_pbe_len(1, b"service.name")
          + _pbe_len(2, _pbe_len(1, service_name.encode())))
    resource = _pbe_len(1, kv)
    resource_logs = _pbe_len(1, resource) + _pbe_len(2, scope_logs)
    return _pbe_len(1, resource_logs)
