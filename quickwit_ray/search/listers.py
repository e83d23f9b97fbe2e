"""list_terms / list_fields — dictionary and schema introspection
(`quickwit-search/src/list_terms.rs:47-330`, `list_fields.rs`)."""

from __future__ import annotations

import os
from typing import Optional

import pandas as pd

from quickwit_ray.search.engine import IndexSearcher, _GLOBAL_READER_CACHE


def list_terms(index_dir: str, field: str, start: Optional[str] = None,
               end: Optional[str] = None, prefix: Optional[str] = None,
               limit: int = 100) -> pd.DataFrame:
    """Merged term-dictionary range scan across splits -> (term, doc_freq),
    sorted ascending, capped at `limit` distinct terms."""
    s = IndexSearcher(index_dir)
    acc: dict[str, int] = {}
    for sm in s.manifest.published_splits():
        reader = _GLOBAL_READER_CACHE.get(
            os.path.join(index_dir, "splits", sm.split_id))
        rows = reader.term_range_rows(field, start, end, prefix=prefix)
        for r in rows:
            _, term = reader.term_at(int(r))
            acc[term] = acc.get(term, 0) + int(reader.df[r])
    terms = sorted(acc)[:limit]
    return pd.DataFrame({"term": terms,
                         "doc_freq": pd.Series([acc[t] for t in terms],
                                               dtype="int64")})


_TYPE_MAP = {"text": "str", "i64": "i64", "u64": "u64", "f64": "f64",
             "bool": "bool", "datetime": "date", "bytes": "bytes",
             "ip": "ip"}

# ListFieldType -> ES field_caps types (field_capability.rs:149-165);
# Str surfaces as BOTH keyword and text
_ES_TYPES = {"str": ("keyword", "text"), "u64": ("long",), "i64": ("long",),
             "f64": ("double",), "bool": ("boolean",), "date": ("date_nanos",),
             "bytes": ("binary",), "ip": ("ip",)}


def list_field_entries(index_dir: str,
                       fields: Optional[list[str]] = None,
                       start_timestamp: Optional[int] = None,
                       end_timestamp: Optional[int] = None) -> list[dict]:
    """Per-(field, type) entries for ONE index, merged across the splits
    selected by the [start, end) timestamp filter — seconds, split-level
    pruning only (list_fields.rs:60-160). Splits predating the footer
    `fields` metadata fall back to mapping-derived entries. `fields`
    patterns support `*` wildcards."""
    import fnmatch
    import json

    from quickwit_ray.state.manifest import Manifest

    m = Manifest(index_dir)
    lo = start_timestamp * 1_000_000 if start_timestamp is not None else None
    hi = end_timestamp * 1_000_000 if end_timestamp is not None else None
    acc: dict[tuple[str, str], list[bool]] = {}

    def add(name: str, typ: str, searchable: bool, aggregatable: bool):
        cur = acc.setdefault((name, typ), [False, False])
        cur[0] |= bool(searchable)
        cur[1] |= bool(aggregatable)

    for sm in m.list_splits(lo, hi):
        footer_path = os.path.join(index_dir, "splits", sm.split_id,
                                   "footer.json")
        try:
            from quickwit_ray import storage

            flds = json.loads(storage.read_bytes(footer_path)).get("fields")
        except OSError:
            flds = None
        if flds is None:
            # unreadable footer: mapping-derived caps (presence unknowable)
            from quickwit_ray.config import IndexConfig

            cfg = IndexConfig.from_json(m.index_config_json)
            for fm in cfg.doc_mapping.field_mappings:
                if fm.type == "json":
                    continue
                add(fm.name, _TYPE_MAP.get(fm.type, "str"),
                    fm.indexed, fm.fast)
            continue
        for e in flds:
            add(e["name"], e["type"], e["searchable"], e["aggregatable"])
    out = [{"name": n, "type": t, "searchable": s, "aggregatable": a}
           for (n, t), (s, a) in sorted(acc.items())]
    if fields:
        pats = [p.strip() for p in fields if p and p.strip()]
        out = [e for e in out
               if any(fnmatch.fnmatchcase(e["name"], p) for p in pats)]
    return out


def es_field_caps_response(per_index: dict[str, list[dict]]) -> dict:
    """Cross-index ES `_field_caps` body (field_capability.rs:126-180 +
    list_fields.rs:89-160 merge): searchable/aggregatable OR-ed across
    indexes with non_searchable/non_aggregatable attribution, `indices`
    listed per entry only when the field-type is absent from some queried
    index, Str expanded to keyword+text."""
    indices = sorted(n for n, entries in per_index.items() if entries)
    merged: dict[tuple[str, str], dict] = {}
    for ix in indices:
        for e in per_index[ix]:
            key = (e["name"], e["type"])
            cur = merged.setdefault(key, {"searchable": False,
                                          "aggregatable": False,
                                          "index_ids": [],
                                          "non_searchable": [],
                                          "non_aggregatable": []})
            cur["searchable"] |= bool(e["searchable"])
            cur["aggregatable"] |= bool(e["aggregatable"])
            cur["index_ids"].append(ix)
            if not e["searchable"]:
                cur["non_searchable"].append(ix)
            if not e["aggregatable"]:
                cur["non_aggregatable"].append(ix)
    fields: dict[str, dict] = {}
    for (name, typ), cur in merged.items():
        for es_t in _ES_TYPES.get(typ, ("keyword",)):
            entry = {
                "metadata_field": False,
                "searchable": cur["searchable"],
                "aggregatable": cur["aggregatable"],
                "type": es_t,
            }
            if len(cur["index_ids"]) != len(indices):
                entry["indices"] = cur["index_ids"]
            if cur["searchable"] and cur["non_searchable"]:
                entry["non_searchable_indices"] = cur["non_searchable"]
            if cur["aggregatable"] and cur["non_aggregatable"]:
                entry["non_aggregatable_indices"] = cur["non_aggregatable"]
            fields.setdefault(name, {})[es_t] = entry
    return {"indices": indices, "fields": fields}


def list_fields(index_dir: str) -> pd.DataFrame:
    """Cluster-wide field listing: union of per-split schemas + config
    (field_caps analog)."""
    s = IndexSearcher(index_dir)
    rows = []
    for fm in s.mapping.field_mappings:
        rows.append({
            "field": fm.name, "type": fm.type, "tokenizer": fm.tokenizer,
            "indexed": fm.indexed, "stored": fm.stored, "fast": fm.fast,
            "record": fm.record, "fieldnorms": fm.fieldnorms, "tag": fm.tag,
        })
    return pd.DataFrame(rows).sort_values("field").reset_index(drop=True)
