"""SplitBuilder — the segment-writer workbench.

Re-expresses the reference Indexer/IndexSerializer/Packager chain
(`quickwit-indexing/src/actors/indexer.rs:104-340` routing + commit
triggers, `index_serializer.rs`, `packager.rs:83-330` tag extraction) as
an in-memory accumulator fed Arrow batches, flushing immutable split
directories when `split_num_docs_target` or the heap budget is hit.

Everything is vectorized: tokenization is one regex pass per batch
(functions/tokenizers.py), term-id assignment is a dict lookup per
*batch vocabulary* (Zipf: small), posting assembly at flush is one
lexsort over the accumulated (term, doc, pos) arrays. Doc ids within a
split are assigned in arrival order (deterministic per input
partition), which pins tie-break behavior.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from typing import NamedTuple, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from quickwit_ray.config import IndexConfig
from quickwit_ray.functions.bm25 import fieldnorm_to_id
from quickwit_ray.functions.tokenizers import (
    tokenize_batch,
    tokenize_batch_encoded,
)
from quickwit_ray.index.format import (
    DOCSTORE_FILE,
    FASTFIELDS_FILE,
    FIELDNORMS_FILE,
    POSTINGS_FILE,
    write_footer,
    write_postings_file,
)
from quickwit_ray.state.manifest import SplitMetadata

MAX_VALUES_PER_TAG_FIELD = 1000  # packager.rs:39-44


def _binary_col(values, bounds: np.ndarray) -> list:
    """Zero-copy pa.binary() chunks where row i is the byte slice
    values[bounds[i]:bounds[i+1]] (``bounds`` are BYTE offsets, length
    nrows+1, monotone). Splits at row boundaries whenever a chunk's value
    buffer would overflow the 2 GB int32 offset space (a 10M-doc split's
    hottest field can exceed it). ``values=None`` -> every row empty."""
    nrows = len(bounds) - 1
    vbytes = (values.view(np.uint8) if values is not None and values.size
              else np.empty(0, np.uint8))
    out: list[pa.Array] = []
    start = 0
    while start < nrows:
        end = int(np.searchsorted(bounds, bounds[start] + (2 ** 31 - 64),
                                  side="right")) - 1
        end = max(min(end, nrows), start + 1)
        off = (bounds[start:end + 1] - bounds[start]).astype(np.int32)
        out.append(pa.Array.from_buffers(
            pa.binary(), end - start,
            [None, pa.py_buffer(off),
             pa.py_buffer(vbytes[bounds[start]:bounds[end]])]))
        start = end
    return out
JSON_PATH_SEP = "\x01"  # joins (json path, token) into one dictionary term


def json_field_tokens(texts, tokenizer: str):
    """Tokenize a column of JSON strings into path-prefixed terms:
    {"a": {"b": "x y"}, "n": 3} -> a.b\x01x, a.b\x01y, n\x013.
    Returns (doc_idx, tokens, positions) like tokenize_batch."""
    import json as _json

    from quickwit_ray.functions.tokenizers import tokenize as _tok

    idxs, toks = [], []
    for i, t in enumerate(texts):
        if not t:
            continue
        try:
            obj = _json.loads(t) if isinstance(t, str) else t
        except (ValueError, TypeError):
            continue
        stack = [("", obj)]
        while stack:
            path, val = stack.pop()
            if isinstance(val, dict):
                for k, v in val.items():
                    stack.append((f"{path}.{k}" if path else str(k), v))
            elif isinstance(val, list):
                for v in val:
                    stack.append((path, v))
            elif isinstance(val, bool):
                idxs.append(i)
                toks.append(path + JSON_PATH_SEP + ("true" if val else "false"))
            elif isinstance(val, (int, float)):
                out = _json.dumps(val)
                idxs.append(i)
                toks.append(path + JSON_PATH_SEP + out)
            elif val is not None:
                for tk in _tok(str(val), tokenizer):
                    idxs.append(i)
                    toks.append(path + JSON_PATH_SEP + tk)
    doc_idx = np.asarray(idxs, np.int32)
    tokens = np.asarray(toks, object)
    # per-row ordinals
    positions = np.zeros(len(doc_idx), np.int32)
    if len(doc_idx):
        change = np.empty(len(doc_idx), bool)
        change[0] = True
        change[1:] = doc_idx[1:] != doc_idx[:-1]
        seg = np.nonzero(change)[0]
        seg_lens = np.diff(np.append(seg, len(doc_idx)))
        positions = (np.arange(len(doc_idx)) - np.repeat(seg, seg_lens)).astype(np.int32)
    return doc_idx, tokens, positions


POSITION_GAP = 1_000  # position offset between elements of a multi-valued field


def _flatten_structs(batch: pa.Table) -> pa.Table:
    """Object-field analog (nested sub-mapping, field_mapping_type Object):
    struct columns flatten to dotted child columns (`meta` struct<a,b> ->
    `meta.a`, `meta.b`) so nested inputs map/index like flat ones (incl.
    dynamic mode picking up unmapped children)."""
    if not any(pa.types.is_struct(t) for t in batch.schema.types):
        return batch
    cols, names = [], []
    for i, name in enumerate(batch.column_names):
        col = batch.column(i)
        if pa.types.is_struct(batch.schema.types[i]):
            flat = col.combine_chunks().flatten()
            for child, fld in zip(flat, batch.schema.types[i]):
                names.append(f"{name}.{fld.name}")
                cols.append(child)
        else:
            names.append(name)
            cols.append(col)
    return pa.table(dict(zip(names, cols)))


def _tokenize_list_column(col, tokenizer: str):
    arr = col.combine_chunks()
    offsets = np.asarray(arr.offsets, np.int64)
    values = arr.values
    el_idx, tokens, el_pos = tokenize_batch(values.to_pylist(), tokenizer)
    if len(el_idx) == 0:
        return el_idx, tokens, el_pos
    # element index -> row, element ordinal within row
    row = (np.searchsorted(offsets, el_idx, side="right") - 1).astype(np.int32)
    elem_ord = el_idx - offsets[row]
    positions = (el_pos.astype(np.int64) + elem_ord * POSITION_GAP).astype(np.int32)
    return row, tokens, positions


def _concat_column_tokens(col, tokenizer: str, is_json: bool):
    """Token stream one concatenate SOURCE column contributes
    (field_mapping_entry.rs concatenate + the concat_fields rest scenario):
    strings tokenize with the CONCAT field's tokenizer (not the source
    field's), bool/int/float values index as single verbatim tokens
    regardless of tokenizer, and json sources contribute their leaf
    values WITHOUT path prefixes (paths don't exist in a concat field).
    Returns (doc_idx, tokens, positions)."""
    import json as _json

    from quickwit_ray.functions.tokenizers import tokenize as _tok

    atype = col.type if hasattr(col, "type") else None
    if not is_json and atype is not None and pa.types.is_string(atype):
        return tokenize_batch(col.to_pylist(), tokenizer)
    if not is_json and atype is not None and (
            pa.types.is_list(atype) or pa.types.is_large_list(atype)):
        return _tokenize_list_column(col.combine_chunks(), tokenizer)
    idxs, toks = [], []

    def _scalar(i: int, val) -> None:
        if isinstance(val, bool):
            idxs.append(i)
            toks.append("true" if val else "false")
        elif isinstance(val, (int, float, np.integer, np.floating)):
            idxs.append(i)
            toks.append(_json.dumps(val))
        elif val is not None:
            for tk in _tok(str(val), tokenizer):
                idxs.append(i)
                toks.append(tk)

    for i, v in enumerate(col.to_pylist()):
        if v is None:
            continue
        if is_json:
            try:
                obj = _json.loads(v) if isinstance(v, str) else v
            except (ValueError, TypeError):
                continue
            stack = [obj]
            while stack:
                val = stack.pop()
                if isinstance(val, dict):
                    stack.extend(val.values())
                elif isinstance(val, list):
                    stack.extend(val)
                else:
                    _scalar(i, val)
        else:
            _scalar(i, v)
    doc_idx = np.asarray(idxs, np.int32)
    tokens = np.asarray(toks, object)
    positions = np.zeros(len(doc_idx), np.int32)
    if len(doc_idx):
        change = np.r_[True, doc_idx[1:] != doc_idx[:-1]]
        starts = np.flatnonzero(change)
        positions = np.arange(len(doc_idx), dtype=np.int32)
        positions -= np.repeat(positions[starts],
                               np.diff(np.r_[starts, len(doc_idx)]))
    return doc_idx, tokens, positions


def _json_fast_path_columns(col, root: str, normalizer: str,
                            n_rows: int) -> dict[str, pa.Array]:
    """Scalar leaf paths of a json fast column -> dotted typed arrays
    (`actor` -> {"actor.id": int64[...], "actor.login": string[...]}).
    Multi-valued paths keep the FIRST value per row (fast-field sort/agg
    semantics need one value; full multi-value access goes through the
    doc store)."""
    import json as _json

    paths: dict[str, list] = {}
    present: dict[str, int] = {}
    for i, v in enumerate(col.to_pylist()):
        if v is None:
            continue
        try:
            obj = _json.loads(v) if isinstance(v, str) else v
        except (ValueError, TypeError):
            continue
        if not isinstance(obj, dict):
            continue
        stack = [(root, obj)]
        while stack:
            path, val = stack.pop()
            if isinstance(val, dict):
                for k, sv in val.items():
                    stack.append((f"{path}.{k}", sv))
            elif isinstance(val, list):
                if val:
                    stack.append((path, val[0]))
            elif val is not None and not isinstance(val, (dict, list)):
                lst = paths.get(path)
                if lst is None:
                    lst = paths[path] = [None] * n_rows
                if lst[i] is None:
                    if isinstance(val, str) and normalizer == "lowercase":
                        val = val.lower()
                    lst[i] = val
    out = {}
    for path, lst in paths.items():
        try:
            out[path] = pa.array(lst)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            out[path] = pa.array([None if v is None else str(v)
                                  for v in lst], pa.string())
    return out


def _coerce_datetime(col, fm) -> pa.ChunkedArray:
    """Parse a non-timestamp datetime column (string / unix number) to
    timestamp[us] using the mapping's input_formats (multi-format parsing,
    quickwit-datetime analog)."""
    from quickwit_ray.functions.datetimes import parse_datetimes

    formats = fm.input_formats or ("rfc3339", "unix_timestamp")
    us = parse_datetimes(col.to_pylist(), formats)
    mask = np.isnan(us)
    vals = np.where(mask, 0, us).astype(np.int64)
    return pa.chunked_array([pa.array(vals, pa.int64(), mask=mask)
                             .cast(pa.timestamp("us"))])


class _TokenStream(NamedTuple):
    """One inverted field's tokens in one batch, dictionary-encoded:
    token k is ``vocab[codes[k]]`` at ``positions[k]`` of batch row
    ``doc_idx[k]``. ``vocab`` may repeat a string (lowercasing after
    encoding); the field accumulator dedups through its own vocab."""

    field: str
    doc_idx: np.ndarray
    codes: np.ndarray
    vocab: np.ndarray
    positions: np.ndarray


def _effective_text_fields(mapping, batch: pa.Table):
    """Explicit text + json fields + (dynamic mode) implicit mappings
    for unmapped string columns (the `_dynamic` catch-all path)."""
    out = list(mapping.text_fields)
    out += [f for f in mapping.field_mappings
            if f.type == "json" and f.indexed]
    if mapping.mode == "dynamic" and mapping.dynamic_indexed:
        mapped = {f.name for f in mapping.field_mappings}
        for i, col in enumerate(batch.column_names):
            t = batch.schema.types[i]
            if (pa.types.is_list(t) or pa.types.is_large_list(t)):
                t = t.value_type  # string arrays tokenize per element
            if col not in mapped and (pa.types.is_string(t)
                                      or pa.types.is_large_string(t)):
                out.append(mapping.resolve_field(col))
    return out


def _extract_token_streams(mapping, batch: pa.Table) -> list[_TokenStream]:
    """Every inverted field's token stream of one flattened batch: mapped
    text, json paths, concatenate fields, list columns and (dynamic mode)
    unmapped string columns. A field whose column is absent yields no
    stream, or a KeyError under a strict mapping."""
    import pandas as pd

    out: list[_TokenStream] = []
    for fm in _effective_text_fields(mapping, batch):
        if fm.sources:
            # Concatenate field: token streams of several source
            # columns merged under one inverted field; positions are
            # offset per source so phrases never match across sources
            sources = [s for s in fm.sources if s in batch.column_names]
            if getattr(fm, "include_dynamic_fields", False):
                mapped = {f.name for f in mapping.field_mappings}
                sources += [c for c in batch.column_names
                            if c not in mapped and c not in sources]
            parts = []
            for si, src in enumerate(sources):
                try:
                    src_fm = mapping.field(src)
                except KeyError:
                    src_fm = None
                di, tk, ps = _concat_column_tokens(
                    batch[src], fm.tokenizer,
                    src_fm is not None and src_fm.type == "json")
                parts.append((di, tk, ps + np.int32(si * 1_000_000)))
            if parts:
                doc_idx = np.concatenate([p[0] for p in parts])
                tokens = np.concatenate([p[1] for p in parts])
                positions = np.concatenate([p[2] for p in parts])
            else:
                doc_idx = np.empty(0, np.int32)
                tokens = np.empty(0, object)
                positions = np.empty(0, np.int32)
        elif fm.name not in batch.column_names:
            if mapping.mode == "strict":
                raise KeyError(f"strict mapping: missing field {fm.name}")
            continue
        elif fm.type == "json":
            doc_idx, tokens, positions = json_field_tokens(
                batch[fm.name].to_pylist(), fm.tokenizer)
        elif pa.types.is_list(batch.schema.field(fm.name).type) \
                or pa.types.is_large_list(batch.schema.field(fm.name).type):
            # multi-valued text field (Cardinality::MultiValued = JSON
            # array of the scalar): tokenize each element, offset
            # positions per element so phrases never cross elements
            doc_idx, tokens, positions = _tokenize_list_column(
                batch[fm.name], fm.tokenizer)
        else:
            # scalar text column: dictionary-encoded Arrow-kernel
            # tokenization (no per-token Python strings on this path)
            out.append(_TokenStream(fm.name, *tokenize_batch_encoded(
                batch[fm.name], fm.tokenizer)))
            continue
        # tokenizing branches: batch-local vocab via hash-based
        # factorize (beats sort-based np.unique here)
        codes, vocab = pd.factorize(tokens)
        out.append(_TokenStream(fm.name, doc_idx, codes, vocab, positions))
    return out


def deterministic_split_id(source_partition_id: str, seq: int) -> str:
    """Content-addressed, deterministic split id: identical re-runs of a
    source partition produce identical split ids (idempotent publish)."""
    h = hashlib.sha1(source_partition_id.encode()).hexdigest()[:12]
    return f"{h}-{seq:05d}"


class _FieldAcc:
    """Per-text-field posting accumulator."""

    __slots__ = ("vocab", "term_ids", "doc_ids", "positions", "doc_lens",
                 "covered")

    def __init__(self) -> None:
        self.vocab: dict[str, int] = {}
        self.term_ids: list[np.ndarray] = []
        self.doc_ids: list[np.ndarray] = []
        self.positions: list[np.ndarray] = []
        self.doc_lens: list[np.ndarray] = []
        self.covered = 0  # docs whose lengths are recorded so far


class SplitBuilder:
    """Accumulates docs for ONE split, then flushes the artifact dir."""

    def __init__(self, config: IndexConfig, index_dir: str,
                 source_partition_id: str, seq: int, partition_id: int = 0):
        self.config = config
        self.mapping = config.doc_mapping
        self.index_dir = index_dir
        self.source_partition_id = source_partition_id
        self.partition_id = partition_id
        self.split_id = deterministic_split_id(
            f"{source_partition_id}#p{partition_id}", seq)
        from quickwit_ray import storage

        self.split_dir = storage.join(index_dir, "splits", self.split_id)
        # splits are BUILT in local scratch space; finalize renames
        # locally or UPLOADS to object storage (packager->uploader flow,
        # actors/uploader.rs:465-506)
        self._tmp_dir = storage.staging_dir(self.split_dir)
        self.num_docs = 0
        self.est_bytes = 0
        self._accs: dict[str, _FieldAcc] = {f.name: _FieldAcc()
                                            for f in self.mapping.text_fields}
        self._docstore_writer: Optional[pq.ParquetWriter] = None
        self._blob_writers: Optional[dict] = None  # fat stored columns
        self._fast_chunks: list[pa.Table] = []
        self._ts_min: Optional[int] = None
        self._ts_max: Optional[int] = None
        self._tags: dict[str, set] = {t: set() for t in self.mapping.tag_fields}
        self._tag_overflow: set[str] = set()

    # ------------------------------------------------------------------

    def add_batch(self, batch: pa.Table) -> None:
        """Index one batch: extract its token streams, accumulate them,
        store its docs."""
        n = batch.num_rows
        if n == 0:
            return
        batch = _flatten_structs(batch)
        self._accumulate(_extract_token_streams(self.mapping, batch), n)
        self._store_docs(batch)

    def _accumulate(self, streams: list[_TokenStream], n: int) -> None:
        """Append one batch's token streams (n rows) to the field
        accumulators, re-coding batch vocabularies to split term ids."""
        base = self.num_docs
        for s in streams:
            acc = self._accs.get(s.field)
            if acc is None:
                acc = self._accs[s.field] = _FieldAcc()
            # doc lengths (for fieldnorms) = token count per doc; pad any
            # gap first so a field absent from earlier batches (dynamic /
            # lenient modes) still aligns norms to the right doc ids
            if acc.covered < base:
                acc.doc_lens.append(np.zeros(base - acc.covered, np.int32))
            acc.doc_lens.append(np.bincount(s.doc_idx, minlength=n)
                                .astype(np.int32))
            acc.covered = base + n
            if len(s.codes) == 0:
                continue
            vocab = acc.vocab
            lut = np.empty(len(s.vocab), np.int32)
            for j, t in enumerate(s.vocab):
                tid = vocab.get(t)
                if tid is None:
                    tid = len(vocab)
                    vocab[t] = tid
                lut[j] = tid
            acc.term_ids.append(lut[s.codes])
            acc.doc_ids.append(s.doc_idx.astype(np.int32) + np.int32(base))
            acc.positions.append(s.positions)
            self.est_bytes += len(s.codes) * 12

    def _store_docs(self, batch: pa.Table) -> None:
        """Fast fields, timestamp range, tags and doc store of one
        flattened batch."""
        n = batch.num_rows
        # INDEXED scalar fields persist their column even when fast=false:
        # the reference indexes them as term postings; the columnar analog
        # of those postings IS this column (term/range queries scan it),
        # so `indexed: true, fast: false` must still be queryable
        # (tag_fields/0002_negative_tags.yaml hits a non-fast u64 tag)
        fast_like = {f.name: f for f in self.mapping.fast_fields}
        for f in self.mapping.field_mappings:
            if (f.indexed and f.name not in fast_like
                    and f.type in ("u64", "i64", "f64", "bool",
                                   "datetime", "ip")):
                fast_like[f.name] = f
        fast_cols = {}
        parsed = {}  # datetime columns parsed once per batch
        for fm in fast_like.values():
            if fm.name in batch.column_names:
                col = batch[fm.name]
                if fm.type == "json":
                    # json fast field = one dotted fast column per scalar
                    # leaf path (tantivy's columnar json fast fields) so
                    # sort/agg on `actor.id` works without a flat mapping
                    for cname, arr in _json_fast_path_columns(
                            col, fm.name, fm.fast_normalizer, n).items():
                        fast_cols[cname] = arr
                    continue
                if fm.type == "datetime":
                    if not pa.types.is_timestamp(col.type):
                        col = parsed[fm.name] = _coerce_datetime(col, fm)
                    q = fm.fast_precision_us
                    if q > 1:
                        # fast_precision truncation (date_time_type.rs):
                        # both stored values and range bounds quantize
                        ints = col.cast(pa.timestamp("us")).cast(pa.int64())
                        ints = pc.multiply(pc.divide(ints, q), q)
                        col = ints.cast(pa.timestamp("us"))
                elif fm.type == "ip":
                    from quickwit_ray.functions.ip import normalize_ips

                    col = pa.chunked_array([pa.array(
                        normalize_ips(col.to_pylist()), pa.string())])
                elif fm.type == "text" and fm.fast_normalizer == "lowercase":
                    col = pc.utf8_lower(col)
                fast_cols[fm.name] = col
        if (getattr(self.mapping, "store_document_size", False)
                and "_doc_length" in batch.column_names):
            # `_doc_length` is a fast-only schema field (doc_mapper_impl
            # document_size_field): aggregatable, never indexed/stored
            fast_cols["_doc_length"] = batch["_doc_length"]
        if self.mapping.mode == "dynamic" and self.mapping.dynamic_fast:
            # dynamic_mapping.fast: unmapped scalar columns persist fast
            # values too (sorting/aggregating on dynamic paths,
            # doc_mapping.rs dynamic_mapping)
            mapped = {f.name for f in self.mapping.field_mappings}
            for i, cname in enumerate(batch.column_names):
                if cname in mapped or cname in fast_cols:
                    continue
                t = batch.schema.types[i]
                col = batch[cname]
                if pa.types.is_string(t):
                    if self.mapping.dynamic_fast_normalizer == "lowercase":
                        col = pc.utf8_lower(col)
                    fast_cols[cname] = col
                elif (pa.types.is_integer(t) or pa.types.is_floating(t)
                      or pa.types.is_boolean(t) or pa.types.is_timestamp(t)):
                    fast_cols[cname] = col
                elif pa.types.is_list(t) or pa.types.is_large_list(t):
                    # multi-valued dynamic column (JSON array value):
                    # persisted as a list fast column; aggs explode it
                    vt = t.value_type
                    if pa.types.is_string(vt):
                        if self.mapping.dynamic_fast_normalizer == "lowercase":
                            arr = col.combine_chunks()
                            col = pa.ListArray.from_arrays(
                                arr.offsets, pc.utf8_lower(arr.values))
                        fast_cols[cname] = col
                    elif (pa.types.is_integer(vt) or pa.types.is_floating(vt)
                          or pa.types.is_boolean(vt)):
                        fast_cols[cname] = col
        if fast_cols:
            self._fast_chunks.append(pa.table(fast_cols))

        if self.mapping.timestamp_field and self.mapping.timestamp_field in batch.column_names:
            ts = parsed.get(self.mapping.timestamp_field,
                            batch[self.mapping.timestamp_field])
            if not pa.types.is_timestamp(ts.type):
                ts = _coerce_datetime(ts, self.mapping.resolve_field(
                    self.mapping.timestamp_field))
            arr = ts.cast(pa.timestamp("us")).cast(pa.int64()).combine_chunks()
            tsi = arr.to_numpy(zero_copy_only=False).astype("float64")
            valid = ~np.isnan(tsi)
            if valid.any():
                lo, hi = int(np.nanmin(tsi)), int(np.nanmax(tsi))
                self._ts_min = lo if self._ts_min is None else min(self._ts_min, lo)
                self._ts_max = hi if self._ts_max is None else max(self._ts_max, hi)

        for tag in self.mapping.tag_fields:
            if tag in self._tag_overflow or tag not in batch.column_names:
                continue
            vals = self._tags[tag]
            vals.update(batch[tag].unique().to_pylist())
            if len(vals) > MAX_VALUES_PER_TAG_FIELD:
                # cardinality too high -> field yields no pruning info
                self._tag_overflow.add(tag)
                vals.clear()

        stored_names = [f.name for f in self.mapping.stored_fields
                        if f.name in batch.column_names
                        and (self.config.settings.store_binary_columns or f.type != "bytes")]
        if self.mapping.mode == "dynamic":
            mapped = {f.name for f in self.mapping.field_mappings}
            stored_names += [c for c in batch.column_names
                             if c not in mapped and c != "_doc_length"]
        store_tbl = batch.select(stored_names)
        # fat stored columns (webtext bodies, html payloads) go to framed
        # blob files — the tantivy doc-store block analog (~64KB zstd
        # frames, store/writer.rs): a top-k fetch decompresses ONE small
        # frame, not a multi-MB parquet row group. Decided on the first
        # batch, fixed for the split.
        from quickwit_ray.index.format import (
            BlobColumnWriter,
            blob_rows_per_frame,
            docstore_row_group_size,
            split_blob_columns,
        )

        if self._blob_writers is None:
            os.makedirs(self._tmp_dir, exist_ok=True)
            self._blob_writers = {}
            for i, name in enumerate(split_blob_columns(store_tbl)):
                col = store_tbl[name]
                vt = ("string" if pa.types.is_string(col.type)
                      or pa.types.is_large_string(col.type) else "binary")
                self._blob_writers[name] = BlobColumnWriter(
                    os.path.join(self._tmp_dir, f"docblobs-{i:02d}.bin"),
                    blob_rows_per_frame(col.nbytes
                                        / max(store_tbl.num_rows, 1)), vt)
        for name, bw in self._blob_writers.items():
            if name in store_tbl.column_names:
                bw.add(store_tbl[name])
            else:  # column absent this batch (lenient/dynamic): nulls
                bw.add(pa.nulls(store_tbl.num_rows, pa.binary()))
        rest_tbl = store_tbl.drop_columns(
            [c for c in self._blob_writers if c in store_tbl.column_names])
        if rest_tbl.num_columns:
            if self._docstore_writer is None:
                self._docstore_writer = pq.ParquetWriter(
                    os.path.join(self._tmp_dir, DOCSTORE_FILE),
                    rest_tbl.schema, compression="zstd",
                    compression_level=1)
                self._docstore_schema = rest_tbl.schema
            # byte-sized row groups: point fetch decompresses a few MB max
            self._docstore_writer.write_table(
                rest_tbl.cast(self._docstore_schema),
                row_group_size=docstore_row_group_size(rest_tbl))
        self.est_bytes += store_tbl.nbytes
        self.num_docs += n

    # ------------------------------------------------------------------

    def should_flush(self) -> bool:
        s = self.config.settings
        seal_docs = s.commit_docs_threshold or s.split_num_docs_target
        return self.num_docs >= seal_docs or self.est_bytes >= s.heap_size_bytes

    def _fields_metadata(self, fast: Optional[pa.Table]) -> list[dict]:
        """Per-split field listing (packager.rs:290-370 fields_metadata /
        `serialize_split_fields`): one entry per (field name, value type)
        PRESENT in this split, with searchable/aggregatable flags. Dynamic
        and json leaf paths report their concrete value types; a float
        column holding coerced JSON ints additionally reports the int type
        as searchable-but-not-aggregatable (tantivy columnar coercion —
        the es_field_capabilities `mixed` scenario). Consumed by
        `Index.es_field_caps` merged across time-pruned splits."""
        m = self.mapping
        mapped = {f.name: f for f in m.field_mappings}
        type_map = {"text": "str", "i64": "i64", "u64": "u64", "f64": "f64",
                    "bool": "bool", "datetime": "date", "bytes": "bytes",
                    "ip": "ip"}
        entries: dict[tuple[str, str], list[bool]] = {}

        def add(name: str, typ: str, searchable: bool, aggregatable: bool):
            cur = entries.setdefault((name, typ), [False, False])
            cur[0] |= bool(searchable)
            cur[1] |= bool(aggregatable)

        json_roots = [f.name for f in m.field_mappings if f.type == "json"]
        dyn_searchable = m.mode == "dynamic" and m.dynamic_indexed
        dyn_aggregatable = m.mode == "dynamic" and m.dynamic_fast
        # mapped fields are SCHEMA-declared: present in every split even
        # with no values (tantivy segment schema), unlike dynamic paths
        for fm in m.field_mappings:
            if fm.type == "json":
                continue
            add(fm.name, type_map.get(fm.type, "str"), fm.indexed, fm.fast)
        covered: set[str] = {f.name for f in m.field_mappings}
        if getattr(m, "store_document_size", False):
            add("_doc_length", "u64", False, True)
            covered.add("_doc_length")
        for cname in (fast.column_names if fast is not None else []):
            col = fast[cname]
            if cname in covered:
                continue
            if col.null_count == len(col):
                continue  # dynamic/json path with no values: not present
            covered.add(cname)
            root = next((r for r in json_roots
                         if cname.startswith(r + ".")), None)
            if root is not None:
                searchable = bool(mapped[root].indexed)
                aggregatable = bool(mapped[root].fast)
            else:
                searchable, aggregatable = dyn_searchable, dyn_aggregatable
            t = col.type
            if pa.types.is_list(t) or pa.types.is_large_list(t):
                t = t.value_type
                col = pa.chunked_array([col.combine_chunks().values])
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                add(cname, "str", searchable, aggregatable)
            elif pa.types.is_boolean(t):
                add(cname, "bool", searchable, aggregatable)
            elif pa.types.is_timestamp(t):
                add(cname, "date", searchable, aggregatable)
            elif pa.types.is_integer(t):
                add(cname, "i64", searchable, aggregatable)
            elif pa.types.is_floating(t):
                vals = col.drop_null().to_numpy(zero_copy_only=False)
                integral = vals == np.floor(vals)
                if len(vals) and integral.any() and not integral.all():
                    add(cname, "i64", searchable, False)
                add(cname, "f64", searchable, aggregatable)
        # inverted-only fields (no fast column): mapped non-fast text,
        # dynamic strings with dynamic_mapping.fast=false, concat fields.
        # json ROOT fields are skipped (ListFieldType::Json => continue)
        for fname in self._accs:
            if fname in covered or fname in json_roots:
                continue
            fm = mapped.get(fname)
            if fm is not None:  # mapped fields already schema-declared
                continue
            add(fname, "str", True, dyn_aggregatable)
        return [{"name": n, "type": t,
                 "searchable": s, "aggregatable": a}
                for (n, t), (s, a) in sorted(entries.items())]

    def flush(self) -> Optional[SplitMetadata]:
        if self.num_docs == 0:
            if self._docstore_writer is not None:
                self._docstore_writer.close()
            for bw in (self._blob_writers or {}).values():
                bw.close()
            if self._docstore_writer is not None or self._blob_writers:
                shutil.rmtree(self._tmp_dir, ignore_errors=True)
            return None
        if self._docstore_writer is not None:
            self._docstore_writer.close()
        blob_specs = []
        for name, bw in (self._blob_writers or {}).items():
            bw.close()
            blob_specs.append({
                "column": name, "file": os.path.basename(bw.path),
                "type": bw.value_type,
                "rows_per_frame": bw.rows_per_frame,
                "num_rows": bw.num_rows})

        field_order = sorted(self._accs)  # postings sorted by (field, term)
        rows = {k: [] for k in ("field", "term", "df", "max_tf", "doc_ids", "tfs",
                                "block_last", "block_max_tf", "block_lens",
                                "block_min_norm", "positions", "pos_lens")}
        field_stats: dict[str, dict[str, float]] = {}
        norm_cols: dict[str, np.ndarray] = {}

        for fname in field_order:
            fm = self.mapping.resolve_field(fname)
            acc = self._accs[fname]
            doc_lens = (np.concatenate(acc.doc_lens) if acc.doc_lens
                        else np.zeros(self.num_docs, np.int32))
            if len(doc_lens) < self.num_docs:
                doc_lens = np.pad(doc_lens, (0, self.num_docs - len(doc_lens)))
            total_tokens = int(doc_lens.sum())
            field_stats[fname] = {
                "total_tokens": total_tokens,
                "num_docs": int(self.num_docs),
                # f32 division like the reference scorer
                "avgdl": float(np.float32(total_tokens) / np.float32(max(self.num_docs, 1))),
            }
            nids = None
            if fm.fieldnorms:
                nids = fieldnorm_to_id(doc_lens)
                norm_cols[f"norm_{fname}"] = nids
            if not acc.term_ids:
                continue
            term_ids = np.concatenate(acc.term_ids)
            doc_ids = np.concatenate(acc.doc_ids)
            positions = np.concatenate(acc.positions)
            # vocab id -> term string, then sort terms lexicographically
            terms = np.empty(len(acc.vocab), object)
            for t, tid in acc.vocab.items():
                terms[tid] = t
            sort_of_term = np.argsort(terms, kind="stable")
            rank = np.empty_like(sort_of_term)
            rank[sort_of_term] = np.arange(len(sort_of_term))
            term_rank = rank[term_ids]
            # one lexsort orders the whole token stream by (term, doc, pos)
            order = np.lexsort((positions, doc_ids, term_rank))
            term_rank = term_rank[order]
            doc_ids_s = doc_ids[order]
            positions_s = positions[order]
            # collapse to (term, doc) postings with tf
            pair_change = np.empty(len(term_rank), bool)
            pair_change[0] = True
            np.logical_or(term_rank[1:] != term_rank[:-1],
                          doc_ids_s[1:] != doc_ids_s[:-1], out=pair_change[1:])
            pair_starts = np.nonzero(pair_change)[0]
            tfs_all = np.diff(np.append(pair_starts, len(term_rank))).astype(np.int64)
            p_term = term_rank[pair_starts]
            p_doc = doc_ids_s[pair_starts]
            # per-term segments over the pair arrays
            term_change = np.empty(len(p_term), bool)
            term_change[0] = True
            term_change[1:] = p_term[1:] != p_term[:-1]
            term_starts = np.nonzero(term_change)[0]
            term_ends = np.append(term_starts[1:], len(p_term))
            sorted_terms = terms[sort_of_term]
            record_pos = fm.record == "position"
            record_freq = fm.record in ("freq", "position")
            # fully vectorized encodings: every per-term byte blob is a
            # slice of ONE contiguous buffer, exposed zero-copy through a
            # pa.binary() offset vector (_binary_col) — no per-term
            # Python loop (the old loop dominated flush wall time)
            deltas = p_doc.astype(np.int32)
            deltas[1:] -= p_doc[:-1].astype(np.int32)
            deltas[term_starts] = p_doc[term_starts]  # absolute at term start
            max_tfs = np.maximum.reduceat(tfs_all, term_starts)
            dfs = (term_ends - term_starts).astype(np.int64)
            nterms = len(term_starts)
            from quickwit_ray.index.format import BLOCK_SIZE

            # global block grid: term i owns ceil(df_i / BLOCK_SIZE)
            # blocks; one reduceat over the concatenated block starts
            # computes every block's (last_doc, max_tf, len, min_norm)
            nblocks = (dfs + BLOCK_SIZE - 1) // BLOCK_SIZE
            blk_bounds = np.concatenate([[0], np.cumsum(nblocks)])
            total_blocks = int(blk_bounds[-1])
            block_term = np.repeat(np.arange(nterms), nblocks)
            off_in_term = np.arange(total_blocks) - blk_bounds[block_term]
            blk_start = term_starts[block_term] + off_in_term * BLOCK_SIZE
            blk_end = np.minimum(blk_start + BLOCK_SIZE,
                                 term_ends[block_term])
            block_last = p_doc[blk_end - 1].astype(np.int32)
            block_lens = (blk_end - blk_start).astype(np.int32)
            block_max = (np.maximum.reduceat(tfs_all, blk_start)
                         .astype(np.int32) if record_freq
                         else np.ones(total_blocks, np.int32))
            p_norm = nids[p_doc] if nids is not None else None
            pair_bounds = np.concatenate(
                [term_starts, [len(p_doc)]]).astype(np.int64)
            empty_b = np.zeros(nterms + 1, np.int64)
            rows["field"].append(pa.repeat(fname, nterms))
            rows["term"].append(pa.array(sorted_terms[p_term[term_starts]]))
            rows["df"].append(pa.array(dfs.astype(np.int32)))
            rows["max_tf"].append(pa.array(
                max_tfs.astype(np.int32) if record_freq
                else np.ones(nterms, np.int32)))
            rows["doc_ids"].extend(_binary_col(deltas, pair_bounds * 4))
            rows["tfs"].extend(
                _binary_col(tfs_all.astype(np.uint32), pair_bounds * 4)
                if record_freq else _binary_col(None, empty_b))
            rows["block_last"].extend(_binary_col(block_last,
                                                  blk_bounds * 4))
            rows["block_max_tf"].extend(_binary_col(block_max,
                                                    blk_bounds * 4))
            rows["block_lens"].extend(_binary_col(block_lens,
                                                  blk_bounds * 4))
            rows["block_min_norm"].extend(
                _binary_col(np.minimum.reduceat(p_norm, blk_start),
                            blk_bounds)
                if p_norm is not None and len(p_norm)
                else _binary_col(None, empty_b))
            if record_pos:
                tok_bounds = np.concatenate(
                    [pair_starts[term_starts],
                     [len(positions_s)]]).astype(np.int64)
                rows["positions"].extend(_binary_col(
                    positions_s.astype(np.int32), tok_bounds * 4))
                rows["pos_lens"].extend(_binary_col(
                    tfs_all.astype(np.int32), pair_bounds * 4))
            else:
                rows["positions"].extend(_binary_col(None, empty_b))
                rows["pos_lens"].extend(_binary_col(None, empty_b))
            # free accumulators early
            acc.term_ids.clear(); acc.doc_ids.clear(); acc.positions.clear()

        write_postings_file(os.path.join(self._tmp_dir, POSTINGS_FILE), rows)
        if norm_cols:
            pq.write_table(pa.table({k: pa.array(v, pa.uint8())
                                     for k, v in norm_cols.items()}),
                           os.path.join(self._tmp_dir, FIELDNORMS_FILE),
                           compression="zstd")
        if self._fast_chunks:
            fast = pa.concat_tables(self._fast_chunks, promote_options="default")
            pq.write_table(fast, os.path.join(self._tmp_dir, FASTFIELDS_FILE),
                           compression="zstd")

        tags = {t: sorted(str(v) for v in vals)
                for t, vals in self._tags.items()
                if t not in self._tag_overflow and vals}
        try:
            fields_meta = self._fields_metadata(
                fast if self._fast_chunks else None)
        except Exception:  # field-caps metadata must never fail a build
            fields_meta = []
        footer = {
            "split_id": self.split_id,
            "index_id": self.config.index_id,
            "num_docs": int(self.num_docs),
            "field_stats": field_stats,
            "time_range": [self._ts_min, self._ts_max],
            "tags": tags,
            "fields": fields_meta,
        }
        if blob_specs:
            footer["docstore_blobs"] = blob_specs
        write_footer(self._tmp_dir, footer)
        # make the artifact dir live: local = atomic rename; object store
        # = upload (the split only becomes VISIBLE when the manifest
        # publishes it afterwards, so a torn upload is garbage, not state)
        from quickwit_ray import storage

        storage.finalize_dir(self._tmp_dir, self.split_dir)

        return SplitMetadata(
            split_id=self.split_id,
            index_id=self.config.index_id,
            num_docs=int(self.num_docs),
            uncompressed_docs_size_in_bytes=int(self.est_bytes),
            source_partition_id=self.source_partition_id,
            partition_id=self.partition_id,
            time_range_start=self._ts_min,
            time_range_end=self._ts_max,
            create_timestamp=time.time(),
            tags=tags,
            field_stats=field_stats,
        )
