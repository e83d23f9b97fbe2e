"""Split artifact format — the Arrow-native analog of the reference's
self-contained split file (`docs/internals/split-format.md`, tantivy
inverted-index semantics re-expressed columnar):

    {index_dir}/splits/{split_id}/
        postings.parquet    term dictionary + posting lists, sorted by
                            (field, term). Row groups of TERMS_PER_ROW_GROUP
                            rows so a query reads only the row groups that
                            contain its terms (hotcache analog: the small
                            dictionary columns are loaded+cached, the heavy
                            posting columns are fetched per row group).
        fieldnorms.parquet  one row per doc: norm_{field} uint8 columns
                            (1-byte Lucene-quantized doc lengths)
        fastfields.parquet  columnar copies of fast fields (sort/range/agg)
        docstore.parquet    stored fields, row index == local doc id
        footer.json         split-level metadata: num_docs, per-field BM25
                            stats, time range, tags, file sizes

Posting-list encoding per term row (POSTINGS_SCHEMA; every reader
decodes by block, so a postings file lacking a column is refused):
    doc_ids         binary  int32 little-endian DELTA-encoded doc ids
                            (first absolute), blocks of BLOCK_SIZE docs
    tfs             binary  uint32 term frequencies ('' for record=basic -> tf=1)
    block_last      binary  int32 last doc id of each block (skip data)
    block_max_tf    binary  int32 max tf within each block (block-max metadata
                            for Block-Max-WAND-style pruning)
    block_lens      binary  int32 docs per block (sums to df; merged splits
                            carry short blocks)
    block_min_norm  binary  uint8 min fieldnorm id per block ('' when the
                            field omits norms)
Positions live row-aligned in the positions.parquet sidecar:
    positions       binary  int32 token positions, concatenated per posting
    pos_lens        binary  int32 number of positions per posting
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

BLOCK_SIZE = 128            # docs per posting block (reference: 128-doc blocks)
TERMS_PER_ROW_GROUP = 2048  # dictionary rows per parquet row group
# positions live in their own file with SMALL row groups: a phrase query
# touching 2 terms decompresses ~256 terms' positions, not 2048 terms'
POS_TERMS_PER_ROW_GROUP = 256

POSTINGS_FILE = "postings.parquet"
POSITIONS_FILE = "positions.parquet"
FIELDNORMS_FILE = "fieldnorms.parquet"
FASTFIELDS_FILE = "fastfields.parquet"
DOCSTORE_FILE = "docstore.parquet"
def _open_parquet(path: str) -> "pq.ParquetFile":
    """ParquetFile over a local path (fast path) or an object-store URI
    (range reads through pyarrow.fs — only the requested row groups /
    column chunks leave storage)."""
    from quickwit_ray import storage

    if storage.is_object_uri(path):
        return pq.ParquetFile(storage.open_input(path))
    return pq.ParquetFile(path)


def _read_parquet(path: str, **kw) -> pa.Table:
    from quickwit_ray import storage

    if storage.is_object_uri(path):
        loc, fs = storage.parquet_location(path)
        return pq.read_table(loc, filesystem=fs, **kw)
    return pq.read_table(path, **kw)


def _artifact_exists(path: str) -> bool:
    from quickwit_ray import storage

    return storage.exists(path)


FOOTER_FILE = "footer.json"
# impact-ordered hot-term cache (the reference hotcache analog,
# quickwit-directories/src/hot_directory.rs): per heavy term, the full
# block metadata + the top-impact blocks pre-decoded, in 1-row parquet
# row groups — a cold top-k needs ONE small read instead of
# decompressing a 2048-term posting column chunk
HOTCACHE_FILE = "hotcache.parquet"
# terms below this df (128 blocks) read cheap enough anyway; the
# threshold also bounds the BUILD cost — each cached term costs one
# posting-row-group decompress at packaging time, so sweeping in
# mid-weight terms makes every merge re-read most of the file
HOT_DF_THRESHOLD = 16384
HOT_EMBED_BLOCKS = 32       # top-impact blocks embedded (~4096 docs)
MAX_HOT_TERMS = 256         # per split, heaviest df first


def delta_encode(doc_ids: np.ndarray) -> bytes:
    d = np.asarray(doc_ids, np.int32)
    out = np.empty_like(d)
    if len(d):
        out[0] = d[0]
        np.subtract(d[1:], d[:-1], out=out[1:])
    return out.tobytes()


def delta_decode(buf: bytes) -> np.ndarray:
    d = np.frombuffer(buf, np.int32).copy()
    np.cumsum(d, out=d)
    return d


POSTINGS_SCHEMA = pa.schema([
    ("field", pa.string()),
    ("term", pa.string()),
    ("df", pa.int32()),
    ("max_tf", pa.int32()),
    ("doc_ids", pa.binary()),
    ("tfs", pa.binary()),
    ("block_last", pa.binary()),
    ("block_max_tf", pa.binary()),
    ("block_lens", pa.binary()),
    ("block_min_norm", pa.binary()),
])

POSITIONS_SCHEMA = pa.schema([
    ("positions", pa.binary()),
    ("pos_lens", pa.binary()),
])

# columns that constitute the (small, cacheable) term dictionary
DICT_COLUMNS = ["field", "term", "df", "max_tf"]
# the posting-list columns, read per row group
POSTING_COLUMNS = [c for c in POSTINGS_SCHEMA.names if c not in DICT_COLUMNS]


DOCSTORE_RG_MAX_ROWS = 8192
DOCSTORE_RG_TARGET_BYTES = 4 << 20  # raw bytes per doc-store row group
# posting / positions row groups and decoded doc-store blocks one
# SplitReader keeps, least recently used dropped first (_SplitCache)
SPLIT_CACHE_BYTES = 16 << 20


def docstore_row_group_size(tbl: pa.Table) -> int:
    """Doc-store row groups sized by BYTES, not rows (the tantivy
    doc-store analog: point fetches decompress ONE block, so the block
    must be small). Fat rows — webtext bodies, multi-KB payloads — get
    small groups (~4MB raw each); log-sized rows keep the 8192-row cap
    so parquet metadata stays light at 10M-doc splits."""
    if tbl.num_rows == 0:
        return DOCSTORE_RG_MAX_ROWS
    avg = max(tbl.nbytes / tbl.num_rows, 1.0)
    return max(64, min(DOCSTORE_RG_MAX_ROWS,
                       int(DOCSTORE_RG_TARGET_BYTES / avg)))


# ---------------------------------------------------------------------------
# framed blob store for fat stored columns (the tantivy doc-store analog:
# `store/writer.rs` writes ~16KB compressed blocks + a skip index, so a
# point fetch decompresses ONE small block). Parquet row groups cannot go
# that small without exploding file metadata, so fat columns (webtext
# bodies, html payloads) move out of docstore.parquet into a flat file of
# zstd frames with a trailer index: frame payload = u32 byte-lens per row
# (0xFFFFFFFF = null) + concatenated row bytes.
# ---------------------------------------------------------------------------

DOCBLOB_FRAME_RAW_TARGET = 64 << 10   # raw bytes per frame
DOCBLOB_COL_THRESHOLD = 256           # avg raw bytes/row to blob a column
DOCBLOB_NULL = 0xFFFFFFFF
_DOCBLOB_MAGIC = b"QWRBLOB1"
# v2 trailer adds an explicit per-frame row-count array after rawlens, so
# frames need not sit on a uniform row grid — the merge consolidation path
# byte-copies frames from sources whose grids don't align (and whose tail
# frames are short). Writers keep emitting v1 (their grids ARE uniform);
# readers accept both.
_DOCBLOB_MAGIC2 = b"QWRBLOB2"


def _blob_eligible(typ: pa.DataType) -> bool:
    return (pa.types.is_string(typ) or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ) or pa.types.is_large_binary(typ))


class BlobColumnWriter:
    """Streaming framed writer for ONE fat stored column."""

    def __init__(self, path: str, rows_per_frame: int, value_type: str):
        self.path = path
        self.rows_per_frame = int(rows_per_frame)
        self.value_type = value_type  # "string" | "binary"
        self._f = open(path, "wb")
        self._codec = pa.Codec("zstd", 1)
        self._pend: list[pa.Array] = []
        self._pend_rows = 0
        self._offs = [0]
        self._rawlens: list[int] = []
        self.num_rows = 0

    def add(self, col) -> None:
        # frames are emitted as SLICES of the incoming chunks (never a
        # whole-batch concat), so arbitrarily large inputs — multi-GB
        # large_binary chunks included — stay within per-frame memory;
        # only the <rows_per_frame carry between chunks is ever
        # concatenated (both sides tiny)
        R = self.rows_per_frame
        for ch in (col.chunks if isinstance(col, pa.ChunkedArray)
                   else [col]):
            self.num_rows += len(ch)
            if self._pend_rows:
                take = min(R - self._pend_rows, len(ch))
                self._pend.append(ch.slice(0, take))
                self._pend_rows += take
                ch = ch.slice(take)
                if self._pend_rows == R:
                    self._emit(pa.concat_arrays(
                        [a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                         else a for a in self._pend]))
                    self._pend, self._pend_rows = [], 0
            full = (len(ch) // R) * R
            for s in range(0, full, R):
                self._emit(ch.slice(s, R))
            rest = ch.slice(full)
            if len(rest):
                self._pend.append(rest)
                self._pend_rows += len(rest)

    def _emit(self, fr: pa.Array) -> None:
        # vectorized payload build: offsets-buffer slicing; handles both
        # 32-bit (string/binary) and 64-bit (large_*) offset widths
        # without casting (a cast would UTF-8-validate binary payloads
        # and overflow on >2GB chunks)
        t = fr.type
        if not _blob_eligible(t):
            fr = fr.cast(pa.string())
            t = fr.type
        wide = pa.types.is_large_string(t) or pa.types.is_large_binary(t)
        bufs = fr.buffers()
        if bufs[1] is None:  # all-null array (e.g. pa.nulls): no offsets
            off = np.zeros(len(fr) + 1, np.int64)
        elif wide:
            off = np.frombuffer(bufs[1], np.int64, count=len(fr) + 1,
                                offset=fr.offset * 8)
        else:
            off = np.frombuffer(bufs[1], np.int32, count=len(fr) + 1,
                                offset=fr.offset * 4).astype(np.int64)
        data_full = (np.frombuffer(bufs[2], np.uint8)
                     if bufs[2] is not None else np.empty(0, np.uint8))
        rowlens = np.diff(off)
        valid = np.asarray(fr.is_valid())
        if valid.all() or not rowlens[~valid].any():
            # fast path: null slots occupy no extent -> payload is the
            # contiguous value range
            data = data_full[off[0]:off[-1]]
        else:
            # null slots with NONZERO extents (pc.if_else/coalesce keep
            # the underlying bytes): gather only the valid extents, or
            # every row after the null would misalign against the
            # sentinel length the reader decodes as 0
            eff = np.where(valid, rowlens, 0).astype(np.int64)
            total = int(eff.sum())
            seg_off = np.concatenate([[0], np.cumsum(eff)[:-1]])
            big_idx = np.repeat(off[:-1] - seg_off, eff) \
                + np.arange(total)
            data = data_full[big_idx]
        lens = rowlens.astype(np.uint32)
        lens[~valid] = DOCBLOB_NULL  # nulls contribute 0 payload bytes
        payload = lens.tobytes() + data.tobytes()
        fz = self._codec.compress(payload, asbytes=True)
        self._f.write(fz)
        self._offs.append(self._offs[-1] + len(fz))
        self._rawlens.append(len(payload))

    def close(self) -> None:
        if self._pend_rows:
            self._emit(pa.concat_arrays(
                [a.combine_chunks() if isinstance(a, pa.ChunkedArray)
                 else a for a in self._pend]))
            self._pend, self._pend_rows = [], 0
        idx_off = self._offs[-1]
        self._f.write(np.asarray(self._offs, np.int64).tobytes())
        self._f.write(np.asarray(self._rawlens, np.int64).tobytes())
        self._f.write(np.asarray([self.rows_per_frame, len(self._rawlens),
                                  self.num_rows, idx_off],
                                 np.int64).tobytes())
        self._f.write(_DOCBLOB_MAGIC)
        self._f.close()


def _in_request_order(vals, order: list[np.ndarray]):
    """``vals`` (an Arrow array or table) holds the rows of each group
    in ``order`` back to back; put row ``order[g][j]`` at that position."""
    pos = np.concatenate(order) if order else np.empty(0, np.int64)
    if (np.diff(pos) == 1).all():  # groups already in request order
        return vals
    back = np.empty(len(pos), np.int64)
    back[pos] = np.arange(len(pos))
    return vals.take(pa.array(back))


class BlobColumnReader:
    """Point + scan reads over one blob column file."""

    def __init__(self, path: str, value_type: str = "string"):
        from quickwit_ray import storage

        self.path = path
        self.value_type = value_type
        self._codec = pa.Codec("zstd", 1)
        self._f = (storage.open_input(path)
                   if storage.is_object_uri(path) else open(path, "rb"))
        self._f.seek(-40, 2)  # 4 x i64 + magic
        tr = self._f.read(40)
        magic = tr[-8:]
        if magic not in (_DOCBLOB_MAGIC, _DOCBLOB_MAGIC2):
            raise ValueError(f"not a blob column file: {path}")
        (self.rows_per_frame, self.nframes, self.num_rows,
         idx_off) = (int(x) for x in np.frombuffer(tr[:32], np.int64))
        self._f.seek(idx_off)
        n = self.nframes
        if magic == _DOCBLOB_MAGIC:
            raw = self._f.read((n + 1) * 8 + n * 8)
            self.offs = np.frombuffer(raw[:(n + 1) * 8], np.int64)
            self.rawlens = np.frombuffer(raw[(n + 1) * 8:], np.int64)
            # uniform grid: full frames + short tail
            self.frame_rows = np.full(n, self.rows_per_frame, np.int64)
            if n:
                self.frame_rows[-1] = (self.num_rows
                                       - (n - 1) * self.rows_per_frame)
        else:
            raw = self._f.read((n + 1) * 8 + 2 * n * 8)
            self.offs = np.frombuffer(raw[:(n + 1) * 8], np.int64)
            self.rawlens = np.frombuffer(
                raw[(n + 1) * 8:(2 * n + 1) * 8], np.int64)
            self.frame_rows = np.frombuffer(
                raw[(2 * n + 1) * 8:], np.int64)
        # frame fi covers rows [row_starts[fi], row_starts[fi+1])
        self.row_starts = np.concatenate(
            [[0], np.cumsum(self.frame_rows)]).astype(np.int64)
        self.bytes_read = 0

    def _frame_array(self, fi: int) -> pa.Array:
        """One frame -> pa.binary() array, zero-copy from the payload
        (u32 lens with the null sentinel, then the row bytes)."""
        self._f.seek(int(self.offs[fi]))
        buf = self._f.read(int(self.offs[fi + 1] - self.offs[fi]))
        payload = self._codec.decompress(buf, int(self.rawlens[fi]),
                                         asbytes=True)
        self.bytes_read += int(self.rawlens[fi])
        nrows = int(self.frame_rows[fi])
        lens = np.frombuffer(payload, np.uint32, count=nrows)
        eff = np.where(lens == DOCBLOB_NULL, 0, lens).astype(np.int64)
        starts = 4 * nrows + np.concatenate([[0], np.cumsum(eff)])
        valid = lens != DOCBLOB_NULL
        off32 = (starts - starts[0]).astype(np.int32)
        data = np.frombuffer(payload, np.uint8)[starts[0]:starts[-1]]
        vbuf = None
        nulls = int((~valid).sum())
        if nulls:
            vbuf = pa.py_buffer(np.packbits(valid, bitorder="little"))
        return pa.Array.from_buffers(
            pa.binary(), nrows,
            [vbuf, pa.py_buffer(off32), pa.py_buffer(data)],
            null_count=nulls)

    def take(self, rows: np.ndarray, frame=None) -> pa.Array:
        """Rows (local ordinals) -> pa array in request order: one Arrow
        take per touched frame, no per-row Python. ``frame`` (frame index
        -> ``_frame_array``) lets a caller serve decoded frames from its
        own cache; by default each touched frame is decoded here."""
        frame = frame or self._frame_array
        rows = np.asarray(rows, np.int64)
        frame_of = np.searchsorted(self.row_starts, rows, side="right") - 1
        takes, order = [], []
        for fi in np.unique(frame_of):
            sel = np.nonzero(frame_of == fi)[0]
            takes.append(frame(int(fi)).take(
                pa.array(rows[sel] - self.row_starts[fi])))
            order.append(sel)
        arr = _in_request_order(
            pa.concat_arrays(takes) if takes else pa.array([], pa.binary()),
            order)
        return arr.cast(pa.string()) if self.value_type == "string" else arr

    def scan(self) -> pa.Array:
        """Full sequential read -> one pa array (merge rewrites, deletes).
        Rows stay zero-copy views of the frame payloads — a 10M-doc scan
        never materializes per-row Python bytes."""
        chunks = [self._frame_array(fi) for fi in range(self.nframes)]
        arr = (pa.concat_arrays(chunks) if chunks
               else pa.array([], pa.binary()))
        return arr.cast(pa.string()) if self.value_type == "string" else arr


def blob_rows_per_frame(avg_row_bytes: float) -> int:
    return max(8, min(1024, int(DOCBLOB_FRAME_RAW_TARGET
                                / max(avg_row_bytes, 1.0))))


def split_blob_columns(tbl: pa.Table) -> list[str]:
    """Stored columns that should live in the blob store: eligible type
    and fat rows on average."""
    if tbl.num_rows == 0:
        return []
    out = []
    for name in tbl.column_names:
        col = tbl[name]
        if _blob_eligible(col.type) \
                and col.nbytes / tbl.num_rows >= DOCBLOB_COL_THRESHOLD:
            out.append(name)
    return out


def resolve_docstore_units(split_dir: str, footer: dict,
                           num_docs: int) -> list[dict]:
    """The ONE place the footer's doc-store layout resolves to units
    (absolute paths): used by SplitReader.docstore_units and the merge
    stacking/rewrite paths — keep them in lockstep."""

    def _abs(specs):
        return [dict(b, file=os.path.join(split_dir, b["file"]))
                for b in (specs or ())]

    segs = footer.get("docstore_segments")
    if segs:
        return [{
            "parquet": (os.path.join(split_dir, s["file"])
                        if s.get("file") else None),
            "num_docs": int(s["num_docs"]),
            "blobs": _abs(s.get("blobs")),
        } for s in segs]
    p = os.path.join(split_dir, DOCSTORE_FILE)
    blobs = _abs(footer.get("docstore_blobs"))
    if not _artifact_exists(p) and not blobs:
        return []
    return [{"parquet": p if _artifact_exists(p) else None,
             "num_docs": num_docs, "blobs": blobs}]


def write_docstore(dir_: str, tbl: pa.Table) -> list[dict]:
    """One-shot doc-store write (merge consolidation / rewrites): fat
    columns to framed blob files, the rest to docstore.parquet with
    byte-sized row groups. Returns footer ``docstore_blobs`` specs."""
    blob_cols = split_blob_columns(tbl)
    specs = []
    for i, name in enumerate(blob_cols):
        fn = f"docblobs-{i:02d}.bin"
        vt = ("string" if pa.types.is_string(tbl[name].type)
              or pa.types.is_large_string(tbl[name].type) else "binary")
        w = BlobColumnWriter(
            os.path.join(dir_, fn),
            blob_rows_per_frame(tbl[name].nbytes / tbl.num_rows), vt)
        w.add(tbl[name])
        w.close()
        specs.append({"column": name, "file": fn, "type": vt,
                      "rows_per_frame": w.rows_per_frame,
                      "num_rows": w.num_rows})
    rest = tbl.drop_columns(blob_cols)
    if rest.num_columns:
        pq.write_table(rest, os.path.join(dir_, DOCSTORE_FILE),
                       compression="zstd", compression_level=1,
                       row_group_size=docstore_row_group_size(rest))
    return specs


def concat_blob_files(sources: list[tuple[Optional[str], int]],
                      out_path: str) -> int:
    """Consolidate blob column files WITHOUT re-encoding: byte-copy every
    source's zstd frames and write one QWRBLOB2 trailer whose per-frame
    row counts are the concatenation of the sources' grids (tails stay
    short mid-file — v2 readers address by the explicit grid). A ``None``
    source contributes ``num_rows`` synthetic all-null rows (placeholder
    for a merged-in split that had no stored value), encoded as tiny
    sentinel-only frames. Returns total rows. Raises ValueError when a
    real source's row count disagrees with the expected count (caller
    falls back to the re-encoding rewrite)."""
    codec = pa.Codec("zstd", 1)
    offs: list[int] = [0]
    rawlens: list[int] = []
    frows: list[int] = []
    total = 0
    with open(out_path, "wb") as out:
        for path, nrows in sources:
            nrows = int(nrows)
            if path is None:
                total += nrows
                step = 1 << 16
                for s in range(0, nrows, step):
                    n = min(step, nrows - s)
                    payload = np.full(n, DOCBLOB_NULL, np.uint32).tobytes()
                    fz = codec.compress(payload, asbytes=True)
                    out.write(fz)
                    offs.append(offs[-1] + len(fz))
                    rawlens.append(len(payload))
                    frows.append(n)
                continue
            src = BlobColumnReader(path)
            try:
                if src.num_rows != nrows:
                    raise ValueError(
                        f"blob file {path} has {src.num_rows} rows, "
                        f"unit expects {nrows}")
                base = offs[-1]
                src._f.seek(0)
                left = int(src.offs[-1])  # frames region = [0, idx_off)
                while left:
                    chunk = src._f.read(min(left, 4 << 20))
                    if not chunk:
                        raise ValueError(f"truncated blob file: {path}")
                    out.write(chunk)
                    left -= len(chunk)
                offs.extend(int(o) + base for o in src.offs[1:])
                rawlens.extend(int(x) for x in src.rawlens)
                frows.extend(int(x) for x in src.frame_rows)
                total += src.num_rows
            finally:
                src._f.close()
        idx_off = offs[-1]
        out.write(np.asarray(offs, np.int64).tobytes())
        out.write(np.asarray(rawlens, np.int64).tobytes())
        out.write(np.asarray(frows, np.int64).tobytes())
        out.write(np.asarray([0, len(frows), total, idx_off],
                             np.int64).tobytes())
        out.write(_DOCBLOB_MAGIC2)
    return total


def _as_column(v):
    """Column values for pa.table: plain python lists pass through; lists
    of pa.Array chunks (the writer's zero-copy flush) become one
    ChunkedArray."""
    if isinstance(v, list) and v and isinstance(v[0], pa.Array):
        return pa.chunked_array(v)
    return v


def _binary_nonempty(col) -> bool:
    if col is None:
        return False
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        import pyarrow.compute as pc

        return bool(pc.sum(pc.binary_length(col)).as_py() or 0)
    return any(len(b) for b in col)


def write_postings_file(path: str, rows: dict[str, list]) -> None:
    """Write the postings file and (when any positional data exists) the
    row-aligned positions sidecar file next to it. Column values may be
    python lists of bytes/str/int or lists of pa.Array chunks."""
    table = pa.table({k: _as_column(rows[k]) for k in POSTINGS_SCHEMA.names},
                     schema=POSTINGS_SCHEMA)
    pq.write_table(table, path, row_group_size=TERMS_PER_ROW_GROUP,
                   compression="zstd", compression_level=1)
    pos = _as_column(rows.get("positions"))
    if _binary_nonempty(pos):
        ptable = pa.table({"positions": pos,
                           "pos_lens": _as_column(rows["pos_lens"])},
                          schema=POSITIONS_SCHEMA)
        pq.write_table(ptable,
                       os.path.join(os.path.dirname(path), POSITIONS_FILE),
                       row_group_size=POS_TERMS_PER_ROW_GROUP,
                       compression="zstd", compression_level=1)


class ExactRowGroupWriter:
    """Buffers appended tables and writes parquet row groups of EXACTLY
    ``rows_per_group`` rows (the readers address dictionary rows by
    row // rows_per_group), flushing as soon as a full group is buffered."""

    def __init__(self, path: str, schema: pa.Schema, rows_per_group: int):
        self.path = path
        self.schema = schema
        self.rows_per_group = rows_per_group
        self._writer: Optional[pq.ParquetWriter] = None
        self._parts: list[pa.Table] = []
        self._buffered = 0
        self.total_rows = 0

    def _ensure_writer(self) -> None:
        if self._writer is None:
            self._writer = pq.ParquetWriter(self.path, self.schema,
                                            compression="zstd",
                                            compression_level=1)

    # one write_table call per row group is ~4 ms of fixed overhead; a
    # merge emits thousands of groups. Buffer up to GROUPS_PER_WRITE full
    # groups (or MAX_BUFFER_BYTES for fat binary rows) and let ONE
    # write_table call slice them into exact groups itself.
    GROUPS_PER_WRITE = 32
    MAX_BUFFER_BYTES = 96 << 20

    def write(self, tbl: pa.Table) -> None:
        if tbl.num_rows == 0:
            return
        part = tbl.select(self.schema.names).cast(self.schema)
        self._parts.append(part)
        self._buffered += tbl.num_rows
        self._buffered_bytes = getattr(self, "_buffered_bytes", 0) + part.nbytes
        self.total_rows += tbl.num_rows
        if (self._buffered >= self.rows_per_group * self.GROUPS_PER_WRITE
                or (self._buffered_bytes >= self.MAX_BUFFER_BYTES
                    and self._buffered >= self.rows_per_group)):
            big = pa.concat_tables(self._parts)
            nfull = (big.num_rows // self.rows_per_group) * self.rows_per_group
            head = big.slice(0, nfull)
            rest = big.slice(nfull)
            self._ensure_writer()
            self._writer.write_table(head, row_group_size=self.rows_per_group)
            self._parts = [rest] if rest.num_rows else []
            self._buffered = rest.num_rows
            self._buffered_bytes = rest.nbytes if rest.num_rows else 0

    def close(self) -> None:
        if self._buffered:
            big = pa.concat_tables(self._parts)
            self._ensure_writer()
            self._writer.write_table(big, row_group_size=self.rows_per_group)
            self._parts, self._buffered = [], 0
            self._buffered_bytes = 0
        if self._writer is not None:
            self._writer.close()



def open_postings(split_dir: str) -> "pq.ParquetFile":
    """The split's postings file. Raises ValueError naming the split when
    it lacks a POSTINGS_SCHEMA column: every reader decodes by block."""
    pf = _open_parquet(os.path.join(split_dir, POSTINGS_FILE))
    missing = [c for c in POSTINGS_SCHEMA.names
               if c not in pf.schema_arrow.names]
    if missing:
        raise ValueError(f"split {split_dir}: postings file lacks "
                         f"column(s) {', '.join(missing)}")
    return pf


def _binary_views(tbl: pa.Table) -> tuple[dict, int]:
    """``{column: (offsets, data)}``: numpy views of the offset and data
    buffers of a row group's binary columns (no copy), and their bytes."""
    cols = {}
    for name in tbl.column_names:
        col = tbl[name]
        arr = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        _, offs, data = arr.buffers()
        cols[name] = (np.frombuffer(offs, np.int32)
                      [arr.offset:arr.offset + len(arr) + 1],
                      np.frombuffer(data, np.uint8))
    return cols, sum(o.nbytes + d.nbytes for o, d in cols.values())


def _cell(cols: dict, name: str, i: int, dtype) -> np.ndarray:
    """Row ``i`` of a ``_binary_views`` column as a zero-copy array."""
    o, d = cols[name]
    return d[o[i]:o[i + 1]].view(dtype)


# (raw entry key, posting column, dtype) of a raw posting entry
_RAW_POSTING = (("doc_deltas", "doc_ids", np.int32), ("tfs", "tfs", np.uint32),
                ("block_last", "block_last", np.int32),
                ("block_max_tf", "block_max_tf", np.int32),
                ("block_lens", "block_lens", np.int32),
                ("block_min_norm", "block_min_norm", np.uint8))


def _raw_posting(cols: dict, i: int) -> dict:
    """Undecoded buffers of row ``i`` of a posting row group (its
    ``_binary_views``), zero-copy slices."""
    out = {}
    for key, name, dtype in _RAW_POSTING:
        o, d = cols[name]
        out[key] = d[o[i]:o[i + 1]].view(dtype)
    return out


def decode_posting_blocks(raw: dict, sel: Optional[np.ndarray] = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(absolute doc ids, tfs), both int64, of one raw posting list (a
    ``_raw_posting`` entry): the whole list when ``sel`` is None, else
    only the blocks in ``sel``, in block order. A block's first delta
    counts from the previous block's last doc id, so the selected blocks
    decode in one segmented cumsum. A list stored without tfs reads tf 1."""
    deltas, tfs_all = raw["doc_deltas"], raw["tfs"]
    if sel is None:
        idx = slice(None)
        docs = np.cumsum(deltas, dtype=np.int64)
    else:
        sel = np.sort(np.asarray(sel, np.int64))
        lens = raw["block_lens"].astype(np.int64)
        ls = lens[sel]
        total = int(ls.sum())
        if total == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        seg_off = np.cumsum(ls) - ls
        idx = np.repeat((np.cumsum(lens) - lens)[sel] - seg_off, ls) \
            + np.arange(total)
        d = deltas[idx].astype(np.int64)
        cs = np.cumsum(d)
        prev = np.where(sel > 0, raw["block_last"][sel - 1], 0)
        docs = cs + np.repeat(prev - (cs[seg_off] - d[seg_off]), ls)
    tfs = (tfs_all[idx].astype(np.int64) if len(tfs_all)
           else np.ones(len(docs), np.int64))
    return docs, tfs


def block_score_bounds(blocks: dict, df: float, num_docs: float,
                       avgdl: float, flat: bool) -> np.ndarray:
    """Per-block BM25 score upper bounds of a posting list's block
    metadata (a raw posting or hotcache entry) — the tantivy BlockWAND
    pair bound: score(max_tf, shortest doc in block) >= any doc's score in
    the block, so it still prunes flat-tf lists (stopwords, record=basic)
    where doc length is the only score variation. ``flat`` scores every
    block at tf 1. Shared by both pruned scorers and the hotcache
    builder's impact ordering."""
    from quickwit_ray.functions.bm25 import B, K1, id_to_fieldnorm
    from quickwit_ray.functions.bm25 import idf as idf_fn

    nblocks = len(blocks["block_lens"])
    bmax = (np.ones(nblocks) if flat
            else np.asarray(blocks["block_max_tf"], np.float64))
    w = float(idf_fn(float(df), float(num_docs))) * (1.0 + K1)
    bmin = blocks["block_min_norm"]
    if len(bmin) == nblocks and nblocks > 0:
        dl_min = id_to_fieldnorm(np.asarray(bmin, np.uint8)
                                 ).astype(np.float64)
        cache = K1 * (1.0 - B + B * dl_min / max(avgdl, 1e-9))
    else:
        cache = K1 * (1.0 - B)  # norms omitted: dl -> 0 bound
    return w * bmax / (bmax + cache) * (1.0 + 1e-6)


def build_hotcache(split_dir: str, field_stats: dict) -> int:
    """Write the impact-ordered hot-term cache for a finished split.

    For each heavy term (df >= HOT_DF_THRESHOLD, heaviest MAX_HOT_TERMS):
    full block metadata + the HOT_EMBED_BLOCKS highest-upper-bound blocks
    pre-decoded to absolute doc ids, one parquet row group per term. The
    scorer seeds its threshold from the embedded blocks and — when every
    other block's bound falls below it — answers the top-k without ever
    touching the 2048-term posting row group. Readers treat the file as
    optional (a split without heavy terms has none). Returns the number
    of cached terms."""
    pf = open_postings(split_dir)
    dict_tbl = pf.read(columns=["field", "df"])
    df_all = np.asarray(dict_tbl["df"], np.int64)
    cand = np.nonzero(df_all >= max(HOT_DF_THRESHOLD,
                                    (HOT_EMBED_BLOCKS + 1) * BLOCK_SIZE))[0]
    if len(cand) == 0:
        return 0
    if len(cand) > MAX_HOT_TERMS:
        cand = cand[np.argsort(-df_all[cand], kind="stable")[:MAX_HOT_TERMS]]
        cand.sort()
    fields = np.asarray(dict_tbl["field"])
    rows_out: list[dict] = []
    for rg in sorted({int(r) // TERMS_PER_ROW_GROUP for r in cand}):
        tbl, _ = _binary_views(pf.read_row_group(rg, columns=POSTING_COLUMNS))
        for r in (int(c) for c in cand
                  if c // TERMS_PER_ROW_GROUP == rg):
            raw = _raw_posting(tbl, r - rg * TERMS_PER_ROW_GROUP)
            if len(raw["block_lens"]) <= HOT_EMBED_BLOCKS:
                continue
            st = field_stats.get(str(fields[r]), {})
            flat = len(raw["tfs"]) == 0
            ub = block_score_bounds(
                raw, float(df_all[r]), float(st.get("num_docs", 0) or 1),
                float(st.get("avgdl", 1.0) or 1.0), flat)
            sel = np.sort(np.argsort(-ub, kind="stable")
                          [:HOT_EMBED_BLOCKS]).astype(np.int32)
            docs, tfs = decode_posting_blocks(raw, sel)
            rows_out.append({
                "row": r, "df": int(df_all[r]),
                "block_last": raw["block_last"].tobytes(),
                "block_max_tf": raw["block_max_tf"].tobytes(),
                "block_lens": raw["block_lens"].tobytes(),
                "block_min_norm": raw["block_min_norm"].tobytes(),
                "sel": sel.tobytes(),
                "docs": docs.astype(np.int32).tobytes(),
                "tfs": tfs.astype(np.uint32).tobytes(),
                "has_tfs": not flat,
            })
    if not rows_out:
        return 0
    t = pa.table({k: [r[k] for r in rows_out] for k in rows_out[0]})
    pq.write_table(t, os.path.join(split_dir, HOTCACHE_FILE),
                   row_group_size=1, compression="zstd")
    return len(rows_out)


def write_footer(split_dir: str, footer: dict) -> None:
    n_hot = 0
    # a split with fewer docs than the df threshold cannot hold a hot
    # term — skip even the dict read (keeps small-split build free)
    if int(footer.get("num_docs", 0)) >= max(
            HOT_DF_THRESHOLD, (HOT_EMBED_BLOCKS + 1) * BLOCK_SIZE):
        try:
            n_hot = build_hotcache(split_dir,
                                   footer.get("field_stats") or {})
        except Exception:  # noqa: BLE001 — a pure optimization
            n_hot = 0
    if n_hot:
        footer = dict(footer, hotcache_terms=n_hot)
    files = {}
    import glob as _glob

    seg_files = sorted(os.path.basename(p)
                       for pat in ("docstore-seg-*.parquet",
                                   "docblobs-*.bin")
                       for p in _glob.glob(os.path.join(split_dir, pat)))
    for fn in (POSTINGS_FILE, POSITIONS_FILE, FIELDNORMS_FILE, FASTFIELDS_FILE,
               DOCSTORE_FILE, HOTCACHE_FILE, *seg_files):
        p = os.path.join(split_dir, fn)
        if os.path.exists(p):
            files[fn] = os.path.getsize(p)
    footer = dict(footer, files=files, format_version=1)
    with open(os.path.join(split_dir, FOOTER_FILE), "w") as f:
        json.dump(footer, f, separators=(",", ":"))


def _sized(obj) -> tuple:
    """``(obj, obj.nbytes)``: a ``_SplitCache`` load result."""
    return obj, obj.nbytes


class _SplitCache:
    """Every lazy load of one SplitReader, which all requests on the split
    share (HTTP handler threads, the leaf pool). ``get`` loads a missing
    key outside the lock (I/O releases the GIL) and inserts it under the
    lock unless another thread got there first. ``bytes_read`` counts
    every load and ``retained_bytes`` the bytes held, both changed only
    under the lock. Evictable entries (posting / positions row groups,
    doc-store blocks) drop least recently used first while they hold
    more than SPLIT_CACHE_BYTES, the most recent always kept; resident
    entries (dictionary, fieldnorms, fast fields, hotcache) stay for the
    reader's life."""

    def __init__(self):
        import threading
        from collections import OrderedDict

        self._lock = threading.Lock()
        self._resident: dict = {}
        self._lru: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lru_bytes = 0
        self.bytes_read = 0
        self.retained_bytes = 0

    def get(self, key: tuple, load, evict: bool = False) -> Any:
        """The value under ``key``; on a miss ``load()`` returns
        ``(value, nbytes)``, nbytes being the bytes the load read."""
        with self._lock:
            if key in self._resident:
                return self._resident[key][0]
            if key in self._lru:
                self._lru.move_to_end(key)
                return self._lru[key][0]
        value, nbytes = load()
        with self._lock:
            self.bytes_read += nbytes
            held = self._resident.get(key) or self._lru.get(key)
            if held is not None:
                return held[0]
            (self._lru if evict else self._resident)[key] = (value, nbytes)
            self.retained_bytes += nbytes
            if evict:
                self._lru_bytes += nbytes
                while (self._lru_bytes > SPLIT_CACHE_BYTES
                       and len(self._lru) > 1):
                    _, (_, n) = self._lru.popitem(last=False)
                    self._lru_bytes -= n
                    self.retained_bytes -= n
        return value

    def peek(self, key: tuple) -> Any:
        """The value under ``key`` if held (the LRU order unchanged), else
        None."""
        with self._lock:
            held = self._resident.get(key) or self._lru.get(key)
        return held[0] if held is not None else None

    def entries(self) -> list[tuple[tuple, Any, int]]:
        """``(key, value, nbytes)`` of every held entry."""
        with self._lock:
            return [(k, v, n) for d in (self._resident, self._lru)
                    for k, (v, n) in d.items()]


class SplitReader:
    """Open one split for search. The term dictionary (4 small columns) is
    loaded once and kept; heavy posting columns are read per row group on
    demand — the analog of the reference's hotcache + warmup byte-range
    reads (`quickwit-search/src/leaf.rs:207-409`). Every load goes
    through one ``_SplitCache``."""

    def __init__(self, split_dir: str):
        self.split_dir = split_dir
        self._cache = _SplitCache()
        from quickwit_ray import storage

        self.footer = json.loads(
            storage.read_bytes(os.path.join(split_dir, FOOTER_FILE)))
        self.num_docs: int = self.footer["num_docs"]
        self.field_stats: dict = self.footer.get("field_stats", {})
        self._pf = open_postings(split_dir)
        # LAZY term dictionary (the FST-block analog): the numeric df /
        # max_tf columns load eagerly (scorers index them by global row),
        # but the field/term STRING columns — the bulk of the dictionary
        # at web scale — load per 2048-term row group on demand; lookups
        # binary-search across row groups probing only first keys. A cold
        # top-k touches O(log #rowgroups) dictionary row groups instead
        # of the whole string dictionary.
        def load_stats():
            tbl = self._pf.read(columns=["df", "max_tf"])
            return (np.asarray(tbl["df"], np.int64),
                    np.asarray(tbl["max_tf"], np.int64)), tbl.nbytes

        self.df, self.max_tf = self._cache.get(("dict_stats",), load_stats)
        md = self._pf.metadata
        counts = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
        self._dict_rg_starts = np.concatenate(
            [[0], np.cumsum(counts)]).astype(np.int64)
        self._num_terms = int(self._dict_rg_starts[-1])
        # hybrid eager/lazy: a SMALL string dictionary (compressed
        # field+term columns under 4 MB) loads whole at open — one cheap
        # read beats per-query probe decompression; web-scale splits
        # (100+ MB dictionaries) stay lazy
        string_bytes = 0
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            for j in range(rg.num_columns):
                c = rg.column(j)
                if c.path_in_schema in ("field", "term"):
                    string_bytes += c.total_compressed_size
        self._dict_eager: Optional[tuple[pa.Array, pa.Array]] = None
        # first (field, term) of each row group, known up front for an
        # eager dictionary
        self._dict_first_keys: dict[int, tuple[str, str]] = {}
        if 0 < string_bytes < (4 << 20):
            # keep the Arrow columns; the numpy object-array conversion
            # (the expensive part of open — ~35 ms on a 300k-term dict)
            # is deferred per row group to _dict_seg, so a query that
            # probes 3 dictionary row groups converts only those
            def load_strings():
                tbl = self._pf.read(columns=["field", "term"])
                return (tbl["field"].combine_chunks(),
                        tbl["term"].combine_chunks()), tbl.nbytes

            f_col, t_col = self._dict_eager = self._cache.get(
                ("dict_strings",), load_strings)
            for rg in range(len(counts)):
                s = int(self._dict_rg_starts[rg])
                if s < int(self._dict_rg_starts[rg + 1]):
                    self._dict_first_keys[rg] = (str(f_col[s]), str(t_col[s]))
        # serializes the shared doc-store file handles (see fetch_docs)
        import threading

        self._docstore_lock = threading.Lock()

    @property
    def bytes_read(self) -> int:
        """Cumulative bytes this reader's loads materialized — sizes the
        search-admission permits (search/permits.py)."""
        return self._cache.bytes_read

    @property
    def retained_bytes(self) -> int:
        """Bytes this reader's cache holds — drives the byte-bound reader
        LRU (the reference's 1 GB fast-field / 500 MB footer cache
        budgets, node_config/mod.rs:261-266)."""
        return self._cache.retained_bytes

    # -- term dictionary (lazy per-row-group segments) -----------------------

    def _dict_seg(self, rg: int) -> tuple[np.ndarray, np.ndarray]:
        def load():
            s = int(self._dict_rg_starts[rg])
            e = int(self._dict_rg_starts[rg + 1])
            if self._dict_eager is not None:
                # its bytes count once, with the eager columns
                f_col, t_col = self._dict_eager
                return (np.asarray(f_col.slice(s, e - s)),
                        np.asarray(t_col.slice(s, e - s))), 0
            tbl = self._pf.read_row_group(rg, columns=["field", "term"])
            return (np.asarray(tbl["field"]),
                    np.asarray(tbl["term"])), tbl.nbytes

        return self._cache.get(("dict", rg), load)

    def _rg_of_row(self, row: int) -> int:
        return int(np.searchsorted(self._dict_rg_starts, row,
                                   side="right") - 1)

    def _dict_insertion(self, field: str, term: Optional[str],
                        side: str = "left", term_inf: int = 0) -> int:
        """Global insertion index of key (field, term) among the
        (field, term)-sorted dictionary rows — np.searchsorted semantics,
        loading only the O(log #rowgroups) probed dictionary row groups.
        ``term_inf``: -1 = before every term of the field, +1 = after."""
        nrg = len(self._dict_rg_starts) - 1
        if nrg == 0 or self._num_terms == 0:
            return 0

        def first_key_le(rg: int) -> bool:
            fk = self._dict_first_keys.get(rg)
            if fk is None:
                f, t = self._dict_seg(rg)
                fk = (str(f[0]), str(t[0]))
            fk_f, fk_t = fk
            if fk_f != field:
                return fk_f < field
            if term_inf > 0:
                return True
            if term_inf < 0:
                return False
            return fk_t < term or (fk_t == term and side == "right")

        a, b, r = 0, nrg - 1, -1
        while a <= b:
            m = (a + b) // 2
            if first_key_le(m):
                r, a = m, m + 1
            else:
                b = m - 1
        if r < 0:
            return 0
        f, t = self._dict_seg(r)
        s = int(self._dict_rg_starts[r])
        fi_lo = int(np.searchsorted(f, field, side="left"))
        fi_hi = int(np.searchsorted(f, field, side="right"))
        if term_inf > 0:
            return s + fi_hi
        if term_inf < 0:
            return s + fi_lo
        return s + fi_lo + int(np.searchsorted(t[fi_lo:fi_hi], term,
                                               side=side))

    def _field_bounds_for(self, field: str) -> tuple[int, int]:
        return self._cache.get(("bounds", field), lambda: (
            (self._dict_insertion(field, None, term_inf=-1),
             self._dict_insertion(field, None, term_inf=+1)), 0))

    def dict_terms(self, rows: np.ndarray) -> np.ndarray:
        """Term strings for the given rows (object array), loading only
        the covering dictionary row groups."""
        rows = np.asarray(rows, np.int64)
        out = np.empty(len(rows), object)
        if not len(rows):
            return out
        rgs = np.searchsorted(self._dict_rg_starts, rows, side="right") - 1
        for rg in np.unique(rgs):
            _, t = self._dict_seg(int(rg))
            sel = rgs == rg
            out[sel] = t[rows[sel] - int(self._dict_rg_starts[rg])]
        return out

    def term_rows(self, field: str, terms: Sequence[str]) -> np.ndarray:
        """Dictionary row indices for the given terms; -1 when absent."""
        lo, hi = self._field_bounds_for(field)
        out = np.full(len(terms), -1, np.int64)
        if hi == lo:
            return out
        for i, term in enumerate(terms):
            pos = self._dict_insertion(field, term, side="left")
            if lo <= pos < hi:
                rg = self._rg_of_row(pos)
                _, t = self._dict_seg(rg)
                if str(t[pos - int(self._dict_rg_starts[rg])]) == term:
                    out[i] = pos
        return out

    def term_range_rows(self, field: str, lower: Optional[str], upper: Optional[str],
                        prefix: Optional[str] = None, regex: Optional[str] = None,
                        limit: Optional[int] = None) -> np.ndarray:
        """Row indices of terms in [lower, upper) / with prefix / matching
        regex — the term-dictionary automaton scan (wildcard/regex/prefix
        queries, list_terms)."""
        lo, hi = self._field_bounds_for(field)
        if hi == lo:
            return np.empty(0, np.int64)
        if prefix is not None:
            start = self._dict_insertion(field, prefix, side="left")
            end = self._dict_insertion(field, prefix + chr(0x10FFFF),
                                       side="left")
        else:
            start = lo if lower is None else \
                self._dict_insertion(field, lower, side="left")
            end = hi if upper is None else \
                self._dict_insertion(field, upper, side="left")
        rows = np.arange(start, end, dtype=np.int64)
        if regex is not None and len(rows):
            import re as _re

            pat = _re.compile(regex)
            terms = self.dict_terms(rows)
            mask = np.fromiter((pat.fullmatch(t) is not None
                                for t in terms), bool, count=len(rows))
            rows = rows[mask]
        if limit is not None:
            rows = rows[:limit]
        return rows

    def term_at(self, row: int) -> tuple[str, str]:
        rg = self._rg_of_row(int(row))
        f, t = self._dict_seg(rg)
        i = int(row) - int(self._dict_rg_starts[rg])
        return str(f[i]), str(t[i])

    # -- postings -----------------------------------------------------------

    def read_postings(self, rows: Iterable[int], with_positions: bool = False
                      ) -> dict[int, dict]:
        """Decoded postings ``{row: {doc_ids, tfs[, positions, pos_lens]}}``
        for dictionary rows, decoded from the raw entries (row order
        keeps each posting row group read once); positions come from the
        sidecar's row groups."""
        out: dict[int, dict] = {}
        for r in sorted({int(r) for r in rows if r >= 0}):
            docs, tfs = decode_posting_blocks(self.read_postings_raw(r))
            ent = out[r] = {"doc_ids": docs, "tfs": tfs}
            if with_positions:
                ent["positions"], ent["pos_lens"] = self._positions_row(r)
        return out

    def _views(self, key: tuple, read) -> dict:
        """``_binary_views`` of a posting or positions row group, kept
        (evictable) in the reader's cache: repeated term lookups in the
        same region avoid re-reading and re-decompressing it."""
        return self._cache.get(key, lambda: _binary_views(read()), evict=True)

    def _positions_row(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(positions, pos_lens) int32 views of one dictionary row from the
        sidecar file (small row groups); empty when it has none."""
        def open_file():
            p = os.path.join(self.split_dir, POSITIONS_FILE)
            return (_open_parquet(p) if _artifact_exists(p) else None), 0

        pf = self._cache.get(("pos_file",), open_file)
        if pf is None:
            return np.empty(0, np.int32), np.empty(0, np.int32)
        prg = row // POS_TERMS_PER_ROW_GROUP
        cols = self._views(("pos", prg), lambda: pf.read_row_group(prg))
        i = row - prg * POS_TERMS_PER_ROW_GROUP
        return (_cell(cols, "positions", i, np.int32),
                _cell(cols, "pos_lens", i, np.int32))

    def read_postings_raw(self, row: int) -> dict:
        """Raw (undecoded) posting buffers for one dictionary row, the
        input of ``decode_posting_blocks``: zero-copy slices of its
        cached posting row group, so the block-max / block-skip paths
        decode only the blocks they need and copy nothing else."""
        row = int(row)
        rg = row // TERMS_PER_ROW_GROUP
        cols = self._views(("postings", rg), lambda: self._pf.read_row_group(
            rg, columns=POSTING_COLUMNS))
        return _raw_posting(cols, row - rg * TERMS_PER_ROW_GROUP)

    def postings_cached(self, row: int) -> bool:
        """Whether the row's posting row group is in the cache (the scorer
        then prefers it over the hotcache: no read either way)."""
        return self._cache.peek(
            ("postings", int(row) // TERMS_PER_ROW_GROUP)) is not None

    def hot_entry(self, row: int) -> Optional[dict]:
        """Hotcache entry for a dictionary row, or None. One tiny
        single-term row-group read per term — never touches the heavy
        posting row groups."""
        pf, index = self._cache.get(("hot_index",), self._load_hot_index)
        i = index.get(int(row))
        if i is None:
            return None
        return self._cache.get(("hot", int(row)),
                               lambda: self._load_hot_entry(pf, i))

    def _load_hot_index(self) -> tuple:
        """((hotcache ParquetFile, {row: its row group}), bytes), or
        ((None, {}), 0) for a split without a hotcache."""
        p = os.path.join(self.split_dir, HOTCACHE_FILE)
        if not _artifact_exists(p):
            return (None, {}), 0
        pf = _open_parquet(p)
        rows = pf.read(columns=["row"])  # tiny int column
        return (pf, {int(v): i for i, v
                     in enumerate(rows["row"].to_pylist())}), rows.nbytes

    @staticmethod
    def _load_hot_entry(pf: "pq.ParquetFile", i: int) -> tuple[dict, int]:
        tbl = pf.read_row_group(i)

        def buf(col, dtype):
            return np.frombuffer(tbl[col][0].as_py() or b"", dtype)

        return {"df": int(tbl["df"][0].as_py()),
                "block_last": buf("block_last", np.int32),
                "block_max_tf": buf("block_max_tf", np.int32),
                "block_lens": buf("block_lens", np.int32),
                "block_min_norm": buf("block_min_norm", np.uint8),
                "sel": buf("sel", np.int32),
                "docs": buf("docs", np.int32),
                "tfs": buf("tfs", np.uint32),
                "has_tfs": bool(tbl["has_tfs"][0].as_py())}, tbl.nbytes

    def read_postings_selected(self, row: int, cand_docs: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) of one posting list, decoding ONLY the blocks
        that can contain any of ``cand_docs`` (sorted asc) — the
        skip-list read of a DAAT-AND: a rare term intersecting a stopword
        list touches a handful of the stopword's blocks instead of
        delta-decoding millions of postings."""
        raw = self.read_postings_raw(row)
        bl = raw["block_last"]
        # candidate c lives in the first block whose last doc id >= c
        sel = np.unique(np.searchsorted(bl, np.asarray(cand_docs, np.int64),
                                        side="left"))
        return decode_posting_blocks(raw, sel[sel < len(bl)])

    # -- per-doc columns ----------------------------------------------------

    def _per_doc_table(self, name: str) -> pa.Table:
        """A per-doc parquet file of the split (fieldnorms, fast fields),
        read whole once; an empty table when the split has none."""
        def load():
            p = os.path.join(self.split_dir, name)
            return _sized(_read_parquet(p) if _artifact_exists(p)
                          else pa.table({}))

        return self._cache.get((name,), load)

    def fieldnorm_ids(self, field: str) -> np.ndarray:
        norms = self._per_doc_table(FIELDNORMS_FILE)
        col = f"norm_{field}"
        if col not in norms.column_names:
            return np.zeros(self.num_docs, np.uint8)
        return np.asarray(norms[col], np.uint8)

    def _fast_column(self, name: str) -> Optional[pa.Array]:
        """One fast field as a flat Arrow array (nulls intact), None if
        the split lacks it. Decoded once per reader: a column of several
        chunks is combined once and counted, a single chunk is the
        table's own buffers."""
        def load():
            tbl = self._per_doc_table(FASTFIELDS_FILE)
            if name not in tbl.column_names:
                return None, 0
            col = tbl[name]
            if col.num_chunks == 1:
                return col.chunk(0), 0
            return _sized(col.combine_chunks())

        return self._cache.get(("fast", name), load)

    def fast_field(self, name: str) -> np.ndarray:
        col = self._fast_column(name)
        if col is None:
            raise KeyError(f"no fast field {name!r} in split")
        if pa.types.is_timestamp(col.type):
            return col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        try:
            return col.to_numpy(zero_copy_only=True)
        except pa.ArrowInvalid:
            return col.to_numpy(zero_copy_only=False)

    def fast_field_arrow(self, name: str) -> Optional[pa.Array]:
        """Raw Arrow fast column (nulls intact) — integer-exact access for
        u64/i64 values beyond float64 precision (terms-agg keys)."""
        return self._fast_column(name)

    def fast_field_valid(self, name: str) -> Optional[np.ndarray]:
        """Validity (non-null) mask of a fast field, or None if absent."""
        col = self._fast_column(name)
        return None if col is None else np.asarray(col.is_valid())

    def docstore_units(self) -> list[dict]:
        """Ordered doc-store units, each covering a contiguous doc-id
        range: ``{parquet: path|None, num_docs, blobs: [spec]}``. Merged
        splits carry their sources' doc stores as hardlinked segment
        units (footer ``docstore_segments`` — the tantivy doc-store
        *stacking* analog: merge never decompresses stored fields);
        direct builds are one unit. Fat columns live in framed blob
        files (footer ``docstore_blobs`` / per-segment ``blobs``)."""
        return resolve_docstore_units(self.split_dir, self.footer,
                                      self.num_docs)

    def docstore_columns(self) -> list[str]:
        """Column names present in this split's doc store (mapped stored
        fields + the dynamic-mode catch-all columns + blob columns)."""
        return list(self._docstore_layout()[2])

    def read_docstore_table(self) -> pa.Table:
        """Full sequential doc-store read (delete rewrites, consolidating
        merges): parquet parts + scanned blob columns, row-aligned. A
        unit that lacks a column (the schema widened by later dynamic
        ingests) reads it as nulls."""
        parts = []
        for u in self.docstore_units():
            t = _read_parquet(u["parquet"]) if u["parquet"] else None
            for b in u["blobs"]:
                arr = BlobColumnReader(b["file"],
                                       b.get("type", "string")).scan()
                t = (pa.table({b["column"]: arr}) if t is None
                     else t.append_column(b["column"], arr))
            if t is None:
                raise ValueError("doc-store unit with no readable parts")
            parts.append(t)
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts, promote_options="default")

    def fetch_docs(self, doc_ids: np.ndarray, columns: Optional[list[str]] = None) -> pa.Table:
        """Doc-store point lookups for hit rendering (fetch_docs.rs:41-267):
        the requested ``columns`` of ``read_docstore_table().take(doc_ids)``
        (doc id == row index across the ordered segment units). Only the
        parquet row groups and blob frames holding the requested rows are
        read, and the decoded blocks stay in the reader's cache (the
        reference's doc-store block cache), so a repeated top-k decodes
        nothing. A split rebuilt in place gets a fresh reader (its stamp
        changes), never the old build's blocks."""
        ids = np.asarray(doc_ids, np.int64)
        # the grid shares ParquetFile + blob file handles; seeks and
        # reads on them are NOT thread-safe — serialize per reader
        # (concurrent requests still parallelize across splits). The
        # lock is created in __init__: lazy creation would race.
        with self._docstore_lock:
            return self._fetch_docs_locked(ids, columns)

    def _docstore_layout(self) -> tuple:
        """(unit doc offsets, per unit (ParquetFile | None, its row-group
        doc starts, {column: BlobColumnReader}), {column: type} in
        first-seen order), opened once per reader."""
        def load():
            units = self.docstore_units()
            unit_offs = np.concatenate(
                [[0], np.cumsum([u["num_docs"] for u in units])]
            ).astype(np.int64)
            parts = []
            types: dict[str, pa.DataType] = {}
            for u in units:
                pf = rg_starts = None
                if u["parquet"]:
                    pf = _open_parquet(u["parquet"])
                    md = pf.metadata
                    rg_starts = np.concatenate([[0], np.cumsum(
                        [md.row_group(i).num_rows
                         for i in range(md.num_row_groups)])]
                    ).astype(np.int64)
                    for f in pf.schema_arrow:
                        types.setdefault(f.name, f.type)
                blobs = {}
                for b in u["blobs"]:
                    vt = b.get("type", "string")
                    blobs[b["column"]] = BlobColumnReader(b["file"], vt)
                    types.setdefault(b["column"], pa.string()
                                     if vt == "string" else pa.binary())
                parts.append((pf, rg_starts, blobs))
            return (unit_offs, parts, types), 0

        return self._cache.get(("docstore",), load)

    def _fetch_docs_locked(self, ids: np.ndarray,
                           columns: Optional[list[str]]) -> pa.Table:
        unit_offs, parts, types = self._docstore_layout()
        cols = list(types) if columns is None else \
            [c for c in dict.fromkeys(columns) if c in types]
        if not cols:
            return pa.table({"_": pa.nulls(len(ids))}).drop_columns(["_"])
        unit_of = np.searchsorted(unit_offs, ids, side="right") - 1
        pieces, order = [], []
        for ui in np.unique(unit_of):
            sel = np.nonzero(unit_of == ui)[0]
            local = ids[sel] - unit_offs[ui]
            got = self._fetch_unit(int(ui), parts[int(ui)], local, cols)
            # a column this unit lacks (the schema widened by later
            # dynamic ingests) reads as nulls
            pieces.append(pa.table(
                {c: got[c] if c in got else pa.nulls(len(sel), types[c])
                 for c in cols}))
            order.append(sel)
        if not pieces:
            return pa.table({c: pa.nulls(0, types[c]) for c in cols})
        tbl = (pieces[0] if len(pieces) == 1 else
               pa.concat_tables(pieces, promote_options="permissive"))
        return _in_request_order(tbl, order)

    def _fetch_unit(self, ui: int, part: tuple, local: np.ndarray,
                    cols: list[str]) -> dict:
        """{column: array} of one unit's rows ``local`` (unit ordinals)
        for the requested columns this unit stores."""
        pf, rg_starts, blobs = part
        out = {}
        pq_cols = tuple(c for c in cols if c not in blobs and pf is not None
                        and c in pf.schema_arrow.names)
        if pq_cols:
            rg_of = np.searchsorted(rg_starts, local, side="right") - 1
            takes, order = [], []
            for rg in np.unique(rg_of):
                sel = np.nonzero(rg_of == rg)[0]
                blk = self._cache.get(
                    ("doc_rg", ui, int(rg), pq_cols),
                    lambda rg=int(rg): _sized(pf.read_row_group(
                        rg, columns=list(pq_cols))), evict=True)
                takes.append(blk.take(pa.array(local[sel] - rg_starts[rg])))
                order.append(sel)
            tbl = _in_request_order(pa.concat_tables(takes), order)
            out.update(zip(pq_cols, tbl.columns))
        for c in cols:
            rd = blobs.get(c)
            if rd is not None:
                out[c] = rd.take(local, frame=lambda fi, c=c, rd=rd:
                                 self._cache.get(
                                     ("doc_blob", ui, c, fi),
                                     lambda: _sized(rd._frame_array(fi)),
                                     evict=True))
        return out
