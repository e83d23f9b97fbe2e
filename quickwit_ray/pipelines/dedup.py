"""Deduplication pipelines over a Ray Dataset of documents.

All variants follow the partial-before-shuffle discipline:
  * exact:    vectorized content-hash per batch -> groupby(hash) -> keep
              first (min id). One shuffle, keyed on the 64-bit hash.
  * minhash:  per-batch vectorized shingle->minhash (128 perms) ->
              explode to (band, band_hash, id) rows -> groupby on the
              LSH bucket -> candidate pairs -> distributed exact-Jaccard
              verify (texts hash-joined onto the pairs) -> distributed
              connected components -> anti-join drop.
  * simhash:  64-bit simhash per batch -> band buckets -> hamming verify
              inside the bucket group.
  * ngram:    sampled-shingle candidate buckets, exact-Jaccard verify.
  * embedding: random-hyperplane LSH buckets -> within-bucket cosine.

Scale discipline (round-2 rework): NOTHING O(corpus) lives on the driver.
Candidate pairs, verification texts, component labels and the duplicate-id
set are all Ray Datasets end-to-end; connected components run as
distributed min-label propagation (components.connected_components), and
duplicates are removed with a hash anti-join that broadcasts the id set
via the object store only when provably small (components.semi_join_ids).
Every recall-affecting cap (per-bucket pair window, bucket truncation)
logs the dropped volume — no silent caps.

Returns: each near-dup pipeline returns ``(kept_ds, clusters_ds)`` where
``clusters_ds`` is a Dataset with columns (id, root) for every detected
duplicate (id != root, root = kept representative = min id of the
near-dup component).
"""

from __future__ import annotations

import logging
from functools import lru_cache
from itertools import chain

import numpy as np
import pandas as pd

from quickwit_ray.pipelines.ann import _vec_matrix
from quickwit_ray.pipelines.components import (
    connected_components,
    distinct_pairs,
    duplicate_ids,
    semi_join_ids,
)

log = logging.getLogger(__name__)

NUM_PERMS = 128
NUM_BANDS = 16  # 16 bands x 8 rows -> catches jaccard ~>0.7
ROWS_PER_BAND = NUM_PERMS // NUM_BANDS
_MERSENNE = (1 << 61) - 1
# candidate-generation caps (recall/cost trade-offs; drops are LOGGED)
PAIR_WINDOW = 16        # per-bucket pair fanout: id i pairs with the next <16
SIMHASH_BUCKET_CAP = 64
EMBED_BUCKET_CAP = 256


def _i64(u) -> np.ndarray:
    """Bit-reinterpret uint64 hash values as int64 for Arrow transport.

    Ray Data's groupby/sort materializes uint64 keys above the int64
    range as pickled-object blocks (observed live: ``OverflowError:
    Python int too large to convert to C long; falling back to serialize
    as pickled python objects``) — which inflates the banded LSH
    exchange, the widest shuffle in every near-dup pipeline, and kills
    vectorized grouping. The reinterpretation is a bijection, so bucket
    membership (and therefore every pinned keep-set) is IDENTICAL; only
    the wire dtype changes. View back with ``_u64`` where arithmetic
    needs unsigned semantics."""
    return np.ascontiguousarray(u, dtype=np.uint64).view(np.int64)


def _u64(col) -> np.ndarray:
    """Inverse of ``_i64`` for a pandas Series / Arrow column / ndarray."""
    return np.ascontiguousarray(np.asarray(col, dtype=np.int64)).view(
        np.uint64)


def _perm_params(seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.integers(1, _MERSENNE, NUM_PERMS, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, NUM_PERMS, dtype=np.int64).astype(np.uint64)
    return a, b


def content_hashes(texts) -> np.ndarray:
    """Stable 64-bit content hash per text (exact dedup key) — pinned
    vendored qhash1 (functions/stablehash.py), never pandas."""
    from quickwit_ray.functions.stablehash import hash_strings

    return hash_strings(np.asarray(texts, object))


def word_shingles(text: str, k: int = 5) -> np.ndarray:
    words = (text or "").lower().split()
    if len(words) < k:
        from quickwit_ray.functions.stablehash import hash_strings

        return hash_strings(np.asarray([" ".join(words)], object))
    sh = np.asarray([" ".join(words[i: i + k]) for i in range(len(words) - k + 1)],
                    object)
    from quickwit_ray.functions.stablehash import hash_strings

    return hash_strings(sh)


def minhash_signatures(texts, k: int = 5, seed: int = 7) -> np.ndarray:
    """(n_docs, NUM_PERMS) uint64 minhash signature matrix, vectorized via
    reduceat over the concatenated shingle-hash stream."""
    a, b = _perm_params(seed)
    hashes = []
    bounds = [0]
    for t in texts:
        h = word_shingles(t, k)
        hashes.append(h)
        bounds.append(bounds[-1] + len(h))
    if not hashes:
        return np.empty((0, NUM_PERMS), np.uint64)
    allh = np.concatenate(hashes)
    starts = np.asarray(bounds[:-1])
    sig = np.empty((len(texts), NUM_PERMS), np.uint64)
    # loop over 128 perms (vectorized over the whole token stream each time)
    for p in range(NUM_PERMS):
        t = (allh * a[p] + b[p]) % np.uint64(_MERSENNE)
        sig[:, p] = np.minimum.reduceat(t, starts)
    return sig


def band_hashes(sig: np.ndarray) -> np.ndarray:
    """(n_docs, NUM_BANDS) uint64: hash per LSH band of the signature."""
    n = sig.shape[0]
    out = np.empty((n, NUM_BANDS), np.uint64)
    for bnd in range(NUM_BANDS):
        seg = sig[:, bnd * ROWS_PER_BAND: (bnd + 1) * ROWS_PER_BAND]
        acc = np.zeros(n, np.uint64)
        for c in range(ROWS_PER_BAND):
            acc = acc * np.uint64(1_000_003) + seg[:, c]
        out[:, bnd] = acc
    return out


def jaccard(a: str, b: str, k: int = 5) -> float:
    sa, sb = set(word_shingles(a, k).tolist()), set(word_shingles(b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(len(sa | sb), 1)


def simhash64(texts) -> np.ndarray:
    """64-bit SimHash over word hashes (unweighted). Vectorized over the
    whole batch: one hash pass over the concatenated word stream, one
    segmented reduceat per batch (round-1 version looped per row)."""
    n = len(texts)
    out = np.zeros(n, np.uint64)
    if n == 0:
        return out
    words_per = [(t or "").lower().split() for t in texts]
    counts = np.fromiter(map(len, words_per), np.int64, count=n)
    total = int(counts.sum())
    if total == 0:
        return out
    allw = np.fromiter(chain.from_iterable(words_per), object, count=total)
    from quickwit_ray.functions.stablehash import hash_word_stream

    h = hash_word_stream(allw)
    bit_cols = np.arange(64, dtype=np.uint64)
    bits = ((h[:, None] >> bit_cols) & np.uint64(1)).astype(np.int64)
    nz = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nz]
    sums = np.add.reduceat(bits, starts, axis=0)  # (n_nonzero, 64)
    v = sums * 2 - counts[nz, None]
    out[nz] = ((v > 0).astype(np.uint64) << bit_cols).sum(axis=1)
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = np.bitwise_xor(a, b)
    cnt = np.zeros(x.shape, np.int64)
    while np.any(x):
        cnt += (x & np.uint64(1)).astype(np.int64)
        x = x >> np.uint64(1)
    return cnt


class UnionFind:
    """Small in-process union-find (kept for local/bounded uses and tests;
    the Dataset pipelines use components.connected_components instead)."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent.get(p, p):
            self.parent[p] = self.parent.get(self.parent[p], self.parent[p])
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:  # keep the smallest id as the root (keep-first)
                ra, rb = rb, ra
            self.parent[rb] = ra


def _empty_pairs(dtype) -> pd.DataFrame:
    return pd.DataFrame({"a": pd.Series([], dtype=dtype),
                         "b": pd.Series([], dtype=dtype)})


def _hot_bucket_keys(ds, key_cols: list[str], key_encoder):
    """Dataset of (encoded) bucket keys with >= 2 members.

    Arrow-native end-to-end: hash key columns travel as int64
    bit-reinterpretations (see ``_i64``), so the groupby exchange ships
    native fixed-width blocks, never pickled Python ints."""
    import pyarrow as pa
    import pyarrow.compute as pc

    counts = ds.groupby(key_cols).count()

    def hot_keys(t: pa.Table) -> pa.Table:
        sub = t.filter(pc.greater_equal(t["count()"], 2))
        return pa.table({"id": pa.array(
            np.asarray(key_encoder(sub), np.int64), pa.int64())})

    return counts.map_batches(hot_keys, batch_format="pyarrow").materialize()


def _filter_multi_member_buckets(ds, key_cols: list[str], key_encoder):
    """Drop rows whose bucket has a single member BEFORE the expensive
    map_groups: with good hash keys the vast majority of LSH buckets are
    singletons that can never produce a pair, and per-group Python-call
    overhead dominates the pipeline (measured 800k buckets -> ~2k useful
    at 50k docs). ``key_encoder(table) -> int64 array`` folds the bucket
    key into one value; encoding collisions only ADD rows (the real pair
    grouping still uses the exact key columns), so results are identical.
    """
    import pyarrow as pa

    from quickwit_ray.pipelines.components import semi_join_ids

    hot = _hot_bucket_keys(ds, key_cols, key_encoder)

    def add_enc(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "_bk", pa.array(np.asarray(key_encoder(batch), np.int64),
                            pa.int64()))

    enc_ds = ds.map_batches(add_enc, batch_format="pyarrow")
    kept = semi_join_ids(enc_ds, hot, "_bk", keep=True,
                         n_ids=hot.count())
    return kept.drop_columns(["_bk"])


def _id_dtype(ds, id_col: str):
    import pyarrow as pa

    sch = ds.schema()
    try:
        return dict(zip(sch.names, sch.types))[id_col]
    except Exception:  # noqa: BLE001
        return pa.int64()


def _pairs_schema_ok(pairs_ds) -> bool:
    try:
        names = pairs_ds.schema().names
    except Exception:  # noqa: BLE001
        return False
    return names is not None and "a" in names and "b" in names


def _resolve_dups(ds, pairs_ds, id_col: str):
    """Shared tail of every near-dup pipeline: distinct pairs ->
    distributed connected components -> (kept_ds, clusters_ds)."""
    import ray

    id_dtype = _id_dtype(ds, id_col)
    import pyarrow as pa

    empty = ray.data.from_arrow(pa.table({"id": pa.array([], id_dtype),
                                          "root": pa.array([], id_dtype)}))
    if not _pairs_schema_ok(pairs_ds):
        return ds, empty
    pairs_ds = pairs_ds.materialize()  # consumed by count + components
    if pairs_ds.count() == 0:
        return ds, empty
    comps = connected_components(distinct_pairs(pairs_ds), id_dtype=id_dtype)
    clusters = duplicate_ids(comps).materialize()
    n_dups = clusters.count()
    if n_dups == 0:
        return ds, empty
    kept = semi_join_ids(ds, clusters.select_columns(["id"]), id_col,
                         keep=False, n_ids=n_dups)
    return kept, clusters


# ---------------------------------------------------------------------------
# Ray Dataset pipelines
# ---------------------------------------------------------------------------

def exact_dedup(ds, text_col: str, id_col: str):
    """Keep the min-id row per exact text value.

    Only rows whose content hash occurs more than once are shuffled into
    the keep-first groupby; unique-hash rows (the vast majority of a real
    corpus) pass through map-side with no exchange. Result is identical to
    the full groupby — a singleton group keeps its only row."""
    import pyarrow as pa

    def add_hash(batch: pa.Table) -> pa.Table:
        h = content_hashes(batch[text_col].to_pylist())
        # int64 bit-view: native groupby keys, identical buckets (_i64)
        return batch.append_column("_h", pa.array(_i64(h), pa.int64()))

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.loc[[g[id_col].idxmin()]]

    from quickwit_ray.pipelines.components import semi_join_ids

    hashed = ds.map_batches(add_hash, batch_format="pyarrow").materialize()
    hot = _hot_bucket_keys(hashed, ["_h"],
                           lambda t: np.asarray(t["_h"], np.int64))
    n_hot = hot.count()
    if n_hot == 0:
        return hashed.drop_columns(["_h"])
    dup_rows = semi_join_ids(hashed, hot, "_h", keep=True, n_ids=n_hot)
    kept_dups = (dup_rows.groupby("_h")
                 .map_groups(keep_first, batch_format="pandas"))
    singles = semi_join_ids(hashed, hot, "_h", keep=False, n_ids=n_hot)
    return singles.union(kept_dups).drop_columns(["_h"])


def _candidate_pairs_from_buckets(bucket_rows: pd.DataFrame, id_col: str
                                  ) -> set[tuple]:
    pairs: set[tuple] = set()
    ids = sorted(bucket_rows[id_col].tolist())
    n = len(ids)
    for i in range(n):
        for j in range(i + 1, min(i + PAIR_WINDOW, n)):
            pairs.add((ids[i], ids[j]))
    if n > PAIR_WINDOW:
        # the window cap skips (n choose 2) - emitted pairs: surface it
        log.info("dedup bucket of %d ids capped at window %d (%d pairs "
                 "not emitted)", n, PAIR_WINDOW,
                 n * (n - 1) // 2 - len(pairs))
    return pairs


def _bucket_pairs_fn(id_col: str):
    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _empty_pairs(g[id_col].dtype)
        pairs = _candidate_pairs_from_buckets(g, id_col)
        if not pairs:
            return _empty_pairs(g[id_col].dtype)
        a, b = zip(*sorted(pairs))
        return pd.DataFrame({"a": pd.Series(a, dtype=g[id_col].dtype),
                             "b": pd.Series(b, dtype=g[id_col].dtype)})
    return bucket_pairs


def _verify_jaccard_fn(text_col: str, threshold: float, k: int):
    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        keep = [jaccard(ta, tb, k) >= threshold
                for ta, tb in zip(batch[text_col], batch[f"{text_col}_rb"])]
        out = batch.loc[keep, ["a", "b"]]
        return out if len(out) else _empty_pairs(batch["a"].dtype)
    return verify


# candidate sets below BOTH bounds broadcast their texts through the
# object store for map-side verification (one ray.put; tasks read the
# table zero-copy and cache the lookup dict per process); larger sets
# verify via the shuffle hash joins. The byte bound matters: the payload
# is document TEXTS, not fixed-width ids.
BROADCAST_VERIFY_IDS = 200_000
BROADCAST_VERIFY_BYTES = 256 << 20


@lru_cache(maxsize=4)
def _text_lut(ref, id_col: str, text_col: str) -> dict:
    """Per-process cache of the broadcast (id -> text) lookup — built once
    per worker, not once per batch."""
    import ray

    t = ray.get(ref)
    return dict(zip(t[id_col].to_pylist(), t[text_col].to_pylist()))


def _verified_pairs(cand_pairs, ds, id_col: str, text_col: str,
                    threshold: float, k: int):
    """Exact-Jaccard verification of candidate pairs, distributed.

    Small candidate sets (counted AND byte-bounded) broadcast an
    (id -> text) Arrow table once and verify inside one map_batches over
    the pairs — no joins; large sets attach texts with the shuffle hash
    joins (reusing the SAME materialized candidate-text dataset)."""
    import pyarrow as pa
    import ray

    from quickwit_ray.pipelines.components import (collect_arrow_blocks,
                                                   default_num_partitions,
                                                   pair_nodes, semi_join_ids)

    cands = pair_nodes(cand_pairs).materialize()
    n = cands.count()
    texts = semi_join_ids(ds.select_columns([id_col, text_col]), cands,
                          id_col, keep=True, n_ids=n).materialize()
    if n <= BROADCAST_VERIFY_IDS and texts.size_bytes() <= BROADCAST_VERIFY_BYTES:
        all_tbls = collect_arrow_blocks(texts, cols=[id_col, text_col])
        if not all_tbls:
            return cand_pairs.limit(0)
        ref = ray.put(pa.concat_tables(all_tbls, promote_options="default"))

        def verify(batch: pd.DataFrame) -> pd.DataFrame:
            lut = _text_lut(ref, id_col, text_col)
            keep = []
            for a_v, b_v in zip(batch["a"], batch["b"]):
                # membership, not None-ness: a null text is a legal value
                # and must verify exactly like the join path (jaccard of
                # two empty shingle sets is 1.0)
                if a_v in lut and b_v in lut:
                    keep.append(jaccard(lut[a_v], lut[b_v], k) >= threshold)
                else:
                    keep.append(False)
            out = batch.loc[keep, ["a", "b"]]
            return out if len(out) else _empty_pairs(batch["a"].dtype)

        return cand_pairs.map_batches(verify, batch_format="pandas")
    # join path, reusing the already-materialized candidate texts
    np_ = default_num_partitions()
    j = cand_pairs.join(texts, "inner", np_, on=("a",),
                        right_on=(id_col,), right_suffix="_ra")
    with_texts = j.join(texts, "inner", np_, on=("b",),
                        right_on=(id_col,), right_suffix="_rb")
    return with_texts.map_batches(
        _verify_jaccard_fn(text_col, threshold, k), batch_format="pandas")


def minhash_dedup(ds, text_col: str, id_col: str, threshold: float = 0.7,
                  k: int = 5):
    """MinHash+LSH near-dup detection. Returns (kept_ds, clusters_ds);
    clusters_ds columns (id, root) list each dropped duplicate and its
    kept representative."""
    import pyarrow as pa

    def sig_bands(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_pylist()
        sig = minhash_signatures(texts, k)
        bh = band_hashes(sig)
        n = len(texts)
        return pa.table({
            id_col: pa.array(np.repeat(ids, NUM_BANDS)),
            "band": pa.array(np.tile(np.arange(NUM_BANDS), n), pa.int32()),
            "bh": pa.array(_i64(bh.reshape(-1)), pa.int64()),
        })

    banded = ds.map_batches(sig_bands, batch_format="pyarrow")

    def _enc_minhash(t):
        bh = _u64(t["bh"])
        band = np.asarray(t["band"], np.int64).astype(np.uint64)
        return _i64(bh * np.uint64(NUM_BANDS) + band)  # wrapping fold is fine

    banded = _filter_multi_member_buckets(banded, ["band", "bh"], _enc_minhash)
    pairs = (banded.groupby(["band", "bh"])
             .map_groups(_bucket_pairs_fn(id_col), batch_format="pandas"))
    if _pairs_schema_ok(pairs):
        pairs = pairs.materialize()
    if _pairs_schema_ok(pairs) and pairs.count() > 0:
        cand = distinct_pairs(pairs).materialize()
        verified = _verified_pairs(cand, ds, id_col, text_col, threshold, k)
        return _resolve_dups(ds, verified, id_col)
    return _resolve_dups(ds, pairs, id_col)


def simhash_dedup(ds, text_col: str, id_col: str, max_hamming: int = 3):
    """SimHash near-dup: 4x16-bit band buckets, hamming-verify in bucket."""
    import pyarrow as pa

    def sim_bands(batch: pa.Table) -> pa.Table:
        texts = batch[text_col].to_pylist()
        ids = batch[id_col].to_pylist()
        sh = simhash64(texts)
        rows_id, rows_band, rows_key, rows_sim = [], [], [], []
        for bnd in range(4):
            key = (sh >> np.uint64(16 * bnd)) & np.uint64(0xFFFF)
            rows_id.extend(ids)
            rows_band.extend([bnd] * len(ids))
            rows_key.extend(key.astype(np.int64).tolist())
            rows_sim.extend(_i64(sh).tolist())
        return pa.table({
            id_col: pa.array(rows_id),
            "band": pa.array(rows_band, pa.int32()),
            "key": pa.array(rows_key, pa.int64()),
            "sim": pa.array(rows_sim, pa.int64()),
        })

    banded = ds.map_batches(sim_bands, batch_format="pyarrow")

    def _enc_simhash(t):
        key = np.asarray(t["key"], np.int64).astype(np.uint64)
        band = np.asarray(t["band"], np.int64).astype(np.uint64)
        return _i64((key << np.uint64(2)) | band)

    banded = _filter_multi_member_buckets(banded, ["band", "key"], _enc_simhash)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _empty_pairs(g[id_col].dtype)
        if len(g) > SIMHASH_BUCKET_CAP:
            log.info("simhash bucket of %d ids truncated to %d",
                     len(g), SIMHASH_BUCKET_CAP)
        g = g.sort_values(id_col).head(SIMHASH_BUCKET_CAP)
        ids = g[id_col].to_numpy()
        sims = _u64(g["sim"].to_numpy(dtype=np.int64))
        out_a, out_b = [], []
        for i in range(len(ids)):
            d = hamming64(sims[i], sims[i + 1:])
            for j in np.nonzero(d <= max_hamming)[0]:
                out_a.append(ids[i])
                out_b.append(ids[i + 1 + j])
        if not out_a:
            return _empty_pairs(g[id_col].dtype)
        return pd.DataFrame({"a": pd.Series(out_a, dtype=g[id_col].dtype),
                             "b": pd.Series(out_b, dtype=g[id_col].dtype)})

    pairs = (banded.groupby(["band", "key"])
             .map_groups(bucket_pairs, batch_format="pandas"))
    return _resolve_dups(ds, pairs, id_col)


def ngram_jaccard_dedup(ds, text_col: str, id_col: str, threshold: float = 0.8,
                        k: int = 5, sample_mod: int = 8):
    """Exact n-gram-Jaccard near-dup detection WITHOUT minhash: candidate
    pairs come from sharing any SAMPLED shingle (hash % sample_mod == 0 —
    a 1/sample_mod document-independent shingle sample, so near-dups share
    many sampled shingles with high probability), then pairs verify with
    the exact Jaccard over full shingle sets. Returns (kept_ds, clusters_ds)."""
    import pyarrow as pa

    def sampled_shingles(batch: pa.Table) -> pa.Table:
        ids_out, sh_out = [], []
        for rid, text in zip(batch[id_col].to_pylist(),
                             batch[text_col].to_pylist()):
            h = word_shingles(text, k)
            sel = h[h % np.uint64(sample_mod) == 0]
            ids_out.extend([rid] * len(sel))
            sh_out.extend(_i64(sel).tolist())
        return pa.table({id_col: pa.array(ids_out),
                         "sh": pa.array(sh_out, pa.int64())})

    exploded = ds.map_batches(sampled_shingles, batch_format="pyarrow")
    exploded = _filter_multi_member_buckets(
        exploded, ["sh"], lambda t: np.asarray(t["sh"], np.int64))
    pairs = (exploded.groupby("sh")
             .map_groups(_bucket_pairs_fn(id_col), batch_format="pandas"))
    if _pairs_schema_ok(pairs):
        pairs = pairs.materialize()
    if _pairs_schema_ok(pairs) and pairs.count() > 0:
        cand = distinct_pairs(pairs).materialize()
        verified = _verified_pairs(cand, ds, id_col, text_col, threshold, k)
        return _resolve_dups(ds, verified, id_col)
    return _resolve_dups(ds, pairs, id_col)


@lru_cache(maxsize=8)
def _hyperplanes(dim: int, num_planes: int, seed: int) -> np.ndarray:
    """Cached per worker process — generated once, reused across batches."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal((dim, num_planes)).astype(np.float32)


def embedding_dedup(ds, vec_col: str, id_col: str, threshold: float = 0.95,
                    num_planes: int = 16, seed: int = 11):
    """Embedding near-dup: random-hyperplane LSH bucket -> within-bucket
    cosine >= threshold -> distributed components, keep-first."""
    import pyarrow as pa

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = _vec_matrix(batch[vec_col], np.float32)
        ids = batch[id_col].to_pylist()
        planes = _hyperplanes(vecs.shape[1], num_planes, seed)
        bits = (vecs @ planes) > 0
        key = np.zeros(len(ids), np.uint64)
        for c in range(num_planes):
            key = (key << np.uint64(1)) | bits[:, c].astype(np.uint64)
        return pa.table({
            id_col: pa.array(ids),
            "key": pa.array(key.astype(np.int64), pa.int64()),
            "vec": batch[vec_col],
        })

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow")
    bucketed = _filter_multi_member_buckets(
        bucketed, ["key"], lambda t: np.asarray(t["key"], np.int64))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _empty_pairs(g[id_col].dtype)
        if len(g) > EMBED_BUCKET_CAP:
            log.info("embedding bucket of %d ids truncated to %d",
                     len(g), EMBED_BUCKET_CAP)
        g = g.sort_values(id_col).head(EMBED_BUCKET_CAP)
        v = np.asarray(g["vec"].tolist(), np.float32)
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-9)
        sims = v @ v.T
        ids = g[id_col].to_numpy()
        iu = np.triu_indices(len(ids), 1)
        hit = sims[iu] >= threshold
        if not hit.any():
            return _empty_pairs(g[id_col].dtype)
        return pd.DataFrame({"a": pd.Series(ids[iu[0][hit]], dtype=g[id_col].dtype),
                             "b": pd.Series(ids[iu[1][hit]], dtype=g[id_col].dtype)})

    pairs = (bucketed.groupby("key")
             .map_groups(bucket_pairs, batch_format="pandas"))
    return _resolve_dups(ds, pairs, id_col)
