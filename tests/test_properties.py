"""Hypothesis property tests for the codec + tokenizer invariants."""

import os
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickwit_ray.config import DocMapping, FieldMapping, IndexConfig
from quickwit_ray.functions.bm25 import fieldnorm_to_id, id_to_fieldnorm
from quickwit_ray.functions.tokenizers import tokenize, tokenize_batch
from quickwit_ray.index.format import (
    BLOCK_SIZE,
    FIELDNORMS_FILE,
    POSTINGS_FILE,
    delta_decode,
    delta_encode,
)
from quickwit_ray.index.writer import SplitBuilder


@given(st.lists(st.integers(min_value=0, max_value=2**28), min_size=1,
                max_size=500, unique=True))
@settings(max_examples=100, deadline=None)
def test_delta_roundtrip(doc_ids):
    docs = np.asarray(sorted(doc_ids), np.int32)
    assert (delta_decode(delta_encode(docs)) == docs).all()


@given(st.lists(st.integers(min_value=0, max_value=1500), min_size=1,
                max_size=600, unique=True),
       st.lists(st.integers(min_value=1, max_value=20), min_size=1,
                max_size=600))
@settings(max_examples=60, deadline=None)
def test_block_meta_invariants(doc_ids, tfs):
    """Block columns `SplitBuilder.flush` writes for one term's postings:
    per-block lens, last doc, max tf and min fieldnorm id."""
    docs = np.asarray(sorted(doc_ids), np.int32)
    t = np.asarray((tfs * ((len(docs) // len(tfs)) + 1))[: len(docs)], np.int64)
    tf_of = np.zeros(int(docs[-1]) + 1, np.int64)
    tf_of[docs] = t
    # filler tokens vary doc lengths, so block min norms vary too
    texts = [" ".join(["hit"] * int(k) + ["pad"] * (i * 37 % 61))
             for i, k in enumerate(tf_of)]
    mapping = DocMapping(field_mappings=(
        FieldMapping(name="normed", record="freq", fieldnorms=True),
        FieldMapping(name="plain", record="freq")), doc_id_field="normed")
    with tempfile.TemporaryDirectory() as d:
        b = SplitBuilder(IndexConfig("blocks", mapping), d, "src", 0)
        b.add_batch(pa.table({"normed": texts, "plain": texts}))
        b.flush()
        split = os.path.join(d, "splits", b.split_id)
        rows = {r["field"]: r for r in
                pq.read_table(os.path.join(split, POSTINGS_FILE)).to_pylist()
                if r["term"] == "hit"}
        norms = pq.read_table(os.path.join(split, FIELDNORMS_FILE))[
            "norm_normed"].to_numpy()[docs]
    row = rows["normed"]
    assert (delta_decode(row["doc_ids"]) == docs).all()
    bl_a = np.frombuffer(row["block_last"], np.int32)
    bm_a = np.frombuffer(row["block_max_tf"], np.int32)
    ln_a = np.frombuffer(row["block_lens"], np.int32)
    mn_a = np.frombuffer(row["block_min_norm"], np.uint8)
    assert ln_a.sum() == len(docs)
    assert (ln_a <= BLOCK_SIZE).all() and (ln_a > 0).all()
    assert bl_a[-1] == docs[-1]
    assert len(mn_a) == len(ln_a)
    # per-block invariants: last doc / max tf / min norm match a direct
    # computation
    starts = np.concatenate([[0], np.cumsum(ln_a)[:-1]])
    for i, (s, ln) in enumerate(zip(starts, ln_a)):
        assert bl_a[i] == docs[s + ln - 1]
        assert bm_a[i] == t[s: s + ln].max()
        assert mn_a[i] == norms[s: s + ln].min()
    # a field without fieldnorms -> empty min-norm bytes, same blocks
    assert rows["plain"]["block_min_norm"] == b""
    assert rows["plain"]["block_lens"] == row["block_lens"]


@given(st.integers(min_value=0, max_value=2**30))
@settings(max_examples=200, deadline=None)
def test_fieldnorm_quantization_floor(length):
    nid = fieldnorm_to_id(np.asarray([length]))[0]
    dec = int(id_to_fieldnorm(np.asarray([nid]))[0])
    assert dec <= length
    # next id (if any) decodes strictly above length
    if nid < 255:
        assert int(id_to_fieldnorm(np.asarray([nid + 1]))[0]) > length


TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=400)


@given(st.lists(TEXT, min_size=0, max_size=20),
       st.sampled_from(["default", "whitespace", "raw", "en_stem"]))
@settings(max_examples=80, deadline=None)
def test_tokenize_batch_matches_exact_random_unicode(texts, tok):
    doc_idx, tokens, positions = tokenize_batch(texts, tok)
    per_row = [[] for _ in texts]
    for i, t in zip(doc_idx, tokens):
        per_row[i].append(t)
    expected = [tokenize(t, tok) for t in texts]
    assert per_row == expected
    # positions keep their PRE-filter ordinals (tantivy RemoveLongFilter
    # leaves gaps where >=255-byte tokens were dropped)
    from quickwit_ray.functions.tokenizers import (
        _SIMPLE_RE, _WHITESPACE_RE, MAX_TOKEN_BYTES)

    pat = {"default": _SIMPLE_RE, "en_stem": _SIMPLE_RE,
           "whitespace": _WHITESPACE_RE}.get(tok)
    for i in np.unique(doc_idx) if len(doc_idx) else []:
        got = positions[doc_idx == i]
        if pat is None:  # raw: single token at position 0
            assert list(got) == [0]
            continue
        exp_pos = [j for j, t in enumerate(pat.findall(texts[int(i)]))
                   if len(t.encode("utf-8", "ignore")) < MAX_TOKEN_BYTES]
        assert list(got) == exp_pos


# ---------------------------------------------------------------------------
# whole-engine property: boolean/term/phrase search equals a brute-force
# reference evaluation for arbitrary tiny corpora
# ---------------------------------------------------------------------------

_VOCAB = ["alpha", "beta", "gamma", "delta"]
_doc_strategy = st.lists(st.sampled_from(_VOCAB), min_size=0, max_size=8)


@given(st.lists(_doc_strategy, min_size=1, max_size=25),
       st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_search_matches_bruteforce(tmp_path_factory, docs, ti, tj):
    from quickwit_ray.api import Index
    from quickwit_ray.config import documents_doc_mapping

    a, b = _VOCAB[ti], _VOCAB[tj]
    idx = Index.create(str(tmp_path_factory.mktemp("prop")), "p",
                       documents_doc_mapping())
    idx.ingest_docs([{"doc_id": i, "text": " ".join(toks), "lang": "en",
                      "source": "t", "n_chars": len(" ".join(toks))}
                     for i, toks in enumerate(docs)], commit_id="c")

    def brute(pred):
        return sorted(i for i, toks in enumerate(docs) if pred(toks))

    def got(q):
        r = idx.search(q, max_hits=100, fetch_fields=["doc_id"])
        return sorted(r.hits["doc_id"]) if len(r.hits) else []

    assert got(f"text:{a}") == brute(lambda t: a in t)
    assert got(f"text:{a} AND text:{b}") == brute(lambda t: a in t and b in t)
    assert got(f"text:{a} OR text:{b}") == brute(lambda t: a in t or b in t)
    assert got(f"text:{a} AND NOT text:{b}") == \
        brute(lambda t: a in t and b not in t)
    assert got(f'text:"{a} {b}"') == brute(
        lambda t: any(x == a and y == b for x, y in zip(t, t[1:])))
    assert idx.search("*", max_hits=0).num_hits == len(docs)


@given(st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                          st.integers(-50, 50)),
                min_size=1, max_size=40),
       st.integers(1, 20))
@settings(max_examples=20, deadline=None)
def test_aggs_match_pandas(tmp_path_factory, rows, interval):
    """Whole-engine property: terms (+avg sub-agg), stats and histogram
    aggregations equal a pandas reference for arbitrary tiny corpora."""
    import pandas as pd

    from quickwit_ray.api import Index
    from quickwit_ray.config import DocMapping, FieldMapping

    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="genre", type="text", tokenizer="raw",
                         fast=True),
            FieldMapping(name="v", type="i64", fast=True),
            FieldMapping(name="doc_id", type="i64", fast=True),
        ), mode="lenient", doc_id_field="doc_id")
    idx = Index.create(str(tmp_path_factory.mktemp("aggprop")), "a", mapping)
    idx.ingest_docs([{"doc_id": i, "genre": g, "v": v}
                     for i, (g, v) in enumerate(rows)], commit_id="c")
    df = pd.DataFrame(rows, columns=["genre", "v"])
    r = idx.search("*", max_hits=0, aggs={
        "g": {"terms": {"field": "genre", "size": 10},
              "aggs": {"m": {"avg": {"field": "v"}}}},
        "s": {"stats": {"field": "v"}},
        "h": {"histogram": {"field": "v", "interval": float(interval)}},
    })
    got_terms = {b["key"]: (b["doc_count"], b["m"]["value"])
                 for b in r.aggs["g"]["buckets"]}
    want_terms = {g: (int(len(sub)), float(sub["v"].mean()))
                  for g, sub in df.groupby("genre")}
    assert got_terms.keys() == want_terms.keys()
    for g in want_terms:
        assert got_terms[g][0] == want_terms[g][0]
        assert got_terms[g][1] == pytest.approx(want_terms[g][1])
    s = r.aggs["s"]
    assert s["count"] == len(df)
    assert s["min"] == df["v"].min() and s["max"] == df["v"].max()
    assert s["sum"] == pytest.approx(float(df["v"].sum()))
    got_hist = {b["key"]: b["doc_count"] for b in r.aggs["h"]["buckets"]
                if b["doc_count"]}
    keys = (df["v"] // interval * interval).astype(float)
    want_hist = keys.value_counts().to_dict()
    assert got_hist == {float(k): int(v) for k, v in want_hist.items()}
