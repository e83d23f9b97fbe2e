"""Impact-ordered hot-term cache (reference hotcache analog,
quickwit-directories/src/hot_directory.rs): cold top-k of a heavy term
answers from one tiny sidecar read; fallbacks stay exact."""

import glob
import os

import numpy as np
import pytest

from quickwit_ray.api import Index
from quickwit_ray.config import DocMapping, FieldMapping, IndexSettings
from quickwit_ray.index.format import (
    HOT_EMBED_BLOCKS,
    HOTCACHE_FILE,
    SplitReader,
)
from quickwit_ray.search import engine
from quickwit_ray.search.engine import IndexSearcher
from tests.reference_eval import reference_search


@pytest.fixture(scope="module")
def hot_idx(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hot")
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="freq",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", fast=True, stored=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    idx = Index.create(str(tmp / "i"), "hot", mapping,
                       settings=IndexSettings(split_num_docs_target=100_000))
    rng = np.random.RandomState(7)
    docs = []
    for i in range(20000):
        # every doc contains the hot term; impact is SKEWED — the last
        # ~1700 docs carry high tf in short docs (high block bounds), the
        # rest tf=1 in long docs — so the top-impact blocks provably
        # dominate the top-k (real hot terms behave this way; a uniform
        # corpus has no prunable structure and would fall back)
        if i >= 20000 - 1700:
            reps, lo, hi = 6, 2, 5
        else:
            reps, lo, hi = 1, 25, 40
        fill = " ".join(f"w{rng.randint(0, 2000)}"
                        for _ in range(int(rng.randint(lo, hi))))
        docs.append({"body": ("common " * reps) + fill, "doc_id": i})
    idx.ingest_docs(docs, commit_id="a")
    return idx


def _split_dir(idx):
    from quickwit_ray.state.manifest import Manifest

    sid = Manifest(idx.index_dir).published_splits()[0].split_id
    return os.path.join(idx.index_dir, "splits", sid)


def test_hotcache_written_and_indexed(hot_idx):
    d = _split_dir(hot_idx)
    assert os.path.exists(os.path.join(d, HOTCACHE_FILE))
    r = SplitReader(d)
    row = int(r.term_rows("body", ["common"])[0])
    ent = r.hot_entry(row)
    assert ent is not None and ent["df"] == 20000
    assert len(ent["sel"]) == HOT_EMBED_BLOCKS
    assert len(ent["docs"]) == int(ent["block_lens"][ent["sel"]].sum())
    # non-hot terms are absent
    row2 = int(r.term_rows("body", ["w3"])[0])
    assert r.hot_entry(row2) is None


def test_hot_term_topk_exact_and_cheap(hot_idx):
    d = _split_dir(hot_idx)
    # ground truth: the full evaluator on a fresh reader (no Block-Max,
    # no hotcache)
    truth = reference_search(IndexSearcher(hot_idx.index_dir),
                             "body:common", max_hits=10)
    # cold reader: the hot path must answer without decompressing the
    # posting row group
    engine._GLOBAL_LEAF_CACHE.clear()
    engine._GLOBAL_READER_CACHE._cache.clear()
    s2 = IndexSearcher(hot_idx.index_dir)
    got = s2.search("body:common", max_hits=10, sort_by="_score",
                    fetch_fields=["doc_id"])
    assert got.num_hits == truth.num_hits == 20000
    assert list(got.hits["_doc_id"]) == list(truth.hits["_doc_id"])
    assert np.allclose(np.asarray(got.hits["sort_key0"], np.float64),
                       np.asarray(truth.hits["sort_key0"], np.float64))
    reader = engine._GLOBAL_READER_CACHE.get(d)
    # the heavy posting row group was never decompressed: the reader's
    # cache holds no ("postings", rg) entry (its resident entries —
    # dictionary, norms, hotcache — do not count)
    row = int(reader.term_rows("body", ["common"])[0])
    assert not reader.postings_cached(row)
    assert not any(k[0] == "postings" for k, _, _ in reader._cache.entries())


def test_hot_fallback_large_k_exact(hot_idx):
    """k large enough that the embedded blocks cannot prove completeness:
    the full path runs, seeded, and stays exact."""
    truth = reference_search(IndexSearcher(hot_idx.index_dir),
                             "body:common", max_hits=500)
    engine._GLOBAL_LEAF_CACHE.clear()
    engine._GLOBAL_READER_CACHE._cache.clear()
    s2 = IndexSearcher(hot_idx.index_dir)
    got = s2.search("body:common", max_hits=500, sort_by="_score",
                    fetch_fields=["doc_id"])
    assert list(got.hits["_doc_id"]) == list(truth.hits["_doc_id"])


def test_small_splits_have_no_hotcache(tmp_path):
    mapping = DocMapping(
        field_mappings=(FieldMapping(name="body", type="text"),
                        FieldMapping(name="doc_id", type="i64")),
        doc_id_field="doc_id", default_search_fields=("body",))
    idx = Index.create(str(tmp_path / "s"), "s", mapping)
    idx.ingest_docs([{"body": "tiny corpus doc", "doc_id": i}
                     for i in range(50)], commit_id="a")
    assert glob.glob(os.path.join(idx.index_dir, "splits", "*",
                                  HOTCACHE_FILE)) == []
    assert idx.search("body:tiny", max_hits=5).num_hits == 50
