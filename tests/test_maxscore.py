"""MaxScore-pruned disjunctive top-k == naive full scoring, on a Zipf
corpus with hot terms (the pruning actually fires there). The naive side
is the full evaluator run on every split (tests/reference_eval.py)."""

import numpy as np
import pytest

from quickwit_ray.config import IndexConfig, IndexSettings, pages_doc_mapping
from quickwit_ray.index.build import build_index
from quickwit_ray.search.ast import FullTextQuery
from quickwit_ray.search.engine import IndexSearcher
from quickwit_ray.sources.fixtures import ensure_pages
from tests.reference_eval import reference_search


@pytest.fixture(scope="module")
def zipf_index(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("msidx")
    paths = ensure_pages(str(tmp / "pages"), 4000, 4, filler_bytes=256)
    d = str(tmp / "idx")
    cfg = IndexConfig("pages", pages_doc_mapping(),
                      IndexSettings(split_num_docs_target=100_000,
                                    store_binary_columns=False))
    build_index(paths, d, cfg, execution="local")
    return d


QUERIES = [
    "aaterm0 baterm1 caterm2",                  # three hot terms
    "aaterm0 rareterm10",                       # hot + rare
    "aaterm0 baterm1 caterm2 daterm3 eaterm4 faterm5 gaterm6 haterm7",
    "rareterm10 rareterm20 rareterm30",
    "aaterm0 zzznotaterm",
]


@pytest.mark.parametrize("qtext", QUERIES)
def test_pruned_equals_naive(zipf_index, qtext):
    q = FullTextQuery("text", qtext, mode="or")
    s = IndexSearcher(zipf_index)
    fast = s.search(q, max_hits=10, sort_by="_score", fetch_fields=[])
    slow = reference_search(s, q, max_hits=10)
    assert fast.num_hits == slow.num_hits, qtext
    assert list(fast.hits["_split_id"]) == list(slow.hits["_split_id"])
    assert list(fast.hits["_doc_id"]) == list(slow.hits["_doc_id"])
    # f32 accumulation order differs (UB-sorted vs query order) -> last-ulp
    # wiggle; ranks must still be identical
    assert np.allclose(fast.hits["sort_key0"], slow.hits["sort_key0"],
                       rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("qtext", [q for q in QUERIES if q.startswith("aa")]
                         + ["aaterm0", "baterm1"])
def test_pruned_leaves_under_global_theta_equal_naive(zipf_index, qtext):
    """Every leaf pruned under the true global kth score — the cross-split
    threshold the threaded fan-out shares only when timing allows — still
    returns every doc at or above it with its exact score."""
    import os

    from quickwit_ray.search import engine
    from quickwit_ray.search.ast import SearchRequest, SortField

    s = IndexSearcher(zipf_index)
    q = FullTextQuery("text", qtext, mode="or")
    truth = reference_search(s, q, max_hits=10)
    assert len(truth.hits) == 10, qtext
    request = SearchRequest(query=q, max_hits=10,
                            sort_fields=(SortField("_score", "desc"),))
    split_ids = {os.path.join(zipf_index, "splits", sm.split_id): sm.split_id
                 for sm in s.manifest.published_splits()}
    assert len(split_ids) > 1
    theta = float(truth.hits["sort_key0"].iloc[-1])
    partials = [engine._leaf_search_impl(d, s.mapping, request, theta0=theta)
                for d in split_ids]
    got = engine.merge_partial_hits(partials, request, split_ids)
    assert sum(p["num_hits"] for p in partials) == truth.num_hits, qtext
    assert list(got["_split_id"]) == list(truth.hits["_split_id"]), qtext
    assert list(got["_doc_id"]) == list(truth.hits["_doc_id"]), qtext
    assert np.allclose(got["sort_key0"].astype(float),
                       truth.hits["sort_key0"].astype(float),
                       rtol=1e-6, atol=1e-9), qtext


def test_pruning_actually_skips_scoring(zipf_index):
    """The hot-term query must leave some matched docs with partial
    (0-ish) scores — proof the pruning engaged — while counts stay exact."""
    import os

    from quickwit_ray.search.engine import _GLOBAL_READER_CACHE
    from quickwit_ray.search.split_search import SplitSearcher

    s = IndexSearcher(zipf_index)
    sm = s.manifest.published_splits()[0]
    reader = _GLOBAL_READER_CACHE.get(
        os.path.join(zipf_index, "splits", sm.split_id))
    searcher = SplitSearcher(reader, s.mapping)
    terms = ["aaterm0", "baterm1", "caterm2"]
    mask_p, scores_p = searcher.eval_or_topk_pruned("text", terms, 10)
    mask_f, scores_f = searcher.eval(
        FullTextQuery("text", " ".join(terms), mode="or"), True)
    assert (mask_p == mask_f).all()
    # some matched doc was spared full scoring
    assert (scores_p[mask_p] < scores_f[mask_p] - 1e-9).any()


@pytest.mark.parametrize("term", ["aaterm0", "baterm1", "rareterm10"])
def test_blockmax_single_term_equals_naive(zipf_index, term):
    s = IndexSearcher(zipf_index)
    fast = s.search(f"text:{term}", max_hits=10, sort_by="_score", fetch_fields=[])
    slow = reference_search(s, f"text:{term}", max_hits=10)
    assert fast.num_hits == slow.num_hits
    assert list(fast.hits["_split_id"]) == list(slow.hits["_split_id"])
    assert list(fast.hits["_doc_id"]) == list(slow.hits["_doc_id"])
    assert np.allclose(fast.hits["sort_key0"], slow.hits["sort_key0"],
                       rtol=0, atol=0)


def test_blockmax_on_merged_split(tmp_path):
    """Variable-length blocks (merged splits) still give exact top-k."""
    from quickwit_ray.config import (IndexSettings, MergePolicyConfig)
    from quickwit_ray.index.build import build_index
    from quickwit_ray.index.merge import run_merge_pipeline

    paths = ensure_pages(str(tmp_path / "p"), 3000, 6, filler_bytes=256)
    d = str(tmp_path / "idx")
    cfg = IndexConfig("pages", pages_doc_mapping(),
                      IndexSettings(split_num_docs_target=100_000,
                                    commit_docs_threshold=500,
                                    store_binary_columns=False,
                                    merge_policy=MergePolicyConfig(
                                        merge_factor=3, max_merge_factor=6,
                                        min_level_num_docs=1000)))
    build_index(paths, d, cfg, execution="local")
    run_merge_pipeline(d, execution="local")
    s = IndexSearcher(d)
    assert len(s.manifest.published_splits()) < 6
    for term in ["aaterm0", "baterm1"]:
        fast = s.search(f"text:{term}", max_hits=10, sort_by="_score", fetch_fields=[])
        slow = reference_search(s, f"text:{term}", max_hits=10)
        assert fast.num_hits == slow.num_hits
        assert list(fast.hits["_doc_id"]) == list(slow.hits["_doc_id"])
        assert np.allclose(fast.hits["sort_key0"], slow.hits["sort_key0"],
                           rtol=0, atol=0)


def test_and_intersection_equals_dense(zipf_index):
    """The DAAT-AND intersection path (FullTextQuery mode='and') matches
    the dense bool-must evaluation."""
    from quickwit_ray.search.ast import BoolQuery, FullTextQuery

    s = IndexSearcher(zipf_index)
    for terms in [["aaterm0", "baterm1"],
                  ["aaterm0", "rareterm10"],
                  ["aaterm0", "baterm1", "caterm2"],
                  ["aaterm0", "zzznotaterm"]]:
        and_node = FullTextQuery("text", " ".join(terms), mode="and")
        r = s.search(and_node, max_hits=15, sort_by="_score", fetch_fields=[])
        bool_node = BoolQuery(must=tuple(FullTextQuery("text", t) for t in terms))
        r2 = s.search(bool_node, max_hits=15, sort_by="_score", fetch_fields=[])
        assert r.num_hits == r2.num_hits, terms
        assert list(r.hits["_doc_id"]) == list(r2.hits["_doc_id"]), terms
        if len(r.hits):
            assert np.allclose(r.hits["sort_key0"].astype(float),
                               r2.hits["sort_key0"].astype(float),
                               rtol=1e-6, atol=1e-9), terms


AND_QUERIES = [
    "aaterm0 rareterm10",                  # stopword + rare: block-skip fires
    "aaterm0 baterm1",                     # two hot terms
    "rareterm10 rareterm20",               # two rare terms
    "aaterm0 baterm1 caterm2 rareterm30",  # mixed
]


@pytest.mark.parametrize("qtext", AND_QUERIES)
def test_blockskip_and_equals_full_scoring(zipf_index, qtext):
    """The block-skip DAAT-AND must produce the exact intersection AND the
    exact BM25 sums a full decode produces: compare per-doc scores to the
    independently computed sum of single-term scores over the mask."""
    from quickwit_ray.config import IndexConfig as _IC
    from quickwit_ray.search.engine import _GLOBAL_READER_CACHE
    from quickwit_ray.search.split_search import SplitSearcher

    s = IndexSearcher(zipf_index)
    q = FullTextQuery("text", qtext, mode="and")
    terms = qtext.split()
    import os as _os
    for sm in s.manifest.published_splits():
        d = _os.path.join(zipf_index, "splits", sm.split_id)
        reader = _GLOBAL_READER_CACHE.get(d)
        searcher = SplitSearcher(reader, s.mapping)
        mask, scores = searcher.eval(q, True)
        # reference: full-decode single-term scores, summed over the mask
        ref_mask = np.ones(reader.num_docs, bool)
        ref_scores = np.zeros(reader.num_docs, np.float32)
        for t in terms:
            m, sc = searcher.eval(FullTextQuery("text", t, mode="or"), True)
            ref_mask &= m
            ref_scores += sc
        assert (mask == ref_mask).all(), qtext
        assert np.allclose(scores[mask], ref_scores[mask], rtol=1e-5), qtext


def test_blockskip_selected_decode_exact(zipf_index):
    """read_postings_selected returns exactly the full list's entries for
    the blocks containing arbitrary candidates."""
    s = IndexSearcher(zipf_index)
    import os as _os

    from quickwit_ray.search.engine import _GLOBAL_READER_CACHE

    sm = s.manifest.published_splits()[0]
    reader = _GLOBAL_READER_CACHE.get(
        _os.path.join(zipf_index, "splits", sm.split_id))
    _check_selected_decode(
        reader, int(reader.term_rows("text", ["aaterm0"])[0]))


def test_blockmax_flat_tf_min_norm_prunes(tmp_path):
    """Flat-tf hot term (tf=1 in every doc): the tf-only bound is identical
    for every block, but the per-block MIN-fieldnorm score bound prunes
    blocks holding only long docs. Results must equal naive scoring AND
    most blocks must be skipped (the round-2 weakness: full-list scoring)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.search.engine import _GLOBAL_READER_CACHE
    from quickwit_ray.search.split_search import SplitSearcher

    rng = np.random.default_rng(7)
    n = 20_000
    lens = rng.integers(200, 400, n)
    short = rng.choice(n, 20, replace=False)
    lens[short] = rng.integers(5, 9, 20)
    texts = [("flathot " + " ".join(f"w{rng.integers(0, 5000)}"
                                    for _ in range(int(l) - 1)))
             for l in lens]
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()), "body": texts})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="freq",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("flat", mapping,
                                    IndexSettings(split_num_docs_target=100_000)),
                execution="local")
    s = IndexSearcher(d)
    fast = s.search("body:flathot", max_hits=10, sort_by="_score",
                    fetch_fields=[])
    slow = reference_search(s, "body:flathot", max_hits=10)
    assert list(fast.hits["_doc_id"]) == list(slow.hits["_doc_id"])
    assert np.allclose(fast.hits["sort_key0"], slow.hits["sort_key0"],
                       rtol=0, atol=0)
    # pruning evidence: the block-max path decoded far fewer than df docs
    sm = s.manifest.published_splits()[0]
    reader = _GLOBAL_READER_CACHE.get(os.path.join(d, "splits", sm.split_id))
    searcher = SplitSearcher(reader, s.mapping)
    docs, scores, df = searcher.term_topk_blockmax("body", "flathot", 10)
    assert df == n
    assert len(docs) < n // 3, f"decoded {len(docs)} of {n} postings"


def test_or_flat_tf_block_bounds_prune(tmp_path):
    """Disjunction of two flat-tf hot terms: the term-level upper bound is
    the same for every posting, so only the per-block min-fieldnorm bound
    can spare long-doc blocks from BM25 scoring. Top-k and counts must
    equal naive scoring, and most matched docs must keep partial scores."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.search.ast import FullTextQuery
    from quickwit_ray.search.engine import _GLOBAL_READER_CACHE
    from quickwit_ray.search.split_search import SplitSearcher

    rng = np.random.default_rng(11)
    n = 20_000
    lens = rng.integers(200, 400, n)
    short = rng.choice(n, 20, replace=False)
    lens[short] = rng.integers(5, 9, 20)
    texts = [("flata flatb " + " ".join(f"w{rng.integers(0, 5000)}"
                                        for _ in range(int(l) - 2)))
             for l in lens]
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()), "body": texts})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="freq",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(inp, d, IndexConfig("flator", mapping,
                                    IndexSettings(split_num_docs_target=100_000)),
                execution="local")
    s = IndexSearcher(d)
    q = FullTextQuery("body", "flata flatb", mode="or")
    fast = s.search(q, max_hits=10, sort_by="_score", fetch_fields=[])
    slow = reference_search(s, q, max_hits=10)
    assert fast.num_hits == slow.num_hits == n
    assert list(fast.hits["_doc_id"]) == list(slow.hits["_doc_id"])
    assert np.allclose(fast.hits["sort_key0"], slow.hits["sort_key0"],
                       rtol=1e-6, atol=1e-9)
    sm = s.manifest.published_splits()[0]
    reader = _GLOBAL_READER_CACHE.get(os.path.join(d, "splits", sm.split_id))
    searcher = SplitSearcher(reader, s.mapping)
    mask_f, scores_f = searcher.eval(q, True)
    # cross-split kth sharing scenario: theta0 is the true kth two-term
    # score (another split already collected k hits at that level). The
    # term-level bound (dl -> 0) cannot prune ANY posting here — both
    # flat-tf terms bound to the same value and 2x that clears theta —
    # but the per-block min-fieldnorm bound prunes every long-doc block.
    kth = float(np.partition(scores_f[mask_f], mask_f.sum() - 10)
                [mask_f.sum() - 10])
    mask_p, scores_p = searcher.eval_or_topk_pruned(
        "body", ["flata", "flatb"], 10, theta0=kth)
    assert (mask_p == mask_f).all()
    # the surfaced top-10 (docs clearing theta0) carry exact full scores
    surv = scores_p >= kth - 1e-6
    assert (surv & mask_p).sum() >= 10
    assert np.allclose(scores_p[surv], scores_f[surv], rtol=1e-6, atol=1e-9)
    spared = (scores_p[mask_p] < scores_f[mask_p] - 1e-9).mean()
    assert spared > 0.9, f"only {spared:.0%} of docs spared full scoring"


@pytest.fixture(scope="module", params=["builder", "shuffle", "merged"])
def built_split_dirs(request, tmp_path_factory):
    """Split dirs of one pages corpus written by each postings writer:
    the SplitBuilder (direct build, in-process and as the contract's
    `shuffle_build_search` runs it, on Ray) and the streaming merge of the
    direct build's splits."""
    import os

    from quickwit_ray.config import MergePolicyConfig
    from quickwit_ray.index.merge import run_merge_pipeline
    from quickwit_ray.state.manifest import Manifest

    paths = ensure_pages(str(tmp_path_factory.getbasetemp() / "blockpages"),
                         3000, 6, filler_bytes=256)
    d = str(tmp_path_factory.mktemp(request.param) / "idx")
    cfg = IndexConfig("pages", pages_doc_mapping(),
                      IndexSettings(split_num_docs_target=100_000,
                                    commit_docs_threshold=500,
                                    store_binary_columns=False,
                                    merge_policy=MergePolicyConfig(
                                        merge_factor=3, max_merge_factor=6,
                                        min_level_num_docs=1000)))
    if request.param == "shuffle":
        request.getfixturevalue("ray_session")
        build_index(paths, d, cfg, execution="ray")
    else:
        build_index(paths, d, cfg, execution="local")
        if request.param == "merged":
            run_merge_pipeline(d, execution="local")
    return request.param, [os.path.join(d, "splits", sm.split_id)
                           for sm in Manifest(d).published_splits()]


def _check_selected_decode(reader, row):
    full = reader.read_postings([row])[row]
    docs_full, tfs_full = full["doc_ids"], full["tfs"]
    rng = np.random.default_rng(1)
    cands = np.sort(rng.choice(reader.num_docs, size=17, replace=False))
    docs_sel, tfs_sel = reader.read_postings_selected(row, cands)
    # selected docs are a subset, in order, and cover every candidate hit
    assert np.isin(docs_sel, docs_full).all()
    assert (np.diff(docs_sel) > 0).all()
    in_full = np.isin(cands, docs_full)
    assert np.isin(cands[in_full], docs_sel).all()
    # tfs agree with the full decode at the same docs
    pos = np.searchsorted(docs_full, docs_sel)
    assert (tfs_full[pos] == tfs_sel).all()


def test_posting_blocks_cover_df(built_split_dirs):
    """Every posting list any writer produces is block-decodable: its
    block_lens sum to the dictionary df, block_min_norm holds one byte
    per block or none (norms omitted), and decoding every block equals
    the whole-list decode, ending each block at its block_last."""
    from quickwit_ray.index.format import SplitReader, decode_posting_blocks

    kind, split_dirs = built_split_dirs
    short_inner_blocks = False
    for d in split_dirs:
        reader = SplitReader(d)
        for row in range(len(reader.df)):
            raw = reader.read_postings_raw(row)
            lens = raw["block_lens"]
            assert int(lens.sum()) == reader.df[row], (d, row)
            assert len(raw["block_min_norm"]) in (0, len(lens)), (d, row)
            assert len(raw["block_last"]) == len(raw["block_max_tf"]) \
                == len(lens)
            docs, tfs = decode_posting_blocks(raw)
            docs_b, tfs_b = decode_posting_blocks(raw, np.arange(len(lens)))
            assert (docs == docs_b).all() and (tfs == tfs_b).all()
            assert (docs[np.cumsum(lens) - 1] == raw["block_last"]).all()
            short_inner_blocks |= bool((lens[:-1] < 128).any())
        _check_selected_decode(reader, int(np.argmax(reader.df)))
    # a merge concatenates its inputs' blocks, short tail blocks included
    assert short_inner_blocks == (kind == "merged")


def test_split_without_block_lens_is_refused(zipf_index, tmp_path):
    """A postings file without block_lens is refused when a reader or a
    merge opens it, with a ValueError naming the split."""
    import os
    import re
    import shutil

    import pyarrow.parquet as pq

    from quickwit_ray.index.format import (POSTINGS_FILE, TERMS_PER_ROW_GROUP,
                                           SplitReader)
    from quickwit_ray.index.merge import _SplitPostingsStream
    from quickwit_ray.state.manifest import Manifest

    sm = Manifest(zipf_index).published_splits()[0]
    d = str(tmp_path / sm.split_id)
    shutil.copytree(os.path.join(zipf_index, "splits", sm.split_id), d)
    SplitReader(d)
    p = os.path.join(d, POSTINGS_FILE)
    pq.write_table(pq.read_table(p).drop_columns(["block_lens"]), p,
                   row_group_size=TERMS_PER_ROW_GROUP)
    named = re.escape(sm.split_id) + ".*block_lens"
    with pytest.raises(ValueError, match=named):
        SplitReader(d)
    with pytest.raises(ValueError, match=named):
        _SplitPostingsStream(d, 0, 0)


def _first_split(index_dir):
    import os

    from quickwit_ray.state.manifest import Manifest

    sm = Manifest(index_dir).published_splits()[0]
    return os.path.join(index_dir, "splits", sm.split_id)


def test_wide_read_decodes_as_one_row_reads(zipf_index, monkeypatch):
    """A read_postings call spanning many rows (a wide wildcard / regex
    expansion) through a cache too small to keep its posting and
    positions row groups decodes every list as a one-row read does."""
    from quickwit_ray.index import format as fmt

    monkeypatch.setattr(fmt, "SPLIT_CACHE_BYTES", 1)
    d = _first_split(zipf_index)
    reader = fmt.SplitReader(d)
    hot = int(np.argmax(reader.df))
    reader.read_postings_raw(hot)
    rows = list(range(0, len(reader.df), max(1, len(reader.df) // 300)))
    assert len({r // fmt.TERMS_PER_ROW_GROUP for r in rows}) > 1
    wide = reader.read_postings(rows + [hot], with_positions=True)
    fresh = fmt.SplitReader(d)
    for r in rows + [hot]:
        one = fresh.read_postings([r], with_positions=True)[r]
        assert one.keys() == wide[r].keys()
        for k in one:
            assert (one[k] == wide[r][k]).all(), (r, k)
