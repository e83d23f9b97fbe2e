"""Merge policy + executor tests, incl. the hypothesis analog of the
reference's merge-policy proptest (`merge_policy/mod.rs:222-340`):
every emitted op respects factor bounds, mature splits untouched,
repeated application converges; plus end-to-end merge correctness
(search results identical before/after merging)."""

import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quickwit_ray.config import (
    IndexConfig,
    IndexSettings,
    MergePolicyConfig,
    documents_doc_mapping,
)
from quickwit_ray.index.build import build_index, garbage_collect
from quickwit_ray.index.merge import (
    ConstWriteAmplificationMergePolicy,
    StableLogMergePolicy,
    run_merge_pipeline,
)
from quickwit_ray.search.engine import IndexSearcher
from quickwit_ray.state.manifest import SplitMetadata

TARGET = 10_000_000


def _mk_split(i: int, num_docs: int, merge_ops: int = 0) -> SplitMetadata:
    return SplitMetadata(split_id=f"s{i:04d}", index_id="x", num_docs=num_docs,
                         uncompressed_docs_size_in_bytes=num_docs * 100,
                         create_timestamp=time.time(), num_merge_ops=merge_ops)


@given(st.lists(st.integers(min_value=1, max_value=TARGET - 1),
                min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_stable_log_policy_invariants(doc_counts):
    policy = StableLogMergePolicy(MergePolicyConfig(merge_factor=3, max_merge_factor=5,
                                                    min_level_num_docs=1000), TARGET)
    splits = [_mk_split(i, n) for i, n in enumerate(doc_counts)]
    ops = policy.operations(splits, now=time.time())
    seen = set()
    for op in ops:
        # factor bounds
        assert 2 <= len(op.splits) <= 5
        # no split in two ops
        for s in op.splits:
            assert s.split_id not in seen
            seen.add(s.split_id)
        # merged split below target (or single op exceeding is impossible)
        assert all(s.num_docs < TARGET for s in op.splits)


@given(st.lists(st.integers(min_value=1, max_value=200_000),
                min_size=0, max_size=60))
@settings(max_examples=40, deadline=None)
def test_stable_log_policy_converges(doc_counts):
    """Repeatedly applying ops (simulating merges) reaches a stable state."""
    policy = StableLogMergePolicy(MergePolicyConfig(merge_factor=3, max_merge_factor=4,
                                                    min_level_num_docs=1000), TARGET)
    splits = [_mk_split(i, n) for i, n in enumerate(doc_counts)]
    nxt = 10_000
    for _ in range(64):
        ops = policy.operations(splits, now=time.time())
        if not ops:
            break
        merged_away = {s.split_id for op in ops for s in op.splits}
        splits = [s for s in splits if s.split_id not in merged_away]
        for op in ops:
            splits.append(_mk_split(nxt, sum(s.num_docs for s in op.splits),
                                    max(s.num_merge_ops for s in op.splits) + 1))
            nxt += 1
    else:
        pytest.fail("policy did not converge")


def test_mature_splits_untouched():
    policy = StableLogMergePolicy(MergePolicyConfig(merge_factor=2, max_merge_factor=3,
                                                    min_level_num_docs=100), TARGET)
    mature = _mk_split(0, TARGET)  # at target -> mature
    young = [_mk_split(i + 1, 50) for i in range(4)]
    ops = policy.operations([mature] + young, now=time.time())
    for op in ops:
        assert all(s.split_id != mature.split_id for s in op.splits)


def test_const_write_amplification_respects_max_ops():
    policy = ConstWriteAmplificationMergePolicy(
        MergePolicyConfig(kind="const_write_amplification", merge_factor=3,
                          max_merge_factor=3, max_merge_ops=2), TARGET)
    splits = [_mk_split(i, 100, merge_ops=2) for i in range(9)]
    assert policy.operations(splits, now=time.time()) == []
    splits = [_mk_split(i, 100, merge_ops=1) for i in range(9)]
    ops = policy.operations(splits, now=time.time())
    assert len(ops) == 3 and all(len(op.splits) == 3 for op in ops)


DOCS = "/root/testdata/sf0.001/documents.parquet"


def test_merge_preserves_search_results(tmp_path):
    """Build many small splits, merge them down, assert query results and
    counts are identical (modulo per-split BM25 statistics which legally
    change when split boundaries change — so compare a non-scored sort)."""
    config = IndexConfig(
        index_id="documents", doc_mapping=documents_doc_mapping(),
        settings=IndexSettings(
            split_num_docs_target=10_000, commit_docs_threshold=100,
            merge_policy=MergePolicyConfig(merge_factor=3, max_merge_factor=4,
                                           min_level_num_docs=1000)))
    index_dir = str(tmp_path / "idx")
    build_index(DOCS, index_dir, config, execution="local", read_batch_size=100)
    s = IndexSearcher(index_dir)
    n_before = len(s.manifest.published_splits())
    assert n_before == 5
    before_ids = list(s.search("text:scan", max_hits=50, sort_by="doc_id",
                               fetch_fields=["doc_id"]).hits["doc_id"])
    before_count = s.search("text:scan", max_hits=0).num_hits
    before_aggs = s.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 20}}}).aggs

    merges = run_merge_pipeline(index_dir, execution="local")
    assert merges >= 1
    s2 = IndexSearcher(index_dir)
    n_after = len(s2.manifest.published_splits())
    assert n_after < n_before
    assert sum(sp.num_docs for sp in s2.manifest.published_splits()) == 500
    after_ids = list(s2.search("text:scan", max_hits=50, sort_by="doc_id",
                               fetch_fields=["doc_id"]).hits["doc_id"])
    assert after_ids == before_ids
    assert s2.search("text:scan", max_hits=0).num_hits == before_count
    after_aggs = s2.search("*", max_hits=0, aggs={
        "langs": {"terms": {"field": "lang", "size": 20}}}).aggs
    assert after_aggs == before_aggs
    # replaced splits GC away, merged stays
    removed = garbage_collect(index_dir)
    assert len(removed) >= 3
    s3 = IndexSearcher(index_dir)
    assert s3.search("text:scan", max_hits=0).num_hits == before_count


def test_merge_preserves_phrase_and_positions(tmp_path):
    config = IndexConfig(
        index_id="documents", doc_mapping=documents_doc_mapping(),
        settings=IndexSettings(
            split_num_docs_target=10_000, commit_docs_threshold=100,
            merge_policy=MergePolicyConfig(merge_factor=5, max_merge_factor=5,
                                           min_level_num_docs=1000)))
    index_dir = str(tmp_path / "idx")
    build_index(DOCS, index_dir, config, execution="local", read_batch_size=100)
    s = IndexSearcher(index_dir)
    t = pq.read_table(DOCS, columns=["text"]).to_pandas()
    w = t["text"].iloc[0].split()[:2]
    phrase = f'text:"{w[0].lower()} {w[1].lower()}"'
    before = s.search(phrase, max_hits=0).num_hits
    run_merge_pipeline(index_dir, execution="local")
    s2 = IndexSearcher(index_dir)
    assert len(s2.manifest.published_splits()) == 1
    assert s2.search(phrase, max_hits=0).num_hits == before
    # byte-identical text through merged docstore
    truth = pq.read_table(DOCS, columns=["doc_id", "text"]).to_pandas().set_index("doc_id")
    hits = s2.search("text:scan", max_hits=10, sort_by="_score").hits
    for _, row in hits.iterrows():
        assert row["text"] == truth.loc[row["doc_id"], "text"]


def test_merge_splices_missing_per_doc_files(tmp_path):
    """ADVICE r1 (medium): merging a split that lacks fastfields.parquet
    (built from a file with no fast column) must splice placeholder rows so
    row-index == doc-id still holds on the merged split."""
    import pyarrow as pa
    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.index.merge import execute_merge

    indir = tmp_path / "in"
    indir.mkdir()
    # file A: has the fast column; file B: lacks it entirely
    pq.write_table(pa.table({
        "doc_id": pa.array(range(50), pa.int64()),
        "msg": [f"alpha w{i}" for i in range(50)],
        "val": pa.array(range(50), pa.int64()),
    }), str(indir / "a.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array(range(50, 100), pa.int64()),
        "msg": [f"beta w{i}" for i in range(100, 150)],
    }), str(indir / "b.parquet"))
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="msg", type="text", record="freq", fieldnorms=True),
            # indexed=False so split B (no `val` column) writes NO fast
            # columns at all — indexed scalars now always persist theirs
            FieldMapping(name="doc_id", type="i64", stored=True,
                         indexed=False),
            FieldMapping(name="val", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=("msg",))
    index_dir = str(tmp_path / "idx")
    build_index(str(indir), index_dir, IndexConfig("mfix", mapping),
                execution="local")
    s = IndexSearcher(index_dir)
    sids = [sp.split_id for sp in s.manifest.published_splits()]
    assert len(sids) == 2
    import os as _os
    missing = [sid for sid in sids if not _os.path.exists(
        _os.path.join(index_dir, "splits", sid, "fastfields.parquet"))]
    assert len(missing) == 1  # the repro precondition holds
    before = s.search("val:[10 TO 20]", max_hits=0).num_hits
    sm = execute_merge(index_dir, sids, "mfix", 1)
    s.manifest.publish([sm], replaced_split_ids=sids)
    s2 = IndexSearcher(index_dir)
    assert len(s2.manifest.published_splits()) == 1
    r = s2.search("val:[10 TO 20]", max_hits=0)
    assert not r.failed_splits
    assert r.num_hits == before == 11
    # docs from the fast-less split still searchable + fetchable
    r2 = s2.search("msg:beta", max_hits=60, fetch_fields=["doc_id"])
    assert not r2.failed_splits and r2.num_hits == 50
    assert sorted(int(x) for x in r2.hits["doc_id"]) == list(range(50, 100))


def test_streaming_merge_many_windows(tmp_path):
    """Vocabulary spanning several posting row groups (2048 terms each)
    forces the streaming k-way merge through multiple key windows; term
    lookups, counts, phrase positions and fast fields must round-trip."""
    import numpy as np
    import pyarrow as pa
    import quickwit_ray.index.merge as merge_mod
    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.index.merge import execute_merge

    rng = np.random.default_rng(7)
    indir = tmp_path / "in"
    indir.mkdir()
    n_files, docs_per = 3, 400
    vocab = [f"w{i:05d}" for i in range(5000)]
    texts_by_file = []
    for fi in range(n_files):
        texts = []
        for d in range(docs_per):
            words = rng.choice(vocab, size=12, replace=False).tolist()
            words.append("anchor common")  # phrase planted everywhere
            texts.append(" ".join(words))
        texts_by_file.append(texts)
        pq.write_table(pa.table({
            "doc_id": pa.array(range(fi * docs_per, (fi + 1) * docs_per),
                               pa.int64()),
            "body": texts,
            "val": pa.array(range(docs_per), pa.int64()),
        }), str(indir / f"f{fi}.parquet"))
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True),
            FieldMapping(name="val", type="i64", fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(str(indir), d, IndexConfig("many", mapping), execution="local")
    s = IndexSearcher(d)
    sids = [sp.split_id for sp in s.manifest.published_splits()]
    assert len(sids) == 3
    # pre-merge ground truth on a sample of terms + the planted phrase
    sample_terms = [vocab[i] for i in (0, 1, 1000, 2047, 2048, 2049, 4999)]
    before = {t: s.search(f"body:{t}", max_hits=0).num_hits
              for t in sample_terms}
    phrase_before = s.search('body:"anchor common"', max_hits=0).num_hits
    # force the STREAMING path (the small-merge fast path would take one
    # window otherwise)
    old_thresh = merge_mod.SMALL_MERGE_DICT_ROWS
    merge_mod.SMALL_MERGE_DICT_ROWS = 0
    try:
        sm = execute_merge(d, sids, "many", 1)
    finally:
        merge_mod.SMALL_MERGE_DICT_ROWS = old_thresh
    s.manifest.publish([sm], replaced_split_ids=sids)
    s2 = IndexSearcher(d)
    assert len(s2.manifest.published_splits()) == 1
    for t, cnt in before.items():
        r = s2.search(f"body:{t}", max_hits=0)
        assert not r.failed_splits
        assert r.num_hits == cnt, t
    assert s2.search('body:"anchor common"', max_hits=0).num_hits == \
        phrase_before == n_files * docs_per
    # fast-field query + fetch still row-aligned after the merge
    r = s2.search("val:[100 TO 110]", max_hits=100, fetch_fields=["doc_id"])
    assert not r.failed_splits and r.num_hits == 11 * n_files


def test_delete_at_merge(tmp_path):
    """Pending delete tasks fold into a scheduled merge (one write):
    the merged output excludes matching docs and carries the latest
    delete opstamp — no standalone rewrite pass needed."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from quickwit_ray.config import (DocMapping, FieldMapping, IndexConfig,
                                     IndexSettings, MergePolicyConfig)
    from quickwit_ray.index.build import build_index
    from quickwit_ray.index.merge import run_merge_pipeline
    from quickwit_ray.search.engine import IndexSearcher
    from quickwit_ray.state.manifest import Manifest

    n = 1200
    langs = np.where(np.arange(n) % 3 == 0, "de", "en")
    texts = [f"doc number {i} scan" for i in range(n)]
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": texts, "lang": langs.tolist()})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", record="freq",
                         fieldnorms=True, stored=True),
            FieldMapping(name="lang", type="text", tokenizer="raw",
                         stored=True, fast=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("text",))
    cfg = IndexConfig("delmerge", mapping,
                      IndexSettings(split_num_docs_target=100_000,
                                    commit_docs_threshold=200,
                                    merge_policy=MergePolicyConfig(
                                        merge_factor=3, max_merge_factor=8,
                                        min_level_num_docs=400)))
    d = str(tmp_path / "idx")
    build_index(inp, d, cfg, execution="local", read_batch_size=200)
    m = Manifest(d)
    n_before = len(m.published_splits())
    assert n_before >= 3
    m.create_delete_task("lang:de")
    last = m.last_delete_opstamp
    n_merges = run_merge_pipeline(d, execution="local")
    assert n_merges > 0
    m = Manifest(d)
    expect = n - int((langs == "de").sum())
    s = IndexSearcher(d)
    # every merged output is fully deleted-up-to-date; docs are gone
    merged = [sm for sm in m.published_splits()
              if sm.source_partition_id.startswith("merge-delete:")]
    assert merged and all(sm.delete_opstamp == last for sm in merged)
    assert s.search("text:scan", max_hits=0).num_hits == expect
    assert s.search("lang:de", max_hits=0).num_hits == 0
    # the standalone pass has nothing left to rewrite on merged splits
    from quickwit_ray.index.deletes import apply_delete_tasks

    changed = apply_delete_tasks(d)
    s2 = IndexSearcher(d)
    assert s2.search("text:scan", max_hits=0).num_hits == expect


def test_docstore_stacking(tmp_path):
    """Merges stack source doc stores as hardlinked segment files (the
    tantivy store stack() analog) instead of re-encoding: the merged
    split carries docstore_segments, point fetches cross segment
    boundaries correctly, fetched docs match the sources byte-for-byte,
    GC of the sources leaves the hardlinked data intact, and a source
    fan-in above MAX_DOCSTORE_SEGMENTS falls back to the single-file
    rewrite."""
    import os

    from quickwit_ray.index.format import SplitReader
    from quickwit_ray.index.merge import (
        MAX_DOCSTORE_SEGMENTS,
        execute_merge,
    )
    from quickwit_ray.state.manifest import Manifest

    config = IndexConfig(
        index_id="documents", doc_mapping=documents_doc_mapping(),
        settings=IndexSettings(
            split_num_docs_target=10_000, commit_docs_threshold=100,
            merge_policy=MergePolicyConfig(merge_factor=3, max_merge_factor=4,
                                           min_level_num_docs=1000)))
    index_dir = str(tmp_path / "idx")
    build_index(DOCS, index_dir, config, execution="local",
                read_batch_size=100)
    man = Manifest(index_dir)
    splits = man.list_splits()
    ids = [s.split_id for s in splits[:3]]
    want = []
    for s in splits[:3]:
        r = SplitReader(os.path.join(index_dir, "splits", s.split_id))
        want.append(r.fetch_docs(np.arange(s.num_docs),
                                 columns=["doc_id", "text"]))
    want_tbl = pa.concat_tables(want)

    sm = execute_merge(index_dir, ids, "documents", 1)
    sd = os.path.join(index_dir, "splits", sm.split_id)
    r = SplitReader(sd)
    segs = r.docstore_units()
    assert len(segs) == 3
    assert all(os.path.basename(u["parquet"]).startswith("docstore-seg-")
               for u in segs)
    assert "docstore.parquet" not in os.listdir(sd)
    got = r.fetch_docs(np.arange(sm.num_docs), columns=["doc_id", "text"])
    assert got.equals(want_tbl)
    # cross-boundary point fetch in scrambled order
    pick = np.array([sm.num_docs - 1, 0, 150, 101, 99])
    got2 = r.fetch_docs(pick, columns=["doc_id"])
    assert got2["doc_id"].to_pylist() == \
        [want_tbl["doc_id"][int(i)].as_py() for i in pick]
    # hardlinked data survives source-split deletion
    import shutil

    for sid in ids:
        shutil.rmtree(os.path.join(index_dir, "splits", sid))
    r2 = SplitReader(sd)
    assert r2.fetch_docs(np.array([0]), columns=["doc_id"]).num_rows == 1
    # fan-in above the cap falls back to one rewritten docstore file
    from quickwit_ray.index import merge as merge_mod

    old = merge_mod.MAX_DOCSTORE_SEGMENTS
    merge_mod.MAX_DOCSTORE_SEGMENTS = 1
    try:
        sm2 = execute_merge(index_dir, [sm.split_id,
                                        splits[3].split_id],
                            "documents", 2)
    finally:
        merge_mod.MAX_DOCSTORE_SEGMENTS = old
    sd2 = os.path.join(index_dir, "splits", sm2.split_id)
    assert "docstore.parquet" in os.listdir(sd2)
    r3 = SplitReader(sd2)
    assert len(r3.docstore_units()) == 1
    # the consolidating rewrite must read the SEGMENTED source through
    # its segment list — values survive, no silent null placeholders
    # (regression: the fallback once looked for docstore.parquet only)
    got3 = r3.fetch_docs(np.arange(sm2.num_docs), columns=["doc_id"])
    assert got3["doc_id"].null_count == 0
    assert got3["doc_id"].to_pylist()[:sm.num_docs] == \
        want_tbl["doc_id"].to_pylist()


def test_docstore_blob_columns(tmp_path):
    """Fat stored text moves to framed blob files (tantivy ~64KB-block
    doc-store analog): direct builds carry docstore_blobs, hits render
    byte-identical values, merges stack blob files per segment, and the
    consolidating rewrite re-emits blobs — across null/empty rows."""
    import os

    from quickwit_ray.index.format import SplitReader
    from quickwit_ray.index import merge as merge_mod
    from quickwit_ray.index.merge import execute_merge
    from quickwit_ray.state.manifest import Manifest

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]

    def fat_row(i):
        if i % 37 == 0:
            return None
        if i % 29 == 0:
            return ""
        return " ".join(rng.choice(words, 150)) + f" row{i}"

    docs_dir = tmp_path / "src"
    docs_dir.mkdir()
    n = 600
    rows = [fat_row(i) for i in range(n)]
    tbl = pa.table({
        "doc_id": [f"d{i}" for i in range(n)], "text": rows,
        "lang": ["en"] * n, "source": ["syn"] * n,
        "n_chars": [len(r or "") for r in rows]})
    pq.write_table(tbl, str(docs_dir / "part.parquet"))

    config = IndexConfig(
        index_id="documents", doc_mapping=documents_doc_mapping(),
        settings=IndexSettings(split_num_docs_target=10_000,
                               commit_docs_threshold=200))
    index_dir = str(tmp_path / "idx")
    build_index([str(docs_dir / "part.parquet")], index_dir, config,
                execution="local", read_batch_size=97)
    man = Manifest(index_dir)
    splits = man.list_splits()
    assert len(splits) == 3
    sd0 = os.path.join(index_dir, "splits", splits[0].split_id)
    r0 = SplitReader(sd0)
    unit = r0.docstore_units()[0]
    assert unit["blobs"] and unit["blobs"][0]["column"] == "text"
    assert "text" not in pq.read_schema(unit["parquet"]).names
    # point fetch returns exact values incl. null/empty rows
    got = r0.fetch_docs(np.arange(splits[0].num_docs),
                        columns=["doc_id", "text"])
    assert got["text"].to_pylist() == rows[:splits[0].num_docs]
    # search-level render: byte-identical text
    s = IndexSearcher(index_dir)
    hit = s.search("text:row5 AND text:alpha", max_hits=1).hits
    if len(hit):
        assert hit.iloc[0]["text"] == rows[5]
    # merge stacks blob files as segments
    sm = execute_merge(index_dir, [sp.split_id for sp in splits],
                       "documents", 1)
    sd = os.path.join(index_dir, "splits", sm.split_id)
    rm = SplitReader(sd)
    units = rm.docstore_units()
    assert len(units) == 3 and all(u["blobs"] for u in units)
    got = rm.fetch_docs(np.arange(n), columns=["text"])
    assert got["text"].to_pylist() == rows
    # consolidating rewrite (fan-in over cap) re-emits blobs
    old = merge_mod.MAX_DOCSTORE_SEGMENTS
    merge_mod.MAX_DOCSTORE_SEGMENTS = 1
    try:
        sm2 = execute_merge(index_dir, [sm.split_id], "documents", 2)
    finally:
        merge_mod.MAX_DOCSTORE_SEGMENTS = old
    r2 = SplitReader(os.path.join(index_dir, "splits", sm2.split_id))
    u2 = r2.docstore_units()
    assert len(u2) == 1 and u2[0]["blobs"]
    assert r2.read_docstore_table()["text"].to_pylist() \
        == rows
    scrambled = np.array([599, 0, 37, 29, 205, 401])
    assert r2.fetch_docs(scrambled, columns=["text"])["text"].to_pylist() \
        == [rows[i] for i in scrambled]


def test_blob_writer_null_extents_and_binary_payloads(tmp_path):
    """Review regressions: (1) null slots whose Arrow offsets keep a
    nonzero extent (pc.if_else / concat of slices) must not shift later
    rows' bytes; (2) non-UTF-8 large_binary payloads are blob-eligible
    and must round-trip without a string cast; (3) frames slice chunks
    directly (carry-only concat), so chunked adds of any size work."""
    import pyarrow.compute as pc

    from quickwit_ray.index.format import BlobColumnReader, BlobColumnWriter

    # (1) nulls with nonzero extents
    base = pa.array(["abc", "NULLBYTES", "xy", "tail"])
    arr = pc.if_else(pa.array([True, False, True, True]), base, None)
    assert arr.is_valid().to_pylist() == [True, False, True, True]
    w = BlobColumnWriter(str(tmp_path / "b1.bin"), 3, "string")
    w.add(arr)
    w.close()
    r = BlobColumnReader(str(tmp_path / "b1.bin"), "string")
    assert r.scan().to_pylist() == ["abc", None, "xy", "tail"]
    assert r.take(np.array([2, 3, 1])).to_pylist() == ["xy", "tail", None]

    # (2) large_binary, non-UTF-8
    import os as _os

    payloads = [_os.urandom(300), None, b"\xff\xfe" * 200, b""]
    lb = pa.array(payloads, pa.large_binary())
    w2 = BlobColumnWriter(str(tmp_path / "b2.bin"), 2, "binary")
    w2.add(lb)
    w2.close()
    r2 = BlobColumnReader(str(tmp_path / "b2.bin"), "binary")
    assert r2.scan().to_pylist() == payloads

    # (3) many chunks straddling frames (carry logic)
    vals = [f"v{i}" * 50 for i in range(40)]
    w3 = BlobColumnWriter(str(tmp_path / "b3.bin"), 7, "string")
    for i in range(0, 40, 3):
        w3.add(pa.chunked_array([pa.array(vals[i:i + 2], pa.string()),
                                 pa.array(vals[i + 2:i + 3], pa.string())]))
    w3.close()
    r3 = BlobColumnReader(str(tmp_path / "b3.bin"), "string")
    assert r3.scan().to_pylist() == vals


def test_ray_eager_merge_pipeline_matches_local(tmp_path, ray_session):
    """The eager ray scheduler (sliding in-flight set, publish-on-complete,
    re-plan per publish) must converge to the same final state as the local
    round-based loop: same merge count, same split count, same results —
    including a delete task folded in at merge time."""
    from quickwit_ray.config import DocMapping, FieldMapping

    n = 1800
    langs = np.where(np.arange(n) % 3 == 0, "de", "en")
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": [f"doc number {i} scan" for i in range(n)],
                    "lang": langs.tolist()})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", record="freq",
                         fieldnorms=True, stored=True),
            FieldMapping(name="lang", type="text", tokenizer="raw",
                         stored=True, fast=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("text",))

    def _build(name):
        cfg = IndexConfig("eagermerge", mapping,
                          IndexSettings(split_num_docs_target=100_000,
                                        commit_docs_threshold=100,
                                        merge_policy=MergePolicyConfig(
                                            merge_factor=3, max_merge_factor=3,
                                            min_level_num_docs=450)))
        d = str(tmp_path / name)
        build_index(inp, d, cfg, execution="local", read_batch_size=100)
        from quickwit_ray.state.manifest import Manifest
        Manifest(d).create_delete_task("lang:de")  # folds in at merge
        return d

    d_local, d_ray = _build("local"), _build("ray")
    # 18 initial splits + factor 3 -> a multi-level cascade: the eager
    # path must start level-1 merges while level-0 merges still run
    n_local = run_merge_pipeline(d_local, execution="local")
    n_ray = run_merge_pipeline(d_ray, execution="ray", max_concurrency=3)
    assert n_ray == n_local >= 6
    sl, sr = IndexSearcher(d_local), IndexSearcher(d_ray)
    assert (len(sl.manifest.published_splits())
            == len(sr.manifest.published_splits()))
    expect = n - int((langs == "de").sum())
    for s in (sl, sr):
        assert s.search("text:scan", max_hits=0).num_hits == expect
        assert s.search("lang:de", max_hits=0).num_hits == 0
    assert (list(sl.search("text:scan", max_hits=30, sort_by="-doc_id",
                           fetch_fields=["doc_id"]).hits["doc_id"])
            == list(sr.search("text:scan", max_hits=30, sort_by="-doc_id",
                              fetch_fields=["doc_id"]).hits["doc_id"]))


def test_streaming_merge_slow_positions_encoder_drains_fully(tmp_path):
    """Regression: the positions sidecar encodes on its own thread behind
    a 2-slot queue. When that encoder lags at EOF the queue is still full
    when the postings consumer finishes; the shutdown path used to drop
    the queued windows (posq.put_nowait(None) -> Full -> stop.set() ->
    writer bails), publishing a split whose positions file was rows SHORT
    of its postings file — corrupting every later merge/phrase query.
    Slow the encoder deterministically and assert full drain."""
    import quickwit_ray.index.merge as merge_mod
    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.index.format import POSITIONS_FILE, POSTINGS_FILE
    from quickwit_ray.index.merge import execute_merge

    rng = np.random.default_rng(11)
    indir = tmp_path / "in"
    indir.mkdir()
    n_files, docs_per = 3, 400
    vocab = [f"w{i:05d}" for i in range(20000)]
    for fi in range(n_files):
        texts = []
        for _ in range(docs_per):
            words = rng.choice(vocab, size=12, replace=False).tolist()
            words.append("anchor common")
            texts.append(" ".join(words))
        pq.write_table(pa.table({
            "doc_id": pa.array(range(fi * docs_per, (fi + 1) * docs_per),
                               pa.int64()),
            "body": texts,
        }), str(indir / f"f{fi}.parquet"))
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(str(indir), d, IndexConfig("slowpos", mapping),
                execution="local")
    s = IndexSearcher(d)
    sids = [sp.split_id for sp in s.manifest.published_splits()]
    assert len(sids) == n_files
    phrase_before = s.search('body:"anchor common"', max_hits=0).num_hits
    assert phrase_before == n_files * docs_per

    real_writer = merge_mod.ExactRowGroupWriter

    class _SlowPosWriter(real_writer):
        def write(self, tbl):
            if self.path.endswith(POSITIONS_FILE):
                time.sleep(0.25)  # outlive the whole postings drain
            super().write(tbl)

    class _TinyRefillStream(merge_mod._SplitPostingsStream):
        def __init__(self, split_dir, ord_, off, rgs_per_refill=8,
                     refill_bytes=None):
            # one row group per refill -> one merge window per row group
            super().__init__(split_dir, ord_, off, rgs_per_refill=1)

    old_thresh = merge_mod.SMALL_MERGE_DICT_ROWS
    merge_mod.SMALL_MERGE_DICT_ROWS = 0
    merge_mod.ExactRowGroupWriter = _SlowPosWriter
    merge_mod._SplitPostingsStream = _TinyRefillStream
    try:
        sm = execute_merge(d, sids, "slowpos", 1)
    finally:
        merge_mod.SMALL_MERGE_DICT_ROWS = old_thresh
        merge_mod.ExactRowGroupWriter = real_writer
        merge_mod._SplitPostingsStream = _TinyRefillStream.__bases__[0]
    s.manifest.publish([sm], replaced_split_ids=sids)
    import os

    sd = os.path.join(d, "splits", sm.split_id)
    n_post = pq.ParquetFile(os.path.join(sd, POSTINGS_FILE)).metadata.num_rows
    n_pos = pq.ParquetFile(os.path.join(sd, POSITIONS_FILE)).metadata.num_rows
    assert n_pos == n_post
    s2 = IndexSearcher(d)
    assert s2.search('body:"anchor common"', max_hits=0).num_hits == \
        phrase_before


def test_concat_blob_files_framecopy(tmp_path):
    """Frame-level blob consolidation (QWRBLOB2): sources with different
    frame grids, short tail frames mid-file, nulls, and an all-null
    placeholder range concatenate by BYTE COPY — the output's frame
    region is exactly the sources' frame regions, no re-encode — and the
    v2 reader scans/takes correctly across every boundary."""
    import os

    from quickwit_ray.index.format import (
        BlobColumnReader,
        BlobColumnWriter,
        concat_blob_files,
    )

    def mk(path, values, rows_per_frame):
        w = BlobColumnWriter(str(path), rows_per_frame, "string")
        w.add(pa.array(values, pa.string()))
        w.close()
        return str(path)

    a_vals = [f"alpha-{i}" * 3 if i % 5 else None for i in range(23)]
    b_vals = [f"b{i}" for i in range(8)]
    c_vals = [f"charlie-{i}" * 10 for i in range(50)]
    pa_file = mk(tmp_path / "a.bin", a_vals, 4)   # tail frame of 3
    pb_file = mk(tmp_path / "b.bin", b_vals, 16)  # single short frame
    pc_file = mk(tmp_path / "c.bin", c_vals, 7)   # tail frame of 1
    out = str(tmp_path / "out.bin")
    total = concat_blob_files(
        [(pa_file, 23), (None, 11), (pb_file, 8), (pc_file, 50)], out)
    want = a_vals + [None] * 11 + b_vals + c_vals
    assert total == len(want)

    r = BlobColumnReader(out, "string")
    assert r.num_rows == len(want)
    assert r.scan().to_pylist() == want
    # scattered point reads across every source boundary
    pick = np.array([0, 22, 23, 33, 34, 41, 42, 91, 5, 60])
    assert r.take(pick).to_pylist() == [want[i] for i in pick]
    # byte-copy proof: output frame region == concatenation of source
    # frame regions plus the placeholder's sentinel frames
    src_bytes = 0
    for p in (pa_file, pb_file, pc_file):
        src = BlobColumnReader(p, "string")
        src_bytes += int(src.offs[-1])
        src._f.close()
    placeholder = int(r.offs[-1]) - src_bytes
    assert placeholder > 0  # the 11-row null frame
    with open(out, "rb") as f:
        got_region = f.read(int(r.offs[-1]))
    regions = b""
    consumed = 0
    for p, nrows in [(pa_file, 23), (None, 11), (pb_file, 8),
                     (pc_file, 50)]:
        if p is None:
            # skip the synthesized frame bytes in the output
            fi = np.searchsorted(r.row_starts, consumed, side="right") - 1
            consumed += nrows
            continue
        consumed += nrows
        with open(p, "rb") as f:
            src = BlobColumnReader(p, "string")
            regions += f.read(int(src.offs[-1]))
            src._f.close()
    # every source frame's bytes appear verbatim in the output
    for p in (pa_file, pb_file, pc_file):
        src = BlobColumnReader(p, "string")
        with open(p, "rb") as f:
            frames = f.read(int(src.offs[-1]))
        src._f.close()
        assert frames in got_region


def test_consolidation_framecopy_no_reencode(tmp_path):
    """The >MAX_DOCSTORE_SEGMENTS consolidation goes through the
    frame-copy path when every unit agrees on the blob layout: the
    merged split's blob file contains each source's frame bytes
    VERBATIM (no zstd round-trip) and point/scan reads stay exact. A
    mixed inline/blob layout falls back to the re-encoding rewrite and
    stays correct."""
    import os

    from quickwit_ray.index import merge as merge_mod
    from quickwit_ray.index.format import BlobColumnReader, SplitReader
    from quickwit_ray.index.merge import execute_merge
    from quickwit_ray.state.manifest import Manifest

    rng = np.random.default_rng(3)
    words = ["kappa", "lambda", "mu", "nu", "xi"]
    docs_dir = tmp_path / "src"
    docs_dir.mkdir()
    n = 400
    rows = [" ".join(rng.choice(words, 200)) + f" row{i}" for i in range(n)]
    tbl = pa.table({
        "doc_id": [f"d{i}" for i in range(n)], "text": rows,
        "lang": ["en"] * n, "source": ["syn"] * n,
        "n_chars": [len(r) for r in rows]})
    pq.write_table(tbl, str(docs_dir / "part.parquet"))
    config = IndexConfig(
        index_id="documents", doc_mapping=documents_doc_mapping(),
        settings=IndexSettings(split_num_docs_target=10_000,
                               commit_docs_threshold=100))
    index_dir = str(tmp_path / "idx")
    build_index([str(docs_dir / "part.parquet")], index_dir, config,
                execution="local", read_batch_size=100)
    splits = Manifest(index_dir).list_splits()
    assert len(splits) == 4
    src_frames = []
    for sp in splits:
        u = SplitReader(
            os.path.join(index_dir, "splits", sp.split_id)).docstore_units()
        assert len(u) == 1 and u[0]["blobs"]
        bf = u[0]["blobs"][0]["file"]
        src = BlobColumnReader(bf, "string")
        with open(bf, "rb") as f:
            src_frames.append(f.read(int(src.offs[-1])))
        src._f.close()

    old = merge_mod.MAX_DOCSTORE_SEGMENTS
    merge_mod.MAX_DOCSTORE_SEGMENTS = 2
    try:
        sm = execute_merge(index_dir,
                           [sp.split_id for sp in splits], "documents", 1)
    finally:
        merge_mod.MAX_DOCSTORE_SEGMENTS = old
    sd = os.path.join(index_dir, "splits", sm.split_id)
    r = SplitReader(sd)
    units = r.docstore_units()
    assert len(units) == 1 and units[0]["blobs"]
    out_file = units[0]["blobs"][0]["file"]
    outr = BlobColumnReader(out_file, "string")
    with open(out_file, "rb") as f:
        out_region = f.read(int(outr.offs[-1]))
    outr._f.close()
    # verbatim frame bytes from every source == zero re-encode
    assert out_region == b"".join(src_frames)
    got = r.fetch_docs(np.arange(n), columns=["text"])
    assert got["text"].to_pylist() == rows
    pick = np.array([399, 0, 99, 100, 101, 250])
    assert r.fetch_docs(pick, columns=["text"])["text"].to_pylist() == \
        [rows[i] for i in pick]

    # mixed layout: merge the blob-backed split with a thin-text split
    # (text inline in parquet) -> frame copy refuses, rewrite path runs
    thin_dir = tmp_path / "thin"
    thin_dir.mkdir()
    thin_rows = [f"tiny {i}" for i in range(50)]
    pq.write_table(pa.table({
        "doc_id": [f"t{i}" for i in range(50)], "text": thin_rows,
        "lang": ["en"] * 50, "source": ["syn"] * 50,
        "n_chars": [len(r) for r in thin_rows]}),
        str(thin_dir / "part.parquet"))
    idx2 = str(tmp_path / "idx2")
    build_index([str(thin_dir / "part.parquet")], idx2, config,
                execution="local")
    thin_split = Manifest(idx2).list_splits()[0]
    import shutil
    shutil.copytree(os.path.join(idx2, "splits", thin_split.split_id),
                    os.path.join(index_dir, "splits", thin_split.split_id))
    merge_mod.MAX_DOCSTORE_SEGMENTS = 1
    try:
        sm2 = execute_merge(index_dir, [sm.split_id, thin_split.split_id],
                            "documents", 2)
    finally:
        merge_mod.MAX_DOCSTORE_SEGMENTS = old
    r2 = SplitReader(os.path.join(index_dir, "splits", sm2.split_id))
    got2 = r2.fetch_docs(np.arange(n + 50), columns=["text"])
    assert got2["text"].to_pylist() == rows + thin_rows


def test_window_pool_merge_bytes_identical_to_inline(tmp_path):
    """The big-merge window pool (WINDOW_POOL_MIN_BYTES gate) must be a
    pure scheduling change: forcing the pool ON and OFF over the same
    inputs produces byte-identical split artifacts."""
    import hashlib
    import os
    import shutil

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.index import merge as merge_mod
    from quickwit_ray.index.merge import execute_merge
    from quickwit_ray.state.manifest import Manifest

    rng = np.random.default_rng(13)
    indir = tmp_path / "in"
    indir.mkdir()
    vocab = [f"w{i:05d}" for i in range(9000)]
    for fi in range(3):
        texts = [" ".join(rng.choice(vocab, size=15, replace=False))
                 for _ in range(300)]
        pq.write_table(pa.table({
            "doc_id": pa.array(range(fi * 300, fi * 300 + 300), pa.int64()),
            "body": texts}), str(indir / f"f{fi}.parquet"))
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(str(indir), d, IndexConfig("wp", mapping), execution="local")
    sids = [sp.split_id for sp in Manifest(d).published_splits()]

    def merged_digest():
        sm = execute_merge(d, sids, "wp", 1)
        sd = os.path.join(d, "splits", sm.split_id)
        h = hashlib.sha1()
        for f in sorted(os.listdir(sd)):
            with open(os.path.join(sd, f), "rb") as fh:
                h.update(f.encode())
                h.update(fh.read())
        shutil.rmtree(sd)
        return h.hexdigest()

    old_rows = merge_mod.SMALL_MERGE_DICT_ROWS
    old_gate = merge_mod.WINDOW_POOL_MIN_BYTES
    merge_mod.SMALL_MERGE_DICT_ROWS = 0  # force the streaming pipeline
    try:
        merge_mod.WINDOW_POOL_MIN_BYTES = 0          # pool ON
        with_pool = merged_digest()
        merge_mod.WINDOW_POOL_MIN_BYTES = 1 << 60    # pool OFF (inline)
        inline = merged_digest()
    finally:
        merge_mod.SMALL_MERGE_DICT_ROWS = old_rows
        merge_mod.WINDOW_POOL_MIN_BYTES = old_gate
    assert with_pool == inline


def test_ray_merge_pipeline_retries_failed_task(tmp_path, ray_session):
    """A merge task that dies (preempted worker, transient I/O) must not
    kill the pipeline: the op requeues with a bounded attempt budget and
    the final state matches a clean run. Exhausting the budget raises."""
    import os

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.index.merge import execute_merge, run_merge_pipeline
    from quickwit_ray.state.manifest import Manifest

    n = 900
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": [f"doc number {i} scan" for i in range(n)]})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("text",))
    config = IndexConfig(
        "retrymerge", mapping,
        settings=IndexSettings(
            split_num_docs_target=100_000, commit_docs_threshold=100,
            merge_policy=MergePolicyConfig(merge_factor=3,
                                           max_merge_factor=3,
                                           min_level_num_docs=10_000)))
    d = str(tmp_path / "idx")
    build_index(inp, d, config, execution="local", read_batch_size=100)
    assert len(Manifest(d).published_splits()) == 9

    marker = str(tmp_path / "failed_once")

    def fail_first(index_dir, ids, index_id, n_ops):
        import os as _os
        if not _os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("x")
            raise RuntimeError("injected merge-task failure")
        return execute_merge(index_dir, ids, index_id, n_ops)

    total = run_merge_pipeline(d, execution="ray", task_fn=fail_first)
    assert os.path.exists(marker)  # the failure really happened
    assert total >= 3
    s = IndexSearcher(d)
    assert s.search("text:scan", max_hits=0).num_hits == n
    assert len(s.manifest.published_splits()) < 9

    # budget exhaustion surfaces the failure instead of looping forever
    d2 = str(tmp_path / "idx2")
    build_index(inp, d2, config, execution="local", read_batch_size=100)

    def always_fail(index_dir, ids, index_id, n_ops):
        raise RuntimeError("permanent failure")

    with pytest.raises(Exception):
        run_merge_pipeline(d2, execution="ray", task_fn=always_fail)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_concat_blob_files_roundtrip_property(tmp_path_factory, data):
    """Property: for ANY mix of sources (random values incl. nulls and
    empties, random frame sizes, interleaved all-null placeholder
    ranges), concat_blob_files round-trips scan() and take() exactly."""
    import os

    from quickwit_ray.index.format import (
        BlobColumnReader,
        BlobColumnWriter,
        concat_blob_files,
    )

    tmp = tmp_path_factory.mktemp("blobprop")
    n_sources = data.draw(st.integers(1, 5))
    sources = []
    want: list = []
    for i in range(n_sources):
        if data.draw(st.booleans()) and want:  # placeholder range
            n = data.draw(st.integers(1, 40))
            sources.append((None, n))
            want.extend([None] * n)
            continue
        vals = data.draw(st.lists(
            st.one_of(st.none(), st.text(max_size=30)), min_size=1,
            max_size=60))
        rpf = data.draw(st.integers(1, 17))
        p = str(tmp / f"s{i}-{len(want)}.bin")
        w = BlobColumnWriter(p, rpf, "string")
        w.add(pa.array(vals, pa.string()))
        w.close()
        sources.append((p, len(vals)))
        want.extend(vals)
    out = str(tmp / f"out-{os.getpid()}-{len(want)}.bin")
    total = concat_blob_files(sources, out)
    assert total == len(want)
    r = BlobColumnReader(out, "string")
    assert r.scan().to_pylist() == want
    idx = data.draw(st.lists(st.integers(0, len(want) - 1), min_size=1,
                             max_size=20))
    assert r.take(np.asarray(idx)).to_pylist() == [want[i] for i in idx]
    r._f.close()


def test_search_consistency_during_merge_pipeline(tmp_path, ray_session):
    """Searchers opened at ANY point while the eager merge pipeline is
    publishing must see exactly the full corpus — publishes are atomic
    split-set swaps, never a window where a replaced split is gone but
    its replacement isn't visible. A background thread hammers fresh
    IndexSearcher opens + count queries during the whole pipeline."""
    import threading

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.index.merge import run_merge_pipeline
    from quickwit_ray.state.manifest import Manifest

    n = 3000
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": [f"probe word{i % 7} tail" for i in range(n)]})
    inp = str(tmp_path / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("text",))
    config = IndexConfig(
        "livemerge", mapping,
        settings=IndexSettings(
            split_num_docs_target=100_000, commit_docs_threshold=150,
            merge_policy=MergePolicyConfig(merge_factor=3,
                                           max_merge_factor=4,
                                           min_level_num_docs=2000)))
    d = str(tmp_path / "idx")
    build_index(inp, d, config, execution="local", read_batch_size=150)
    assert len(Manifest(d).published_splits()) == 20

    errors: list = []
    observed: list[int] = []
    stop = threading.Event()

    def hammer():
        try:
            while not stop.is_set():
                s = IndexSearcher(d)  # fresh manifest read every time
                got = s.search("text:probe", max_hits=0).num_hits
                observed.append(got)
        except Exception as e:  # pragma: no cover - surfaced below
            errors.append(e)

    t = threading.Thread(target=hammer, daemon=True)
    t.start()
    try:
        total = run_merge_pipeline(d, execution="ray")
    finally:
        stop.set()
        t.join()
    assert not errors, errors[0]
    assert total >= 6
    assert len(observed) > 5
    # every snapshot — before, during, and after every publish — counts
    # the whole corpus exactly once
    assert set(observed) == {n}
    assert len(Manifest(d).published_splits()) < 20


def test_byte_budgeted_refill_identical_and_bounded(tmp_path):
    """Round-5 merge-memory fix: the per-window byte budget
    (REFILL_TARGET_RAW_BYTES) is a pure scheduling change — a tiny
    budget (many windows, 1-rg refills) produces byte-identical
    artifacts to the one-window merge — and every refill decodes at
    most max(budget, one row group)."""
    import hashlib
    import os
    import shutil

    from quickwit_ray.config import DocMapping, FieldMapping
    from quickwit_ray.index import merge as merge_mod
    from quickwit_ray.index.merge import _SplitPostingsStream, execute_merge
    from quickwit_ray.state.manifest import Manifest

    rng = np.random.default_rng(7)
    indir = tmp_path / "in"
    indir.mkdir()
    vocab = [f"w{i:05d}" for i in range(6000)]
    for fi in range(3):
        texts = [" ".join(rng.choice(vocab, size=12, replace=False))
                 for _ in range(250)]
        pq.write_table(pa.table({
            "doc_id": pa.array(range(fi * 250, fi * 250 + 250), pa.int64()),
            "body": texts}), str(indir / f"f{fi}.parquet"))
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        doc_id_field="doc_id", default_search_fields=("body",))
    d = str(tmp_path / "idx")
    build_index(str(indir), d, IndexConfig("bb", mapping), execution="local")
    sids = [sp.split_id for sp in Manifest(d).published_splits()]

    def merged_digest():
        sm = execute_merge(d, sids, "bb", 1)
        sd = os.path.join(d, "splits", sm.split_id)
        h = hashlib.sha1()
        for f in sorted(os.listdir(sd)):
            with open(os.path.join(sd, f), "rb") as fh:
                h.update(f.encode())
                h.update(fh.read())
        shutil.rmtree(sd)
        return h.hexdigest()

    one_window = merged_digest()  # small-merge fast path
    old_rows = merge_mod.SMALL_MERGE_DICT_ROWS
    old_budget = merge_mod.REFILL_TARGET_RAW_BYTES
    old_floor = merge_mod.REFILL_MIN_STREAM_BYTES
    merge_mod.SMALL_MERGE_DICT_ROWS = 0      # force the streaming path
    merge_mod.REFILL_TARGET_RAW_BYTES = 48 << 10  # tiny: 1-rg refills
    merge_mod.REFILL_MIN_STREAM_BYTES = 1 << 10   # floor must not undo it
    try:
        budgeted = merged_digest()
    finally:
        merge_mod.SMALL_MERGE_DICT_ROWS = old_rows
        merge_mod.REFILL_TARGET_RAW_BYTES = old_budget
        merge_mod.REFILL_MIN_STREAM_BYTES = old_floor
    assert budgeted == one_window

    # stream-level bound: every refill's decoded buffer fits the budget
    # or is exactly one row group (the floor)
    split_dir = os.path.join(d, "splits", sids[0])
    budget = 32 << 10
    s = _SplitPostingsStream(split_dir, 0, 0, refill_bytes=budget)
    n_refills = 0
    while True:
        s.ensure_loaded()
        if s._buf is None:
            break
        n_refills += 1
        rows = s._buf.num_rows
        assert s._buf.nbytes <= 4 * budget or rows <= 2048, \
            (s._buf.nbytes, rows)
        s._consumed = rows
        s._buf = None
    assert n_refills >= 2  # the budget actually split the file
