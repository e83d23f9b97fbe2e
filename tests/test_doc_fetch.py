"""Doc fetch on the serving hot path: SplitReader.fetch_docs keeps the
decoded doc-store blocks it reads, so it must stay equal to a full
doc-store read on a cold and on a warm reader; the process-wide reader
cache must not keep readers of splits the manifest no longer
publishes."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quickwit_ray.api import Index
from quickwit_ray.config import (DocMapping, FieldMapping, IndexSettings,
                                 MergePolicyConfig, documents_doc_mapping)
from quickwit_ray.index import format as format_mod
from quickwit_ray.index.format import SplitReader
from quickwit_ray.search import engine
from quickwit_ray.search.es_rest import EsRestService
from quickwit_ray.state.manifest import Manifest

COLS = ["doc_id", "body", "html", "lang", "extra", "extra_n"]


def _push(idx, n, start, seed, *, fat_body=True, extra=None):
    """One pushed split: a fat (blob-stored) or thin body with nulls
    whose Arrow extents are nonzero, a non-UTF-8 binary payload column
    with nulls, and optional dynamic columns other pushes lack."""
    rng = np.random.default_rng(seed)
    words = ["alpha", "beta", "gamma", "delta"]
    body = pa.array([
        " ".join(rng.choice(words, 80 if fat_body else 3)) + f" d{start + i}"
        for i in range(n)])
    keep = pa.array(rng.random(n) > 0.2)
    cols = {
        "doc_id": pa.array(np.arange(start, start + n), pa.int64()),
        "body": pc.if_else(keep, body, None),
        "html": pc.if_else(keep, pa.array(
            [bytes(rng.integers(0, 256, 300, dtype=np.uint8))
             for _ in range(n)], pa.binary()), None),
        "lang": pa.array(["en" if i % 3 else "de" for i in range(n)]),
    }
    if extra == "str":
        cols["extra"] = pa.array([f"x{i}" for i in range(n)])
    elif extra == "int":
        cols["extra_n"] = pa.array(np.arange(n) * 7, pa.int64())
    idx.ingest_docs(pa.table(cols), commit_id=f"c{start}")


def _mapping():
    return DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", stored=True),
            FieldMapping(name="html", type="bytes", indexed=False,
                         stored=True),
            FieldMapping(name="lang", type="text", tokenizer="raw",
                         stored=True, fast=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True)),
        mode="dynamic", doc_id_field="doc_id",
        default_search_fields=("body",))


@pytest.fixture(scope="module")
def merged_split(tmp_path_factory):
    """A merged split stacking three pushed doc stores: body blob-stored
    in two units and inline in the third, columns only some units have."""
    d = str(tmp_path_factory.mktemp("fetch") / "idx")
    idx = Index.create(d, "fetch", _mapping(), IndexSettings(
        merge_policy=MergePolicyConfig(merge_factor=3, max_merge_factor=3)))
    _push(idx, 70, 0, 1, extra="str")
    _push(idx, 45, 70, 2)
    _push(idx, 30, 115, 3, fat_body=False, extra="int")
    assert idx.merge() == 1
    (sp,) = Manifest(d).published_splits()
    sd = os.path.join(d, "splits", sp.split_id)
    units = SplitReader(sd).docstore_units()
    assert len(units) == 3
    blobbed = [{b["column"] for b in u["blobs"]} for u in units]
    assert sorted("body" in b for b in blobbed) == [False, True, True]
    assert all("html" in b for b in blobbed)
    return sd, sp.num_docs


_WARM: dict = {}


@given(ids=st.lists(st.integers(0, 1 << 16), max_size=40),
       cols=st.lists(st.sampled_from(COLS), min_size=1,
                     max_size=len(COLS), unique=True),
       not_stored=st.booleans())
# a dynamic column only the first unit stores
@example(ids=[0, 69, 70, 114, 115, 144], cols=["extra"], not_stored=False)
@settings(max_examples=60, deadline=None)
def test_fetch_docs_equals_docstore_take(merged_split, ids, cols,
                                         not_stored):
    sd, n = merged_split
    ids = np.asarray(ids, np.int64) % n
    if not_stored:
        cols = cols + ["not_stored"]
    full = SplitReader(sd).read_docstore_table()
    full = full.select([c for c in cols if c in full.column_names])
    want = {c: full[c].take(pa.array(ids, pa.int64())).to_pylist()
            for c in full.column_names}
    cold = SplitReader(sd)
    warm = _WARM.setdefault(sd, SplitReader(sd))
    for reader in (cold, cold, warm):
        got = reader.fetch_docs(ids, cols)
        assert got.num_rows == len(ids)
        assert {c: got[c].to_pylist() for c in got.column_names} == want


def test_fetch_docs_keeps_decoded_blocks(merged_split):
    sd, n = merged_split
    r = SplitReader(sd)
    ids = np.array([3, 140, 71, 3])
    first = r.fetch_docs(ids, ["body", "html", "doc_id"])
    held, read = r.retained_bytes, r.bytes_read
    assert r.fetch_docs(ids, ["body", "html", "doc_id"]).equals(first)
    # the repeat decoded nothing; the kept blocks count as retained
    assert (r.retained_bytes, r.bytes_read) == (held, read)
    assert held > SplitReader(sd).retained_bytes


def test_kept_blocks_stay_under_the_cap(tmp_path, monkeypatch):
    """Fetching across every row group and blob frame of a split keeps
    at most SPLIT_CACHE_BYTES of decoded blocks on the reader:
    the least recently used ones are dropped, the answers stay exact."""
    monkeypatch.setattr(format_mod, "DOCSTORE_RG_MAX_ROWS", 64)
    d = str(tmp_path / "i")
    _push(Index.create(d, "cap", _mapping()), 1500, 0, 5)
    (sp,) = Manifest(d).published_splits()
    sd = os.path.join(d, "splits", sp.split_id)
    (unit,) = SplitReader(sd).docstore_units()
    assert {b["column"] for b in unit["blobs"]} == {"body", "html"}
    cap = 128 << 10
    monkeypatch.setattr(format_mod, "SPLIT_CACHE_BYTES", cap)
    cols = ["doc_id", "lang", "body", "html"]
    full = SplitReader(sd).read_docstore_table().select(cols)
    r = SplitReader(sd)
    base = r.retained_bytes
    for lo in range(0, 1500, 50):
        ids = np.arange(lo, lo + 50)[::-1]
        assert r.fetch_docs(ids, cols).equals(full.take(pa.array(ids)))
        assert r.retained_bytes - base <= cap
    rgs = pq.ParquetFile(unit["parquet"]).metadata.num_row_groups
    assert rgs > 16 and r.bytes_read > 4 * cap
    # the most recent blocks are still served without a decode
    read = r.bytes_read
    r.fetch_docs(np.array([1499, 1460]), cols)
    assert r.bytes_read == read


def _doc(i, text):
    return {"doc_id": i, "text": text, "lang": "en", "source": "w",
            "n_chars": len(text)}


def test_rebuilt_split_renders_new_source(tmp_path):
    """clear() + re-ingest under the same commit id rebuilds the same
    split dir: `_source` must show the new docs, never blocks cached
    from the old build."""
    idx = Index.create(str(tmp_path / "i"), "docs", documents_doc_mapping())
    svc = EsRestService({"docs": idx})
    body = {"query": {"match": {"text": "corpus"}}, "size": 5}
    idx.ingest_docs([_doc(1, "old corpus doc " + "o" * 400),
                     _doc(2, "old corpus two")], commit_id="c")
    st_, out = svc.request("POST", "docs/_search", {}, body)
    assert st_ == 200
    assert sorted(h["_source"]["text"][:3] for h in out["hits"]["hits"]) \
        == ["old", "old"]
    idx.clear()
    idx.ingest_docs([_doc(1, "new corpus doc " + "n" * 400),
                     _doc(2, "new corpus two")], commit_id="c")
    st_, out = svc.request("POST", "docs/_search", {}, body)
    assert st_ == 200
    assert sorted(h["_source"]["text"][:3] for h in out["hits"]["hits"]) \
        == ["new", "new"]


def test_fetch_joins_splits_that_type_a_field_differently(tmp_path):
    """Dynamic mode infers each push's column types, so one field can be
    an int in one split and a string in another: the hits of both still
    render, each with its own value."""
    mapping = DocMapping(field_mappings=(
        FieldMapping(name="body", type="text", stored=True),),
        mode="dynamic", default_search_fields=("body",))
    idx = Index.create(str(tmp_path / "i"), "dyn", mapping)
    idx.ingest_docs([{"body": "shared word", "x": 7}], commit_id="a")
    idx.ingest_docs([{"body": "shared word", "x": "seven"}], commit_id="b")
    hits = idx.search("body:shared", max_hits=5).hits
    assert sorted(map(str, hits["x"])) == ["7", "seven"]


def test_reader_cache_drops_unpublished_splits(tmp_path):
    """After a merge publish, the next searcher build drops the cached
    readers of the merged-away splits: one search later the reader
    cache holds readers of published splits only."""
    d = str(tmp_path / "i")
    idx = Index.create(d, "docs", documents_doc_mapping(), IndexSettings(
        merge_policy=MergePolicyConfig(merge_factor=3, max_merge_factor=3)))
    for c in range(3):
        idx.ingest_docs([_doc(10 * c + i, f"corpus doc {c} {i}")
                         for i in range(5)], commit_id=f"c{c}")
    splits_dir = os.path.join(d, "splits")
    assert idx.search("text:corpus", max_hits=20).num_hits == 15
    cached = [k for k in engine._GLOBAL_READER_CACHE._cache
              if os.path.dirname(k) == splits_dir]
    assert len(cached) == 3
    assert idx.merge() == 1
    assert idx.search("text:corpus", max_hits=20).num_hits == 15
    published = {os.path.join(splits_dir, s.split_id)
                 for s in Manifest(d).published_splits()}
    cached = {k for k in engine._GLOBAL_READER_CACHE._cache
              if os.path.dirname(k) == splits_dir}
    assert cached == published and len(published) == 1
