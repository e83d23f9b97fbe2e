"""The build behind the contract's `shuffle_build_search`: `build_index`
run as Ray tasks writes splits byte-identical to an in-process build of
the same file."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from quickwit_ray.config import (
    DocMapping,
    FieldMapping,
    IndexConfig,
    IndexSettings,
    documents_doc_mapping,
    events_doc_mapping,
)
from quickwit_ray.index.build import build_index
from quickwit_ray.search.engine import IndexSearcher
from quickwit_ray.state.manifest import Manifest

SF = "/root/testdata/sf0.001"
DOCS = f"{SF}/documents.parquet"
# thresholds above every input's row count: one split per file
ONE_SPLIT = IndexSettings(split_num_docs_target=10_000_000,
                          commit_docs_threshold=10_000_000)


def _dynamic_input(tmp) -> tuple[str, DocMapping]:
    """Dynamic mapping over a struct column, a list-of-strings column and
    a concatenate field, spread over several read batches."""
    n = 300
    path = str(tmp / "dynamic.parquet")
    pq.write_table(pa.table({
        "id": pa.array(range(n), pa.int64()),
        "title": [f"title {i % 7} alpha" for i in range(n)],
        "meta": pa.array([{"author": f"auth{i % 5}", "score": i}
                          for i in range(n)]),
        "tags": [[f"t{i % 3}", f"x y{i % 4}"] for i in range(n)],
        "body": [None if i % 11 == 0 else f"body words {i} beta"
                 for i in range(n)],
    }), path, row_group_size=100)
    mapping = DocMapping(field_mappings=(
        FieldMapping(name="id", type="i64", fast=True),
        FieldMapping(name="title", type="text", record="position",
                     fieldnorms=True),
        FieldMapping(name="all", type="text", record="position",
                     fieldnorms=True, stored=False,
                     sources=("title", "body")),
    ), mode="dynamic", doc_id_field="id")
    return path, mapping


@pytest.fixture(scope="module", params=["documents", "events", "dynamic"])
def both_builds(request, tmp_path_factory, ray_session):
    """(input kind, in-process index dir, Ray-built index dir) over one
    file."""
    tmp = tmp_path_factory.mktemp(f"shuf-{request.param}")
    if request.param == "documents":
        path, mapping = DOCS, documents_doc_mapping()
    elif request.param == "events":
        path, mapping = f"{SF}/events.parquet", events_doc_mapping()
    else:
        path, mapping = _dynamic_input(tmp)
    cfg = IndexConfig(request.param, mapping, ONE_SPLIT)
    local, on_ray = str(tmp / "local"), str(tmp / "ray")
    # 128-row batches: several read batches per file
    build_index(path, local, cfg, execution="local", read_batch_size=128)
    st = build_index(path, on_ray, cfg, execution="ray",
                     read_batch_size=128)
    assert st.num_docs == pq.ParquetFile(path).metadata.num_rows
    assert st.num_splits == 1
    return request.param, local, on_ray


def _only_split(index_dir):
    (sm,) = Manifest(index_dir).published_splits()
    return sm, os.path.join(index_dir, "splits", sm.split_id)


def test_split_byte_identical(both_builds):
    (sm_d, dir_d), (sm_s, dir_s) = map(_only_split, both_builds[1:])
    names = sorted(os.listdir(dir_d))
    assert names == sorted(os.listdir(dir_s))
    assert "footer.json" in names
    for name in names:
        with open(os.path.join(dir_d, name), "rb") as a, \
                open(os.path.join(dir_s, name), "rb") as b:
            assert a.read() == b.read(), name
    meta_d, meta_s = sm_d.to_json(), sm_s.to_json()
    meta_d.pop("create_timestamp")
    meta_s.pop("create_timestamp")
    assert meta_d == meta_s
    assert sm_s.uncompressed_docs_size_in_bytes > 0


# per input: (query, hits) that both builds must answer alike; the
# dynamic ones hit a struct child, a list element and a concatenate field
EXPECTED_HITS = {
    "documents": [("text:scan", 405), ('text:"table scan"', 33)],
    "events": [("props.k:87", 12), ("event_type:click", 210)],
    "dynamic": [("meta.author:auth3", 60), ("tags:y2", 75),
                ("all:beta", 272), ("all:alpha", 300)],
}


def test_hits_on_both_builds(both_builds):
    kind, *dirs = both_builds
    for index_dir in dirs:
        s = IndexSearcher(index_dir)
        for q, hits in EXPECTED_HITS[kind]:
            assert s.search(q, max_hits=0).num_hits == hits, (index_dir, q)


QUERIES = ["text:scan", "+text:scan +text:merge", "text:scan -text:merge",
           'text:"table scan"', "lang: IN [de fr]", "n_chars:[500 TO 900}",
           "text:mer*"]


@pytest.fixture(scope="module")
def documents_builds(tmp_path_factory, ray_session):
    tmp = tmp_path_factory.mktemp("shufidx")
    cfg = IndexConfig("documents", documents_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000))
    local, on_ray = str(tmp / "local"), str(tmp / "ray")
    build_index(DOCS, local, cfg, execution="local")
    st = build_index(DOCS, on_ray, cfg, execution="ray")
    assert st.num_docs == 500 and st.num_splits == 1
    return local, on_ray


def test_counts_identical(documents_builds):
    d, s = documents_builds
    sd, ss = IndexSearcher(d), IndexSearcher(s)
    for q in QUERIES:
        assert sd.search(q, max_hits=0).num_hits == ss.search(q, max_hits=0).num_hits, q


def test_bm25_scores_identical(documents_builds):
    d, s = documents_builds
    sd, ss = IndexSearcher(d), IndexSearcher(s)
    for q in ["text:scan", "text:scan OR text:merge", 'text:"table scan"']:
        hd = sd.search(q, max_hits=25, sort_by="_score", fetch_fields=[]).hits
        hs = ss.search(q, max_hits=25, sort_by="_score", fetch_fields=[]).hits
        assert list(hd["_doc_id"]) == list(hs["_doc_id"]), q
        assert np.allclose(hd["sort_key0"], hs["sort_key0"], rtol=0, atol=0), q


def test_shuffle_resume_noop(documents_builds):
    _, s = documents_builds
    cfg = IndexConfig("documents", documents_doc_mapping(),
                      IndexSettings(split_num_docs_target=10_000))
    st = build_index(DOCS, s, cfg, execution="ray")
    assert st.num_docs == 0  # checkpointed partition skipped


def test_merge_keeps_field_caps_of_ray_built_split(tmp_path, ray_session):
    """A merge over one in-process and one Ray-built split writes the
    same field-caps metadata as a merge over two in-process splits."""
    from quickwit_ray.config import MergePolicyConfig
    from quickwit_ray.index.merge import run_merge_pipeline

    tbl = pq.read_table(DOCS)
    halves = [str(tmp_path / f"half{i}.parquet") for i in range(2)]
    pq.write_table(tbl.slice(0, 250), halves[0])
    pq.write_table(tbl.slice(250), halves[1])
    cfg = IndexConfig("documents", documents_doc_mapping(), IndexSettings(
        split_num_docs_target=10_000_000,
        merge_policy=MergePolicyConfig(merge_factor=2, max_merge_factor=2,
                                       min_level_num_docs=1000)))
    merged_fields = []
    for second_build in ("local", "ray"):
        d = str(tmp_path / second_build)
        build_index(halves[0], d, cfg, execution="local")
        build_index(halves[1], d, cfg, execution=second_build)
        assert run_merge_pipeline(d, execution="local") == 1
        sm, split_dir = _only_split(d)
        assert sm.num_docs == 500
        with open(os.path.join(split_dir, "footer.json")) as f:
            merged_fields.append(json.load(f)["fields"])
    assert merged_fields[0] and merged_fields[0] == merged_fields[1]
