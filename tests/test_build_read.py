"""The parquet build reads every column its mapping needs: a field that
is indexed but neither stored nor fast is searchable after a
`build_index` exactly as after a push (`ingest_docs`) of the same rows."""

import json

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from quickwit_ray.api import Index
from quickwit_ray.config import (
    DocMapping,
    FieldMapping,
    IndexConfig,
    IndexSettings,
    pages_doc_mapping,
)
from quickwit_ray.index.build import build_index, read_batches
from quickwit_ray.search.engine import IndexSearcher

# the push carries JSON objects; the parquet file their JSON text (the
# form the build parses, as for the events table)
ROWS = [{"doc_id": 1, "body": "first doc", "n": 7, "props": {"k": "red"}},
        {"doc_id": 2, "body": "second doc", "n": 9, "props": {"k": "blue"}}]


def _mapping(field: FieldMapping, mode: str) -> DocMapping:
    return DocMapping(field_mappings=(
        FieldMapping(name="doc_id", type="i64", fast=True),
        FieldMapping(name="body", type="text"),
        field,
    ), mode=mode, doc_id_field="doc_id", default_search_fields=("body",))


def _hits(index_dir: str, query: str) -> tuple[int, list]:
    r = IndexSearcher(index_dir).search(query, max_hits=10,
                                        fetch_fields=["doc_id"])
    return r.num_hits, sorted(r.hits["doc_id"]) if len(r.hits) else []


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("field,queries", [
    (FieldMapping(name="n", type="i64", stored=False, fast=False),
     ["n:7", "n:9", "n:8"]),
    (FieldMapping(name="props", type="json", stored=False, fast=False),
     ["props.k:red", "props.k:blue", "props.k:green"]),
])
def test_indexed_only_field_built_like_push(tmp_path, field, queries, mode):
    name = field.name
    rows = [{"doc_id": r["doc_id"], "body": r["body"], name: r[name]}
            for r in ROWS]
    mapping = _mapping(field, mode)
    path = str(tmp_path / "in.parquet")
    pq.write_table(pa.Table.from_pylist(
        [{**r, name: json.dumps(r[name])} if field.type == "json" else r
         for r in rows]), path)
    built = str(tmp_path / "built")
    build_index(path, built, IndexConfig(index_id="b", doc_mapping=mapping),
                execution="local")
    pushed = Index.create(str(tmp_path / "pushed"), "p", mapping,
                          settings=IndexSettings(split_num_docs_target=100))
    pushed.ingest_docs(rows, commit_id="a")
    for q in queries:
        assert _hits(built, q) == _hits(pushed.index_dir, q), q
    assert _hits(pushed.index_dir, queries[0]) == (1, [ROWS[0]["doc_id"]])


def test_pages_projection_unchanged(tmp_path):
    """Every pages column is indexed text, stored or fast already, so the
    build (and `build_merge`) reads the same columns as before: every
    mapped column, and no unmapped one."""
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pa.table({
        "url": ["u1"], "warc_ts": pa.array([0], pa.timestamp("us")),
        "html": [b"<p>x</p>"], "text": ["hello"], "lang": ["en"],
        "extra": ["not mapped"]}), path)
    config = IndexConfig(index_id="pages", doc_mapping=pages_doc_mapping())
    (batch,) = read_batches(config, path, 1024)
    assert batch.column_names == ["url", "warc_ts", "html", "text", "lang"]
