"""The leaf planner's choice of scorer, pinned per request shape: a bare
scored match on one text field goes to a pruned scorer (Block-Max for
one term, MaxScore for several `or` terms); every other shape goes to
the full evaluator."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from quickwit_ray.config import DocMapping, FieldMapping, IndexConfig
from quickwit_ray.index.build import build_index
from quickwit_ray.search import engine
from quickwit_ray.search.ast import FullTextQuery, SearchRequest, SortField
from quickwit_ray.search.split_search import SplitSearcher
from quickwit_ray.state.manifest import Manifest

BASE_TS = 1_700_000_000_000_000
SCORE = (SortField("_score", "desc"),)
AGGS = {"l": {"terms": {"field": "lang"}}}


@pytest.fixture(scope="module")
def one_split(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("planner")
    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "pad"]
    n = 400
    tbl = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "body": [" ".join(rng.choice(words, int(rng.integers(2, 9))))
                 for _ in range(n)],
        "lang": [["en", "de", "fr"][i % 3] for i in range(n)],
        "n": pa.array(rng.integers(0, 50, n), pa.int64()),
        "ts": pa.array([BASE_TS + i * 1_000_000 for i in range(n)],
                       pa.timestamp("us")),
        "attrs": [json.dumps({"k": "alpha beta"}) for _ in range(n)],
    })
    inp = str(tmp / "in.parquet")
    pq.write_table(tbl, inp)
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="lang", type="text", tokenizer="raw",
                         fast=True),
            FieldMapping(name="n", type="i64", fast=True),
            FieldMapping(name="ts", type="datetime", fast=True),
            FieldMapping(name="attrs", type="json", record="freq",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", fast=True)),
        timestamp_field="ts", doc_id_field="doc_id",
        default_search_fields=("body",))
    d = str(tmp / "idx")
    build_index(inp, d, IndexConfig("planner", mapping), execution="local")
    splits = Manifest(d).published_splits()
    assert len(splits) == 1
    return os.path.join(d, "splits", splits[0].split_id), mapping


def _req(query, **kw):
    kw.setdefault("sort_fields", SCORE)
    return SearchRequest(query=query, max_hits=10, **kw)


def _q(text, mode="or", field="body"):
    return FullTextQuery(field, text, mode=mode)


SHAPES = [
    ("one term", _req(_q("alpha")), "blockmax"),
    ("and, one term", _req(_q("alpha", "and")), "blockmax"),
    ("or, two terms", _req(_q("alpha beta")), "or_pruned"),
    ("or, three terms", _req(_q("alpha beta gamma")), "or_pruned"),
    ("or terms, aggs", _req(_q("alpha beta"), aggs=AGGS), "or_pruned"),
    ("one term, aggs", _req(_q("alpha"), aggs=AGGS), "full"),
    ("and, two terms", _req(_q("alpha beta", "and")), "full"),
    ("timestamp window", _req(_q("alpha"), timestamp_field="ts",
                              start_timestamp=BASE_TS,
                              end_timestamp=BASE_TS + 10**8), "full"),
    ("or terms, timestamp window",
     _req(_q("alpha beta"), timestamp_field="ts", start_timestamp=BASE_TS,
          end_timestamp=BASE_TS + 10**8), "full"),
    ("search_after", _req(_q("alpha"), search_after=(1.0, 0.0)), "full"),
    ("+_score", _req(_q("alpha"), sort_fields=(SortField("_score", "asc"),)),
     "full"),
    ("_score plus a second key",
     _req(_q("alpha beta"), sort_fields=SCORE + (SortField("n", "desc"),)),
     "full"),
    ("fast-field sort", _req(_q("alpha"), sort_fields=(SortField("n"),)),
     "full"),
    ("no sort", _req(_q("alpha"), sort_fields=()), "full"),
    ("json path", _req(_q("alpha", field="attrs.k")), "full"),
    ("json path, or terms", _req(_q("alpha beta", field="attrs.k")), "full"),
    ("non-text field", _req(_q("5", field="n")), "full"),
    ("phrase", _req(_q("alpha beta", "phrase")), "full"),
]


@pytest.mark.parametrize("name,request_,expected", SHAPES,
                         ids=[s[0] for s in SHAPES])
def test_planner_picks_heads_scorer(one_split, monkeypatch, name, request_,
                                    expected):
    split_dir, mapping = one_split
    calls = []
    for meth, tag in (("term_topk_blockmax", "blockmax"),
                      ("eval_or_topk_pruned", "or_pruned")):
        orig = getattr(SplitSearcher, meth)

        def counted(self, *a, _orig=orig, _tag=tag, **kw):
            calls.append(_tag)
            return _orig(self, *a, **kw)

        monkeypatch.setattr(SplitSearcher, meth, counted)
    out = engine._leaf_search_impl(split_dir, mapping, request_)
    assert calls == ([] if expected == "full" else [expected]), name
    assert out["num_hits"] > 0, name
