"""One SplitReader is shared by every request on its split (HTTP handler
threads, the leaf pool): its cache must load, count and evict exactly
under concurrent use."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from quickwit_ray.api import Index
from quickwit_ray.config import DocMapping, FieldMapping, IndexSettings
from quickwit_ray.index import format as fmt

BUDGET = 64 << 10


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    """One split with positions, fieldnorms, fast fields and a hotcache
    (two terms in every doc, df above HOT_DF_THRESHOLD)."""
    import os

    from quickwit_ray.state.manifest import Manifest

    d = str(tmp_path_factory.mktemp("splitcache") / "i")
    mapping = DocMapping(
        field_mappings=(
            FieldMapping(name="body", type="text", record="position",
                         fieldnorms=True),
            FieldMapping(name="doc_id", type="i64", fast=True, stored=True),
            FieldMapping(name="ts", type="datetime", fast=True)),
        doc_id_field="doc_id", timestamp_field="ts",
        default_search_fields=("body",))
    idx = Index.create(d, "sc", mapping,
                       settings=IndexSettings(split_num_docs_target=100_000))
    rng = np.random.RandomState(3)
    n = fmt.HOT_DF_THRESHOLD + 600
    idx.ingest_docs([
        {"body": "common often " + " ".join(
            f"w{rng.randint(0, 6000)}" for _ in range(rng.randint(4, 12))),
         "doc_id": i, "ts": 1_700_000_000 + i} for i in range(n)],
        commit_id="a")
    (sm,) = Manifest(d).published_splits()
    return os.path.join(d, "splits", sm.split_id)


def test_cache_bytes_match_under_concurrent_loads(split_dir, monkeypatch):
    """8 threads churn posting and positions row groups, hotcache entries,
    fast fields and fieldnorms on one reader whose byte budget holds less
    than one posting row group. Nothing raises, every list decodes as on
    a private reader, retained_bytes equals the open-time base plus the
    bytes the cache holds, and the evictable entries fit the budget."""
    monkeypatch.setattr(fmt, "SPLIT_CACHE_BYTES", BUDGET)
    reader = fmt.SplitReader(split_dir)
    base = reader.retained_bytes
    at_open = {k for k, _, _ in reader._cache.entries()}
    hot = reader.term_rows("body", ["common", "often"])
    assert (hot >= 0).all()
    rows = np.unique(np.concatenate([
        np.random.default_rng(0).choice(len(reader.df), 200), hot]))
    assert len(set(rows // fmt.TERMS_PER_ROW_GROUP)) > 1
    private = fmt.SplitReader(split_dir)
    want = {int(r): private.read_postings([r], with_positions=True)[r]
            for r in rows}

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(150):
            r = int(rows[rng.integers(len(rows))])
            op = int(rng.integers(5))
            if op == 0:
                pos = bool(rng.integers(2))
                got = reader.read_postings([r], with_positions=pos)[r]
                for k in got:
                    assert (got[k] == want[r][k]).all(), (r, k)
            elif op == 1:
                h = int(hot[rng.integers(len(hot))])
                assert reader.hot_entry(h)["df"] == reader.df[h]
            elif op == 2:
                assert len(reader.fast_field("ts")) == reader.num_docs
                assert reader.fast_field_valid("doc_id").all()
                assert len(reader.fast_field_arrow("doc_id")) \
                    == reader.num_docs
            elif op == 3:
                assert len(reader.fieldnorm_ids("body")) == reader.num_docs
            else:
                docs, _ = reader.read_postings_selected(
                    r, want[r]["doc_ids"][::7])
                assert np.isin(want[r]["doc_ids"][::7], docs).all()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(8) as ex:
            list(ex.map(work, range(8), timeout=300))
    finally:
        sys.setswitchinterval(switch)
    ents = reader._cache.entries()
    assert reader.retained_bytes == base + sum(
        n for k, _, n in ents if k not in at_open)
    rgs = [(k, v, n) for k, v, n in ents if k[0] in ("postings", "pos")]
    for k, v, n in rgs:
        assert n == sum(o.nbytes + d.nbytes for o, d in v.values()), k
    assert len(rgs) == 1 or sum(n for *_, n in rgs) <= BUDGET
    assert {("hot", int(h)) for h in hot} <= {k for k, _, _ in ents}
    # the row groups churned through the budget many times over
    assert reader.bytes_read - base > 8 * BUDGET
