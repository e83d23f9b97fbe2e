"""Cross-component soak: one index under SIMULTANEOUS ingest, merge,
janitor (retention + GC), delete tasks and a search hammer — the
all-services-on shape a production node runs in. Every concurrently
observed snapshot must be consistent: a search sees some prefix of the
committed ingest waves, never a torn split, never a count outside the
committed set, and the final state is exact.

This composes the pairwise concurrency guarantees proven elsewhere
(live-merge snapshot isolation, janitor-vs-search, object-manifest
writer lock) into one run over the file-backend manifest."""

import threading
import time

import pytest

from quickwit_ray.api import Index
from quickwit_ray.config import (
    DocMapping,
    FieldMapping,
    IndexSettings,
    MergePolicyConfig,
)
from quickwit_ray.index.merge import run_merge_pipeline
from quickwit_ray.search.engine import IndexSearcher

WAVES = 12
DOCS_PER_WAVE = 120


def _mapping() -> DocMapping:
    return DocMapping(
        field_mappings=(
            FieldMapping(name="msg", type="text", record="freq",
                         fieldnorms=True, stored=True),
            FieldMapping(name="wave", type="i64", stored=True, fast=True),
            FieldMapping(name="ts", type="datetime", fast=True),
        ),
        timestamp_field="ts", doc_id_field=None,
        default_search_fields=("msg",))


@pytest.mark.parametrize("backend", ["file", "sqlite", "object"])
def test_soak_ingest_merge_janitor_search(tmp_path, ray_session, backend):
    import uuid

    from quickwit_ray.janitor import Janitor

    now = time.time()
    if backend == "object":
        root = f"mock-s3://soak-{uuid.uuid4().hex[:10]}/indexes/soak"
    else:
        root = str(tmp_path / "soak")
    idx = Index.create(
        root, "soak", _mapping(),
        metastore="sqlite" if backend == "sqlite" else "file",
        settings=IndexSettings(
            split_num_docs_target=100_000,
            retention_secs=30 * 24 * 3600,  # far future: nothing expires
            merge_policy=MergePolicyConfig(merge_factor=3,
                                           max_merge_factor=4,
                                           min_level_num_docs=10_000)))

    committed = []          # waves whose publish returned (happens-before)
    errors: list = []
    observed: list[tuple[int, int]] = []  # (hits, committed_at_query_time)
    stop = threading.Event()

    def ingester():
        try:
            for w in range(WAVES):
                docs = [{"msg": f"soak probe wave{w} doc{i}",
                         "wave": w, "ts": now - (w % 3) * 60}
                        for i in range(DOCS_PER_WAVE)]
                idx.ingest_docs(docs, commit_id=f"w{w}")
                committed.append(w)
                time.sleep(0.02)
        except Exception as e:
            errors.append(("ingest", e))

    def merger():
        try:
            while not stop.is_set():
                run_merge_pipeline(idx.index_dir, execution="local",
                                   max_rounds=2)
                time.sleep(0.05)
        except Exception as e:
            errors.append(("merge", e))

    def deleter():
        # delete task targeting ZERO docs: exercises the delete-at-merge
        # machinery concurrently without changing expected counts
        try:
            while not stop.is_set():
                idx.create_delete_task("msg:nonexistenttoken")
                idx.apply_deletes()
                time.sleep(0.15)
        except Exception as e:
            errors.append(("delete", e))

    def searcher():
        try:
            while not stop.is_set():
                lo = len(committed)  # waves committed BEFORE the query
                n = IndexSearcher(idx.index_dir).search(
                    "msg:probe", max_hits=0).num_hits
                observed.append((n, lo))
        except Exception as e:
            errors.append(("search", e))

    janitor = Janitor(lambda: [idx.index_dir], period_secs=0.1,
                      grace_period_secs=3600).start()
    threads = [threading.Thread(target=f, daemon=True)
               for f in (ingester, merger, deleter, searcher)]
    for t in threads:
        t.start()
    threads[0].join(timeout=120)  # ingester finishes all waves
    time.sleep(0.3)               # let the others observe the final state
    stop.set()
    for t in threads[1:]:
        t.join(timeout=30)
    janitor.stop()

    assert not errors, errors[0]
    assert len(committed) == WAVES

    # every concurrent snapshot: full waves only (no torn split), at
    # least the waves committed before the query, at most all of them
    assert len(observed) > 10
    for n, lo in observed:
        assert n % DOCS_PER_WAVE == 0, f"torn snapshot: {n}"
        assert lo * DOCS_PER_WAVE <= n <= WAVES * DOCS_PER_WAVE

    # final state exact, across every component having run
    s = IndexSearcher(idx.index_dir)
    assert s.search("msg:probe", max_hits=0).num_hits == \
        WAVES * DOCS_PER_WAVE
    per_wave = s.search("*", max_hits=0, aggs={
        "w": {"terms": {"field": "wave", "size": 50}}}).aggs
    buckets = {b["key"]: b["doc_count"] for b in per_wave["w"]["buckets"]}
    assert buckets == {float(w): DOCS_PER_WAVE for w in range(WAVES)}
    assert janitor.cycles >= 2


def test_gc_spares_an_upload_before_its_first_object(monkeypatch):
    """A mock-s3 PUT makes its prefix's directory and only then opens its
    temp object. GC running in between sees a split prefix that lists no
    objects; it must leave the prefix alone (the soak's ``[object]`` run
    failed with FileNotFoundError when it did not). The temp name is
    drawn between the two steps, which is where this test runs GC."""
    import uuid

    from quickwit_ray import storage
    from quickwit_ray.index.build import garbage_collect

    root = f"mock-s3://gcwin-{uuid.uuid4().hex[:10]}/indexes/gc"
    Index.create(root, "gc", _mapping())
    ran = []

    class GcInWindow:
        def uuid4(self):
            monkeypatch.setattr(storage, "uuid", uuid)
            ran.append(garbage_collect(root, grace_period_secs=60))
            return uuid.uuid4()

    monkeypatch.setattr(storage, "uuid", GcInWindow())
    fs, p = storage.get_fs(root + "/splits/in-flight/postings.parquet")
    with fs.open_output_stream(p) as out:
        out.write(b"x")
    assert ran == [[]]
    assert storage.listdir(root + "/splits") == ["in-flight"]
