"""Per-layer metrics from the spans of a traced run.

A layer's self time is its span's duration minus the part of that
interval its child spans cover. Every metric below is reported on every
workload; a layer the workload does not use reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import stats

# (name, unit): the per-layer metrics, in the order BENCHMARK.json lists
PER_LAYER = [
    ("server.handler_ms", "ms"),
    ("server.outside_handler_ms", "ms"),
    ("server.bulk_parse_ms", "ms"),
    ("search.root.resolve_ms", "ms"),
    ("search.root.searcher_builds", "1/100search"),
    ("search.root.splits_listed", "count"),
    ("search.root.splits_searched", "count"),
    ("search.root.self_ms", "ms"),
    ("search.root.fetch_ms", "ms"),
    ("search.leaf.calls", "count"),
    ("search.leaf.self_ms", "ms"),
    ("search.leaf.bytes_read", "B"),
    ("search.leaf_cache.hit_ratio", "ratio"),
    ("search.reader_cache.hit_ratio", "ratio"),
    ("search.permits.wait_ms", "ms"),
    ("search.aggs.merge_ms", "ms"),
    ("state.manifest.loads_per_op", "count"),
    ("state.manifest.loads_per_bulk", "count"),
    ("state.manifest.loads_per_search", "count"),
    ("state.manifest.load_ms", "ms"),
    ("state.manifest.load_ms_per_bulk", "ms"),
    ("state.manifest.publish_ms", "ms"),
    ("state.manifest.stale_replace", "count"),
    ("ingest.docs_to_table_ms", "ms"),
    ("writer.add_batch_ms", "ms"),
    ("writer.flush_ms", "ms"),
    ("writer.bytes_written", "B/doc"),
    ("tokenize.ms", "ms"),
    ("tokenize.tokens", "1/doc"),
    ("build.task_busy_s", "s"),
    ("build.idle_frac", "ratio"),
    ("build.publish_ms", "ms"),
    ("storage.finalize_ms", "ms"),
    ("storage.bytes_put", "B/doc"),
    ("merge.ops", "1/kdoc"),
    ("merge.op_ms", "ms"),
    ("merge.docs_rewritten", "1/doc"),
    ("merge.write_amp", "ratio"),
    ("janitor.merge_cycle_ms", "ms"),
    ("merge.stall_ratio", "ratio"),
    ("trace.spans_per_op", "count"),
]
UNITS = dict(PER_LAYER)


@dataclass
class Span:
    name: str
    t0: float
    t1: float
    parent: int
    kind: str | None      # kind of the request the span belongs to
    val: float
    self_s: float = 0.0

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _covered(t0: float, t1: float, intervals: list[tuple]) -> float:
    """Length of [t0, t1] covered by the union of `intervals`."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def flatten(dumps: list[dict]) -> list[Span]:
    out: list[Span] = []
    for d in dumps:
        base = len(out)
        kinds = {int(k): v for k, v in d.get("req_kind", {}).items()}
        for name, t0, t1, parent, req, val in d["spans"]:
            if t1 == 0.0:
                continue    # still open when the process dumped
            out.append(Span(name, t0, t1,
                            base + parent if parent >= 0 else -1,
                            kinds.get(req), val))
    children: dict[int, list[tuple]] = {}
    for s in out:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    for i, s in enumerate(out):
        s.self_s = s.dur - _covered(s.t0, s.t1, children.get(i, []))
    return out


def summarize(dumps: list[dict], requests: list[tuple], *, ops: int,
              docs_in: int, final_index_bytes: float = 0.0,
              build_passes: list[dict] | None = None,
              num_cpus: int = 1) -> dict:
    """`requests` are the client's (start, end, ms) search samples;
    `ops` the foreground ops of the run; `docs_in` docs it indexed."""
    spans = flatten(dumps)
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def get(name):
        return by.get(name, [])

    def mean_ms(name):
        xs = get(name)
        return 1000.0 * sum(s.dur for s in xs) / len(xs) if xs else 0.0

    def total(name, attr="val"):
        return sum(getattr(s, attr) for s in get(name))

    def per(x, n):
        return x / n if n else 0.0

    m = {name: 0.0 for name, _ in PER_LAYER}
    n_search = len(get("search.root"))
    handlers = get("server.handler")
    n_bulk = sum(1 for s in handlers if s.kind == "bulk")
    n_search_req = sum(1 for s in handlers if s.kind == "search")

    m["server.handler_ms"] = mean_ms("server.handler")
    # client latency the server's handler does not account for (socket,
    # TCP), matching each client search with the handler span inside it
    spans_in = sorted((s.t0, s.t1) for s in handlers)
    outside, j = [], 0
    for t0, t1, ms in sorted(requests):
        while j < len(spans_in) and spans_in[j][0] < t0:
            j += 1
        if j < len(spans_in) and spans_in[j][1] <= t1:
            outside.append(ms - 1000.0 * (spans_in[j][1] - spans_in[j][0]))
            j += 1
    m["server.outside_handler_ms"] = (stats.median(outside) if outside
                                      else 0.0)
    parse = []
    for i, s in enumerate(spans):
        if s.name == "server.es_bulk":
            ingest_s = sum(c.dur for c in spans
                           if c.parent == i and c.name == "ingest.ingest_docs")
            parse.append(s.dur - ingest_s)
    m["server.bulk_parse_ms"] = 1000.0 * stats.median(parse) if parse else 0.0
    m["search.root.resolve_ms"] = mean_ms("search.get_searcher")
    m["search.root.searcher_builds"] = 100.0 * per(
        len(get("search.searcher_build")), n_search)
    listed = [s.val for s in get("manifest.list_splits")
              if s.parent >= 0 and spans[s.parent].name == "search.root"]
    m["search.root.splits_listed"] = per(sum(listed), len(listed))
    m["search.root.splits_searched"] = per(total("search.execute"),
                                           len(get("search.execute")))
    m["search.root.self_ms"] = 1000.0 * per(total("search.root", "self_s"),
                                            n_search)
    m["search.root.fetch_ms"] = 1000.0 * per(
        sum(s.dur for s in get("search.fetch_docs")), n_search)
    m["search.leaf.calls"] = per(len(get("search.leaf")), n_search)
    m["search.leaf.self_ms"] = 1000.0 * per(total("search.leaf", "self_s"),
                                            len(get("search.leaf")))
    m["search.leaf.bytes_read"] = per(total("search.leaf"), n_search)
    hits = sum(d.get("leaf_cache_hits", 0) for d in dumps)
    misses = sum(d.get("leaf_cache_misses", 0) for d in dumps)
    m["search.leaf_cache.hit_ratio"] = per(hits, hits + misses)
    m["search.reader_cache.hit_ratio"] = per(total("search.reader_get"),
                                             len(get("search.reader_get")))
    m["search.permits.wait_ms"] = mean_ms("search.permit_wait")
    m["search.aggs.merge_ms"] = mean_ms("search.aggs_merge")

    loads = get("manifest.load")
    m["state.manifest.loads_per_op"] = per(len(loads), ops)
    m["state.manifest.loads_per_bulk"] = per(
        sum(1 for s in loads if s.kind == "bulk"), n_bulk)
    m["state.manifest.loads_per_search"] = per(
        sum(1 for s in loads if s.kind == "search"), n_search_req)
    m["state.manifest.load_ms"] = mean_ms("manifest.load")
    m["state.manifest.load_ms_per_bulk"] = 1000.0 * per(
        sum(s.dur for s in loads if s.kind == "bulk"), n_bulk)
    m["state.manifest.publish_ms"] = mean_ms("manifest.publish")
    m["state.manifest.stale_replace"] = float(
        sum(1 for s in get("manifest.publish") if s.val < 0))

    m["ingest.docs_to_table_ms"] = mean_ms("ingest.docs_to_table")
    m["writer.add_batch_ms"] = mean_ms("writer.add_batch")
    m["writer.flush_ms"] = mean_ms("writer.flush")
    m["writer.bytes_written"] = per(total("writer.flush"), docs_in)
    m["tokenize.ms"] = mean_ms("tokenize")
    m["tokenize.tokens"] = per(total("tokenize"), docs_in)

    if build_passes:
        busy, idle, publish = [], [], []
        for p in build_passes:
            a, b = p["build"]
            tasks = [s for s in get("build.task") if a <= s.t0 and s.t1 <= b]
            t_busy = sum(s.dur for s in tasks)
            busy.append(t_busy)
            idle.append(1.0 - t_busy / ((b - a) * num_cpus))
            publish += [s.dur for s in get("manifest.publish")
                        if a <= s.t0 and s.t1 <= b]
        m["build.task_busy_s"] = stats.median(busy)
        m["build.idle_frac"] = stats.median(idle)
        m["build.publish_ms"] = 1000.0 * per(sum(publish), len(publish))

    m["storage.finalize_ms"] = mean_ms("storage.finalize")
    m["storage.bytes_put"] = per(total("storage.finalize"), docs_in)
    merges = get("merge.op")
    m["merge.ops"] = 1000.0 * per(len(merges), docs_in)
    m["merge.op_ms"] = mean_ms("merge.op")
    m["merge.docs_rewritten"] = per(total("merge.op"), docs_in)
    m["merge.write_amp"] = per(total("storage.finalize"), final_index_bytes)
    m["janitor.merge_cycle_ms"] = mean_ms("janitor.merge_cycle")
    if merges and requests:
        windows = [(s.t0, s.t1) for s in merges]
        during = [ms for t0, t1, ms in requests
                  if any(t0 < b and a < t1 for a, b in windows)]
        outside = [ms for t0, t1, ms in requests
                   if not any(t0 < b and a < t1 for a, b in windows)]
        if len(during) >= 3 and outside:
            m["merge.stall_ratio"] = (stats.median(during)
                                      / stats.median(outside))
    m["trace.spans_per_op"] = per(len(spans), ops)
    return m
