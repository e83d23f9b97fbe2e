"""The benchmark's three workloads.

Each workload function takes a `Run` (seed, seconds, trace flag, work
directory) and returns a `Result`: the end-to-end metrics, the per-layer
metrics when traced, the sample counts behind them, and the number of
operations attempted and failed (an op fails when it errors or when its
answer disagrees with what the benchmark computed from its own inputs).
Every time is wall time less the CPU steal counted over it (steal.py).
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import gen
import layers
import spans
import stats
import steal

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
ES = "/api/v1/_elastic"
INDEX_ID = "pages"

# search_zipf: corpus and query stream
ZIPF_DOCS = 16_000
ZIPF_FILES = 16
ZIPF_POOL = 160
# ingest_search: bulk stream and the server's merge loop
BULK_DOCS = 100
BULK_STEP_US = 1_000_000            # one doc per second of event time
BULK_T0_US = gen.EPOCH_US + 60 * gen.DAY_US
DASH_WINDOW_US = 5 * BULK_DOCS * BULK_STEP_US   # the last five batches
MERGE_PERIOD_SECS = 1.0
# build_merge: parquet corpus built and merged on Ray
BUILD_DOCS = 8_000
BUILD_FILES = 8
RAY_DIR = ".pbray"      # short: Ray's socket paths live under it


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    work: str
    servers: list = field(default_factory=list)

    def stop_servers(self) -> None:
        """Kill any server a failed run left behind, and reap it."""
        for srv in self.servers:
            if srv.proc.poll() is None:
                srv.proc.kill()
                srv.proc.wait()


@dataclass
class Result:
    e2e: dict = field(default_factory=dict)        # name -> value
    layers: dict = field(default_factory=dict)     # name -> value
    detail: dict = field(default_factory=dict)     # workload-specific record
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def merge_policy_settings(merge_factor: int, max_merge_factor: int):
    from quickwit_ray.config import IndexSettings, MergePolicyConfig

    return IndexSettings(merge_policy=MergePolicyConfig(
        merge_factor=merge_factor, max_merge_factor=max_merge_factor))


def published_stats(index_dir: str) -> tuple[int, int, int, int]:
    """(docs, splits, bytes, docs in merged splits) over the published
    splits of an index, read from its manifest and its files."""
    from quickwit_ray.state.manifest import Manifest

    splits = Manifest(index_dir).published_splits()
    size = sum(spans.dir_bytes(os.path.join(index_dir, "splits", s.split_id))
               for s in splits)
    return (sum(s.num_docs for s in splits), len(splits), size,
            sum(s.num_docs for s in splits if s.num_merge_ops > 0))


# ---------------------------------------------------------------------------
# serving process + closed-loop HTTP client
# ---------------------------------------------------------------------------

class Server:
    """The program's SearchServer in its own process (perfbench/serve.py)."""

    def __init__(self, index_dir: str, log_path: str,
                 merge_period: float | None = None,
                 trace_out: str | None = None):
        cmd = [sys.executable, os.path.join(HERE, "serve.py"), index_dir]
        if merge_period is not None:
            cmd += ["--merge-period-secs", str(merge_period)]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._log)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            self._log.close()
            raise RuntimeError(f"server failed to start (see {log_path})")
        self.port = json.loads(line)["port"]
        self.peak_rss_mb = None

    def stop(self) -> float:
        """Close stdin, wait for exit, return the server's peak RSS (MB)."""
        try:
            out, _ = self.proc.communicate(input=b"", timeout=90)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self._log.close()
        for line in reversed(out.decode().splitlines()):
            if line.startswith("{"):
                self.peak_rss_mb = json.loads(line)["peak_rss_mb"]
                break
        if self.proc.returncode != 0 or self.peak_rss_mb is None:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return self.peak_rss_mb


class Client:
    """One keep-alive HTTP connection: a closed loop of one caller."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None = None,
             ctype: str = "application/json") -> tuple[int, dict]:
        headers = {"Content-Type": ctype} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        data = resp.read()
        try:
            obj = json.loads(data) if data else {}
        except json.JSONDecodeError:
            obj = {"raw": data[:200].decode(errors="replace")}
        return resp.status, obj

    def search(self, body: dict) -> tuple[int, dict]:
        return self.call("POST", f"{ES}/{INDEX_ID}/_search",
                         json.dumps(body).encode())

    def close(self) -> None:
        self.conn.close()


def wait_ready(port: int) -> None:
    c = Client(port)
    try:
        status, _ = c.call("GET", "/api/v1/version")
        if status != 200:
            raise RuntimeError(f"server not ready: HTTP {status}")
    finally:
        c.close()


def start_server(run: Run, index_dir: str, tag: str, traced: bool,
                 merge_period: float | None = None) -> Server:
    os.makedirs(os.path.join(run.work, "logs"), exist_ok=True)
    trace_out = (os.path.join(run.work, "trace", f"server-{tag}.json")
                 if traced else None)
    if trace_out:
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    srv = Server(index_dir, os.path.join(run.work, "logs", f"server-{tag}.log"),
                 merge_period=merge_period, trace_out=trace_out)
    run.servers.append(srv)
    wait_ready(srv.port)
    return srv


def check_hits_shape(resp: dict, size: int) -> str | None:
    total = resp["hits"]["total"]["value"]
    n = len(resp["hits"]["hits"])
    if n != min(size, total):
        return f"{n} hits returned for size {size} and total {total}"
    return None


def sort_values(resp: dict) -> list:
    return [h["sort"][0] for h in resp["hits"]["hits"]]


# ---------------------------------------------------------------------------
# search_zipf
# ---------------------------------------------------------------------------

def check_zipf(q: gen.Query, status: int, resp: dict) -> str | None:
    if status != 200:
        return f"{q.shape}: HTTP {status} {str(resp)[:120]}"
    total = resp["hits"]["total"]["value"]
    if q.expect_hits is not None and total != q.expect_hits:
        return f"{q.shape}: num_hits {total} != {q.expect_hits}"
    err = check_hits_shape(resp, q.body.get("size", 10))
    if err:
        return f"{q.shape}: {err}"
    if q.expect_langs is not None:
        got = {b["key"]: b["doc_count"]
               for b in resp["aggregations"]["langs"]["buckets"]}
        if got != q.expect_langs:
            return f"{q.shape}: lang counts {got} != {q.expect_langs}"
    if "per_day" in resp.get("aggregations", {}):
        n = sum(b["doc_count"]
                for b in resp["aggregations"]["per_day"]["buckets"])
        if n != total:
            return f"{q.shape}: histogram holds {n} of {total} hits"
    if q.sorted_desc_ts:
        vals = sort_values(resp)
        if vals != sorted(vals, reverse=True):
            return f"{q.shape}: hits not sorted by warc_ts desc"
    return None


def search_zipf(run: Run) -> Result:
    from quickwit_ray.config import IndexConfig, pages_doc_mapping
    from quickwit_ray.index.build import build_index
    from quickwit_ray.index.merge import run_merge_pipeline

    res = Result()
    corpus = gen.make_corpus(run.seed, ZIPF_DOCS)
    paths, in_bytes = gen.write_parquet(
        corpus, os.path.join(run.work, "corpus"), ZIPF_FILES)
    pool = gen.query_pool(run.seed, corpus, ZIPF_POOL)
    stream = gen.zipf_indices(run.seed, len(pool), 20_000)
    config = IndexConfig(index_id=INDEX_ID, doc_mapping=pages_doc_mapping(),
                         settings=merge_policy_settings(8, 10))

    # set-up: build with the program's own build path, one merge pass,
    # start serving; repeated, and the last server is the one measured
    setup_s = []
    srv = None
    for i in range(SETUP_REPEATS):
        index_dir = os.path.join(run.work, f"index-{i}")
        shutil.rmtree(index_dir, ignore_errors=True)
        last = i == SETUP_REPEATS - 1
        m0 = steal.mark()
        build_index(paths, index_dir, config, execution="local")
        run_merge_pipeline(index_dir, execution="local")
        srv = start_server(run, index_dir, f"zipf-{i}", run.trace and last)
        setup_s.append(steal.elapsed_ms(m0, steal.mark())[1] / 1000.0)
        if not last:
            srv.stop()
    docs, splits, index_bytes, _ = published_stats(index_dir)

    client = Client(srv.port)
    # lazy opens (searcher, split readers, fast fields) happen once per
    # server; do them before timing with bodies outside the query pool
    for body in ({"query": {"match_all": {}}, "size": 10},
                 {"query": {"match_all": {}}, "size": 0, "aggs": {
                     "d": {"date_histogram": {"field": "warc_ts",
                                              "fixed_interval": "12h"}},
                     "l": {"terms": {"field": "lang", "size": 30}}}}):
        client.search(body)

    # (start, end, ms less steal, shape, agg-only, wall ms) per search
    requests = []
    start = steal.mark()
    deadline = start[0] + run.seconds
    i = 0
    while time.perf_counter() < deadline:
        q = pool[stream[i % len(stream)]]
        i += 1
        m0 = steal.mark()
        try:
            status, resp = client.search(q.body)
            err = check_zipf(q, status, resp)
        except (OSError, http.client.HTTPException, KeyError,
                TypeError) as exc:
            err = f"{q.shape}: {type(exc).__name__}: {exc}"
            client.close()
            client = Client(srv.port)
        m1 = steal.mark()
        res.attempted += 1
        if err:
            res.fail(err)
            continue
        wall_ms, ms = steal.elapsed_ms(m0, m1)
        requests.append((m0[0], m1[0], ms, q.shape,
                         q.body.get("size") == 0, wall_ms))
    wall_ms, run_ms = steal.elapsed_ms(start, steal.mark())
    client.close()
    rss = srv.stop()

    lat_all = [r[2] for r in requests]
    lat_aggs = [r[2] for r in requests if r[4]]
    by_shape: dict[str, list] = {}
    for r in requests:
        by_shape.setdefault(r[3], []).append(r[2])
    summary = stats.latency_summary(lat_all)
    wall = stats.latency_summary([r[5] for r in requests])
    distinct = len(set(stream[:i].tolist()))
    res.e2e = {
        "p50_ms": summary["p50"], "tail_ms": summary["tail"]["value"],
        "side_p50_ms": stats.median(lat_aggs),
        "ops_per_s": len(lat_all) / (run_ms / 1000.0),
        "index_bytes_per_doc": index_bytes / docs,
        "peak_rss_mb": rss, "setup_s": stats.median(setup_s)}
    res.detail = {
        "search_p50_ms": summary["p50"], "search_tail_ms": summary["tail"],
        "agg_only_p50_ms": stats.median(lat_aggs),
        "agg_only_samples": len(lat_aggs),
        "search_p50_ms_by_shape": {k: stats.median(v)
                                   for k, v in sorted(by_shape.items())},
        "wall_search_p50_ms": wall["p50"], "wall_search_tail_ms": wall["tail"],
        "steal_ms": wall_ms - run_ms, "measured_wall_s": wall_ms / 1000.0,
        "searches": len(lat_all), "distinct_queries": distinct,
        "query_pool": len(pool), "setup_samples_s": setup_s,
        "input_docs": corpus.num_docs, "input_bytes": in_bytes,
        "input_files": ZIPF_FILES, "index_splits": splits,
        "index_bytes": index_bytes, "merge_period_secs": None}
    if run.trace:
        dumps = spans.load_dumps([os.path.join(
            run.work, "trace", f"server-zipf-{SETUP_REPEATS - 1}.json")])
        res.layers = layers.summarize(
            dumps, [r[:3] for r in requests], ops=len(requests), docs_in=0)
    return res


# ---------------------------------------------------------------------------
# ingest_search
# ---------------------------------------------------------------------------

def dashboard(ts, head_sets: dict, word: str) -> list[tuple]:
    """The dashboard's searches over the most recent window of event time
    as (kind, body, check); `ts` holds the acked docs' timestamps. The
    window is whole seconds, so its ISO bounds are exact."""
    hi = int(ts[-1]) + BULK_STEP_US
    lo = hi - DASH_WINDOW_US
    win = (ts >= lo) & (ts < hi)
    n_win = int(win.sum())
    window = {"range": {"warc_ts": {"gte": gen.iso(lo), "lt": gen.iso(hi)}}}

    def histogram(resp):
        total = resp["hits"]["total"]["value"]
        buckets = resp["aggregations"]["per_min"]["buckets"]
        if total != n_win or sum(b["doc_count"] for b in buckets) != n_win:
            return f"dashboard histogram: {total} != {n_win}"
        return None

    def latest(resp):
        total = resp["hits"]["total"]
        # time-sorted search may skip splits that cannot reach the top
        # 10 and then reports a lower bound
        if total["value"] != n_win and not (
                total["relation"] == "gte" and 10 <= total["value"] <= n_win):
            return f"dashboard latest: {total} for {n_win} docs"
        vals = sort_values(resp)
        if vals != sorted(vals, reverse=True) or check_hits_shape(resp, 10):
            return "dashboard latest: bad hit order or count"
        return None

    docs_w = head_sets[word]
    n_word = int(win[docs_w[docs_w < len(ts)]].sum())

    def term(resp):
        total = resp["hits"]["total"]["value"]
        if total != n_word:
            return f"dashboard term {word}: {total} != {n_word}"
        return check_hits_shape(resp, 10)

    return [
        ("histogram", {"query": {"bool": {"filter": [window]}}, "size": 0,
                       "aggs": {"per_min": {"date_histogram": {
                           "field": "warc_ts", "fixed_interval": "1m"}},
                           "langs": {"terms": {"field": "lang",
                                               "size": 20}}}}, histogram),
        ("latest", {"query": {"bool": {"filter": [window]}}, "size": 10,
                    "sort": [{"warc_ts": {"order": "desc"}}]}, latest),
        ("term", {"query": {"bool": {"must": [{"match": {"text": word}}],
                                     "filter": [window]}}, "size": 10},
         term),
    ]


def ingest_search(run: Run) -> Result:
    import numpy as np

    from quickwit_ray.api import Index
    from quickwit_ray.config import pages_doc_mapping

    res = Result()
    max_batches = 400
    bulk_corpus = gen.make_corpus(run.seed, max_batches * BULK_DOCS,
                                  mean_tokens=40, tag="b")
    batches = gen.bulk_batches(bulk_corpus, run.seed, BULK_DOCS, BULK_T0_US,
                               BULK_STEP_US)
    head = bulk_corpus.vocab[5:25]
    head_sets = bulk_corpus.doc_sets(head)
    ts = BULK_T0_US + np.arange(max_batches * BULK_DOCS) * BULK_STEP_US

    setup_s = []
    srv = None
    for i in range(SETUP_REPEATS):
        index_dir = os.path.join(run.work, f"index-{i}")
        shutil.rmtree(index_dir, ignore_errors=True)
        last = i == SETUP_REPEATS - 1
        m0 = steal.mark()
        Index.create(index_dir, INDEX_ID, pages_doc_mapping(),
                     merge_policy_settings(4, 8))
        srv = start_server(run, index_dir, f"ingest-{i}", run.trace and last,
                           merge_period=MERGE_PERIOD_SECS)
        setup_s.append(steal.elapsed_ms(m0, steal.mark())[1] / 1000.0)
        if not last:
            srv.stop()

    client = Client(srv.port)
    # (start, end, ms less steal, kind, wall ms) per bulk and search
    requests = []
    docs_in = 0
    k = 0
    rng = np.random.Generator(np.random.PCG64([run.seed, gen.GEN_VERSION, 9]))

    def timed_search(body: dict, check, kind: str) -> None:
        m0 = steal.mark()
        try:
            status, resp = client.search(body)
            err = (f"HTTP {status} {str(resp)[:120]}" if status != 200
                   else check(resp))
        except (OSError, http.client.HTTPException, KeyError,
                TypeError) as exc:
            err = f"{type(exc).__name__}: {exc}"
        m1 = steal.mark()
        res.attempted += 1
        if err:
            res.fail(err)
            return
        wall_ms, ms = steal.elapsed_ms(m0, m1)
        requests.append((m0[0], m1[0], ms, kind, wall_ms))

    start = steal.mark()
    deadline = start[0] + run.seconds
    while time.perf_counter() < deadline and k < max_batches:
        body, tok, urls = batches[k]
        m0 = steal.mark()
        try:
            status, resp = client.call("POST", f"{ES}/{INDEX_ID}/_bulk", body,
                                       "application/x-ndjson")
            err = None
            if status != 200 or resp.get("errors"):
                err = f"bulk {k}: HTTP {status} {str(resp)[:120]}"
            elif len(resp.get("items", [])) != BULK_DOCS:
                err = f"bulk {k}: {len(resp.get('items', []))} items"
        except (OSError, http.client.HTTPException) as exc:
            err = f"bulk {k}: {type(exc).__name__}: {exc}"
        m1 = steal.mark()
        res.attempted += 1
        if err:
            res.fail(err)
            break       # later checks assume every earlier batch landed
        wall_ms, ms = steal.elapsed_ms(m0, m1)
        requests.append((m0[0], m1[0], ms, "bulk", wall_ms))
        k += 1
        docs_in = k * BULK_DOCS

        # read-your-writes: the ack means the batch is searchable
        def ryw(resp, urls=urls):
            got = sorted(h["_source"]["url"] for h in resp["hits"]["hits"])
            if resp["hits"]["total"]["value"] != BULK_DOCS or \
                    got != sorted(urls):
                return (f"read-your-writes: {resp['hits']['total']['value']}"
                        f" hits for batch token {tok}")
            return None

        timed_search({"query": {"match": {"text": tok}}, "size": BULK_DOCS},
                     ryw, "read_your_writes")

        for kind, body_q, check in dashboard(ts[:docs_in], head_sets,
                                             head[rng.integers(len(head))]):
            timed_search(body_q, check, kind)
    wall_ms, run_ms = steal.elapsed_ms(start, steal.mark())
    client.close()
    rss = srv.stop()

    lat_bulk = [r[2] for r in requests if r[3] == "bulk"]
    lat_search = [r[2] for r in requests if r[3] != "bulk"]
    by_kind: dict[str, list] = {}
    for r in requests:
        by_kind.setdefault(r[3], []).append(r[2])

    # size after compaction settles: where the merge loop stopped mid-way
    # depends on timing, so finish its work (untimed) before measuring
    from quickwit_ray.index.merge import run_merge_pipeline

    served_bytes = published_stats(index_dir)[2]
    run_merge_pipeline(index_dir, execution="local")
    docs, splits, index_bytes, _ = published_stats(index_dir)
    res.attempted += 1      # no acked doc lost, none counted twice
    if docs != docs_in:
        res.fail(f"published docs {docs} != acked docs {docs_in}")
    search = stats.latency_summary(lat_search)
    bulk = stats.latency_summary(lat_bulk)
    res.e2e = {
        "p50_ms": search["p50"], "tail_ms": search["tail"]["value"],
        "side_p50_ms": bulk["p50"],
        "ops_per_s": len(requests) / (run_ms / 1000.0),
        "index_bytes_per_doc": index_bytes / max(docs, 1),
        "peak_rss_mb": rss, "setup_s": stats.median(setup_s)}
    res.detail = {
        "search_p50_ms": search["p50"], "search_tail_ms": search["tail"],
        "bulk_p50_ms": bulk["p50"], "bulk_tail_ms": bulk["tail"],
        "bulk_samples_ms": lat_bulk,
        "ingest_docs_per_s": docs_in / (run_ms / 1000.0),
        "bulks": len(lat_bulk),
        "wall_search_p50_ms": stats.median(
            [r[4] for r in requests if r[3] != "bulk"]),
        "wall_bulk_p50_ms": stats.median(
            [r[4] for r in requests if r[3] == "bulk"]),
        "steal_ms": wall_ms - run_ms, "measured_wall_s": wall_ms / 1000.0,
        "p50_ms_by_kind": {k: stats.median(v)
                           for k, v in sorted(by_kind.items())},
        "searches": len(lat_search), "docs_per_bulk": BULK_DOCS,
        "setup_samples_s": setup_s, "input_docs": docs_in,
        "input_bytes": sum(len(b[0]) for b in batches[:k]),
        "index_splits": splits, "index_bytes": index_bytes,
        "merge_period_secs": MERGE_PERIOD_SECS}
    if run.trace:
        dumps = spans.load_dumps([os.path.join(
            run.work, "trace", f"server-ingest-{SETUP_REPEATS - 1}.json")])
        res.layers = layers.summarize(
            dumps, [r[:3] for r in requests if r[3] != "bulk"],
            ops=len(requests), docs_in=docs_in,
            final_index_bytes=served_bytes)
    return res


# ---------------------------------------------------------------------------
# build_merge
# ---------------------------------------------------------------------------

def nproc() -> int:
    """CPUs available to this process as the `nproc` command counts them
    (it honours OMP_NUM_THREADS, which the affinity mask does not)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def ray_temp_dir() -> str | None:
    """A Ray session directory inside the source tree when its socket
    paths fit AF_UNIX's 107-byte limit; otherwise None (Ray's default)."""
    d = os.path.join(ROOT, RAY_DIR)
    # + /session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
    if len(d) + 64 > 107:
        print(f"perfbench: {d} is too long for Ray's sockets; using Ray's "
              "default session directory", file=sys.stderr)
        return None
    return d


def ray_init(run: Run, trace_dir: str | None) -> None:
    import ray

    env = {"PYTHONPATH": os.pathsep.join([HERE, ROOT])}
    runtime_env = {"env_vars": env}
    if trace_dir is not None:
        env[spans.TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = "spans.install_worker"
    ray.init(address="local", num_cpus=nproc(),
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, object_store_memory=256 * 1024 * 1024,
             _temp_dir=ray_temp_dir(), runtime_env=runtime_env)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def untraced(tracer, fn, *args):
    """Call `fn` with the tracer (if any) paused: the benchmark's own
    reads of the index are not the program's work."""
    if tracer is None:
        return fn(*args)
    tracer.paused = True
    try:
        return fn(*args)
    finally:
        tracer.paused = False


def peak_rss_probe() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_merge(run: Run) -> Result:
    import logging

    import ray

    from quickwit_ray.config import IndexConfig, pages_doc_mapping
    from quickwit_ray.index.build import build_index
    from quickwit_ray.index.merge import run_merge_pipeline

    res = Result()
    corpus = gen.make_corpus(run.seed, BUILD_DOCS)
    paths, in_bytes = gen.write_parquet(
        corpus, os.path.join(run.work, "corpus"), BUILD_FILES)
    warm = gen.make_corpus(run.seed + 1, 100, tag="w")
    warm_paths, _ = gen.write_parquet(warm, os.path.join(run.work, "warm"),
                                      BUILD_FILES)
    config = IndexConfig(index_id=INDEX_ID, doc_mapping=pages_doc_mapping(),
                         settings=merge_policy_settings(8, 10))
    trace_dir = os.path.join(run.work, "trace") if run.trace else None
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    # set-up: a Ray session sized to nproc whose worker has run one small
    # build and merge (worker start and imports); repeated
    setup_s = []
    ray_dir = ray_temp_dir()
    try:
        for i in range(SETUP_REPEATS):
            if ray_dir:
                shutil.rmtree(ray_dir, ignore_errors=True)
            m0 = steal.mark()
            ray_init(run, trace_dir)
            d = os.path.join(run.work, f"warm-index-{i}")
            shutil.rmtree(d, ignore_errors=True)
            build_index(warm_paths, d, config, execution="ray")
            run_merge_pipeline(d, execution="ray")
            setup_s.append(steal.elapsed_ms(m0, steal.mark())[1] / 1000.0)
            shutil.rmtree(d, ignore_errors=True)
            if i < SETUP_REPEATS - 1:
                ray.shutdown()

        # one untimed full-size pass: the session's own start-up work
        # (Ray's agents, the first full build in the worker) settles
        d = os.path.join(run.work, "settle-index")
        build_index(paths, d, config, execution="ray")
        run_merge_pipeline(d, execution="ray")
        shutil.rmtree(d, ignore_errors=True)
        if trace_dir:
            for f in os.listdir(trace_dir):  # set-up tasks are not measured
                os.remove(os.path.join(trace_dir, f))

        tracer = None
        if run.trace:
            # this process runs build_index's planning and publishing
            tracer = spans.Tracer("build")
            spans.install_state(tracer)
        passes = []
        start = steal.mark()
        deadline = start[0] + run.seconds
        k = 0
        while time.perf_counter() < deadline:
            d = os.path.join(run.work, f"index-{k}")
            shutil.rmtree(d, ignore_errors=True)
            res.attempted += 1
            m0 = steal.mark()
            st = build_index(paths, d, config, execution="ray")
            m1 = steal.mark()
            n_build, splits_before, _, _ = untraced(tracer, published_stats,
                                                    d)
            m2 = steal.mark()
            merges = run_merge_pipeline(d, execution="ray")
            m3 = steal.mark()
            n_merge, splits_after, size, rewritten = untraced(
                tracer, published_stats, d)
            k += 1
            if n_build != corpus.num_docs or st.num_docs != corpus.num_docs:
                res.fail(f"pass {k}: built {n_build} docs, "
                         f"expected {corpus.num_docs}")
                continue
            if n_merge != corpus.num_docs or merges < 1:
                res.fail(f"pass {k}: {n_merge} docs after {merges} merges")
                continue
            passes.append({
                "build": (m0[0], m1[0]), "merge": (m2[0], m3[0]),
                "build_ms": steal.elapsed_ms(m0, m1),
                "merge_ms": steal.elapsed_ms(m2, m3),
                "rewritten": rewritten, "bytes_per_doc": size / n_merge,
                "splits_built": splits_before,
                "splits_merged": splits_after})
            shutil.rmtree(d, ignore_errors=True)
        wall_ms, run_ms = steal.elapsed_ms(start, steal.mark())
        worker_rss = max(ray.get([ray.remote(peak_rss_probe).remote()
                                  for _ in range(2)]))
    finally:
        if ray.is_initialized():
            ray.shutdown()
        if ray_dir:
            shutil.rmtree(ray_dir, ignore_errors=True)
    rss = max(peak_rss_probe(), worker_rss)

    # (wall ms, ms less steal) -> ms less steal
    build_ms = [p["build_ms"][1] for p in passes]
    merge_ms = [p["merge_ms"][1] for p in passes]
    index_bytes_per_doc = [p["bytes_per_doc"] for p in passes]
    build = stats.latency_summary(build_ms)
    res.e2e = {
        "p50_ms": build["p50"], "tail_ms": build["tail"]["value"],
        "side_p50_ms": stats.median(merge_ms),
        "ops_per_s": 2 * len(passes) / (run_ms / 1000.0),
        "index_bytes_per_doc": stats.median(index_bytes_per_doc),
        "peak_rss_mb": rss, "setup_s": stats.median(setup_s)}
    res.detail = {
        "build_docs_per_s": corpus.num_docs / (build["p50"] / 1000.0),
        "merge_docs_per_s": (sum(p["rewritten"] for p in passes)
                             / (sum(merge_ms) / 1000.0)),
        "build_pass_ms": build, "merge_pass_p50_ms": stats.median(merge_ms),
        "build_pass_samples_ms": build_ms, "merge_pass_samples_ms": merge_ms,
        "wall_build_pass_p50_ms": stats.median(
            [p["build_ms"][0] for p in passes]),
        "wall_merge_pass_p50_ms": stats.median(
            [p["merge_ms"][0] for p in passes]),
        "steal_ms": wall_ms - run_ms, "measured_wall_s": wall_ms / 1000.0,
        "passes": len(passes), "setup_samples_s": setup_s,
        "input_docs": corpus.num_docs, "input_bytes": in_bytes,
        "input_files": BUILD_FILES, "ray_num_cpus": nproc(),
        "splits_per_pass": [(p["splits_built"], p["splits_merged"])
                            for p in passes][:3],
        "merge_period_secs": None}
    if run.trace:
        dumps = [tracer.snapshot()] + spans.load_dumps(sorted(
            os.path.join(trace_dir, f) for f in os.listdir(trace_dir)
            if f.endswith(".json")))
        res.layers = layers.summarize(
            dumps, [], ops=len(passes), docs_in=len(passes)
            * corpus.num_docs, build_passes=passes,
            num_cpus=nproc(),
            final_index_bytes=sum(index_bytes_per_doc) * corpus.num_docs)
    return res


WORKLOADS = {"search_zipf": search_zipf, "ingest_search": ingest_search,
             "build_merge": build_merge}
