"""Seeded input generators owned by the benchmark.

Everything the program under test receives is made here from the run's
seed: the pages-shaped parquet corpus, the `_bulk` batches and the query
stream. The same seed gives byte-identical inputs. Expected answers
(per-term doc sets, per-language counts) are computed from the generated
tokens, never by asking the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

GEN_VERSION = 2
EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z
DAY_US = 86_400_000_000
LANGS = ("en", "de", "fr", "es", "ja", "pt")
LANG_P = np.array([0.62, 0.12, 0.10, 0.08, 0.05, 0.03])
ZIPF_S = 1.07          # word frequency in the corpus text
ZIPF_QUERY_S = 1.1     # query popularity within a query shape
_CONS = "bcdfghklmnprstvz"
_VOWS = "aeiou"


def make_vocab(rng: np.random.Generator, size: int) -> list[str]:
    """Distinct lowercase alphabetic pseudo-words of 2-4 syllables, so
    the default tokenizer maps each word to exactly itself."""
    syll = np.array([c + v for c in _CONS for v in _VOWS], dtype=object)
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < size:
        n = 2 * size
        k = rng.integers(2, 5, size=n)
        s = rng.integers(len(syll), size=(n, 4))
        for row, m in zip(s, k):
            w = "".join(syll[row[:m]])
            if w not in seen:
                seen.add(w)
                out.append(w)
                if len(out) == size:
                    break
    return out


def _zipf_probs(n: int) -> np.ndarray:
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), ZIPF_S)
    return w / w.sum()


@dataclass
class Corpus:
    """Docs as columns plus the token stream the expectations come from."""

    vocab: list[str]
    texts: list[str]
    urls: list[str]
    warc_ts: np.ndarray      # epoch micros, int64
    langs: list[str]
    tok_doc: np.ndarray      # doc index of each token occurrence
    tok_id: np.ndarray       # vocab id of each token occurrence

    @property
    def num_docs(self) -> int:
        return len(self.texts)

    def doc_sets(self, words: list[str]) -> dict[str, np.ndarray]:
        """Sorted unique doc indexes containing each word."""
        index = {w: i for i, w in enumerate(self.vocab)}
        pairs = np.unique(self.tok_id.astype(np.int64) * self.num_docs
                          + self.tok_doc)
        ids = pairs // self.num_docs
        out = {}
        for w in words:
            i = index[w]
            lo, hi = np.searchsorted(ids, [i, i + 1])
            out[w] = pairs[lo:hi] % self.num_docs
        return out

    def lang_counts(self, mask: np.ndarray | None = None) -> dict[str, int]:
        langs = np.asarray(self.langs, dtype=object)
        if mask is not None:
            langs = langs[mask]
        vals, counts = np.unique(langs, return_counts=True)
        return {str(v): int(c) for v, c in zip(vals, counts)}


def make_corpus(seed: int, num_docs: int, vocab_size: int = 6000,
                mean_tokens: int = 60, days: int = 30,
                doc_offset: int = 0, tag: str = "p") -> Corpus:
    rng = np.random.Generator(np.random.PCG64([seed, GEN_VERSION, 1]))
    vocab = make_vocab(rng, vocab_size)
    rng = np.random.Generator(np.random.PCG64([seed, GEN_VERSION, 2,
                                               doc_offset]))
    lens = rng.integers(mean_tokens // 2, mean_tokens * 3 // 2 + 1,
                        size=num_docs)
    total = int(lens.sum())
    tok_id = rng.choice(vocab_size, size=total, p=_zipf_probs(vocab_size))
    tok_doc = np.repeat(np.arange(num_docs), lens)
    words = np.asarray(vocab, dtype=object)[tok_id]
    bounds = np.concatenate([[0], np.cumsum(lens)])
    texts = [" ".join(words[bounds[i]:bounds[i + 1]])
             for i in range(num_docs)]
    warc_ts = (EPOCH_US + rng.integers(0, days * DAY_US, size=num_docs)
               ).astype(np.int64)
    langs = [LANGS[i] for i in rng.choice(len(LANGS), size=num_docs,
                                          p=LANG_P)]
    urls = [f"https://{tag}{seed}.example/{doc_offset + i}"
            for i in range(num_docs)]
    return Corpus(vocab, texts, urls, warc_ts, langs, tok_doc, tok_id)


def write_parquet(corpus: Corpus, out_dir: str, num_files: int,
                  html_bytes: int = 256) -> tuple[list[str], int]:
    """Write the corpus as `num_files` pages-shaped parquet partitions
    (url, warc_ts, html, text, lang). Returns (paths, total bytes)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    n = corpus.num_docs
    cuts = np.linspace(0, n, num_files + 1).astype(int)
    html = [b"<html>" + t.encode()[:html_bytes] + b"</html>"
            for t in corpus.texts]
    paths = []
    for k in range(num_files):
        lo, hi = cuts[k], cuts[k + 1]
        tbl = pa.table({
            "url": pa.array(corpus.urls[lo:hi], pa.string()),
            "warc_ts": pa.array(corpus.warc_ts[lo:hi], pa.timestamp("us")),
            "html": pa.array(html[lo:hi], pa.binary()),
            "text": pa.array(corpus.texts[lo:hi], pa.string()),
            "lang": pa.array(corpus.langs[lo:hi], pa.string()),
        })
        p = os.path.join(out_dir, f"pages-{k:04d}.parquet")
        pq.write_table(tbl, p)
        paths.append(p)
    return paths, sum(os.path.getsize(p) for p in paths)


def iso(us: int) -> str:
    import datetime as dt

    return dt.datetime.fromtimestamp(us / 1e6, dt.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


# ---------------------------------------------------------------------------
# query stream (search_zipf)
# ---------------------------------------------------------------------------

@dataclass
class Query:
    shape: str
    body: dict
    expect_hits: int | None = None          # exact num_hits when checkable
    expect_langs: dict | None = None        # exact `lang` terms-agg counts
    sorted_desc_ts: bool = False            # hits must be warc_ts-descending


def query_pool(seed: int, corpus: Corpus, size: int = 160) -> list[Query]:
    """A seeded pool of query shapes over head and tail terms."""
    rng = np.random.Generator(np.random.PCG64([seed, GEN_VERSION, 3]))
    v = len(corpus.vocab)
    head = corpus.vocab[5:60]            # frequent, but not the top few
    tail = corpus.vocab[v // 4: v // 2]  # rare: a handful of docs each
    span = int(corpus.warc_ts.max() - corpus.warc_ts.min())
    t0 = int(corpus.warc_ts.min())

    def pick(n_head: int, n_tail: int) -> list[str]:
        ws = [head[i] for i in rng.choice(len(head), n_head, replace=False)]
        ws += [tail[i] for i in rng.choice(len(tail), n_tail, replace=False)]
        return ws

    shapes = ["term", "or", "and", "not", "phrase", "prefix", "range",
              "sort_ts", "terms_agg", "date_hist"]
    def draw(shape: str) -> list[str]:
        if shape == "term":
            return pick(*((1, 0) if rng.random() < 0.5 else (0, 1)))
        if shape in ("or", "and"):
            k = int(rng.integers(2, 4))
            nt = int(rng.integers(0, 2))
            return pick(k - nt, nt)
        if shape in ("not", "phrase"):
            return pick(2, 0)
        return pick(1, 0)

    raw, seen = [], set()
    for i in range(size):
        shape = shapes[i % len(shapes)]
        while True:     # every pool entry is a distinct request
            ws = draw(shape)
            key = (shape, ws[0][:4] if shape == "prefix" else tuple(ws))
            if key not in seen:
                break
        seen.add(key)
        raw.append((shape, ws))
    words = sorted({w for _, ws in raw for w in ws})
    sets = corpus.doc_sets(words)
    pool = []
    for shape, ws in raw:
        q = Query(shape, {})
        if shape == "term":
            q.body = {"query": {"match": {"text": ws[0]}}, "size": 10}
            q.expect_hits = len(sets[ws[0]])
        elif shape == "or":
            q.body = {"query": {"match": {"text": " ".join(ws)}}, "size": 10}
            q.expect_hits = len(np.unique(np.concatenate([sets[w]
                                                          for w in ws])))
        elif shape == "and":
            q.body = {"query": {"match": {"text": {
                "query": " ".join(ws), "operator": "and"}}}, "size": 10}
            s = sets[ws[0]]
            for w in ws[1:]:
                s = np.intersect1d(s, sets[w])
            q.expect_hits = len(s)
        elif shape == "not":
            q.body = {"query": {"bool": {
                "must": [{"match": {"text": ws[0]}}],
                "must_not": [{"match": {"text": ws[1]}}]}}, "size": 10}
            q.expect_hits = len(np.setdiff1d(sets[ws[0]], sets[ws[1]]))
        elif shape == "phrase":
            q.body = {"query": {"match_phrase": {"text": " ".join(ws)}},
                      "size": 10}
        elif shape == "prefix":
            q.body = {"query": {"query_string": {
                "query": f"text:{ws[0][:4]}*"}}, "size": 10}
        elif shape == "range":
            lo = t0 + int(rng.integers(0, span // 2))
            hi = lo + span // 4
            q.body = {"query": {"bool": {
                "must": [{"match": {"text": ws[0]}}],
                "filter": [{"range": {"warc_ts": {
                    "gte": iso(lo), "lt": iso(hi)}}}]}}, "size": 10}
        elif shape == "sort_ts":
            q.body = {"query": {"match": {"text": ws[0]}}, "size": 10,
                      "sort": [{"warc_ts": {"order": "desc"}}]}
            q.sorted_desc_ts = True
        elif shape == "terms_agg":
            q.body = {"query": {"match": {"text": ws[0]}}, "size": 0,
                      "aggs": {"langs": {"terms": {"field": "lang",
                                                   "size": 20}}}}
            mask = np.zeros(corpus.num_docs, bool)
            mask[sets[ws[0]]] = True
            q.expect_hits = int(mask.sum())
            q.expect_langs = corpus.lang_counts(mask)
        else:  # date_hist: a dashboard over the docs with one word
            interval = ("6h", "12h", "1d")[int(rng.integers(3))]
            q.body = {"query": {"match": {"text": ws[0]}}, "size": 0,
                      "aggs": {"per_day": {"date_histogram": {
                          "field": "warc_ts", "fixed_interval": interval}},
                          "langs": {"terms": {"field": "lang",
                                              "size": 20}}}}
            mask = np.zeros(corpus.num_docs, bool)
            mask[sets[ws[0]]] = True
            q.expect_hits = int(mask.sum())
            q.expect_langs = corpus.lang_counts(mask)
        pool.append(q)
    return pool


def zipf_indices(seed: int, pool_size: int, n: int, shapes: int = 10,
                 s: float = ZIPF_QUERY_S) -> np.ndarray:
    """Indexes into the query pool (which cycles through its `shapes`)
    with Zipf repetition: within each shape a few queries repeat often
    (leaf-cache hits) and the rest appear rarely (first occurrences are
    misses).

    Every shape gets the same share of the stream, and every seed sends
    the same mix: each query's occurrences are spread evenly over the
    stream, so any prefix holds each query in proportion to its Zipf
    weight. The seed picks which query of a shape holds each popularity
    rank and the phase of its occurrences."""
    rng = np.random.Generator(np.random.PCG64([seed, GEN_VERSION, 4]))
    per_shape = pool_size // shapes
    w = 1.0 / np.power(np.arange(1, per_shape + 1, dtype=np.float64), s)
    per_rank = np.maximum(1, np.round(n / shapes * w / w.sum()))
    order = np.concatenate([sh + shapes * rng.permutation(per_shape)
                            for sh in range(shapes)])
    counts = np.tile(per_rank, shapes).astype(np.int64)
    picks = np.repeat(np.arange(len(order)), counts)
    occurrence = np.arange(len(picks)) - np.repeat(
        np.cumsum(counts) - counts, counts)
    phase = rng.random(len(order))
    keys = (occurrence + phase[picks]) / counts[picks]
    return order[picks[np.argsort(keys, kind="stable")]]


# ---------------------------------------------------------------------------
# _bulk batches (ingest_search)
# ---------------------------------------------------------------------------

def batch_token(seed: int, k: int) -> str:
    """A token that appears in batch k's docs and nowhere else."""
    return f"zq{seed}x{k}b"


def bulk_batches(corpus: Corpus, seed: int, docs: int, t_us: int,
                 step_us: int) -> list[tuple[bytes, str, list[str]]]:
    """The corpus as `_bulk` bodies of `docs` docs each, with strictly
    increasing `warc_ts` from `t_us`. Returns (body, batch token, doc
    urls) per batch."""
    import json

    out = []
    for k in range(corpus.num_docs // docs):
        tok = batch_token(seed, k)
        lines = []
        urls = []
        for i in range(k * docs, (k + 1) * docs):
            lines.append('{"index":{}}')
            lines.append(json.dumps(
                {"url": corpus.urls[i], "lang": corpus.langs[i],
                 "warc_ts": iso(t_us + i * step_us),
                 "text": f"{corpus.texts[i]} {tok}"}, separators=(",", ":")))
            urls.append(corpus.urls[i])
        out.append((("\n".join(lines) + "\n").encode(), tok, urls))
    return out
