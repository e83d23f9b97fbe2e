"""Per-split query evaluation — the leaf search
(`quickwit-search/src/leaf.rs` + collector semantics re-expressed as
dense numpy set algebra over decoded posting lists).

Every operator returns a boolean match mask over the split's docs plus an
optional f32 score vector; bool combinations are vectorized mask algebra;
BM25 uses per-split statistics (N, df, avgdl from the split footer) per
the reference's scoring model (docs/overview/concepts/querying.md:107).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from quickwit_ray.config import DocMapping
from quickwit_ray.functions.bm25 import bm25_scores
from quickwit_ray.functions.tokenizers import tokenize
from quickwit_ray.index.format import (SplitReader, block_score_bounds,
                                       decode_posting_blocks)
from quickwit_ray.search.ast import (
    BoolQuery,
    BoostQuery,
    ExistsQuery,
    FullTextQuery,
    MatchAll,
    MatchNone,
    PhrasePrefixQuery,
    RangeQuery,
    RegexQuery,
    SortField,
    TermQuery,
    TermSetQuery,
    WildcardQuery,
)


class FieldBM25:
    """BM25 setup of one field in one split: num_docs and avgdl from the
    split footer, the fieldnorm ids, and the tf 1 a ``basic``-record
    field scores at. Each caller keeps its own df. Built only when a
    field is scored, so an unscored evaluation loads no fieldnorms."""

    def __init__(self, reader: SplitReader, mapping: DocMapping, field: str):
        st = reader.field_stats.get(field, {})
        n = reader.num_docs
        self.num_docs = float(st.get("num_docs", n) or n)
        self.avgdl = float(st.get("avgdl", 1.0) or 1.0)
        try:
            self.basic = mapping.resolve_field(field).record == "basic"
        except KeyError:
            self.basic = False
        self.norms = reader.fieldnorm_ids(field)

    def tf(self, tfs: np.ndarray) -> np.ndarray:
        return np.ones(len(tfs), np.int64) if self.basic else tfs

    def score(self, docs: np.ndarray, tfs: np.ndarray, df: float
              ) -> np.ndarray:
        """f32 BM25 scores of ``docs`` at term frequencies ``tfs``."""
        return bm25_scores(tfs, self.norms[docs], df=df,
                           num_docs=self.num_docs, avgdl=self.avgdl)


class SplitSearcher:
    """Evaluates a query AST against one open split."""

    def __init__(self, reader: SplitReader, mapping: DocMapping):
        self.reader = reader
        self.mapping = mapping
        self.n = reader.num_docs
        self._bm25_fields: dict[str, FieldBM25] = {}

    # ------------------------------------------------------------------

    def bm25(self, field: str) -> FieldBM25:
        """The one BM25 setup of ``field`` for this searcher."""
        sc = self._bm25_fields.get(field)
        if sc is None:
            sc = self._bm25_fields[field] = FieldBM25(self.reader,
                                                       self.mapping, field)
        return sc

    def _term_postings_score(self, field: str, rows: np.ndarray, scoring: bool,
                             const_score: bool = False):
        """OR of postings for dictionary rows; BM25-scored unless const."""
        mask = np.zeros(self.n, bool)
        scores = np.zeros(self.n, np.float32) if scoring else None
        if len(rows) == 0:
            return mask, scores
        postings = self.reader.read_postings(rows)
        sc = self.bm25(field) if (scoring and not const_score) else None
        for r in rows:
            if r < 0:
                continue
            p = postings[int(r)]
            docs = p["doc_ids"]
            if len(docs) == 0:
                continue
            mask[docs] = True
            if scores is None:
                continue
            if const_score:
                scores[docs] = np.float32(1.0)
            else:
                scores[docs] += sc.score(docs, sc.tf(p["tfs"]),
                                         float(len(docs)))
        return mask, scores

    # ------------------------------------------------------------------

    def eval(self, node: Any, scoring: bool = False):
        """Returns (mask: bool[n], scores: f32[n] | None)."""
        meth = getattr(self, f"_eval_{type(node).__name__}", None)
        if meth is None:
            raise TypeError(f"unsupported query node {type(node).__name__}")
        return meth(node, scoring)

    def _eval_MatchAll(self, node: MatchAll, scoring: bool):
        return np.ones(self.n, bool), (np.ones(self.n, np.float32) if scoring else None)

    def _eval_MatchNone(self, node: MatchNone, scoring: bool):
        return np.zeros(self.n, bool), (np.zeros(self.n, np.float32) if scoring else None)

    def _eval_BoostQuery(self, node: BoostQuery, scoring: bool):
        mask, scores = self.eval(node.query, scoring)
        if scores is not None:
            scores = (scores * np.float32(node.boost)).astype(np.float32)
        return mask, scores

    def _dynamic_value_kind(self, field: str) -> str:
        """dtype kind of an UNMAPPED dynamic field's fast column in THIS
        split ('' when absent/string/list) — dynamic numeric/bool values
        are matched against the column, not the term dictionary, and the
        column type can differ per split (doc_mapper dynamic typing)."""
        if self.mapping.mode != "dynamic" or _has_field(self.mapping, field):
            return ""
        try:
            vals = self._fast_values(field)
        except (KeyError, ValueError):
            return ""
        k = getattr(vals.dtype, "kind", "")
        return k if k in "iufb" else ""

    def _value_equality(self, field: str, value, scoring: bool):
        """Exact match on a non-text indexed field = fast-field equality
        filter (numeric/bool/datetime terms have no postings)."""
        import pandas as pd

        vals = self._fast_values(field)
        fm = self.mapping.resolve_field(field)
        if fm.type == "ip":
            from quickwit_ray.functions.ip import normalize_ip

            value = normalize_ip(value)
        elif fm.type == "datetime":
            from quickwit_ray.functions.datetimes import datetime_value_to_us

            value = np.int64(datetime_value_to_us(value))
        elif vals.dtype.kind in "iuf":
            try:
                value = float(value)
            except (TypeError, ValueError):
                # non-numeric text against a numeric column matches nothing
                n = self.reader.num_docs
                return (np.zeros(n, bool),
                        np.zeros(n, np.float32) if scoring else None)
        elif vals.dtype.kind == "b":
            value = str(value).lower() in ("true", "1", "yes")
        mask = vals == value
        scores = (np.where(mask, np.float32(1.0), np.float32(0.0))
                  .astype(np.float32) if scoring else None)
        return mask, scores

    def _json_term_rows(self, json_fm, path: str, text: str):
        """Terms of a json-field query: path\x01token per query token
        (numbers match their JSON rendering, strings their tokens)."""
        from quickwit_ray.index.writer import JSON_PATH_SEP

        toks = tokenize(text, json_fm.tokenizer)
        cands = [path + JSON_PATH_SEP + t for t in toks]
        cands.append(path + JSON_PATH_SEP + text)  # numeric/bool literal
        rows = self.reader.term_rows(json_fm.name, sorted(set(cands)))
        return rows[rows >= 0]

    def _eval_TermQuery(self, node: TermQuery, scoring: bool):
        value = node.value
        jf = self.mapping.resolve_json_path(node.field)
        if jf is not None:
            rows = self._json_term_rows(jf[0], jf[1], value)
            return self._term_postings_score(jf[0].name, rows, scoring)
        if _has_field(self.mapping, node.field):
            fm = self.mapping.resolve_field(node.field)
            if fm.type != "text":
                return self._value_equality(node.field, value, scoring)
            if fm.tokenizer in ("raw_lowercase", "lowercase"):
                value = value.lower()
        elif self._dynamic_value_kind(node.field):
            return self._value_equality(node.field, value, scoring)
        rows = self.reader.term_rows(node.field, [value])
        return self._term_postings_score(node.field, rows[rows >= 0], scoring)

    def _eval_TermSetQuery(self, node: TermSetQuery, scoring: bool):
        jf = self.mapping.resolve_json_path(node.field)
        if jf is not None:
            # terms on a json path: each value resolves like a TermQuery
            # (tokens + numeric/bool literal candidates under path\x01)
            from quickwit_ray.index.writer import JSON_PATH_SEP

            # ES `terms` is EXACT post-tokenization terms — no analysis of
            # the query values (terms_query.rs): path\x01value literals only
            cands = sorted({jf[1] + JSON_PATH_SEP + str(v)
                            for v in node.values})
            rows = self.reader.term_rows(jf[0].name, cands)
            return self._term_postings_score(jf[0].name, rows[rows >= 0],
                                             scoring, const_score=True)
        rows = self.reader.term_rows(node.field, list(node.values))
        # TermSet is a filter-shaped disjunction: constant score
        return self._term_postings_score(node.field, rows[rows >= 0], scoring,
                                         const_score=True)

    def _eval_FullTextQuery(self, node: FullTextQuery, scoring: bool):
        jf = self.mapping.resolve_json_path(node.field)
        if jf is not None:
            from quickwit_ray.index.writer import JSON_PATH_SEP

            toks = tokenize(node.text, jf[0].tokenizer)
            if not toks and node.zero_terms_match_all:
                return self._eval_MatchAll(MatchAll(), scoring)
            prefixed = [jf[1] + JSON_PATH_SEP + t for t in toks]
            if node.mode == "phrase" and len(toks) > 1:
                # json tokens of one string value hold consecutive
                # positions (json_field_tokens), so positional phrase
                # evaluation works on the path-prefixed terms directly
                return self._eval_phrase(jf[0].name, prefixed, node.slop,
                                         scoring)
            if node.mode in ("bool_prefix", "bool_prefix_and") and toks:
                return self._eval_bool_prefix(
                    jf[0].name, prefixed[:-1],
                    jf[1] + JSON_PATH_SEP + toks[-1],
                    node.mode == "bool_prefix_and", scoring)
            if node.mode == "and" and len(toks) > 1:
                rows = self.reader.term_rows(jf[0].name, prefixed)
                if (rows < 0).any():
                    return self._eval_MatchNone(MatchNone(), scoring)
                return self._eval_and_terms(jf[0].name, rows, scoring)
            rows = self._json_term_rows(jf[0], jf[1], node.text)
            return self._term_postings_score(jf[0].name, rows, scoring)
        if node.lenient and not _has_field(self.mapping, node.field) \
                and self.mapping.mode != "dynamic":
            # ES lenient: unknown field matches nothing instead of erroring
            return self._eval_MatchNone(MatchNone(), scoring)
        if self._dynamic_value_kind(node.field):
            # dynamic numeric/bool column: `field:123` = equality filter
            return self._value_equality(node.field, node.text, scoring)
        fm = self.mapping.resolve_field(node.field)
        if fm.type == "json":
            # bare query on the json root: tokens anywhere in the subtree
            # are not addressable without a path; match nothing
            return self._eval_MatchNone(MatchNone(), scoring)
        if fm.type != "text":
            # `field:123` on a numeric/datetime field -> equality filter
            return self._value_equality(node.field, node.text, scoring)
        terms = tokenize(node.text, fm.tokenizer)
        if not terms:
            if node.zero_terms_match_all:
                return self._eval_MatchAll(MatchAll(), scoring)
            return self._eval_MatchNone(MatchNone(), scoring)
        if node.mode == "phrase" and len(terms) > 1:
            return self._eval_phrase(node.field, terms, node.slop, scoring)
        if node.mode in ("bool_prefix", "bool_prefix_and"):
            return self._eval_bool_prefix(node.field, terms[:-1], terms[-1],
                                          node.mode == "bool_prefix_and",
                                          scoring)
        rows = self.reader.term_rows(node.field, terms)
        if node.mode == "and":
            if (rows < 0).any():
                return self._eval_MatchNone(MatchNone(), scoring)
            return self._eval_and_terms(node.field, rows, scoring)
        # OR (default)
        return self._term_postings_score(node.field, rows[rows >= 0], scoring)

    def _eval_bool_prefix(self, field: str, exact_terms: list[str],
                          prefix: str, conjunction: bool, scoring: bool):
        """match_bool_prefix: every term a term query except the last,
        which is a prefix — combined SHOULD (default) or MUST when
        operator=and (match_bool_prefix_query.rs)."""
        prows = self.reader.term_range_rows(field, None, None, prefix=prefix)
        pmask, pscores = self._term_postings_score(field, prows, scoring,
                                                   const_score=True)
        if not exact_terms:
            return pmask, pscores
        rows = self.reader.term_rows(field, exact_terms)
        if conjunction:
            if (rows < 0).any() or not pmask.any():
                return self._eval_MatchNone(MatchNone(), scoring)
            emask, escores = self._eval_and_terms(field, rows, scoring)
            mask = emask & pmask
            scores = None
            if scoring:
                scores = np.where(mask, escores + pscores, np.float32(0.0)
                                  ).astype(np.float32)
            return mask, scores
        emask, escores = self._term_postings_score(field, rows[rows >= 0],
                                                   scoring)
        mask = emask | pmask
        if escores is not None:
            escores += pscores
        return mask, escores

    def _eval_and_terms(self, field: str, rows: np.ndarray, scoring: bool):
        """Conjunction of terms: rarest-first DAAT-AND with BLOCK-SKIP
        decode. The smallest posting list (df from the dictionary, no
        decode needed to rank) is decoded fully; every larger list decodes
        only the 128-doc blocks that can still contain a surviving
        candidate (block_last skip data — tantivy's skip-reader shape, so
        `+rare +stopword` touches a handful of the stopword's blocks).
        Work scales with the rarest term's df, not the largest. The mask
        stays exact; scores are the exact per-term BM25 sums over the
        intersection (df = full dictionary df, matching full scoring)."""
        dfs = self.reader.df[rows]
        order = np.argsort(dfs, kind="stable")
        r0 = int(rows[order[0]])
        p0 = self.reader.read_postings([r0])[r0]
        inter = p0["doc_ids"]
        per_term: list[tuple[int, np.ndarray, np.ndarray]] = [
            (r0, p0["doc_ids"], p0["tfs"])]
        for oi in order[1:]:
            if len(inter) == 0:
                break
            r = int(rows[oi])
            docs_r, tfs_r = self.reader.read_postings_selected(r, inter)
            inter = inter[np.isin(inter, docs_r, assume_unique=True)]
            per_term.append((r, docs_r, tfs_r))
        mask = np.zeros(self.n, bool)
        scores = np.zeros(self.n, np.float32) if scoring else None
        if len(inter) == 0:
            return mask, scores
        mask[inter] = True
        if scoring:
            sc = self.bm25(field)
            total = np.zeros(len(inter), np.float32)
            for r, docs_r, tfs_r in per_term:
                tfs = sc.tf(tfs_r[np.searchsorted(docs_r, inter)])
                total += sc.score(inter, tfs, float(self.reader.df[r]))
            scores[inter] = total
        return mask, scores

    # -- phrase ---------------------------------------------------------

    def _phrase_positions(self, field: str, rows: np.ndarray):
        postings = self.reader.read_postings(rows, with_positions=True)
        out = []
        for r in rows:
            p = postings[int(r)]
            docs_rep = np.repeat(p["doc_ids"], p["pos_lens"]) if len(p["doc_ids"]) else np.empty(0, np.int32)
            out.append((p, docs_rep, p.get("positions", np.empty(0, np.int32))))
        return out

    def _eval_phrase(self, field: str, terms: list[str], slop: int, scoring: bool,
                     last_term_rows: Optional[np.ndarray] = None):
        """Positional phrase evaluation. slop=0 is fully vectorized via the
        (doc, pos - i) distinct-term-count trick; slop>0 runs the exact
        tantivy-style pairwise slop fold (see _sloppy_phrase)."""
        rows = self.reader.term_rows(field, terms[:-1] if last_term_rows is not None else terms)
        if (rows < 0).any():
            return self._eval_MatchNone(MatchNone(), scoring)
        nterms = len(terms)
        term_rows = [np.array([r]) for r in rows]
        if last_term_rows is not None:
            term_rows.append(last_term_rows)
        all_doc, all_adj, piece_term = [], [], []
        for i, trs in enumerate(term_rows):
            for (p, docs_rep, poss) in self._phrase_positions(field, trs[trs >= 0]):
                all_doc.append(docs_rep)
                all_adj.append(poss.astype(np.int64) - i)
                piece_term.append(np.full(len(docs_rep), i, np.int8))
        if not all_doc:
            return self._eval_MatchNone(MatchNone(), scoring)
        doc = np.concatenate(all_doc)
        adj = np.concatenate(all_adj)
        tix = np.concatenate(piece_term)
        mask = np.zeros(self.n, bool)
        scores = np.zeros(self.n, np.float32) if scoring else None
        if len(doc) == 0:
            return mask, scores
        if slop == 0:
            adjoff = adj + nterms  # adj >= -(nterms-1) -> adjoff >= 1
            key = doc.astype(np.int64) * (int(adjoff.max()) + 1) + adjoff
            order = np.argsort(key, kind="stable")
            k = key[order]
            run_start = np.empty(len(k), bool)
            run_start[0] = True
            run_start[1:] = k[1:] != k[:-1]
            run_ids = np.cumsum(run_start) - 1
            # distinct terms per run == nterms -> a phrase occurrence
            cnt = np.zeros(run_ids[-1] + 1, np.int32)
            # positions are unique per (term, doc), so each (run, term) pair
            # appears at most once; a plain bincount counts distinct terms
            np.add.at(cnt, run_ids, 1)
            ok_runs = cnt == nterms
            occ_doc = doc[order][run_start][ok_runs]
            if len(occ_doc) == 0:
                return mask, scores
            phrase_doc, phrase_tf = np.unique(occ_doc, return_counts=True)
        else:
            phrase_doc, phrase_tf = self._sloppy_phrase(doc, adj, tix, nterms, slop)
            if len(phrase_doc) == 0:
                return mask, scores
        mask[phrase_doc] = True
        if scores is not None:
            # df of the phrase = number of docs containing it (per-split)
            scores[phrase_doc] = self.bm25(field).score(
                phrase_doc, phrase_tf, float(len(phrase_doc)))
        return mask, scores

    def _sloppy_phrase(self, doc, adj, tix, nterms, slop):
        """Tantivy-style slop fold (reference FullTextMode::Phrase{slop},
        quickwit-query/src/query_ast/full_text_query.rs:140-150, delegating
        to tantivy's PhraseScorer `intersection_with_slop`): terms fold left
        to right over ADJUSTED positions (pos - term_index); at each step the
        occurrences of term i+1 are matched one-to-one against the surviving
        chain positions with window |chain - right| <= slop, and the matched
        RIGHT positions become the new chain. Matching is greedy maximal
        (each right consumes the smallest still-unconsumed chain position in
        its window — greedy on sorted lists IS maximum matching), so each
        adjacent pair gets the full slop (no shared budget across pairs) and
        a transposition costs 2 — Lucene-compatible on the standard cases.
        The final chain length per doc is the phrase tf used for scoring
        (tantivy's phrase_count). One-to-one consumption is the load-bearing
        difference from the round-2 ordered-near approximation: in
        "a b b c" the single `a` anchors only ONE `b`, so a chain that needs
        both b's cannot double-spend it.

        Two passes: (1) a fully vectorized EXISTENCE fold (two searchsorteds
        per step over (doc << 32 | off) keys) — a proven superset of the
        exact matches — prunes the candidate docs; (2) the exact greedy
        consumption pass runs as one Python loop over the surviving right
        occurrences only (list-based, ~1e7 steps/s; only pathological
        stopword-slop queries ever see large survivor sets)."""
        order = np.lexsort((adj, tix, doc))
        doc, adj, tix = doc[order], adj[order], tix[order]
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        # candidate docs: those containing ALL terms
        pair = doc.astype(np.int64) * nterms + tix
        d_of = np.unique(pair) // nterms
        dd, cnt = np.unique(d_of, return_counts=True)
        cand = dd[cnt == nterms]
        if len(cand) == 0:
            return empty
        keep = np.isin(doc, cand)
        doc64 = doc[keep].astype(np.int64)
        adj64 = adj[keep].astype(np.int64)
        tixk = tix[keep]
        # offset so windows never underflow: adjusted >= -(nterms-1)
        off = adj64 + nterms + slop
        key = (doc64 << np.int64(32)) | off
        slop64 = np.int64(slop)
        # ---- pass 1: vectorized existence fold (superset prefilter) ----
        left = key[tixk == 0]
        for i in range(1, nterms):
            sel = tixk == i
            rk = key[sel]
            pos = np.searchsorted(left, rk - slop64, side="left")
            ok = (pos < len(left)) & (left[np.minimum(pos, len(left) - 1)] <= rk + slop64)
            if not ok.any():
                return empty
            # surviving right positions become the (superset) chain
            left = rk[ok]
        alive = np.unique(left >> np.int64(32))
        # ---- pass 2: exact greedy one-to-one consumption fold ----
        keep2 = np.isin(doc64, alive)
        key2 = key[keep2]
        tix2 = tixk[keep2]
        chain = key2[tix2 == 0].tolist()
        for i in range(1, nterms):
            rks = key2[tix2 == i]
            lo = (rks - slop64).tolist()
            hi = (rks + slop64).tolist()
            ck = chain
            nck = len(ck)
            out = []
            p = 0
            rlist = rks.tolist()
            for k in range(len(rlist)):
                l = lo[k]
                while p < nck and ck[p] < l:
                    p += 1
                if p < nck and ck[p] <= hi[k]:
                    out.append(rlist[k])
                    p += 1
            if not out:
                return empty
            chain = out
        final_doc = np.asarray(chain, np.int64) >> np.int64(32)
        md, mt = np.unique(final_doc, return_counts=True)
        return md.astype(np.int64), mt.astype(np.int64)

    def _eval_PhrasePrefixQuery(self, node: PhrasePrefixQuery, scoring: bool):
        jf = self.mapping.resolve_json_path(node.field)
        if jf is not None:
            from quickwit_ray.index.writer import JSON_PATH_SEP

            toks = tokenize(node.text, node.analyzer or jf[0].tokenizer)
            if not toks:
                return self._eval_MatchNone(MatchNone(), scoring)
            terms = [jf[1] + JSON_PATH_SEP + t for t in toks]
            prows = self.reader.term_range_rows(
                jf[0].name, None, None, prefix=terms[-1],
                limit=node.max_expansions)
            if len(terms) == 1:
                return self._term_postings_score(jf[0].name, prows, scoring,
                                                 const_score=True)
            return self._eval_phrase(jf[0].name, terms, 0, scoring,
                                     last_term_rows=prows)
        fm = self.mapping.resolve_field(node.field)
        terms = tokenize(node.text, node.analyzer or fm.tokenizer)
        if not terms:
            return self._eval_MatchNone(MatchNone(), scoring)
        prows = self.reader.term_range_rows(node.field, None, None, prefix=terms[-1],
                                            limit=node.max_expansions)
        if len(terms) == 1:
            return self._term_postings_score(node.field, prows, scoring, const_score=True)
        return self._eval_phrase(node.field, terms, 0, scoring, last_term_rows=prows)

    # -- fast-field operators ------------------------------------------

    def _fast_values(self, field: str):
        vals = self.reader.fast_field(field)
        return vals

    def _eval_RangeQuery(self, node: RangeQuery, scoring: bool):
        import pandas as pd

        fm = self.mapping.resolve_field(node.field) if _has_field(self.mapping, node.field) else None
        vals = self._fast_values(node.field)

        def coerce(v):
            if fm is not None and fm.type == "ip":
                from quickwit_ray.functions.ip import normalize_ip

                return normalize_ip(v)
            if fm is not None and fm.type == "datetime":
                # bare numbers (including digit strings from the query
                # parser) auto-detect the epoch unit by magnitude (the
                # reference's unix_timestamp input format) —
                # 1422748813000 is millis, not micros
                from quickwit_ray.functions.datetimes import (
                    datetime_value_to_us)

                us = np.int64(datetime_value_to_us(v))
                # bounds quantize to the fast column's precision, matching
                # the stored truncation (date_time_type.rs fast_precision)
                q = fm.fast_precision_us
                return (us // q) * q if q > 1 else us
            if (fm is not None and fm.type == "text"
                    and fm.fast_normalizer == "lowercase"
                    and isinstance(v, str)):
                return v.lower()
            if vals.dtype.kind in "iuf" and not isinstance(v, (int, float, np.number)):
                return float(v)
            return v

        mask = np.ones(self.n, bool)
        if node.gte is not None:
            mask &= vals >= coerce(node.gte)
        if node.gt is not None:
            mask &= vals > coerce(node.gt)
        if node.lte is not None:
            mask &= vals <= coerce(node.lte)
        if node.lt is not None:
            mask &= vals < coerce(node.lt)
        scores = None
        if scoring:
            scores = np.where(mask, np.float32(1.0), np.float32(0.0)).astype(np.float32)
        return mask, scores

    def _eval_ExistsQuery(self, node: ExistsQuery, scoring: bool):
        jf = self.mapping.resolve_json_path(node.field)
        if jf is not None:
            # per-path presence inside a json field (the reference's
            # field-presence hashes, doc_mapper): docs holding any term
            # under `path<SEP>` or any nested `path.sub<SEP>`
            from quickwit_ray.index.writer import JSON_PATH_SEP

            rows = np.concatenate([
                self.reader.term_range_rows(jf[0].name, None, None,
                                            prefix=jf[1] + JSON_PATH_SEP),
                self.reader.term_range_rows(jf[0].name, None, None,
                                            prefix=jf[1] + "."),
            ])
            mask, _ = self._term_postings_score(jf[0].name, rows, False)
            scores = (np.where(mask, np.float32(1.0), np.float32(0.0))
                      .astype(np.float32) if scoring else None)
            return mask, scores
        mask = self.reader.fast_field_valid(node.field)
        if mask is None:
            # text field presence = a non-empty token stream: fieldnorm > 0
            # when norms exist, else an OR over the field's whole dictionary
            norms = self.reader.fieldnorm_ids(node.field)
            if norms.any():
                mask = norms > 0
            else:
                rows = self.reader.term_range_rows(node.field, None, None)
                mask, _ = self._term_postings_score(node.field, rows, False)
        scores = None
        if scoring:
            scores = np.where(mask, np.float32(1.0), np.float32(0.0)).astype(np.float32)
        return mask, scores

    def _eval_WildcardQuery(self, node: WildcardQuery, scoring: bool):
        import re as _re

        jf = self.mapping.resolve_json_path(node.field)
        field = jf[0].name if jf is not None else node.field
        if jf is not None:
            tokenizer = jf[0].tokenizer
        elif _has_field(self.mapping, node.field):
            tokenizer = self.mapping.resolve_field(node.field).tokenizer
        else:
            tokenizer = "default"
        # The reference normalizes the pattern's LITERAL runs through the
        # field's tokenizer (wildcard_query.rs): `Jou*al` -> jou.*al, and
        # an escaped punctuation char (`jour\?`) normalizes away entirely,
        # leaving the exact term `jour`.
        segs: list[str] = []  # regex pieces
        lit: list[str] = []

        def flush_literal():
            if not lit:
                return
            toks = tokenize("".join(lit), tokenizer)
            segs.append("".join(_re.escape(t) for t in toks))
            lit.clear()

        i = 0
        p = node.pattern
        while i < len(p):
            ch = p[i]
            if ch == "\\" and i + 1 < len(p):
                lit.append(p[i + 1])
                i += 2
                continue
            if ch in "*?":
                flush_literal()
                segs.append(".*" if ch == "*" else ".")
            else:
                lit.append(ch)
            i += 1
        flush_literal()
        rx = "".join(segs)
        # prefix optimization: literal head narrows the dictionary scan
        m = _re.match(r"^[^.\\\[\](){}+*?|^$]*", rx)
        prefix = m.group(0) if m else ""
        if jf is not None:
            from quickwit_ray.index.writer import JSON_PATH_SEP

            rx = _re.escape(jf[1] + JSON_PATH_SEP) + rx
            prefix = jf[1] + JSON_PATH_SEP + prefix
        rows = self.reader.term_range_rows(field, None, None,
                                           prefix=prefix or None, regex=rx)
        return self._term_postings_score(field, rows, scoring, const_score=True)

    def _eval_RegexQuery(self, node: RegexQuery, scoring: bool):
        jf = self.mapping.resolve_json_path(node.field)
        if jf is not None:
            import re as _re

            from quickwit_ray.index.writer import JSON_PATH_SEP

            prefix = jf[1] + JSON_PATH_SEP
            rows = self.reader.term_range_rows(
                jf[0].name, None, None, prefix=prefix,
                regex=_re.escape(prefix) + node.regex)
            return self._term_postings_score(jf[0].name, rows, scoring,
                                             const_score=True)
        rows = self.reader.term_range_rows(node.field, None, None, regex=node.regex)
        return self._term_postings_score(node.field, rows, scoring, const_score=True)

    # -- bool -----------------------------------------------------------

    def _eval_BoolQuery(self, node: BoolQuery, scoring: bool):
        mask = None
        scores = np.zeros(self.n, np.float32) if scoring else None
        for sub in node.must:
            m, s = self.eval(sub, scoring)
            mask = m if mask is None else (mask & m)
            if scores is not None and s is not None:
                scores += s
        for sub in node.filter:
            m, _ = self.eval(sub, False)
            mask = m if mask is None else (mask & m)
        should_masks = []
        for sub in node.should:
            m, s = self.eval(sub, scoring)
            should_masks.append(m)
            if scores is not None and s is not None:
                scores += np.where(m, s, np.float32(0.0)).astype(np.float32)
        if should_masks:
            msm = node.minimum_should_match
            if msm is None:
                msm = 0 if mask is not None else 1
            if msm > 0:
                cnt = np.zeros(self.n, np.int16)
                for m in should_masks:
                    cnt += m
                sm = cnt >= msm
                mask = sm if mask is None else (mask & sm)
            elif mask is None:
                mask = np.zeros(self.n, bool)
                for m in should_masks:
                    mask |= m
        if mask is None:
            mask = np.ones(self.n, bool)
        for sub in node.must_not:
            m, _ = self.eval(sub, False)
            mask &= ~m
        if scores is not None:
            scores = np.where(mask, scores, np.float32(0.0)).astype(np.float32)
        return mask, scores

    # ------------------------------------------------------------------
    # MaxScore-pruned disjunctive top-k (the Block-Max-WAND family:
    # per-term score upper bounds from the cached dictionary's max_tf +
    # df — bm25_max_score — let low-impact terms skip the expensive
    # per-posting scoring while the match mask stays exact)
    # ------------------------------------------------------------------

    def eval_or_topk_pruned(self, field: str, terms: list[str], k: int,
                            theta0: Optional[float] = None):
        """Exact top-k for a pure disjunction of terms, scored with BM25.

        Returns (mask, scores) like eval(), with the guarantee that the
        top-k docs carry their exact full scores and the mask is the exact
        match set; scores of docs provably outside the top-k may be
        partial (they are never surfaced). Terms are processed in
        descending upper-bound order; once the remaining terms' summed
        upper bound falls below the current kth-best score, later terms
        only (a) extend the mask and (b) refine docs still able to reach
        the threshold.
        """
        from quickwit_ray.functions.bm25 import bm25_max_score

        rows = self.reader.term_rows(field, terms)
        rows = rows[rows >= 0]
        mask = np.zeros(self.n, bool)
        scores = np.zeros(self.n, np.float32)
        if len(rows) == 0:
            return mask, scores
        sc = self.bm25(field)
        ubs = np.asarray([
            bm25_max_score(1.0 if sc.basic else float(self.reader.max_tf[r]),
                           float(self.reader.df[r]), sc.num_docs, sc.avgdl)
            for r in rows])
        order = np.argsort(-ubs, kind="stable")
        rows, ubs = rows[order], ubs[order]
        rem_after = np.concatenate([np.cumsum(ubs[::-1])[::-1][1:], [0.0]])
        # cross-split sharing: start at the global kth hint instead of -inf
        theta = -np.inf if theta0 is None else float(theta0)
        eps = 1e-6
        for i, r in enumerate(rows):
            raw = self.reader.read_postings_raw(int(r))
            docs, tfs = decode_posting_blocks(raw)
            if len(docs) == 0:
                continue
            tfs = sc.tf(tfs)
            ub_doc = None
            if len(raw["block_min_norm"]) == len(raw["block_lens"]):
                # per-block (max tf, min fieldnorm) score bound: strictly
                # tighter than the term-level ubs[i], so the candidate
                # test below prunes at block granularity (stopword blocks
                # full of long docs drop out even when tf is flat)
                ub_doc = np.repeat(block_score_bounds(
                    raw, float(self.reader.df[int(r)]), sc.num_docs,
                    sc.avgdl, sc.basic or len(raw["tfs"]) == 0),
                    raw["block_lens"])
            if theta == -np.inf:
                docs_s, tfs_s = docs, tfs
            else:
                # a doc (seen or new) can only reach the current kth-best
                # score if its accumulated score + this term's (block-level
                # when available) + remaining terms' upper bounds clears
                # theta; everything else only needs the match mask, not the
                # BM25 arithmetic + fieldnorm gathers
                bound = ((ubs[i] if ub_doc is None else ub_doc)
                         + rem_after[i])
                sel = scores[docs].astype(np.float64) + bound >= theta - eps
                docs_s, tfs_s = docs[sel], tfs[sel]
            mask[docs] = True
            if len(docs_s):
                scores[docs_s] += sc.score(docs_s, tfs_s, float(len(docs)))
            if k > 0:
                matched = scores[mask]
                if len(matched) >= k:
                    theta = max(theta, float(
                        np.partition(matched, len(matched) - k)[len(matched) - k]))
        return mask, scores

    def term_topk_blockmax(self, field: str, term: str, k: int,
                           theta0: Optional[float] = None):
        """Block-Max top-k for a SINGLE scored term: per-block score upper
        bounds (``block_score_bounds``) prune whole blocks — only blocks
        whose bound clears the running kth-best score are decoded and
        scored. Returns (doc_ids, scores, df): the candidates, which hold
        the exact top-k, and the term's df (exact num_hits); empty
        arrays and df 0 when the dictionary misses the term."""
        rows = self.reader.term_rows(field, [term])
        if rows[0] < 0:
            return np.empty(0, np.int64), np.empty(0, np.float32), 0
        row = int(rows[0])
        sc = self.bm25(field)
        df = float(self.reader.df[row])
        # hotcache fast path (hot_directory.rs analog): score the
        # pre-decoded top-impact blocks from the tiny sidecar; when every
        # non-embedded block's bound falls below the resulting kth score,
        # the top-k is provably complete after ONE small read. Otherwise
        # the established threshold seeds the full evaluation (theta0
        # semantics: docs below it cannot enter the top-k, and every doc
        # at-or-above it is re-decoded by the rounds below — no
        # duplicates, exact).
        hot = (self.reader.hot_entry(row)
               if not self.reader.postings_cached(row) else None)
        if hot is not None and hot["df"] == int(df):
            flat_h = sc.basic or not hot["has_tfs"]
            ub_h = block_score_bounds(hot, df, sc.num_docs, sc.avgdl, flat_h)
            docs1 = hot["docs"].astype(np.int64)
            tfs1 = (np.ones(len(docs1), np.int64) if flat_h
                    else hot["tfs"].astype(np.int64))
            scores1 = sc.score(docs1, tfs1, df)
            if len(scores1) >= k:
                theta_h = float(np.partition(
                    scores1, len(scores1) - k)[len(scores1) - k])
                if theta0 is not None:
                    theta_h = max(theta_h, float(theta0))
                restmask = np.ones(len(ub_h), bool)
                restmask[hot["sel"]] = False
                if not np.any(restmask & (ub_h >= theta_h)):
                    return docs1, scores1, int(df)
                theta0 = theta_h  # seed the full path
        raw = self.reader.read_postings_raw(row)
        lens = raw["block_lens"]
        ub = block_score_bounds(raw, df, sc.num_docs, sc.avgdl,
                                sc.basic or len(raw["tfs"]) == 0)

        def scored(sel: Optional[np.ndarray]):
            docs, tfs = decode_posting_blocks(raw, sel)
            return docs, sc.score(docs, sc.tf(tfs), df)

        order = np.argsort(-ub, kind="stable")
        # round 1: best-bound blocks covering a few k docs -> threshold.
        # At least 2k BLOCKS: with min-norm bounds each best block may
        # contribute only ONE top candidate (its shortest doc), and a
        # theta built from fewer than k of those can't prune anything.
        covered = np.cumsum(lens[order])
        n1 = int(np.searchsorted(covered, max(4 * k, 1024))) + 1
        n1 = max(n1, min(len(lens), 2 * k))
        docs1, scores1 = scored(order[:n1])
        if len(scores1) >= k:
            theta = float(np.partition(scores1, len(scores1) - k)[len(scores1) - k])
        else:
            theta = -np.inf
        if theta0 is not None:
            theta = max(theta, float(theta0))
        # round 2: every remaining block whose bound clears the threshold
        rest = order[n1:]
        rest = rest[ub[rest] >= theta]
        if len(rest) > 0.8 * max(len(lens) - n1, 1):
            # bound prunes almost nothing (flat tf distribution): one plain
            # contiguous decode beats the segmented gather
            return (*scored(None), int(df))
        if len(rest):
            docs2, scores2 = scored(rest)
            docs = np.concatenate([docs1, docs2])
            scores = np.concatenate([scores1, scores2])
        else:
            docs, scores = docs1, scores1
        return docs, scores, int(df)

    # ------------------------------------------------------------------
    # top-k collection (collector.rs:476-596 semantics)
    # ------------------------------------------------------------------

    def collect_top_k(self, mask: np.ndarray, scores: Optional[np.ndarray],
                      sort_fields: tuple, k: int,
                      search_after: Optional[tuple] = None,
                      split_id: str = ""):
        """Return (doc_ids, sort_key_0, sort_key_1) of the split's k best
        hits under ≤2 sort keys with the reference tie-break: trailing key
        is doc id compared IN the sort direction of the first key; default
        sort (no fields) = descending doc id (sorting.md:8-25).

        `search_after` is the canonical 4-tuple cursor
        (sort_key0, sort_key1, split_id, doc_id) — the GlobalDocAddress
        analog — or a keys-only 2-tuple (strictly-after semantics, ties
        excluded)."""
        from quickwit_ray.search.sortkeys import SortColumn

        docs = np.nonzero(mask)[0]
        if len(docs) == 0:
            return docs, np.empty(0, object), np.empty(0, object)
        sfs = (list(sort_fields) or [SortField("_doc", "desc")])[:2]
        cols: list[SortColumn] = []
        orders = []
        for sf in sfs:
            if sf.field == "_score":
                v = (scores[docs] if scores is not None
                     else np.zeros(len(docs), np.float32)).astype(np.float64)
                cols.append(SortColumn.from_numpy(v))
            elif sf.field == "_doc":
                cols.append(SortColumn.from_numpy(docs.astype(np.int64)))
            else:
                try:
                    arr = self.reader.fast_field_arrow(sf.field)
                except KeyError:
                    arr = None
                cols.append(SortColumn.from_arrow(arr, docs))
            orders.append(sf.order)
        # top-k preselection: when the match set is much larger than k,
        # argpartition on the primary key's order encoding (keeping ALL
        # boundary ties so the doc-id tie-break stays exact)
        if search_after is None and len(docs) > max(4 * k, 1024) and k > 0:
            primary = cols[0].order_enc(orders[0] == "desc")
            kth = np.partition(primary, k - 1)[k - 1]
            keep = primary <= kth
            if keep.sum() <= max(8 * k, 2048):
                sel = np.nonzero(keep)[0]
                docs = docs[sel]
                cols = [c.subset(sel) for c in cols]
        # lexsort over the uint64 order encodings (nulls last in either
        # direction); trailing tie-break = doc id in the primary direction
        lex_keys = [c.order_enc(o == "desc")
                    for c, o in zip(cols, orders)]
        if sfs[-1].field != "_doc":
            d = SortColumn.from_numpy(docs.astype(np.int64))
            lex_keys.append(d.order_enc(orders[0] == "desc"))
        order = np.lexsort(list(reversed(lex_keys)))
        if search_after is not None:
            primary_desc = orders[0] == "desc"
            cursor = tuple(search_after)
            a0, e0 = cols[0].after_eq(cursor[0], primary_desc)
            m = a0
            if len(sfs) > 1:
                a1, e1 = cols[1].after_eq(
                    cursor[1] if len(cursor) > 1 else None,
                    orders[1] == "desc")
                m = m | (e0 & a1)
                eqk = e0 & e1
            else:
                eqk = e0
            if len(cursor) >= 4:
                # address tie-break mirrors merge_partial_hits: split_id
                # then doc_id, both compared in the primary sort direction
                c_split, c_doc = str(cursor[2]), int(cursor[3])
                if split_id != c_split:
                    split_after = ((split_id < c_split) if primary_desc
                                   else (split_id > c_split))
                    if split_after:
                        m = m | eqk
                else:
                    tie = ((docs < c_doc) if primary_desc
                           else (docs > c_doc))
                    m = m | (eqk & tie)
            order = order[m[order]]
        order = order[:k]
        docs_sorted = docs[order]
        key0 = cols[0].exact(order)
        key1 = (cols[1].exact(order) if len(sfs) > 1
                else np.zeros(len(order), object))
        return docs_sorted, key0, key1


def _has_field(mapping: DocMapping, name: str) -> bool:
    try:
        mapping.field(name)
        return True
    except KeyError:
        return False
