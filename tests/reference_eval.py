"""Reference evaluator for the leaf planner's pruned scorers: every
published split answers through the full evaluator
(``engine._full_leaf_search``) on a fresh reader, with no planner, no
leaf cache and no cross-split threshold, and the partials merge with
``merge_partial_hits`` as the root merges them."""

import os
from types import SimpleNamespace

from quickwit_ray.index.format import SplitReader
from quickwit_ray.search import engine
from quickwit_ray.search.ast import SearchRequest
from quickwit_ray.search.split_search import SplitSearcher


def reference_search(searcher, query, *, max_hits=10, sort_by="_score",
                     start_timestamp=None, end_timestamp=None):
    """``num_hits`` and merged ``hits`` (``_split_id``, ``_doc_id``,
    ``sort_key0``, ``sort_key1``) of ``searcher.search(query, ...)``,
    every leaf evaluated in full."""
    windowed = start_timestamp is not None or end_timestamp is not None
    request = SearchRequest(
        query=searcher._resolve_query(query), max_hits=max_hits,
        sort_fields=tuple(engine._normalize_sort(sort_by)),
        start_timestamp=start_timestamp, end_timestamp=end_timestamp,
        timestamp_field=(searcher.mapping.timestamp_field if windowed
                         else None))
    partials, split_ids = [], {}
    for sm in searcher.manifest.published_splits():
        d = os.path.join(searcher.index_dir, "splits", sm.split_id)
        split_ids[d] = sm.split_id
        leaf = SplitSearcher(SplitReader(d), searcher.mapping)
        partials.append(engine._full_leaf_search(leaf, d, request))
    return SimpleNamespace(
        num_hits=sum(p["num_hits"] for p in partials),
        hits=engine.merge_partial_hits(partials, request, split_ids))
