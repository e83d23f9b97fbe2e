"""Replay of the reference's REST conformance corpus
(`/root/reference/quickwit/rest-api-tests/scenarii/`) through the offline
ES dispatcher (`quickwit_ray.search.es_rest.EsRestService`).

The reference runs these YAML scenarios over HTTP against a live quickwit;
here the same step stream (method/endpoint/params/json + subset-matched
`expected`, `$expect` eval hooks, `store`/`$previous` chaining, engines
filtering, status_code assertions) drives the library surface directly.

Index setup: the reference's `_setup.quickwit.yaml` mappings are dynamic
(schemaless) — our engine is column-oriented, so each suite's mapping is
declared explicitly below with the same semantics: json fields for nested
subtrees (expand_dots path queries), flattened fast columns for the paths
the scenarios sort/range/aggregate on, and a stored `_source` json column
(the reference's store_source) for verbatim `_source` rendering.

Documented divergences (steps skipped via _SKIP, reason inline):
  * `_cat/indices` size expectations assume tantivy file sizes and the
    otel default indexes — not comparable byte-for-byte.
"""

from __future__ import annotations

import gzip
import json
import os

import pytest

yaml = pytest.importorskip("yaml")

SCENARII = "/root/reference/quickwit/rest-api-tests/scenarii"
ES_COMPAT = os.path.join(SCENARII, "es_compatibility")

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SCENARII),
    reason="reference conformance corpus not available")

from quickwit_ray.api import Index  # noqa: E402
from quickwit_ray.config import (  # noqa: E402
    DocMapping,
    FieldMapping,
    IndexSettings,
)
from quickwit_ray.search.es_rest import EsRestService  # noqa: E402


# ---------------------------------------------------------------------------
# index setups (one per suite family)
# ---------------------------------------------------------------------------

def _gharchive_mapping() -> DocMapping:
    FM = FieldMapping
    return DocMapping(
        field_mappings=(
            FM("id", "text", tokenizer="raw", stored=True),
            FM("type", "text", record="position", fieldnorms=True,
               fast=True, fast_normalizer="lowercase"),
            FM("actor", "json", record="position"),
            FM("repo", "json", record="position"),
            FM("payload", "json", record="position"),
            FM("org", "json", record="position"),
            FM("public", "bool", fast=True),
            FM("created_at", "datetime", fast=True,
               fast_precision="milliseconds", input_formats=("rfc3339",)),
            # flattened fast columns for the paths the corpus sorts /
            # ranges on (the reference reaches them via dynamic fast)
            FM("actor.id", "i64", fast=True, indexed=False),
            FM("actor.login", "text", fast=True,
               fast_normalizer="lowercase", indexed=False),
            FM("repo.name", "text", record="position", fast=True),
            FM("payload.size", "i64", fast=True, indexed=False),
            FM("_source", "json", indexed=False, stored=True),
        ),
        mode="lenient", timestamp_field="created_at", doc_id_field="id",
        default_search_fields=())


def _prep_gharchive(doc: dict) -> dict:
    actor = doc.get("actor") or {}
    repo = doc.get("repo") or {}
    payload = doc.get("payload") or {}
    return {
        "_source": doc,
        "id": doc.get("id"), "type": doc.get("type"),
        "actor": doc.get("actor"), "repo": doc.get("repo"),
        "payload": doc.get("payload"), "org": doc.get("org"),
        "public": doc.get("public"), "created_at": doc.get("created_at"),
        "actor.id": actor.get("id"), "actor.login": actor.get("login"),
        "repo.name": repo.get("name"), "payload.size": payload.get("size"),
    }


@pytest.fixture(scope="module")
def es_service(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("es_conformance")

    # -- gharchive (es_compatibility suites) ----------------------------
    gharchive = Index.create(str(tmp / "gharchive"), "gharchive",
                             _gharchive_mapping())
    bulk_path = os.path.join(ES_COMPAT, "gharchive-bulk.json.gz")
    lines = gzip.decompress(open(bulk_path, "rb").read()).decode().splitlines()
    docs = [json.loads(ln) for ln in lines
            if ln.strip() and '"index"' not in ln[:20]]
    assert len(docs) == 100
    gharchive.ingest_docs([_prep_gharchive(d) for d in docs])

    # -- empty_index (stats scenarios) -----------------------------------
    empty = Index.create(str(tmp / "empty_index"), "empty_index", DocMapping(
        field_mappings=(FieldMapping("created_at", "datetime", fast=True,
                                     input_formats=("rfc3339",)),),
        mode="lenient", doc_id_field="created_at"))

    # -- sortorder (sort_orders suite) -----------------------------------
    FM = FieldMapping
    sortorder = Index.create(str(tmp / "sortorder"), "sortorder", DocMapping(
        field_mappings=(FM("count", "f64", fast=True),
                        FM("id", "i64", fast=True),
                        FM("_source", "json", indexed=False, stored=True)),
        mode="lenient", doc_id_field="id"))
    so_docs = [{"count": 10, "id": 1}, {"count": 10, "id": 2},
               {"count": 15, "id": 2}, {"id": 3}, {"count": 10, "id": 0},
               {"count": -2.5, "id": 4}, {"id": 5}]
    sortorder.ingest_docs([{**d, "_source": d} for d in so_docs])

    # -- multi_splits suite (several force-committed ingests = splits) ---
    multi = Index.create(str(tmp / "multi_splits"), "multi_splits", DocMapping(
        field_mappings=(FM("timestamp", "datetime", fast=True,
                           input_formats=("rfc3339",)),
                        FM("_source", "json", indexed=False, stored=True)),
        mode="lenient", timestamp_field="timestamp", doc_id_field="timestamp"))
    ms = ["2015-01-10T10:00:00Z", "2015-01-11T12:00:00Z",
          "2015-01-10T10:00:00Z", "2015-01-10T13:00:00Z",
          "2015-01-11T12:00:00Z", "2015-01-10T10:00:00Z",
          "2015-01-10T14:00:00.000000001Z", "2015-01-11T12:00:00Z",
          "2015-01-10T10:00:00Z", "2015-01-10T12:00:00Z",
          "2015-01-11T12:00:00Z", "2016-01-10T10:00:00Z",
          "2016-01-11T12:00:00Z"]
    # three separate ingests -> three splits (the suite's min_splits: 1 /
    # max_splits: 10 contract), exercising cross-split sorted merges
    for chunk in (ms[:5], ms[5:10], ms[10:]):
        multi.ingest_docs([{"timestamp": t, "_source": {"timestamp": t}}
                           for t in chunk])

    # -- aggregations suite ----------------------------------------------
    aggidx = Index.create(str(tmp / "aggregations"), "aggregations", DocMapping(
        field_mappings=(FM("name", "text", fast=True),
                        FM("response", "f64", fast=True),
                        FM("id", "i64", fast=True),
                        FM("high_prec_test", "u64", fast=True),
                        FM("date", "datetime", fast=True,
                           fast_precision="seconds",
                           input_formats=("rfc3339",)),
                        FM("host", "text", fast=True),
                        FM("tags", "text", fast=True),
                        FM("_source", "json", indexed=False, stored=True)),
        mode="lenient", doc_id_field="id"))
    agg_setup = os.path.join(SCENARII, "aggregations", "_setup.quickwit.yaml")
    # one split per setup ingest step (two commit:force ingests = two
    # splits), matching the reference's cross-split terms/split_size cases
    for step in yaml.safe_load_all(open(agg_setup)):
        if step and step.get("endpoint") == "aggregations/ingest":
            docs = step.get("ndjson") or []
            aggidx.ingest_docs([{**d, "_source": d} for d in docs])
    empty_agg = Index.create(str(tmp / "empty_aggregations"),
                             "empty_aggregations", DocMapping(
        field_mappings=(FM("date", "datetime", fast=True,
                           input_formats=("rfc3339",)),),
        mode="lenient", doc_id_field="date"))

    # one service per suite family, mirroring the reference environments
    # (the global `_stats` / `_cat` endpoints see only that suite's indexes)
    return {
        "es_compat": EsRestService({"gharchive": gharchive,
                                    "empty_index": empty}),
        "sort_orders": EsRestService({"sortorder": sortorder}),
        "multi_splits": EsRestService({"multi_splits": multi}),
        "aggregations": EsRestService({"aggregations": aggidx,
                                       "empty_aggregations": empty_agg}),
    }


# ---------------------------------------------------------------------------
# replay engine
# ---------------------------------------------------------------------------

def _subset_match(expected, actual, path="$"):
    """Recursive assertion mirroring the reference runner's check_result
    (run_tests.py:156-201): `$expect` short-circuits its dict (sibling
    keys are NOT checked — the runner returns after the first
    expectation), lists compare by EXACT length + position, dicts are
    subset-matched."""
    errs: list[str] = []
    if isinstance(expected, dict) and "$expect" in expected:
        exprs = expected["$expect"]
        exprs = exprs if isinstance(exprs, list) else [exprs]
        for expr in exprs:
            if not eval(expr, {}, {"val": actual}):  # noqa: S307
                errs.append(f"{path}: $expect failed: {expr!r} "
                            f"(val={str(actual)[:200]!r})")
        return errs
    if isinstance(expected, dict):
        for k, v in expected.items():
            if not isinstance(actual, dict) or k not in actual:
                errs.append(f"{path}.{k}: missing "
                            f"(actual={str(actual)[:200]!r})")
                continue
            errs.extend(_subset_match(v, actual[k], f"{path}.{k}"))
        return errs
    if isinstance(expected, list):
        if not isinstance(actual, list):
            return [f"{path}: expected list, got {type(actual).__name__}"]
        if len(actual) != len(expected):
            return [f"{path}: expected exactly {len(expected)} items, "
                    f"got {len(actual)}"]
        for i, e in enumerate(expected):
            errs.extend(_subset_match(e, actual[i], f"{path}[{i}]"))
        return errs
    if isinstance(expected, float) or isinstance(actual, float):
        try:
            if abs(float(expected) - float(actual)) <= 1e-6 * max(
                    1.0, abs(float(expected))):
                return []
        except (TypeError, ValueError):
            pass
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def _resolve_previous(node, prev):
    """Substitute `$previous: <expr>` nodes with eval(expr, val=prev)."""
    if isinstance(node, dict):
        if set(node) == {"$previous"}:
            return eval(node["$previous"], {}, {"val": prev})  # noqa: S307
        return {k: _resolve_previous(v, prev) for k, v in node.items()}
    if isinstance(node, list):
        return [_resolve_previous(v, prev) for v in node]
    return node


def replay_file(service: EsRestService, yaml_path: str,
                default_endpoint: str = "gharchive/_search",
                skip=()):
    failures: list[str] = []
    prev_resp = None
    stored: dict = {}
    with open(yaml_path) as f:
        steps = list(yaml.safe_load_all(f))
    for i, step in enumerate(steps):
        if not step or not isinstance(step, dict):
            continue
        if i in skip:
            continue
        engines = step.get("engines")
        if engines and "quickwit" not in engines:
            continue
        method = step.get("method", "GET")
        if isinstance(method, list):
            method = method[0]
        endpoint = step.get("endpoint", default_endpoint)
        if endpoint.startswith("_elastic/"):
            endpoint = endpoint[len("_elastic/"):]
        params = dict(step.get("params") or {})
        body = _resolve_previous(step.get("json"), prev_resp)
        ndjson = step.get("ndjson")
        status, resp = service.request(method, endpoint, params, body, ndjson)
        prev_resp = resp
        exp_status = step.get("status_code", 200)
        if exp_status is not None and status != exp_status:
            failures.append(
                f"step {i}: status {status} != {exp_status} "
                f"(endpoint={endpoint}, resp={json.dumps(resp)[:400]})")
            continue
        expected = step.get("expected")
        if expected is not None:
            for e in _subset_match(expected, resp, f"step {i}"):
                failures.append(f"{e}  [endpoint={endpoint}]")
        for key, field in (step.get("store") or {}).items():
            stored[key] = resp.get(field)
    return failures


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

ES_COMPAT_FILES = [
    "0001-noquery.yaml",
    "0002-query_string.yaml",
    "0003-match.yaml",
    "0004-term_aggregations.yaml",
    "0005-query_string_query.yaml",
    "0006-term_query.yaml",
    "0007-range_queries.yaml",
    "0008-sort_by.yaml",
    "0009-bool_query.yaml",
    "0010-match_phrase_prefix_query.yaml",
    "0011-exists-query.yaml",
    "0012-scroll-api.yaml",
    "0013-phrase-query.yaml",
    "0014-multi-match-query.yaml",
    "0015-terms-query.yaml",
    "0016-misc-query.yaml",
    "0017-match-bool-prefix-query.yaml",
    "0018-search_after.yaml",
    "0019-count.yaml",
    "0020-stats.yaml",
    "0021-cat-indices.yaml",
    "0022-source.yaml",
    "0023-extra_filters.yaml",
    "0025-msearch.yaml",
    "0026-resolve.yaml",
    "0027-cluster-health.yaml",
]

# step-level skips with documented divergence reasons:
# {file: {step_index: reason}}
_SKIP: dict[str, dict[int, str]] = {
    "0020-stats.yaml": {
        0: "store.size_in_bytes $expect assumes tantivy file sizes; our "
           "splits are parquet+zstd (smaller) — docs/segments counts are "
           "checked by the remaining steps",
    },
    "0021-cat-indices.yaml": {
        0: "expects the otel-* default indexes (no OTLP services in the "
           "offline suite) and tantivy byte sizes; wildcard/h/health/400 "
           "steps below cover the endpoint",
        1: "store.size $expect ranges assume tantivy file sizes; our "
           "parquet+zstd splits are smaller — shape is asserted by the "
           "h-projection steps",
    },
}

_AGG_SKIP: dict[int, str] = {
    10: "percentile values are sketch-implementation-specific (t-digest "
        "vs our centroid sketch) — shape `keyed:false` covered by a "
        "native test instead",
}


@pytest.mark.parametrize("fname", ES_COMPAT_FILES)
def test_es_compatibility(es_service, fname):
    path = os.path.join(ES_COMPAT, fname)
    skip = _SKIP.get(fname, {})
    failures = replay_file(es_service["es_compat"], path, skip=set(skip))
    assert not failures, "\n".join(failures)


def test_sort_orders_suite(es_service):
    path = os.path.join(SCENARII, "sort_orders", "0001-sort-elasticapi.yaml")
    failures = replay_file(es_service["sort_orders"], path,
                           default_endpoint="sortorder/_search")
    assert not failures, "\n".join(failures)


def test_multi_splits_suite(es_service):
    path = os.path.join(SCENARII, "multi_splits",
                        "0001-request-optimizations.yaml")
    failures = replay_file(es_service["multi_splits"], path,
                           default_endpoint="multi_splits/_search")
    assert not failures, "\n".join(failures)


def test_aggregations_suite(es_service):
    path = os.path.join(SCENARII, "aggregations", "0001-aggregations.yaml")
    failures = replay_file(es_service["aggregations"], path,
                           default_endpoint="aggregations/_search",
                           skip=set(_AGG_SKIP))
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# native-API suites: setup AND scenarios replay through IndexApiService
# (the reference's index-management + /{index}/search handlers), so index
# creation, validation 400s and ingest run the same path the YAML drives
# ---------------------------------------------------------------------------

# {suite: {file: {step_index: reason}}}
_NATIVE_SKIP: dict[str, dict[str, dict[int, str]]] = {}

NATIVE_SUITES = {
    "qw_search_api": ["0001_ts_range.yaml", "0002_negative_search.yaml",
                      "0003_exists_search.yaml"],
    "tag_fields": ["0001_allowed_types.yaml", "0002_negative_tags.yaml"],
    "default_search_fields": ["0001_default_fields.yaml",
                              "0002_invalid_default_fields.yaml"],
    "concat_fields": ["0001_concat_field.yaml"],
}


def test_multi_indices_suite(es_service, tmp_path):
    """es_compatibility/multi-indices: native index creation (dynamic
    fast mapping + strict object mapping) then federated ES `_search`
    over comma/wildcard/exclusion targets, multi-index scroll and
    cross-index aggregations. The 104-hit step needs the 100-doc
    gharchive index in the same registry (the reference environment runs
    all suites against one cluster)."""
    from quickwit_ray.index_api import IndexApiService

    d = os.path.join(SCENARII, "es_compatibility", "multi-indices")
    service = IndexApiService(
        {"gharchive": es_service["es_compat"].indexes["gharchive"]},
        index_root_dir=str(tmp_path / "indexes"))
    failures = replay_file(service, os.path.join(d, "_setup.quickwit.yaml"))
    assert not failures, "setup: " + "\n".join(failures)
    for fname in ["0001-muti_indices_query.yaml",
                  "0002-muti_indices_scroll.yaml",
                  "0003-multi_indices_aggs.yaml"]:
        failures = replay_file(service, os.path.join(d, fname))
        assert not failures, f"{fname}: " + "\n".join(failures)


def test_delete_indices_suite(tmp_path):
    """es_compatibility/0024: ES DELETE /{targets} with comma lists,
    ignore_unavailable, and 404 on concrete missing names — native
    creation + ES deletion through the combined dispatcher."""
    from quickwit_ray.index_api import IndexApiService

    service = IndexApiService({}, index_root_dir=str(tmp_path / "indexes"))
    failures = replay_file(service,
                           os.path.join(ES_COMPAT, "0024-delete_indices.yaml"))
    assert not failures, "\n".join(failures)


def test_info_suite(es_service):
    """es_compatibility_info/0001: the ES root info payload."""
    path = os.path.join(SCENARII, "es_compatibility_info", "0001-info.yaml")
    failures = replay_file(es_service["es_compat"], path, default_endpoint="")
    assert not failures, "\n".join(failures)


def test_search_after_edge_cases_suite(tmp_path):
    """search_after/0001: exact typed sort keys — u64/i64/f64 values at
    full precision (i64::MAX, 18e18-range u64), cross-type search_after
    coercion (f64 cursor on u64 column, out-of-domain saturation), and a
    dynamic column whose type differs per split (u64/f64/i64/bool)."""
    from quickwit_ray.index_api import IndexApiService

    d = os.path.join(SCENARII, "search_after")
    service = IndexApiService({}, index_root_dir=str(tmp_path / "indexes"))
    failures = replay_file(service, os.path.join(d, "_setup.quickwit.yaml"))
    assert not failures, "setup: " + "\n".join(failures)
    failures = replay_file(service,
                           os.path.join(d, "0001-search_after_edge_case.yaml"),
                           default_endpoint="search_after/_search")
    assert not failures, "\n".join(failures)


def test_doc_len_suite(tmp_path):
    """aggregations/0002: `store_document_size` persists each doc's
    serialized-JSON byte length as the aggregatable `_doc_length` fast
    field (sum == 952.0 over the setup corpus), and `_doc_length` never
    appears in rendered `_source`."""
    from quickwit_ray.index_api import IndexApiService

    d = os.path.join(SCENARII, "aggregations")
    service = IndexApiService({}, index_root_dir=str(tmp_path / "indexes"))
    failures = replay_file(service, os.path.join(d, "_setup.quickwit.yaml"))
    assert not failures, "setup: " + "\n".join(failures)
    failures = replay_file(service, os.path.join(d, "0002-doc-len.yaml"),
                           default_endpoint="aggregations/_search")
    assert not failures, "\n".join(failures)


def test_field_capabilities_suite(tmp_path):
    """es_field_capabilities/0001: per-split field metadata merged across
    time-pruned splits — dynamic per-type entries (long+double for a
    cross-split mixed column, keyword+text for strings, long
    searchable-but-not-aggregatable for ints coerced into a double
    column), `fields=` wildcards, index-wildcard targets with per-entry
    `indices` attribution, 404 for missing exact names."""
    from quickwit_ray.index_api import IndexApiService

    d = os.path.join(SCENARII, "es_field_capabilities")
    service = IndexApiService({}, index_root_dir=str(tmp_path / "indexes"))
    failures = replay_file(service, os.path.join(d, "_setup.quickwit.yaml"))
    assert not failures, "setup: " + "\n".join(failures)
    failures = replay_file(service,
                           os.path.join(d, "0001-field-capabilities.yaml"))
    assert not failures, "\n".join(failures)


def test_bulk_suite(tmp_path):
    """es_compatibility/bulk: per-item `_bulk` statuses (201 / 400
    document_parsing_exception / 404 index_not_found_exception),
    request-level malformed-action and index-missing 400s, PUT support,
    and index-template auto-creation on first ingest."""
    from quickwit_ray.index_api import IndexApiService

    d = os.path.join(SCENARII, "es_compatibility", "bulk")
    service = IndexApiService({}, index_root_dir=str(tmp_path / "indexes"))
    failures = replay_file(service, os.path.join(d, "_setup.quickwit.yaml"))
    assert not failures, "setup: " + "\n".join(failures)
    for fname in ["0001-happy-path.yaml", "0002-malformed-action.yaml",
                  "0003-validation-failed-index-missing.yaml",
                  "0004-put-request.yaml",
                  "0005-document-parsing-exception.yaml",
                  "0006-partial-index-not-found.yaml"]:
        failures = replay_file(service, os.path.join(d, fname),
                               default_endpoint="_bulk")
        assert not failures, f"{fname}: " + "\n".join(failures)


@pytest.mark.parametrize("suite", sorted(NATIVE_SUITES))
def test_native_api_suite(suite, tmp_path):
    from quickwit_ray.index_api import IndexApiService

    service = IndexApiService({}, index_root_dir=str(tmp_path / "indexes"))
    setup = os.path.join(SCENARII, suite, "_setup.quickwit.yaml")
    failures = replay_file(service, setup)
    assert not failures, "setup: " + "\n".join(failures)
    for fname in NATIVE_SUITES[suite]:
        skip = _NATIVE_SKIP.get(suite, {}).get(fname, {})
        failures = replay_file(service, os.path.join(SCENARII, suite, fname),
                               skip=set(skip))
        assert not failures, f"{fname}: " + "\n".join(failures)
