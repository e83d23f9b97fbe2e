"""Index configuration: doc mapping, indexing settings, merge policy.

Re-expresses the reference's schema system
(`quickwit/quickwit-doc-mapper/src/doc_mapping.rs:97-162`,
`field_mapping_entry.rs:435-483`) and indexing settings defaults
(`quickwit/quickwit-config/src/index_config/mod.rs:130-140`,
`merge_policy_config.rs:70-117`) as plain dataclasses. No Ray imports —
configs are shipped to workers inside closures / actor constructors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

# Field types supported (reference: field_mapping_type.rs:28-51).
FIELD_TYPES = {"text", "i64", "u64", "f64", "bool", "datetime", "bytes", "ip", "json"}

# record options for text fields (field_mapping_entry.rs:435-462):
#   basic    -> doc ids only (tf treated as 1 when scoring)
#   freq     -> + term frequencies
#   position -> + token positions (needed for phrase queries)
RECORD_OPTIONS = ("basic", "freq", "position")


@dataclass(frozen=True)
class FieldMapping:
    """One entry of ``doc_mapping.field_mappings``."""

    name: str
    type: str = "text"
    # text options
    tokenizer: str = "default"
    record: str = "basic"
    fieldnorms: bool = False  # reference default is false (field_mapping_entry.rs)
    # shared options
    indexed: bool = True
    stored: bool = True
    fast: bool = False
    # tag fields participate in split pruning (doc_mapping.rs tag_fields)
    tag: bool = False
    # Concatenate field (field_mapping_entry.rs:672-700): indexes tokens
    # from these source columns into THIS inverted field (never stored)
    sources: tuple = ()
    # Concatenate option: also fold every DYNAMIC (unmapped) column's
    # values into this field (field_mapping_entry.rs include_dynamic_fields)
    include_dynamic_fields: bool = False
    # datetime input formats (date_time_format.rs:29-36) used when the
    # source column is a string/number instead of a native timestamp;
    # () -> rfc3339 then unix_timestamp
    input_formats: tuple = ()
    # fast-column normalizer for text fields (field_mapping_entry.rs:469-483
    # `fast: {normalizer: raw|lowercase}`): applied to the columnar copy
    # used by sorts / aggs / ranges, NOT to the inverted index
    fast_normalizer: str = "raw"
    # datetime fast-column truncation (date_time_type.rs fast_precision):
    # stored values AND query range bounds truncate to this unit
    fast_precision: str = "microseconds"  # seconds|milliseconds|microseconds

    def __post_init__(self) -> None:
        if self.type not in FIELD_TYPES:
            raise ValueError(f"unknown field type {self.type!r}")
        if self.record not in RECORD_OPTIONS:
            raise ValueError(f"unknown record option {self.record!r}")
        if self.fast_normalizer not in ("raw", "lowercase"):
            raise ValueError(f"unknown fast normalizer {self.fast_normalizer!r}")
        if self.fast_precision not in ("seconds", "milliseconds", "microseconds"):
            raise ValueError(f"unknown fast_precision {self.fast_precision!r}")

    @property
    def fast_precision_us(self) -> int:
        """Truncation quantum of the datetime fast column, in microseconds."""
        return {"seconds": 1_000_000, "milliseconds": 1_000,
                "microseconds": 1}[self.fast_precision]


@dataclass(frozen=True)
class DocMapping:
    """Schema for one index (reference doc_mapping.rs:97-162)."""

    field_mappings: tuple[FieldMapping, ...]
    mode: str = "strict"  # strict | lenient | dynamic
    timestamp_field: Optional[str] = None
    tag_fields: tuple[str, ...] = ()
    # partition routing (routing_expression/mod.rs:107-180); None = single partition
    partition_key: Optional[str] = None
    max_num_partitions: int = 200
    # doc id column of the source table used as the stable external id
    doc_id_field: str = "url"
    default_search_fields: tuple[str, ...] = ()
    # user-defined tokenizer entries (tokenizer_entry.rs:35-144):
    # ({"name", "type": simple|ngram|regex|source_code|multilang,
    #   "min_gram"/"max_gram"/"prefix_only", "pattern", "filters": [...]},)
    tokenizers: tuple = ()
    # dynamic-mode catch-all field options (doc_mapping.rs dynamic_mapping:
    # how unmapped columns index). Defaults match the implicit mapping
    # used since round 1 (record=freq keeps split artifacts stable).
    dynamic_tokenizer: str = "default"
    dynamic_record: str = "freq"
    dynamic_indexed: bool = True
    dynamic_fast: bool = False
    dynamic_fast_normalizer: str = "raw"
    # store each doc's serialized-JSON byte length as the aggregatable
    # `_doc_length` fast field (doc_mapping.rs store_document_size /
    # DOCUMENT_SIZE_FIELD_NAME); never rendered in _source
    store_document_size: bool = False

    def __post_init__(self) -> None:
        if self.tokenizers:
            from quickwit_ray.functions.tokenizers import register_custom_tokenizers

            register_custom_tokenizers(self.tokenizers)
        # tag fields participate in the split-pruning semi-join, so only
        # whole-value types are allowed (default_doc_mapper tag rules,
        # replayed by tag_fields/0001_allowed_types.yaml: raw text, u64,
        # i64; tokenized text / f64 / bool / json / ip / bytes / datetime
        # / dynamic are rejected) — any other tag would make the manifest
        # tag sets meaningless
        for t in self.tag_fields:
            try:
                fm = self.field(t)
            except KeyError:
                raise ValueError(f"unknown tag field {t!r}")
            if fm.type == "text":
                if fm.tokenizer != "raw":
                    raise ValueError(
                        f"tag field {t!r} must use the raw tokenizer "
                        f"(got {fm.tokenizer!r})")
            elif fm.type not in ("u64", "i64"):
                raise ValueError(
                    f"type {fm.type!r} is not allowed for tag field {t!r}")

    def field(self, name: str) -> FieldMapping:
        for fm in self.field_mappings:
            if fm.name == name:
                return fm
        raise KeyError(name)

    def resolve_json_path(self, name: str):
        """`props.k` -> (json FieldMapping 'props', path 'k') when a json
        field prefixes the queried name (expand_dots resolution,
        field_mapping_entry.rs:578)."""
        for fm in self.field_mappings:
            if fm.type == "json" and name.startswith(fm.name + "."):
                return fm, name[len(fm.name) + 1:]
        return None

    def resolve_field(self, name: str) -> FieldMapping:
        """Explicit mapping, or (dynamic mode) the implicit `_dynamic`-style
        mapping applied to unmapped columns (doc_mapping.rs:26-47,
        query_builder.rs:84-141: mapped fields first, then dynamic)."""
        try:
            return self.field(name)
        except KeyError:
            if self.mode == "dynamic":
                return FieldMapping(
                    name=name, type="text",
                    tokenizer=self.dynamic_tokenizer,
                    record=self.dynamic_record, fieldnorms=True,
                    stored=True, indexed=self.dynamic_indexed,
                    fast=self.dynamic_fast,
                    fast_normalizer=self.dynamic_fast_normalizer)
            raise

    @property
    def text_fields(self) -> list[FieldMapping]:
        return [f for f in self.field_mappings if f.type == "text" and f.indexed]

    @property
    def fast_fields(self) -> list[FieldMapping]:
        return [f for f in self.field_mappings if f.fast]

    @property
    def stored_fields(self) -> list[FieldMapping]:
        return [f for f in self.field_mappings if f.stored]


@dataclass(frozen=True)
class MergePolicyConfig:
    """StableLogMergePolicy defaults (merge_policy_config.rs:70-117)."""

    kind: str = "stable_log"  # stable_log | const_write_amplification | none
    merge_factor: int = 10
    max_merge_factor: int = 12
    min_level_num_docs: int = 100_000
    maturation_period_secs: int = 48 * 3600
    # const_write_amplification only:
    max_merge_ops: int = 4


@dataclass(frozen=True)
class IndexSettings:
    """Indexing/resource settings (index_config/mod.rs:130-140)."""

    split_num_docs_target: int = 10_000_000
    # seal a split early at this many docs (models the reference's
    # commit_timeout_secs producing sub-target splits that merges compact);
    # None = seal at split_num_docs_target
    commit_docs_threshold: Optional[int] = None
    # flush a split early when the accumulated uncompressed doc bytes pass this
    heap_size_bytes: int = 2 * 1024**3
    merge_policy: MergePolicyConfig = field(default_factory=MergePolicyConfig)
    # bench/scale knobs for the Ray pipeline
    batch_size: int = 8192
    # store the raw html/bytes column in the docstore (wide records; off by default)
    store_binary_columns: bool = True
    # retention policy (index_config/mod.rs RetentionPolicy — period after
    # which splits whose time range fully predates now-period are dropped);
    # None = keep forever. Applied by Index.apply_retention / the janitor.
    retention_secs: Optional[int] = None


@dataclass(frozen=True)
class IndexConfig:
    index_id: str
    doc_mapping: DocMapping
    settings: IndexSettings = field(default_factory=IndexSettings)

    def to_json(self) -> dict[str, Any]:
        from dataclasses import asdict

        return asdict(self)

    @staticmethod
    def from_json(obj: dict[str, Any]) -> "IndexConfig":
        dm = obj["doc_mapping"]
        for f in dm["field_mappings"]:
            if isinstance(f.get("sources"), list):
                f["sources"] = tuple(f["sources"])
            if isinstance(f.get("input_formats"), list):
                f["input_formats"] = tuple(f["input_formats"])
        mapping = DocMapping(
            field_mappings=tuple(FieldMapping(**f) for f in dm["field_mappings"]),
            mode=dm.get("mode", "strict"),
            timestamp_field=dm.get("timestamp_field"),
            tag_fields=tuple(dm.get("tag_fields", ())),
            partition_key=dm.get("partition_key"),
            max_num_partitions=dm.get("max_num_partitions", 200),
            doc_id_field=dm.get("doc_id_field", "url"),
            default_search_fields=tuple(dm.get("default_search_fields", ())),
            tokenizers=tuple(dm.get("tokenizers", ())),
            dynamic_tokenizer=dm.get("dynamic_tokenizer", "default"),
            dynamic_record=dm.get("dynamic_record", "freq"),
            dynamic_indexed=dm.get("dynamic_indexed", True),
            dynamic_fast=dm.get("dynamic_fast", False),
            dynamic_fast_normalizer=dm.get("dynamic_fast_normalizer", "raw"),
            store_document_size=dm.get("store_document_size", False),
        )
        st = obj.get("settings", {})
        mp = st.get("merge_policy", {})
        settings = IndexSettings(
            split_num_docs_target=st.get("split_num_docs_target", 10_000_000),
            commit_docs_threshold=st.get("commit_docs_threshold"),
            heap_size_bytes=st.get("heap_size_bytes", 2 * 1024**3),
            merge_policy=MergePolicyConfig(**mp) if mp else MergePolicyConfig(),
            batch_size=st.get("batch_size", 8192),
            store_binary_columns=st.get("store_binary_columns", True),
            retention_secs=st.get("retention_secs"),
        )
        return IndexConfig(index_id=obj["index_id"], doc_mapping=mapping, settings=settings)


def index_config_from_api_json(obj: dict[str, Any]) -> IndexConfig:
    """Build an IndexConfig from the PUBLIC index-creation payload (the
    reference's `POST /api/v1/indexes` body: version / index_id /
    doc_mapping / search_settings, serde shapes from
    quickwit-config/src/index_config/serialize.rs and
    quickwit-doc-mapper/src/default_doc_mapper/field_mapping_entry.rs).

    Differences from `IndexConfig.from_json` (our own round-trip format):
    the API default mode is dynamic, `fast` may be a bool or a
    ``{normalizer}`` object, `object` fields flatten to a json column
    (path queries reach the subtree the same way), and `concatenate`
    fields carry ``concatenate_fields`` + ``include_dynamic_fields``.
    Raises ValueError on invalid configs (the HTTP 400 class)."""
    dm = obj.get("doc_mapping") or {}
    fms: list[FieldMapping] = []
    for f in dm.get("field_mappings", ()):
        f = dict(f)
        name = f["name"]
        ftype = f.get("type", "text")
        fast = f.get("fast", False)
        fast_normalizer = "raw"
        if isinstance(fast, dict):
            fast_normalizer = fast.get("normalizer", "raw")
            fast = True
        common = dict(indexed=f.get("indexed", True),
                      stored=f.get("stored", True), fast=bool(fast))
        if ftype == "text":
            fms.append(FieldMapping(
                name, "text", tokenizer=f.get("tokenizer", "default"),
                record=f.get("record", "basic"),
                fieldnorms=f.get("fieldnorms", False),
                fast_normalizer=fast_normalizer, **common))
        elif ftype in ("u64", "i64", "f64", "bool", "ip", "bytes"):
            fms.append(FieldMapping(name, ftype, **common))
        elif ftype == "datetime":
            fms.append(FieldMapping(
                name, "datetime",
                input_formats=tuple(f.get("input_formats", ())),
                fast_precision=f.get("fast_precision", "seconds"),
                **common))
        elif ftype in ("json", "object"):
            # object subtrees index/store through a json column; the
            # declared children only refine path semantics the json
            # column already provides (exists / path term / fast path)
            fms.append(FieldMapping(
                name, "json", record=f.get("record", "basic"),
                tokenizer=f.get("tokenizer", "default"), **common))
        elif ftype == "concatenate":
            fms.append(FieldMapping(
                name, "text", tokenizer=f.get("tokenizer", "default"),
                record=f.get("record", "basic"),
                sources=tuple(f.get("concatenate_fields", ())),
                include_dynamic_fields=f.get("include_dynamic_fields",
                                             False),
                indexed=True, stored=False))
        else:
            raise ValueError(f"unknown field type {ftype!r}")
    ss = obj.get("search_settings") or {}
    defaults = tuple(ss.get("default_search_fields",
                            dm.get("default_search_fields", ())))
    explicit = [fm.name for fm in fms]
    # default_search_fields validate at index creation
    # (default_doc_mapper build: unknown fields and unindexed targets
    # are config errors, replayed by 0002_invalid_default_fields.yaml)
    mode = dm.get("mode", "dynamic")
    dynamic_indexed = (dm.get("dynamic_mapping") or {}).get("indexed", True)
    by_name = {fm.name: fm for fm in fms}
    for f in defaults:
        fm = by_name.get(f)
        if fm is None and "." in f:
            # a dotted default may address a json subtree — but only when
            # the root actually is a json field
            root = by_name.get(f.split(".", 1)[0])
            if root is not None:
                if root.type != "json" or not root.indexed:
                    raise ValueError(
                        f"unknown default search field `{f}`")
                continue
        if fm is not None:
            if not fm.indexed:
                raise ValueError(
                    f"default search field `{f}` is not indexed")
            continue
        if mode != "dynamic":
            raise ValueError(f"unknown default search field `{f}`")
        if not dynamic_indexed:
            raise ValueError(
                f"default search field `{f}` is not indexed")
    dyn = dm.get("dynamic_mapping") or {}
    dyn_fast = dyn.get("fast", False)
    dyn_fast_norm = "raw"
    if isinstance(dyn_fast, dict):
        dyn_fast_norm = dyn_fast.get("normalizer", "raw")
        dyn_fast = True
    mapping = DocMapping(
        field_mappings=tuple(fms),
        mode=dm.get("mode", "dynamic"),  # the API default (doc_mapping.rs)
        timestamp_field=dm.get("timestamp_field"),
        tag_fields=tuple(dm.get("tag_fields", ())),
        doc_id_field=dm.get("timestamp_field") or (explicit[0] if explicit
                                                   else "doc"),
        default_search_fields=defaults,
        tokenizers=tuple(dm.get("tokenizers", ())),
        dynamic_tokenizer=dyn.get("tokenizer", "default"),
        dynamic_record=dyn.get("record", "freq"),
        dynamic_indexed=dyn.get("indexed", True),
        dynamic_fast=bool(dyn_fast),
        dynamic_fast_normalizer=dyn_fast_norm,
        store_document_size=bool(dm.get("store_document_size", False)),
    )
    ist = obj.get("indexing_settings") or {}
    mp = ist.get("merge_policy") or {}
    kind = {"stable_log": "stable_log", "limit_merge":
            "const_write_amplification", "no_merge": "none"}.get(
        mp.get("type", "stable_log"))
    if kind is None:
        raise ValueError(f"unknown merge policy type {mp.get('type')!r}")
    merge_policy = MergePolicyConfig(
        kind=kind,
        merge_factor=int(mp.get("merge_factor", 10)),
        max_merge_factor=int(mp.get("max_merge_factor", 12)),
        min_level_num_docs=int(mp.get("min_level_num_docs", 100_000)),
        maturation_period_secs=parse_period_secs(
            mp.get("maturation_period", 48 * 3600)),
        max_merge_ops=int(mp.get("max_merge_ops", 4)),
    )
    ret = obj.get("retention")
    settings = IndexSettings(
        split_num_docs_target=int(ist.get("split_num_docs_target",
                                          10_000_000)),
        heap_size_bytes=int((ist.get("resources") or {}).get(
            "heap_size", 2 * 1024 ** 3)),
        merge_policy=merge_policy,
        retention_secs=parse_period_secs(ret["period"]) if ret else None,
    )
    validate_identifier("index", obj["index_id"])
    return IndexConfig(index_id=obj["index_id"], doc_mapping=mapping,
                       settings=settings)


def validate_identifier(label: str, value: Any) -> str:
    """Identifier rules for API-supplied ids (quickwit-config/src/lib.rs
    validate_identifier: ``^[a-zA-Z][a-zA-Z0-9-_\\.]{2,254}$``). Same
    character set — first char a letter, then alnum/``-_.`` — which
    makes path traversal (``..``, ``/``, absolute paths) unrepresentable
    in any HTTP-exposed id. One documented relaxation: we allow 1-char
    ids (the reference requires >=3) to keep short dev index names."""
    if (not isinstance(value, str) or not value or len(value) > 255
            or not value[0].isalpha()
            or not all(c.isalnum() or c in "-_." for c in value)):
        raise ValueError(
            f"{label} ID {value!r} is invalid: identifiers must start "
            "with a letter and contain only letters, digits, `-`, `_` "
            "and `.` (max 255 chars)")
    return value


def validate_index_id_pattern(pattern: Any, allow_negative: bool = False) -> str:
    """Index-ID glob pattern rules (quickwit-config/src/lib.rs:149
    validate_index_id_pattern): ``^-?[a-zA-Z*][a-zA-Z0-9-_.*]{0,254}$``
    (the leading ``-`` marks a NEGATIVE pattern and is only legal where
    the caller allows it, e.g. index templates); no ``**`` runs; a
    literal pattern (no ``*``) needs >= 3 chars like an index id."""
    if not isinstance(pattern, str) or not pattern:
        raise ValueError(f"index ID pattern {pattern!r} is invalid: "
                         "patterns must be non-empty strings")
    body = pattern
    if pattern.startswith("-"):
        if not allow_negative:
            raise ValueError(f"index ID pattern {pattern!r} is invalid: "
                             "negative patterns are not allowed here")
        body = pattern[1:]
    if (not body or len(body) > 255
            or not (body[0].isalpha() or body[0] == "*")
            or not all(c.isalnum() or c in "-_.*" for c in body)):
        raise ValueError(
            f"index ID pattern {pattern!r} is invalid: patterns must "
            "match `^[a-zA-Z*][a-zA-Z0-9-_.*]{0,254}$`")
    if "**" in body:
        raise ValueError(
            f"index ID pattern {pattern!r} is invalid: patterns must "
            "not contain multiple consecutive `*`")
    if "*" not in body and len(body) < 3:
        raise ValueError(
            f"index ID pattern {pattern!r} is invalid: an index ID "
            "must have at least 3 characters")
    return pattern


def parse_period_secs(v: Any) -> int:
    """Humanized retention period -> seconds (the reference accepts
    humantime strings in ``retention.period``, index_config/mod.rs
    RetentionPolicy; we take the common units plus bare ints)."""
    if isinstance(v, (int, float)):
        return int(v)
    import re

    m = re.fullmatch(
        r"\s*(\d+)\s*(s|sec|secs|seconds?|m|min|mins|minutes?|h|hours?"
        r"|d|days?|w|weeks?)\s*", str(v))
    if not m:
        raise ValueError(f"unparseable retention period {v!r}")
    n = int(m.group(1))
    unit = m.group(2)[0]
    return n * {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}[unit]


def validate_config_update(current: IndexConfig, new: IndexConfig) -> None:
    """Validate an index-config update against the reference's rules
    (quickwit-config/src/index_config/serialize.rs:73-151
    `load_index_config_update`):

      * ``index_id`` cannot change (index_uri is our index_dir — fixed by
        construction);
      * ``doc_mapping.timestamp_field`` cannot change (split pruning and
        time-sorted skipping key on it);
      * custom ``tokenizers`` must remain a SUPERSET of the current ones
        (old splits were built with them; queries must still tokenize);
      * the new mapping must itself build coherently (constructing the
        dataclasses runs that validation).

    Stricter than the reference (documented divergence): a same-named
    field may not change ``type``. The reference versions doc mappings
    per split (doc_mapping_uid) and searches old splits with their old
    mapper; our readers use the current mapping for query typing, so a
    type flip would misread old splits' columns. New fields, dropped
    fields, search settings, mode and all IndexSettings are updatable —
    existing splits are never reindexed (reference semantics).
    """
    errors: list[str] = []
    if new.index_id != current.index_id:
        errors.append(f"`index_id` cannot be updated "
                      f"({current.index_id!r} -> {new.index_id!r})")
    if new.doc_mapping.timestamp_field != current.doc_mapping.timestamp_field:
        errors.append(
            "`doc_mapping.timestamp_field` cannot be updated "
            f"({current.doc_mapping.timestamp_field!r} -> "
            f"{new.doc_mapping.timestamp_field!r})")
    if new.doc_mapping.doc_id_field != current.doc_mapping.doc_id_field:
        errors.append("`doc_mapping.doc_id_field` cannot be updated")
    cur_toks = {json.dumps(t, sort_keys=True)
                for t in current.doc_mapping.tokenizers}
    new_toks = {json.dumps(t, sort_keys=True)
                for t in new.doc_mapping.tokenizers}
    if not cur_toks <= new_toks:
        errors.append("`doc_mapping.tokenizers` must be a superset of "
                      "previously available tokenizers")
    cur_fields = {f.name: f for f in current.doc_mapping.field_mappings}
    for f in new.doc_mapping.field_mappings:
        old = cur_fields.get(f.name)
        if old is not None and old.type != f.type:
            errors.append(f"field `{f.name}` cannot change type "
                          f"({old.type!r} -> {f.type!r}); add a new field "
                          "instead (existing splits are not reindexed)")
    if errors:
        raise ValueError("invalid index config update:\n  " +
                         "\n  ".join(errors))


# source types accepted by declarative source configs (the reference's
# source-config.md: file / kafka / kinesis / pulsar / pub_sub / sqs /
# ingest-api / void; "queue" and "mq" are this repo's simulated brokers,
# "wal" the ingest-v2 record-log source)
SOURCE_TYPES = {"file", "kafka", "kinesis", "pulsar", "pub_sub", "sqs",
                "queue", "mq", "wal", "ingest-api", "void"}
RESERVED_SOURCE_IDS = {"_ingest-api", "_ingest", "_ingest-cli"}


def validate_source_config(obj: dict[str, Any]) -> dict[str, Any]:
    """Validate + normalize a source config payload (source-config.md;
    source_config/serialize.rs: source_id character rules, reserved ids,
    known source types). Returns the normalized config."""
    sid = obj.get("source_id")
    if not sid or not isinstance(sid, str):
        raise ValueError("source config needs a `source_id`")
    if sid in RESERVED_SOURCE_IDS or sid.startswith("_"):
        raise ValueError(f"source_id {sid!r} is reserved")
    if not all(c.isalnum() or c in "-_." for c in sid):
        raise ValueError(f"invalid source_id {sid!r}")
    stype = obj.get("source_type")
    if stype not in SOURCE_TYPES:
        raise ValueError(f"unknown source_type {stype!r} "
                         f"(expected one of {sorted(SOURCE_TYPES)})")
    params = obj.get("params") or {}
    if not isinstance(params, dict):
        raise ValueError("`params` must be an object")
    out = {"source_id": sid, "source_type": stype, "params": params,
           "enabled": bool(obj.get("enabled", True)),
           "num_pipelines": int(obj.get("num_pipelines", 1))}
    tf = obj.get("transform")
    if tf is not None:
        # TransformConfig (source_config/mod.rs:625): {vrl_script,
        # timezone}. The script COMPILES here so a config outside the
        # supported VRL subset is rejected at source-creation time, like
        # the reference's compile-at-config-load.
        if not isinstance(tf, dict) or not tf.get("vrl_script"):
            raise ValueError("`transform` must be {vrl_script: ...}")
        from quickwit_ray.functions.vrl import compile_vrl

        compile_vrl(tf["vrl_script"])
        out["transform"] = {"vrl_script": tf["vrl_script"],
                            "timezone": tf.get("timezone", "UTC")}
    return out


def otel_traces_doc_mapping() -> DocMapping:
    """OTLP traces index mapping (quickwit-opentelemetry/src/otlp/
    traces.rs:60-160 OTEL_TRACES_INDEX_CONFIG, text-typed ids instead of
    the reference's bytes columns — our OTLP decoders emit hex strings).
    timestamp_field = span_start_timestamp_nanos, exactly the reference."""
    return DocMapping(
        field_mappings=(
            FieldMapping(name="trace_id", type="text", tokenizer="raw",
                         record="basic", fast=True),
            FieldMapping(name="trace_state", type="text", tokenizer="raw",
                         indexed=False),
            FieldMapping(name="service_name", type="text", tokenizer="raw",
                         record="basic", fast=True, tag=True),
            FieldMapping(name="resource_attributes", type="json"),
            FieldMapping(name="scope_name", type="text", tokenizer="raw"),
            FieldMapping(name="scope_version", type="text", tokenizer="raw"),
            FieldMapping(name="scope_attributes", type="json"),
            FieldMapping(name="span_id", type="text", tokenizer="raw"),
            FieldMapping(name="parent_span_id", type="text", tokenizer="raw"),
            FieldMapping(name="span_kind", type="i64", fast=True),
            FieldMapping(name="span_name", type="text", tokenizer="raw",
                         record="basic", fast=True),
            FieldMapping(name="span_fingerprint", type="text",
                         tokenizer="raw"),
            FieldMapping(name="span_start_timestamp_nanos", type="datetime",
                         input_formats=("unix_timestamp",), fast=True),
            FieldMapping(name="span_end_timestamp_nanos", type="datetime",
                         input_formats=("unix_timestamp",), fast=True),
            FieldMapping(name="span_duration_millis", type="i64", fast=True),
            FieldMapping(name="span_attributes", type="json"),
            FieldMapping(name="span_status", type="json"),
            FieldMapping(name="is_root", type="bool", fast=True),
            FieldMapping(name="event_names", type="text"),
            # array<json> in the reference; json columns serialize to
            # strings in the docstore (empty attribute structs would not
            # round-trip through parquet otherwise)
            FieldMapping(name="events", type="json", indexed=False),
            FieldMapping(name="links", type="json", indexed=False),
        ),
        mode="dynamic",  # dropped-counts etc. land dynamically
        timestamp_field="span_start_timestamp_nanos",
        tag_fields=("service_name",),
        doc_id_field="span_id",
        default_search_fields=("span_name",),
    )


def pages_doc_mapping() -> DocMapping:
    """Doc mapping for the canonical Common-Crawl-style ``pages`` table
    (BASELINE.json input_hint): (url, warc_ts, html, text, lang)."""
    return DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", tokenizer="default", record="position",
                         fieldnorms=True, stored=True),
            FieldMapping(name="url", type="text", tokenizer="raw", record="basic",
                         stored=True, fast=True),
            FieldMapping(name="lang", type="text", tokenizer="raw", record="basic",
                         stored=True, fast=True, tag=True),
            FieldMapping(name="warc_ts", type="datetime", stored=True, fast=True),
            FieldMapping(name="html", type="bytes", indexed=False, stored=True),
        ),
        mode="strict",
        timestamp_field="warc_ts",
        tag_fields=("lang",),
        doc_id_field="url",
        default_search_fields=("text",),
    )


def documents_doc_mapping() -> DocMapping:
    """Doc mapping for the driver-provided ``documents`` table
    (doc_id, text, lang, source, n_chars)."""
    return DocMapping(
        field_mappings=(
            FieldMapping(name="text", type="text", tokenizer="default", record="position",
                         fieldnorms=True, stored=True),
            FieldMapping(name="lang", type="text", tokenizer="raw", record="basic",
                         stored=True, fast=True, tag=True),
            FieldMapping(name="source", type="text", tokenizer="raw", record="basic",
                         stored=True, fast=True, tag=True),
            FieldMapping(name="n_chars", type="i64", stored=True, fast=True),
            FieldMapping(name="doc_id", type="i64", stored=True, fast=True),
        ),
        mode="strict",
        timestamp_field=None,
        tag_fields=("lang", "source"),
        doc_id_field="doc_id",
        default_search_fields=("text",),
    )


def events_doc_mapping() -> DocMapping:
    """Doc mapping for the driver-provided ``events`` table
    (event_id, ts, user_id, event_type, value, props as a JSON string)."""
    return DocMapping(
        field_mappings=(
            FieldMapping(name="event_type", type="text", tokenizer="raw",
                         record="basic", stored=True, fast=True, tag=True),
            FieldMapping(name="props", type="json", tokenizer="default",
                         record="freq", fieldnorms=True, stored=True),
            FieldMapping(name="ts", type="datetime", stored=True, fast=True),
            FieldMapping(name="event_id", type="i64", stored=True, fast=True),
            FieldMapping(name="user_id", type="i64", stored=True, fast=True),
            FieldMapping(name="value", type="f64", stored=True, fast=True),
        ),
        mode="strict", timestamp_field="ts", tag_fields=("event_type",),
        doc_id_field="event_id", default_search_fields=("props",))
