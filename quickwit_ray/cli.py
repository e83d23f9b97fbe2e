"""CLI — `python -m quickwit_ray.cli <cmd>` mirroring the reference's
`quickwit index ...` / `quickwit tool local-ingest/local-search/merge/gc`
surface (`quickwit-cli/src/cli.rs:56-95`). Owns its Ray session."""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_init_kwargs(address: str, num_cpus: int) -> dict:
    """Ray session kwargs for the CLI. `RAY_ADDRESS=local` (or unset)
    starts a private instance sized by --num-cpus; anything else (a
    `ray job submit` cluster context: "auto", "ray://head:10001") is an
    ATTACH — num_cpus must not be passed, the cluster owns its sizing."""
    kw = dict(address=address, include_dashboard=False,
              ignore_reinit_error=True, logging_level="ERROR")
    if address == "local":
        kw["num_cpus"] = num_cpus
    else:
        kw.pop("include_dashboard")  # cluster head already decided this
    return kw


def _ray_up(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(**_ray_init_kwargs(os.environ.get("RAY_ADDRESS", "local"),
                                     num_cpus))
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="quickwit_ray")
    p.add_argument("--num-cpus", type=int, default=8)
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("create", help="create an index")
    c.add_argument("index_dir")
    c.add_argument("--index-id", required=True)
    c.add_argument("--mapping", choices=["pages", "documents"], default="pages")

    i = sub.add_parser("ingest", help="index parquet input")
    i.add_argument("index_dir")
    i.add_argument("--input", required=True, help="file, glob or directory")
    i.add_argument("--local", action="store_true", help="run in-process")

    s = sub.add_parser("search", help="run a query")
    s.add_argument("index_dir")
    s.add_argument("--query", required=True)
    s.add_argument("--max-hits", type=int, default=10)
    s.add_argument("--sort-by", default=None)

    d = sub.add_parser("describe", help="index stats")
    d.add_argument("index_dir")

    m = sub.add_parser("merge", help="run the merge pipeline")
    m.add_argument("index_dir")

    g = sub.add_parser("gc", help="garbage-collect orphan artifacts")
    g.add_argument("index_dir")

    dd = sub.add_parser("delete", help="create + apply a delete task")
    dd.add_argument("index_dir")
    dd.add_argument("--query", required=True)

    lt = sub.add_parser("list-terms", help="scan the term dictionary")
    lt.add_argument("index_dir")
    lt.add_argument("--field", required=True)
    lt.add_argument("--prefix", default=None)
    lt.add_argument("--limit", type=int, default=50)

    b = sub.add_parser("bulk", help="push-ingest an ES _bulk NDJSON file "
                                    "(or any source input format)")
    b.add_argument("index_dir")
    b.add_argument("--input", required=True, help="payload file, '-' = stdin")
    b.add_argument("--format", default="bulk",
                   choices=["bulk", "json", "ndjson", "plain_text",
                            "otlp_logs_json", "otlp_traces_json"])
    b.add_argument("--commit-id", default=None,
                   help="idempotence key: replays with the same id no-op")

    qi = sub.add_parser("queue-ingest", help="poll a partitioned queue dir "
                                             "from its committed offsets")
    qi.add_argument("index_dir")
    qi.add_argument("--queue-dir", required=True)
    qi.add_argument("--rounds", type=int, default=1)
    qi.add_argument("--local", action="store_true")

    st_ = sub.add_parser("stats", help="ES _stats / _cat-style index stats")
    st_.add_argument("index_dir")
    st_.add_argument("--format", default="stats", choices=["stats", "cat",
                                                           "field-caps"])

    cl = sub.add_parser("clear", help="drop all splits + checkpoints, "
                        "keep the index config (`quickwit index clear`)")
    cl.add_argument("index_dir")

    sp = sub.add_parser("split", help="split inspection "
                        "(`quickwit split list/describe/extract`)")
    spsub = sp.add_subparsers(dest="split_cmd", required=True)
    sl = spsub.add_parser("list", help="published splits with metadata")
    sl.add_argument("index_dir")
    sd = spsub.add_parser("describe", help="one split's footer + files")
    sd.add_argument("index_dir")
    sd.add_argument("split_id")
    se = spsub.add_parser("extract", help="copy a split's artifact files "
                          "to a directory (`tool extract-split`)")
    se.add_argument("index_dir")
    se.add_argument("split_id")
    se.add_argument("out_dir")
    sm_ = spsub.add_parser("mark-for-deletion",
                           help="mark splits for deletion (`quickwit "
                                "split mark-for-deletion`); GC reaps "
                                "them after the grace period")
    sm_.add_argument("index_dir")
    sm_.add_argument("split_ids", nargs="+")

    ls_ = sub.add_parser("list", help="list the indexes under a root dir "
                         "(`quickwit index list`)")
    ls_.add_argument("root_dir")

    sv = sub.add_parser("serve", help="HTTP REST tier (ES-compatible API "
                        "under /api/v1/_elastic + native index API under "
                        "/api/v1/indexes, rest_handler.rs analog)")
    sv.add_argument("index_dirs", nargs="+",
                    help="index dirs to register (name = index_id)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7280)
    sv.add_argument("--index-root-dir", default=None,
                    help="enable POST /api/v1/indexes creation under "
                         "this directory")
    sv.add_argument("--search-execution", default="local",
                    choices=["local", "ray"],
                    help="'local' searches every split on in-process "
                         "threads; 'ray' fans leaf searches out to a "
                         "persistent split-affine Ray actor pool "
                         "(root/leaf serving model)")
    sv.add_argument("--janitor-period-secs", type=float, default=None,
                    help="run the janitor loop (retention + delete tasks "
                         "+ GC, quickwit-janitor analog) every N seconds")
    sv.add_argument("--janitor-grace-secs", type=float, default=None,
                    help="GC grace period for unreferenced artifacts "
                         "(default 2h)")
    sv.add_argument("--merge-period-secs", type=float, default=None,
                    help="run the merge pipeline over every served index "
                         "every N seconds (continuous compaction, "
                         "merge_planner.rs analog)")

    up = sub.add_parser("update", help="update the index config "
                        "(quickwit index update; validated against the "
                        "reference's update rules)")
    up.add_argument("index_dir")
    up.add_argument("--config", required=True,
                    help="index config API JSON (inline or @file)")

    rt = sub.add_parser("apply-retention", help="drop splits past the "
                        "configured (or given) retention period")
    rt.add_argument("index_dir")
    rt.add_argument("--period", default=None,
                    help="override period, e.g. '7 days' (default: the "
                         "index config's retention)")

    so = sub.add_parser("source", help="declarative source configs "
                        "(quickwit source create/list/delete/toggle/"
                        "reset-checkpoint)")
    so.add_argument("index_dir")
    sosub = so.add_subparsers(dest="source_cmd", required=True)
    soc = sosub.add_parser("create", help="attach a source config")
    soc.add_argument("--config", required=True,
                     help="source config JSON (inline or @file)")
    sosub.add_parser("list", help="list configured sources")
    sod = sosub.add_parser("delete")
    sod.add_argument("source_id")
    sot = sosub.add_parser("toggle")
    sot.add_argument("source_id")
    sot.add_argument("--disable", action="store_true")
    sor = sosub.add_parser("reset-checkpoint")
    sor.add_argument("source_id")
    soi = sosub.add_parser("ingest", help="drain a configured source")
    soi.add_argument("source_id")
    soi.add_argument("--local", action="store_true")

    args = p.parse_args(argv)
    from quickwit_ray.api import Index

    if args.cmd == "create":
        from quickwit_ray.config import documents_doc_mapping, pages_doc_mapping

        mapping = (pages_doc_mapping() if args.mapping == "pages"
                   else documents_doc_mapping())
        Index.create(args.index_dir, args.index_id, mapping)
        print(f"created index {args.index_id} at {args.index_dir}")
    elif args.cmd == "ingest":
        idx = Index.open(args.index_dir)
        if not args.local:
            _ray_up(args.num_cpus)
        st = idx.ingest(args.input, execution="local" if args.local else "ray")
        print(json.dumps({"num_docs": st.num_docs, "num_splits": st.num_splits,
                          "docs_per_sec": round(st.docs_per_sec),
                          "mb_per_sec": round(st.mb_per_sec, 2)}))
    elif args.cmd == "search":
        idx = Index.open(args.index_dir)
        resp = idx.search(args.query, max_hits=args.max_hits,
                          sort_by=args.sort_by)
        print(json.dumps({"num_hits": resp.num_hits,
                          "elapsed_sec": round(resp.elapsed_sec, 4)}))
        cols = [c for c in resp.hits.columns if not str(c).startswith("_split")]
        print(resp.hits[cols].to_string(max_rows=args.max_hits))
    elif args.cmd == "describe":
        print(json.dumps(Index.open(args.index_dir).describe(), indent=2))
    elif args.cmd == "merge":
        n = Index.open(args.index_dir).merge()
        print(f"executed {n} merges")
    elif args.cmd == "gc":
        removed = Index.open(args.index_dir).gc()
        print(f"removed {len(removed)} orphan artifacts")
    elif args.cmd == "delete":
        idx = Index.open(args.index_dir)
        op = idx.create_delete_task(args.query)
        n = idx.apply_deletes()
        print(f"delete task opstamp {op}; rewrote {n} splits")
    elif args.cmd == "bulk":
        idx = Index.open(args.index_dir)
        payload = (sys.stdin.read() if args.input == "-"
                   else open(args.input).read())
        if args.format == "bulk":
            n = idx.bulk(payload, commit_id=args.commit_id)
        else:
            n = idx.ingest_payload(payload, args.format,
                                   commit_id=args.commit_id)
        print(json.dumps({"indexed_docs": n}))
    elif args.cmd == "queue-ingest":
        from quickwit_ray.sources.queue import ingest_queue

        idx = Index.open(args.index_dir)
        if not args.local:
            _ray_up(args.num_cpus)
        st = ingest_queue(args.queue_dir, args.index_dir, idx.config,
                          execution="local" if args.local else "ray",
                          poll_rounds=args.rounds)
        print(json.dumps({"num_commits": st.num_commits,
                          "num_splits": st.num_splits,
                          "num_docs": st.num_docs}))
    elif args.cmd == "stats":
        idx = Index.open(args.index_dir)
        out = (idx.es_cat_indices() if args.format == "cat"
               else idx.es_field_caps() if args.format == "field-caps"
               else idx.es_stats())
        print(json.dumps(out, indent=2))
    elif args.cmd == "list-terms":
        df = Index.open(args.index_dir).list_terms(
            args.field, prefix=args.prefix, limit=args.limit)
        print(df.to_string())
    elif args.cmd == "clear":
        n = Index.open(args.index_dir).clear()
        print(f"cleared index: dropped {n} splits")
    elif args.cmd == "split":
        import os

        idx = Index.open(args.index_dir)
        if args.split_cmd == "list":
            print(json.dumps(idx.describe()["splits"], indent=2))
        elif args.split_cmd == "mark-for-deletion":
            from quickwit_ray.state.manifest import Manifest

            m = Manifest(args.index_dir)
            known = set(m.splits)
            missing = [s for s in args.split_ids if s not in known]
            if missing:
                print(f"no such split(s): {', '.join(missing)}",
                      file=sys.stderr)
                return 1
            m.mark_for_deletion(args.split_ids)
            print(f"marked {len(args.split_ids)} split(s) for deletion")
        else:
            d = os.path.join(args.index_dir, "splits", args.split_id)
            if not os.path.isdir(d):
                print(f"no such split {args.split_id}", file=sys.stderr)
                return 1
            if args.split_cmd == "describe":
                with open(os.path.join(d, "footer.json")) as f:
                    footer = json.load(f)
                footer["files"] = {fn: os.path.getsize(os.path.join(d, fn))
                                   for fn in sorted(os.listdir(d))}
                print(json.dumps(footer, indent=2))
            else:  # extract
                import shutil

                os.makedirs(args.out_dir, exist_ok=True)
                for fn in sorted(os.listdir(d)):
                    shutil.copy2(os.path.join(d, fn),
                                 os.path.join(args.out_dir, fn))
                print(f"extracted {len(os.listdir(d))} files to "
                      f"{args.out_dir}")
    elif args.cmd == "list":
        from quickwit_ray import storage
        from quickwit_ray.state.manifest import Manifest

        rows = []
        for name in sorted(storage.listdir(args.root_dir)):
            d = storage.join(args.root_dir, name)
            if not storage.isdir(d):
                continue
            try:
                m = Manifest(d)
            except Exception as e:  # noqa: BLE001 — a REAL index whose
                # metastore errors (unreachable postgres DSN, corrupt
                # sqlite) must not silently vanish from the listing
                print(f"warning: {d}: metastore failed to load: {e}",
                      file=sys.stderr)
                continue
            if m.index_config_json is None:
                continue  # not an index dir
            splits = m.published_splits()
            rows.append({"index_id": m.index_config_json["index_id"],
                         "index_dir": d,
                         "num_published_splits": len(splits),
                         "num_docs": sum(s.num_docs for s in splits)})
        print(json.dumps(rows, indent=2))
    elif args.cmd == "update":
        raw = args.config
        if raw.startswith("@"):
            with open(raw[1:]) as f:
                raw = f.read()
        cfg = Index.open(args.index_dir).update_config(
            api_json=json.loads(raw))
        print(f"updated index {cfg.index_id}")
    elif args.cmd == "apply-retention":
        from quickwit_ray.config import parse_period_secs

        idx = Index.open(args.index_dir)
        secs = parse_period_secs(args.period) if args.period else None
        dropped = idx.apply_retention(secs)
        print(json.dumps({"splits_dropped": dropped}))
    elif args.cmd == "source":
        idx = Index.open(args.index_dir)
        if args.source_cmd == "create":
            raw = args.config
            if raw.startswith("@"):
                with open(raw[1:]) as f:
                    raw = f.read()
            print(json.dumps(idx.add_source(json.loads(raw))))
        elif args.source_cmd == "list":
            print(json.dumps(idx.list_sources(), indent=2))
        elif args.source_cmd == "delete":
            idx.delete_source(args.source_id)
            print(f"deleted source {args.source_id}")
        elif args.source_cmd == "toggle":
            idx.toggle_source(args.source_id, not args.disable)
            print(f"{'disabled' if args.disable else 'enabled'} "
                  f"{args.source_id}")
        elif args.source_cmd == "reset-checkpoint":
            n = idx.reset_source_checkpoint(args.source_id)
            print(f"removed {n} checkpoints")
        elif args.source_cmd == "ingest":
            if not args.local:
                _ray_up(args.num_cpus)
            st = idx.ingest_source(
                args.source_id, execution="local" if args.local else "ray")
            print(json.dumps({"num_docs": getattr(st, "num_docs", 0)}))
    elif args.cmd == "serve":
        from quickwit_ray.server import SearchServer

        if args.janitor_grace_secs is not None \
                and args.janitor_period_secs is None:
            p.error("--janitor-grace-secs requires --janitor-period-secs "
                    "(no janitor runs without a period)")
        if args.search_execution != "local":
            _ray_up(getattr(args, "num_cpus", 0) or (os.cpu_count() or 8))
        indexes = {}
        for d in args.index_dirs:
            idx = Index.open(d)
            indexes[idx.config.index_id] = idx
        srv = SearchServer(indexes, args.host, args.port,
                           index_root_dir=args.index_root_dir,
                           search_execution=args.search_execution,
                           janitor_period_secs=args.janitor_period_secs,
                           janitor_grace_secs=args.janitor_grace_secs,
                           merge_period_secs=args.merge_period_secs
                           ).start()
        print(f"serving {sorted(indexes)} on "
              f"http://{args.host}:{srv.port}/api/v1/_elastic/ "
              "(ctrl-c to stop)")
        try:
            import signal

            signal.pause()
        except (KeyboardInterrupt, AttributeError):
            pass
        finally:
            srv.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
