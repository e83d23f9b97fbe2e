"""Serving process for the benchmark's HTTP workloads.

Starts the program's own `SearchServer` the way `quickwit_ray.cli serve`
does (indexes opened with `Index.open`, `search_execution="local"`,
optional merge loop period), prints `{"port": N}` on stdout, serves until
its stdin closes, then stops the server and prints
`{"peak_rss_mb": ...}`. With `--trace-out` it wraps the program's layer
functions first and writes the recorded spans there on exit.

    python3 perfbench/serve.py INDEX_DIR [--merge-period-secs S]
                                         [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("index_dirs", nargs="+")
    p.add_argument("--merge-period-secs", type=float, default=None)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args()

    from quickwit_ray.api import Index
    from quickwit_ray.server import SearchServer

    import spans

    indexes = {}
    for d in args.index_dirs:
        idx = Index.open(d)
        indexes[idx.config.index_id] = idx
    srv = SearchServer(indexes, "127.0.0.1", 0, index_root_dir=None,
                       search_execution="local",
                       janitor_period_secs=None, janitor_grace_secs=None,
                       merge_period_secs=args.merge_period_secs)
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer("server")
        spans.install_server(tracer, srv)
        hits0, misses0 = spans.leaf_cache_counts()
    srv.start()
    print(json.dumps({"port": srv.port}), flush=True)
    try:
        sys.stdin.read()   # the benchmark closes our stdin to stop us
    finally:
        srv.stop()
        if tracer is not None:
            hits1, misses1 = spans.leaf_cache_counts()
            tracer.dump(args.trace_out, {
                "leaf_cache_hits": hits1 - hits0,
                "leaf_cache_misses": misses1 - misses0})
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"peak_rss_mb": rss_kb / 1024.0}), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.exit(main())
