"""HTTP serving tier — the reference's REST surface over a socket.

The reference's primary user surface is `quickwit-serve`'s REST API
(`quickwit-serve/src/elasticsearch_api/rest_handler.rs:71-294` mounts the
ES-compatible API under `/api/v1/_elastic`, the native API under
`/api/v1`). This module puts the offline router
(`index_api.IndexApiService`, which embeds the ES dispatcher
`search/es_rest.EsRestService` — the objects the conformance corpus
replays against) behind a threaded stdlib HTTP server, so every
endpoint the router supports is reachable with curl / any ES client
pointed at `http://host:port/api/v1/_elastic/...`:

  POST {index}/_search, _count, _msearch, _search/scroll (+ DELETE),
  POST {index}/_bulk (ndjson), {index}/ingest, GET _stats,
  _cat/indices, _field_caps.

Design notes for the serving tier at scale: the handler threads share
ONE router over ONE registry of `Index` objects, so the process-wide
searcher, SplitReader and leaf caches are shared across requests (the
searcher-cache model, `quickwit-search/src/leaf_cache.rs` analog). With
`search_execution="ray"` the server process is the root searcher and
leaf searches fan out to a persistent split-affine Ray actor pool; with
"local" they run on an in-process thread pool. The HTTP layer itself
stays a thin stateless shim, which is exactly what you'd replicate N
times behind a load balancer. Accepted sockets run with TCP_NODELAY,
so a keep-alive request costs its handler time and not a delayed-ACK
wait on the reply's second write.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qsl, urlparse

ES_PREFIX = "/api/v1/_elastic"
NATIVE_PREFIX = "/api/v1"


def _make_handler(qw):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted socket: a reply goes out as a
        # headers write then a body write, and with Nagle on the body
        # waits for the client's delayed ACK of the headers (~40 ms per
        # keep-alive request)
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # quiet: no per-request stderr
            pass

        def _dispatch(self) -> None:
            u = urlparse(self.path)
            params = dict(parse_qsl(u.query))
            n = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(n) if n else b""
            path = u.path
            is_es = path.startswith(ES_PREFIX)
            if is_es:
                path = path[len(ES_PREFIX):]
            elif path.startswith(NATIVE_PREFIX):
                path = path[len(NATIVE_PREFIX):]
            endpoint = path.strip("/")
            if not is_es and qw.wants_raw_body(endpoint):
                # OTLP: protobuf/JSON bytes pass through unparsed — same
                # last-resort 500 wrapper as the normal path (a crafted
                # payload must never tear the connection)
                params["_content_type"] = \
                    self.headers.get("Content-Type", "")
                try:
                    status, payload = qw.request(self.command, endpoint,
                                                 params, raw)
                except Exception:  # noqa: BLE001
                    self._log_internal_error()
                    status, payload = 500, {"status": 500, "error": {
                        "reason": "internal server error"}}
                self._reply(status, payload)
                return
            body = None
            ndjson = None
            if raw:
                last = endpoint.rsplit("/", 1)[-1]
                # body decode is a parse boundary: invalid UTF-8, a
                # malformed ndjson line, or a pathologically nested body
                # (json.loads raises RecursionError on 100k '[') is a
                # client error (400), never a handler crash that tears
                # the connection
                try:
                    if last == "_bulk":
                        body = raw.decode("utf-8")  # ndjson passes through
                    elif last in ("_msearch", "ingest"):
                        ndjson = [json.loads(ln)
                                  for ln in raw.decode("utf-8").split("\n")
                                  if ln.strip()]
                    else:
                        body = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError,
                        RecursionError):
                    self._reply(400, {"status": 400, "error": {
                        "reason": "request body is not valid JSON"}})
                    return
            # one front: ES-prefixed paths hit the embedded ES dispatcher,
            # everything else the native router (which itself falls back
            # to ES for ES-shaped endpoints)
            svc = qw.es if is_es else qw
            try:
                status, payload = svc.request(self.command, endpoint,
                                              params, body, ndjson)
            except Exception:  # noqa: BLE001 — last-resort 500:
                # anything escaping the services' own error mapping must
                # still produce an HTTP response, not a torn connection.
                # Detail goes to the server log only — exception text can
                # carry filesystem paths / index layout.
                self._log_internal_error()
                status, payload = 500, {"status": 500, "error": {
                    "reason": "internal server error"}}
            self._reply(status, payload)

        def _log_internal_error(self) -> None:
            import logging
            import traceback
            logging.getLogger("quickwit_ray.server").error(
                "internal error on %s %s\n%s", self.command, self.path,
                traceback.format_exc())

        def _reply(self, status: int, payload) -> None:
            from quickwit_ray.index_api import RawResponse, StreamingResponse

            if isinstance(payload, StreamingResponse):
                # chunked transfer: one HTTP chunk per streamed block —
                # exports of any size pass through bounded memory
                self.send_response(status)
                self.send_header("Content-Type", payload.content_type)
                self.send_header("Transfer-Encoding", "chunked")
                self.end_headers()
                try:
                    for chunk in payload.chunks():
                        if chunk:
                            self.wfile.write(
                                f"{len(chunk):x}\r\n".encode()
                                + chunk + b"\r\n")
                    self.wfile.write(b"0\r\n\r\n")
                except Exception:  # noqa: BLE001 — headers already sent:
                    # the only honest signal is a torn chunked stream
                    self.close_connection = True
                return
            if isinstance(payload, RawResponse):
                data, ctype = payload.data, payload.content_type
            else:
                data = json.dumps(payload, default=str).encode("utf-8")
                ctype = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        do_GET = do_POST = do_PUT = do_DELETE = _dispatch

    return Handler


class SearchServer:
    """Threaded HTTP server over a registry of indexes.

    >>> with SearchServer({"docs": Index.open(d)}) as srv:
    ...     urllib.request.urlopen(f"http://127.0.0.1:{srv.port}"
    ...                            "/api/v1/_elastic/docs/_search?q=...")
    """

    def __init__(self, indexes: dict, host: str = "127.0.0.1",
                 port: int = 0, index_root_dir: Optional[str] = None,
                 search_execution: Optional[str] = None,
                 janitor_period_secs: Optional[float] = None,
                 janitor_grace_secs: Optional[float] = None,
                 merge_period_secs: Optional[float] = None):
        from quickwit_ray.index_api import IndexApiService

        if search_execution is not None:
            # "ray": this server process is the reference's ROOT searcher
            # and every search request fans leaves out to the persistent
            # split-affine actor pool (LEAF searcher processes) — the
            # root/leaf serving model of cluster_client.rs with Ray actors
            # in place of gRPC peers. Requires a live Ray session (the CLI
            # inits one; embedders own theirs).
            from quickwit_ray.search.engine import set_default_search_execution

            set_default_search_execution(search_execution)
        self.search_execution = search_execution or "local"

        # ONE front (the reference's single server mounting /api/v1 and
        # /api/v1/_elastic): the native router owns the live registry
        # (a copy: API creates/deletes never touch the caller's dict) and
        # embeds the ES dispatcher, so an index created via POST /indexes
        # is immediately ES-searchable
        self.qw = IndexApiService(dict(indexes),
                                  index_root_dir=index_root_dir)
        self._httpd = ThreadingHTTPServer(
            (host, port), _make_handler(self.qw))
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None
        # janitor loop (quickwit-janitor service analog): retention,
        # delete tasks and GC run periodically over the LIVE registry —
        # indexes created through the API join the next cycle
        self.janitor = None
        self.merge_loop = None
        registry = self.qw.indexes

        def _live_index_dirs() -> list:
            # list() snapshots the dict at C speed (atomic under the
            # GIL) — iterating .values() directly would raise if an API
            # index create/delete lands mid-cycle
            return [ix.index_dir for ix in list(registry.values())]

        if merge_period_secs is not None:
            from quickwit_ray.janitor import MergeLoop

            # compaction runs distributed when the serving tier already
            # holds a Ray session (search_execution='ray'), else inline
            # on the loop thread
            merge_exec = "ray" if search_execution == "ray" else "local"
            self.merge_loop = MergeLoop(
                _live_index_dirs, period_secs=merge_period_secs,
                execution=merge_exec)
        if janitor_period_secs is not None:
            from quickwit_ray.janitor import (DEFAULT_GRACE_PERIOD_SECS,
                                              Janitor)

            self.janitor = Janitor(
                _live_index_dirs,
                period_secs=janitor_period_secs,
                grace_period_secs=(DEFAULT_GRACE_PERIOD_SECS
                                   if janitor_grace_secs is None
                                   else janitor_grace_secs))

    def start(self) -> "SearchServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="quickwit-ray-http",
                                        daemon=True)
        self._thread.start()
        if self.janitor is not None:
            self.janitor.start()
        if self.merge_loop is not None:
            self.merge_loop.start()
        return self

    def stop(self) -> None:
        if self.merge_loop is not None:
            self.merge_loop.stop()
        if self.janitor is not None:
            self.janitor.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "SearchServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

