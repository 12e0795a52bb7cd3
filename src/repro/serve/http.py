"""The JSON-over-HTTP transport: a stdlib ``ThreadingHTTPServer``.

Endpoints map one-to-one onto :func:`~repro.serve.service.handle_query`
verbs — ``/availability``, ``/timeline``, ``/best_placement``, ``/meta``,
``/stats`` — plus ``/health`` for liveness probes and ``/metrics`` for
Prometheus text exposition.  Query parameters are the query grammar
verbatim (``?user=…&strategy=s-rep&k=10``).  Bad input is a 400 with an
``{"error": …}`` body, an unknown path a 404; nothing raises through the
server loop.

Every request is recorded into the process-wide metrics registry
(:func:`repro.obs.metrics`) regardless of whether ``--metrics`` was
passed, so ``GET /metrics`` always tells the truth about this server:
``repro_serve_requests_total{endpoint,status}`` and the
``repro_serve_request_seconds{endpoint}`` latency histogram.

Threading matters here: the handler threads all call into one shared
:class:`~repro.serve.service.AvailabilityService`, whose one-time
builds are lock-serialised and whose queries are read-only afterwards —
concurrent requests get bit-identical answers to serial ones.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.errors import ReproError
from repro.serve.service import AvailabilityService, handle_query

#: URL path -> query verb.
_ROUTES = {
    "/availability": "availability",
    "/timeline": "timeline",
    "/best_placement": "best_placement",
    "/meta": "meta",
    "/stats": "stats",
}


def _json(status: int, payload: dict) -> tuple[int, bytes, str]:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return status, body, "application/json"


def _answer(service: AvailabilityService, path: str, query: str) -> tuple[int, bytes, str]:
    """The status, body and content type of the reply to ``GET path?query``."""
    if path == "/health":
        return _json(200, {"status": "ok"})
    if path == "/metrics":
        body = obs.metrics().render_prometheus().encode("utf-8")
        return 200, body, "text/plain; version=0.0.4; charset=utf-8"
    verb = _ROUTES.get(path)
    if verb is None:
        return _json(
            404,
            {"error": f"unknown endpoint {path!r}",
             "endpoints": sorted(_ROUTES) + ["/health", "/metrics"]},
        )
    params = dict(parse_qsl(query))
    try:
        return _json(200, handle_query(service, verb, params))
    except ReproError as exc:
        return _json(400, {"error": str(exc)})


def build_http_server(
    service: AvailabilityService, host: str = "127.0.0.1", port: int = 8015
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``host:port``.

    Split from :func:`serve_http` so tests (and embedders) can bind port
    0, read back ``server.server_address``, and drive the server from
    their own thread.
    """

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            parsed = urlsplit(self.path)
            path = parsed.path.rstrip("/") or "/"
            started = time.perf_counter()
            status = 500  # stays 500 only if the answer raised unexpectedly
            try:
                status, body, content_type = _answer(service, path, parsed.query)
            finally:
                # recorded before the reply goes out, so a client that reads
                # /metrics right after its answer always sees its request
                registry = obs.metrics()
                registry.observe(
                    "repro_serve_request_seconds",
                    time.perf_counter() - started,
                    endpoint=path,
                )
                registry.inc(
                    "repro_serve_requests_total", endpoint=path, status=str(status)
                )
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # silence per-request stderr noise
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    server.daemon_threads = True
    return server


def serve_http(
    service: AvailabilityService, host: str = "127.0.0.1", port: int = 8015
) -> None:
    """Announce the bound address and serve until interrupted."""
    server = build_http_server(service, host, port)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"serving availability queries on http://{bound_host}:{bound_port}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
