"""HTTP/JSON API over an :class:`ExperimentService` (stdlib only).

Endpoints (all JSON bodies)::

    GET  /v1/health                liveness + version
    GET  /v1/metrics               Prometheus text exposition
                                   (the one non-JSON endpoint)
    POST /v1/grids                 submit a grid        -> 202 status
                                   (body may carry "adaptive": an
                                   AdaptivePolicy dict switching the
                                   grid to adaptive orchestration)
    GET  /v1/grids/<id>            progress snapshot    -> 200 status
    GET  /v1/grids/<id>/result     finished ResultSet   -> 200 records
                                   (?metrics=a,b selects metric columns)
    POST /v1/grids/<id>/cancel     cancel a grid        -> 200 status
    GET  /v1/jobs                  job listing          -> 200 jobs
                                   (?state=quarantined filters by state)
    POST /v1/jobs/requeue          requeue quarantined  -> 200 count
                                   (body {"keys": [...]} limits scope)

Error mapping: malformed payloads -> 400, unknown grids -> 404,
results requested before completion -> 409 (body carries the status so
clients can keep polling), backpressure -> 429 with ``Retry-After``.

The server is a ``ThreadingHTTPServer``: submissions and polls are
served concurrently with execution, which runs on the service's worker
pool, not on request threads.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import telemetry
from repro.errors import ConfigError
from repro.service.queue import QueueFull
from repro.service.service import ExperimentService, ResultPending, \
    UnknownGrid

#: Advertised in /v1/health and the Server header.
API_VERSION = "1"

#: Submission bodies above this are rejected outright (64 MiB).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: ExperimentService, quiet: bool = True) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.quiet = quiet


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes /v1/* to the service; everything else is a 404."""

    server_version = f"repro-service/{API_VERSION}"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, fmt: str, *args: object) -> None:
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(fmt, *args)

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def _send(self, code: int, payload: Dict[str, Any],
              retry_after: Optional[int] = None) -> None:
        self._send_bytes(code, json.dumps(payload).encode(),
                         "application/json", retry_after=retry_after)

    def _send_bytes(self, code: int, body: bytes, content_type: str,
                    retry_after: Optional[int] = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.end_headers()
        self.wfile.write(body)
        telemetry.REGISTRY.counter(
            "repro_http_requests_total", "API requests served",
            ("method", "code")).labels(
                method=self.command, code=str(code)).inc()

    def _error(self, code: int, message: str,
               retry_after: Optional[int] = None,
               **extra: Any) -> None:
        self._send(code, dict({"error": message}, **extra),
                   retry_after=retry_after)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ConfigError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise ConfigError(
                f"request body too large ({length} bytes)")
        try:
            return json.loads(self.rfile.read(length))
        except ValueError:
            raise ConfigError("request body is not valid JSON")

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "health"]:
                self._send(200, {"status": "ok",
                                 "version": API_VERSION})
            elif parts == ["v1", "metrics"]:
                self._send_bytes(
                    200, self.service.metrics_text().encode(),
                    "text/plain; version=0.0.4; charset=utf-8")
            elif len(parts) == 3 and parts[:2] == ["v1", "grids"]:
                self._send(200, self.service.status(parts[2]))
            elif len(parts) == 4 and parts[:2] == ["v1", "grids"] \
                    and parts[3] == "result":
                query = parse_qs(url.query)
                metrics = [m for chunk in query.get("metrics", [])
                           for m in chunk.split(",") if m]
                self._send(200,
                           self.service.result(parts[2], metrics))
            elif parts == ["v1", "jobs"]:
                query = parse_qs(url.query)
                state = (query.get("state") or [None])[0]
                jobs = self.service.jobs(state)
                self._send(200, {"jobs": jobs, "count": len(jobs)})
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except UnknownGrid as exc:
            self._error(404, f"unknown grid {exc.args[0]!r}")
        except ResultPending as exc:
            self._send(409, dict(exc.status,
                                 error="result not ready"))
        except (ConfigError, ValueError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "grids"]:
                payload = self._read_body()
                self._send(202, self.service.submit_request(payload))
            elif len(parts) == 4 and parts[:2] == ["v1", "grids"] \
                    and parts[3] == "cancel":
                self._send(200, self.service.cancel(parts[2]))
            elif parts == ["v1", "jobs", "requeue"]:
                length = int(self.headers.get("Content-Length") or 0)
                body = self._read_body() if length > 0 else {}
                keys = body.get("keys") if isinstance(body, dict) \
                    else None
                if keys is not None and not isinstance(keys, list):
                    raise ConfigError("'keys' must be a list of job keys")
                self._send(200, self.service.requeue_quarantined(
                    [str(k) for k in keys] if keys is not None else None))
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except QueueFull as exc:
            self._error(429, str(exc), retry_after=1,
                        tenant=exc.tenant, scope=exc.scope,
                        limit=exc.limit)
        except UnknownGrid as exc:
            self._error(404, f"unknown grid {exc.args[0]!r}")
        except (ConfigError, ValueError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, f"{type(exc).__name__}: {exc}")


def make_server(service: ExperimentService, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = True) -> ServiceHTTPServer:
    """Bind the API (port 0 = ephemeral; see ``server_address``)."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)
