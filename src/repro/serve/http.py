"""The HTTP API: a threaded stdlib ``http.server`` over ReproService.

Routes (all JSON unless noted)::

    POST /jobs                submit {kind, ..., priority?, max_attempts?,
                              tenant?}
                              -> 201 {job_id, state}
                              -> 400 malformed spec, 429 admission reject
    GET  /jobs                -> {jobs: [summaries]}
    GET  /jobs/<id>           -> full status (state, attempts, checkpoints)
    GET  /jobs/<id>?wait=S    -> the same, once the job is terminal or
                              after S seconds (capped), whichever first
                              -> 400 malformed S
    GET  /jobs/<id>/result    -> 200 result | 409 {state} while pending
    POST /jobs/<id>/cancel    -> {state: cancelled|cancelling|...}
    GET  /healthz             -> {status, uptime_seconds, jobs: {counts}}
    GET  /metrics             -> text/plain serve.* metrics report

Handlers run on one thread per connection
(:class:`~http.server.ThreadingHTTPServer`); every shared mutation goes
through the service, whose store serializes under its own lock.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.errors import AdmissionError, JobSpecError, UnknownJobError
from repro.serve.service import ReproService

MAX_BODY_BYTES = 4 << 20  # a kernel source plus headroom


class _BadRequest(Exception):
    """A malformed request line argument (HTTP 400)."""


def _wait_seconds(query: str) -> float | None:
    """The ``wait=S`` argument of a query string, or None without one."""
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if not values:
        return None
    try:
        seconds = float(values[-1])
    except ValueError:
        seconds = math.nan
    if not 0.0 <= seconds < math.inf:
        raise _BadRequest(
            f"wait must be a number of seconds >= 0, not {values[-1]!r}"
        )
    return seconds


class ServeHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog (5) drops connections under submission
    # bursts — load tests fan out dozens of clients at once.
    request_queue_size = 128

    def __init__(self, address, service: ReproService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    @property
    def service(self) -> ReproService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # noqa: D102 — silence by default
        if not getattr(self.server, "quiet", True):
            super().log_message(fmt, *args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise JobSpecError("request body required")
        if length > MAX_BODY_BYTES:
            raise JobSpecError(
                f"request body too large ({length} > {MAX_BODY_BYTES})"
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise JobSpecError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise JobSpecError("JSON body must be an object")
        return payload

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        try:
            self._route_get()
        except _BadRequest as exc:
            self._send_json({"error": str(exc)}, status=400)
        except UnknownJobError as exc:
            self._send_json({"error": str(exc)}, status=404)
        except Exception as exc:  # noqa: BLE001 — keep the server alive
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )

    def _route_get(self) -> None:
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(self.service.health())
        elif path == "/metrics":
            self._send_text(self.service.metrics_text())
        elif path == "/jobs":
            self._send_json({"jobs": self.service.list_jobs()})
        elif path.startswith("/jobs/") and path.endswith("/result"):
            job_id = path[len("/jobs/") : -len("/result")]
            state, result = self.service.result(job_id)
            if result is not None and state.value == "done":
                self._send_json({"job_id": job_id, "result": result})
            else:
                self._send_json(
                    {"job_id": job_id, "state": state.value,
                     "error": self.service.status(job_id)["error"]},
                    status=409,
                )
        elif path.startswith("/jobs/"):
            self._send_json(
                self.service.status(
                    path[len("/jobs/"):], wait=_wait_seconds(url.query)
                )
            )
        else:
            self._send_json({"error": f"no route {path}"}, status=404)

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except JobSpecError as exc:
            self._send_json({"error": str(exc)}, status=400)
        except AdmissionError as exc:
            self._send_json(
                {
                    "error": str(exc),
                    "reason": exc.reason,
                    "limit": exc.limit,
                    "current": exc.current,
                },
                status=429,
            )
        except UnknownJobError as exc:
            self._send_json({"error": str(exc)}, status=404)
        except Exception as exc:  # noqa: BLE001 — keep the server alive
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )

    def _route_post(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/jobs":
            payload = self._read_body()
            priority = int(payload.pop("priority", 0))
            max_attempts = payload.pop("max_attempts", None)
            tenant = str(payload.pop("tenant", "default") or "default")
            job = self.service.submit(
                payload,
                priority=priority,
                max_attempts=(
                    None if max_attempts is None else int(max_attempts)
                ),
                tenant=tenant,
            )
            self._send_json(
                {"job_id": job.job_id, "state": job.state.value}, status=201
            )
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/jobs/") : -len("/cancel")]
            self._send_json(self.service.cancel(job_id))
        else:
            self._send_json({"error": f"no route {path}"}, status=404)


def make_server(
    service: ReproService,
    host: str = "127.0.0.1",
    port: int = 8757,
    quiet: bool = True,
) -> ServeHTTPServer:
    """Bind (but do not start) the API server; ``port=0`` picks a free
    port (read it back from ``server.server_address``)."""
    return ServeHTTPServer((host, port), service, quiet=quiet)
