"""A minimal stdlib client for the serve HTTP API (used by the CLI)."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

from repro.errors import ServeError


class ServeClientError(ServeError):
    """The server answered with an error status (or never answered)."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


class ServeClient:
    """Talk to ``python -m repro serve`` at *base_url*."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: dict | None = None
    ):
        req = urllib.request.Request(
            self.base_url + path, method=method
        )
        body = None
        if payload is not None:
            body = json.dumps(payload).encode()
            req.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(
                req, data=body, timeout=self.timeout
            ) as resp:
                raw = resp.read()
                ctype = resp.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:  # noqa: BLE001 — error body is best-effort
                pass
            raise ServeClientError(
                f"{method} {path} -> HTTP {exc.code}"
                + (f": {detail}" if detail else ""),
                status=exc.code,
            ) from exc
        except urllib.error.URLError as exc:
            raise ServeClientError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from exc
        if ctype.startswith("application/json"):
            return json.loads(raw)
        return raw.decode()

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: dict,
        priority: int = 0,
        max_attempts: int | None = None,
        tenant: str | None = None,
    ) -> str:
        payload = dict(spec)
        payload["priority"] = priority
        if max_attempts is not None:
            payload["max_attempts"] = max_attempts
        if tenant is not None:
            payload["tenant"] = tenant
        return self._request("POST", "/jobs", payload)["job_id"]

    def status(self, job_id: str, wait: float | None = None) -> dict:
        """The job's status; with *wait*, the server first blocks up to
        *wait* seconds until the job is terminal."""
        query = "" if wait is None else f"?wait={wait:.3f}"
        return self._request("GET", f"/jobs/{job_id}{query}")

    def list_jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}/result")["result"]

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        return self._request("GET", "/metrics")

    # ------------------------------------------------------------------
    def wait_until_healthy(
        self,
        timeout: float = 30.0,
        backoff: float = 0.05,
        max_interval: float = 1.0,
    ) -> dict:
        """Poll ``/healthz`` until the server answers; its payload.

        The one sanctioned way to wait for a freshly spawned server —
        benchmarks, tests, and CI smokes all use this instead of
        hand-rolled connect-retry loops.  Retries with exponential
        backoff starting at *backoff* seconds (doubling, capped at
        *max_interval*); raises :class:`ServeClientError` once
        *timeout* elapses without a healthy answer.
        """
        deadline = time.monotonic() + timeout
        interval = backoff
        last: ServeClientError | None = None
        while True:
            try:
                return self.healthz()
            except ServeClientError as exc:
                last = exc
            if time.monotonic() >= deadline:
                raise ServeClientError(
                    f"{self.base_url} not healthy after {timeout:.0f}s"
                    + (f" (last error: {last})" if last else "")
                ) from last
            time.sleep(min(interval, max_interval))
            interval *= 2

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.2,
    ) -> dict:
        """Block until the job reaches a terminal state; its status.

        Each round trip is a blocking status read (``?wait=``) of at
        most half the HTTP timeout, which the server answers as soon as
        the job finishes.  *poll_interval* is the pause before the next
        read when a server answers early with a non-terminal state.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            block = max(0.0, min(deadline - asked, self.timeout / 2))
            status = self.status(job_id, wait=block)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            now = time.monotonic()
            if now >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:.0f}s"
                )
            if now - asked < block:
                time.sleep(min(poll_interval, deadline - now))
