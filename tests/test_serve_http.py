"""End-to-end HTTP API: submit/poll/result, errors, metrics, restart."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import service as service_mod
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import make_server
from repro.serve.scheduler import SchedulerConfig
from repro.serve.service import ReproService

SPEC = {"kind": "campaign", "figure": "fig14", "scale": 0.05}
KERNEL_SPEC = {
    "kind": "kernel",
    "name": "saxpy",
    "source": "for i in [0, N):\n    Y[i] = a * X[i] + Y[i]\n",
    "arrays": {"X": ["N"], "Y": ["N"]},
    "params": {"N": 4096, "a": 2},
    "paradigm": "inf-s",
}


def start_stack(tmp_path, *, worker=True, **cfg):
    service = ReproService(
        root=tmp_path / "serve",
        config=SchedulerConfig(**cfg),
        jobs=1,
        fsync=False,
    )
    if worker:
        service.start()
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    client = ServeClient(f"http://{host}:{port}")
    return service, httpd, client


def stop_stack(service, httpd):
    httpd.shutdown()
    httpd.server_close()
    service.shutdown(wait=True)


@pytest.fixture
def stack(tmp_path):
    service, httpd, client = start_stack(tmp_path)
    yield service, client
    stop_stack(service, httpd)


class TestRoundTrip:
    def test_healthz(self, stack):
        _, client = stack
        health = client.healthz()
        assert health["status"] == "ok"
        assert "jobs" in health and "max_running" in health

    def test_submit_poll_result(self, stack):
        _, client = stack
        job_id = client.submit(SPEC)
        assert job_id.startswith("j")

        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        result = client.result(job_id)
        assert result["kind"] == "campaign"
        assert result["figure"] == "fig14"
        assert len(result["rows"]) == 13

        # The result matches a direct in-process campaign run.
        from repro.sim.campaign import fig14_cycles, format_table

        headers, rows = fig14_cycles(scale=SPEC["scale"])
        assert result["table"] == format_table(
            list(headers), [list(r) for r in rows]
        )

    def test_kernel_job(self, stack):
        _, client = stack
        job_id = client.submit(KERNEL_SPEC)
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        result = client.result(job_id)
        assert result["kind"] == "kernel"
        assert result["total_cycles"] > 0

    def test_workload_job(self, stack):
        _, client = stack
        job_id = client.submit(
            {
                "kind": "workload",
                "workload": "spmv",
                "paradigm": "inf-s",
                "scale": 0.05,
                "system": "small-test",
            }
        )
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        result = client.result(job_id)
        assert result["kind"] == "workload"
        assert result["workload"] == "spmv"
        assert result["paradigm"] == "inf-s"
        assert result["total_cycles"] > 0
        assert result["energy_nj"] > 0

    def test_workload_alias_canonicalized_at_submit(self, stack):
        _, client = stack
        job_id = client.submit(
            {"kind": "workload", "workload": "matmul", "scale": 0.05,
             "system": "small-test"}
        )
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done"
        assert client.result(job_id)["workload"] == "mm"

    def test_metrics_exposes_serve_counters(self, stack):
        _, client = stack
        job_id = client.submit(SPEC)
        client.wait(job_id, timeout=300)
        text = client.metrics()
        assert "serve.jobs.submitted" in text
        assert "serve.points.checkpointed" in text
        assert "serve.jobs.state|state=done" in text

    def test_failing_job_does_not_drop_queued_jobs(self, stack):
        _, client = stack
        bad = client.submit(
            {**KERNEL_SPEC, "source": "this is not a kernel\n"},
            max_attempts=1,
        )
        good = client.submit(SPEC)
        assert client.wait(bad, timeout=300)["state"] == "failed"
        assert client.wait(good, timeout=300)["state"] == "done"
        status = client.status(bad)
        assert status["error"]


class TestErrors:
    def test_bad_spec_is_400(self, stack):
        _, client = stack
        with pytest.raises(ServeClientError) as exc:
            client.submit({"kind": "campaign", "figure": "fig99"})
        assert exc.value.status == 400

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "workload", "workload": "bitcoin_miner"},
            {"kind": "workload", "workload": "spmv", "paradigm": "warp"},
            {"kind": "workload", "workload": "spmv", "system": "cray-1"},
            {"kind": "workload", "workload": "spmv", "scale": 0},
            {**KERNEL_SPEC, "paradigm": "warp"},
            {**KERNEL_SPEC, "system": "cray-1"},
        ],
        ids=["workload", "paradigm", "system", "scale",
             "kernel-paradigm", "kernel-system"],
    )
    def test_unregistered_names_rejected_at_submit(self, stack, spec):
        """Registry validation happens at submit time, not run time."""
        _, client = stack
        with pytest.raises(ServeClientError) as exc:
            client.submit(spec)
        assert exc.value.status == 400

    def test_unknown_job_is_404(self, stack):
        _, client = stack
        with pytest.raises(ServeClientError) as exc:
            client.status("j99999-deadbeef")
        assert exc.value.status == 404

    def test_result_before_done_is_409(self, tmp_path):
        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            job_id = client.submit(SPEC)
            with pytest.raises(ServeClientError) as exc:
                client.result(job_id)
            assert exc.value.status == 409
        finally:
            stop_stack(service, httpd)

    def test_queue_full_is_429_with_structure(self, tmp_path):
        service, httpd, client = start_stack(
            tmp_path, worker=False, max_queued=1
        )
        try:
            client.submit(SPEC)
            with pytest.raises(ServeClientError) as exc:
                client.submit(SPEC)
            assert exc.value.status == 429
            assert "queue-full" in str(exc.value)
        finally:
            stop_stack(service, httpd)

    def test_cancel_queued_job(self, tmp_path):
        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            job_id = client.submit(SPEC)
            cancelled = client.cancel(job_id)
            assert cancelled["state"] == "cancelled"
            assert client.status(job_id)["state"] == "cancelled"
        finally:
            stop_stack(service, httpd)


class TestPersistence:
    def test_jobs_survive_service_restart(self, tmp_path):
        service, httpd, client = start_stack(tmp_path)
        job_id = client.submit(SPEC)
        client.wait(job_id, timeout=300)
        stop_stack(service, httpd)

        service2, httpd2, client2 = start_stack(tmp_path)
        try:
            status = client2.status(job_id)
            assert status["state"] == "done"
            assert client2.result(job_id)["figure"] == "fig14"
        finally:
            stop_stack(service2, httpd2)


class TestBlockingStatus:
    """``GET /jobs/<id>?wait=S``: answered when the job is terminal."""

    def test_wait_returns_as_soon_as_job_finishes(self, stack, monkeypatch):
        service, client = stack
        # Only the worker's outcome ring can answer within the wait.
        monkeypatch.setattr(service_mod, "RECHECK_S", 30.0)
        warm = client.submit(KERNEL_SPEC)  # imports, compiles
        assert client.status(warm, wait=120.0)["state"] == "done"
        job_id = client.submit(dict(KERNEL_SPEC, iterations=2))
        t0 = time.monotonic()
        status = client.status(job_id, wait=20.0)
        elapsed = time.monotonic() - t0
        assert status["state"] == "done"
        # The answer follows the outcome, not the end of the wait.
        assert elapsed < 10.0
        assert time.time() - status["finished_at"] < 1.0

    def test_wait_without_worker_returns_status_after_s(self, tmp_path):
        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            job_id = client.submit(SPEC)
            t0 = time.monotonic()
            status = client.status(job_id, wait=0.3)
            elapsed = time.monotonic() - t0
            assert status["state"] == "queued"
            assert 0.25 <= elapsed < 2.0
        finally:
            stop_stack(service, httpd)

    def test_cancel_wakes_a_waiting_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_mod, "RECHECK_S", 30.0)
        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            job_id = client.submit(SPEC)
            threading.Timer(0.2, client.cancel, args=(job_id,)).start()
            t0 = time.monotonic()
            status = client.status(job_id, wait=20.0)
            assert status["state"] == "cancelled"
            assert time.monotonic() - t0 < 5.0
        finally:
            stop_stack(service, httpd)

    def test_malformed_wait_is_400(self, tmp_path):
        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            job_id = client.submit(SPEC)
            for value in ("abc", "-1", "nan", "inf", ""):
                with pytest.raises(ServeClientError) as exc:
                    client._request("GET", f"/jobs/{job_id}?wait={value}")
                assert exc.value.status == 400, value
        finally:
            stop_stack(service, httpd)

    def test_unknown_query_arguments_are_ignored(self, tmp_path):
        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            job_id = client.submit(SPEC)
            status = client._request("GET", f"/jobs/{job_id}?x=1")
            assert status["job_id"] == job_id
            assert client._request("GET", "/healthz?verbose")["status"] == "ok"
        finally:
            stop_stack(service, httpd)

    def test_shutdown_releases_a_waiting_reader(self, tmp_path, monkeypatch):
        monkeypatch.setattr(service_mod, "RECHECK_S", 30.0)
        service, httpd, client = start_stack(tmp_path, worker=False)
        job_id = client.submit(SPEC)
        answers = []
        reader = threading.Thread(
            target=lambda: answers.append(client.status(job_id, wait=25.0))
        )
        reader.start()
        time.sleep(0.2)
        t0 = time.monotonic()
        stop_stack(service, httpd)
        reader.join(timeout=30)
        assert time.monotonic() - t0 < 5.0
        assert answers and answers[0]["state"] == "queued"
