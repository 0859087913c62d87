"""Record/replay engine: diff replay, bisection, traffic generation."""

from __future__ import annotations

import pytest

from repro.exec.cache import result_digest, stable_digest
from repro.replay import (
    ReplayEngine,
    Session,
    mutate_spec,
    record_specs,
    record_store,
)
from repro.serve.jobs import validate_spec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

CHEAP_SPECS = [
    {"kind": "workload", "workload": "stencil1d", "paradigm": "inf-s",
     "scale": 0.05, "system": "small-test"},
    {"kind": "workload", "workload": "mm", "paradigm": "inf-s",
     "scale": 0.04, "system": "small-test"},
    # duplicate of the first: replay must execute it only once
    {"kind": "workload", "workload": "stencil1d", "paradigm": "inf-s",
     "scale": 0.05, "system": "small-test"},
]


@pytest.fixture(scope="module")
def session() -> Session:
    return record_specs(CHEAP_SPECS, seeds={"mutation": 3, "think_time": 4})


class TestResultDigest:
    def test_stable_across_json_transport(self):
        import json

        payload = {"total_cycles": 123.0, "rows": [[1, 2.5, "x"]]}
        wire = json.loads(json.dumps(payload))
        assert result_digest(payload) == result_digest(wire)

    def test_rejects_non_json(self):
        with pytest.raises(TypeError):
            result_digest({"bad": object()})


class TestRecorder:
    def test_record_specs_shape(self, session):
        assert len(session.jobs) == 3
        assert session.header.source == "synthetic"
        assert session.header.seeds["mutation"] == 3
        assert all(j.outcome == "done" for j in session.jobs)
        assert all(j.result_digest for j in session.jobs)
        # duplicate specs record identical digests
        assert session.jobs[0].result_digest == session.jobs[2].result_digest
        # metrics summary captured for workload results
        assert "total_cycles" in session.jobs[0].metrics

    def test_failing_execution_recorded_not_raised(self):
        # Validates fine (non-empty source/arrays) but the frontend
        # rejects it at execution time: recorded as outcome="failed"
        # with the error message, and the recorder keeps going.
        bad = record_specs(
            [
                {"kind": "kernel", "name": "bad", "source": "not a kernel",
                 "arrays": {"X": ["N"]}, "params": {"N": 8}},
                {"kind": "workload", "workload": "stencil1d",
                 "paradigm": "inf-s", "scale": 0.05,
                 "system": "small-test"},
            ]
        )
        assert bad.jobs[0].outcome == "failed"
        assert bad.jobs[0].error
        assert not bad.jobs[0].result_digest
        assert bad.jobs[1].outcome == "done"
        assert len(bad.verifiable_jobs()) == 1

    def test_timestamps_monotonic(self, session):
        for job in session.jobs:
            assert job.submit_at <= job.claim_at <= job.complete_at


class TestDiffReplay:
    def test_clean_replay_no_divergence(self, session):
        report = ReplayEngine(session).replay()
        assert report.ok
        assert report.jobs_total == 3
        assert report.jobs_checked == 3
        assert report.executions == 2  # duplicate coalesced
        assert report.first_divergence is None

    def test_perturbed_digest_pinpoints_first_divergence(self, session):
        tampered = Session.loads(session.dumps())
        tampered.jobs[1].result_digest = "deadbeef"
        tampered.jobs[2].result_digest = "deadbeef"
        report = ReplayEngine(tampered).replay()
        assert not report.ok
        assert len(report.divergences) == 2
        first = report.first_divergence
        assert first.job_id == tampered.jobs[1].job_id
        assert first.index == 1
        assert first.kind == "digest"
        assert first.recorded == "deadbeef"
        assert first.replayed != "deadbeef"

    def test_metrics_delta_names_moved_metric(self, session):
        tampered = Session.loads(session.dumps())
        tampered.jobs[0].result_digest = "deadbeef"
        tampered.jobs[0].metrics = dict(
            tampered.jobs[0].metrics, total_cycles=-1.0
        )
        report = ReplayEngine(tampered).replay()
        delta = report.first_divergence.metrics_delta
        assert "total_cycles" in delta
        assert delta["total_cycles"][0] == -1.0

    def test_unrunnable_spec_reports_error_divergence(self, session):
        tampered = Session.loads(session.dumps())
        tampered.jobs[1].spec = {"kind": "workload", "workload": "no-such",
                                 "scale": 0.05}
        report = ReplayEngine(tampered).replay()
        assert not report.ok
        assert any(d.kind == "error" for d in report.divergences)

    def test_skips_unverifiable_jobs(self, session):
        partial = Session.loads(session.dumps())
        partial.jobs[1].outcome = "failed"
        partial.jobs[1].result_digest = ""
        report = ReplayEngine(partial).replay()
        assert report.ok
        assert report.skipped == 1
        assert report.jobs_checked == 2

    def test_report_dict_and_summary(self, session):
        tampered = Session.loads(session.dumps())
        tampered.jobs[0].result_digest = "deadbeef"
        report = ReplayEngine(tampered).replay()
        out = report.to_dict()
        assert out["ok"] is False
        assert out["first_divergence"]["job_id"] == tampered.jobs[0].job_id
        assert "first divergence" in report.summary()


class TestTrafficPlan:
    def test_plan_is_deterministic(self, session):
        engine = ReplayEngine(session)
        kwargs = dict(speed=10, amplify=4, mutate_frac=0.5, stagger=0.3)
        plan_a = engine.schedule(**kwargs)
        plan_b = engine.schedule(**kwargs)
        assert [
            (p.client, p.delay, p.spec, p.mutated) for p in plan_a
        ] == [(p.client, p.delay, p.spec, p.mutated) for p in plan_b]

    def test_amplify_clones_every_job(self, session):
        plan = ReplayEngine(session).schedule(amplify=4)
        assert len(plan) == 4 * len(session.jobs)

    def test_client_zero_never_mutates(self, session):
        plan = ReplayEngine(session).schedule(amplify=5, mutate_frac=1.0)
        for req in plan:
            if req.client == 0:
                assert not req.mutated
            else:
                assert req.mutated

    def test_mutation_seed_changes_plan(self, session):
        other = Session.loads(session.dumps())
        other.header.seeds["mutation"] = 99
        plan_a = ReplayEngine(session).schedule(amplify=3, mutate_frac=0.5)
        plan_b = ReplayEngine(other).schedule(amplify=3, mutate_frac=0.5)
        assert [p.spec for p in plan_a] != [p.spec for p in plan_b]

    def test_speed_compresses_delays(self, session):
        slow = ReplayEngine(session).schedule(speed=1.0)
        fast = ReplayEngine(session).schedule(speed=10.0)
        unpaced = ReplayEngine(session).schedule(speed=0.0)
        for s, f, u in zip(slow, fast, unpaced):
            assert f.delay == pytest.approx(s.delay / 10.0)
            assert u.delay == 0.0

    def test_bad_amplify_rejected(self, session):
        with pytest.raises(ValueError):
            ReplayEngine(session).schedule(amplify=0)

    def test_mutations_keep_specs_valid_and_change_fingerprint(
        self, session
    ):
        plan = ReplayEngine(session).schedule(amplify=6, mutate_frac=1.0)
        for req in plan:
            validated = validate_spec(req.spec)
            if req.mutated:
                original = next(
                    j.spec for j in session.jobs
                    if j.job_id == req.source_job
                )
                assert stable_digest(validated) != stable_digest(
                    validate_spec(original)
                )

    def test_mutate_spec_kinds(self):
        import random

        rng = random.Random(0)
        campaign = mutate_spec(
            {"kind": "campaign", "figure": "fig14", "scale": 0.05}, rng
        )
        assert campaign["scale"] != 0.05 and campaign["scale"] > 0
        kernel = mutate_spec({"kind": "kernel", "iterations": 1}, rng)
        assert kernel["iterations"] > 1


class TestRecordStore:
    def test_store_snapshot_matches_local_execution(self, tmp_path):
        from tests.test_serve_http import start_stack, stop_stack

        # Submit before the worker starts: a woken worker finishes a
        # cheap leader before its twin arrives, and nothing coalesces.
        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            for spec in CHEAP_SPECS:
                client.submit(spec)
            service.start()
            for job in service.store.jobs():
                client.wait(job.job_id, timeout=300)
            session = record_store(
                service.store, seeds={"backoff": 1}, meta={"via": "test"}
            )
        finally:
            stop_stack(service, httpd)
        assert len(session.jobs) == 3
        assert session.header.source == "serve"
        assert session.header.seeds["backoff"] == 1
        # the coalesced duplicate depends on its leader
        coalesced = [j for j in session.jobs if j.deps]
        assert len(coalesced) == 1
        # digests recorded over HTTP/WAL match a local re-execution
        report = ReplayEngine(session).replay()
        assert report.ok, report.summary()

    def test_service_record_session(self, tmp_path):
        from tests.test_serve_http import start_stack, stop_stack

        service, httpd, client = start_stack(tmp_path)
        try:
            job_id = client.submit(CHEAP_SPECS[0])
            client.wait(job_id, timeout=300)
            path = service.record_session(tmp_path / "session.jsonl")
        finally:
            stop_stack(service, httpd)
        session = Session.load(path)
        assert len(session.jobs) == 1
        assert session.jobs[0].result_digest


class TestServeReplay:
    def test_diff_replay_and_drive_over_http(self, tmp_path):
        from tests.test_serve_http import start_stack, stop_stack

        session = record_specs(
            CHEAP_SPECS[:2], seeds={"mutation": 1, "think_time": 2}
        )
        service, httpd, client = start_stack(tmp_path, max_running=2)
        try:
            report = ReplayEngine(session).replay(
                client=client, timeout=300
            )
            assert report.ok, report.summary()
            assert report.mode == "serve"
            assert report.executions == 2

            traffic = ReplayEngine(session).drive(
                client.base_url,
                speed=0.0,
                amplify=2,
                mutate_frac=0.0,
                timeout=300,
            )
            assert traffic.submitted == 4
            assert traffic.done == 4
            assert traffic.failed == 0
            assert traffic.p99_latency_s >= traffic.p50_latency_s >= 0
        finally:
            stop_stack(service, httpd)


class TestWaitUntilHealthy:
    def test_healthy_endpoint_returns_payload(self, tmp_path):
        from tests.test_serve_http import start_stack, stop_stack

        service, httpd, client = start_stack(tmp_path, worker=False)
        try:
            health = client.wait_until_healthy(timeout=10.0)
            assert health["status"] == "ok"
        finally:
            stop_stack(service, httpd)

    def test_unreachable_endpoint_times_out(self):
        from repro.serve.client import ServeClient, ServeClientError

        client = ServeClient("http://127.0.0.1:1", timeout=0.2)
        with pytest.raises(ServeClientError, match="not healthy"):
            client.wait_until_healthy(timeout=0.5, backoff=0.05)
