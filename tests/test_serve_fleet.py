"""Fleet-mode serve tests: fairness, quotas, coalescing, shared store.

Three layers, cheapest first:

* hypothesis property tests drive the :class:`Scheduler` policy alone
  (a store of their own, fake clock, no execution) and pin the three
  fleet invariants: fair-share never starves a tenant with queued work,
  per-tenant running quotas are never exceeded, and two jobs with the
  same content fingerprint never execute concurrently;
* shared-store tests open two :class:`JobStore` instances on one root —
  exactly what two fleet processes do — and check cross-instance
  visibility, in-place absorption (object identity), epoch-based reload
  after a compaction, and torn-tail repair;
* an HTTP round-trip drives duplicate submissions from several clients
  through a real server and asserts exactly one execution fans out
  byte-identical results — including when one submitter cancels — and a
  subprocess fleet smoke checks real workers drain a shared store and
  exit 0 on SIGTERM.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import closing, contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.http import make_server
from repro.serve.jobs import JobState
from repro.serve.scheduler import Scheduler, SchedulerConfig
from repro.serve.service import ReproService
from repro.serve.store import JobStore


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


#: the claiming worker's id in the policy tests
W = "w1"
#: the policy tests send no heartbeats: their leases outlast the fake
#: clock's whole run, so no claim is ever reclaimed under them
LONG_LEASE = 1e6


@contextmanager
def make_sched(tmp_path, **cfg):
    """A Scheduler on a store of its own, closed on exit."""
    store = JobStore(tmp_path / "store", fsync=False)
    try:
        yield Scheduler(
            store, SchedulerConfig(**{"lease_duration": LONG_LEASE, **cfg})
        )
    finally:
        store.close()


def submit_n(sched, clock, jobs):
    """jobs: [(tenant, priority, spec_tag)] -> submitted Job list."""
    out = []
    for tenant, priority, tag in jobs:
        out.append(
            sched.admit(
                {"kind": "workload", "workload": tag},
                priority=priority,
                now=clock(),
                tenant=tenant,
            )
        )
    return out


# ----------------------------------------------------------------------
# Property: fair-share never starves a tenant with queued jobs
# ----------------------------------------------------------------------
class TestFairShareProperties:
    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(0, 3),  # tenant
                st.integers(-2, 2),  # priority
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_claims_always_serve_a_least_recently_served_tenant(
        self, tmp_path_factory, jobs
    ):
        """With one dispatch slot, every claim goes to a tenant that is
        least-recently served among those with queued work — the LRU
        round-robin that makes starvation impossible: a tenant with
        queued jobs is served within #tenants claims."""
        tmp = tmp_path_factory.mktemp("fair")
        clock = FakeClock()
        with make_sched(tmp, max_queued=100, max_running=1) as sched:
            submitted = submit_n(
                sched,
                clock,
                [(f"t{t}", p, f"wl{i}") for i, (t, p) in enumerate(jobs)],
            )
            last_served: dict[str, int] = {}
            serves = 0
            claimed = []
            while True:
                pending = {
                    j.tenant for j in sched.store.jobs(JobState.QUEUED)
                }
                job = sched.claim_next(clock.advance(1.0), W)
                if job is None:
                    assert not pending
                    break
                floor = min(last_served.get(t, -1) for t in pending)
                assert last_served.get(job.tenant, -1) == floor, (
                    f"claimed {job.tenant} but a less recently served tenant "
                    f"had queued jobs: {sorted(pending)}"
                )
                serves += 1
                last_served[job.tenant] = serves
                claimed.append(job.job_id)
                sched.complete(job, {"ok": True}, clock(), W)
            assert sorted(claimed) == sorted(j.job_id for j in submitted)

    def test_flood_tenant_cannot_starve_trickle_tenant(self, tmp_path):
        """100 queued jobs from one tenant, 1 from another: the loner is
        served second, not 101st."""
        clock = FakeClock()
        with make_sched(tmp_path, max_queued=200, max_running=1) as sched:
            submit_n(
                sched, clock, [("flood", 0, f"wl{i}") for i in range(100)]
            )
            submit_n(sched, clock, [("trickle", 0, "lone")])
            first = sched.claim_next(clock.advance(1.0), W)
            sched.complete(first, {}, clock(), W)
            second = sched.claim_next(clock.advance(1.0), W)
            assert {first.tenant, second.tenant} == {"flood", "trickle"}


# ----------------------------------------------------------------------
# Property: quotas are never exceeded
# ----------------------------------------------------------------------
class TestQuotaProperties:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_running_per_tenant_never_exceeds_quota(
        self, tmp_path_factory, data
    ):
        tmp = tmp_path_factory.mktemp("quota")
        clock = FakeClock()
        n_tenants = data.draw(st.integers(1, 3), label="tenants")
        default_quota = data.draw(st.integers(1, 2), label="default_quota")
        override = data.draw(st.integers(1, 3), label="t0_quota")
        with make_sched(
            tmp,
            max_queued=100,
            max_running=50,
            max_running_per_tenant=default_quota,
            tenant_quotas=(("t0", override),),
        ) as sched:
            jobs = data.draw(
                st.lists(st.integers(0, n_tenants - 1), min_size=1,
                         max_size=25),
                label="jobs",
            )
            submit_n(
                sched,
                clock,
                [(f"t{t}", 0, f"wl{i}") for i, t in enumerate(jobs)],
            )
            running: list = []
            for step in range(200):
                do_claim = data.draw(
                    st.booleans(), label=f"claim@{step}"
                ) if running else True
                if do_claim:
                    job = sched.claim_next(clock.advance(1.0), W)
                    if job is not None:
                        running.append(job)
                    elif not running:
                        break  # drained
                else:
                    sched.complete(running.pop(0), {}, clock.advance(1.0), W)
                per_tenant: dict[str, int] = {}
                for j in sched.store.jobs(JobState.RUNNING):
                    per_tenant[j.tenant] = per_tenant.get(j.tenant, 0) + 1
                for tenant, count in per_tenant.items():
                    assert count <= sched.tenant_quota(tenant), (
                        f"tenant {tenant} running {count} > quota "
                        f"{sched.tenant_quota(tenant)}"
                    )
            # Completeness: when the picker refuses, every queued job's
            # tenant must actually be at quota.
            if sched.store.jobs(JobState.QUEUED):
                assert sched.next_job(clock()) is None
                per_tenant = {}
                for j in sched.store.jobs(JobState.RUNNING):
                    per_tenant[j.tenant] = per_tenant.get(j.tenant, 0) + 1
                for j in sched.store.jobs(JobState.QUEUED):
                    assert (
                        per_tenant.get(j.tenant, 0)
                        >= sched.tenant_quota(j.tenant)
                    )

    def test_tenant_queue_cap_rejects_with_429_reason(self, tmp_path):
        clock = FakeClock()
        with make_sched(
            tmp_path, max_queued=10, max_running=1,
            max_queued_per_tenant=2,
        ) as sched:
            submit_n(sched, clock, [("a", 0, "x0"), ("a", 0, "x1")])
            with pytest.raises(AdmissionError) as err:
                submit_n(sched, clock, [("a", 0, "x2")])
            assert err.value.reason == "tenant-queue-full"
            # Other tenants are unaffected by a's full slice.
            submit_n(sched, clock, [("b", 0, "y0")])


# ----------------------------------------------------------------------
# Property: one execution per fingerprint at a time
# ----------------------------------------------------------------------
class TestCoalesceProperties:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_no_two_running_jobs_share_a_fingerprint(
        self, tmp_path_factory, data
    ):
        tmp = tmp_path_factory.mktemp("coal")
        clock = FakeClock()
        with make_sched(tmp, max_queued=100, max_running=10) as sched:
            specs = data.draw(
                st.lists(st.integers(0, 2), min_size=2, max_size=20),
                label="spec_pool_picks",
            )
            for tag in specs:
                sched.admit(
                    {"kind": "workload", "workload": f"dup{tag}"},
                    now=clock(),
                    tenant="default",
                )
            running: list = []
            while True:
                claim = (
                    data.draw(st.booleans(), label="claim")
                    if running
                    else True
                )
                if claim:
                    job = sched.claim_next(clock.advance(1.0), W)
                    if job is not None:
                        running.append(job)
                    elif not running:
                        break
                else:
                    leader = running.pop(0)
                    sched.complete(
                        leader,
                        {"value": leader.fingerprint[:8]},
                        clock.advance(1.0),
                        W,
                    )
                fps = [
                    j.fingerprint
                    for j in sched.store.jobs(JobState.RUNNING)
                ]
                assert len(fps) == len(set(fps)), (
                    "two running jobs share a fingerprint"
                )
            # Every submission finished, and every duplicate got exactly its
            # leader's (byte-identical) result.
            by_fp: dict[str, set] = {}
            for job in sched.store.jobs():
                assert job.state is JobState.DONE
                by_fp.setdefault(job.fingerprint, set()).add(
                    json.dumps(job.result, sort_keys=True)
                )
            for results in by_fp.values():
                assert len(results) == 1

    def test_coalesced_hit_rate_reported(self, tmp_path):
        clock = FakeClock()
        with make_sched(tmp_path, max_queued=10, max_running=1) as sched:
            same = {"kind": "workload", "workload": "same"}
            ids = [
                sched.admit(dict(same), now=clock(), tenant=f"t{i}").job_id
                for i in range(3)
            ]
            leader = sched.claim_next(clock.advance(1.0), W)
            sched.complete(leader, {"v": 1}, clock(), W)
            assert sorted(sched.last_coalesced) == sorted(
                set(ids) - {leader.job_id}
            )
            assert sched.claim_next(clock.advance(1.0), W) is None


# ----------------------------------------------------------------------
# Shared store: two instances on one root (= two fleet processes)
# ----------------------------------------------------------------------
class TestSharedStore:
    def test_cross_instance_visibility_and_identity(self, tmp_path):
        with closing(JobStore(tmp_path, fsync=False)) as a, closing(
            JobStore(tmp_path, fsync=False)
        ) as b:
            job = a.submit({"kind": "workload", "workload": "x"}, now=1.0)
            # B sees A's submit without being told.
            mirror = b.get(job.job_id)
            assert mirror.state is JobState.QUEUED
            # B claims it; A observes the transition on its *same* object.
            b.transition(
                job.job_id, JobState.RUNNING, attempts=1, now=2.0,
                worker="b", lease_until=60.0,
            )
            seen = a.get(job.job_id)
            assert seen is job, "absorption must preserve object identity"
            assert seen.state is JobState.RUNNING
            assert seen.worker == "b"

    def test_epoch_reload_after_sibling_compaction(self, tmp_path):
        with closing(JobStore(tmp_path, fsync=False)) as a, closing(
            JobStore(tmp_path, fsync=False)
        ) as b:
            for i in range(5):
                a.submit({"kind": "workload", "workload": f"x{i}"}, now=1.0)
            assert len(b.jobs()) == 5
            a.compact()  # truncates the WAL, bumps the epoch
            # B's byte offset points past the truncated WAL end; the
            # epoch bump forces it to reload from the snapshot instead.
            after = b.submit(
                {"kind": "workload", "workload": "post"}, now=2.0
            )
            assert len(b.jobs()) == 6
            assert len(a.jobs()) == 6
            assert a.get(after.job_id).spec["workload"] == "post"
            # Sequence numbers survived the reload: no id collisions.
            assert len({j.job_id for j in a.jobs()}) == 6

    def test_torn_tail_is_repaired_and_skipped(self, tmp_path):
        with closing(JobStore(tmp_path, fsync=False)) as a:
            a.submit({"kind": "workload", "workload": "ok"}, now=1.0)
        with open(tmp_path / "wal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"op": "submit", "job": {"job_id": "torn')
        with closing(JobStore(tmp_path, fsync=False)) as b:
            assert [j.spec["workload"] for j in b.jobs()] == ["ok"]
            # The repair newline keeps the next append parseable.
            b.submit({"kind": "workload", "workload": "next"}, now=2.0)
        with closing(JobStore(tmp_path, fsync=False)) as c:
            assert [j.spec["workload"] for j in c.jobs()] == ["ok", "next"]

    def test_durable_cancel_request_crosses_instances(self, tmp_path):
        with closing(JobStore(tmp_path, fsync=False)) as a, closing(
            JobStore(tmp_path, fsync=False)
        ) as b:
            job = a.submit({"kind": "workload", "workload": "x"}, now=1.0)
            assert a.request_cancel(job.job_id) is True
            assert b.get(job.job_id).cancel_requested is True


# ----------------------------------------------------------------------
# Coalescing over HTTP: M submitters, one execution, one cancels
# ----------------------------------------------------------------------
SPEC = {
    "kind": "workload",
    "workload": "stencil1d",
    "paradigm": "inf-s",
    "scale": 0.05,
    "system": "small-test",
}


class TestCoalesceOverHTTP:
    @pytest.fixture()
    def stack(self, tmp_path):
        service = ReproService(
            root=str(tmp_path / "serve"),
            config=SchedulerConfig(max_queued=64, max_running=2),
            jobs=1,
            fsync=False,
        )
        httpd = make_server(service, port=0)
        thread = threading.Thread(
            target=httpd.serve_forever, daemon=True
        )
        thread.start()
        host, port = httpd.server_address[:2]
        client = ServeClient(f"http://{host}:{port}", timeout=10.0)
        # The worker thread is *not* started: tests drive execution
        # deterministically via service.worker.run_once().
        yield service, client
        httpd.shutdown()
        httpd.server_close()
        service.shutdown()

    def test_m_submitters_one_execution_identical_results(self, stack):
        service, client = stack
        ids = [client.submit(dict(SPEC)) for _ in range(5)]
        assert len(set(ids)) == 5
        cancelled = ids[2]
        assert client.cancel(cancelled)["state"] == "cancelled"

        ran = 0
        while service.worker.run_once():
            ran += 1
        assert ran == 1, "duplicates must not execute again"

        blobs = set()
        for jid in ids:
            if jid == cancelled:
                assert client.status(jid)["state"] == "cancelled"
                with pytest.raises(ServeClientError) as err:
                    client.result(jid)
                assert err.value.status == 409
                continue
            status = client.status(jid)
            assert status["state"] == "done"
            blobs.add(
                json.dumps(client.result(jid), sort_keys=True)
            )
        assert len(blobs) == 1, "submitters saw different results"

        leader = ids[0]
        for jid in ids[1:]:
            if jid == cancelled:
                continue
            assert client.status(jid)["coalesced_with"] == leader
        assert client.status(leader)["coalesced_with"] is None

        stats = service.fleet_stats()
        assert stats["executed"] == 1
        assert stats["coalesce_hits"] == 3
        assert stats["coalesce_hit_rate"] == pytest.approx(0.75)
        metrics = client.metrics()
        assert "serve.jobs.executed" in metrics
        assert "serve.coalesce.hits" in metrics

    def test_distinct_specs_do_not_coalesce(self, stack):
        service, client = stack
        a = client.submit(dict(SPEC))
        other = dict(SPEC, scale=0.06)
        b = client.submit(other)
        while service.worker.run_once():
            pass
        assert client.status(a)["state"] == "done"
        assert client.status(b)["state"] == "done"
        assert client.status(a)["coalesced_with"] is None
        assert client.status(b)["coalesced_with"] is None
        assert service.fleet_stats()["executed"] == 2


# ----------------------------------------------------------------------
# Real worker subprocesses over one shared store
# ----------------------------------------------------------------------
class TestFleetProcesses:
    def test_two_workers_drain_dupes_and_exit_cleanly(self, tmp_path):
        service = ReproService(
            root=str(tmp_path / "serve"),
            config=SchedulerConfig(
                max_queued=64, max_running=4, lease_duration=60.0
            ),
            jobs=1,
            fsync=False,
            workers=2,
        )
        # Submit before starting the fleet so the duplicate set is
        # complete when the leader is claimed (deterministic coalesce).
        ids = [service.submit(dict(SPEC)).job_id for _ in range(3)]
        distinct = service.submit(dict(SPEC, scale=0.045)).job_id
        service.start()
        try:
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                counts = service.store.counts()
                if counts["done"] == 4:
                    break
                time.sleep(0.2)
            else:
                pytest.fail(f"fleet never drained: {counts}")
            stats = service.fleet_stats()
            assert stats["executed"] == 2
            assert stats["coalesce_hits"] == 2
            blobs = {
                json.dumps(service.store.get(j).result, sort_keys=True)
                for j in ids
            }
            assert len(blobs) == 1
            assert service.store.get(distinct).result is not None
            assert service.health()["workers"]["alive"] == 2
        finally:
            codes = service.fleet.stop()
            service.store.compact()
            service.store.close()
        assert codes == [0, 0], f"workers exited dirty: {codes}"

    def test_idle_worker_starts_submitted_job_at_once(
        self, tmp_path, monkeypatch
    ):
        """The submit rings the worker's doorbell: an idle worker starts
        the job within milliseconds, not on its next recheck.  Its
        outcome ring answers the blocked status read just as fast."""
        import statistics

        from repro.serve import service as service_mod

        monkeypatch.setattr(service_mod, "RECHECK_S", 30.0)
        service = ReproService(
            root=str(tmp_path / "serve"),
            config=SchedulerConfig(lease_duration=60.0),
            jobs=1,
            fsync=False,
            workers=1,
        )
        service.start()
        try:
            gaps = []
            for i in range(11):
                spec = dict(SPEC, scale=0.04 + 0.001 * i)
                job_id = service.submit(spec).job_id
                status = service.status(job_id, wait=60.0)
                assert status["state"] == "done", status
                assert time.time() - status["finished_at"] < 1.0
                if i:  # the first job also waited for the worker to boot
                    gaps.append(status["started_at"] - status["submitted_at"])
                # Let the worker go idle, at a different phase each time.
                time.sleep(0.06 + 0.013 * i)
        finally:
            service.shutdown()
        assert statistics.median(gaps) < 0.012, gaps

    def test_killed_worker_does_not_fail_submit(self, tmp_path):
        """Ringing a dead worker's doorbell hits a broken pipe, which a
        submit ignores."""
        service = ReproService(
            root=str(tmp_path / "serve"), fsync=False, workers=1
        )
        service.start()
        try:
            assert service.fleet.kill_one(0) is not None
            ids = [
                service.submit(dict(SPEC, scale=0.04 + 0.001 * i)).job_id
                for i in range(3)
            ]
            assert [service.status(j)["state"] for j in ids] == ["queued"] * 3
        finally:
            service.shutdown()
