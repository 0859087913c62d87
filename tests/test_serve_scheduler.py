"""Scheduler policy: ordering, admission, backoff (property-based)."""

from __future__ import annotations

from contextlib import closing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AdmissionError
from repro.serve.jobs import JobState
from repro.serve.scheduler import Scheduler, SchedulerConfig
from repro.serve.store import JobStore

SPEC = {"kind": "campaign", "figure": "fig14", "scale": 0.05}
W = "w1"  # the claiming worker's id


@pytest.fixture
def sched(tmp_path):
    store = JobStore(tmp_path / "serve", fsync=False)
    yield Scheduler(store, SchedulerConfig(max_queued=100, max_running=1))
    store.close()


class TestOrdering:
    def test_priority_beats_fifo(self, sched):
        low = sched.admit(SPEC, priority=0, now=0.0)
        high = sched.admit(SPEC, priority=5, now=1.0)
        assert sched.next_job(2.0).job_id == high.job_id
        del low

    def test_fifo_within_priority(self, sched):
        first = sched.admit(SPEC, priority=1, now=0.0)
        sched.admit(SPEC, priority=1, now=1.0)
        assert sched.next_job(2.0).job_id == first.job_id

    def test_backoff_deadline_hides_job(self, sched):
        job = sched.admit(SPEC, now=0.0)
        sched.start(job, 0.0, W)
        sched.fail(job, "flaky", now=0.0, transient=True, worker=W)
        assert job.state is JobState.QUEUED
        assert sched.next_job(0.0) is None  # still backing off
        assert sched.next_job(job.not_before + 0.01).job_id == job.job_id
        assert sched.next_wakeup(0.0) == job.not_before

    def test_max_running_gates_dispatch(self, sched):
        a = sched.admit(SPEC, now=0.0)
        sched.admit(SPEC, now=0.0)
        sched.start(a, 0.0, W)
        assert sched.next_job(1.0) is None  # max_running=1

    @given(
        priorities=st.lists(
            st.integers(min_value=-3, max_value=3), min_size=1, max_size=12
        )
    )
    def test_order_is_priority_desc_then_seq_asc(self, tmp_path_factory, priorities):
        with closing(
            JobStore(tmp_path_factory.mktemp("sched"), fsync=False)
        ) as store:
            sched = Scheduler(store, SchedulerConfig(max_queued=100))
            for prio in priorities:
                sched.admit(SPEC, priority=prio, now=0.0)
            order = sched.schedulable(now=1.0)
        keys = [(-j.priority, j.seq) for j in order]
        assert keys == sorted(keys)
        assert len(order) == len(priorities)


class TestAdmission:
    def test_queue_full_rejects_with_structure(self, tmp_path):
        with closing(JobStore(tmp_path / "serve", fsync=False)) as store:
            sched = Scheduler(store, SchedulerConfig(max_queued=2))
            sched.admit(SPEC)
            sched.admit(SPEC)
            with pytest.raises(AdmissionError) as exc:
                sched.admit(SPEC)
            assert exc.value.reason == "queue-full"
            assert exc.value.limit == 2
            assert exc.value.current == 2
            assert len(store.jobs()) == 2  # the rejected job never persisted

    def test_terminal_jobs_free_queue_slots(self, tmp_path):
        with closing(JobStore(tmp_path / "serve", fsync=False)) as store:
            sched = Scheduler(store, SchedulerConfig(max_queued=1))
            job = sched.admit(SPEC)
            sched.start(job, 0.0, W)
            sched.complete(job, {"ok": True}, 1.0, W)
            sched.admit(SPEC)  # must not raise: the done job is not queued


class TestBackoff:
    def test_same_seed_same_schedule(self, tmp_path):
        with closing(JobStore(tmp_path / "a", fsync=False)) as a, closing(
            JobStore(tmp_path / "b", fsync=False)
        ) as b:
            s1 = Scheduler(a, SchedulerConfig(seed=7))
            s2 = Scheduler(b, SchedulerConfig(seed=7))
            assert [s1.backoff_delay(i) for i in range(1, 6)] == [
                s2.backoff_delay(i) for i in range(1, 6)
            ]

    @given(attempt=st.integers(min_value=1, max_value=20))
    def test_delay_bounded(self, tmp_path_factory, attempt):
        cfg = SchedulerConfig(
            backoff_base=0.25, backoff_factor=2.0,
            backoff_max=30.0, backoff_jitter=0.5, seed=3,
        )
        with closing(
            JobStore(tmp_path_factory.mktemp("b"), fsync=False)
        ) as store:
            delay = Scheduler(store, cfg).backoff_delay(attempt)
        raw = min(0.25 * 2.0 ** (attempt - 1), 30.0)
        assert raw <= delay <= raw * 1.5

    def test_raw_schedule_is_exponential_then_capped(self, tmp_path):
        cfg = SchedulerConfig(
            backoff_base=1.0, backoff_factor=2.0,
            backoff_max=8.0, backoff_jitter=0.0,
        )
        with closing(JobStore(tmp_path / "serve", fsync=False)) as store:
            sched = Scheduler(store, cfg)
            assert [sched.backoff_delay(i) for i in range(1, 7)] == [
                1.0, 2.0, 4.0, 8.0, 8.0, 8.0
            ]

    def test_exhausted_attempts_become_terminal(self, tmp_path):
        with closing(JobStore(tmp_path / "serve", fsync=False)) as store:
            sched = Scheduler(store, SchedulerConfig(max_attempts=2))
            job = sched.admit(SPEC)
            sched.start(job, 0.0, W)
            sched.fail(job, "flaky-1", now=0.0, transient=True, worker=W)
            assert job.state is JobState.QUEUED
            sched.start(job, 10.0, W)
            sched.fail(job, "flaky-2", now=10.0, transient=True, worker=W)
            assert job.state is JobState.FAILED  # attempts == max_attempts
            assert "flaky-2" in job.error

    def test_nontransient_fails_immediately(self, tmp_path):
        with closing(JobStore(tmp_path / "serve", fsync=False)) as store:
            sched = Scheduler(store, SchedulerConfig(max_attempts=5))
            job = sched.admit(SPEC)
            sched.start(job, 0.0, W)
            sched.fail(job, "bad kernel", now=0.0, transient=False, worker=W)
            assert job.state is JobState.FAILED

    def test_preempt_does_not_consume_attempt(self, tmp_path):
        with closing(JobStore(tmp_path / "serve", fsync=False)) as store:
            sched = Scheduler(store, SchedulerConfig())
            job = sched.admit(SPEC)
            sched.start(job, 0.0, W)
            assert job.attempts == 1
            sched.preempt(job, 1.0, W)
            assert job.state is JobState.QUEUED
            assert job.attempts == 0
