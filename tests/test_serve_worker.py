"""Worker loop: checkpoint/resume, retries, cancellation, crash-kill.

The acceptance-critical test is ``TestCrashResume``: a campaign
interrupted after k points (graceful stop, and a real ``SIGKILL`` of a
worker process) resumes from its durable checkpoints and produces a
table byte-identical to an uninterrupted serial run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import PointExecutionError
from repro.serve import jobs as jobs_mod
from repro.serve import worker as worker_mod
from repro.serve.jobs import JobState
from repro.serve.scheduler import Scheduler, SchedulerConfig
from repro.serve.store import JobStore
from repro.serve.worker import CheckpointingExecutor, ServeWorker

SPEC = {"kind": "campaign", "figure": "fig14", "scale": 0.05}


class FakeClock:
    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def __call__(self) -> float:
        return self.value

    def advance(self, dt: float) -> None:
        self.value += dt


def make_stack(tmp_path, **cfg):
    store = JobStore(tmp_path / "serve", fsync=False)
    clock = FakeClock()
    scheduler = Scheduler(store, SchedulerConfig(**cfg))
    worker = ServeWorker(store, scheduler, jobs=1, clock=clock)
    return store, scheduler, worker, clock


class TestCheckpointingExecutor:
    def test_checkpoints_every_point_and_resumes(self, tmp_path):
        store, sched, worker, clock = make_stack(tmp_path)
        job = sched.admit(SPEC)
        calls: list[int] = []

        def fn(spec):
            calls.append(spec)
            return spec * 10

        ex1 = CheckpointingExecutor(store=store, job=job)
        assert ex1.map(fn, range(4), section="s") == [0, 10, 20, 30]
        assert len(job.checkpoints) == 4 and calls == [0, 1, 2, 3]

        # A second executor over the same job recomputes nothing.
        calls.clear()
        ex2 = CheckpointingExecutor(store=store, job=job)
        assert ex2.map(fn, range(4), section="s") == [0, 10, 20, 30]
        assert calls == [] and ex2.points_resumed == 4
        store.close()

    def test_stop_event_interrupts_between_points(self, tmp_path):
        store, sched, worker, clock = make_stack(tmp_path)
        job = sched.admit(SPEC)
        stop = threading.Event()

        def fn(spec):
            if spec == 2:
                stop.set()  # takes effect before the *next* point
            return spec

        ex = CheckpointingExecutor(store=store, job=job, stop_event=stop)
        with pytest.raises(worker_mod.WorkerStopped):
            ex.map(fn, range(10), section="s")
        assert len(job.checkpoints) == 3  # points 0..2 durable
        store.close()

    def test_deadline_raises_timeout(self, tmp_path):
        store, sched, worker, clock = make_stack(tmp_path)
        job = sched.admit(SPEC)

        def fn(spec):
            clock.advance(10.0)
            return spec

        ex = CheckpointingExecutor(
            store=store, job=job, deadline=15.0, clock=clock
        )
        from repro.errors import JobTimeout

        with pytest.raises(JobTimeout):
            ex.map(fn, range(5), section="s")
        assert len(job.checkpoints) == 2  # 0 and 1 finished before 15.0
        store.close()


class TestRunJob:
    def test_transient_failure_retries_then_succeeds(
        self, tmp_path, monkeypatch
    ):
        store, sched, worker, clock = make_stack(
            tmp_path, max_attempts=3, backoff_base=1.0, backoff_jitter=0.0
        )
        job = sched.admit(SPEC)
        attempts: list[int] = []

        def flaky(spec, executor):
            attempts.append(1)
            if len(attempts) < 3:
                raise PointExecutionError(
                    "worker died", section="fig14", index=1, spec="wl"
                )
            return {"ok": True}

        monkeypatch.setattr(worker_mod, "run_job_spec", flaky)
        assert worker.run_once()
        assert job.state is JobState.QUEUED and job.attempts == 1
        assert job.not_before > clock()

        assert not worker.run_once()  # backoff still pending
        clock.value = job.not_before + 0.01
        assert worker.run_once()
        assert job.state is JobState.QUEUED and job.attempts == 2

        clock.value = job.not_before + 0.01
        assert worker.run_once()
        assert job.state is JobState.DONE
        assert store.get(job.job_id).result == {"ok": True}
        store.close()

    def test_exhausted_retries_mark_failed_without_dropping_others(
        self, tmp_path, monkeypatch
    ):
        store, sched, worker, clock = make_stack(
            tmp_path, max_attempts=2, backoff_base=0.5, backoff_jitter=0.0
        )
        bad = sched.admit({**SPEC, "figure": "fig13"})
        good = sched.admit(SPEC)

        def spec_runner(spec, executor):
            if spec["figure"] == "fig13":
                raise PointExecutionError(
                    "flaky point", section="fig13", index=0, spec="wl"
                )
            return {"ok": True}

        monkeypatch.setattr(worker_mod, "run_job_spec", spec_runner)
        for _ in range(8):
            if not worker.run_once():
                wake = sched.next_wakeup(clock())
                if wake is None:
                    break
                clock.value = wake + 0.01
        assert bad.state is JobState.FAILED
        assert "flaky point" in bad.error
        assert good.state is JobState.DONE  # the queue kept draining
        store.close()

    def test_nontransient_error_fails_immediately(
        self, tmp_path, monkeypatch
    ):
        store, sched, worker, clock = make_stack(tmp_path, max_attempts=5)
        job = sched.admit(SPEC)

        def broken(spec, executor):
            from repro.errors import LoweringError

            raise LoweringError("deterministic model bug")

        monkeypatch.setattr(worker_mod, "run_job_spec", broken)
        worker.run_once()
        assert job.state is JobState.FAILED and job.attempts == 1
        store.close()

    def test_cancel_running_job_keeps_checkpoints(
        self, tmp_path, monkeypatch
    ):
        store, sched, worker, clock = make_stack(tmp_path)
        job = sched.admit(SPEC)

        def cancelling(spec, executor):
            def fn(i):
                if i == 1:
                    store.request_cancel(job.job_id)  # the durable flag
                return i

            return executor.map(fn, range(6), section="s")

        monkeypatch.setattr(worker_mod, "run_job_spec", cancelling)
        worker.run_once()
        assert job.state is JobState.CANCELLED
        assert len(job.checkpoints) == 2  # 0 and 1 persisted
        store.close()


class TestCrashResume:
    def _uninterrupted_table(self):
        from repro.sim.campaign import fig14_cycles, format_table

        headers, rows = fig14_cycles(scale=SPEC["scale"])
        return format_table(
            list(headers), [list(r) for r in rows]
        )

    def test_graceful_stop_then_resume_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        store, sched, worker, clock = make_stack(tmp_path)
        job = sched.admit(SPEC)

        # Trip the stop event after the third durable checkpoint, as a
        # SIGTERM between points would.
        real_checkpoint = store.checkpoint

        def tripping(job_id, key, payload):
            real_checkpoint(job_id, key, payload)
            if len(store.get(job_id).checkpoints) == 3:
                worker.stop_event.set()

        monkeypatch.setattr(store, "checkpoint", tripping)
        worker.run_once()
        assert job.state is JobState.QUEUED  # preempted, not failed
        assert job.attempts == 0
        assert len(job.checkpoints) == 3
        monkeypatch.setattr(store, "checkpoint", real_checkpoint)

        # "Restart": fresh worker over the same store resumes the rest.
        worker2 = ServeWorker(store, sched, jobs=1, clock=clock)
        worker2.run_once()
        assert job.state is JobState.DONE
        assert job.result["table"] == self._uninterrupted_table()
        store.close()

    def test_sigkill_mid_campaign_then_resume_is_byte_identical(
        self, tmp_path
    ):
        """A worker thread's process is SIGKILLed mid-campaign; a
        restart on the same store, once the lease has lapsed, resumes
        from the durable checkpoints, and the table is byte-identical
        to an uninterrupted run."""
        root = tmp_path / "serve"
        config = SchedulerConfig(lease_duration=3.0, lease_renew_margin=1.5)
        parent = JobStore(root, fsync=True)
        scheduler = Scheduler(parent, config)
        job = scheduler.admit(SPEC)
        job_id = job.job_id
        parent.close()

        child_src = (
            "import sys\n"
            "from repro.serve.scheduler import Scheduler, SchedulerConfig\n"
            "from repro.serve.store import JobStore\n"
            "from repro.serve.worker import ServeWorker\n"
            "store = JobStore(sys.argv[1], fsync=True)\n"
            "config = SchedulerConfig.from_json(sys.argv[2])\n"
            "worker = ServeWorker(store, Scheduler(store, config))\n"
            "worker.run_forever()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", child_src, str(root), config.to_json()],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            # Wait for >= 2 durable checkpoints, then kill -9 the worker.
            deadline = time.monotonic() + 120.0
            wal = root / "wal.jsonl"
            while time.monotonic() < deadline:
                checkpoints = 0
                if wal.exists():
                    checkpoints = sum(
                        1
                        for line in wal.read_text().splitlines()
                        if '"op": "checkpoint"' in line
                    )
                if checkpoints >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail("worker subprocess exited prematurely")
                time.sleep(0.01)
            else:
                pytest.fail("no checkpoints appeared within the deadline")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # Restart: loading leaves the job running under the dead
        # worker's lease, checkpoints intact.
        store = JobStore(root, fsync=False)
        seen = store.get(job_id)
        assert seen.state is JobState.RUNNING
        resumed_from = len(seen.checkpoints)
        assert resumed_from >= 2

        # Once the lease lapses, the first claim reclaims and resumes
        # it, and the table matches an uninterrupted run.
        time.sleep(max(0.0, seen.lease_until - time.time()) + 0.1)
        worker = ServeWorker(store, Scheduler(store, config))
        assert worker.run_once()
        finished = store.get(job_id)
        assert finished.state is JobState.DONE
        assert finished.attempts == 2  # the crashed attempt is not refunded
        assert finished.result["table"] == self._uninterrupted_table()

        # And the resume actually resumed: a fresh executor would have
        # found `resumed_from` checkpoints already present.
        assert len(finished.checkpoints) == 13  # fig14's 13 variants
        store.close()

    def test_sigkill_mid_lease_then_sibling_reclaims_byte_identical(
        self, tmp_path
    ):
        """Fleet-mode crash recovery: a worker is SIGKILLed mid-lease;
        the job stays RUNNING (loading requeues nothing) until the lease
        lapses, then a sibling worker reclaims it, resumes from the
        durable checkpoints, and the finished table is byte-identical
        to an uninterrupted run."""
        root = tmp_path / "serve"
        config = SchedulerConfig(lease_duration=3.0, lease_renew_margin=1.5)
        parent = JobStore(root, fsync=False)
        scheduler = Scheduler(parent, config)
        job_id = scheduler.admit(SPEC).job_id

        child_src = (
            "import sys\n"
            "from repro.serve.worker import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-c", child_src,
                "--dir", str(root),
                "--worker-id", "wA",
                "--config-json", config.to_json(),
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            deadline = time.monotonic() + 120.0
            wal = root / "wal.jsonl"
            while time.monotonic() < deadline:
                checkpoints = sum(
                    1
                    for line in wal.read_text().splitlines()
                    if '"op": "checkpoint"' in line
                )
                if checkpoints >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail("worker subprocess exited prematurely")
                time.sleep(0.01)
            else:
                pytest.fail("no checkpoints appeared within the deadline")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        # Opening the store must NOT requeue the running job — only
        # the lease knows whether its owner is really dead.
        observer = JobStore(root, fsync=False)
        seen = observer.get(job_id)
        assert seen.state is JobState.RUNNING
        assert seen.worker == "wA"
        assert seen.lease_until > 0.0
        resumed_from = len(seen.checkpoints)
        assert resumed_from >= 2
        observer.close()

        # A sibling must respect the still-live lease...
        sibling = Scheduler(parent, config)
        worker_b = ServeWorker(parent, sibling, worker_id="wB")
        if time.time() < seen.lease_until:
            assert sibling.claim_next(time.time(), worker="wB") is None

        # ...and reclaim + resume once it lapses.
        reclaim_deadline = time.monotonic() + 30.0
        ran = False
        while time.monotonic() < reclaim_deadline:
            if worker_b.run_once():
                ran = True
                break
            time.sleep(0.2)
        assert ran, "sibling never reclaimed the expired lease"

        finished = parent.get(job_id)
        assert finished.state is JobState.DONE
        assert finished.attempts == 2  # the crashed attempt is not refunded
        assert finished.result["table"] == self._uninterrupted_table()
        assert len(finished.checkpoints) == 13  # fig14's 13 variants
        wal_text = (root / "wal.jsonl").read_text()
        assert "lease expired (worker wA" in wal_text
        parent.close()


CHEAP_SPEC = {"kind": "workload", "workload": "stencil1d",
              "paradigm": "inf-s", "scale": 0.05, "system": "small-test"}
#: fails at parse time, so a worker turns it over in a millisecond
BAD_KERNEL_SPEC = {
    "kind": "kernel",
    "name": "bad",
    "source": "this is not a kernel\n",
    "arrays": {"X": ["N"]},
    "params": {"N": 64},
    "paradigm": "inf-s",
}


def _wait_terminal(store, job_id, timeout):
    deadline = time.monotonic() + timeout
    while not store.get(job_id).state.terminal:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class TestCancelRunningJob:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_service_cancel_stops_running_job(self, tmp_path, workers):
        """``ReproService.cancel`` on a running job, whose worker runs on
        a thread (0) or in a fleet process (1), sets the durable flag:
        the job stops at its next point and ends cancelled with its
        checkpoints, and the job queued behind it runs."""
        from repro.serve.service import ReproService

        service = ReproService(
            root=tmp_path / "serve", fsync=False, workers=workers
        )
        running = service.submit(SPEC).job_id
        behind = service.submit(CHEAP_SPEC).job_id
        service.start()
        try:
            deadline = time.monotonic() + 120.0
            while not service.store.get(running).checkpoints:
                assert time.monotonic() < deadline, "no checkpoint appeared"
                time.sleep(0.005)
            assert service.cancel(running)["state"] == "cancelling"
            status = service.status(running, wait=30.0)
            assert status["state"] == "cancelled", status
            kept = service.store.get(running).checkpoints
            assert 1 <= len(kept) < 13  # fig14 stopped part-way, kept
            assert service.status(behind, wait=30.0)["state"] == "done"
        finally:
            service.shutdown()


class TestWakeUps:
    """An idle worker sleeps on its doorbell, not on a poll interval."""

    def test_submit_wakes_idle_in_process_worker(self, tmp_path, monkeypatch):
        from repro.serve.service import ReproService

        # Without the doorbell the job would wait for this recheck.
        monkeypatch.setattr(worker_mod, "RECHECK_S", 30.0)
        service = ReproService(root=tmp_path / "serve", fsync=False)
        service.start()
        try:
            time.sleep(0.2)  # the worker has found nothing and waits
            job_id = service.submit(CHEAP_SPEC).job_id
            assert _wait_terminal(service.store, job_id, timeout=5.0)
            assert service.store.get(job_id).state is JobState.DONE
        finally:
            t0 = time.monotonic()
            service.shutdown()
        assert time.monotonic() - t0 < 5.0, "stop did not wake the worker"

    def test_concurrent_submitters_with_running_worker(self, tmp_path):
        """Admission and claims take one lock, in one order: four
        threads submitting while the in-process worker claims right
        after every submit all finish, and shutdown returns."""
        from repro.serve.service import ReproService

        service = ReproService(
            root=tmp_path / "serve",
            config=SchedulerConfig(max_queued=1000),
            fsync=False,
        )
        service.start()
        errors: list[BaseException] = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per submit

        def submit_many():
            try:
                for _ in range(50):
                    service.submit(dict(BAD_KERNEL_SPEC), max_attempts=1)
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_many, daemon=True)
            for _ in range(4)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads), "submitters hung"
        assert not errors, errors
        assert len(service.store.jobs()) == 200
        stopper = threading.Thread(target=service.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=60)
        assert not stopper.is_alive(), "shutdown hung"

    def test_sigterm_stops_idle_worker_process(self, tmp_path):
        """SIGTERM rings the doorbell from the handler: an idle worker
        process exits at once, although its recheck is 30 s."""
        root = tmp_path / "serve"
        store = JobStore(root, fsync=False)
        job_id = Scheduler(store, SchedulerConfig()).admit(CHEAP_SPEC).job_id
        child_src = (
            "import sys\n"
            "from repro.serve import worker\n"
            "worker.RECHECK_S = 30.0\n"
            "sys.exit(worker.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", child_src, "--dir", str(root),
             "--no-fsync"],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            # The worker claims the job at start-up, then goes idle.
            assert _wait_terminal(store, job_id, timeout=60.0)
            time.sleep(0.2)
            t0 = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            assert time.monotonic() - t0 < 1.0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            store.close()
