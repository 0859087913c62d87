"""The serve worker: drains the queue onto the simulation stack.

Three pieces:

* :class:`CheckpointingExecutor` — a :class:`~repro.exec.pool.
  PointExecutor` whose ``map`` (the interface every campaign generator
  already speaks) first satisfies points from the job's durable
  checkpoints, then simulates only the missing ones, persisting each
  completed point to the store's WAL before moving on.  Because results
  are reassembled in spec order regardless of which attempt produced
  them, a resumed campaign emits tables byte-identical to an
  uninterrupted run.  Between points it checks the controls: the
  worker's stop flag (graceful shutdown); the lease guard, which renews
  the lease, catches up with the store, and aborts the attempt when
  another worker has re-claimed the job; the job's durable
  ``cancel_requested`` flag; and the per-attempt deadline.

* :class:`ServeWorker` — the loop that claims the next job from the
  scheduler under a lease, whether it runs on a thread of the server
  (``repro serve --workers 0``) or in a fleet worker process, runs it,
  and maps outcomes onto the state machine: success
  -> ``done`` (fanning the result out to coalesced duplicates);
  transient failures (:class:`~repro.errors.PointExecutionError`,
  timeouts) -> retry with backoff until ``max_attempts`` then
  ``failed``; cancellation -> ``cancelled``; shutdown preemption ->
  back to ``queued`` without consuming an attempt; a lost lease ->
  abandon silently (the new owner's transitions are authoritative).

* :func:`main` — the fleet entry point: ``python -m repro.serve.worker
  --dir ROOT --worker-id wN`` opens the store and drains it until
  SIGTERM/SIGINT, which stop gracefully (finish the in-flight
  point, checkpoint, preempt, exit 0).

An idle worker does not poll: it waits on its :class:`~repro.serve.
doorbell.Doorbell`, which the service rings after every admitted
submit, for at most :data:`RECHECK_S` or until the next retry deadline.
After every job outcome the worker rings its *outcomes* doorbell, which
wakes the service's blocked ``GET /jobs/<id>?wait=S`` readers.
"""

from __future__ import annotations

import os
import threading
import time
import traceback

from repro.errors import (
    ExecutionCancelled,
    JobCancelled,
    JobTimeout,
    LeaseLostError,
    PointExecutionError,
    ReproError,
)
from repro.exec.pool import PointExecutor
from repro.serve.doorbell import RECHECK_S, Doorbell
from repro.serve.jobs import (
    Job,
    checkpoint_key,
    decode_point,
    encode_point,
    run_job_spec,
)
from repro.serve.scheduler import Scheduler
from repro.serve.store import JobStore


class WorkerStopped(Exception):
    """Internal control flow: the stop event fired between points."""


class StopFlag:
    """The worker's stop request.  Unlike ``threading.Event.set``,
    :meth:`set` takes no lock, so a signal handler may call it; it also
    rings the doorbell, so an idle worker stops at once."""

    def __init__(self, doorbell: Doorbell) -> None:
        self._set = False
        self._doorbell = doorbell

    def set(self) -> None:
        self._set = True
        self._doorbell.ring()

    def is_set(self) -> bool:
        return self._set


class CheckpointingExecutor(PointExecutor):
    """A point executor that makes campaign progress durable."""

    def __init__(
        self,
        store: JobStore,
        job: Job,
        jobs: int = 1,
        stop_event: StopFlag | threading.Event | None = None,
        deadline: float | None = None,
        clock=time.time,
        registry=None,
        lease_guard=None,
    ) -> None:
        super().__init__(jobs=jobs)
        self.store = store
        self.job = job
        self.stop_event = stop_event
        self.deadline = deadline
        self.clock = clock
        self.registry = registry
        #: callable run between points: renews the lease and catches
        #: the store up, or raises LeaseLostError
        self.lease_guard = lease_guard
        self.points_resumed = 0
        self.points_computed = 0

    def _cancelled(self) -> bool:
        # The store updates this Job in place whenever it catches up.
        return self.job.cancel_requested

    # ------------------------------------------------------------------
    def map(self, fn, specs, section: str | None = None) -> list:
        specs = list(specs)
        label = section or getattr(fn, "__name__", "points")
        out: list = [None] * len(specs)
        missing: list[int] = []
        for i in range(len(specs)):
            payload = self.job.checkpoints.get(checkpoint_key(label, i))
            if payload is None:
                missing.append(i)
            else:
                out[i] = decode_point(payload)
        self.points_resumed += len(specs) - len(missing)
        if self.registry is not None and len(specs) != len(missing):
            self.registry.add(
                "serve.points.resumed",
                float(len(specs) - len(missing)),
                section=label,
            )

        # Missing points run in chunks of the configured parallelism;
        # each finished chunk is checkpointed before the next starts, so
        # with jobs=1 every single point is durable the moment it ends.
        chunk = max(1, self.jobs)
        for lo in range(0, len(missing), chunk):
            self._check_controls(label)
            batch = missing[lo : lo + chunk]
            try:
                results = super().map(
                    fn, [specs[i] for i in batch], section=label
                )
            except (KeyboardInterrupt, ExecutionCancelled):
                # The pool recorded the spec-order prefix that did
                # finish; persist it so the next attempt skips it.
                for index, result in zip(batch, self.partial_results or []):
                    self._save(label, index, result)
                raise
            for index, result in zip(batch, results):
                self._save(label, index, result)
                out[index] = result
        return out

    # ------------------------------------------------------------------
    def _check_controls(self, label: str) -> None:
        if self.stop_event is not None and self.stop_event.is_set():
            raise WorkerStopped(label)
        if self.lease_guard is not None:
            self.lease_guard()
        if self._cancelled():
            raise JobCancelled(
                f"job {self.job.job_id} cancelled during {label!r}"
            )
        if self.deadline is not None and self.clock() > self.deadline:
            raise JobTimeout(
                f"job {self.job.job_id} exceeded its time budget "
                f"during {label!r}"
            )

    def _save(self, label: str, index: int, result) -> None:
        self.store.checkpoint(
            self.job.job_id, checkpoint_key(label, index), encode_point(result)
        )
        self.points_computed += 1
        if self.registry is not None:
            self.registry.add(
                "serve.points.checkpointed", 1.0, section=label
            )


class ServeWorker:
    """The queue-draining loop (run inline or on a daemon thread).

    Every claim holds a lease under *worker_id* (default ``w<pid>``).
    *doorbell* wakes the idle loop (a private one by default);
    *outcomes*, when given, is rung after every job outcome.
    """

    def __init__(
        self,
        store: JobStore,
        scheduler: Scheduler,
        jobs: int = 1,
        clock=time.time,
        registry=None,
        worker_id: str | None = None,
        doorbell: Doorbell | None = None,
        outcomes: Doorbell | None = None,
    ) -> None:
        self.store = store
        self.scheduler = scheduler
        self.jobs = jobs
        self.clock = clock
        self.registry = registry
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.doorbell = doorbell or Doorbell()
        self.outcomes = outcomes
        self.stop_event = StopFlag(self.doorbell)
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.run_forever, name="repro-serve-worker", daemon=True
        )
        self._thread.start()

    def stop(self, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Graceful shutdown: finish the in-flight point, checkpoint,
        re-queue the interrupted job, exit."""
        self.stop_event.set()
        if wait and self._thread is not None:
            self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    def run_forever(self) -> None:
        while not self.stop_event.is_set():
            if not self.run_once():
                self.doorbell.wait(self._idle_timeout())

    def _idle_timeout(self) -> float:
        """Until the next retry deadline, at most :data:`RECHECK_S`."""
        now = self.clock()
        wake = self.scheduler.next_wakeup(now)
        if wake is None:
            return RECHECK_S
        return min(RECHECK_S, max(0.0, wake - now))

    def run_once(self) -> bool:
        """Claim and run at most one job; True when one was run."""
        job = self.scheduler.claim_next(self.clock(), worker=self.worker_id)
        if job is None:
            return False
        try:
            self.run_job(job)
        finally:
            if self.outcomes is not None:
                self.outcomes.ring()
        return True

    # ------------------------------------------------------------------
    def run_job(self, job: Job) -> Job:
        """Run one already-claimed (``running``) job to an outcome."""
        started = self.clock()
        if self.registry is not None:
            self.registry.add(
                "serve.jobs.started", 1.0, kind=job.spec.get("kind", "?")
            )
        timeout = self.scheduler.config.job_timeout
        executor = CheckpointingExecutor(
            store=self.store,
            job=job,
            jobs=self.jobs,
            stop_event=self.stop_event,
            deadline=None if timeout is None else started + timeout,
            clock=self.clock,
            registry=self.registry,
            lease_guard=lambda: self.scheduler.heartbeat(
                job, self.clock(), self.worker_id
            ),
        )
        try:
            result = run_job_spec(job.spec, executor)
        except WorkerStopped:
            job = self._edge(
                lambda: self.scheduler.preempt(
                    job, self.clock(), worker=self.worker_id
                ),
                job, "preempted",
            )
        except KeyboardInterrupt:
            self._edge(
                lambda: self.scheduler.preempt(
                    job, self.clock(), worker=self.worker_id
                ),
                job, "preempted",
            )
            raise
        except LeaseLostError:
            # Another worker re-claimed the job after our lease lapsed:
            # its transitions are authoritative, ours would corrupt.
            self._count("lease-lost", job)
        except (JobCancelled, ExecutionCancelled):
            job = self._edge(
                lambda: self.scheduler.cancel(job.job_id, self.clock()),
                job, "cancelled",
            )
        except JobTimeout as exc:
            job = self._fail(job, str(exc), transient=True)
        except PointExecutionError as exc:
            # The transient class: a point died in a worker process
            # (OOM, kill, flaky host) — retry with backoff.
            job = self._fail(job, str(exc), transient=True)
        except ReproError as exc:
            # Deterministic model/compile errors never heal on retry.
            job = self._fail(
                job, f"{type(exc).__name__}: {exc}", transient=False
            )
        except Exception as exc:  # noqa: BLE001 — keep the service alive
            job = self._fail(
                job,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                transient=False,
            )
        else:
            try:
                job = self.scheduler.complete(
                    job, result, self.clock(), worker=self.worker_id
                )
            except LeaseLostError:
                self._count("lease-lost", job)
            else:
                self._count("done", job)
                for _ in self.scheduler.last_coalesced:
                    self._count("coalesced", job)
                if self.registry is not None:
                    self.registry.observe(
                        "serve.job.wall_seconds",
                        self.clock() - started,
                        kind=job.spec.get("kind", "?"),
                    )
        return job

    # ------------------------------------------------------------------
    def _edge(self, transition, job: Job, outcome: str) -> Job:
        """Apply a terminal/requeue edge, tolerating a lost lease."""
        try:
            job = transition()
        except LeaseLostError:
            self._count("lease-lost", job)
            return job
        self._count(outcome, job)
        return job

    def _fail(self, job: Job, error: str, transient: bool) -> Job:
        try:
            job = self.scheduler.fail(
                job, error, self.clock(), transient, worker=self.worker_id
            )
        except LeaseLostError:
            self._count("lease-lost", job)
            return job
        self._count(
            "retried" if job.state.value == "queued" else "failed", job
        )
        return job

    def _count(self, outcome: str, job: Job) -> None:
        if self.registry is not None:
            self.registry.add(
                "serve.jobs.finished",
                1.0,
                outcome=outcome,
                kind=job.spec.get("kind", "?"),
            )


# ----------------------------------------------------------------------
# Fleet subprocess entry point
# ----------------------------------------------------------------------
def main(
    argv=None,
    doorbell_fds: tuple[int, int] | None = None,
    outcome_fd: int | None = None,
) -> int:
    """``python -m repro.serve.worker``: one fleet worker process.

    :class:`~repro.serve.fleet.ServeFleet` hands over the read and write
    ends of this worker's doorbell as *doorbell_fds* and the write end
    of the service's outcomes doorbell as *outcome_fd*; run by hand, the
    worker waits on a private doorbell and rings no outcomes.
    """
    import argparse
    import signal

    from repro.serve.scheduler import SchedulerConfig

    parser = argparse.ArgumentParser(
        prog="repro.serve.worker",
        description="Drain a shared repro.serve job store under a lease.",
    )
    parser.add_argument("--dir", required=True, help="shared store root")
    parser.add_argument(
        "--worker-id", default=None,
        help="lease owner id (default: w<pid>)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="point-level parallelism within this worker",
    )
    parser.add_argument(
        "--config-json", default=None,
        help="SchedulerConfig as JSON (from SchedulerConfig.to_json)",
    )
    parser.add_argument("--no-fsync", action="store_true")
    args = parser.parse_args(argv)

    config = (
        SchedulerConfig.from_json(args.config_json)
        if args.config_json
        else SchedulerConfig()
    )
    store = JobStore(args.dir, fsync=not args.no_fsync)
    scheduler = Scheduler(store, config)
    worker = ServeWorker(
        store,
        scheduler,
        jobs=args.jobs,
        worker_id=args.worker_id,
        doorbell=None if doorbell_fds is None else Doorbell(*doorbell_fds),
        outcomes=None if outcome_fd is None else Doorbell(write_fd=outcome_fd),
    )

    def _graceful(signum, frame):  # noqa: ARG001 — signal API
        worker.stop_event.set()  # lock-free, and wakes an idle wait

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        worker.run_forever()
    finally:
        store.close()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
