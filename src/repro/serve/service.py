"""The composed service: store + scheduler + worker(s) + serve metrics.

:class:`ReproService` is the single object both the HTTP layer and the
CLI talk to.  It owns a :class:`~repro.trace.metrics.MetricsRegistry`
(the same machinery the simulator's observability layer uses) that
``/metrics`` renders with :func:`repro.trace.metrics_report` — so
``serve.*`` counters read exactly like ``engine.*`` ones.

The two modes differ only in where the worker runs:

* ``workers=0`` (default) — one worker on a thread of this process;
* ``workers=N`` (N >= 1) — fleet mode: N ``repro.serve.worker``
  subprocesses.  Fleet-wide counters (executions, coalescing hits) are
  derived from store state, since worker-process registries are not
  visible here.

Either way the store is opened with its file lock and WAL
tail-following, every claim holds a lease, and cancelling a running
job sets the store's durable ``cancel_requested`` flag, which the
claiming worker reads between points.

Both modes hand jobs over by wake-up, not by polling: :meth:`submit`
rings the workers' doorbells, and the workers ring :attr:`outcomes`
after every job outcome, which wakes the readers blocked in
``status(job_id, wait=S)`` (``GET /jobs/<id>?wait=S``).
"""

from __future__ import annotations

import threading
import time

from repro.errors import UnknownJobError
from repro.serve.doorbell import RECHECK_S, Doorbell
from repro.serve.fleet import ServeFleet
from repro.serve.jobs import Job, JobState, validate_spec
from repro.serve.scheduler import Scheduler, SchedulerConfig
from repro.serve.store import JobStore
from repro.serve.worker import ServeWorker
from repro.trace.metrics import MetricsRegistry

DEFAULT_SERVE_DIR = ".repro_serve"
#: the longest one ``status(wait=S)`` call blocks, whatever S
MAX_WAIT_S = 30.0


class ReproService:
    """Submit / status / cancel over a durable queue and its workers."""

    def __init__(
        self,
        root: str = DEFAULT_SERVE_DIR,
        config: SchedulerConfig | None = None,
        jobs: int = 1,
        clock=time.time,
        fsync: bool = True,
        workers: int = 0,
        record_path: str | None = None,
    ) -> None:
        self.clock = clock
        self.workers = max(0, int(workers))
        #: when set, shutdown() writes a replay session of every
        #: terminal job to this path (``repro serve --record FILE``)
        self.record_path = record_path
        self.registry = MetricsRegistry()
        self.store = JobStore(root, fsync=fsync)
        self.scheduler = Scheduler(self.store, config)
        #: rung by the workers after every job outcome
        self.outcomes = Doorbell()
        #: bumped and notified whenever a job may have changed state
        self._changed = threading.Condition()
        self._generation = 0
        self._closing = False
        self._listener: threading.Thread | None = None
        if self.workers > 0:
            self.worker = None
            self.fleet: ServeFleet | None = ServeFleet(
                root,
                workers=self.workers,
                config=self.scheduler.config,
                jobs=jobs,
                fsync=fsync,
                outcome_fd=self.outcomes.write_fd,
            )
        else:
            self.fleet = None
            self.worker = ServeWorker(
                self.store,
                self.scheduler,
                jobs=jobs,
                clock=clock,
                registry=self.registry,
                outcomes=self.outcomes,
            )
        self.started_at = clock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._listener = threading.Thread(
            target=self._listen, name="repro-serve-outcomes", daemon=True
        )
        self._listener.start()
        if self.fleet is not None:
            self.fleet.start()
        else:
            self.worker.start()

    def _listen(self) -> None:
        """Turn outcome rings into wake-ups of blocked status reads."""
        while not self._closing:
            self.outcomes.wait(None)
            self._notify()

    def _notify(self) -> None:
        with self._changed:
            self._generation += 1
            self._changed.notify_all()

    def shutdown(self, wait: bool = True) -> None:
        # Blocked and later status(wait=) reads answer at once.
        self._closing = True
        self._notify()
        if self.fleet is not None:
            self.fleet.stop()
        elif self.worker is not None:
            self.worker.stop(wait=wait)
        if self._listener is not None:
            self.outcomes.ring()
            self._listener.join()
        if self.record_path:
            self.record_session(self.record_path)
        self.store.compact()
        self.store.close()

    def record_session(self, path: str):
        """Snapshot every terminal job into a replay session at *path*.

        Callable live (the store view is current in both modes) or at
        shutdown via ``record_path``.  The session header carries this
        service's scheduler backoff seed so a replay of the recording
        is deterministic end to end.  Returns the written path.
        """
        # Imported lazily: repro.serve.__init__ loads this module, and
        # repro.replay imports serve pieces — a top-level import would
        # be a cycle.
        from repro.replay.recorder import record_store

        session = record_store(
            self.store,
            seeds={"backoff": self.scheduler.config.seed},
            meta={"root": str(self.store.root), "workers": self.workers},
        )
        out = session.dump(path)
        self.registry.add(
            "serve.sessions.recorded", 1.0
        )
        self.registry.add(
            "serve.sessions.recorded_jobs", float(len(session.jobs))
        )
        return out

    # ------------------------------------------------------------------
    # Operations (shared by HTTP handlers and in-process callers)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: dict,
        priority: int = 0,
        max_attempts: int | None = None,
        tenant: str = "default",
    ) -> Job:
        spec = validate_spec(spec)
        try:
            job = self.scheduler.admit(
                spec,
                priority=priority,
                max_attempts=max_attempts,
                now=self.clock(),
                tenant=tenant,
            )
        except Exception:
            self.registry.add("serve.jobs.rejected", 1.0)
            raise
        self.registry.add(
            "serve.jobs.submitted", 1.0, kind=spec["kind"]
        )
        if self.fleet is not None:
            self.fleet.ring()
        else:
            self.worker.doorbell.ring()
        return job

    def status(self, job_id: str, wait: float | None = None) -> dict:
        """The job's status.  With *wait*, first block up to that many
        seconds (at most :data:`MAX_WAIT_S`) until the job is terminal.

        Outcome rings wake the wait at once; it re-reads the store every
        :data:`~repro.serve.doorbell.RECHECK_S` anyway, for outcomes
        written by anyone who does not ring.
        """
        deadline = time.monotonic() + min(wait or 0.0, MAX_WAIT_S)
        while True:
            with self._changed:
                seen = self._generation
            job = self.store.get(job_id)
            remaining = deadline - time.monotonic()
            if job.state.terminal or remaining <= 0 or self._closing:
                break
            with self._changed:
                if self._generation == seen and not self._closing:
                    self._changed.wait(min(remaining, RECHECK_S))
        out = job.summary()
        out["not_before"] = job.not_before
        out["started_at"] = job.started_at
        out["lease_until"] = job.lease_until
        return out

    def result(self, job_id: str) -> tuple[JobState, dict | None]:
        job = self.store.get(job_id)
        return job.state, job.result

    def list_jobs(self) -> list[dict]:
        return [job.summary() for job in self.store.jobs()]

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued job immediately; flag a running one."""
        job = self.store.get(job_id)
        if job.state is JobState.QUEUED:
            job = self.scheduler.cancel(job_id, self.clock())
            self.registry.add("serve.jobs.finished", 1.0,
                              outcome="cancelled",
                              kind=job.spec.get("kind", "?"))
            self._notify()
            return {"job_id": job_id, "state": job.state.value}
        if job.state is JobState.RUNNING:
            # The claiming worker reads the durable flag between points.
            self.store.request_cancel(job_id)
            return {"job_id": job_id, "state": "cancelling"}
        if job.state.terminal:
            return {"job_id": job_id, "state": job.state.value}
        raise UnknownJobError(job_id)  # unreachable; states are total

    # ------------------------------------------------------------------
    def health(self) -> dict:
        out = {
            "status": "ok",
            "uptime_seconds": self.clock() - self.started_at,
            "jobs": self.store.counts(),
            "max_queued": self.scheduler.config.max_queued,
            "max_running": self.scheduler.config.max_running,
        }
        if self.fleet is not None:
            out["workers"] = {
                "configured": self.workers,
                "alive": self.fleet.alive(),
            }
        return out

    def fleet_stats(self) -> dict:
        """Execution/coalescing tallies derived from durable state.

        Fleet workers run in their own processes, so their in-memory
        metric registries never reach this one; the store is the one
        source of truth every process shares.
        """
        jobs = self.store.jobs()
        done = [j for j in jobs if j.state is JobState.DONE]
        coalesced = sum(1 for j in done if j.coalesced_with)
        executed = len(done) - coalesced
        return {
            "done": len(done),
            "executed": executed,
            "coalesce_hits": coalesced,
            "coalesce_hit_rate": (
                coalesced / len(done) if done else 0.0
            ),
        }

    def metrics_text(self) -> str:
        from repro.trace.export import metrics_report

        for state, count in self.store.counts().items():
            key = f"serve.jobs.state|state={state}"
            self.registry.counters[key] = float(count)
        stats = self.fleet_stats()
        self.registry.counters["serve.jobs.executed"] = float(
            stats["executed"]
        )
        self.registry.counters["serve.coalesce.hits"] = float(
            stats["coalesce_hits"]
        )
        if self.fleet is not None:
            self.registry.counters["serve.fleet.alive"] = float(
                self.fleet.alive()
            )
        return metrics_report(self.registry)
