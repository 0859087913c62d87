"""Scheduling policy: priority queueing, admission, fairness, leases.

The scheduler is pure policy over the :class:`~repro.serve.store.JobStore`
state — it owns no threads, which keeps every decision unit-testable
with an injected clock:

* **ordering** — among schedulable jobs (``queued``, past their
  ``not_before`` backoff deadline), tenants are served **fair-share**:
  the tenant with the fewest running jobs goes first, round-robin
  (least-recently-served) among equals, so a flood from one tenant can
  never starve another's queued work.  Within a tenant, the highest
  ``priority`` wins and submission order (FIFO) breaks ties;
* **quotas** — ``max_running`` caps global dispatch;
  ``max_running_per_tenant`` (plus per-tenant overrides in
  ``tenant_quotas``) caps any one tenant's concurrency;
* **admission control** — ``max_queued`` caps the backlog and
  ``max_queued_per_tenant`` a single tenant's slice of it; a submit
  beyond a cap raises a structured
  :class:`~repro.errors.AdmissionError` (HTTP 429) instead of growing
  the queue without bound;
* **coalescing** — duplicate submissions (same normalized-spec content
  fingerprint) dedupe at *execution* time: while one is running, its
  twins stay queued, and :meth:`complete` fans the leader's result out
  to every queued duplicate without running it again;
* **leases** — every claim (:meth:`claim_next`) stamps the job with
  the worker id and a lease expiry; :meth:`heartbeat` renews it between
  points and :meth:`reclaim_expired` re-queues jobs whose worker stopped
  renewing (SIGKILL, power loss).  Every later edge of the attempt names
  the same worker: one whose lease was re-claimed gets
  :class:`~repro.errors.LeaseLostError` and must abandon the job;
* **retries** — a transiently failed attempt (``PointExecutionError``,
  per-job timeout) is re-queued with exponential backoff
  ``base * factor**(attempt-1)``, capped at ``backoff_max`` and
  stretched by a *seeded* multiplicative jitter so the schedule is
  deterministic under test while still de-synchronized in production.

**Locking.**  Every decision runs under the store's ``exclusive()``
section, the one lock the scheduler takes, so there is no lock order to
get wrong: an HTTP thread admitting a job and a worker thread claiming
one in the same process serialize on it, and so do processes sharing
the store, through its file lock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.errors import AdmissionError, LeaseLostError
from repro.serve.jobs import Job, JobState
from repro.serve.store import JobStore


@dataclass(frozen=True)
class SchedulerConfig:
    max_queued: int = 64
    max_running: int = 2
    max_attempts: int = 3
    backoff_base: float = 0.25  # seconds before the first retry
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    backoff_jitter: float = 0.5  # max extra fraction of the raw delay
    seed: int = 0
    job_timeout: float | None = None  # per-attempt wall-clock budget
    # ---- leases -----------------------------------------------------
    lease_duration: float = 30.0  # claim validity without a heartbeat
    lease_renew_margin: float = 15.0  # renew when this close to expiry
    # ---- fairness / quotas ------------------------------------------
    max_queued_per_tenant: int | None = None
    max_running_per_tenant: int | None = None
    #: per-tenant running-quota overrides, e.g. (("batch", 1),)
    tenant_quotas: tuple[tuple[str, int], ...] = field(default=())
    # ---- coalescing -------------------------------------------------
    coalesce: bool = True

    def to_json(self) -> str:
        """Serialize for handing to fleet worker subprocesses."""
        import json
        from dataclasses import asdict

        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SchedulerConfig":
        import json

        raw = json.loads(text)
        raw["tenant_quotas"] = tuple(
            (str(t), int(q)) for t, q in raw.get("tenant_quotas", ())
        )
        return cls(**raw)


class Scheduler:
    """Admission + ordering + fairness + retry policy over a job store."""

    def __init__(
        self, store: JobStore, config: SchedulerConfig | None = None
    ) -> None:
        self.store = store
        self.config = config or SchedulerConfig()
        self._rng = random.Random(self.config.seed)
        self._quotas = dict(self.config.tenant_quotas or ())
        #: tenant -> serve counter at its last dispatch (round-robin)
        self._last_served: dict[str, int] = {}
        self._served = 0
        #: job_ids fanned out by the most recent :meth:`complete`
        self.last_coalesced: list[str] = []

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        spec: dict,
        priority: int = 0,
        max_attempts: int | None = None,
        now: float = 0.0,
        tenant: str = "default",
    ) -> Job:
        """Enqueue a validated spec, or reject it with structure."""
        with self.store.exclusive():
            queued = self.store.jobs(JobState.QUEUED)
            if len(queued) >= self.config.max_queued:
                raise AdmissionError(
                    "queue-full",
                    limit=self.config.max_queued,
                    current=len(queued),
                )
            cap = self.config.max_queued_per_tenant
            if cap is not None:
                mine = sum(1 for j in queued if j.tenant == tenant)
                if mine >= cap:
                    raise AdmissionError(
                        "tenant-queue-full", limit=cap, current=mine
                    )
            return self.store.submit(
                spec,
                priority=priority,
                max_attempts=(
                    self.config.max_attempts
                    if max_attempts is None
                    else max_attempts
                ),
                now=now,
                tenant=tenant,
            )

    # ------------------------------------------------------------------
    # Dispatch ordering
    # ------------------------------------------------------------------
    def tenant_quota(self, tenant: str) -> int | None:
        """Max concurrent running jobs for *tenant* (None = unlimited)."""
        return self._quotas.get(tenant, self.config.max_running_per_tenant)

    def schedulable(self, now: float) -> list[Job]:
        """Queued jobs past their backoff deadline, best-first."""
        ready = [
            job
            for job in self.store.jobs(JobState.QUEUED)
            if job.not_before <= now and not job.cancel_requested
        ]
        ready.sort(key=lambda j: (-j.priority, j.seq))
        return ready

    def next_job(self, now: float) -> Job | None:
        """The job to dispatch now, or None (empty / backoff / caps /
        quota / a running twin we would rather coalesce with)."""
        with self.store.exclusive():
            return self._pick(now)

    def _pick(self, now: float) -> Job | None:
        running = self.store.jobs(JobState.RUNNING)
        if len(running) >= self.config.max_running:
            return None
        running_fps = {j.fingerprint for j in running if j.fingerprint}
        per_tenant: dict[str, int] = {}
        for j in running:
            per_tenant[j.tenant] = per_tenant.get(j.tenant, 0) + 1
        best: dict[str, Job] = {}
        for job in self.schedulable(now):
            if job.tenant in best:
                continue  # already have this tenant's best candidate
            if self.config.coalesce and job.fingerprint in running_fps:
                continue  # a twin is executing: wait for its fan-out
            quota = self.tenant_quota(job.tenant)
            if quota is not None and per_tenant.get(job.tenant, 0) >= quota:
                continue
            best[job.tenant] = job
        if not best:
            return None
        tenant = min(
            best,
            key=lambda t: (
                per_tenant.get(t, 0),  # fewest running first
                self._last_served.get(t, -1),  # then least recently served
                -best[t].priority,
                best[t].seq,
            ),
        )
        return best[tenant]

    def next_wakeup(self, now: float) -> float | None:
        """Earliest future ``not_before`` among queued jobs (to size the
        worker's idle sleep), or None when nothing is pending."""
        pending = [
            job.not_before
            for job in self.store.jobs(JobState.QUEUED)
            if job.not_before > now
        ]
        return min(pending) if pending else None

    # ------------------------------------------------------------------
    # Claims (lease-based, cross-process safe)
    # ------------------------------------------------------------------
    def claim_next(self, now: float, worker: str) -> Job | None:
        """Atomically pick and start the next job.

        Under the store's cross-process mutex: expired leases are
        reclaimed, cancel-requested queued jobs are retired, then the
        fair-share pick is claimed with this worker's lease stamped on
        it.  Sibling workers racing through here serialize on the file
        lock, so a job is only ever claimed once per lease term.
        """
        with self.store.exclusive():
            self.reclaim_expired(now)
            self.sweep_cancel_requests(now)
            job = self.next_job(now)
            if job is None:
                return None
            return self.start(job, now, worker=worker)

    def reclaim_expired(self, now: float) -> list[Job]:
        """Re-queue running jobs whose lease lapsed (their worker died
        without a graceful preempt).  Checkpoints are retained; the
        attempt is not refunded — a crashing spec eventually exhausts
        ``max_attempts`` instead of looping forever.  A running job with
        no lease at all (``lease_until`` 0) counts as lapsed."""
        reclaimed = []
        with self.store.exclusive():
            for job in self.store.jobs(JobState.RUNNING):
                if job.lease_until <= now:
                    reclaimed.append(
                        self.store.transition(
                            job.job_id,
                            JobState.QUEUED,
                            error=(
                                f"lease expired (worker {job.worker}, "
                                f"attempt {job.attempts})"
                            ),
                            now=now,
                        )
                    )
        return reclaimed

    def sweep_cancel_requests(self, now: float) -> list[Job]:
        """Retire queued jobs whose durable cancel flag is set."""
        swept = []
        with self.store.exclusive():
            for job in self.store.jobs(JobState.QUEUED):
                if job.cancel_requested:
                    swept.append(self.cancel(job.job_id, now))
        return swept

    def heartbeat(self, job: Job, now: float, worker: str) -> Job:
        """Verify ownership and renew the lease when it nears expiry.

        Raises :class:`~repro.errors.LeaseLostError` when the job is no
        longer running under *worker* — the caller must abandon it.
        """
        with self.store.exclusive():
            cur = self._check_owner(job.job_id, worker)
            cfg = self.config
            if cur.lease_until - now <= cfg.lease_renew_margin:
                cur = self.store.heartbeat(
                    job.job_id, worker, now + cfg.lease_duration
                )
            return cur

    def _check_owner(self, job_id: str, worker: str) -> Job:
        cur = self.store.get(job_id)
        if cur.state is not JobState.RUNNING or cur.worker != worker:
            raise LeaseLostError(job_id, worker, cur.worker, cur.state.value)
        return cur

    # ------------------------------------------------------------------
    # Lifecycle edges (each delegates durability to the store)
    # ------------------------------------------------------------------
    def start(self, job: Job, now: float, worker: str) -> Job:
        self._served += 1
        self._last_served[job.tenant] = self._served
        return self.store.transition(
            job.job_id,
            JobState.RUNNING,
            attempts=job.attempts + 1,
            now=now,
            worker=worker,
            lease_until=now + self.config.lease_duration,
        )

    def complete(self, job: Job, result: dict, now: float, worker: str) -> Job:
        """Publish the result, mark done, and fan out to queued twins."""
        self.last_coalesced = []
        with self.store.exclusive():
            self._check_owner(job.job_id, worker)
            self.store.set_result(job.job_id, result)
            done = self.store.transition(job.job_id, JobState.DONE, now=now)
            if self.config.coalesce and done.fingerprint:
                for twin in self.store.jobs(JobState.QUEUED):
                    if twin.cancel_requested:
                        continue  # the submitter walked away: let the
                        # cancel sweep retire it, not hand it a result
                    if twin.fingerprint == done.fingerprint:
                        self.store.coalesce(
                            twin.job_id, done.job_id, result, now=now
                        )
                        self.last_coalesced.append(twin.job_id)
            return done

    def fail(
        self,
        job: Job,
        error: str,
        now: float,
        transient: bool,
        worker: str,
    ) -> Job:
        """Terminal failure, or a backoff-delayed retry when *transient*
        and attempts remain."""
        with self.store.exclusive():
            self._check_owner(job.job_id, worker)
            if transient and job.attempts < job.max_attempts:
                delay = self.backoff_delay(job.attempts)
                return self.store.transition(
                    job.job_id,
                    JobState.QUEUED,
                    error=error,
                    not_before=now + delay,
                    now=now,
                )
            return self.store.transition(
                job.job_id, JobState.FAILED, error=error, now=now
            )

    def preempt(self, job: Job, now: float, worker: str) -> Job:
        """Graceful-shutdown path: back to queued, attempt not counted."""
        with self.store.exclusive():
            self._check_owner(job.job_id, worker)
            return self.store.transition(
                job.job_id,
                JobState.QUEUED,
                attempts=max(0, job.attempts - 1),
                now=now,
            )

    def cancel(self, job_id: str, now: float) -> Job:
        return self.store.transition(
            job_id, JobState.CANCELLED, error="cancelled by request", now=now
        )

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt + 1`` (attempt >= 1).

        Exponential in the attempt count, capped, then stretched by a
        jitter drawn from this scheduler's seeded RNG: two schedulers
        built with the same seed produce the same delay sequence.
        """
        cfg = self.config
        raw = min(
            cfg.backoff_base * cfg.backoff_factor ** max(0, attempt - 1),
            cfg.backoff_max,
        )
        return raw * (1.0 + cfg.backoff_jitter * self._rng.random())
