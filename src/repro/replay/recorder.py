"""Recorders: turn real work into replayable sessions.

Three capture paths, all producing the same
:class:`~repro.replay.session.Session`:

* :func:`record_store` — snapshot a serve :class:`~repro.serve.store.
  JobStore` (live or post-mortem: the WAL is durable) into a session.
  This is the production path: run traffic against ``repro serve``,
  then record the store directory.  Timestamps come from the store's
  own clock, result digests from the stored JSON payloads, and the
  coalescing leader becomes a dependency edge.
* :func:`record_figures` — run registered campaign figures locally,
  recording one job per figure with wall-clock timestamps.  The
  record→replay CI smoke uses this (``repro record --figure fig14``).
* :func:`record_specs` — execute a list of validated job specs locally
  (workload/kernel/campaign kinds), recording each as a job.  The
  cheap path for tests and synthetic seed sessions.

Every recorder threads explicit RNG seeds into the session header
(``mutation``, ``think_time``, plus the recorded scheduler's
``backoff`` seed when known) so a replay — including its synthetic
spec mutation and client staggering — is a pure function of the
session file.  When ``repro.trace`` is enabled, each captured job
emits a ``session.record`` instant in the SESSION category.
"""

from __future__ import annotations

import time

from repro.exec.cache import result_digest, stable_digest
from repro.replay.session import RecordedJob, Session, SessionHeader
from repro.trace.events import Category, active_tracer

#: seeds every session carries unless the caller overrides them
DEFAULT_SEEDS = {"mutation": 0, "think_time": 0, "backoff": 0}


def _metrics_of(result) -> dict:
    """The small numeric summary recorded next to the digest."""
    if not isinstance(result, dict):
        return {}
    if result.get("kind") == "campaign":
        rows = result.get("rows") or []
        return {"rows": len(rows)}
    out = {}
    for key in ("total_cycles", "traffic_byte_hops", "energy_nj"):
        if key in result:
            out[key] = result[key]
    return out


def _trace_record(job: RecordedJob) -> None:
    tracer = active_tracer()
    if tracer is not None:
        tracer.instant(
            "session.record",
            Category.SESSION,
            track="session",
            job=job.job_id,
            outcome=job.outcome,
        )


def _seeds(overrides: dict | None) -> dict:
    out = dict(DEFAULT_SEEDS)
    if overrides:
        out.update({str(k): int(v) for k, v in overrides.items()})
    return out


class Recorder:
    """Accumulates :class:`RecordedJob`\\ s into a sealed session.

    Incremental API for live capture (``record_submit`` →
    ``record_claim`` → ``record_complete``); the module-level
    ``record_*`` functions below are one-shot conveniences over it.
    """

    def __init__(
        self,
        source: str = "serve",
        seeds: dict | None = None,
        meta: dict | None = None,
        clock=time.time,
    ) -> None:
        self.clock = clock
        self.header = SessionHeader(
            source=source,
            created_at=clock(),
            seeds=_seeds(seeds),
            meta=dict(meta or {}),
        )
        self.jobs: list[RecordedJob] = []
        self._by_id: dict[str, RecordedJob] = {}

    # ------------------------------------------------------------------
    def record_submit(
        self,
        job_id: str,
        spec: dict,
        tenant: str = "default",
        priority: int = 0,
        at: float | None = None,
        deps: tuple[str, ...] = (),
    ) -> RecordedJob:
        job = RecordedJob(
            job_id=job_id,
            spec=dict(spec),
            tenant=tenant,
            priority=int(priority),
            submit_at=self.clock() if at is None else at,
            deps=list(deps),
        )
        self.jobs.append(job)
        self._by_id[job_id] = job
        return job

    def record_claim(self, job_id: str, at: float | None = None) -> None:
        self._by_id[job_id].claim_at = (
            self.clock() if at is None else at
        )

    def record_complete(
        self,
        job_id: str,
        outcome: str = "done",
        at: float | None = None,
        result=None,
        error: str | None = None,
    ) -> RecordedJob:
        job = self._by_id[job_id]
        job.complete_at = self.clock() if at is None else at
        job.outcome = outcome
        job.error = error
        if result is not None:
            job.result_digest = result_digest(result)
            job.metrics = _metrics_of(result)
        _trace_record(job)
        return job

    # ------------------------------------------------------------------
    def finish(self) -> Session:
        """Seal the session: deterministic content-derived id."""
        return Session(header=self.header, jobs=self.jobs).seal()


# ----------------------------------------------------------------------
# One-shot capture paths
# ----------------------------------------------------------------------
def record_store(store, seeds=None, meta=None) -> Session:
    """Snapshot a serve job store into a session.

    Only jobs that reached a terminal state are recorded — a queued or
    running job has no completion to replay against.  Works on a live
    store (every read catches up with the WAL) and on a post-mortem
    store directory alike.
    """
    from repro.serve.jobs import JobState

    recorder = Recorder(source="serve", seeds=seeds, meta=meta)
    for job in store.jobs():
        if not job.state.terminal:
            continue
        deps = (job.coalesced_with,) if job.coalesced_with else ()
        rec = recorder.record_submit(
            job.job_id,
            job.spec,
            tenant=job.tenant,
            priority=job.priority,
            at=job.submitted_at,
            deps=deps,
        )
        if job.started_at is not None:
            rec.claim_at = job.started_at
        outcome = job.state.value
        rec.complete_at = (
            job.finished_at if job.finished_at is not None else job.submitted_at
        )
        rec.outcome = outcome
        rec.error = job.error
        if job.state is JobState.DONE and job.result is not None:
            rec.result_digest = result_digest(job.result)
            rec.metrics = _metrics_of(job.result)
        _trace_record(rec)
    return recorder.finish()


def record_specs(
    specs,
    source: str = "synthetic",
    seeds=None,
    meta=None,
    executor=None,
    clock=time.time,
) -> Session:
    """Execute validated job specs locally, recording each as a job.

    *specs* is an iterable of either spec dicts or ``(spec, tenant,
    priority)`` tuples.  Execution is sequential in the given order;
    timestamps are real wall-clock, so replays inherit the natural
    inter-job gaps of local execution.
    """
    from repro.serve.jobs import run_job_spec, validate_spec

    recorder = Recorder(source=source, seeds=seeds, meta=meta, clock=clock)
    for index, item in enumerate(specs):
        if isinstance(item, dict):
            spec, tenant, priority = item, "default", 0
        else:
            spec, tenant, priority = item
        spec = validate_spec(spec)
        job_id = f"r{index:05d}-{stable_digest(spec)[:8]}"
        recorder.record_submit(job_id, spec, tenant=tenant, priority=priority)
        recorder.record_claim(job_id)
        try:
            result = run_job_spec(spec, executor)
        except Exception as exc:  # noqa: BLE001 — recorded, not raised
            recorder.record_complete(
                job_id, outcome="failed",
                error=f"{type(exc).__name__}: {exc}",
            )
        else:
            recorder.record_complete(job_id, result=result)
    return recorder.finish()


def record_figures(
    figures,
    scale: float = 1.0,
    seeds=None,
    meta=None,
    executor=None,
    clock=time.time,
) -> Session:
    """Run registered campaign figures locally and record each one."""
    specs = [
        {"kind": "campaign", "figure": str(figure), "scale": float(scale)}
        for figure in figures
    ]
    meta = dict(meta or {})
    meta.setdefault("figures", [str(f) for f in figures])
    meta.setdefault("scale", float(scale))
    return record_specs(
        specs,
        source="campaign",
        seeds=seeds,
        meta=meta,
        executor=executor,
        clock=clock,
    )
