"""The durable job store: append-only WAL + atomic snapshot.

Layout under the store root (default ``.repro_serve/``)::

    wal.jsonl       append-only log, one JSON record per mutation
    snapshot.json   periodic full-state snapshot (atomic ``os.replace``,
                    the same publish idiom as ``exec/cache.py``)
    store.lock      cross-process mutation mutex
    epoch           compaction generation counter

Every mutation — submit, state transition, per-point checkpoint, lease
heartbeat, cancellation request, coalesced fan-out, result publication —
appends one WAL record before the in-memory state is considered
committed.  Recovery loads the snapshot (if any) and replays the WAL on
top; a torn final line (the process died mid-append) is detected,
repaired (newline-terminated so later appends stay parseable), and its
half-written record ignored.  :meth:`JobStore.compact` folds the WAL
into a fresh snapshot so the log stays bounded.

Any number of *processes* may open one store root: a server, its
fleet workers, ``repro record --from-store``.  Mutations serialize
behind an ``exec.cache.FileLock`` and, before acting, fold in every WAL
record other processes appended since we last looked (cheap byte-offset
tail replay).  A compaction by any process bumps the ``epoch`` file;
readers that observe a new epoch reload snapshot + WAL from scratch.
Absorbing foreign records updates existing :class:`Job` objects *in
place*, so references held across calls (``store.get(id) is job``) stay
valid.

Loading never touches a job found ``running``: it may be healthily
running in another process.  Recovery from a dead worker is the
scheduler's lease-expiry reclaim, which keeps the job's checkpoints.

All methods are additionally thread-safe (one re-entrant lock): HTTP
handler threads and the worker loop share a store instance.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import threading
from pathlib import Path

from repro.errors import JobStateError, ServeError, UnknownJobError
from repro.exec.cache import FileLock, stable_digest
from repro.serve.jobs import Job, JobState, check_transition

WAL_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
LOCK_NAME = "store.lock"
EPOCH_NAME = "epoch"

#: compact automatically once this many WAL records accumulate
DEFAULT_COMPACT_EVERY = 4096


class JobStore:
    """Crash-safe persistence for :class:`~repro.serve.jobs.Job`\\ s."""

    def __init__(
        self,
        root: str | os.PathLike,
        fsync: bool = True,
        compact_every: int = DEFAULT_COMPACT_EVERY,
        lock_timeout: float = 30.0,
        lock_stale_after: float = 120.0,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.compact_every = max(1, int(compact_every))
        self._lock = threading.RLock()
        self._file_lock = FileLock(
            self.root / LOCK_NAME,
            timeout=lock_timeout,
            stale_after=lock_stale_after,
        )
        self._excl_depth = 0
        self._jobs: dict[str, Job] = {}
        self._seq = 0
        self._wal_records = 0
        self._wal_offset = 0
        self._epoch = 0
        self._wal: io.TextIOWrapper | None = None
        # Torn-tail repair writes to the WAL: take the mutex for it.
        with self._file_lock:
            self._sweep_orphans()
            self._load()
        self._open_wal()

    # ------------------------------------------------------------------
    # Durability plumbing
    # ------------------------------------------------------------------
    @property
    def wal_path(self) -> Path:
        return self.root / WAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.root / SNAPSHOT_NAME

    @property
    def epoch_path(self) -> Path:
        return self.root / EPOCH_NAME

    def _sweep_orphans(self) -> None:
        """Remove the temp files killed processes left in the root.

        Snapshot and epoch temp files are only written under the
        mutation mutex, which the caller holds, so any found are
        orphans; a lock claim file is one when its process is gone.
        """
        for pattern in ("*.snap.tmp", "*.epoch.tmp"):
            for orphan in self.root.glob(pattern):
                orphan.unlink(missing_ok=True)
        self._file_lock.sweep_dead_claims()

    def _open_wal(self) -> None:
        self._wal = open(self.wal_path, "a", encoding="utf-8")

    def _append(self, record: dict) -> None:
        assert self._wal is not None
        self._wal.write(json.dumps(record, sort_keys=True) + "\n")
        self._wal.flush()
        if self.fsync:
            os.fsync(self._wal.fileno())
        # O_APPEND semantics: tell() after the flush is the WAL end as
        # of our write, which is exactly how far we have replayed.
        self._wal_offset = self._wal.tell()
        self._wal_records += 1
        if self._wal_records >= self.compact_every:
            self.compact()

    def _read_epoch(self) -> int:
        try:
            return int(self.epoch_path.read_text())
        except (OSError, ValueError):
            return 0

    def _write_epoch(self) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".epoch.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(str(self._epoch))
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            os.replace(tmp, self.epoch_path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def _load(self) -> None:
        """Full (re)load: snapshot, then every WAL record on top."""
        state: dict = {"seq": 0, "jobs": []}
        try:
            with open(self.snapshot_path, encoding="utf-8") as fh:
                state = json.load(fh)
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as exc:
            raise ServeError(
                f"corrupt snapshot {self.snapshot_path}: {exc}"
            ) from exc
        self._epoch = self._read_epoch()
        # seq never moves backwards, even across a racy reload: ids are
        # allocated under the mutation mutex, so ours is a lower bound.
        self._seq = max(self._seq, int(state.get("seq", 0)))
        for raw in state.get("jobs", []):
            self._absorb(Job.from_dict(raw))
        self._wal_records = 0
        self._wal_offset = self._replay_wal_from(0, repair=True)

    def _replay_wal_from(self, offset: int, repair: bool) -> int:
        """Replay complete WAL records from *offset*; the new offset.

        Only newline-terminated lines are replayed: a partial tail is a
        record some process is mid-append on (or tore off crashing).
        With *repair* (callers holding the mutation mutex) the torn tail
        is newline-terminated in place so subsequent appends do not fuse
        with it; the resulting unparseable line is skipped forever — it
        was never acknowledged, so dropping it is correct.
        """
        try:
            with open(self.wal_path, "rb") as fh:
                fh.seek(offset)
                buf = fh.read()
        except FileNotFoundError:
            return offset
        complete, sep, partial = buf.rpartition(b"\n")
        if sep:
            for line in complete.split(b"\n"):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a repaired torn record: never committed
                self._replay(record)
                self._wal_records += 1
            offset += len(complete) + 1
        if partial and repair:
            with open(self.wal_path, "ab") as fh:
                fh.write(b"\n")
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            offset += len(partial) + 1
        return offset

    def _absorb(self, fresh: Job) -> Job:
        """Merge a deserialized job, preserving object identity.

        Callers hold references to the Job objects this store returned
        (``store.get(id) is job``); folding in foreign WAL records must
        update those same objects, not replace them.
        """
        job = self._jobs.get(fresh.job_id)
        if job is None:
            self._jobs[fresh.job_id] = fresh
            return fresh
        for key, value in fresh.__dict__.items():
            if key == "checkpoints":
                job.checkpoints.update(value)
            else:
                setattr(job, key, value)
        return job

    def _replay(self, record: dict) -> None:
        op = record.get("op")
        if op == "submit":
            job = self._absorb(Job.from_dict(record["job"]))
            self._seq = max(self._seq, job.seq + 1)
        elif op == "transition":
            job = self._jobs.get(record["job_id"])
            if job is None:
                return
            job.state = JobState(record["state"])
            for key in ("attempts", "not_before", "error",
                        "started_at", "finished_at",
                        "worker", "lease_until", "cancel_requested"):
                if key in record:
                    setattr(job, key, record[key])
        elif op == "checkpoint":
            job = self._jobs.get(record["job_id"])
            if job is not None:
                job.checkpoints[record["key"]] = record["payload"]
        elif op == "result":
            job = self._jobs.get(record["job_id"])
            if job is not None:
                job.result = record["result"]
        elif op == "lease":
            job = self._jobs.get(record["job_id"])
            if job is not None:
                job.lease_until = float(record["lease_until"])
        elif op == "cancel_request":
            job = self._jobs.get(record["job_id"])
            if job is not None:
                job.cancel_requested = True
        elif op == "coalesce":
            job = self._jobs.get(record["job_id"])
            if job is not None:
                job.state = JobState.DONE
                job.result = record["result"]
                job.coalesced_with = record["leader"]
                job.finished_at = record.get("finished_at")
                job.error = None
        # Unknown ops from a newer writer are skipped, not fatal.

    def compact(self) -> None:
        """Fold the WAL into a fresh snapshot (atomic publish)."""
        with self.exclusive():
            state = {
                "seq": self._seq,
                "jobs": [job.to_dict() for job in self._jobs.values()],
            }
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".snap.tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(state, fh, sort_keys=True)
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                os.replace(tmp, self.snapshot_path)
            except BaseException:
                os.unlink(tmp)
                raise
            # The snapshot now covers every WAL record: truncate it.
            if self._wal is not None:
                self._wal.close()
            with open(self.wal_path, "w", encoding="utf-8") as fh:
                if self.fsync:
                    os.fsync(fh.fileno())
            self._open_wal()
            self._wal_records = 0
            self._wal_offset = 0
            # Publish the new generation so other processes stop
            # trusting their byte offsets and reload.
            self._epoch += 1
            self._write_epoch()

    def close(self) -> None:
        with self._lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    # ------------------------------------------------------------------
    # Cross-process coordination
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def exclusive(self):
        """Mutation critical section: thread lock, the cross-process
        file lock and a catch-up WAL replay so every decision made
        inside sees the latest committed state.

        Re-entrant on both levels, so store mutations nest freely
        inside scheduler-level ``exclusive()`` blocks.
        """
        with self._lock:
            if self._excl_depth == 0:
                self._file_lock.acquire()
                try:
                    self._refresh(repair=True)
                except BaseException:
                    self._file_lock.release()
                    raise
            self._excl_depth += 1
            try:
                yield self
            finally:
                self._excl_depth -= 1
                if self._excl_depth == 0:
                    self._file_lock.release()

    def _refresh(self, repair: bool) -> None:
        """Fold in WAL records other processes appended (thread lock
        held by the caller).  Without *repair* (lock-free readers) the
        pass is observational only: complete records are replayed, a
        mid-append tail is left for its writer."""
        epoch = self._read_epoch()
        try:
            size = os.path.getsize(self.wal_path)
        except OSError:
            size = 0
        if epoch != self._epoch or size < self._wal_offset:
            # A sibling compacted (or truncated) the WAL: our byte
            # offset is meaningless — reload snapshot + WAL outright.
            self._epoch = epoch
            self._wal_records = 0
            self._replay_snapshot()
            self._wal_offset = self._replay_wal_from(0, repair=repair)
            return
        if size > self._wal_offset:
            self._wal_offset = self._replay_wal_from(
                self._wal_offset, repair=repair
            )

    def _replay_snapshot(self) -> None:
        try:
            with open(self.snapshot_path, encoding="utf-8") as fh:
                state = json.load(fh)
        except (OSError, ValueError):
            return
        self._seq = max(self._seq, int(state.get("seq", 0)))
        for raw in state.get("jobs", []):
            self._absorb(Job.from_dict(raw))

    def _sync_view(self) -> None:
        """Best-effort read-side catch-up for queries."""
        if self._excl_depth == 0:
            self._refresh(repair=False)

    # ------------------------------------------------------------------
    # Mutations (each committed to the WAL before returning)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: dict,
        priority: int = 0,
        max_attempts: int = 3,
        now: float = 0.0,
        tenant: str = "default",
    ) -> Job:
        with self.exclusive():
            seq = self._seq
            self._seq += 1
            digest = stable_digest(spec)
            job = Job(
                job_id=f"j{seq:05d}-{digest[:8]}",
                spec=spec,
                priority=int(priority),
                max_attempts=max(1, int(max_attempts)),
                seq=seq,
                submitted_at=now,
                tenant=str(tenant),
                fingerprint=digest,
            )
            self._jobs[job.job_id] = job
            self._append({"op": "submit", "job": job.to_dict()})
            return job

    def transition(
        self,
        job_id: str,
        state: JobState,
        *,
        error: str | None = None,
        attempts: int | None = None,
        not_before: float | None = None,
        now: float = 0.0,
        worker: str | None = None,
        lease_until: float | None = None,
    ) -> Job:
        with self.exclusive():
            job = self.get(job_id)
            check_transition(job_id, job.state, state)
            record: dict = {
                "op": "transition",
                "job_id": job_id,
                "state": state.value,
                "error": error,
            }
            job.state = state
            job.error = error
            if attempts is not None:
                job.attempts = record["attempts"] = attempts
            if not_before is not None:
                job.not_before = record["not_before"] = not_before
            if state is JobState.RUNNING:
                job.started_at = record["started_at"] = now
                job.worker = record["worker"] = worker
                job.lease_until = record["lease_until"] = float(
                    lease_until or 0.0
                )
            elif job.worker is not None or job.lease_until:
                # Leaving running (requeue or terminal): drop the claim.
                job.worker = record["worker"] = None
                job.lease_until = record["lease_until"] = 0.0
            if state is JobState.QUEUED and job.cancel_requested:
                # A requeued job keeps its durable cancel flag so the
                # next claimer cancels it promptly — but terminal
                # states already honored it.
                record["cancel_requested"] = True
            if state.terminal:
                job.finished_at = record["finished_at"] = now
            self._append(record)
            return job

    def heartbeat(self, job_id: str, worker: str, lease_until: float) -> Job:
        """Extend a running job's lease (ownership checked by caller)."""
        with self.exclusive():
            job = self.get(job_id)
            job.lease_until = float(lease_until)
            self._append(
                {"op": "lease", "job_id": job_id, "worker": worker,
                 "lease_until": float(lease_until)}
            )
            return job

    def request_cancel(self, job_id: str) -> bool:
        """Durably flag a job for cooperative cancellation.

        Works across processes: the claiming worker catches up with
        the store and reads the flag between points.  True when the
        flag was set, False when the job had already reached a terminal
        state.
        """
        with self.exclusive():
            job = self.get(job_id)
            if job.state.terminal:
                return False
            job.cancel_requested = True
            self._append({"op": "cancel_request", "job_id": job_id})
            return True

    def coalesce(
        self, job_id: str, leader_id: str, result: dict, now: float = 0.0
    ) -> Job:
        """Complete a *queued* duplicate with its leader's result.

        This is the one sanctioned queued->done edge — it bypasses
        :func:`check_transition` deliberately because no execution ever
        happened for this submission; the WAL records the leader so the
        provenance survives recovery.
        """
        with self.exclusive():
            job = self.get(job_id)
            if job.state is not JobState.QUEUED:
                raise JobStateError(
                    job_id, job.state.value, "done (coalesced)"
                )
            job.state = JobState.DONE
            job.result = result
            job.coalesced_with = leader_id
            job.finished_at = now
            job.error = None
            self._append(
                {"op": "coalesce", "job_id": job_id, "leader": leader_id,
                 "result": result, "finished_at": now}
            )
            return job

    def checkpoint(self, job_id: str, key: str, payload: str) -> None:
        with self.exclusive():
            job = self.get(job_id)
            job.checkpoints[key] = payload
            self._append(
                {"op": "checkpoint", "job_id": job_id,
                 "key": key, "payload": payload}
            )

    def set_result(self, job_id: str, result: dict) -> None:
        with self.exclusive():
            job = self.get(job_id)
            job.result = result
            self._append(
                {"op": "result", "job_id": job_id, "result": result}
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            # Always catch up first: another process may have
            # transitioned (or submitted) this job since we last
            # looked, and status polls come through here.
            self._sync_view()
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            return job

    def jobs(self, *states: JobState) -> list[Job]:
        """All jobs (optionally filtered by state), in submission order."""
        with self._lock:
            self._sync_view()
            out = self._jobs.values()
            if states:
                # Filter before sorting: the store keeps every finished
                # job, and the scheduler asks for the few queued or
                # running ones several times per claim, under the lock.
                out = [j for j in out if j.state in states]
            return sorted(out, key=lambda j: j.seq)

    def counts(self) -> dict[str, int]:
        with self._lock:
            self._sync_view()
            out = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                out[job.state.value] += 1
            return out
