"""Durability of the serve job store (WAL + snapshot + recovery)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.errors import JobStateError, UnknownJobError
from repro.serve.jobs import JobState, checkpoint_key, decode_point, encode_point
from repro.serve.scheduler import Scheduler, SchedulerConfig
from repro.serve.store import JobStore

SPEC = {"kind": "campaign", "figure": "fig14", "scale": 0.05}


@pytest.fixture
def store(tmp_path):
    s = JobStore(tmp_path / "serve", fsync=False)
    yield s
    s.close()


class TestBasics:
    def test_submit_assigns_stable_content_id(self, store):
        job = store.submit(SPEC, now=1.0)
        assert job.job_id.startswith("j00000-")
        assert store.get(job.job_id) is job
        other = store.submit(SPEC, now=2.0)
        # Same content, later sequence number: distinct ids.
        assert other.job_id != job.job_id
        assert other.job_id.split("-")[1] == job.job_id.split("-")[1]

    def test_jobs_listed_in_submission_order(self, store):
        ids = [store.submit(SPEC).job_id for _ in range(5)]
        assert [j.job_id for j in store.jobs()] == ids

    def test_unknown_job_raises(self, store):
        with pytest.raises(UnknownJobError):
            store.get("j99999-deadbeef")

    def test_illegal_transition_rejected(self, store):
        job = store.submit(SPEC)
        with pytest.raises(JobStateError, match="queued -> done"):
            store.transition(job.job_id, JobState.DONE)

    def test_lifecycle_and_counts(self, store):
        job = store.submit(SPEC)
        store.transition(job.job_id, JobState.RUNNING, attempts=1, now=1.0)
        assert store.counts()["running"] == 1
        store.transition(job.job_id, JobState.DONE, now=2.0)
        assert job.finished_at == 2.0
        assert store.counts() == {
            "queued": 0, "running": 0, "done": 1,
            "failed": 0, "cancelled": 0,
        }


class TestDurability:
    def test_reload_replays_wal(self, tmp_path):
        root = tmp_path / "serve"
        s1 = JobStore(root, fsync=False)
        job = s1.submit(SPEC, priority=3, now=1.5)
        s1.transition(job.job_id, JobState.RUNNING, attempts=1)
        s1.checkpoint(job.job_id, checkpoint_key("fig14", 0), encode_point(42))
        s1.transition(job.job_id, JobState.QUEUED, not_before=9.0)
        s1.close()

        s2 = JobStore(root, fsync=False)
        reloaded = s2.get(job.job_id)
        assert reloaded.state is JobState.QUEUED
        assert reloaded.priority == 3
        assert reloaded.not_before == 9.0
        assert decode_point(reloaded.checkpoints["fig14:0"]) == 42
        s2.close()

    def test_leaseless_running_job_reclaimed_at_first_claim(self, tmp_path):
        """A running job without a lease (``lease_until`` 0, as a worker
        that claimed without one leaves it) stays running at load and is
        reclaimed by the first claim: its checkpoints survive, and the
        interrupted attempt is not refunded."""
        root = tmp_path / "serve"
        s1 = JobStore(root, fsync=False)
        job = s1.submit(SPEC)
        s1.transition(job.job_id, JobState.RUNNING, attempts=1)
        s1.checkpoint(job.job_id, "fig14:0", encode_point("partial"))
        s1.close()  # worker "dies" without a terminal transition

        s2 = JobStore(root, fsync=False)
        loaded = s2.get(job.job_id)
        assert loaded.state is JobState.RUNNING  # loading requeues nothing
        assert loaded.lease_until == 0.0
        claimed = Scheduler(s2, SchedulerConfig()).claim_next(1.0, "w1")
        assert claimed is loaded
        assert claimed.state is JobState.RUNNING
        assert claimed.worker == "w1" and claimed.lease_until > 1.0
        assert claimed.attempts == 2
        assert decode_point(claimed.checkpoints["fig14:0"]) == "partial"
        assert "lease expired (worker None" in (root / "wal.jsonl").read_text()
        s2.close()

    def test_torn_wal_tail_is_ignored(self, tmp_path):
        root = tmp_path / "serve"
        s1 = JobStore(root, fsync=False)
        a = s1.submit(SPEC)
        b = s1.submit(SPEC)
        s1.close()
        with open(root / "wal.jsonl", "a") as fh:
            fh.write('{"op": "transition", "job_id": "' + a.job_id)  # torn

        s2 = JobStore(root, fsync=False)
        assert {j.job_id for j in s2.jobs()} == {a.job_id, b.job_id}
        # New appends after recovery still work.
        s2.transition(a.job_id, JobState.RUNNING, attempts=1)
        s2.close()

    def test_open_sweeps_orphaned_temp_files(self, tmp_path):
        """Temp files of killed writers go when a store opens; the claim
        file of a live process stays."""
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout)
        root = tmp_path / "serve"
        root.mkdir()
        orphans = [
            root / "tmp1a2b.snap.tmp",
            root / "tmp3c4d.epoch.tmp",
            root / f"store.lock.{dead_pid}-{'00' * 8}.tmp",
        ]
        live = root / f"store.lock.{os.getpid()}-{'11' * 8}.tmp"
        for path in (*orphans, live):
            path.write_text("x")
        JobStore(root, fsync=False).close()
        assert [p.name for p in orphans if p.exists()] == []
        assert live.exists()

    def test_compact_folds_wal_into_snapshot(self, tmp_path):
        root = tmp_path / "serve"
        s1 = JobStore(root, fsync=False)
        job = s1.submit(SPEC)
        s1.transition(job.job_id, JobState.RUNNING, attempts=1)
        s1.set_result(job.job_id, {"ok": True})
        s1.transition(job.job_id, JobState.DONE)
        s1.compact()
        assert (root / "snapshot.json").exists()
        assert (root / "wal.jsonl").stat().st_size == 0
        snap = json.loads((root / "snapshot.json").read_text())
        assert snap["jobs"][0]["state"] == "done"

        s2 = JobStore(root, fsync=False)
        assert s2.get(job.job_id).result == {"ok": True}
        # seq continues past the snapshot: no id reuse after compaction.
        assert s2.submit(SPEC).seq == job.seq + 1
        s2.close()
        s1.close()

    def test_auto_compaction_bounds_the_wal(self, tmp_path):
        s = JobStore(tmp_path / "serve", fsync=False, compact_every=10)
        for _ in range(25):
            s.submit(SPEC)
        # Two compactions happened; at most compact_every records remain.
        remaining = (tmp_path / "serve" / "wal.jsonl").read_text()
        assert len(remaining.splitlines()) < 10
        s2 = JobStore(tmp_path / "serve", fsync=False)
        assert len(s2.jobs()) == 25
        s2.close()
        s.close()
