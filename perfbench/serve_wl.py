"""The ``serve`` workload: jobs served by ``repro serve --workers 1``.

The server runs on localhost with its default durable store (WAL with
fsync), leased claims and one worker subprocess.  Before the window it
is pre-warmed with every job of the pool.  Two client threads serve one
seeded list of *rounds* in a closed loop.  A round is two requests, one
per thread: the first thread submits, the second submits once the first
has, and each polls its job's status every ~10 ms, then fetches the
result and checks its ``result_digest`` against ``expected/serve.json``;
the next round starts when both are verified.  An operation is one
served job, timed from submit to verified result.  The list comes in
passes of identical work, and a run stops only between passes.

Every request has a deadline and every HTTP call a timeout, and the
server's whole process group (server and worker) is torn down at the
end, with SIGKILL after a grace period, so a hang shows as failed
operations instead of a stuck run or orphaned processes.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from harness import HERE, WORK, Window, percentile, proc_peak_rss_mb
from repro.exec.cache import result_digest
from repro.serve.client import ServeClient

EXPECTED = HERE / "expected" / "serve.json"
PARADIGMS = ("inf-s", "in-l3", "near-l3", "base")
SCALES = (0.02, 0.03, 0.04, 0.05)
CAMPAIGN_JOB = {"kind": "campaign", "figure": "fig02", "scale": 0.05}
#: untimed; outside the pool, so no measured request coalesces with it
WARM_UP_JOB = {
    "kind": "workload",
    "workload": "stencil1d",
    "paradigm": "inf-s",
    "scale": 0.01,
}
#: per pass over the pool: every TWIN_EVERY-th job of the sorted pool,
#: from TWIN_OFFSET on, also gets a twin round, and CAMPAIGN_ROUNDS twin
#: rounds of the campaign job join in.  The offset makes every twin a
#: cheap job, so that no job stands several times in a pass's tail: a
#: twinned slow job (mlp under inf-s, conv3d) fills much of p90's rank
#: band, and p90 then follows that one job's speed.
TWIN_EVERY = 8
TWIN_OFFSET = 3
CAMPAIGN_ROUNDS = 2
PASSES = 200
CLIENTS = 2
#: set-ups timed for ``setup_s``; fewer than in-process probes, as each
#: spawns two interpreters and serves a job
SETUP_REPEATS = 7
POLL_INTERVAL = 0.01
HTTP_TIMEOUT = 5.0
REQUEST_DEADLINE = 30.0
START_TIMEOUT = 60.0
STOP_GRACE = 15.0


def spec_key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True)


def load_expected() -> dict[str, str]:
    """spec key -> expected ``result_digest``."""
    return json.loads(EXPECTED.read_text())


def workload_jobs(names) -> list[dict]:
    """One workload job per (workload, paradigm) pair of the registered
    workload *names*, the scales assigned as a Latin square: each
    workload runs at every scale under some paradigm, and each paradigm
    at every scale for some workload."""
    return [
        {"kind": "workload", "workload": name, "paradigm": paradigm,
         "scale": SCALES[(w + p) % len(SCALES)]}
        for w, name in enumerate(sorted(names))
        for p, paradigm in enumerate(PARADIGMS)
    ]


def pool_rounds(pool: list[dict]) -> list[tuple[dict, ...]]:
    """One pass of rounds over *pool*, in a fixed order.

    The sorted pool is cut in half and job ``i`` of the first half is
    paired with job ``i`` of the second, which puts each paradigm of the
    first half (base, in-l3) with one of the second (inf-s, near-l3).
    Every :data:`TWIN_EVERY`-th job from :data:`TWIN_OFFSET` on also
    gets a twin round (the same job twice, which the scheduler may
    coalesce), and the campaign job gets :data:`CAMPAIGN_ROUNDS` twin
    rounds.
    """
    half = (len(pool) + 1) // 2
    rounds = [tuple(pool[i::half]) for i in range(half)]
    rounds += [(spec, spec) for spec in pool[TWIN_OFFSET::TWIN_EVERY]]
    rounds += [(CAMPAIGN_JOB, CAMPAIGN_JOB)] * CAMPAIGN_ROUNDS
    return rounds


def request_passes(seed: int, pool: list[dict],
                   passes: int = PASSES) -> list[list[tuple[dict, ...]]]:
    """The seeded request list, as passes of identical work.

    Every pass holds the rounds of :func:`pool_rounds`; the seed orders
    them.  The pairs are fixed, so that every pass, whatever the seed,
    serves the same jobs side by side and each job waits behind the
    same partner; with free-running clients, which cheap jobs queue
    behind the ~0.5 s ones is drawn afresh every run, and p90 moves
    with that draw.  Runs stop only at a pass boundary, so every run
    serves the same mix.
    """
    rng = random.Random(seed)
    rounds = pool_rounds(pool)
    out = []
    for _ in range(passes):
        rng.shuffle(rounds)
        out.append([tuple(dict(spec) for spec in r) for r in rounds])
    return out


def workload_pool(expected: dict[str, str]) -> list[dict]:
    specs = [json.loads(key) for key in sorted(expected)]
    return [s for s in specs if s["kind"] == "workload"]


# ----------------------------------------------------------------------
# The server's lifetime
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --workers 1`` process group, via the launcher."""

    def __init__(self, name: str, trace_out: Path | None = None) -> None:
        self.store = WORK / name
        self.trace_out = trace_out
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None
        self._lines: list[str] = []
        self._ready = threading.Event()
        self._reader: threading.Thread | None = None

    def start(self) -> None:
        """Spawn, wait for the port and ``/healthz``; bounded by
        :data:`START_TIMEOUT`."""
        shutil.rmtree(self.store, ignore_errors=True)
        self.store.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--", "serve", "--workers", "1", "--port", "0",
                "--dir", str(self.store)]
        with open(self.store.with_suffix(".log"), "w") as log:
            self.proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT):
            raise RuntimeError(f"server did not report its port: {self._lines}")
        ServeClient(self.url, timeout=HTTP_TIMEOUT).wait_until_healthy(
            timeout=START_TIMEOUT
        )

    def _read_stdout(self) -> None:
        for line in self.proc.stdout:
            self._lines.append(line.strip())
            if line.startswith("serving on "):
                self.url = line.split()[2]
                self._ready.set()

    def worker_pids(self) -> list[int]:
        pids = []
        for children in Path(f"/proc/{self.proc.pid}/task").glob("*/children"):
            try:
                pids += [int(p) for p in children.read_text().split()]
            except OSError:
                pass
        return pids

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server plus its worker."""
        pids = [self.proc.pid, *self.worker_pids()]
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def wal_bytes(self) -> int:
        return sum(
            p.stat().st_size for p in self.store.iterdir() if p.is_file()
        )

    def stop(self) -> None:
        """SIGTERM the process group, SIGKILL it after the grace period,
        and wait until the server and its worker have ended."""
        if self.proc is None or self.proc.returncode is not None:
            return
        workers = self.worker_pids()
        _signal_group(self.proc.pid, signal.SIGTERM)
        try:
            self.proc.wait(STOP_GRACE)
        except subprocess.TimeoutExpired:
            _signal_group(self.proc.pid, signal.SIGKILL)
            self.proc.wait(STOP_GRACE)
        _signal_group(self.proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + STOP_GRACE
        while any(_alive(pid) for pid in workers):
            if time.monotonic() > deadline:
                raise RuntimeError(f"worker processes {workers} did not end")
            time.sleep(0.05)
        # The pipe reaches EOF once the server and its worker are gone.
        self._reader.join(STOP_GRACE)
        self.proc.stdout.close()
        shutil.rmtree(self.store, ignore_errors=True)
        self.store.with_suffix(".log").unlink(missing_ok=True)


def _signal_group(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def _alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
#: the client's round trips, one span layer per call, in traced runs
CLIENT_CALLS = {
    "serve.submit": ("repro.serve.client:ServeClient.submit",),
    "serve.status": ("repro.serve.client:ServeClient.status",),
    "serve.result": ("repro.serve.client:ServeClient.result",),
}


@dataclass
class JobTrace:
    """What the job's status told the client about it."""

    queue_wait_s: float | None = None
    execute_s: float | None = None
    notify_s: float | None = None
    coalesced: bool = False


def serve_request(client, spec: dict, want: str | None, deadline: float,
                  on_submit=lambda: None):
    """Submit, wait for, fetch and verify one job before *deadline*
    (a ``time.perf_counter`` value); *on_submit* is called once the
    submission has returned or failed.

    Returns ``(ok, note, trace)``; never raises for a server fault.
    """
    trace = JobTrace()
    try:
        try:
            job_id = client.submit(spec)
        finally:
            on_submit()
        status = client.wait(
            job_id,
            timeout=max(0.0, deadline - time.perf_counter()),
            poll_interval=POLL_INTERVAL,
        )
        seen = time.time()
        if status["state"] != "done":
            return False, f"job {job_id} {status['state']}: {status['error']}", trace
        result = client.result(job_id)
    except Exception as exc:  # noqa: BLE001 — a server fault fails the op
        return False, f"{type(exc).__name__}: {exc}", trace
    trace.coalesced = bool(status.get("coalesced_with"))
    finished = status["finished_at"]
    if status.get("started_at") is not None and not trace.coalesced:
        trace.queue_wait_s = status["started_at"] - status["submitted_at"]
        trace.execute_s = finished - status["started_at"]
    trace.notify_s = seen - finished
    digest = result_digest(result)
    if digest != want:
        return False, f"{spec_key(spec)}: result digest {digest[:12]} != expected", trace
    return True, "", trace


class Clients:
    """:data:`CLIENTS` client threads of one server, serving rounds.

    :meth:`run` serves a list of rounds to its end.  In each round,
    thread ``k`` serves request ``k``, submitting it once thread
    ``k - 1`` has submitted its own, so the worker always takes them in
    that order; the next round starts when every request of this one is
    verified or has failed.  The window and job traces accumulate over
    calls.
    """

    def __init__(self, url: str, expected: dict[str, str],
                 recorder=None) -> None:
        self.url = url
        self.expected = expected
        self.recorder = recorder
        self.window = Window()
        self.traces: list[JobTrace] = []
        self._issued = 0
        self._lock = threading.Lock()

    def run(self, rounds: list[tuple[dict, ...]]) -> None:
        t_start = time.perf_counter()
        turns = [[threading.Event() for _ in range(CLIENTS)] for _ in rounds]
        barrier = threading.Barrier(CLIENTS, timeout=2 * REQUEST_DEADLINE)
        threads = [
            threading.Thread(target=self._client_loop,
                             args=(k, rounds, turns, barrier), daemon=True)
            for k in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.window.seconds += time.perf_counter() - t_start

    def _client_loop(self, k: int, rounds, turns, barrier) -> None:
        client = ServeClient(self.url, timeout=HTTP_TIMEOUT)
        for requests, events in zip(rounds, turns):
            if k < len(requests):
                if k:
                    events[k - 1].wait(REQUEST_DEADLINE)
                self._serve(client, requests[k], events[k].set)
            else:
                events[k].set()
            barrier.wait()

    def _serve(self, client, spec: dict, on_submit) -> None:
        with self._lock:
            op_id = self._issued
            self._issued += 1
        t0 = time.perf_counter()
        args = (client, spec, self.expected.get(spec_key(spec)),
                t0 + REQUEST_DEADLINE, on_submit)
        if self.recorder is None:
            ok, note, trace = serve_request(*args)
        else:
            ok, note, trace = self.recorder.operation(op_id, serve_request, *args)
        latency = time.perf_counter() - t0
        with self._lock:
            self.traces.append(trace)
            if ok:
                self.window.record(latency, ok=True)
            else:
                self.window.fail(note)


def prewarm(url: str, pool: list[dict], expected: dict[str, str]) -> None:
    """Serve one pass of rounds (every job of the pool and the campaign
    job), untimed, so that the window sees the server in its steady
    state: the worker's compile cache holds every job's kernels, as in
    a server that has been up for a while."""
    clients = Clients(url, expected)
    clients.run(pool_rounds(pool))
    if clients.window.failed:
        raise RuntimeError(f"pre-warm failed: {clients.window.notes}")


def warm_up(url: str) -> None:
    """One untimed job, waited for within the request deadline."""
    client = ServeClient(url, timeout=HTTP_TIMEOUT)
    job_id = client.submit(WARM_UP_JOB)
    status = client.wait(job_id, timeout=REQUEST_DEADLINE, poll_interval=POLL_INTERVAL)
    if status["state"] != "done":
        raise RuntimeError(f"warm-up job {status['state']}: {status['error']}")


def client_metrics(traces: list[JobTrace], recorder, wal_bytes: int) -> dict:
    """The client-side serve.* per-layer metrics: round trips from the
    recorder's spans, waits from the jobs' timestamps; *wal_bytes* is
    the job store's size at the end of the window."""

    def mean(values):
        values = [v for v in values if v is not None]
        return sum(values) / len(values) if values else 0.0

    def p90(values):
        values = [v for v in values if v is not None]
        return percentile(values, 0.9, band=0.025) if values else 0.0

    calls = {layer: recorder.durations(layer) for layer in CLIENT_CALLS}
    done = [t for t in traces if t.notify_s is not None]
    queue = [t.queue_wait_s for t in done]
    execute = [t.execute_s for t in done]
    jobs = len(traces) or 1
    return {
        "serve.submit_s": mean(calls["serve.submit"]),
        "serve.status_s": mean(calls["serve.status"]),
        "serve.result_s": mean(calls["serve.result"]),
        "serve.queue_wait_s": mean(queue),
        "serve.queue_wait_p90_s": p90(queue),
        "serve.execute_s": mean(execute),
        "serve.execute_p90_s": p90(execute),
        "serve.notify_s": mean(t.notify_s for t in done),
        "serve.polls_per_job": len(calls["serve.status"]) / jobs,
        "serve.coalesce_frac": (
            sum(t.coalesced for t in done) / len(done) if done else 0.0
        ),
        "serve.wal_bytes_per_job": wal_bytes / jobs,
    }


def server_metrics(path: Path) -> dict:
    """Per-call means of the launcher's server-side timings.

    If the launcher wrote no timings (it was killed before it could),
    the three metrics read +inf, which marks the run incorrect rather
    than reporting a zero that looks like a gain.
    """
    try:
        totals = json.loads(path.read_text())
    except (OSError, ValueError):
        totals = None
    out = {}
    for name in ("admit", "store_get", "lock_wait"):
        if totals is None:
            out[f"serve.{name}_s"] = math.inf
            continue
        calls, seconds = totals.get(name, (0, 0.0))
        out[f"serve.{name}_s"] = seconds / calls if calls else 0.0
    return out
