"""What the benchmark gates share: calibrate, measure, write or check.

A gate measures one workload, then records the result as a committed
baseline (``--update PATH``) or compares the result with it (``--check
PATH``; exit 1 on a regression).  The gates ``bench_campaign``,
``bench_compile_time``, ``bench_serve`` and ``bench_replay`` use this
module; run each from the repository root as a module, e.g.::

    PYTHONPATH=src python -m benchmarks.bench_serve \\
        --check benchmarks/BENCH_serve.json

Raw seconds are not comparable across machines.  The compile, serve and
replay gates time a fixed pure-python loop (:func:`calibrate`) when they
record and when they check, and rescale the baseline by the ratio; the
campaign gate reads perfbench's rate at its reference speed instead.  A
baseline that is absent, or that was recorded under another protocol,
skips the comparison (exit 0), so a gate can land before its baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro.serve.client import ServeClient
from repro.serve.http import make_server
from repro.serve.scheduler import SchedulerConfig
from repro.serve.service import ReproService

#: a gated quantity may worsen by this fraction before its gate fails
TOLERANCE = 0.25

#: the distinct jobs the serve and replay gates submit: registered
#: zoo/Table-3 workloads at smoke scales, cheap enough to push
#: thousands of submissions through, real enough to exercise compile +
#: simulate per execution
WORKLOADS = ("stencil1d", "mm", "spmv", "attention", "mlp")
SCALES = (0.04, 0.05, 0.06)

#: how long a serve stack may take to finish its queued work
DRAIN_TIMEOUT_S = 900.0
#: a serve stack's admission cap: above any gate's backlog
MAX_QUEUED = 20_000


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-python loop: the machine-speed yardstick."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * 3 % 7
        best = min(best, time.perf_counter() - t0)
    return best


def cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def grid_spec(i: int) -> dict:
    """The *i*-th distinct job of the workload x scale grid.

    Past the grid's last cell the scale is nudged by 1e-4 per lap, so
    every index is a distinct execution.
    """
    workload = WORKLOADS[i % len(WORKLOADS)]
    scale = SCALES[(i // len(WORKLOADS)) % len(SCALES)]
    return {
        "kind": "workload",
        "workload": workload,
        "paradigm": "inf-s",
        "scale": scale + (i // (len(WORKLOADS) * len(SCALES))) * 1e-4,
        "system": "small-test",
    }


class ServeStack:
    """A serve stack (service + HTTP server) on a throwaway store, with
    *workers* worker processes (0: one in-process worker thread)."""

    def __init__(self, workers: int) -> None:
        self.root = Path(tempfile.mkdtemp(prefix=f"bench_gate_{workers}w_"))
        self.service = ReproService(
            root=str(self.root),
            config=SchedulerConfig(
                max_queued=MAX_QUEUED,
                max_running=max(workers, 1),
                lease_duration=60.0,
            ),
            jobs=1,
            fsync=False,
            workers=workers,
        )
        self.httpd = make_server(self.service, port=0)
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()
        host, port = self.httpd.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        self.service.start()
        try:
            ServeClient(self.base_url, timeout=60.0).wait_until_healthy(
                timeout=30.0
            )
        except BaseException:
            self.stop()
            raise

    def drain(self) -> None:
        """Wait until nothing is queued or running: the store's counts
        are authoritative and cheap to poll."""
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while time.monotonic() < deadline:
            counts = self.service.store.counts()
            if counts["queued"] + counts["running"] == 0:
                return
            time.sleep(0.2)
        raise SystemExit(
            f"drain timeout: {self.service.store.counts()} after "
            f"{DRAIN_TIMEOUT_S:.0f}s"
        )

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.shutdown()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "ServeStack":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Baseline handling
# ----------------------------------------------------------------------
def parser(doc: str) -> argparse.ArgumentParser:
    """A gate's command line: ``--update`` and ``--check``."""
    ap = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    ap.add_argument("--update", type=Path, help="write the baseline JSON here")
    ap.add_argument("--check", type=Path, help="compare against this baseline")
    return ap


def _load_baseline(path: Path, payload: dict, keys: tuple) -> dict | None:
    """The baseline at *path*, or None (saying why) when it is absent or
    differs from this run's *payload* in any of the protocol *keys*."""
    if not path.exists():
        print(f"no baseline at {path}; skipping regression check")
        return None
    base = json.loads(path.read_text())
    differ = {k: base.get(k) for k in keys if base.get(k) != payload[k]}
    if differ:
        print(
            f"baseline was recorded under a different protocol ({differ}); "
            "skipping regression check"
        )
        return None
    return base


def _failed(problems: list[str]) -> bool:
    for problem in problems:
        print(f"FAIL: {problem}")
    return bool(problems)


def conclude(
    args, name: str, payload: dict, keys: tuple, problems: list[str], compare
) -> int:
    """Finish a gate run; its exit code.

    *problems* are what the run found wrong by itself: any fails the
    gate before a baseline is touched.  Otherwise ``--update`` writes
    *payload* as the baseline, and ``--check`` hands the baseline
    recorded under the same protocol *keys* to *compare*, which prints
    what it measured and returns the regressions it found.
    """
    if _failed(problems):
        return 1
    if args.update:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        args.update.write_text(text)
        print(f"baseline written to {args.update}")
    if args.check:
        base = _load_baseline(args.check, payload, keys)
        if base is not None:
            if _failed(compare(base)):
                return 1
            print(f"{name} regression check passed")
    return 0
