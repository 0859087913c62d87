#!/usr/bin/env python3
"""Serve-fleet load test: concurrent HTTP submissions, p50/p99, jobs/sec.

Drives the ``repro.serve`` HTTP API the way the ROADMAP's "millions of
users" north star implies: thousands of concurrent submissions from
mixed tenants, duplicate-heavy (the coalescing-friendly shape of real
reproduction traffic, where many users ask for the same figure), drained
by an N-process worker fleet under lease-based claims.  Maintains the
committed ``benchmarks/BENCH_serve.json`` baseline that CI gates
against.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python -m benchmarks.bench_serve                      # measure + report
    python -m benchmarks.bench_serve --update benchmarks/BENCH_serve.json
    python -m benchmarks.bench_serve --check benchmarks/BENCH_serve.json

Two trials per measurement: the fleet (``WORKERS`` = 3) and a
single-worker baseline, over identical traffic.  Latency per job is
``finished_at - submitted_at`` from the server's own clock (no polling
quantization); throughput is completed jobs over the span from first
submission to last completion, worker-process startup included.

``--check`` re-measures and fails (exit 1) when either

* the fleet's calibrated jobs/sec drops more than ``gate.TOLERANCE``
  (25 %) below the baseline (rescaled by the calibration-loop ratio
  first, see ``benchmarks/gate.py``), or
* the fleet no longer beats the single-worker trial on jobs/sec — a
  machine-speed-independent invariant, since both trials share a run.
  Jobs are CPU-bound, so this only holds where there are CPUs to
  scale onto: on a single-core machine the fleet *cannot* win (three
  processes share the core the one worker had to itself), and the
  invariant degrades to a coordination-overhead bound — the fleet must
  keep at least 60% of the single worker's throughput, which still
  catches lock- or lease-machinery regressions (those crater fleet
  throughput first).

Every run additionally hard-fails unless duplicate submissions were
actually coalesced (hit-rate > 0) and every submitter of a duplicate
received a byte-identical result.  Latency (p50/p99) is reported and
recorded, not gated.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time

from repro.serve.client import ServeClient

from benchmarks import gate

SUBMISSIONS = 2000
#: fraction of submissions that duplicate another
DUPLICATE_FRAC = 0.85
TENANTS = 4
#: concurrent HTTP submitter threads
THREADS = 24
#: fleet size for the fleet trial
WORKERS = 3
SEED = 0
PROTOCOL = {
    "version": 1,
    "submissions": SUBMISSIONS,
    "duplicate_frac": DUPLICATE_FRAC,
    "tenants": TENANTS,
    "threads": THREADS,
    "seed": SEED,
    "workloads": list(gate.WORKLOADS),
    "scales": list(gate.SCALES),
}


def build_traffic() -> list[tuple[dict, str]]:
    """(spec, tenant) per submission: duplicate-heavy, mixed tenants."""
    rng = random.Random(SEED)
    distinct = round(SUBMISSIONS * (1.0 - DUPLICATE_FRAC))
    pool = [gate.grid_spec(i) for i in range(distinct)]
    traffic = [
        (dict(pool[i % len(pool)]), f"tenant-{rng.randrange(TENANTS)}")
        for i in range(SUBMISSIONS)
    ]
    rng.shuffle(traffic)
    return traffic


def run_trial(workers: int, traffic) -> dict:
    """One load-test trial against a fresh store; its summary row."""
    with gate.ServeStack(workers) as stack:
        return _drive(workers, traffic, stack)


def _drive(workers: int, traffic, stack: gate.ServeStack) -> dict:
    # Warm up before measuring: distinct throwaway jobs (scales outside
    # the measured grid, so nothing coalesces against them) prove the
    # worker processes are imported, polling, and compiling.
    warm = ServeClient(stack.base_url, timeout=60.0)
    warm_ids = [
        warm.submit(
            {
                "kind": "workload",
                "workload": "stencil1d",
                "paradigm": "inf-s",
                "scale": 0.031 + i * 1e-4,
                "system": "small-test",
            }
        )
        for i in range(workers)
    ]
    for wid in warm_ids:
        warm.wait(wid, timeout=120.0)

    job_ids: list[str | None] = [None] * len(traffic)
    errors: list[str] = []
    cursor = iter(range(len(traffic)))
    cursor_lock = threading.Lock()

    def submitter() -> None:
        client = ServeClient(stack.base_url, timeout=60.0)
        while True:
            with cursor_lock:
                i = next(cursor, None)
            if i is None:
                return
            spec, tenant = traffic[i]
            # Transient connection drops (accept-queue overflow under
            # burst) are part of load testing, not a benchmark failure:
            # retry a few times before recording an error.
            for attempt in range(4):
                try:
                    job_ids[i] = client.submit(spec, tenant=tenant)
                    break
                except Exception as exc:  # noqa: BLE001 — tally below
                    if attempt == 3:
                        errors.append(f"submit[{i}]: {exc}")
                    else:
                        time.sleep(0.1 * (attempt + 1))

    threads = [
        threading.Thread(target=submitter, daemon=True)
        for _ in range(THREADS)
    ]
    t_begin = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    submit_wall = time.perf_counter() - t_begin
    if errors:
        raise SystemExit(f"{len(errors)} submissions failed: {errors[:3]}")

    stack.drain()
    service = stack.service
    jobs = {j.job_id: j for j in service.store.jobs()}
    done = [jobs[jid] for jid in job_ids if jid and jobs[jid].result]
    failed = [
        jobs[jid] for jid in job_ids if jid and jobs[jid].state.value != "done"
    ]
    if failed:
        raise SystemExit(
            f"{len(failed)} jobs did not complete: "
            f"{[(j.job_id, j.state.value, j.error) for j in failed[:3]]}"
        )

    latencies = sorted(j.finished_at - j.submitted_at for j in done)
    span = max(j.finished_at for j in done) - min(
        j.submitted_at for j in done
    )
    stats = service.fleet_stats()

    # Coalescing correctness: every submitter of the same spec must hold
    # a byte-identical result.
    groups: dict[str, str] = {}
    mismatches = 0
    for j in done:
        key = json.dumps(j.spec, sort_keys=True)
        blob = json.dumps(j.result, sort_keys=True)
        if groups.setdefault(key, blob) != blob:
            mismatches += 1

    def pct(p: float) -> float:
        return latencies[min(len(latencies) - 1, int(p * len(latencies)))]

    row = {
        "workers": workers,
        "jobs": len(done),
        "wall_seconds": round(span, 3),
        "submit_wall_seconds": round(submit_wall, 3),
        "jobs_per_sec": round(len(done) / span, 2) if span else None,
        "p50_latency_seconds": round(pct(0.50), 3),
        "p99_latency_seconds": round(pct(0.99), 3),
        "executed": stats["executed"],
        "coalesce_hits": stats["coalesce_hits"],
        "coalesce_hit_rate": round(stats["coalesce_hit_rate"], 4),
        "result_mismatches": mismatches,
    }

    return row


def verify(row: dict) -> list[str]:
    problems = []
    if row["result_mismatches"]:
        problems.append(
            f"{row['result_mismatches']} duplicate submitters got "
            "non-identical results"
        )
    if row["coalesce_hits"] <= 0:
        problems.append("duplicate-heavy traffic produced no coalescing hits")
    return problems


def _report(label: str, row: dict) -> None:
    print(
        f"{label:<7} {row['workers']}w  {row['jobs']:>5} jobs  "
        f"{row['jobs_per_sec']:>8} jobs/s  "
        f"p50 {row['p50_latency_seconds'] * 1e3:9.1f}ms  "
        f"p99 {row['p99_latency_seconds'] * 1e3:9.1f}ms  "
        f"coalesced {row['coalesce_hits']} "
        f"({row['coalesce_hit_rate']:.0%})",
        flush=True,
    )


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
def compare(
    base: dict, calibration: float, fleet: dict, single: dict
) -> list[str]:
    cal_ratio = calibration / base["calibration_seconds"]
    # A slower machine (cal_ratio > 1) is allowed proportionally lower
    # throughput before the tolerance band applies.
    band = 1.0 - gate.TOLERANCE
    floor = base["fleet"]["jobs_per_sec"] / cal_ratio * band
    print(
        f"fleet {fleet['jobs_per_sec']:.2f} jobs/s; calibrated floor "
        f"{floor:.2f} (baseline {base['fleet']['jobs_per_sec']:.2f} "
        f"/ cal {cal_ratio:.2f} x {band:.2f})"
    )
    failures = []
    if fleet["jobs_per_sec"] < floor:
        failures.append(
            f"fleet throughput regression: {fleet['jobs_per_sec']:.2f} "
            f"< {floor:.2f} jobs/s (-{gate.TOLERANCE:.0%} band)"
        )
    cpus = gate.cpus()
    if cpus > 1 and fleet["jobs_per_sec"] <= single["jobs_per_sec"]:
        failures.append(
            f"fleet no longer beats single worker on {cpus} CPUs: "
            f"{fleet['jobs_per_sec']:.2f} <= {single['jobs_per_sec']:.2f} "
            "jobs/s"
        )
    elif cpus <= 1 and fleet["jobs_per_sec"] < 0.6 * single["jobs_per_sec"]:
        failures.append(
            "fleet coordination overhead regression (1 CPU): "
            f"{fleet['jobs_per_sec']:.2f} < 0.6 x "
            f"{single['jobs_per_sec']:.2f} jobs/s"
        )
    return failures


def main() -> int:
    args = gate.parser(__doc__).parse_args()
    calibration = gate.calibrate()
    print(
        f"calibration {calibration * 1e3:.1f}ms  "
        f"{SUBMISSIONS} submissions  "
        f"{DUPLICATE_FRAC:.0%} duplicates  {TENANTS} tenants  "
        f"{THREADS} threads"
    )
    traffic = build_traffic()
    fleet = run_trial(WORKERS, traffic)
    _report("fleet", fleet)
    single = run_trial(1, traffic)
    _report("single", single)
    print(
        f"speedup {fleet['jobs_per_sec'] / single['jobs_per_sec']:.2f}x "
        f"({WORKERS} workers vs 1, {gate.cpus()} CPUs)"
    )
    payload = {
        "protocol": PROTOCOL,
        "cpu_count": gate.cpus(),
        "calibration_seconds": round(calibration, 4),
        "fleet": fleet,
        "single": single,
        "fleet_speedup_vs_single": round(
            fleet["jobs_per_sec"] / single["jobs_per_sec"], 2
        ),
    }
    if payload["cpu_count"] <= 1:
        print(
            "note: single-CPU machine — the CPU-bound job mix cannot "
            "scale across workers here; the speedup measures fleet "
            "coordination overhead, not parallelism"
        )
        payload["note"] = (
            "recorded on a single-CPU machine: the CPU-bound job mix "
            "cannot scale across worker processes, so the speedup "
            "reflects fleet coordination overhead; on multi-core "
            "machines the check requires fleet > single"
        )
    problems = [f"fleet: {p}" for p in verify(fleet)] + [
        f"single: {p}" for p in verify(single)
    ]
    return gate.conclude(
        args, "serve throughput", payload, ("protocol",), problems,
        lambda base: compare(base, calibration, fleet, single),
    )


if __name__ == "__main__":
    sys.exit(main())
