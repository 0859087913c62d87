#!/usr/bin/env python3
"""Replay-driven load test: recorded-session traffic + 1x diff gate.

Where ``bench_serve.py`` drives the fleet with a hand-rolled submission
loop, this benchmark sources its traffic from a *recorded session* —
the same artifact production monitoring would hand us — and measures
the whole record/replay loop end to end:

1. **Record** — a fresh single-worker stack executes a grid of distinct
   workload specs submitted over HTTP; the drained store is recorded
   as a session (``repro.replay.record_store``).
2. **Traffic** — a fresh ``WORKERS``-process fleet (3) is driven by
   ``ReplayEngine.drive``: the recording amplified across ``AMPLIFY``
   client threads with seeded spec mutation for cache-miss realism, no
   pacing (maximum pressure).  Throughput and submit-to-done latency
   come from the TrafficReport.
3. **Diff** — the recording is replayed 1x against the same fleet
   endpoint and every result digest must match the recording exactly
   (zero divergences): the determinism contract holds across process
   boundaries, worker fleets, and the HTTP transport.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python -m benchmarks.bench_replay                      # measure + report
    python -m benchmarks.bench_replay --update benchmarks/BENCH_replay.json
    python -m benchmarks.bench_replay --check benchmarks/BENCH_replay.json

``--check`` re-measures and fails (exit 1) when the fleet's calibrated
jobs/sec drops more than ``gate.TOLERANCE`` (25 %) below the committed
baseline (rescaled by the calibration-loop ratio first, see
``benchmarks/gate.py``).  Every run fails unconditionally on a lost or
failed request, missing coalescing or mutation, or any diff-replay
divergence.
"""

from __future__ import annotations

import sys
import time

from repro.replay import ReplayEngine, Session, record_store
from repro.serve.client import ServeClient

from benchmarks import gate

#: distinct specs in the seed recording
RECORDED = 15
#: client clones of the recording in the traffic phase
AMPLIFY = 3
#: seeded per-request mutation probability for amplified clients
MUTATE = 0.3
TENANTS = 4
#: fleet size for the traffic phase
WORKERS = 3
SEED = 0
PROTOCOL = {
    "version": 1,
    "recorded": RECORDED,
    "amplify": AMPLIFY,
    "mutate": MUTATE,
    "tenants": TENANTS,
    "workers": WORKERS,
    "seed": SEED,
    "workloads": list(gate.WORKLOADS),
    "scales": list(gate.SCALES),
}


def record_seed_session() -> Session:
    """Phase 1: run the spec grid on a single-worker stack, record it."""
    with gate.ServeStack(0) as stack:
        client = ServeClient(stack.base_url, timeout=60.0)
        for i in range(RECORDED):
            client.submit(gate.grid_spec(i), tenant=f"tenant-{i % TENANTS}")
        stack.drain()
        return record_store(
            stack.service.store,
            seeds={"mutation": SEED, "think_time": SEED},
            meta={"benchmark": "bench_replay"},
        )


def run_traffic(session: Session) -> tuple[dict, dict]:
    """Phases 2+3: amplified traffic, then the 1x diff gate, one fleet."""
    engine = ReplayEngine(session)
    with gate.ServeStack(WORKERS) as stack:
        t0 = time.perf_counter()
        traffic = engine.drive(
            stack.base_url,
            speed=0.0,  # no pacing: maximum sustained pressure
            amplify=AMPLIFY,
            mutate_frac=MUTATE,
            timeout=gate.DRAIN_TIMEOUT_S,
        )
        traffic_wall = time.perf_counter() - t0
        stack.drain()
        stats = stack.service.fleet_stats()
        diff = engine.replay(
            client=ServeClient(stack.base_url, timeout=60.0),
            timeout=gate.DRAIN_TIMEOUT_S,
        )
    row = {
        "workers": WORKERS,
        "amplify": AMPLIFY,
        "recorded_jobs": len(session.jobs),
        "submitted": traffic.submitted,
        "mutated": traffic.mutated,
        "done": traffic.done,
        "failed": traffic.failed,
        "wall_seconds": round(traffic_wall, 3),
        "jobs_per_sec": round(traffic.jobs_per_sec, 2),
        "p50_latency_seconds": round(traffic.p50_latency_s, 3),
        "p99_latency_seconds": round(traffic.p99_latency_s, 3),
        "coalesce_hits": stats["coalesce_hits"],
        "coalesce_hit_rate": round(stats["coalesce_hit_rate"], 4),
    }
    diff_row = {
        "jobs_checked": diff.jobs_checked,
        "executions": diff.executions,
        "divergences": len(diff.divergences),
    }
    first = diff.first_divergence
    if first is not None:
        diff_row["first_divergence"] = first.to_dict()
    return row, diff_row


def verify(traffic: dict, diff: dict) -> list[str]:
    problems = []
    if traffic["failed"]:
        problems.append(f"{traffic['failed']} replayed jobs failed")
    if traffic["done"] != traffic["submitted"]:
        problems.append(
            f"only {traffic['done']}/{traffic['submitted']} "
            "submissions completed"
        )
    expected = RECORDED * AMPLIFY
    if traffic["submitted"] != expected:
        problems.append(
            f"amplification lost requests: {traffic['submitted']} "
            f"submitted, expected {RECORDED} x {AMPLIFY} = {expected}"
        )
    if traffic["coalesce_hits"] <= 0:
        problems.append(
            "amplified traffic produced no coalescing hits "
            "(un-mutated clones must coalesce)"
        )
    if traffic["mutated"] <= 0:
        problems.append("mutation enabled but no request was mutated")
    if diff["divergences"]:
        problems.append(
            f"{diff['divergences']} diff-replay divergence(s); first: "
            f"{diff.get('first_divergence')}"
        )
    return problems


def compare(base: dict, calibration: float, traffic: dict) -> list[str]:
    cal_ratio = calibration / base["calibration_seconds"]
    band = 1.0 - gate.TOLERANCE
    floor = base["traffic"]["jobs_per_sec"] / cal_ratio * band
    print(
        f"replay traffic {traffic['jobs_per_sec']:.2f} jobs/s; calibrated "
        f"floor {floor:.2f} (baseline "
        f"{base['traffic']['jobs_per_sec']:.2f} / cal {cal_ratio:.2f} "
        f"x {band:.2f})"
    )
    if traffic["jobs_per_sec"] < floor:
        return [
            f"replay throughput regression: "
            f"{traffic['jobs_per_sec']:.2f} < {floor:.2f} jobs/s "
            f"(-{gate.TOLERANCE:.0%} band)"
        ]
    return []


def main() -> int:
    args = gate.parser(__doc__).parse_args()
    calibration = gate.calibrate()
    print(
        f"calibration {calibration * 1e3:.1f}ms  "
        f"{RECORDED} recorded specs  x{AMPLIFY} amplify  "
        f"{MUTATE:.0%} mutation  {WORKERS} workers"
    )
    t0 = time.perf_counter()
    session = record_seed_session()
    print(
        f"record  {len(session.jobs)} jobs -> "
        f"{session.header.session_id} "
        f"({time.perf_counter() - t0:.1f}s)",
        flush=True,
    )
    traffic, diff = run_traffic(session)
    print(
        f"traffic {traffic['workers']}w  {traffic['done']:>4} jobs  "
        f"{traffic['jobs_per_sec']:>8} jobs/s  "
        f"p50 {traffic['p50_latency_seconds'] * 1e3:9.1f}ms  "
        f"p99 {traffic['p99_latency_seconds'] * 1e3:9.1f}ms  "
        f"mutated {traffic['mutated']}  "
        f"coalesced {traffic['coalesce_hits']} "
        f"({traffic['coalesce_hit_rate']:.0%})",
        flush=True,
    )
    print(
        f"diff    {diff['jobs_checked']} checked, "
        f"{diff['executions']} executions, "
        f"{diff['divergences']} divergences",
        flush=True,
    )
    payload = {
        "protocol": PROTOCOL,
        "cpu_count": gate.cpus(),
        "calibration_seconds": round(calibration, 4),
        "traffic": traffic,
        "diff": diff,
    }
    return gate.conclude(
        args, "replay throughput", payload, ("protocol",),
        verify(traffic, diff),
        lambda base: compare(base, calibration, traffic),
    )


if __name__ == "__main__":
    sys.exit(main())
