#!/usr/bin/env python3
"""The repository benchmark: one command, three closed-loop workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {campaign,compile,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics (set-up time, verified
operations per second, p50/p90 latency, peak RSS, ok fraction).
``--trace 1`` is a separate run that wraps each layer's public calls
and reports the per-layer metrics instead, with the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a table with
units and sample counts precedes it.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import statistics
import sys
import time

from harness import (
    MIN_OPS,
    WORK,
    ProgramMissing,
    Window,
    emit,
    end_to_end,
    probe_setup,
    self_peak_rss_mb,
    use_program,
)
from reference import Reference
from spans import LAYERS, OP, SpanRecorder

WORKLOADS = ("campaign", "compile", "serve")

#: every per-layer metric, in report order: name -> unit
PER_LAYER = {
    "frontend.self_s": "s",
    "frontend.calls": "count",
    "egraph.self_s": "s",
    "egraph.calls": "count",
    "egraph.match_s": "s",
    "egraph.apply_s": "s",
    "egraph.rebuild_s": "s",
    "egraph.extract_s": "s",
    "egraph.nodes": "count",
    "egraph.iterations": "count",
    "egraph.cost": "cost",
    "egraph.budget_trips": "count",
    "backend.self_s": "s",
    "backend.calls": "count",
    "jit.self_s": "s",
    "jit.calls": "count",
    "jit.lowered": "count",
    "jit.memo_hits": "count",
    "jit.cache_hits": "count",
    "jit.commands": "count",
    "uarch.self_s": "s",
    "uarch.calls": "count",
    "models.self_s": "s",
    "models.calls": "count",
    "engine.self_s": "s",
    "engine.runs": "count",
    "cache.self_s": "s",
    "cache.lookups": "count",
    "cache.hit_frac": "fraction",
    "cache.stores": "count",
    "cache.evictions": "count",
    "pipeline.parse_s": "s",
    "pipeline.build_region_s": "s",
    "pipeline.optimize_s": "s",
    "pipeline.fatbinary_s": "s",
    "pipeline.jit_lower_s": "s",
    "serve.submit_s": "s",
    "serve.status_s": "s",
    "serve.result_s": "s",
    "serve.queue_wait_s": "s",
    "serve.queue_wait_p90_s": "s",
    "serve.execute_s": "s",
    "serve.execute_p90_s": "s",
    "serve.notify_s": "s",
    "serve.polls_per_job": "count",
    "serve.coalesce_frac": "fraction",
    "serve.wal_bytes_per_job": "B",
    "serve.admit_s": "s",
    "serve.store_get_s": "s",
    "serve.lock_wait_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS[:2],
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and args.setup_probe is None:
        ap.error("--workload is required")
    return args


def make_workload(name: str, seed: int, between_ops=lambda: None):
    if name == "campaign":
        from campaign_wl import Campaign

        return Campaign(between_ops)
    from compile_wl import Compile

    return Compile(seed, between_ops)


def setup_probe(name: str) -> int:
    """Child side of :func:`harness.probe_setup`: import, lazy set-up and
    one warm-up operation in this fresh interpreter; prints seconds."""
    t0 = time.perf_counter()
    make_workload(name, seed=0).warm_up()
    print(time.perf_counter() - t0)
    return 0


# ----------------------------------------------------------------------
# In-process workloads: campaign and compile
# ----------------------------------------------------------------------
class LayerCounters:
    """Reads the program's own counters around traced passes."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        counters = recorder.counters

        def egraph(result) -> None:
            report = result[1]
            counters["egraph.match_s"] += report.phases.match_seconds
            counters["egraph.apply_s"] += report.phases.apply_seconds
            counters["egraph.rebuild_s"] += report.phases.rebuild_seconds
            counters["egraph.extract_s"] += report.phases.extract_seconds
            counters["egraph.nodes"] += report.num_nodes
            counters["egraph.iterations"] += report.iterations
            counters["egraph.cost"] += report.cost_after
            counters["egraph.budget_trips"] += report.budget_tripped_by is not None

        def jit(result) -> None:
            if not result.memo_hit:
                counters["jit.commands"] += len(result.lowered.commands)

        self.observers = {
            "repro.egraph.saturate:optimize_tdfg": egraph,
            "repro.runtime.jit:JITCompiler.compile_region": jit,
        }

    def traced_pass(self, run_pass, window: Window) -> None:
        from repro.exec import cache
        from repro.runtime import jit

        before = jit.global_stats_snapshot()
        self.recorder.install(LAYERS, self.observers)
        try:
            run_pass(window, self.recorder)
        finally:
            self.recorder.uninstall()
        delta = jit.global_stats_snapshot().delta(before)
        # Each pass starts from a fresh cache, so its stats are the pass's.
        stats = cache.stats_snapshot()
        counters = self.recorder.counters
        counters["jit.lowered"] += delta.lowered
        counters["jit.memo_hits"] += delta.memo_hits
        counters["jit.cache_hits"] += delta.cache_hits
        counters["cache.lookups"] += stats.lookups
        counters["cache.hits"] += stats.hits
        counters["cache.stores"] += stats.stores
        counters["cache.evictions"] += stats.evictions


def run_in_process(args) -> int:
    setup_s, setup_ref = (None, None) if args.trace else probe_setup(args.workload)
    reference = Reference()
    workload = make_workload(args.workload, args.seed, reference.between_ops)
    workload.warm_up()
    windows = {False: Window(), True: Window()}
    recorder = SpanRecorder()
    layers = LayerCounters(recorder)
    t_end = time.perf_counter() + args.seconds
    passes = 0
    while True:
        # The traced run alternates untraced and traced passes, so the
        # two rates compare the same work (trace.overhead_frac).
        traced = bool(args.trace) and passes % 2 == 1
        window = windows[traced]
        spent, t0 = reference.spent, time.perf_counter()
        if traced:
            layers.traced_pass(workload.run_pass, window)
        else:
            workload.run_pass(window)
        # The reference slices between operations are not the program's.
        window.seconds += time.perf_counter() - t0 - (reference.spent - spent)
        passes += 1
        if time.perf_counter() < t_end:
            continue
        if args.trace and passes % 2 == 0:
            break
        if not args.trace and window.attempted >= MIN_OPS:
            break
    plain, traced_window = windows[False], windows[True]
    if not args.trace:
        metrics = end_to_end(plain, setup_s, self_peak_rss_mb(), reference)
        return report(metrics, {"set-up": setup_ref, "window": reference}, plain)
    recorder.dump(WORK / f"trace-{args.workload}.jsonl")
    values = span_values(recorder)
    values.update(
        {
            f"pipeline.{stage.replace('-', '_')}_s": seconds
            for stage, seconds in getattr(workload, "stage_seconds", {}).items()
        }
    )
    values["trace.overhead_frac"] = overhead(plain, traced_window)
    metrics = layer_metrics(values, traced_window, reference.slowdown)
    return report(metrics, {"window": reference}, plain, traced_window)


def span_values(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer values from the spans and the observed counters."""
    self_s = recorder.self_times()
    counters = recorder.counters
    values = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
    for layer in LAYERS:
        values[f"{layer}.calls"] = len(recorder.durations(layer))
    values["engine.runs"] = values.pop("engine.calls")
    values.update(counters)
    lookups = counters.get("cache.lookups", 0)
    values["cache.hit_frac"] = counters.get("cache.hits", 0) / lookups if lookups else 0.0
    wall = recorder.op_wall()
    values["trace.unattributed_frac"] = self_s.get(OP, 0.0) / wall if wall else 0.0
    return values


def overhead(plain: Window, traced: Window) -> float:
    """1 - traced / untraced verified operations per second."""
    if not (plain.seconds and traced.seconds and plain.ok):
        return 0.0
    return 1.0 - (traced.ok / traced.seconds) / (plain.ok / plain.seconds)


def layer_metrics(values: dict, traced: Window, slowdown: float) -> dict:
    """Per-layer metrics, times at the reference speed."""
    return {
        name: (
            float(values.get(name, 0.0)) / (slowdown if unit == "s" else 1.0),
            unit,
            traced.attempted,
        )
        for name, unit in PER_LAYER.items()
    }


def report(metrics: dict, speeds: dict, *windows: Window) -> int:
    total = Window()
    for window in windows:
        total.latencies += window.latencies
        total.ok += window.ok
        total.failed += window.failed
        total.notes += window.notes
    finite = all(math.isfinite(value) for value, _u, _n in metrics.values())
    emit(metrics, total, correct=total.failed == 0 and finite, speeds=speeds)
    return 0


# ----------------------------------------------------------------------
# The serve workload
# ----------------------------------------------------------------------
def run_serve(args) -> int:
    import serve_wl

    expected = serve_wl.load_expected()
    pool = serve_wl.workload_pool(expected)
    servers: list = []
    tag = f"serve-{os.getpid()}"

    def launch(n: int, trace_out=None):
        server = serve_wl.Server(f"{tag}-{n}", trace_out)
        servers.append(server)
        server.start()
        serve_wl.warm_up(server.url)
        return server

    # Every server is torn down before the result is printed.
    try:
        if not args.trace:
            samples = []
            for n in range(serve_wl.SETUP_REPEATS):
                if servers:
                    servers[-1].stop()
                t0 = time.perf_counter()
                server = launch(n)
                samples.append(time.perf_counter() - t0)
            serve_wl.prewarm(server.url, pool, expected)
            clients = serve_wl.Clients(server.url, expected)
            window = clients.window
            passes = iter(serve_wl.request_passes(args.seed, pool))
            t_end = time.perf_counter() + args.seconds
            while time.perf_counter() < t_end or window.attempted < MIN_OPS:
                clients.run(next(passes))
            # Times stay raw: see "Reference speed" in NOTES.md.
            metrics = end_to_end(
                window, statistics.median(samples), server.peak_rss_mb(),
                reference=None, setup_n=serve_wl.SETUP_REPEATS,
            )
            windows = [window]
        else:
            # A plain server and one whose launcher times the server-side
            # calls run side by side; passes alternate between them,
            # each server taking the same passes in the same order.
            server_trace = WORK / f"{tag}-server.json"
            plain_server = launch(0)
            traced_server = launch(1, server_trace)
            for server in (plain_server, traced_server):
                serve_wl.prewarm(server.url, pool, expected)
            recorder = SpanRecorder()
            plain = serve_wl.Clients(plain_server.url, expected)
            traced = serve_wl.Clients(traced_server.url, expected, recorder)
            plain_passes = iter(serve_wl.request_passes(args.seed, pool))
            traced_passes = iter(serve_wl.request_passes(args.seed, pool))
            t_end = time.perf_counter() + args.seconds
            runs = 0
            while runs % 2 or time.perf_counter() < t_end:
                if runs % 2:
                    recorder.install(serve_wl.CLIENT_CALLS)
                    try:
                        traced.run(next(traced_passes))
                    finally:
                        recorder.uninstall()
                else:
                    plain.run(next(plain_passes))
                runs += 1
            wal_bytes = traced_server.wal_bytes()
            plain_server.stop()
            traced_server.stop()
            values = span_values(recorder)
            values.update(
                serve_wl.client_metrics(traced.traces, recorder, wal_bytes)
            )
            values.update(serve_wl.server_metrics(server_trace))
            server_trace.unlink(missing_ok=True)
            values["trace.overhead_frac"] = overhead(plain.window, traced.window)
            recorder.dump(WORK / "trace-serve.jsonl")
            metrics = layer_metrics(values, traced.window, slowdown=1.0)
            windows = [plain.window, traced.window]
            if not math.isfinite(values["serve.admit_s"]):
                traced.window.notes.append(
                    f"no server-side timings in {server_trace.name}"
                )
    finally:
        for server in servers:
            server.stop()
    return report(metrics, {}, *windows)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    WORK.mkdir(exist_ok=True)
    # Let SIGTERM unwind through the finally blocks that stop servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "serve":
        return run_serve(args)
    return run_in_process(args)


if __name__ == "__main__":
    sys.exit(main())
