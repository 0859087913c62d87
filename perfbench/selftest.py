#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [NAME ...]

Runs every check (or the named ones) and exits non-zero if any fails.
The checks take about two minutes, most of it in the short runs.
"""

from __future__ import annotations

import json
import math
import shutil
import socket
import subprocess
import sys
import time
import traceback

from harness import HERE, ROOT, WORK, Window, use_program

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


# ----------------------------------------------------------------------
def check_metric_lists() -> None:
    """BENCHMARK.json names exactly the metrics the benchmark prints."""
    from harness import end_to_end
    from run import PER_LAYER, WORKLOADS

    e2e = end_to_end(Window([1.0], ok=1, seconds=1.0), 1.0, 1.0, None)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in BENCHMARK["end_to_end"]] == [
        unit for _v, unit, _n in e2e.values()
    ]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def check_short_runs() -> None:
    """A short run of each workload prints all six metrics with units."""
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for workload in ("campaign", "compile", "serve"):
        out = run_bench("--workload", workload, "--seed", "7",
                        "--seconds", "1", "--trace", "0")
        assert out.returncode == 0, out.stderr[-2000:]
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, (workload, got)
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] >= 100, result
        for name, unit in want.items():
            assert any(
                line.split()[:1] == [name] and f" {unit} " in line
                for line in out.stdout.splitlines()
            ), (workload, name)


def check_campaign_perturbed() -> None:
    """One perturbed golden cell drops campaign ok_frac below 1."""
    from campaign_wl import Campaign

    campaign = Campaign()
    campaign.golden["fig14_cycles"]["rows"][3][1] *= 1.0 + 1e-6
    window = Window()
    campaign.run_pass(window)
    assert window.ok < window.attempted and window.failed == 1, window


def check_compile_perturbed() -> None:
    """One perturbed expected cost drops compile ok_frac below 13/14."""
    from compile_wl import Compile

    compile_ = Compile(seed=0)
    compile_.expected["mm"]["cost"] += 1
    window = Window()
    compile_.run_pass(window)
    assert window.attempted == 14 and window.ok == 12, window
    assert window.failed == 1, window


def check_serve_perturbed() -> None:
    """One perturbed expected digest fails that served job."""
    import serve_wl
    from repro.serve.client import ServeClient

    spec = serve_wl.workload_pool(serve_wl.load_expected())[0]
    good = serve_wl.load_expected()[serve_wl.spec_key(spec)]
    server = serve_wl.Server("selftest-perturbed")
    try:
        server.start()
        client = ServeClient(server.url, timeout=serve_wl.HTTP_TIMEOUT)
        deadline = time.perf_counter() + serve_wl.REQUEST_DEADLINE
        ok, note, _ = serve_wl.serve_request(client, spec, good, deadline)
        assert ok, note
        ok, note, _ = serve_wl.serve_request(client, spec, "0" * 64, deadline)
        assert not ok and "digest" in note, note
    finally:
        server.stop()


def check_traced_sum() -> None:
    """Layer self-times plus unattributed time add up to the traced
    operations' wall-clock."""
    from campaign_wl import Campaign
    from run import LayerCounters, span_values
    from spans import LAYERS, OP, SpanRecorder

    recorder = SpanRecorder()
    campaign = Campaign()
    window = Window()
    LayerCounters(recorder).traced_pass(campaign.run_pass, window)
    wall = recorder.op_wall()
    values = span_values(recorder)
    layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    unattributed = values["trace.unattributed_frac"] * wall
    assert math.isclose(layers + unattributed, wall, rel_tol=1e-9), (
        layers, unattributed, wall)
    assert math.isclose(wall, sum(recorder.self_times().values()), rel_tol=1e-9)
    assert window.attempted == len(recorder.durations(OP)) and wall > 0
    assert values["trace.unattributed_frac"] < 0.10, values


def check_seeds() -> None:
    """A seed reproduces its inputs exactly; another seed differs."""
    import serve_wl
    from compile_wl import kernel_order

    pool = serve_wl.workload_pool(serve_wl.load_expected())
    first = serve_wl.request_passes(11, pool)
    assert first == serve_wl.request_passes(11, pool)
    other = serve_wl.request_passes(12, pool)
    assert other != first
    rounds = [
        sorted(tuple(map(serve_wl.spec_key, r)) for r in p)
        for p in first + other
    ]
    assert all(r == rounds[0] for r in rounds), "passes differ in their work"
    assert {key for r in rounds[0] for key in r} == {
        serve_wl.spec_key(s) for s in pool + [serve_wl.CAMPAIGN_JOB]
    }
    assert all(len(r) <= serve_wl.CLIENTS for r in rounds[0])
    names = [f"k{i}" for i in range(14)]
    assert kernel_order(names, 11, 0) == kernel_order(names, 11, 0)
    assert kernel_order(names, 11, 0) != kernel_order(names, 12, 0)
    assert sorted(kernel_order(names, 12, 3)) == sorted(names)


def check_silent_server() -> None:
    """A server that never answers fails the request by its deadline."""
    import serve_wl
    from repro.serve.client import ServeClient

    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)  # connections queue; nothing ever answers
        url = "http://127.0.0.1:%d" % listener.getsockname()[1]
        client = ServeClient(url, timeout=0.5)
        t0 = time.perf_counter()
        ok, note, _ = serve_wl.serve_request(
            client, serve_wl.WARM_UP_JOB, "x", t0 + 1.0
        )
        assert not ok and time.perf_counter() - t0 < 5.0, note


def check_missing_server_timings() -> None:
    """Server-side metrics without the launcher's timings read +inf, so
    the run is marked incorrect instead of reporting zeros."""
    import serve_wl

    values = serve_wl.server_metrics(WORK / "no-such-server-trace.json")
    assert values and all(math.isinf(v) for v in values.values()), values


def check_stubborn_teardown() -> None:
    """Teardown kills a process group that ignores SIGTERM, and waits."""
    import serve_wl

    code = (
        "import signal, subprocess, sys, time\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "subprocess.Popen([sys.executable, '-c', 'import signal, time; "
        "signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(600)'])\n"
        "print('serving on http://127.0.0.1:1 (stub)', flush=True)\n"
        "time.sleep(600)\n"
    )
    server = serve_wl.Server("selftest-stubborn")
    server.store.mkdir(parents=True, exist_ok=True)
    server.proc = subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    server._reader = serve_wl.threading.Thread(
        target=server._read_stdout, daemon=True
    )
    server._reader.start()
    assert server._ready.wait(30)
    time.sleep(0.5)  # let the child start
    children = server.worker_pids()
    assert children, "stub did not start its child"
    saved, serve_wl.STOP_GRACE = serve_wl.STOP_GRACE, 1.0
    try:
        t0 = time.perf_counter()
        server.stop()
    finally:
        serve_wl.STOP_GRACE = saved
    assert time.perf_counter() - t0 < 10.0
    assert server.proc.returncode is not None
    assert not any(serve_wl._alive(pid) for pid in children)


def check_bare_directory() -> None:
    """Without the program the benchmark exits non-zero, printing no
    result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = run_bench("--workload", "campaign", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=bare)
        assert out.returncode != 0
        assert "correct" not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


CHECKS = {
    name[len("check_"):]: fn
    for name, fn in dict(globals()).items()
    if name.startswith("check_")
}


def main(argv: list[str]) -> int:
    use_program()
    WORK.mkdir(exist_ok=True)
    failed = 0
    for name in argv or list(CHECKS):
        t0 = time.perf_counter()
        try:
            CHECKS[name]()
        except Exception:  # noqa: BLE001 — report every check
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name} ({time.perf_counter() - t0:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
