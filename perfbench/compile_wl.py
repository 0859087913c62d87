"""The ``compile`` workload: the programmer's compile of every kernel.

One pass compiles every registered kernel (the ten Table 3 kernels and
the four zoo kernels) through parse -> build-region -> optimize ->
fatbinary -> jit-lower with the CLI's default optimizer settings, in a
seeded order, with a fresh in-memory compilation cache.  An operation is
one kernel compile.  Its outcome (extracted cost, digest of the
optimized tDFG, digest of the lowered commands; or the error it raises)
is compared with ``expected/compile.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from harness import HERE, Window
from repro.exec.cache import configure_cache
from repro.ir.printer import format_tdfg
from repro.pipeline import SourceArtifact, compile_pipeline
from repro.pipeline.hooks import TimingHooks
from repro.registry import WORKLOADS

SCALE = 0.05
#: ``repro compile --optimize --lower`` defaults
OPTIMIZER = {
    "max_iterations": 4,
    "node_budget": 20_000,
    "strategy": "indexed",
    "scheduler": "greedy",
}
EXPECTED = HERE / "expected" / "compile.json"


def kernel_sources() -> dict:
    """name -> SourceArtifact for every registered kernel: the inputs the
    program is handed (built once, outside the timed window)."""
    sources = {}
    for name in WORKLOADS.names():
        wl = WORKLOADS.create(name, scale=SCALE)
        program = wl.program
        sources[name] = SourceArtifact(
            name=name,
            source=program.source,
            arrays=dict(program.array_shapes),
            dtype=program.dtype,
            params=dict(wl.params),
            dataflow=wl.dataflow,
        )
    return sources


def kernel_order(names, seed: int, pass_index: int) -> list[str]:
    order = sorted(names)
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compile_kernel(source, hooks=()):
    """One compile; returns the pipeline run (raises what it raises)."""
    pipeline = compile_pipeline(optimize=True, hooks=hooks, **OPTIMIZER)
    return pipeline.run(source)


def outcome_of(run) -> dict:
    opt = run.artifact("optimize")
    lowered = run.artifact("jit-lower").result.lowered
    commands = "\n".join(
        [f"tile {lowered.tile}"] + [str(cmd) for cmd in lowered.commands]
    )
    return {
        "cost": opt.report.cost_after,
        "tdfg": _sha(format_tdfg(opt.tdfg)),
        "commands": _sha(commands),
    }


class Compile:
    """Runs passes of kernel compiles and checks their outcomes; calls
    *between_ops* after each compile."""

    def __init__(self, seed: int, between_ops=lambda: None) -> None:
        self.seed = seed
        self.between_ops = between_ops
        self.sources = kernel_sources()
        self.expected = json.loads(EXPECTED.read_text())
        self.passes = 0
        #: stage -> summed seconds, from TimingHooks in traced passes
        self.stage_seconds: dict[str, float] = {}

    def warm_up(self) -> None:
        """One untimed compile."""
        compile_kernel(self.sources["mm"])

    def run_pass(self, window: Window, recorder=None) -> None:
        configure_cache(enabled=True)
        order = kernel_order(self.sources, self.seed, self.passes)
        self.passes += 1
        for name in order:
            self._one(window, recorder, name)

    def _one(self, window: Window, recorder, name: str) -> None:
        hooks = [] if recorder is None else [TimingHooks()]
        t0 = time.perf_counter()
        try:
            if recorder is None:
                run = compile_kernel(self.sources[name], hooks)
            else:
                run = recorder.operation(
                    window.attempted, compile_kernel, self.sources[name], hooks
                )
            latency = time.perf_counter() - t0
            got = outcome_of(run)
        except Exception as exc:  # noqa: BLE001 — judged against expected
            got = {"error": type(exc).__name__}
            latency = None
        self.between_ops()
        for hook in hooks:
            for row in hook.rows:
                self.stage_seconds[row.stage] = (
                    self.stage_seconds.get(row.stage, 0.0) + row.wall_seconds
                )
        want = self.expected.get(name)
        if got != want:
            window.fail(f"compile {name}: got {got}, expected {want}")
        elif latency is None:
            # The committed expectation is this error: a known defect,
            # not ok (+inf latency) but not a benchmark failure either.
            window.record(0.0, ok=False)
        else:
            window.record(latency, ok=True)
