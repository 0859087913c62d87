"""The ``campaign`` workload: the golden figures, point by point.

One pass regenerates fig11 (plus the fig12 assembly from its results)
and fig14 at scale 0.05, serially, with a fresh in-memory compilation
cache.  An operation is one simulation point, timed by
:class:`TimedExecutor`, the executor the figure functions are handed.
After each figure returns, its rows are compared with the read-only
fixtures under ``tests/golden/`` at the tolerance the golden test uses;
a point is ok when every row it feeds matches.
"""

from __future__ import annotations

import json
import time

from harness import ROOT, Window
from repro.exec.cache import configure_cache
from repro.exec.pool import PointExecutor
from repro.sim import campaign
from repro.workloads.suite import workload

SCALE = 0.05
GOLDEN = ROOT / "tests" / "golden"
RTOL = 1e-9
ATOL = 1e-12


def load_golden() -> dict[str, dict]:
    return {
        name: json.loads((GOLDEN / f"{name}.json").read_text())
        for name in ("fig11_speedup", "fig12_noc_traffic", "fig14_cycles")
    }


def _cell_matches(got, want) -> bool:
    if isinstance(want, str):
        return got == want
    return abs(got - want) <= max(RTOL * abs(want), ATOL)


def rows_match(got_rows, want_rows) -> list[bool]:
    """Per-row match flags of *got_rows* against the golden rows."""
    flags = []
    for i, got in enumerate(got_rows):
        want = want_rows[i] if i < len(want_rows) else None
        flags.append(
            want is not None
            and len(got) == len(want)
            and all(_cell_matches(g, w) for g, w in zip(got, want))
        )
    if len(got_rows) != len(want_rows):
        flags = [False] * len(got_rows)
    return flags


class TimedExecutor(PointExecutor):
    """Serial executor that times every point it runs.

    ``latencies`` collects each point's wall-clock in spec order; with a
    span *recorder* each point is also the root span of operation
    ``first_op + its index``.  *between_ops* is called after each point.
    """

    def __init__(self, recorder=None, first_op: int = 0,
                 between_ops=lambda: None) -> None:
        super().__init__(jobs=1)
        self.recorder = recorder
        self.first_op = first_op
        self.between_ops = between_ops
        self.latencies: list[float] = []

    def map(self, fn, specs, section=None):
        def timed(spec):
            t0 = time.perf_counter()
            if self.recorder is None:
                result = fn(spec)
            else:
                op_id = self.first_op + len(self.latencies)
                result = self.recorder.operation(op_id, fn, spec)
            self.latencies.append(time.perf_counter() - t0)
            self.between_ops()
            return result

        return super().map(timed, specs, section=section)


class Campaign:
    """Runs passes of the campaign and checks their rows; calls
    *between_ops* after each point."""

    def __init__(self, between_ops=lambda: None) -> None:
        self.golden = load_golden()
        self.between_ops = between_ops

    def warm_up(self) -> None:
        """One untimed simulation point."""
        campaign._point_infs((workload("stencil1d", SCALE), None))

    def run_pass(self, window: Window, recorder=None) -> None:
        configure_cache(enabled=True)
        self._figure(window, recorder, "fig11", self._fig11)
        self._figure(window, recorder, "fig14", self._fig14)

    # ------------------------------------------------------------------
    def _figure(self, window: Window, recorder, name: str, body) -> None:
        executor = TimedExecutor(recorder, window.attempted, self.between_ops)
        try:
            flags = body(executor)
        except Exception as exc:  # noqa: BLE001 — every point run is lost
            for _ in range(len(executor.latencies) + 1):
                window.fail(f"{name}: {type(exc).__name__}: {exc}")
            return
        for latency, ok in zip(executor.latencies, flags):
            if ok:
                window.record(latency, ok=True)
            else:
                window.fail(f"{name}: a point's rows differ from tests/golden")

    def _fig11(self, executor) -> list[bool]:
        headers, rows, results = campaign.fig11_speedup(
            SCALE, executor=executor
        )
        h12, rows12 = campaign.fig12_noc_traffic(results)
        g11, g12 = self.golden["fig11_speedup"], self.golden["fig12_noc_traffic"]
        ok11 = rows_match(rows, g11["rows"])
        ok12 = rows_match(rows12, g12["rows"])
        same_headers = headers == g11["headers"] and h12 == g12["headers"]
        whole = same_headers and ok11[-1]  # the geomean row needs every point
        # Point i feeds fig11 row i and fig12 rows 3i .. 3i+2.
        per_config = len(rows12) // max(1, len(results))
        return [
            whole
            and ok11[i]
            and all(ok12[i * per_config : (i + 1) * per_config])
            for i in range(len(results))
        ]

    def _fig14(self, executor) -> list[bool]:
        headers, rows = campaign.fig14_cycles(SCALE, executor=executor)
        golden = self.golden["fig14_cycles"]
        flags = rows_match(rows, golden["rows"])
        return [ok and headers == golden["headers"] for ok in flags]
