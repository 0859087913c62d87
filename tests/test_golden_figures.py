"""Golden-figure regression: smoke-scale snapshots of every figure.

The figure generators are deterministic analytical models — any numeric
drift in their output means a timing/traffic model changed.  These tests
pin every table ``benchmarks/run_all.py`` prints, plus the zoo figure,
at smoke scale (``SCALE = SWEEP_SCALE = 0.05``, the scales of
``run_all.py --scale 0.05 --sweep-scale 0.05``; fig17 runs at the
registered figure's smoke scale) against JSON fixtures under
``tests/golden/``.

When a change is *intentional*, refresh the fixtures and commit them:

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py --update-golden

The diff of the fixture files then documents exactly which numbers moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.campaign import (
    eq1_peak,
    fig02_microbench,
    fig11_speedup,
    fig12_noc_traffic,
    fig13_infs_traffic,
    fig14_cycles,
    fig15_dataflow,
    fig16_tile_sweep_2d,
    fig17_tile_sweep_3d,
    fig18_energy,
    fig19_pointnet,
    jit_overheads,
    zoo_speedup,
)

SCALE = 0.05
SWEEP_SCALE = 0.05
GOLDEN_DIR = Path(__file__).parent / "golden"

# Relative tolerance for cross-platform float noise.  The models are
# pure IEEE-754 arithmetic, so anything beyond this is a real change.
RTOL = 1e-9


@pytest.fixture(scope="module")
def fig11_results():
    headers, rows, results = fig11_speedup(SCALE)
    return headers, rows, results


def _check_golden(name: str, headers, rows, update: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    snapshot = {"headers": list(headers), "rows": [list(r) for r in rows]}
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
        pytest.skip(f"updated golden fixture {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with --update-golden"
    )
    golden = json.loads(path.read_text())
    assert snapshot["headers"] == golden["headers"], (
        f"{name}: table headers changed"
    )
    assert len(snapshot["rows"]) == len(golden["rows"]), (
        f"{name}: row count {len(snapshot['rows'])} != "
        f"golden {len(golden['rows'])}"
    )
    drift = []
    for got_row, want_row in zip(snapshot["rows"], golden["rows"]):
        assert len(got_row) == len(want_row), f"{name}: row arity changed"
        for col, (got, want) in enumerate(zip(got_row, want_row)):
            if isinstance(want, str):
                if got != want:
                    drift.append((want_row[0], col, got, want))
            elif got != pytest.approx(want, rel=RTOL, abs=1e-12):
                drift.append((want_row[0], col, got, want))
    assert not drift, (
        f"{name}: {len(drift)} cell(s) drifted from the golden fixture "
        f"(first: row {drift[0][0]!r} col {drift[0][1]}: "
        f"got {drift[0][2]!r}, want {drift[0][3]!r}). "
        "If intentional, refresh with --update-golden and commit the diff."
    )


def test_fig11_speedup_golden(fig11_results, update_golden):
    headers, rows, _ = fig11_results
    _check_golden("fig11_speedup", headers, rows, update_golden)


def test_fig12_noc_traffic_golden(fig11_results, update_golden):
    _h, _r, results = fig11_results
    headers, rows = fig12_noc_traffic(results)
    _check_golden("fig12_noc_traffic", headers, rows, update_golden)


def test_fig14_cycles_golden(update_golden):
    headers, rows = fig14_cycles(SCALE)
    _check_golden("fig14_cycles", headers, rows, update_golden)


#: The other tables, fixture name -> () -> (headers, rows).
FIGURES = {
    "eq1_peak": eq1_peak,
    "fig02_microbench": fig02_microbench,
    "fig13_infs_traffic": lambda: fig13_infs_traffic(SCALE),
    "fig15_dataflow": lambda: fig15_dataflow(SCALE),
    "fig16_tile_sweep_2d": lambda: fig16_tile_sweep_2d(scale=SWEEP_SCALE)[0],
    "fig16_heuristic_oracle": lambda: fig16_tile_sweep_2d(scale=SWEEP_SCALE)[1],
    "fig17_tile_sweep_3d": lambda: fig17_tile_sweep_3d(scale=SWEEP_SCALE),
    "fig18_energy": lambda: fig18_energy(SCALE),
    "fig19_pointnet_speedup": lambda: fig19_pointnet()[0],
    "fig19_pointnet_timeline": lambda: fig19_pointnet()[1],
    "jit_overheads": lambda: jit_overheads(SCALE),
    "zoo_speedup": lambda: zoo_speedup(SCALE),
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_golden(name, update_golden):
    headers, rows = FIGURES[name]()
    _check_golden(name, headers, rows, update_golden)
