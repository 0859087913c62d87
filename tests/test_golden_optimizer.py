"""Golden optimizer output: every registered kernel under both schedulers.

Equality saturation is deterministic: the same tDFG, knobs and rule
scheduler must explore the same e-graph and extract the same program in
every process, under any ``PYTHONHASHSEED``.  This test pins that for
each registered kernel's first region at scale 0.05 under the CLI's
optimizer defaults (4 iterations, a 20k-node budget, the indexed
strategy), once per rule scheduler.  Each record holds every
deterministic field of the :class:`OptimizationReport` (the wall-clock
ones excluded) and the SHA-256 of the printed optimized tDFG, so a
change that alters exploration, a rule's counters or the extracted
program fails here.

When a change is *intentional*, refresh the fixture and commit it:

    PYTHONPATH=src python -m pytest tests/test_golden_optimizer.py --update-golden

CI also runs this file under two fixed hash seeds.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.egraph import SCHEDULERS, OptimizerConfig, optimize_tdfg
from repro.ir.printer import format_tdfg
from repro.registry import WORKLOADS

SCALE = 0.05
#: ``repro compile --optimize`` defaults
KNOBS = {"max_iterations": 4, "node_budget": 20_000, "strategy": "indexed"}
GOLDEN = Path(__file__).parent / "golden" / "optimizer.json"


def _first_region_tdfg(name: str):
    wl = WORKLOADS.create(name, scale=SCALE)
    kernel = wl.program.instantiate(
        {k: int(v) for k, v in wl.params.items()}, dataflow=wl.dataflow
    )
    return kernel.first_region().tdfg


def _record(optimized, report) -> dict:
    return {
        "iterations": report.iterations,
        "saturated": report.saturated,
        "classes": report.num_classes,
        "nodes": report.num_nodes,
        "cost_before": report.cost_before,
        "cost_after": report.cost_after,
        "budget_tripped_by": report.budget_tripped_by,
        "deadline_iterations": report.deadline_iterations,
        "unbans": report.unbans,
        "rules": {
            rs.name: {
                "matches": rs.matches,
                "applied": rs.applied,
                "unions": rs.unions,
                "bans": rs.bans,
                "productive": rs.productive,
                "churn": rs.churn,
                "benefit": rs.benefit,
            }
            for rs in report.rule_stats
        },
        "tdfg_sha256": hashlib.sha256(
            format_tdfg(optimized).encode()
        ).hexdigest(),
    }


def _records() -> dict:
    out = {}
    for name in WORKLOADS.names():
        tdfg = _first_region_tdfg(name)
        for scheduler in SCHEDULERS:
            optimized, report = optimize_tdfg(
                tdfg, OptimizerConfig(scheduler=scheduler, **KNOBS)
            )
            out[f"{name}/{scheduler}"] = _record(optimized, report)
    return out


def test_optimizer_golden(update_golden):
    got = _records()
    if update_golden:
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"updated golden fixture {GOLDEN.name}")
    assert GOLDEN.exists(), (
        f"missing golden fixture {GOLDEN}; generate it with --update-golden"
    )
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want), "kernel/scheduler runs changed"
    drift = [key for key in sorted(want) if got[key] != want[key]]
    assert not drift, (
        f"{len(drift)} optimizer run(s) drifted from the golden fixture, "
        f"first {drift[0]}: got {got[drift[0]]}, want {want[drift[0]]}. "
        "If intentional, refresh with --update-golden and commit the diff."
    )
