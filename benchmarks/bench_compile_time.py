#!/usr/bin/env python3
"""Compile-time benchmark for the e-graph optimizer (indexed vs naive).

Measures the wall-time of :func:`repro.egraph.optimize_tdfg` across the
paper's workload kernels, comparing the incremental ``indexed`` strategy
against the seed-faithful ``naive`` matcher, and maintains the committed
``benchmarks/BENCH_egraph.json`` baseline that CI gates against.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python -m benchmarks.bench_compile_time                 # measure + report
    python -m benchmarks.bench_compile_time --indexed-only  # skip the slow naive runs
    python -m benchmarks.bench_compile_time --skip-naive    # reuse committed naive refs
    python -m benchmarks.bench_compile_time --update benchmarks/BENCH_egraph.json
    python -m benchmarks.bench_compile_time --check benchmarks/BENCH_egraph.json

``--skip-naive`` runs the full acceptance checks (cost identity,
speedup floor) without paying for the ~minutes-long naive matcher: the
naive reference costs and timings are read from the committed baseline
(``--skip-naive PATH`` to point elsewhere), with the reference timings
rescaled by the calibration ratio so the speedup is machine-honest.
Extracted costs are exact integers and machine-independent, so the
reused ``naive_cost_after`` values compare exactly.

``--check`` re-measures the indexed strategy only and fails (exit 1) if
the calibrated total wall-time regresses more than ``gate.TOLERANCE``
(25 %) over the baseline, if any extracted cost changed, if any
kernel regresses to ``cost_match=false`` (extracting *worse* than the
committed naive reference), or if the calibrated saturation speedup on
the largest kernel drops below ``SPEEDUP_FLOOR``.  The baseline timings
are rescaled by the calibration ratio before the bands are applied, and
a baseline recorded at other ``PROTOCOL`` knobs is skipped (see
``benchmarks/gate.py``).

Cost-identity note: saturation is fully deterministic (insertion-ordered
e-class node sets, explicit candidate sort keys), so every kernel —
including budget-tripped conv2d — must reproduce its committed extracted
cost exactly, on any machine and under any PYTHONHASHSEED.  Kernels that
saturate must additionally extract *identical* costs under both
strategies; a budget-tripped kernel explores strategy-dependent
frontiers, so across strategies only ``cost_after <= naive_cost_after``
is required — see DESIGN.md.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.egraph import optimize_tdfg
from repro.workloads import suite

from benchmarks import gate

#: the knobs a baseline must share with the run to be compared
PROTOCOL = {"scale": 0.02, "max_iterations": 6, "node_budget": 20_000}
REPEATS = 3
KERNELS = (
    "stencil1d",
    "stencil2d",
    "stencil3d",
    "dwt2d",
    "gauss_elim",
    "conv2d",
    "conv3d",
    "mm",
    "kmeans",
    "gather_mlp",
)

#: acceptance: indexed saturation >= 40x naive on the largest kernel
#: (match+apply+rebuild phases; extraction is shared work and excluded)
SPEEDUP_FLOOR = 40.0

DEFAULT_BASELINE = Path(__file__).parent / "BENCH_egraph.json"


def _workload_tdfg(name: str, scale: float):
    w = suite.workload(name, scale=scale)
    kernel = w.program.instantiate(
        {k: int(v) for k, v in w.params.items()}, dataflow=w.dataflow
    )
    return kernel.first_region().tdfg


def _measure(tdfg, strategy, repeats):
    """(best wall seconds, saturation seconds, report) over *repeats* runs."""
    best = float("inf")
    best_sat = float("inf")
    report = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, rep = optimize_tdfg(
            tdfg,
            max_iterations=PROTOCOL["max_iterations"],
            node_budget=PROTOCOL["node_budget"],
            strategy=strategy,
        )
        wall = time.perf_counter() - t0
        sat = (
            rep.phases.match_seconds
            + rep.phases.apply_seconds
            + rep.phases.rebuild_seconds
        )
        if wall < best:
            best, best_sat, report = wall, sat, rep
    return best, best_sat, report


def _load_naive_refs(path: Path, calibration: float) -> dict:
    """Committed naive rows rescaled to this machine (see --skip-naive)."""
    if not path.exists():
        raise SystemExit(f"--skip-naive: no baseline at {path}")
    base = json.loads(path.read_text())
    knobs = {k: base.get(k) for k in PROTOCOL}
    if knobs != PROTOCOL:
        raise SystemExit(
            f"--skip-naive: baseline was recorded at different knobs {knobs}"
        )
    cal_ratio = calibration / base["calibration_seconds"]
    refs: dict[str, dict] = {}
    for name, ref in base["kernels"].items():
        if "naive_seconds" not in ref:
            continue
        refs[name] = {
            "naive_seconds": round(ref["naive_seconds"] * cal_ratio, 4),
            "naive_saturate_seconds": round(
                ref["naive_saturate_seconds"] * cal_ratio, 4
            ),
            "naive_cost_after": ref["naive_cost_after"],
            "naive_saturated": ref.get(
                "naive_saturated", ref.get("both_saturated", False)
            ),
        }
    return refs


def run_bench(args, naive_refs: dict | None = None) -> dict:
    results: dict[str, dict] = {}
    for name in KERNELS:
        tdfg = _workload_tdfg(name, PROTOCOL["scale"])
        iw, isat, irep = _measure(tdfg, "indexed", REPEATS)
        row = {
            "indexed_seconds": round(iw, 4),
            "indexed_saturate_seconds": round(isat, 4),
            "iterations": irep.iterations,
            "saturated": irep.saturated,
            "nodes": irep.num_nodes,
            "cost_before": irep.cost_before,
            "cost_after": irep.cost_after,
        }
        if naive_refs is not None:
            ref = naive_refs.get(name)
            if ref is not None:
                row.update(ref)
        elif not args.indexed_only:
            nw, nsat, nrep = _measure(tdfg, "naive", 1)
            row.update(
                {
                    "naive_seconds": round(nw, 4),
                    "naive_saturate_seconds": round(nsat, 4),
                    "naive_cost_after": nrep.cost_after,
                    "naive_saturated": nrep.saturated,
                }
            )
        if "naive_seconds" in row:
            nsat = row["naive_saturate_seconds"]
            row["saturate_speedup"] = round(nsat / isat, 2) if isat else None
            row["cost_match"] = row["naive_cost_after"] == row["cost_after"]
            row["both_saturated"] = (
                row["saturated"] and row["naive_saturated"]
            )
        results[name] = row
        print(_fmt_row(name, row), flush=True)
    return results


def _fmt_row(name: str, row: dict) -> str:
    parts = [
        f"{name:<11}",
        f"indexed {row['indexed_seconds'] * 1e3:8.1f}ms",
        f"nodes {row['nodes']:>6}",
        f"cost {row['cost_before']:>7} -> {row['cost_after']:>7}",
    ]
    if "naive_seconds" in row:
        parts.append(f"naive {row['naive_seconds'] * 1e3:8.1f}ms")
        parts.append(f"sat-speedup {row['saturate_speedup']:6.1f}x")
        parts.append("cost=" + ("ok" if row["cost_match"] else "DIFFERS"))
    return "  ".join(parts)


def check_acceptance(results: dict) -> list[str]:
    """Assertions for runs with naive references; a list of failures.

    Every kernel must either extract the *same* cost as the naive
    reference (``cost_match``) or a strictly better one — the indexed
    strategy never trades extraction quality for speed.  Kernels that
    saturate under both strategies must match exactly, and the largest
    kernel must hold the saturation-speedup floor.
    """
    problems = []
    for name, row in results.items():
        if "naive_seconds" not in row:
            continue
        improved = row["cost_after"] < row["cost_before"]
        if row["both_saturated"] or not improved:
            # Saturation (or an untouched kernel) must be strategy-independent.
            if not row["cost_match"]:
                problems.append(
                    f"{name}: strategies disagree on extracted cost "
                    f"({row['cost_after']} vs {row['naive_cost_after']})"
                )
        elif not (
            row["cost_match"] or row["cost_after"] < row["naive_cost_after"]
        ):
            # Budget-truncated frontiers differ, but the indexed result
            # must never be worse than the naive reference.
            problems.append(
                f"{name}: budget-exhausted extraction gap "
                f"({row['cost_after']} vs naive {row['naive_cost_after']})"
            )
    largest = max(results, key=lambda n: results[n]["cost_before"])
    speedup = results[largest].get("saturate_speedup")
    if speedup is not None and speedup < SPEEDUP_FLOOR:
        problems.append(
            f"{largest}: saturation speedup {speedup:.1f}x < {SPEEDUP_FLOOR}x"
        )
    return problems


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
def compare(base: dict, calibration: float, results: dict) -> list[str]:
    failures = []
    cal_ratio = calibration / base["calibration_seconds"]
    # Saturation is deterministic end to end (insertion-ordered e-class
    # node sets, explicit candidate sort keys), so every kernel —
    # budget-tripped ones included — must reproduce its committed
    # extracted cost exactly; any drift is a semantic regression.
    for name, row in results.items():
        ref = base["kernels"].get(name)
        if ref is None:
            continue
        if row["cost_after"] != ref["cost_after"]:
            failures.append(
                f"{name}: extracted cost changed "
                f"{ref['cost_after']} -> {row['cost_after']}"
            )
        # Quality gate: never regress to cost_match=false.  The committed
        # naive reference cost is machine-independent; the measured
        # indexed extraction must stay at or below it.
        naive_cost = ref.get("naive_cost_after")
        if naive_cost is not None and row["cost_after"] > naive_cost:
            failures.append(
                f"{name}: extraction regressed past the naive reference "
                f"(cost_match=false: {row['cost_after']} > {naive_cost})"
            )

    # Saturation-speedup gate on the largest kernel: the committed naive
    # saturation time rescaled by the calibration ratio stands in for a
    # live naive run (which takes minutes).
    largest = max(results, key=lambda n: results[n]["cost_before"])
    ref = base["kernels"].get(largest, {})
    isat = results[largest]["indexed_saturate_seconds"]
    if "naive_saturate_seconds" in ref and isat:
        speedup = ref["naive_saturate_seconds"] * cal_ratio / isat
        print(
            f"{largest}: calibrated saturation speedup {speedup:.1f}x "
            f"(floor {SPEEDUP_FLOOR:.0f}x)"
        )
        if speedup < SPEEDUP_FLOOR:
            failures.append(
                f"{largest}: saturation speedup {speedup:.1f}x "
                f"< {SPEEDUP_FLOOR}x"
            )

    # Wall-time gate: rescale the baseline by the calibration ratio so the
    # band tracks machine speed, and gate on the total (single-kernel times
    # at bench scale are too noisy for a per-kernel band).
    band = 1.0 + gate.TOLERANCE
    allowed = base["total_indexed_seconds"] * cal_ratio * band
    total = sum(r["indexed_seconds"] for r in results.values())
    print(
        f"total indexed wall-time {total:.3f}s; calibrated budget "
        f"{allowed:.3f}s (baseline {base['total_indexed_seconds']:.3f}s "
        f"x cal {cal_ratio:.2f} x {band:.2f})"
    )
    if total > allowed:
        failures.append(
            f"compile-time regression: {total:.3f}s > {allowed:.3f}s "
            f"(+{gate.TOLERANCE:.0%} band)"
        )
    return failures


def main() -> int:
    ap = gate.parser(__doc__)
    ap.add_argument(
        "--indexed-only",
        action="store_true",
        help="skip the naive strategy (the slow seed-faithful matcher)",
    )
    ap.add_argument(
        "--skip-naive",
        type=Path,
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="BASELINE",
        help="reuse the committed naive reference costs/timings instead "
        "of re-running the naive matcher (acceptance checks still run)",
    )
    args = ap.parse_args()
    if args.check:
        args.indexed_only = True  # the gate only times the indexed strategy
        args.skip_naive = None

    calibration = gate.calibrate()
    print(f"calibration {calibration * 1e3:.1f}ms  scale {PROTOCOL['scale']}")
    naive_refs = None
    if args.skip_naive is not None:
        naive_refs = _load_naive_refs(args.skip_naive, calibration)
    results = run_bench(args, naive_refs)

    problems = []
    if naive_refs is not None or not args.indexed_only:
        problems = check_acceptance(results)
    payload = {
        **PROTOCOL,
        "calibration_seconds": round(calibration, 4),
        "total_indexed_seconds": round(
            sum(r["indexed_seconds"] for r in results.values()), 4
        ),
        "kernels": results,
    }
    return gate.conclude(
        args, "compile-time", payload, tuple(PROTOCOL), problems,
        lambda base: compare(base, calibration, results),
    )


if __name__ == "__main__":
    sys.exit(main())
