#!/usr/bin/env python3
"""Campaign gate: perfbench's golden-figure workload against a committed rate.

Runs the repository benchmark's ``campaign`` workload::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 25 --trace 0

which regenerates fig11, the fig12 assembly and fig14 at scale 0.05,
serially, with a fresh compilation cache per pass, and checks every
simulation point against ``tests/golden/``.  The gate reads the JSON
result on perfbench's last output line.

Usage (from the repository root, ``PYTHONPATH=src``)::

    python -m benchmarks.bench_campaign                 # measure + report
    python -m benchmarks.bench_campaign --update benchmarks/BENCH_campaign.json
    python -m benchmarks.bench_campaign --check benchmarks/BENCH_campaign.json

Every run fails when perfbench marks it incorrect, or when a point's
rows differ from the goldens (``ok_frac`` < 1).  ``--check`` also fails
when the verified points per second at perfbench's reference speed
(``ops_per_s``) fall below the baseline / (1 + ``gate.TOLERANCE``): a
25 % band on time.  perfbench's reference slices, not a calibration
loop, correct for the host's speed (``perfbench/reference.py``).
``--update`` records the median of ``UPDATE_RUNS`` runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks import gate

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL = {"workload": "campaign", "seed": 0, "seconds": 25}
#: perfbench runs behind a recorded baseline; a check takes one
UPDATE_RUNS = 5


def run_perfbench() -> dict:
    """One perfbench run, its report echoed; the result on its last line."""
    argv = [sys.executable, "perfbench/run.py", "--trace", "0"]
    for key, value in PROTOCOL.items():
        argv += [f"--{key}", str(value)]
    out = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    print(out.stdout, end="", flush=True)
    if out.returncode != 0:
        raise SystemExit(f"perfbench exited with status {out.returncode}")
    return json.loads(out.stdout.splitlines()[-1])


def verify(result: dict) -> list[str]:
    problems = []
    if not result["correct"]:
        problems.append(
            f"perfbench marks the run incorrect ({result['failed']} of "
            f"{result['attempted']} points failed)"
        )
    ok_frac = result["metrics"]["ok_frac"]["value"]
    if ok_frac < 1:
        problems.append(
            f"ok_frac {ok_frac:.4f} < 1: points differ from tests/golden"
        )
    return problems


def compare(base: dict, ops_per_s: float) -> list[str]:
    floor = base["ops_per_s"] / (1.0 + gate.TOLERANCE)
    print(
        f"campaign {ops_per_s:.2f} points/s; floor {floor:.2f} "
        f"(baseline {base['ops_per_s']:.2f} / {1.0 + gate.TOLERANCE:.2f})"
    )
    if ops_per_s < floor:
        return [
            f"campaign throughput regression: {ops_per_s:.2f} < "
            f"{floor:.2f} points/s (+{gate.TOLERANCE:.0%} band on time)"
        ]
    return []


def main() -> int:
    args = gate.parser(__doc__).parse_args()
    runs = [run_perfbench() for _ in range(UPDATE_RUNS if args.update else 1)]
    rates = [run["metrics"]["ops_per_s"]["value"] for run in runs]
    ops_per_s = statistics.median(rates)
    print(f"ops_per_s {ops_per_s:.2f} (median of {len(rates)} run(s))")
    payload = {
        "protocol": PROTOCOL,
        "ops_per_s": round(ops_per_s, 2),
        "ops_per_s_runs": [round(rate, 2) for rate in rates],
    }
    return gate.conclude(
        args, "campaign", payload, ("protocol",),
        [problem for run in runs for problem in verify(run)],
        lambda base: compare(base, ops_per_s),
    )


if __name__ == "__main__":
    sys.exit(main())
