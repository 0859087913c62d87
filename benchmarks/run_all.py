#!/usr/bin/env python3
"""Regenerate every evaluation figure/table as text.

Usage::

    python benchmarks/run_all.py [--scale 1.0] [--out EXPERIMENTS_DATA.txt]
                                 [--jobs N] [--no-cache]

This is the script behind EXPERIMENTS.md: each section prints the rows
of one paper figure, produced by :mod:`repro.sim.campaign`.

``--jobs N`` fans independent simulation points out across N worker
processes; ``--no-cache`` turns off the in-memory compilation cache.
Neither changes any figure: tables are byte-identical across jobs/cache
settings — only the performance summary (written to stderr, never to
``--out``) differs.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.exec.cache import active_cache, configure_cache
from repro.exec.pool import PointExecutor
from repro.runtime.jit import global_stats
from repro.sim import campaign as C


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--sweep-scale", type=float, default=0.25)
    ap.add_argument("--out", type=str, default=None)
    ap.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent simulation points",
    )
    ap.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the in-memory compilation cache",
    )
    args = ap.parse_args()

    if args.no_cache:
        configure_cache(enabled=False)

    ex = PointExecutor(jobs=max(1, args.jobs))
    out = open(args.out, "w") if args.out else sys.stdout

    def section(title, table):
        print(f"\n## {title}\n", file=out)
        print(C.format_table(*table), file=out)
        out.flush()

    t0 = time.time()
    section("Eq. 1: peak throughput", C.eq1_peak())
    section("Fig 2: paradigm speedup over Base-Thread-1",
            C.fig02_microbench(executor=ex))
    headers, rows, results = C.fig11_speedup(args.scale, executor=ex)
    section("Fig 11: overall speedup over Base", (headers, rows))
    section("Fig 12: NoC traffic (normalized to Base)",
            C.fig12_noc_traffic(results))
    section("Fig 13: Inf-S traffic breakdown",
            C.fig13_infs_traffic(args.scale, executor=ex))
    section("Fig 14: Inf-S cycle breakdown",
            C.fig14_cycles(args.scale, executor=ex))
    section("Fig 15: dataflow choice", C.fig15_dataflow(args.scale, executor=ex))
    sweep, summary = C.fig16_tile_sweep_2d(scale=args.sweep_scale, executor=ex)
    section("Fig 16: cycles vs 2D tile size", sweep)
    section("Fig 16: heuristic vs oracle", summary)
    section("Fig 17: speedup vs 3D tile size",
            C.fig17_tile_sweep_3d(executor=ex))
    section("Fig 18: energy efficiency over Base",
            C.fig18_energy(args.scale, executor=ex))
    speed, tl = C.fig19_pointnet(executor=ex)
    section("Fig 19: PointNet++ speedups", speed)
    section("Fig 19: PointNet++ timelines", tl)
    section("JIT overheads (§8)", C.jit_overheads(args.scale, executor=ex))
    if args.out:
        out.close()

    # Host-performance summary: stderr only, so --out files stay
    # byte-comparable across --jobs/--no-cache settings.
    err = sys.stderr
    print(f"\n## Wall-clock per section (--jobs {args.jobs})\n", file=err)
    print(C.format_table(*ex.report()), file=err)
    cache = active_cache()
    print("\n## Compilation cache\n", file=err)
    if cache is None:
        print("disabled (--no-cache)", file=err)
    else:
        print(cache.stats.summary(), file=err)
    print("\n## JIT compiler\n", file=err)
    print(global_stats().summary(), file=err)
    print(f"\n(total {time.time() - t0:.0f}s)", file=err)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
