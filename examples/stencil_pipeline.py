#!/usr/bin/env python3
"""A 2D heat-diffusion stencil pipeline, end to end.

Demonstrates what the paper's §2 motivates: an iterative stencil whose
data stays resident in transposed layout across sweeps (delayed release,
§5.2), with the JIT memoizing the lowered commands after the first
iteration.  Also shows the tiling heuristic at work and how the
transposed layout converts neighbor exchanges into intra-tile shifts.
"""

import numpy as np

from repro import api
from repro.backend import compile_fat_binary
from repro.runtime.jit import JITCompiler
from repro.sim.engine import run_all_paradigms, speedups
from repro.workloads.suite import stencil2d

SOURCE = """
for i in [1, M-1):
    for j in [1, N-1):
        B[i][j] = 0.25 * (A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1])
"""


def main() -> None:
    program = api.compile_kernel(
        "heat2d", SOURCE, arrays={"A": ("M", "N"), "B": ("M", "N")}
    )

    # --- functional: 10 Jacobi sweeps with array ping-pong -------------
    m = 64
    rng = np.random.default_rng(7)
    a = rng.uniform(0, 100, size=(m, m)).astype(np.float32)
    b = np.zeros_like(a)
    for sweep in range(10):
        api.run(program, {"M": m, "N": m}, {"A": a, "B": b})
        a, b = b, a
    print(f"After 10 sweeps: interior mean = {a[1:-1,1:-1].mean():.3f}")

    # --- what the JIT produced -----------------------------------------
    region = program.instantiate({"M": 2048, "N": 2048}).first_region()
    jit = JITCompiler()
    res = jit.compile_region(compile_fat_binary(region.tdfg))
    lowered = res.lowered
    print(f"\nChosen tile: {lowered.tile} (shift-friendly, close to square)")
    print(f"Commands: {lowered.num_commands} "
          f"({lowered.stats.num_shift} shifts, "
          f"{lowered.stats.num_compute} computes, "
          f"{lowered.stats.num_sync} syncs)")
    intra = lowered.stats.intra_tile_bytes
    inter = lowered.stats.inter_tile_bytes
    print(f"Shift traffic: {intra/2**20:.1f} MiB intra-tile vs "
          f"{inter/2**20:.1f} MiB crossing tiles "
          f"({intra/(intra+inter):.0%} stays inside the SRAM arrays)")

    # Re-lowering the same region hits the JIT memo (iterative kernels).
    again = jit.compile_region(compile_fat_binary(region.tdfg))
    print(f"Second lowering memoized: {again.memo_hit} "
          f"({again.jit_cycles:.0f} vs {res.jit_cycles:.0f} cycles)")

    # --- paradigm comparison at the paper's size ------------------------
    print("\nstencil2d (2k x 2k, 10 sweeps) speedups over Base:")
    for name, sp in speedups(run_all_paradigms(stencil2d())).items():
        print(f"  {name:12s} {sp:5.2f}x")


if __name__ == "__main__":
    main()
