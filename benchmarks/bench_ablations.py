"""Ablations over the design choices DESIGN.md calls out.

* **SRAM array size** — the fat binary ships 256x256 and 512x512
  schedules (§3.4/§4.2); bigger arrays mean fewer/larger tiles (less
  inter-tile traffic) but coarser boundary handling.
* **Virtual array fusion** (§3.4 future work) — 2x registers at the cost
  of halving the tile slots.
* **In-DRAM computing** (§9) — more lanes, far slower triple-row
  primitives; the crossover sits well past the L3's working sets.
* **JIT memoization** (§4.2) — reported in run_all.py's §8 JIT table;
  here we ablate the runtime *decision* instead (Inf-S with the
  selection forced off must not beat the adaptive runtime).
"""

from repro.backend import compile_fat_binary
from repro.config.system import default_system
from repro.sim.campaign import format_table
from repro.sim.engine import InfinityStreamRunner
from repro.uarch.dram_compute import InDRAMModel
from repro.workloads.suite import stencil2d, vec_add, workload


def emit(title: str, text: str) -> None:
    print(f"\n=== {title} ===\n{text}\n")


def sram_size_ablation():
    rows = []
    for wordlines in (256, 512):
        system = default_system().with_sram_size(wordlines)
        for name in ("stencil2d", "conv2d"):
            wl = workload(name)
            runner = InfinityStreamRunner(system=system, paradigm="inf-s")
            res = runner.run(wl)
            rows.append([name, f"{wordlines}x{wordlines}", res.total_cycles])
    return ["workload", "sram", "cycles"], rows


def test_sram_array_size(benchmark):
    headers, rows = benchmark.pedantic(sram_size_ablation, rounds=1, iterations=1)
    emit("Ablation: SRAM array size (fat binary configs)", format_table(headers, rows))
    by = {(r[0], r[1]): r[2] for r in rows}
    for name in ("stencil2d", "conv2d"):
        ratio = by[(name, "512x512")] / by[(name, "256x256")]
        assert 0.2 < ratio < 5.0  # both configurations are functional


def decision_ablation():
    rows = []
    for wl in (vec_add(16 * 1024), vec_add(4 * 1024 * 1024), stencil2d(scale=0.25)):
        adaptive = InfinityStreamRunner(paradigm="inf-s").run(wl)
        forced = InfinityStreamRunner(
            paradigm="inf-s", use_decision=False
        ).run(wl)
        rows.append(
            [wl.name, adaptive.total_cycles, forced.total_cycles,
             forced.total_cycles / adaptive.total_cycles]
        )
    return ["workload", "adaptive", "forced-inmem", "forced/adaptive"], rows


def test_runtime_decision(benchmark):
    headers, rows = benchmark.pedantic(decision_ablation, rounds=1, iterations=1)
    emit("Ablation: runtime in-/near-memory selection (§4.3)", format_table(headers, rows))
    # The adaptive runtime never loses by more than noise.
    assert all(r[3] > 0.99 for r in rows)
    # And for some size it genuinely helps (the Fig 2 crossover).
    assert any(r[3] > 1.2 for r in rows)


def indram_ablation():
    from repro.frontend import parse_kernel

    prog = parse_kernel(
        "vadd",
        "for i in [0, N):\n    C[i] = A[i] + B[i]\n",
        arrays={"A": ("N",), "B": ("N",), "C": ("N",)},
    )
    model = InDRAMModel()
    rows = []
    for n in (4_194_304, 64 * 1024 * 1024):
        tdfg = prog.instantiate({"N": n}).first_region().tdfg
        cmp = model.compare_with_sram(tdfg)
        rows.append(
            [f"vec_add/{n // (1024 * 1024)}M",
             cmp["in_sram_cycles"], cmp["in_dram_cycles"],
             cmp["dram_over_sram"]]
        )
    rows.append(
        ["crossover-elements", model.crossover_elements(), "", ""]
    )
    return ["config", "in-SRAM cycles", "in-DRAM cycles", "dram/sram"], rows


def test_indram_extension(benchmark):
    headers, rows = benchmark.pedantic(indram_ablation, rounds=1, iterations=1)
    emit("Ablation: in-DRAM extension (§9)", format_table(headers, rows))
    # At L3-resident sizes, in-SRAM's faster primitives win.
    assert rows[0][3] > 1.0


def fusion_ablation():
    from repro.runtime.jit import JITCompiler
    from tests.test_extensions import _register_hungry_tdfg

    rows = []
    tdfg = _register_hungry_tdfg()
    for fuse in (1, 2):
        mode = "stream" if fuse == 1 else "error"
        fb = compile_fat_binary(tdfg, (256,), spill_mode=mode, virtual_fuse=fuse)
        sched = fb.config_for(256)
        rows.append(
            [f"fuse={fuse}", sched.registers_available, len(sched.spills)]
        )
    return ["config", "registers", "dram-spills"], rows


def test_virtual_fusion(benchmark):
    headers, rows = benchmark.pedantic(fusion_ablation, rounds=1, iterations=1)
    emit("Ablation: virtual array fusion (§3.4)", format_table(headers, rows))
    assert rows[0][2] > 0 and rows[1][2] == 0
