"""Evaluation campaigns: one function per paper figure/table.

Each function returns plain data rows (and a formatted text table via
:func:`format_table`) so the ``run_all`` script, the golden-figure tests
and EXPERIMENTS.md all share one source of truth.

``scale`` scales the input sizes (1.0 = the paper's Table 3 sizes);
sweeps default to smaller scales to keep their many configurations
tractable — noted in each docstring.

Every campaign declares its simulation points as a flat list of
picklable specs evaluated by a module-level worker function, so an
optional :class:`repro.exec.pool.PointExecutor` (``executor=``) can fan
them out across processes; rows are always assembled in spec order, so
parallel output is byte-identical to serial.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable

from repro.baselines.core import BaseCoreModel
from repro.config.system import SystemConfig, default_system
from repro.energy.model import EnergyModel
from repro.errors import LayoutError
from repro.exec.pool import PointExecutor, run_points
from repro.ir.tdfg import LayoutHints
from repro.registry import FIG11_PARADIGMS, FIGURES, INF_S, INF_S_NOJIT
from repro.runtime.layout import valid_tilings
from repro.sim.engine import InfinityStreamRunner, run_all_paradigms
from repro.sim.stats import RunResult
from repro.workloads.base import Workload
from repro.workloads.pointnet import run_pointnet, timeline, total_cycles
from repro.workloads.suite import (
    array_sum,
    gather_mlp,
    kmeans,
    mm,
    paper_workloads,
    vec_add,
    workload,
)

#: The Fig 11 configurations, in column order (from repro.registry — a
#: paradigm rename updates every driver here at once).
PARADIGMS = FIG11_PARADIGMS


def geomean(values: Iterable[float], strict: bool = False) -> float:
    """Geometric mean of positive values.

    Non-positive entries cannot enter a geomean; they used to be dropped
    silently, which let a zero-cycle modeling bug *inflate* the reported
    speedup unnoticed.  Dropping now warns (or raises with ``strict``).
    """
    vals = list(values)
    pos = [v for v in vals if v > 0]
    if len(pos) != len(vals):
        dropped = [v for v in vals if v <= 0]
        msg = (
            f"geomean: dropping {len(dropped)} non-positive value(s) "
            f"{dropped[:5]} of {len(vals)} — check the cycle model "
            "producing them"
        )
        if strict:
            raise ValueError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    if not pos:
        return 0.0
    return math.exp(sum(math.log(v) for v in pos) / len(pos))


def format_table(headers: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(str(h).ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append(
            "  ".join(_fmt(c).ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(out)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


# ----------------------------------------------------------------------
# Point workers: module-level (hence picklable) functions mapping one
# simulation-point spec to its result, for PointExecutor fan-out.
# ----------------------------------------------------------------------
def _point_paradigms(spec) -> dict[str, RunResult]:
    """(workload, system) -> every Fig 11 configuration's RunResult."""
    wl, system = spec
    return run_all_paradigms(wl, system=system)


def _point_microbench(spec):
    """(workload, system) -> (Base-Thread-1 result, per-paradigm results)."""
    wl, system = spec
    base1 = EnergyModel().annotate(
        BaseCoreModel(system=system, threads=1).run(wl)
    )
    return base1, run_all_paradigms(wl, system=system)


def _point_infs(spec) -> RunResult:
    """(workload, system) -> the Inf-S RunResult."""
    wl, system = spec
    runner = InfinityStreamRunner(
        system=system or default_system(), paradigm=INF_S
    )
    return runner.run(wl)


def _point_tile(spec) -> float | None:
    """(workload, tile|None, system) -> cycles; None if the tiling is
    invalid (LayoutError).  ``tile=None`` runs the heuristic's pick."""
    wl, tile, system = spec
    runner = InfinityStreamRunner(
        system=system,
        paradigm=INF_S,
        tile_override=tile,
        use_decision=False,
    )
    try:
        return runner.run(wl).total_cycles
    except LayoutError:
        return None


def _point_pointnet(spec):
    """(arch, system) -> run_pointnet's per-config stage results."""
    arch, system = spec
    return run_pointnet(arch, system=system)


def _point_jit_overhead(spec):
    """(workload, system) -> (Inf-S result, Inf-S-noJIT result)."""
    wl, system = spec
    sys_ = system or default_system()
    res = InfinityStreamRunner(system=sys_, paradigm=INF_S).run(wl)
    nojit = InfinityStreamRunner(system=sys_, paradigm=INF_S_NOJIT).run(wl)
    return res, nojit


# ----------------------------------------------------------------------
# Eq. 1: peak in-memory throughput
# ----------------------------------------------------------------------
def eq1_peak():
    """Peak in-memory add throughput per operand width, and its ratio
    to every core issuing 32-bit AVX-512 ops (§2.2)."""
    system = default_system()
    rows = []
    for bits, name in ((8, "int8 add"), (16, "int16 add"), (32, "int32 add")):
        peak = system.in_memory_peak_ops_per_cycle(bits)
        rows.append([name, peak, peak / system.core_peak_ops_per_cycle(32)])
    return ["op", "ops/cycle", "vs 64-core AVX-512"], rows


# ----------------------------------------------------------------------
# Fig 2: paradigm speedups vs input size (microbenchmarks)
# ----------------------------------------------------------------------
def fig02_microbench(
    sizes=(16_384, 65_536, 262_144, 1_048_576, 4_194_304),
    system: SystemConfig | None = None,
    executor: PointExecutor | None = None,
):
    """Speedup over Base-Thread-1 for vec_add and array_sum (fp32)."""
    system = system or default_system()
    points = [
        (factory(n), system)
        for factory in (vec_add, array_sum)
        for n in sizes
    ]
    results = run_points(_point_microbench, points, executor, section="fig02")
    rows = []
    speedup_lists: dict[str, list[float]] = {}
    for (wl, _sys), (base1, res) in zip(points, results):
        row = [wl.name]
        for key, label in (
            ("base", "base-64"),
            ("near-l3", "near-l3"),
            ("in-l3", "in-l3"),
        ):
            sp = base1.total_cycles / res[key].total_cycles
            row.append(sp)
            speedup_lists.setdefault(label, []).append(sp)
        rows.append(row)
    rows.append(
        ["geomean"]
        + [geomean(speedup_lists[l]) for l in ("base-64", "near-l3", "in-l3")]
    )
    headers = ["workload", "Base-64", "Near-L3", "In-L3"]
    return headers, rows


# ----------------------------------------------------------------------
# Fig 11: overall speedup
# ----------------------------------------------------------------------
def fig11_speedup(
    scale: float = 1.0,
    system: SystemConfig | None = None,
    executor: PointExecutor | None = None,
):
    """Speedup over Base for the ten Table 3 workloads."""
    workloads = paper_workloads(scale)
    points = [(wl, system) for wl in workloads]
    all_res = run_points(_point_paradigms, points, executor, section="fig11")
    rows = []
    per_cfg: dict[str, list[float]] = {p: [] for p in PARADIGMS[1:]}
    results: dict[str, dict[str, RunResult]] = {}
    for wl, res in zip(workloads, all_res):
        results[wl.name] = res
        base = res["base"].total_cycles
        row = [wl.name]
        for p in PARADIGMS[1:]:
            sp = base / res[p].total_cycles
            row.append(sp)
            per_cfg[p].append(sp)
        rows.append(row)
    rows.append(["geomean"] + [geomean(per_cfg[p]) for p in PARADIGMS[1:]])
    headers = ["workload", "Near-L3", "In-L3", "Inf-S", "Inf-S-noJIT"]
    return headers, rows, results


# ----------------------------------------------------------------------
# Fig 12: NoC traffic breakdown + utilization
# ----------------------------------------------------------------------
def fig12_noc_traffic(results: dict[str, dict[str, RunResult]]):
    """Per-workload bytes x hops (normalized to Base) per category."""
    rows = []
    for name, res in results.items():
        base_total = max(1e-9, res["base"].traffic.total)
        for cfg in ("base", "near-l3", "inf-s"):
            t = res[cfg].traffic
            rows.append(
                [
                    name,
                    cfg,
                    t.control / base_total,
                    t.data / base_total,
                    t.offload / base_total,
                    t.inter_tile / base_total,
                    t.total / base_total,
                    res[cfg].noc_utilization(),
                ]
            )
    headers = [
        "workload",
        "config",
        "control",
        "data",
        "offload",
        "inter-tile",
        "total",
        "noc-util",
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Fig 13 + Fig 14: Inf-S traffic and cycle breakdowns (13 variants)
# ----------------------------------------------------------------------
def _thirteen_variants(scale: float):
    out = [
        workload("stencil1d", scale),
        workload("stencil2d", scale),
        workload("stencil3d", scale),
        workload("dwt2d", scale),
        workload("gauss_elim", scale),
        workload("conv2d", scale),
        workload("conv3d", scale),
    ]
    for df in ("inner", "outer"):
        out.append(mm(scale, df))
        out.append(kmeans(scale, df))
        out.append(gather_mlp(scale, df))
    return out


def fig13_infs_traffic(scale: float = 1.0, system=None, executor=None):
    """Inf-S traffic breakdown across the 13 workload variants."""
    variants = _thirteen_variants(scale)
    results = run_points(
        _point_infs,
        [(wl, system) for wl in variants],
        executor,
        section="fig13",
    )
    rows = []
    for wl, res in zip(variants, results):
        total = max(1e-9, res.traffic.total + res.meta["intra_tile_bytes"])
        rows.append(
            [
                wl.name,
                res.meta["intra_tile_bytes"] / total,
                res.traffic.inter_tile / total,
                res.traffic.data / total,
                res.traffic.offload / total,
                res.traffic.control / total,
            ]
        )
    headers = [
        "workload",
        "intra-tile",
        "inter-tile(noc)",
        "noc-data",
        "noc-offload",
        "noc-control",
    ]
    return headers, rows


def fig14_cycles(scale: float = 1.0, system=None, executor=None):
    """Inf-S cycle breakdown + fraction of ops executed in-memory."""
    variants = _thirteen_variants(scale)
    results = run_points(
        _point_infs,
        [(wl, system) for wl in variants],
        executor,
        section="fig14",
    )
    rows = []
    for wl, res in zip(variants, results):
        cy = res.cycles
        total = max(1e-9, cy.total)
        rows.append(
            [
                wl.name,
                cy.dram / total,
                cy.jit / total,
                cy.move / total,
                cy.compute / total,
                cy.final_reduce / total,
                cy.mix / total,
                cy.near_mem / total,
                cy.sync / total,
                res.ops.in_memory_fraction,
            ]
        )
    headers = [
        "workload",
        "dram",
        "jit",
        "move",
        "compute",
        "final-red",
        "mix",
        "near-mem",
        "sync",
        "inmem-ops",
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Fig 15: inner vs outer product dataflow
# ----------------------------------------------------------------------
def fig15_dataflow(scale: float = 1.0, system=None, executor=None):
    """mm/kmeans/gather_mlp under both dataflows, per paradigm.

    Speedups are normalized to Base running the (tiled) inner product,
    as in the paper.
    """
    system = system or default_system()
    factories = (mm, kmeans, gather_mlp)
    points = [
        (factory(scale, df), system)
        for factory in factories
        for df in ("inner", "outer")
    ]
    results = run_points(_point_paradigms, points, executor, section="fig15")
    rows = []
    for i, factory in enumerate(factories):
        res_in, res_out = results[2 * i], results[2 * i + 1]
        base = res_in["base"].total_cycles  # Base-In is the reference
        name = points[2 * i][0].name.split("/")[0]
        rows.append(
            [
                name,
                base / res_out["base"].total_cycles,
                base / res_in["near-l3"].total_cycles,
                base / res_out["near-l3"].total_cycles,
                base / res_in["inf-s"].total_cycles,
                base / res_out["inf-s"].total_cycles,
            ]
        )
    headers = [
        "workload",
        "Base-Out",
        "NearL3-In",
        "NearL3-Out",
        "InfS-In",
        "InfS-Out",
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Fig 16 / Fig 17: tile-size sweeps (+ heuristic vs oracle)
# ----------------------------------------------------------------------
def _sweep_tilings(wl: Workload, system: SystemConfig):
    """The valid tile shapes for the workload's primary array."""
    region = wl.kernel.first_region()
    primary = region.tdfg.hints.primary_array or next(
        iter(region.tdfg.arrays)
    )
    shape = region.tdfg.arrays[primary].shape
    return valid_tilings(shape, system)


def fig16_tile_sweep_2d(
    names=("stencil2d", "dwt2d", "conv2d"),
    scale: float = 0.25,
    system=None,
    executor=None,
):
    """Cycles vs 2D tile size; marks the heuristic's pick and the oracle.

    Runs at a reduced default scale: the sweep multiplies every workload
    by ~9 tile configurations.
    """
    system = system or default_system()
    # One flat point list: per workload, the heuristic's pick
    # (tile=None) followed by every valid tiling.  The sweep studies the
    # in-memory layout, so the runtime's in-/near-memory selection is
    # disabled (see _point_tile) and every point runs on the bitlines.
    per_name: list[tuple[str, list]] = []
    points: list = []
    for name in names:
        wl = workload(name, scale)
        tilings = _sweep_tilings(wl, system)
        per_name.append((name, tilings))
        points.append((wl, None, system))
        points.extend((wl, tile, system) for tile in tilings)
    cycles_flat = run_points(_point_tile, points, executor, section="fig16")
    rows = []
    summary = []
    i = 0
    for name, tilings in per_name:
        default_cycles = cycles_flat[i]
        i += 1
        best = None
        for tile in tilings:
            cycles = cycles_flat[i]
            i += 1
            if cycles is None:  # LayoutError: invalid tiling
                continue
            rows.append([name, "x".join(map(str, tile)), cycles])
            if best is None or cycles < best[1]:
                best = (tile, cycles)
        assert best is not None
        summary.append(
            [
                name,
                "x".join(map(str, best[0])),
                best[1],
                default_cycles,
                default_cycles / best[1],
            ]
        )
    headers = ["workload", "tile", "cycles"]
    sum_headers = [
        "workload",
        "oracle-tile",
        "oracle-cycles",
        "heuristic-cycles",
        "heuristic/oracle",
    ]
    return (headers, rows), (sum_headers, summary)


def fig17_tile_sweep_3d(
    names=("stencil3d", "conv3d"),
    scale: float | dict[str, float] | None = None,
    system=None,
    executor=None,
):
    """Speedup (vs worst tiling) across 3D tile sizes.

    Tile choice matters when move traffic is significant relative to
    compute, which needs realistic array sizes: stencil3d runs at the
    paper's full scale by default; conv3d (576 regions) at half scale.
    """
    system = system or default_system()
    if scale is None:
        scale = {"stencil3d": 1.0, "conv3d": 0.5}
    per_name: list[tuple[str, list]] = []
    points: list = []
    for name in names:
        wl_scale = scale[name] if isinstance(scale, dict) else scale
        wl = workload(name, wl_scale)
        tilings = _sweep_tilings(wl, system)
        per_name.append((name, tilings))
        points.extend((wl, tile, system) for tile in tilings)
    cycles_flat = run_points(_point_tile, points, executor, section="fig17")
    rows = []
    i = 0
    for name, tilings in per_name:
        cycles = {}
        for tile in tilings:
            c = cycles_flat[i]
            i += 1
            if c is None:
                continue
            cycles[tile] = c
        worst = max(cycles.values())
        for tile, c in sorted(cycles.items()):
            rows.append([name, "x".join(map(str, tile)), worst / c])
    headers = ["workload", "tile", "speedup-vs-worst"]
    return headers, rows


# ----------------------------------------------------------------------
# Fig 18: energy efficiency
# ----------------------------------------------------------------------
def fig18_energy(scale: float = 1.0, system=None, executor=None):
    """Energy efficiency over Base for every configuration."""
    workloads = paper_workloads(scale)
    results = run_points(
        _point_paradigms,
        [(wl, system) for wl in workloads],
        executor,
        section="fig18",
    )
    rows = []
    per_cfg: dict[str, list[float]] = {p: [] for p in PARADIGMS[1:]}
    for wl, res in zip(workloads, results):
        base = res["base"].energy_nj
        row = [wl.name]
        for p in PARADIGMS[1:]:
            eff = base / res[p].energy_nj
            row.append(eff)
            per_cfg[p].append(eff)
        rows.append(row)
    rows.append(["geomean"] + [geomean(per_cfg[p]) for p in PARADIGMS[1:]])
    headers = ["workload", "Near-L3", "In-L3", "Inf-S", "Inf-S-noJIT"]
    return headers, rows


# ----------------------------------------------------------------------
# Fig 19: PointNet++ timelines
# ----------------------------------------------------------------------
def fig19_pointnet(system=None, executor=None):
    archs = ("ssg", "msg")
    results = run_points(
        _point_pointnet,
        [(arch, system) for arch in archs],
        executor,
        section="fig19",
    )
    rows = []
    speed_rows = []
    for arch, res in zip(archs, results):
        base = total_cycles(res["base"])
        for cfg in ("base", "near-l3", "in-l3", "inf-s"):
            speed_rows.append(
                [arch, cfg, base / total_cycles(res[cfg])]
            )
            for sa, stage, frac, where in timeline(res[cfg]):
                if frac > 0.005:
                    rows.append([arch, cfg, sa, stage, frac, where])
    headers = ["arch", "config", "sa", "stage", "fraction", "where"]
    return ("arch config speedup".split(), speed_rows), (headers, rows)


# ----------------------------------------------------------------------
# §8: JIT overheads
# ----------------------------------------------------------------------
def jit_overheads(scale: float = 1.0, system=None, executor=None):
    """JIT share of runtime, memo hit rates, Inf-S-noJIT gain."""
    names = ("stencil1d", "stencil2d", "gauss_elim", "conv3d")
    results = run_points(
        _point_jit_overhead,
        [(workload(name, scale), system) for name in names],
        executor,
        section="jit-overheads",
    )
    rows = []
    for name, (res, nojit) in zip(names, results):
        rows.append(
            [
                name,
                res.cycles.jit / max(1e-9, res.total_cycles),
                res.jit_memo_hits / max(1, res.regions),
                res.total_cycles / nojit.total_cycles,
                res.cycles.jit / 2000.0,  # us at 2 GHz
            ]
        )
    headers = [
        "workload",
        "jit-fraction",
        "memo-hit-rate",
        "nojit-gain",
        "jit-us@2GHz",
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Workload zoo: speedup table for the LLM / sparse scenario families
# ----------------------------------------------------------------------
def _zoo_variants(scale: float) -> list[Workload]:
    out = []
    for df in ("inner", "outer"):
        out.append(workload("attention", scale, dataflow=df))
        out.append(workload("mlp", scale, dataflow=df))
    out.append(workload("spmv", scale))
    out.append(workload("sddmm", scale))
    return out


def zoo_speedup(scale: float = 0.25, system=None, executor=None):
    """Speedup over Base for the zoo workloads (attention/mlp/spmv/sddmm).

    Runs at a reduced default scale: the zoo exists to exercise the
    registry seam and the streaming/indirect cost models, not to extend
    the paper's figures, so smoke-sized inputs are the common case.
    """
    variants = _zoo_variants(scale)
    results = run_points(
        _point_paradigms,
        [(wl, system) for wl in variants],
        executor,
        section="zoo",
    )
    rows = []
    per_cfg: dict[str, list[float]] = {p: [] for p in PARADIGMS[1:]}
    for wl, res in zip(variants, results):
        base = res["base"].total_cycles
        row = [wl.name]
        for p in PARADIGMS[1:]:
            sp = base / res[p].total_cycles
            row.append(sp)
            per_cfg[p].append(sp)
        rows.append(row)
    rows.append(["geomean"] + [geomean(per_cfg[p]) for p in PARADIGMS[1:]])
    headers = ["workload", "Near-L3", "In-L3", "Inf-S", "Inf-S-noJIT"]
    return headers, rows


# ----------------------------------------------------------------------
# Figure registration: every serve-runnable campaign driver, adapted to
# the uniform ``fn(scale, executor) -> (headers, rows)`` contract that
# ``repro.serve.jobs`` and ``repro submit --figure`` execute.  Drivers
# with a different shape (fig16/fig19 return nested tables) stay
# script-only and are intentionally not registered.
# ----------------------------------------------------------------------
def _table_figure(fn):
    """Adapt a campaign fn returning (headers, rows[, extra])."""

    def run(scale: float = 1.0, executor=None):
        out = fn(scale=scale, executor=executor)
        return out[0], out[1]  # fig11 also returns raw results

    run.__name__ = fn.__name__
    run.__doc__ = fn.__doc__
    return run


def _fig02_figure(scale: float = 1.0, executor=None):
    """Speedup over Base-Thread-1 for vec_add and array_sum (fp32)."""
    # fig02 sweeps fixed input sizes rather than Table 3 scales.
    return fig02_microbench(executor=executor)


def _first_doc(fn) -> str:
    return (fn.__doc__ or "").strip().splitlines()[0]


FIGURES.register("fig02", _fig02_figure, order=2)
FIGURES.register(
    "fig11", _table_figure(fig11_speedup), order=11,
    description=_first_doc(fig11_speedup),
)
FIGURES.register(
    "fig13", _table_figure(fig13_infs_traffic), order=13,
    description=_first_doc(fig13_infs_traffic),
)
FIGURES.register(
    "fig14", _table_figure(fig14_cycles), order=14,
    description=_first_doc(fig14_cycles),
)
FIGURES.register(
    "fig15", _table_figure(fig15_dataflow), order=15,
    description=_first_doc(fig15_dataflow),
)
FIGURES.register(
    "fig17", _table_figure(fig17_tile_sweep_3d), order=17,
    description=_first_doc(fig17_tile_sweep_3d),
)
FIGURES.register(
    "fig18", _table_figure(fig18_energy), order=18,
    description=_first_doc(fig18_energy),
)
FIGURES.register(
    "jit", _table_figure(jit_overheads), order=50,
    description=_first_doc(jit_overheads),
)
FIGURES.register(
    "zoo", _table_figure(zoo_speedup), order=60,
    description=_first_doc(zoo_speedup),
)
