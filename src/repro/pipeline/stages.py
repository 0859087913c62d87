"""Standard pipeline stages and pipeline builders.

The canonical compile chain::

    parse          SourceArtifact   -> ProgramArtifact
    build-region   ProgramArtifact  -> RegionArtifact
    optimize       RegionArtifact   -> TDFGArtifact   (passthrough unless enabled)
    fatbinary      TDFGArtifact     -> FatBinaryArtifact
    jit-lower      FatBinaryArtifact-> LoweredArtifact

plus the terminal ``simulate`` stage (ProgramArtifact -> RunArtifact),
which drives the paradigm dispatch the public API exposes.  The
``optimize`` stage always exists so the typed chain is uniform; without
an :class:`~repro.egraph.OptimizerConfig` it forwards the region's tDFG
untouched (``report=None``).

Stage bodies delegate to the existing compiler entry points
(``parse_kernel``, ``optimize_tdfg``, ``compile_fat_binary``,
``JITCompiler.compile_region``), which consult the content-addressed
cache with stage-scoped keys (``fatbinary-…``, ``jit-lower-…``) — so a
fat-binary cache hit skips only that stage's scheduling work.
"""

from __future__ import annotations

from typing import Sequence

from repro.egraph.saturate import OptimizerConfig
from repro.pipeline import verify as V
from repro.pipeline.artifacts import (
    FatBinaryArtifact,
    LoweredArtifact,
    ProgramArtifact,
    RegionArtifact,
    RunArtifact,
    SourceArtifact,
    TDFGArtifact,
)
from repro.pipeline.manager import PassManager, PipelineHooks, Stage


# ----------------------------------------------------------------------
# Stage constructors
# ----------------------------------------------------------------------
def parse_stage() -> Stage:
    def run(art: SourceArtifact) -> ProgramArtifact:
        from repro.frontend import parse_kernel

        program = parse_kernel(
            art.name, art.source, arrays=dict(art.arrays), dtype=art.dtype
        )
        return ProgramArtifact(
            program=program, params=dict(art.params), dataflow=art.dataflow
        )

    return Stage(
        name="parse",
        input_type=SourceArtifact,
        output_type=ProgramArtifact,
        run=run,
        verifier=V.verify_program,
    )


def build_region_stage() -> Stage:
    def run(art: ProgramArtifact) -> RegionArtifact:
        kernel = art.program.instantiate(
            {k: int(v) for k, v in art.params.items()}, dataflow=art.dataflow
        )
        return RegionArtifact(region=kernel.first_region(), kernel=kernel)

    return Stage(
        name="build-region",
        input_type=ProgramArtifact,
        output_type=RegionArtifact,
        run=run,
        verifier=V.verify_region,
    )


def optimize_stage(config: OptimizerConfig | None) -> Stage:
    """E-graph optimization under *config*; a typed passthrough for None."""

    def run(art: RegionArtifact | TDFGArtifact) -> TDFGArtifact:
        tdfg = art.region.tdfg if isinstance(art, RegionArtifact) else art.tdfg
        if config is None:
            return TDFGArtifact(tdfg=tdfg)
        from repro.egraph import optimize_tdfg

        optimized, report = optimize_tdfg(tdfg, config)
        return TDFGArtifact(tdfg=optimized, report=report)

    return Stage(
        name="optimize",
        input_type=(RegionArtifact, TDFGArtifact),
        output_type=TDFGArtifact,
        run=run,
        verifier=V.verify_tdfg_artifact,
    )


def fatbinary_stage(sram_sizes: tuple[int, ...] | None = None) -> Stage:
    def run(art: TDFGArtifact) -> FatBinaryArtifact:
        from repro.backend.fatbinary import COMMON_SRAM_SIZES, compile_fat_binary

        binary = compile_fat_binary(art.tdfg, sram_sizes or COMMON_SRAM_SIZES)
        return FatBinaryArtifact(binary=binary)

    return Stage(
        name="fatbinary",
        input_type=TDFGArtifact,
        output_type=FatBinaryArtifact,
        run=run,
        verifier=V.verify_fatbinary,
    )


def jit_lower_stage(
    jit=None, tile_override: tuple[int, ...] | None = None
) -> Stage:
    """Lower through *jit* (a shared, memoizing :class:`JITCompiler`)."""
    if jit is None:
        from repro.runtime.jit import JITCompiler

        jit = JITCompiler()

    def run(art: FatBinaryArtifact) -> LoweredArtifact:
        result = jit.compile_region(art.binary, tile_override)
        return LoweredArtifact(result=result, binary=art.binary)

    return Stage(
        name="jit-lower",
        input_type=FatBinaryArtifact,
        output_type=LoweredArtifact,
        run=run,
        verifier=V.verify_lowered,
    )


def simulate_stage(
    paradigm: str = "inf-s",
    iterations: int = 1,
    system=None,
    optimizer: OptimizerConfig | None = None,
) -> Stage:
    """Whole-workload timing under one Fig 11 configuration.

    Internally the Inf-S/In-L3 runner drives a per-region
    [``fatbinary``, ``jit-lower``] sub-pipeline for every host
    iteration (see :class:`repro.sim.engine.InfinityStreamRunner`).
    """

    def run(art: ProgramArtifact) -> RunArtifact:
        from repro.config.system import default_system
        from repro.registry import PARADIGMS
        from repro.workloads.base import Workload

        sys_cfg = system or default_system()
        wl = Workload(
            name=art.program.name,
            program=art.program,
            params={k: int(v) for k, v in art.params.items()},
            dataflow=art.dataflow,
            iterations=iterations,
            optimizer=optimizer,
        )
        # One lookup path for every paradigm: the registered factory
        # already wraps Base/Near-L3 with energy annotation and
        # defaults Base to all cores (sys_cfg.num_cores), Base-1 to a
        # single thread — identical to the old if/elif dispatch.
        runner = PARADIGMS.create(paradigm, system=sys_cfg)
        return RunArtifact(result=runner.run(wl))

    return Stage(
        name="simulate",
        input_type=ProgramArtifact,
        output_type=RunArtifact,
        run=run,
        verifier=V.verify_run,
    )


# ----------------------------------------------------------------------
# Pipeline builders
# ----------------------------------------------------------------------
def compile_pipeline(
    optimize: bool = False, hooks: Sequence[PipelineHooks] = (), **knobs
) -> PassManager:
    """The full compile chain: parse → … → jit-lower.

    The keyword *knobs* build an :class:`OptimizerConfig`, checked either
    way, that the optimize stage runs under when ``optimize=True``.
    """
    config = OptimizerConfig(**knobs)
    return PassManager(
        [
            parse_stage(),
            build_region_stage(),
            optimize_stage(config if optimize else None),
            fatbinary_stage(),
            jit_lower_stage(),
        ],
        hooks=hooks,
    )


def simulate_pipeline(
    paradigm: str = "inf-s",
    iterations: int = 1,
    system=None,
    optimizer: OptimizerConfig | None = None,
    hooks: Sequence[PipelineHooks] = (),
) -> PassManager:
    """parse → simulate (the runner pipelines per-region internally)."""
    return PassManager(
        [parse_stage(), simulate_stage(paradigm, iterations, system, optimizer)],
        hooks=hooks,
    )


def region_pipeline(
    jit=None,
    sram_sizes: tuple[int, ...] | None = None,
    tile_override: tuple[int, ...] | None = None,
    optimizer: OptimizerConfig | None = None,
) -> PassManager:
    """The timing engine's per-region chain: [optimize →] fatbinary →
    jit-lower, with the optimize stage only when *optimizer* is set.

    It runs once per host-loop iteration on the simulation hot path, so
    it skips the inter-stage verifiers; :func:`compile_pipeline` runs
    them on the same stages.  When the observability layer
    (:mod:`repro.trace`) is active at construction time, a
    :class:`~repro.pipeline.hooks.TraceHooks` rides along; with tracing
    off the hook list stays empty and the hot path pays nothing.
    """
    from repro.trace import events as _trace
    from repro.trace import metrics as _metrics

    hooks: list[PipelineHooks] = []
    if _metrics.REGISTRY is not None or _trace.TRACER is not None:
        from repro.pipeline.hooks import TraceHooks

        hooks.append(TraceHooks())
    stages = [fatbinary_stage(sram_sizes), jit_lower_stage(jit, tile_override)]
    if optimizer is not None:
        stages.insert(0, optimize_stage(optimizer))
    return PassManager(stages, hooks=hooks, verify=False)
