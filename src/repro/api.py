"""The one-stop public API for the infinity-stream library.

Typical use::

    import numpy as np
    from repro import api

    program = api.compile_kernel(
        "saxpy",
        '''
        for i in [0, N):
            Y[i] = a * X[i] + Y[i]
        ''',
        arrays={"X": ("N",), "Y": ("N",)},
    )
    x = np.arange(1024, dtype=np.float32)
    y = np.ones(1024, dtype=np.float32)
    api.run(program, params={"N": 1024, "a": 3}, arrays={"X": x, "Y": y})

plus :func:`offload` to query the in-/near-memory decision, and
:func:`simulate` to obtain cycle/traffic/energy estimates under any of
the paper's configurations.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Mapping

import numpy as np

from repro.backend import FatBinary
from repro.config.system import (
    SystemConfig,
    default_system,
    small_test_system,
)
from repro.egraph import OptimizationReport, OptimizerConfig
from repro.frontend import KernelProgram
from repro.ir.dtypes import DType
from repro.pipeline import (
    ProgramArtifact,
    SourceArtifact,
    compile_pipeline,
    simulate_pipeline,
)
from repro.runtime.decision import OffloadChoice, decide_tdfg
from repro.sim.functional import execute_kernel, interpret_kernel
from repro.sim.stats import RunResult
from repro.workloads.base import Workload

__all__ = [
    "compile_kernel",
    "run",
    "offload",
    "simulate",
    "optimize",
    "fat_binary",
    "OffloadChoice",
]


def compile_kernel(
    name: str,
    source: str,
    arrays: Mapping[str, tuple[str | int, ...]],
    dtype: DType = DType.FP32,
) -> KernelProgram:
    """Statically compile a plain loop-nest kernel (Fig 3, step 1).

    ``arrays`` maps array names to shapes in C declaration order;
    symbolic dimensions are bound at :func:`run`/:func:`simulate` time.
    """
    pipeline = compile_pipeline()
    source_artifact = SourceArtifact(
        name=name, source=source, arrays=dict(arrays), dtype=dtype
    )
    result = pipeline.run(source_artifact, until="parse")
    return result.final.program


def run(
    program: KernelProgram,
    params: Mapping[str, int],
    arrays: dict[str, np.ndarray],
    dataflow: str = "inner",
    mode: str = "reference",
    system: SystemConfig | None = None,
) -> dict[str, float]:
    """Execute the kernel functionally, mutating ``arrays`` in place.

    ``mode="reference"`` evaluates compiled tDFG regions directly;
    ``mode="grid"`` replays JIT-lowered bit-serial commands on the SRAM
    grid model (slower, bit-faithful to the lowering);
    ``mode="interpret"`` runs the plain sequential semantics.
    Returns the scalar results (reduction outputs, host scalars).
    """
    sizes = {k: int(v) for k, v in params.items()}
    if mode == "interpret":
        return interpret_kernel(program, sizes, arrays)
    kernel = program.instantiate(sizes, dataflow=dataflow)
    return execute_kernel(
        kernel,
        arrays,
        mode=mode,
        system=system or (small_test_system() if mode == "grid" else None),
    )


def offload(
    program: KernelProgram,
    params: Mapping[str, int],
    dataflow: str = "inner",
    system: SystemConfig | None = None,
) -> OffloadChoice:
    """Evaluate Eq. 2 for the kernel's first region (§4.3)."""
    kernel = program.instantiate(
        {k: int(v) for k, v in params.items()}, dataflow=dataflow
    )
    region = kernel.first_region()
    return decide_tdfg(region.tdfg, system or default_system())


def simulate(
    program: KernelProgram,
    params: Mapping[str, int],
    paradigm: str = "inf-s",
    dataflow: str = "inner",
    iterations: int = 1,
    system: SystemConfig | None = None,
) -> RunResult:
    """Estimate cycles/traffic/energy under one configuration.

    ``paradigm`` is one of ``base``, ``base-1``, ``near-l3``, ``in-l3``,
    ``inf-s``, ``inf-s-nojit`` (the Fig 11 configurations).
    """
    pipeline = simulate_pipeline(
        paradigm=paradigm, iterations=iterations, system=system
    )
    result = pipeline.run(
        ProgramArtifact(program=program, params=dict(params), dataflow=dataflow)
    )
    return result.final.result


def optimize(
    program: KernelProgram,
    params: Mapping[str, int],
    dataflow: str = "inner",
    config: OptimizerConfig = OptimizerConfig(),
):
    """E-graph-optimize the kernel's first region; returns (tdfg, report)."""
    pipeline = compile_pipeline(optimize=True, **asdict(config))
    result = pipeline.run(
        ProgramArtifact(program=program, params=dict(params), dataflow=dataflow),
        until="optimize",
    )
    artifact = result.final
    return artifact.tdfg, artifact.report


def fat_binary(
    program: KernelProgram,
    params: Mapping[str, int],
    dataflow: str = "inner",
) -> FatBinary:
    """Compile the kernel's first region for the common SRAM sizes."""
    pipeline = compile_pipeline()
    result = pipeline.run(
        ProgramArtifact(program=program, params=dict(params), dataflow=dataflow),
        until="fatbinary",
    )
    return result.final.binary
