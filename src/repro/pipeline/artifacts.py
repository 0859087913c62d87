"""Typed inter-stage artifacts of the compilation pipeline.

Each pipeline stage declares one artifact type as input and one as
output; the :class:`~repro.pipeline.manager.PassManager` enforces the
contract at stage boundaries.  Artifacts are thin dataclass wrappers
around the existing compiler objects (``KernelProgram``,
``RegionInstance``, ``TensorDFG``, ``FatBinary``, ``JITResult``,
``RunResult``) plus whatever cross-stage context downstream stages need
(size bindings, dataflow choice).

Artifacts are treated as immutable by every consumer — the same
convention the content-addressed cache relies on.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.ir.dtypes import DType

if TYPE_CHECKING:  # import cycles: these are type-only references
    from repro.backend.fatbinary import FatBinary
    from repro.egraph import OptimizationReport
    from repro.frontend.build import RegionInstance
    from repro.frontend.kernel import InstantiatedKernel, KernelProgram
    from repro.runtime.jit import JITResult
    from repro.sim.stats import RunResult


class Artifact:
    """Base class for pipeline artifacts."""

    @property
    def kind(self) -> str:
        return type(self).__name__.removesuffix("Artifact").lower()

    def size_bytes(self) -> int:
        """Approximate serialized size, for per-stage instrumentation.

        Only computed by hooks that ask for it (``--time-passes``,
        ``--dump-dir``) — never on the hot simulation path.
        """
        try:
            return len(pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return 0


@dataclass
class SourceArtifact(Artifact):
    """Pipeline input: raw kernel source plus its compile-time context.

    ``arrays`` maps array names to shapes in C declaration order;
    ``params`` binds symbolic sizes/constants for instantiation.
    """

    name: str
    source: str
    arrays: Mapping[str, tuple[str | int, ...]]
    dtype: DType = DType.FP32
    params: Mapping[str, int] = field(default_factory=dict)
    dataflow: str = "inner"

    def size_bytes(self) -> int:
        return len(self.source.encode())


@dataclass
class ProgramArtifact(Artifact):
    """``parse`` output: a size-neutral :class:`KernelProgram`."""

    program: "KernelProgram"
    params: Mapping[str, int] = field(default_factory=dict)
    dataflow: str = "inner"

    def size_bytes(self) -> int:
        return len(self.program.source.encode())


@dataclass
class RegionArtifact(Artifact):
    """``build-region`` output: one host iteration's tDFG region.

    ``kernel`` carries the full instantiated kernel when the region came
    from a whole-program pipeline run (the CLI); per-region pipelines
    inside the timing engine leave it ``None``.
    """

    region: "RegionInstance"
    kernel: "InstantiatedKernel | None" = None

    def size_bytes(self) -> int:
        from repro.ir.printer import tdfg_to_json

        return len(tdfg_to_json(self.region.tdfg).encode())


@dataclass
class TDFGArtifact(Artifact):
    """``optimize`` output: the (possibly e-graph-optimized) tDFG.

    ``report`` is ``None`` when the optimize stage ran as a passthrough.
    """

    tdfg: "object"  # TensorDFG (untyped to avoid an import cycle)
    report: "OptimizationReport | None" = None

    def size_bytes(self) -> int:
        from repro.ir.printer import tdfg_to_json

        return len(tdfg_to_json(self.tdfg).encode())


@dataclass
class FatBinaryArtifact(Artifact):
    """``fatbinary`` output: the region scheduled for common SRAM sizes."""

    binary: "FatBinary"

    @property
    def kind(self) -> str:
        return "fatbinary"


@dataclass
class LoweredArtifact(Artifact):
    """``jit-lower`` output: bit-serial commands plus JIT cost.

    ``binary`` is the fat binary the lowering came from, kept so the
    lowered-region verifier can check command operands against the
    scheduled register file.
    """

    result: "JITResult"
    binary: "FatBinary | None" = None

    @property
    def lowered(self):
        return self.result.lowered


@dataclass
class RunArtifact(Artifact):
    """``simulate`` output: cycles/traffic/energy for one configuration."""

    result: "RunResult"
