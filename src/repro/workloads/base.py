"""The workload abstraction consumed by runners and benchmarks.

A :class:`Workload` wraps a kernel program with its paper parameters
(Table 3), the dataflow variant, the outer iteration count (e.g. 10
stencil sweeps with array ping-pong), and optional extra near-memory
phases that are not expressible as affine kernels (kmeans' indirect
centroid update).  It also derives the op/byte totals the Base and
Near-L3 models need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from repro.egraph.saturate import OptimizerConfig
from repro.exec.cache import active_cache, stable_digest
from repro.frontend.classify import LoopKind, StmtMode
from repro.frontend.kast import BinOp, Call, Expr, Ref, UnaryOp, Var, walk_refs
from repro.frontend.kernel import InstantiatedKernel, KernelProgram
from repro.ir.dtypes import DType


@dataclass(frozen=True)
class NearMemPhase:
    """An extra phase executing as near-memory streams only.

    Models irregular phases the tDFG keeps as streams (e.g. kmeans'
    indirect centroid recomputation): ``bytes_accessed`` of stream
    traffic, ``ops`` of near-stream computation, ``indirect`` marks
    dependent accesses.
    """

    name: str
    bytes_accessed: int
    ops: int
    indirect: bool = True


def _count_ops(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        return 1 + _count_ops(expr.left) + _count_ops(expr.right)
    if isinstance(expr, UnaryOp):
        return 1 + _count_ops(expr.operand)
    if isinstance(expr, Call):
        return 1 + sum(_count_ops(a) for a in expr.args)
    return 0


@dataclass
class WorkloadCosts:
    """Aggregate op/byte totals (for the core-centric models)."""

    total_ops: int = 0  # arithmetic ops over the whole run
    unique_bytes: int = 0  # distinct data touched (compulsory traffic)
    streamed_bytes: int = 0  # bytes referenced incl. re-reads w/o reuse
    stream_ops: int = 0  # ops in stream/host statements
    indirect_bytes: int = 0


@dataclass
class Workload:
    """One benchmark: kernel + parameters + execution schedule."""

    name: str
    program: KernelProgram
    params: dict[str, int]
    dataflow: str = "inner"
    iterations: int = 1
    swap: tuple[str, str] | None = None  # ping-pong arrays per iteration
    data_in_l3: bool = False  # Fig 2 assumes data resident + transposed
    steady_state: bool = False  # JIT results already memoized (Fig 2)
    extra_phases: tuple[NearMemPhase, ...] = ()
    elem_type: DType = DType.FP32
    # The e-graph optimizer run on every region (None = off); the CLI
    # and serve job-spec settings land here.
    optimizer: OptimizerConfig | None = None
    host_loops: tuple[str, ...] = ()

    def instantiate(self) -> InstantiatedKernel:
        return self.program.instantiate(
            self.params, dataflow=self.dataflow, host_loops=self.host_loops
        )

    @cached_property
    def kernel(self) -> InstantiatedKernel:
        """The instantiated kernel, shared by equal workloads.

        Figures and served jobs re-create the same workloads point after
        point; the active compilation cache keeps one kernel (and every
        region it has built) per distinct instantiation, so they are
        built once.  Unshared when the cache is disabled.
        """
        cache = active_cache()
        if cache is None:
            return self.instantiate()
        program = self.program
        key = "kernel-" + stable_digest(
            [
                program.name,
                program.source,
                program.array_shapes,
                program.dtype,
                sorted(self.params.items()),
                self.dataflow,
                self.host_loops,
            ]
        )
        return cache.resident(key, self.instantiate)

    # ------------------------------------------------------------------
    # Op / byte accounting for the core-centric models
    # ------------------------------------------------------------------
    @cached_property
    def costs(self) -> WorkloadCosts:
        ik = self.kernel
        costs = WorkloadCosts()
        decls = ik.arrays
        costs.unique_bytes = sum(d.total_bytes for d in decls.values())
        # Per-statement trip counts, summed over host iterations (handles
        # triangular nests like Gaussian elimination exactly).  Indirect
        # (gathered) elements count once per statement — the distinct rows
        # are cacheable across host iterations.
        indirect_done: set[int] = set()
        for segment in ik.segments:
            stmt_ops = [
                _count_ops(s.assign.value) + (1 if s.assign.aug else 0)
                for s in segment.stmts
            ]
            for env in ik.host_iterations(segment):
                scope = {**ik.params, **env}
                for info_ops, stmt in zip(stmt_ops, segment.stmts):
                    trip = 1
                    for loop in stmt.loops:
                        if loop.var in env:
                            continue
                        trip *= max(0, loop.extent(scope))
                    costs.total_ops += info_ops * trip
                    if stmt.mode is not StmtMode.TENSOR:
                        costs.stream_ops += info_ops * trip
                    # Streamed bytes: every operand element referenced.
                    refs = 0
                    if isinstance(stmt.assign.target, Ref):
                        refs += 1
                    refs += sum(1 for _ in walk_refs(stmt.assign.value))
                    costs.streamed_bytes += (
                        refs * trip * self.elem_type.bytes
                    )
                    if id(stmt) in indirect_done:
                        continue
                    for ref in walk_refs(stmt.assign.value):
                        from repro.frontend.affine import is_affine
                        from repro.frontend.kast import free_vars

                        if any(not is_affine(sub) for sub in ref.subscripts):
                            # Distinct gathered elements: loops missing
                            # from the ref are (cacheable) reuse.
                            used: set[str] = set()
                            for sub in ref.subscripts:
                                used |= free_vars(sub)
                            ref_trip = 1
                            for loop in stmt.loops:
                                if loop.var not in used:
                                    continue
                                ref_trip *= max(0, loop.extent(scope))
                            costs.indirect_bytes += (
                                ref_trip * self.elem_type.bytes
                            )
                            indirect_done.add(id(stmt))
        costs.total_ops *= self.iterations
        costs.stream_ops *= self.iterations
        costs.streamed_bytes *= self.iterations
        costs.indirect_bytes *= self.iterations
        for phase in self.extra_phases:
            costs.total_ops += phase.ops * self.iterations
            costs.stream_ops += phase.ops * self.iterations
            costs.streamed_bytes += phase.bytes_accessed * self.iterations
            if phase.indirect:
                costs.indirect_bytes += phase.bytes_accessed * self.iterations
        return costs

    def array_bytes(self) -> int:
        return sum(d.total_bytes for d in self.kernel.arrays.values())

    def describe(self) -> str:
        p = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({p}) x{self.iterations} [{self.dataflow}]"
