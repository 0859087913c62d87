"""The kernel-program facade: parse once, instantiate per input size.

:func:`parse_kernel` plays the role of the paper's static LLVM compiler:
it parses the kernel source and produces a :class:`KernelProgram` — the
"fat binary" precursor that is *neutral to input sizes*.  Calling
:meth:`KernelProgram.instantiate` with concrete sizes performs loop
classification and yields an :class:`InstantiatedKernel` that enumerates
host-loop iterations, building one tDFG region per iteration (the JIT
runtime then lowers and memoizes them, §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import FrontendError
from repro.frontend.build import RegionInstance, build_region
from repro.frontend.classify import (
    Classification,
    LoopInfo,
    LoopKind,
    classify,
)
from repro.frontend.kast import Stmt
from repro.frontend.parser import parse_source
from repro.ir.dtypes import DType
from repro.ir.tdfg import ArrayDecl


@dataclass(frozen=True)
class KernelProgram:
    """A parsed kernel, independent of input sizes and hardware.

    ``array_shapes`` follow C declaration order (``A[N][M]`` is
    ``("N", "M")``, outermost first); dimensions may be symbolic names
    resolved against ``params`` at instantiation.
    """

    name: str
    source: str
    stmts: tuple[Stmt, ...]
    array_shapes: tuple[tuple[str, tuple[str | int, ...]], ...]
    dtype: DType = DType.FP32

    def instantiate(
        self,
        params: Mapping[str, int],
        dataflow: str = "inner",
        host_loops: tuple[str, ...] = (),
    ) -> "InstantiatedKernel":
        """Bind sizes, classify loops, and return the instantiated kernel."""
        arrays: dict[str, ArrayDecl] = {}
        for name, dims in self.array_shapes:
            shape_outer_first = tuple(
                int(params[d]) if isinstance(d, str) else int(d) for d in dims
            )
            # ArrayDecl stores dimension 0 (innermost/contiguous) first.
            arrays[name] = ArrayDecl(
                name, tuple(reversed(shape_outer_first)), self.dtype
            )
        cls = classify(
            self.stmts, dict(params), dataflow=dataflow, host_loops=host_loops
        )
        _check_host_outermost(cls)
        return InstantiatedKernel(
            name=self.name,
            classification=cls,
            arrays=arrays,
            params=dict(params),
            dtype=self.dtype,
            dataflow=dataflow,
        )


def _check_host_outermost(cls: Classification) -> None:
    """Host loops may sit inside tensor loops only if interchangeable.

    Tensor loops are fully unrolled (no sequential semantics), so a host
    loop can be hoisted outside them as long as its bounds do not depend
    on any tensor variable.
    """
    tensor_vars = {l.var for l in cls.tensor_loops()}
    for stmt in cls.stmts:
        seen_tensor = False
        for info in stmt.loops:
            if info.kind is LoopKind.HOST:
                if seen_tensor and (
                    (info.lo.vars | info.hi.vars) & tensor_vars
                ):
                    raise FrontendError(
                        f"host loop {info.var!r} nested inside a tensor loop "
                        "has tensor-dependent bounds; cannot interchange"
                    )
            else:
                seen_tensor = True


@dataclass(frozen=True)
class Segment:
    """Consecutive statements sharing one host-loop chain.

    A kernel with several top-level loop nests (e.g. gather_mlp's matmul
    followed by a ReLU pass) splits into segments that execute in program
    order, each enumerating only its own host loops.
    """

    index: int
    host_loops: tuple[LoopInfo, ...]
    stmts: tuple["StmtInfo", ...]  # noqa: F821 (from classify)


@dataclass
class InstantiatedKernel:
    """A kernel with concrete sizes: enumerable host iterations + regions."""

    name: str
    classification: Classification
    arrays: dict[str, ArrayDecl]
    params: dict[str, int]
    dtype: DType
    dataflow: str = "inner"
    _region_cache: dict[tuple, RegionInstance] = field(default_factory=dict)

    @property
    def segments(self) -> tuple[Segment, ...]:
        out: list[Segment] = []
        current: list = []
        current_chain: tuple[str, ...] | None = None
        for stmt in self.classification.stmts:
            chain = tuple(
                l.var for l in stmt.loops if l.kind is LoopKind.HOST
            )
            if chain != current_chain and current:
                out.append(self._make_segment(len(out), current))
                current = []
            current_chain = chain
            current.append(stmt)
        if current:
            out.append(self._make_segment(len(out), current))
        return tuple(out)

    def _make_segment(self, index: int, stmts: list) -> Segment:
        hosts: list[LoopInfo] = []
        seen: set[str] = set()
        for info in stmts[0].loops:
            if info.kind is LoopKind.HOST and info.var not in seen:
                hosts.append(info)
                seen.add(info.var)
        depths = [l.depth for l in hosts]
        if len(set(depths)) != len(depths):
            raise FrontendError(
                "multiple host loops at one nesting depth are not supported"
            )
        return Segment(
            index=index,
            host_loops=tuple(sorted(hosts, key=lambda l: l.depth)),
            stmts=tuple(stmts),
        )

    @property
    def host_loops(self) -> tuple[LoopInfo, ...]:
        """All host loops of the kernel (ordered by depth)."""
        loops = self.classification.host_loops()
        return tuple(sorted(loops, key=lambda l: (l.depth, l.var)))

    def host_iterations(
        self, segment: Segment | None = None
    ) -> Iterator[dict[str, int]]:
        """Enumerate host-loop bindings for one segment (or segment 0)."""
        if segment is None:
            segment = self.segments[0]
        yield from _bindings(segment.host_loops, self.params, 0, {})

    def num_regions(self) -> int:
        count = 0
        for segment in self.segments:
            for _ in self.host_iterations(segment):
                count += 1
        return count

    def region_at(
        self,
        host_env: Mapping[str, int],
        segment: Segment | None = None,
    ) -> RegionInstance:
        """Build (and cache) the tDFG region for one host iteration."""
        if segment is None:
            segment = self.segments[0]
        key = (segment.index, tuple(sorted(host_env.items())))
        if key in self._region_cache:
            return self._region_cache[key]
        bindings = {**self.params, **host_env}
        suffix = ",".join(f"{k}={v}" for k, v in sorted(host_env.items()))
        name = f"{self.name}#{segment.index}"
        if suffix:
            name = f"{name}[{suffix}]"
        region = build_region(
            name,
            self.classification,
            self.arrays,
            bindings,
            self.dtype,
            stmts=segment.stmts,
        )
        self._region_cache[key] = region
        return region

    def regions(self) -> Iterator[RegionInstance]:
        """All regions in execution order (segments, then host iters)."""
        for segment in self.segments:
            for env in self.host_iterations(segment):
                yield self.region_at(env, segment)

    def first_region(self) -> RegionInstance:
        for region in self.regions():
            return region
        raise FrontendError(f"kernel {self.name!r} has no host iterations")

    def summary(self) -> str:
        loops = ", ".join(
            f"{l.var}:{l.kind.value}" for l in self.classification.loops
        )
        modes = ", ".join(
            f"{s.assign.target}:{s.mode.value}" for s in self.classification.stmts
        )
        return f"{self.name}: loops[{loops}] stmts[{modes}]"


def _bindings(
    loops: tuple[LoopInfo, ...],
    params: Mapping[str, int],
    idx: int,
    env: dict[str, int],
) -> Iterator[dict[str, int]]:
    """Host-loop bindings of ``loops[idx:]`` under the outer ``env``.

    Module-level rather than a closure: a closure that calls itself is a
    reference cycle, and one capturing the kernel would keep it (and
    every region it cached) alive until the cycle collector runs.
    """
    if idx == len(loops):
        yield dict(env)
        return
    info = loops[idx]
    scope = {**params, **env}
    lo = info.lo.evaluate(scope)
    hi = info.hi.evaluate(scope)
    step = info.step.evaluate(scope) if info.step is not None else 1
    if step <= 0:
        raise FrontendError(f"non-positive step in loop {info.var!r}")
    for value in range(lo, hi, step):
        env[info.var] = value
        yield from _bindings(loops, params, idx + 1, env)
    env.pop(info.var, None)


def parse_kernel(
    name: str,
    source: str,
    arrays: Mapping[str, tuple[str | int, ...]],
    dtype: DType = DType.FP32,
) -> KernelProgram:
    """Parse kernel source into a size-neutral :class:`KernelProgram`.

    ``arrays`` maps array names to shapes in C declaration order; symbolic
    dimensions refer to parameters bound at instantiation.
    """
    stmts = parse_source(source)
    return KernelProgram(
        name=name,
        source=source,
        stmts=stmts,
        array_shapes=tuple((n, tuple(dims)) for n, dims in arrays.items()),
        dtype=dtype,
    )
