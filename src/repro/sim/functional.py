"""Functional execution: golden interpreter, tDFG reference, grid replay.

The three paths (see the package docstring) share one array convention:
user-facing numpy arrays use natural C shapes (``A[N][M]`` has numpy
shape ``(N, M)``); lattice dimension 0 is the *last* numpy axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import SimulationError
from repro.frontend.build import GatherSpec, RegionInstance
from repro.frontend.classify import LoopKind, StmtInfo
from repro.frontend.kast import (
    Assign,
    BinOp,
    Call,
    Expr,
    Num,
    Ref,
    UnaryOp,
    Var,
)
from repro.frontend.kernel import InstantiatedKernel, KernelProgram
from repro.geometry.hyperrect import Hyperrect
from repro.ir.nodes import (
    BroadcastNode,
    ComputeNode,
    ConstNode,
    MoveNode,
    Node,
    ReduceNode,
    ShrinkNode,
    StreamKind,
    StreamNode,
    TensorNode,
)
from repro.ir.ops import Op


# ----------------------------------------------------------------------
# Golden AST interpreter (sequential kernel semantics)
# ----------------------------------------------------------------------
_CALLS = {
    "min": min,
    "max": max,
    "relu": lambda x: x if x > 0 else type(x)(0),
    "abs": abs,
    "select": lambda c, a, b: a if c else b,
}


def _eval_scalar(expr: Expr, env: Mapping[str, float], arrays) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise SimulationError(f"unbound variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, Ref):
        idx = tuple(
            int(_eval_scalar(s, env, arrays)) for s in expr.subscripts
        )
        return arrays[expr.array][idx]
    if isinstance(expr, UnaryOp):
        return -_eval_scalar(expr.operand, env, arrays)
    if isinstance(expr, BinOp):
        a = _eval_scalar(expr.left, env, arrays)
        b = _eval_scalar(expr.right, env, arrays)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        raise SimulationError(f"unknown operator {expr.op!r}")
    if isinstance(expr, Call):
        args = [_eval_scalar(a, env, arrays) for a in expr.args]
        return _CALLS[expr.func](*args)
    raise SimulationError(f"cannot evaluate {expr!r}")


def interpret_kernel(
    program: KernelProgram,
    params: Mapping[str, int],
    arrays: dict[str, np.ndarray],
) -> dict[str, float]:
    """Run the kernel source with plain sequential semantics (golden).

    Mutates ``arrays`` in place; returns the final scalar environment.
    Intended for small validation sizes — it is an interpreter, not a
    performance path.
    """
    from repro.frontend.kast import For, Stmt

    env: dict[str, float] = dict(params)

    def run(stmts: tuple[Stmt, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, For):
                lo = int(_eval_scalar(stmt.lo, env, arrays))
                hi = int(_eval_scalar(stmt.hi, env, arrays))
                step = (
                    int(_eval_scalar(stmt.step, env, arrays))
                    if stmt.step is not None
                    else 1
                )
                for v in range(lo, hi, step):
                    env[stmt.var] = v
                    run(stmt.body)
                env.pop(stmt.var, None)
            else:
                assert isinstance(stmt, Assign)
                value = _eval_scalar(stmt.value, env, arrays)
                if isinstance(stmt.target, Var):
                    if stmt.aug:
                        value = _apply_aug(
                            stmt.aug, env[stmt.target.name], value
                        )
                    env[stmt.target.name] = value
                else:
                    idx = tuple(
                        int(_eval_scalar(s, env, arrays))
                        for s in stmt.target.subscripts
                    )
                    arr = arrays[stmt.target.array]
                    if stmt.aug:
                        value = _apply_aug(stmt.aug, arr[idx], value)
                    arr[idx] = value

    run(program.stmts)
    return env


def _apply_aug(aug: str, old, new):
    if aug == "+":
        return old + new
    if aug == "-":
        return old - new
    if aug == "*":
        return old * new
    if aug == "/":
        return old / new
    raise SimulationError(f"unknown augmented op {aug!r}")


# ----------------------------------------------------------------------
# Lattice planes: padded views over user arrays
# ----------------------------------------------------------------------
@dataclass
class LatticeContext:
    """Shared state for evaluating one region's tDFG."""

    shape: tuple[int, ...]  # padded lattice bounding box, dim 0 innermost
    arrays: dict[str, np.ndarray]  # user arrays, natural C shapes
    array_shapes: dict[str, tuple[int, ...]]  # padded decl shapes
    params: dict[str, float]
    gathers: dict[str, GatherSpec] = field(default_factory=dict)
    dtype: np.dtype = np.dtype(np.float32)
    _cache: dict[int, np.ndarray] = field(default_factory=dict)

    def plane(self) -> np.ndarray:
        return np.zeros(tuple(reversed(self.shape)), dtype=self.dtype)

    def array_view(self, name: str) -> np.ndarray:
        """The user array reshaped to its padded lattice rank."""
        padded = self.array_shapes[name]
        return self.arrays[name].reshape(tuple(reversed(padded)))


def _lattice_shape(region: RegionInstance) -> tuple[int, ...]:
    decls = region.tdfg.arrays.values()
    rank = max(d.ndim for d in decls)
    return tuple(
        max(d.shape[i] if i < d.ndim else 1 for d in decls)
        for i in range(rank)
    )


def eval_node(node: Node, ctx: LatticeContext) -> np.ndarray | float:
    """Reference evaluation of a tDFG node over the padded lattice."""
    if id(node) in ctx._cache:
        return ctx._cache[id(node)]
    result = _eval_node_inner(node, ctx)
    if isinstance(result, np.ndarray):
        ctx._cache[id(node)] = result
    return result


def _eval_node_inner(node: Node, ctx: LatticeContext) -> np.ndarray | float:
    if isinstance(node, ConstNode):
        if node.is_symbolic:
            name = str(node.value)
            if name not in ctx.params or math.isnan(ctx.params[name]):
                raise SimulationError(f"unresolved parameter {name!r}")
            return ctx.dtype.type(ctx.params[name])
        return ctx.dtype.type(node.value)
    if isinstance(node, TensorNode):
        plane = ctx.plane()
        view = ctx.array_view(node.array)
        src_sel = node.region.numpy_slices()
        plane[src_sel] = view[src_sel]
        return plane
    if isinstance(node, ComputeNode):
        args = [eval_node(op, ctx) for op in node.inputs]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = node.op.apply(*_np_args(args, ctx))
        return result.astype(ctx.dtype)
    if isinstance(node, MoveNode):
        src = eval_node(node.src, ctx)
        assert isinstance(src, np.ndarray)
        out = ctx.plane()
        src_dom = node.src.domain
        dst_dom = node.domain
        assert src_dom is not None and dst_dom is not None
        bound = Hyperrect.from_shape(ctx.shape)
        clipped_dst = dst_dom.intersect(bound)
        clipped_src = clipped_dst.shifted(node.dim, -node.dist)
        if not clipped_dst.is_empty:
            out[clipped_dst.numpy_slices()] = src[clipped_src.numpy_slices()]
        return out
    if isinstance(node, BroadcastNode):
        src = eval_node(node.src, ctx)
        assert isinstance(src, np.ndarray)
        src_dom = node.src.domain
        dst_dom = node.domain
        assert src_dom is not None and dst_dom is not None
        bound = Hyperrect.from_shape(ctx.shape)
        clipped = dst_dom.intersect(bound)
        out = ctx.plane()
        if clipped.is_empty:
            return out
        line = src[src_dom.numpy_slices()]
        axis = len(ctx.shape) - 1 - node.dim
        reps = [1] * line.ndim
        reps[axis] = clipped.shape[node.dim]
        tiled = np.tile(line, reps)
        # Align the non-broadcast dims of the source with the clipped
        # destination region.
        out_sel = list(clipped.numpy_slices())
        out[tuple(out_sel)] = tiled
        return out
    if isinstance(node, ShrinkNode):
        return eval_node(node.src, ctx)  # lowered to a nop
    if isinstance(node, ReduceNode):
        src = eval_node(node.src, ctx)
        assert isinstance(src, np.ndarray)
        src_dom = node.src.domain
        assert src_dom is not None
        axis = len(ctx.shape) - 1 - node.dim
        region = src[src_dom.numpy_slices()]
        reduced = _reduce_np(node.op, region, axis)
        out = ctx.plane()
        dst = node.domain
        assert dst is not None
        out[dst.numpy_slices()] = reduced
        return out
    if isinstance(node, StreamNode):
        if node.stream_kind is StreamKind.LOAD:
            return _eval_gather(node, ctx)
        raise SimulationError(
            f"stream node {node} is not evaluable as an expression"
        )
    raise SimulationError(f"cannot evaluate node kind {node.kind!r}")


def _np_args(args: list, ctx: LatticeContext) -> list:
    return [
        a if isinstance(a, np.ndarray) else ctx.dtype.type(a) for a in args
    ]


def _reduce_np(op: Op, region: np.ndarray, axis: int) -> np.ndarray:
    if op is Op.ADD:
        return region.sum(axis=axis, keepdims=True)
    if op is Op.MUL:
        return region.prod(axis=axis, keepdims=True)
    if op is Op.MIN:
        return region.min(axis=axis, keepdims=True)
    if op is Op.MAX:
        return region.max(axis=axis, keepdims=True)
    raise SimulationError(f"unsupported reduction {op}")


def _eval_gather(node: StreamNode, ctx: LatticeContext) -> np.ndarray:
    spec = ctx.gathers.get(node.stream)
    if spec is None:
        raise SimulationError(f"no gather spec for stream {node.stream!r}")
    plane = ctx.plane()
    ref = spec.ref
    var_intervals = dict(spec.var_intervals)
    # Identify the single indirect subscript and its variable.
    from repro.frontend.affine import extract_affine, is_affine
    from repro.frontend.kast import free_vars

    arr = ctx.arrays[ref.array]
    ndim = len(ref.subscripts)
    indirect_pos = [
        i for i, s in enumerate(ref.subscripts) if not is_affine(s)
    ]
    if len(indirect_pos) != 1:
        raise SimulationError("gathers support exactly one indirect subscript")
    ipos = indirect_pos[0]
    (ivar,) = free_vars(ref.subscripts[ipos]) & set(var_intervals)
    lo, hi = var_intervals[ivar]
    target = plane  # numpy axes: outermost first
    for v in range(lo, hi):
        env = {ivar: float(v), **ctx.params}
        idx: list = []
        out_idx: list = []
        for pos, sub in enumerate(ref.subscripts):
            dim = ndim - 1 - pos
            axis = len(ctx.shape) - 1 - dim
            if pos == ipos:
                row = int(_eval_scalar(sub, env, ctx.arrays))
                idx.append(row)
                out_idx.append(v)
            elif is_affine(sub):
                aff = extract_affine(sub)
                free = aff.vars & set(var_intervals)
                if free:
                    (fv,) = free
                    flo, fhi = var_intervals[fv]
                    off = aff.substitute({fv: 0}).evaluate(
                        {k: int(x) for k, x in ctx.params.items() if float(
                            x
                        ).is_integer()}
                        | {fv: 0}
                    )
                    idx.append(slice(flo + off, fhi + off))
                    out_idx.append(slice(flo, fhi))
                else:
                    const = int(_eval_scalar(sub, env, ctx.arrays))
                    idx.append(const)
                    out_idx.append(const)
        target[tuple(out_idx)] = arr[tuple(idx)]
    return plane


# ----------------------------------------------------------------------
# Region execution (reference and grid modes)
# ----------------------------------------------------------------------
def execute_region(
    region: RegionInstance,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, float] | None = None,
    mode: str = "reference",
    layouts=None,
    lowered=None,
) -> dict[str, float]:
    """Execute one region: host scalars, tDFG, streams.  Returns scalars.

    ``mode="reference"`` evaluates the tDFG directly; ``mode="grid"``
    replays the JIT-lowered commands on the SRAM grid model (requires
    ``layouts`` and ``lowered``).
    """
    scalars = scalars if scalars is not None else {}
    env: dict[str, float] = {**region.bindings, **scalars}

    # 1. Host scalars (inf_cfg runtime parameters).
    for stmt in region.host_scalars:
        assert isinstance(stmt.assign.target, Var)
        value = _eval_scalar(stmt.assign.value, env, arrays)
        if stmt.assign.aug:
            value = _apply_aug(
                stmt.assign.aug, env[stmt.assign.target.name], value
            )
        env[stmt.assign.target.name] = value
        scalars[stmt.assign.target.name] = value
    params = {**region.tdfg.params, **{k: float(v) for k, v in env.items()}}
    # Host-computed reciprocals (division strength reduction).
    for key in list(region.tdfg.params):
        if key.startswith("__inv_"):
            base = key[len("__inv_"):]
            if base in env and float(env[base]) != 0.0:
                params[key] = 1.0 / float(env[base])

    # 2. The in-memory tDFG.
    if region.tdfg.results or region.tdfg.scalar_results:
        if mode == "reference":
            _execute_tdfg_reference(region, arrays, params, scalars)
        elif mode == "grid":
            _execute_tdfg_grid(
                region, arrays, params, scalars, layouts, lowered
            )
        else:
            raise SimulationError(f"unknown mode {mode!r}")

    # 3. Near-memory stream statements (hybrid execution, §3.3).
    temp_planes = _temp_planes(region, arrays, params)
    for stmt in region.stream_stmts:
        _run_stream_stmt(stmt, region, arrays, env, temp_planes)
    return scalars


def _temp_planes(region, arrays, params):
    """Evaluate in-memory temporaries that stream statements read."""
    if not region.temps:
        return {}
    ctx = LatticeContext(
        shape=_lattice_shape(region),
        arrays=arrays,
        array_shapes={
            n: d.shape for n, d in region.tdfg.arrays.items()
        },
        params=params,
        gathers=region.gathers,
    )
    out = {}
    for name, (node, ivs) in region.temps.items():
        plane = eval_node(node, ctx)
        out[name] = (plane, node, ivs)
    return out


def _execute_tdfg_reference(region, arrays, params, scalars) -> None:
    ctx = LatticeContext(
        shape=_lattice_shape(region),
        arrays=arrays,
        array_shapes={n: d.shape for n, d in region.tdfg.arrays.items()},
        params=params,
        gathers=region.gathers,
    )
    # Bindings commit in program order; the frontend's SSA forwarding
    # already rewired intra-region read-after-write to the value nodes,
    # so committing sequentially matches grid execution exactly.
    for binding in region.tdfg.results:
        plane = eval_node(binding.node, ctx)
        assert isinstance(plane, np.ndarray)
        values = plane[binding.region.numpy_slices()]
        view = ctx.array_view(binding.array)
        view[binding.region.numpy_slices()] = values.reshape(
            view[binding.region.numpy_slices()].shape
        )
    for stream in region.tdfg.scalar_results:
        if stream.stream_kind is StreamKind.REDUCE:
            value_plane = eval_node(stream.inputs[0], ctx)
            assert isinstance(value_plane, np.ndarray)
            dom = stream.inputs[0].domain
            assert dom is not None
            values = value_plane[dom.numpy_slices()]
            _commit_reduce(stream, values, region, arrays, scalars)
        elif stream.stream_kind is StreamKind.STORE:
            value_plane = eval_node(stream.inputs[0], ctx)
            assert isinstance(value_plane, np.ndarray)
            if stream.region is None:
                raise SimulationError("store stream needs a region")
            array = stream.stream.removeprefix("store:")
            view = ctx.array_view(array)
            dom = stream.inputs[0].domain
            assert dom is not None
            view[stream.region.numpy_slices()] = value_plane[
                dom.numpy_slices()
            ].reshape(view[stream.region.numpy_slices()].shape)


def _commit_reduce(stream, values, region, arrays, scalars) -> None:
    """Apply a final-reduce stream: accumulate into array or scalar."""
    total = values  # already fully reduced along the reduce dims
    if stream.region is not None:
        array = stream.stream.removeprefix("red_")
        ctx = LatticeContext(
            shape=_lattice_shape(region),
            arrays=arrays,
            array_shapes={n: d.shape for n, d in region.tdfg.arrays.items()},
            params={},
        )
        view = ctx.array_view(array)
        target = view[stream.region.numpy_slices()]
        view[stream.region.numpy_slices()] = target + np.asarray(
            total
        ).reshape(target.shape)
    else:
        key = stream.stream.removeprefix("red_")
        scalars[key] = scalars.get(key, 0.0) + float(np.sum(total))


def _execute_tdfg_grid(
    region, arrays, params, scalars, layouts, lowered
) -> None:
    from repro.uarch.sram import SRAMGrid

    if layouts is None or lowered is None:
        raise SimulationError("grid mode needs layouts and lowered commands")
    tile = lowered.tile
    shape = _lattice_shape(region)
    padded = tuple(
        ((s + t - 1) // t) * t for s, t in zip(shape, tile)
    )
    elem = next(iter(region.tdfg.arrays.values())).elem_type
    grid = SRAMGrid(shape=padded, elem_type=elem, tile=tile)
    grid.params = {
        k: float(v) for k, v in params.items() if not math.isnan(float(v))
    }
    ctx = LatticeContext(
        shape=shape,
        arrays=arrays,
        array_shapes={n: d.shape for n, d in region.tdfg.arrays.items()},
        params=params,
        gathers=region.gathers,
    )
    # Load resident arrays (the TTU's transposition, functionally).
    for name, layout in layouts.items():
        decl = region.tdfg.arrays[name]
        rect = decl.domain
        grid.load(layout.register, rect, ctx.array_view(name)[rect.numpy_slices()])
    # Materialize gather streams into their registers before compute.
    for node in region.tdfg.nodes():
        if isinstance(node, StreamNode) and node.stream_kind is StreamKind.LOAD:
            plane = _eval_gather(node, ctx)
            assert node.region is not None
            reg = lowered.stream_registers.get(node.stream)
            if reg is None:
                raise SimulationError(
                    f"no register recorded for load stream {node.stream!r}"
                )
            grid.load(
                reg, node.region, plane[node.region.numpy_slices()]
            )
    grid.execute_all(lowered.commands)
    # Read back bound results.
    for binding in region.tdfg.results:
        layout = layouts[binding.array]
        values = grid.read(layout.register, binding.region)
        view = ctx.array_view(binding.array)
        view[binding.region.numpy_slices()] = values
    # Reduce tails: gather partials, combine near-memory.
    for tail, stream in zip(
        lowered.reduce_tails, region.tdfg.scalar_results
    ):
        pieces = [
            grid.read(tail.partial_reg, cell) for cell in tail.partial_cells
        ]
        pieces += [
            _reduce_np(
                tail.combiner,
                grid.read(tail.raw_reg, r),
                len(padded) - 1 - tail.dim,
            )
            for r in tail.raw_regions
        ]
        if not pieces:
            continue
        axis = len(padded) - 1 - tail.dim
        stacked = np.concatenate(pieces, axis=axis)
        combined = _reduce_np(tail.combiner, stacked, axis)
        _commit_reduce(stream, combined, region, arrays, scalars)


def _run_stream_stmt(
    stmt: StmtInfo,
    region: RegionInstance,
    arrays,
    env: dict[str, float],
    temp_planes,
) -> None:
    """Interpret a near-memory stream statement over its loop ranges."""
    loops = [l for l in stmt.loops if l.kind is not LoopKind.HOST]
    bindings = region.bindings

    def scalar_env(extra: dict[str, int]) -> dict[str, float]:
        out = dict(env)
        out.update(extra)
        return out

    def run(idx: int, extra: dict[str, int]) -> None:
        if idx == len(loops):
            e = scalar_env(extra)
            # Temps computed in-memory resolve through their plane.
            local_arrays = dict(arrays)
            value = _eval_stream_expr(
                stmt.assign.value, e, local_arrays, temp_planes, region
            )
            target = stmt.assign.target
            assert isinstance(target, Ref)
            tidx = tuple(
                int(_eval_scalar(s, e, local_arrays))
                for s in target.subscripts
            )
            arr = arrays[target.array]
            if stmt.assign.aug:
                value = _apply_aug(stmt.assign.aug, arr[tidx], value)
            arr[tidx] = value
            return
        info = loops[idx]
        scope = {**bindings, **extra}
        lo = info.lo.evaluate(scope)
        hi = info.hi.evaluate(scope)
        for v in range(lo, hi):
            extra[info.var] = v
            run(idx + 1, extra)
        extra.pop(info.var, None)

    run(0, {})


def _eval_stream_expr(expr, env, arrays, temp_planes, region):
    """Like _eval_scalar but resolving in-memory temporaries."""
    if isinstance(expr, Var) and expr.name in temp_planes:
        plane, node, ivs = temp_planes[expr.name]
        cell = [0] * len(_lattice_shape(region))
        from repro.frontend.classify import LoopKind as LK

        for var, (lo, hi) in ivs.items():
            # The temp's lattice dim for this var.
            dim = _temp_dim(region, var)
            cell[dim] = int(env[var]) + (0)
        dom = node.domain
        assert dom is not None
        for d in range(len(cell)):
            if not (dom.starts[d] <= cell[d] < dom.ends[d]):
                cell[d] = dom.starts[d]
        return plane[tuple(reversed(cell))]
    if isinstance(expr, BinOp):
        a = _eval_stream_expr(expr.left, env, arrays, temp_planes, region)
        b = _eval_stream_expr(expr.right, env, arrays, temp_planes, region)
        return _apply_aug({"+": "+", "-": "-", "*": "*", "/": "/"}[expr.op], a, b)
    if isinstance(expr, UnaryOp):
        return -_eval_stream_expr(expr.operand, env, arrays, temp_planes, region)
    if isinstance(expr, Call):
        args = [
            _eval_stream_expr(a, env, arrays, temp_planes, region)
            for a in expr.args
        ]
        return _CALLS[expr.func](*args)
    return _eval_scalar(expr, env, arrays)


def _temp_dim(region: RegionInstance, var: str) -> int:
    # The classification's lattice assignment is not shipped on the
    # region; recover from the tDFG arrays via the temp intervals is
    # ambiguous, so we conservatively look the var up in the kernel's
    # stream statements' loops by depth order: dimension = assignment
    # recorded at build time.
    for name, (node, ivs) in region.temps.items():
        if var in ivs:
            dom = node.domain
            assert dom is not None
            lo, hi = ivs[var]
            for d in range(dom.ndim):
                if dom.interval(d) == (lo, hi):
                    return d
    raise SimulationError(f"cannot locate lattice dim of temp var {var!r}")


# ----------------------------------------------------------------------
# Whole-kernel execution
# ----------------------------------------------------------------------
def execute_kernel(
    kernel: InstantiatedKernel,
    arrays: dict[str, np.ndarray],
    mode: str = "reference",
    system=None,
) -> dict[str, float]:
    """Execute every host iteration of an instantiated kernel.

    ``mode="grid"`` JIT-lowers each region and replays the bit-serial
    commands on the SRAM grid model; pass a scaled-down ``system``
    (:func:`repro.config.system.small_test_system`) when validating with
    small arrays.
    """
    scalars: dict[str, float] = {}
    if mode == "grid":
        from repro.backend import compile_fat_binary
        from repro.config.system import small_test_system
        from repro.runtime.jit import JITCompiler

        system = system or small_test_system()
        jit = JITCompiler(system=system)
        wl = system.cache.sram.wordlines
        for segment in kernel.segments:
            for env in kernel.host_iterations(segment):
                region = kernel.region_at(env, segment)
                binary = compile_fat_binary(region.tdfg, (wl,))
                res = jit.compile_region(binary)
                execute_region(
                    region,
                    arrays,
                    scalars,
                    mode="grid",
                    layouts=res.layouts,
                    lowered=res.lowered,
                )
    else:
        for segment in kernel.segments:
            for env in kernel.host_iterations(segment):
                region = kernel.region_at(env, segment)
                execute_region(region, arrays, scalars, mode=mode)
    return scalars
