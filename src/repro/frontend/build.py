"""Build concrete tDFG regions from classified kernels.

For one combination of host-loop values, :func:`build_region` unrolls
every tensor statement into tDFG nodes:

* array references become :class:`TensorNode` hyperrectangles;
* offset subscripts (``A[i-1]``) become ``mv`` nodes aligning operands to
  the statement's output coordinates (Fig 4(a));
* references missing a loop variable (``A[k][j]`` inside the ``i`` loop)
  become ``bc`` broadcasts along that variable's lattice dimension
  (Fig 4(c));
* reduction variables produce in-memory ``reduce`` nodes plus a
  near-memory final-reduce stream (Fig 4(b));
* indirect loads become embedded load streams producing tensors (§3.3).

All tensors are padded to the region's lattice rank so alignment is
uniform; the Layout Override Table supports at most three dimensions
(Table 1), and so do we.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import FrontendError
from repro.frontend.affine import extract_affine, is_affine
from repro.frontend.classify import (
    Classification,
    LoopKind,
    StmtInfo,
    StmtMode,
)
from repro.frontend.kast import (
    Assign,
    BinOp,
    Call,
    Expr,
    Num,
    Ref,
    UnaryOp,
    Var,
    free_vars,
)
from repro.geometry.hyperrect import Hyperrect
from repro.ir.dtypes import DType
from repro.ir.nodes import (
    BroadcastNode,
    ComputeNode,
    ConstNode,
    MoveNode,
    Node,
    ReduceNode,
    StreamKind,
    StreamNode,
)
from repro.ir.nodes import TensorNode
from repro.ir.ops import Op
from repro.ir.sdfg import (
    AffinePattern,
    IndirectPattern,
    Stream,
    StreamDFG,
    StreamType,
)
from repro.ir.tdfg import ArrayDecl, LayoutHints, TensorDFG

_BINOP_TO_OP = {"+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV}
_CALL_TO_OP = {
    "min": Op.MIN,
    "max": Op.MAX,
    "relu": Op.RELU,
    "abs": Op.ABS,
    "select": Op.SELECT,
}
_AUG_TO_OP = {"+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV}


def _fold_const(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    raise FrontendError(f"cannot fold operator {op!r}")


@dataclass(frozen=True)
class GatherSpec:
    """Functional description of an indirect load feeding a tensor."""

    ref: Ref
    var_intervals: tuple[tuple[str, tuple[int, int]], ...]


@dataclass
class RegionInstance:
    """One host-loop iteration's worth of work.

    ``tdfg`` carries the in-memory portion; ``stream_stmts`` run
    near-memory; ``host_scalars`` are evaluated on the core first and
    enter the tDFG as symbolic constants (``inf_cfg`` parameters).
    """

    tdfg: TensorDFG
    stream_stmts: tuple[StmtInfo, ...]
    host_scalars: tuple[StmtInfo, ...]
    bindings: dict[str, int]
    gathers: dict[str, GatherSpec] = field(default_factory=dict)
    temps: dict[str, tuple[Node, dict[str, tuple[int, int]]]] = field(
        default_factory=dict
    )
    # The timing engine's near-memory cycle estimate by system
    # fingerprint (see InfinityStreamRunner._near_memory_estimate).
    near_estimates: dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


class _RegionBuilder:
    def __init__(
        self,
        name: str,
        classification: Classification,
        arrays: Mapping[str, ArrayDecl],
        bindings: Mapping[str, int],
        dtype: DType,
    ) -> None:
        self.cls = classification
        self.arrays = dict(arrays)
        self.bindings = dict(bindings)
        self.dtype = dtype
        self.rank = min(3, max((d.ndim for d in arrays.values()), default=1))
        if any(d.ndim > 3 for d in arrays.values()):
            raise FrontendError("arrays above rank 3 exceed LOT support")
        self.tdfg = TensorDFG(name=name)
        for decl in self.arrays.values():
            padded = decl.shape + (1,) * (self.rank - decl.ndim)
            self.tdfg.declare(ArrayDecl(decl.name, padded, decl.elem_type))
        self.temps: dict[str, tuple[Node, dict[str, tuple[int, int]]]] = {}
        self.gathers: dict[str, GatherSpec] = {}
        # SSA forwarding across statements: array -> (node, region) of the
        # latest in-region store, so later statements read the new value.
        self.bound: dict[str, tuple[Node, Hyperrect]] = {}
        # Structural hash-consing: identical subexpressions (e.g. the two
        # factors of (x-y)*(x-y)) share one node, so their commands are
        # emitted once — the compiler's common-subexpression elimination.
        self._interned: dict[Node, Node] = {}
        self._stream_counter = 0
        # Hint bookkeeping.
        self._shift_dims: set[int] = set()
        self._bcast_dims: set[int] = set()
        self._reduce_dims: set[int] = set()
        self._primary: str | None = None

    def _intern(self, node: Node) -> Node:
        return self._interned.setdefault(node, node)

    # ------------------------------------------------------------------
    def dim_of(self, var: str) -> int:
        return self.cls.dim_of(var)

    def _interval(self, info) -> tuple[int, int]:
        lo = info.lo.evaluate(self.bindings)
        hi = info.hi.evaluate(self.bindings)
        return lo, hi

    def _stmt_vars(self, stmt: StmtInfo) -> dict[str, tuple[int, int]]:
        """Out-coordinate intervals for the statement's tensor variables."""
        out: dict[str, tuple[int, int]] = {}
        target_offsets = self._target_offsets(stmt)
        for info in stmt.tensor_loops():
            lo, hi = self._interval(info)
            off = target_offsets.get(info.var, 0)
            out[info.var] = (lo + off, hi + off)
        return out

    def _target_offsets(self, stmt: StmtInfo) -> dict[str, int]:
        # Split structural analysis (per statement, cached on the frozen
        # StmtInfo) from evaluation (per host iteration's bindings).
        pairs = stmt.__dict__.get("_offset_affines")
        if pairs is None:
            pairs = []
            target = stmt.assign.target
            if isinstance(target, Ref):
                for sub in target.subscripts:
                    if not is_affine(sub):
                        continue
                    aff = extract_affine(sub)
                    for var in aff.vars:
                        info = next(
                            (l for l in stmt.loops if l.var == var), None
                        )
                        if info is not None and info.kind is not LoopKind.HOST:
                            pairs.append((var, aff.substitute({var: 0})))
            stmt.__dict__["_offset_affines"] = pairs
        return {
            var: rest.evaluate(self.bindings) for var, rest in pairs
        }

    # ------------------------------------------------------------------
    # Expression emission
    # ------------------------------------------------------------------
    def emit(
        self,
        expr: Expr,
        stmt: StmtInfo,
        out_ivs: dict[str, tuple[int, int]],
    ) -> Node:
        if isinstance(expr, Num):
            return self._intern(ConstNode(expr.value, self.dtype))
        if isinstance(expr, Var):
            return self._intern(self._emit_var(expr.name, stmt, out_ivs))
        if isinstance(expr, UnaryOp):
            inner = self.emit(expr.operand, stmt, out_ivs)
            if isinstance(inner, ConstNode) and not inner.is_symbolic:
                # Constant folding: keep constants out of the bitlines.
                return self._intern(
                    ConstNode(-inner.value, inner.elem_type)
                )
            return self._intern(ComputeNode(Op.NEG, (inner,)))
        if isinstance(expr, BinOp):
            left = self.emit(expr.left, stmt, out_ivs)
            right = self.emit(expr.right, stmt, out_ivs)
            if (
                isinstance(left, ConstNode)
                and isinstance(right, ConstNode)
                and not left.is_symbolic
                and not right.is_symbolic
            ):
                folded = _fold_const(expr.op, left.value, right.value)
                return self._intern(ConstNode(folded, left.elem_type))
            # Strength reduction: division by a (runtime) scalar becomes
            # multiplication by its reciprocal, computed once on the host
            # (bit-serial division costs ~4x a multiply; the paper
            # likewise keeps divisions off the bitlines, Fig 7).
            if expr.op == "/" and isinstance(right, ConstNode):
                inv = self._reciprocal_const(right)
                return self._intern(ComputeNode(Op.MUL, (left, inv)))
            return self._intern(
                ComputeNode(_BINOP_TO_OP[expr.op], (left, right))
            )
        if isinstance(expr, Call):
            op = _CALL_TO_OP.get(expr.func)
            if op is None:
                raise FrontendError(f"intrinsic {expr.func!r} not supported")
            args = tuple(self.emit(a, stmt, out_ivs) for a in expr.args)
            return self._intern(ComputeNode(op, args))
        if isinstance(expr, Ref):
            return self._intern(self._emit_ref(expr, stmt, out_ivs))
        raise FrontendError(f"cannot emit {expr!r}")

    def _emit_var(
        self, name: str, stmt: StmtInfo, out_ivs: dict[str, tuple[int, int]]
    ) -> Node:
        if name in self.temps:
            node, ivs = self.temps[name]
            return self._align_temp(node, ivs, out_ivs)
        # Host scalar / size parameter / loop constant: symbolic constant,
        # resolved by the runtime via inf_cfg.
        if name in self.bindings:
            return ConstNode(float(self.bindings[name]), self.dtype)
        self.tdfg.params.setdefault(name, float("nan"))
        return ConstNode(name, self.dtype)

    def _reciprocal_const(self, node: ConstNode) -> ConstNode:
        if isinstance(node.value, (int, float)):
            return self._intern(
                ConstNode(1.0 / float(node.value), node.elem_type)
            )  # type: ignore[return-value]
        name = f"__inv_{node.value}"
        self.tdfg.params.setdefault(name, float("nan"))
        return self._intern(ConstNode(name, node.elem_type))  # type: ignore[return-value]

    def _align_temp(
        self,
        node: Node,
        have: dict[str, tuple[int, int]],
        want: dict[str, tuple[int, int]],
    ) -> Node:
        for var, (lo, hi) in want.items():
            dim = self.dim_of(var)
            if var in have:
                cur_lo, cur_hi = have[var]
                if (cur_hi - cur_lo) != (hi - lo):
                    raise FrontendError(
                        f"temp extent mismatch on {var}: {have[var]} vs {(lo, hi)}"
                    )
                if cur_lo != lo:
                    node = self._intern(MoveNode(node, dim, lo - cur_lo))
                    self._shift_dims.add(dim)
            else:
                domain = node.domain
                if domain is None:
                    continue  # constants broadcast for free
                if domain.shape[dim] != 1:
                    raise FrontendError(
                        f"cannot broadcast temp with extent {domain.shape[dim]}"
                        f" on dim {dim}"
                    )
                node = self._intern(BroadcastNode(node, dim, lo, hi - lo))
                self._bcast_dims.add(dim)
        return node

    def _emit_ref(
        self, ref: Ref, stmt: StmtInfo, out_ivs: dict[str, tuple[int, int]]
    ) -> Node:
        if ref.array not in self.arrays:
            raise FrontendError(f"reference to undeclared array {ref.array!r}")
        if any(not is_affine(sub) for sub in ref.subscripts):
            node, have = self._emit_gather(ref, stmt, out_ivs)
        else:
            node, have = self._emit_affine_ref(ref, stmt)
        return self._align_ref(node, have, out_ivs)

    def _emit_affine_ref(
        self, ref: Ref, stmt: StmtInfo
    ) -> tuple[Node, dict[str, tuple[int, int]]]:
        decl = self.arrays[ref.array]
        if len(ref.subscripts) != decl.ndim:
            raise FrontendError(
                f"{ref} has {len(ref.subscripts)} subscripts, array has "
                f"{decl.ndim} dims"
            )
        bounds = [(0, 1)] * self.rank
        have: dict[str, tuple[int, int]] = {}
        tensor_vars = {
            l.var for l in stmt.loops if l.kind is not LoopKind.HOST
        }
        for pos, sub in enumerate(ref.subscripts):
            dim = decl.ndim - 1 - pos
            aff = extract_affine(sub)
            stmt_vars = aff.vars & tensor_vars
            if not stmt_vars:
                val = aff.evaluate(self.bindings)
                bounds[dim] = (val, val + 1)
                continue
            if len(stmt_vars) > 1:
                raise FrontendError(
                    f"subscript {sub} mixes tensor variables {stmt_vars}"
                )
            (var,) = stmt_vars
            if self.dim_of(var) != dim:
                raise FrontendError(
                    f"{ref}: variable {var} lands on dim {dim}, lattice "
                    f"assigns dim {self.dim_of(var)}"
                )
            offset = aff.substitute({var: 0}).evaluate(self.bindings)
            info = stmt.loop(var)
            lo, hi = self._interval(info)
            bounds[dim] = (lo + offset, hi + offset)
            have[var] = bounds[dim]
        region = Hyperrect.from_bounds(bounds)
        forwarded = self.bound.get(ref.array)
        if forwarded is not None and forwarded[1].contains(region):
            # Read-after-write within the region: forward the SSA value.
            return forwarded[0], have
        return self._intern(TensorNode(ref.array, region, decl.elem_type)), have

    def _emit_gather(
        self, ref: Ref, stmt: StmtInfo, out_ivs: dict[str, tuple[int, int]]
    ) -> tuple[Node, dict[str, tuple[int, int]]]:
        """An indirect load stream producing a tensor (§3.3)."""
        decl = self.arrays[ref.array]
        bounds = [(0, 1)] * self.rank
        have: dict[str, tuple[int, int]] = {}
        tensor_vars = {
            l.var for l in stmt.loops if l.kind is not LoopKind.HOST
        }
        for pos, sub in enumerate(ref.subscripts):
            dim = decl.ndim - 1 - pos
            if is_affine(sub):
                aff = extract_affine(sub)
                stmt_vars = aff.vars & tensor_vars
                if stmt_vars:
                    (var,) = stmt_vars
                    offset = aff.substitute({var: 0}).evaluate(self.bindings)
                    lo, hi = self._interval(stmt.loop(var))
                    bounds[dim] = (lo + offset, hi + offset)
                    have[var] = bounds[dim]
                else:
                    val = aff.evaluate(self.bindings)
                    bounds[dim] = (val, val + 1)
                continue
            # Indirect subscript: the gather iterates the index stream's
            # variable; the gathered data lands on this dimension.
            inner_vars = free_vars(sub) & tensor_vars
            if len(inner_vars) != 1:
                raise FrontendError(
                    f"indirect subscript {sub} must use one tensor variable"
                )
            (var,) = inner_vars
            lo, hi = self._interval(stmt.loop(var))
            bounds[dim] = (lo, hi)
            have[var] = bounds[dim]
        region = Hyperrect.from_bounds(bounds)
        name = f"gather{self._stream_counter}_{ref.array}"
        self._stream_counter += 1
        node = StreamNode(
            stream=name,
            stream_kind=StreamKind.LOAD,
            region=region,
            elem_type=decl.elem_type,
        )
        self.gathers[name] = GatherSpec(
            ref=ref,
            var_intervals=tuple(
                (v, self._interval(stmt.loop(v)))
                for v in sorted(
                    free_vars(ref) & tensor_vars,
                    key=lambda v: stmt.loop(v).depth,
                )
            ),
        )
        return node, have

    def _align_ref(
        self,
        node: Node,
        have: dict[str, tuple[int, int]],
        out_ivs: dict[str, tuple[int, int]],
    ) -> Node:
        for var, (lo, hi) in out_ivs.items():
            dim = self.dim_of(var)
            if var in have:
                cur_lo, _cur_hi = have[var]
                if cur_lo != lo:
                    node = self._intern(MoveNode(node, dim, lo - cur_lo))
                    self._shift_dims.add(dim)
            else:
                domain = node.domain
                assert domain is not None
                if domain.shape[dim] != 1:
                    raise FrontendError(
                        f"cannot broadcast extent-{domain.shape[dim]} tensor "
                        f"along dim {dim}"
                    )
                node = self._intern(BroadcastNode(node, dim, lo, hi - lo))
                self._bcast_dims.add(dim)
        return node

    # ------------------------------------------------------------------
    # Statement emission
    # ------------------------------------------------------------------
    def emit_stmt(self, stmt: StmtInfo) -> None:
        assign = stmt.assign
        out_ivs = self._stmt_vars(stmt)
        reduce_vars = [
            l.var
            for l in stmt.tensor_loops()
            if l.kind is LoopKind.REDUCE
        ]
        value = self.emit(assign.value, stmt, out_ivs)
        target = assign.target

        if reduce_vars:
            self._emit_reduction(stmt, value, reduce_vars, out_ivs)
            return

        if isinstance(target, Var):
            # Element-wise tensor temporary (e.g. "m" in Gaussian elim).
            if assign.aug:
                raise FrontendError(
                    f"augmented assignment to temp {target.name!r} without "
                    "a reduction is not supported"
                )
            self.temps[target.name] = (value, dict(out_ivs))
            return

    # Array store (possibly accumulating).
        if any(not is_affine(s) for s in target.subscripts):
            raise FrontendError(
                "indirect stores must be classified as stream statements"
            )
        region, _have = self._target_region(stmt)
        if assign.aug:
            current, have = self._emit_affine_ref(target, stmt)
            current = self._align_ref(current, have, out_ivs)
            op = _AUG_TO_OP[assign.aug]
            value = ComputeNode(op, (current, value))
        self.tdfg.bind(target.array, region, value)
        self.bound[target.array] = (value, region)
        if self._primary is None:
            self._primary = target.array

    def _target_region(
        self, stmt: StmtInfo
    ) -> tuple[Hyperrect, dict[str, tuple[int, int]]]:
        target = stmt.assign.target
        assert isinstance(target, Ref)
        decl = self.arrays[target.array]
        bounds = [(0, 1)] * self.rank
        have: dict[str, tuple[int, int]] = {}
        out_ivs = self._stmt_vars(stmt)
        tensor_vars = {
            l.var for l in stmt.loops if l.kind is not LoopKind.HOST
        }
        for pos, sub in enumerate(target.subscripts):
            dim = decl.ndim - 1 - pos
            aff = extract_affine(sub)
            stmt_vars = aff.vars & tensor_vars
            if stmt_vars:
                (var,) = stmt_vars
                bounds[dim] = out_ivs[var]
                have[var] = out_ivs[var]
            else:
                val = aff.evaluate(self.bindings)
                bounds[dim] = (val, val + 1)
        return Hyperrect.from_bounds(bounds), have

    def _emit_reduction(
        self,
        stmt: StmtInfo,
        value: Node,
        reduce_vars: list[str],
        out_ivs: dict[str, tuple[int, int]],
    ) -> None:
        assign = stmt.assign
        if assign.aug and assign.aug != "+":
            raise FrontendError(
                f"reduction with {assign.aug}= is not supported"
            )
        combiner = Op.ADD
        node = value
        for var in sorted(reduce_vars, key=lambda v: self.dim_of(v)):
            dim = self.dim_of(var)
            node = ReduceNode(node, combiner, dim)
            self._reduce_dims.add(dim)
        target = assign.target
        if isinstance(target, Var):
            region = None
            name = f"red_{target.name}"
        else:
            region, _ = self._target_region(stmt)
            name = f"red_{target.array}"
            if self._primary is None:
                self._primary = target.array
        stream = StreamNode(
            stream=name,
            stream_kind=StreamKind.REDUCE,
            inputs=(node,),
            region=region,
            elem_type=node.dtype,
            combiner=combiner,
        )
        self.tdfg.scalar_results.append(stream)

    # ------------------------------------------------------------------
    def finish(self) -> TensorDFG:
        self.tdfg.hints = LayoutHints(
            shift_dims=tuple(sorted(self._shift_dims)),
            broadcast_dims=tuple(sorted(self._bcast_dims)),
            reduce_dims=tuple(sorted(self._reduce_dims)),
            primary_array=self._primary,
            aligned_arrays=tuple(sorted(self.arrays)),
        )
        return self.tdfg


def build_region(
    name: str,
    classification: Classification,
    arrays: Mapping[str, ArrayDecl],
    bindings: Mapping[str, int],
    dtype: DType = DType.FP32,
    stmts: tuple[StmtInfo, ...] | None = None,
) -> RegionInstance:
    """Build the tDFG region for one host-loop iteration.

    ``stmts`` restricts the region to one segment's statements (kernels
    with multiple top-level loop nests build one region per segment).
    """
    rb = _RegionBuilder(name, classification, arrays, bindings, dtype)
    stream_stmts: list[StmtInfo] = []
    host_scalars: list[StmtInfo] = []
    for stmt in stmts if stmts is not None else classification.stmts:
        if stmt.mode is StmtMode.HOST_SCALAR:
            host_scalars.append(stmt)
            # Its target becomes a symbolic tDFG parameter.
            assert isinstance(stmt.assign.target, Var)
            rb.tdfg.params.setdefault(stmt.assign.target.name, float("nan"))
        elif stmt.mode is StmtMode.STREAM:
            stream_stmts.append(stmt)
        else:
            rb.emit_stmt(stmt)
    tdfg = rb.finish()
    tdfg.sdfg = build_sdfg(name, classification, arrays, bindings, stmts)
    return RegionInstance(
        tdfg=tdfg,
        stream_stmts=tuple(stream_stmts),
        host_scalars=tuple(host_scalars),
        bindings=dict(bindings),
        gathers=rb.gathers,
        temps=dict(rb.temps),
    )


# ----------------------------------------------------------------------
# sDFG construction (the near-memory view of the same region)
# ----------------------------------------------------------------------
def build_sdfg(
    name: str,
    classification: Classification,
    arrays: Mapping[str, ArrayDecl],
    bindings: Mapping[str, int],
    stmts: tuple[StmtInfo, ...] | None = None,
) -> StreamDFG:
    """Derive the region's stream DFG for near-memory execution (§3.1).

    Every array reference of every statement becomes a stream whose
    pattern iterates the statement's non-host loops; elements reused by
    missing inner loops carry a ``reuse`` factor the near-memory engine
    cannot exploit (it re-reads), which is the key asymmetry between
    Near-L3 and in-memory executions.
    """
    sdfg = StreamDFG(name=name)
    counter = 0
    for stmt in stmts if stmts is not None else classification.stmts:
        if stmt.mode is StmtMode.HOST_SCALAR:
            continue
        loops = stmt.tensor_loops()
        extents = {
            l.var: max(0, l.hi.evaluate(bindings) - l.lo.evaluate(bindings))
            for l in loops
        }
        # The reference list and per-ref variable sets are structural
        # (binding-independent), so they are computed once per frozen
        # StmtInfo and cached on it; only the extents/pattern evaluation
        # below runs per host iteration.
        refs = stmt.__dict__.get("_sdfg_refs")
        if refs is None:
            refs = []
            target = stmt.assign.target
            if isinstance(target, Ref):
                refs.append(
                    (target, StreamType.STORE, _ref_free_vars(target))
                )
            from repro.frontend.kast import walk_refs

            seen: set[str] = set()
            for ref in walk_refs(stmt.assign.value):
                key = str(ref)
                if key in seen:
                    continue
                seen.add(key)
                refs.append((ref, StreamType.LOAD, _ref_free_vars(ref)))
            stmt.__dict__["_sdfg_refs"] = refs
        for ref, stype, used_vars in refs:
            decl = arrays[ref.array]
            counter += 1
            sname = f"{name}.s{counter}_{ref.array}"
            pattern = _ref_pattern(ref, decl, loops, bindings, extents)
            reuse = 1
            for l in loops:
                if l.var not in used_vars:
                    reuse *= max(1, extents[l.var])
            sdfg.streams[sname] = Stream(
                name=sname,
                array=ref.array,
                stype=stype,
                pattern=pattern,
                elem_type=decl.elem_type,
                reuse=reuse,
            )
    return sdfg


def _ref_free_vars(ref: Ref) -> frozenset[str]:
    """Free variables across all subscripts of a reference."""
    out: set[str] = set()
    for sub in ref.subscripts:
        out |= free_vars(sub)
    return frozenset(out)


def _ref_pattern(
    ref: Ref,
    decl: ArrayDecl,
    loops,
    bindings: Mapping[str, int],
    extents: Mapping[str, int],
):
    """Affine or indirect pattern for a reference in stream order.

    The affine decomposition and per-dimension strides depend only on
    the reference and the array declaration, both fixed across the host
    loop, so they are cached on the ref (same object-identity invariant
    as ``_sdfg_refs``); only the binding/extent arithmetic runs per
    iteration.
    """
    plan = ref.__dict__.get("_pattern_plan")
    if plan is None:
        if any(not is_affine(sub) for sub in ref.subscripts):
            # Distinct accesses iterate only the loops the ref actually
            # uses; loops missing from the subscripts are reuse,
            # accounted via the stream's ``reuse`` factor (not the
            # address pattern).
            used: set[str] = set()
            for sub in ref.subscripts:
                used |= free_vars(sub)
            plan = (None, frozenset(used))
        else:
            # Element strides per array dimension (dim 0 contiguous).
            dim_strides = [1] * decl.ndim
            for d in range(1, decl.ndim):
                dim_strides[d] = dim_strides[d - 1] * decl.shape[d - 1]
            entries = []
            for pos, sub in enumerate(ref.subscripts):
                dim = decl.ndim - 1 - pos
                entries.append((extract_affine(sub), dim_strides[dim]))
            plan = (tuple(entries), None)
        ref.__dict__["_pattern_plan"] = plan
    entries, used = plan
    if entries is None:
        trip = 1
        for l in loops:
            if l.var in used:
                trip *= max(1, extents[l.var])
        return IndirectPattern(
            index_stream=f"idx_{ref.array}", trip_count=max(1, trip)
        )
    start = 0
    per_var: dict[str, int] = {}
    for aff, dstride in entries:
        const = aff.const
        for var, coeff in aff.coeffs:
            if var in bindings:
                const += coeff * int(bindings[var])
            else:
                per_var[var] = per_var.get(var, 0) + coeff * dstride
        start += const * dstride
    dims: list[tuple[int, int]] = []
    for l in reversed(loops):  # innermost loop first
        stride = per_var.get(l.var, 0)
        count = max(1, extents[l.var])
        if stride == 0:
            continue  # reuse dimension: not part of the address pattern
        dims.append((stride, count))
    if not dims:
        dims = [(1, 1)]
    return AffinePattern(start=start, dims=tuple(dims[:3]))
