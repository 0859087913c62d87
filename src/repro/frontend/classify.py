"""Loop and statement classification: what unrolls into tensors.

The insight of the paper (§1) is that in-memory-friendly program portions
have *perfectly analyzable* parallelism: affine access to tensors over
hyperrectangular domains.  Given a parsed kernel and concrete size
bindings, this module decides

* per **loop**: whether it becomes a *tensor* dimension (fully unrolled
  into the lattice), an in-memory *reduce* dimension (inner-product
  dataflow), or stays a sequential *host* loop whose every iteration
  re-instantiates the tDFG region (the JIT specializes per iteration);
* per **statement**: whether it executes *in-memory* (tensorized), as a
  near-memory *stream* (low parallelism or lattice misalignment — e.g.
  the ``B[i] -= m*bk`` stream of Gaussian elimination, §3.3), or as a
  *host scalar* (``akk = A[k][k]`` — a runtime parameter, §3.4).

Loop demotion rules, in order:

1. explicit ``host_loops`` annotation, or a stepped loop (tiling);
2. the loop variable appears in no subscript (pure repetition);
3. a subscript uses the variable with coefficient != 1;
4. a loop-carried dependence through an array (write and read subscripts
   differ along the variable);
5. the loop bounds depend on another tensor variable (the domain would
   not be a hyperrectangle);
6. reduce loops become host loops under the outer-product dataflow;
7. within the *primary* (highest-parallelism) statement, two tensor
   variables colliding on one lattice dimension — the smaller extent is
   demoted.

Statements whose own placement disagrees with the primary statement's
lattice assignment become stream statements instead of forcing further
demotion — exactly the paper's hybrid in-/near-memory split.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Mapping

from repro.errors import FrontendError
from repro.frontend.affine import AffineExpr, extract_affine, is_affine
from repro.frontend.kast import (
    Assign,
    Expr,
    For,
    Ref,
    Stmt,
    Var,
    free_vars,
    walk_refs,
)


class LoopKind(enum.Enum):
    HOST = "host"
    TENSOR = "tensor"
    REDUCE = "reduce"


class StmtMode(enum.Enum):
    TENSOR = "tensor"  # in-memory, unrolled across bitlines
    STREAM = "stream"  # near-memory stream execution
    HOST_SCALAR = "host_scalar"  # runtime parameter computed on the core


@dataclass(frozen=True)
class LoopInfo:
    """One loop of the nest with its classification."""

    var: str
    lo: AffineExpr
    hi: AffineExpr
    kind: LoopKind
    depth: int
    step: AffineExpr | None = None

    def extent(self, bindings: Mapping[str, int]) -> int:
        return max(0, self.hi.evaluate(bindings) - self.lo.evaluate(bindings))


@dataclass(frozen=True)
class StmtInfo:
    """An assignment, its enclosing loops (outermost first) and its mode."""

    assign: Assign
    loops: tuple[LoopInfo, ...]
    mode: StmtMode

    def loop(self, var: str) -> LoopInfo:
        for info in self.loops:
            if info.var == var:
                return info
        raise FrontendError(f"statement has no enclosing loop {var!r}")

    def tensor_loops(self) -> tuple[LoopInfo, ...]:
        # Pure function of a frozen node, re-read once per host
        # iteration by the region builder: cached in ``__dict__``.
        cached = self.__dict__.get("_tensor_loops")
        if cached is None:
            cached = self.__dict__["_tensor_loops"] = tuple(
                l for l in self.loops if l.kind is not LoopKind.HOST
            )
        return cached


@dataclass(frozen=True)
class Classification:
    """The classified kernel for one set of size bindings."""

    loops: tuple[LoopInfo, ...]
    stmts: tuple[StmtInfo, ...]
    lattice_dims: tuple[tuple[str, int], ...]  # tensor var -> lattice dim

    def host_loops(self) -> tuple[LoopInfo, ...]:
        return tuple(l for l in self.loops if l.kind is LoopKind.HOST)

    def tensor_loops(self) -> tuple[LoopInfo, ...]:
        return tuple(l for l in self.loops if l.kind is not LoopKind.HOST)

    def dim_of(self, var: str) -> int:
        for v, d in self.lattice_dims:
            if v == var:
                return d
        raise FrontendError(f"no lattice dimension for {var!r}")


# ----------------------------------------------------------------------
# AST flattening
# ----------------------------------------------------------------------
def _collect(stmts: tuple[Stmt, ...]):
    chains: list[tuple[Assign, tuple[For, ...]]] = []
    loops: list[tuple[For, int]] = []
    for stmt in stmts:
        _collect_into(stmt, (), chains, loops)
    return chains, loops


def _collect_into(
    node: Stmt,
    chain: tuple[For, ...],
    chains: list[tuple[Assign, tuple[For, ...]]],
    loops: list[tuple[For, int]],
) -> None:
    if isinstance(node, For):
        loops.append((node, len(chain)))
        for child in node.body:
            _collect_into(child, chain + (node,), chains, loops)
    elif isinstance(node, Assign):
        chains.append((node, chain))
    else:
        raise FrontendError(f"unsupported statement {node!r}")


def _all_refs(assign: Assign):
    if isinstance(assign.target, Ref):
        yield assign.target
        for sub in assign.target.subscripts:
            yield from walk_refs(sub)
    yield from walk_refs(assign.value)


# ----------------------------------------------------------------------
# Loop-level predicates
# ----------------------------------------------------------------------
def _var_in_subscripts(var: str, assigns) -> bool:
    for assign, _chain in assigns:
        for ref in _all_refs(assign):
            for sub in ref.subscripts:
                if is_affine(sub):
                    if extract_affine(sub).coeff(var) != 0:
                        return True
                elif var in free_vars(sub):
                    return True
    return False


def _bad_coefficient(var: str, assigns) -> bool:
    for assign, _chain in assigns:
        for ref in _all_refs(assign):
            for sub in ref.subscripts:
                if is_affine(sub) and extract_affine(sub).coeff(var) not in (0, 1):
                    return True
    return False


def _var_span(
    var: str,
    loop_bounds: Mapping[str, tuple[AffineExpr, AffineExpr]],
    env: Mapping[str, int],
) -> tuple[int, int]:
    """Inclusive iteration range of a loop variable (bounds at lo-env)."""
    if var not in loop_bounds:
        return (-(10**9), 10**9)
    lo_aff, hi_aff = loop_bounds[var]
    try:
        lo = lo_aff.evaluate(env)
        hi = hi_aff.evaluate(env) - 1
    except FrontendError:
        return (-(10**9), 10**9)
    return (lo, max(lo, hi))


def _loop_carried(
    var: str,
    assigns,
    loop_bounds: Mapping[str, tuple[AffineExpr, AffineExpr]],
    env: Mapping[str, int],
    depths: Mapping[str, int],
) -> bool:
    """Interval-based dependence test: is a dependence carried by *var*?

    Two statement instances with *identical outer-loop values* but
    different values of *var* must touch the same array element, one of
    them writing.  We run a Banerjee-style interval test per array
    dimension: the read/write subscript difference must contain zero in
    every dimension under the direction constraint ``var_r - var_w >= 1``
    (and symmetrically ``<= -1``).  Outer variables (shallower than
    *var*) are evaluated at the lower-bound environment; inner variables
    contribute their full iteration span as independent instances.

    A plain distance test would flag Gaussian elimination's inner loops
    (the read row ``A[k][j]`` differs from the written rows ``A[i][j]``),
    but ``i >= k+1`` keeps those regions disjoint within one outer
    iteration, so the inner loops still unroll into tensors (Fig 4(c)).
    """
    my_depth = depths[var]
    writes: list[tuple[tuple[Expr, ...], tuple]] = []
    reads: dict[str, list[tuple[Expr, ...]]] = {}
    writes_by_array: dict[str, list[tuple[Expr, ...]]] = {}
    for assign, chain in assigns:
        if not any(f.var == var for f in chain):
            continue  # both endpoints must be inside the candidate loop
        if isinstance(assign.target, Ref):
            writes_by_array.setdefault(assign.target.array, []).append(
                assign.target.subscripts
            )
        for ref in walk_refs(assign.value):
            reads.setdefault(ref.array, []).append(ref.subscripts)

    def interval_contains_zero(
        w_aff: AffineExpr, r_aff: AffineExpr, direction: int
    ) -> bool:
        lo = hi = 0
        handled: set[str] = set()
        # Shared direction constraint on the candidate variable.
        cw, cr = w_aff.coeff(var), r_aff.coeff(var)
        if cw == cr:
            span = _var_span(var, loop_bounds, env)
            extent = max(0, span[1] - span[0])
            if extent == 0 and cw != 0:
                return False  # a single iteration cannot self-depend
            u_lo, u_hi = (1, max(1, extent)) if direction > 0 else (
                -max(1, extent),
                -1,
            )
            lo += min(cr * u_lo, cr * u_hi)
            hi += max(cr * u_lo, cr * u_hi)
            handled.add(var)
        for aff, sign in ((r_aff, 1), (w_aff, -1)):
            for v, c in aff.coeffs:
                if v in handled and v == var and cw == cr:
                    continue
                coeff = sign * c
                if v in env and depths.get(v, my_depth) < my_depth:
                    lo += coeff * env[v]
                    hi += coeff * env[v]
                else:
                    v_lo, v_hi = _var_span(v, loop_bounds, env)
                    lo += min(coeff * v_lo, coeff * v_hi)
                    hi += max(coeff * v_lo, coeff * v_hi)
        const = r_aff.const - w_aff.const
        lo += const
        hi += const
        return lo <= 0 <= hi

    for array, wsubs_list in writes_by_array.items():
        for rsubs in reads.get(array, []):
            for wsubs in wsubs_list:
                if len(wsubs) != len(rsubs):
                    return True  # rank-inconsistent aliasing: be safe
                if any(
                    not (is_affine(w) and is_affine(r))
                    for w, r in zip(wsubs, rsubs)
                ):
                    return True
                for direction in (1, -1):
                    feasible = True
                    for w, r in zip(wsubs, rsubs):
                        w_aff, r_aff = extract_affine(w), extract_affine(r)
                        if not interval_contains_zero(w_aff, r_aff, direction):
                            feasible = False
                            break
                    if feasible:
                        return True
    return False


def _is_reduction_var(var: str, assigns) -> bool:
    """Targets omit *var* while some operand uses it."""
    reduces = False
    for assign, chain in assigns:
        if not any(f.var == var for f in chain):
            continue
        if not _uses_var_in_refs(assign.value, var):
            continue
        target_uses = False
        if isinstance(assign.target, Ref):
            for sub in assign.target.subscripts:
                if is_affine(sub) and extract_affine(sub).coeff(var) != 0:
                    target_uses = True
        if target_uses:
            return False
        reduces = True
    return reduces


def _uses_var_in_refs(expr: Expr, var: str) -> bool:
    for ref in walk_refs(expr):
        for sub in ref.subscripts:
            if is_affine(sub):
                if extract_affine(sub).coeff(var) != 0:
                    return True
            elif var in free_vars(sub):
                return True
    return False


# ----------------------------------------------------------------------
# Statement-level placement
# ----------------------------------------------------------------------
def _stmt_placement(
    assign: Assign,
    tensor_vars: set[str],
    include_target: bool,
) -> dict[str, set[int]]:
    """Lattice-dimension candidates per tensor variable for one statement.

    Arrays anchor at the lattice origin, so a variable's dimension is the
    array-dimension index it subscripts (innermost subscript = dim 0).
    Indirect subscripts place the *index* stream's variable.
    """
    from repro.frontend.kast import outer_refs

    placements: dict[str, set[int]] = {}
    refs = list(outer_refs(assign.value))
    if include_target and isinstance(assign.target, Ref):
        refs.append(assign.target)
    for ref in refs:
        ndim = len(ref.subscripts)
        for pos, sub in enumerate(ref.subscripts):
            dim = ndim - 1 - pos
            if is_affine(sub):
                aff = extract_affine(sub)
                for var in aff.vars:
                    if var in tensor_vars and aff.coeff(var) != 0:
                        placements.setdefault(var, set()).add(dim)
            else:
                for var in free_vars(sub) & tensor_vars:
                    placements.setdefault(var, set()).add(dim)
    return placements


def _stmt_reduce_vars(assign: Assign, infos: dict[str, LoopInfo], chain) -> set[str]:
    out = set()
    for f in chain:
        info = infos.get(f.var)
        if info and info.kind is LoopKind.REDUCE:
            if _uses_var_in_refs(assign.value, f.var):
                out.add(f.var)
    return out


def _parallelism(
    assign: Assign,
    chain,
    infos: dict[str, LoopInfo],
    bindings: Mapping[str, int],
) -> int:
    extents = []
    for f in chain:
        info = infos[f.var]
        if info.kind is LoopKind.HOST:
            continue
        extents.append(info.extent(_lo_bindings(bindings, infos)))
    return math.prod(extents) if extents else 1


def _lo_bindings(
    bindings: Mapping[str, int], infos: dict[str, LoopInfo]
) -> dict[str, int]:
    """Bindings extended with loop lower bounds (for extent estimates)."""
    return _bounds_lo_env(
        {v: (i.lo, i.hi) for v, i in infos.items()}, bindings
    )


def _bounds_lo_env(
    loop_bounds: Mapping[str, tuple[AffineExpr, AffineExpr]],
    bindings: Mapping[str, int],
) -> dict[str, int]:
    """Bindings extended with each loop's lower bound, fixed-pointed."""
    out = dict(bindings)
    for _ in range(len(loop_bounds) + 1):
        changed = False
        for var, (lo, _hi) in loop_bounds.items():
            if var in out:
                continue
            try:
                out[var] = lo.evaluate(out)
                changed = True
            except FrontendError:
                continue
        if not changed:
            break
    return out


# ----------------------------------------------------------------------
# Main entry
# ----------------------------------------------------------------------
def classify(
    stmts: tuple[Stmt, ...],
    bindings: Mapping[str, int],
    dataflow: str = "inner",
    host_loops: tuple[str, ...] = (),
    stream_parallelism_threshold: int = 0,
) -> Classification:
    """Classify loops and statements for the given size bindings.

    ``dataflow`` selects the reduction strategy (§3.5): ``"inner"`` keeps
    reduction loops in-memory, ``"outer"`` demotes them to host loops so
    reductions become element-wise accumulation across region instances.
    """
    if dataflow not in ("inner", "outer"):
        raise FrontendError(f"unknown dataflow {dataflow!r}")
    assigns, raw_loops = _collect(stmts)

    loop_bounds: dict[str, tuple[AffineExpr, AffineExpr]] = {}
    for loop, _depth in raw_loops:
        if loop.var in loop_bounds:
            raise FrontendError(f"duplicate loop variable {loop.var!r}")
        loop_bounds[loop.var] = (
            extract_affine(loop.lo),
            extract_affine(loop.hi),
        )
    env = _bounds_lo_env(loop_bounds, bindings)
    depths = {loop.var: depth for loop, depth in raw_loops}

    infos: dict[str, LoopInfo] = {}
    for loop, depth in raw_loops:
        lo, hi = loop_bounds[loop.var]
        step = extract_affine(loop.step) if loop.step is not None else None
        kind = LoopKind.TENSOR
        if loop.var in host_loops or step is not None:
            kind = LoopKind.HOST
        elif not _var_in_subscripts(loop.var, assigns):
            kind = LoopKind.HOST
        elif _bad_coefficient(loop.var, assigns):
            kind = LoopKind.HOST
        elif _loop_carried(loop.var, assigns, loop_bounds, env, depths):
            kind = LoopKind.HOST
        elif _is_reduction_var(loop.var, assigns):
            kind = LoopKind.REDUCE if dataflow == "inner" else LoopKind.HOST
        infos[loop.var] = LoopInfo(
            var=loop.var, lo=lo, hi=hi, kind=kind, depth=depth, step=step
        )

    # Rule 5: tensor loop bounds must not depend on other tensor loops.
    for _ in range(len(infos)):
        changed = False
        for var, info in infos.items():
            if info.kind is LoopKind.HOST:
                continue
            bound_vars = info.lo.vars | info.hi.vars
            for other in bound_vars:
                if other in infos and infos[other].kind is not LoopKind.HOST:
                    infos[var] = replace(info, kind=LoopKind.HOST)
                    changed = True
        if not changed:
            break

    # Primary-statement lattice assignment with collision demotion.
    lattice_dims, stmt_modes = _assign_dims(
        assigns, infos, bindings, stream_parallelism_threshold
    )

    ordered = tuple(sorted(infos.values(), key=lambda l: (l.depth, l.var)))
    stmt_infos = tuple(
        StmtInfo(
            assign=assign,
            loops=tuple(infos[f.var] for f in chain),
            mode=mode,
        )
        for (assign, chain), mode in zip(assigns, stmt_modes)
    )
    return Classification(
        loops=ordered,
        stmts=stmt_infos,
        lattice_dims=tuple(sorted(lattice_dims.items())),
    )


def _assign_dims(
    assigns,
    infos: dict[str, LoopInfo],
    bindings: Mapping[str, int],
    stream_threshold: int,
) -> tuple[dict[str, int], list[StmtMode]]:
    """Choose a global lattice assignment; mark incompatible stmts STREAM."""
    lo = _lo_bindings(bindings, infos)

    for _round in range(len(infos) + 1):
        tensor_vars = {
            v for v, i in infos.items() if i.kind is not LoopKind.HOST
        }
        order = sorted(
            range(len(assigns)),
            key=lambda idx: -_parallelism(
                assigns[idx][0], assigns[idx][1], infos, bindings
            ),
        )
        global_map: dict[str, int] = {}
        conflict_var: str | None = None
        modes: list[StmtMode | None] = [None] * len(assigns)
        for rank, idx in enumerate(order):
            assign, chain = assigns[idx]
            if isinstance(assign.target, Ref) and any(
                not is_affine(sub) for sub in assign.target.subscripts
            ):
                # Indirect updates execute near-memory (§3.3, kmeans).
                modes[idx] = StmtMode.STREAM
                continue
            stmt_tvars = {
                f.var for f in chain if infos[f.var].kind is not LoopKind.HOST
            }
            if not stmt_tvars:
                modes[idx] = (
                    StmtMode.HOST_SCALAR
                    if isinstance(assign.target, Var)
                    else StmtMode.STREAM
                )
                continue
            reduce_vars = _stmt_reduce_vars(assign, infos, chain)
            include_target = not reduce_vars
            placement = _stmt_placement(assign, tensor_vars, include_target)
            # Vars enclosing the stmt but unplaced inherit the global map.
            ok = True
            local: dict[str, int] = {}
            local_taken: dict[int, str] = {}
            for var, dims in placement.items():
                if len(dims) > 1:
                    if rank == 0:
                        conflict_var = var
                    ok = False
                    break
                dim = next(iter(dims))
                other = local_taken.get(dim)
                if other is not None:
                    # Two variables on one dimension within this statement:
                    # demote the smaller extent (fewer host iterations).
                    if rank == 0:
                        # Demote the smaller extent (fewer host iterations);
                        # on ties the outer loop, keeping host loops outermost.
                        conflict_var = min(
                            (var, other),
                            key=lambda v: (infos[v].extent(lo), infos[v].depth),
                        )
                    ok = False
                    break
                local_taken[dim] = var
                local[var] = dim
            if ok:
                # Cross-statement consistency is per *variable*: two
                # statements may use one dimension for different variables
                # (they execute sequentially), but a shared variable must
                # keep one lattice dimension.
                for var, dim in local.items():
                    g = global_map.get(var)
                    if g is not None and g != dim:
                        ok = False
                        break
            if ok and stmt_threshold_low(
                assign, chain, infos, bindings, stream_threshold
            ):
                ok = False
            if ok:
                for var, dim in local.items():
                    global_map[var] = dim
                modes[idx] = StmtMode.TENSOR
            else:
                if rank == 0 and conflict_var is not None:
                    break  # demote and retry the whole assignment
                modes[idx] = StmtMode.STREAM
        if conflict_var is None:
            final = [m if m is not None else StmtMode.STREAM for m in modes]
            return global_map, final
        infos[conflict_var] = replace(infos[conflict_var], kind=LoopKind.HOST)
    raise FrontendError("lattice dimension assignment did not converge")


def stmt_threshold_low(
    assign, chain, infos, bindings, threshold: int
) -> bool:
    if threshold <= 0:
        return False
    return _parallelism(assign, chain, infos, bindings) < threshold
