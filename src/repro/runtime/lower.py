"""JIT lowering of scheduled tDFGs into bit-serial commands (§4.2).

The three lowering steps of the paper:

1. **Tensor decomposition** (Algorithm 1, :mod:`repro.geometry.decompose`)
   — split tensors along tile boundaries so boundary tiles are handled
   separately;
2. **Intra-/inter-tile shifts** (Algorithm 2, :func:`compile_move`) —
   a move becomes up to two shift commands per subtensor, with bitline
   masks selecting which tile-local positions cross the boundary;
3. **Map to L3 banks** — commands are skipped at banks whose tiles don't
   intersect the command's tile pattern.

Element-wise compute nodes skip step 2; reductions lower into interleaved
compute and intra-tile shift rounds; broadcasts reuse the read line via
the H-tree.  A ``sync`` command (global barrier) separates inter-tile
movement from its consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.schedule import ScheduledOp, ScheduledTDFG
from repro.errors import LoweringError
from repro.geometry.decompose import decompose_tensor
from repro.geometry.hyperrect import Hyperrect
from repro.ir.dtypes import DType
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
from repro.runtime.commands import (
    BroadcastCmd,
    Command,
    CommandStats,
    ComputeCmd,
    ShiftCmd,
    SyncCmd,
)
from repro.runtime.layout import TiledLayout

# The reserved PE scratch wordlines (not a regular register, §5.2).
SCRATCH_REG = -2


@dataclass
class ReduceTail:
    """Near-memory work left after in-memory partial reduction.

    ``partial_cells`` are the lattice cells holding in-memory partial
    results (one per tile along the reduced dimension); ``raw_regions``
    are boundary subtensors whose extent was not a power of two and whose
    elements the near-memory stream reduces directly (the "special
    handling" of boundary tiles, §4.1/§5).
    """

    stream: str
    combiner: Op
    dim: int
    partial_reg: int
    raw_reg: int
    dest_region: Hyperrect | None
    elem_type: DType
    partial_cells: list[Hyperrect] = field(default_factory=list)
    raw_regions: list[Hyperrect] = field(default_factory=list)

    @property
    def partials(self) -> int:
        total = sum(r.volume for r in self.partial_cells)
        total += sum(r.volume for r in self.raw_regions)
        return total


def group_waves(commands) -> list[list]:
    """Group consecutive commands sharing a wave id.

    Sync commands and wave-less commands form singleton groups.
    """
    out: list[list] = []
    current: list = []
    current_wave: int | None = None
    for cmd in commands:
        wave = getattr(cmd, "wave", -1)
        if wave >= 0 and wave == current_wave and current:
            current.append(cmd)
            continue
        if current:
            out.append(current)
        current = [cmd]
        current_wave = wave if wave >= 0 else None
    if current:
        out.append(current)
    return out


# Wave kinds, matching the strings the timing engine reports.
WAVE_COMPUTE, WAVE_INTRA, WAVE_INTER, WAVE_BROADCAST, WAVE_SYNC, WAVE_OTHER = (
    range(6)
)
WAVE_KIND_NAMES = (
    "compute",
    "shift-intra",
    "shift-inter",
    "broadcast",
    "sync",
    "other",
)


class WaveArrays:
    """Layout-independent numpy views of a lowered command list.

    Built once per :class:`LoweredRegion` (cached) so the timing engine
    charges whole regions with array reductions instead of per-command
    Python.  The per-command arrays are indexed in command order; the
    per-wave arrays are indexed in wave order, and because waves
    partition the command list *contiguously*, the per-wave aggregates
    are plain ``reduceat`` segments over the wave start offsets.

    Exactness: ``lat_max`` uses ``np.maximum.reduceat`` (order-free) and
    the summed aggregates are int64 ``np.add.reduceat`` (integer sums are
    exact in any order below 2^53), so they bit-match the scalar loops
    they replace.  Float accumulation order is preserved by the caller
    (see ``TensorControllers.execute``).
    """

    __slots__ = (
        "n_commands",
        "n_waves",
        "kind",
        "start",
        "count",
        "is_inter",
        "pair_idx",
        "pairs",
        "bytes_f",
        "bytes_read_f",
        "lat_max",
        "elem_sum",
        "intra_sum",
        "has_inter",
        "has_broadcast",
    )

    def __init__(self, commands: list[Command], waves: list[list]) -> None:
        n = len(commands)
        self.n_commands = n
        self.n_waves = len(waves)
        latency = [0] * n
        elements = [0] * n
        bytes_moved = [0] * n
        bytes_read = [0] * n
        is_inter = [False] * n
        pair_idx = [0] * n
        pairs: list[tuple[int, int]] = []
        pair_map: dict[tuple[int, int], int] = {}
        has_broadcast = False
        for i, cmd in enumerate(commands):
            if isinstance(cmd, ComputeCmd):
                latency[i] = cmd.latency_cycles
                elements[i] = cmd.elements
            elif isinstance(cmd, ShiftCmd):
                bytes_moved[i] = cmd.bytes_moved
                dist = cmd.inter_tile_dist
                if dist != 0:
                    is_inter[i] = True
                    key = (cmd.dim, dist)
                    idx = pair_map.get(key)
                    if idx is None:
                        idx = pair_map[key] = len(pairs)
                        pairs.append(key)
                    pair_idx[i] = idx
            elif isinstance(cmd, BroadcastCmd):
                bytes_read[i] = cmd.bytes_read
                has_broadcast = True
        self.pairs = pairs
        self.has_inter = bool(pairs)
        self.has_broadcast = has_broadcast
        if pairs or has_broadcast:
            self.is_inter = np.array(is_inter, dtype=bool)
            self.pair_idx = np.array(pair_idx, dtype=np.int64)
            self.bytes_f = np.array(bytes_moved, dtype=np.float64)
            self.bytes_read_f = np.array(bytes_read, dtype=np.float64)
        else:
            # No NoC-touching commands: the float arrays are never read.
            self.is_inter = None
            self.pair_idx = None
            self.bytes_f = None
            self.bytes_read_f = None

        kind = [WAVE_OTHER] * self.n_waves
        start = [0] * self.n_waves
        count = [0] * self.n_waves
        pos = 0
        for g, wave in enumerate(waves):
            start[g] = pos
            count[g] = len(wave)
            end = pos + len(wave)
            first = wave[0]
            if isinstance(first, ComputeCmd):
                kind[g] = WAVE_COMPUTE
            elif isinstance(first, ShiftCmd):
                kind[g] = (
                    WAVE_INTER
                    if any(is_inter[pos:end])
                    else WAVE_INTRA
                )
            elif isinstance(first, BroadcastCmd):
                kind[g] = WAVE_BROADCAST
            elif isinstance(first, SyncCmd):
                kind[g] = WAVE_SYNC
            pos = end
        self.kind = kind
        self.start = start
        self.count = count
        if n and self.n_waves:
            # Segment reductions over the wave partition: waves are
            # contiguous runs, so the wave starts are the reduceat
            # offsets.  max is order-free; the sums are int64 (exact).
            starts_arr = np.array(start, dtype=np.int64)
            lat_arr = np.array(latency, dtype=np.int64)
            elem_arr = np.array(elements, dtype=np.int64)
            intra_arr = np.array(
                [0 if inter else b for b, inter in zip(bytes_moved, is_inter)],
                dtype=np.int64,
            )
            self.lat_max = np.maximum.reduceat(lat_arr, starts_arr).tolist()
            self.elem_sum = np.add.reduceat(elem_arr, starts_arr).tolist()
            self.intra_sum = np.add.reduceat(intra_arr, starts_arr).tolist()
        else:
            self.lat_max = [0] * self.n_waves
            self.elem_sum = [0] * self.n_waves
            self.intra_sum = [0] * self.n_waves


@dataclass
class LoweredRegion:
    """The lowering result for one region: commands + metadata."""

    name: str
    commands: list[Command] = field(default_factory=list)
    reduce_tails: list[ReduceTail] = field(default_factory=list)
    stats: CommandStats | None = None
    tile: tuple[int, ...] = ()
    banks_touched: int = 0
    stream_registers: dict[str, int] = field(default_factory=dict)
    spill_bytes: int = 0  # DRAM spill/fill stream traffic (§6 relaxed)
    # Wave grouping / numpy views, built lazily and cached: the command
    # list is immutable once execution begins, and cached/replayed
    # regions execute many times.  Excluded from pickles (__getstate__)
    # so disk-cache entries stay lean.
    _waves_cache: list | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _wave_arrays_cache: WaveArrays | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # The timing engine's probe results by (system fingerprint, layout);
    # see InfinityStreamRunner._probe_timing.  Also excluded from pickles.
    _timing_memo: dict | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def finalize(self) -> "LoweredRegion":
        self.stats = CommandStats.collect(self.commands)
        return self

    @property
    def num_commands(self) -> int:
        return len(self.commands)

    def waves(self) -> list[list]:
        """The cached wave grouping of ``commands`` (built on first use)."""
        if self._waves_cache is None:
            self._waves_cache = group_waves(self.commands)
        return self._waves_cache

    def wave_arrays(self) -> WaveArrays:
        """The cached numpy views of ``commands`` (built on first use)."""
        if self._wave_arrays_cache is None:
            self._wave_arrays_cache = WaveArrays(self.commands, self.waves())
        return self._wave_arrays_cache

    def timing_memo(self) -> dict:
        """The timing engine's memo for this region (built on first use)."""
        if self._timing_memo is None:
            self._timing_memo = {}
        return self._timing_memo

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_waves_cache"] = None
        state["_wave_arrays_cache"] = None
        state["_timing_memo"] = None
        return state


def _masked_elements(
    tensor: Hyperrect, dim: int, tile: int, mask_lo: int, mask_hi: int
) -> int:
    """Elements of *tensor* whose tile-local position on *dim* is in mask.

    Closed form: the mask selects ``width`` positions out of every
    ``tile``-length period, so the count over ``[p, q)`` is ``width``
    per full period plus the clamped remainder at each end — identical
    to counting ``mask_lo <= pos % tile < mask_hi`` position by
    position, in O(1).
    """
    p, q = tensor.interval(dim)
    lo = max(0, mask_lo)
    hi = min(tile, mask_hi)
    width = hi - lo
    if width <= 0 or q <= p:
        count = 0
    else:
        if p < 0:
            # Shift by whole periods so the prefix count below starts
            # at a non-negative coordinate; pos % tile is unchanged.
            shift = (-p + tile - 1) // tile * tile
            p += shift
            q += shift

        def prefix(x: int) -> int:
            """Matching positions in [0, x)."""
            full, rem = divmod(x, tile)
            return full * width + min(max(rem - lo, 0), width)

        count = prefix(q) - prefix(p)
    other = tensor.volume // max(1, q - p)
    return count * other


def compile_move(
    tensor: Hyperrect,
    dim: int,
    dist: int,
    tile: tuple[int, ...],
    src_reg: int,
    dst_reg: int,
    elem_type: DType,
    wave: int = -1,
) -> list[ShiftCmd]:
    """Algorithm 2: lower one decomposed mv into shift commands."""
    tk = tile[dim]
    out: list[ShiftCmd] = []
    if dist == 0:
        return out
    d_inter = abs(dist) // tk
    d_intra = abs(dist) % tk
    d_intra_c = tk - d_intra  # complement (Alg 2 line 3)

    def emit(mask_lo: int, mask_hi: int, inter: int, intra: int) -> None:
        elements = _masked_elements(tensor, dim, tk, mask_lo, mask_hi)
        if elements == 0:
            return  # filtered out: empty intersection (§4.2)
        out.append(
            ShiftCmd(
                tensor=tensor,
                dim=dim,
                mask_lo=mask_lo,
                mask_hi=mask_hi,
                inter_tile_dist=inter,
                intra_tile_dist=intra,
                src_reg=src_reg,
                dst_reg=dst_reg,
                elements=elements,
                elem_type=elem_type,
                wave=wave,
            )
        )

    if dist > 0:  # shift forward (Alg 2 lines 5-8)
        emit(0, d_intra_c, d_inter, d_intra)
        if d_intra > 0:
            emit(d_intra_c, tk, d_inter + 1, -d_intra_c)
    else:  # shift backward (lines 9-12)
        if d_intra > 0:
            emit(0, d_intra, -(d_inter + 1), d_intra_c)
        emit(d_intra, tk, -d_inter, -d_intra)
    return out


class RegionLowerer:
    """Lower one scheduled tDFG with a chosen layout into commands."""

    def __init__(
        self,
        sched: ScheduledTDFG,
        layouts: dict[str, TiledLayout],
    ) -> None:
        if not layouts:
            raise LoweringError("no layouts provided")
        self.sched = sched
        self.layouts = layouts
        self.tile = next(iter(layouts.values())).tile
        self.lowered = LoweredRegion(name=sched.tdfg.name, tile=self.tile)
        self._pending_sync = False
        self._banks: set[int] = set()
        self._any_layout = next(iter(layouts.values()))
        self._wave = 0

    # ------------------------------------------------------------------
    def run(self) -> LoweredRegion:
        for op in self.sched.ops:
            self._lower_op(op)
        self.lowered.banks_touched = len(self._banks) or 1
        # Each spill/fill streams one register's worth of every bitline
        # holding live data (the lattice bounding volume) to/from DRAM.
        spills = getattr(self.sched, "spills", [])
        if spills:
            volume = 0
            for decl in self.sched.tdfg.arrays.values():
                v = 1
                for dim in decl.shape:
                    v *= dim
                volume = max(volume, v)
            elem = next(
                iter(self.sched.tdfg.arrays.values())
            ).elem_type.bytes
            self.lowered.spill_bytes = len(spills) * volume * elem
        return self.lowered.finalize()

    # ------------------------------------------------------------------
    def _emit(self, cmd: Command) -> None:
        self.lowered.commands.append(cmd)

    def _barrier_if_needed(self) -> None:
        if self._pending_sync:
            self._emit(SyncCmd())
            self._pending_sync = False

    def _touch_banks(self, region: Hyperrect | None) -> None:
        if region is None or region.is_empty:
            return
        self._banks |= self._any_layout.banks_covering(region)

    def _reg(self, value: int | None) -> int:
        return -1 if value is None else value

    def _next_wave(self) -> int:
        """Commands within one wave operate on disjoint tiles and execute
        in parallel across their SRAM arrays; waves serialize."""
        self._wave += 1
        return self._wave

    # ------------------------------------------------------------------
    def _lower_op(self, op: ScheduledOp) -> None:
        node = op.node
        if isinstance(node, (TensorNode, ConstNode, ShrinkNode)):
            return  # resident data / broadcast-on-the-fly / nop
        if isinstance(node, MoveNode):
            self._lower_move(op, node)
        elif isinstance(node, BroadcastNode):
            self._lower_broadcast(op, node)
        elif isinstance(node, ComputeNode):
            self._lower_compute(op, node)
        elif isinstance(node, ReduceNode):
            self._lower_reduce(op, node)
        elif isinstance(node, StreamNode):
            self._lower_stream(op, node)
        else:
            raise LoweringError(f"cannot lower node kind {node.kind!r}")

    def _lower_move(self, op: ScheduledOp, node: MoveNode) -> None:
        src_domain = node.src.domain
        if src_domain is None:
            return  # moving an infinite constant is a no-op
        self._barrier_if_needed()
        elem = node.dtype
        src_reg = self._reg(op.src_regs[0])
        dst_reg = self._reg(op.dst_reg)
        any_inter = False
        wave = self._next_wave()
        # Step 1: decompose along tile boundaries (Alg 1).
        for sub in decompose_tensor(src_domain, self.tile):
            # Step 2: intra-/inter-tile shifts (Alg 2).
            for cmd in compile_move(
                sub, node.dim, node.dist, self.tile, src_reg, dst_reg, elem,
                wave=wave,
            ):
                self._emit(cmd)
                any_inter |= cmd.is_inter_tile
        # Step 3: bank mapping for traffic accounting.
        self._touch_banks(src_domain)
        self._touch_banks(node.domain)
        if any_inter:
            self._pending_sync = True

    def _lower_broadcast(self, op: ScheduledOp, node: BroadcastNode) -> None:
        src_domain = node.src.domain
        if src_domain is None:
            return  # constants broadcast inside the compute command
        self._barrier_if_needed()
        if src_domain.shape[node.dim] != 1:
            raise LoweringError(
                f"broadcast source must have extent 1 on dim {node.dim}"
            )
        self._emit(
            BroadcastCmd(
                tensor=src_domain,
                dim=node.dim,
                dest_lo=node.dist,
                copies=node.count,
                src_reg=self._reg(op.src_regs[0]),
                dst_reg=self._reg(op.dst_reg),
                elements=src_domain.volume,
                elem_type=node.dtype,
                wave=self._next_wave(),
            )
        )
        self._touch_banks(node.domain)
        self._pending_sync = True

    def _lower_compute(self, op: ScheduledOp, node: ComputeNode) -> None:
        domain = node.domain
        if domain is None:
            raise LoweringError(
                f"compute {node} over only constants cannot be lowered"
            )
        self._barrier_if_needed()
        operands: list[tuple[str, int | float | str]] = []
        for operand, reg in zip(node.operands, op.src_regs):
            if isinstance(operand, ConstNode):
                operands.append(("const", operand.value))
            else:
                operands.append(("reg", self._reg(reg)))
        dst = self._reg(op.dst_reg)
        if op.writes_array is not None:
            dst = self.layouts[op.writes_array].register
        wave = self._next_wave()
        for sub in decompose_tensor(domain, self.tile):  # step 1
            self._emit(
                ComputeCmd(
                    op=node.op,
                    domain=sub,
                    dst_reg=dst,
                    operands=tuple(operands),
                    elem_type=node.dtype,
                    wave=wave,
                )
            )
        self._touch_banks(domain)  # step 3

    def _lower_reduce(self, op: ScheduledOp, node: ReduceNode) -> None:
        """Interleave compute and intra-tile shifts to reduce each tile.

        Each decomposed subtensor with a power-of-two extent along the
        reduced dimension runs a binary tree of (shift, combine) rounds,
        leaving one partial per tile; other (boundary) subtensors fall
        back to the near-memory stream — the boundary-tile special
        handling the paper attributes extra commands to.
        """
        src_domain = node.src.domain
        if src_domain is None:
            raise LoweringError("cannot reduce an infinite tensor")
        self._barrier_if_needed()
        tk = self.tile[node.dim]
        src_reg = self._reg(op.src_regs[0])
        dst_reg = self._reg(op.dst_reg)
        elem = node.dtype
        tail = ReduceTail(
            stream=f"reduce_{self.sched.tdfg.name}_{op.index}",
            combiner=node.op,
            dim=node.dim,
            partial_reg=dst_reg,
            raw_reg=src_reg,
            dest_region=node.domain,
            elem_type=elem,
        )
        for sub in decompose_tensor(src_domain, self.tile):
            p, q = sub.interval(node.dim)
            extent = q - p
            within = min(tk, extent)
            if within & (within - 1):  # not a power of two
                tail.raw_regions.append(sub)
                continue
            stride = 1
            prev = src_reg
            while stride < within:
                # Shift lanes down into the reserved PE scratch rows
                # (register -2), then combine (§4.2).
                self._emit(
                    ShiftCmd(
                        tensor=sub,
                        dim=node.dim,
                        mask_lo=0,
                        mask_hi=tk,
                        inter_tile_dist=0,
                        intra_tile_dist=-stride,
                        src_reg=prev,
                        dst_reg=SCRATCH_REG,
                        elements=max(1, sub.volume // (2 * stride)),
                        elem_type=elem,
                    )
                )
                self._emit(
                    ComputeCmd(
                        op=node.op,
                        domain=sub,
                        dst_reg=dst_reg,
                        operands=(("reg", prev), ("reg", SCRATCH_REG)),
                        elem_type=elem,
                    )
                )
                prev = dst_reg
                stride *= 2
            if within == 1:
                # Single lane per tile: the "partial" is the input itself.
                tail.partial_reg = src_reg
            # Partial roots: the first lane of each tile segment.
            roots = [
                pos for pos in range(p, q) if pos == p or pos % tk == 0
            ]
            for pos in roots:
                tail.partial_cells.append(
                    sub.with_interval(node.dim, pos, pos + 1)
                )
        self._touch_banks(src_domain)
        self.lowered.reduce_tails.append(tail)

    def _lower_stream(self, op: ScheduledOp, node: StreamNode) -> None:
        """Streams execute near-memory; only reduce tails matter here."""
        if node.stream_kind is StreamKind.LOAD and op.dst_reg is not None:
            # The register the gathered tensor materializes into.
            self.lowered.stream_registers[node.stream] = op.dst_reg
        if node.stream_kind is StreamKind.REDUCE:
            # The consumed operand is an in-memory ReduceNode whose tail we
            # already recorded; attach the stream name to the latest tail.
            if self.lowered.reduce_tails:
                self.lowered.reduce_tails[-1].stream = node.stream
                if node.region is not None:
                    self.lowered.reduce_tails[-1].dest_region = node.region


def lower_region(
    sched: ScheduledTDFG, layouts: dict[str, TiledLayout]
) -> LoweredRegion:
    """Lower a scheduled tDFG under the chosen transposed layout."""
    return RegionLowerer(sched, layouts).run()
