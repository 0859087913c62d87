"""Algorithm 2 and JIT lowering to bit-serial commands (§4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import allocate_registers, compile_fat_binary, schedule_tdfg
from repro.config.system import small_test_system
from repro.frontend import parse_kernel
from repro.geometry import Hyperrect
from repro.ir.dtypes import DType
from repro.runtime.commands import ComputeCmd, ShiftCmd, SyncCmd
from repro.runtime.jit import JITCompiler
from repro.runtime.lower import compile_move


class TestAlgorithm2:
    def test_fig9_right_shift_by_one(self):
        """Fig 9: right shift by 1 with 2-wide tiles -> intra + inter."""
        cmds = compile_move(
            tensor=Hyperrect.from_bounds([(0, 4)]),
            dim=0,
            dist=1,
            tile=(2,),
            src_reg=0,
            dst_reg=1,
            elem_type=DType.FP32,
        )
        assert len(cmds) == 2
        intra, inter = cmds
        assert (intra.mask_lo, intra.mask_hi) == (0, 1)
        assert intra.inter_tile_dist == 0 and intra.intra_tile_dist == 1
        assert (inter.mask_lo, inter.mask_hi) == (1, 2)
        assert inter.inter_tile_dist == 1 and inter.intra_tile_dist == -1

    def test_aligned_shift_pure_inter(self):
        """Distance = tile size: one inter-tile command, no intra."""
        cmds = compile_move(
            Hyperrect.from_bounds([(0, 8)]), 0, 4, (4,), 0, 1, DType.FP32
        )
        assert len(cmds) == 1
        assert cmds[0].inter_tile_dist == 1
        assert cmds[0].intra_tile_dist == 0

    def test_backward_shift(self):
        cmds = compile_move(
            Hyperrect.from_bounds([(0, 8)]), 0, -1, (4,), 0, 1, DType.FP32
        )
        assert any(c.inter_tile_dist < 0 for c in cmds)
        assert any(c.inter_tile_dist == 0 for c in cmds)

    def test_empty_mask_filtered(self):
        """Commands whose mask misses the tensor are dropped (§4.2)."""
        cmds = compile_move(
            Hyperrect.from_bounds([(0, 1)]), 0, 1, (4,), 0, 1, DType.FP32
        )
        # Only position 0 exists; the wrap-around command is empty.
        assert len(cmds) == 1
        assert cmds[0].inter_tile_dist == 0

    def test_zero_distance_no_commands(self):
        assert (
            compile_move(
                Hyperrect.from_bounds([(0, 8)]), 0, 0, (4,), 0, 1, DType.FP32
            )
            == []
        )

    @given(
        extent=st.integers(1, 48),
        dist=st.integers(-10, 10).filter(lambda d: d != 0),
        tile=st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=150)
    def test_masks_partition_the_tile(self, extent, dist, tile):
        """Each tile-local position is moved by exactly one command."""
        cmds = compile_move(
            Hyperrect.from_bounds([(0, extent)]),
            0,
            dist,
            (tile,),
            0,
            1,
            DType.FP32,
        )
        for pos in range(extent):
            movers = [
                c for c in cmds if c.mask_lo <= pos % tile < c.mask_hi
            ]
            assert len(movers) == 1
            c = movers[0]
            assert c.inter_tile_dist * tile + c.intra_tile_dist == dist


class TestRegionLowering:
    def _lower(self, src, arrays, params, system=None, dataflow="inner"):
        system = system or small_test_system()
        prog = parse_kernel("k", src, arrays=arrays)
        region = prog.instantiate(params, dataflow=dataflow).first_region()
        fb = compile_fat_binary(region.tdfg, (system.cache.sram.wordlines,))
        jit = JITCompiler(system=system)
        return jit.compile_region(fb)

    def test_sync_between_inter_shift_and_consumer(self):
        res = self._lower(
            "for i in [1, N-1):\n    B[i] = A[i-1] + A[i+1]\n",
            {"A": ("N",), "B": ("N",)},
            {"N": 64},
        )
        cmds = res.lowered.commands
        first_compute = next(
            i for i, c in enumerate(cmds) if isinstance(c, ComputeCmd)
        )
        inter = [
            i
            for i, c in enumerate(cmds[:first_compute])
            if isinstance(c, ShiftCmd) and c.is_inter_tile
        ]
        if inter:  # a sync must separate them from the compute
            syncs = [
                i
                for i, c in enumerate(cmds[:first_compute])
                if isinstance(c, SyncCmd)
            ]
            assert syncs and max(inter) < max(syncs)

    def test_pure_intra_needs_no_sync(self):
        """Shift distance below tile size with aligned extents."""
        res = self._lower(
            "for i in [0, N-1):\n    B[i] = A[i+1]\n",
            {"A": ("N",), "B": ("N",)},
            {"N": 16},  # one tile: everything intra
        )
        stats = res.lowered.stats
        if stats.num_inter_tile == 0:
            assert stats.num_sync == 0

    def test_reduce_tail_partials(self):
        res = self._lower(
            "v = 0\nfor i in [0, N):\n    v += A[i]\n",
            {"A": ("N",)},
            {"N": 64},
        )
        (tail,) = res.lowered.reduce_tails
        # tile 16 over 64 elements: 4 per-tile partials.
        assert tail.partials == 4
        assert len(tail.partial_cells) == 4

    def test_memoization(self):
        system = small_test_system()
        prog = parse_kernel(
            "memo",
            "for i in [0, N):\n    B[i] = A[i] * 2\n",
            arrays={"A": ("N",), "B": ("N",)},
        )
        region = prog.instantiate({"N": 64}).first_region()
        fb = compile_fat_binary(region.tdfg, (256,))
        jit = JITCompiler(system=system)
        first = jit.compile_region(fb)
        second = jit.compile_region(fb)
        assert not first.memo_hit and second.memo_hit
        assert second.jit_cycles < first.jit_cycles
        assert jit.stats.memo_hit_rate == 0.5

    def test_shrinking_regions_never_memoize(self):
        """Gaussian elimination's regions differ every iteration (§8)."""
        system = small_test_system()
        prog = parse_kernel(
            "g",
            """
            for k in [0, N-1):
                akk = A[k][k]
                for i in [k+1, N):
                    for j in [k+1, N):
                        A[i][j] = A[i][j] - A[k][j] * akk
            """,
            arrays={"A": ("N", "N")},
        )
        ik = prog.instantiate({"N": 16})
        jit = JITCompiler(system=system)
        for env in ik.host_iterations(ik.segments[0]):
            region = ik.region_at(env, ik.segments[0])
            fb = compile_fat_binary(region.tdfg, (256,))
            jit.compile_region(fb)
        assert jit.stats.memo_hits == 0
        assert jit.stats.lowered == 15

    def test_wave_ids_group_decomposed_commands(self):
        res = self._lower(
            "for i in [1, M-1):\n    for j in [1, N-1):\n"
            "        B[i][j] = A[i-1][j] + A[i+1][j]\n",
            {"A": ("M", "N"), "B": ("M", "N")},
            {"M": 16, "N": 16},
        )
        computes = [
            c for c in res.lowered.commands if isinstance(c, ComputeCmd)
        ]
        waves = {c.wave for c in computes}
        assert all(w >= 0 for w in waves)
        # One logical add decomposed into boundary subtensors shares a wave.
        assert len(waves) < len(computes) or len(computes) <= len(waves)
