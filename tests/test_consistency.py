"""Cross-module consistency properties.

These pin independent implementations of the same mapping to each other:
the LOT's address→bitline arithmetic vs the TiledLayout's tile placement,
and the command-level traffic stats vs the timing model's accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.system import default_system, small_test_system
from repro.ir.dtypes import DType
from repro.runtime.layout import TiledLayout
from repro.runtime.lot import LayoutOverrideTable


class TestLOTvsLayout:
    def _pair(self, shape=(64, 32), tile=(16, 16)):
        system = default_system()
        layout = TiledLayout(
            array="A",
            shape=shape,
            tile=tile,
            elem_type=DType.FP32,
            register=1,
            arrays_per_bank=system.cache.compute_arrays_per_bank,
            num_banks=system.cache.l3_banks,
        )
        lot = LayoutOverrideTable()
        entry = lot.install_layout(layout, base=0)
        return layout, entry

    @given(
        i0=st.integers(0, 63),
        i1=st.integers(0, 31),
    )
    @settings(max_examples=200)
    def test_address_and_cell_agree_on_tile(self, i0, i1):
        """paddr -> tile via the LOT equals cell -> tile via the layout."""
        layout, entry = self._pair()
        # Element (i0, i1): dim 0 contiguous.
        index = i1 * 64 + i0
        paddr = index * 4
        lot_tile, _bitline = entry.bitline_of(paddr)
        layout_tile = layout.tile_linear(layout.tile_of_cell((i0, i1)))
        assert lot_tile == layout_tile

    @given(i0=st.integers(0, 63), i1=st.integers(0, 31))
    @settings(max_examples=100)
    def test_bitline_within_tile_bounds(self, i0, i1):
        layout, entry = self._pair()
        _tile, bitline = entry.bitline_of((i1 * 64 + i0) * 4)
        assert 0 <= bitline < 16 * 16


class TestStatsVsTiming:
    def test_intra_tile_bytes_agree(self):
        """CommandStats and the TC timing count the same shifted bytes."""
        from repro.backend import compile_fat_binary
        from repro.frontend import parse_kernel
        from repro.runtime.jit import JITCompiler
        from repro.uarch.chip import Chip

        system = default_system()
        prog = parse_kernel(
            "s",
            "for i in [1, N-1):\n    B[i] = A[i-1] + A[i+1]\n",
            arrays={"A": ("N",), "B": ("N",)},
        )
        region = prog.instantiate({"N": 1 << 20}).first_region()
        jit = JITCompiler(system=system)
        res = jit.compile_region(compile_fat_binary(region.tdfg, (256,)))
        chip = Chip(system=system)
        timing = chip.tc.execute(
            res.lowered, next(iter(res.layouts.values()))
        )
        assert timing.intra_tile_bytes == res.lowered.stats.intra_tile_bytes

    def test_grid_and_reference_share_convention(self):
        """The numpy axis convention is identical across both executors."""
        from repro.geometry import Hyperrect
        from repro.uarch.sram import SRAMGrid

        g = SRAMGrid(shape=(8, 4), tile=(8, 1))
        data = np.arange(32, dtype=np.float32).reshape(4, 8)
        region = Hyperrect.from_bounds([(0, 8), (0, 4)])
        g.load(0, region, data)
        # Lattice cell (i0=3, i1=2) is numpy [2, 3].
        cell = g.read(0, Hyperrect.from_bounds([(3, 4), (2, 3)]))
        assert cell[0, 0] == data[2, 3]


class TestEq2AgreesWithModels:
    def test_decision_tracks_min_cost_selection(self):
        """Eq. 2's verdict matches the engine's min-cost choice at the
        extremes of the Fig 2 size range."""
        from repro.runtime.decision import OffloadChoice, decide_tdfg
        from repro.sim.engine import InfinityStreamRunner
        from repro.workloads.suite import vec_add

        big = vec_add(4 * 1024 * 1024)
        region = big.kernel.first_region()
        assert decide_tdfg(region.tdfg) is OffloadChoice.IN_MEMORY
        res = InfinityStreamRunner(paradigm="inf-s").run(big)
        assert res.cycles.compute > 0  # the engine also ran in-memory

        small = vec_add(16 * 1024)
        region = small.kernel.first_region()
        assert decide_tdfg(region.tdfg) is OffloadChoice.NEAR_MEMORY
        res = InfinityStreamRunner(paradigm="inf-s").run(small)
        assert res.cycles.near_mem > 0  # ...and near-memory here
