"""The workload zoo: LLM streaming + sparse workloads under every paradigm."""

import math

import pytest

from repro.config.system import small_test_system
from repro.registry import PARADIGMS, WORKLOADS
from repro.sim.campaign import zoo_speedup
from repro.workloads import attention, mlp, sddmm, spmv

SCALE = 0.05

ZOO_NAMES = ("attention", "mlp", "spmv", "sddmm")


def _variants(scale=SCALE):
    out = []
    for df in ("inner", "outer"):
        out.append(attention(scale, dataflow=df))
        out.append(mlp(scale, dataflow=df))
    out.append(spmv(scale))
    out.append(sddmm(scale))
    return out


class TestZooRegistration:
    def test_all_four_registered_with_zoo_tag(self):
        assert WORKLOADS.names(tag="zoo") == ZOO_NAMES

    def test_instantiable_via_registry(self):
        for name in ZOO_NAMES:
            wl = WORKLOADS.create(name, scale=SCALE)
            assert wl.params and wl.program is not None


class TestZooUnderEveryParadigm:
    @pytest.mark.parametrize("paradigm", PARADIGMS.names())
    def test_finite_consistent_costs(self, paradigm):
        system = small_test_system()
        for wl in _variants():
            runner = PARADIGMS.create(paradigm, system=system)
            res = runner.run(wl)
            assert math.isfinite(res.total_cycles), (wl.name, paradigm)
            assert res.total_cycles > 0, (wl.name, paradigm)
            assert math.isfinite(res.energy_nj) and res.energy_nj > 0
            assert res.total_cycles == pytest.approx(res.cycles.total)
            total_ops = res.ops.core + res.ops.in_memory + res.ops.near_memory
            assert total_ops > 0, (wl.name, paradigm)

    def test_streaming_phases_modeled(self):
        """attention's softmax and the sparse gathers run near-memory."""
        system = small_test_system()
        runner = PARADIGMS.create("inf-s", system=system)
        for factory, phase in (
            (attention, "softmax_stream"),
            (spmv, "csr_gather_x"),
            (sddmm, "csr_gather_rows"),
        ):
            wl = factory(SCALE)
            assert [p.name for p in wl.extra_phases] == [phase]
            res = runner.run(wl)
            assert res.ops.near_memory > 0, wl.name

    def test_mlp_streams_hidden_layer(self):
        """Three segments in one kernel: GEMM -> relu -> GEMM."""
        wl = mlp(SCALE)
        assert len(wl.kernel.segments) == 3


class TestZooFingerprints:
    """Equal workloads share one kernel (``Workload.kernel``), so each
    side here is a fresh ``instantiate()``: two independent builds of a
    region must agree on the fingerprint that keys the compilation cache
    and the JIT memo."""

    def test_digests_stable_across_instantiation(self):
        for name in ZOO_NAMES:
            wl = WORKLOADS.create(name, scale=SCALE)
            a, b = wl.instantiate(), wl.instantiate()
            assert [r.tdfg.fingerprint() for r in a.regions()] == [
                r.tdfg.fingerprint() for r in b.regions()
            ], name

    def test_scale_changes_fingerprint(self):
        a = WORKLOADS.create("attention", scale=SCALE).instantiate()
        b = WORKLOADS.create("attention", scale=2 * SCALE).instantiate()
        assert (
            a.first_region().tdfg.fingerprint()
            != b.first_region().tdfg.fingerprint()
        )


class TestZooFigure:
    def test_zoo_speedup_table(self):
        headers, rows = zoo_speedup(scale=SCALE)
        assert headers[0] == "workload"
        # 6 variants + geomean row.
        assert len(rows) == 7
        assert rows[-1][0] == "geomean"
        for row in rows:
            for cell in row[1:]:
                assert math.isfinite(cell) and cell > 0
