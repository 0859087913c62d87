"""Table 3 workload definitions and cost accounting."""

import pytest

from repro.frontend.classify import LoopKind
from repro.workloads import paper_workloads, workload
from repro.workloads.suite import (
    array_sum,
    conv3d,
    gather_mlp,
    gauss_elim,
    kmeans,
    mm,
    stencil1d,
    vec_add,
)


class TestTable3Parameters:
    def test_paper_scale_sizes(self):
        assert stencil1d().params["N"] == 4 * 1024 * 1024
        assert workload("stencil2d").params == {"M": 2048, "N": 2048}
        assert workload("gauss_elim").params["N"] == 2048
        assert mm().params == {"M": 2048, "N": 2048, "K": 2048}
        assert kmeans().params == {"P": 32 * 1024, "D": 128, "C": 128}
        assert gather_mlp().params["M"] == 32 * 1024
        c3 = conv3d()
        assert c3.params["H"] == 256 and c3.params["I"] == 64

    def test_iteration_counts(self):
        assert stencil1d().iterations == 10
        assert workload("stencil2d").iterations == 10
        assert workload("stencil3d").iterations == 10
        assert workload("conv2d").iterations == 1

    def test_movement_classes_match_table3(self):
        """Shift workloads shift; BC workloads broadcast."""
        shift_wl = workload("stencil2d", scale=0.03)
        hints = shift_wl.kernel.first_region().tdfg.hints
        assert hints.shift_dims and not hints.broadcast_dims

        bc_wl = mm(scale=0.03, dataflow="outer")
        hints = bc_wl.kernel.first_region().tdfg.hints
        assert hints.broadcast_dims

    def test_dataflow_variants_differ(self):
        inner = mm(scale=0.03, dataflow="inner")
        outer = mm(scale=0.03, dataflow="outer")
        ik_in, ik_out = inner.kernel, outer.kernel
        kin = {l.var: l.kind for l in ik_in.classification.loops}
        kout = {l.var: l.kind for l in ik_out.classification.loops}
        assert kin["k"] is LoopKind.REDUCE
        assert kout["k"] is LoopKind.HOST

    def test_all_ten_fig11_workloads(self):
        from repro.registry import WORKLOADS as REGISTRY

        wls = paper_workloads(scale=0.02)
        assert len(wls) == 10
        names = {w.name.split("/")[0] for w in wls}
        assert names == set(REGISTRY.names(tag="table3"))

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            workload("bitcoin_miner")


class TestCosts:
    def test_vec_add_ops(self):
        wl = vec_add(1024)
        assert wl.costs.total_ops == 1024

    def test_triangular_gauss_ops_exact(self):
        """Sum over k of ~3(N-k-1)^2 + streams: exact host enumeration."""
        wl = gauss_elim(scale=0.02)  # N = 32
        n = wl.params["N"]
        # The inner statement has 2 arithmetic ops (sub, mul).
        expected_inner = sum(2 * (n - k - 1) ** 2 for k in range(n - 1))
        assert wl.costs.total_ops >= expected_inner
        assert wl.costs.total_ops <= expected_inner * 1.5

    def test_iterations_scale_costs(self):
        one = stencil1d(scale=0.01)
        one.iterations = 1
        ten = stencil1d(scale=0.01)
        assert ten.costs.total_ops == 10 * one.costs.total_ops

    def test_indirect_counts_distinct_elements(self):
        wl = gather_mlp(scale=0.02)
        m, k = wl.params["M"], wl.params["K"]
        # Distinct gathered elements: M*K, not M*N*K.
        assert wl.costs.indirect_bytes == m * k * 4

    def test_kmeans_extra_phase(self):
        wl = kmeans(scale=0.02)
        assert wl.extra_phases
        assert wl.costs.stream_ops >= wl.extra_phases[0].ops

    def test_array_bytes(self):
        wl = vec_add(1024)
        assert wl.array_bytes() == 3 * 1024 * 4

    def test_describe(self):
        assert "x10" in stencil1d(scale=0.01).describe()
        assert "outer" in mm(scale=0.01, dataflow="outer").describe()


class TestMicrobenchmarks:
    def test_fig2_sizes(self):
        from repro.workloads import microbenchmarks

        wls = microbenchmarks()
        assert len(wls) == 10  # 5 sizes x 2 kernels
        assert all(w.data_in_l3 and w.steady_state for w in wls)

    def test_human_names(self):
        assert vec_add(16 * 1024).name == "vec_add/16k"
        assert array_sum(4 * 1024 * 1024).name == "array_sum/4M"
