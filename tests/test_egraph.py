"""E-graph machinery and the Appendix rewrite rules (Eq. 3–9)."""

import pytest

from repro.egraph import EGraph, OptimizerConfig, optimize_tdfg
from repro.egraph.cost import CostParams
from repro.egraph.extract import best_nodes, dag_cost
from repro.egraph.lang import add_node, add_term, term_domain
from repro.errors import OptimizationError
from repro.frontend import parse_kernel
from repro.geometry import Hyperrect
from repro.ir.builder import TDFGBuilder
from repro.ir.nodes import StreamKind, StreamNode, TensorNode, walk
from repro.ir.ops import Op
from repro.ir.printer import format_tdfg
from repro.registry import WORKLOADS
from repro.sim.functional import execute_kernel, interpret_kernel

from tests.conftest import make_arrays


class TestEGraphCore:
    def test_hashcons_dedup(self):
        eg = EGraph()
        a = eg.add(("const", 1.0, "fp32"), (), has_domain=False)
        b = eg.add(("const", 1.0, "fp32"), (), has_domain=False)
        assert a == b

    def test_union_find(self):
        eg = EGraph()
        a = eg.add(("const", 1.0, "fp32"), (), has_domain=False)
        b = eg.add(("const", 2.0, "fp32"), (), has_domain=False)
        c = eg.add(("const", 3.0, "fp32"), (), has_domain=False)
        eg.union(a, b)
        assert eg.find(a) == eg.find(b)
        # classes() lists the canonical ids only, ascending.
        assert eg.classes() == sorted({eg.find(a), c})

    def test_congruence_closure(self):
        """f(a) and f(b) merge once a == b."""
        eg = EGraph()
        dom = Hyperrect.from_bounds([(0, 4)])
        a = eg.add(("tensor", "A", ((0, 4),), "fp32"), (), domain=dom)
        b = eg.add(("tensor", "B", ((0, 4),), "fp32"), (), domain=dom)
        fa = add_term(eg, ("cmp", "relu"), (a,))
        fb = add_term(eg, ("cmp", "relu"), (b,))
        assert eg.find(fa) != eg.find(fb)
        eg.union(a, b)
        eg.rebuild()
        assert eg.find(fa) == eg.find(fb)

    def test_domain_mismatch_union_rejected(self):
        eg = EGraph()
        a = eg.add(
            ("tensor", "A", ((0, 4),), "fp32"),
            (),
            domain=Hyperrect.from_bounds([(0, 4)]),
        )
        b = eg.add(
            ("tensor", "A", ((0, 8),), "fp32"),
            (),
            domain=Hyperrect.from_bounds([(0, 8)]),
        )
        with pytest.raises(OptimizationError):
            eg.union(a, b)

    @pytest.mark.parametrize("name", WORKLOADS.names())
    def test_term_domain_mirrors_ir_domain(self, name):
        """Every node of every region at scale 0.05: the e-graph's
        domain analysis of a term equals the IR node's domain (reduce
        streams carry none, a region-less store its input's)."""
        wl = WORKLOADS.create(name, scale=0.05)
        kernel = wl.program.instantiate(
            {k: int(v) for k, v in wl.params.items()}, dataflow=wl.dataflow
        )
        for region in kernel.regions():
            tdfg = region.tdfg
            roots = [b.node for b in tdfg.results] + list(tdfg.scalar_results)
            eg = EGraph()
            cache: dict[int, int] = {}
            seen: set[int] = set()
            for root in roots:
                add_node(eg, root, cache)
                for node in walk(root, seen):
                    (enode,) = eg.nodes(cache[id(node)])
                    assert term_domain(eg, enode.label, enode.children) == (
                        node.domain, node.domain is not None
                    ), f"{tdfg.name}: {node}"

    def test_term_domain_of_each_stream_kind(self):
        rect = Hyperrect.from_bounds([(0, 8)])
        src = TensorNode("A", rect)
        streams = [
            StreamNode("ld", StreamKind.LOAD, region=rect),
            StreamNode("st", StreamKind.STORE, (src,), region=rect),
            StreamNode("st_in", StreamKind.STORE, (src,)),
            StreamNode("red", StreamKind.REDUCE, (src,), combiner=Op.ADD),
        ]
        eg = EGraph()
        cache: dict[int, int] = {}
        for node in streams:
            (enode,) = eg.nodes(add_node(eg, node, cache))
            assert term_domain(eg, enode.label, enode.children) == (
                node.domain, node.domain is not None
            ), node.stream
        assert [s.domain for s in streams] == [rect, rect, rect, None]


def _optimize_kernel(src, arrays, params, **opt_kw):
    prog = parse_kernel("opt", src, arrays=arrays)
    region = prog.instantiate(params).first_region()
    optimized, report = optimize_tdfg(region.tdfg, OptimizerConfig(**opt_kw))
    return region, optimized, report


class TestOptimization:
    def test_fig20_distributive_factoring(self):
        """V*A[i-1] + V*A[i+1] -> V*(A[i-1] + A[i+1]): one multiply."""
        region, opt, report = _optimize_kernel(
            "for i in [1, N-1):\n    B[i] = V*A[i-1] + V*A[i+1]\n",
            {"A": ("N",), "B": ("N",)},
            {"N": 16},
            max_iterations=6,
        )
        before = region.tdfg.count_by_kind()["compute"]
        after = opt.count_by_kind()["compute"]
        assert report.cost_after < report.cost_before
        assert after < before
        muls = [n for n in opt.compute_nodes() if n.op is Op.MUL]
        assert len(muls) == 1

    def test_optimization_preserves_semantics(self):
        """The optimized tDFG computes the same values (reference exec)."""
        import numpy as np

        src = "for i in [1, N-1):\n    B[i] = V*A[i-1] + V*A[i+1]\n"
        arrays_spec = {"A": ("N",), "B": ("N",)}
        params = {"N": 32, "V": 3}
        prog = parse_kernel("sem", src, arrays=arrays_spec)
        base = make_arrays(arrays_spec, params, seed=5)

        golden = {k: v.copy() for k, v in base.items()}
        interpret_kernel(prog, params, golden)

        ik = prog.instantiate(params)
        region = ik.first_region()
        config = OptimizerConfig(max_iterations=6)
        optimized, _ = optimize_tdfg(region.tdfg, config)
        region.tdfg = optimized  # splice the optimized graph in
        ik._region_cache[(0, ())] = region

        test = {k: v.copy() for k, v in base.items()}
        execute_kernel(ik, test, mode="reference")
        np.testing.assert_allclose(test["B"], golden["B"], rtol=3e-4)

    def test_no_regression_keeps_original(self):
        """If extraction cannot improve, the input tDFG is returned."""
        region, opt, report = _optimize_kernel(
            "for i in [0, N):\n    B[i] = A[i] + 1\n",
            {"A": ("N",), "B": ("N",)},
            {"N": 16},
            max_iterations=6,
        )
        assert report.cost_after <= report.cost_before
        assert opt.count_by_kind()["compute"] <= 2

    def test_report_fields(self):
        _, _, report = _optimize_kernel(
            "for i in [1, N-1):\n    B[i] = A[i-1] + A[i+1]\n",
            {"A": ("N",), "B": ("N",)},
            {"N": 16},
            max_iterations=3,
        )
        assert report.iterations <= 3
        assert report.num_nodes > 0
        assert 0 < report.improvement <= 1.0

    def test_node_budget_respected(self):
        _, _, report = _optimize_kernel(
            "for i in [1, N-1):\n    B[i] = C0*A[i-1] + C1*A[i] + C0*A[i+1]\n",
            {"A": ("N",), "B": ("N",)},
            {"N": 16},
            max_iterations=10,
            node_budget=300,
        )
        assert not report.saturated or report.num_nodes <= 4000


class TestExtraction:
    def test_dag_cost_counts_shared_once(self):
        b = TDFGBuilder("shared")
        a = b.array("A", (16,))
        out = b.array("B", (16,))
        x = a.all() * 2.0
        b.store(out, (0, 16), x + x)  # shared subexpression
        tdfg = b.finish()
        eg = EGraph()
        cache = {}
        root = add_node(eg, tdfg.results[0].node, cache)
        params = CostParams()
        best, _ = best_nodes(eg, params)
        cost = dag_cost(eg, best, [root], params)
        # mul once + add once + const/tensor; not two muls.
        mul = Op.MUL.bitserial_cycles(params.dtype)
        add = Op.ADD.bitserial_cycles(params.dtype)
        assert cost < 2 * mul + add + 200
