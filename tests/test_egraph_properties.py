"""Property-based tests for the e-graph rewrites (Appendix Eq. 3–9).

Two families of properties over randomly generated tDFG expression
trees with random small integer-valued tensors:

* **semantic preservation** — firing any single rule to fixpoint and
  extracting the cheapest equivalent never changes the reference
  evaluation (:func:`repro.sim.functional.eval_node`) within the
  expression's lattice domain.  Values are small integers stored as
  fp32, so even re-association (``assoc``/``distrib``) must reproduce
  results *exactly*;
* **cost monotonicity** — full saturation + extraction never increases
  the architecture-informed cost model value: the optimizer may keep
  the original but must never pick something it believes is worse.

The generated trees are "compiler-shaped": broadcast sources are
extent-1 tensors at a fixed position (the row/column broadcasts real
kernels emit), shrinks stay within their child's domain.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph.cost import CostParams
from repro.egraph.egraph import EGraph
from repro.egraph.extract import best_nodes, dag_cost
from repro.egraph.lang import add_node, build_node
from repro.egraph.rewrites import (
    default_rules,
    rule_assoc,
    rule_bc_cmp,
    rule_bc_shrink,
    rule_cmp_shrink,
    rule_comm,
    rule_distrib,
    rule_expand,
    rule_mv_cmp,
    rule_mv_commute,
    rule_mv_fuse,
    rule_mv_shrink,
    rule_shrink_shrink,
)
from repro.egraph.saturate import (
    SCHEDULERS,
    STRATEGIES,
    OptimizerConfig,
    optimize_tdfg,
)
from repro.geometry import Hyperrect
from repro.ir.dtypes import DType
from repro.ir.nodes import (
    BroadcastNode,
    ComputeNode,
    ConstNode,
    MoveNode,
    Node,
    ShrinkNode,
    TensorNode,
)
from repro.ir.ops import Op
from repro.ir.tdfg import ArrayDecl, TensorDFG
from repro.sim.functional import LatticeContext, eval_node

N = 12  # 1-D lattice extent
ARRAYS = ("A", "B", "C")
OPS = (Op.ADD, Op.SUB, Op.MUL)

RULES = [
    ("comm", rule_comm),
    ("assoc", rule_assoc),
    ("distrib", rule_distrib),
    ("mv_cmp", rule_mv_cmp),
    ("bc_cmp", rule_bc_cmp),
    ("mv_fuse", rule_mv_fuse),
    ("mv_commute", rule_mv_commute),
    ("expand", lambda eg: rule_expand(eg, _full_domains())),
    ("shrink_shrink", rule_shrink_shrink),
    ("mv_shrink", rule_mv_shrink),
    ("bc_shrink", rule_bc_shrink),
    ("cmp_shrink", rule_cmp_shrink),
]


def _full_domains() -> dict[str, Hyperrect]:
    return {name: Hyperrect.from_bounds([(0, N)]) for name in ARRAYS}


# ----------------------------------------------------------------------
# Random expression trees
# ----------------------------------------------------------------------
@st.composite
def tensor_leaves(draw) -> TensorNode:
    arr = draw(st.sampled_from(ARRAYS))
    lo = draw(st.integers(0, N - 2))
    hi = draw(st.integers(lo + 1, N))
    return TensorNode(arr, Hyperrect.from_bounds([(lo, hi)]))


@st.composite
def broadcast_leaves(draw) -> BroadcastNode:
    """Extent-1 source broadcast from position 0 (a realistic row bc)."""
    arr = draw(st.sampled_from(ARRAYS))
    count = draw(st.integers(2, N))
    return BroadcastNode(
        TensorNode(arr, Hyperrect.from_bounds([(0, 1)])), 0, 0, count
    )


@st.composite
def terms(draw, depth: int = 3) -> Node:
    if depth <= 0:
        return draw(tensor_leaves())
    kind = draw(
        st.sampled_from(["tensor", "cmp", "cmp_const", "mv", "shrink", "bc"])
    )
    if kind == "tensor":
        return draw(tensor_leaves())
    if kind == "bc":
        return draw(broadcast_leaves())
    if kind == "cmp":
        op = draw(st.sampled_from(OPS))
        return ComputeNode(
            op, (draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
        )
    if kind == "cmp_const":
        op = draw(st.sampled_from(OPS))
        const = ConstNode(float(draw(st.integers(1, 3))))
        return ComputeNode(op, (draw(terms(depth=depth - 1)), const))
    if kind == "mv":
        # Keep every intermediate domain inside the [0, N) lattice: the
        # finite-plane evaluator clips out-of-bound cells, so a move that
        # leaves the lattice and comes back would lose values the fused
        # rewrite keeps — a clipping artifact, not a rewrite bug.
        src = draw(terms(depth=depth - 1))
        dom = src.domain
        if dom is None or dom.is_empty:
            return src
        lo, hi = dom.interval(0)
        d_min, d_max = max(-3, -lo), min(3, N - hi)
        if d_min > d_max or (d_min == 0 == d_max):
            return src
        dist = draw(
            st.integers(d_min, d_max).filter(lambda d: d != 0)
        )
        return MoveNode(src, 0, dist)
    # shrink: stay within the child's domain (compiler invariant)
    src = draw(terms(depth=depth - 1))
    dom = src.domain
    if dom is None:
        return src
    lo, hi = dom.interval(0)
    if hi - lo < 2:
        return src
    p = draw(st.integers(lo, hi - 1))
    q = draw(st.integers(p + 1, hi))
    return ShrinkNode(src, 0, p, q)


# ----------------------------------------------------------------------
# Reference evaluation
# ----------------------------------------------------------------------
def _context(seed: int) -> LatticeContext:
    rng = np.random.default_rng(seed)
    arrays = {
        name: rng.integers(0, 4, size=N).astype(np.float32)
        for name in ARRAYS
    }
    return LatticeContext(
        shape=(N,),
        arrays=arrays,
        array_shapes={name: (N,) for name in ARRAYS},
        params={},
    )


def _evaluate(node: Node, seed: int) -> np.ndarray:
    result = eval_node(node, _context(seed))
    assert isinstance(result, np.ndarray)
    return result


def _lattice_domain(node: Node) -> Hyperrect | None:
    dom = node.domain
    if dom is None:
        return None
    clipped = dom.intersect(Hyperrect.from_bounds([(0, N)]))
    return None if clipped.is_empty else clipped


def _saturate(eg: EGraph, rules, rounds: int) -> None:
    for _ in range(rounds):
        before = (eg.version, eg.num_nodes)
        for rule in rules:
            for a, b in rule(eg):
                eg.union(a, b)
            eg.rebuild()
        if (eg.version, eg.num_nodes) == before:
            break


def _extract(eg: EGraph, root: int) -> Node:
    best, _ = best_nodes(eg, CostParams())
    return build_node(eg, best, root, {})


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "rule", [r for _, r in RULES], ids=[name for name, _ in RULES]
)
@given(term=terms(), seed=st.integers(0, 2**16))
@settings(max_examples=40)
def test_single_rule_preserves_evaluation(rule, term, seed):
    """Each rule, fired alone, keeps eval_node exact within the domain."""
    dom = _lattice_domain(term)
    if dom is None:
        return
    expected = _evaluate(term, seed)

    eg = EGraph()
    root = add_node(eg, term, {})
    _saturate(eg, [rule], rounds=2)
    rebuilt = _extract(eg, root)

    assert rebuilt.domain == term.domain, (
        f"rule changed the domain: {term.domain} -> {rebuilt.domain}"
    )
    actual = _evaluate(rebuilt, seed)
    sel = dom.numpy_slices()
    np.testing.assert_array_equal(
        actual[sel],
        expected[sel],
        err_msg=f"rewrite changed values of {term!r}",
    )


@given(term=terms(), seed=st.integers(0, 2**16))
@settings(max_examples=20)
def test_full_rule_set_preserves_evaluation(term, seed):
    """All rules together (as optimize_tdfg fires them) stay exact."""
    dom = _lattice_domain(term)
    if dom is None:
        return
    expected = _evaluate(term, seed)

    eg = EGraph()
    root = add_node(eg, term, {})
    _saturate(eg, default_rules(_full_domains()), rounds=3)
    rebuilt = _extract(eg, root)

    assert rebuilt.domain == term.domain
    actual = _evaluate(rebuilt, seed)
    sel = dom.numpy_slices()
    np.testing.assert_array_equal(actual[sel], expected[sel])


@given(term=terms())
@settings(max_examples=25)
def test_saturation_extraction_never_increases_cost(term):
    """The optimizer must never pick something it believes is worse."""
    params = CostParams()
    eg = EGraph()
    root = add_node(eg, term, {})
    baseline_best, _ = best_nodes(eg, params)
    cost_before = dag_cost(eg, baseline_best, [root], params)

    _saturate(eg, default_rules(_full_domains()), rounds=3)
    best, _ = best_nodes(eg, params)
    cost_after = dag_cost(eg, best, [root], params)

    assert cost_after <= cost_before + 1e-9, (
        f"extraction raised cost {cost_before} -> {cost_after} for {term!r}"
    )


def _tdfg_of(term: Node) -> TensorDFG:
    """Wrap a random term as a one-binding region for optimize_tdfg."""
    tdfg = TensorDFG(name="prop")
    for name in ARRAYS:
        tdfg.declare(ArrayDecl(name, (N,), DType.FP32))
    tdfg.declare(ArrayDecl("O", (N,), DType.FP32))
    tdfg.bind("O", term.domain, term)
    return tdfg


@given(term=terms(), seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_strategies_preserve_semantics_and_agree_on_cost(term, seed):
    """Indexed and naive saturation extract cost-identical, exact tDFGs.

    Both strategies run the whole optimize_tdfg pipeline on the same
    term.  Semantic preservation must hold unconditionally; extracted
    costs must be identical whenever the searches reach fixpoint (a
    budget-truncated search stops at a strategy-dependent frontier, so
    tiny budgets are avoided here — tier-1 covers that path on the
    workload kernels instead).
    """
    dom = _lattice_domain(term)
    if dom is None:
        return
    expected = _evaluate(term, seed)
    sel = dom.numpy_slices()

    reports = {}
    for strategy in STRATEGIES:
        config = OptimizerConfig(max_iterations=8, strategy=strategy)
        out, reports[strategy] = optimize_tdfg(_tdfg_of(term), config)
        rebuilt = out.results[0].node
        assert rebuilt.domain == term.domain
        np.testing.assert_array_equal(
            _evaluate(rebuilt, seed)[sel],
            expected[sel],
            err_msg=f"{strategy} strategy changed values of {term!r}",
        )
    indexed, naive = reports["indexed"], reports["naive"]
    assert indexed.cost_before == naive.cost_before
    if indexed.saturated and naive.saturated:
        assert indexed.cost_after == naive.cost_after, (
            f"strategies extracted different costs for {term!r}"
        )


@given(term=terms(), seed=st.integers(0, 2**16))
@settings(max_examples=20)
def test_extraction_is_deterministic(term, seed):
    """Same term, two fresh e-graphs: identical extraction choices."""
    results = []
    for _ in range(2):
        eg = EGraph()
        root = add_node(eg, term, {})
        _saturate(eg, default_rules(_full_domains()), rounds=2)
        results.append(_extract(eg, root))
    assert results[0] == results[1]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@given(term=terms())
@settings(max_examples=10, deadline=None)
def test_budget_tripped_runs_deterministic_and_never_regress(
    scheduler, term
):
    """A tiny node budget trips mid-exploration; the result must still be
    bit-identical across repeated invocations (insertion-ordered e-class
    node sets, explicit sort keys) and never worse than the input.
    """
    reports = [
        optimize_tdfg(
            _tdfg_of(term),
            OptimizerConfig(
                max_iterations=6,
                node_budget=64,
                scheduler=scheduler,
            ),
        )[1]
        for _ in range(2)
    ]
    first, second = reports
    assert first.cost_after == second.cost_after
    assert first.num_nodes == second.num_nodes
    assert first.budget_tripped_by == second.budget_tripped_by
    for rep in reports:
        assert rep.cost_after <= rep.cost_before + 1e-9, (
            f"{scheduler}: extraction regressed "
            f"{rep.cost_before} -> {rep.cost_after} for {term!r}"
        )


@given(term=terms())
@settings(max_examples=10, deadline=None)
def test_schedulers_agree_when_both_saturate(term):
    """Greedy and backoff must extract cost-identical results whenever
    both reach fixpoint: scheduling changes the order rewrites are
    discovered in, never the saturated equivalence closure.
    """
    reports = {
        scheduler: optimize_tdfg(
            _tdfg_of(term),
            OptimizerConfig(max_iterations=8, scheduler=scheduler),
        )[1]
        for scheduler in SCHEDULERS
    }
    greedy, backoff = reports["greedy"], reports["backoff"]
    assert greedy.cost_before == backoff.cost_before
    if greedy.saturated and backoff.saturated:
        assert greedy.cost_after == backoff.cost_after, (
            f"schedulers extracted different costs for {term!r}"
        )
