"""Incremental equality saturation: early exits, scheduling, and knobs.

Covers the optimizer's control surface around the indexed matcher:

* early-exit paths — fixpoint saturation, node-budget exhaustion (with
  the tripping rule recorded and a trace instant emitted), the
  iteration cap, and the ``cost_after >= cost_before`` fallback that
  returns the input tDFG untouched;
* the egg-style :class:`BackoffScheduler` (ban thresholds double, bans
  expire, stall-unban via ``unban_all`` with a trace instant and an
  ``egraph.scheduler.unbans`` metric) and the cost-guided
  :class:`GreedyScheduler` (prior-seeded yield order, benefit profile,
  deadline mode, growth caps, consolidation rule filter);
* knob validation when an :class:`OptimizerConfig` is built
  (``OptimizationError``) and at the user boundaries (CLI exit code 1,
  serve ``JobSpecError``), including the ``--rule-scheduler`` knob;
* the optimizer inside the timing engine: ``repro simulate --optimize``
  under each rule scheduler, and optimize kernel jobs from validation
  through execution;
* cross-strategy and cross-scheduler agreement: ``indexed`` (under
  either scheduler) and ``naive`` extract cost-identical tDFGs on
  every workload kernel that saturates, budget-tripped runs are
  bit-deterministic across repeated invocations, and extraction never
  regresses past the input cost;
* the ``egraph.*`` metrics and stats surfaced through
  :class:`OptimizationReport` and ``repro compile --egraph-stats``;
* the extractor's node-cost memo, which lasts the whole run and is
  cleared only by a union that gives a class a domain.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.egraph import (
    SCHEDULERS,
    STRATEGIES,
    BackoffScheduler,
    EGraph,
    GreedyScheduler,
    OptimizerConfig,
    optimize_tdfg,
)
from repro.egraph.cost import CostParams
from repro.egraph.extract import Extractor
from repro.egraph.lang import add_term
from repro.errors import JobSpecError, OptimizationError
from repro.frontend import parse_kernel
from repro.geometry import Hyperrect
from repro.serve.jobs import run_job_spec, validate_spec
from repro.trace import events as trace_events
from repro.trace import metrics as trace_metrics
from repro.workloads import suite

# V*A[i-1] + V*A[i+1] factors via distributivity: plenty of rewrites.
FACTOR_SRC = "for i in [1, N-1):\n    B[i] = V*A[i-1] + V*A[i+1]\n"
FACTOR_ARRAYS = {"A": ("N",), "B": ("N",)}

# A 5-point weighted stencil: assoc/distrib/comm blow past small node
# budgets within an iteration or two.
RICH_SRC = (
    "for i in [2, N-2):\n"
    "    B[i] = V*A[i-2] + V*A[i-1] + V*A[i] + V*A[i+1] + V*A[i+2]\n"
)

# X[i] + Y[i]: nothing to factor, fuse, or expand profitably.
PLAIN_SRC = "for i in [0, N):\n    Y[i] = X[i] + Y[i]\n"
PLAIN_ARRAYS = {"X": ("N",), "Y": ("N",)}

RULE_NAMES = {
    "comm", "assoc", "distrib", "mv_cmp", "bc_cmp", "mv_fuse",
    "mv_commute", "expand", "shrink_shrink", "mv_shrink", "bc_shrink",
    "cmp_shrink",
}


def _tdfg(src, arrays, params):
    prog = parse_kernel("inc", src, arrays=arrays)
    return prog.instantiate(params).first_region().tdfg


def _factor_tdfg(n=64):
    return _tdfg(FACTOR_SRC, FACTOR_ARRAYS, {"N": n, "V": 3})


def _rich_tdfg(n=64):
    return _tdfg(RICH_SRC, FACTOR_ARRAYS, {"N": n, "V": 3})


# ----------------------------------------------------------------------
# Early-exit paths
# ----------------------------------------------------------------------
class TestEarlyExits:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_fixpoint_saturates(self, strategy):
        config = OptimizerConfig(max_iterations=16, strategy=strategy)
        out, report = optimize_tdfg(_factor_tdfg(), config)
        assert report.saturated
        assert report.budget_tripped_by is None
        assert report.iterations < 16
        assert report.cost_after < report.cost_before
        assert report.strategy == strategy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_node_budget_exhaustion_records_rule(self, strategy):
        config = OptimizerConfig(
            max_iterations=6, node_budget=64, strategy=strategy
        )
        out, report = optimize_tdfg(_rich_tdfg(), config)
        assert not report.saturated
        assert report.budget_tripped_by in RULE_NAMES | {"rebuild"}
        assert report.num_nodes > 64

    def test_budget_exhaustion_emits_trace_instant_and_metric(self):
        with trace_events.tracing() as tr, trace_metrics.collecting() as reg:
            optimize_tdfg(
                _rich_tdfg(), OptimizerConfig(max_iterations=6, node_budget=64)
            )
        names = [e.name for e in tr.events]
        assert "egraph.node_budget_exhausted" in names
        snap = reg.snapshot()
        tripped = [
            k for k in snap.counters if k.startswith("egraph.budget_exhausted")
        ]
        assert tripped, f"no egraph.budget_exhausted counter in {snap.counters}"

    def test_iteration_cap_reports_unsaturated(self):
        config = OptimizerConfig(max_iterations=1)
        _, report = optimize_tdfg(_factor_tdfg(), config)
        assert report.iterations == 1
        assert not report.saturated
        assert report.budget_tripped_by is None

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_no_improvement_returns_input_tdfg(self, strategy):
        tdfg = _tdfg(PLAIN_SRC, PLAIN_ARRAYS, {"N": 64})
        out, report = optimize_tdfg(
            tdfg, OptimizerConfig(max_iterations=6, strategy=strategy)
        )
        assert out is tdfg  # the fallback hands back the original object
        assert report.cost_after == report.cost_before
        assert report.improvement == 1.0  # ratio: unchanged cost


# ----------------------------------------------------------------------
# Knob validation: library raises, boundaries map to user errors
# ----------------------------------------------------------------------
class TestKnobValidation:
    def test_valid_knobs_pass(self):
        assert OptimizerConfig(4, 20_000, "indexed") == OptimizerConfig()
        assert OptimizerConfig(1, 64, "naive").strategy == "naive"
        for scheduler in SCHEDULERS:
            config = OptimizerConfig(4, 20_000, "indexed", scheduler)
            assert config.scheduler == scheduler

    def test_bad_scheduler_reported(self):
        with pytest.raises(OptimizationError, match="scheduler"):
            OptimizerConfig(4, 20_000, "indexed", "bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": True},
            {"node_budget": 63},
            {"node_budget": 2.5},
            {"strategy": "bogus"},
            {"scheduler": "bogus"},
        ],
        ids=["zero-iters", "bool-iters", "low-budget", "float-budget",
             "bad-strategy", "bad-scheduler"],
    )
    def test_bad_knobs_raise_optimization_error(self, kwargs):
        with pytest.raises(OptimizationError):
            OptimizerConfig(**kwargs)

    def test_cli_rejects_bad_knobs_with_exit_1(self, tmp_path, capsys):
        path = tmp_path / "factor.k"
        path.write_text(FACTOR_SRC)
        base = [
            "compile", str(path), "--array", "A:N", "--array", "B:N",
            "-p", "N=64", "-p", "V=3", "--name", "factor", "--optimize",
        ]
        assert cli.main(base + ["--node-budget", "10"]) == 1
        assert "node_budget" in capsys.readouterr().err
        assert cli.main(base + ["--strategy", "bogus"]) == 1
        assert "strategy" in capsys.readouterr().err
        assert cli.main(base + ["--max-iterations", "0"]) == 1
        assert "max_iterations" in capsys.readouterr().err
        assert cli.main(base + ["--rule-scheduler", "bogus"]) == 1
        assert "scheduler" in capsys.readouterr().err

    def test_cli_egraph_stats_prints_rule_table(self, tmp_path, capsys):
        path = tmp_path / "factor.k"
        path.write_text(FACTOR_SRC)
        rc = cli.main([
            "compile", str(path), "--array", "A:N", "--array", "B:N",
            "-p", "N=64", "-p", "V=3", "--name", "factor", "--egraph-stats",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "e-graph stats" in out
        assert "distrib" in out  # the factoring rule fired and is listed
        assert "phases:" in out
        assert "productive" in out  # the greedy benefit profile columns
        assert "benefit" in out

    def test_serve_spec_validates_knobs(self):
        spec = {
            "kind": "kernel",
            "source": FACTOR_SRC,
            "arrays": {"A": ["N"], "B": ["N"]},
            "params": {"N": 64, "V": 3},
            "optimize": True,
        }
        norm = validate_spec(spec)
        assert norm["optimize"] is True
        assert norm["strategy"] == "indexed"
        assert norm["scheduler"] == "greedy"
        assert norm["max_iterations"] == 4
        assert norm["node_budget"] == 20_000
        assert validate_spec({**spec, "scheduler": "backoff"})[
            "scheduler"
        ] == "backoff"
        with pytest.raises(JobSpecError):
            validate_spec({**spec, "node_budget": 8})
        with pytest.raises(JobSpecError):
            validate_spec({**spec, "strategy": "bogus"})
        with pytest.raises(JobSpecError):
            validate_spec({**spec, "scheduler": "bogus"})

    def test_serve_spec_without_optimize_has_no_knobs(self):
        norm = validate_spec({
            "kind": "kernel",
            "source": PLAIN_SRC,
            "arrays": {"X": ["N"], "Y": ["N"]},
            "params": {"N": 64},
        })
        assert "optimize" not in norm
        assert "strategy" not in norm


# ----------------------------------------------------------------------
# The optimizer inside the timing engine: CLI flags and serve specs
# ----------------------------------------------------------------------
# N=1024 has a valid tiling, so the engine lowers the optimized program
# (at N=64 lowering fails and the region runs near memory).
FACTOR_SPEC = {
    "kind": "kernel",
    "source": FACTOR_SRC,
    "arrays": {"A": ["N"], "B": ["N"]},
    "params": {"N": 1024, "V": 3},
    "optimize": True,
}


class TestOptimizerInEngine:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_cli_simulate_optimize_prints_egraph_metrics(
        self, scheduler, tmp_path, capsys
    ):
        path = tmp_path / "factor.k"
        path.write_text(FACTOR_SRC)
        rc = cli.main([
            "simulate", str(path), "--array", "A:N", "--array", "B:N",
            "-p", "N=1024", "-p", "V=3", "--name", "factor", "--optimize",
            "--rule-scheduler", scheduler, "--metrics",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        lowered = [
            line.split()[-1] for line in out.splitlines()
            if line.startswith("engine.regions|")
        ]
        assert lowered == ["1.00"]
        assert "egraph.iterations|strategy=indexed" in out
        assert "egraph.rule.matches|rule=distrib" in out
        # Only the greedy scheduler profiles productive matches: the
        # flag reached the optimize stage inside the engine.
        assert ("egraph.rule.productive" in out) == (scheduler == "greedy")

    def test_optimize_spec_normalizes_to_all_five_keys(self):
        expected = {
            "kind": "kernel",
            "name": "kernel",
            "source": FACTOR_SRC,
            "arrays": {"A": ["N"], "B": ["N"]},
            "params": {"N": 1024, "V": 3},
            "dataflow": "inner",
            "paradigm": "inf-s",
            "iterations": 1,
            "optimize": True,
            "max_iterations": 4,
            "node_budget": 20_000,
            "strategy": "indexed",
            "scheduler": "greedy",
        }
        # Key order too: the spec is stored and fingerprinted as JSON.
        assert list(validate_spec(FACTOR_SPEC).items()) == list(
            expected.items()
        )

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_optimize_spec_runs(self, scheduler):
        spec = validate_spec({**FACTOR_SPEC, "scheduler": scheduler})
        with trace_metrics.collecting() as reg:
            result = run_job_spec(spec, None)  # a kernel job needs none
        assert result["kind"] == "kernel"
        assert result["paradigm"] == "inf-s"
        assert result["total_cycles"] > 0
        counters = reg.snapshot().counters
        assert any(k.startswith("egraph.iterations") for k in counters)
        assert counters["engine.regions|paradigm=inf-s|workload=kernel"] == 1


# ----------------------------------------------------------------------
# Backoff scheduler
# ----------------------------------------------------------------------
class TestBackoffScheduler:
    def test_under_limit_never_bans(self):
        s = BackoffScheduler(1, match_limit=10, ban_length=2)
        for it in range(5):
            assert not s.record_matches(0, 10, it)
            assert not s.is_banned(0, it + 1)

    def test_exceeding_limit_bans_then_expires(self):
        s = BackoffScheduler(1, match_limit=10, ban_length=2)
        assert s.record_matches(0, 11, 0)  # banned for iterations 1..2
        assert s.is_banned(0, 1)
        assert s.is_banned(0, 2)
        assert not s.is_banned(0, 3)

    def test_repeat_offender_threshold_and_ban_double(self):
        s = BackoffScheduler(1, match_limit=10, ban_length=1)
        assert s.record_matches(0, 11, 0)  # banned for iteration 1
        # After one ban the threshold doubles: 11 matches no longer trips.
        assert not s.record_matches(0, 11, 2)
        assert s.record_matches(0, 21, 3)  # 2nd ban: length doubles to 2
        assert s.is_banned(0, 4)
        assert s.is_banned(0, 5)
        assert not s.is_banned(0, 6)

    def test_unban_all_clears_active_bans(self):
        s = BackoffScheduler(2, match_limit=1, ban_length=8)
        s.record_matches(0, 5, 0)
        s.record_matches(1, 5, 0)
        assert s.any_banned(1)
        s.unban_all()
        assert not s.any_banned(1)
        assert not s.is_banned(0, 1)

    def test_stall_unban_emits_trace_instant_and_metric(self):
        from repro.egraph.egraph import EGraph
        from repro.egraph.rewrites import default_rules
        from repro.egraph.saturate import _Saturation

        rules = default_rules({})
        sat = _Saturation(EGraph(), rules, 4, 20_000)
        s = BackoffScheduler(len(rules), match_limit=1, ban_length=8)
        s.record_matches(0, 5, 0)  # bench rule 0
        with trace_events.tracing() as tr, trace_metrics.collecting() as reg:
            sat._stall_unban(s, 1, "backoff")
        assert sat.unbans == 1
        assert not s.any_banned(1)
        unban_events = [
            e for e in tr.events if e.name == "egraph.scheduler.unban"
        ]
        assert unban_events, "no egraph.scheduler.unban instant emitted"
        assert rules[0].name in unban_events[0].args["rules"]
        assert unban_events[0].args["scheduler"] == "backoff"
        snap = reg.snapshot()
        assert any(
            k.startswith("egraph.scheduler.unbans") for k in snap.counters
        ), f"no egraph.scheduler.unbans counter in {snap.counters}"


# ----------------------------------------------------------------------
# Greedy scheduler
# ----------------------------------------------------------------------
class TestGreedyScheduler:
    def _rules(self):
        from repro.egraph.rewrites import default_rules

        return default_rules({})

    def test_priors_seed_rule_order(self):
        rules = self._rules()
        s = GreedyScheduler(rules)
        order = s.rule_order()
        priors = [rules[i].prior for i in order]
        assert priors == sorted(priors, reverse=True)

    def test_observed_benefit_overrides_prior(self):
        rules = self._rules()
        s = GreedyScheduler(rules)
        lowest = min(range(len(rules)), key=lambda i: rules[i].prior)
        # A rule with high observed benefit-per-node jumps the order.
        s.record_growth(lowest, matches=10, nodes_added=10)
        s.record_benefit(lowest, 500.0)
        for i in range(len(rules)):
            if i != lowest:
                s.record_growth(i, matches=10, nodes_added=10)
        assert s.rule_order()[0] == lowest

    def test_all_churn_rule_sorts_last(self):
        rules = self._rules()
        s = GreedyScheduler(rules)
        for i in range(len(rules)):
            s.record_growth(i, matches=10, nodes_added=10)
            if i != 0:
                s.record_benefit(i, 10.0)
        assert s.rule_order()[-1] == 0  # zero benefit: pure churn

    def test_deadline_triggers_on_low_headroom_or_growth(self):
        s = GreedyScheduler(self._rules(), deadline_fraction=0.25)
        assert not s.in_deadline(10_000, 20_000, prev_growth=100)
        assert s.in_deadline(4_000, 20_000, prev_growth=100)  # < 25%
        assert s.in_deadline(6_000, 20_000, prev_growth=7_000)  # < growth
        assert s.in_deadline(0, 20_000, prev_growth=0)

    def test_growth_cap_floor_and_half_headroom(self):
        s = GreedyScheduler(self._rules(), min_quota=256)
        assert s.growth_cap(10_000) == 5_000
        assert s.growth_cap(0) == 64  # min_quota // 4 floor

    def test_consolidation_rules_exclude_churn(self):
        rules = self._rules()
        s = GreedyScheduler(rules)
        names = {rules[i].name for i in s.consolidation_rules()}
        assert "assoc" not in names and "comm" not in names
        assert "cmp_shrink" in names and "mv_fuse" in names


# ----------------------------------------------------------------------
# Cross-strategy agreement on the workload kernels
# ----------------------------------------------------------------------
def _workload_tdfg(name, scale=0.02):
    w = suite.workload(name, scale=scale)
    kernel = w.program.instantiate(
        {k: int(v) for k, v in w.params.items()}, dataflow=w.dataflow
    )
    return kernel.first_region().tdfg


class TestStrategyAgreement:
    # Every repro.workloads kernel whose saturation fits tier-1 time
    # budgets; stencil2d/3d and conv2d are exercised (with the same
    # assertions) by benchmarks/bench_compile_time.py at bench scale.
    KERNELS = (
        "stencil1d", "dwt2d", "gauss_elim", "conv3d", "mm", "kmeans",
        "gather_mlp",
    )

    @pytest.mark.parametrize("name", KERNELS)
    def test_cost_identical_extraction(self, name):
        tdfg = _workload_tdfg(name)
        reports = {}
        for strategy in STRATEGIES:
            _, reports[strategy] = optimize_tdfg(
                tdfg, OptimizerConfig(max_iterations=6, strategy=strategy)
            )
        indexed, naive = reports["indexed"], reports["naive"]
        assert indexed.cost_before == naive.cost_before
        assert indexed.cost_after == naive.cost_after
        # Each either reached fixpoint or returned the input unchanged.
        for rep in reports.values():
            assert rep.saturated or rep.cost_after == rep.cost_before

    @pytest.mark.parametrize("name", KERNELS)
    def test_schedulers_agree_on_saturating_kernels(self, name):
        tdfg = _workload_tdfg(name)
        reports = {}
        for scheduler in SCHEDULERS:
            _, reports[scheduler] = optimize_tdfg(
                tdfg, OptimizerConfig(max_iterations=6, scheduler=scheduler)
            )
            assert reports[scheduler].scheduler == scheduler
        assert (
            reports["greedy"].cost_after == reports["backoff"].cost_after
        ), f"{name}: schedulers extracted different costs"

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_budget_truncated_kernel_improves_under_both(self, scheduler):
        # conv2d trips the node budget: frontiers (and costs) legitimately
        # diverge, but every strategy/scheduler must still improve.
        tdfg = _workload_tdfg("conv2d", scale=0.01)
        for strategy in STRATEGIES:
            _, rep = optimize_tdfg(
                tdfg,
                OptimizerConfig(
                    max_iterations=6, node_budget=2048,
                    strategy=strategy, scheduler=scheduler,
                ),
            )
            assert rep.cost_after <= rep.cost_before

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_budget_tripped_run_is_deterministic(self, scheduler):
        # Budget-exhausted exploration stops at a frontier that depends
        # on iteration order; insertion-ordered e-class node sets make
        # that order — and therefore the extraction — reproducible.
        tdfg = _workload_tdfg("conv2d", scale=0.01)
        reports = [
            optimize_tdfg(
                tdfg,
                OptimizerConfig(
                    max_iterations=6, node_budget=2048, scheduler=scheduler
                ),
            )[1]
            for _ in range(2)
        ]
        assert reports[0].budget_tripped_by is not None
        assert reports[0].cost_after == reports[1].cost_after
        assert reports[0].num_nodes == reports[1].num_nodes
        assert reports[0].num_classes == reports[1].num_classes


# ----------------------------------------------------------------------
# Report stats and metrics
# ----------------------------------------------------------------------
class TestReportStats:
    def test_rule_stats_and_phases_populated(self):
        config = OptimizerConfig(max_iterations=6)
        _, report = optimize_tdfg(_factor_tdfg(), config)
        by_name = {s.name: s for s in report.rule_stats}
        assert set(by_name) <= RULE_NAMES
        assert by_name["distrib"].matches > 0
        assert by_name["distrib"].applied > 0
        total_unions = sum(s.unions for s in report.rule_stats)
        assert total_unions > 0
        assert report.phases.match_seconds >= 0.0
        assert report.elapsed_seconds > 0.0

    def test_metrics_registry_sees_egraph_series(self):
        with trace_metrics.collecting() as reg:
            optimize_tdfg(_factor_tdfg(), OptimizerConfig(max_iterations=6))
        snap = reg.snapshot()
        assert any(k.startswith("egraph.iterations") for k in snap.counters)
        assert any(
            k.startswith("egraph.rule.matches") for k in snap.counters
        )
        assert any(
            k.startswith("egraph.saturate.seconds") for k in snap.counters
        ), f"missing egraph.saturate.seconds in {list(snap.counters)}"
        assert "egraph.nodes" in snap.dists

    def test_greedy_profile_populates_productive_and_benefit(self):
        config = OptimizerConfig(max_iterations=6)  # greedy is the default
        _, report = optimize_tdfg(_factor_tdfg(), config)
        assert report.scheduler == "greedy"
        assert sum(s.productive for s in report.rule_stats) > 0
        assert sum(s.benefit for s in report.rule_stats) > 0.0

    def test_backoff_report_carries_scheduler_name(self):
        config = OptimizerConfig(max_iterations=6, scheduler="backoff")
        _, report = optimize_tdfg(_factor_tdfg(), config)
        assert report.scheduler == "backoff"


# ----------------------------------------------------------------------
# The extractor's node-cost memo
# ----------------------------------------------------------------------
class TestNodeCostMemo:
    def test_domain_gain_reprices_parent_nodes(self):
        # P = {mul(c, c), add(k1, k2)} over constants: mul is the cheaper
        # witness while c has no domain (one wave).  A union then gives c
        # a 4096x4096 domain, four waves of the default system's
        # bitlines, so mul(c, c) costs four times as much and add(k1, k2)
        # wins.  No saturation run unions a constant with a tensor; this
        # is the one event that must clear the memo.
        eg = EGraph()
        params = CostParams()
        c, k1, k2 = (
            eg.add(("const", v, "fp32"), (), has_domain=False)
            for v in (2.0, 3.0, 4.0)
        )
        mul = add_term(eg, ("cmp", "mul"), (c, c))
        eg.union(mul, add_term(eg, ("cmp", "add"), (k1, k2)))
        eg.rebuild()
        ex = Extractor(eg, params)
        ex.refresh()
        assert ex.best[eg.find(mul)].label == ("cmp", "mul")

        bounds = ((0, 4096), (0, 4096))
        tensor = eg.add(
            ("tensor", "T", bounds, "fp32"), (),
            domain=Hyperrect.from_bounds(bounds),
        )
        eg.union(c, tensor)
        eg.rebuild()
        assert eg.domain_gains == 1
        ex.refresh()

        fresh = Extractor(eg, params)
        fresh.refresh()
        classes = eg.classes()
        assert {cid: ex.cost[cid] for cid in classes} == {
            cid: fresh.cost[cid] for cid in classes
        }
        assert {cid: ex.best[cid] for cid in classes} == {
            cid: fresh.best[cid] for cid in classes
        }
        assert ex.best[eg.find(mul)].label == ("cmp", "add")
