"""The equality-saturation driver: optimize a tDFG end to end.

Starting from the initial tDFG we repeatedly apply the equivalence rules,
maintaining equivalence classes, until saturation or until the iteration /
node budget is exhausted ("can be exhaustive or terminated early to
reduce compile time", §3.2).  Extraction picks the cheapest graph under
the architecture-informed cost model; if the extracted DAG is not
actually cheaper than the original (tree-cost extraction can be fooled by
sharing), the original is kept.

Two matching strategies share the rule set and extraction:

* ``"indexed"`` (default) — incremental e-matching.  Each rule keeps a
  *watermark* into the e-graph's touch log and rematches only classes
  touched since it last ran (widened by a two-hop parent closure to
  cover the deepest rule patterns), seeded through the per-kind class
  index.  Unions are batched with one deferred :meth:`rebuild` per
  iteration, and an egg-style backoff scheduler benches rules whose
  match counts explode (doubling their ban each time), un-benching
  everyone before saturation can be declared.
* ``"naive"`` — the textbook loop: every rule full-scans every e-node
  each iteration with a rebuild after each rule.  Kept as the reference
  the property tests cross-check cost-identical extraction against.

The indexed strategy runs under one of two *rule schedulers*:

* ``"greedy"`` (default) — cost-guided, budget-aware exploration.
  Rules are matched in descending expected-yield order (estimated
  extracted-cost drop per node of budget, profiled online and seeded
  from each rule's tuned ``prior``); union application is globally
  benefit-ordered using the :class:`Extractor`'s memoized per-class
  costs; and when node-budget headroom runs low the driver enters
  *deadline mode*, capping per-rule matches so the last nodes admitted
  come from the highest-yield rules rather than exploration churn.
* ``"backoff"`` — the plain egg scheme above, kept for comparison and
  as the reference for scheduler-independence tests.

Per-rule match/apply/union counters, the productive-match profile
(matches whose union lowered the extracted cost vs. churn), and phase
timings land in the :class:`OptimizationReport` and, when enabled, in
:mod:`repro.trace` metrics under ``egraph.*``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import OptimizationError
from repro.geometry.hyperrect import Hyperrect
from repro.ir.nodes import Node, StreamNode
from repro.ir.tdfg import TensorDFG
from repro.trace import events as trace_events
from repro.trace import metrics as trace_metrics
from repro.trace.events import Category

from repro.egraph.cost import CostParams
from repro.egraph.egraph import EGraph
from repro.egraph.extract import Extractor, dag_cost
from repro.egraph.lang import add_node, build_node
from repro.egraph.rewrites import Rule, default_rules

STRATEGIES = ("indexed", "naive")
SCHEDULERS = ("greedy", "backoff")

#: the floors :class:`OptimizerConfig` enforces on its budgets
MIN_ITERATIONS = 1
MIN_NODE_BUDGET = 64


@dataclass(frozen=True)
class RuleStats:
    """What one rule did across the whole saturation run."""

    name: str
    matches: int = 0  # candidate pairs found by the matcher
    applied: int = 0  # pairs handed to union()
    unions: int = 0  # effective merges (version delta)
    bans: int = 0  # times the backoff scheduler benched the rule
    seconds: float = 0.0
    # Productive-match profile (greedy scheduler only; zero elsewhere):
    # a match is *productive* when its union was estimated to lower the
    # extracted cost of the kept class; everything else is churn.
    productive: int = 0
    churn: int = 0
    benefit: float = 0.0  # summed estimated cost drop of effective unions


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-clock split of one optimize_tdfg call."""

    match_seconds: float = 0.0
    apply_seconds: float = 0.0
    rebuild_seconds: float = 0.0
    extract_seconds: float = 0.0


@dataclass(frozen=True)
class OptimizationReport:
    """What the optimizer did, for logs and the JIT-overhead model."""

    iterations: int
    saturated: bool
    num_classes: int
    num_nodes: int
    cost_before: float
    cost_after: float
    elapsed_seconds: float
    strategy: str = "indexed"
    #: rule scheduler the indexed strategy ran under ("greedy"/"backoff")
    scheduler: str = "greedy"
    #: rule whose unions pushed past node_budget (None = budget held)
    budget_tripped_by: str | None = None
    #: iterations spent in budget-deadline mode (per-rule match caps on)
    deadline_iterations: int = 0
    #: stall-unban rounds (all bans cleared to re-check saturation)
    unbans: int = 0
    rule_stats: tuple[RuleStats, ...] = ()
    phases: PhaseTimings = field(default_factory=PhaseTimings)

    @property
    def improvement(self) -> float:
        if self.cost_before <= 0:
            return 1.0
        return self.cost_after / self.cost_before


@dataclass(frozen=True)
class OptimizerConfig:
    """The optimizer's settings, checked when built.

    ``max_iterations`` and ``node_budget`` end saturation early;
    ``strategy`` picks incremental (``indexed``) or reference (``naive``)
    e-matching and ``scheduler`` the indexed strategy's rule scheduler
    (``greedy`` or ``backoff``; see the module docstring).  Every layer
    that can run the optimizer carries one, ``None`` where it is off.
    Bad values raise :class:`~repro.errors.OptimizationError` naming
    each one, the text the CLI (exit 1) and serve (``JobSpecError``)
    print.
    """

    max_iterations: int = 4
    node_budget: int = 20_000
    strategy: str = "indexed"
    scheduler: str = "greedy"

    def __post_init__(self) -> None:
        problems = []
        iters, budget = self.max_iterations, self.node_budget
        if not isinstance(iters, int) or isinstance(iters, bool):
            problems.append(f"max_iterations must be an integer, got {iters!r}")
        elif iters < MIN_ITERATIONS:
            problems.append(
                f"max_iterations must be >= {MIN_ITERATIONS}, got {iters}"
            )
        if not isinstance(budget, int) or isinstance(budget, bool):
            problems.append(f"node_budget must be an integer, got {budget!r}")
        elif budget < MIN_NODE_BUDGET:
            problems.append(
                f"node_budget must be >= {MIN_NODE_BUDGET}, got {budget}"
            )
        if self.strategy not in STRATEGIES:
            problems.append(
                f"strategy must be one of {', '.join(STRATEGIES)}, "
                f"got {self.strategy!r}"
            )
        if self.scheduler not in SCHEDULERS:
            problems.append(
                f"scheduler must be one of {', '.join(SCHEDULERS)}, "
                f"got {self.scheduler!r}"
            )
        if problems:
            raise OptimizationError("; ".join(problems))


# ----------------------------------------------------------------------
# Backoff rule scheduling (the egg BackoffScheduler scheme)
# ----------------------------------------------------------------------
class BackoffScheduler:
    """Bench rules whose match counts explode, with exponential backoff.

    A rule exceeding ``match_limit * 2**times_banned`` matches in one
    round is banned for ``ban_length * 2**times_banned`` iterations.
    Banned rules keep their watermark, so on un-benching they rematch
    everything they missed.  Saturation must not be declared while any
    rule is benched — the driver un-bans everyone and re-checks.
    """

    def __init__(
        self, n_rules: int, match_limit: int = 1_000, ban_length: int = 2
    ) -> None:
        self.match_limit = match_limit
        self.ban_length = ban_length
        self.banned_until = [0] * n_rules
        self.times_banned = [0] * n_rules

    def is_banned(self, i: int, iteration: int) -> bool:
        return iteration < self.banned_until[i]

    def any_banned(self, iteration: int) -> bool:
        return any(iteration < b for b in self.banned_until)

    def record_matches(self, i: int, n: int, iteration: int) -> bool:
        """Record a rule's round match count; True if it just got benched."""
        if n > self.match_limit * (2 ** self.times_banned[i]):
            length = self.ban_length * (2 ** self.times_banned[i])
            self.banned_until[i] = iteration + 1 + length
            self.times_banned[i] += 1
            return True
        return False

    def unban_all(self) -> None:
        self.banned_until = [0] * len(self.banned_until)


# ----------------------------------------------------------------------
# Cost-guided rule scheduling (greedy-by-estimated-benefit)
# ----------------------------------------------------------------------
class GreedyScheduler(BackoffScheduler):
    """Cost-guided, budget-aware rule scheduling.

    Keeps the egg-style backoff ban machinery and adds a per-rule
    *benefit profile*: how much estimated extracted-cost drop each
    rule's effective unions produced, how many matches it found, and how
    many e-graph nodes its matching materialized.  The driver uses the
    profile three ways:

    * :meth:`rule_order` — rules match in descending expected yield
      (benefit per node of budget), seeded from ``Rule.prior`` until a
      rule has observed data, so high-yield structural rules spend the
      node budget before exploration churn does;
    * :meth:`in_deadline` — when the remaining node-budget headroom is
      smaller than the deadline fraction of the budget (or than the
      previous iteration's growth, whichever is larger) the run enters
      *deadline mode*;
    * :meth:`growth_cap` — inside deadline mode each rule's matching is
      bounded to half the remaining headroom, so the final nodes
      admitted are spread across the top of the yield order instead of
      consumed by the first rule to run.  Outside deadline mode rules
      match in full and the budget stays what it has always been in
      this engine: a trip-wire checked after each rule, not a hard
      ceiling mid-match (the naive reference overshoots the same way;
      capping mid-match measurably starves the winning structure).
    """

    def __init__(
        self,
        rules: list[Rule],
        match_limit: int = 1_000,
        ban_length: int = 2,
        deadline_fraction: float = 0.25,
        min_quota: int = 256,
    ) -> None:
        super().__init__(len(rules), match_limit, ban_length)
        self.priors = [r.prior for r in rules]
        self.deadline_fraction = deadline_fraction
        self.min_quota = min_quota
        n = len(rules)
        self.matched = [0] * n
        self.growth = [0] * n
        self.benefit = [0.0] * n
        self.productive = [0] * n

    # -- profile updates ------------------------------------------------
    def record_growth(self, i: int, matches: int, nodes_added: int) -> None:
        self.matched[i] += matches
        self.growth[i] += max(0, nodes_added)

    def record_benefit(self, i: int, benefit: float) -> None:
        """An effective union estimated to drop extracted cost by *benefit*."""
        if benefit > 0.0:
            self.benefit[i] += benefit
            self.productive[i] += 1

    # -- scheduling decisions -------------------------------------------
    def priority(self, i: int) -> float:
        """Expected extracted-cost drop per admitted e-graph node."""
        if self.matched[i] == 0:
            return self.priors[i]
        observed = self.benefit[i] / max(1.0, float(self.growth[i]))
        # The prior only tiebreaks once real data exists (all-churn rules
        # collapse to ~0 and sort last, highest prior first among them).
        return observed + 1e-3 * self.priors[i]

    def rule_order(self) -> list[int]:
        n = len(self.priors)
        return sorted(range(n), key=lambda i: (-self.priority(i), i))

    def in_deadline(
        self, headroom: int, node_budget: int, prev_growth: int
    ) -> bool:
        if headroom <= 0:
            return True
        return headroom < max(
            node_budget * self.deadline_fraction, float(prev_growth)
        )

    def growth_cap(self, headroom: int) -> int:
        """Deadline-mode node bound for one rule's matching round."""
        return max(self.min_quota // 4, headroom // 2)

    def consolidation_rules(self) -> list[int]:
        """Yield-ordered rules worth running after the budget trips.

        Post-trip sweeps only help if a rewrite lowers the cost of
        terms that already exist; associativity/commutativity churn
        (prior <= 1) can only reshuffle — and a single flooded class
        can hold thousands of e-nodes, so rematching churn rules there
        explodes the graph long after the budget is spent.
        """
        return [i for i in self.rule_order() if self.priors[i] > 1.0]


# ----------------------------------------------------------------------
# Mutable per-run accounting (frozen into RuleStats for the report)
# ----------------------------------------------------------------------
class _RuleCounters:
    __slots__ = (
        "name", "matches", "applied", "unions", "bans", "seconds",
        "productive", "churn", "benefit",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.matches = 0
        self.applied = 0
        self.unions = 0
        self.bans = 0
        self.seconds = 0.0
        self.productive = 0
        self.churn = 0
        self.benefit = 0.0

    def freeze(self) -> RuleStats:
        return RuleStats(
            name=self.name,
            matches=self.matches,
            applied=self.applied,
            unions=self.unions,
            bans=self.bans,
            seconds=self.seconds,
            productive=self.productive,
            churn=self.churn,
            benefit=self.benefit,
        )


class _Saturation:
    """One saturation run: the loop state shared by both strategies."""

    def __init__(
        self,
        eg: EGraph,
        rules: list[Rule],
        max_iterations: int,
        node_budget: int,
    ) -> None:
        self.eg = eg
        self.rules = rules
        self.max_iterations = max_iterations
        self.node_budget = node_budget
        self.counters = [_RuleCounters(r.name) for r in rules]
        self.iterations = 0
        self.saturated = False
        self.budget_tripped_by: str | None = None
        self.deadline_iterations = 0
        self.unbans = 0
        self.match_seconds = 0.0
        self.apply_seconds = 0.0
        self.rebuild_seconds = 0.0
        self.extract_seconds = 0.0  # mid-run Extractor refreshes (greedy)

    # ------------------------------------------------------------------
    def _apply(self, i: int, matches: list[tuple[int, int]]) -> None:
        """Union the full match list (budget is checked *after* a rule)."""
        eg = self.eg
        ctr = self.counters[i]
        t0 = time.perf_counter()
        v0 = eg.version
        for a, b in matches:
            ctr.applied += 1
            eg.union(a, b)
        ctr.unions += eg.version - v0
        self.apply_seconds += time.perf_counter() - t0

    def _rebuild(self, full: bool = False) -> None:
        t0 = time.perf_counter()
        if full:
            self.eg.full_rebuild()
        else:
            self.eg.rebuild()
        self.rebuild_seconds += time.perf_counter() - t0

    def _budget_event(self) -> None:
        tracer = trace_events.TRACER
        if tracer is not None:
            tracer.instant(
                "egraph.node_budget_exhausted",
                Category.EGRAPH,
                track="jit",
                rule=self.budget_tripped_by,
                nodes=self.eg.num_nodes,
                budget=self.node_budget,
            )

    def _stall_unban(
        self, scheduler: BackoffScheduler, it: int, scheduler_name: str
    ) -> None:
        """Clear all bans on a stalled round, visibly.

        Scheduler thrash used to be silent; now every stall-unban emits
        a trace instant naming the benched rules plus an
        ``egraph.scheduler.unbans`` metric, so ``repro trace`` output
        shows why saturation took extra rounds.
        """
        benched = [
            self.rules[i].name
            for i in range(len(self.rules))
            if scheduler.is_banned(i, it)
        ]
        scheduler.unban_all()
        self.unbans += 1
        tracer = trace_events.TRACER
        if tracer is not None:
            tracer.instant(
                "egraph.scheduler.unban",
                Category.EGRAPH,
                track="jit",
                iteration=self.iterations,
                rules=",".join(benched),
                scheduler=scheduler_name,
            )
        reg = trace_metrics.REGISTRY
        if reg is not None:
            reg.add(
                "egraph.scheduler.unbans", 1.0, scheduler=scheduler_name
            )

    # ------------------------------------------------------------------
    def run_naive(self) -> None:
        """The textbook loop: full scans, full rebuild after every rule."""
        eg = self.eg
        for _ in range(self.max_iterations):
            self.iterations += 1
            before_version = eg.version
            before_nodes = eg.num_nodes
            for i, rule in enumerate(self.rules):
                t0 = time.perf_counter()
                matches = rule(eg)
                self.counters[i].matches += len(matches)
                dt = time.perf_counter() - t0
                self.match_seconds += dt
                self.counters[i].seconds += dt
                t1 = time.perf_counter()
                self._apply(i, matches)
                self._rebuild(full=True)
                self.counters[i].seconds += time.perf_counter() - t1
                if eg.num_nodes > self.node_budget:
                    self.budget_tripped_by = rule.name
                    break
            if self.budget_tripped_by is not None:
                self._budget_event()
                return
            if eg.version == before_version and eg.num_nodes == before_nodes:
                self.saturated = True
                return

    # ------------------------------------------------------------------
    def _candidates(self, rule: Rule, watermark: int) -> set[int]:
        """Classes worth rematching for one rule."""
        eg = self.eg
        kinded: set[int] = set()
        for kind in rule.kinds:
            kinded |= eg.classes_with_kind(kind)
        if watermark < 0:
            return kinded  # first run: every class that can seed the rule
        dirty = eg.dirty_closure(eg.touched_since(watermark))
        return dirty & kinded

    def run_indexed(self, scheduler: BackoffScheduler) -> None:
        """Incremental matching with deferred rebuilds and backoff."""
        eg = self.eg
        watermarks = [-1] * len(self.rules)
        for it in range(self.max_iterations):
            self.iterations += 1
            before_version = eg.version
            before_nodes = eg.num_nodes
            for i, rule in enumerate(self.rules):
                if scheduler.is_banned(i, it):
                    continue
                t0 = time.perf_counter()
                tick0 = eg.tick
                matches: list[tuple[int, int]] = []
                for cid in self._candidates(rule, watermarks[i]):
                    matches.extend(rule.match_class(eg, cid))
                # Watermark sits *before* this round's matching, so the
                # rule re-sees classes its own unions touch.
                watermarks[i] = tick0
                self.counters[i].matches += len(matches)
                dt = time.perf_counter() - t0
                self.match_seconds += dt
                self.counters[i].seconds += dt
                if scheduler.record_matches(i, len(matches), it):
                    self.counters[i].bans += 1
                t1 = time.perf_counter()
                self._apply(i, matches)
                self.counters[i].seconds += time.perf_counter() - t1
                if eg.num_nodes > self.node_budget:
                    self.budget_tripped_by = rule.name
                    break
            # One deferred rebuild per iteration (congruence repair is
            # proportional to the merged classes' parent lists).
            self._rebuild()
            if (
                self.budget_tripped_by is None
                and eg.num_nodes > self.node_budget
            ):
                self.budget_tripped_by = "rebuild"
            if self.budget_tripped_by is not None:
                self._budget_event()
                return
            if eg.version == before_version and eg.num_nodes == before_nodes:
                if scheduler.any_banned(it + 1):
                    # Stalled with benched rules: give them one more shot
                    # before concluding anything about saturation.
                    self._stall_unban(scheduler, it + 1, "backoff")
                    continue
                self.saturated = True
                return

    # ------------------------------------------------------------------
    def run_greedy(
        self, scheduler: GreedyScheduler, extractor, roots: list[int]
    ) -> None:
        """Cost-guided incremental matching (the default scheduler).

        Same incremental machinery as :meth:`run_indexed` (watermarks,
        kind-index candidates, deferred rebuilds, backoff bans) with
        three changes: rules match in expected-yield order, union
        application is globally benefit-ordered against the extractor's
        memoized per-class costs, and when node-budget headroom runs
        low the run enters *deadline mode*, bounding each rule's node
        growth so the final admissions are spread across the top of the
        yield order instead of flooded by one rule.  A growth-truncated
        rule keeps its watermark so the skipped candidates are re-seen
        next round.
        """
        eg = self.eg
        watermarks = [-1] * len(self.rules)
        prev_growth = 0
        last_capped: str | None = None
        for it in range(self.max_iterations):
            self.iterations += 1
            before_version = eg.version
            before_nodes = eg.num_nodes
            headroom = self.node_budget - before_nodes
            deadline = scheduler.in_deadline(
                headroom, self.node_budget, prev_growth
            )
            if deadline:
                self.deadline_iterations += 1
            capped = False
            for i in scheduler.rule_order():
                if scheduler.is_banned(i, it):
                    continue
                rule = self.rules[i]
                cap = (
                    scheduler.growth_cap(self.node_budget - eg.num_nodes)
                    if deadline
                    else None
                )
                matches, truncated = self._match_capped(
                    i, scheduler, extractor, watermarks, cap
                )
                if truncated:
                    capped = True
                    last_capped = rule.name
                if scheduler.record_matches(i, len(matches), it):
                    self.counters[i].bans += 1
                t1 = time.perf_counter()
                self._apply_batch_by_benefit(i, matches, extractor, scheduler)
                self.counters[i].seconds += time.perf_counter() - t1
                if eg.num_nodes > self.node_budget:
                    self.budget_tripped_by = rule.name
                    break
            self._rebuild()
            if (
                self.budget_tripped_by is None
                and eg.num_nodes > self.node_budget
            ):
                self.budget_tripped_by = "rebuild"
            if self.budget_tripped_by is not None:
                self._consolidate(scheduler, extractor, roots)
                self._budget_event()
                return
            prev_growth = eg.num_nodes - before_nodes
            if eg.version == before_version and eg.num_nodes == before_nodes:
                if scheduler.any_banned(it + 1):
                    self._stall_unban(scheduler, it + 1, "greedy")
                    continue
                if capped:
                    # A truncated rule still holds unmatched candidates:
                    # never declare saturation past a growth cap.
                    continue
                self.saturated = True
                return
        # Deadline caps can stop growth *at* the budget instead of
        # overshooting it; report exhaustion when the run ended within
        # one quota of the ceiling without saturating.
        if (
            not self.saturated
            and self.budget_tripped_by is None
            and self.node_budget - eg.num_nodes <= scheduler.min_quota
        ):
            self.budget_tripped_by = last_capped or "deadline"
            self._budget_event()

    def _match_capped(
        self,
        i: int,
        scheduler: GreedyScheduler,
        extractor,
        watermarks: list[int],
        cap: int | None,
        max_candidates: int | None = None,
    ) -> tuple[list[tuple[int, int]], bool]:
        """Match one rule, optionally growth-capped; updates profile and
        counters.  A truncated rule keeps its watermark so the skipped
        candidates are re-seen next round.

        Candidate classes are visited most-expensive first (memoized
        tree cost, id tiebreak): under a growth cap the classes with
        the most cost to shed get matched before truncation, and the
        explicit sort keys keep exploration identical across runs and
        hash seeds.
        """
        eg = self.eg
        rule = self.rules[i]
        t0 = time.perf_counter()
        tick0 = eg.tick
        nodes0 = eg.num_nodes
        matches: list[tuple[int, int]] = []
        truncated = False
        if cap is not None or max_candidates is not None:
            # Only pay for the cost sort when something will truncate:
            # with no cap every candidate gets matched anyway, and the
            # union order is handled separately (benefit sort).
            cand = sorted(
                self._candidates(rule, watermarks[i]),
                key=lambda c: (-extractor.class_cost(c), c),
            )
        else:
            cand = sorted(self._candidates(rule, watermarks[i]))
        if max_candidates is not None and len(cand) > max_candidates:
            cand = cand[:max_candidates]
            truncated = True
        for cid in cand:
            matches.extend(rule.match_class(eg, cid))
            if cap is not None and eg.num_nodes - nodes0 >= cap:
                truncated = True
                break
        if not truncated:
            watermarks[i] = tick0
        scheduler.record_growth(i, len(matches), eg.num_nodes - nodes0)
        self.counters[i].matches += len(matches)
        dt = time.perf_counter() - t0
        self.match_seconds += dt
        self.counters[i].seconds += dt
        return matches, truncated

    def _consolidate(
        self,
        scheduler: GreedyScheduler,
        extractor,
        roots: list[int],
        sweeps: int = 2,
    ) -> None:
        """Post-trip deadline sweeps targeted at the extraction DAG.

        A budget trip ends exploration mid-iteration, silently starving
        every rule scheduled after the one that flooded.  At this point
        only rewrites that lower the cost of the *chosen* graph can
        still matter, so instead of stopping dead, run a few passes
        with candidates restricted to the classes the current best
        extraction selects plus the ancestor closure of its *interior*
        classes — a few hundred classes instead of the whole graph
        (leaves are kept but not expanded: an array-ref class is a
        child of half the graph) — under tight growth caps.  Only the
        structural shrink/fusion rules run
        (:meth:`GreedyScheduler.consolidation_rules`): their matches
        mostly consolidate terms the churn already built, so this is
        where they catch up with the rule that spent the budget.  The
        growth cap is enforced *before* each class and flooded classes
        (more e-nodes than the cap) are skipped outright — one
        ``match_class`` call on such a class can materialize thousands
        of nodes with no way to stop it mid-flight.
        """
        eg = self.eg
        for _ in range(sweeps):
            self.deadline_iterations += 1
            self.iterations += 1
            before_version = eg.version
            before_nodes = eg.num_nodes
            t0 = time.perf_counter()
            extractor.refresh()
            self.extract_seconds += time.perf_counter() - t0
            selected: set[int] = set()
            interior: set[int] = set()
            stack = [eg.find(r) for r in roots]
            while stack:
                cid = stack.pop()
                if cid in selected:
                    continue
                best = extractor.best.get(cid)
                if best is None:
                    continue
                selected.add(cid)
                if best.children:
                    interior.add(cid)
                stack.extend(eg.find(c) for c in best.children)
            relevant = selected | eg.dirty_closure(interior)
            for i in scheduler.consolidation_rules():
                rule = self.rules[i]
                t0 = time.perf_counter()
                nodes0 = eg.num_nodes
                cap = scheduler.growth_cap(0)
                kinded: set[int] = set()
                for kind in rule.kinds:
                    kinded |= eg.classes_with_kind(kind)
                matches: list[tuple[int, int]] = []
                cand = sorted(
                    kinded & relevant,
                    key=lambda c: (-extractor.class_cost(c), c),
                )
                for cid in cand:
                    if eg.num_nodes - nodes0 >= cap:
                        break
                    if len(eg.nodes(cid)) > cap:
                        continue
                    matches.extend(rule.match_class(eg, cid))
                scheduler.record_growth(i, len(matches), eg.num_nodes - nodes0)
                self.counters[i].matches += len(matches)
                dt = time.perf_counter() - t0
                self.match_seconds += dt
                self.counters[i].seconds += dt
                t1 = time.perf_counter()
                self._apply_batch_by_benefit(i, matches, extractor, scheduler)
                self.counters[i].seconds += time.perf_counter() - t1
            self._rebuild()
            if eg.version == before_version and eg.num_nodes == before_nodes:
                break

    def _apply_batch_by_benefit(
        self,
        i: int,
        matches: list[tuple[int, int]],
        extractor,
        scheduler: GreedyScheduler,
    ) -> None:
        """Apply one rule's unions in descending estimated benefit.

        Benefit of ``union(a, b)`` is the memoized tree-cost drop
        ``cost(a) - cost(b)`` — positive when the rewrite's right-hand
        side is cheaper than the class it joins.  The extractor refresh
        is incremental (it covers exactly the terms this batch just
        materialized plus upward cost propagation from earlier unions)
        and doubles as the profile update feeding the scheduler's rule
        order and deadline caps.
        """
        if not matches:
            return
        eg = self.eg
        t0 = time.perf_counter()
        extractor.refresh()
        self.extract_seconds += time.perf_counter() - t0
        t0 = time.perf_counter()
        scored: list[tuple[float, int, int]] = []
        for a, b in matches:
            ca = extractor.class_cost(a)
            cb = extractor.class_cost(b)
            if cb == float("inf"):
                benefit = 0.0
            elif ca == float("inf"):
                benefit = cb  # makes the class extractable at all
            else:
                benefit = ca - cb
            scored.append((benefit, a, b))
        scored.sort(key=lambda t: (-t[0], t[1], t[2]))
        ctr = self.counters[i]
        for benefit, a, b in scored:
            ctr.applied += 1
            v0 = eg.version
            eg.union(a, b)
            effective = eg.version != v0
            ctr.unions += 1 if effective else 0
            if benefit > 0.0:
                ctr.productive += 1
                if effective:
                    ctr.benefit += benefit
                    scheduler.record_benefit(i, benefit)
            else:
                ctr.churn += 1
        self.apply_seconds += time.perf_counter() - t0


def _emit_metrics(
    sat: _Saturation, report: "OptimizationReport"
) -> None:
    reg = trace_metrics.REGISTRY
    if reg is None:
        return
    s = report.strategy
    reg.add("egraph.saturate.seconds", report.elapsed_seconds, strategy=s)
    reg.add("egraph.iterations", report.iterations, strategy=s)
    reg.add(
        "egraph.phase.seconds", report.phases.match_seconds,
        phase="match", strategy=s,
    )
    reg.add(
        "egraph.phase.seconds", report.phases.apply_seconds,
        phase="apply", strategy=s,
    )
    reg.add(
        "egraph.phase.seconds", report.phases.rebuild_seconds,
        phase="rebuild", strategy=s,
    )
    reg.add(
        "egraph.phase.seconds", report.phases.extract_seconds,
        phase="extract", strategy=s,
    )
    for rs in report.rule_stats:
        reg.add("egraph.rule.matches", rs.matches, rule=rs.name)
        reg.add("egraph.rule.applied", rs.applied, rule=rs.name)
        reg.add("egraph.rule.unions", rs.unions, rule=rs.name)
        if rs.bans:
            reg.add("egraph.rule.bans", rs.bans, rule=rs.name)
        if rs.productive:
            reg.add("egraph.rule.productive", rs.productive, rule=rs.name)
            reg.add("egraph.rule.benefit", rs.benefit, rule=rs.name)
        if rs.churn:
            reg.add("egraph.rule.churn", rs.churn, rule=rs.name)
    reg.observe("egraph.nodes", report.num_nodes)
    reg.observe("egraph.classes", report.num_classes)
    if report.deadline_iterations:
        reg.add(
            "egraph.deadline_iterations",
            report.deadline_iterations,
            scheduler=report.scheduler,
        )
    if report.budget_tripped_by is not None:
        reg.add(
            "egraph.budget_exhausted", 1.0, rule=report.budget_tripped_by
        )


def optimize_tdfg(
    tdfg: TensorDFG,
    config: OptimizerConfig = OptimizerConfig(),
    params: CostParams | None = None,
) -> tuple[TensorDFG, OptimizationReport]:
    """Optimize a tDFG with equality saturation; returns (tdfg, report).

    The input is not modified; the result shares immutable nodes where
    extraction kept them.  *config* sets the budgets, the e-matching
    strategy (both extract cost-identical results) and the rule
    scheduler.
    """
    strategy, scheduler = config.strategy, config.scheduler
    params = params or CostParams(
        dtype=next(iter(tdfg.arrays.values())).elem_type if tdfg.arrays
        else CostParams().dtype
    )
    start = time.perf_counter()
    eg = EGraph()
    cache: dict[int, int] = {}
    root_ids: list[int] = []
    for binding in tdfg.results:
        root_ids.append(add_node(eg, binding.node, cache))
    for stream in tdfg.scalar_results:
        root_ids.append(add_node(eg, stream, cache))

    array_domains: dict[str, Hyperrect] = {
        name: decl.domain for name, decl in tdfg.arrays.items()
    }
    rules = default_rules(array_domains)

    extractor = Extractor(eg, params)
    t_extract = time.perf_counter()
    extractor.refresh()
    cost_before = dag_cost(eg, extractor.best, root_ids, params)
    extract_seconds = time.perf_counter() - t_extract

    sat = _Saturation(eg, rules, config.max_iterations, config.node_budget)
    if strategy == "naive":
        sat.run_naive()
    elif scheduler == "greedy":
        sat.run_greedy(GreedyScheduler(rules), extractor, root_ids)
    else:
        sat.run_indexed(BackoffScheduler(len(rules)))

    t_extract = time.perf_counter()
    if strategy == "naive":
        # The reference restarts extraction from scratch, as the seed
        # implementation did; the indexed path reuses the baseline
        # extractor's memoized per-class costs via the touch log.
        extractor = Extractor(eg, params)
    extractor.refresh()
    extractor.ensure_acyclic(root_ids)
    best = extractor.best
    cost_after = extractor.refine_sharing(root_ids)
    if cost_after == float("inf"):
        # No finite selection: dag_cost raises naming the class.
        cost_after = dag_cost(eg, best, root_ids, params)
    extract_seconds += time.perf_counter() - t_extract

    def make_report(cost_after_final: float) -> OptimizationReport:
        report = OptimizationReport(
            iterations=sat.iterations,
            saturated=sat.saturated,
            num_classes=len(eg.classes()),
            num_nodes=eg.num_nodes,
            cost_before=cost_before,
            cost_after=cost_after_final,
            elapsed_seconds=time.perf_counter() - start,
            strategy=strategy,
            scheduler=scheduler,
            budget_tripped_by=sat.budget_tripped_by,
            deadline_iterations=sat.deadline_iterations,
            unbans=sat.unbans,
            rule_stats=tuple(c.freeze() for c in sat.counters),
            phases=PhaseTimings(
                match_seconds=sat.match_seconds,
                apply_seconds=sat.apply_seconds,
                rebuild_seconds=sat.rebuild_seconds,
                extract_seconds=extract_seconds + sat.extract_seconds,
            ),
        )
        _emit_metrics(sat, report)
        return report

    if cost_after >= cost_before:
        return tdfg, make_report(cost_before)

    # Rebuild the tDFG around the extracted nodes.
    node_cache: dict[int, Node] = {}
    out = TensorDFG(name=tdfg.name)
    for decl in tdfg.arrays.values():
        out.declare(decl)
    idx = 0
    for binding in tdfg.results:
        new_node = build_node(eg, best, root_ids[idx], node_cache)
        out.bind(binding.array, binding.region, new_node)
        idx += 1
    for _stream in tdfg.scalar_results:
        new_node = build_node(eg, best, root_ids[idx], node_cache)
        assert isinstance(new_node, StreamNode)
        out.scalar_results.append(new_node)
        idx += 1
    out.hints = tdfg.hints
    out.sdfg = tdfg.sdfg
    out.params = dict(tdfg.params)
    return out, make_report(cost_after)
