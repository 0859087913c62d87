"""E-graph based tDFG optimization (paper Appendix).

The optimizer searches the space of equivalent tDFGs using equality
saturation: the e-graph compactly represents all re-writes reachable via
the equivalence rules (Eq. 3–9 plus tensor expansion and move fusion),
and an architecture-informed cost model extracts the cheapest graph.

Two tDFG nodes are *equivalent* iff they produce the same result over the
same lattice domain, so every e-class carries a domain analysis value that
rewrites must preserve.
"""

from repro.egraph.egraph import EGraph, ENode
from repro.egraph.saturate import (
    SCHEDULERS,
    STRATEGIES,
    BackoffScheduler,
    GreedyScheduler,
    OptimizationReport,
    OptimizerConfig,
    PhaseTimings,
    RuleStats,
    optimize_tdfg,
)

__all__ = [
    "EGraph",
    "ENode",
    "optimize_tdfg",
    "OptimizationReport",
    "OptimizerConfig",
    "PhaseTimings",
    "RuleStats",
    "BackoffScheduler",
    "GreedyScheduler",
    "SCHEDULERS",
    "STRATEGIES",
]
