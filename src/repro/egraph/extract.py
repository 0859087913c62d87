"""Cost-based extraction from a saturated e-graph.

A bottom-up pass computes, per e-class, the cheapest representative node
under tree-cost semantics; the final DAG is then hash-consed, so
subexpressions selected in multiple places are shared — which is exactly
the compute-reuse benefit the optimization targets (Fig 6).  We
additionally report the *DAG cost* (each selected class counted once) so
the driver can verify extraction actually improved on the original graph.

The :class:`Extractor` is *incremental*: it memoizes per-node costs and
per-class best choices, and a :meth:`~Extractor.refresh` after more
saturation recomputes only classes touched since the previous pass (via
the e-graph's touch log), propagating cost changes upward along parent
lists instead of re-running the global fixpoint.  A node's cost depends
only on its label and its children's domains, so the node-cost memo
lasts the whole run; only a union that gives a domain to a class that
had none (``EGraph.domain_gains``) clears it.  The saturation driver
keeps one extractor alive across the run, so the post-saturation
extraction reuses everything computed for the pre-saturation baseline.
"""

from __future__ import annotations

import math

from repro.errors import OptimizationError

from repro.egraph.cost import CostParams, node_cost
from repro.egraph.egraph import EGraph, ENode

#: tolerance for treating a recomputed class cost as "changed"
_EPS = 1e-9


class Extractor:
    """Incremental cheapest-node-per-class extraction.

    ``best`` / ``cost`` are keyed by the class id that was canonical at
    the time of the last refresh; always look up through ``eg.find``.
    Stale keys from merged-away classes may linger — they are never read
    through a canonical lookup.
    """

    def __init__(self, eg: EGraph, params: CostParams) -> None:
        self.eg = eg
        self.params = params
        self.best: dict[int, ENode] = {}
        self.cost: dict[int, float] = {}
        self._node_cost: dict[ENode, float] = {}
        self._tick = -1  # e-graph tick covered by the last refresh
        self._domain_gains = eg.domain_gains  # as of the node-cost memo

    # ------------------------------------------------------------------
    def _ncost(self, node: ENode) -> float:
        c = self._node_cost.get(node)
        if c is None:
            c = self._node_cost[node] = node_cost(self.eg, node, self.params)
        return c

    def _node_total(self, node: ENode) -> float:
        total = self._ncost(node)
        for child in node.children:
            c = self.cost.get(self.eg.find(child), math.inf)
            if c == math.inf:
                return math.inf
            total += c
        return total

    def _recompute(self, cid: int) -> float:
        """Cheapest feasible node of one canonical class (``inf`` if none).

        The previously chosen node is evaluated first and only displaced
        by a *strictly* cheaper one: a class's first witness is acyclic
        (its children were costed before it), and keeping it on ties is
        what stops a zero-cost cycle (e.g. mutually-shrinking classes)
        from ever entering the extraction — the same guarantee the
        classic monotone fixpoint gets from its strict-decrease update.
        """
        eg = self.eg
        nodes = eg.nodes(cid)
        best_node: ENode | None = None
        best_cost = math.inf
        prev = self.best.get(cid)
        if prev is not None:
            prev = prev.canonicalize(eg.find)
            if prev in nodes:
                best_cost = self._node_total(prev)
                if best_cost < math.inf:
                    best_node = prev
        for node in nodes:
            if node == prev:
                continue
            total = self._node_total(node)
            if total < best_cost:
                best_cost = total
                best_node = node
        if best_node is not None:
            self.best[cid] = best_node
        return best_cost

    def class_cost(self, cid: int) -> float:
        """Memoized tree cost of a class as of the last :meth:`refresh`.

        ``inf`` for classes with no extractable node yet.  The greedy
        saturation scheduler uses this to estimate the benefit of a
        pending union (``cost(kept) - cost(equivalent)``) without
        re-running extraction per candidate.
        """
        return self.cost.get(self.eg.find(cid), math.inf)

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring ``best``/``cost`` up to date with the e-graph.

        The first call processes every class; later calls seed the
        worklist with classes touched since the previous refresh and
        propagate changes upward through parent lists.  Class costs are
        monotonically non-increasing as the graph only gains nodes and
        equivalences, so propagation terminates; a generous pop guard
        falls back to the full fixpoint against pathological inputs
        (e.g. domain-gain unions shifting node costs upward).
        """
        eg = self.eg
        if self._tick < 0:
            seed = set(eg.classes())
        else:
            seed = eg.touched_since(self._tick)
        self._tick = eg.tick
        if eg.domain_gains != self._domain_gains:
            # A class gained a domain, which changes the domain (and so
            # the cost) of the nodes above it.
            self._domain_gains = eg.domain_gains
            self._node_cost.clear()
        pending = list({eg.find(c) for c in seed})
        in_work = set(pending)
        budget = 50 * (len(eg.classes()) + len(pending)) + 100
        pops = 0
        while pending:
            pops += 1
            if pops > budget:
                self._full_fixpoint()
                return
            cid = eg.find(pending.pop())
            in_work.discard(cid)
            old = self.cost.get(cid, math.inf)
            new = self._recompute(cid)
            if new == math.inf:
                continue
            if old < math.inf and new > old + _EPS:
                # Node costs shifted upward (a domain-gain union changed
                # a term_domain): incremental invariants no longer hold.
                self._full_fixpoint()
                return
            self.cost[cid] = new
            if abs(new - old) <= _EPS:
                continue
            for parent in eg.parents_of(cid):
                if parent not in in_work:
                    in_work.add(parent)
                    pending.append(parent)

    def ensure_acyclic(self, roots: list[int]) -> None:
        """Verify the selection reachable from *roots* is cycle-free.

        Tie-preservation keeps a class's previous witness, but a union
        can re-canonicalize that witness so a child resolves back into
        its own class (zero-cost shrink chains collapsing onto
        themselves), which would send DAG reconstruction into infinite
        recursion.  The recorded *costs* stay valid either way (a cycle
        can only arise from an exact tie), so a detected cycle falls
        back to the clean-slate fixpoint, whose strict-decrease
        adoptions are provably acyclic.
        """
        eg = self.eg
        state: dict[int, int] = {}  # 0 = on the DFS path, 1 = done
        for root in roots:
            stack = [(eg.find(root), False)]
            while stack:
                cid, post = stack.pop()
                if post:
                    state[cid] = 1
                    continue
                st = state.get(cid)
                if st == 1:
                    continue
                if st == 0:
                    # Reached a class already on the current path.
                    self._full_fixpoint()
                    return
                node = self.best.get(cid)
                if node is None:
                    continue  # dag_cost reports the precise class
                state[cid] = 0
                stack.append((cid, True))
                for child in node.children:
                    ch = eg.find(child)
                    if state.get(ch) != 1:
                        stack.append((ch, False))

    # ------------------------------------------------------------------
    def _selection_cost(self, roots: list[int]) -> float:
        """DAG cost of the current selection; ``inf`` if it cycles.

        Same walk as :func:`dag_cost` plus back-edge detection, so the
        refinement loop can evaluate a candidate swap in one pass.
        """
        eg = self.eg
        state: dict[int, int] = {}  # 0 = on path, 1 = done
        total = 0.0
        for root in roots:
            stack = [(eg.find(root), False)]
            while stack:
                cid, post = stack.pop()
                if post:
                    state[cid] = 1
                    continue
                st = state.get(cid)
                if st == 1:
                    continue
                if st == 0:
                    return math.inf
                node = self.best.get(cid)
                if node is None:
                    return math.inf
                total += self._ncost(node)
                state[cid] = 0
                stack.append((cid, True))
                for child in node.children:
                    ch = eg.find(child)
                    if state.get(ch) != 1:
                        stack.append((ch, False))
        return total

    def refine_sharing(self, roots: list[int], max_passes: int = 5) -> float:
        """Re-pick tree-cost-tied witnesses to maximize DAG sharing.

        Per-class extraction minimizes *tree* cost and keeps the first
        witness on ties, but the reported metric is *DAG* cost, where a
        tie-breaking choice that reuses an already-selected subtree is
        strictly cheaper (the paper's compute-reuse argument, Fig 6).
        This hill-climbs over the selected classes: for each, try every
        node tying the class's tree cost and keep the swap iff the
        actual DAG cost strictly drops (the evaluation walk rejects
        cyclic selections outright).  Deterministic: classes are visited
        in sorted order, nodes in insertion order, and only strict
        improvements are kept.  Returns the final DAG cost.
        """
        eg = self.eg
        best_total = self._selection_cost(roots)
        if best_total == math.inf:
            return best_total
        for _ in range(max_passes):
            changed = False
            selected: set[int] = set()
            stack = [eg.find(r) for r in roots]
            while stack:
                cid = stack.pop()
                if cid in selected:
                    continue
                selected.add(cid)
                stack.extend(eg.find(c) for c in self.best[cid].children)
            for cid in sorted(selected):
                cur = self.best.get(cid)
                if cur is None:
                    continue
                cls_cost = self.cost.get(cid, math.inf)
                for node in eg.nodes(cid):
                    if node == cur:
                        continue
                    if abs(self._node_total(node) - cls_cost) > _EPS:
                        continue
                    self.best[cid] = node
                    total = self._selection_cost(roots)
                    if total < best_total - _EPS:
                        best_total = total
                        cur = node
                        changed = True
                    else:
                        self.best[cid] = cur
            if not changed:
                break
        return best_total

    def _full_fixpoint(self) -> None:
        """The classic global fixpoint (correctness fallback)."""
        eg = self.eg
        self.best.clear()
        self.cost.clear()
        classes = eg.classes()
        changed = True
        rounds = 0
        while changed:
            changed = False
            rounds += 1
            if rounds > len(classes) + 2:
                break
            for cid in classes:
                old = self.cost.get(cid, math.inf)
                new = self._recompute(cid)
                if new < old - _EPS:
                    self.cost[cid] = new
                    changed = True


def best_nodes(
    eg: EGraph, params: CostParams
) -> tuple[dict[int, ENode], dict[int, float]]:
    """One-shot extraction: cheapest node per e-class (tree cost)."""
    ex = Extractor(eg, params)
    ex.refresh()
    return ex.best, ex.cost


def dag_cost(
    eg: EGraph,
    best: dict[int, ENode],
    roots: list[int],
    params: CostParams,
) -> float:
    """Cost of the extracted DAG counting each selected class once."""
    seen: set[int] = set()
    total = 0.0
    stack = [eg.find(r) for r in roots]
    while stack:
        cid = stack.pop()
        if cid in seen:
            continue
        seen.add(cid)
        node = best.get(cid)
        if node is None:
            raise OptimizationError(f"no extractable node for class e{cid}")
        total += node_cost(eg, node, params)
        stack.extend(eg.find(c) for c in node.children)
    return total
