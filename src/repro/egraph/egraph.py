"""A compact e-graph: union-find + hash-consing + congruence closure.

This is a from-scratch reimplementation of the machinery the paper gets
from the ``egg`` library [67]: e-classes (equivalence classes of
expression nodes), nondestructive rewriting by unioning classes, and a
``rebuild`` step restoring congruence (two nodes with equivalent children
belong to one class).

Each e-class carries an *analysis* value — the lattice domain of the
tensors it represents (``None`` for infinite constants) — because the
paper defines node equivalence as "same result and same domain" and
several rewrites need domains to fire (tensor expansion, shrink fusion).

Incremental bookkeeping
-----------------------
Beyond the textbook structure, the graph maintains three indices that
make e-matching and congruence repair proportional to the *change* since
the last query instead of the whole graph:

* **parent lists** (``_class_parents``): for every class, the e-nodes
  that reference it as a child.  ``rebuild`` repairs exactly the parents
  of merged classes (the egg upward-merging scheme) instead of rescanning
  the full hashcons, and extraction uses the same lists to propagate
  cost improvements upward;
* **kind index** (``_kind_classes``): label head (``"cmp"``, ``"mv"``,
  ...) → classes containing such a node, so a rule seeds only from
  classes that can possibly match;
* **touch log** (``_touch_log``): an append-only ``(tick, class)``
  journal of structural changes.  A rule that last ran at tick *t*
  rematches only classes touched after *t* (plus their ancestors up to
  the maximum pattern depth) — see :func:`touched_since`.

``tick`` counts every structural change (node insertion or effective
union); ``version`` keeps its historical meaning of counting effective
unions only, which the saturation driver uses for fixpoint detection.

Analysis memo
-------------
A class's domain is fixed when the class is created, with one
exception: a union of a class without a domain (a constant) and one
with a domain gives the merged class that domain.  ``domain_gains``
counts those unions.  Everything derived from the children's analyses
(``lang.term_domain`` and the extractor's node costs) therefore stays
valid until that counter moves; ``domain_memo`` holds
``term_domain``'s results, keyed by the label and the children's
analyses, so it never goes stale.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import OptimizationError
from repro.geometry.hyperrect import Hyperrect


@dataclass(frozen=True)
class ENode:
    """An expression node: an opaque hashable label plus child classes."""

    label: tuple
    children: tuple[int, ...] = ()

    def canonicalize(self, find) -> "ENode":
        return ENode(self.label, tuple(find(c) for c in self.children))


class EGraph:
    """Union-find based e-graph with explicit rebuild.

    The analysis value of a class is its lattice domain; unioning classes
    with different domains is an error (the rules must preserve domains).
    """

    def __init__(self) -> None:
        self._parent: list[int] = []
        # Class node "sets" are insertion-ordered dicts so every
        # iteration over a class's nodes (matching, extraction) is
        # deterministic regardless of PYTHONHASHSEED — under a node
        # budget the *order* of exploration decides which terms get
        # materialized, so str-hash-dependent set order would make
        # budget-tripped costs vary across processes.
        self._classes: dict[int, dict[ENode, None]] = {}
        self._hashcons: dict[ENode, int] = {}
        self._domains: dict[int, Hyperrect | None] = {}
        self._has_domain: dict[int, bool] = {}
        self._worklist: list[int] = []
        self.version = 0  # bumped on every union; cheap fixpoint detection
        #: monotone change counter: bumped on node insertion *and* union.
        self.tick = 0
        self._node_total = 0
        #: canonical child class -> {e-node referencing it -> owning class}
        self._class_parents: dict[int, dict[ENode, int]] = {}
        #: label head -> classes known to contain a node with that head
        self._kind_classes: dict[str, set[int]] = {}
        #: append-only (tick, class) journal of structural changes
        self._touch_log: list[tuple[int, int]] = []
        #: unions that gave a domain to a class that had none
        self.domain_gains = 0
        #: (label, children's analyses) -> lang.term_domain result
        self.domain_memo: dict[tuple, tuple[Hyperrect | None, bool]] = {}

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------
    def find(self, cid: int) -> int:
        root = cid
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[cid] != root:
            self._parent[cid], cid = root, self._parent[cid]
        return root

    def _touch(self, cid: int) -> None:
        self._touch_log.append((self.tick, cid))

    def _new_class(self, node: ENode, domain: Hyperrect | None, has: bool) -> int:
        cid = len(self._parent)
        self._parent.append(cid)
        self._classes[cid] = {node: None}
        self._domains[cid] = domain
        self._has_domain[cid] = has
        self._node_total += 1
        self.tick += 1
        self._touch(cid)
        self._kind_classes.setdefault(node.label[0], set()).add(cid)
        for child in set(node.children):
            self._class_parents.setdefault(child, {})[node] = cid
        return cid

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def add(
        self, label: tuple, children: tuple[int, ...] = (),
        domain: Hyperrect | None = None, has_domain: bool = True,
        analysis: Callable[
            [EGraph, tuple, tuple[int, ...]], tuple[Hyperrect | None, bool]
        ] | None = None,
    ) -> int:
        """Add (or find) a node; returns its e-class id.

        ``domain`` is the analysis value for a *new* class.  ``has_domain``
        False marks infinite tensors (constants).  ``analysis(eg, label,
        children)``, when given, derives ``(domain, has_domain)`` instead,
        and is called only if the node is new.
        """
        node = ENode(label, tuple(self.find(c) for c in children))
        existing = self._hashcons.get(node)
        if existing is not None:
            return self.find(existing)
        if analysis is not None:
            domain, has_domain = analysis(self, label, node.children)
        cid = self._new_class(node, domain, has_domain)
        self._hashcons[node] = cid
        return cid

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        da, db = self._domains[ra], self._domains[rb]
        ha, hb = self._has_domain[ra], self._has_domain[rb]
        if ha and hb and da != db:
            raise OptimizationError(
                f"union of classes with different domains: {da} vs {db}"
            )
        # Keep the larger class as root (union by size).
        if len(self._classes[ra]) < len(self._classes[rb]):
            ra, rb = rb, ra
        merged_size = len(self._classes[ra]) + len(self._classes[rb])
        self._parent[rb] = ra
        self._classes[ra] |= self._classes.pop(rb)
        self._node_total += len(self._classes[ra]) - merged_size
        domain_gained = not self._has_domain[ra] and self._has_domain.get(
            rb, False
        )
        if domain_gained:
            self._domains[ra] = self._domains[rb]
            self._has_domain[ra] = True
            self.domain_gains += 1
        self._domains.pop(rb, None)
        self._has_domain.pop(rb, None)
        # Merge parent lists so rebuild repairs exactly the affected nodes.
        moved = self._class_parents.pop(rb, None)
        if moved:
            self._class_parents.setdefault(ra, {}).update(moved)
        self._worklist.append(ra)
        self.version += 1
        self.tick += 1
        self._touch(ra)
        if domain_gained:
            # A class gaining a domain can enable shrink-validity checks
            # two levels up; touching its parents widens the dirty
            # closure far enough for the indexed matcher to see it.
            for pcid in set(self._class_parents.get(ra, {}).values()):
                self._touch(self.find(pcid))
        return ra

    # ------------------------------------------------------------------
    # Congruence closure
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Restore the congruence invariant after unions."""
        while self._worklist:
            todo = {self.find(c) for c in self._worklist}
            self._worklist.clear()
            for cid in todo:
                self._repair(self.find(cid))

    def _repair(self, cid: int) -> None:
        # Re-canonicalize exactly the nodes referencing the merged class:
        # its parent list (the egg upward-merging scheme).  Entries may be
        # stale after earlier repairs; processing them is idempotent.
        parents = self._class_parents.pop(cid, None)
        if not parents:
            return
        for pnode, pcid in parents.items():
            self._hashcons.pop(pnode, None)
            canon = pnode.canonicalize(self.find)
            owner = self.find(pcid)
            prev = self._hashcons.get(canon)
            if prev is not None and self.find(prev) != owner:
                self.union(prev, pcid)
                owner = self.find(pcid)
            self._hashcons[canon] = owner
            # Swap the stale node for its canonical form in the owning
            # class's node set (dedupes congruent siblings).
            nodes = self._classes.get(owner)
            if nodes is not None and canon != pnode and pnode in nodes:
                before = len(nodes)
                del nodes[pnode]
                nodes[canon] = None
                self._node_total += len(nodes) - before
            if canon != pnode:
                self._kind_classes.setdefault(canon.label[0], set()).add(owner)
            # Re-register under the *current* child roots; ``parents`` was
            # popped above, so re-creating an entry for ``cid`` is safe.
            for child in set(canon.children):
                self._class_parents.setdefault(self.find(child), {})[
                    canon
                ] = owner

    # ------------------------------------------------------------------
    # Reference (textbook) congruence closure
    # ------------------------------------------------------------------
    def full_rebuild(self) -> None:
        """Restore congruence by full hashcons scans (the naive scheme).

        This is the pre-index algorithm the ``"naive"`` strategy keeps as
        its reference baseline: every repair rescans the entire hashcons
        for stale entries — O(nodes) per merged class — and the
        incremental indices are rebuilt from scratch afterwards so the
        graph stays queryable either way.
        """
        while self._worklist:
            todo = {self.find(c) for c in self._worklist}
            self._worklist.clear()
            for cid in todo:
                self._full_repair(self.find(cid))
        self._reindex()

    def _full_repair(self, cid: int) -> None:
        stale = [
            (node, nid)
            for node, nid in self._hashcons.items()
            if any(self.find(c) == cid for c in node.children)
            or self.find(nid) == cid
        ]
        for node, nid in stale:
            del self._hashcons[node]
            canon = node.canonicalize(self.find)
            prev = self._hashcons.get(canon)
            if prev is not None and self.find(prev) != self.find(nid):
                self.union(prev, nid)
            self._hashcons[canon] = self.find(nid)
        root = self.find(cid)
        if root in self._classes:
            self._classes[root] = {
                n.canonicalize(self.find): None for n in self._classes[root]
            }

    def _reindex(self) -> None:
        """Recompute node count, parent lists, and kind index from scratch."""
        self._class_parents = {}
        self._kind_classes = {}
        total = 0
        for cid, nodes in self._classes.items():
            total += len(nodes)
            for node in nodes:
                self._kind_classes.setdefault(node.label[0], set()).add(cid)
                for child in set(node.children):
                    self._class_parents.setdefault(self.find(child), {})[
                        node
                    ] = cid
        self._node_total = total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nodes(self, cid: int) -> dict[ENode, None]:
        """The class's nodes as an insertion-ordered set (a keys-only
        dict): iteration order is deterministic across processes."""
        return self._classes[self.find(cid)]

    def domain(self, cid: int) -> Hyperrect | None:
        return self._domains[self.find(cid)]

    def has_domain(self, cid: int) -> bool:
        return self._has_domain[self.find(cid)]

    def analysis(self, cid: int) -> tuple[bool, Hyperrect | None]:
        """``(has_domain, domain)`` of the class, with one find."""
        root = self.find(cid)
        return self._has_domain[root], self._domains[root]

    def classes(self) -> list[int]:
        """Canonical class ids, ascending: ``_classes`` holds exactly the
        roots, in creation order (a union only removes the merged-away
        class)."""
        return list(self._classes)

    @property
    def num_nodes(self) -> int:
        return self._node_total

    # ------------------------------------------------------------------
    # Incremental-matching support
    # ------------------------------------------------------------------
    def parents_of(self, cid: int) -> set[int]:
        """Canonical classes containing a node with ``cid`` as a child."""
        entry = self._class_parents.get(self.find(cid))
        if not entry:
            return set()
        return {self.find(pcid) for pcid in entry.values()}

    def classes_with_kind(self, kind: str) -> set[int]:
        """Canonical classes containing a node labelled ``(kind, ...)``.

        Compresses the stored index in place so repeated queries stay
        proportional to the number of live classes.
        """
        cids = self._kind_classes.get(kind)
        if not cids:
            return set()
        roots = {self.find(c) for c in cids}
        self._kind_classes[kind] = set(roots)
        return roots

    def touched_since(self, tick: int) -> set[int]:
        """Canonical classes structurally changed after ``tick``."""
        out: set[int] = set()
        for t, cid in reversed(self._touch_log):
            if t <= tick:
                break
            out.add(self.find(cid))
        return out

    def dirty_closure(self, roots: set[int], depth: int = 2) -> set[int]:
        """``roots`` plus their ancestors up to ``depth`` parent hops.

        ``depth=2`` covers every rewrite rule in :mod:`repro.egraph.
        rewrites`: the deepest pattern (``distrib``) seeds at a class and
        compares the *grandchildren* of its operand nodes, so a change
        two levels down can enable a new match at the seed.
        """
        out = {self.find(c) for c in roots}
        frontier = out
        for _ in range(depth):
            grown: set[int] = set()
            for cid in frontier:
                for p in self.parents_of(cid):
                    if p not in out:
                        grown.add(p)
            if not grown:
                break
            out |= grown
            frontier = grown
        return out

    def dump(self) -> str:
        lines = []
        for cid in self.classes():
            d = self._domains.get(cid)
            lines.append(f"e{cid} ({d if d is not None else 'inf'}):")
            for node in sorted(self._classes[cid], key=lambda n: str(n.label)):
                args = ", ".join(f"e{c}" for c in node.children)
                lines.append(f"  {node.label} ({args})")
        return "\n".join(lines)
