"""Conversion between tDFG nodes and e-graph terms.

Labels are plain tuples so the e-graph stays generic:

* ``("tensor", array, bounds, dtype)``
* ``("const", value, dtype)``
* ``("cmp", op)`` with operand children
* ``("mv", dim, dist)`` / ``("bc", dim, dist, count)``
* ``("shrink", dim, start, end)``
* ``("reduce", op, dim)``
* ``("stream", name, kind, bounds|None, dtype, combiner)`` — opaque to the
  rewrite rules; streams participate only as boundaries.
"""

from __future__ import annotations

from repro.errors import OptimizationError
from repro.geometry.hyperrect import Hyperrect
from repro.ir.dtypes import DType
from repro.ir.nodes import (
    BroadcastNode,
    ComputeNode,
    ConstNode,
    MoveNode,
    Node,
    ReduceNode,
    ShrinkNode,
    StreamKind,
    StreamNode,
    TensorNode,
)
from repro.ir.ops import Op

from repro.egraph.egraph import EGraph, ENode


def _bounds(rect: Hyperrect) -> tuple[tuple[int, int], ...]:
    return tuple(rect.bounds())


def _rect(bounds: tuple[tuple[int, int], ...]) -> Hyperrect:
    return Hyperrect.from_bounds(bounds)


def add_node(eg: EGraph, node: Node, cache: dict[int, int]) -> int:
    """Insert a tDFG node DAG into the e-graph; returns its e-class."""
    if id(node) in cache:
        return cache[id(node)]
    children = tuple(add_node(eg, op, cache) for op in node.operands)
    domain = node.domain
    has_domain = domain is not None
    if isinstance(node, TensorNode):
        label = ("tensor", node.array, _bounds(node.region), node.elem_type.value)
    elif isinstance(node, ConstNode):
        label = ("const", node.value, node.elem_type.value)
    elif isinstance(node, ComputeNode):
        label = ("cmp", node.op.value)
    elif isinstance(node, MoveNode):
        label = ("mv", node.dim, node.dist)
    elif isinstance(node, BroadcastNode):
        label = ("bc", node.dim, node.dist, node.count)
    elif isinstance(node, ShrinkNode):
        label = ("shrink", node.dim, node.start, node.end)
    elif isinstance(node, ReduceNode):
        label = ("reduce", node.op.value, node.dim)
    elif isinstance(node, StreamNode):
        label = (
            "stream",
            node.stream,
            node.stream_kind.value,
            _bounds(node.region) if node.region is not None else None,
            node.elem_type.value,
            node.combiner.value if node.combiner is not None else None,
        )
    else:
        raise OptimizationError(f"cannot convert node kind {node.kind!r}")
    cid = eg.add(label, children, domain=domain, has_domain=has_domain)
    cache[id(node)] = cid
    return cid


def build_node(
    eg: EGraph,
    best: dict[int, ENode],
    cid: int,
    cache: dict[int, Node],
) -> Node:
    """Rebuild an IR node from the extraction choice ``best``."""
    root = eg.find(cid)
    if root in cache:
        return cache[root]
    enode = best[root]
    kids = tuple(build_node(eg, best, c, cache) for c in enode.children)
    label = enode.label
    kind = label[0]
    node: Node
    if kind == "tensor":
        node = TensorNode(label[1], _rect(label[2]), DType(label[3]))
    elif kind == "const":
        node = ConstNode(label[1], DType(label[2]))
    elif kind == "cmp":
        node = ComputeNode(Op(label[1]), kids)
    elif kind == "mv":
        node = MoveNode(kids[0], label[1], label[2])
    elif kind == "bc":
        node = BroadcastNode(kids[0], label[1], label[2], label[3])
    elif kind == "shrink":
        node = ShrinkNode(kids[0], label[1], label[2], label[3])
    elif kind == "reduce":
        node = ReduceNode(kids[0], Op(label[1]), label[2])
    elif kind == "stream":
        node = StreamNode(
            stream=label[1],
            stream_kind=StreamKind(label[2]),
            inputs=kids,
            region=_rect(label[3]) if label[3] is not None else None,
            elem_type=DType(label[4]),
            combiner=Op(label[5]) if label[5] is not None else None,
        )
    else:
        raise OptimizationError(f"unknown label kind {kind!r}")
    cache[root] = node
    return node


def term_domain(
    eg: EGraph, label: tuple, children: tuple[int, ...]
) -> tuple[Hyperrect | None, bool]:
    """Domain analysis for a prospective term (mirrors IR node semantics).

    Returns ``(domain, has_domain)``; ``has_domain`` False marks infinite
    (constant) tensors and scalar (reduce-stream) values.  The result
    depends only on the label and the children's analyses, which key
    its memo on the e-graph.
    """
    analyses = tuple(eg.analysis(c) for c in children)
    key = (label, analyses)
    out = eg.domain_memo.get(key)
    if out is None:
        out = eg.domain_memo[key] = _derive_domain(label, analyses)
    return out


def _derive_domain(
    label: tuple, analyses: tuple[tuple[bool, Hyperrect | None], ...]
) -> tuple[Hyperrect | None, bool]:
    kind = label[0]
    if kind == "tensor":
        return _rect(label[2]), True
    if kind == "const":
        return None, False
    if kind == "cmp":
        out: Hyperrect | None = None
        any_domain = False
        for has, d in analyses:
            if not has:
                continue
            any_domain = True
            out = d if out is None else out.intersect(d)  # type: ignore[union-attr]
        return out, any_domain
    if kind == "mv":
        has, d = analyses[0]
        if not has:
            return None, False
        assert d is not None
        return d.shifted(label[1], label[2]), True
    if kind == "bc":
        has, d = analyses[0]
        if not has:
            return None, False
        assert d is not None
        return d.broadcast(label[1], label[2], label[3]), True
    if kind == "shrink":
        d = analyses[0][1]
        if d is None:
            raise OptimizationError("shrink over infinite tensor")
        return d.with_interval(label[1], label[2], label[3]), True
    if kind == "reduce":
        d = analyses[0][1]
        if d is None:
            raise OptimizationError("reduce over infinite tensor")
        p, _ = d.interval(label[2])
        return d.with_interval(label[2], p, p + 1), True
    if kind == "stream":
        # StreamNode.domain: a load covers its region, a store its region
        # or else its input's domain, and a reduce yields a scalar.
        bounds = label[3]
        if label[2] == StreamKind.REDUCE.value:
            return None, False
        if bounds is not None:
            return _rect(bounds), True
        if label[2] == StreamKind.STORE.value:
            has, d = analyses[0]
            return d, has
        return None, False
    raise OptimizationError(f"unknown label kind {kind!r}")


def add_term(eg: EGraph, label: tuple, children: tuple[int, ...]) -> int:
    """Add a term, deriving its domain analysis only when it is new."""
    return eg.add(label, children, analysis=term_domain)
