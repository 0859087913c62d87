"""The tensor dataflow graph container (§3.2).

A :class:`TensorDFG` bundles, for one ``inf_cfg`` region:

* the array declarations (from ``inf_array`` calls — §3.4),
* the result bindings (which node's tensor is stored to which array),
* scalar results produced by embedded reduce streams,
* layout hints for the runtime's tiling heuristics (§3.4), and
* the companion sDFG for the near-memory fallback.

The graph itself is the immutable node DAG from :mod:`repro.ir.nodes`;
this container adds naming, validation and traversal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import IRError
from repro.exec.cache import _encode
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
    StreamNode,
    TensorNode,
    walk,
)
from repro.ir.sdfg import StreamDFG


@dataclass(frozen=True)
class ArrayDecl:
    """An ``inf_array`` declaration: name, shape (dim 0 innermost), dtype."""

    name: str
    shape: tuple[int, ...]
    elem_type: DType = DType.FP32

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def domain(self) -> Hyperrect:
        return Hyperrect.from_shape(self.shape)

    @property
    def total_bytes(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n * self.elem_type.bytes


@dataclass(frozen=True)
class TensorBinding:
    """Bind a result node to a destination array region (a store)."""

    array: str
    region: Hyperrect
    node: Node

    def __post_init__(self) -> None:
        d = self.node.domain
        if d is not None and d.shape != self.region.shape:
            raise IRError(
                f"store to {self.array}{self.region} shape {self.region.shape} "
                f"!= produced {d.shape}"
            )


@dataclass(frozen=True)
class LayoutHints:
    """Compiler-generated hints for the runtime tiling heuristic (§3.4/4.1).

    * ``shift_dims`` — dimensions along which tensors are moved;
    * ``broadcast_dims`` — dimensions along which tensors are broadcast;
    * ``reduce_dims`` — dimensions reduced in-memory;
    * ``primary_array`` — the output / reduced array whose tile size
      the other arrays inherit;
    * ``aligned_arrays`` — arrays used by the same computation (must be
      bitline-aligned, so they share one tile size).
    """

    shift_dims: tuple[int, ...] = ()
    broadcast_dims: tuple[int, ...] = ()
    reduce_dims: tuple[int, ...] = ()
    primary_array: str | None = None
    aligned_arrays: tuple[str, ...] = ()


@dataclass
class TensorDFG:
    """One infinity-stream region in tDFG form."""

    name: str
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)
    results: list[TensorBinding] = field(default_factory=list)
    scalar_results: list[StreamNode] = field(default_factory=list)
    hints: LayoutHints = field(default_factory=LayoutHints)
    sdfg: StreamDFG | None = None
    params: dict[str, float] = field(default_factory=dict)  # runtime consts

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def declare(self, decl: ArrayDecl) -> ArrayDecl:
        if decl.name in self.arrays:
            raise IRError(f"array {decl.name!r} already declared")
        self.arrays[decl.name] = decl
        self.__dict__.pop("_fingerprint", None)
        return decl

    def bind(self, array: str, region: Hyperrect, node: Node) -> TensorBinding:
        binding = TensorBinding(array, region, node)
        self.results.append(binding)
        self.__dict__.pop("_fingerprint", None)
        return binding

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    @property
    def roots(self) -> list[Node]:
        out: list[Node] = [b.node for b in self.results]
        out.extend(self.scalar_results)
        return out

    def nodes(self) -> list[Node]:
        """All nodes in topological (operands-first) order, deduplicated.

        The pipeline traverses each region several times (fingerprint,
        scheduling, validation, estimates), so the order is cached.  The
        node DAG itself is immutable; new roots only ever arrive by
        *appending* to ``results``/``scalar_results`` (``bind()``, the
        region builders, ``printer.parse_tdfg``), so the root-list
        lengths are a sufficient invalidation key.  Callers must not
        mutate the returned list.
        """
        key = (len(self.results), len(self.scalar_results))
        cached = self.__dict__.get("_nodes")
        if cached is not None and cached[0] == key:
            return cached[1]
        seen: set[int] = set()
        order: list[Node] = []
        for root in self.roots:
            for node in walk(root, seen):
                order.append(node)
        self.__dict__["_nodes"] = (key, order)
        return order

    @property
    def ndim(self) -> int:
        """Lattice rank: that of the highest-dimension array (§3.2)."""
        if not self.arrays:
            raise IRError("tDFG has no declared arrays")
        return max(decl.ndim for decl in self.arrays.values())

    # ------------------------------------------------------------------
    # Statistics consumed by Eq. 2 and the cost model
    # ------------------------------------------------------------------
    def count_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes():
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def compute_nodes(self) -> list[ComputeNode]:
        return [n for n in self.nodes() if isinstance(n, ComputeNode)]

    def move_nodes(self) -> list[MoveNode]:
        return [n for n in self.nodes() if isinstance(n, MoveNode)]

    def broadcast_nodes(self) -> list[BroadcastNode]:
        return [n for n in self.nodes() if isinstance(n, BroadcastNode)]

    def reduce_nodes(self) -> list[ReduceNode]:
        return [n for n in self.nodes() if isinstance(n, ReduceNode)]

    def stream_nodes(self) -> list[StreamNode]:
        return [n for n in self.nodes() if isinstance(n, StreamNode)]

    def elements_touched(self) -> int:
        """Total elements across input tensors (the N_elem of Eq. 2)."""
        total = 0
        for node in self.nodes():
            if isinstance(node, TensorNode):
                total += node.region.volume
        return total

    # ------------------------------------------------------------------
    # Content fingerprint (the compilation-cache and JIT memo key)
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A SHA-256 digest of everything compilation depends on.

        Stable across processes (unlike :func:`hash`) and linear in the
        graph size: the node DAG is encoded with operand back-references
        so shared subtrees are visited once.  Two tDFGs with the same
        fingerprint schedule, register-allocate and lower identically,
        which is what lets fat binaries and JIT lowerings be reused
        across paradigms and simulation points, and what keys the JIT's
        modeled memo table (§4.2).

        Parameter *values* are included, so a cached artifact can stand
        in for a fresh compile in every consumer, including functional
        replay.  The frontend writes only NaN placeholders into
        :attr:`params`, so for frontend-built regions the values never
        separate two graphs.  The digest is cached on the instance and
        invalidated by :meth:`declare`/:meth:`bind`.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        import hashlib

        # Stream byte tokens straight into one buffer: every section
        # below is self-delimiting, so the concatenation stays injective
        # without intermediate list structure.
        out: list[bytes] = [b"tdfg("]
        _encode(out, self.name)
        index: dict[int, int] = {}
        for i, node in enumerate(self.nodes()):
            index[id(node)] = i
            _encode_node(out, node, index)
        out.append(b"|arrays|")
        _encode(out, sorted(self.arrays.items(), key=lambda kv: kv[0]))
        out.append(b"|results|")
        for b in self.results:
            _encode(out, b.array)
            _encode(out, b.region)
            out.append(b"i%d;" % index[id(b.node)])
        out.append(b"|scalars|")
        for n in self.scalar_results:
            out.append(b"i%d;" % index[id(n)])
        out.append(b"|meta|")
        _encode(out, self.hints)
        _encode(out, self.params)
        _encode(out, self.sdfg)
        out.append(b")")
        digest = hashlib.sha256(b"".join(out)).hexdigest()
        self.__dict__["_fingerprint"] = digest
        return digest

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check SSA well-formedness, array references and domains."""
        if not self.results and not self.scalar_results:
            raise IRError(f"tDFG {self.name!r} produces nothing")
        for node in self.nodes():
            if isinstance(node, TensorNode):
                if node.array not in self.arrays:
                    raise IRError(f"tensor references undeclared {node.array!r}")
                decl = self.arrays[node.array]
                if node.region.ndim != decl.ndim:
                    raise IRError(
                        f"tensor {node.array} rank {node.region.ndim} != "
                        f"declared rank {decl.ndim}"
                    )
                if not decl.domain.contains(node.region):
                    raise IRError(
                        f"tensor {node}{node.region} outside array "
                        f"domain {decl.domain}"
                    )
            if isinstance(node, ComputeNode):
                d = node.domain
                if d is not None and d.is_empty:
                    raise IRError(f"compute node {node} has empty domain")
            if isinstance(node, ConstNode) and node.is_symbolic:
                if node.value not in self.params:
                    raise IRError(
                        f"symbolic const {node.value!r} missing from params"
                    )
        for binding in self.results:
            if binding.array not in self.arrays:
                raise IRError(f"store to undeclared array {binding.array!r}")
            decl = self.arrays[binding.array]
            if not decl.domain.contains(binding.region):
                raise IRError(
                    f"store region {binding.region} outside {binding.array} "
                    f"domain {decl.domain}"
                )
        if self.sdfg is not None:
            self.sdfg.validate()

    def describe(self) -> str:
        """A short human-readable summary (used by printers and logs)."""
        counts = self.count_by_kind()
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"tDFG {self.name}: {body}"


# Field names per node type, computed once: dataclasses.fields() walks
# the class dict and dominates fingerprint time when called per node.
_NODE_FIELDS: dict[type, tuple[str, ...]] = {}


def _encode_node(out: list, node: Node, index: dict[int, int]) -> None:
    """Append one node's byte encoding, operands as topological back-refs.

    The kind tag pins the node class and hence the field order, so field
    names are omitted; ``@`` reference tokens cannot collide with the
    value encodings of :func:`repro.exec.cache._encode`.
    """
    t = node.__class__
    names = _NODE_FIELDS.get(t)
    if names is None:
        names = _NODE_FIELDS[t] = tuple(
            f.name for f in dataclasses.fields(node)
        )
    out.append(b"n" + node.kind.encode() + b"(")
    for name in names:
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(b"@%d;" % index[id(value)])
        elif (
            value.__class__ is tuple
            and value
            and isinstance(value[0], Node)
        ):
            # Node fields are homogeneously typed: a tuple either holds
            # only nodes (operand lists) or no nodes at all.
            out.append(
                b"@(" + b",".join(b"%d" % index[id(v)] for v in value) + b");"
            )
        else:
            _encode(out, value)
    out.append(b")")
