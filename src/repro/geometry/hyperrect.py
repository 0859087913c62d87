"""Hyperrectangles in the global lattice space.

A :class:`Hyperrect` is the set ``[p0, q0) x ... x [p_{N-1}, q_{N-1})`` of
lattice cells (§3.2 of the paper).  It is an immutable value type: all
transformations (shift, expand, intersect) return new instances, matching
the SSA discipline of the tDFG.

Dimension convention
--------------------
Dimension 0 is the *innermost* dimension — contiguous in the address
space — exactly as in the paper's tiling constraints (§4.1, constraint 2
talks about "dimension 0 (continuous in address space)").  A C array
``A[S1][S0]`` therefore has shape ``(S0, S1)`` in this library.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.errors import GeometryError


@dataclass(frozen=True)
class Hyperrect:
    """An N-dimensional half-open hyperrectangle ``[p_i, q_i)``.

    The empty hyperrectangle is represented canonically with
    ``starts == ends == (0,) * ndim`` so that equality tests behave.

    Not slotted: ``shape``/``volume`` are derived on demand and cached
    in ``__dict__`` (lowering and timing read them many times per
    instance); equality, hashing and digests use the declared fields
    only.
    """

    starts: tuple[int, ...]
    ends: tuple[int, ...]

    def __post_init__(self) -> None:
        # Plain loops: this validator runs on every construction and is
        # hot enough that generator frames show up in campaign profiles.
        starts = self.starts
        ends = self.ends
        if len(starts) != len(ends):
            raise GeometryError(
                f"starts/ends rank mismatch: {starts} vs {ends}"
            )
        for p, q in zip(starts, ends):
            if q < p:
                raise GeometryError(f"negative extent in {starts}..{ends}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_shape(shape: Sequence[int]) -> "Hyperrect":
        """The origin-anchored hyperrectangle ``[0, s_i)`` of an array.

        An N-dimensional array is by itself a tensor with ``p_i = 0`` and
        ``q_i = S_i`` (§3.2).
        """
        return Hyperrect(tuple(0 for _ in shape), tuple(int(s) for s in shape))

    @staticmethod
    def from_bounds(bounds: Iterable[tuple[int, int]]) -> "Hyperrect":
        """Build from ``[(p0, q0), (p1, q1), ...]`` pairs."""
        starts = []
        ends = []
        for p, q in bounds:
            starts.append(int(p))
            ends.append(int(q))
        return Hyperrect(tuple(starts), tuple(ends))

    @staticmethod
    def empty(ndim: int) -> "Hyperrect":
        """The canonical empty hyperrectangle of a given rank."""
        return Hyperrect((0,) * ndim, (0,) * ndim)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.starts)

    @property
    def shape(self) -> tuple[int, ...]:
        s = self.__dict__.get("_shape")
        if s is None:
            s = self.__dict__["_shape"] = tuple(
                map(operator.sub, self.ends, self.starts)
            )
        return s

    @property
    def volume(self) -> int:
        """Number of lattice cells covered."""
        v = self.__dict__.get("_volume")
        if v is None:
            v = self.__dict__["_volume"] = math.prod(self.shape)
        return v

    @property
    def is_empty(self) -> bool:
        for p, q in zip(self.starts, self.ends):
            if q <= p:
                return True
        return False

    def bounds(self) -> list[tuple[int, int]]:
        return list(zip(self.starts, self.ends))

    def interval(self, dim: int) -> tuple[int, int]:
        """The ``[p, q)`` interval of one dimension."""
        self._check_dim(dim)
        return self.starts[dim], self.ends[dim]

    def contains_point(self, point: Sequence[int]) -> bool:
        if len(point) != self.ndim:
            raise GeometryError(f"point rank {len(point)} != {self.ndim}")
        return all(p <= x < q for x, p, q in zip(point, self.starts, self.ends))

    def contains(self, other: "Hyperrect") -> bool:
        """True when *other* is a subset of this hyperrectangle."""
        self._check_rank(other)
        if other.is_empty:
            return True
        return all(
            p <= op and oq <= q
            for p, q, op, oq in zip(self.starts, self.ends, other.starts, other.ends)
        )

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def intersect(self, other: "Hyperrect") -> "Hyperrect":
        """Intersection — the domain of a tDFG compute node (Fig 5)."""
        self._check_rank(other)
        starts = []
        ends = []
        empty = False
        for p, q, op, oq in zip(self.starts, self.ends, other.starts, other.ends):
            s = p if p >= op else op
            e = q if q <= oq else oq
            if e <= s:
                empty = True
                break
            starts.append(s)
            ends.append(e)
        if empty:
            return Hyperrect.empty(len(self.starts))
        return Hyperrect(tuple(starts), tuple(ends))

    def bounding_union(self, other: "Hyperrect") -> "Hyperrect":
        """Minimal hyperrectangle containing both (global bounding box)."""
        self._check_rank(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        starts = tuple(min(p, op) for p, op in zip(self.starts, other.starts))
        ends = tuple(max(q, oq) for q, oq in zip(self.ends, other.ends))
        return Hyperrect(starts, ends)

    def overlaps(self, other: "Hyperrect") -> bool:
        return not self.intersect(other).is_empty

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def shifted(self, dim: int, dist: int) -> "Hyperrect":
        """Translate along *dim* by *dist* — the domain effect of ``mv``."""
        self._check_dim(dim)
        starts = list(self.starts)
        ends = list(self.ends)
        starts[dim] += dist
        ends[dim] += dist
        return Hyperrect(tuple(starts), tuple(ends))

    def with_interval(self, dim: int, start: int, end: int) -> "Hyperrect":
        """Replace the ``[p, q)`` interval of one dimension."""
        self._check_dim(dim)
        starts = list(self.starts)
        ends = list(self.ends)
        starts[dim], ends[dim] = start, end
        if end < start:
            raise GeometryError(f"negative extent [{start}, {end}) on dim {dim}")
        return Hyperrect(tuple(starts), tuple(ends))

    def expanded(self, dim: int, start: int, end: int) -> "Hyperrect":
        """Expand dimension *dim* to ``[start, end)`` (must be a superset).

        Used by the tensor-expansion rewrite (Appendix Eq. 5), which requires
        ``start <= p_i`` and ``end >= q_i``.
        """
        p, q = self.interval(dim)
        if start > p or end < q:
            raise GeometryError(
                f"expansion [{start},{end}) does not contain [{p},{q}) on dim {dim}"
            )
        return self.with_interval(dim, start, end)

    def broadcast(self, dim: int, dist: int, count: int) -> "Hyperrect":
        """Domain of ``bc``: replicate *count* times along *dim* from *dist*.

        Per Fig 5 the broadcast output covers ``[dist, dist + count * extent)``
        on the broadcast dimension where *extent* is the source extent (1 for
        the common row/column broadcast).
        """
        self._check_dim(dim)
        if count <= 0:
            raise GeometryError(f"broadcast count must be positive, got {count}")
        p, q = self.interval(dim)
        extent = q - p
        return self.with_interval(dim, dist, dist + count * extent)

    def clipped(self, bounding: "Hyperrect") -> "Hyperrect":
        """Discard cells outside the global bounding hyperrectangle (§3.2)."""
        return self.intersect(bounding)

    # ------------------------------------------------------------------
    # Iteration (careful: volume can be huge; intended for tests / tiles)
    # ------------------------------------------------------------------
    def points(self) -> Iterator[tuple[int, ...]]:
        """Iterate all lattice points, dimension 0 fastest."""
        if self.is_empty:
            return iter(())
        # product() varies its last range fastest: feed the dimensions
        # outermost first and flip each point back to dimension order.
        ranges = [
            range(p, q) for p, q in zip(reversed(self.starts), reversed(self.ends))
        ]
        return (point[::-1] for point in itertools.product(*ranges))

    def numpy_slices(self) -> tuple[slice, ...]:
        """Slices indexing this region in a numpy array of matching rank.

        Numpy's axis 0 is the *outermost* dimension while our dimension 0 is
        innermost, so the slice order is reversed.
        """
        return tuple(
            slice(p, q) for p, q in zip(reversed(self.starts), reversed(self.ends))
        )

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------
    def _check_dim(self, dim: int) -> None:
        if not 0 <= dim < self.ndim:
            raise GeometryError(f"dimension {dim} out of range for rank {self.ndim}")

    def _check_rank(self, other: "Hyperrect") -> None:
        if other.ndim != self.ndim:
            raise GeometryError(f"rank mismatch: {self.ndim} vs {other.ndim}")

    def __str__(self) -> str:
        s = self.__dict__.get("_rendered")
        if s is None:
            s = self.__dict__["_rendered"] = "x".join(
                f"[{p},{q})" for p, q in zip(self.starts, self.ends)
            )
        return s


def _install_cached_hash() -> None:
    """Wrap the dataclass-generated ``__hash__`` with a per-instance cache.

    The hash recomputes two tuple hashes per call and hyperrects key
    every geometry memo (decomposition, bank coverage) plus node
    interning; the value is a pure function of the frozen fields.
    """
    orig = Hyperrect.__hash__
    unset = object()

    def __hash__(self, _orig=orig, _unset=unset):
        h = self.__dict__.get("_hash", _unset)
        if h is _unset:
            h = self.__dict__["_hash"] = _orig(self)
        return h

    Hyperrect.__hash__ = __hash__


_install_cached_hash()
