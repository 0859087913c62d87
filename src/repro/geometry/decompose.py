"""Algorithm 1: decompose a tensor along tile boundaries.

Tensors may not align to the tile boundary (e.g. when moving a subregion of
an array), so the JIT runtime decomposes them into subtensors whose
dimension-0..N-1 intervals either exactly cover whole tiles or lie inside a
single tile.  This is a faithful port of the paper's Algorithm 1 including
the head/middle/tail split per dimension and the cross product across
dimensions.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

from repro.errors import GeometryError
from repro.geometry.hyperrect import Hyperrect


def _decompose_dim(p: int, q: int, t: int) -> list[tuple[int, int]]:
    """Split one ``[p, q)`` interval along tile size *t* (Alg 1 lines 2-18).

    Returns up to three intervals: a head (from *p* to the next tile
    boundary), a middle run of whole tiles, and a tail.  When the whole
    interval falls inside one tile it is returned unchanged.
    """
    if t <= 0:
        raise GeometryError(f"tile size must be positive, got {t}")
    if p >= q:
        return []
    a = (p // t) * t  # tile boundary at or below p (Alg 1 line 3)
    b = ((p + t - 1) // t) * t  # tile boundary at or above p
    c = (q // t) * t  # tile boundary at or below q (Alg 1 line 4)
    out: list[tuple[int, int]] = []
    if b <= c:
        # p and q fall in different tiles (Alg 1 lines 8-16).
        if a < p:
            out.append((p, b))  # head: p not tile-aligned
            if b < c:
                out.append((b, c))  # middle run of whole tiles
        else:
            out.append((a, c))  # p aligns with a: head merges into middle
        if c < q:
            out.append((c, q))  # tail: q not tile-aligned
    else:
        # a == c: the whole interval lives inside one tile (line 18).
        out.append((p, q))
    return [(s, e) for s, e in out if s < e]


def decompose_tensor(
    tensor: Hyperrect, tile_sizes: Sequence[int]
) -> list[Hyperrect]:
    """Decompose *tensor* into subtensors along tile boundaries (Alg 1).

    Each returned subtensor either spans an exact run of whole tiles in a
    dimension or lies strictly inside one tile in that dimension, never
    straddling a boundary partially.  The union of the result equals the
    input and the pieces are disjoint.
    """
    if tensor.ndim != len(tile_sizes):
        raise GeometryError(
            f"tensor rank {tensor.ndim} != tile rank {len(tile_sizes)}"
        )
    if tensor.is_empty:
        return []
    # Memoized: lowering decomposes the same (domain, tile) pairs for
    # every host iteration of a region, and both arguments are frozen
    # value types.  A fresh list is returned so callers may mutate it.
    return list(_decompose_cached(tensor, tuple(tile_sizes)))


@lru_cache(maxsize=65536)
def _decompose_cached(
    tensor: Hyperrect, tile_sizes: tuple[int, ...]
) -> tuple[Hyperrect, ...]:
    per_dim: list[list[tuple[int, int]]] = []
    for dim in range(tensor.ndim):
        p, q = tensor.interval(dim)
        per_dim.append(_decompose_dim(p, q, int(tile_sizes[dim])))
    # Cross product of the per-dimension splits (Alg 1 lines 6-18).
    return tuple(
        Hyperrect.from_bounds(bounds) for bounds in itertools.product(*per_dim)
    )


def tile_index_range(
    tensor: Hyperrect, tile_sizes: Sequence[int]
) -> Hyperrect:
    """The hyperrectangle of *tile indices* touched by the tensor.

    Tile ``(i0, ..., iN-1)`` covers cells ``[i_k * t_k, (i_k + 1) * t_k)``.
    """
    if tensor.is_empty:
        return Hyperrect.empty(tensor.ndim)
    starts = tuple(
        p // int(t) for p, t in zip(tensor.starts, tile_sizes)
    )
    ends = tuple(
        (q + int(t) - 1) // int(t) for q, t in zip(tensor.ends, tile_sizes)
    )
    return Hyperrect(starts, ends)
