"""Affine analysis of index and bound expressions.

Streams (and hence tensors) require affine subscripts.  An
:class:`AffineExpr` is a linear combination ``sum(coeff_i * var_i) +
const``; extraction fails with :class:`~repro.errors.FrontendError` on
non-affine forms (which the frontend then treats as indirect access — a
candidate for an embedded stream rather than a tensor, §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import FrontendError
from repro.frontend.kast import BinOp, Call, Expr, Num, Ref, UnaryOp, Var


@dataclass(frozen=True)
class AffineExpr:
    """``sum(coeffs[v] * v) + const`` over integer variables."""

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def constant(value: int) -> "AffineExpr":
        return AffineExpr((), int(value))

    @staticmethod
    def variable(name: str) -> "AffineExpr":
        return AffineExpr(((name, 1),), 0)

    def coeff_map(self) -> dict[str, int]:
        return dict(self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    @property
    def vars(self) -> set[str]:
        return {v for v, _ in self.coeffs}

    def coeff(self, var: str) -> int:
        return self.coeff_map().get(var, 0)

    # -- arithmetic -----------------------------------------------------
    # Constructed expressions keep ``coeffs`` normalized (sorted by
    # variable, unique, nonzero), so the fast paths below can reuse an
    # operand's coefficient tuple without re-sorting.
    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        if not other.coeffs:
            return AffineExpr(self.coeffs, self.const + other.const)
        if not self.coeffs:
            return AffineExpr(other.coeffs, self.const + other.const)
        merged = dict(self.coeffs)
        for v, c in other.coeffs:
            merged[v] = merged.get(v, 0) + c
        return AffineExpr(_normalize(merged), self.const + other.const)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return self + other.scaled(-1)

    def scaled(self, factor: int) -> "AffineExpr":
        if factor == 1:
            return self
        if factor == 0 or not self.coeffs:
            return AffineExpr((), self.const * factor)
        # Scaling by a nonzero factor keeps coefficients nonzero and
        # leaves the variable order untouched: still normalized.
        return AffineExpr(
            tuple([(v, c * factor) for v, c in self.coeffs]),
            self.const * factor,
        )

    def substitute(self, bindings: Mapping[str, int]) -> "AffineExpr":
        """Replace bound variables by their values."""
        if not self.coeffs:
            return self
        remaining: list[tuple[str, int]] = []
        const = self.const
        for v, c in self.coeffs:
            if v in bindings:
                const += c * int(bindings[v])
            else:
                remaining.append((v, c))
        # The unbound subsequence of a normalized tuple is normalized.
        return AffineExpr(tuple(remaining), const)

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        const = self.const
        free = None
        for v, c in self.coeffs:
            if v in bindings:
                const += c * int(bindings[v])
            elif free is None:
                free = [v]
            else:
                free.append(v)
        if free is not None:
            raise FrontendError(
                f"affine expression still has free vars {sorted(free)}"
            )
        return const

    def __str__(self) -> str:
        parts = [f"{c}*{v}" if c != 1 else v for v, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def _normalize(coeffs: Mapping[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))


def extract_affine(expr: Expr) -> AffineExpr:
    """Extract an affine form, raising FrontendError on non-affine input.

    The result is a pure function of the frozen AST node, and region
    builds re-analyze the same parsed expressions once per host
    iteration — so both outcomes (the affine form or the extraction
    error's message) are cached on the node's ``__dict__``.  A failure
    raises a fresh error each time: re-raising one cached exception
    would chain every raising stack (and its locals) onto a traceback
    that lives as long as the AST.
    """
    cached = expr.__dict__.get("_affine")
    if cached is not None:
        if cached.__class__ is str:
            raise FrontendError(cached)
        return cached
    try:
        result = _extract_affine(expr)
    except FrontendError as err:
        expr.__dict__["_affine"] = str(err)
        raise
    expr.__dict__["_affine"] = result
    return result


def _extract_affine(expr: Expr) -> AffineExpr:
    if isinstance(expr, Num):
        if isinstance(expr.value, float) and not expr.value.is_integer():
            raise FrontendError(f"non-integer index constant {expr.value}")
        return AffineExpr.constant(int(expr.value))
    if isinstance(expr, Var):
        return AffineExpr.variable(expr.name)
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return extract_affine(expr.operand).scaled(-1)
    if isinstance(expr, BinOp):
        if expr.op == "+":
            return extract_affine(expr.left) + extract_affine(expr.right)
        if expr.op == "-":
            return extract_affine(expr.left) - extract_affine(expr.right)
        if expr.op == "*":
            left, right = expr.left, expr.right
            lhs = extract_affine(left)
            rhs = extract_affine(right)
            if lhs.is_constant:
                return rhs.scaled(lhs.const)
            if rhs.is_constant:
                return lhs.scaled(rhs.const)
            raise FrontendError(f"non-affine product {expr}")
        raise FrontendError(f"non-affine operator {expr.op!r} in index")
    if isinstance(expr, (Ref, Call)):
        raise FrontendError(f"indirect subscript {expr}")
    raise FrontendError(f"cannot analyze index expression {expr!r}")


def is_affine(expr: Expr) -> bool:
    cached = expr.__dict__.get("_affine")
    if cached is not None:
        return cached.__class__ is not str
    try:
        extract_affine(expr)
        return True
    except FrontendError:
        return False
