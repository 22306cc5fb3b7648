"""Affine (linear + constant) expression algebra over symbolic names.

Dependence testing (the Omega/Banerjee/GCD stack) and array-region
analysis both operate on *affine forms*: integer linear combinations of
variables plus a constant, e.g. ``2*ix + 3*iy - 5``.  This module converts
AST expressions into :class:`Affine` values and provides the arithmetic
the analyses need.

Non-affine expressions (products of variables, ``mod``, division with a
remainder, real arithmetic) raise :class:`~repro.errors.NotAffineError`;
callers treat that as "analyze conservatively".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..errors import NotAffineError
from ..lang.ast_nodes import (
    BinOp,
    Expr,
    FuncCall,
    IntLit,
    UnaryOp,
    VarRef,
)


@dataclass(frozen=True)
class Affine:
    """An affine form ``sum(coeffs[v] * v) + const`` with integer coefficients.

    Immutable; arithmetic returns new instances.  Zero coefficients are
    normalized away so equality is structural.
    """

    coeffs: Tuple[Tuple[str, int], ...] = ()
    const: int = 0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine((), int(value))

    @staticmethod
    def variable(name: str, coeff: int = 1) -> "Affine":
        if coeff == 0:
            return Affine((), 0)
        return Affine(((name, int(coeff)),), 0)

    @staticmethod
    def from_dict(coeffs: Mapping[str, int], const: int = 0) -> "Affine":
        items = tuple(sorted((v, int(c)) for v, c in coeffs.items() if c != 0))
        return Affine(items, int(const))

    # -- views -------------------------------------------------------------

    def as_dict(self) -> Dict[str, int]:
        return dict(self.coeffs)

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def coeff(self, name: str) -> int:
        for v, c in self.coeffs:
            if v == name:
                return c
        return 0

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def depends_on(self, name: str) -> bool:
        return self.coeff(name) != 0

    def depends_on_any(self, names: Iterable[str]) -> bool:
        return any(self.depends_on(n) for n in names)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Affine") -> "Affine":
        d = self.as_dict()
        for v, c in other.coeffs:
            d[v] = d.get(v, 0) + c
        return Affine.from_dict(d, self.const + other.const)

    def __sub__(self, other: "Affine") -> "Affine":
        return self + other.scale(-1)

    def __neg__(self) -> "Affine":
        return self.scale(-1)

    def scale(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine((), 0)
        return Affine(
            tuple((v, c * factor) for v, c in self.coeffs), self.const * factor
        )

    def shift(self, delta: int) -> "Affine":
        return Affine(self.coeffs, self.const + delta)

    def exact_div(self, divisor: int) -> Optional["Affine"]:
        """Divide by ``divisor`` if every coefficient divides exactly."""
        if divisor == 0:
            return None
        if any(c % divisor for _, c in self.coeffs) or self.const % divisor:
            return None
        return Affine(
            tuple((v, c // divisor) for v, c in self.coeffs),
            self.const // divisor,
        )

    def substitute(self, name: str, replacement: "Affine") -> "Affine":
        """Replace variable ``name`` by an affine form."""
        c = self.coeff(name)
        if c == 0:
            return self
        rest = Affine.from_dict(
            {v: k for v, k in self.coeffs if v != name}, self.const
        )
        return rest + replacement.scale(c)

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        """Numeric value given full bindings for all variables."""
        total = self.const
        for v, c in self.coeffs:
            if v not in bindings:
                raise NotAffineError(f"unbound variable {v!r} in evaluation")
            total += c * int(bindings[v])
        return total

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"{c}*{v}" for v, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def to_affine(
    expr: Expr, params: Optional[Mapping[str, int]] = None
) -> Affine:
    """Convert an AST expression to an affine form.

    ``params`` maps known compile-time constants (``parameter``
    declarations) to their values; references to those names fold to
    constants, which lets e.g. ``nx / np`` be affine when both are
    parameters.

    Raises:
        NotAffineError: for non-linear or non-integer constructs.
    """
    params = params or {}

    def rec(e: Expr) -> Affine:
        if isinstance(e, IntLit):
            return Affine.constant(e.value)
        if isinstance(e, VarRef):
            if e.name in params:
                return Affine.constant(params[e.name])
            return Affine.variable(e.name)
        if isinstance(e, UnaryOp):
            if e.op == "-":
                return -rec(e.operand)
            raise NotAffineError(f"operator {e.op!r} is not affine")
        if isinstance(e, BinOp):
            if e.op == "+":
                return rec(e.left) + rec(e.right)
            if e.op == "-":
                return rec(e.left) - rec(e.right)
            if e.op == "*":
                left, right = rec(e.left), rec(e.right)
                if left.is_constant:
                    return right.scale(left.const)
                if right.is_constant:
                    return left.scale(right.const)
                raise NotAffineError("product of two variables is not affine")
            if e.op == "/":
                left, right = rec(e.left), rec(e.right)
                if not right.is_constant or right.const == 0:
                    raise NotAffineError("division by a non-constant")
                exact = left.exact_div(right.const)
                if exact is None:
                    raise NotAffineError(
                        "integer division with possible remainder is not affine"
                    )
                return exact
            if e.op == "**":
                left, right = rec(e.left), rec(e.right)
                if left.is_constant and right.is_constant and right.const >= 0:
                    return Affine.constant(left.const**right.const)
                raise NotAffineError("non-constant exponentiation")
            raise NotAffineError(f"operator {e.op!r} is not affine")
        if isinstance(e, FuncCall):
            if e.name == "mod":
                left, right = rec(e.args[0]), rec(e.args[1])
                if left.is_constant and right.is_constant and right.const != 0:
                    return Affine.constant(_fortran_mod(left.const, right.const))
            if e.name in ("min", "max") and e.args:
                vals = [rec(a) for a in e.args]
                if all(v.is_constant for v in vals):
                    consts = [v.const for v in vals]
                    return Affine.constant(
                        min(consts) if e.name == "min" else max(consts)
                    )
            raise NotAffineError(f"call to {e.name!r} is not affine")
        raise NotAffineError(f"{type(e).__name__} is not affine")

    return rec(expr)


def try_affine(
    expr: Expr, params: Optional[Mapping[str, int]] = None
) -> Optional[Affine]:
    """Like :func:`to_affine` but returns None instead of raising."""
    try:
        return to_affine(expr, params)
    except NotAffineError:
        return None


def _fortran_mod(a: int, b: int) -> int:
    """Fortran ``MOD(a, p) = a - INT(a/p)*p`` — sign follows the dividend."""
    import math

    return int(math.fmod(a, b))
