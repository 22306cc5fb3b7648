"""Concise AST construction helpers for code generators and tests.

The transformation passes build non-trivial replacement code (the paper's
Figure 4 communication loop, leftover handling, waits).  Building that with
raw dataclass constructors is noisy; these helpers read close to the
generated Fortran.

Example::

    from repro.lang import builder as b

    loop = b.do("j", 1, b.sub(b.var("np"), 1), [
        b.assign(b.var("to"), b.call_expr("mod", b.add(b.var("mynum"),
                                                       b.var("j")),
                                          b.var("np"))),
    ])
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Comment,
    DimSpec,
    DoLoop,
    EntityDecl,
    Expr,
    FuncCall,
    If,
    IntLit,
    RealLit,
    Slice,
    Stmt,
    TypeDecl,
    UnaryOp,
    VarRef,
)

ExprLike = Union[Expr, int, float, str]


def lift(value: ExprLike) -> Expr:
    """Coerce ints/floats/names into AST expression nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("use BoolLit for logical literals")
    if isinstance(value, int):
        return IntLit(value=value) if value >= 0 else UnaryOp(
            op="-", operand=IntLit(value=-value)
        )
    if isinstance(value, float):
        return RealLit(value=value)
    if isinstance(value, str):
        return VarRef(name=value)
    raise TypeError(f"cannot lift {value!r} to an expression")


def var(name: str) -> VarRef:
    return VarRef(name=name)


def clone_expr(e: Expr) -> Expr:
    """Deep-copy an expression (generated trees must never share nodes)."""
    from .visitor import clone

    return clone(e)


def lit(value: int) -> IntLit:
    return IntLit(value=value)


def aref(name: str, *subs: ExprLike) -> ArrayRef:
    return ArrayRef(name=name, subs=[lift(s) for s in subs])


def slice_(lo: Optional[ExprLike] = None, hi: Optional[ExprLike] = None) -> Slice:
    return Slice(
        lo=lift(lo) if lo is not None else None,
        hi=lift(hi) if hi is not None else None,
    )


def call_expr(name: str, *args: ExprLike) -> FuncCall:
    return FuncCall(name=name, args=[lift(a) for a in args])


def binop(op: str, left: ExprLike, right: ExprLike) -> BinOp:
    return BinOp(op=op, left=lift(left), right=lift(right))


def add(left: ExprLike, right: ExprLike) -> Expr:
    """``left + right`` with constant folding of zero/int cases.

    A negative integer addend folds into a subtraction so generated code
    reads ``ix - 3`` rather than ``ix + -3``.
    """
    if isinstance(right, int) and not isinstance(right, bool) and right < 0:
        return sub(left, -right)
    lhs, rhs = lift(left), lift(right)
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        return IntLit(value=lhs.value + rhs.value)
    if isinstance(lhs, IntLit) and lhs.value == 0:
        return rhs
    if isinstance(rhs, IntLit) and rhs.value == 0:
        return lhs
    return BinOp(op="+", left=lhs, right=rhs)


def sub(left: ExprLike, right: ExprLike) -> Expr:
    lhs, rhs = lift(left), lift(right)
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        return lift(lhs.value - rhs.value)
    if isinstance(rhs, IntLit) and rhs.value == 0:
        return lhs
    return BinOp(op="-", left=lhs, right=rhs)


def mul(left: ExprLike, right: ExprLike) -> Expr:
    lhs, rhs = lift(left), lift(right)
    if isinstance(lhs, IntLit) and isinstance(rhs, IntLit):
        return IntLit(value=lhs.value * rhs.value)
    if isinstance(lhs, IntLit) and lhs.value == 1:
        return rhs
    if isinstance(rhs, IntLit) and rhs.value == 1:
        return lhs
    if (isinstance(lhs, IntLit) and lhs.value == 0) or (
        isinstance(rhs, IntLit) and rhs.value == 0
    ):
        return IntLit(value=0)
    return BinOp(op="*", left=lhs, right=rhs)


def div(left: ExprLike, right: ExprLike) -> Expr:
    lhs, rhs = lift(left), lift(right)
    if isinstance(rhs, IntLit) and rhs.value == 1:
        return lhs
    if (
        isinstance(lhs, IntLit)
        and isinstance(rhs, IntLit)
        and rhs.value != 0
        and lhs.value % rhs.value == 0
    ):
        return IntLit(value=lhs.value // rhs.value)
    return BinOp(op="/", left=lhs, right=rhs)


def mod(left: ExprLike, right: ExprLike) -> FuncCall:
    return call_expr("mod", left, right)


def eq(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("==", left, right)


def ne(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("/=", left, right)


def lt(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("<", left, right)


def le(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("<=", left, right)


def gt(left: ExprLike, right: ExprLike) -> BinOp:
    return binop(">", left, right)


def ge(left: ExprLike, right: ExprLike) -> BinOp:
    return binop(">=", left, right)


# ----- statements -----


def assign(lhs: Expr, rhs: ExprLike) -> Assign:
    return Assign(lhs=lhs, rhs=lift(rhs))


def call(name: str, *args: ExprLike) -> CallStmt:
    return CallStmt(name=name, args=[lift(a) for a in args])


def do(
    loop_var: str,
    lo: ExprLike,
    hi: ExprLike,
    body: Sequence[Stmt],
    step: Optional[ExprLike] = None,
) -> DoLoop:
    return DoLoop(
        var=loop_var,
        lo=lift(lo),
        hi=lift(hi),
        step=lift(step) if step is not None else None,
        body=list(body),
    )


def if_(cond: Expr, body: Sequence[Stmt], else_body: Sequence[Stmt] = ()) -> If:
    return If(branches=[(cond, list(body))], else_body=list(else_body))


def comment(text: str) -> Comment:
    return Comment(text=text)


def int_decl(*names: str, dims: Optional[List[DimSpec]] = None) -> TypeDecl:
    return TypeDecl(
        base_type="integer",
        entities=[EntityDecl(name=n, dims=list(dims or [])) for n in names],
    )


def array_decl(
    base_type: str, name: str, *bounds: Union[ExprLike, tuple]
) -> TypeDecl:
    """Declare ``name`` as an array; each bound is ``hi`` or ``(lo, hi)``."""
    dims: List[DimSpec] = []
    for b in bounds:
        if isinstance(b, tuple):
            lo, hi = b
            dims.append(DimSpec(lo=lift(lo), hi=lift(hi)))
        else:
            dims.append(DimSpec(lo=IntLit(value=1), hi=lift(b)))
    return TypeDecl(
        base_type=base_type, entities=[EntityDecl(name=name, dims=dims)]
    )
