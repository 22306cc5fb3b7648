"""AST traversal and rewriting utilities.

Three mechanisms:

* :func:`walk` / :class:`Node.walk` — pre-order generator over a subtree.
* :class:`ExprTransformer` — bottom-up expression rewriter; subclass and
  override ``visit_<NodeName>`` methods returning replacement nodes.
* :func:`rewrite_body` / :func:`map_statements` — statement-list rewriting
  where one statement may expand to several (splicing), which is what the
  pre-push transformation needs.

Plus structural helpers: :func:`clone` (deep copy), :func:`find_all`,
:func:`contains_name`, and :func:`substitute`.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Iterator, List, Optional, Type, TypeVar, Union

from .ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    DoLoop,
    Expr,
    FuncCall,
    If,
    Node,
    Print,
    Slice,
    Stmt,
    UnaryOp,
    VarRef,
    WhileLoop,
)

T = TypeVar("T", bound=Node)


def clone(node: T) -> T:
    """Deep-copy an AST subtree (transformations never share subtrees)."""
    return copy.deepcopy(node)


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of ``node`` and descendants."""
    yield from node.walk()


def find_all(node: Node, kind: Type[T]) -> List[T]:
    """All descendants (including ``node``) of the given node class."""
    return [n for n in node.walk() if isinstance(n, kind)]


def contains_name(node: Node, name: str) -> bool:
    """True if any VarRef/ArrayRef/FuncCall with ``name`` occurs in the tree."""
    for n in node.walk():
        if isinstance(n, (VarRef, ArrayRef, FuncCall)) and n.name == name:
            return True
    return False


def substitute(expr: Expr, bindings: Dict[str, Expr]) -> Expr:
    """Return a copy of ``expr`` with VarRefs replaced per ``bindings``.

    Replacement subtrees are cloned at each substitution site so the result
    shares no structure with the inputs.
    """

    class _Sub(ExprTransformer):
        def visit_VarRef(self, node: VarRef) -> Expr:
            if node.name in bindings:
                return clone(bindings[node.name])
            return node

    return _Sub().visit(clone(expr))


class ExprTransformer:
    """Bottom-up expression rewriter.

    ``visit`` recurses into children first, then dispatches to
    ``visit_<ClassName>`` if defined.  Handlers return the (possibly new)
    node.  The input tree is mutated in place; pass a :func:`clone` if the
    original must be preserved.
    """

    def visit(self, node: Expr) -> Expr:
        if isinstance(node, BinOp):
            node.left = self.visit(node.left)
            node.right = self.visit(node.right)
        elif isinstance(node, UnaryOp):
            node.operand = self.visit(node.operand)
        elif isinstance(node, (ArrayRef, FuncCall)):
            attr = "subs" if isinstance(node, ArrayRef) else "args"
            setattr(node, attr, [self.visit(s) for s in getattr(node, attr)])
        elif isinstance(node, Slice):
            if node.lo is not None:
                node.lo = self.visit(node.lo)
            if node.hi is not None:
                node.hi = self.visit(node.hi)
        handler = getattr(self, f"visit_{type(node).__name__}", None)
        if handler is not None:
            return handler(node)
        return node


def transform_exprs_in_stmt(stmt: Stmt, fn: Callable[[Expr], Expr]) -> None:
    """Apply ``fn`` to every top-level expression slot of one statement.

    Does not recurse into nested statement bodies — use
    :func:`transform_exprs` for whole-subtree rewriting.
    """
    if isinstance(stmt, Assign):
        stmt.lhs = fn(stmt.lhs)
        stmt.rhs = fn(stmt.rhs)
    elif isinstance(stmt, (CallStmt,)):
        stmt.args = [fn(a) for a in stmt.args]
    elif isinstance(stmt, Print):
        stmt.items = [fn(e) for e in stmt.items]
    elif isinstance(stmt, DoLoop):
        stmt.lo = fn(stmt.lo)
        stmt.hi = fn(stmt.hi)
        if stmt.step is not None:
            stmt.step = fn(stmt.step)
    elif isinstance(stmt, WhileLoop):
        stmt.cond = fn(stmt.cond)
    elif isinstance(stmt, If):
        stmt.branches = [(fn(c), b) for c, b in stmt.branches]


def transform_exprs(stmts: List[Stmt], fn: Callable[[Expr], Expr]) -> None:
    """Apply ``fn`` to every expression in a statement list, recursively."""
    for s in stmts:
        transform_exprs_in_stmt(s, fn)
        for body in child_bodies(s):
            transform_exprs(body, fn)


def child_bodies(stmt: Stmt) -> List[List[Stmt]]:
    """The nested statement lists of a compound statement."""
    if isinstance(stmt, (DoLoop, WhileLoop)):
        return [stmt.body]
    if isinstance(stmt, If):
        return [b for _, b in stmt.branches] + [stmt.else_body]
    return []


#: A statement rewriter returns None (keep as-is), a Stmt, or a list of
#: statements to splice in place of the original.
StmtRewrite = Optional[Union[Stmt, List[Stmt]]]


def rewrite_body(
    body: List[Stmt],
    fn: Callable[[Stmt], StmtRewrite],
    *,
    recurse: bool = True,
) -> List[Stmt]:
    """Rewrite a statement list with splicing.

    ``fn`` is called on each statement (after its children have been
    rewritten when ``recurse``).  Returning ``None`` keeps the statement,
    a statement replaces it, and a list splices multiple statements.
    """
    out: List[Stmt] = []
    for stmt in body:
        if recurse:
            for nested in child_bodies(stmt):
                nested[:] = rewrite_body(nested, fn, recurse=True)
        result = fn(stmt)
        if result is None:
            out.append(stmt)
        elif isinstance(result, list):
            out.extend(result)
        else:
            out.append(result)
    return out


def statements(body: List[Stmt]) -> Iterator[Stmt]:
    """Iterate all statements in a body, recursively (pre-order)."""
    for s in body:
        yield s
        for nested in child_bodies(s):
            yield from statements(nested)


def index_of(body: List[Stmt], target: Stmt) -> int:
    """Index of ``target`` in ``body`` by identity; -1 if absent."""
    for i, s in enumerate(body):
        if s is target:
            return i
    return -1


def find_enclosing_body(
    roots: List[Stmt], target: Stmt
) -> Optional[List[Stmt]]:
    """Find the statement list that directly contains ``target`` (identity).

    Searches ``roots`` and all nested bodies; returns the containing list or
    None.  Used by transformations that splice relative to a found node.
    """
    if index_of(roots, target) >= 0:
        return roots
    for s in roots:
        for nested in child_bodies(s):
            found = find_enclosing_body(nested, target)
            if found is not None:
                return found
    return None
