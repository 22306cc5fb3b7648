"""Loop-nest discovery and classification utilities.

The pattern detector needs to find, for a communication call ``C``, the
loop nest ℓ that finalizes the send array: *"the last loop nest not in a
conditional statement, lexically preceding C, that mutates As"* (§3.1).
It also needs structural facts about a nest: the ordered loop chain, the
perfect-nest prefix, which loop's variable indexes a given array
dimension (the *node loop* for the last dimension), and whether the nest
body is branch-free (the paper's SPMD restriction: no ``if`` statements
in the code that stores into the exchanged array).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..lang.ast_nodes import (
    ArrayRef,
    Assign,
    CallStmt,
    DoLoop,
    If,
    Stmt,
    VarRef,
    WhileLoop,
)
from ..lang.visitor import child_bodies, walk
from .affine import try_affine
from .deps import LoopSpec


@dataclass
class NestInfo:
    """A loop nest rooted at ``root`` with its ordered loop chain.

    ``loops`` lists the chain outermost-first, following the unique-child
    chain as long as each loop body is (modulo non-loop statements placed
    before/after) a single nested loop; the chain stops at the first body
    containing either multiple loops or interleaved statements that make
    deeper loops non-chain.  ``specs`` are affine bound specs aligned with
    ``loops``.
    """

    root: DoLoop
    loops: List[DoLoop]

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def loop_vars(self) -> List[str]:
        return [l.var for l in self.loops]

    def specs(self, params: Optional[Mapping[str, int]] = None) -> List[LoopSpec]:
        return [LoopSpec.from_doloop(l, params) for l in self.loops]

    @property
    def innermost(self) -> DoLoop:
        return self.loops[-1]


def loop_chain(root: DoLoop) -> NestInfo:
    """Follow the nest chain from ``root`` downward.

    A loop continues the chain when its body contains exactly one DoLoop
    (any other statements may surround it).  This matches the common
    "multiply-nested loop with a computation kernel inside" shape of §2.
    """
    loops = [root]
    current = root
    while True:
        inner_loops = [s for s in current.body if isinstance(s, DoLoop)]
        if len(inner_loops) != 1:
            break
        current = inner_loops[0]
        loops.append(current)
    return NestInfo(root=root, loops=loops)


def is_perfect_nest(nest: NestInfo) -> bool:
    """True when every non-innermost body contains only the next loop."""
    for loop in nest.loops[:-1]:
        if len(loop.body) != 1:
            return False
    return True


def contains_branch(stmts: Sequence[Stmt]) -> bool:
    """True if an ``if`` occurs anywhere under the statements (recursive)."""
    for s in stmts:
        if isinstance(s, If):
            return True
        for b in child_bodies(s):
            if contains_branch(b):
                return True
    return False


def contains_while(stmts: Sequence[Stmt]) -> bool:
    for s in stmts:
        if isinstance(s, WhileLoop):
            return True
        for b in child_bodies(s):
            if contains_while(b):
                return True
    return False


def mutates_array(stmt: Stmt, array: str, byref_mutators: Mapping[str, Sequence[int]] = {}) -> bool:
    """Does ``stmt`` (recursively) write to ``array``?

    Direct writes are assignments whose target names the array.  Indirect
    writes are calls passing the array in an argument position the callee
    is known (or assumed) to mutate; ``byref_mutators`` maps callee name ->
    mutated argument indices (0-based).  Calls to *unknown* procedures are
    NOT treated as mutators here — the pattern layer handles the paper's
    semi-automatic query for that case.
    """
    for node in _stmts_recursive([stmt]):
        if isinstance(node, Assign):
            lhs = node.lhs
            if isinstance(lhs, (ArrayRef, VarRef)) and lhs.name == array:
                return True
        elif isinstance(node, CallStmt):
            positions = byref_mutators.get(node.name)
            if positions is None:
                continue
            for idx in positions:
                if idx < len(node.args):
                    arg = node.args[idx]
                    if isinstance(arg, (VarRef, ArrayRef)) and arg.name == array:
                        return True
    return False


def references_array(stmt: Stmt, array: str) -> bool:
    """Does ``stmt`` mention ``array`` at all (read or write)?"""
    for node in walk(stmt):
        if isinstance(node, (ArrayRef, VarRef)) and node.name == array:
            return True
    return False


def _stmts_recursive(stmts: Sequence[Stmt]):
    for s in stmts:
        yield s
        for b in child_bodies(s):
            yield from _stmts_recursive(b)


def find_last_mutating_nest(
    body: Sequence[Stmt],
    before_index: int,
    array: str,
    byref_mutators: Mapping[str, Sequence[int]] = {},
) -> Optional[Tuple[int, DoLoop]]:
    """§3.1's ℓ: the last top-level loop before ``before_index`` mutating
    ``array``, not inside a conditional.

    Returns (index in body, loop) or None.  Loops nested inside ``if``
    statements are intentionally not considered (the paper requires the
    mutator nest to execute unconditionally on all nodes).
    """
    for i in range(before_index - 1, -1, -1):
        s = body[i]
        if isinstance(s, DoLoop) and mutates_array(s, array, byref_mutators):
            return i, s
    return None


def loop_indexing_dimension(
    nest: NestInfo,
    ref: ArrayRef,
    dim_index: int,
    params: Optional[Mapping[str, int]] = None,
) -> Optional[DoLoop]:
    """Which nest loop's variable drives subscript ``dim_index`` of ``ref``.

    Returns the unique loop whose variable has a nonzero coefficient in the
    affine form of that subscript, or None when the subscript is constant,
    non-affine, or driven by several loop variables.
    """
    if dim_index >= len(ref.subs):
        return None
    sub = try_affine(ref.subs[dim_index], params)
    if sub is None:
        return None
    driving = [l for l in nest.loops if sub.depends_on(l.var)]
    if len(driving) == 1:
        return driving[0]
    return None
