"""Interprocedural by-reference mutation facts, with the paper's
semi-automatic *oracle* for procedures whose source is unavailable.

Fortran passes arguments by reference, so ``call p(x, a)`` may mutate
``a``.  §3.1: *"As can be mutated directly by assignment, or indirectly by
passing As by reference to a called procedure.  In the former case, if the
source code for the procedure is unavailable, it cannot be guaranteed that
As is written.  To resolve this uncertainty, the user must be queried
(making the system semi-automatic)."*

:func:`mutated_arg_positions` computes, for every subroutine defined in
the file, which dummy-argument positions it may write (a fixed point over
the call graph).  For procedures *not* defined in the file, the
:class:`Oracle` is consulted; the default :class:`ConservativeOracle`
assumes mutation (sound), while :class:`DictOracle` plays back
user-supplied answers, and :class:`RecordingOracle` wraps another oracle
and records what was asked (so tools can show the "user queries" a run
needed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set

from ..lang.ast_nodes import (
    ArrayRef,
    Assign,
    CallStmt,
    SourceFile,
    Subroutine,
    VarRef,
)
from ..lang.visitor import statements


class Oracle:
    """Answers "may procedure ``name`` write its ``i``-th argument?"."""

    def may_mutate(self, procedure: str, arg_index: int) -> bool:
        raise NotImplementedError


class ConservativeOracle(Oracle):
    """Assume every unknown procedure mutates every argument (sound)."""

    def may_mutate(self, procedure: str, arg_index: int) -> bool:
        return True


class DictOracle(Oracle):
    """Answers from a mapping ``{procedure: {mutated arg indices}}``.

    Procedures absent from the mapping fall back to ``default`` (mutates
    everything when True).
    """

    def __init__(
        self, answers: Mapping[str, Set[int]], default: bool = True
    ) -> None:
        self.answers = {k: set(v) for k, v in answers.items()}
        self.default = default

    def may_mutate(self, procedure: str, arg_index: int) -> bool:
        if procedure in self.answers:
            return arg_index in self.answers[procedure]
        return self.default


@dataclass
class Query:
    procedure: str
    arg_index: int
    answer: bool


class RecordingOracle(Oracle):
    """Wraps another oracle, recording every query (semi-automatic audit)."""

    def __init__(self, inner: Optional[Oracle] = None) -> None:
        self.inner = inner or ConservativeOracle()
        self.queries: List[Query] = []

    def may_mutate(self, procedure: str, arg_index: int) -> bool:
        answer = self.inner.may_mutate(procedure, arg_index)
        self.queries.append(Query(procedure, arg_index, answer))
        return answer


def mutated_arg_positions(
    source: SourceFile, oracle: Optional[Oracle] = None
) -> Dict[str, Set[int]]:
    """For each subroutine in ``source``: the set of 0-based dummy
    positions it may mutate (directly or transitively).

    Unknown callees consult ``oracle`` (conservative by default).  The
    fixed point iterates until no subroutine gains new mutated positions.
    """
    oracle = oracle or ConservativeOracle()
    subs: Dict[str, Subroutine] = {
        u.name: u for u in source.units if isinstance(u, Subroutine)
    }
    result: Dict[str, Set[int]] = {name: set() for name in subs}

    changed = True
    while changed:
        changed = False
        for name, sub in subs.items():
            mutated = result[name]
            before = len(mutated)
            param_pos = {p: i for i, p in enumerate(sub.params)}
            for stmt in statements(sub.body):
                if isinstance(stmt, Assign):
                    target = stmt.lhs
                    if isinstance(target, (VarRef, ArrayRef)):
                        pos = param_pos.get(target.name)
                        if pos is not None:
                            mutated.add(pos)
                elif isinstance(stmt, CallStmt):
                    for ai, arg in enumerate(stmt.args):
                        if not isinstance(arg, (VarRef, ArrayRef)):
                            continue
                        pos = param_pos.get(arg.name)
                        if pos is None:
                            continue
                        if stmt.name in result:
                            callee_mutates = ai in result[stmt.name]
                        else:
                            callee_mutates = oracle.may_mutate(stmt.name, ai)
                        if callee_mutates:
                            mutated.add(pos)
            if len(mutated) != before:
                changed = True
    return result


def call_mutates_name(
    call: CallStmt,
    name: str,
    known: Mapping[str, Set[int]],
    oracle: Optional[Oracle] = None,
) -> bool:
    """May this call statement mutate the variable/array ``name``?"""
    oracle = oracle or ConservativeOracle()
    for ai, arg in enumerate(call.args):
        if isinstance(arg, (VarRef, ArrayRef)) and arg.name == name:
            if call.name in known:
                if ai in known[call.name]:
                    return True
            elif oracle.may_mutate(call.name, ai):
                return True
    return False
