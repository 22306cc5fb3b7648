"""External procedures: the paper's "procedure whose source is unavailable".

The indirect pattern (§3.2) computes data in a procedure ``P`` that the
transformer cannot see into; at runtime it is a compiled library routine.
We model such routines as Python callables registered by name.  Each
declares which argument positions it mutates — that is exactly the answer
the paper's semi-automatic *user query* provides, so test programs can
hand the same information to a
:class:`~repro.analysis.callinfo.DictOracle`.

An external also declares its virtual CPU cost (it is compiled code, so
the interpreter's per-statement model does not apply).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Set, Union

import numpy as np

from ..errors import InterpError
from .values import FArray, Scalar

Arg = Union[Scalar, FArray]


@dataclass
class ExternalCall:
    """Context handed to an external procedure implementation."""

    name: str
    args: list
    rank: int
    size: int

    def scalar(self, i: int) -> Scalar:
        v = self.args[i]
        if isinstance(v, FArray):
            raise InterpError(
                f"{self.name}: argument {i} is an array, expected a scalar"
            )
        return v

    def array(self, i: int) -> FArray:
        v = self.args[i]
        if not isinstance(v, FArray):
            raise InterpError(
                f"{self.name}: argument {i} is a scalar, expected an array"
            )
        return v


#: Implementation signature: receives the call context, returns the
#: virtual CPU seconds the routine costs (or None for zero).
ExternalFn = Callable[[ExternalCall], Optional[float]]


@dataclass
class ExternalProc:
    """A registered external procedure."""

    name: str
    fn: ExternalFn
    mutates: Set[int] = field(default_factory=set)

    def oracle_answer(self) -> Set[int]:
        """The mutated-argument answer a user would give the oracle."""
        return set(self.mutates)


class ExternalRegistry:
    """Name -> :class:`ExternalProc` lookup used by the interpreter."""

    def __init__(self, procs: Sequence[ExternalProc] = ()) -> None:
        self._procs: Dict[str, ExternalProc] = {}
        for p in procs:
            self.register(p)

    def register(self, proc: ExternalProc) -> None:
        self._procs[proc.name] = proc

    def lookup(self, name: str) -> Optional[ExternalProc]:
        return self._procs.get(name)

    def names(self) -> Sequence[str]:
        return sorted(self._procs)

    def oracle_answers(self) -> Dict[str, Set[int]]:
        """Answers for a :class:`~repro.analysis.callinfo.DictOracle`."""
        return {name: p.oracle_answer() for name, p in self._procs.items()}


def make_producer(
    name: str,
    producer: Callable[[int, int, int, np.ndarray], None],
    *,
    work_per_element: float = 50e-9,
    out_arg: int = 1,
    step_arg: int = 0,
    slab_size: Optional[int] = None,
) -> ExternalProc:
    """Build the Fig. 3 style producer ``call p(step, at)``.

    ``producer(step, rank, size, out_flat)`` fills the output buffer for
    one outer-loop step.  ``slab_size`` bounds how many elements the
    routine writes; this matters after the copy-elimination transformation
    expands ``At`` with a tile dimension and passes ``At(1, slot)`` by
    sequence association — the routine must then fill exactly one slab,
    not the whole remaining storage.  The external charges
    ``work_per_element * slab`` virtual CPU seconds, modeling the compiled
    kernel the paper's test program hides inside ``P``.
    """

    def fn(call: ExternalCall) -> float:
        step = int(call.scalar(step_arg))
        out = call.array(out_arg)
        flat = out.flat()
        n = min(slab_size, flat.size) if slab_size else flat.size
        producer(step, call.rank, call.size, flat[:n])
        return work_per_element * n

    return ExternalProc(name=name, fn=fn, mutates={out_arg})
