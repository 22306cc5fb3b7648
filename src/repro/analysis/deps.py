"""Array data-dependence analysis (output dependences and direction info).

Reproduces the role Petit + the Omega test play in the paper: deciding,
for the loop nest ℓ that finalizes the send array ``As``, whether any
element written by one reference is later overwritten by another (an
*output dependence*).  A write reference with no output dependence *onto*
it from a later iteration is the paper's *safe reference* ``Afs`` — the
element it writes is final and may be pre-pushed.

The decision stack, fastest first:

* **ZIV** — both subscripts constant: equal or not.
* **GCD test** — linear diophantine solvability of the subscript equation.
* **Banerjee bounds** — real-valued min/max of the difference over the
  iteration box.
* **Omega-lite exact test** (:mod:`repro.analysis.omega`) — integer
  feasibility with lexicographic-order constraints, level by level, which
  also yields direction vectors for interchange legality.

Non-affine subscripts or non-unit steps make the test conservative
(dependence assumed, ``exact=False``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import NotAffineError
from ..lang.ast_nodes import ArrayRef, Assign, DoLoop, Stmt
from .affine import Affine, to_affine
from .omega import Constraint, Feasibility, is_feasible

_PRIME_SUFFIX = "$p"


@dataclass
class LoopSpec:
    """One loop of a nest, with affine bounds (symbolic allowed)."""

    var: str
    lo: Affine
    hi: Affine
    step: int = 1

    @staticmethod
    def from_doloop(
        loop: DoLoop, params: Optional[Mapping[str, int]] = None
    ) -> "LoopSpec":
        lo = to_affine(loop.lo, params)
        hi = to_affine(loop.hi, params)
        step = 1
        if loop.step is not None:
            s = to_affine(loop.step, params)
            if not s.is_constant:
                raise NotAffineError("non-constant loop step")
            step = s.const
        return LoopSpec(var=loop.var, lo=lo, hi=hi, step=step)


@dataclass
class WriteRef:
    """A write access to an array inside a nest.

    Attributes:
        ref: the AST node.
        subs: affine subscripts (None entries where non-affine).
        position: lexical pre-order position within the nest body, used to
            order same-iteration accesses.
        depth: number of enclosing nest loops whose variables are in scope.
    """

    ref: ArrayRef
    subs: List[Optional[Affine]]
    position: int
    depth: int

    @property
    def affine(self) -> bool:
        return all(s is not None for s in self.subs)


@dataclass
class Dependence:
    """An output dependence edge source -> sink (sink overwrites source)."""

    source: WriteRef
    sink: WriteRef
    #: per-common-loop direction: '<', '=', or '*' (unknown); loop order is
    #: outermost-first.  Loop-independent dependences have all '='.
    direction: Tuple[str, ...] = ()
    exact: bool = True


def collect_write_refs(
    body: Sequence[Stmt],
    array: str,
    loops: Sequence[LoopSpec],
    params: Optional[Mapping[str, int]] = None,
) -> List[WriteRef]:
    """All assignment targets naming ``array`` inside ``body`` (recursive).

    ``loops`` are the enclosing loop specs, outermost first; subscripts are
    affinized over those loop variables plus free symbols.
    """
    out: List[WriteRef] = []
    counter = [0]

    def visit(stmts: Sequence[Stmt], depth: int) -> None:
        from ..lang.visitor import child_bodies

        for s in stmts:
            counter[0] += 1
            pos = counter[0]
            if isinstance(s, Assign) and isinstance(s.lhs, ArrayRef):
                if s.lhs.name == array:
                    subs: List[Optional[Affine]] = []
                    for e in s.lhs.subs:
                        try:
                            subs.append(to_affine(e, params))
                        except NotAffineError:
                            subs.append(None)
                    out.append(
                        WriteRef(ref=s.lhs, subs=subs, position=pos, depth=depth)
                    )
            nested_depth = depth + (1 if isinstance(s, DoLoop) else 0)
            for b in child_bodies(s):
                visit(b, nested_depth)

    visit(body, len(loops))
    return out


def _prime(name: str) -> str:
    return name + _PRIME_SUFFIX


def _prime_affine(expr: Affine, loop_vars: Sequence[str]) -> Affine:
    out = expr
    for v in loop_vars:
        if out.depends_on(v):
            out = out.substitute(v, Affine.variable(_prime(v)))
    return out


def _bounds_constraints(
    loops: Sequence[LoopSpec], primed: bool
) -> List[Constraint]:
    cons: List[Constraint] = []
    for spec in loops:
        var = _prime(spec.var) if primed else spec.var
        v = Affine.variable(var)
        lo, hi = spec.lo, spec.hi
        if primed:
            names = [s.var for s in loops]
            lo = _prime_affine(lo, names)
            hi = _prime_affine(hi, names)
        cons.append(Constraint.ge(v, lo))
        cons.append(Constraint.le(v, hi))
    return cons


# ---------------------------------------------------------------------------
# Fast filters
# ---------------------------------------------------------------------------


def gcd_test(diff: Affine) -> Feasibility:
    """GCD solvability of ``diff == 0`` ignoring bounds.

    NO is definitive; YES here only means "not refuted".
    """
    if diff.is_constant:
        return Feasibility.YES if diff.const == 0 else Feasibility.NO
    g = 0
    for _, c in diff.coeffs:
        g = math.gcd(g, abs(c))
    if g and diff.const % g != 0:
        return Feasibility.NO
    return Feasibility.MAYBE


def banerjee_test(
    diff: Affine, boxes: Mapping[str, Tuple[Optional[int], Optional[int]]]
) -> Feasibility:
    """Banerjee bounds: can ``diff`` be zero within the variable boxes?

    ``boxes`` gives inclusive numeric [lo, hi] per variable; None means
    unknown (the variable is then unbounded in that direction).  NO is
    definitive; MAYBE means "zero is within [min, max]".
    """
    lo_total: Optional[int] = diff.const
    hi_total: Optional[int] = diff.const
    for v, c in diff.coeffs:
        b_lo, b_hi = boxes.get(v, (None, None))
        lo_term = c * (b_lo if c > 0 else b_hi) if (b_lo if c > 0 else b_hi) is not None else None
        hi_term = c * (b_hi if c > 0 else b_lo) if (b_hi if c > 0 else b_lo) is not None else None
        lo_total = None if (lo_total is None or lo_term is None) else lo_total + lo_term
        hi_total = None if (hi_total is None or hi_term is None) else hi_total + hi_term
    if lo_total is not None and lo_total > 0:
        return Feasibility.NO
    if hi_total is not None and hi_total < 0:
        return Feasibility.NO
    return Feasibility.MAYBE


# ---------------------------------------------------------------------------
# Exact test
# ---------------------------------------------------------------------------


def dependence_at_level(
    src: WriteRef,
    sink: WriteRef,
    loops: Sequence[LoopSpec],
    level: int,
) -> Feasibility:
    """Feasibility of src(I) and sink(I') touching the same element with

    * level in [1, len(loops)]: i_1..i_{level-1} equal, i_level < i'_level
      (a *carried* dependence at that loop level), or
    * level == 0: I == I' and src lexically precedes sink (loop-independent).
    """
    if not (src.affine and sink.affine) or len(src.subs) != len(sink.subs):
        return Feasibility.MAYBE
    if any(s.step != 1 for s in loops):
        return Feasibility.MAYBE
    names = [s.var for s in loops]
    cons: List[Constraint] = []
    cons += _bounds_constraints(loops, primed=False)
    cons += _bounds_constraints(loops, primed=True)
    for a, b in zip(src.subs, sink.subs):
        assert a is not None and b is not None
        cons.append(Constraint.equals(a, _prime_affine(b, names)))
    if level == 0:
        if src.position >= sink.position:
            return Feasibility.NO
        for v in names:
            cons.append(
                Constraint.equals(Affine.variable(v), Affine.variable(_prime(v)))
            )
    else:
        for v in names[: level - 1]:
            cons.append(
                Constraint.equals(Affine.variable(v), Affine.variable(_prime(v)))
            )
        v = names[level - 1]
        cons.append(
            Constraint.lt(Affine.variable(v), Affine.variable(_prime(v)))
        )
    return is_feasible(cons)


def find_output_dependences(
    writes: Sequence[WriteRef],
    loops: Sequence[LoopSpec],
    boxes: Optional[Mapping[str, Tuple[Optional[int], Optional[int]]]] = None,
) -> List[Dependence]:
    """All output dependence edges among ``writes`` within the nest.

    An edge (src -> sink) means: some element written by ``src`` is written
    again, later in execution order, by ``sink``.  Conservative for
    non-affine subscripts.
    """
    deps: List[Dependence] = []
    nloops = len(loops)
    for src in writes:
        for sink in writes:
            # Fast refutation on full subscript difference (ignoring order):
            if src.affine and sink.affine and len(src.subs) == len(sink.subs):
                names = [s.var for s in loops]
                refuted_all = True
                for a_sub, b_sub in zip(src.subs, sink.subs):
                    assert a_sub is not None and b_sub is not None
                    diff = a_sub - _prime_affine(b_sub, names)
                    if gcd_test(diff) is Feasibility.NO:
                        break
                    if boxes is not None:
                        both = dict(boxes)
                        for v in names:
                            if v in both:
                                both[_prime(v)] = both[v]
                        if banerjee_test(diff, both) is Feasibility.NO:
                            break
                else:
                    refuted_all = False
                if refuted_all:
                    continue
            else:
                # non-affine: conservative dependence with unknown direction
                deps.append(
                    Dependence(
                        source=src,
                        sink=sink,
                        direction=("*",) * nloops,
                        exact=False,
                    )
                )
                continue

            for level in range(0, nloops + 1):
                feas = dependence_at_level(src, sink, loops, level)
                if feas is Feasibility.NO:
                    continue
                exact = feas is Feasibility.YES
                if level == 0:
                    direction = ("=",) * nloops
                else:
                    direction = tuple(
                        "=" if k < level - 1 else ("<" if k == level - 1 else "*")
                        for k in range(nloops)
                    )
                deps.append(
                    Dependence(
                        source=src, sink=sink, direction=direction, exact=exact
                    )
                )
    return deps


def safe_write_refs(
    writes: Sequence[WriteRef],
    loops: Sequence[LoopSpec],
    boxes: Optional[Mapping[str, Tuple[Optional[int], Optional[int]]]] = None,
) -> List[WriteRef]:
    """The paper's ``Afs`` set: writes with no output dependence onto them.

    A write is *safe* when no later write (same or other reference)
    overwrites its element: it is never the source of an output dependence.
    Safe writes produce final values that may be sent as soon as computed.
    """
    deps = find_output_dependences(writes, loops, boxes)
    unsafe_positions = {id(d.source.ref) for d in deps}
    return [w for w in writes if id(w.ref) not in unsafe_positions]


def collect_read_refs(
    body: Sequence[Stmt],
    array: str,
    loops: Sequence[LoopSpec],
    params: Optional[Mapping[str, int]] = None,
) -> List[WriteRef]:
    """All *read* references to ``array`` inside ``body`` (recursive).

    Reuses the :class:`WriteRef` record (position/depth/affine subscripts);
    the name is historical.  Reads are array references appearing anywhere
    except as an assignment target.
    """
    out: List[WriteRef] = []
    counter = [0]

    def affinize(ref: ArrayRef) -> List[Optional[Affine]]:
        subs: List[Optional[Affine]] = []
        for e in ref.subs:
            try:
                subs.append(to_affine(e, params))
            except NotAffineError:
                subs.append(None)
        return subs

    def exprs_of(stmt: Stmt):
        from ..lang.ast_nodes import Assign as _Assign
        from ..lang.ast_nodes import CallStmt, If, Print, WhileLoop

        if isinstance(stmt, _Assign):
            # subscripts of the LHS are reads; the ref itself is a write
            yield from stmt.lhs.subs if isinstance(stmt.lhs, ArrayRef) else ()
            yield stmt.rhs
        elif isinstance(stmt, CallStmt):
            yield from stmt.args
        elif isinstance(stmt, Print):
            yield from stmt.items
        elif isinstance(stmt, DoLoop):
            yield stmt.lo
            yield stmt.hi
            if stmt.step is not None:
                yield stmt.step
        elif isinstance(stmt, WhileLoop):
            yield stmt.cond
        elif isinstance(stmt, If):
            for cond, _ in stmt.branches:
                yield cond

    def visit(stmts: Sequence[Stmt], depth: int) -> None:
        from ..lang.visitor import child_bodies

        for s in stmts:
            counter[0] += 1
            pos = counter[0]
            for e in exprs_of(s):
                for node in e.walk():
                    if isinstance(node, ArrayRef) and node.name == array:
                        out.append(
                            WriteRef(
                                ref=node,
                                subs=affinize(node),
                                position=pos,
                                depth=depth,
                            )
                        )
            nested_depth = depth + (1 if isinstance(s, DoLoop) else 0)
            for b in child_bodies(s):
                visit(b, nested_depth)

    visit(body, len(loops))
    return out


def all_dependence_directions(
    body: Sequence[Stmt],
    arrays: Sequence[str],
    loops: Sequence[LoopSpec],
    params: Optional[Mapping[str, int]] = None,
) -> List[Tuple[str, ...]]:
    """Direction vectors of every flow/anti/output dependence in the nest.

    For each array: write→write (output), write→read (flow), read→write
    (anti) pairs are tested at every level.  Read→read pairs carry no
    dependence.  Conservative vectors ('*' everywhere) are emitted for
    non-affine references.  Used for loop-interchange legality.
    """
    boxes = boxes_from_loops(loops)
    vectors: List[Tuple[str, ...]] = []
    for array in arrays:
        writes = collect_write_refs(body, array, loops, params)
        reads = collect_read_refs(body, array, loops, params)
        pairs = (
            [(w, w2) for w in writes for w2 in writes]
            + [(w, r) for w in writes for r in reads]
            + [(r, w) for r in reads for w in writes]
        )
        for src, sink in pairs:
            if not (src.affine and sink.affine) or len(src.subs) != len(
                sink.subs
            ):
                vectors.append(("*",) * len(loops))
                continue
            for level in range(0, len(loops) + 1):
                feas = dependence_at_level(src, sink, loops, level)
                if feas is Feasibility.NO:
                    continue
                if level == 0:
                    vectors.append(("=",) * len(loops))
                else:
                    vectors.append(
                        tuple(
                            "="
                            if k < level - 1
                            else ("<" if k == level - 1 else "*")
                            for k in range(len(loops))
                        )
                    )
    return vectors


def boxes_from_loops(
    loops: Sequence[LoopSpec],
) -> Dict[str, Tuple[Optional[int], Optional[int]]]:
    """Numeric bounding boxes for loop variables (None where symbolic)."""
    out: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
    for s in loops:
        lo = s.lo.const if s.lo.is_constant else None
        hi = s.hi.const if s.hi.is_constant else None
        out[s.var] = (lo, hi)
    return out
