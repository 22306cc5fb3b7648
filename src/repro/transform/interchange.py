"""Loop interchange (paper §3.5).

When the *node loop* (the loop traversing the send array's last, i.e.
partitioned, dimension) is outermost, tiling it would make every tile's
messages target a single node and congest its NIC.  The paper's remedy is
to interchange the node loop inward when data dependences permit.

Legality is the textbook condition [Allen & Kennedy]: interchanging loops
``p`` and ``q`` of a perfect nest is legal iff no dependence direction
vector, after permuting positions ``p`` and ``q``, becomes lexicographically
negative (its first non-'=' entry a '>').  With only '<', '=' and '*'
entries produced by our analysis, the check is: a vector forbids the swap
when the permuted vector could have '>' before any '<'; '*' entries are
treated conservatively.

Scalars assigned and read inside the nest body (index helpers like
``tx``) would defeat a naive dependence test; they are *privatizable*
when every read in an iteration is preceded lexically by a write in the
same innermost body, which is checked here.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import InterchangeError
from ..lang.ast_nodes import ArrayRef, Assign, CallStmt, DoLoop, Stmt, VarRef
from ..lang.visitor import walk
from ..analysis.deps import all_dependence_directions
from ..analysis.loops import NestInfo
from ..analysis.patterns import Opportunity
from .direct import DirectPlan


def arrays_accessed(body: Sequence[Stmt]) -> List[str]:
    """Names of all arrays referenced anywhere under ``body``."""
    names: Set[str] = set()
    for s in body:
        for node in walk(s):
            if isinstance(node, ArrayRef):
                names.add(node.name)
    return sorted(names)


def scalars_privatizable(nest: NestInfo) -> Tuple[bool, str]:
    """Are all scalars written in the innermost body written-before-read?

    Returns (ok, offending name).  Loop variables are excluded.  Scalars
    read before any write in the same iteration carry values across
    iterations and block interchange.
    """
    body = nest.innermost.body
    loop_vars = set(nest.loop_vars)
    written: Set[str] = set()
    for s in body:
        reads: List[str] = []
        if isinstance(s, Assign):
            for node in walk(s.rhs):
                if isinstance(node, VarRef):
                    reads.append(node.name)
            if isinstance(s.lhs, ArrayRef):
                for sub in s.lhs.subs:
                    for node in walk(sub):
                        if isinstance(node, VarRef):
                            reads.append(node.name)
        elif isinstance(s, CallStmt):
            for a in s.args:
                for node in walk(a):
                    if isinstance(node, VarRef):
                        reads.append(node.name)
        for name in reads:
            if name in loop_vars or name in written:
                continue
            # a scalar read that is never written in the body is a nest
            # constant: harmless
            if _scalar_written_in(body, name):
                return False, name
        if isinstance(s, Assign) and isinstance(s.lhs, VarRef):
            written.add(s.lhs.name)
    return True, ""


def _scalar_written_in(body: Sequence[Stmt], name: str) -> bool:
    for s in body:
        if isinstance(s, Assign) and isinstance(s.lhs, VarRef):
            if s.lhs.name == name:
                return True
    return False


def interchange_legal(
    nest: NestInfo,
    p: int,
    q: int,
    params: Optional[Mapping[str, int]] = None,
) -> Tuple[bool, str]:
    """May loops at positions ``p`` and ``q`` (outermost-first) be swapped?

    Returns (legal, reason-if-not).
    """
    if p == q:
        return True, ""
    if p > q:
        p, q = q, p
    # require the nest to be perfectly nested down to loop q so the swap is
    # purely a header exchange
    for loop in nest.loops[:q]:
        if len(loop.body) != 1 or not isinstance(loop.body[0], DoLoop):
            return False, "nest is not perfectly nested down to the inner loop"

    ok, scalar = scalars_privatizable(nest)
    if not ok:
        return False, f"scalar {scalar!r} carries values across iterations"

    try:
        specs = nest.specs(params)
    except Exception as exc:  # NotAffineError
        return False, f"loop bounds not analyzable: {exc}"

    # bounds must not depend on the loop variables being moved across
    for idx in (p, q):
        spec = specs[idx]
        between = {specs[k].var for k in range(p, q + 1) if k != idx}
        if spec.lo.depends_on_any(between) or spec.hi.depends_on_any(between):
            return False, "triangular loop bounds prevent interchange"

    arrays = arrays_accessed([nest.root])
    vectors = all_dependence_directions([nest.root], arrays, specs, params)
    for vec in vectors:
        permuted = list(vec)
        permuted[p], permuted[q] = permuted[q], permuted[p]
        for entry in permuted:
            if entry == "=":
                continue
            if entry == "<":
                break  # lexicographically positive: fine
            # '>' cannot be produced directly, but '*' may hide one
            return False, (
                "a dependence direction vector becomes (or may become) "
                "lexicographically negative after interchange"
            )
    return True, ""


def apply_interchange(nest: NestInfo, p: int, q: int) -> NestInfo:
    """Swap the headers of loops ``p`` and ``q`` in place.

    The loop *bodies* stay attached to their structural positions; only
    (var, lo, hi, step) move, which is the standard header-exchange
    formulation for perfect nests.  Returns a refreshed NestInfo.
    """
    loops = nest.loops
    if not (0 <= p < len(loops) and 0 <= q < len(loops)):
        raise InterchangeError(f"loop positions {p}, {q} out of range")
    a, b = loops[p], loops[q]
    a.var, b.var = b.var, a.var
    a.lo, b.lo = b.lo, a.lo
    a.hi, b.hi = b.hi, a.hi
    a.step, b.step = b.step, a.step
    from ..analysis.loops import loop_chain

    return loop_chain(nest.root)


def try_interchange(opp: Opportunity, probe: DirectPlan) -> bool:
    """§3.5: move the node loop inward when it is outermost and legal.

    Mutates the nest headers in place on success (and refreshes
    ``opp.nest``/``opp.notes``); returns whether the interchange
    happened.
    """
    nest = opp.nest
    if nest.depth < 2:
        return False
    # find an inner loop driving a non-last dimension of the write
    target = None
    for d, acc in enumerate(probe.accesses[:-1]):
        if acc.var is None:
            continue
        for qi, loop in enumerate(nest.loops):
            if qi > 0 and loop.var == acc.var:
                target = qi
                break
        if target is not None:
            break
    if target is None:
        return False
    legal, _reason = interchange_legal(nest, 0, target, opp.params)
    if not legal:
        return False
    opp.nest = apply_interchange(nest, 0, target)
    opp.notes.append(
        f"interchanged loops 1 and {target + 1} to move the node loop "
        f"inward (§3.5)"
    )
    return True
