"""Transformation-opportunity detection (paper §3.1–§3.2).

For each call ``C`` to ``MPI_ALLTOALL`` in a unit's top-level body, locate:

* ``As`` — the array sent by C (first argument),
* ``Ar`` — the array received by C (fourth argument),
* ``ℓ`` — the last loop nest, not inside a conditional, lexically
  preceding C, that mutates ``As`` (directly or by reference through a
  call, consulting the :class:`~repro.analysis.callinfo.Oracle` for
  procedures whose source is unavailable),

then classify the compute-copy pattern:

* **direct** — ``As`` is assigned directly inside ℓ (Fig. 2a),
* **indirect** — ℓ's outer body calls a producer ``P(..., At)`` and then
  copies ``At`` into ``As`` in a copy loop ``ℓcp`` (Fig. 3a); the copy
  must be verified to be a flat-order-preserving bijection before the
  copy-elimination transformation may fire.

Finally run the safety analyses: SPMD branch-freedom inside ℓ, no uses of
``As``/``Ar`` between ℓ and C, and output-dependence freedom of the
``As`` writes (the *safe reference* requirement of §3.3).

The detector never raises on an unsuitable candidate — it returns
:class:`Rejection` records with human-readable reasons, which is what the
semi-automatic tool surfaces to the user.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import AnalysisError, NotAffineError
from ..lang.ast_nodes import (
    ArrayRef,
    Assign,
    CallStmt,
    DoLoop,
    SourceFile,
    Stmt,
    Unit,
    VarRef,
)
from ..lang.symtab import SymbolTable, build_symtab
from .affine import Affine, to_affine, try_affine
from .callinfo import Oracle, call_mutates_name, mutated_arg_positions
from .deps import LoopSpec, boxes_from_loops, collect_write_refs, safe_write_refs
from .loops import (
    NestInfo,
    contains_branch,
    contains_while,
    find_last_mutating_nest,
    loop_chain,
    references_array,
)
from .params import parameter_values

#: Names treated as the target collective (paper §3.5 focuses on alltoall).
ALLTOALL_NAMES = ("mpi_alltoall",)


class PatternKind(enum.Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"


@dataclass
class CopyMapInfo:
    """Verified facts about the indirect pattern's copy loop ℓcp.

    The copy ``As(f(cv, outer)) = At(g(cv))`` is *flat-order preserving*
    when, with ``cv`` the copy-loop variable:

    * ``g`` is affine with ``d g / d cv == 1`` and sweeps all of ``At``;
    * the column-major flattening of ``f`` is affine with unit ``cv``
      coefficient (consecutive ``At`` elements land on consecutive ``As``
      positions);
    * the copy-loop trip count equals ``At``'s total size.

    ``as_flat_base`` is the flat As offset (0-based) of the slab as an
    affine function of the *outer* loop variables.
    """

    copy_var: str
    trip_count: int
    at_size: int
    as_flat_base: Affine
    slab_size: int


@dataclass
class Opportunity:
    """One transformable communication site."""

    unit: Unit
    body: List[Stmt]  # the statement list containing both ℓ and C
    call: CallStmt
    call_index: int
    send_array: str
    recv_array: str
    send_count_expr: object  # AST Expr for the per-partition element count
    nest: NestInfo
    nest_index: int
    kind: PatternKind
    params: Dict[str, int] = field(default_factory=dict)
    symtab: Optional[SymbolTable] = None
    # indirect-pattern extras
    producer_call: Optional[CallStmt] = None
    temp_array: Optional[str] = None
    copy_loop: Optional[DoLoop] = None
    copy_assign: Optional[Assign] = None
    copy_map: Optional[CopyMapInfo] = None
    # diagnostics
    notes: List[str] = field(default_factory=list)


@dataclass
class Rejection:
    """Why a candidate alltoall site was not transformable."""

    call: CallStmt
    call_index: int
    reason: str


@dataclass
class DetectionResult:
    opportunities: List[Opportunity]
    rejections: List[Rejection]


def find_opportunities(
    source: SourceFile,
    unit: Optional[Unit] = None,
    oracle: Optional[Oracle] = None,
    alltoall_names: Sequence[str] = ALLTOALL_NAMES,
) -> DetectionResult:
    """Scan ``unit`` (default: the main program) for transformable sites."""
    unit = unit or source.main
    symtab = build_symtab(unit)
    try:
        params = parameter_values(unit)
    except AnalysisError:
        params = {}
    byref = mutated_arg_positions(source, oracle)

    opportunities: List[Opportunity] = []
    rejections: List[Rejection] = []

    body = unit.body
    for idx, stmt in enumerate(body):
        if not isinstance(stmt, CallStmt) or stmt.name not in alltoall_names:
            continue
        result = _inspect_site(
            source, unit, symtab, params, byref, body, idx, stmt, oracle
        )
        if isinstance(result, Opportunity):
            opportunities.append(result)
        else:
            rejections.append(result)

    # Also scan inside top-level loops (the Fig. 2 shape: C inside the
    # outer time-step loop, ℓ being an inner nest).
    for outer_idx, outer in enumerate(body):
        if not isinstance(outer, DoLoop):
            continue
        for idx, stmt in enumerate(outer.body):
            if not isinstance(stmt, CallStmt) or stmt.name not in alltoall_names:
                continue
            result = _inspect_site(
                source,
                unit,
                symtab,
                params,
                byref,
                outer.body,
                idx,
                stmt,
                oracle,
            )
            if isinstance(result, Opportunity):
                opportunities.append(result)
            else:
                rejections.append(result)

    return DetectionResult(opportunities, rejections)


def _inspect_site(
    source: SourceFile,
    unit: Unit,
    symtab: SymbolTable,
    params: Dict[str, int],
    byref: Mapping[str, Set[int]],
    body: List[Stmt],
    call_index: int,
    call: CallStmt,
    oracle: Optional[Oracle],
):
    """Classify one alltoall call site; returns Opportunity or Rejection."""

    def reject(reason: str) -> Rejection:
        return Rejection(call=call, call_index=call_index, reason=reason)

    if len(call.args) < 7:
        return reject("alltoall call has too few arguments to analyze")
    send_arg, recv_arg = call.args[0], call.args[3]
    if not isinstance(send_arg, VarRef) or not isinstance(recv_arg, VarRef):
        return reject("send/recv buffers must be whole-array references")
    as_name, ar_name = send_arg.name, recv_arg.name
    as_sym = symtab.lookup(as_name)
    ar_sym = symtab.lookup(ar_name)
    if as_sym is None or not as_sym.is_array:
        return reject(f"send buffer {as_name!r} is not a declared array")
    if ar_sym is None or not ar_sym.is_array:
        return reject(f"recv buffer {ar_name!r} is not a declared array")

    # --- locate ℓ ---------------------------------------------------------
    byref_seq: Dict[str, Sequence[int]] = {k: sorted(v) for k, v in byref.items()}
    found = find_last_mutating_nest(body, call_index, as_name, byref_seq)
    if found is None:
        # §3.1 conservative rule: a call to an unknown procedure passing As
        # may mutate it; treat the last loop containing such a call as ℓ.
        found = _find_nest_with_unknown_mutator(
            body, call_index, as_name, byref, oracle
        )
    if found is None:
        return reject(f"no loop nest preceding the call mutates {as_name!r}")
    nest_index, root = found
    nest = loop_chain(root)

    # --- SPMD restrictions on ℓ -------------------------------------------
    if contains_branch([root]):
        return reject(
            "nest contains a conditional: SPMD uniform-execution requirement "
            "of the transformation is violated"
        )
    if contains_while([root]):
        return reject("nest contains a while loop: trip count not analyzable")
    for loop in nest.loops:
        if loop.step is not None:
            step = try_affine(loop.step, params)
            if step is None or not step.is_constant or step.const != 1:
                return reject(f"loop {loop.var!r} has a non-unit step")

    # --- intervening statements between ℓ and C ----------------------------
    for between in body[nest_index + 1 : call_index]:
        if references_array(between, as_name):
            return reject(
                f"statement between the nest and the call references "
                f"{as_name!r}; pre-pushed data would not be final"
            )
        if references_array(between, ar_name):
            return reject(
                f"statement between the nest and the call references "
                f"{ar_name!r}; receiving early would clobber a live value"
            )

    # --- Ar must not be live inside ℓ --------------------------------------
    if references_array(root, ar_name):
        return reject(
            f"the nest itself references receive array {ar_name!r}; the "
            f"earliest safe receive point is after that use"
        )

    # --- classify direct vs indirect ---------------------------------------
    indirect = _match_indirect(
        source, nest, as_name, symtab, params, byref, oracle
    )
    if isinstance(indirect, str):
        # shaped like the indirect pattern but failed verification
        return reject(indirect)
    if indirect is not None:
        producer, temp, copy_loop, copy_assign, copy_map = indirect
        return Opportunity(
            unit=unit,
            body=body,
            call=call,
            call_index=call_index,
            send_array=as_name,
            recv_array=ar_name,
            send_count_expr=call.args[1],
            nest=nest,
            nest_index=nest_index,
            kind=PatternKind.INDIRECT,
            params=params,
            symtab=symtab,
            producer_call=producer,
            temp_array=temp,
            copy_loop=copy_loop,
            copy_assign=copy_assign,
            copy_map=copy_map,
        )

    # direct pattern: every write to As inside ℓ must be affine and safe
    try:
        specs = nest.specs(params)
    except NotAffineError as exc:
        return reject(f"loop bounds are not affine: {exc}")
    writes = collect_write_refs([root], as_name, specs, params)
    if not writes:
        return reject(
            f"{as_name!r} is only mutated through calls inside the nest; "
            f"direct-pattern analysis needs visible assignments "
            f"(indirect pattern did not verify)"
        )
    if not all(w.affine for w in writes):
        return reject(
            f"a write to {as_name!r} has a non-affine subscript; "
            f"dependence analysis would be unsound"
        )
    boxes = boxes_from_loops(specs)
    safe = safe_write_refs(writes, specs, boxes)
    if len(safe) != len(writes):
        unsafe = len(writes) - len(safe)
        return reject(
            f"{unsafe} write(s) to {as_name!r} have output dependences: "
            f"elements are overwritten by later iterations and are not "
            f"safe to pre-push"
        )

    return Opportunity(
        unit=unit,
        body=body,
        call=call,
        call_index=call_index,
        send_array=as_name,
        recv_array=ar_name,
        send_count_expr=call.args[1],
        nest=nest,
        nest_index=nest_index,
        kind=PatternKind.DIRECT,
        params=params,
        symtab=symtab,
    )


def _find_nest_with_unknown_mutator(
    body: List[Stmt],
    before_index: int,
    array: str,
    byref: Mapping[str, Set[int]],
    oracle: Optional[Oracle],
):
    """Fallback ℓ search: loops whose calls *may* mutate As per the oracle."""
    from ..lang.visitor import statements

    for i in range(before_index - 1, -1, -1):
        s = body[i]
        if not isinstance(s, DoLoop):
            continue
        for stmt in statements([s]):
            if isinstance(stmt, CallStmt) and call_mutates_name(
                stmt, array, byref, oracle
            ):
                return i, s
    return None


# ---------------------------------------------------------------------------
# Indirect (compute-copy) pattern matching and verification (§3.2, §3.4)
# ---------------------------------------------------------------------------


def _match_indirect(
    source: SourceFile,
    nest: NestInfo,
    as_name: str,
    symtab: SymbolTable,
    params: Dict[str, int],
    byref: Mapping[str, Set[int]],
    oracle: Optional[Oracle],
):
    """Match ℓ's outer body against ``[call P(..., At), ℓcp]``.

    Returns None when the shape doesn't match at all (caller tries the
    direct pattern), an error string when it matches but cannot be safely
    transformed, or the verified tuple
    ``(producer, at_name, copy_loop, copy_assign, CopyMapInfo)``.
    """
    outer = nest.root
    calls = [s for s in outer.body if isinstance(s, CallStmt)]
    loops = [s for s in outer.body if isinstance(s, DoLoop)]
    if len(calls) != 1 or len(loops) != 1:
        return None
    producer, copy_loop = calls[0], loops[0]
    if outer.body.index(producer) > outer.body.index(copy_loop):
        return None

    # The copy loop body must be a single assignment As(...) = At(...)
    if len(copy_loop.body) == 1 and isinstance(copy_loop.body[0], Assign):
        copy_assign = copy_loop.body[0]
    else:
        # allow index-helper assignments before the copy (Fig. 3 computes
        # tx/ty first); find the single As assignment
        as_assigns = [
            s
            for s in copy_loop.body
            if isinstance(s, Assign)
            and isinstance(s.lhs, ArrayRef)
            and s.lhs.name == as_name
        ]
        if len(as_assigns) != 1:
            return None
        copy_assign = as_assigns[0]
    if not (
        isinstance(copy_assign.lhs, ArrayRef)
        and copy_assign.lhs.name == as_name
        and isinstance(copy_assign.rhs, ArrayRef)
    ):
        return None
    at_name = copy_assign.rhs.name

    # At must be a declared array that the producer call passes by reference
    at_sym = symtab.lookup(at_name)
    if at_sym is None or not at_sym.is_array:
        return None
    passes_at = any(
        isinstance(a, (VarRef, ArrayRef)) and a.name == at_name
        for a in producer.args
    )
    if not passes_at:
        return None
    known = {k: set(v) for k, v in byref.items()}
    if not call_mutates_name(producer, at_name, known, oracle):
        return (
            f"producer call {producer.name!r} does not appear to write "
            f"{at_name!r}; the indirect pattern cannot be verified"
        )

    # ---- verify the flat-order-preserving copy ----
    # Helper assignments (tx = mod(ix,..) etc.) are inlined by substitution.
    bindings: Dict[str, object] = {}
    for s in copy_loop.body:
        if s is copy_assign:
            break
        if isinstance(s, Assign) and isinstance(s.lhs, VarRef):
            bindings[s.lhs.name] = s.rhs
    lhs = _substitute_helpers(copy_assign.lhs, bindings)
    rhs = _substitute_helpers(copy_assign.rhs, bindings)

    cv = copy_loop.var
    try:
        clo = to_affine(copy_loop.lo, params)
        chi = to_affine(copy_loop.hi, params)
    except NotAffineError:
        return "copy loop bounds are not affine"
    if not (clo.is_constant and chi.is_constant):
        return "copy loop bounds are not compile-time constants"
    trip = chi.const - clo.const + 1

    at_dims = at_sym.dims
    as_sym = symtab.require(as_name)
    try:
        at_size = _total_size(at_dims, params)
        as_strides, as_lows = _layout(as_sym.dims, params)
        at_strides, at_lows = _layout(at_dims, params)
    except NotAffineError:
        return "array bounds are not compile-time constants"
    if trip != at_size:
        return (
            f"copy loop trip count ({trip}) differs from the size of "
            f"{at_name!r} ({at_size}); the copy is not a full-buffer copy"
        )

    # Boxes for the non-negativity side condition of div/mod collapsing:
    # the copy variable's range plus any outer loop ranges that are numeric.
    nn_boxes: Dict[str, Tuple[Optional[int], Optional[int]]] = {
        cv: (clo.const, chi.const)
    }
    for l in nest.loops:
        if l is copy_loop:
            continue
        llo, lhi = try_affine(l.lo, params), try_affine(l.hi, params)
        nn_boxes[l.var] = (
            llo.const if llo is not None and llo.is_constant else None,
            lhi.const if lhi is not None and lhi.is_constant else None,
        )

    try:
        at_flat = _flatten(rhs, at_strides, at_lows, params, nn_boxes)
        as_flat = _flatten(lhs, as_strides, as_lows, params, nn_boxes)
    except NotAffineError:
        return "copy subscripts are not affine after inlining index helpers"

    if at_flat.coeff(cv) != 1:
        return (
            f"the copy does not read {at_name!r} in flat order "
            f"(coefficient of {cv!r} is {at_flat.coeff(cv)}, need 1)"
        )
    # At must be swept from its first element: at_flat == cv - clo
    residual = at_flat - Affine.variable(cv)
    if not residual.is_constant or residual.const != -clo.const:
        return f"the copy does not sweep {at_name!r} from its first element"
    if as_flat.coeff(cv) != 1:
        return (
            "the copy is not flat-order preserving: consecutive elements of "
            f"{at_name!r} do not land on consecutive elements of {as_name!r}"
        )

    as_flat_base = as_flat.substitute(cv, clo)  # flat As offset at cv = clo
    # the base may depend only on outer nest loop variables / constants
    outer_vars = {l.var for l in nest.loops if l is not copy_loop}
    for v in as_flat_base.variables:
        if v not in outer_vars:
            return (
                f"slab base offset depends on {v!r}, which is not an outer "
                f"loop variable; mapping preservation cannot be shown"
            )

    # Output-dependence safety of the copy across iterations, on the
    # *inlined* flat offset (helper variables like tx/ty are substituted
    # away, so the test is exact): can two distinct iterations of the
    # (outer loops + copy loop) nest write the same flat As position?
    outer_loops = [l for l in nest.loops if l is not copy_loop]
    try:
        specs = [LoopSpec.from_doloop(l, params) for l in outer_loops]
        specs.append(LoopSpec.from_doloop(copy_loop, params))
    except NotAffineError:
        return "nest bounds are not affine"
    if _flat_self_overwrite(as_flat, specs):
        return (
            f"slabs written to {as_name!r} by different outer iterations "
            f"overlap; the copy cannot be eliminated safely"
        )

    info = CopyMapInfo(
        copy_var=cv,
        trip_count=trip,
        at_size=at_size,
        as_flat_base=as_flat_base,
        slab_size=at_size,
    )
    return producer, at_name, copy_loop, copy_assign, info


def _flat_self_overwrite(flat: Affine, specs: List[LoopSpec]) -> bool:
    """Can two lexicographically ordered iterations write the same flat
    position?  Exact integer test over the nest bounds."""
    from .deps import _bounds_constraints, _prime, _prime_affine
    from .omega import Constraint, Feasibility, is_feasible

    names = [s.var for s in specs]
    base_cons = _bounds_constraints(specs, primed=False) + _bounds_constraints(
        specs, primed=True
    )
    flat_primed = _prime_affine(flat, names)
    for level in range(1, len(specs) + 1):
        cons = list(base_cons)
        cons.append(Constraint.equals(flat, flat_primed))
        for v in names[: level - 1]:
            cons.append(
                Constraint.equals(Affine.variable(v), Affine.variable(_prime(v)))
            )
        v = names[level - 1]
        cons.append(Constraint.lt(Affine.variable(v), Affine.variable(_prime(v))))
        if is_feasible(cons) is not Feasibility.NO:
            return True
    return False


def _substitute_helpers(ref: ArrayRef, bindings: Dict[str, object]) -> ArrayRef:
    from ..lang.visitor import clone, substitute

    out = clone(ref)
    if bindings:
        out.subs = [substitute(s, bindings) for s in out.subs]  # type: ignore[arg-type]
    return out


def _layout(dims, params):
    """Column-major strides and lower bounds (constant-folded)."""
    strides: List[int] = []
    lows: List[int] = []
    stride = 1
    for d in dims:
        lo = to_affine(d.lo, params)
        hi = to_affine(d.hi, params)
        if not (lo.is_constant and hi.is_constant):
            raise NotAffineError("symbolic array bounds")
        strides.append(stride)
        lows.append(lo.const)
        stride *= hi.const - lo.const + 1
    return strides, lows


def _total_size(dims, params) -> int:
    total = 1
    for d in dims:
        lo = to_affine(d.lo, params)
        hi = to_affine(d.hi, params)
        if not (lo.is_constant and hi.is_constant):
            raise NotAffineError("symbolic array bounds")
        total *= hi.const - lo.const + 1
    return total


def _flatten(ref: ArrayRef, strides, lows, params, boxes=None) -> Affine:
    """0-based flat offset of an array reference as an affine form.

    Subscripts may use ``mod``/integer division (Fig. 3's coordinate
    decomposition); the quasi-affine layer collapses matched div/mod pairs
    back to plain affine form using ``boxes`` for the non-negativity side
    condition.
    """
    from .quasi import collapse_divmod, to_quasi_affine

    if len(ref.subs) != len(strides):
        raise NotAffineError("subscript rank mismatch")
    flat = Affine.constant(0)
    table_all: Dict[str, object] = {}
    for sub, stride, lo in zip(ref.subs, strides, lows):
        a, table = to_quasi_affine(sub, params)
        table_all.update(table)
        flat = flat + (a - Affine.constant(lo)).scale(stride)
    if table_all:
        flat = collapse_divmod(flat, table_all, boxes)  # type: ignore[arg-type]
    return flat
