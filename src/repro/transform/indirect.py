"""Indirect-pattern transformation: copy-loop elimination (paper §3.4, Fig. 3).

The nest's outer loop calls a producer ``P(..., At)`` and then copies
``At`` into a slab of ``As`` (the copy loop ℓcp).  The pattern detector
already verified the copy is a flat-order-preserving full-buffer copy and
that slabs tile ``As`` contiguously.  The transformation then:

1. deletes ℓcp,
2. expands ``At`` with a tile dimension of extent **2K** — two banks of K
   slots used alternately by consecutive tiles (double buffering) — and
   redirects the producer call to ``At(1, slot)`` (Fortran sequence
   association), so K outer iterations fill K distinct slabs before any
   must be sent,
3. sends each slab directly to the partition owner — ``At -> Ar`` by the
   transitivity argument of §3.4 — with the receive placed where the
   alltoall would have put the corresponding ``As`` slab,
4. waits for the *previous* tile's sends at the point the current tile's
   sends are issued.  The send buffers live in ``At`` (unlike the direct
   pattern, where finalized ``As`` elements are immutable), so a slot may
   only be rewritten after its transfer completes; with two banks the
   wait for bank ``b``'s transfers happens one full tile of computation
   after they were issued, which is what lets them overlap.  A single
   bank would force the wait immediately after the issue — correct, but
   with zero overlap.

Because each slab is destined for exactly one partition, the traffic
shape is the paper's congested case (§3.5): every rank sends tile ``t``
to the same owner.  The slab's global index is the message tag, unique
per C execution, so SPMD lockstep pairs messages deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import TransformError
from ..analysis.affine import Affine, try_affine
from ..analysis.patterns import Opportunity
from ..lang import builder as b
from ..lang.ast_nodes import (
    ArrayRef,
    DimSpec,
    Expr,
    IntLit,
    Stmt,
    TypeDecl,
    VarRef,
)
from ..lang.visitor import index_of
from .commgen import _ordinal_expr, _replace_call, final_wait
from .layout import SiteLayout
from .names import SiteNames


@dataclass
class IndirectPlan:
    """Geometry of a verified indirect site."""

    outer_var: str
    outer_lo: int
    outer_hi: int
    trip: int
    tile_size: int
    ntiles: int
    leftover: int
    slab: int  # elements per slab (== At size)
    slabs_per_partition: int
    planes_per_slab: int  # last-dimension thickness of one slab
    at_rank: int  # rank of At before expansion


def analyze_indirect(
    opp: Opportunity, layout: SiteLayout, tile_size: int
) -> IndirectPlan:
    assert opp.copy_map is not None and opp.temp_array is not None
    params = opp.params
    cm = opp.copy_map
    outer = opp.nest.root
    lo = try_affine(outer.lo, params)
    hi = try_affine(outer.hi, params)
    if (
        lo is None
        or hi is None
        or not lo.is_constant
        or not hi.is_constant
    ):
        raise TransformError("outer loop bounds are not compile-time constants")
    outer_lo, outer_hi = lo.const, hi.const
    trip = outer_hi - outer_lo + 1

    S = cm.slab_size
    base = cm.as_flat_base
    # slabs must tile As contiguously in iteration order from element 0
    if base.coeff(opp.nest.root.var) != S:
        raise TransformError(
            f"slabs advance by {base.coeff(opp.nest.root.var)} elements per "
            f"outer iteration but each slab holds {S}; slabs do not tile "
            f"{opp.send_array!r} contiguously"
        )
    start = base.evaluate({opp.nest.root.var: outer_lo})
    if start != 0:
        raise TransformError(
            f"the first slab starts at flat offset {start}, not 0"
        )
    if S * trip != layout.total:
        raise TransformError(
            f"{trip} slabs of {S} elements cover {S * trip} elements but "
            f"{opp.send_array!r} holds {layout.total}"
        )
    if layout.part % S != 0:
        raise TransformError(
            f"partition size {layout.part} is not a whole number of slabs "
            f"({S} elements each); a slab would straddle two destinations"
        )
    if S % layout.lead != 0:
        raise TransformError(
            f"slab size {S} is not a whole number of last-dimension planes "
            f"({layout.lead} elements each); the receive side cannot be "
            f"addressed with sequence association"
        )
    if not 1 <= tile_size <= trip:
        raise TransformError(
            f"tile size {tile_size} outside [1, {trip}]"
        )
    symtab = opp.symtab
    assert symtab is not None
    at_sym = symtab.require(opp.temp_array)
    if at_sym.rank != 1:
        raise TransformError(
            f"temporary array {opp.temp_array!r} has rank {at_sym.rank}; "
            f"the expansion handles the paper's rank-1 temporaries"
        )
    return IndirectPlan(
        outer_var=outer.var,
        outer_lo=outer_lo,
        outer_hi=outer_hi,
        trip=trip,
        tile_size=tile_size,
        ntiles=trip // tile_size,
        leftover=trip % tile_size,
        slab=S,
        slabs_per_partition=layout.part // S,
        planes_per_slab=S // layout.lead,
        at_rank=at_sym.rank,
    )


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def expand_temp_decl(unit, at_name: str, slots: int) -> None:
    """Append a slot dimension of extent ``slots`` (= 2K) to At's decl."""
    for decl in unit.decls:
        if not isinstance(decl, TypeDecl):
            continue
        for ent in decl.entities:
            if ent.name == at_name:
                ent.dims = list(ent.dims) + [
                    DimSpec(lo=IntLit(value=1), hi=IntLit(value=slots))
                ]
                return
    raise TransformError(f"declaration of {at_name!r} not found")


def redirect_producer(opp: Opportunity, names: SiteNames) -> None:
    """Rewrite ``call p(..., at)`` to ``call p(..., at(1, slot))``.

    ``at(1, slot)`` is an element-start actual: by Fortran sequence
    association the producer's rank-1 dummy overlays slab ``slot`` of the
    expanded storage.
    """
    assert opp.producer_call is not None and opp.temp_array is not None
    for i, arg in enumerate(opp.producer_call.args):
        if isinstance(arg, (VarRef, ArrayRef)) and arg.name == opp.temp_array:
            opp.producer_call.args[i] = ArrayRef(
                name=opp.temp_array,
                subs=[IntLit(value=1), b.var(names.slot)],
            )
            return
    raise TransformError(f"producer call does not pass {opp.temp_array!r}")


def gen_slot_assign(plan: IndirectPlan, names: SiteNames) -> Stmt:
    """``slot = mod(rv - rlo, 2K) + 1`` — cycle through both banks."""
    return b.assign(
        b.var(names.slot),
        b.add(
            b.mod(
                b.sub(plan.outer_var, plan.outer_lo), 2 * plan.tile_size
            ),
            1,
        ),
    )


def gen_send_wait(names: SiteNames) -> List[Stmt]:
    """Wait (at tile-end, before issuing this tile's sends) for the sends
    issued by the previous tile — they used the other bank, whose slots
    the producer starts rewriting next iteration."""
    return [
        b.comment(" wait for the previous tile's sends (bank reuse)"),
        b.call("mpi_waitall_sends", b.var(names.ierr)),
    ]


def gen_slab_comm(
    plan: IndirectPlan,
    layout: SiteLayout,
    names: SiteNames,
    opp: Opportunity,
    *,
    slots: int,
    first_global_expr: Expr,
    slot_base_expr: Expr,
) -> List[Stmt]:
    """The per-slab send/recv/self-copy loop over ``slots`` tile slots.

    ``first_global_expr`` is the global (1-based) index of the slab in
    the tile's first slot; ``slot_base_expr`` is the bank offset (0 or K)
    the tile's slots live at within the double-buffered storage.
    """
    at_name = opp.temp_array
    assert at_name is not None
    S = plan.slab
    spp = plan.slabs_per_partition
    pps = plan.planes_per_slab

    s_var, g_var = names.slot_loop, names.g
    assert s_var is not None and g_var is not None

    # g = first_global + (s - 1)
    g_assign = b.assign(
        b.var(g_var),
        b.add(b.clone_expr(first_global_expr), b.sub(s_var, 1)),
    )
    to_assign = b.assign(
        b.var(names.to), b.div(b.sub(g_var, 1), spp)
    )

    def at_start(slot_expr: Expr) -> ArrayRef:
        subs: List[Expr] = [IntLit(value=1) for _ in range(plan.at_rank)]
        subs.append(b.add(b.clone_expr(slot_base_expr), slot_expr))
        return ArrayRef(name=at_name, subs=subs)

    send = b.call(
        "mpi_isend", at_start(b.var(s_var)), S, names.to, g_var, names.ierr
    )

    # receive side: owner posts NP-1 receives into Ar
    # Ar last-dim start = last_lo + (from*spp + (g-1 - me*spp)) * pps
    recv_last = b.add(
        IntLit(value=layout.last_lo),
        b.mul(
            b.add(
                b.mul(b.var(names.from_), spp),
                b.sub(b.sub(g_var, 1), b.mul(b.var(names.me), spp)),
            ),
            pps,
        ),
    )
    ar_start_subs: List[Expr] = [
        IntLit(value=layout.dims[i][0]) for i in range(layout.rank - 1)
    ]
    recv = b.call(
        "mpi_irecv",
        ArrayRef(name=layout.ar_name, subs=ar_start_subs + [recv_last]),
        S,
        names.from_,
        b.var(g_var),
        names.ierr,
    )
    recv_loop = b.do(
        names.j,
        1,
        layout.nprocs - 1,
        [
            b.assign(
                b.var(names.from_),
                b.mod(
                    b.sub(b.add(layout.nprocs, names.me), names.j),
                    layout.nprocs,
                ),
            ),
            recv,
        ],
    )

    self_copy = _gen_self_copy(plan, layout, names, at_name, slot_base_expr)

    slab_body: List[Stmt] = [
        g_assign,
        to_assign,
        b.if_(b.ne(b.var(names.to), b.var(names.me)), [send]),
        b.if_(
            b.eq(b.var(names.to), b.var(names.me)),
            [recv_loop] + self_copy,
        ),
    ]
    return [b.do(s_var, 1, slots, slab_body)]


def _gen_self_copy(
    plan: IndirectPlan,
    layout: SiteLayout,
    names: SiteNames,
    at_name: str,
    slot_base_expr: Expr,
) -> List[Stmt]:
    """Own slab: Ar(plane indices of slab g) = At(flat order, bank + s)."""
    assert names.q is not None and names.g is not None
    q_var = names.q
    idx_vars = names.copy_vars(layout.rank)
    # last-dim plane range of slab g: last_lo + (g-1)*pps .. + pps - 1
    last_start = b.add(
        IntLit(value=layout.last_lo),
        b.mul(b.sub(b.var(names.g), 1), plan.planes_per_slab),
    )
    at_subs: List[Expr] = [
        b.var(q_var),
        b.add(b.clone_expr(slot_base_expr), b.var(names.slot_loop)),
    ]
    assign = b.assign(
        ArrayRef(
            name=layout.ar_name, subs=[b.var(v) for v in idx_vars]
        ),
        ArrayRef(name=at_name, subs=at_subs),
    )
    body: List[Stmt] = [b.assign(b.var(q_var), b.add(q_var, 1)), assign]
    for i in range(layout.rank):
        var = idx_vars[i]
        if i == layout.rank - 1:
            start = last_start
            end = b.add(b.clone_expr(last_start), plan.planes_per_slab - 1)
        else:
            dlo, dhi = layout.dims[i]
            start, end = IntLit(value=dlo), IntLit(value=dhi)
        body = [b.do(var, start, end, body)]
    return [b.assign(b.var(q_var), 0)] + body


def indirect_rewrite(
    opp: Opportunity,
    layout: SiteLayout,
    names: SiteNames,
    plan: IndirectPlan,
    k: int,
) -> None:
    """§3.4 copy-loop elimination for one indirect site (the mutation)."""
    outer = opp.nest.root

    # remove the copy loop ℓcp (§3.4: the aggregation is unnecessary)
    cp_index = index_of(outer.body, opp.copy_loop)
    if cp_index < 0:
        raise TransformError("copy loop vanished before transformation")
    del outer.body[cp_index]

    # At gains a 2K-slot dimension (two banks, double buffering); the
    # producer now fills slab `slot`
    expand_temp_decl(opp.unit, opp.temp_array, 2 * k)
    redirect_producer(opp, names)

    # before the producer: the cyclic slot index
    prod_index = index_of(outer.body, opp.producer_call)
    if prod_index < 0:
        raise TransformError("producer call vanished before transformation")
    outer.body.insert(prod_index, gen_slot_assign(plan, names))

    # end-of-tile guard: wait for the *previous* tile's sends (their
    # bank is rewritten starting next iteration), then send this
    # tile's K slabs from the current bank
    ordinal = _ordinal_expr(plan.outer_var, plan.outer_lo)
    first_global = b.sub(
        _ordinal_expr(plan.outer_var, plan.outer_lo), k - 1
    )
    # bank offset of tile t = mod(t - 1, 2) * K, with t = ordinal / K
    bank = b.mul(
        b.mod(b.sub(b.div(_ordinal_expr(plan.outer_var, plan.outer_lo), k), 1), 2),
        k,
    )
    comm = gen_send_wait(names) + gen_slab_comm(
        plan,
        layout,
        names,
        opp,
        slots=k,
        first_global_expr=first_global,
        slot_base_expr=bank,
    )
    outer.body.append(b.if_(b.eq(b.mod(ordinal, k), 0), comm))

    # leftover slabs + final wait at the site of C; C removed
    post: List[Stmt] = []
    if plan.leftover:
        post.append(b.comment(" exchange leftover slabs"))
        post.extend(
            gen_slab_comm(
                plan,
                layout,
                names,
                opp,
                slots=plan.leftover,
                first_global_expr=IntLit(
                    value=plan.trip - plan.leftover + 1
                ),
                slot_base_expr=IntLit(value=(plan.ntiles % 2) * k),
            )
        )
    post.extend(final_wait(names))
    _replace_call(opp, post)
