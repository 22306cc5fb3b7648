"""Direct-pattern pre-push transformation (paper §3.3, Figures 2 and 4).

The send array is written by one assignment inside the nest ℓ.  The
outermost loop is tiled by ``K``: a guard at the end of its body fires
every K-th iteration, waits for the previous tile's receives, and issues
the asynchronous sends/receives for the subregion the tile finalized.

Two communication schemes (§3.5):

* **Scheme A** (node loop inside the tiled loop): each tile finalizes a
  slice of *every* partition, so the guard runs the paper's Figure 4
  pairwise loop — one isend/irecv per peer per tile.
* **Scheme B** (node loop *is* the tiled loop, e.g. the 1-D kernel of
  Figure 2): each tile finalizes one contiguous block living inside a
  single partition; all ranks send that block to its owner, and the owner
  posts the matching receives (the congestion-prone case the paper
  describes, exercised by Ablation E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import TransformError
from ..analysis.affine import Affine, try_affine
from ..analysis.deps import collect_write_refs
from ..analysis.patterns import Opportunity
from ..lang import builder as b
from ..lang.ast_nodes import ArrayRef, DoLoop, Expr, IntLit, Slice, Stmt
from .commgen import (
    _ordinal_expr,
    _replace_call,
    figure4_loop,
    final_wait,
    wait_previous_tile,
)
from .layout import SiteLayout
from .names import SiteNames
from .tiling import Tiling


@dataclass(frozen=True)
class DimAccess:
    """How one array dimension is indexed by the (single) write reference:
    ``coeff * var + offset`` with ``coeff`` in {-1, 0, +1}."""

    var: Optional[str]  # None = constant subscript
    coeff: int
    offset: int


@dataclass
class DirectPlan:
    """Everything needed to emit code for a direct-pattern site."""

    scheme: str  # 'A' or 'B'
    tile_var: str
    tile_lo: int
    tile_hi: int
    tile_size: int
    ntiles: int
    leftover: int
    accesses: List[DimAccess]
    tiled_dim: int  # which As dimension the tiled loop drives
    other: int  # product of extents of dims that are neither tiled nor last
    elems_per_tile_per_partition: int  # scheme A message size
    block_elems: int  # scheme B message size (per full tile)


def analyze_direct(
    opp: Opportunity, layout: SiteLayout, tile_size: int
) -> DirectPlan:
    """Validate the site and compute the tiling/communication geometry."""
    params = opp.params
    nest = opp.nest
    specs = nest.specs(params)

    writes = collect_write_refs([nest.root], opp.send_array, specs, params)
    if len(writes) != 1:
        raise TransformError(
            f"{len(writes)} write references to {opp.send_array!r} in the "
            f"nest; the transformation handles exactly one"
        )
    ref = writes[0].ref

    loop_vars = set(nest.loop_vars)
    bounds: Dict[str, Tuple[int, int]] = {}
    for spec in specs:
        if not (spec.lo.is_constant and spec.hi.is_constant):
            raise TransformError(
                f"bounds of loop {spec.var!r} are not compile-time constants"
            )
        bounds[spec.var] = (spec.lo.const, spec.hi.const)

    accesses: List[DimAccess] = []
    seen_vars: set = set()
    for dim_index, sub in enumerate(ref.subs):
        a = try_affine(sub, params)
        if a is None:
            raise TransformError(
                f"subscript {dim_index + 1} of the write to "
                f"{opp.send_array!r} is not affine"
            )
        driving = [v for v in a.variables if v in loop_vars]
        foreign = [v for v in a.variables if v not in loop_vars]
        if foreign:
            raise TransformError(
                f"subscript {dim_index + 1} references {foreign[0]!r}, which "
                f"is neither a loop variable nor a constant"
            )
        if len(driving) == 0:
            accesses.append(DimAccess(var=None, coeff=0, offset=a.const))
            continue
        if len(driving) > 1:
            raise TransformError(
                f"subscript {dim_index + 1} couples loop variables "
                f"{driving}; coupled subscripts are outside the supported "
                f"pattern"
            )
        v = driving[0]
        c = a.coeff(v)
        if abs(c) != 1:
            raise TransformError(
                f"subscript {dim_index + 1} strides by {c}; only unit "
                f"strides cover the array densely"
            )
        if v in seen_vars:
            raise TransformError(
                f"loop variable {v!r} drives two subscripts (diagonal "
                f"access); unsupported"
            )
        seen_vars.add(v)
        accesses.append(DimAccess(var=v, coeff=c, offset=a.const))

    # --- coverage: the nest must finalize the whole array -------------------
    for dim_index, (acc, (dlo, dhi)) in enumerate(zip(accesses, layout.dims)):
        if acc.var is None:
            if dlo != dhi or acc.offset != dlo:
                raise TransformError(
                    f"dimension {dim_index + 1} of {opp.send_array!r} is not "
                    f"fully written by the nest (constant subscript)"
                )
            continue
        vlo, vhi = bounds[acc.var]
        if acc.coeff == 1:
            span = (vlo + acc.offset, vhi + acc.offset)
        else:
            span = (acc.offset - vhi, acc.offset - vlo)
        if span != (dlo, dhi):
            raise TransformError(
                f"dimension {dim_index + 1} of {opp.send_array!r}: the nest "
                f"writes [{span[0]}, {span[1]}] but the array spans "
                f"[{dlo}, {dhi}]; pre-pushing would send stale elements the "
                f"original code would have finalized"
            )

    # --- choose the tiled loop: the outermost ------------------------------
    tiled = nest.loops[0]
    tile_var = tiled.var
    tile_lo, tile_hi = bounds[tile_var]
    trip = tile_hi - tile_lo + 1
    if not 1 <= tile_size <= trip:
        raise TransformError(
            f"tile size {tile_size} outside [1, {trip}] for loop "
            f"{tile_var!r}"
        )
    tiled_dims = [i for i, acc in enumerate(accesses) if acc.var == tile_var]
    if not tiled_dims:
        raise TransformError(
            f"outermost loop {tile_var!r} does not index "
            f"{opp.send_array!r}; every tile would rewrite the whole array"
        )
    tiled_dim = tiled_dims[0]
    if accesses[tiled_dim].coeff != 1:
        raise TransformError(
            f"outermost loop {tile_var!r} traverses dimension "
            f"{tiled_dim + 1} in reverse; unsupported"
        )

    node_acc = accesses[-1]
    scheme = "B" if tiled_dim == layout.rank - 1 else "A"

    if scheme == "A":
        if node_acc.var is None:
            raise TransformError(
                "the partitioned (last) dimension has a constant subscript"
            )
        # message per peer per tile: K * (other full extents) * planes
        other = 1
        for i, acc in enumerate(accesses):
            if i in (tiled_dim, layout.rank - 1):
                continue
            other *= layout.extents[i]
        per_part = tile_size * other * layout.planes_per_partition
        plan = DirectPlan(
            scheme="A",
            tile_var=tile_var,
            tile_lo=tile_lo,
            tile_hi=tile_hi,
            tile_size=tile_size,
            ntiles=trip // tile_size,
            leftover=trip % tile_size,
            accesses=accesses,
            tiled_dim=tiled_dim,
            other=other,
            elems_per_tile_per_partition=per_part,
            block_elems=0,
        )
    else:
        planes = layout.planes_per_partition
        if planes % tile_size != 0:
            raise TransformError(
                f"tile size {tile_size} does not divide the partition "
                f"thickness {planes}; a tile would straddle two destination "
                f"partitions"
            )
        block = tile_size * layout.lead
        plan = DirectPlan(
            scheme="B",
            tile_var=tile_var,
            tile_lo=tile_lo,
            tile_hi=tile_hi,
            tile_size=tile_size,
            ntiles=trip // tile_size,
            leftover=trip % tile_size,
            accesses=accesses,
            tiled_dim=tiled_dim,
            other=1,
            elems_per_tile_per_partition=0,
            block_elems=block,
        )
    return plan


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


def _tile_range_exprs(
    acc: DimAccess, tile_var_expr: Expr, k: int
) -> Tuple[Expr, Expr]:
    """Section bounds of the tiled dimension for the tile ending at the
    current value of the tile variable: [tv + off - K + 1, tv + off]."""
    hi = b.add(tile_var_expr, acc.offset)
    lo = b.add(tile_var_expr, acc.offset - k + 1)
    return lo, hi


def _dim_section(
    acc: DimAccess,
    dim_bounds: Tuple[int, int],
    tile_var_expr: Optional[Expr],
    k: int,
    dim_is_tiled: bool,
) -> Expr:
    if dim_is_tiled:
        assert tile_var_expr is not None
        lo, hi = _tile_range_exprs(acc, tile_var_expr, k)
        return Slice(lo=lo, hi=hi)
    dlo, dhi = dim_bounds
    return Slice(lo=IntLit(value=dlo), hi=IntLit(value=dhi))


def gen_comm_block_a(
    plan: DirectPlan,
    layout: SiteLayout,
    names: SiteNames,
    tile_end_expr: Expr,
    k: int,
    tag_expr: Expr,
    *,
    wait_first: bool = True,
) -> List[Stmt]:
    """Paper Figure 4: pairwise exchange of this tile's per-partition slices.

    ``tile_end_expr`` is the value of the tile variable at the last
    iteration of the tile; ``k`` the (possibly leftover-sized) tile extent.
    """
    planes = layout.planes_per_partition
    count = k * plan.other * planes

    def sections(array: str, peer_expr: Expr) -> ArrayRef:
        subs: List[Expr] = []
        for i, acc in enumerate(plan.accesses):
            if i == layout.rank - 1:
                start = b.add(
                    IntLit(value=layout.last_lo),
                    b.mul(peer_expr, planes),
                )
                end = b.add(
                    b.add(IntLit(value=layout.last_lo), b.mul(peer_expr, planes)),
                    planes - 1,
                )
                subs.append(Slice(lo=start, hi=end))
            else:
                subs.append(
                    _dim_section(
                        acc,
                        layout.dims[i],
                        b.clone_expr(tile_end_expr),
                        k,
                        dim_is_tiled=(i == plan.tiled_dim),
                    )
                )
        return ArrayRef(name=array, subs=subs)

    body: List[Stmt] = []
    if wait_first:
        body.extend(wait_previous_tile(names))
    body.append(
        figure4_loop(
            names,
            layout.nprocs,
            lambda peer: sections(layout.as_name, peer),
            lambda peer: sections(layout.ar_name, peer),
            count,
            tag_expr,
        )
    )

    # self partition: local copy loops
    body.append(b.comment(" self partition"))
    body.extend(
        _self_copy_loops(plan, layout, names, tile_end_expr, k)
    )
    return body


def _self_copy_loops(
    plan: DirectPlan,
    layout: SiteLayout,
    names: SiteNames,
    tile_end_expr: Expr,
    k: int,
) -> List[Stmt]:
    """Nested loops copying this tile's own-partition slice As -> Ar."""
    planes = layout.planes_per_partition
    idx_vars = names.copy_vars(layout.rank)
    subs: List[Expr] = [b.var(v) for v in idx_vars]
    assign = b.assign(
        ArrayRef(name=layout.ar_name, subs=[b.clone_expr(s) for s in subs]),
        ArrayRef(name=layout.as_name, subs=subs),
    )
    body: List[Stmt] = [assign]
    # build loops innermost-dimension-first so output is column-major order
    for i in range(layout.rank):
        var = idx_vars[i]
        if i == layout.rank - 1:
            start = b.add(
                IntLit(value=layout.last_lo), b.mul(b.var(names.me), planes)
            )
            end = b.add(
                b.add(
                    IntLit(value=layout.last_lo),
                    b.mul(b.var(names.me), planes),
                ),
                planes - 1,
            )
        elif i == plan.tiled_dim:
            start, end = _tile_range_exprs(
                plan.accesses[i], b.clone_expr(tile_end_expr), k
            )
        else:
            dlo, dhi = layout.dims[i]
            start, end = IntLit(value=dlo), IntLit(value=dhi)
        body = [b.do(var, start, end, body)]
    return body


def gen_comm_block_b(
    plan: DirectPlan,
    layout: SiteLayout,
    names: SiteNames,
    tile_end_expr: Expr,
    k: int,
    tag_expr: Expr,
    *,
    wait_first: bool = True,
) -> List[Stmt]:
    """Scheme B: every rank sends the tile's block to its owning node."""
    acc = plan.accesses[-1]
    planes = layout.planes_per_partition
    count = k * layout.lead

    block_start_idx = b.add(tile_end_expr, acc.offset - k + 1)  # last-dim lo

    def start_ref(array: str, last_start: Expr) -> ArrayRef:
        """Element-start reference (Fortran sequence association, Fig. 4)."""
        subs: List[Expr] = []
        for i in range(layout.rank - 1):
            subs.append(IntLit(value=layout.dims[i][0]))
        subs.append(last_start)
        return ArrayRef(name=array, subs=subs)

    body: List[Stmt] = []
    if wait_first:
        body.append(b.comment(" wait for comm of prev. tile to complete"))
        body.append(b.call("mpi_waitall_recvs", b.var(names.ierr)))
    # owner of the block (0-based partition index)
    body.append(
        b.assign(
            b.var(names.to),
            b.div(b.sub(b.clone_expr(block_start_idx), layout.last_lo), planes),
        )
    )
    send = b.call(
        "mpi_isend",
        start_ref(layout.as_name, b.clone_expr(block_start_idx)),
        count,
        names.to,
        tag_expr,
        names.ierr,
    )
    body.append(
        b.if_(b.ne(b.var(names.to), b.var(names.me)), [send])
    )
    # owner posts receives from every peer and copies its own block
    recv_last_start = b.add(
        b.add(
            IntLit(value=layout.last_lo),
            b.mul(b.var(names.from_), planes),
        ),
        b.sub(
            b.sub(b.clone_expr(block_start_idx), layout.last_lo),
            b.mul(b.var(names.me), planes),
        ),
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
            b.call(
                "mpi_irecv",
                start_ref(layout.ar_name, recv_last_start),
                count,
                names.from_,
                b.clone_expr(tag_expr),
                names.ierr,
            ),
        ],
    )
    self_copy = _self_copy_block_b(plan, layout, names, block_start_idx, k)
    body.append(
        b.if_(
            b.eq(b.var(names.to), b.var(names.me)),
            [recv_loop] + self_copy,
        )
    )
    return body


def _self_copy_block_b(
    plan: DirectPlan,
    layout: SiteLayout,
    names: SiteNames,
    block_start_idx: Expr,
    k: int,
) -> List[Stmt]:
    idx_vars = names.copy_vars(layout.rank)
    subs: List[Expr] = [b.var(v) for v in idx_vars]
    assign = b.assign(
        ArrayRef(name=layout.ar_name, subs=[b.clone_expr(s) for s in subs]),
        ArrayRef(name=layout.as_name, subs=subs),
    )
    body: List[Stmt] = [assign]
    for i in range(layout.rank):
        var = idx_vars[i]
        if i == layout.rank - 1:
            start = b.clone_expr(block_start_idx)
            end = b.add(b.clone_expr(block_start_idx), k - 1)
        else:
            dlo, dhi = layout.dims[i]
            start, end = IntLit(value=dlo), IntLit(value=dhi)
        body = [b.do(var, start, end, body)]
    return body


def direct_rewrite(
    opp: Opportunity,
    layout: SiteLayout,
    names: SiteNames,
    plan: DirectPlan,
    k: int,
    tiling: Tiling,
) -> None:
    """§3.6 steps 1–5 for one direct site (the AST mutation itself)."""
    tiled_loop = opp.nest.loops[0]
    tv = plan.tile_var
    ordinal = _ordinal_expr(tv, plan.tile_lo)  # 1-based iteration count
    gen = gen_comm_block_a if plan.scheme == "A" else gen_comm_block_b

    # §3.6 steps 1+2: guarded per-tile communication at the end of ℓ's
    # tiled-loop body, preceded by the previous-tile wait
    comm = gen(
        plan,
        layout,
        names,
        tile_end_expr=b.var(tv),
        k=k,
        tag_expr=b.div(_ordinal_expr(tv, plan.tile_lo), k),
        wait_first=True,
    )
    guard = b.if_(b.eq(b.mod(ordinal, k), 0), comm)
    tiled_loop.body.append(guard)

    # §3.6 steps 3+4+5 at the site of C
    post: List[Stmt] = []
    if tiling.leftover:
        lo, hi = tiling.leftover_range()
        post.append(
            b.comment(" exchange leftover elements (l mod K)")
        )
        post.extend(
            gen(
                plan,
                layout,
                names,
                tile_end_expr=IntLit(value=hi),
                k=tiling.leftover,
                tag_expr=IntLit(value=tiling.ntiles + 1),
                wait_first=True,
            )
        )
    post.extend(final_wait(names))
    _replace_call(opp, post)
