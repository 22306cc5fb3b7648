"""Replacement communication code preserving MPI_ALLTOALL semantics (§3.5).

The paper's Figure 4 replaces the collective with a pairwise loop::

    do j = 1,NP-1
      to = mod(mynum+j,NP)
      call mpi_isend(As(...,(to-1)*(NP/SZ)),...)
      from = mod(NP+mynum-j,NP)
      call mpi_irecv(Ar(...,(from-1)*(NP/SZ)),...)
    enddo

Every rank sends its ``j``-th partition clockwise and receives
counter-clockwise, so in each round the traffic forms a perfect matching
— no two messages contend for the same NIC.  This staggering is what
"preserves the ... efficiency of MPI_ALLTOALL" (§3.5): the naive
``do to = 0, NP-1`` order would aim every rank's first message at rank 0.

:func:`figure4_loop` builds that loop generically; the per-scheme code
generators supply callbacks that produce the buffer arguments for a given
peer expression (scheme A sections the arrays per partition; other
callers may pass element-start references using sequence association).
"""

from __future__ import annotations

from typing import Callable, List

from ..analysis.patterns import Opportunity
from ..errors import TransformError
from ..lang import builder as b
from ..lang.ast_nodes import DoLoop, Expr, Stmt
from ..lang.visitor import index_of
from .names import SiteNames

#: Builds the send (or receive) buffer argument for the peer whose rank is
#: given by the expression argument.
BufferFn = Callable[[Expr], Expr]


def peer_to_expr(names: SiteNames, nprocs: int) -> Expr:
    """``mod(me + j, NP)`` — the round-``j`` destination (Figure 4)."""
    return b.mod(b.add(names.me, names.j), nprocs)


def peer_from_expr(names: SiteNames, nprocs: int) -> Expr:
    """``mod(NP + me - j, NP)`` — the round-``j`` source (Figure 4)."""
    return b.mod(b.sub(b.add(nprocs, names.me), names.j), nprocs)


def figure4_loop(
    names: SiteNames,
    nprocs: int,
    send_buffer: BufferFn,
    recv_buffer: BufferFn,
    count: int,
    tag_expr: Expr,
) -> DoLoop:
    """The staggered pairwise exchange of Figure 4, as an AST loop.

    ``send_buffer``/``recv_buffer`` receive the peer-rank expression
    (``to`` / ``from`` variable references) and return the first argument
    of the isend/irecv.  ``tag_expr`` is cloned for the receive so send
    and receive never share AST nodes.
    """
    inner: List[Stmt] = [
        b.assign(b.var(names.to), peer_to_expr(names, nprocs)),
        b.call(
            "mpi_isend",
            send_buffer(b.var(names.to)),
            count,
            names.to,
            tag_expr,
            names.ierr,
        ),
        b.assign(b.var(names.from_), peer_from_expr(names, nprocs)),
        b.call(
            "mpi_irecv",
            recv_buffer(b.var(names.from_)),
            count,
            names.from_,
            b.clone_expr(tag_expr),
            names.ierr,
        ),
    ]
    return b.do(names.j, 1, nprocs - 1, inner)


def wait_previous_tile(names: SiteNames) -> List[Stmt]:
    """§3.6 step 2: block until the previous tile's receives completed.

    Sends need not be waited per tile — finalized elements are never
    rewritten (that is what the output-dependence analysis guaranteed), so
    send buffers stay valid; all outstanding requests drain at the final
    ``mpi_waitall`` (§3.6 step 4).
    """
    return [
        b.comment(" wait for comm of prev. tile to complete"),
        b.call("mpi_waitall_recvs", b.var(names.ierr)),
    ]


def final_wait(names: SiteNames) -> List[Stmt]:
    """§3.6 step 4: wait for the last blocks (and drain pending sends)."""
    return [
        b.comment(" wait for the last blocks of data"),
        b.call("mpi_waitall", b.var(names.ierr)),
    ]


def _ordinal_expr(var: str, lo: int) -> Expr:
    """1-based iteration ordinal ``var - lo + 1`` (folds to ``var`` at lo=1)."""
    if lo == 1:
        return b.var(var)
    return b.add(b.sub(b.var(var), lo), 1)


def _replace_call(opp: Opportunity, replacement: List[Stmt]) -> None:
    """§3.6 step 5: splice ``replacement`` where the original C stood."""
    body = opp.body
    ci = index_of(body, opp.call)
    if ci < 0:
        raise TransformError(
            "the original communication call vanished before transformation"
        )
    body[ci : ci + 1] = replacement
