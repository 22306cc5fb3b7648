"""Simulated MPI interface used by rank programs.

:class:`SimComm` exposes the subset of MPI the paper's codes need —
non-blocking point-to-point, waits, barrier, and the collectives
``MPI_ALLTOALL`` / ``MPI_ALLREDUCE`` / ``MPI_ALLGATHER`` / ``MPI_BCAST``
— as generator methods.  A rank program calls them with ``yield from``::

    def program(rank, comm):
        ...
        h = yield from comm.isend(view, dest=1, tag=7)
        yield from comm.wait([h])

Collectives are implemented *on top of* the same isend/irecv/wait
primitives, so the original and pre-pushed programs exercise identical
machinery and timing differences arise purely from when operations are
issued — which is the effect the paper measures.  The *algorithm* used
for each collective comes from the pluggable registry in
:mod:`repro.runtime.collectives` (pairwise/ring/bruck/scattered
alltoall, recursive-doubling/ring allreduce, ...), selected per
communicator via the ``collectives=`` knob; the defaults reproduce the
classic schedules bit-for-bit.

The class also tracks outstanding send/recv handles so the transformed
code's ``mpi_waitall_recvs`` / ``mpi_waitall_sends`` / ``mpi_waitall``
(paper §3.6 steps 2 and 4) need no explicit request arrays in the
mini-Fortran source.

A payload-free communicator (``payloads=False``, the symmetry replay's)
emits exactly the same operations but moves no data: the algorithms
route every local data move through the helpers at the end of the
class, which it turns into no-ops.  It pairs with a payload-free
:class:`~repro.runtime.simulator.Engine`, which delivers nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Union

import numpy as np

from ..errors import SimulationError
from .collectives import CollectiveSpec, get_algorithm, reduce_ufunc, resolve_suite
from .events import Barrier, Compute, Irecv, Isend, SimOp, Wait

Gen = Generator[SimOp, Any, Any]


class SimComm:
    """Per-rank communicator for the simulated cluster.

    ``collectives`` selects the algorithm per collective (see
    :func:`repro.runtime.collectives.resolve_suite` for the accepted
    forms); ``None`` keeps every default.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        collectives: CollectiveSpec = None,
        payloads: bool = True,
    ) -> None:
        if not 0 <= rank < size:
            raise SimulationError(f"invalid rank {rank} of {size}")
        self._rank = rank
        self._size = size
        self._pending_sends: List[int] = []
        self._pending_recvs: List[int] = []
        self._collectives: Dict[str, str] = resolve_suite(collectives)
        self._payloads = payloads

    # ------------------------------------------------------------- queries

    @property
    def rank(self) -> int:
        """This process's rank (``mynode()`` in the mini-Fortran sources)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks (``numnodes()``)."""
        return self._size

    @property
    def outstanding_sends(self) -> int:
        return len(self._pending_sends)

    @property
    def outstanding_recvs(self) -> int:
        return len(self._pending_recvs)

    @property
    def collectives(self) -> Dict[str, str]:
        """The resolved collective-algorithm suite (collective -> name)."""
        return dict(self._collectives)

    # ------------------------------------------------------- point-to-point

    def isend(self, data: np.ndarray, dest: int, tag: int) -> Gen:
        """Non-blocking send; returns the handle (also tracked internally)."""
        handle = yield Isend(dest=dest, tag=tag, data=data)
        self._pending_sends.append(handle)
        return handle

    def irecv(
        self,
        buffer: Union[np.ndarray, Callable[[np.ndarray], None]],
        source: int,
        tag: int,
        nbytes: Optional[int] = None,
    ) -> Gen:
        """Non-blocking receive into ``buffer`` (ndarray view or callable)."""
        if nbytes is None:
            if not isinstance(buffer, np.ndarray):
                raise SimulationError(
                    "nbytes is required when the receive target is a callable"
                )
            nbytes = int(buffer.nbytes)
        handle = yield Irecv(source=source, tag=tag, buffer=buffer, nbytes=nbytes)
        self._pending_recvs.append(handle)
        return handle

    def wait(self, handles: Sequence[int]) -> Gen:
        """Block until the given handles complete."""
        yield Wait(handles=list(handles))
        pending = set(handles)
        self._pending_sends = [h for h in self._pending_sends if h not in pending]
        self._pending_recvs = [h for h in self._pending_recvs if h not in pending]

    def waitall(self) -> Gen:
        """Wait for every outstanding request (sends and receives)."""
        yield from self.wait(self._pending_sends + self._pending_recvs)

    def waitall_sends(self) -> Gen:
        yield from self.wait(list(self._pending_sends))

    def waitall_recvs(self) -> Gen:
        yield from self.wait(list(self._pending_recvs))

    # ----------------------------------------------------------- collective

    def barrier(self) -> Gen:
        yield Barrier()

    def alltoall(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> Gen:
        """Blocking MPI_ALLTOALL over flat buffers.

        ``sendbuf``/``recvbuf`` are 1-D views whose length divides evenly
        into ``size`` partitions; partition ``j`` of this rank's sendbuf
        goes to rank ``j``, landing in partition ``rank`` of j's recvbuf.
        Implemented by the registered algorithm (pairwise by default)
        with the same non-blocking primitives the pre-push transformation
        emits; an empty per-rank partition skips the self memcpy.
        """
        send = sendbuf.reshape(-1)
        recv = recvbuf.reshape(-1)
        if send.size % self._size or recv.size % self._size:
            raise SimulationError(
                f"alltoall buffer length {send.size} not divisible by "
                f"{self._size} ranks"
            )
        part = send.size // self._size
        if recv.size != send.size:
            raise SimulationError("alltoall send/recv sizes differ")
        algorithm = get_algorithm("alltoall", self._collectives["alltoall"])
        yield from algorithm(self, send, recv, part)

    def allreduce(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: str = "sum"
    ) -> Gen:
        """Blocking MPI_ALLREDUCE: every rank ends with op over all sendbufs.

        ``op`` is one of ``sum``/``max``/``min``/``prod`` (exact on the
        integer payloads the workloads use, so every algorithm produces
        bit-identical results regardless of combination order).
        """
        send = sendbuf.reshape(-1)
        recv = recvbuf.reshape(-1)
        if recv.size != send.size:
            raise SimulationError(
                f"allreduce send/recv sizes differ ({send.size} vs "
                f"{recv.size})"
            )
        ufunc = reduce_ufunc(op)
        algorithm = get_algorithm("allreduce", self._collectives["allreduce"])
        yield from algorithm(self, send, recv, ufunc)

    def allgather(self, sendbuf: np.ndarray, recvbuf: np.ndarray) -> Gen:
        """Blocking MPI_ALLGATHER: rank j's sendbuf lands in partition j
        of every rank's recvbuf."""
        send = sendbuf.reshape(-1)
        recv = recvbuf.reshape(-1)
        if recv.size != send.size * self._size:
            raise SimulationError(
                f"allgather recv length {recv.size} != send length "
                f"{send.size} * {self._size} ranks"
            )
        algorithm = get_algorithm("allgather", self._collectives["allgather"])
        yield from algorithm(self, send, recv)

    def bcast(self, buffer: np.ndarray, root: int = 0) -> Gen:
        """Blocking MPI_BCAST of ``buffer`` from ``root`` to every rank."""
        if not 0 <= root < self._size:
            raise SimulationError(
                f"bcast root {root} out of range for {self._size} ranks"
            )
        buf = buffer.reshape(-1)
        algorithm = get_algorithm("bcast", self._collectives["bcast"])
        yield from algorithm(self, buf, root)

    # ----------------------------------------------------------------- misc

    def compute(self, seconds: float) -> Gen:
        """Charge ``seconds`` of computation to this rank's clock."""
        yield Compute(seconds=seconds)

    # --------------------------------------------------- local data moves
    #
    # Every local payload move of a collective algorithm goes through
    # one of these, so a single algorithm body serves both modes: a
    # payload-free comm skips the data while the algorithm still charges
    # each ``LocalCopy`` and sends and receives the same byte counts.

    def staging_buffer(self, size: int, dtype: Any) -> np.ndarray:
        """Scratch array of ``size`` elements for a collective's staging.

        Contents are undefined: callers fill it through the helpers
        below before charging or sending from it.  A payload-free comm
        never fills it, so it hands out a read-only view of one element
        repeated ``size`` times (stride 0).  Its size and dtype are
        right, which is all the engine reads of it, and it takes no
        memory however many ranks hold one.
        """
        if self._payloads:
            return np.empty(size, dtype)
        dtype = np.dtype(dtype)
        return np.ndarray(size, dtype, bytes(dtype.itemsize), 0, (0,))

    def copy_to(self, dst: np.ndarray, src: np.ndarray) -> None:
        """``dst[...] = src``."""
        if self._payloads:
            dst[...] = src

    def working_copy(self, buf: np.ndarray) -> np.ndarray:
        """A private copy of ``buf`` to accumulate in; a payload-free
        comm writes nothing, so ``buf`` itself serves."""
        return buf.copy() if self._payloads else buf

    def reduce_into(
        self, op: np.ufunc, acc: np.ndarray, other: np.ndarray
    ) -> None:
        """``acc = op(acc, other)`` in place."""
        if self._payloads:
            op(acc, other, out=acc)

    def take_rows(
        self, src: np.ndarray, rows: np.ndarray, out: np.ndarray
    ) -> None:
        """``out[i] = src[rows[i]]`` over the leading axis."""
        if self._payloads:
            np.take(src, rows, axis=0, out=out)

    def put_rows(
        self, dst: np.ndarray, rows: np.ndarray, src: np.ndarray
    ) -> None:
        """``dst[rows[i]] = src[i]`` over the leading axis."""
        if self._payloads:
            dst[rows] = src
