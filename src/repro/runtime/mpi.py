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
        staging: Optional[Dict[Any, np.ndarray]] = None,
    ) -> None:
        if not 0 <= rank < size:
            raise SimulationError(f"invalid rank {rank} of {size}")
        self._rank = rank
        self._size = size
        self._pending_sends: List[int] = []
        self._pending_recvs: List[int] = []
        self._collectives: Dict[str, str] = resolve_suite(collectives)
        self._staging = staging

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

    def staging_buffer(self, key: Any, size: int, dtype: Any) -> np.ndarray:
        """Scratch array for a collective algorithm's internal staging.

        In full interpretation (no pool) every call allocates privately,
        since each rank's staged payload is live data.  The replay
        engine passes one shared ``staging`` dict for the whole cluster:
        replayed payload values are never read back (final data comes
        from the recorder's shadows, and engine timing depends only on
        operation sizes and order), so all ranks may clobber the same
        buffers — keeping the cluster's memory footprint O(buffer)
        instead of O(nranks * buffer).  Contents are undefined; callers
        must fill the buffer before charging/sending from it.
        """
        if self._staging is None:
            return np.empty(size, dtype)
        full_key = (key, size, np.dtype(dtype).str)
        buf = self._staging.get(full_key)
        if buf is None:
            buf = np.empty(size, dtype)
            self._staging[full_key] = buf
        return buf

    # ----------------------------------------------------------------- misc

    def compute(self, seconds: float) -> Gen:
        """Charge ``seconds`` of computation to this rank's clock."""
        yield Compute(seconds=seconds)
