"""Collective communication algorithms and their named registry.

The paper's measurement hinges on ``MPI_ALLTOALL`` and what the pre-push
transformation replaces it with; which *algorithm* implements the
collective is therefore an experimental axis of its own (algorithm x
network x workload).  This module mirrors the network-scenario registry
(:mod:`repro.runtime.network`): algorithms are looked up by collective
and name, the CLI/harness accept any registered name, and new schedules
become sweepable without touching experiment code.

Every algorithm is composed from the same ``Isend``/``Irecv``/``Wait``/
``LocalCopy`` primitives the rank programs already use, so the engine
needs no new op types and timing differences between algorithms arise
purely from *when* operations are issued — exactly the effect the paper
measures.  Local data moves go through the communicator's helpers
(:meth:`~repro.runtime.mpi.SimComm.copy_to` and its siblings), which a
payload-free communicator skips: the op stream does not change.  All
algorithms of one collective produce bit-identical result buffers
(integer payloads; reductions are exact), which the test suite pins at
2, 4, and 7 ranks.

Registered algorithms:

=============  ==========================================================
``alltoall``   ``pairwise`` (default) — interleaved irecv/isend per peer
               at offset ``rank±j``, one final waitall; the classic
               implementation and the schedule the pre-push
               transformation competes against (golden timings are
               pinned to it).

               ``ring`` — every receive pre-posted (walking the ring
               backwards), then sends walk the ring forwards, one final
               waitall; no unexpected messages, maximally relaxed
               schedule.

               ``bruck`` — the log-round store-and-forward algorithm for
               small messages: a local rotation, ``ceil(log2 P)``
               blocking rounds each moving the blocks whose round bit is
               set by ``2^k`` ranks, and a final inverse rotation.
               Fewer, larger messages; pack/unpack memcpys are charged
               as ``LocalCopy``.

               ``scattered`` — scattered-start schedule that issues
               every send (at offset ``rank+j``) before posting any
               receive; stresses the unexpected-message/bounce-buffer
               path (§3.3) while still scattering destinations to avoid
               the §3.5 hot spot.
``allreduce``  ``recursive-doubling`` (default) — log-round halving
               with the classic pre/post fold-in of the ranks above the
               largest power of two; ``ring`` — reduce-scatter ring
               followed by an allgather ring (bandwidth-optimal,
               ``2(P-1)`` rounds).
``allgather``  ``ring`` (default) — ``P-1`` blocking neighbor rounds;
               ``linear`` — everyone exchanges directly with everyone.
``bcast``      ``binomial`` (default) — binomial tree, ``ceil(log2 P)``
               levels; ``linear`` — the root sends to every rank.
=============  ==========================================================

Collective traffic uses reserved negative tags (the pre-push
transformation only generates tags >= 0) — one per collective; matching
is (source, tag) FIFO and every algorithm either talks to distinct peers
per round or waits between rounds, so rounds cannot cross-match.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Union,
)

import numpy as np

from ..errors import SimulationError
from .events import LocalCopy, SimOp

Gen = Generator[SimOp, Any, Any]
Algorithm = Callable[..., Gen]
CollectiveSpec = Union[None, str, Mapping[str, str]]

#: The collectives the registry knows about, in presentation order.
COLLECTIVES = ("alltoall", "allreduce", "allgather", "bcast")

#: Reserved tags so collective traffic never collides with the tile tags
#: generated by the pre-push transformation (which are >= 0).
_ALLTOALL_TAG = -1
_ALLREDUCE_TAG = -2
_ALLGATHER_TAG = -3
_BCAST_TAG = -4

#: Integer op codes accepted by ``mpi_allreduce`` in the mini-Fortran
#: sources (MPI_SUM-style constants), mapped to the string names the
#: Python API uses.
OP_CODES = {0: "sum", 1: "max", 2: "min", 3: "prod"}

_OP_UFUNCS = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
}


def reduce_ufunc(op: str) -> np.ufunc:
    """The numpy ufunc implementing a named reduction operator."""
    try:
        return _OP_UFUNCS[op]
    except KeyError:
        raise SimulationError(
            f"unknown reduction op {op!r}; known ops: "
            f"{', '.join(sorted(_OP_UFUNCS))}"
        ) from None


# --------------------------------------------------------------- registry

_REGISTRY: Dict[str, Dict[str, Algorithm]] = {c: {} for c in COLLECTIVES}
_DEFAULTS: Dict[str, str] = {}


def register_algorithm(
    collective: str,
    name: str,
    fn: Optional[Algorithm] = None,
    *,
    default: bool = False,
    overwrite: bool = False,
):
    """Register ``fn`` as algorithm ``name`` of ``collective``.

    Usable directly or as a decorator (``fn`` omitted).  ``default=True``
    makes it the algorithm :func:`resolve_suite` selects when no choice
    is given.  Re-registering a taken name raises unless
    ``overwrite=True`` — same contract as the network registry.
    """
    if collective not in _REGISTRY:
        raise SimulationError(
            f"unknown collective {collective!r}; known collectives: "
            f"{', '.join(COLLECTIVES)}"
        )

    def _register(fn: Algorithm) -> Algorithm:
        existing = _REGISTRY[collective].get(name)
        if existing is not None and existing is not fn and not overwrite:
            raise SimulationError(
                f"{collective} algorithm name {name!r} is already "
                f"registered; pass overwrite=True to replace it"
            )
        _REGISTRY[collective][name] = fn
        if default or collective not in _DEFAULTS:
            _DEFAULTS[collective] = name
        return fn

    if fn is None:
        return _register
    return _register(fn)


def get_algorithm(collective: str, name: Optional[str] = None) -> Algorithm:
    """Look up an algorithm (the collective's default when ``name=None``)."""
    if collective not in _REGISTRY:
        raise SimulationError(
            f"unknown collective {collective!r}; known collectives: "
            f"{', '.join(COLLECTIVES)}"
        )
    if name is None:
        name = _DEFAULTS[collective]
    try:
        return _REGISTRY[collective][name]
    except KeyError:
        raise SimulationError(
            f"unknown {collective} algorithm {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY[collective]))}"
        ) from None


def list_algorithms(
    collective: Optional[str] = None,
) -> Union[Dict[str, List[str]], List[str]]:
    """Registered algorithm names, per collective (or for one of them)."""
    if collective is None:
        return {c: sorted(_REGISTRY[c]) for c in COLLECTIVES}
    if collective not in _REGISTRY:
        raise SimulationError(
            f"unknown collective {collective!r}; known collectives: "
            f"{', '.join(COLLECTIVES)}"
        )
    return sorted(_REGISTRY[collective])


def default_algorithm(collective: str) -> str:
    """Name of the algorithm used when no explicit choice is made."""
    get_algorithm(collective)  # validates the collective name
    return _DEFAULTS[collective]


def resolve_suite(spec: CollectiveSpec = None) -> Dict[str, str]:
    """Resolve a collective-algorithm choice into a full per-collective map.

    ``spec`` may be:

    * ``None`` — every collective uses its default;
    * a mapping ``{collective: algorithm}`` — unlisted collectives keep
      their defaults;
    * a bare algorithm name (``"ring"``) — applied to *every* collective
      that registers that name (the rest keep their defaults);
    * a comma-separated string of ``collective=algorithm`` pairs
      (``"alltoall=bruck,allreduce=ring"``) — the CLI syntax.

    Unknown names raise :class:`~repro.errors.SimulationError` so a bad
    ``--collective`` fails before any simulation runs.
    """
    suite = {c: _DEFAULTS[c] for c in COLLECTIVES}
    if spec is None:
        return suite
    if isinstance(spec, str):
        if "=" in spec:
            pairs = {}
            for item in spec.split(","):
                coll, _, name = item.partition("=")
                pairs[coll.strip()] = name.strip()
            spec = pairs
        else:
            matched = [c for c in COLLECTIVES if spec in _REGISTRY[c]]
            if not matched:
                raise SimulationError(
                    f"no collective registers an algorithm named {spec!r}; "
                    f"see list_algorithms()"
                )
            for c in matched:
                suite[c] = spec
            return suite
    for coll, name in spec.items():
        get_algorithm(coll, name)  # validates both halves
        suite[coll] = name
    return suite


def describe_suite(suite: Mapping[str, str]) -> str:
    """Compact one-line rendering of a resolved suite (for reports)."""
    return ",".join(f"{c}={suite[c]}" for c in COLLECTIVES)


def canonical_suite(spec: CollectiveSpec = None) -> Dict[str, str]:
    """Stable, JSON-safe serialization of a collective choice for hashing.

    Resolves ``spec`` to the full per-collective algorithm map in
    :data:`COLLECTIVES` order — the form the sweep cache fingerprints
    (DESIGN.md §7).  Two specs that select the same algorithms (e.g.
    ``None`` vs an explicit map of every default) serialize identically,
    so they share cache entries.
    """
    return resolve_suite(spec)


# --------------------------------------------------------------- alltoall
#
# All alltoall algorithms receive pre-validated flat ``send``/``recv``
# views and the per-rank partition length ``part`` (elements).  The
# zero-length self-partition memcpy is skipped (a degenerate alltoall
# must not charge a LocalCopy).


def _copy_self_partition(comm, send: np.ndarray, recv: np.ndarray, part: int):
    rank = comm.rank
    if part:
        yield LocalCopy(nbytes=int(send[0:part].nbytes))
        comm.copy_to(
            recv[rank * part : (rank + 1) * part],
            send[rank * part : (rank + 1) * part],
        )


@register_algorithm("alltoall", "pairwise", default=True)
def _alltoall_pairwise(comm, send: np.ndarray, recv: np.ndarray, part: int) -> Gen:
    """Interleaved pairwise exchange — the classic schedule (default)."""
    size, rank = comm.size, comm.rank
    handles: List[int] = []
    tag = _ALLTOALL_TAG
    for j in range(1, size):
        dest = (rank + j) % size
        src = (size + rank - j) % size
        h_r = yield from comm.irecv(
            recv[src * part : (src + 1) * part], source=src, tag=tag
        )
        handles.append(h_r)
        h_s = yield from comm.isend(
            send[dest * part : (dest + 1) * part], dest=dest, tag=tag
        )
        handles.append(h_s)
    yield from _copy_self_partition(comm, send, recv, part)
    yield from comm.wait(handles)


@register_algorithm("alltoall", "ring")
def _alltoall_ring(comm, send: np.ndarray, recv: np.ndarray, part: int) -> Gen:
    """Every receive pre-posted, then sends walk the ring forwards."""
    size, rank = comm.size, comm.rank
    handles: List[int] = []
    tag = _ALLTOALL_TAG
    for j in range(1, size):
        src = (size + rank - j) % size
        h = yield from comm.irecv(
            recv[src * part : (src + 1) * part], source=src, tag=tag
        )
        handles.append(h)
    for j in range(1, size):
        dest = (rank + j) % size
        h = yield from comm.isend(
            send[dest * part : (dest + 1) * part], dest=dest, tag=tag
        )
        handles.append(h)
    yield from _copy_self_partition(comm, send, recv, part)
    yield from comm.wait(handles)


@register_algorithm("alltoall", "scattered")
def _alltoall_scattered(
    comm, send: np.ndarray, recv: np.ndarray, part: int
) -> Gen:
    """Scattered-start: all sends issued before any receive is posted.

    Destinations stay scattered by rank offset (no §3.5 hot spot), but
    because nothing is pre-posted every message that beats its receive
    takes the §3.3 bounce-buffer path — the pessimistic schedule.
    """
    size, rank = comm.size, comm.rank
    handles: List[int] = []
    tag = _ALLTOALL_TAG
    for j in range(1, size):
        dest = (rank + j) % size
        h = yield from comm.isend(
            send[dest * part : (dest + 1) * part], dest=dest, tag=tag
        )
        handles.append(h)
    for j in range(1, size):
        src = (size + rank - j) % size
        h = yield from comm.irecv(
            recv[src * part : (src + 1) * part], source=src, tag=tag
        )
        handles.append(h)
    yield from _copy_self_partition(comm, send, recv, part)
    yield from comm.wait(handles)


@register_algorithm("alltoall", "bruck")
def _alltoall_bruck(comm, send: np.ndarray, recv: np.ndarray, part: int) -> Gen:
    """Bruck's log-round algorithm (Thakur et al.'s small-message choice).

    Round ``k`` forwards every block whose index has bit ``2^k`` set by
    ``2^k`` ranks; after ``ceil(log2 P)`` rounds each block has travelled
    exactly its block-index distance.  Rotations and pack/unpack staging
    are local memcpys, charged as ``LocalCopy``.
    """
    size, rank = comm.size, comm.rank
    if size == 1 or part == 0:
        yield from _copy_self_partition(comm, send, recv, part)
        return
    tag = _ALLTOALL_TAG
    # all staging below works on (size, part) block views moved as whole
    # row sets (comm.take_rows/put_rows): per-block Python loops would
    # cost O(P log P) interpreter round-trips per rank
    blocks = np.arange(size)
    dtype = send.dtype
    # phase 1: rotate so block i holds the data destined to rank+i
    tmp = comm.staging_buffer(size * part, dtype).reshape(size, part)
    comm.take_rows(send.reshape(size, part), (rank + blocks) % size, tmp)
    yield LocalCopy(nbytes=int(tmp.nbytes))
    # phase 2: log-round store-and-forward
    pof2 = 1
    while pof2 < size:
        idx = np.nonzero(blocks & pof2)[0]
        packed = comm.staging_buffer(idx.size * part, dtype)
        comm.take_rows(tmp, idx, packed.reshape(idx.size, part))
        scratch = comm.staging_buffer(idx.size * part, dtype)
        yield LocalCopy(nbytes=int(packed.nbytes))  # pack staging copy
        h_r = yield from comm.irecv(
            scratch, source=(size + rank - pof2) % size, tag=tag
        )
        h_s = yield from comm.isend(
            packed, dest=(rank + pof2) % size, tag=tag
        )
        yield from comm.wait([h_r, h_s])
        comm.put_rows(tmp, idx, scratch.reshape(-1, part))
        yield LocalCopy(nbytes=int(scratch.nbytes))  # unpack copy
        pof2 <<= 1
    # phase 3: inverse rotation with reversal: the block from source s
    # travelled distance (rank - s) mod P
    comm.take_rows(
        tmp, (size + rank - blocks) % size, recv.reshape(size, part)
    )
    yield LocalCopy(nbytes=int(tmp.nbytes))


# -------------------------------------------------------------- allreduce
#
# Reductions receive pre-validated flat ``send``/``recv`` views of equal
# length and a numpy ufunc ``op``.  Integer reductions are exact, so
# every algorithm produces bit-identical results regardless of the
# combination order.


@register_algorithm("allreduce", "recursive-doubling", default=True)
def _allreduce_recursive_doubling(
    comm, send: np.ndarray, recv: np.ndarray, op: np.ufunc
) -> Gen:
    """Recursive doubling with the classic non-power-of-two fold-in."""
    size, rank = comm.size, comm.rank
    tag = _ALLREDUCE_TAG
    acc = comm.working_copy(send)
    if acc.nbytes:
        yield LocalCopy(nbytes=int(acc.nbytes))
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    # pre-step: the first 2*rem ranks fold pairwise so pof2 ranks remain
    if rank < 2 * rem:
        if rank % 2 == 0:
            h = yield from comm.isend(acc, dest=rank + 1, tag=tag)
            yield from comm.wait([h])
            newrank = -1  # sits out the doubling phase
        else:
            scratch = comm.staging_buffer(acc.size, acc.dtype)
            h = yield from comm.irecv(scratch, source=rank - 1, tag=tag)
            yield from comm.wait([h])
            comm.reduce_into(op, acc, scratch)
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            newdst = newrank ^ mask
            dst = newdst * 2 + 1 if newdst < rem else newdst + rem
            scratch = comm.staging_buffer(acc.size, acc.dtype)
            h_r = yield from comm.irecv(scratch, source=dst, tag=tag)
            h_s = yield from comm.isend(acc, dest=dst, tag=tag)
            yield from comm.wait([h_r, h_s])
            comm.reduce_into(op, acc, scratch)
            mask <<= 1
    # post-step: hand the result back to the folded-out even ranks
    if rank < 2 * rem:
        if rank % 2 == 1:
            h = yield from comm.isend(acc, dest=rank - 1, tag=tag)
        else:
            h = yield from comm.irecv(acc, source=rank + 1, tag=tag)
        yield from comm.wait([h])
    comm.copy_to(recv, acc)
    if acc.nbytes:
        yield LocalCopy(nbytes=int(acc.nbytes))


def _chunk_bounds(count: int, size: int) -> List[int]:
    """Even-as-possible chunk boundaries (``size + 1`` offsets)."""
    return [(count * i) // size for i in range(size + 1)]


@register_algorithm("allreduce", "ring")
def _allreduce_ring(
    comm, send: np.ndarray, recv: np.ndarray, op: np.ufunc
) -> Gen:
    """Bandwidth-optimal ring: reduce-scatter then allgather, 2(P-1) rounds."""
    size, rank = comm.size, comm.rank
    tag = _ALLREDUCE_TAG
    acc = comm.working_copy(send)
    if acc.nbytes:
        yield LocalCopy(nbytes=int(acc.nbytes))
    if size > 1:
        b = _chunk_bounds(acc.size, size)
        right = (rank + 1) % size
        left = (size + rank - 1) % size
        # reduce-scatter: after P-1 rounds chunk (rank+1)%P is complete
        for step in range(size - 1):
            ci_s = (size + rank - step) % size
            ci_r = (size + rank - step - 1) % size
            scratch = comm.staging_buffer(b[ci_r + 1] - b[ci_r], acc.dtype)
            h_r = yield from comm.irecv(scratch, source=left, tag=tag)
            h_s = yield from comm.isend(
                acc[b[ci_s] : b[ci_s + 1]], dest=right, tag=tag
            )
            yield from comm.wait([h_r, h_s])
            chunk = acc[b[ci_r] : b[ci_r + 1]]
            comm.reduce_into(op, chunk, scratch)
        # allgather ring: circulate the completed chunks
        for step in range(size - 1):
            ci_s = (size + rank + 1 - step) % size
            ci_r = (size + rank - step) % size
            h_r = yield from comm.irecv(
                acc[b[ci_r] : b[ci_r + 1]], source=left, tag=tag
            )
            h_s = yield from comm.isend(
                acc[b[ci_s] : b[ci_s + 1]], dest=right, tag=tag
            )
            yield from comm.wait([h_r, h_s])
    comm.copy_to(recv, acc)
    if acc.nbytes:
        yield LocalCopy(nbytes=int(acc.nbytes))


# -------------------------------------------------------------- allgather
#
# ``send`` is this rank's block; ``recv`` holds ``size`` such blocks.


@register_algorithm("allgather", "ring", default=True)
def _allgather_ring(comm, send: np.ndarray, recv: np.ndarray) -> Gen:
    """Neighbor ring: each round passes the previously received block on."""
    size, rank = comm.size, comm.rank
    tag = _ALLGATHER_TAG
    block = send.size
    comm.copy_to(recv[rank * block : (rank + 1) * block], send)
    if block:
        yield LocalCopy(nbytes=int(send.nbytes))
    right = (rank + 1) % size
    left = (size + rank - 1) % size
    for step in range(size - 1):
        ci_s = (size + rank - step) % size
        ci_r = (size + rank - step - 1) % size
        h_r = yield from comm.irecv(
            recv[ci_r * block : (ci_r + 1) * block], source=left, tag=tag
        )
        h_s = yield from comm.isend(
            recv[ci_s * block : (ci_s + 1) * block], dest=right, tag=tag
        )
        yield from comm.wait([h_r, h_s])


@register_algorithm("allgather", "linear")
def _allgather_linear(comm, send: np.ndarray, recv: np.ndarray) -> Gen:
    """Direct exchange: every rank sends its block to every other rank."""
    size, rank = comm.size, comm.rank
    tag = _ALLGATHER_TAG
    block = send.size
    handles: List[int] = []
    for j in range(1, size):
        src = (size + rank - j) % size
        h = yield from comm.irecv(
            recv[src * block : (src + 1) * block], source=src, tag=tag
        )
        handles.append(h)
        h = yield from comm.isend(send, dest=(rank + j) % size, tag=tag)
        handles.append(h)
    comm.copy_to(recv[rank * block : (rank + 1) * block], send)
    if block:
        yield LocalCopy(nbytes=int(send.nbytes))
    yield from comm.wait(handles)


# ------------------------------------------------------------------ bcast


@register_algorithm("bcast", "binomial", default=True)
def _bcast_binomial(comm, buf: np.ndarray, root: int) -> Gen:
    """Binomial tree rooted at ``root``: ceil(log2 P) levels."""
    size, rank = comm.size, comm.rank
    tag = _BCAST_TAG
    vrank = (size + rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            src = (vrank - mask + root) % size
            h = yield from comm.irecv(buf, source=src, tag=tag)
            yield from comm.wait([h])
            break
        mask <<= 1
    mask >>= 1
    handles: List[int] = []
    while mask > 0:
        if vrank + mask < size:
            dest = (vrank + mask + root) % size
            h = yield from comm.isend(buf, dest=dest, tag=tag)
            handles.append(h)
        mask >>= 1
    if handles:
        yield from comm.wait(handles)


@register_algorithm("bcast", "linear")
def _bcast_linear(comm, buf: np.ndarray, root: int) -> Gen:
    """The root sends directly to every rank (the §3.5 hot-spot shape)."""
    size, rank = comm.size, comm.rank
    tag = _BCAST_TAG
    if rank == root:
        handles: List[int] = []
        for j in range(1, size):
            h = yield from comm.isend(buf, dest=(root + j) % size, tag=tag)
            handles.append(h)
        if handles:
            yield from comm.wait(handles)
    else:
        h = yield from comm.irecv(buf, source=root, tag=tag)
        yield from comm.wait([h])
