"""Deterministic discrete-event cluster simulator.

Each rank is a Python generator yielding :class:`~repro.runtime.events.SimOp`
operations.  The engine advances per-rank virtual clocks, schedules wire
transfers on per-node NICs (endpoint contention), matches sends to
receives, and accounts CPU overheads according to the
:class:`~repro.runtime.network.NetworkModel`.

Timing semantics (the substitution for real MPICH / MPICH-GM hardware —
see DESIGN.md §3):

* ``Compute(dt)`` — rank clock += dt.
* ``Isend`` — rank clock += model.send_cpu_cost (which includes the
  per-byte host cost when the stack is host-driven, i.e. the entire
  reason MPICH cannot overlap).  The wire transfer is then scheduled *at
  that virtual time* on the sender/receiver NIC pair: it starts when both
  NICs are free, occupies them for ``model.wire_time(nbytes)`` (striped
  across ``rails``, dilated by ``congestion_factor`` when it had to queue
  behind a busy NIC) and completes ``model.msg_latency(nbytes)`` later
  (rendezvous-sized messages pay the handshake there).  The payload is
  snapshot copy-on-write: the engine defers the copy until the sending
  rank next executes (the only point its buffers can change), so a
  message consumed before then never pays the copy.  The live view is
  re-checked when the send completes so in-flight buffer modification
  (an unsafe transformation!) is detected and reported.
* ``Irecv`` — rank clock += recv_overhead; the receive matches messages
  by (source, tag) FIFO order.
* ``Wait`` — rank blocks until all handles complete; at resume the
  receive-side completion CPU charges are applied: per-byte host cost in
  host mode, plus a bounce-buffer copy when the message arrived before
  the receive was posted ("unexpected message").
* ``Barrier`` — all ranks synchronize to the max entry time plus a
  log2(P) latency term.

The engine is single-threaded and fully deterministic: ties are broken by
monotonically increasing sequence numbers, never by Python hashing or
wall-clock effects.

A payload-free engine (``payloads=False``) times the same operations
without moving any data: it neither snapshots send buffers nor delivers
into receive buffers, and only checks that each receive was posted with
the message's size.  The symmetry replay (DESIGN.md §10) runs this way.

Fast path: operations dispatch through a per-type handler table straight
to the ``_do_*`` methods, and a run of consecutive ``Compute`` yields
from one rank is drained in a single step (they only advance that rank's
private clock, so skipping the global scheduler between them cannot
change any observable timing).  The event heap carries the
:class:`~repro.runtime.events.Message` whose transfer it schedules, and
requests, ranks and messages are ``__slots__`` classes.

Scheduling is heap-based: runnable ranks live in a priority heap keyed
``(time, rank_index)`` alongside the transfer-event heap, so picking the
next actor is O(log P) rather than an O(P) scan — the difference between
dozens and thousands of ranks.  Entries are invalidated by a per-rank
token rather than removed (see :meth:`Engine._touch`); the orderings the
linear scan established are preserved exactly: transfer events beat rank
activity at equal virtual times, and the lowest rank index wins ties
between ranks.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DeadlockError, SimulationError
from .events import (
    Barrier,
    Compute,
    Irecv,
    Isend,
    LocalCopy,
    Message,
    RankStats,
    SimOp,
    SimResult,
    Wait,
)
from .events import MsgState
from .network import NetworkModel, resolve_model

RankProgram = Generator[SimOp, Any, None]

#: Semantic version of the simulation's *timing semantics*.  It is part
#: of every sweep-cache fingerprint (DESIGN.md §7): cached measurements
#: are only reusable while the engine maps the same inputs to the same
#: virtual-time results.  Bump it whenever a change can alter any
#: ``SimResult`` — cost accounting, tie-breaking, protocol rules — and
#: leave it alone for pure-speed refactors that §5 guarantees are
#: timing-neutral.
ENGINE_VERSION = "3.0"


class _Status(Enum):
    READY = "ready"
    BLOCKED = "blocked"
    IN_BARRIER = "barrier"
    DONE = "done"


class _Request:
    """One isend/irecv handle.

    It completes at ``max(msg.t_complete, t_posted)`` once its message
    is matched and scheduled.  A send holds its message from the start
    and is posted at 0, so it completes with its transfer; a receive
    completes no earlier than it was posted.  ``buffer`` and ``nbytes``
    are the receive target and its posted size.
    """

    __slots__ = ("msg", "t_posted", "recv", "buffer", "nbytes")

    def __init__(
        self,
        msg: Optional[Message],
        t_posted: float,
        recv: bool = False,
        buffer: Any = None,
        nbytes: int = 0,
    ) -> None:
        self.msg = msg
        self.t_posted = t_posted
        self.recv = recv
        self.buffer = buffer
        self.nbytes = nbytes

    @property
    def complete_time(self) -> Optional[float]:
        msg = self.msg
        if msg is None or msg.t_complete <= 0.0:
            return None
        return max(msg.t_complete, self.t_posted)


class _Rank:
    __slots__ = (
        "index",
        "gen",
        "clock",
        "status",
        "send_value",
        "requests",
        "next_handle",
        "waiting_on",
        "block_start",
        "stats",
    )

    def __init__(self, index: int, gen: RankProgram) -> None:
        self.index = index
        self.gen = gen
        self.clock = 0.0
        self.status = _Status.READY
        # value to send into the generator on resume
        self.send_value: Any = None
        self.requests: Dict[int, _Request] = {}
        self.next_handle = 0
        self.waiting_on: Tuple[int, ...] = ()
        self.block_start = 0.0
        self.stats = RankStats()


class Engine:
    """Runs a set of rank programs over a network model to completion."""

    def __init__(
        self,
        programs: Sequence[RankProgram],
        network: "NetworkModel | str",
        *,
        detect_races: bool = True,
        payloads: bool = True,
    ) -> None:
        self.network = resolve_model(network)
        self.detect_races = detect_races
        # A payload-free engine serves callers that only consume timing
        # (the symmetry replay).  Race detection compares payload
        # snapshots, so it cannot run without them.
        if detect_races and not payloads:
            raise SimulationError("detect_races=True requires payloads=True")
        self.payloads = payloads
        self.ranks = [_Rank(i, g) for i, g in enumerate(programs)]
        self.nranks = len(self.ranks)
        #: ranks that have not finished (the barrier quorum)
        self._live = self.nranks
        self._seq = 0
        # transfers to schedule, keyed (time, seq)
        self._events: List[Tuple[float, int, Message]] = []
        # runnable/wakeable ranks, keyed (time, rank_index, token); an
        # entry is live only while its token matches _rank_tokens[index]
        self._rank_heap: List[Tuple[float, int, int]] = []
        self._rank_tokens = [0] * self.nranks
        # unmatched state, keyed (dest, src, tag) in FIFO order
        self._unmatched_msgs: Dict[Tuple[int, int, int], List[Message]] = {}
        self._unmatched_recvs: Dict[Tuple[int, int, int], List[_Request]] = {}
        self._nic_send_free = [0.0] * self.nranks
        self._nic_recv_free = [0.0] * self.nranks
        self._barrier_waiting: List[int] = []
        self.warnings: List[str] = []
        #: operations processed (SimOps + heap events + wakes); exposed for
        #: the engine-throughput benchmark
        self.ops_processed = 0
        # copy-on-write payload snapshots: messages whose payload has not
        # been copied yet, per sending rank (drained at the sender's next
        # step, the only point its buffers can change)
        self._lazy_msgs: List[List[Message]] = [[] for _ in range(self.nranks)]
        self._lazy_count = 0
        # exact-type handler table; isinstance fallback covers subclasses
        self._handlers: Dict[type, Callable[[_Rank, Any], None]] = {
            Compute: self._do_compute,
            Isend: self._do_isend,
            Irecv: self._do_irecv,
            Wait: self._do_wait,
            Barrier: self._do_barrier,
            LocalCopy: self._do_local_copy,
        }

    # ------------------------------------------------------------------ api

    def run(self) -> SimResult:
        """Drive all ranks to completion; returns makespan and stats.

        Each turn takes the next thing to happen in virtual time.  A
        transfer event beats rank activity at equal times (a transfer
        scheduled at t must resolve before a rank blocked at t
        re-checks), and the lowest rank index wins ties between ranks:
        both orderings come from the linear scan the heaps replaced, and
        the determinism suite pins them.
        """
        ranks = self.ranks
        for rank in ranks:
            self._step(rank)  # prime each generator to its first yield
            self._touch(rank)

        events = self._events
        heap = self._rank_heap
        tokens = self._rank_tokens
        heappop = heapq.heappop
        blocked = _Status.BLOCKED
        while True:
            # discard stale rank entries (see _touch)
            while heap:
                entry = heap[0]
                if entry[2] == tokens[entry[1]]:
                    break
                heappop(heap)
            if events and (not heap or events[0][0] <= heap[0][0]):
                time, _, msg = heappop(events)
                self.ops_processed += 1
                self._schedule_transfer(msg, time)
                continue
            if not heap:
                break
            time, index, _ = heappop(heap)
            rank = ranks[index]
            self.ops_processed += 1
            if rank.status is blocked:
                self._resume_from_wait(rank, time)
            else:
                self._step(rank)
            self._touch(rank)
        if self._live:
            self._raise_deadlock()

        rank_times = [r.clock for r in ranks]
        return SimResult(
            time=max(rank_times) if rank_times else 0.0,
            rank_times=rank_times,
            stats=[r.stats for r in ranks],
            warnings=list(self.warnings),
            ops_processed=self.ops_processed,
        )

    # ------------------------------------------------------ engine schedule

    def _touch(self, rank: _Rank) -> None:
        """(Re)enqueue a rank at its next actionable virtual time.

        Rather than deleting the rank's previous heap entry (heaps cannot
        do that cheaply), the per-rank token is bumped so any earlier
        entry is recognized as stale and discarded at pop time; a live
        entry therefore always belongs to a ready or blocked rank.  A
        rank that is not actionable — finished, in a barrier, or blocked
        with an unknown wake time — is simply not enqueued; the state
        change that makes it actionable (a transfer completion, a
        barrier release) touches it again.
        """
        status = rank.status
        if status is _Status.READY:
            time = rank.clock
        elif status is _Status.BLOCKED:
            # the latest completion among the awaited requests (their
            # complete_time, inlined), unknown while one is unscheduled
            time = rank.block_start
            requests = rank.requests
            for h in rank.waiting_on:
                req = requests[h]
                msg = req.msg
                if msg is None:
                    return
                done = msg.t_complete
                if done <= 0.0:
                    return
                if req.t_posted > done:
                    done = req.t_posted
                if done > time:
                    time = done
        else:
            return
        index = rank.index
        token = self._rank_tokens[index] + 1
        self._rank_tokens[index] = token
        heapq.heappush(self._rank_heap, (time, index, token))

    def _raise_deadlock(self) -> None:
        lines = []
        for r in self.ranks:
            if r.status is _Status.BLOCKED:
                pending = [
                    h
                    for h in r.waiting_on
                    if r.requests[h].complete_time is None
                ]
                lines.append(
                    f"rank {r.index} blocked at t={r.block_start:.6g} on "
                    f"handles {pending}"
                )
            elif r.status is _Status.IN_BARRIER:
                lines.append(f"rank {r.index} stuck in barrier")
        raise DeadlockError(
            "no rank can make progress:\n  " + "\n  ".join(lines)
        )

    # ------------------------------------------------------------ rank step

    def _step(self, rank: _Rank) -> None:
        if self._lazy_msgs[rank.index]:
            # the rank is about to execute arbitrary code: snapshot any
            # in-flight payload it could mutate (copy-on-write boundary)
            self._materialize_rank(rank.index)
        try:
            value, rank.send_value = rank.send_value, None
            send = rank.gen.send
            op = send(value)
            # Drain consecutive Compute yields without returning to the
            # global scheduler: they only advance this rank's private
            # clock, so no other actor can become runnable in between.
            while type(op) is Compute:
                seconds = op.seconds
                if seconds < 0:
                    raise SimulationError("negative compute time")
                rank.clock += seconds
                rank.stats.compute_time += seconds
                self.ops_processed += 1
                op = send(None)
        except StopIteration:
            self._finish_rank(rank)
            return
        handler = self._handlers.get(type(op)) or self._handler_for(op)
        handler(rank, op)

    def _handler_for(self, op: SimOp) -> Callable[[_Rank, Any], None]:
        for typ, handler in self._handlers.items():
            if isinstance(op, typ):
                return handler
        raise SimulationError(f"unknown operation {op!r}")

    # ------------------------------------------------------------ handlers

    def _do_compute(self, rank: _Rank, op: Compute) -> None:
        if op.seconds < 0:
            raise SimulationError("negative compute time")
        rank.clock += op.seconds
        rank.stats.compute_time += op.seconds

    def _do_local_copy(self, rank: _Rank, op: LocalCopy) -> None:
        cost = self.network.local_copy_cost(op.nbytes)
        rank.clock += cost
        rank.stats.mpi_overhead_time += cost

    # -------------------------------------------- copy-on-write payloads

    def _materialize_rank(self, index: int) -> None:
        """Snapshot the still-lazy payloads of one sending rank.

        Called before the rank executes; between a yield and this point
        the rank has run no code, so the live view still holds the
        payload exactly as it was when the Isend was posted.
        """
        msgs = self._lazy_msgs[index]
        for msg in msgs:
            if msg.payload is None and msg.state is not MsgState.DELIVERED:
                msg.payload = np.asarray(msg.source_view).flatten(order="F")
        self._lazy_count -= len(msgs)
        msgs.clear()

    def _materialize_aliasing(self, target: Any) -> None:
        """Snapshot lazy payloads that overlap a buffer about to be written.

        ``target`` may be an ndarray (checked with shares_memory) or a
        callable scatter target (unknown memory: snapshot everything).
        """
        check = isinstance(target, np.ndarray)
        for msgs in self._lazy_msgs:
            for msg in msgs:
                if msg.payload is not None or msg.state is MsgState.DELIVERED:
                    continue
                src = np.asarray(msg.source_view)
                if not check or np.shares_memory(src, target):
                    msg.payload = src.flatten(order="F")

    def _finish_rank(self, rank: _Rank) -> None:
        if rank.requests:
            self.warnings.append(
                f"rank {rank.index} finished with {len(rank.requests)} "
                f"request(s) never waited on"
            )
        rank.status = _Status.DONE
        self._live -= 1
        # A rank finishing may complete a barrier among the remaining ranks.
        if self._barrier_waiting and len(self._barrier_waiting) == self._live:
            self._release_barrier()

    # ---------------------------------------------------------------- isend

    def _do_isend(self, rank: _Rank, op: Isend) -> None:
        # The payload snapshot is *deferred* (copy-on-write): the copy — a
        # 1-D column-major flatten, because the mini-Fortran world is
        # column-major throughout and a C-order flatten of a section would
        # silently transpose the data — happens at the sender's next step,
        # the first point its buffers can change.  A message consumed
        # before then is delivered straight from the live view.
        nbytes = int(np.asarray(op.data).nbytes)
        cost = self.network.send_cpu_cost(nbytes)
        rank.clock += cost
        stats = rank.stats
        stats.mpi_overhead_time += cost
        stats.bytes_sent += nbytes
        stats.messages_sent += 1
        if not (0 <= op.dest < self.nranks):
            raise SimulationError(
                f"rank {rank.index} sends to invalid rank {op.dest}"
            )

        self._seq += 1
        msg = Message(self._seq, rank.index, op.dest, op.tag, nbytes, op.data)
        if self.payloads:
            self._lazy_msgs[rank.index].append(msg)
            self._lazy_count += 1
        # transfer scheduling happens at the rank's post-overhead time, in
        # global time order (the event heap), so NIC allocation is fair;
        # transfers posted at equal times run in _seq (stepping) order
        self._seq += 1
        heapq.heappush(self._events, (rank.clock, self._seq, msg))
        self._match_send(msg)

        handle = rank.next_handle
        rank.next_handle = handle + 1
        rank.requests[handle] = _Request(msg, 0.0)
        rank.send_value = handle

    def _schedule_transfer(self, msg: Message, now: float) -> None:
        network = self.network
        start = max(
            now, self._nic_send_free[msg.src], self._nic_recv_free[msg.dest]
        )
        wire = network.wire_time(msg.nbytes)
        if network.congestion_factor != 1.0 and start > now:
            # the transfer queued behind a busy NIC: congested fabrics
            # dilate its wire occupancy (scenario knob, DESIGN.md §4)
            wire *= network.congestion_factor
        self._nic_send_free[msg.src] = start + wire
        self._nic_recv_free[msg.dest] = start + wire
        msg.t_complete = start + wire + network.msg_latency(msg.nbytes)
        # the now-known completion time may be the last unknown in a
        # blocked rank's wait set on either endpoint: requeue them
        for endpoint in (msg.src, msg.dest):
            rank = self.ranks[endpoint]
            if rank.status is _Status.BLOCKED:
                self._touch(rank)

    def _match_send(self, msg: Message) -> None:
        key = (msg.dest, msg.src, msg.tag)
        queue = self._unmatched_recvs.get(key)
        if queue:
            req = queue.pop(0)
            if not queue:
                del self._unmatched_recvs[key]
            req.msg = msg
            receiver = self.ranks[msg.dest]
            if receiver.status is _Status.BLOCKED:
                self._touch(receiver)
        else:
            self._unmatched_msgs.setdefault(key, []).append(msg)

    # ---------------------------------------------------------------- irecv

    def _do_irecv(self, rank: _Rank, op: Irecv) -> None:
        cost = self.network.recv_cpu_cost()
        rank.clock += cost
        rank.stats.mpi_overhead_time += cost
        req = _Request(None, rank.clock, True, op.buffer, op.nbytes)
        key = (rank.index, op.source, op.tag)
        queue = self._unmatched_msgs.get(key)
        if queue:
            req.msg = queue.pop(0)
            if not queue:
                del self._unmatched_msgs[key]
        else:
            self._unmatched_recvs.setdefault(key, []).append(req)

        handle = rank.next_handle
        rank.next_handle = handle + 1
        rank.requests[handle] = req
        rank.send_value = handle

    # ----------------------------------------------------------------- wait

    def _do_wait(self, rank: _Rank, op: Wait) -> None:
        for h in op.handles:
            if h not in rank.requests:
                raise SimulationError(
                    f"rank {rank.index} waits on unknown handle {h}"
                )
        rank.waiting_on = tuple(op.handles)
        rank.block_start = rank.clock
        rank.status = _Status.BLOCKED
        # an immediately-satisfiable wait resolves via the normal wake path

    def _resume_from_wait(self, rank: _Rank, wake: float) -> None:
        stats = rank.stats
        stats.wait_time += max(0.0, wake - rank.block_start)
        rank.clock = max(rank.clock, wake)
        charges = 0.0
        requests = rank.requests
        for h in rank.waiting_on:
            req = requests.pop(h)
            msg = req.msg
            if req.recv:
                if self.payloads:
                    self._deliver(req.buffer, msg)
                elif req.nbytes != msg.nbytes:
                    raise _size_mismatch(req.nbytes, msg)
                # the wire transfer finished before the recv was posted
                unexpected = msg.t_complete <= req.t_posted
                if unexpected:
                    stats.unexpected_messages += 1
                charges += self._recv_completion_cost(msg.nbytes, unexpected)
                stats.bytes_received += msg.nbytes
                stats.messages_received += 1
            elif self.detect_races:
                self._check_send_race(msg)
        rank.clock += charges
        stats.mpi_overhead_time += charges
        rank.waiting_on = ()
        rank.status = _Status.READY

    def _recv_completion_cost(self, nbytes: int, unexpected: bool) -> float:
        cost = 0.0
        if not self.network.offload:
            cost += nbytes * self.network.host_byte_time
        if unexpected:
            cost += self.network.unexpected_copy_cost(nbytes)
        return cost

    def _deliver(self, target: Any, msg: Message) -> None:
        if self._lazy_count:
            # the write below may overlap another in-flight send's live
            # buffer: snapshot those first (copy-on-write aliasing guard)
            self._materialize_aliasing(target)
        payload = msg.payload
        if payload is None:
            src = np.asarray(msg.source_view)
            if self.detect_races:
                # keep race-report parity with the eager-snapshot engine:
                # the sender never ran since the isend, so the live view
                # still is the isend-time payload — snapshot it for the
                # comparison at the sender's wait
                payload = msg.payload = src.flatten(order="F")
            elif src.flags["F_CONTIGUOUS"]:
                payload = src.reshape(-1, order="F")  # zero-copy delivery
            else:
                payload = src.flatten(order="F")
        msg.state = MsgState.DELIVERED
        if callable(target):
            target(payload)
            return
        if target.nbytes != msg.nbytes:
            raise _size_mismatch(target.nbytes, msg)
        flat = payload.view(target.dtype)
        if target.ndim <= 1:
            np.copyto(target, flat)
        else:
            # reassemble the column-major flat payload into the target's
            # index space, whatever its memory layout
            np.copyto(target, flat.reshape(target.shape, order="F"))

    def _check_send_race(self, msg: Message) -> None:
        if msg.payload is None:
            # no snapshot was ever taken: the sender never executed while
            # the transfer was in flight, so the buffer cannot have raced
            return
        current = np.asarray(msg.source_view)
        payload = msg.payload
        # compare through a zero-copy reshape of the F-contiguous snapshot
        # instead of flattening the live view (which would copy it)
        if current.size != payload.size or not np.array_equal(
            current, payload.reshape(current.shape, order="F")
        ):
            self.warnings.append(
                f"send buffer of rank {msg.src} (tag {msg.tag}, "
                f"{msg.nbytes} B) was modified while the transfer was in "
                f"flight — the transformation that produced this program "
                f"is unsafe"
            )

    # -------------------------------------------------------------- barrier

    def _do_barrier(self, rank: _Rank, op: Barrier) -> None:
        rank.status = _Status.IN_BARRIER
        rank.block_start = rank.clock
        self._barrier_waiting.append(rank.index)
        if len(self._barrier_waiting) == self._live:
            self._release_barrier()

    def _release_barrier(self) -> None:
        t = max(self.ranks[i].clock for i in self._barrier_waiting)
        cost = self.network.latency * max(
            1.0, math.ceil(math.log2(max(2, self.nranks)))
        )
        for i in self._barrier_waiting:
            r = self.ranks[i]
            r.stats.wait_time += max(0.0, t - r.clock)
            r.clock = t + cost
            r.stats.mpi_overhead_time += cost
            r.status = _Status.READY
            self._touch(r)
        self._barrier_waiting.clear()


def _size_mismatch(posted: int, msg: Message) -> SimulationError:
    return SimulationError(
        f"receive buffer size mismatch: posted {posted} B, "
        f"message from rank {msg.src} tag {msg.tag} is {msg.nbytes} B"
    )


def simulate(
    programs: Sequence[RankProgram],
    network: "NetworkModel | str",
    *,
    detect_races: bool = True,
    payloads: bool = True,
) -> SimResult:
    """Convenience wrapper: build an :class:`Engine` and run it.

    ``network`` is a model instance or a registered scenario name.
    """
    return Engine(
        programs,
        network,
        detect_races=detect_races,
        payloads=payloads,
    ).run()
