"""Simulation protocol: the operations rank coroutines yield to the engine.

A rank program (the AST interpreter, or a hand-written Python kernel in
tests) is a generator.  It yields :class:`SimOp` values; the engine
processes each, advances virtual clocks, and sends back the result (a
request handle for isend/irecv, received data availability for wait, ...).

This keeps the runtime single-threaded and deterministic: "overlap" is a
property of the *virtual* timeline, not of Python thread scheduling —
exactly the substitution DESIGN.md records for real RDMA hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np


@dataclass
class SimOp:
    """Base class for yielded operations."""


@dataclass
class Compute(SimOp):
    """Advance this rank's clock by ``seconds`` of pure computation."""

    seconds: float


@dataclass
class Isend(SimOp):
    """Start a non-blocking send.  Engine returns an integer handle.

    ``data`` is the payload *view*; the engine snapshots it copy-on-write
    (the copy is deferred until the sending rank next executes — the only
    point its buffers can change) and re-checks it at send completion to
    detect programs that modify a buffer with a transfer in flight.
    """

    dest: int
    tag: int
    data: np.ndarray


@dataclass
class Irecv(SimOp):
    """Post a non-blocking receive into ``buffer`` (written at completion).

    ``buffer`` may be a writable ndarray view, or a callable accepting the
    payload (for strided/section targets the interpreter scatters itself).
    Engine returns an integer handle.
    """

    source: int
    tag: int
    buffer: Any
    nbytes: int


@dataclass
class Wait(SimOp):
    """Block until all listed handles complete."""

    handles: Sequence[int]


@dataclass
class Barrier(SimOp):
    """Synchronize all ranks."""


@dataclass
class LocalCopy(SimOp):
    """Charge the CPU for a local memcpy of ``nbytes`` (self-partition)."""

    nbytes: int


class MsgState(enum.Enum):
    PENDING = "pending"  # isend posted, transfer not finished
    DELIVERED = "delivered"  # payload landed (recv may not be posted yet)


class Message:
    """One point-to-point transfer in flight.

    ``payload`` is the column-major snapshot: None until the
    copy-on-write boundary (the sender's next step) forces it, or until
    delivery consumes ``source_view``, the live view of the send buffer
    (also the reference race detection compares against).
    ``t_complete`` stays 0.0 until the transfer is scheduled on the NICs.
    """

    __slots__ = (
        "seq",
        "src",
        "dest",
        "tag",
        "nbytes",
        "payload",
        "source_view",
        "t_complete",
        "state",
    )

    def __init__(
        self,
        seq: int,
        src: int,
        dest: int,
        tag: int,
        nbytes: int,
        source_view: Any,
    ) -> None:
        self.seq = seq
        self.src = src
        self.dest = dest
        self.tag = tag
        self.nbytes = nbytes
        self.payload: Optional[np.ndarray] = None
        self.source_view = source_view
        self.t_complete = 0.0
        self.state = MsgState.PENDING


@dataclass
class RankStats:
    """Per-rank accounting, reported by the engine."""

    compute_time: float = 0.0
    mpi_overhead_time: float = 0.0  # o_s/o_r/copy charges
    wait_time: float = 0.0  # blocked in wait/barrier
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    unexpected_messages: int = 0

    @property
    def total(self) -> float:
        return self.compute_time + self.mpi_overhead_time + self.wait_time


@dataclass
class SimResult:
    """Outcome of one cluster run."""

    time: float  # makespan: max finish time over ranks
    rank_times: List[float]
    stats: List[RankStats]
    warnings: List[str] = field(default_factory=list)
    # scheduler operations consumed (SimOps + heap events + wakes); a
    # deterministic function of the op streams, so replay and full
    # interpretation of the same job report the same count.  Throughput
    # benchmarks divide this by wall time for an events/sec figure.
    ops_processed: int = 0
