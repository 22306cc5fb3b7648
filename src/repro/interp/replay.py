"""Replay engine: run one recorded trace on every rank of the cluster.

The second half of the rank-symmetry engine (DESIGN.md §10; the first
half is :mod:`repro.interp.symmetry`).  :func:`replay_cluster` records
the program once with :class:`~repro.interp.symmetry.SymmetryRecorder`,
then drives the real :class:`~repro.runtime.simulator.Engine` with one
lightweight generator per rank that replays the recorded schedule:
``Compute`` events verbatim, collectives re-issued through a real
per-rank :class:`~repro.runtime.mpi.SimComm` so the registered
algorithms emit exactly the isend/irecv/wait streams full
interpretation would.  Timing is therefore *identical*, not
approximated: the engine sees the same ops with the same byte counts in
the same order, and its scheduling is deterministic.

Replay ranks move no payloads.  Each rank's communicator and the
engine run payload-free (``payloads=False``): the algorithms emit the
same ops with the same byte counts but skip every local copy, and the
engine neither snapshots nor delivers.  Payload contents are already
accounted for by the recorder's shadow algebra, and a collective
algorithm's control flow depends only on rank, size and partition size,
never on payload values.  All ranks therefore share one set of scratch
buffers per trace event, which nothing writes.  The engine also runs
with ``detect_races=False``: recorded programs are collective-only,
hence race-free, and full interpretation reports no warnings for them
either.

The recorded data is reassembled into the same
:class:`~repro.interp.runner.ClusterRun` shape full interpretation
produces: per-rank print records expanded from rank vectors, per-rank
final arrays from shadows (rank-uniform arrays share one ndarray across
ranks, which is why every run's arrays are read-only).  A
:class:`Recording` is what survives of a recorder after a successful
run; a session's program memo keeps
one per (program, rank count, cost model) and hands it to every
network and collective suite that replays it (DESIGN.md §7.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import SimulationError, SymmetryError
from ..lang import SourceFile, parse
from ..runtime.collectives import CollectiveSpec
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.events import Compute, SimOp
from ..runtime.mpi import SimComm
from ..runtime.network import IDEAL, NetworkModel, resolve_model
from ..runtime.simulator import Engine
from .runner import ClusterRun
from .symmetry import RankVec, SymmetryRecorder, TraceEvent
from .values import FArray


def record_trace(
    program: Union[str, SourceFile],
    nranks: int,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> SymmetryRecorder:
    """Interpret ``program`` once for all ranks; raises
    :class:`~repro.errors.SymmetryError` when symmetry cannot be proven."""
    source = program if isinstance(program, SourceFile) else parse(program)
    recorder = SymmetryRecorder(source, nranks, cost_model=cost_model)
    for op in recorder.run_collecting():
        if type(op) is not Compute:
            raise SymmetryError(
                f"recorder produced a non-compute op {op!r}"
            )  # pragma: no cover - recorder never emits these
        recorder.trace.append(("compute", op.seconds))
    return recorder


@dataclass(frozen=True)
class Recording:
    """A successful recording, detached from its recorder.

    ``trace`` is the schedule every rank follows, ``output`` the print
    template (rank vectors where ranks differ), ``arrays`` the
    rank-uniform final state and ``shadows`` each rank-varying array's
    per-rank contents.  Replaying only reads it, and it depends on the
    program, the rank count and the cost model alone, so one recording
    serves every network and collective suite.
    """

    trace: List[TraceEvent]
    output: List[Tuple[Any, ...]]
    arrays: Dict[str, FArray]
    shadows: Dict[str, np.ndarray]
    data_approximate: bool

    @classmethod
    def of(cls, recorder: SymmetryRecorder) -> "Recording":
        return cls(
            trace=recorder.trace,
            output=recorder.output,
            arrays=recorder.main_frame.arrays,
            shadows=recorder.shadows,
            data_approximate=recorder.data_approximate,
        )

    @property
    def nbytes(self) -> int:
        """Bytes of array data the recording holds."""
        return sum(s.nbytes for s in self.shadows.values()) + sum(
            a.data.nbytes for a in self.arrays.values()
        )


def _scratch_for(events: Sequence[TraceEvent]) -> List[Tuple[np.ndarray, ...]]:
    """One shared buffer set per trace event (int64: 8 bytes/element,
    the same wire size as every mini-Fortran dtype)."""
    scratch: List[Tuple[np.ndarray, ...]] = []
    for ev in events:
        kind = ev[0]
        if kind in ("alltoall", "allgather"):
            scratch.append(
                (np.zeros(ev[1], np.int64), np.zeros(ev[2], np.int64))
            )
        elif kind == "allreduce":
            scratch.append(
                (np.zeros(ev[1], np.int64), np.zeros(ev[1], np.int64))
            )
        elif kind == "bcast":
            scratch.append((np.zeros(ev[1], np.int64),))
        else:
            scratch.append(())
    return scratch


def _replay_rank(
    rank: int,
    nranks: int,
    events: Sequence[TraceEvent],
    scratch: Sequence[Tuple[np.ndarray, ...]],
    collective: CollectiveSpec,
) -> Generator[SimOp, Any, Any]:
    comm = SimComm(rank, nranks, collectives=collective, payloads=False)
    for ev, bufs in zip(events, scratch):
        kind = ev[0]
        if kind == "compute":
            yield Compute(seconds=ev[1])
        elif kind == "alltoall":
            yield from comm.alltoall(bufs[0], bufs[1])
        elif kind == "allreduce":
            yield from comm.allreduce(bufs[0], bufs[1], op=ev[2])
        elif kind == "allgather":
            yield from comm.allgather(bufs[0], bufs[1])
        elif kind == "bcast":
            yield from comm.bcast(bufs[0], root=ev[2])
        elif kind == "barrier":
            yield from comm.barrier()
        else:  # pragma: no cover - trace entries are produced above
            raise SimulationError(f"unknown trace event {kind!r}")


def replay_cluster(
    program: Union[str, SourceFile],
    nranks: int,
    network: Union[str, NetworkModel] = IDEAL,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    collective: CollectiveSpec = None,
    recording: Optional[Recording] = None,
) -> ClusterRun:
    """Record once, replay on ``nranks`` ranks; bit-identical to
    :func:`~repro.interp.runner._simulate` whenever recording succeeds.

    Raises :class:`~repro.errors.SymmetryError` when the program is not
    provably rank-symmetric (the caller decides whether to fall back).
    A ``recording`` already made of ``program`` under ``nranks`` and
    ``cost_model`` is replayed as it is; since it serves other runs
    too, the run's arrays are copies of its shadows, never views.
    """
    shared = recording is not None
    if recording is None:
        recording = Recording.of(
            record_trace(program, nranks, cost_model=cost_model)
        )
    events = recording.trace
    scratch = _scratch_for(events)
    engine = Engine(
        [
            _replay_rank(rank, nranks, events, scratch, collective)
            for rank in range(nranks)
        ],
        resolve_model(network),
        detect_races=False,
        payloads=False,
    )
    result = engine.run()
    return ClusterRun(
        result=result,
        outputs=_expand_outputs(recording, nranks),
        arrays=_expand_arrays(recording, nranks, copy=shared),
        data_approximate=recording.data_approximate,
    )


def _expand_outputs(
    recording: Recording, nranks: int
) -> List[List[Tuple[Any, ...]]]:
    template = recording.output
    has_vecs = any(
        isinstance(v, RankVec) for entry in template for v in entry
    )
    if not has_vecs:
        return [list(template) for _ in range(nranks)]
    return [
        [
            tuple(
                v.values[rank].item() if isinstance(v, RankVec) else v
                for v in entry
            )
            for entry in template
        ]
        for rank in range(nranks)
    ]


def _expand_arrays(
    recording: Recording, nranks: int, *, copy: bool
) -> List[Dict[str, np.ndarray]]:
    # rank-uniform (and approximate-representative) arrays are shared
    # across ranks as one ndarray; shadowed arrays get per-rank views of
    # the shadow rows, or copies (``copy``) when the recording outlives
    # this run
    shared = {
        name: arr.data.copy(order="F")
        for name, arr in recording.arrays.items()
        if name not in recording.shadows
    }
    arrays: List[Dict[str, np.ndarray]] = []
    for rank in range(nranks):
        d = dict(shared)
        for name, shadow in recording.shadows.items():
            row = shadow[rank].reshape(
                recording.arrays[name].shape, order="F"
            )
            d[name] = row.copy(order="F") if copy else np.asfortranarray(row)
        arrays.append(d)
    return arrays
