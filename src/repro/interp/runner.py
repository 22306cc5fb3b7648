"""Convenience drivers: run a mini-Fortran program on the simulated cluster.

:func:`execute_job` is the core entry: it takes one typed
:class:`ClusterJob`, parses the program (if given text), instantiates
one :class:`~repro.interp.interpreter.Interpreter` per rank, drives them
through the :class:`~repro.runtime.simulator.Engine`, and returns timing
plus each rank's printed output and final array contents — everything
the correctness checker and the benchmark harness need.  Network models
may be passed as instances or as registered scenario names
(:mod:`repro.runtime.network`).  Library callers reach it through the
:class:`repro.api.Session` façade (:meth:`~repro.api.Session.run`).

:func:`run_many` executes a batch of independent simulations, optionally
across a process pool — figure sweeps rerun the same programs over many
network scenarios, which is embarrassingly parallel.  Each simulation is
deterministic on its own, so the pool changes wall-clock time only,
never results.  The returned :class:`RunBatch` records whether the pool
or the serial fallback actually executed (sandboxes without working
multiprocessing silently degrade, which callers must be able to see).

:func:`job_fingerprint` hashes everything a :class:`ClusterJob`'s
result depends on — the content-addressed key of the sweep cache
(DESIGN.md §7).

:class:`ProgramMemo` keeps what simulations derive from a program text
alone — the parsed AST, the generated code and the symmetry recording
per rank count and cost model — so a session's sweeps parse, generate
and record each program once (DESIGN.md §7.4).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import EngineModeError, SimulationError, SymmetryError
from ..lang import SourceFile, parse, unparse
from ..runtime.collectives import CollectiveSpec, canonical_suite
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.events import SimResult
from ..runtime.mpi import SimComm
from ..runtime.network import IDEAL, NetworkModel, resolve_model
from ..runtime.simulator import ENGINE_VERSION, Engine
from . import symmetry
from .compiler import StmtCompiler
from .interpreter import Interpreter
from .procedures import ExternalRegistry

if TYPE_CHECKING:
    from .replay import Recording


@dataclass
class ClusterRun:
    """Result of simulating one program on the cluster.

    ``data_approximate`` is set only by the replay engine when the
    symmetry recorder's shadow budget forced it to drop some arrays'
    per-rank contents (DESIGN.md §10): timing, stats, and outputs are
    still exact, but the flagged run's ``arrays`` hold deterministic
    representatives, so correctness checkers must not compare them.

    The arrays are read-only: the replay engine hands every rank the
    same ndarray for an array all ranks agree on, so a write would
    change every rank at once; a write raises on either engine, and
    in a run unpickled from a pool worker too.
    """

    result: SimResult
    outputs: List[List[Tuple[Any, ...]]]  # per-rank print records
    arrays: List[Dict[str, np.ndarray]]  # per-rank final array contents
    data_approximate: bool = False

    def __post_init__(self) -> None:
        for arrays in self.arrays:
            for data in arrays.values():
                data.flags.writeable = False

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # a run unpickled from a pool worker gets its arrays back
        # writeable (and a replayed run's still shared across ranks)
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def time(self) -> float:
        return self.result.time

    @property
    def warnings(self) -> List[str]:
        return self.result.warnings

    def array(self, rank: int, name: str) -> np.ndarray:
        return self.arrays[rank][name]


def _as_source(program: Union[str, SourceFile]) -> SourceFile:
    if isinstance(program, SourceFile):
        return program
    return parse(program)


def _simulate(
    program: Union[str, SourceFile],
    nranks: int,
    network: Union[str, NetworkModel] = IDEAL,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    externals: Optional[ExternalRegistry] = None,
    detect_races: bool = True,
    collective: CollectiveSpec = None,
    compiler: Optional[StmtCompiler] = None,
) -> ClusterRun:
    """Simulate ``program`` on ``nranks`` ranks over ``network``.

    ``network`` is a :class:`~repro.runtime.network.NetworkModel` or the
    name of a registered scenario (e.g. ``"gmnet"``); ``collective``
    selects collective algorithms the same way (see
    :func:`repro.runtime.collectives.resolve_suite`).  ``compiler`` is
    a :class:`StmtCompiler` of ``program`` without externals that
    earlier jobs may already have generated (a :class:`ProgramMemo`
    entry's).
    """
    network = resolve_model(network)
    source = _as_source(program)
    externals = externals or ExternalRegistry()
    # one generated module serves every rank (DESIGN.md §5)
    if compiler is None:
        compiler = StmtCompiler(source, externals)
    interps = [
        Interpreter(
            source,
            comm=SimComm(rank, nranks, collectives=collective),
            cost_model=cost_model,
            externals=externals,
            compiler=compiler,
        )
        for rank in range(nranks)
    ]
    engine = Engine(
        [it.run_collecting() for it in interps],
        network,
        detect_races=detect_races,
    )
    result = engine.run()
    outputs = [it.output for it in interps]
    arrays = [
        {
            name: arr.data.copy(order="F")
            for name, arr in it.main_frame.arrays.items()
        }
        for it in interps
    ]
    return ClusterRun(result=result, outputs=outputs, arrays=arrays)


def run_serial(
    program: Union[str, SourceFile],
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    externals: Optional[ExternalRegistry] = None,
) -> ClusterRun:
    """Run a communication-free program on a single virtual rank."""
    return _simulate(
        program,
        nranks=1,
        network=IDEAL,
        cost_model=cost_model,
        externals=externals,
    )


# ------------------------------------------------------- parallel sweeps


@dataclass
class ClusterJob:
    """One independent simulation in a batch (see :func:`run_many`).

    ``variant`` is optional *provenance*: when the program was produced
    by a transformation pipeline, it carries the canonical identity of
    that pipeline plus its options (see
    :func:`repro.transform.pipeline.variant_identity`) so the sweep
    cache can distinguish results by how the program was derived, not
    only by its final text.  It does not affect the simulation itself.

    ``engine_mode`` selects the execution engine (DESIGN.md §10):
    ``"auto"`` (default) tries the rank-symmetry replay engine and
    silently falls back to full per-rank interpretation when symmetry
    cannot be proven; ``"replay"`` forces replay and raises
    :class:`~repro.errors.EngineModeError` instead of falling back;
    ``"full"`` always interprets every rank.  Because replay is proven
    bit-identical wherever it applies, the mode is *not* part of the
    job's fingerprint — all three modes share cache entries.
    """

    program: Union[str, SourceFile]
    nranks: int
    network: Union[str, NetworkModel] = "ideal"
    cost_model: CostModel = DEFAULT_COST_MODEL
    detect_races: bool = True
    externals: Optional[ExternalRegistry] = None
    label: str = ""
    collective: CollectiveSpec = None
    variant: Optional[Dict[str, Any]] = None
    engine_mode: str = "auto"
    #: ``program`` as source text when it is an AST whose text the
    #: caller already holds (the sweep's transform memo does), so
    #: fingerprinting skips an unparse and a :class:`ProgramMemo` can
    #: key the job
    text: Optional[str] = None

    def program_text(self) -> str:
        """The job's program as source text (unparsing an AST input
        whose text the job does not carry)."""
        if isinstance(self.program, str):
            return self.program
        return unparse(self.program) if self.text is None else self.text


def job_fingerprint(job: ClusterJob) -> str:
    """Content-address of one simulation: sha-256 over everything the
    result depends on.

    DESIGN.md §3.2 guarantees a simulation is a pure function of
    (program text, network parameters, cost model, collective suite,
    rank count, race detection) under one engine version — so that
    tuple, canonically serialized, IS the identity of the result.  The
    sweep cache (§7) keys measurements by this hash.  A job carrying
    transformation provenance (``variant``) additionally folds the
    pipeline identity and canonical options into the key (§9), so a
    re-registered variant or changed knob can never serve stale
    entries.

    Jobs carrying an :class:`ExternalRegistry` embed arbitrary Python
    callables whose behavior cannot be content-hashed; fingerprinting
    them raises :class:`~repro.errors.SimulationError` and the sweep
    engine runs such points uncached instead.  An AST program is
    unparsed here unless the job carries its ``text``.
    """
    if job.externals is not None:
        raise SimulationError(
            f"job {job.label or job.nranks!r} carries an external-procedure "
            "registry; externals are opaque Python callables and cannot be "
            "content-hashed (run such jobs uncached)"
        )
    payload = {
        "engine": ENGINE_VERSION,
        # the symmetry-recorder version is folded in unconditionally:
        # engine_mode="auto" may execute any fingerprinted job under the
        # replay engine, so a recorder semantics change must invalidate
        # every entry.  engine_mode itself is deliberately NOT keyed —
        # replay is bit-identical wherever it runs, so all modes share
        # one cache entry per job.
        "symmetry": symmetry.SYMMETRY_VERSION,
        "program": job.program_text(),
        "nranks": job.nranks,
        "network": resolve_model(job.network).canonical_params(),
        "cost": job.cost_model.canonical_params(),
        "collective": canonical_suite(job.collective),
        "detect_races": job.detect_races,
    }
    if job.variant is not None:
        # transformation provenance (pipeline identity + canonical
        # TransformOptions): jobs whose programs came from different
        # pipelines/options never share a cache entry, even if the
        # transformed text happens to coincide.  Untransformed jobs
        # omit the key, keeping their fingerprints stable across the
        # introduction of the variant axis.
        payload["variant"] = job.variant
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: the program memo of an executor worker, set by the executor's
#: initializer (:func:`_use_programs`); unset in every other thread
_worker = threading.local()


def _use_programs(programs: "ProgramMemo") -> None:
    """Executor initializer: the worker runs its jobs through
    ``programs`` (the sweep server's threads share their session's)."""
    _worker.programs = programs


def _init_pool_worker(size: int) -> None:
    """Process-pool initializer: the worker keeps one bounded
    :class:`ProgramMemo` of its own for the pool's lifetime."""
    _use_programs(ProgramMemo(size))


def execute_job(
    job: ClusterJob, programs: Optional["ProgramMemo"] = None
) -> ClusterRun:
    """Simulate one :class:`ClusterJob` — the core every façade path,
    sweep and pool worker executes.

    Engine dispatch (DESIGN.md §10): ``engine_mode="auto"`` attempts the
    rank-symmetry replay engine and falls back to full per-rank
    interpretation on :class:`~repro.errors.SymmetryError`; ``"replay"``
    converts that fallback into an :class:`~repro.errors.EngineModeError`
    so an unexpectedly asymmetric program fails loudly; ``"full"``
    skips the symmetry analysis entirely.

    ``programs`` (a session's :class:`ProgramMemo`; by default the
    executor worker's, see :func:`_use_programs`) supplies the parsed
    program, its generated code and its symmetry outcome when an
    earlier job already made them.  Jobs with externals, and AST
    programs whose text the job does not carry, run without it.
    """
    mode = job.engine_mode
    if mode not in ("auto", "replay", "full"):
        raise SimulationError(
            f"unknown engine_mode {mode!r} (expected 'auto', 'replay', "
            f"or 'full')"
        )
    if programs is None:
        programs = getattr(_worker, "programs", None)
    entry = None if programs is None else programs.entry(job)
    # parsed once: a replay attempt and its fallback share the AST
    source = _as_source(job.program) if entry is None else entry.source
    if mode != "full":
        try:
            if job.externals is not None:
                raise SymmetryError(
                    "the job carries external procedures, which are "
                    "opaque per-rank Python callables outside the "
                    "symmetry proof"
                )
            from .replay import replay_cluster

            return replay_cluster(
                source,
                job.nranks,
                job.network,
                cost_model=job.cost_model,
                collective=job.collective,
                recording=(
                    None
                    if entry is None
                    else programs.recording(entry, job.nranks, job.cost_model)
                ),
            )
        except SymmetryError as exc:
            if mode == "replay":
                raise EngineModeError(
                    "engine_mode='replay' was forced but the program is "
                    f"not provably rank-symmetric: {exc}"
                ) from exc
    return _simulate(
        source,
        job.nranks,
        job.network,
        cost_model=job.cost_model,
        externals=job.externals,
        detect_races=job.detect_races,
        collective=job.collective,
        compiler=None if entry is None else entry.compiler,
    )


class _Program:
    """One :class:`ProgramMemo` entry: a program text's AST and the
    compiler every full interpretation of it shares."""

    __slots__ = ("text", "source", "compiler")

    def __init__(self, text: str, source: SourceFile) -> None:
        self.text = text
        self.source = source
        # generation stays lazy: a program that always replays never
        # generates the full interpreter's code
        self.compiler = StmtCompiler(source, ExternalRegistry())


#: a recording, or the message of the refusal to record
_Outcome = Union["Recording", str]


class ProgramMemo:
    """Bounded, thread-safe memo of what simulations derive from a
    program text alone (DESIGN.md §7.4).

    Keyed by program text, an entry holds the parsed
    :class:`~repro.lang.SourceFile` (a job's own AST when it carries
    its text) and one :class:`StmtCompiler`, which depends on the AST
    and not on the cost model.  Beside the entries, the memo keeps one
    symmetry outcome per (text, rank count, canonical cost parameters):
    the :class:`~repro.interp.replay.Recording`, or the refusal's
    message, raised again as a fresh
    :class:`~repro.errors.SymmetryError` each time.  A recording
    depends on neither the network nor the collective suite, so a
    sweep over networks records each program once.

    Entries and outcomes are each bounded by ``size``, least recently
    used first out, and the outcomes' array data by the recorder's own
    shadow budget (:data:`~repro.interp.symmetry.MAX_SHADOW_BYTES`).
    The stored ASTs, compilers and recordings are shared read-only.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._entries: "OrderedDict[str, _Program]" = OrderedDict()
        self._outcomes: "OrderedDict[Tuple[Any, ...], _Outcome]" = (
            OrderedDict()
        )
        self._outcome_bytes = 0
        self._lock = threading.Lock()

    def entry(self, job: ClusterJob) -> Optional[_Program]:
        """The entry of ``job``'s program (made on first use), or
        ``None`` when the job runs without the memo."""
        if job.externals is not None:
            return None
        program = job.program
        text = program if isinstance(program, str) else job.text
        if text is None:
            return None
        with self._lock:
            entry = self._entries.get(text)
            if entry is not None:
                self._entries.move_to_end(text)
                return entry
        entry = _Program(text, _as_source(program))
        with self._lock:
            # a thread that lost a race adopts the winner's entry
            entry = self._entries.setdefault(text, entry)
            self._entries.move_to_end(text)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)
        return entry

    def recording(
        self, entry: _Program, nranks: int, cost_model: CostModel
    ) -> "Recording":
        """The recording of ``entry``'s program under ``nranks`` and
        ``cost_model``, made on first use; raises
        :class:`~repro.errors.SymmetryError` when recording refuses."""
        from . import replay

        key = (
            entry.text,
            nranks,
            tuple(sorted(cost_model.canonical_params().items())),
        )
        with self._lock:
            outcome = self._outcomes.get(key)
            if outcome is not None:
                self._outcomes.move_to_end(key)
        if outcome is None:
            try:
                outcome = replay.Recording.of(
                    replay.record_trace(
                        entry.source, nranks, cost_model=cost_model
                    )
                )
            except SymmetryError as exc:
                outcome = str(exc)
            with self._lock:
                if key not in self._outcomes:
                    self._outcomes[key] = outcome
                    self._outcome_bytes += _nbytes(outcome)
                while self._outcomes and (
                    len(self._outcomes) > self.size
                    or self._outcome_bytes > symmetry.MAX_SHADOW_BYTES
                ):
                    _, old = self._outcomes.popitem(last=False)
                    self._outcome_bytes -= _nbytes(old)
        if isinstance(outcome, str):
            raise SymmetryError(outcome)
        return outcome


def _nbytes(outcome: _Outcome) -> int:
    return 0 if isinstance(outcome, str) else outcome.nbytes


def _poolable(jobs: Sequence[ClusterJob]) -> bool:
    """True when every job can cross a process boundary.

    External registries usually hold closures (``make_producer``), which
    do not pickle; such sweeps silently run serially instead of failing.
    """
    try:
        pickle.dumps(list(jobs))
    except Exception:
        return False
    return True


class RunBatch(List[ClusterRun]):
    """The results of one :func:`run_many` batch, in submission order.

    A plain list of :class:`ClusterRun` (existing callers index it as
    before), annotated with how the batch actually executed:

    * ``mode`` — ``"pool"`` (a process pool ran the jobs) or
      ``"serial"`` (this process ran them in order);
    * ``reason`` — why the serial path was taken (empty for ``"pool"``);
    * ``processes`` — worker count actually used (1 for serial).

    The annotation exists because the serial fallback is otherwise
    invisible: results are bit-identical either way (each simulation is
    deterministic on its own), so only wall-clock behavior differs —
    and a caller sizing a sweep needs to know which one it got.
    """

    def __init__(
        self,
        runs: Sequence[ClusterRun] = (),
        *,
        mode: str = "serial",
        reason: str = "",
        processes: int = 1,
    ) -> None:
        super().__init__(runs)
        self.mode = mode
        self.reason = reason
        self.processes = processes


def run_many(
    jobs: Sequence[ClusterJob],
    *,
    executor=None,
    programs: Optional[ProgramMemo] = None,
) -> RunBatch:
    """Run independent simulations, optionally on a process pool.

    ``executor`` (a live :class:`concurrent.futures.Executor`, in
    practice a :class:`repro.api.Session`'s persistent pool) runs the
    batch and is **not** shut down afterwards.  Without one (or for a
    single job, or unpicklable jobs) the batch runs serially in
    submission order, through ``programs`` (see :func:`execute_job`)
    when given.  Results come back in submission order either way, so
    output is identical — sweeps are deterministic per job.  The
    returned :class:`RunBatch` says which path executed and why.
    """
    jobs = list(jobs)

    def serial(reason: str) -> RunBatch:
        return RunBatch(
            [execute_job(j, programs) for j in jobs],
            mode="serial",
            reason=reason,
        )

    if executor is None:
        return serial("no pool requested")
    if len(jobs) < 2:
        return serial("batch too small to shard")
    # resolve scenario names to model instances before shipping: a worker
    # under the 'spawn' start method re-imports the registry and would not
    # see models registered at runtime in this process
    shipped = [replace(j, network=resolve_model(j.network)) for j in jobs]
    if not _poolable(shipped):
        return serial("jobs not picklable (externals?)")

    workers = getattr(executor, "_max_workers", None) or 1
    try:
        return RunBatch(
            executor.map(execute_job, shipped),
            mode="pool",
            processes=min(workers, len(jobs)),
        )
    except (OSError, RuntimeError) as exc:
        # a broken persistent pool degrades this batch to serial; the
        # owner decides whether to rebuild or keep degrading
        return serial(f"process pool unavailable ({exc.__class__.__name__})")
