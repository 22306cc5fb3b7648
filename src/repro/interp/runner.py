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
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
from .values import FArray


@dataclass
class ClusterRun:
    """Result of simulating one program on the cluster.

    ``data_approximate`` is set only by the replay engine when the
    symmetry recorder's shadow budget forced it to drop some arrays'
    per-rank contents (DESIGN.md §10): timing, stats, and outputs are
    still exact, but the flagged run's ``arrays`` hold deterministic
    representatives, so correctness checkers must not compare them.
    """

    result: SimResult
    outputs: List[List[Tuple[Any, ...]]]  # per-rank print records
    arrays: List[Dict[str, np.ndarray]]  # per-rank final array contents
    data_approximate: bool = False

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
) -> ClusterRun:
    """Simulate ``program`` on ``nranks`` ranks over ``network``.

    ``network`` is a :class:`~repro.runtime.network.NetworkModel` or the
    name of a registered scenario (e.g. ``"gmnet"``); ``collective``
    selects collective algorithms the same way (see
    :func:`repro.runtime.collectives.resolve_suite`).
    """
    network = resolve_model(network)
    source = _as_source(program)
    externals = externals or ExternalRegistry()
    # one generated module serves every rank (DESIGN.md §5)
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

    def program_text(self) -> str:
        """The job's program as source text (unparsing an AST input)."""
        if isinstance(self.program, SourceFile):
            return unparse(self.program)
        return self.program


def job_fingerprint(job: ClusterJob, *, text: Optional[str] = None) -> str:
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
    engine runs such points uncached instead.

    ``text`` is the job's program as source text when the caller already
    holds it (the sweep engine's transform memo does); otherwise an AST
    program is unparsed here.
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
        "program": job.program_text() if text is None else text,
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


def execute_job(job: ClusterJob) -> ClusterRun:
    """Simulate one :class:`ClusterJob` — the non-deprecated core every
    façade path (and the process pool) executes.

    Engine dispatch (DESIGN.md §10): ``engine_mode="auto"`` attempts the
    rank-symmetry replay engine and falls back to full per-rank
    interpretation on :class:`~repro.errors.SymmetryError`; ``"replay"``
    converts that fallback into an :class:`~repro.errors.EngineModeError`
    so an unexpectedly asymmetric program fails loudly; ``"full"``
    skips the symmetry analysis entirely.
    """
    mode = job.engine_mode
    if mode not in ("auto", "replay", "full"):
        raise SimulationError(
            f"unknown engine_mode {mode!r} (expected 'auto', 'replay', "
            f"or 'full')"
        )
    # parsed once: a replay attempt and its fallback share the AST
    source = _as_source(job.program)
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
    )


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
    processes: Optional[int] = None,
    executor=None,
) -> RunBatch:
    """Run independent simulations, optionally on a process pool.

    ``processes=None`` (or < 2, or a single job, or unpicklable jobs)
    runs serially in submission order.  Otherwise up to ``processes``
    workers execute the batch; results come back in submission order, so
    output is identical either way — sweeps are deterministic per job.
    The returned :class:`RunBatch` says which path executed and why.

    ``executor`` (a live :class:`concurrent.futures.Executor`) takes
    precedence over ``processes``: the batch is mapped onto it and the
    executor is **not** shut down afterwards — this is how a
    :class:`repro.api.Session` amortizes one persistent pool across
    many batches.
    """
    jobs = list(jobs)

    def serial(reason: str) -> RunBatch:
        return RunBatch(
            [execute_job(j) for j in jobs], mode="serial", reason=reason
        )

    if executor is None and (processes is None or processes < 2):
        return serial("no pool requested")
    if len(jobs) < 2:
        return serial("batch too small to shard")
    # resolve scenario names to model instances before shipping: a worker
    # under the 'spawn' start method re-imports the registry and would not
    # see models registered at runtime in this process
    shipped = [replace(j, network=resolve_model(j.network)) for j in jobs]
    if not _poolable(shipped):
        return serial("jobs not picklable (externals?)")

    if executor is not None:
        workers = getattr(executor, "_max_workers", None) or 1
        try:
            return RunBatch(
                executor.map(execute_job, shipped),
                mode="pool",
                processes=min(workers, len(jobs)),
            )
        except (OSError, RuntimeError) as exc:
            # a broken persistent pool degrades this batch to serial;
            # the owner decides whether to rebuild or keep degrading
            return RunBatch(
                [execute_job(j) for j in jobs],
                mode="serial",
                reason=f"process pool unavailable ({exc.__class__.__name__})",
            )

    from concurrent.futures import ProcessPoolExecutor

    workers = min(processes, len(jobs))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return RunBatch(
                pool.map(execute_job, shipped), mode="pool", processes=workers
            )
    except (OSError, RuntimeError) as exc:
        # sandboxes without working multiprocessing fall back to serial
        return serial(f"process pool unavailable ({exc.__class__.__name__})")
