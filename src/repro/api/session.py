"""The :class:`Session` façade — one front door to the whole pipeline.

Everything the paper's workflow does (pre-push transformation, virtual-
cluster simulation, §4 equivalence checking, declarative sweeps) is
reachable through one object::

    from repro import Job, Session

    with Session(network="gmnet", cache_dir=".cache", jobs=4) as s:
        m = s.measure(Job(program=source, nranks=8))
        result = s.verify(source)           # transform + §4 check
        table_res = s.sweep(spec)           # cached, pooled

A Session resolves registry *names* (network scenario, collective
algorithms) exactly once, at construction; owns the content-addressed
:class:`~repro.harness.sweep.SweepCache` and an in-memory memo of
transformations; and lazily creates one persistent process pool reused
by every :meth:`run_many` / :meth:`sweep` call.  That amortization is
what makes the library embeddable in a long-lived server: per-request
cost is the simulation itself, not registry lookups, re-transforming
or pool startup.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Union

from ..apps.base import AppSpec
from ..harness.runner import (
    Measurement,
    PairResult,
    PreparedApp,
    measurement_from_run,
)
from ..harness.sweep import (
    SweepCache,
    SweepResult,
    SweepSpec,
    _as_cache,
    _execute_sweep,
    _TransformMemo,
)
from ..interp.runner import (
    ClusterJob,
    ClusterRun,
    RunBatch,
    execute_job,
    run_many,
)
from ..errors import ReproError
from ..lang.ast_nodes import SourceFile
from ..runtime.collectives import CollectiveSpec, resolve_suite
from ..runtime.costmodel import CostModel
from ..runtime.network import NetworkModel, resolve_model
from ..transform.options import TransformOptions
from ..transform.pipeline import (
    Pipeline,
    PipelineReport,
    resolve_variant,
    variant_identity,
    variant_label,
)
from ..verify import EquivalenceReport, verify_transform
from .context import (
    UNSET,
    CompareRequest,
    ExecutionContext,
    Job,
    NetworkLike,
    VerifyRequest,
)

__all__ = ["Session", "VerifyResult"]

#: legal values of ``ExecutionContext.engine_mode`` / ``Job.engine_mode``
ENGINE_MODES = ("auto", "replay", "full")


@dataclasses.dataclass(frozen=True)
class VerifyResult:
    """Response of :meth:`Session.verify`: the §4 verdict plus the
    transformation that produced the checked program."""

    equivalence: EquivalenceReport
    transform: PipelineReport

    @property
    def equivalent(self) -> bool:
        return self.equivalence.equivalent

    @property
    def speedup(self) -> float:
        return self.equivalence.speedup


class Session:
    """A configured execution environment for the whole pipeline.

    Construct from an :class:`~repro.api.ExecutionContext`, keyword
    overrides of one, or both (keywords win)::

        Session()                                  # all defaults
        Session(network="rdma-100g", jobs=4)
        Session(ExecutionContext(collective="bruck"), cache_dir=".c")

    Registry names in the context are resolved **here, once**: the
    resolved :class:`~repro.runtime.network.NetworkModel` instance and
    the full per-collective algorithm suite are attributes, so no
    method call pays a registry lookup for inherited fields.  For the
    network axis that also makes the session immune to later registry
    mutation (the model *instance* is stored); for the collective axis
    the suite pins algorithm **names** — which algorithm implements
    each collective — while the named implementations are still looked
    up at simulation time, so overwriting (or deleting) a registered
    algorithm does affect a live session.  Per-request overrides (a
    :class:`~repro.api.Job` naming its own network) are resolved per
    call, against the registries as they are then.

    The session owns three amortized resources: the sweep cache
    (:attr:`cache`, shared by every :meth:`sweep` call); a lazily
    created persistent process pool (when ``jobs`` > 1), reused across
    :meth:`run_many`/:meth:`sweep` calls and released by :meth:`close`
    or the context-manager exit; and a bounded in-memory memo of
    transformations, so a sweep or tune search that revisits an (app,
    variant, options) combination skips the transform pipeline
    (DESIGN.md §7.3).  :meth:`transform` and :meth:`prepare` bypass the
    memo and return a fresh AST per call.
    """

    def __init__(
        self,
        context: Optional[ExecutionContext] = None,
        **overrides: Any,
    ) -> None:
        if context is None:
            context = ExecutionContext()
        if overrides:
            context = dataclasses.replace(context, **overrides)
        self.context = context
        # registry names resolve exactly once, here
        self.network: NetworkModel = resolve_model(context.network)
        self.collective_suite: Dict[str, str] = resolve_suite(
            context.collective
        )
        self.variant_pipeline: Pipeline = resolve_variant(context.variant)
        self.engine_mode: str = self._check_engine_mode(context.engine_mode)
        self.cost_model: CostModel = context.cost_model
        self.cache: Optional[SweepCache] = _as_cache(context.cache_dir)
        self.jobs: Optional[int] = context.jobs
        self.seed: Optional[int] = context.seed
        self._executor = None
        self._executor_failed = False
        self._transforms = _TransformMemo()

    # ------------------------------------------------------- resources

    def pool(self):
        """The session's persistent process pool, created on first use.

        ``None`` when the context asked for no parallelism (``jobs``
        absent or < 2) or when the pool failed once (sandboxes without
        working multiprocessing); callers then run serially.  Creation
        includes a round-trip health probe: environments that block
        process spawning typically fail at first *submit*, not at
        construction, and without the probe every later batch would
        re-submit to a dead pool.  A pool whose workers die mid-life
        (``BrokenProcessPool``) is likewise retired for good.
        """
        if self.jobs is None or self.jobs < 2 or self._executor_failed:
            return None
        if self._executor is not None and getattr(
            self._executor, "_broken", False
        ):
            self._executor.shutdown(wait=False)
            self._executor = None
            self._executor_failed = True
            return None
        if self._executor is None:
            try:
                from concurrent.futures import ProcessPoolExecutor

                executor = ProcessPoolExecutor(max_workers=self.jobs)
            except Exception:
                self._executor_failed = True
                return None
            try:
                executor.submit(int).result(timeout=60)
            except Exception:
                executor.shutdown(wait=False)
                self._executor_failed = True
                return None
            self._executor = executor
        return self._executor

    def _processes(self) -> Optional[int]:
        """The ``processes=`` fallback for :func:`run_many`: ``None``
        once the pool is retired, so batches go straight to the serial
        path instead of rebuilding a throwaway pool per call."""
        return None if self._executor_failed else self.jobs

    def close(self) -> None:
        """Release the process pool (idempotent; the session remains
        usable — a later pooled call simply recreates the pool)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------ resolution

    def _resolve_network(self, value: Optional[NetworkLike]) -> NetworkModel:
        return self.network if value is None else resolve_model(value)

    def _resolve_collective(self, value: Any) -> Dict[str, str]:
        if value is UNSET:
            return self.collective_suite
        return resolve_suite(value)

    def _resolve_cost_model(self, value: Optional[CostModel]) -> CostModel:
        return self.cost_model if value is None else value

    def _resolve_variant(self, value: Any) -> Pipeline:
        return (
            self.variant_pipeline if value is None else resolve_variant(value)
        )

    @staticmethod
    def _check_engine_mode(value: str) -> str:
        if value not in ENGINE_MODES:
            raise ReproError(
                f"unknown engine_mode {value!r} (expected one of "
                f"{', '.join(repr(m) for m in ENGINE_MODES)})"
            )
        return value

    def _resolve_engine_mode(self, value: Optional[str]) -> str:
        return (
            self.engine_mode if value is None else self._check_engine_mode(value)
        )

    def cluster_job(self, job: Job) -> ClusterJob:
        """Resolve one :class:`~repro.api.Job` against this session into
        the engine's :class:`~repro.interp.runner.ClusterJob`.

        A job naming a transformation ``variant`` is transformed here —
        the resolved program plus the pipeline's identity (which
        :func:`~repro.interp.runner.job_fingerprint` folds into the
        cache key) go into the engine job.
        """
        program = job.program
        identity = None
        if job.variant is not None:
            pipeline = resolve_variant(job.variant)
            options = (
                job.options if job.options is not None else TransformOptions()
            )
            # only .source is consumed here; skip the per-pass snapshots
            report = pipeline.run(program, options, snapshots=False)
            if not report.changed and (
                report.rejections
                or not (pipeline.partial or pipeline.empty)
            ):
                # the caller asked for a transformation and none
                # happened — either a full-rewrite variant found
                # nothing, or a site was outright rejected; running
                # the original instead would silently measure the
                # wrong program
                raise ReproError(
                    f"variant {pipeline.name or 'pipeline'!r} "
                    f"transformed nothing in job "
                    f"{job.label or job.nranks!r}:\n  "
                    + "\n  ".join(
                        r.reason for r in report.rejections
                    )
                )
            program = report.source
            identity = variant_identity(pipeline, options)
        elif job.options is not None:
            raise ReproError(
                "Job.options only configures a transformation; set "
                "Job.variant to name the pipeline it applies to"
            )
        return ClusterJob(
            program=program,
            nranks=job.nranks,
            network=self._resolve_network(job.network),
            cost_model=self._resolve_cost_model(job.cost_model),
            detect_races=(
                self.context.detect_races
                if job.detect_races is None
                else job.detect_races
            ),
            externals=job.externals,
            label=job.label,
            collective=self._resolve_collective(job.collective),
            variant=identity,
            engine_mode=self._resolve_engine_mode(job.engine_mode),
        )

    # ------------------------------------------------------- execution

    def run(self, job: Job) -> ClusterRun:
        """Simulate one :class:`~repro.api.Job`; the raw per-rank result."""
        return execute_job(self.cluster_job(job))

    def run_many(self, jobs: Sequence[Job]) -> RunBatch:
        """Simulate independent jobs, sharded over the session pool."""
        executor = self.pool()
        return run_many(
            [self.cluster_job(j) for j in jobs],
            processes=self._processes(),
            executor=executor,
        )

    def measure(self, job: Job) -> Measurement:
        """Simulate one job and fold its stats into a
        :class:`~repro.harness.runner.Measurement`."""
        resolved = self.cluster_job(job)
        run = execute_job(resolved)
        return measurement_from_run(
            run,
            network=resolved.network,
            label=job.label,
            collective=resolved.collective,
        )

    def transform(
        self,
        program: Union[str, SourceFile],
        *,
        variant: Union[None, str, Pipeline] = None,
        options: Optional[TransformOptions] = None,
        oracle: Any = None,
        snapshots: bool = True,
    ) -> PipelineReport:
        """Run a transformation pipeline over a bare program.

        ``variant=None`` inherits the session's default
        (``ExecutionContext.variant``, resolved at construction); the
        returned :class:`~repro.transform.pipeline.PipelineReport`
        carries the per-pass chain and — unless ``snapshots=False`` —
        the intermediate program texts.
        """
        pipeline = self._resolve_variant(variant)
        return pipeline.run(
            program,
            options if options is not None else TransformOptions(),
            oracle=oracle,
            snapshots=snapshots,
        )

    def prepare(
        self, request: Union[CompareRequest, AppSpec]
    ) -> PreparedApp:
        """Transform (and optionally §4-check) one workload for reuse
        across measurements — the cached half of :meth:`compare`.

        The returned :class:`~repro.harness.runner.PreparedApp` exposes
        the full per-pass report chain on ``.transform`` (a
        :class:`~repro.transform.pipeline.PipelineReport`) instead of
        discarding it.
        """
        request = self._as_compare(request)
        pipeline = self._resolve_variant(request.variant)
        return PreparedApp(
            request.app,
            options=request.options,
            variant=pipeline,
            verify=(
                self.context.verify
                if request.verify is None
                else request.verify
            ),
            cost_model=self._resolve_cost_model(request.cost_model),
        )

    def compare(
        self, request: Union[CompareRequest, AppSpec]
    ) -> PairResult:
        """Measure one workload original vs. pre-pushed on one network."""
        request = self._as_compare(request)
        prepared = self.prepare(request)
        return prepared.run_on(
            self._resolve_network(request.network),
            collective=self._resolve_collective(request.collective),
        )

    def verify(
        self, request: Union[VerifyRequest, str, SourceFile]
    ) -> VerifyResult:
        """Transform a program and check §4 output equivalence.

        Accepts a bare program (source text or AST) as shorthand for
        ``VerifyRequest(program=...)`` with its defaults.  Raises
        :class:`~repro.errors.VerificationError` when nothing in the
        program is transformable (there would be nothing to verify).
        """
        if not isinstance(request, VerifyRequest):
            request = VerifyRequest(program=request)
        equivalence, report = verify_transform(
            request.program,
            request.nranks,
            options=request.options,
            variant=self._resolve_variant(request.variant),
            oracle=request.oracle,
            network=self._resolve_network(request.network),
            cost_model=self._resolve_cost_model(request.cost_model),
            externals=request.externals,
            collective=self._resolve_collective(request.collective),
            check=request.check,
        )
        return VerifyResult(equivalence=equivalence, transform=report)

    def sweep(
        self, specs: Union[SweepSpec, Sequence[SweepSpec]]
    ) -> SweepResult:
        """Run declarative sweep specs through this session's cache,
        transform memo and pool (see :mod:`repro.harness.sweep`).  A
        warm cache performs zero simulations; repeated calls reuse the
        same pool and skip transformations the memo already holds.

        Specs that leave ``engine_mode`` unset (``None``) inherit the
        session's; a spec naming its own mode keeps it.  Either way the
        cache keys are unaffected (all modes are bit-identical)."""
        executor = self.pool()
        return _execute_sweep(
            self._bind_specs(specs),
            jobs=self._processes(),
            cache=self.cache,
            executor=executor,
            memo=self._transforms,
        )

    def _bind_specs(
        self, specs: Union[SweepSpec, Sequence[SweepSpec]]
    ) -> List[SweepSpec]:
        """``specs`` as a list, each spec without an ``engine_mode``
        taking the session's (shared with the sweep server)."""
        if isinstance(specs, SweepSpec):
            specs = [specs]
        return [
            s
            if s.engine_mode is not None
            else dataclasses.replace(s, engine_mode=self.engine_mode)
            for s in specs
        ]

    def tune(
        self,
        space: Any,
        *,
        strategy: str = "hill-climb",
        budget: int = 32,
        objective: Any = "time",
        seed: Optional[int] = None,
        strategy_params: Optional[Dict[str, Any]] = None,
        trajectory_path: Optional[str] = None,
        on_step: Optional[Any] = None,
    ) -> "Any":
        """Search a :class:`~repro.tune.SearchSpace` through this
        session's cache and pool (see :mod:`repro.tune`).

        Every candidate evaluation goes through :meth:`sweep`, so the
        content-addressed cache memoizes the search: re-running a tune
        over a warm cache performs zero simulations and — with the same
        ``seed`` (defaulting to ``ExecutionContext.seed``, then 0) —
        reproduces the trajectory bit-identically.  Returns a
        :class:`~repro.tune.TuneResult`.
        """
        from ..tune.driver import tune as _tune

        return _tune(
            space,
            session=self,
            strategy=strategy,
            budget=budget,
            objective=objective,
            seed=seed,
            strategy_params=strategy_params,
            trajectory_path=trajectory_path,
            on_step=on_step,
        )

    # --------------------------------------------------------- helpers

    @staticmethod
    def _as_compare(
        request: Union[CompareRequest, AppSpec]
    ) -> CompareRequest:
        if isinstance(request, AppSpec):
            return CompareRequest(app=request)
        return request

    def __repr__(self) -> str:
        pool = "up" if self._executor is not None else "down"
        return (
            f"Session(network={self.network.name!r}, "
            f"collective={self.collective_suite!r}, "
            f"variant={variant_label(self.variant_pipeline)!r}, "
            f"engine={self.engine_mode!r}, "
            f"cache={'on' if self.cache else 'off'}, "
            f"jobs={self.jobs}, pool={pool})"
        )
