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
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..apps.base import AppSpec
from ..errors import ReproError, VerificationError
from ..harness.runner import Measurement, PairResult, require_transformed
from ..harness.sweep import (
    TRANSFORM_MEMO_SIZE,
    SweepCache,
    SweepPlan,
    SweepPoint,
    SweepResult,
    SweepSpec,
    _app_verification,
    _as_cache,
    _execute_sweep,
    _transform,
    _TransformMemo,
    _Verification,
    plan_points,
    plan_sweep,
)
from ..interp.runner import (
    ClusterJob,
    ClusterRun,
    ProgramMemo,
    RunBatch,
    _init_pool_worker,
    execute_job,
    run_many,
)
from ..lang.ast_nodes import SourceFile
from ..runtime.collectives import resolve_suite
from ..runtime.costmodel import CostModel
from ..runtime.network import NetworkModel, resolve_model
from ..transform.options import DEFAULT_TRANSFORM_OPTIONS, TransformOptions
from ..transform.pipeline import (
    Pipeline,
    PipelineReport,
    resolve_variant,
    variant_identity,
    variant_label,
)
from ..verify import EquivalenceReport
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

    The session owns four amortized resources: the sweep cache
    (:attr:`cache`, shared by every planned call); a lazily
    created persistent process pool (when ``jobs`` > 1), reused across
    :meth:`run_many` and planned calls and released by :meth:`close`
    or the context-manager exit; a bounded in-memory memo of
    transformations, so a sweep or tune search that revisits an (app,
    variant, options) combination skips the transform pipeline
    (DESIGN.md §7.3); and a bounded program memo, so a sweep's
    simulations parse, generate code for and record each program once
    (§7.4).  :meth:`measure`, :meth:`compare`, :meth:`verify` and
    :meth:`sweep` all run as plans through the one plan → execute →
    fold path (§7.5), so each reads and writes the cache and uses both
    memos; :meth:`transform` bypasses the transform memo and returns a
    fresh AST per call, and :meth:`run` and :meth:`run_many` (the raw
    single-job paths) bypass the cache and the program memo.
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
        self._programs = ProgramMemo(TRANSFORM_MEMO_SIZE)

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

                # each worker keeps a program memo of its own
                executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    initializer=_init_pool_worker,
                    initargs=(TRANSFORM_MEMO_SIZE,),
                )
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
        cache key) go into the engine job.  A text program transforms
        through the session's transform memo, so the job also carries
        the transformed text the program memo keys on.
        """
        program = job.program
        identity = text = None
        if job.variant is not None:
            pipeline = resolve_variant(job.variant)
            options = (
                job.options if job.options is not None else TransformOptions()
            )
            if isinstance(program, str):
                report, text = self._transforms.run(pipeline, program, options)
            else:
                # only .source is consumed here; skip the per-pass snapshots
                report = pipeline.run(program, options, snapshots=False)
            require_transformed(
                report, pipeline, f"job {job.label or job.nranks!r}"
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
            text=text,
        )

    # ------------------------------------------------------- execution

    def run(self, job: Job) -> ClusterRun:
        """Simulate one :class:`~repro.api.Job`; the raw per-rank result."""
        return execute_job(self.cluster_job(job))

    def run_many(self, jobs: Sequence[Job]) -> RunBatch:
        """Simulate independent jobs, sharded over the session pool."""
        return run_many(
            [self.cluster_job(j) for j in jobs], executor=self.pool()
        )

    def _execute(self, plan: SweepPlan) -> SweepResult:
        """Run one plan's pending work on the session's pool and program
        memo and fold it: the execute stage of every verb that plans
        (:meth:`measure`, :meth:`compare`, :meth:`verify`,
        :meth:`sweep`)."""
        return _execute_sweep(
            plan, executor=self.pool(), programs=self._programs
        )

    def measure(self, job: Job) -> Measurement:
        """Simulate one job (a one-point plan through the session cache)
        and fold its stats into a
        :class:`~repro.harness.runner.Measurement`."""
        resolved = self.cluster_job(job)
        point = SweepPoint(axes={"label": job.label}, job=resolved)
        plan = plan_points([point], (), self.cache)
        return self._execute(plan).runs[0].measurement

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

    def compare(
        self, request: Union[CompareRequest, AppSpec]
    ) -> PairResult:
        """Measure one workload original vs. pre-pushed on one network:
        a two-point plan, plus the §4 check of the pair when verifying
        and the variant changed the program (a mismatch raises).

        The transformation goes through the session's transform memo,
        so the returned ``transform`` report carries no intermediate
        snapshots (:meth:`transform` has them).
        """
        plan, finish = self._plan_compare(request)
        return finish(self._execute(plan))

    def _plan_compare(
        self, request: Union[CompareRequest, AppSpec]
    ) -> Tuple[SweepPlan, Callable[[SweepResult], PairResult]]:
        """The plan of one :meth:`compare` and the fold of its result
        into a :class:`~repro.harness.runner.PairResult` (shared with
        the sweep server's compare verb)."""
        request = self._as_compare(request)
        app = request.app
        pipeline = self._resolve_variant(request.variant)
        options = request.options or DEFAULT_TRANSFORM_OPTIONS
        report, text = _transform(app, pipeline, options, self._transforms)
        require_transformed(report, pipeline, f"workload {app.name!r}")
        network = self._resolve_network(request.network)
        collective = self._resolve_collective(request.collective)
        cost_model = self._resolve_cost_model(request.cost_model)

        def point(label, program, text, identity) -> SweepPoint:
            job = ClusterJob(
                program=program,
                nranks=app.nranks,
                network=network,
                cost_model=cost_model,
                externals=app.externals,
                label=f"{app.name}/{label}",
                collective=collective,
                variant=identity,
                engine_mode=self.engine_mode,
                text=text,
            )
            axes = {"app": app.name, "variant": label}
            return SweepPoint(axes=axes, job=job)

        identity = (
            None if pipeline.empty else variant_identity(pipeline, options)
        )
        points = [
            point("original", app.source, None, None),
            point("prepush", report.source, text, identity),
        ]
        verify = request.verify
        if verify is None:
            verify = self.context.verify
        checks = []
        if verify and report.changed:
            checks.append(
                _app_verification(
                    app,
                    report,
                    text,
                    variant_label(pipeline),
                    cost_model,
                    self.engine_mode,
                )
            )

        def finish(result: SweepResult) -> PairResult:
            return PairResult(
                app=app.name,
                network=network.name,
                original=result.runs[0].measurement,
                prepush=result.runs[1].measurement,
                transform=report,
                equivalent=all(c.report.equivalent for c in checks),
            )

        return plan_points(points, checks, self.cache), finish

    def verify(
        self, request: Union[VerifyRequest, str, SourceFile]
    ) -> VerifyResult:
        """Transform a program and check §4 output equivalence: a plan
        of one verification through the session cache.

        Accepts a bare program (source text or AST) as shorthand for
        ``VerifyRequest(program=...)`` with its defaults.  Raises
        :class:`~repro.errors.VerificationError` when nothing in the
        program is transformable (there would be nothing to verify), and
        on a mismatch when ``check`` is set.
        """
        plan, finish = self._plan_verify(request)
        return finish(self._execute(plan))

    def _plan_verify(
        self, request: Union[VerifyRequest, str, SourceFile]
    ) -> Tuple[SweepPlan, Callable[[SweepResult], VerifyResult]]:
        """The plan of one :meth:`verify` and the fold of its result
        (shared with the sweep server's verify verb)."""
        if not isinstance(request, VerifyRequest):
            request = VerifyRequest(program=request)
        pipeline = self._resolve_variant(request.variant)
        report = pipeline.run(
            request.program, request.options, oracle=request.oracle
        )
        if not report.changed:
            raise VerificationError(
                f"no transformable communication site found (variant "
                f"{pipeline.name or 'pipeline'!r}):\n  "
                + "\n  ".join(r.reason for r in report.rejections)
            )

        def job(program, text, label) -> ClusterJob:
            return ClusterJob(
                program=program,
                nranks=request.nranks,
                network=self._resolve_network(request.network),
                cost_model=self._resolve_cost_model(request.cost_model),
                externals=request.externals,
                label=f"verify-{label}",
                collective=self._resolve_collective(request.collective),
                engine_mode=self.engine_mode,
                text=text,
            )

        check = _Verification(
            name="program",
            skip=report.dead_arrays,
            original_job=job(request.program, None, "original"),
            transformed_job=job(
                report.source,
                None if request.externals is not None else report.unparse(),
                "transformed",
            ),
            strict=False,
        )

        def finish(result: SweepResult) -> VerifyResult:
            if request.check:
                check.report.raise_on_mismatch()
            return VerifyResult(equivalence=check.report, transform=report)

        return plan_points((), [check], self.cache), finish

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
        return self._execute(
            plan_sweep(self._bind_specs(specs), self.cache, self._transforms)
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
