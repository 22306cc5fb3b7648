"""Experiment execution: run original/transformed pairs over network models.

:class:`Measurement` folds one simulation into a timing breakdown;
:class:`PreparedApp` transforms a workload once, checks equivalence
(an experiment on wrong data is worthless), and measures both variants
on one network.  These are the building blocks every figure/ablation
uses.  The kwargs-style :func:`measure` / :func:`run_pair` entry points
are deprecation shims over the :class:`repro.api.Session` façade
(:meth:`~repro.api.Session.measure` / :meth:`~repro.api.Session.compare`).
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..apps.base import AppSpec
from ..errors import ReproError
from ..interp.runner import ClusterJob, ClusterRun, execute_job
from ..lang.ast_nodes import SourceFile
from ..runtime.collectives import CollectiveSpec, describe_suite, resolve_suite
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.network import NetworkModel, resolve_model
from ..transform.options import TransformOptions, fold_legacy_options
from ..transform.pipeline import (
    Pipeline,
    PipelineReport,
    resolve_variant,
    variant_label,
)
from ..transform.prepush import TransformReport
from ..verify import compare_runs


@dataclass
class Measurement:
    """Timing of one program on one network.

    The communication breakdown (``wait_time``/``mpi_overhead``) is taken
    from the single worst-communication rank — the rank maximizing
    ``wait + mpi overhead`` — so ``comm_cost`` is a figure one real rank
    actually paid, never a mix of maxima from different ranks.
    ``compute_time`` remains an independent per-rank maximum (the compute
    critical path).
    """

    label: str
    network: str
    time: float  # makespan (max rank finish time)
    compute_time: float  # max per-rank pure compute
    wait_time: float  # blocked-in-wait of the worst-comm-cost rank
    mpi_overhead: float  # MPI CPU of that same rank
    messages: int  # total messages sent across ranks
    bytes_sent: int
    unexpected: int  # messages that arrived before their recv was posted
    warnings: List[str]
    collective: str = ""  # resolved collective-algorithm suite

    @property
    def comm_cost(self) -> float:
        """Per-rank non-compute time (wait + MPI CPU), worst rank."""
        return self.wait_time + self.mpi_overhead

    def to_dict(self) -> Dict:
        """JSON-safe dict (the sweep cache's on-disk payload).

        Every field is a scalar, string, or list of strings; floats
        round-trip bit-exactly through :mod:`json`, which is what makes
        warm-cache tables reproduce the cold run bit-for-bit.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "Measurement":
        """Inverse of :meth:`to_dict`.  Raises on missing/extra keys so a
        corrupted or stale cache entry is detected, not half-loaded."""
        names = {f.name for f in dataclasses.fields(cls)}
        if set(data) != names:
            raise ValueError(
                f"measurement dict keys {sorted(data)} != fields "
                f"{sorted(names)}"
            )
        return cls(**data)


def measurement_from_run(
    run: ClusterRun,
    *,
    network: NetworkModel,
    label: str = "",
    collective: CollectiveSpec = None,
) -> Measurement:
    """Fold one completed :class:`~repro.interp.runner.ClusterRun` into a
    :class:`Measurement` (shared by :func:`measure` and the sweep engine,
    which simulates through :func:`~repro.interp.runner.run_many`)."""
    stats = run.result.stats
    # the worst-rank communication figure must come from ONE rank: taking
    # independent maxima of wait and overhead would overstate comm_cost
    # whenever different ranks hold the two maxima
    worst = max(
        stats,
        key=lambda s: s.wait_time + s.mpi_overhead_time,
        default=None,
    )
    return Measurement(
        label=label,
        network=network.name,
        time=run.time,
        compute_time=max((s.compute_time for s in stats), default=0.0),
        wait_time=worst.wait_time if worst else 0.0,
        mpi_overhead=worst.mpi_overhead_time if worst else 0.0,
        messages=sum(s.messages_sent for s in stats),
        bytes_sent=sum(s.bytes_sent for s in stats),
        unexpected=sum(s.unexpected_messages for s in stats),
        warnings=list(run.warnings),
        collective=describe_suite(resolve_suite(collective)),
    )


def _measure_impl(
    program: Union[str, SourceFile],
    nranks: int,
    network: Union[str, NetworkModel],
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    externals=None,
    label: str = "",
    collective: CollectiveSpec = None,
) -> Measurement:
    """Simulate once and fold the per-rank stats into a measurement
    (the shared core of :meth:`repro.api.Session.measure` and the
    deprecated :func:`measure` shim)."""
    network = resolve_model(network)
    run = execute_job(
        ClusterJob(
            program=program,
            nranks=nranks,
            network=network,
            cost_model=cost_model,
            externals=externals,
            collective=collective,
        )
    )
    return measurement_from_run(
        run, network=network, label=label, collective=collective
    )


def measure(
    program: Union[str, SourceFile],
    nranks: int,
    network: Union[str, NetworkModel],
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    externals=None,
    label: str = "",
    collective: CollectiveSpec = None,
) -> Measurement:
    """Deprecated kwargs-style entry; use
    :meth:`repro.api.Session.measure` with a :class:`repro.api.Job`."""
    warnings.warn(
        "measure(...) is deprecated; use "
        "repro.Session().measure(repro.Job(program=..., nranks=..., ...))",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api import Job
    from ..api.session import default_session

    return default_session().measure(
        Job(
            program=program,
            nranks=nranks,
            network=network,
            cost_model=cost_model,
            externals=externals,
            label=label,
            collective=collective,
        )
    )


@dataclass
class PairResult:
    """Original vs. pre-pushed measurements of one workload on one network."""

    app: str
    network: str
    original: Measurement
    prepush: Measurement
    transform: TransformReport
    equivalent: bool

    @property
    def speedup(self) -> float:
        if self.prepush.time <= 0:
            # a degenerate zero-work run is "no change", not an infinite
            # win; only a real original time over a zero prepush time is
            # unboundedly better
            return 1.0 if self.original.time <= 0 else float("inf")
        return self.original.time / self.prepush.time

    @property
    def overhead_reduction(self) -> float:
        """Fraction of the original communication cost eliminated."""
        base = self.original.comm_cost
        if base <= 0:
            return 0.0
        return 1.0 - self.prepush.comm_cost / base


class PreparedApp:
    """A workload transformed once, reusable across network sweeps.

    Transforming and (especially) equivalence-checking are not free;
    sweeps over network parameters reuse the same pair of ASTs.

    The transformation runs through the variant registry
    (:mod:`repro.transform.pipeline`): ``variant`` names a registered
    pipeline (default ``"prepush"``, bit-identical to the legacy
    monolithic path) and ``options`` carries the knobs as one frozen
    :class:`~repro.transform.options.TransformOptions`.  The legacy
    ``tile_size=``/``interchange=`` keywords still work and are folded
    into an options object; passing both forms raises.  ``.transform``
    is a :class:`~repro.transform.pipeline.PipelineReport`, so the
    per-pass chain and intermediate snapshots are inspectable on every
    prepared workload (``snapshots=False`` skips capturing the
    intermediate texts — the sweep engine does this, since it prepares
    one app per axis combination and reads none of them).  ``report``
    adopts a finished run of ``variant`` over ``app.source`` with
    ``options`` instead of running the pipeline again (the sweep engine
    passes memoized runs, DESIGN.md §7.3).

    Variants marked ``partial`` (e.g. ``tile-only`` on an indirect
    workload) may legitimately leave the program unchanged and are
    measured as-is; for full-rewrite pipelines an unchanged program is
    an error.  ``allow_unchanged`` overrides that default (``None`` =
    follow ``pipeline.partial``).  A program left *entirely* unchanged
    because sites were rejected raises regardless; rejections alongside
    at least one successful rewrite are reported, not raised — the
    paper's semi-automatic convention, matching the legacy monolith.
    """

    def __init__(
        self,
        app: AppSpec,
        *,
        tile_size: Union[None, int, str] = None,
        interchange: Optional[str] = None,
        verify: bool = True,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        options: Optional[TransformOptions] = None,
        variant: Union[str, Pipeline] = "prepush",
        allow_unchanged: Optional[bool] = None,
        snapshots: bool = True,
        report: Optional[PipelineReport] = None,
    ) -> None:
        options = fold_legacy_options(
            options, tile_size, interchange, exc=ReproError
        )
        self.app = app
        self.cost_model = cost_model
        self.options = options
        self.variant = resolve_variant(variant)
        if report is None:
            report = self.variant.run(
                app.source, options, oracle=app.oracle, snapshots=snapshots
            )
        self.transform = report
        if allow_unchanged is None:
            allow_unchanged = self.variant.partial or self.variant.empty
        if not self.transform.changed:
            # an unchanged program is acceptable only when the variant
            # *intentionally* left it alone (a pipeline registered as
            # partial, or the empty baseline).  A site the planner
            # REJECTED is a failure whatever the variant — silently
            # measuring the original would report a fake speedup of 1.0
            if self.transform.rejections or not allow_unchanged:
                raise ReproError(
                    f"workload {app.name!r} was not transformed by "
                    f"variant {variant_label(self.variant)!r}:\n  "
                    + "\n  ".join(
                        r.reason for r in self.transform.rejections
                    )
                )
        self.equivalent = True
        # verify whenever the program CHANGED — a site rewrite, or any
        # other pass that touched the AST (§4 applies to both)
        if verify and self.transform.changed:
            self._verify()

    def _verify(self) -> None:
        from ..runtime.network import IDEAL

        a = execute_job(
            ClusterJob(
                program=self.app.source,
                nranks=self.app.nranks,
                network=IDEAL,
                cost_model=self.cost_model,
                externals=self.app.externals,
            )
        )
        b = execute_job(
            ClusterJob(
                program=self.transform.source,
                nranks=self.app.nranks,
                network=IDEAL,
                cost_model=self.cost_model,
                externals=self.app.externals,
            )
        )
        self.check_equivalence(a, b)

    def check_equivalence(self, original: ClusterRun, transformed: ClusterRun) -> None:
        """Compare two completed runs of the pair and record the verdict.

        Split out of :meth:`_verify` so the sweep engine can supply runs
        it executed itself (possibly through the process pool) instead
        of re-simulating here.  Raises on mismatch, like construction
        with ``verify=True`` does.
        """
        report = compare_runs(
            original, transformed, skip=self.transform.dead_arrays
        )
        self.equivalent = report.equivalent
        if not report.equivalent:
            raise ReproError(
                f"transformed {self.app.name!r} is NOT equivalent:\n  "
                + "\n  ".join(report.mismatches[:5])
            )

    def run_on(
        self,
        network: Union[str, NetworkModel],
        collective: CollectiveSpec = None,
    ) -> PairResult:
        """Measure both variants on one network model (or scenario name).

        ``collective`` selects the collective algorithms both variants
        run under (the prepush variant has replaced its alltoall with
        point-to-point traffic, so the knob mostly moves the original).
        """
        network = resolve_model(network)
        original = _measure_impl(
            self.app.source,
            self.app.nranks,
            network,
            cost_model=self.cost_model,
            externals=self.app.externals,
            label=f"{self.app.name}/original",
            collective=collective,
        )
        prepush = _measure_impl(
            self.transform.source,
            self.app.nranks,
            network,
            cost_model=self.cost_model,
            externals=self.app.externals,
            label=f"{self.app.name}/prepush",
            collective=collective,
        )
        return PairResult(
            app=self.app.name,
            network=network.name,
            original=original,
            prepush=prepush,
            transform=self.transform,
            equivalent=self.equivalent,
        )


def run_pair(
    app: AppSpec,
    network: Union[str, NetworkModel],
    *,
    tile_size: Union[int, str] = "auto",
    interchange: str = "auto",
    verify: bool = True,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    collective: CollectiveSpec = None,
) -> PairResult:
    """Deprecated kwargs-style entry; use
    :meth:`repro.api.Session.compare` with a
    :class:`repro.api.CompareRequest`."""
    warnings.warn(
        "run_pair(...) is deprecated; use "
        "repro.Session().compare(repro.CompareRequest(app=..., ...))",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api import CompareRequest
    from ..api.session import default_session

    return default_session().compare(
        CompareRequest(
            app=app,
            tile_size=tile_size,
            interchange=interchange,
            verify=verify,
            network=network,
            collective=collective,
            cost_model=cost_model,
        )
    )
