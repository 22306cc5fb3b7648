"""Experiment building blocks: measurements, pairs and prepared workloads.

:class:`Measurement` folds one simulation into a timing breakdown;
:class:`PairResult` holds one workload's original and pre-pushed
measurements; :func:`require_transformed` refuses a transformation that
left the program unchanged when the variant had to change it, and
:meth:`PreparedApp.check_equivalence` is the §4 check of a
verification's two runs.  The sweep plans (:mod:`repro.harness.sweep`) run every
measurement and §4 check; callers reach them through the
:class:`repro.api.Session` façade (:meth:`~repro.api.Session.measure`,
:meth:`~repro.api.Session.compare`, :meth:`~repro.api.Session.sweep`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import ReproError
from ..interp.runner import ClusterRun
from ..runtime.collectives import CollectiveSpec, describe_suite, resolve_suite
from ..runtime.network import NetworkModel
from ..transform.pipeline import Pipeline, PipelineReport, variant_label
from ..verify import EquivalenceReport, compare_runs


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
    :class:`Measurement` (the fold stage of every sweep plan,
    :meth:`~repro.harness.sweep.SweepPlan.fold_run`)."""
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


@dataclass
class PairResult:
    """Original vs. pre-pushed measurements of one workload on one network."""

    app: str
    network: str
    original: Measurement
    prepush: Measurement
    transform: PipelineReport
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


def require_transformed(
    report: PipelineReport, pipeline: Pipeline, what: str
) -> None:
    """Refuse a transformation that left the program unchanged when
    ``pipeline`` had to change it; ``what`` names the program.

    Variants marked ``partial`` (e.g. ``tile-only`` on an indirect
    workload) and the empty baseline may legitimately leave the program
    unchanged and are measured as-is; for full-rewrite pipelines an
    unchanged program is an error.  A program left *entirely* unchanged
    because sites were rejected raises regardless; rejections alongside
    at least one successful rewrite are reported, not raised — the
    paper's semi-automatic convention.
    """
    if not report.changed and (
        report.rejections or not (pipeline.partial or pipeline.empty)
    ):
        # measuring the original instead would report a fake speedup
        # of 1.0
        raise ReproError(
            f"{what} was not transformed: variant "
            f"{variant_label(pipeline)!r} transformed nothing:\n  "
            + "\n  ".join(r.reason for r in report.rejections)
        )


class PreparedApp:
    """Home of the §4 check every plan applies to a verification's two
    runs (:meth:`~repro.harness.sweep.SweepPlan.fold_verification`)."""

    @staticmethod
    def check_equivalence(
        original: ClusterRun,
        transformed: ClusterRun,
        skip: Sequence[str] = (),
    ) -> EquivalenceReport:
        """The §4 verdict on two completed runs of a transformed
        workload, ``skip`` naming the arrays the transformation killed
        (the plan decides whether a mismatch raises)."""
        return compare_runs(original, transformed, skip=skip)
