"""Original-vs-transformed equivalence checking (the paper's §4 criterion).

The paper validates the Compuniformer by compiling and running the
transformed test program and checking that it "produces output identical
to that of the original".  This module runs both programs on the
simulated cluster and compares:

* per-rank ``print`` records, and
* per-rank final array contents.

Array comparison is *shape-aware*: arrays the transformation legitimately
changes (the expanded temporary ``At``) or kills (``As`` after indirect
copy-elimination — it is never written again) are excluded, either via an
explicit ``skip`` set (use ``PipelineReport.dead_arrays``) or
automatically when shapes differ.  Generated ``pp_*`` helper variables
only exist on the transformed side and are ignored by construction
(we compare the intersection of names).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import VerificationError
from .interp.procedures import ExternalRegistry
from .interp.runner import ClusterJob, ClusterRun, execute_job
from .lang.ast_nodes import SourceFile
from .runtime.collectives import CollectiveSpec
from .runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from .runtime.network import IDEAL, NetworkModel


@dataclass
class EquivalenceReport:
    """Outcome of comparing one original/transformed program pair."""

    equivalent: bool
    mismatches: List[str] = field(default_factory=list)
    compared_arrays: List[str] = field(default_factory=list)
    skipped_arrays: List[str] = field(default_factory=list)
    time_original: float = 0.0
    time_transformed: float = 0.0
    warnings: List[str] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """original / transformed virtual time (>1 means prepush won)."""
        if self.time_transformed <= 0.0:
            return float("inf")
        return self.time_original / self.time_transformed

    def raise_on_mismatch(self) -> "EquivalenceReport":
        if not self.equivalent:
            raise VerificationError(
                "transformed program is not equivalent to the original:\n  "
                + "\n  ".join(self.mismatches[:10])
            )
        return self


def compare_runs(
    original: ClusterRun,
    transformed: ClusterRun,
    *,
    skip: Sequence[str] = (),
    arrays: Optional[Sequence[str]] = None,
    max_report: int = 20,
) -> EquivalenceReport:
    """Compare two completed cluster runs rank by rank — the one §4
    rule every check applies (sweeps, compare, verify and
    :func:`verify_equivalence`).

    A race warning of the transformed run (a send buffer modified while
    in flight) counts as a mismatch.  Runs flagged ``data_approximate``
    (replay-engine shadow budget exceeded, DESIGN.md §10) are refused
    outright: their arrays hold deterministic representatives, not real
    per-rank contents, so a comparison would be meaningless rather than
    merely failing.
    """
    for which, run in (("original", original), ("transformed", transformed)):
        if run.data_approximate:
            raise VerificationError(
                f"cannot verify: the {which} run carries approximate "
                "per-rank array data (replay shadow budget exceeded); "
                "rerun it with engine_mode='full' to compare real contents"
            )
    skip_set = {s.lower() for s in skip}
    mismatches: List[str] = []
    compared: List[str] = []
    skipped: List[str] = []

    if len(original.arrays) != len(transformed.arrays):
        mismatches.append(
            f"rank counts differ: {len(original.arrays)} vs "
            f"{len(transformed.arrays)}"
        )
        return EquivalenceReport(
            equivalent=False,
            mismatches=mismatches,
            time_original=original.time,
            time_transformed=transformed.time,
        )

    nranks = len(original.arrays)
    for rank in range(nranks):
        if original.outputs[rank] != transformed.outputs[rank]:
            mismatches.append(
                f"rank {rank}: printed output differs "
                f"({original.outputs[rank]!r} vs "
                f"{transformed.outputs[rank]!r})"
            )

    common = sorted(
        set(original.arrays[0]) & set(transformed.arrays[0])
        if nranks
        else set()
    )
    if arrays is not None:
        requested = {a.lower() for a in arrays}
        missing = requested - set(common)
        if missing:
            mismatches.append(
                f"requested arrays missing from a run: {sorted(missing)}"
            )
        common = [a for a in common if a in requested]

    for name in common:
        if name in skip_set:
            skipped.append(name)
            continue
        if any(
            original.arrays[r][name].shape != transformed.arrays[r][name].shape
            for r in range(nranks)
        ):
            skipped.append(name)
            continue
        compared.append(name)
        for rank in range(nranks):
            a = original.arrays[rank][name]
            b = transformed.arrays[rank][name]
            if not np.array_equal(a, b):
                bad = int(np.count_nonzero(a != b))
                idx = tuple(
                    int(x[0]) for x in np.nonzero(a != b)
                )
                mismatches.append(
                    f"rank {rank}: array {name!r} differs at {bad} of "
                    f"{a.size} elements (first at 0-based index {idx})"
                )
            if len(mismatches) >= max_report:
                break
        if len(mismatches) >= max_report:
            break

    # in-flight send-buffer modification warnings from the simulator's
    # race detector are mismatches: a transformation that triggers them
    # is unsafe even if the data raced to the right values this time
    mismatches.extend(w for w in transformed.warnings if "in flight" in w)
    return EquivalenceReport(
        equivalent=not mismatches,
        mismatches=mismatches,
        compared_arrays=compared,
        skipped_arrays=skipped,
        time_original=original.time,
        time_transformed=transformed.time,
        warnings=list(original.warnings) + list(transformed.warnings),
    )


def verify_equivalence(
    original: Union[str, SourceFile],
    transformed: Union[str, SourceFile],
    nranks: int,
    *,
    network: NetworkModel = IDEAL,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    externals: Optional[ExternalRegistry] = None,
    skip: Sequence[str] = (),
    arrays: Optional[Sequence[str]] = None,
    check: bool = False,
    collective: CollectiveSpec = None,
) -> EquivalenceReport:
    """Run both programs on the simulated cluster and compare results.

    ``skip`` names arrays that are expected to legitimately differ (pass
    ``PipelineReport.dead_arrays``).  ``collective`` selects the
    collective algorithms both runs use (the §4 guarantee must hold whatever
    schedule implements the original's alltoall).  With ``check=True`` a
    mismatch raises :class:`~repro.errors.VerificationError` instead of
    returning a failing report.
    """
    run_a = execute_job(
        ClusterJob(
            program=original,
            nranks=nranks,
            network=network,
            cost_model=cost_model,
            externals=externals,
            collective=collective,
        )
    )
    run_b = execute_job(
        ClusterJob(
            program=transformed,
            nranks=nranks,
            network=network,
            cost_model=cost_model,
            externals=externals,
            collective=collective,
        )
    )
    report = compare_runs(run_a, run_b, skip=skip, arrays=arrays)
    if check:
        report.raise_on_mismatch()
    return report
