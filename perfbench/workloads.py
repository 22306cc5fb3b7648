"""The benchmark's three workloads, each driving the public ``repro`` API.

A workload is set up once (:meth:`Workload.setup`), then runs passes.  A
pass calls the same fixed list of units (:meth:`Workload.units`): one
figure, one replay job or one tune search each.  The units are the timed
part; :meth:`Workload.check` (untimed) compares what they returned
against the golden digests and returns ``(attempted, failed)``
operations.  A unit that raised returns ``None`` and fails every
operation it would have run.

Golden digests live in ``golden.json`` keyed by the engine and symmetry
versions.  Under a version key that has no digests yet, the first pass
of a run becomes the reference and the report prints the digests it
observed, so they can be pinned.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import Job, Session
from repro.apps import build_app
from repro.harness import figures
from repro.interp.symmetry import SYMMETRY_VERSION
from repro.runtime.simulator import ENGINE_VERSION
from repro.tune import default_space

GOLDEN_PATH = Path(__file__).with_name("golden.json")

Unit = Callable[[], Any]


def version_key() -> str:
    return f"engine={ENGINE_VERSION},symmetry={SYMMETRY_VERSION}"


def digest(obj: Any) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class Golden:
    """Expected digests of one workload under the running versions."""

    def __init__(self, workload: str) -> None:
        table = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        self.expected: Dict[str, str] = dict(
            table.get(version_key(), {}).get(workload, {})
        )
        self.pinned = bool(self.expected)

    def matches(self, key: str, value: str) -> bool:
        # unpinned: the first value seen is the reference for the run
        return self.expected.setdefault(key, value) == value


class Workload:
    name = ""
    #: span-name prefixes predicted to dominate the traced pass time
    predicted: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.golden = Golden(self.name)

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def units(self) -> List[Unit]:
        raise NotImplementedError

    def check(self, produced: Sequence[Optional[Any]]) -> Tuple[int, int]:
        raise NotImplementedError


class PaperFigures(Workload):
    """Figure 1 plus Ablation H, each regenerated into an empty cache."""

    name = "paper-figures"
    predicted = ("interp.exec",)

    NRANKS = 4
    #: (figure, keyword arguments, measurement + verification simulations)
    FIGURES = (
        ("figure1", {"n": 8}, 6),
        ("ablation_variants", {"sizes": {"fft": 8, "nodeloop": 8, "indirect": 8}}, 52),
    )

    def setup(self, seed: int, workdir: Path) -> None:
        # deterministic by construction: the seed does not change inputs
        self.workdir = workdir

    def _figure(self, name: str, kwargs: Dict[str, Any]) -> Any:
        # a fresh empty cache every time: every point simulates
        session = Session(
            cache_dir=tempfile.mkdtemp(dir=self.workdir), engine_mode="auto"
        )
        sweeps: List[Any] = []
        sweep = session.sweep

        def recording_sweep(specs: Any) -> Any:
            result = sweep(specs)
            sweeps.append(result)
            return result

        session.sweep = recording_sweep  # type: ignore[method-assign]
        table = getattr(figures, name)(
            nranks=self.NRANKS, verify=True, session=session, **kwargs
        )
        return table, sweeps

    def units(self) -> List[Unit]:
        return [
            lambda name=name, kwargs=kwargs: self._figure(name, kwargs)
            for name, kwargs, _ in self.FIGURES
        ]

    def check(self, produced: Sequence[Optional[Any]]) -> Tuple[int, int]:
        attempted = failed = 0
        for (name, _, simulations), result in zip(self.FIGURES, produced):
            attempted += simulations
            ok = result is not None
            if ok:
                table, sweeps = result
                rows = [
                    [run.axes, run.measurement.to_dict()]
                    for s in sweeps
                    for run in s.runs
                ]
                ok = sum(
                    s.stats.total_simulated for s in sweeps
                ) == simulations and self.golden.matches(
                    name, digest([rows, table.rows])
                )
            failed += 0 if ok else simulations
        return attempted, failed


class ReplayScale(Workload):
    """Three collective-only 128-rank jobs under the forced replay engine."""

    name = "replay-scale"
    predicted = ("runtime", "interp.symmetry")

    NRANKS = 128
    JOBS = (
        ("nodeloop", {"n": 128, "steps": 1, "stages": 0}, {"alltoall": "bruck"}),
        ("halo", {"n": 128, "steps": 2, "stages": 2}, None),
        ("cg", {"steps": 2}, None),
    )

    def setup(self, seed: int, workdir: Path) -> None:
        # deterministic by construction: the seed does not change inputs
        self.session = Session(network="gmnet", engine_mode="replay")
        self.jobs = [
            Job(
                program=build_app(app, nranks=self.NRANKS, **kwargs).source,
                nranks=self.NRANKS,
                collective=collective,
                label=app,
            )
            for app, kwargs, collective in self.JOBS
        ]

    def units(self) -> List[Unit]:
        return [lambda job=job: self.session.run(job) for job in self.jobs]

    def check(self, produced: Sequence[Optional[Any]]) -> Tuple[int, int]:
        failed = 0
        for job, run in zip(self.jobs, produced):
            ok = run is not None and self.golden.matches(
                job.label,
                digest(
                    {
                        "time": run.time,
                        "ops_processed": run.result.ops_processed,
                        "messages": [s.messages_sent for s in run.result.stats],
                    }
                ),
            )
            failed += 0 if ok else 1
        return len(self.jobs), failed


class TuneWarm(Workload):
    """Seeded hill-climb searches re-run over the cache they filled."""

    name = "tune-warm"
    predicted = ("transform", "lang")

    APPS = (
        ("fft", {"n": 16, "steps": 1, "stages": 2}),
        ("nodeloop", {"n": 16, "steps": 1, "stages": 2}),
        ("indirect", {"n": 8, "stages": 2}),
    )
    SEEDS_PER_APP = 3
    BUDGET = 24

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.session = Session(cache_dir=tempfile.mkdtemp(dir=workdir))
        self.searches = [
            (
                default_space(
                    app, app_kwargs=kwargs, nranks=(4,), tile_sizes=("auto", 2, 4)
                ),
                rng.randrange(1 << 30),
            )
            for app, kwargs in self.APPS
            for _ in range(self.SEEDS_PER_APP)
        ]
        # the cold searches fill the cache the timed passes read
        self.cold = [
            (result.trajectory.search_fingerprint(), result.evaluations)
            for result in (unit() for unit in self.units())
        ]

    def units(self) -> List[Unit]:
        return [
            lambda space=space, seed=seed: self.session.tune(
                space, strategy="hill-climb", budget=self.BUDGET, seed=seed
            )
            for space, seed in self.searches
        ]

    def check(self, produced: Sequence[Optional[Any]]) -> Tuple[int, int]:
        attempted = failed = 0
        for (fingerprint, evaluations), warm in zip(self.cold, produced):
            attempted += evaluations
            ok = (
                warm is not None
                and warm.simulations == 0
                and warm.evaluations == evaluations
                and warm.trajectory.search_fingerprint() == fingerprint
            )
            failed += 0 if ok else evaluations
        return attempted, failed


WORKLOADS = {w.name: w for w in (PaperFigures, ReplayScale, TuneWarm)}
