"""The tune driver: ask → evaluate → tell over the shared sweep cache.

:func:`tune` orchestrates one search: a strategy proposes canonical
candidates, each candidate becomes a single-point
:class:`~repro.harness.sweep.SweepSpec` (via
:meth:`SearchSpace.specs_for`), and the whole batch runs through
:meth:`repro.api.Session.sweep` — so every evaluation is answered by
the content-addressed cache when it can be, and simulated (then
memoized) when it can't.  The cache *is* the search's memo table:
re-running a tune is near-free, and two strategies exploring
overlapping regions dedupe automatically (DESIGN.md §12).

Reproducibility contract: the only randomness is one
:class:`random.Random` seeded from the ``seed`` argument (falling back
to the session's seed, then 0) and handed to the strategy factory.
Same space + strategy + budget + objective + seed ⇒ bit-identical
trajectory JSONL over a warm cache, and identical
``search_fingerprint`` even against a cold one.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..errors import TuneError
from ..harness.sweep import SweepResult, SweepRun, SweepSpec
from .space import Candidate, SearchSpace
from .strategies import EvalResult, get_strategy
from .trajectory import Trajectory, TrajectoryStep, TuneResult

__all__ = ["tune", "OBJECTIVES"]

#: Built-in objective names (all minimized; ``speedup`` is negated).
OBJECTIVES = ("time", "speedup")

#: An evaluator runs a batch of single-point specs and returns the
#: SweepResult.  The default is ``session.sweep``; the serve layer
#: substitutes one that routes each point through its two-layer dedup.
Evaluator = Callable[[List[SweepSpec]], SweepResult]


def _resolve_objective(
    objective: Union[str, Callable[[SweepRun], float]]
) -> tuple:
    """``(name, fn, needs_baseline)`` for an objective spec.

    Built-ins: ``"time"`` minimizes the candidate's virtual completion
    time; ``"speedup"`` maximizes time(original)/time(candidate) at the
    same coordinates (implemented as minimizing its negation, so the
    driver only ever minimizes).  A callable receives the candidate's
    :class:`~repro.harness.sweep.SweepRun` and returns a float to
    minimize.
    """
    if callable(objective):
        name = getattr(objective, "__name__", "custom")
        return name, (lambda run, base: float(objective(run))), False
    if objective == "time":
        return "time", (lambda run, base: run.measurement.time), False
    if objective == "speedup":

        def fn(run: SweepRun, base: Optional[SweepRun]) -> float:
            base_time = base.measurement.time if base else run.measurement.time
            if run.measurement.time == 0:
                return 0.0 if base_time == 0 else float("-inf")
            return -(base_time / run.measurement.time)

        return "speedup", fn, True
    raise TuneError(
        f"unknown objective {objective!r}; built-ins: "
        f"{', '.join(OBJECTIVES)} (or pass a callable over SweepRun)"
    )


def tune(
    space: SearchSpace,
    *,
    session: Optional[Any] = None,
    strategy: str = "hill-climb",
    budget: int = 32,
    objective: Union[str, Callable[[SweepRun], float]] = "time",
    seed: Optional[int] = None,
    strategy_params: Optional[Mapping[str, Any]] = None,
    trajectory_path: Optional[str] = None,
    on_step: Optional[Callable[[TrajectoryStep], None]] = None,
    evaluate: Optional[Evaluator] = None,
) -> TuneResult:
    """Search ``space`` for the candidate minimizing ``objective``.

    ``budget`` caps the number of candidate evaluations (a strategy
    asking for more gets its batch truncated; one asking for nothing
    ends the run early).  ``seed`` falls back to the session's
    configured seed (``ExecutionContext.seed``), then 0, and is
    recorded in the trajectory header.  ``on_step`` fires after each
    evaluation (progress streaming); ``trajectory_path`` writes the
    JSONL artifact on completion.  ``evaluate`` overrides how spec
    batches execute — the serve layer uses it; everyone else should
    leave the default (:meth:`Session.sweep`).
    """
    if budget < 1:
        raise TuneError(f"tune budget must be >= 1, got {budget}")
    owns_session = session is None
    if owns_session:
        from ..api.session import Session

        session = Session()
    try:
        if seed is None:
            seed = getattr(session, "seed", None)
        if seed is None:
            seed = 0
        if evaluate is None:
            evaluate = session.sweep
        obj_name, obj_fn, needs_baseline = _resolve_objective(objective)
        factory = get_strategy(strategy)
        rng = random.Random(seed)
        strat = factory(space, rng, budget, **dict(strategy_params or {}))

        trajectory = Trajectory.begin(
            space=space,
            strategy=strategy,
            budget=budget,
            objective=obj_name,
            seed=seed,
        )
        history: List[EvalResult] = []
        simulations = 0
        cache_hits = 0
        best_obj: Optional[float] = None
        best_cand: Optional[Candidate] = None

        while len(history) < budget:
            proposals = strat.ask(history)
            if not proposals:
                break  # strategy is done (space exhausted)
            proposals = [space.normalize(c) for c in proposals]
            proposals = proposals[: budget - len(history)]

            # one sweep batch per round: every candidate (plus any
            # baseline) as its own single-point spec — the expansion
            # dedupes identical fingerprints within the batch and the
            # cache answers across batches and across runs
            specs: List[SweepSpec] = []
            names: List[str] = []
            for i, cand in enumerate(proposals):
                name = f"tune-{len(history) + i:04d}"
                names.append(name)
                specs.extend(
                    space.specs_for(cand, name=name, baseline=needs_baseline)
                )
            result = evaluate(specs)
            simulations += result.stats.total_simulated

            by_spec: Dict[str, SweepRun] = {}
            for run in result.runs:
                by_spec[run.axes["spec"]] = run

            told: List[EvalResult] = []
            for cand, name in zip(proposals, names):
                run = by_spec[name]
                base = by_spec.get(f"{name}-baseline")
                value = obj_fn(run, base)
                hit = run.cached and (base is None or base.cached)
                if hit:
                    cache_hits += 1
                step = len(history)
                if best_obj is None or value < best_obj:
                    best_obj, best_cand = value, cand
                res = EvalResult(
                    candidate=cand,
                    key=space.candidate_key(cand),
                    objective=value,
                    cached=hit,
                    step=step,
                )
                told.append(res)
                history.append(res)
                traj_step = TrajectoryStep(
                    step=step,
                    candidate=cand,
                    objective=value,
                    best_objective=best_obj,
                    best_candidate=best_cand,
                    cache_hit=hit,
                    fingerprint=run.fingerprint,
                )
                trajectory.steps.append(traj_step)
                if on_step is not None:
                    on_step(traj_step)
            strat.tell(told)

        if best_cand is None:
            raise TuneError(
                f"strategy {strategy!r} proposed no candidates for "
                f"space {space.fingerprint()[:12]} (empty grid?)"
            )
        if trajectory_path is not None:
            trajectory.write(trajectory_path)
        return TuneResult(
            best_candidate=best_cand,
            best_objective=best_obj,
            evaluations=len(history),
            simulations=simulations,
            cache_hits=cache_hits,
            strategy=strategy,
            objective=obj_name,
            seed=seed,
            space_fingerprint=space.fingerprint(),
            trajectory=trajectory,
        )
    finally:
        if owns_session:
            session.close()
