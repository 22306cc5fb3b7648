"""Search strategies and their registry.

A strategy is an ask/tell state machine over a
:class:`~repro.tune.space.SearchSpace`:

* ``ask(history) -> [candidate, ...]`` proposes the next canonical
  candidates to evaluate.  Returning ``[]`` means the strategy is done
  (space exhausted or nothing left worth trying) — the driver stops
  early even with budget remaining.
* ``tell(results)`` feeds back the scored :class:`EvalResult`\\ s.  The
  driver may evaluate *fewer* candidates than asked (budget slicing),
  so a strategy must tolerate truncated batches: unscored proposals are
  simply never told.

Strategies register by name exactly like networks, collectives, and
variants (:func:`register_strategy` / :func:`get_strategy` /
:func:`list_strategies`), so third-party bandit/evolutionary searches
plug in without touching the driver (DESIGN.md §12).  A factory is
called as ``factory(space, rng, budget, **params)``; the ``rng`` is a
:class:`random.Random` seeded by the driver — a strategy must draw all
randomness from it (never the global ``random`` module) so that equal
seeds give bit-identical trajectories.

Built-ins: exhaustive ``grid``, seeded ``random``,
coordinate-descent ``hill-climb`` (with random restarts), and
``successive-halving`` over the ``nranks`` fidelity axis (cheap
small-rank screens promote to expensive large-rank evaluations, which
the replay engine makes affordable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from ..errors import TuneError
from .space import Candidate, SearchSpace

__all__ = [
    "EvalResult",
    "Strategy",
    "register_strategy",
    "get_strategy",
    "list_strategies",
    "GridStrategy",
    "RandomStrategy",
    "HillClimbStrategy",
    "SuccessiveHalvingStrategy",
]


@dataclass(frozen=True)
class EvalResult:
    """One scored candidate, as fed back to a strategy via ``tell``."""

    candidate: Candidate
    key: str  # SearchSpace.candidate_key(candidate)
    objective: float  # lower is better, always
    cached: bool  # True when no simulation ran for it
    step: int  # 0-based evaluation index in the tune run


class Strategy(Protocol):
    """The ask/tell protocol every strategy implements."""

    def ask(self, history: Sequence[EvalResult]) -> List[Candidate]:
        """Propose the next candidates; ``[]`` ends the search."""
        ...

    def tell(self, results: Sequence[EvalResult]) -> None:
        """Record scored candidates (possibly a truncated batch)."""
        ...


# --------------------------------------------------------------- registry

_STRATEGIES: Dict[str, Callable[..., Strategy]] = {}


def register_strategy(
    name: str,
    factory: Callable[..., Strategy],
    *,
    overwrite: bool = False,
) -> None:
    """Register a strategy factory under ``name``.

    ``factory(space, rng, budget, **params)`` must return an object
    implementing :class:`Strategy`.  Mirrors the network / collective /
    variant registries: re-registering an existing name raises unless
    ``overwrite=True``.
    """
    if not name or not isinstance(name, str):
        raise TuneError(f"strategy name must be a non-empty string: {name!r}")
    if name in _STRATEGIES and not overwrite:
        raise TuneError(
            f"strategy {name!r} is already registered; pass "
            f"overwrite=True to replace it"
        )
    if not callable(factory):
        raise TuneError(f"strategy factory for {name!r} is not callable")
    _STRATEGIES[name] = factory


def get_strategy(name: str) -> Callable[..., Strategy]:
    """The registered factory for ``name`` (raises listing known names)."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise TuneError(
            f"unknown strategy {name!r}; registered: {list_strategies()}"
        ) from None


def list_strategies() -> List[str]:
    """Sorted names of all registered strategies."""
    return sorted(_STRATEGIES)


# -------------------------------------------------------------- built-ins


class GridStrategy:
    """Exhaustive enumeration in :meth:`SearchSpace.grid` order — the
    same cross-product order ``expand_spec`` walks, deduplicated by
    canonical form, so a full-budget grid tune is provably the sweep
    the corresponding :class:`~repro.harness.sweep.SweepSpec` runs."""

    def __init__(self, space: SearchSpace, rng, budget: int) -> None:
        self._queue = space.grid()
        self._told = 0

    def ask(self, history: Sequence[EvalResult]) -> List[Candidate]:
        return list(self._queue[self._told:])

    def tell(self, results: Sequence[EvalResult]) -> None:
        self._told += len(results)


class RandomStrategy:
    """Seeded uniform random search without replacement.

    Proposes ``batch`` unseen candidates per round (rejection-sampling
    against everything already proposed or scored, with an exact grid
    scan as the fallback once sampling keeps colliding), so no budget
    is ever spent re-measuring a candidate the cache already holds
    *within the same run*; across runs the cache handles it.
    """

    def __init__(
        self, space: SearchSpace, rng, budget: int, *, batch: int = 8
    ) -> None:
        if batch < 1:
            raise TuneError(f"random search batch must be >= 1, got {batch}")
        self.space = space
        self.rng = rng
        self.batch = batch
        self._seen: set = set()

    def ask(self, history: Sequence[EvalResult]) -> List[Candidate]:
        out: List[Candidate] = []
        misses = 0
        while len(out) < self.batch and misses < 16 * self.batch:
            cand = self.space.sample(self.rng)
            key = self.space.candidate_key(cand)
            if key in self._seen:
                misses += 1
                continue
            self._seen.add(key)
            out.append(cand)
        if not out:
            # sampling saturated: exact sweep for any stragglers
            for cand in self.space.grid():
                key = self.space.candidate_key(cand)
                if key not in self._seen:
                    self._seen.add(key)
                    out.append(cand)
                    if len(out) == self.batch:
                        break
        return out

    def tell(self, results: Sequence[EvalResult]) -> None:
        for res in results:
            self._seen.add(res.key)


class HillClimbStrategy:
    """Coordinate-descent hill-climb with seeded random restarts.

    Starts at the space's deterministic default candidate, then sweeps
    one axis at a time (all alternate values of that axis, everything
    else fixed), moving whenever some move strictly improves the
    objective.  A full cycle through every axis with no improvement is
    a local optimum; the strategy then restarts from a random unseen
    candidate.  All already-scored candidates are answered from an
    internal memo, so the climb never re-asks the driver for a point
    it has seen — mirroring how the sweep cache answers across runs.
    """

    def __init__(self, space: SearchSpace, rng, budget: int) -> None:
        self.space = space
        self.rng = rng
        self._scores: Dict[str, float] = {}
        self._current: Optional[Candidate] = None
        self._axis_cycle = [a.name for a in space.axes if len(a.values) > 1]
        self._axis_idx = 0
        self._stalled = 0
        self._started = False
        self._exhausted = False

    def _key(self, cand: Candidate) -> str:
        return self.space.candidate_key(cand)

    def ask(self, history: Sequence[EvalResult]) -> List[Candidate]:
        if self._exhausted or not self._axis_cycle:
            return []
        while True:
            if self._current is None:
                start = self._next_start()
                if start is None:
                    self._exhausted = True
                    return []
                if self._key(start) not in self._scores:
                    return [start]
                self._current = start
                continue
            moves = self.space.axis_moves(
                self._current, self._axis_cycle[self._axis_idx]
            )
            unseen = [m for m in moves if self._key(m) not in self._scores]
            if unseen:
                return unseen
            self._advance(moves)
            if self._exhausted:
                return []

    def tell(self, results: Sequence[EvalResult]) -> None:
        for res in results:
            self._scores[res.key] = res.objective
        if self._current is None and self._started and results:
            # the start candidate just got scored; adopt it
            self._current = dict(results[0].candidate)

    def _next_start(self) -> Optional[Candidate]:
        if not self._started:
            self._started = True
            return self.space.default_candidate()
        # random restart: an unseen candidate, rejection-sampled with an
        # exact grid scan once the space is nearly covered
        for _ in range(128):
            cand = self.space.sample(self.rng)
            if self._key(cand) not in self._scores:
                return cand
        for cand in self.space.grid():
            if self._key(cand) not in self._scores:
                return cand
        return None

    def _advance(self, moves: List[Candidate]) -> None:
        """Every move of the current axis is scored: take the best one
        if it strictly improves, then rotate to the next axis (or
        restart after a full stalled cycle)."""
        cur_key = self._key(self._current)
        cur_obj = self._scores.get(cur_key, math.inf)
        best = min(
            moves,
            key=lambda m: (self._scores[self._key(m)], self._key(m)),
            default=None,
        )
        if best is not None and self._scores[self._key(best)] < cur_obj:
            self._current = best
            self._stalled = 0
        else:
            self._stalled += 1
        self._axis_idx = (self._axis_idx + 1) % len(self._axis_cycle)
        if self._stalled >= len(self._axis_cycle):
            self._current = None  # local optimum -> restart
            self._stalled = 0
            self._axis_idx = 0


class SuccessiveHalvingStrategy:
    """Successive halving over the ``nranks`` fidelity axis.

    Rank count is the cost axis — a 1024-rank evaluation costs orders
    of magnitude more than an 8-rank one even under the replay engine —
    so the classic multi-fidelity move applies: screen a wide cohort at
    the smallest rank count, promote the top ``1/eta`` fraction to the
    next rung, and only the final survivors pay full price.  Requires
    an integer ``nranks`` axis with at least two values (the rungs,
    ascending).
    """

    def __init__(
        self, space: SearchSpace, rng, budget: int, *, eta: int = 2
    ) -> None:
        axis = space.axis("nranks")
        if axis is None or len(axis.values) < 2:
            raise TuneError(
                "successive-halving needs an nranks axis with at least "
                "two values (the fidelity rungs); declare one, e.g. "
                "nranks=(4, 16, 64)"
            )
        if eta < 2:
            raise TuneError(f"successive-halving eta must be >= 2, got {eta}")
        self.space = space
        self.rng = rng
        self.eta = eta
        self._rungs = sorted(axis.values)
        self._rung_idx = 0
        # size the first cohort so the whole ladder roughly fits the
        # budget: sum_r n0/eta^r over R rungs ~= budget
        R = len(self._rungs)
        geom = sum(eta ** -r for r in range(R))
        self._cohort = self._initial_cohort(
            max(eta ** (R - 1), int(budget / geom)) if budget > 0 else 1
        )
        self._scores: Dict[str, float] = {}
        self._exhausted = False

    def _initial_cohort(self, n0: int) -> List[Candidate]:
        """``n0`` distinct candidates pinned to the lowest rung."""
        low = self._rungs[0]
        out: List[Candidate] = []
        seen: set = set()
        misses = 0
        while len(out) < n0 and misses < 16 * n0:
            cand = self.space.normalize(
                dict(self.space.sample(self.rng), nranks=low)
            )
            key = self.space.candidate_key(cand)
            if key in seen:
                misses += 1
                continue
            seen.add(key)
            out.append(cand)
        if len(out) < n0:
            for cand in self.space.grid():
                cand = self.space.normalize(dict(cand, nranks=low))
                key = self.space.candidate_key(cand)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
                    if len(out) == n0:
                        break
        return out

    def ask(self, history: Sequence[EvalResult]) -> List[Candidate]:
        while not self._exhausted:
            unseen = [
                c
                for c in self._cohort
                if self.space.candidate_key(c) not in self._scores
            ]
            if unseen:
                return unseen
            self._promote()
        return []

    def tell(self, results: Sequence[EvalResult]) -> None:
        for res in results:
            self._scores[res.key] = res.objective

    def _promote(self) -> None:
        """The whole rung is scored: keep the top ``1/eta`` fraction and
        lift the survivors to the next rank count."""
        if self._rung_idx + 1 >= len(self._rungs) or not self._cohort:
            self._exhausted = True
            return
        ranked = sorted(
            self._cohort,
            key=lambda c: (
                self._scores[self.space.candidate_key(c)],
                self.space.candidate_key(c),
            ),
        )
        keep = ranked[: max(1, math.ceil(len(ranked) / self.eta))]
        self._rung_idx += 1
        rung = self._rungs[self._rung_idx]
        promoted: List[Candidate] = []
        seen: set = set()
        for cand in keep:
            lifted = self.space.normalize(dict(cand, nranks=rung))
            key = self.space.candidate_key(lifted)
            if key not in seen:
                seen.add(key)
                promoted.append(lifted)
        self._cohort = promoted


register_strategy("grid", GridStrategy)
register_strategy("random", RandomStrategy)
register_strategy("hill-climb", HillClimbStrategy)
register_strategy("successive-halving", SuccessiveHalvingStrategy)
