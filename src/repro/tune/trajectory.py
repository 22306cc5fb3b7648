"""Trajectory artifacts: the reproducible record of one tune run.

A tune run emits one JSONL document: a header line (search-space
canonical form + fingerprint, strategy, budget, objective, seed, engine
version) followed by one line per evaluation — candidate, objective,
cumulative best, and whether the evaluation was answered from cache.
Two runs with the same seed over a warm cache must produce
**bit-identical** JSONL; a cold and a warm run of the same command agree
on everything except the ``cache_hit`` flags (that difference is
execution provenance, not search content — :meth:`Trajectory.
search_fingerprint` hashes the flag-stripped record for exactly this
comparison).

The rendering hook (:meth:`Trajectory.render`) is the archgym
``best_fitness.py`` idea in this repo's ASCII idiom: best objective so
far as a function of evaluations spent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Mapping, Optional, Union

import hashlib

from ..errors import TuneError
from ..runtime.simulator import ENGINE_VERSION
from .space import Candidate, SearchSpace

__all__ = ["TrajectoryStep", "Trajectory", "TuneResult"]

#: Format version of the trajectory JSONL document.
TRAJECTORY_VERSION = 1


def _dumps(obj: Any) -> str:
    """The one canonical JSON encoding used for every trajectory line."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TrajectoryStep:
    """One evaluation: what was tried, what it scored, where we stand."""

    step: int  # 0-based evaluation index
    candidate: Candidate
    objective: float
    best_objective: float  # cumulative best including this step
    best_candidate: Candidate
    cache_hit: bool  # True = zero simulations for this evaluation
    fingerprint: Optional[str]  # cache key of the candidate's own run

    def to_dict(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "candidate": dict(self.candidate),
            "objective": self.objective,
            "best_objective": self.best_objective,
            "best_candidate": dict(self.best_candidate),
            "cache_hit": self.cache_hit,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrajectoryStep":
        return cls(
            step=data["step"],
            candidate=dict(data["candidate"]),
            objective=data["objective"],
            best_objective=data["best_objective"],
            best_candidate=dict(data["best_candidate"]),
            cache_hit=data["cache_hit"],
            fingerprint=data.get("fingerprint"),
        )


@dataclass
class Trajectory:
    """The full per-step record of one tune run."""

    header: Dict[str, Any]
    steps: List[TrajectoryStep] = field(default_factory=list)

    @classmethod
    def begin(
        cls,
        *,
        space: SearchSpace,
        strategy: str,
        budget: int,
        objective: str,
        seed: int,
    ) -> "Trajectory":
        return cls(
            header={
                "kind": "tune-trajectory",
                "version": TRAJECTORY_VERSION,
                "engine_version": ENGINE_VERSION,
                "space": space.to_dict(),
                "space_fingerprint": space.fingerprint(),
                "strategy": strategy,
                "budget": budget,
                "objective": objective,
                "seed": seed,
            }
        )

    # ------------------------------------------------------------- i/o

    def to_jsonl(self) -> str:
        """The canonical serialized document: header line, then one
        line per step, compact sorted-key JSON throughout — the
        bit-identity unit of the determinism contract."""
        lines = [_dumps(self.header)]
        lines.extend(_dumps(s.to_dict()) for s in self.steps)
        return "\n".join(lines) + "\n"

    def write(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def read(cls, source: Union[str, Path, IO[str]]) -> "Trajectory":
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise TuneError("empty trajectory document")
        header = json.loads(lines[0])
        if header.get("kind") != "tune-trajectory":
            raise TuneError(
                "not a tune trajectory (missing kind=tune-trajectory header)"
            )
        steps = [TrajectoryStep.from_dict(json.loads(ln)) for ln in lines[1:]]
        return cls(header=header, steps=steps)

    # ------------------------------------------------------- analysis

    def best_fitness_series(self) -> List[float]:
        """Best objective so far after each evaluation — the y-values
        of the classic best-fitness-over-evaluations curve."""
        return [s.best_objective for s in self.steps]

    def search_fingerprint(self) -> str:
        """sha-256 of the trajectory minus the ``cache_hit`` flags.

        Equal for a cold and a warm run of the same seeded command:
        cache hits change *where answers come from*, never what they
        are, so the search content must hash identically.
        """
        stripped = [self.header] + [
            {k: v for k, v in s.to_dict().items() if k != "cache_hit"}
            for s in self.steps
        ]
        return hashlib.sha256(
            "\n".join(_dumps(x) for x in stripped).encode("utf-8")
        ).hexdigest()

    def render(self, *, width: int = 50) -> str:
        """ASCII best-fitness-over-evaluations figure."""
        from ..harness.report import bar_chart

        if not self.steps:
            return "(empty trajectory)"
        series = self.best_fitness_series()
        labels = [f"eval {s.step:>3}" for s in self.steps]
        lines = [
            f"best objective over {len(series)} evaluations "
            f"(strategy={self.header.get('strategy')}, "
            f"seed={self.header.get('seed')})",
            bar_chart(labels, series, width=width),
        ]
        return "\n".join(lines)


@dataclass
class TuneResult:
    """Summary of one finished tune run."""

    best_candidate: Candidate
    best_objective: float
    evaluations: int
    simulations: int  # simulations actually executed (0 on warm cache)
    cache_hits: int  # evaluations answered without simulating
    strategy: str
    objective: str
    seed: int
    space_fingerprint: str
    trajectory: Trajectory

    def to_dict(self) -> Dict[str, Any]:
        return {
            "best_candidate": dict(self.best_candidate),
            "best_objective": self.best_objective,
            "evaluations": self.evaluations,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "strategy": self.strategy,
            "objective": self.objective,
            "seed": self.seed,
            "space_fingerprint": self.space_fingerprint,
            "search_fingerprint": self.trajectory.search_fingerprint(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        cand = ", ".join(
            f"{k}={v}" for k, v in self.best_candidate.items()
        )
        return (
            f"best {self.objective}={self.best_objective:.6g} after "
            f"{self.evaluations} evaluations ({self.simulations} simulated, "
            f"{self.cache_hits} cache hits) via {self.strategy} "
            f"[seed {self.seed}]\n  {cand}"
        )
