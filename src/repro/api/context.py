"""Typed request objects of the :mod:`repro.api` façade.

Every class here is a **frozen dataclass**: a request is an immutable
value the caller builds once and hands to a :class:`~repro.api.Session`
method — there is no kwargs plumbing to thread a new axis through.  When
the pipeline grows an axis (say, a fault model), it becomes one new
field on :class:`ExecutionContext` (the session-wide default) and, if it
is overridable per call, one on the request objects — nothing else in
the repo changes.

Inheritance rules
-----------------

A per-request field set to ``None`` means *inherit the session's
:class:`ExecutionContext`*.  The one exception is ``collective``, where
``None`` is itself meaningful (the registry's default algorithms); those
fields default to the :data:`UNSET` sentinel instead, so ``None`` can
still be passed explicitly to force the registry defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Union

from ..interp.procedures import ExternalRegistry
from ..lang.ast_nodes import SourceFile
from ..runtime.collectives import CollectiveSpec
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.network import NetworkModel
from ..transform.options import TransformOptions
from ..transform.pipeline import Pipeline

__all__ = [
    "UNSET",
    "ExecutionContext",
    "Job",
    "CompareRequest",
    "VerifyRequest",
]


class _Unset:
    """Sentinel for 'inherit from the session' where ``None`` is taken."""

    _instance: Optional["_Unset"] = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"

    def __bool__(self) -> bool:
        return False


#: The "inherit from the session" marker (see the module docstring).
UNSET = _Unset()

NetworkLike = Union[str, NetworkModel]
VariantLike = Union[str, Pipeline]


@dataclass(frozen=True)
class ExecutionContext:
    """Session-wide execution defaults, resolved once per Session.

    ``network`` and ``collective`` may be registry *names*; the Session
    resolves them against :mod:`repro.runtime.network` /
    :mod:`repro.runtime.collectives` at construction, paying the lookup
    once.  The network resolves to a model *instance* (immune to later
    registry mutation); the collective spec resolves to a full suite of
    algorithm *names*, whose implementations the simulator still looks
    up per run.  ``cache_dir`` (a directory path or an existing
    :class:`~repro.harness.sweep.SweepCache`) enables the
    content-addressed result cache; ``jobs`` > 1 gives the session a
    persistent process pool that is reused across calls.
    """

    network: NetworkLike = "gmnet"
    collective: CollectiveSpec = None
    cost_model: CostModel = DEFAULT_COST_MODEL
    cache_dir: Union[None, str, Path, Any] = None  # Any: a SweepCache
    jobs: Optional[int] = None
    detect_races: bool = True
    verify: bool = True
    #: default transformation variant of prepare/compare/verify/
    #: transform — a registered pipeline name or a Pipeline instance,
    #: resolved once at Session construction like ``network``
    variant: VariantLike = "prepush"
    #: simulation engine selection (DESIGN.md §10): ``"auto"`` replays
    #: one recorded trace for all ranks when the program is provably
    #: rank-symmetric and silently falls back to full per-rank
    #: interpretation otherwise; ``"replay"`` forces replay (raising
    #: :class:`~repro.errors.EngineModeError` on asymmetric programs);
    #: ``"full"`` always interprets every rank.  All three produce
    #: bit-identical results and share cache entries.
    engine_mode: str = "auto"
    #: default RNG seed for seeded workflows (today: the
    #: :mod:`repro.tune` strategy RNG).  ``None`` means "unseeded
    #: default" — consumers fall back to a fixed seed of 0 so runs stay
    #: reproducible even when nobody asked.  The simulation itself is
    #: deterministic and ignores this.
    seed: Optional[int] = None


@dataclass(frozen=True)
class Job:
    """One simulation request: a program on ``nranks`` virtual ranks.

    Only ``program`` and ``nranks`` are required; everything else
    inherits the session's :class:`ExecutionContext` (see the module
    docstring for the ``None``/``UNSET`` convention).

    ``variant`` is the one deliberate exception to the inheritance
    rule: ``None`` means *run the program exactly as given* — NOT
    "inherit the context's variant" — because a raw Job is a
    simulation request, not a workload comparison.  Set it (a
    registered pipeline name or a Pipeline) to have the session
    transform the program first; the pipeline's identity and the
    ``options`` then travel into the job's cache fingerprint.
    """

    program: Union[str, SourceFile]
    nranks: int
    network: Optional[NetworkLike] = None
    collective: Union[_Unset, CollectiveSpec] = UNSET
    cost_model: Optional[CostModel] = None
    externals: Optional[ExternalRegistry] = None
    detect_races: Optional[bool] = None
    label: str = ""
    variant: Optional[VariantLike] = None
    options: Optional[TransformOptions] = None
    #: ``None`` inherits the context's ``engine_mode``
    engine_mode: Optional[str] = None


@dataclass(frozen=True)
class CompareRequest:
    """Transform one workload and measure original vs. transformed.

    ``verify=None`` inherits the context's ``verify`` flag (§4
    equivalence check of the pair before measuring); ``variant=None``
    inherits the context's default transformation variant.  The knobs
    are one frozen :class:`~repro.transform.options.TransformOptions`
    (``options=None`` = the defaults).
    """

    app: Any  # an AppSpec from repro.apps
    verify: Optional[bool] = None
    network: Optional[NetworkLike] = None
    collective: Union[_Unset, CollectiveSpec] = UNSET
    cost_model: Optional[CostModel] = None
    variant: Optional[VariantLike] = None
    options: Optional[TransformOptions] = None


@dataclass(frozen=True)
class VerifyRequest:
    """Transform a source program and check §4 output equivalence.

    ``oracle`` is forwarded to the transformation pipeline for the
    semi-automatic workflow (§3.1).  ``check=True`` raises
    :class:`~repro.errors.VerificationError` on mismatch instead of
    returning a failing report.  ``variant``/``options`` follow the
    same rules as :class:`CompareRequest`.
    """

    program: Union[str, SourceFile]
    nranks: int = 8
    oracle: Any = None
    network: Optional[NetworkLike] = None
    collective: Union[_Unset, CollectiveSpec] = UNSET
    cost_model: Optional[CostModel] = None
    externals: Optional[ExternalRegistry] = None
    check: bool = False
    variant: Optional[VariantLike] = None
    options: Optional[TransformOptions] = None
