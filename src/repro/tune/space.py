"""Declarative search spaces over the repo's configuration knobs.

The three registries (network scenarios, collective algorithms,
transformation variants) plus :class:`~repro.transform.options.
TransformOptions` and the rank count define a real configuration space
— the paper's conclusion is one point in it.  A :class:`SearchSpace`
names that space *declaratively*: a tuple of :class:`Axis` objects
(categorical or integer) over registry-drawn values, plus named
structural **constraints** such as "tile size only matters when the
variant tiles".  Everything is canonically serializable
(:meth:`SearchSpace.to_dict` / :meth:`SearchSpace.from_dict` /
:meth:`SearchSpace.fingerprint`), so a tune run is fingerprintable the
same way a sweep point is (DESIGN.md §12).

A **candidate** is a plain dict ``{axis name: value}``.
:meth:`SearchSpace.normalize` maps every raw candidate to its canonical
form by applying the constraints — candidates that differ only in
knobs their variant cannot express (a tile size under the ``original``
pipeline, say) collapse to one canonical candidate, which is what
makes search-loop deduplication and the sweep cache's memo table line
up: one canonical candidate, one fingerprint, one simulation ever.

:meth:`SearchSpace.specs_for` turns one candidate into single-point
:class:`~repro.harness.sweep.SweepSpec`\\ s (via
:meth:`~repro.harness.sweep.SweepSpec.single`), which is how the tune
driver evaluates candidates through :meth:`repro.api.Session.sweep` —
every evaluation hits the shared content-addressed cache.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import TuneError
from ..harness.sweep import SweepSpec
from ..runtime.collectives import (
    default_algorithm,
    list_algorithms,
    resolve_suite,
)
from ..runtime.network import list_models, resolve_model
from ..transform.options import TransformOptions
from ..transform.pipeline import list_variants, resolve_variant

__all__ = [
    "AXIS_NAMES",
    "Axis",
    "Candidate",
    "SearchSpace",
    "default_space",
    "list_constraints",
]

#: A candidate is a plain JSON-safe mapping of axis name -> value.
Candidate = Dict[str, Any]

#: The knobs a space may declare as axes, in canonical (grid) order.
#: Each maps 1:1 onto a :class:`~repro.harness.sweep.SweepSpec` axis.
AXIS_NAMES = (
    "variant",
    "tile_size",
    "interchange",
    "collective",
    "network",
    "nranks",
)

#: Value every knob takes when a space does not declare its axis.
_AXIS_DEFAULTS: Dict[str, Any] = {
    "variant": "original",
    "tile_size": "auto",
    "interchange": "auto",
    "collective": None,
    "network": "gmnet",
    "nranks": 8,
}


@dataclass(frozen=True)
class Axis:
    """One searchable knob: a name and its candidate values.

    ``kind`` is ``"categorical"`` (unordered labels — variants,
    networks, collective specs) or ``"integer"`` (ordered numeric
    values — rank counts, pure-int tile-size menus); integer axes are
    what fidelity-aware strategies like successive halving climb.
    Values must be JSON scalars (or, for ``collective``, mappings) so
    the space serializes canonically.
    """

    name: str
    values: Tuple[Any, ...]
    kind: str = "categorical"

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise TuneError(
                f"unknown axis {self.name!r}; searchable knobs: "
                f"{', '.join(AXIS_NAMES)}"
            )
        if not self.values:
            raise TuneError(f"axis {self.name!r} needs at least one value")
        if self.kind not in ("categorical", "integer"):
            raise TuneError(
                f"axis {self.name!r} kind must be 'categorical' or "
                f"'integer', not {self.kind!r}"
            )
        if self.kind == "integer" and not all(
            isinstance(v, int) and not isinstance(v, bool)
            for v in self.values
        ):
            raise TuneError(
                f"integer axis {self.name!r} has non-int values "
                f"{[v for v in self.values if not isinstance(v, int)]}"
            )
        if len(set(map(_value_key, self.values))) != len(self.values):
            raise TuneError(f"axis {self.name!r} has duplicate values")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "values": [
                dict(v) if isinstance(v, Mapping) else v for v in self.values
            ],
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Axis":
        unknown = set(data) - {"name", "values", "kind"}
        if unknown:
            raise TuneError(
                f"axis object has unknown keys {sorted(unknown)}"
            )
        if "name" not in data or "values" not in data:
            raise TuneError("an axis object needs 'name' and 'values'")
        return cls(
            name=data["name"],
            values=tuple(data["values"]),
            kind=data.get("kind", "categorical"),
        )


def _value_key(value: Any) -> str:
    """Stable identity of one axis value (dicts compare canonically)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _variant_has_pass(variant: str, pass_name: str) -> bool:
    pipeline = resolve_variant(variant)
    return any(p.name == pass_name for p in pipeline.passes)


# ------------------------------------------------------- constraints

#: name -> rule(candidate) -> candidate.  A constraint is a *named*
#: normalization rule so it serializes with the space; rules must be
#: idempotent and only ever collapse values toward a canonical form.
_CONSTRAINTS: Dict[str, Callable[[Candidate], Candidate]] = {}


def _constraint(name: str):
    def deco(fn: Callable[[Candidate], Candidate]):
        _CONSTRAINTS[name] = fn
        return fn

    return deco


def list_constraints() -> List[str]:
    """Sorted names of the built-in structural constraints."""
    return sorted(_CONSTRAINTS)


@_constraint("tile-size-requires-tiling")
def _tile_requires_tiling(candidate: Candidate) -> Candidate:
    """``tile_size`` collapses to ``"auto"`` when the chosen variant's
    pipeline has no ``tile`` pass — the knob cannot be expressed, so
    all its values name the same simulation."""
    if candidate.get("tile_size", "auto") != "auto" and not _variant_has_pass(
        candidate.get("variant", _AXIS_DEFAULTS["variant"]), "tile"
    ):
        candidate = dict(candidate, tile_size="auto")
    return candidate


@_constraint("interchange-requires-interchange-pass")
def _interchange_requires_pass(candidate: Candidate) -> Candidate:
    """``interchange`` collapses to ``"auto"`` when the variant's
    pipeline has no ``interchange`` pass (same argument as the tile
    rule: ``no-interchange`` under interchange="never" is still
    ``no-interchange``)."""
    if candidate.get(
        "interchange", "auto"
    ) != "auto" and not _variant_has_pass(
        candidate.get("variant", _AXIS_DEFAULTS["variant"]), "interchange"
    ):
        candidate = dict(candidate, interchange="auto")
    return candidate


DEFAULT_CONSTRAINTS: Tuple[str, ...] = (
    "tile-size-requires-tiling",
    "interchange-requires-interchange-pass",
)


# ------------------------------------------------------------- space


@dataclass(frozen=True)
class SearchSpace:
    """One declarative knob space for a single app.

    ``axes`` declare what a strategy may vary; knobs without an axis
    are pinned to their defaults (``tile_size``/``interchange`` →
    ``"auto"``, ``collective`` → registry defaults, ``network`` →
    ``"gmnet"``, ``nranks`` → 8).  ``cpu_scale``/``verify``/
    ``engine_mode`` are fixed evaluation context, not axes.  The
    declared ``constraints`` (names of built-in rules) canonicalize
    candidates; see :meth:`normalize`.
    """

    app: str
    axes: Tuple[Axis, ...]
    app_kwargs: Mapping[str, Any] = field(default_factory=dict)
    constraints: Tuple[str, ...] = DEFAULT_CONSTRAINTS
    cpu_scale: float = 1.0
    verify: bool = False
    engine_mode: Optional[str] = None

    def __post_init__(self) -> None:
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise TuneError(f"duplicate axes {sorted(names)}")
        unknown = sorted(set(self.constraints) - set(_CONSTRAINTS))
        if unknown:
            raise TuneError(
                f"unknown constraints {unknown}; built-ins: "
                f"{list_constraints()}"
            )
        # fail on unresolvable registry names now, not mid-search
        for axis in self.axes:
            if axis.name == "variant":
                for v in axis.values:
                    resolve_variant(v)
            elif axis.name == "network":
                for v in axis.values:
                    resolve_model(v)
            elif axis.name == "collective":
                for v in axis.values:
                    resolve_suite(v)
            elif axis.name == "tile_size":
                for v in axis.values:
                    TransformOptions(tile_size=v)
            elif axis.name == "interchange":
                for v in axis.values:
                    TransformOptions(interchange=v)
            elif axis.name == "nranks":
                if axis.kind != "integer":
                    raise TuneError("the nranks axis must be integer-kind")

    # ---------------------------------------------------- introspection

    def axis(self, name: str) -> Optional[Axis]:
        for axis in self.axes:
            if axis.name == name:
                return axis
        return None

    def default_value(self, name: str) -> Any:
        """The pinned value of an undeclared knob, or the first value
        of its declared axis (the deterministic search start)."""
        axis = self.axis(name)
        return axis.values[0] if axis is not None else _AXIS_DEFAULTS[name]

    def default_candidate(self) -> Candidate:
        """The deterministic starting point: every axis at its first
        declared value."""
        return self.normalize(
            {a.name: a.values[0] for a in self.axes}
        )

    # ---------------------------------------------------- normalization

    @functools.cached_property
    def _accepted_keys(self) -> Dict[str, frozenset]:
        """Per axis, the :func:`_value_key` of every value
        :meth:`normalize` accepts (computed once per space; not a
        field, so equality and the wire form ignore it)."""
        return {
            axis.name: frozenset(
                map(_value_key, axis.values + (_AXIS_DEFAULTS[axis.name],))
            )
            for axis in self.axes
        }

    def normalize(self, candidate: Mapping[str, Any]) -> Candidate:
        """The canonical form of ``candidate``.

        Unknown keys raise; a missing declared axis takes that axis's
        first value; then every declared constraint applies in name
        order.  Two candidates with equal canonical forms name the same
        simulation, so strategies and the trajectory always speak in
        canonical candidates.

        A knob's pinned default (``"auto"``, registry default, ...) is
        always acceptable even when the axis doesn't declare it: it is
        the value constraints collapse inexpressible knobs *to*, so
        canonical forms must re-normalize to themselves.
        """
        unknown = sorted(set(candidate) - {a.name for a in self.axes})
        if unknown:
            raise TuneError(
                f"candidate has unknown axes {unknown}; declared: "
                f"{[a.name for a in self.axes]}"
            )
        full = {
            a.name: candidate.get(a.name, a.values[0]) for a in self.axes
        }
        accepted = self._accepted_keys
        for axis in self.axes:
            if _value_key(full[axis.name]) not in accepted[axis.name]:
                raise TuneError(
                    f"candidate value {full[axis.name]!r} not on axis "
                    f"{axis.name!r} (values: {list(axis.values)})"
                )
        for name in sorted(self.constraints):
            full = _CONSTRAINTS[name](dict(full))
        return {name: full[name] for name in self._axis_order()}

    def _axis_order(self) -> List[str]:
        return [a.name for a in self.axes]

    @staticmethod
    def candidate_key(candidate: Mapping[str, Any]) -> str:
        """Stable JSON identity of one (canonical) candidate."""
        return json.dumps(
            dict(candidate), sort_keys=True, separators=(",", ":")
        )

    # ------------------------------------------------------ enumeration

    def grid(self) -> List[Candidate]:
        """Every distinct canonical candidate, in cross-product order
        (axes in declaration order, first axis outermost) — exactly
        the order a :class:`~repro.harness.sweep.SweepSpec` cross-
        product would enumerate the same values, deduplicated by
        canonical form."""
        seen: set = set()
        out: List[Candidate] = []
        for values in itertools.product(*(a.values for a in self.axes)):
            cand = self.normalize(
                dict(zip((a.name for a in self.axes), values))
            )
            key = self.candidate_key(cand)
            if key not in seen:
                seen.add(key)
                out.append(cand)
        return out

    def size(self) -> int:
        """Number of distinct canonical candidates."""
        return len(self.grid())

    def sample(self, rng) -> Candidate:
        """One uniformly drawn canonical candidate (``rng`` is a
        :class:`random.Random`; determinism is the caller's seed)."""
        return self.normalize(
            {a.name: rng.choice(a.values) for a in self.axes}
        )

    def neighbors(self, candidate: Mapping[str, Any]) -> List[Candidate]:
        """Every canonical candidate one axis move away (all alternate
        values of each axis, other axes fixed), deduplicated, the
        candidate itself excluded — the hill-climb neighborhood."""
        base = self.normalize(candidate)
        base_key = self.candidate_key(base)
        seen = {base_key}
        out: List[Candidate] = []
        for axis in self.axes:
            for value in axis.values:
                cand = self.normalize(dict(base, **{axis.name: value}))
                key = self.candidate_key(cand)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
        return out

    def axis_moves(
        self, candidate: Mapping[str, Any], name: str
    ) -> List[Candidate]:
        """The :meth:`neighbors` restricted to one axis (coordinate-
        descent's per-axis proposal set)."""
        axis = self.axis(name)
        if axis is None:
            return []
        base = self.normalize(candidate)
        seen = {self.candidate_key(base)}
        out: List[Candidate] = []
        for value in axis.values:
            cand = self.normalize(dict(base, **{name: value}))
            key = self.candidate_key(cand)
            if key not in seen:
                seen.add(key)
                out.append(cand)
        return out

    # ---------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe canonical form (the wire/spec-file format)."""
        return {
            "app": self.app,
            "app_kwargs": dict(self.app_kwargs),
            "axes": [a.to_dict() for a in self.axes],
            "constraints": list(self.constraints),
            "cpu_scale": self.cpu_scale,
            "verify": self.verify,
            "engine_mode": self.engine_mode,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchSpace":
        known = {
            "app",
            "app_kwargs",
            "axes",
            "constraints",
            "cpu_scale",
            "verify",
            "engine_mode",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise TuneError(
                f"search space has unknown keys {unknown}; accepted: "
                f"{sorted(known)}"
            )
        if "app" not in data or "axes" not in data:
            raise TuneError("a search space needs at least 'app' and 'axes'")
        axes = tuple(
            a if isinstance(a, Axis) else Axis.from_dict(a)
            for a in data["axes"]
        )
        kwargs: Dict[str, Any] = {"app": data["app"], "axes": axes}
        if "app_kwargs" in data:
            kwargs["app_kwargs"] = dict(data["app_kwargs"])
        if "constraints" in data:
            kwargs["constraints"] = tuple(data["constraints"])
        for key in ("cpu_scale", "verify", "engine_mode"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)

    def canonical_params(self) -> Dict[str, Any]:
        """Alias of :meth:`to_dict` mirroring the NetworkModel /
        CostModel / TransformOptions fingerprint convention."""
        return self.to_dict()

    def fingerprint(self) -> str:
        """sha-256 of the canonical form — the tune-run identity folded
        into every trajectory header."""
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------- evaluation

    def specs_for(
        self,
        candidate: Mapping[str, Any],
        *,
        name: str,
        baseline: bool = False,
    ) -> List[SweepSpec]:
        """The single-point sweep spec(s) evaluating ``candidate``.

        The first spec is the candidate itself; with ``baseline=True``
        (speedup-style objectives) a second spec measures the
        untransformed ``original`` program at the same coordinates —
        as its own single-point spec, so the batch/cache fingerprint
        dedupe collapses repeated baselines across candidates.
        """
        cand = self.normalize(candidate)

        def single(spec_name: str, variant: str) -> SweepSpec:
            return SweepSpec.single(
                name=spec_name,
                app=self.app,
                app_kwargs=dict(self.app_kwargs),
                variant=variant,
                tile_size=cand.get("tile_size", "auto"),
                interchange=cand.get("interchange", "auto"),
                network=cand.get("network", _AXIS_DEFAULTS["network"]),
                collective=cand.get("collective"),
                nranks=cand.get("nranks", _AXIS_DEFAULTS["nranks"]),
                cpu_scale=self.cpu_scale,
                verify=self.verify,
                engine_mode=self.engine_mode,
            )

        variant = cand.get("variant", "original")
        specs = [single(name, variant)]
        if baseline and variant != "original":
            specs.append(single(f"{name}-baseline", "original"))
        return specs


def default_space(
    app: str,
    *,
    app_kwargs: Optional[Mapping[str, Any]] = None,
    networks: Sequence[Any] = ("gmnet",),
    nranks: Sequence[int] = (8,),
    variants: Optional[Sequence[str]] = None,
    tile_sizes: Optional[Sequence[Any]] = None,
    collectives: Optional[Sequence[Any]] = None,
    interchange: Sequence[str] = ("auto",),
    cpu_scale: float = 1.0,
    verify: bool = False,
    engine_mode: Optional[str] = None,
) -> SearchSpace:
    """The registry-drawn space most tune runs want.

    Axes default to everything the registries offer today: every
    registered variant, a power-of-two tile menu, and every non-default
    ``alltoall`` algorithm (the collective the §2 workloads exercise) on
    top of the registry defaults.  Network and rank count default to
    single-valued axes — pinned coordinates, not searched — so
    ``default_space("fft")`` searches variant × tile × collective at
    NP=8 on gmnet, the paper's own question.
    """
    if variants is None:
        variants = tuple(list_variants())
    if tile_sizes is None:
        tile_sizes = ("auto", 2, 4, 8, 16)
    if collectives is None:
        alltoall_default = default_algorithm("alltoall")
        collectives = (None,) + tuple(
            f"alltoall={name}"
            for name in list_algorithms("alltoall")
            if name != alltoall_default
        )
    networks = tuple(
        n if isinstance(n, str) else resolve_model(n).name for n in networks
    )
    for n in networks:
        if n not in list_models():
            resolve_model(n)  # raises the registry's own error
    axes = [
        Axis("variant", tuple(variants)),
        Axis(
            "tile_size",
            tuple(tile_sizes),
            kind=(
                "integer"
                if all(isinstance(v, int) for v in tile_sizes)
                else "categorical"
            ),
        ),
        Axis("interchange", tuple(interchange)),
        Axis("collective", tuple(collectives)),
        Axis("network", networks),
        Axis("nranks", tuple(nranks), kind="integer"),
    ]
    return SearchSpace(
        app=app,
        app_kwargs=dict(app_kwargs or {}),
        axes=tuple(axes),
        cpu_scale=cpu_scale,
        verify=verify,
        engine_mode=engine_mode,
    )
