"""Declarative sweep engine with a content-addressed result cache.

The paper's evaluation is a cross-product — workload x transform variant
x tile size x network scenario x collective algorithm x rank count x
compute/communication ratio — and every figure used to hand-roll its own
nested loops.  This module separates the *experiment spec* from the
*execution engine*:

* :class:`SweepSpec` names the axes; :func:`expand_spec` expands the
  cross-product into :class:`SweepPoint`\\ s (transforming each workload
  once per tile/interchange choice, not once per point, and not at all
  when the session's transform memo already holds that run);
* :func:`plan_points` fingerprints the points, deduplicates those whose
  content fingerprints coincide (e.g. the untransformed baseline of a
  tile-size sweep) and probes the cache (:func:`plan_sweep` runs it
  over a spec's expansion; a Session's measure, compare and verify
  over their own points and checks); the rest run through the sharded
  :func:`~repro.interp.runner.run_many` pool and :class:`SweepPlan`
  folds each run into a :class:`~repro.harness.runner.Measurement`;
* :class:`SweepCache` stores each measurement on disk keyed by
  :func:`~repro.interp.runner.job_fingerprint` — the sha-256 of
  (program text, network parameters, cost model, collective suite, rank
  count, engine semantic version).  DESIGN.md §3.2 guarantees the
  simulation is a pure function of exactly that key, so a warm re-run
  performs **zero simulations** and reproduces bit-identical results.

Every figure/ablation in :mod:`repro.harness.figures` is a thin
:class:`SweepSpec` constructor over this engine, and the
``compuniformer sweep`` CLI subcommand drives it from flags or a JSON
spec file.  See DESIGN.md §7 for the cache-key definition and the
invalidation rules.
"""

from __future__ import annotations

import json
import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..apps import AppSpec, build_app
from ..errors import ReproError
from ..interp.runner import (
    ClusterJob,
    ClusterRun,
    ProgramMemo,
    job_fingerprint,
    run_many,
)
from ..lang.ast_nodes import SourceFile
from ..runtime.collectives import (
    COLLECTIVES,
    CollectiveSpec,
    resolve_suite,
)
from ..interp.symmetry import SYMMETRY_VERSION
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.network import IDEAL, NetworkModel, resolve_model
from ..runtime.simulator import ENGINE_VERSION
from ..transform.options import TransformOptions
from ..transform.pipeline import (
    Pipeline,
    PipelineReport,
    list_variants,
    resolve_variant,
    variant_identity,
    variant_label,
)
from ..verify import EquivalenceReport
from .runner import (
    Measurement,
    PreparedApp,
    measurement_from_run,
    require_transformed,
)

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepCache",
    "CacheStats",
    "SweepRun",
    "SweepStats",
    "SweepResult",
    "SweepPlan",
    "collective_label",
    "expand_spec",
    "plan_points",
    "plan_sweep",
    "read_measurement",
    "read_verdict",
]

NetworkLike = Union[str, NetworkModel]
VariantLike = Union[str, Pipeline]

#: Default ``variants`` axis: the classic original-vs-prepush pair.
#: Any name registered with
#: :func:`repro.transform.pipeline.register_variant` (or a raw
#: :class:`~repro.transform.pipeline.Pipeline` instance) is a valid
#: axis value.
VARIANTS = ("original", "prepush")


def collective_label(spec: CollectiveSpec) -> str:
    """Canonical short axis label for a collective choice.

    ``"default"`` when every collective keeps its default algorithm,
    otherwise the non-default selections as sorted ``collective=name``
    pairs — so a dict, the CLI string form, and ``None`` that resolve to
    the same suite always carry the same label.
    """
    suite = resolve_suite(spec)
    defaults = resolve_suite(None)
    diff = [f"{c}={suite[c]}" for c in COLLECTIVES if suite[c] != defaults[c]]
    return ",".join(diff) if diff else "default"


# ----------------------------------------------------------------- spec


@dataclass
class SweepSpec:
    """One declarative experiment: a workload crossed with sweep axes.

    Every sequence field is an axis; the expansion is the full
    cross-product ``nranks x tile_sizes x interchange x cpu_scales x
    variants x networks x collectives``.  Workload geometry lives in
    ``app_kwargs`` (passed to the registered app builder together with
    each ``nranks`` value).
    """

    name: str
    app: str
    app_kwargs: Mapping[str, Any] = field(default_factory=dict)
    nranks: Sequence[int] = (8,)
    variants: Sequence[VariantLike] = VARIANTS
    tile_sizes: Sequence[Union[int, str]] = ("auto",)
    interchange: Sequence[str] = ("auto",)
    networks: Sequence[NetworkLike] = ("gmnet",)
    collectives: Sequence[CollectiveSpec] = (None,)
    cpu_scales: Sequence[float] = (1.0,)
    base_cost_model: CostModel = DEFAULT_COST_MODEL
    verify: bool = True
    detect_races: bool = True
    #: engine selection for every point (DESIGN.md §10): ``"auto"``
    #: replays symmetric programs and falls back otherwise, ``"replay"``
    #: forces replay, ``"full"`` forces per-rank interpretation;
    #: ``None`` inherits the executing Session's default.  Not an
    #: axis: all modes are bit-identical and share cache keys, so
    #: sweeping it would only measure the same points twice.
    engine_mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine_mode not in (None, "auto", "replay", "full"):
            raise ReproError(
                f"sweep {self.name!r}: unknown engine_mode "
                f"{self.engine_mode!r} (expected 'auto', 'replay', or "
                f"'full')"
            )
        unknown = sorted(
            v
            for v in self.variants
            if isinstance(v, str) and v not in list_variants()
        )
        bad_types = [
            v
            for v in self.variants
            if not isinstance(v, (str, Pipeline))
        ]
        if unknown or bad_types:
            raise ReproError(
                f"sweep {self.name!r}: unknown variants "
                f"{unknown + [repr(v) for v in bad_types]}; "
                f"accepted: registered names {list_variants()} or "
                f"Pipeline instances"
            )
        labels = [variant_label(v) for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ReproError(
                f"sweep {self.name!r}: duplicate variant labels "
                f"{sorted(labels)} would make axis lookups ambiguous"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (network instances become their names)."""
        return {
            "name": self.name,
            "app": self.app,
            "app_kwargs": dict(self.app_kwargs),
            "nranks": list(self.nranks),
            "variants": [self._serializable_variant(v) for v in self.variants],
            "tile_sizes": list(self.tile_sizes),
            "interchange": list(self.interchange),
            "networks": [
                n.name if isinstance(n, NetworkModel) else n
                for n in self.networks
            ],
            "collectives": [
                dict(c) if isinstance(c, Mapping) else c
                for c in self.collectives
            ],
            "cpu_scales": list(self.cpu_scales),
            "verify": self.verify,
            "engine_mode": self.engine_mode,
        }

    @staticmethod
    def _serializable_variant(v: VariantLike) -> str:
        """A variant as a JSON-safe *reconstructible* name.

        Serializing an unregistered Pipeline instance by label would be
        lossy: loading the spec back would either fail validation or —
        worse — silently resolve to a different registered pipeline of
        the same name.  Such specs are refused here instead.
        """
        from ..transform.pipeline import get_variant

        label = variant_label(v)
        if isinstance(v, Pipeline):
            if (
                label not in list_variants()
                or get_variant(label) is not v
            ):
                raise ReproError(
                    f"cannot serialize unregistered pipeline variant "
                    f"{label!r}; register_variant() it first so the "
                    f"name round-trips"
                )
        return label

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        """Build a spec from a JSON object (the ``--spec`` file format)."""
        known = {
            "name",
            "app",
            "app_kwargs",
            "nranks",
            "variants",
            "tile_sizes",
            "interchange",
            "networks",
            "collectives",
            "cpu_scales",
            "verify",
            "engine_mode",
        }
        unknown = set(data) - known
        if unknown:
            raise ReproError(
                f"sweep spec has unknown keys {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        if "name" not in data or "app" not in data:
            raise ReproError("sweep spec needs at least 'name' and 'app'")
        return cls(**{k: data[k] for k in data})

    @classmethod
    def single(
        cls,
        *,
        name: str,
        app: str,
        app_kwargs: Optional[Mapping[str, Any]] = None,
        variant: VariantLike = "original",
        tile_size: Union[int, str] = "auto",
        interchange: str = "auto",
        network: NetworkLike = "gmnet",
        collective: CollectiveSpec = None,
        nranks: int = 8,
        cpu_scale: float = 1.0,
        verify: bool = False,
        engine_mode: Optional[str] = None,
    ) -> "SweepSpec":
        """A one-point spec: every axis a single value.

        This is the evaluation unit of the :mod:`repro.tune` search
        driver — one candidate configuration becomes one single-point
        spec, so its expansion carries exactly one fingerprint and the
        sweep cache acts as the search loop's memo table.  Expanding it
        yields exactly one :class:`SweepPoint` per variant-producing
        axis value (i.e. one, since every axis is singular).
        """
        return cls(
            name=name,
            app=app,
            app_kwargs=dict(app_kwargs or {}),
            nranks=(nranks,),
            variants=(variant,),
            tile_sizes=(tile_size,),
            interchange=(interchange,),
            networks=(network,),
            collectives=(collective,),
            cpu_scales=(cpu_scale,),
            verify=verify,
            engine_mode=engine_mode,
        )


@dataclass
class SweepPoint:
    """One fully-resolved simulation of a plan (pre-execution): the
    engine job, the axis values that address its run, and the
    transformation that produced its program."""

    axes: Dict[str, Any]
    job: ClusterJob
    transform: Optional[PipelineReport] = None
    fingerprint: Optional[str] = None  # None = uncacheable (externals)


@dataclass
class _Verification:
    """One pending §4 check: the original and transformed jobs of
    workload ``name``, compared with the ``skip`` arrays left out.

    :func:`plan_points` keys it (:meth:`verdict_key`); ``report`` holds
    the verdict once the plan has read or folded it.  A mismatch of a
    ``strict`` check fails its plan (sweeps and compares); a non-strict
    one leaves the failing report for its caller (a verify request).
    """

    name: str
    skip: Tuple[str, ...]
    original_job: ClusterJob
    transformed_job: ClusterJob
    strict: bool = True
    key: Optional[str] = None  # None = uncacheable (externals)
    report: Optional[EquivalenceReport] = None

    def verdict_key(self) -> Optional[str]:
        """Content-address of the check (None = uncacheable): sha-256
        over both jobs' fingerprints and the skipped arrays.

        The §4 verdict is a pure function of the two simulations — the
        same §3.2 argument that makes measurement caching sound — so the
        key inherits everything a fingerprint folds in: program texts,
        rank count, network, collectives, cost model, race detection
        and the engine and symmetry-recorder versions.
        """
        if self.original_job.externals is not None:
            return None
        payload = {
            "kind": "verify",
            "original": job_fingerprint(self.original_job),
            "transformed": job_fingerprint(self.transformed_job),
            "skip": sorted(self.skip),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _app_verification(
    app: AppSpec,
    report: PipelineReport,
    text: Optional[str],
    label: str,
    cost_model: CostModel,
    engine_mode: str,
) -> _Verification:
    """The §4 check of ``app`` against its transformation ``report``
    (``text`` its unparsed program, ``label`` the variant's): both
    programs on the IDEAL network under the default collectives.  A
    sweep and a compare of the same app build the same jobs, so they
    share one verdict entry."""

    def job(program: Union[str, SourceFile], text, name) -> ClusterJob:
        return ClusterJob(
            program=program,
            nranks=app.nranks,
            network=IDEAL,
            cost_model=cost_model,
            externals=app.externals,
            label=f"{app.name}/verify-{name}",
            engine_mode=engine_mode,
            text=text,
        )

    return _Verification(
        name=app.name,
        skip=report.dead_arrays,
        original_job=job(app.source, None, "original"),
        transformed_job=job(report.source, text, label),
    )


# ---------------------------------------------------------------- cache


@dataclass
class CacheStats:
    """Accounting of one cache over one or more sweeps."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    verify_hits: int = 0
    verify_misses: int = 0

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.corrupt} corrupt, "
            f"verify {self.verify_hits} hits / {self.verify_misses} misses"
        )


class SweepCache:
    """Content-addressed on-disk store of sweep results.

    One JSON file per entry, named by its sha-256 key under a two-hex
    fan-out directory (``ab/abcdef....json``).  Entries are write-once
    in practice — a key collision means the same simulation inputs,
    hence (§3.2) the same result — and writes are atomic (tempfile +
    rename) so a crashed sweep can never leave a half-written entry a
    later run would trust.  A corrupted or stale entry reads as a miss
    (counted in :attr:`CacheStats.corrupt`) and is overwritten by the
    re-simulation.

    Many writers may share one directory (DESIGN.md §11.2): two that
    simulate the same key store the same entry, and the atomic rename
    leaves exactly one of them on disk.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        self._stats_lock = threading.Lock()

    def count(self, name: str) -> None:
        """Add one to the ``name`` counter of :attr:`stats` (safe from
        any thread: a sweep server probes from worker threads while its
        event loop stores)."""
        with self._stats_lock:
            setattr(self.stats, name, getattr(self.stats, name) + 1)

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` (miss).

        Unreadable/undecodable/mismatched entries count as ``corrupt``
        and read as a miss, so the caller falls back to re-simulation.
        """
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.count("corrupt")
            return None
        if not isinstance(payload, dict) or payload.get("key") != key:
            self.count("corrupt")
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically store ``payload`` (annotated with its key)."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(
            payload, key=key, engine=ENGINE_VERSION, symmetry=SYMMETRY_VERSION
        )
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.count("stores")

    # ------------------------------------------------- introspection

    def entries(self) -> Iterator[Tuple[Path, Optional[Dict[str, Any]]]]:
        """Every on-disk entry as ``(path, payload)``, payload ``None``
        for undecodable files (deterministic order)."""
        if not self.root.is_dir():
            return
        for fanout in sorted(self.root.iterdir()):
            if not fanout.is_dir():
                continue
            for path in sorted(fanout.glob("*.json")):
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        payload = json.load(fh)
                    if not isinstance(payload, dict):
                        payload = None
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    payload = None
                yield path, payload

    @staticmethod
    def _version_label(payload: Optional[Dict[str, Any]]) -> str:
        if payload is None:
            return "corrupt"
        engine = payload.get("engine", "?")
        symmetry = payload.get("symmetry", "?")
        return f"engine={engine}/symmetry={symmetry}"

    def _entry_stale(self, payload: Optional[Dict[str, Any]]) -> bool:
        """A prunable entry: corrupt, written under a different engine
        or symmetry-recorder version (every key folds in both), or a
        verdict without its report (keyed by an older formula no plan
        computes any more)."""
        return (
            payload is None
            or payload.get("engine") != ENGINE_VERSION
            or payload.get("symmetry") != SYMMETRY_VERSION
            or (payload.get("kind") == "verify" and "report" not in payload)
        )

    def info(self) -> Dict[str, Any]:
        """Inventory: entry/kind counts, on-disk bytes, per-version
        breakdown, and how much ``prune`` would delete."""
        kinds: Dict[str, int] = {}
        versions: Dict[str, int] = {}
        total = stale = 0
        size = stale_size = 0
        for path, payload in self.entries():
            total += 1
            nbytes = path.stat().st_size
            size += nbytes
            kind = payload.get("kind", "corrupt") if payload else "corrupt"
            kinds[kind] = kinds.get(kind, 0) + 1
            label = self._version_label(payload)
            versions[label] = versions.get(label, 0) + 1
            if self._entry_stale(payload):
                stale += 1
                stale_size += nbytes
        return {
            "root": str(self.root),
            "entries": total,
            "bytes": size,
            "kinds": dict(sorted(kinds.items())),
            "versions": dict(sorted(versions.items())),
            "current_version": (
                f"engine={ENGINE_VERSION}/symmetry={SYMMETRY_VERSION}"
            ),
            "stale_entries": stale,
            "stale_bytes": stale_size,
        }

    def prune(self, *, dry_run: bool = False) -> Dict[str, Any]:
        """Delete stale-version (and corrupt) entries plus the
        ``.lock``/``.inflight`` markers older versions of the cache left
        beside them; ``dry_run`` only reports what would go."""
        removed = kept = freed = 0
        for path, payload in self.entries():
            if self._entry_stale(payload):
                removed += 1
                freed += path.stat().st_size
                if not dry_run:
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
            else:
                kept += 1
        markers = (
            [*self.root.glob("*/*.lock"), *self.root.glob("*/*.inflight")]
            if self.root.is_dir()
            else []
        )
        if not dry_run:
            for marker in markers:
                try:
                    os.unlink(marker)
                except OSError:
                    pass
        return {
            "removed": removed,
            "kept": kept,
            "freed_bytes": freed,
            "markers_removed": len(markers),
            "dry_run": dry_run,
        }


def _as_cache(
    cache: Union[None, str, Path, SweepCache]
) -> Optional[SweepCache]:
    if cache is None or isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


# ------------------------------------------------------------ expansion

#: pipeline runs one session's transform memo keeps; the least recently
#: used is evicted first
TRANSFORM_MEMO_SIZE = 64


class _TransformMemo:
    """Bounded, thread-safe memo of pipeline runs (DESIGN.md §7.3).

    Maps (untransformed program text, the pipeline object and its
    identity, the options) to the
    :class:`~repro.transform.pipeline.PipelineReport` and its unparsed
    text, so a repeated expansion skips ``parse``, analysis and every
    pass.  It sits in front of :meth:`Pipeline.run` — which still
    returns a fresh AST per call — and lives in memory only: the stored
    reports and ASTs are shared read-only by every point they produce.
    Keying on the pipeline object as well as its identity keeps a
    re-registered variant or a reconfigured pass from hitting an old
    entry.  Expansion always runs with the default alltoall call names,
    so they are a constant of the memo rather than part of its key.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def run(
        self, pipeline: Pipeline, source: str, options: TransformOptions
    ) -> Tuple[PipelineReport, str]:
        """The memoized ``pipeline.run(source, options)`` and its text."""
        key = (
            source,
            pipeline,
            json.dumps(
                [pipeline.identity(), options.canonical_params()],
                sort_keys=True,
            ),
        )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry
        report = pipeline.run(source, options, snapshots=False)
        entry = (report, report.unparse())
        with self._lock:
            # a thread that lost a race adopts the winner's entry
            entry = self._entries.setdefault(key, entry)
            self._entries.move_to_end(key)
            while len(self._entries) > TRANSFORM_MEMO_SIZE:
                self._entries.popitem(last=False)
        return entry


def _transform(
    app: AppSpec,
    pipeline: Pipeline,
    options: TransformOptions,
    memo: Optional[_TransformMemo],
) -> Tuple[PipelineReport, Optional[str]]:
    """One pipeline run over ``app`` and its unparsed text (``None``
    for apps with externals, which are never fingerprinted).  An app
    carrying an oracle or externals — opaque Python objects no memo
    key can capture — always runs afresh."""
    if memo is not None and app.oracle is None and app.externals is None:
        return memo.run(pipeline, app.source, options)
    # nothing in the sweep reads intermediate texts; skip one unparse
    # per pass per point
    report = pipeline.run(
        app.source, options, oracle=app.oracle, snapshots=False
    )
    return report, None if app.externals is not None else report.unparse()


def expand_spec(
    spec: SweepSpec,
    memo: Optional[_TransformMemo] = None,
) -> Tuple[List[SweepPoint], List[_Verification]]:
    """Expand one spec into its cross-product of points.

    Each (nranks, tile, interchange, variant) combination is
    transformed exactly once through the variant registry
    (:mod:`repro.transform.pipeline`) and the resulting report is
    attached to every point it produced, so figures can read resolved
    tile sizes and schemes without re-deriving them; untransformed
    baseline points carry the first transforming variant's report (the
    classic "both variants see the prepush transform" contract).
    Transformed points also carry the pipeline's identity + canonical
    options, which :func:`~repro.interp.runner.job_fingerprint` folds
    into the cache key.  Verification requests (one per *transformed*
    variant, when ``spec.verify``) come back separately so
    :func:`plan_sweep` can satisfy them from the cache and the rest can
    ride in the same batch as the points; variants that leave a
    program unchanged (e.g. ``tile-only`` on an indirect workload)
    have nothing to verify and are measured as-is.  With a ``memo`` (a
    session's), a transformation it already holds is not run again.
    """
    points: List[SweepPoint] = []
    verifications: List[_Verification] = []
    resolved_variants = [
        (variant_label(v), resolve_variant(v)) for v in spec.variants
    ]
    first_cost = spec.base_cost_model.scaled(spec.cpu_scales[0])

    for nr in spec.nranks:
        app = build_app(spec.app, nranks=nr, **dict(spec.app_kwargs))
        for tile in spec.tile_sizes:
            for inter in spec.interchange:
                options = TransformOptions(
                    tile_size=tile, interchange=inter
                )
                prepared: Dict[
                    str, Tuple[Optional[PipelineReport], Optional[str]]
                ] = {}
                fallback: Optional[PipelineReport] = None
                for label, pipeline in resolved_variants:
                    if pipeline.empty:
                        prepared[label] = (None, None)
                        continue
                    report, text = _transform(app, pipeline, options, memo)
                    require_transformed(
                        report, pipeline, f"workload {app.name!r}"
                    )
                    prepared[label] = (report, text)
                    if fallback is None:
                        fallback = report
                    if spec.verify and report.changed:
                        verifications.append(
                            _app_verification(
                                app,
                                report,
                                text,
                                label,
                                first_cost,
                                spec.engine_mode or "auto",
                            )
                        )
                for scale in spec.cpu_scales:
                    cost = spec.base_cost_model.scaled(scale)
                    for label, pipeline in resolved_variants:
                        report, text = prepared[label]
                        program: Union[str, SourceFile]
                        if report is None:
                            program = app.source
                            transform = fallback
                            variant_id = None
                        else:
                            program = report.source
                            transform = report
                            variant_id = variant_identity(
                                pipeline, options
                            )
                        for network in spec.networks:
                            model = resolve_model(network)
                            for coll in spec.collectives:
                                points.append(
                                    SweepPoint(
                                        axes={
                                            "spec": spec.name,
                                            "app": app.name,
                                            "variant": label,
                                            "nranks": nr,
                                            "tile_size": tile,
                                            "interchange": inter,
                                            "network": model.name,
                                            "collective": collective_label(
                                                coll
                                            ),
                                            "cpu_scale": scale,
                                        },
                                        job=ClusterJob(
                                            program=program,
                                            nranks=nr,
                                            network=model,
                                            cost_model=cost,
                                            detect_races=spec.detect_races,
                                            externals=app.externals,
                                            label=f"{app.name}/{label}",
                                            collective=coll,
                                            variant=variant_id,
                                            engine_mode=spec.engine_mode
                                            or "auto",
                                            text=text,
                                        ),
                                        transform=transform,
                                    )
                                )
    return points, verifications


# ------------------------------------------------------------ execution


@dataclass
class SweepRun:
    """One executed (or cache-served) sweep point."""

    axes: Dict[str, Any]
    measurement: Measurement
    cached: bool
    fingerprint: Optional[str]
    transform: Optional[PipelineReport] = None


@dataclass
class SweepStats:
    """How one sweep (:meth:`repro.api.Session.sweep`, or one sweep
    request to the server) was satisfied."""

    points: int = 0
    simulated: int = 0  # measurement simulations actually run
    verify_simulated: int = 0  # verification simulations actually run
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0  # points served by a sibling's fingerprint
    uncacheable: int = 0  # points with externals (never cached)
    verify_checks: int = 0
    verify_hits: int = 0
    #: "pool" | "serial" | "none" (no jobs needed); a sweep server
    #: reports "pool" or "thread", the executor its jobs last ran on
    mode: str = "none"
    processes: int = 1

    @property
    def total_simulated(self) -> int:
        """Every simulation this invocation ran (zero on a warm cache)."""
        return self.simulated + self.verify_simulated

    def summary(self) -> str:
        return (
            f"{self.points} points: {self.simulated} simulated + "
            f"{self.verify_simulated} verify sims ({self.mode}), "
            f"{self.cache_hits} cache hits, "
            f"{self.deduplicated} deduplicated; verify "
            f"{self.verify_hits}/{self.verify_checks} cached"
        )


@dataclass
class SweepResult:
    """All measurements of one engine invocation, addressable by axes."""

    runs: List[SweepRun]
    stats: SweepStats
    specs: List[SweepSpec]

    def select(self, **axes: Any) -> List[SweepRun]:
        """Every run whose axes match all given ``key=value`` pairs."""
        return [
            r
            for r in self.runs
            if all(r.axes.get(k) == v for k, v in axes.items())
        ]

    def get(self, **axes: Any) -> SweepRun:
        """The unique run matching ``axes`` (raises otherwise)."""
        matches = self.select(**axes)
        if len(matches) != 1:
            raise ReproError(
                f"{len(matches)} sweep runs match {axes!r} "
                f"(of {len(self.runs)})"
            )
        return matches[0]

    def measurement(self, **axes: Any) -> Measurement:
        return self.get(**axes).measurement

    def to_json(self) -> Dict[str, Any]:
        """JSON artifact: specs, execution stats, and every measurement."""
        return {
            "engine": ENGINE_VERSION,
            "specs": [s.to_dict() for s in self.specs],
            "stats": vars(self.stats).copy(),
            "runs": [
                {
                    "axes": r.axes,
                    "cached": r.cached,
                    "fingerprint": r.fingerprint,
                    "measurement": r.measurement.to_dict(),
                }
                for r in self.runs
            ],
        }


# --------------------------------------------------------------- stages
#
# Every plan runs in three stages: plan (expand, fingerprint, dedupe,
# probe the cache), execute (run what the cache lacked) and fold
# (measure, store, check equivalence, assemble).  :func:`_execute_sweep`
# runs the execute stage as one ``run_many`` batch; the sweep server
# (:mod:`repro.serve.server`) runs it job by job behind its re-probe
# and coalescing layers.  Both share the plan and fold stages, and with
# them the one reader and writer of cache payloads.


def read_measurement(
    cache: SweepCache, fingerprint: str
) -> Optional[Measurement]:
    """The measurement cached under ``fingerprint``, or ``None``.

    An entry that does not decode counts as ``corrupt`` and reads as a
    miss.  Hits and misses are the caller's to count: the plan stage
    counts one probe per fingerprint, a server's re-probes count none.
    """
    payload = cache.get(fingerprint)
    if payload is None or payload.get("kind") != "measurement":
        return None
    try:
        return Measurement.from_dict(payload["measurement"])
    except (TypeError, ValueError, KeyError):
        cache.count("corrupt")
        return None


def read_verdict(cache: SweepCache, key: str) -> Optional[EquivalenceReport]:
    """The passed equivalence check cached under ``key`` as its report,
    or ``None`` (a miss, or an entry that does not decode, which counts
    as ``corrupt``)."""
    payload = cache.get(key)
    if payload is None or payload.get("kind") != "verify":
        return None
    try:
        report = EquivalenceReport(**payload["report"])
    except (TypeError, KeyError):
        cache.count("corrupt")
        return None
    return report if report.equivalent is True else None


#: a point's work key: its fingerprint, or its index in
#: :attr:`SweepPlan.points` when it is uncacheable (externals)
WorkKey = Union[str, int]


@dataclass
class SweepPlan:
    """A plan (:func:`plan_points`, :func:`plan_sweep`) and the ledger
    its execute and fold stages fill in.

    ``pending`` holds one representative point per work key the cache
    could not serve, ``verifications`` the equivalence checks whose
    verdict it lacked.  Each run of a pending point goes through
    :meth:`fold_run` and each pair of verification runs through
    :meth:`fold_verification` (:meth:`fold` does both for the batch of
    :meth:`jobs`); :meth:`result` then assembles the
    :class:`SweepResult`.
    """

    specs: List[SweepSpec]
    points: List[SweepPoint]
    cache: Optional[SweepCache]
    stats: SweepStats
    pending: Dict[WorkKey, SweepPoint] = field(default_factory=dict)
    verifications: List[_Verification] = field(default_factory=list)
    #: work key -> (label-less measurement, served from the cache rather
    #: than simulated this round)
    resolved: Dict[WorkKey, Tuple[Measurement, bool]] = field(
        default_factory=dict
    )

    def key(self, index: int) -> WorkKey:
        fingerprint = self.points[index].fingerprint
        return index if fingerprint is None else fingerprint

    def jobs(self) -> List[ClusterJob]:
        """The execute stage as one batch: every pending point, then
        both runs of every pending check (the order :meth:`fold`
        reads)."""
        batch = [point.job for point in self.pending.values()]
        for ver in self.verifications:
            batch += [ver.original_job, ver.transformed_job]
        return batch

    def fold(self, runs: Sequence[ClusterRun]) -> None:
        """Fold the runs of :meth:`jobs`, in order."""
        it = iter(runs)
        for key in self.pending:
            self.fold_run(key, next(it))
        for ver in self.verifications:
            self.fold_verification(ver, next(it), next(it))

    def fold_run(self, key: WorkKey, run: ClusterRun) -> Measurement:
        """One simulated pending point as a measurement, stored in the
        cache under its fingerprint."""
        point = self.pending[key]
        m = measurement_from_run(
            run, network=point.job.network, collective=point.job.collective
        )
        if self.cache is not None and point.fingerprint is not None:
            self.cache.put(
                point.fingerprint,
                {
                    "kind": "measurement",
                    "inputs": dict(point.axes),
                    "measurement": m.to_dict(),
                },
            )
        self.stats.simulated += 1
        self.resolved[key] = (m, False)
        return m

    def fold_verification(
        self,
        ver: _Verification,
        original: ClusterRun,
        transformed: ClusterRun,
    ) -> EquivalenceReport:
        """Check one pending verification's runs and store a passed
        verdict with its report (:meth:`result` raises on a strict
        check's mismatch)."""
        self.stats.verify_simulated += 2
        ver.report = PreparedApp.check_equivalence(
            original, transformed, ver.skip
        )
        if (
            self.cache is not None
            and ver.key is not None
            and ver.report.equivalent
        ):
            self.cache.put(
                ver.key,
                {
                    "kind": "verify",
                    "app": ver.name,
                    "nranks": ver.original_job.nranks,
                    "report": asdict(ver.report),
                },
            )
        return ver.report

    def result(self) -> SweepResult:
        """Every point's run, in point order, once all keys resolved.

        Raises on the first strict verification that failed."""
        for ver in self.verifications:
            if ver.strict and not ver.report.equivalent:
                raise ReproError(
                    f"transformed {ver.name!r} is NOT equivalent:\n  "
                    + "\n  ".join(ver.report.mismatches[:5])
                )
        runs: List[SweepRun] = []
        hits = misses = deduplicated = 0
        seen: set = set()
        for index, point in enumerate(self.points):
            key = self.key(index)
            m, cached = self.resolved[key]
            if point.fingerprint is not None:
                if cached:
                    hits += 1
                elif key in seen:
                    deduplicated += 1
                else:
                    misses += 1
                seen.add(key)
            runs.append(
                SweepRun(
                    axes=point.axes,
                    measurement=replace(m, label=point.job.label),
                    cached=cached,
                    fingerprint=point.fingerprint,
                    transform=point.transform,
                )
            )
        self.stats.cache_hits = hits
        self.stats.cache_misses = misses
        self.stats.deduplicated = deduplicated
        return SweepResult(runs=runs, stats=self.stats, specs=self.specs)


def plan_points(
    points: Sequence[SweepPoint],
    verifications: Sequence[_Verification],
    cache: Union[None, str, Path, SweepCache],
    specs: Sequence[SweepSpec] = (),
) -> SweepPlan:
    """Stage 1 over explicit work: fingerprint every point, dedupe
    points by fingerprint, key every verification, and probe the cache
    for measurements and verdicts (counting its hits and misses).

    Every verb plans through here: :func:`plan_sweep` with a spec's
    expansion, :class:`repro.api.Session` with the points and checks of
    one measure, compare or verify.  Points with externals stay pending
    under their index, uncached.
    """
    cache = _as_cache(cache)
    points = list(points)
    plan = SweepPlan(
        specs=list(specs),
        points=points,
        cache=cache,
        stats=SweepStats(points=len(points), verify_checks=len(verifications)),
    )

    for index, point in enumerate(points):
        if point.job.externals is not None:
            plan.stats.uncacheable += 1
            plan.pending[index] = point
            continue
        fp = point.fingerprint = job_fingerprint(point.job)
        if fp in plan.resolved or fp in plan.pending:
            continue
        m = read_measurement(cache, fp) if cache is not None else None
        if m is not None:
            cache.count("hits")
            plan.resolved[fp] = (m, True)
            continue
        if cache is not None:
            cache.count("misses")
        plan.pending[fp] = point

    for ver in verifications:
        ver.key = ver.verdict_key()
        if cache is None or ver.key is None:
            plan.verifications.append(ver)
            continue
        ver.report = read_verdict(cache, ver.key)
        if ver.report is not None:
            plan.stats.verify_hits += 1
            cache.count("verify_hits")
        else:
            cache.count("verify_misses")
            plan.verifications.append(ver)
    return plan


def plan_sweep(
    specs: Union[SweepSpec, Sequence[SweepSpec]],
    cache: Union[None, str, Path, SweepCache],
    memo: Optional[_TransformMemo] = None,
) -> SweepPlan:
    """Stage 1 of a sweep: expand every spec (through ``memo`` when
    given), then :func:`plan_points` over the expansion."""
    if isinstance(specs, SweepSpec):
        specs = [specs]
    specs = list(specs)
    points: List[SweepPoint] = []
    verifications: List[_Verification] = []
    for spec in specs:
        pts, vers = expand_spec(spec, memo)
        points.extend(pts)
        verifications.extend(vers)
    return plan_points(points, verifications, cache, specs)


def _execute_sweep(
    plan: SweepPlan,
    *,
    executor=None,
    programs: Optional[ProgramMemo] = None,
) -> SweepResult:
    """Stages 2 and 3 of a plan: its pending work as one ``run_many``
    batch, folded.

    A live ``executor`` (a :class:`repro.api.Session`'s persistent
    pool) shards the simulations, verification runs riding in the same
    batch, and is left running afterwards; without one the batch runs
    serially, through ``programs`` (a session's program memo, DESIGN.md
    §7.4) when given, which parses, generates code for and records
    each program once.

    This is the one executor behind every :class:`repro.api.Session`
    verb that simulates through a plan (measure, compare, verify,
    sweep).
    """
    batch = plan.jobs()
    if batch:
        runs = run_many(batch, executor=executor, programs=programs)
        plan.stats.mode = runs.mode
        plan.stats.processes = runs.processes
        plan.fold(runs)
    return plan.result()
