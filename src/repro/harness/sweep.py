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
* :func:`plan_sweep` fingerprints the points, deduplicates those whose
  content fingerprints coincide (e.g. the untransformed baseline of a
  tile-size sweep) and probes the cache; the rest run through the
  sharded :func:`~repro.interp.runner.run_many` pool and
  :class:`SweepPlan` folds each run into a
  :class:`~repro.harness.runner.Measurement`;
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
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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

try:  # POSIX advisory locks; Windows degrades to O_EXCL-only claims
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..apps import AppSpec, build_app
from ..errors import ReproError
from ..interp.runner import (
    ClusterJob,
    ClusterRun,
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
from .runner import Measurement, PreparedApp, measurement_from_run

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepCache",
    "CacheStats",
    "CLAIM_STALE_AFTER",
    "SweepRun",
    "SweepStats",
    "SweepResult",
    "SweepPlan",
    "collective_label",
    "expand_spec",
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
    """One fully-resolved simulation of a sweep (pre-execution)."""

    axes: Dict[str, Any]
    program: Union[str, SourceFile]
    nranks: int
    network: NetworkModel
    collective: CollectiveSpec
    cost_model: CostModel
    detect_races: bool
    label: str
    externals: Any = None
    transform: Optional[PipelineReport] = None
    fingerprint: Optional[str] = None  # None = uncacheable (externals)
    #: ``program`` as source text when it is an AST whose text is
    #: already known, so fingerprinting skips one unparse per point
    text: Optional[str] = None
    #: transformation provenance (pipeline identity + options) of
    #: transformed points; None for the untransformed baseline
    variant_id: Optional[Dict[str, Any]] = None
    engine_mode: str = "auto"

    def job(self) -> ClusterJob:
        return ClusterJob(
            program=self.program,
            nranks=self.nranks,
            network=self.network,
            cost_model=self.cost_model,
            detect_races=self.detect_races,
            externals=self.externals,
            label=self.label,
            collective=self.collective,
            variant=self.variant_id,
            engine_mode=self.engine_mode,
        )


@dataclass
class _Verification:
    """A pending original/transformed equivalence check of one spec."""

    prepared: PreparedApp
    original_job: ClusterJob
    transformed_job: ClusterJob
    key: Optional[str]  # None = uncacheable (externals)


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


#: seconds after which an in-flight claim marker left behind by a
#: crashed writer counts as abandoned and may be broken by another
#: process (generous: the longest single simulation in the repo — a
#: 1024-rank replay — finishes well under this)
CLAIM_STALE_AFTER = 900.0


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

    **Multi-writer protocol** (DESIGN.md §11): concurrent processes
    sharing one cache directory coordinate through per-entry *in-flight
    claim markers*.  :meth:`claim` atomically (``O_CREAT|O_EXCL``)
    creates ``<key>.inflight`` next to the entry; the winner simulates
    and :meth:`put` (which removes the marker), losers :meth:`wait_for`
    the entry to land instead of duplicating the simulation.  Claim
    decisions are serialized under a per-entry advisory ``flock``
    (:meth:`lock`) so breaking a stale marker — one left by a crashed
    writer, older than :data:`CLAIM_STALE_AFTER` — cannot race a live
    claim.  The protocol is *advisory*: a writer that skips it and
    simulates anyway stays correct (entries are deterministic and
    writes atomic), it just wastes the duplicate work the markers
    exist to avoid.
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
        """Atomically store ``payload`` (annotated with its key) and
        release any in-flight claim this writer held on it."""
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
        self.release(key)

    # ------------------------------------------- multi-writer protocol

    def claim_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.inflight"

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        """Per-entry advisory lock serializing claim/break decisions.

        Held only around marker bookkeeping (microseconds), never around
        a simulation.  Without :mod:`fcntl` (non-POSIX) this degrades to
        a no-op and :meth:`claim` relies on ``O_CREAT|O_EXCL`` alone,
        which still guarantees a single winner per marker — only the
        stale-marker *break* loses its race protection.
        """
        lock_file = self.root / key[:2] / f"{key}.lock"
        lock_file.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(lock_file, os.O_CREAT | os.O_RDWR)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _claim_stale(self, marker: Path) -> bool:
        """True when ``marker`` was abandoned: its writer recorded a
        timestamp more than :data:`CLAIM_STALE_AFTER` seconds ago (or
        the marker is unreadable).  A vanished marker is *not* stale —
        it means the entry just landed."""
        try:
            with open(marker, "r", encoding="utf-8") as fh:
                info = json.load(fh)
            claimed_at = float(info["time"])
        except FileNotFoundError:
            return False
        except (OSError, ValueError, TypeError, KeyError):
            return True  # unreadable marker: treat as abandoned
        return (time.time() - claimed_at) > CLAIM_STALE_AFTER

    def claim(self, key: str) -> bool:
        """Atomically claim the right to simulate ``key``.

        ``True``: this process owns the in-flight marker and must either
        :meth:`put` the entry (which releases it) or :meth:`release` on
        failure.  ``False``: the entry already exists, or another live
        writer holds the claim — :meth:`wait_for` the result instead.
        """
        with self.lock(key):
            if self.path(key).exists():
                return False
            marker = self.claim_path(key)
            marker.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._claim_stale(marker):
                    return False
                # abandoned by a crashed writer: break it and re-claim
                # (safe under the entry lock)
                try:
                    os.unlink(marker)
                except FileNotFoundError:
                    pass
                try:
                    fd = os.open(
                        marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                    )
                except FileExistsError:
                    return False
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"pid": os.getpid(), "time": time.time()}, fh)
            return True

    def release(self, key: str) -> None:
        """Drop the in-flight claim on ``key`` (idempotent)."""
        try:
            os.unlink(self.claim_path(key))
        except OSError:
            pass

    def claim_live(self, key: str) -> bool:
        """True while some live writer holds the in-flight claim on
        ``key`` (marker present and not stale) — i.e. waiting for the
        entry is still worthwhile."""
        marker = self.claim_path(key)
        return marker.exists() and not self._claim_stale(marker)

    def wait_for(
        self,
        key: str,
        *,
        timeout: float = CLAIM_STALE_AFTER,
        poll: float = 0.05,
    ) -> Optional[Dict[str, Any]]:
        """Block until another writer's entry for ``key`` lands.

        Returns the payload, or ``None`` when the claim vanished or went
        stale without producing an entry (the caller should
        :meth:`claim` and simulate itself) or ``timeout`` elapsed.
        """
        deadline = time.monotonic() + timeout
        while True:
            payload = self.get(key)
            if payload is not None:
                return payload
            if not self.claim_live(key):
                # one final read: the writer may have put + released
                # between our get() and the marker check
                return self.get(key)
            if time.monotonic() >= deadline:
                return None
            time.sleep(poll)

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
        """A prunable entry: corrupt, or written under a different
        engine version — or, for measurements (whose fingerprints fold
        the symmetry-recorder version), a different/unrecorded symmetry
        version.  Verify verdicts are keyed by engine version only."""
        if payload is None:
            return True
        if payload.get("engine") != ENGINE_VERSION:
            return True
        if payload.get("kind") == "measurement":
            return payload.get("symmetry") != SYMMETRY_VERSION
        return False

    def info(self) -> Dict[str, Any]:
        """Inventory: entry/kind counts, on-disk bytes, per-version
        breakdown, live in-flight claims, and how much ``prune`` would
        delete."""
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
        claims = (
            sorted(self.root.glob("*/*.inflight")) if self.root.is_dir() else []
        )
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
            "inflight_claims": len(claims),
        }

    def prune(self, *, dry_run: bool = False) -> Dict[str, Any]:
        """Delete stale-version (and corrupt) entries plus abandoned
        in-flight markers; ``dry_run`` only reports what would go."""
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
        stale_claims = 0
        if self.root.is_dir():
            for marker in sorted(self.root.glob("*/*.inflight")):
                if self._claim_stale(marker):
                    stale_claims += 1
                    if not dry_run:
                        try:
                            os.unlink(marker)
                        except OSError:
                            pass
        return {
            "removed": removed,
            "kept": kept,
            "freed_bytes": freed,
            "stale_claims_removed": stale_claims,
            "dry_run": dry_run,
        }


def _as_cache(
    cache: Union[None, str, Path, SweepCache]
) -> Optional[SweepCache]:
    if cache is None or isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


def _verification_key(
    prepared: PreparedApp, text: Optional[str], cost_model: CostModel
) -> Optional[str]:
    """Content-address of one equivalence check (None = uncacheable);
    ``text`` is the transformed program's source text.

    The §4 verdict is a pure function of the two program texts, the rank
    count, and the cost model under one engine version — the same §3.2
    argument that makes measurement caching sound.
    """
    if prepared.app.externals is not None:
        return None
    payload = {
        "kind": "verify",
        "engine": ENGINE_VERSION,
        "original": prepared.app.source,
        "transformed": text,
        "nranks": prepared.app.nranks,
        "cost": cost_model.canonical_params(),
        "skip": sorted(prepared.transform.dead_arrays),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
                    str, Tuple[Optional[PreparedApp], Optional[str]]
                ] = {}
                fallback: Optional[PipelineReport] = None
                for label, pipeline in resolved_variants:
                    if pipeline.empty:
                        prepared[label] = (None, None)
                        continue
                    report, text = _transform(app, pipeline, options, memo)
                    pa = PreparedApp(
                        app,
                        options=options,
                        variant=pipeline,
                        verify=False,
                        cost_model=first_cost,
                        report=report,
                    )
                    prepared[label] = (pa, text)
                    if fallback is None:
                        fallback = pa.transform
                    if spec.verify and pa.transform.changed:
                        verifications.append(
                            _Verification(
                                prepared=pa,
                                original_job=ClusterJob(
                                    program=app.source,
                                    nranks=nr,
                                    network=IDEAL,
                                    cost_model=first_cost,
                                    externals=app.externals,
                                    label=f"{app.name}/verify-original",
                                ),
                                transformed_job=ClusterJob(
                                    program=pa.transform.source,
                                    nranks=nr,
                                    network=IDEAL,
                                    cost_model=first_cost,
                                    externals=app.externals,
                                    label=f"{app.name}/verify-{label}",
                                ),
                                key=_verification_key(
                                    pa, text, first_cost
                                ),
                            )
                        )
                for scale in spec.cpu_scales:
                    cost = spec.base_cost_model.scaled(scale)
                    for label, pipeline in resolved_variants:
                        pa, text = prepared[label]
                        program: Union[str, SourceFile]
                        if pa is None:
                            program = app.source
                            transform = fallback
                            variant_id = None
                        else:
                            program = pa.transform.source
                            transform = pa.transform
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
                                        program=program,
                                        nranks=nr,
                                        network=model,
                                        collective=coll,
                                        cost_model=cost,
                                        detect_races=spec.detect_races,
                                        label=f"{app.name}/{label}",
                                        externals=app.externals,
                                        transform=transform,
                                        text=text,
                                        variant_id=variant_id,
                                        engine_mode=spec.engine_mode
                                        or "auto",
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
# A sweep runs in three stages: plan (expand, fingerprint, dedupe, probe
# the cache), execute (run what the cache lacked) and fold (measure,
# store, check equivalence, assemble).  :func:`_execute_sweep` runs the
# execute stage as one ``run_many`` batch; the sweep server
# (:mod:`repro.serve.server`) runs it job by job behind its coalescing
# and claim layers.  Both share the plan and fold stages, and with them
# the one reader and writer of cache payloads.


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


def read_verdict(cache: SweepCache, key: str) -> bool:
    """True when the cache holds a passed equivalence check under
    ``key``."""
    payload = cache.get(key)
    return (
        payload is not None
        and payload.get("kind") == "verify"
        and payload.get("equivalent") is True
    )


#: a point's work key: its fingerprint, or its index in
#: :attr:`SweepPlan.points` when it is uncacheable (externals)
WorkKey = Union[str, int]


@dataclass
class SweepPlan:
    """A planned sweep (:func:`plan_sweep`) and the ledger its execute
    and fold stages fill in.

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
        batch = [point.job() for point in self.pending.values()]
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
            run, network=point.network, collective=point.collective
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
    ) -> None:
        """Check one pending verification's runs (raises on mismatch)
        and store the verdict."""
        ver.prepared.check_equivalence(original, transformed)
        if self.cache is not None and ver.key is not None:
            self.cache.put(
                ver.key,
                {
                    "kind": "verify",
                    "equivalent": True,
                    "app": ver.prepared.app.name,
                    "nranks": ver.prepared.app.nranks,
                },
            )
        self.stats.verify_simulated += 2

    def result(self) -> SweepResult:
        """Every point's run, in point order, once all keys resolved."""
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
                    measurement=replace(m, label=point.label),
                    cached=cached,
                    fingerprint=point.fingerprint,
                    transform=point.transform,
                )
            )
        self.stats.cache_hits = hits
        self.stats.cache_misses = misses
        self.stats.deduplicated = deduplicated
        return SweepResult(runs=runs, stats=self.stats, specs=self.specs)


def plan_sweep(
    specs: Union[SweepSpec, Sequence[SweepSpec]],
    cache: Union[None, str, Path, SweepCache],
    memo: Optional[_TransformMemo] = None,
) -> SweepPlan:
    """Stage 1: expand every spec (through ``memo`` when given),
    fingerprint every point, dedupe points by fingerprint, and probe
    the cache for measurements and verification verdicts (counting its
    hits and misses)."""
    if isinstance(specs, SweepSpec):
        specs = [specs]
    specs = list(specs)
    cache = _as_cache(cache)
    points: List[SweepPoint] = []
    verifications: List[_Verification] = []
    for spec in specs:
        pts, vers = expand_spec(spec, memo)
        points.extend(pts)
        verifications.extend(vers)
    plan = SweepPlan(
        specs=specs,
        points=points,
        cache=cache,
        stats=SweepStats(points=len(points), verify_checks=len(verifications)),
    )

    for index, point in enumerate(points):
        if point.externals is not None:
            plan.stats.uncacheable += 1
            plan.pending[index] = point
            continue
        fp = point.fingerprint = job_fingerprint(
            point.job(), text=point.text
        )
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
        if cache is None or ver.key is None:
            plan.verifications.append(ver)
        elif read_verdict(cache, ver.key):
            ver.prepared.equivalent = True
            plan.stats.verify_hits += 1
            cache.count("verify_hits")
        else:
            cache.count("verify_misses")
            plan.verifications.append(ver)
    return plan


def _execute_sweep(
    specs: Union[SweepSpec, Sequence[SweepSpec]],
    *,
    jobs: Optional[int] = None,
    cache: Union[None, str, Path, SweepCache] = None,
    executor=None,
    memo: Optional[_TransformMemo] = None,
) -> SweepResult:
    """Execute one or more sweep specs: plan, one ``run_many`` batch,
    fold.

    ``jobs`` > 1 shards the simulations over a
    :func:`~repro.interp.runner.run_many` process pool (verification
    runs ride in the same batch); a live ``executor`` (a
    :class:`repro.api.Session`'s persistent pool) takes precedence and
    is left running afterwards.  ``cache`` (a directory path or a
    :class:`SweepCache`) serves previously-simulated points without
    re-simulating; ``None`` disables caching entirely.  Points whose
    fingerprints coincide are simulated once per batch regardless of
    caching.  ``memo`` is the session's transform memo (see
    :func:`expand_spec`).

    This is the engine behind :meth:`repro.api.Session.sweep`.
    """
    plan = plan_sweep(specs, cache, memo)
    batch = plan.jobs()
    if batch:
        runs = run_many(batch, processes=jobs, executor=executor)
        plan.stats.mode = runs.mode
        plan.stats.processes = runs.processes
        plan.fold(runs)
    return plan.result()
