"""Regeneration of the paper's figures and the deferred ablations.

The paper's evaluation (Figure 1 plus the §4 correctness result) is
reproduced here, together with the parameter studies the paper defers to
Danalis et al. [3] — tile size, cluster size, network parameters — and
two studies of its own design discussions: workload generality (§2's
example algorithms) and the node-loop interchange (§3.5).

Every function is a thin :class:`~repro.harness.sweep.SweepSpec`
constructor run through one :meth:`repro.api.Session.sweep` call: it
names the axes, lets the session expand, deduplicate, cache and shard
the simulations over its pool, then folds the measurements into a
:class:`~repro.harness.report.Table`.  Pass ``session=`` to reuse a
session's cache, transform memo and persistent pool; without one the
function runs in a fresh ``Session()`` (serial, uncached) that it
closes afterwards.  A warm cache regenerates every table below
bit-identically with zero simulations (DESIGN.md §7).

Every function returns a :class:`~repro.harness.report.Table`; the
benchmark suite renders the tables and asserts their *shape* (who wins,
roughly by how much) rather than absolute virtual times.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..runtime.collectives import (
    CollectiveSpec,
    default_algorithm,
    list_algorithms,
)
from ..runtime.network import (
    MPICH_GM,
    MPICH_P4,
    NetworkModel,
    get_model,
    list_models,
    resolve_model,
)
from ..transform.pipeline import Pipeline, list_variants, variant_label
from .report import Table
from .sweep import SweepSpec, collective_label

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..api.session import Session

__all__ = [
    "figure1",
    "ablation_tile_size",
    "ablation_scaling",
    "ablation_network",
    "ablation_workloads",
    "ablation_nodeloop",
    "ablation_scenarios",
    "ablation_collectives",
    "ablation_variants",
]

NetworkLike = Union[str, NetworkModel]
VariantLike = Union[str, Pipeline]


def _treatment_variant(variant: VariantLike) -> str:
    """The label of a figure's treatment arm, which must transform.

    Figures comparing "original vs <variant>" cannot use ``original``
    (or any duplicate of the baseline) as the treatment.
    """
    label = variant_label(variant)
    if label == "original":
        raise ReproError(
            "variant='original' is the baseline arm; pick a "
            f"transforming variant (registered: {list_variants()})"
        )
    return label


@contextmanager
def _session(session: "Optional[Session]"):
    """``session`` itself, or a fresh ``Session()`` (serial, uncached)
    closed when the figure is done."""
    if session is not None:
        yield session
        return
    from ..api.session import Session

    with Session() as fresh:
        yield fresh


def _speedup(original: float, prepush: float) -> float:
    """original/prepush with the degenerate-zero conventions of
    :class:`~repro.harness.runner.PairResult`: 0/0 is "no change"."""
    if prepush <= 0:
        return 1.0 if original <= 0 else float("inf")
    return original / prepush


def figure1(
    *,
    n: int = 32,
    nranks: int = 8,
    stages: int = 6,
    tile_size: Union[int, str] = "auto",
    cpu_scale: float = 8.0,
    verify: bool = True,
    variant: VariantLike = "prepush",
    session: "Optional[Session]" = None,
) -> Table:
    """Paper Figure 1: normalized execution time, Original vs Prepush,
    under the host-based stack (MPICH) and the NIC-offload stack (MPICH-GM).

    ``variant`` selects the treatment arm from the variant registry
    (default ``"prepush"``; any registered pipeline name works).

    The workload is the paper's §4 indirect-pattern test program.  The
    expected shape: MPICH bars tallest (slow host-driven network, little
    to gain from issuing early), MPICH-GM original in the middle, and
    MPICH-GM prepush shortest — overlap hides most of the wire time and
    the removed copy loop saves CPU besides.

    ``cpu_scale`` multiplies the per-operation CPU cost model, setting the
    computation/communication ratio.  The default (8x the interpreter's
    optimistic per-op charge) matches the 2005-era balance of the paper's
    testbed, where application kernels did substantially more work per
    transferred element than an integer hash; EXPERIMENTS.md records the
    sensitivity.
    """
    vname = _treatment_variant(variant)
    spec = SweepSpec(
        name="figure1",
        app="indirect",
        app_kwargs={"n": n, "stages": stages},
        nranks=(nranks,),
        variants=("original", variant),
        tile_sizes=(tile_size,),
        networks=(MPICH_P4, MPICH_GM),
        cpu_scales=(cpu_scale,),
        verify=verify,
    )
    with _session(session) as session:
        res = session.sweep(spec)

    times = [r.measurement.time for r in res.runs]
    floor = min(times)
    table = Table(
        title=(
            "Figure 1 — normalized execution time "
            f"(indirect kernel, n={n}, NP={nranks})"
        ),
        columns=[
            "stack",
            "variant",
            "time_s",
            "normalized",
            "speedup_vs_original",
        ],
    )
    for stack in (MPICH_P4, MPICH_GM):
        original = res.get(network=stack.name, variant="original")
        prepush = res.get(network=stack.name, variant=vname)
        for label, run in (("original", original), (vname, prepush)):
            m = run.measurement
            table.add(
                stack.name,
                label,
                m.time,
                m.time / floor,
                original.measurement.time / m.time,
            )
        sites = prepush.transform.sites if prepush.transform else []
        table.notes.append(
            f"{stack.name}: K={sites[0].tile_size if sites else '-'}, "
            f"{prepush.measurement.messages} msgs {vname} vs "
            f"{original.measurement.messages} original"
        )
    return table


def ablation_tile_size(
    *,
    ks: Optional[Sequence[int]] = None,
    n: int = 128,
    nranks: int = 8,
    steps: int = 1,
    stages: int = 6,
    network: NetworkLike = MPICH_GM,
    verify: bool = True,
    collective: CollectiveSpec = None,
    variant: VariantLike = "prepush",
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation A: the U-shaped tile-size trade-off (deferred to [3]).

    Small K → many messages, per-message overhead dominates; large K →
    little overlap left (the last tile's transfer is exposed; K = trip
    degenerates to the original schedule).  The sweep runs the
    FFT-transpose kernel (scheme A, K unconstrained); the engine
    fingerprint-deduplicates the untransformed baseline, which is the
    same program at every K.
    """
    network = resolve_model(network)
    vname = _treatment_variant(variant)
    if ks is None:
        ks = [k for k in (1, 4, 8, 16, 32, 64, n) if k <= n]
    # dedupe, order-preserving: the default list repeats n when n is a
    # power of two already listed, and duplicate axis values would make
    # the per-K result lookup ambiguous
    ks = list(dict.fromkeys(int(k) for k in ks))

    def spec_for(tiles: Sequence[int], tag: str, check: bool) -> SweepSpec:
        return SweepSpec(
            name=f"tile_size-{tag}",
            app="fft",
            app_kwargs={"n": n, "steps": steps, "stages": stages},
            nranks=(nranks,),
            variants=("original", variant),
            tile_sizes=tuple(tiles),
            networks=(network,),
            collectives=(collective,),
            verify=check,
        )

    # only the first K is equivalence-checked (one check pins the
    # transform; re-verifying per K would only re-run the same §4 proof)
    specs = [spec_for(ks[:1], "first", verify)]
    if ks[1:]:
        specs.append(spec_for(ks[1:], "rest", False))
    with _session(session) as session:
        res = session.sweep(specs)

    table = Table(
        title=f"Ablation A — tile size sweep (fft n={n}, NP={nranks}, "
        f"{network.name})",
        columns=["K", "tiles", "time_s", "speedup", "messages"],
    )
    baseline = res.measurement(variant="original", tile_size=ks[0]).time
    for k in ks:
        run = res.get(variant=vname, tile_size=k)
        sites = run.transform.sites if run.transform else []
        table.add(
            k,
            sites[0].comm_rounds if sites else "-",
            run.measurement.time,
            baseline / run.measurement.time,
            run.measurement.messages,
        )
    table.notes.append(f"original time: {baseline:.6g} s")
    return table


def ablation_scaling(
    *,
    nranks_list: Sequence[int] = (2, 4, 8, 16),
    n: int = 128,
    steps: int = 1,
    stages: int = 6,
    network: NetworkLike = MPICH_GM,
    verify: bool = True,
    collective: CollectiveSpec = None,
    variant: VariantLike = "prepush",
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation B: cluster-size scaling of the prepush benefit."""
    network = resolve_model(network)
    vname = _treatment_variant(variant)
    spec = SweepSpec(
        name="scaling",
        app="fft",
        app_kwargs={"n": n, "steps": steps, "stages": stages},
        nranks=tuple(nranks_list),
        variants=("original", variant),
        networks=(network,),
        collectives=(collective,),
        verify=verify,
    )
    with _session(session) as session:
        res = session.sweep(spec)
    table = Table(
        title=f"Ablation B — cluster size sweep (fft n={n}, {network.name})",
        columns=["NP", "time_original_s", f"time_{vname}_s", "speedup"],
    )
    for nranks in nranks_list:
        t_orig = res.measurement(variant="original", nranks=nranks).time
        t_pp = res.measurement(variant=vname, nranks=nranks).time
        table.add(nranks, t_orig, t_pp, _speedup(t_orig, t_pp))
    return table


def _network_variants(base: NetworkModel) -> List[Tuple[str, NetworkModel]]:
    return [
        ("gm", base),
        ("gm-lat-x8", base.with_(name="gm-lat-x8", latency=base.latency * 8)),
        (
            "gm-wire-x4",
            base.with_(name="gm-wire-x4", byte_time=base.byte_time * 4),
        ),
        (
            "gm-no-offload",
            base.with_(
                name="gm-no-offload",
                offload=False,
                host_byte_time=base.byte_time,
            ),
        ),
        ("mpich", MPICH_P4),
    ]


def ablation_network(
    *,
    n: int = 128,
    nranks: int = 8,
    steps: int = 1,
    stages: int = 6,
    verify: bool = True,
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation C: which network properties the benefit depends on.

    Sweeps latency, wire bandwidth, and — the paper's central thesis —
    NIC offload.  Removing offload (``gm-no-offload``) makes the host
    CPU progress every byte: the same transformed program loses its
    advantage, which is exactly why the paper pairs the transformation
    with RDMA-capable interconnects.
    """
    variants = _network_variants(MPICH_GM)
    spec = SweepSpec(
        name="network",
        app="fft",
        app_kwargs={"n": n, "steps": steps, "stages": stages},
        nranks=(nranks,),
        networks=tuple(model for _, model in variants),
        verify=verify,
    )
    with _session(session) as session:
        res = session.sweep(spec)
    table = Table(
        title=f"Ablation C — network parameter sweep (fft n={n}, NP={nranks})",
        columns=[
            "network",
            "offload",
            "time_original_s",
            "time_prepush_s",
            "speedup",
        ],
    )
    for label, model in variants:
        t_orig = res.measurement(variant="original", network=model.name).time
        t_pp = res.measurement(variant="prepush", network=model.name).time
        table.add(
            label,
            "yes" if model.offload else "no",
            t_orig,
            t_pp,
            _speedup(t_orig, t_pp),
        )
    return table


#: Workload roster of Ablation D: (app builder name, geometry kwargs).
#: ``sizes`` overrides use the roster key.
_WORKLOAD_ROSTER: Tuple[Tuple[str, str, dict], ...] = (
    ("figure2", "figure2", {"n": 4096, "steps": 1, "stages": 6}),
    ("indirect", "indirect", {"n": 32, "stages": 6}),
    ("fft", "fft", {"n": 96, "steps": 1, "stages": 6}),
    ("sort", "sort", {"keys_per_dest": 1024, "steps": 1, "stages": 6}),
    ("stencil", "stencil", {"n": 96, "steps": 2}),
    ("lu", "lu", {"n": 96, "steps": 2}),
)


def ablation_workloads(
    *,
    nranks: int = 8,
    network: NetworkLike = MPICH_GM,
    sizes: Optional[dict] = None,
    cpu_scale: float = 4.0,
    verify: bool = True,
    collective: CollectiveSpec = None,
    variant: VariantLike = "prepush",
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation D: prepush across §2's example workload classes.

    ``cpu_scale`` (default 4x) models kernels doing realistic work per
    transferred element; the scheme-B workload (figure2) is expected to
    gain least — its traffic is the §3.5 congested shape.
    """
    network = resolve_model(network)
    vname = _treatment_variant(variant)
    sizes = sizes or {}
    specs = []
    for key, app_name, kwargs in _WORKLOAD_ROSTER:
        kwargs = dict(kwargs)
        size_key = "keys_per_dest" if "keys_per_dest" in kwargs else "n"
        if key in sizes:
            kwargs[size_key] = sizes[key]
        specs.append(
            SweepSpec(
                name=f"workloads-{key}",
                app=app_name,
                app_kwargs=kwargs,
                nranks=(nranks,),
                variants=("original", variant),
                networks=(network,),
                collectives=(collective,),
                cpu_scales=(cpu_scale,),
                verify=verify,
            )
        )
    with _session(session) as session:
        res = session.sweep(specs)
    table = Table(
        title=f"Ablation D — workload generality (NP={nranks}, {network.name})",
        columns=[
            "workload",
            "pattern",
            "scheme",
            "K",
            "time_original_s",
            f"time_{vname}_s",
            "speedup",
        ],
    )
    for key, _, _ in _WORKLOAD_ROSTER:
        prepush = res.get(spec=f"workloads-{key}", variant=vname)
        original = res.get(spec=f"workloads-{key}", variant="original")
        sites = (
            prepush.transform.sites
            if prepush.transform is not None
            else []
        )
        table.add(
            prepush.axes["app"],
            sites[0].kind.value if sites else "-",
            sites[0].scheme if sites else "-",
            sites[0].tile_size if sites else "-",
            original.measurement.time,
            prepush.measurement.time,
            _speedup(original.measurement.time, prepush.measurement.time),
        )
    return table


def ablation_nodeloop(
    *,
    n: int = 96,
    nranks: int = 8,
    steps: int = 1,
    stages: int = 6,
    network: NetworkLike = MPICH_GM,
    cpu_scale: float = 4.0,
    verify: bool = True,
    collective: CollectiveSpec = None,
    variant: VariantLike = "prepush",
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation E: the cost of a congested node loop (§3.5).

    The node-loop-outermost kernel is transformed twice: with the
    interchange remedy (scheme A: balanced pairwise traffic) and with
    interchange disabled (scheme B: every rank aims each tile at one
    destination NIC).  Both are correct; the congested variant shows the
    efficiency loss the paper warns about.
    """
    network = resolve_model(network)
    vname = _treatment_variant(variant)
    spec = SweepSpec(
        name="nodeloop",
        app="nodeloop",
        app_kwargs={"n": n, "steps": steps, "stages": stages},
        nranks=(nranks,),
        variants=("original", variant),
        interchange=("auto", "never"),
        networks=(network,),
        collectives=(collective,),
        cpu_scales=(cpu_scale,),
        verify=verify,
    )
    with _session(session) as session:
        res = session.sweep(spec)
    table = Table(
        title=(
            f"Ablation E — node-loop position (nodeloop n={n}, "
            f"NP={nranks}, {network.name})"
        ),
        columns=["variant", "scheme", "time_s", "vs_original"],
    )
    # the original program is interchange-independent (the knob only
    # moves the transformed loop nest); the engine deduplicated it
    base = res.measurement(variant="original", interchange="auto").time
    interchanged = res.get(variant=vname, interchange="auto")
    congested = res.get(variant=vname, interchange="never")
    table.add("original", "-", base, 1.0)

    def _scheme(run) -> str:
        sites = run.transform.sites if run.transform is not None else []
        return sites[0].scheme if sites else "-"

    table.add(
        f"{vname}+interchange",
        _scheme(interchanged),
        interchanged.measurement.time,
        base / interchanged.measurement.time,
    )
    table.add(
        f"{vname}-congested",
        _scheme(congested),
        congested.measurement.time,
        base / congested.measurement.time,
    )
    return table


def ablation_scenarios(
    *,
    names: Optional[Sequence[str]] = None,
    n: int = 96,
    nranks: int = 8,
    steps: int = 1,
    stages: int = 6,
    cpu_scale: float = 4.0,
    verify: bool = True,
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation F: the prepush benefit across every registered scenario.

    Sweeps the FFT-transpose pair over the scenario registry — including
    protocol-switching (eager/rendezvous), multi-rail, congested-fabric,
    and modern RDMA-class profiles — so any model added with
    :func:`~repro.runtime.network.register_model` automatically joins the
    study.  ``names=None`` selects every registered model except
    ``ideal`` (which only isolates compute), deduplicating aliases.

    A ``session`` built with ``jobs`` > 1 shards the per-scenario
    simulations over its pool (the sweep is embarrassingly parallel;
    results are identical either way).
    """
    if names is None:
        seen: set = set()
        models: List[NetworkModel] = []
        for name in list_models():
            model = get_model(name)
            if id(model) in seen or model.name == "ideal":
                continue
            seen.add(id(model))
            models.append(model)
        models.sort(key=lambda m: m.name)
    else:
        models = [get_model(name) for name in names]

    spec = SweepSpec(
        name="scenarios",
        app="fft",
        app_kwargs={"n": n, "steps": steps, "stages": stages},
        nranks=(nranks,),
        networks=tuple(models),
        cpu_scales=(cpu_scale,),
        verify=verify,
    )
    with _session(session) as session:
        res = session.sweep(spec)
    table = Table(
        title=f"Ablation F — scenario registry sweep (fft n={n}, NP={nranks})",
        columns=[
            "scenario",
            "offload",
            "protocol",
            "time_original_s",
            "time_prepush_s",
            "speedup",
        ],
    )
    for model in models:
        t_orig = res.measurement(variant="original", network=model.name).time
        t_pp = res.measurement(variant="prepush", network=model.name).time
        table.add(
            model.name,
            "yes" if model.offload else "no",
            model.protocol_label(),
            t_orig,
            t_pp,
            t_orig / t_pp if t_pp > 0 else float("inf"),
        )
    return table


#: Ablation G roster: collective -> (app builder, size kwarg name).
_COLLECTIVE_ROSTER: Tuple[Tuple[str, str], ...] = (
    ("alltoall", "fft"),
    ("allreduce", "cg"),
    ("allgather", "halo"),
)


def ablation_collectives(
    *,
    networks: Sequence[NetworkLike] = ("hostnet", "gmnet"),
    nranks: int = 8,
    fft_n: int = 96,
    cg_n: int = 256,
    halo_n: int = 128,
    steps: int = 2,
    stages: int = 4,
    cpu_scale: float = 4.0,
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation G: the collective-algorithm axis (algorithm x network x
    workload).

    Sweeps every registered algorithm of each collective over the
    workload whose traffic it dominates — alltoall variants on the
    FFT transpose, allreduce variants on the CG kernel, allgather
    variants on the halo exchange — under each network.  ``vs_default``
    normalizes to that collective's default algorithm on the same
    network, so >1 means the alternative schedule is faster.  Algorithms
    added with :func:`~repro.runtime.collectives.register_algorithm`
    automatically join the sweep.
    """
    models = [resolve_model(net) for net in networks]
    sizes = {"fft": fft_n, "cg": cg_n, "halo": halo_n}
    specs = []
    for coll, app_name in _COLLECTIVE_ROSTER:
        specs.append(
            SweepSpec(
                name=f"collectives-{coll}",
                app=app_name,
                app_kwargs={
                    "n": sizes[app_name],
                    "steps": steps,
                    "stages": stages,
                },
                nranks=(nranks,),
                variants=("original",),
                networks=tuple(models),
                collectives=tuple(
                    {coll: alg} for alg in list_algorithms(coll)
                ),
                cpu_scales=(cpu_scale,),
                verify=False,
            )
        )
    with _session(session) as session:
        res = session.sweep(specs)
    table = Table(
        title=(
            f"Ablation G — collective algorithm sweep (NP={nranks}, "
            f"{'/'.join(m.name for m in models)})"
        ),
        columns=[
            "collective",
            "algorithm",
            "workload",
            "network",
            "time_s",
            "vs_default",
        ],
    )
    for coll, app_name in _COLLECTIVE_ROSTER:
        algorithms = list_algorithms(coll)
        for model in models:
            times = {
                alg: res.measurement(
                    spec=f"collectives-{coll}",
                    network=model.name,
                    collective=collective_label({coll: alg}),
                ).time
                for alg in algorithms
            }
            base = times[default_algorithm(coll)]
            for alg in algorithms:
                table.add(
                    coll,
                    alg,
                    app_name,
                    model.name,
                    times[alg],
                    base / times[alg] if times[alg] > 0 else 1.0,
                )
    return table


#: Ablation H roster: one workload per transformation shape — scheme A
#: direct (fft), node-loop-outermost direct (nodeloop, where the
#: interchange pass matters), and the indirect pattern (where the
#: indirect-elim pass matters).
_VARIANT_ROSTER: Tuple[Tuple[str, dict], ...] = (
    ("fft", {"n": 96, "steps": 1, "stages": 6}),
    ("nodeloop", {"n": 96, "steps": 1, "stages": 6}),
    ("indirect", {"n": 32, "stages": 6}),
)


def _preflight_variants(names, labels, *, sizes, nranks, dropped, memo):
    """Filter auto-joined variants down to those every roster workload
    survives (transform-only; no simulation).  Incompatible variants
    land in ``dropped`` as ``label: reason`` strings.

    Each transformation runs through ``memo`` (the session's transform
    memo) with the options the sweep's expansion uses, so the sweep
    that follows finds every surviving transformation done."""
    from ..apps import build_app
    from ..transform.options import TransformOptions
    from ..transform.pipeline import resolve_variant
    from .runner import require_transformed
    from .sweep import _transform

    options = TransformOptions(
        tile_size=SweepSpec.tile_sizes[0],
        interchange=SweepSpec.interchange[0],
    )
    kept_names, kept_labels = [], []
    for variant, label in zip(names, labels):
        pipeline = resolve_variant(variant)
        try:
            if not pipeline.empty:
                for app_name, kwargs in _VARIANT_ROSTER:
                    kwargs = dict(kwargs)
                    if app_name in sizes:
                        kwargs["n"] = sizes[app_name]
                    app = build_app(app_name, nranks=nranks, **kwargs)
                    report, _ = _transform(app, pipeline, options, memo)
                    require_transformed(
                        report, pipeline, f"workload {app.name!r}"
                    )
        except ReproError as exc:
            dropped.append(f"{label}: {str(exc).splitlines()[0]}")
            continue
        kept_names.append(variant)
        kept_labels.append(label)
    return kept_names, kept_labels


def ablation_variants(
    *,
    variants: Optional[Sequence[VariantLike]] = None,
    networks: Sequence[NetworkLike] = ("hostnet", "gmnet"),
    nranks: int = 8,
    cpu_scale: float = 4.0,
    verify: bool = True,
    sizes: Optional[dict] = None,
    session: "Optional[Session]" = None,
) -> Table:
    """Ablation H: the transformation-variant axis (variant × network ×
    workload).

    Sweeps every registered transformation pipeline — including partial
    ablations like ``tile-only`` (no interchange, no copy-loop
    elimination) and ``prepush-schemeB-off`` — over one workload per
    transformation shape, under each network.  ``vs_original``
    normalizes to the untransformed program on the same network, so >1
    means the variant helped.  Pipelines registered at runtime with
    :func:`~repro.transform.pipeline.register_variant` automatically
    join the sweep; a variant that leaves a workload unchanged (e.g.
    ``tile-only`` on the indirect kernel) is measured as-is and shows
    speedup 1.0 with K='-'.
    """
    auto_roster = variants is None
    if variants is None:
        names: List[VariantLike] = list(list_variants())
    else:
        names = list(variants)
    labels = [variant_label(v) for v in names]
    if "original" not in labels:
        names = ["original"] + names
        labels = ["original"] + labels
    models = [resolve_model(net) for net in networks]
    sizes = sizes or {}
    dropped: List[str] = []
    with _session(session) as session:
        if auto_roster:
            # auto-joined variants are best effort: a runtime-registered
            # full-rewrite pipeline that cannot transform one roster
            # workload must not abort the whole table.  Pre-flight each
            # variant (transform only — cheap) and drop the incompatible
            # ones with a note; explicitly-requested variants still raise.
            names, labels = _preflight_variants(
                names,
                labels,
                sizes=sizes,
                nranks=nranks,
                dropped=dropped,
                memo=session._transforms,
            )
        specs = []
        for app_name, kwargs in _VARIANT_ROSTER:
            kwargs = dict(kwargs)
            if app_name in sizes:
                kwargs["n"] = sizes[app_name]
            specs.append(
                SweepSpec(
                    name=f"variants-{app_name}",
                    app=app_name,
                    app_kwargs=kwargs,
                    nranks=(nranks,),
                    variants=tuple(names),
                    networks=tuple(models),
                    cpu_scales=(cpu_scale,),
                    verify=verify,
                )
            )
        res = session.sweep(specs)
    table = Table(
        title=(
            f"Ablation H — transformation variant sweep (NP={nranks}, "
            f"{'/'.join(m.name for m in models)})"
        ),
        notes=[
            f"dropped incompatible variant {d}" for d in dropped
        ],
        columns=[
            "workload",
            "variant",
            "network",
            "K",
            "scheme",
            "time_s",
            "vs_original",
        ],
    )
    for app_name, _ in _VARIANT_ROSTER:
        for model in models:
            base = res.measurement(
                spec=f"variants-{app_name}",
                variant="original",
                network=model.name,
            ).time
            for label in labels:
                run = res.get(
                    spec=f"variants-{app_name}",
                    variant=label,
                    network=model.name,
                )
                own = (
                    run.transform.sites
                    if label != "original" and run.transform is not None
                    else []
                )
                table.add(
                    run.axes["app"],
                    label,
                    model.name,
                    own[0].tile_size if own else "-",
                    own[0].scheme if own else "-",
                    run.measurement.time,
                    _speedup(base, run.measurement.time),
                )
    return table
