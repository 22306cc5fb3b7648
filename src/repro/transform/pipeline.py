"""Composable transform-pass pipeline and the variant registry.

The paper's tool applies its five-step §3.6 rewrite in one place;
here that place is a chain of discrete **passes** over the program AST
— the shape proven by pass-based compiler frameworks — and the compiler
is the repo's third pluggable registry, after network scenarios
(:mod:`repro.runtime.network`) and collective algorithms
(:mod:`repro.runtime.collectives`):

* a :class:`Pass` is one named, self-contained phase with
  ``applicable(program, state)`` and ``apply(program, options, state)``
  returning a :class:`PassResult` (the rewritten AST plus a per-pass
  :class:`PassReport`);
* a :class:`Pipeline` chains passes, capturing an inspectable
  source-text snapshot after every pass, and returns a
  :class:`PipelineReport` — the rewritten program, one
  :class:`SiteReport` per rewritten site, the rejected sites, and the
  per-pass chain;
* the **variant registry** (:func:`register_variant` /
  :func:`get_variant` / :func:`list_variants`) names pipelines so the
  harness, the sweep engine, and the CLI can select transformation
  variants the same way they select networks and collectives.

Built-in variants
-----------------

``original``
    The empty pipeline: the program unchanged (the baseline arm of
    every comparison).
``prepush``
    ``interchange → tile → commgen → indirect-elim`` — the full §3
    transformation (the CLI ``transform`` verb and every comparison's
    default).  The golden parity suite holds its output bit-identical,
    on every figure workload, to the frozen outputs of the original
    monolithic implementation it replaced (DESIGN.md §9.3).
``tile-only``
    ``tile → commgen``: direct sites get the tiled early-push rewrite,
    but the node loop is never interchanged and indirect sites are
    left untouched (isolates the benefit of tiling alone).
``no-interchange``
    ``tile → commgen → indirect-elim``: the full rewrite minus §3.5 —
    the same program as ``prepush`` with
    ``TransformOptions(interchange="never")`` (Ablation E's congested
    arm).
``prepush-schemeB-off``
    The full pipeline, but sites whose resolved plan is scheme B keep
    their original alltoall (ablates the owner-block codegen path).

Pass ordering note: the registered ``prepush`` pipeline runs
``interchange`` *before* ``tile`` because the tile size of a scheme-B
site depends on the post-interchange geometry (K must divide the
partition thickness only while the site *stays* scheme B); resolving K
first would pick a different tile size.

Writing a third-party pass
--------------------------

Any object with a ``name`` string, ``applicable(program, state) ->
bool``, and ``apply(program, options, state) -> PassResult`` is a
pass; an optional ``config() -> dict`` of JSON-safe scalars feeds the
sweep cache fingerprint (passes with knobs MUST implement it, or two
differently-configured pipelines would collide in the cache).  See
DESIGN.md §9 for the full protocol and the fingerprint rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
    runtime_checkable,
)

from ..errors import TransformError
from ..analysis.callinfo import Oracle
from ..analysis.patterns import (
    ALLTOALL_NAMES,
    Opportunity,
    PatternKind,
    Rejection,
    find_opportunities,
)
from ..lang.ast_nodes import CallStmt, SourceFile
from ..lang.parser import parse
from ..lang.unparser import unparse
from ..lang.visitor import clone, walk
from .direct import DirectPlan, analyze_direct, direct_rewrite
from .indirect import IndirectPlan, analyze_indirect, indirect_rewrite
from .interchange import try_interchange
from .layout import SiteLayout, resolve_layout
from .names import NamePool, SiteNames, insert_prolog
from .options import DEFAULT_TRANSFORM_OPTIONS, TransformOptions
from .tiling import Tiling, resolve_tile_size

__all__ = [
    "Pass",
    "PassReport",
    "PassResult",
    "PassSnapshot",
    "Pipeline",
    "PipelineReport",
    "PipelineState",
    "SitePlan",
    "SiteReport",
    "CommGenPass",
    "IndirectElimPass",
    "InterchangePass",
    "TilePass",
    "register_variant",
    "get_variant",
    "list_variants",
    "resolve_variant",
    "variant_label",
    "variant_identity",
]


def has_candidate_sites(
    program: SourceFile,
    alltoall_names: Sequence[str] = ALLTOALL_NAMES,
) -> bool:
    """Cheap applicability screen: does any unit call the collective?"""
    names = {n.lower() for n in alltoall_names}
    for node in walk(program):
        if isinstance(node, CallStmt) and node.name.lower() in names:
            return True
    return False


# ---------------------------------------------------------------- reports


@dataclass
class SiteReport:
    """What was done to one transformed communication site."""

    unit: str
    send_array: str
    recv_array: str
    kind: PatternKind
    scheme: str  # 'A' (Fig. 4 pairwise), 'B' (owner block), 'slab' (indirect)
    tile_size: int
    trip: int
    ntiles: int
    leftover: int
    interchanged: bool = False
    #: arrays made dead by the rewrite (indirect: As is never written again)
    dead_arrays: Tuple[str, ...] = ()
    notes: List[str] = field(default_factory=list)

    @property
    def comm_rounds(self) -> int:
        """Communication blocks issued per execution of the original C."""
        return self.ntiles + (1 if self.leftover else 0)


def _dedupe(rejections: List[Rejection]) -> List[Rejection]:
    """Drop repeated rejections of the same call node (planning and the
    rewrite passes may each report the same site)."""
    seen: Set[Tuple[int, str]] = set()
    out: List[Rejection] = []
    for r in rejections:
        key = (id(r.call), r.reason)
        if key not in seen:
            seen.add(key)
            out.append(r)
    return out


@dataclass
class PassReport:
    """What one pass did to the program."""

    name: str
    #: sites this pass rewrote (rewrite passes only)
    sites: List[SiteReport] = field(default_factory=list)
    #: sites this pass could not handle (carried into the final report)
    rejections: List[Rejection] = field(default_factory=list)
    #: free-form diagnostics (planned geometry, skipped sites, ...)
    notes: List[str] = field(default_factory=list)
    changed: bool = False
    skipped: bool = False  # applicable() said no; apply() never ran

    def describe(self) -> str:
        status = (
            "skipped (not applicable)"
            if self.skipped
            else ("changed program" if self.changed else "no change")
        )
        lines = [f"pass {self.name}: {status}"]
        for s in self.sites:
            lines.append(
                f"  [{s.unit}] {s.kind.value} {s.send_array!r} -> "
                f"{s.recv_array!r}: scheme {s.scheme}, K={s.tile_size}"
            )
        lines.extend(f"  note: {n}" for n in self.notes)
        lines.extend(f"  rejected: {r.reason}" for r in self.rejections)
        return "\n".join(lines)


@dataclass
class PassResult:
    """Return value of :meth:`Pass.apply`."""

    program: SourceFile
    report: PassReport
    changed: bool = False


@dataclass
class PassSnapshot:
    """The program text after one pass ran (inspectable intermediate)."""

    pass_name: str
    text: str
    changed: bool


@runtime_checkable
class Pass(Protocol):
    """One named transformation phase (see the module docstring)."""

    name: str

    def applicable(
        self, program: SourceFile, state: "PipelineState"
    ) -> bool:
        """Cheap screen; ``apply`` is skipped (and recorded as skipped)
        when this returns False.  ``state`` carries run-scoped
        configuration such as the accepted alltoall call names."""
        ...

    def apply(
        self,
        program: SourceFile,
        options: TransformOptions,
        state: "PipelineState",
    ) -> PassResult:
        """Run the pass.  May mutate ``program`` in place (the pipeline
        cloned the caller's AST already) and must return it inside a
        :class:`PassResult`."""
        ...


# ------------------------------------------------------------- site plans


@dataclass
class SitePlan:
    """One fully-resolved transformation plan for one site.

    Computed once per pipeline run (lazily, by the first pass that
    needs it) so every rewrite pass agrees on layouts, tile sizes, and
    generated names.
    """

    opp: Opportunity
    layout: SiteLayout
    names: SiteNames
    kind: PatternKind
    plan: Union[DirectPlan, IndirectPlan]
    tile_size: int
    trip: int
    tiling: Optional[Tiling] = None  # direct sites only
    interchanged: bool = False
    applied: bool = False  # set by the pass that rewrites the site
    #: the SiteReport of the rewrite, once applied
    report: Optional[SiteReport] = None

    @property
    def scheme(self) -> str:
        return "slab" if self.kind is PatternKind.INDIRECT else self.plan.scheme


@dataclass
class SitePlans:
    sites: List[SitePlan]
    rejections: List[Rejection]


@dataclass
class PipelineState:
    """Shared scratch space of one pipeline run.

    Carries the lazily-computed :class:`SitePlans` (so ``tile``,
    ``commgen`` and ``indirect-elim`` agree on geometry and names) and
    the §3.5 interchange record (keyed by the identity of each nest's
    root loop, which survives header swaps).
    """

    oracle: Optional[Oracle] = None
    alltoall_names: Tuple[str, ...] = ALLTOALL_NAMES
    plans: Optional[SitePlans] = None
    #: id(nest root DoLoop) -> the §3.5 note recorded when it was swapped
    interchange_notes: Dict[int, str] = field(default_factory=dict)

    def ensure_plans(
        self, program: SourceFile, options: TransformOptions
    ) -> SitePlans:
        """Compute (once) the per-site plans on the current AST.

        Must run *after* any pass that reshapes loop nests
        (``interchange``): plans capture post-interchange geometry,
        which is what tile-size resolution legally depends on.
        """
        if self.plans is None:
            self.plans = _plan_sites(program, options, self)
        return self.plans


def _plan_sites(
    source: SourceFile, options: TransformOptions, state: PipelineState
) -> SitePlans:
    """Discover and plan every transformable site, in discovery order.

    Units are visited in program order, opportunities in scan order.
    Names are drawn from the per-unit pool *before* tile-size
    resolution, so a site rejected for an illegal K still consumes its
    names — the generated identifiers the golden parity suite pins
    (DESIGN.md §9.3) depend on that sequence.
    """
    sites: List[SitePlan] = []
    rejections: List[Rejection] = []
    pools: dict = {}

    def full() -> bool:
        return (
            options.max_sites is not None
            and len(sites) >= options.max_sites
        )

    for unit in source.units:
        if full():
            break
        result = find_opportunities(
            source,
            unit=unit,
            oracle=state.oracle,
            alltoall_names=state.alltoall_names,
        )
        rejections.extend(result.rejections)
        for opp in result.opportunities:
            if full():
                break
            pool = pools.setdefault(id(opp.unit), NamePool(opp.unit))
            try:
                sites.append(_plan_site(opp, pool, options, state))
            except TransformError as exc:
                rejections.append(
                    Rejection(
                        call=opp.call,
                        call_index=opp.call_index,
                        reason=str(exc),
                    )
                )
    return SitePlans(sites=sites, rejections=_dedupe(rejections))


def _plan_site(
    opp: Opportunity,
    pool: NamePool,
    options: TransformOptions,
    state: PipelineState,
) -> SitePlan:
    layout = resolve_layout(opp)
    names = SiteNames.allocate(opp.unit, pool)
    if opp.kind is PatternKind.DIRECT:
        probe = analyze_direct(opp, layout, tile_size=1)
        note = state.interchange_notes.get(id(opp.nest.root))
        if note is not None:
            opp.notes.append(note)
        trip = probe.tile_hi - probe.tile_lo + 1
        must_divide = (
            layout.planes_per_partition if probe.scheme == "B" else 0
        )
        k = resolve_tile_size(options.tile_size, trip, must_divide)
        plan = analyze_direct(opp, layout, tile_size=k)
        return SitePlan(
            opp=opp,
            layout=layout,
            names=names,
            kind=PatternKind.DIRECT,
            plan=plan,
            tile_size=k,
            trip=trip,
            tiling=Tiling(plan.tile_lo, plan.tile_hi, k),
            interchanged=note is not None,
        )
    probe = analyze_indirect(opp, layout, tile_size=1)
    k = resolve_tile_size(options.tile_size, probe.trip)
    plan = analyze_indirect(opp, layout, tile_size=k)
    names.need_indirect()
    return SitePlan(
        opp=opp,
        layout=layout,
        names=names,
        kind=PatternKind.INDIRECT,
        plan=plan,
        tile_size=k,
        trip=plan.trip,
    )


def _plannable_direct(
    probe: DirectPlan, layout: SiteLayout, options: TransformOptions
) -> int:
    """1 when the planner would accept this (post-interchange) direct
    site, 0 when it would reject it — the InterchangePass budget must
    march in step with ``_plan_sites``'s ``max_sites`` accounting."""
    try:
        trip = probe.tile_hi - probe.tile_lo + 1
        must = layout.planes_per_partition if probe.scheme == "B" else 0
        resolve_tile_size(options.tile_size, trip, must)
    except TransformError:
        return 0
    return 1


def _plannable_indirect(
    opp: Opportunity, options: TransformOptions
) -> int:
    """Indirect twin of :func:`_plannable_direct`."""
    try:
        layout = resolve_layout(opp)
        probe = analyze_indirect(opp, layout, tile_size=1)
        resolve_tile_size(options.tile_size, probe.trip)
    except TransformError:
        return 0
    return 1


# ------------------------------------------------------------ the passes


class InterchangePass:
    """§3.5: move outermost node loops inward where legal.

    Runs before planning so tile sizes are resolved against the
    post-interchange geometry (see the module docstring).  A no-op when
    ``options.interchange == "never"``.
    """

    name = "interchange"

    def applicable(
        self, program: SourceFile, state: "PipelineState"
    ) -> bool:
        return has_candidate_sites(program, state.alltoall_names)

    def apply(
        self,
        program: SourceFile,
        options: TransformOptions,
        state: PipelineState,
    ) -> PassResult:
        report = PassReport(name=self.name)
        if options.interchange == "never":
            report.notes.append(
                "disabled by options.interchange='never'"
            )
            return PassResult(program, report)
        if state.plans is not None:
            raise TransformError(
                "the interchange pass must run before any pass that "
                "planned tile geometry (plans capture post-interchange "
                "loop order)"
            )
        changed = False
        seen = 0  # sites that will consume the planner's max_sites cap
        for unit in program.units:
            result = find_opportunities(
                program,
                unit=unit,
                oracle=state.oracle,
                alltoall_names=state.alltoall_names,
            )
            for opp in result.opportunities:
                # honor max_sites: a site the planner will never rewrite
                # must not have its loop nest silently reshaped either.
                # The budget counts the sites the planner will *accept*
                # (its rejections do not consume the cap), so the
                # accept/reject decision is re-derived here per site.
                if (
                    options.max_sites is not None
                    and seen >= options.max_sites
                ):
                    break
                if opp.kind is not PatternKind.DIRECT:
                    if options.max_sites is not None:
                        seen += _plannable_indirect(opp, options)
                    continue
                try:
                    layout = resolve_layout(opp)
                    probe = analyze_direct(opp, layout, tile_size=1)
                except TransformError:
                    continue  # the planner will reject it with a reason
                if probe.scheme == "B" and layout.rank >= 2:
                    if try_interchange(opp, probe):
                        note = opp.notes[-1]
                        state.interchange_notes[id(opp.nest.root)] = note
                        report.notes.append(f"[{opp.unit.name}] {note}")
                        changed = True
                        probe = analyze_direct(opp, layout, tile_size=1)
                if options.max_sites is not None:
                    seen += _plannable_direct(probe, layout, options)
        report.changed = changed
        return PassResult(program, report, changed=changed)


class TilePass:
    """Resolve the tile geometry (the paper's K) for every site.

    An analysis pass: it computes and publishes the shared
    :class:`SitePlans` without touching the AST, so the rewrite passes
    (and the caller, through the pass report) can inspect the resolved
    K, scheme, and trip count of every site.
    """

    name = "tile"

    def applicable(
        self, program: SourceFile, state: "PipelineState"
    ) -> bool:
        return has_candidate_sites(program, state.alltoall_names)

    def apply(
        self,
        program: SourceFile,
        options: TransformOptions,
        state: PipelineState,
    ) -> PassResult:
        plans = state.ensure_plans(program, options)
        report = PassReport(name=self.name)
        for sp in plans.sites:
            report.notes.append(
                f"[{sp.opp.unit.name}] {sp.kind.value} site on "
                f"{sp.opp.send_array!r}: scheme {sp.scheme}, "
                f"K={sp.tile_size} over trip {sp.trip}"
            )
        return PassResult(program, report)


class CommGenPass:
    """§3.6 rewrite of planned *direct* sites (schemes A and B).

    ``skip_scheme_b=True`` leaves scheme-B sites untransformed (their
    original alltoall stays), ablating the owner-block codegen path.
    """

    name = "commgen"

    def __init__(self, *, skip_scheme_b: bool = False) -> None:
        self.skip_scheme_b = skip_scheme_b

    def config(self) -> Dict[str, Any]:
        return {"skip_scheme_b": self.skip_scheme_b}

    def applicable(
        self, program: SourceFile, state: "PipelineState"
    ) -> bool:
        return has_candidate_sites(program, state.alltoall_names)

    def apply(
        self,
        program: SourceFile,
        options: TransformOptions,
        state: PipelineState,
    ) -> PassResult:
        def skip(sp: SitePlan, report: PassReport) -> bool:
            if self.skip_scheme_b and sp.scheme == "B":
                report.notes.append(
                    f"[{sp.opp.unit.name}] scheme-B site on "
                    f"{sp.opp.send_array!r} left untransformed "
                    f"(skip_scheme_b)"
                )
                return True
            return False

        return _rewrite_planned_sites(
            program,
            options,
            state,
            pass_name=self.name,
            kind=PatternKind.DIRECT,
            rewrite=lambda sp: direct_rewrite(
                sp.opp, sp.layout, sp.names, sp.plan,
                sp.tile_size, sp.tiling,
            ),
            site_report=lambda sp: SiteReport(
                unit=sp.opp.unit.name,
                send_array=sp.opp.send_array,
                recv_array=sp.opp.recv_array,
                kind=PatternKind.DIRECT,
                scheme=sp.plan.scheme,
                tile_size=sp.tile_size,
                trip=sp.trip,
                ntiles=sp.tiling.ntiles,
                leftover=sp.tiling.leftover,
                interchanged=sp.interchanged,
                notes=list(sp.opp.notes),
            ),
            skip=skip,
        )


class IndirectElimPass:
    """§3.4 copy-loop elimination of planned *indirect* sites."""

    name = "indirect-elim"

    def applicable(
        self, program: SourceFile, state: "PipelineState"
    ) -> bool:
        return has_candidate_sites(program, state.alltoall_names)

    def apply(
        self,
        program: SourceFile,
        options: TransformOptions,
        state: PipelineState,
    ) -> PassResult:
        return _rewrite_planned_sites(
            program,
            options,
            state,
            pass_name=self.name,
            kind=PatternKind.INDIRECT,
            rewrite=lambda sp: indirect_rewrite(
                sp.opp, sp.layout, sp.names, sp.plan, sp.tile_size
            ),
            site_report=lambda sp: SiteReport(
                unit=sp.opp.unit.name,
                send_array=sp.opp.send_array,
                recv_array=sp.opp.recv_array,
                kind=PatternKind.INDIRECT,
                scheme="slab",
                tile_size=sp.tile_size,
                trip=sp.plan.trip,
                ntiles=sp.plan.ntiles,
                leftover=sp.plan.leftover,
                dead_arrays=(sp.opp.send_array,),
                notes=list(sp.opp.notes)
                + [
                    f"copy loop over {sp.opp.copy_map.trip_count} "
                    f"elements removed"
                    if sp.opp.copy_map
                    else "copy loop removed"
                ],
            ),
        )


def _rewrite_planned_sites(
    program: SourceFile,
    options: TransformOptions,
    state: PipelineState,
    *,
    pass_name: str,
    kind: PatternKind,
    rewrite,
    site_report,
    skip=None,
) -> PassResult:
    """The shared rewrite-pass skeleton of CommGenPass/IndirectElimPass.

    Walks the planned sites of ``kind``, applies ``rewrite(sp)`` (a
    :class:`TransformError` becomes a :class:`Rejection`, the site is
    left alone), inserts the prolog, and records ``site_report(sp)`` on
    both the plan and the pass report.  ``skip(sp, report)`` may veto a
    site (returning True) after noting why.
    """
    plans = state.ensure_plans(program, options)
    report = PassReport(name=pass_name)
    for sp in plans.sites:
        if sp.kind is not kind or sp.applied:
            continue
        if skip is not None and skip(sp, report):
            continue
        try:
            rewrite(sp)
        except TransformError as exc:
            report.rejections.append(
                Rejection(
                    call=sp.opp.call,
                    call_index=sp.opp.call_index,
                    reason=str(exc),
                )
            )
            continue
        insert_prolog(sp.opp.unit, sp.names)
        sp.applied = True
        sp.report = site_report(sp)
        report.sites.append(sp.report)
    report.changed = bool(report.sites)
    return PassResult(program, report, changed=report.changed)


# ------------------------------------------------------------- pipeline


@dataclass
class PipelineReport:
    """Result of running a :class:`Pipeline` over a program.

    ``source`` is the rewritten AST, ``sites`` the rewritten
    communication sites (in discovery order) and ``rejections`` the
    sites left alone with their reasons; ``passes`` / ``snapshots``
    add the per-pass chain and the intermediate program texts.
    """

    source: SourceFile
    sites: List[SiteReport]
    rejections: List[Rejection]
    pipeline: str = ""
    options: TransformOptions = DEFAULT_TRANSFORM_OPTIONS
    passes: List[PassReport] = field(default_factory=list)
    snapshots: List[PassSnapshot] = field(default_factory=list)

    @property
    def transformed(self) -> bool:
        """Was at least one communication site rewritten?"""
        return bool(self.sites)

    @property
    def dead_arrays(self) -> Tuple[str, ...]:
        out: List[str] = []
        for s in self.sites:
            out.extend(s.dead_arrays)
        return tuple(out)

    def unparse(self) -> str:
        """The transformed program as Fortran source text."""
        return unparse(self.source)

    def describe(self) -> str:
        """Human-readable summary (what the semi-automatic tool prints)."""
        lines: List[str] = []
        for s in self.sites:
            lines.append(
                f"[{s.unit}] {s.kind.value} pattern on {s.send_array!r} -> "
                f"{s.recv_array!r}: scheme {s.scheme}, K={s.tile_size} "
                f"({s.ntiles} tiles"
                + (f" + leftover {s.leftover}" if s.leftover else "")
                + ")"
                + (" [interchanged]" if s.interchanged else "")
            )
            lines.extend(f"    note: {n}" for n in s.notes)
        for r in self.rejections:
            lines.append(f"rejected alltoall site: {r.reason}")
        if not lines:
            lines.append("no transformable communication sites found")
        return "\n".join(lines)

    @property
    def changed(self) -> bool:
        """Did any pass change the program?

        Wider than :attr:`transformed` (which means "a communication
        site was rewritten"): a pipeline of analysis/interchange-style
        passes can change the program without producing a
        :class:`SiteReport`, and such a program still needs §4
        verification and must not be reported as "unchanged".
        """
        return bool(self.sites) or any(p.changed for p in self.passes)

    def describe_passes(self) -> str:
        """The per-pass report chain, human-readable (CLI ``--report``)."""
        header = f"pipeline {self.pipeline or '<anonymous>'}"
        if not self.passes:
            return f"{header}: empty (program unchanged)"
        return "\n".join([header] + [p.describe() for p in self.passes])


class Pipeline:
    """An ordered chain of passes, runnable as one transformation.

    ``Pipeline(())`` is the identity transformation (the ``original``
    variant).  :meth:`run` clones/parses the input program, threads one
    :class:`PipelineState` through the passes, snapshots the program
    text after each pass, and folds the per-pass reports into a
    :class:`PipelineReport`.
    """

    def __init__(
        self,
        passes: Sequence[Pass] = (),
        *,
        name: str = "",
        partial: bool = False,
    ) -> None:
        for p in passes:
            for attr in ("name", "applicable", "apply"):
                if not hasattr(p, attr):
                    raise TransformError(
                        f"{p!r} is not a transform pass (missing "
                        f"{attr!r}; see repro.transform.pipeline.Pass)"
                    )
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.name = name
        #: a deliberately *partial* transformation: leaving a program
        #: unchanged is an expected outcome (measure it as-is), not a
        #: failure.  Full-rewrite pipelines keep the default False, so
        #: a workload none of their passes could rewrite raises instead
        #: of silently reporting speedup 1.0.
        self.partial = partial

    @property
    def empty(self) -> bool:
        return not self.passes

    def identity(self) -> Dict[str, Any]:
        """Canonical JSON-safe identity of this pipeline: its name plus
        each pass's name and configuration.  This is what
        :func:`~repro.interp.runner.job_fingerprint` hashes, so two
        pipelines differing in any pass or knob can never share a
        sweep-cache entry."""
        return {
            "name": self.name,
            "passes": [
                {"pass": p.name, **_pass_config(p)} for p in self.passes
            ],
        }

    def run(
        self,
        program: Union[str, SourceFile],
        options: Optional[TransformOptions] = None,
        *,
        oracle: Optional[Oracle] = None,
        alltoall_names: Sequence[str] = ALLTOALL_NAMES,
        snapshots: bool = True,
    ) -> PipelineReport:
        """Run every pass in order; never mutates the caller's AST."""
        if options is None:
            options = DEFAULT_TRANSFORM_OPTIONS
        source = (
            clone(program)
            if isinstance(program, SourceFile)
            else parse(program)
        )
        state = PipelineState(
            oracle=oracle, alltoall_names=tuple(alltoall_names)
        )
        pass_reports: List[PassReport] = []
        snaps: List[PassSnapshot] = []
        for p in self.passes:
            if not p.applicable(source, state):
                pass_reports.append(
                    PassReport(name=p.name, skipped=True)
                )
                continue
            result = p.apply(source, options, state)
            source = result.program
            pass_reports.append(result.report)
            if snapshots:
                snaps.append(
                    PassSnapshot(
                        pass_name=p.name,
                        text=unparse(source),
                        changed=result.changed,
                    )
                )
        # aggregate rewritten sites in *discovery* order (the plan
        # order), not pass order — the two differ when direct and
        # indirect sites interleave; sites from third-party passes that
        # bypass the planner follow after
        planned = (
            [sp.report for sp in state.plans.sites if sp.report is not None]
            if state.plans is not None
            else []
        )
        planned_ids = {id(r) for r in planned}
        sites = planned + [
            s
            for pr in pass_reports
            for s in pr.sites
            if id(s) not in planned_ids
        ]
        rejections = list(
            state.plans.rejections if state.plans is not None else []
        )
        for pr in pass_reports:
            rejections.extend(pr.rejections)
        return PipelineReport(
            source=source,
            sites=sites,
            rejections=_dedupe(rejections),
            pipeline=self.name,
            options=options,
            passes=pass_reports,
            snapshots=snaps,
        )

    def __repr__(self) -> str:
        chain = " -> ".join(p.name for p in self.passes) or "(empty)"
        return f"Pipeline({self.name!r}: {chain})"


def _pass_config(p: Pass) -> Dict[str, Any]:
    config = getattr(p, "config", None)
    return dict(config()) if callable(config) else {}


# ------------------------------------------------------------- registry


_VARIANTS: Dict[str, Pipeline] = {}


def register_variant(
    name: str, pipeline: Pipeline, *, overwrite: bool = False
) -> Pipeline:
    """Register ``pipeline`` as a named transformation variant.

    Names are the currency of the harness: a registered variant is
    selectable by every ``variant=`` knob (``SweepSpec.variants``,
    :class:`repro.api.CompareRequest`, ``--variant`` on the CLI).
    Registering an existing name raises unless ``overwrite=True`` —
    silently replacing a variant would change what cached sweep keys
    mean.
    """
    if not isinstance(name, str) or not name:
        raise TransformError(
            f"variant name must be a non-empty string, got {name!r}"
        )
    if not isinstance(pipeline, Pipeline):
        raise TransformError(
            f"variant {name!r} must be a Pipeline, got "
            f"{type(pipeline).__name__}"
        )
    if name in _VARIANTS and not overwrite:
        raise TransformError(
            f"variant {name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
    if not pipeline.name:
        pipeline.name = name
    _VARIANTS[name] = pipeline
    return pipeline


def get_variant(name: str) -> Pipeline:
    """The registered pipeline, or :class:`TransformError` naming the
    available variants."""
    try:
        return _VARIANTS[name]
    except KeyError:
        raise TransformError(
            f"unknown variant {name!r}; registered: {list_variants()}"
        ) from None


def list_variants() -> List[str]:
    """Sorted names of every registered variant."""
    return sorted(_VARIANTS)


def resolve_variant(variant: Union[str, Pipeline]) -> Pipeline:
    """A registry name or a Pipeline instance → the Pipeline."""
    if isinstance(variant, Pipeline):
        return variant
    if isinstance(variant, str):
        return get_variant(variant)
    raise TransformError(
        f"variant must be a registered name or a Pipeline, got "
        f"{type(variant).__name__}"
    )


def variant_label(variant: Union[str, Pipeline]) -> str:
    """The axis label of a variant (its registry name, or the
    pipeline's own name for unregistered instances)."""
    if isinstance(variant, str):
        return variant
    if isinstance(variant, Pipeline):
        return variant.name or "<pipeline>"
    raise TransformError(
        f"variant must be a registered name or a Pipeline, got "
        f"{type(variant).__name__}"
    )


def variant_identity(
    variant: Union[str, Pipeline], options: TransformOptions
) -> Dict[str, Any]:
    """The JSON-safe provenance dict a transformed
    :class:`~repro.interp.runner.ClusterJob` carries into
    :func:`~repro.interp.runner.job_fingerprint`: pipeline identity
    (name + passes + per-pass config) plus the canonical transform
    options."""
    return {
        "pipeline": resolve_variant(variant).identity(),
        "options": options.canonical_params(),
    }


# built-in variants ---------------------------------------------------------

register_variant("original", Pipeline((), name="original"))
register_variant(
    "prepush",
    Pipeline(
        (InterchangePass(), TilePass(), CommGenPass(), IndirectElimPass()),
        name="prepush",
    ),
)
register_variant(
    "tile-only",
    Pipeline((TilePass(), CommGenPass()), name="tile-only", partial=True),
)
register_variant(
    "no-interchange",
    Pipeline(
        (TilePass(), CommGenPass(), IndirectElimPass()),
        name="no-interchange",
    ),
)
register_variant(
    "prepush-schemeB-off",
    Pipeline(
        (
            InterchangePass(),
            TilePass(),
            CommGenPass(skip_scheme_b=True),
            IndirectElimPass(),
        ),
        name="prepush-schemeB-off",
        partial=True,
    ),
)
