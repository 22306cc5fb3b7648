"""Command-line interface — the ``compuniformer`` tool.

The CLI is a thin argparse translator over the typed :mod:`repro.api`
surface: each subcommand builds a :class:`~repro.api.Session` (an
``ExecutionContext`` from flags) plus a request object and prints the
response — no execution logic lives here.

Subcommands mirror the workflow of the paper's system:

``transform``  read a mini-Fortran file, pre-push it, write/print the result
``run``        simulate a program on the virtual cluster and report timing
``verify``     transform a program and check original/transformed equivalence
``apps``       list the built-in workloads (with generated source on demand)
``networks``   list the registered network scenarios (the preset registry)
``collectives`` list the registered collective algorithms (defaults marked)
``variants``   list the registered transformation-variant pipelines
``sweep``      regenerate the paper's Figure 1 or an ablation table
               (``sweep TARGET``), or run a custom/JSON spec, through
               the content-addressed result cache, optionally sharded
               over a process pool
``tune``       search the variant x tile x collective x network x nranks
               knob space for the best configuration (DESIGN.md §12):
               a registered strategy proposes candidates, every
               evaluation goes through the result cache, and the run
               emits a seeded, bit-reproducible trajectory
``strategies`` list the registered tune search strategies
``serve``      start the async sweep service (DESIGN.md §11): accepts
               sweep/compare/verify requests over line-delimited JSON,
               coalesces identical work, and shares one result cache
               across every client
``submit``     send a sweep (the same --app/--spec flags as ``sweep``)
               to a running server; also ``--status`` and ``--shutdown``
``cache``      inspect (``info``) or garbage-collect (``prune``) the
               content-addressed result cache

Every ``--network`` flag accepts any name from the scenario registry
(:mod:`repro.runtime.network`): the classic stacks (``hostnet``/``mpich``,
``gmnet``/``mpich-gm``, ``ideal``) plus the extended scenarios —
``gm-rendezvous`` (eager/rendezvous protocol switch), ``gm-2rail``
(striped dual-rail NICs), ``gm-congested`` (queued-transfer dilation),
``rdma-100g`` (modern RDMA-class profile), and ``tcp-10g`` (modern
host-driven Ethernet).  Models registered at runtime via
``register_model`` become selectable the same way.  ``sweep TARGET
--network X`` re-runs an ablation under any scenario.

``--collective`` selects collective algorithms from the registry in
:mod:`repro.runtime.collectives`: a bare algorithm name (``bruck``,
``ring``, applied to every collective registering it) or explicit
``collective=algorithm`` pairs (``alltoall=bruck,allreduce=ring``).
``sweep collectives`` sweeps the whole algorithm x network x workload
axis.

``--variant`` selects a transformation pipeline from the variant
registry (:mod:`repro.transform.pipeline`): ``original``, ``prepush``,
partial ablations like ``tile-only``/``no-interchange``/
``prepush-schemeB-off``, or any pipeline registered at runtime with
``register_variant``.  ``run --variant X`` transforms before
simulating (``--report`` prints the per-pass chain); ``sweep
variants`` sweeps the whole variant x network x workload axis.

``--engine-mode`` (on ``run``/``sweep``) selects the
simulation engine (DESIGN.md §10): ``auto`` (default) replays one
recorded trace for every rank when the program is provably
rank-symmetric — the scaling path to 1024+ ranks — and falls back to
full per-rank interpretation otherwise; ``replay`` forces replay and
errors on asymmetric programs instead of silently falling back;
``full`` always interprets every rank.  All three modes produce
bit-identical results and share result-cache entries.

Examples::

    compuniformer transform kernel.f90 -K 16 -o kernel_pp.f90
    compuniformer run kernel.f90 -n 8 --network gmnet
    compuniformer run kernel.f90 -n 1024 --engine-mode replay
    compuniformer run kernel.f90 -n 8 --collective alltoall=bruck
    compuniformer run kernel.f90 -n 8 --variant prepush --report
    compuniformer verify kernel.f90 -n 8 --network rdma-100g
    compuniformer networks
    compuniformer collectives
    compuniformer variants
    compuniformer sweep figure1 --n 32 -K 4 --no-cache
    compuniformer sweep tile_size --network gm-2rail --no-cache
    compuniformer sweep workloads --collective ring
    compuniformer sweep nodeloop --variant tile-only
    compuniformer sweep scenarios --jobs 8
    compuniformer sweep figure1 --cache-dir .sweep-cache --jobs 4
    compuniformer sweep all --cache-dir .sweep-cache
    compuniformer sweep variants --variant prepush-schemeB-off
    compuniformer sweep --app fft --n 16 --nranks 4 --tile-size 2 \\
        --tile-size 4 --variant tile-only --network gmnet -o sweep.json
    compuniformer sweep --spec myspec.json --no-cache
    compuniformer tune fft --network gmnet --strategy hill-climb \\
        --budget 40 --seed 7 -o tune.json --trajectory tune.jsonl
    compuniformer strategies
    compuniformer serve --cache-dir .sweep-cache --jobs 4 --port 7070
    compuniformer submit --port 7070 --app fft --n 16 --nranks 8
    compuniformer submit --port 7070 --status
    compuniformer submit --port 7070 --shutdown
    compuniformer cache info --cache-dir .sweep-cache
    compuniformer cache prune --cache-dir .sweep-cache --dry-run

``sweep TARGET`` is the one path to every figure: the first (cold) run
simulates and fills ``--cache-dir``; re-runs reproduce the same tables
bit-identically with **zero** simulations (DESIGN.md §7 defines the
content-addressed key and its invalidation rules).  ``--no-cache``
always simulates, and ``--jobs N`` shards the simulations over a
process pool.  A target forwards each single-valued flag (``--n``,
``--nranks``, ``-K``, ``--network``, ``--variant``, ...) to the figure
that takes it and rejects one it cannot honor; ``all`` forwards flags
where they apply.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import List, Optional

from .api import Job, Session, VerifyRequest
from .apps import APP_BUILDERS, build_app
from .errors import ReproError
from .harness import (
    ablation_collectives,
    ablation_network,
    ablation_nodeloop,
    ablation_scaling,
    ablation_scenarios,
    ablation_tile_size,
    ablation_variants,
    ablation_workloads,
    bar_chart,
    figure1,
)
from .runtime.collectives import (
    COLLECTIVES,
    default_algorithm,
    list_algorithms,
)
from .runtime.network import get_model, list_models
from .transform.options import TransformOptions
from .transform.pipeline import get_variant, list_variants

#: ``sweep TARGET`` -> the figure function that regenerates it
_FIGURES = {
    "figure1": figure1,
    "tile_size": ablation_tile_size,
    "scaling": ablation_scaling,
    "network": ablation_network,
    "workloads": ablation_workloads,
    "nodeloop": ablation_nodeloop,
    "scenarios": ablation_scenarios,
    "collectives": ablation_collectives,
    "variants": ablation_variants,
}

def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ReproError(
            f"cannot read source file {path!r}: {exc.strerror or exc}"
        ) from None


def _guard_overwrite(path: Optional[str], force: bool) -> None:
    """Refuse to clobber an existing artifact unless ``--force``.

    Called twice per artifact flag: once up front (so a long sweep or
    tune fails *before* spending the simulations, not after) and once
    inside :func:`_write_json_artifact` (so the guard also holds for a
    file that appeared while the run was in flight).
    """
    if path and not force and os.path.exists(path):
        raise ReproError(
            f"refusing to overwrite existing artifact {path!r}; "
            f"pass --force to replace it"
        )


def _write_json_artifact(path: str, payload, *, force: bool = False) -> None:
    _guard_overwrite(path, force)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {path}", file=sys.stderr)


def _tile_size(text: str):
    return text if text == "auto" else int(text)


def _add_network_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--network",
        choices=list_models(),
        default="mpich-gm",
        help="registered network scenario (default: mpich-gm); "
        "see 'compuniformer networks'",
    )


def _add_engine_mode_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--engine-mode",
        choices=["auto", "replay", "full"],
        default="auto",
        help="simulation engine: 'auto' replays one recorded trace for "
        "all ranks when the program is provably rank-symmetric and "
        "falls back to full per-rank interpretation otherwise; "
        "'replay' forces replay (errors on asymmetric programs); "
        "'full' always interprets every rank (default: auto)",
    )


def _add_collective_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--collective",
        default=None,
        metavar="SPEC",
        help="collective algorithm: a registered name (e.g. 'bruck', "
        "'ring') or 'collective=algorithm' pairs; see "
        "'compuniformer collectives'",
    )


def _add_spec_axis_args(p: argparse.ArgumentParser) -> None:
    """Custom-sweep spec flags shared by ``sweep`` and ``submit``.

    Each repeatable flag contributes one axis value; :func:`_custom_spec`
    folds them into a :class:`~repro.harness.sweep.SweepSpec`.
    """
    p.add_argument(
        "--spec",
        metavar="FILE",
        help="JSON sweep spec (one object or a list; see DESIGN.md §7)",
    )
    p.add_argument("--app", help="custom sweep: workload builder name")
    p.add_argument("--name", help="custom sweep: spec name (default: cli-APP)")
    p.add_argument("--n", type=int, default=None, help="workload size")
    p.add_argument(
        "--nranks",
        type=int,
        action="append",
        default=None,
        help="rank-count axis value (repeatable)",
    )
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--stages", type=int, default=None)
    p.add_argument(
        "-K",
        "--tile-size",
        type=_tile_size,
        action="append",
        default=None,
        help="tile-size axis value (repeatable; default auto)",
    )
    p.add_argument(
        "--variant",
        action="append",
        choices=list_variants(),
        default=None,
        help="variant axis value (repeatable; default original+prepush; "
        "see 'compuniformer variants')",
    )
    p.add_argument(
        "--interchange",
        action="append",
        choices=["auto", "never"],
        default=None,
        help="interchange axis value (repeatable; default auto)",
    )
    p.add_argument(
        "--network",
        action="append",
        choices=list_models(),
        default=None,
        help="network axis value (repeatable; default gmnet)",
    )
    p.add_argument(
        "--collective",
        action="append",
        metavar="SPEC",
        default=None,
        help="collective axis value (repeatable; default registry defaults)",
    )
    p.add_argument(
        "--cpu-scale",
        type=float,
        action="append",
        default=None,
        help="cost-model scale axis value (repeatable; default 1.0)",
    )
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the §4 equivalence check of transformed pairs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compuniformer",
        description=(
            "Automated communication-computation overlap transformation "
            "(Fishgold et al., IPDPS 2006) with a simulated-cluster "
            "evaluation harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="pre-push a mini-Fortran program")
    p.add_argument("file", help="input source file ('-' for stdin)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument(
        "-K",
        "--tile-size",
        type=_tile_size,
        default="auto",
        help="iterations per tile, or 'auto' (default)",
    )
    p.add_argument(
        "--no-interchange",
        action="store_true",
        help="never interchange the node loop (§3.5 fallback)",
    )
    p.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the site report"
    )

    p = sub.add_parser("run", help="simulate a program on the virtual cluster")
    p.add_argument("file")
    p.add_argument("-n", "--nranks", type=int, required=True)
    _add_network_arg(p)
    _add_collective_arg(p)
    p.add_argument(
        "--variant",
        choices=list_variants(),
        default=None,
        help="transform the program through this registered pipeline "
        "before simulating; see 'compuniformer variants'",
    )
    p.add_argument(
        "-K",
        "--tile-size",
        type=_tile_size,
        default="auto",
        help="tile size for --variant transformations (default: auto)",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="print the per-pass transformation report chain "
        "(requires --variant)",
    )
    _add_engine_mode_arg(p)

    p = sub.add_parser(
        "verify", help="transform and check output equivalence (§4)"
    )
    p.add_argument("file")
    p.add_argument("-n", "--nranks", type=int, required=True)
    p.add_argument("-K", "--tile-size", type=_tile_size, default="auto")
    _add_network_arg(p)

    p = sub.add_parser("apps", help="list or print the built-in workloads")
    p.add_argument("name", nargs="?", help="print this workload's source")

    sub.add_parser(
        "networks", help="list the registered network scenarios"
    )

    sub.add_parser(
        "collectives", help="list the registered collective algorithms"
    )

    sub.add_parser(
        "variants",
        help="list the registered transformation-variant pipelines",
    )

    p = sub.add_parser(
        "sweep",
        help="run figure/ablation (or custom) sweeps through the "
        "content-addressed result cache",
    )
    p.add_argument(
        "target",
        nargs="?",
        default=None,
        choices=sorted(_FIGURES) + ["all"],
        help="figure/ablation to sweep (default: all; not combinable "
        "with --spec/--app)",
    )
    _add_spec_axis_args(p)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard uncached simulations over this many worker processes",
    )
    p.add_argument(
        "--cache-dir",
        default=".compuniformer-cache",
        help="content-addressed result cache directory "
        "(default: .compuniformer-cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (always simulate)",
    )
    _add_engine_mode_arg(p)
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write a JSON artifact (tables + stats + measurements)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing -o artifact instead of refusing",
    )

    p = sub.add_parser(
        "tune",
        help="search the variant x collective x network knob space for "
        "the best configuration (DESIGN.md §12)",
    )
    p.add_argument("app", help="workload builder name (see 'apps')")
    p.add_argument(
        "--strategy",
        default="hill-climb",
        help="registered search strategy (default: hill-climb; see "
        "'compuniformer strategies')",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=32,
        help="maximum candidate evaluations (default: 32)",
    )
    p.add_argument(
        "--objective",
        choices=["time", "speedup"],
        default="time",
        help="'time' minimizes virtual completion time; 'speedup' "
        "maximizes time(original)/time(candidate) (default: time)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="strategy RNG seed (default: 0); same seed + warm cache "
        "reproduces the trajectory bit-identically",
    )
    p.add_argument("--n", type=int, default=None, help="workload size")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--stages", type=int, default=None)
    p.add_argument(
        "--nranks",
        type=int,
        action="append",
        default=None,
        help="rank-count axis value (repeatable; default 8)",
    )
    p.add_argument(
        "--variant",
        action="append",
        choices=list_variants(),
        default=None,
        help="variant axis value (repeatable; default: every "
        "registered variant)",
    )
    p.add_argument(
        "-K",
        "--tile-size",
        type=_tile_size,
        action="append",
        default=None,
        help="tile-size axis value (repeatable; default auto,2,4,8,16)",
    )
    p.add_argument(
        "--interchange",
        action="append",
        choices=["auto", "never"],
        default=None,
        help="interchange axis value (repeatable; default auto)",
    )
    p.add_argument(
        "--network",
        action="append",
        choices=list_models(),
        default=None,
        help="network axis value (repeatable; default gmnet)",
    )
    p.add_argument(
        "--collective",
        action="append",
        metavar="SPEC",
        default=None,
        help="collective axis value (repeatable; 'default' for the "
        "registry defaults; default axis: registry defaults + every "
        "non-default alltoall algorithm)",
    )
    p.add_argument(
        "--cpu-scale",
        type=float,
        default=1.0,
        help="compute/communication cost scale (default: 1.0)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard uncached simulations over this many worker processes",
    )
    p.add_argument(
        "--cache-dir",
        default=".compuniformer-cache",
        help="content-addressed result cache directory "
        "(default: .compuniformer-cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (always simulate)",
    )
    _add_engine_mode_arg(p)
    p.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress streamed per-evaluation progress on stderr",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write a JSON artifact (best candidate + full trajectory)",
    )
    p.add_argument(
        "--trajectory",
        metavar="FILE",
        help="write the per-step trajectory as JSONL to FILE",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="overwrite existing -o/--trajectory artifacts instead of "
        "refusing",
    )

    sub.add_parser(
        "strategies",
        help="list the registered tune search strategies",
    )

    p = sub.add_parser(
        "serve",
        help="start the async sweep service over a shared result cache "
        "(DESIGN.md §11)",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = ephemeral, printed at startup)",
    )
    p.add_argument(
        "--cache-dir",
        default=".compuniformer-cache",
        help="shared content-addressed result cache directory "
        "(default: .compuniformer-cache)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without a persistent cache (in-process dedup only)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard simulations over this many worker processes",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=4096,
        help="admission-control budget: reject sweeps that would push "
        "the pending-point count past this (default: 4096)",
    )
    _add_engine_mode_arg(p)

    p = sub.add_parser(
        "submit",
        help="submit a sweep to a running 'compuniformer serve' instance",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="server host (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, required=True, help="server port"
    )
    _add_spec_axis_args(p)
    p.add_argument(
        "--status",
        action="store_true",
        help="print the server's status JSON and exit (no sweep)",
    )
    p.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to drain and stop, then exit (no sweep)",
    )
    p.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress streamed per-point progress on stderr",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the result JSON (runs + stats) to FILE",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing -o artifact instead of refusing",
    )

    p = sub.add_parser(
        "cache",
        help="inspect or prune the content-addressed result cache",
    )
    p.add_argument(
        "action",
        choices=["info", "prune"],
        help="'info' reports entry/byte/version totals; 'prune' deletes "
        "entries recorded under a stale engine or symmetry version and "
        "the lock/in-flight markers older versions left",
    )
    p.add_argument(
        "--cache-dir",
        default=".compuniformer-cache",
        help="cache directory (default: .compuniformer-cache)",
    )
    p.add_argument(
        "--dry-run",
        action="store_true",
        help="prune: report what would be removed without deleting",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "transform":
        options = TransformOptions(
            tile_size=args.tile_size,
            interchange="never" if args.no_interchange else "auto",
        )
        report = get_variant("prepush").run(
            _read_source(args.file), options, snapshots=False
        )
        if not args.quiet:
            print(report.describe(), file=sys.stderr)
        text = report.unparse()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0 if report.transformed else 2

    if args.command == "run":
        if args.report and not args.variant:
            raise ReproError(
                "--report prints a transformation report; pick the "
                "pipeline with --variant (see 'compuniformer variants')"
            )
        if args.tile_size != "auto" and not args.variant:
            raise ReproError(
                "-K/--tile-size configures a transformation; pick the "
                "pipeline with --variant (see 'compuniformer variants')"
            )
        session = Session(
            network=args.network,
            collective=args.collective,
            engine_mode=args.engine_mode,
        )
        program = _read_source(args.file)
        report = None
        if args.variant:
            options = TransformOptions(tile_size=args.tile_size)
            # this run feeds --report and the "unchanged" note only;
            # snapshots (one unparse per pass) are captured just for
            # --report, and the job below re-transforms under
            # cluster_job so the policy/provenance live in one place
            report = session.transform(
                program,
                variant=args.variant,
                options=options,
                snapshots=args.report,
            )
            if args.report:
                print(report.describe_passes(), file=sys.stderr)
            # Session.cluster_job owns the transform-before-run policy
            # (raise when a full-rewrite variant transforms nothing,
            # tolerate deliberately-partial pipelines) and attaches the
            # variant provenance to the job
            job = Job(
                program=program,
                nranks=args.nranks,
                variant=args.variant,
                options=options,
            )
        else:
            job = Job(program=program, nranks=args.nranks)
        m = session.measure(job)
        if args.variant:
            print(f"variant:        {args.variant}")
            if report is not None and not report.changed:
                print(
                    f"note: variant {args.variant!r} left the program "
                    "unchanged",
                    file=sys.stderr,
                )
        print(f"network:        {m.network}")
        print(f"collectives:    {m.collective}")
        print(f"makespan:       {m.time:.6g} s")
        print(f"compute (max):  {m.compute_time:.6g} s")
        print(f"wait (max):     {m.wait_time:.6g} s")
        print(f"mpi cpu (max):  {m.mpi_overhead:.6g} s")
        print(f"messages:       {m.messages}")
        print(f"bytes sent:     {m.bytes_sent}")
        for w in m.warnings:
            print(f"warning: {w}", file=sys.stderr)
        return 0

    if args.command == "verify":
        session = Session(network=args.network)
        result = session.verify(
            VerifyRequest(
                program=_read_source(args.file),
                nranks=args.nranks,
                options=TransformOptions(tile_size=args.tile_size),
            )
        )
        equivalence, report = result.equivalence, result.transform
        print(report.describe())
        if equivalence.equivalent:
            print(
                f"EQUIVALENT (compared arrays: "
                f"{', '.join(equivalence.compared_arrays)})"
            )
            print(
                f"original {equivalence.time_original:.6g} s, prepush "
                f"{equivalence.time_transformed:.6g} s "
                f"(speedup {equivalence.speedup:.3g}x)"
            )
            return 0
        print("NOT EQUIVALENT:")
        for m in equivalence.mismatches:
            print(f"  {m}")
        return 1

    if args.command == "apps":
        if args.name:
            app = build_app(args.name)
            print(app.source, end="")
            return 0
        for name in sorted(APP_BUILDERS):
            print(f"{name:20s} {build_app(name).description}")
        return 0

    if args.command == "networks":
        for name in list_models():
            m = get_model(name)
            alias = f" -> {m.name}" if m.name != name else ""
            rails = f", {m.rails} rails" if m.rails > 1 else ""
            congestion = (
                f", congestion x{m.congestion_factor:g}"
                if m.congestion_factor != 1.0
                else ""
            )
            print(
                f"{name:16s}{alias:14s} latency={m.latency:.3g}s "
                f"byte_time={m.byte_time:.3g}s/B "
                f"offload={'yes' if m.offload else 'no'} "
                f"{m.protocol_label()}{rails}{congestion}"
            )
        return 0

    if args.command == "collectives":
        for coll in COLLECTIVES:
            default = default_algorithm(coll)
            names = ", ".join(
                f"{n} (default)" if n == default else n
                for n in list_algorithms(coll)
            )
            print(f"{coll:12s} {names}")
        return 0

    if args.command == "variants":
        for name in list_variants():
            pipe = get_variant(name)
            chain = " -> ".join(p.name for p in pipe.passes)
            print(f"{name:20s} {chain or '(empty: program unchanged)'}")
        return 0

    if args.command == "sweep":
        return _sweep_command(args)

    if args.command == "tune":
        return _tune_command(args)

    if args.command == "strategies":
        from .tune import get_strategy, list_strategies

        for name in list_strategies():
            factory = get_strategy(name)
            doc = (inspect.getdoc(factory) or "").split("\n")[0]
            print(f"{name:20s} {doc}")
        return 0

    if args.command == "serve":
        return _serve_command(args)

    if args.command == "submit":
        return _submit_command(args)

    if args.command == "cache":
        return _cache_command(args)

    raise ReproError(f"unhandled command {args.command!r}")


def _load_spec_file(path: str) -> List["SweepSpec"]:
    from .harness.sweep import SweepSpec

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read sweep spec {path!r}: {exc}") from None
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not data:
        raise ReproError(
            f"sweep spec {path!r} must hold one JSON object or a "
            "non-empty list of them"
        )
    return [SweepSpec.from_dict(item) for item in data]


def _custom_spec(args: argparse.Namespace) -> "SweepSpec":
    from .harness.sweep import SweepSpec

    app_kwargs = {
        key: value
        for key, value in (
            ("n", args.n),
            ("steps", args.steps),
            ("stages", args.stages),
        )
        if value is not None
    }
    return SweepSpec(
        name=args.name or f"cli-{args.app}",
        app=args.app,
        app_kwargs=app_kwargs,
        nranks=tuple(args.nranks or (8,)),
        variants=tuple(args.variant or ("original", "prepush")),
        tile_sizes=tuple(args.tile_size or ("auto",)),
        interchange=tuple(args.interchange or ("auto",)),
        networks=tuple(args.network or ("gmnet",)),
        collectives=tuple(args.collective or (None,)),
        cpu_scales=tuple(args.cpu_scale or (1.0,)),
        verify=not args.no_verify,
    )


#: repeatable flag -> the plural keyword a figure may accept instead of
#: the single-valued one (``ablation_variants(variants=...)``,
#: ``ablation_collectives(networks=...)``)
_PLURAL_FIGURE_KEYS = {"--network": "networks", "--variant": "variants"}


def _check_figure_flags(
    args: argparse.Namespace, accepted=None
) -> None:
    """Reject sweep flags no figure target can honor.

    A figure's axes are its own; silently dropping or collapsing a flag
    would run a different sweep than the one asked for.  Multi-valued
    and axis-only flags error here — except when the (single, strict)
    target accepts the plural keyword (``accepted`` holds its
    parameter names), in which case the repeated values feed that axis.
    Single-valued flags a specific figure does not accept error in
    :func:`_figure_kwargs` — only ``all`` forwards flags "where
    applicable".
    """
    accepted = accepted or set()
    rejected = []
    if args.interchange:
        rejected.append("--interchange")
    for flag, values in (
        ("--tile-size/-K", args.tile_size),
        ("--nranks", args.nranks),
        ("--network", args.network),
        ("--collective", args.collective),
        ("--cpu-scale", args.cpu_scale),
        ("--variant", args.variant),
    ):
        if values and len(values) > 1:
            if _PLURAL_FIGURE_KEYS.get(flag) in accepted:
                continue
            rejected.append(f"repeated {flag}")
    if rejected:
        raise ReproError(
            f"{', '.join(rejected)} only apply to custom sweeps "
            "(--app/--spec); figure targets define their own axes"
        )


def _figure_kwargs(fn, args: argparse.Namespace, strict: bool) -> dict:
    """The sweep flags that were provided and that ``fn`` accepts, as
    its keywords.

    With ``strict`` (a single named target), a provided flag the figure
    does not accept is an error rather than a silent no-op; ``all``
    forwards flags where applicable.
    """
    candidates = {
        "n": ("--n", args.n),
        "nranks": ("--nranks", args.nranks[0] if args.nranks else None),
        "steps": ("--steps", args.steps),
        "stages": ("--stages", args.stages),
        "tile_size": (
            "--tile-size/-K",
            args.tile_size[0] if args.tile_size else None,
        ),
        "cpu_scale": (
            "--cpu-scale",
            args.cpu_scale[0] if args.cpu_scale else None,
        ),
        "network": ("--network", args.network[0] if args.network else None),
        "networks": (
            "--network",
            tuple(args.network) if args.network else None,
        ),
        "collective": (
            "--collective",
            args.collective[0] if args.collective else None,
        ),
        "variant": ("--variant", args.variant[0] if args.variant else None),
        "variants": (
            "--variant",
            tuple(args.variant) if args.variant else None,
        ),
        "verify": ("--no-verify", False if args.no_verify else None),
    }
    accepted = inspect.signature(fn).parameters
    provided = {
        key: (flag, value)
        for key, (flag, value) in candidates.items()
        if value is not None
    }
    if strict:
        # one CLI flag may map to several candidate keywords (--variant
        # feeds `variant` or `variants`); it is unusable only when the
        # figure accepts none of them
        accepted_flags = {
            flag for key, (flag, _) in provided.items() if key in accepted
        }
        unusable = sorted(
            {
                flag
                for key, (flag, _) in provided.items()
                if key not in accepted and flag not in accepted_flags
            }
        )
        if unusable:
            raise ReproError(
                f"{', '.join(unusable)} not supported by this figure "
                f"target (accepted: "
                f"{', '.join(k for k in provided if k in accepted) or 'none'})"
            )
    return {
        key: value
        for key, (_, value) in provided.items()
        if key in accepted
    }


def _table_to_json(table) -> dict:
    return {
        "title": table.title,
        "columns": table.columns,
        "rows": table.rows,
        "notes": table.notes,
    }


def _generic_sweep_table(res) -> "Table":
    from .harness.report import Table

    table = Table(
        title=f"Sweep — {', '.join(s.name for s in res.specs)}",
        columns=[
            "spec",
            "app",
            "variant",
            "NP",
            "K",
            "network",
            "collective",
            "cpu_scale",
            "time_s",
            "comm_s",
            "messages",
            "cached",
        ],
    )
    for run in res.runs:
        m = run.measurement
        table.add(
            run.axes["spec"],
            run.axes["app"],
            run.axes["variant"],
            run.axes["nranks"],
            str(run.axes["tile_size"]),
            run.axes["network"],
            run.axes["collective"],
            run.axes["cpu_scale"],
            m.time,
            m.comm_cost,
            m.messages,
            "yes" if run.cached else "no",
        )
    return table


def _sweep_command(args: argparse.Namespace) -> int:
    from .runtime.simulator import ENGINE_VERSION

    _guard_overwrite(args.output, args.force)
    artifact = {"engine": ENGINE_VERSION, "tables": []}
    with Session(
        cache_dir=None if args.no_cache else args.cache_dir,
        jobs=args.jobs,
        engine_mode=args.engine_mode,
    ) as session:
        if args.spec or args.app:
            if args.spec and args.app:
                raise ReproError("--spec and --app are mutually exclusive")
            if args.target:
                raise ReproError(
                    f"figure target {args.target!r} and --spec/--app are "
                    "mutually exclusive"
                )
            specs = (
                _load_spec_file(args.spec) if args.spec else [_custom_spec(args)]
            )
            res = session.sweep(specs)
            table = _generic_sweep_table(res)
            print(table.render())
            artifact["tables"].append(_table_to_json(table))
            artifact["result"] = res.to_json()
            print(f"sweep: {res.stats.summary()}", file=sys.stderr)
        else:
            target = args.target or "all"
            strict = target != "all"
            _check_figure_flags(
                args,
                accepted=(
                    set(inspect.signature(_FIGURES[target]).parameters)
                    if strict
                    else None
                ),
            )
            names = sorted(_FIGURES) if target == "all" else [target]
            for i, name in enumerate(names):
                fn = _FIGURES[name]
                table = fn(
                    session=session,
                    **_figure_kwargs(fn, args, strict),
                )
                if i:
                    print()
                print(table.render())
                if name == "figure1":
                    print()
                    print(
                        bar_chart(
                            [f"{row[0]}/{row[1]}" for row in table.rows],
                            [float(row[3]) for row in table.rows],
                            unit="x",
                        )
                    )
                artifact["tables"].append(_table_to_json(table))

        if session.cache is not None:
            print(
                f"cache[{args.cache_dir}]: {session.cache.stats.summary()}",
                file=sys.stderr,
            )
            artifact["cache"] = vars(session.cache.stats).copy()
    if args.output:
        _write_json_artifact(args.output, artifact, force=args.force)
    return 0


def _tune_command(args: argparse.Namespace) -> int:
    from .tune import default_space

    _guard_overwrite(args.output, args.force)
    _guard_overwrite(args.trajectory, args.force)
    app_kwargs = {
        key: value
        for key, value in (
            ("n", args.n),
            ("steps", args.steps),
            ("stages", args.stages),
        )
        if value is not None
    }
    space_kwargs = {}
    if args.variant:
        space_kwargs["variants"] = tuple(args.variant)
    if args.tile_size:
        space_kwargs["tile_sizes"] = tuple(args.tile_size)
    if args.interchange:
        space_kwargs["interchange"] = tuple(args.interchange)
    if args.collective:
        space_kwargs["collectives"] = tuple(
            None if c == "default" else c for c in args.collective
        )
    space = default_space(
        args.app,
        app_kwargs=app_kwargs,
        networks=tuple(args.network or ("gmnet",)),
        nranks=tuple(args.nranks or (8,)),
        cpu_scale=args.cpu_scale,
        **space_kwargs,
    )

    def _progress(step) -> None:
        cand = ", ".join(f"{k}={v}" for k, v in step.candidate.items())
        print(
            f"[{step.step + 1}/{args.budget}] {step.objective:.6g}s "
            f"(best {step.best_objective:.6g}s) "
            f"{'cache' if step.cache_hit else 'sim'}  {cand}",
            file=sys.stderr,
        )

    with Session(
        cache_dir=None if args.no_cache else args.cache_dir,
        jobs=args.jobs,
        engine_mode=args.engine_mode,
        seed=args.seed,
    ) as session:
        result = session.tune(
            space,
            strategy=args.strategy,
            budget=args.budget,
            objective=args.objective,
            on_step=None if args.quiet else _progress,
        )

    print(result.summary())
    print()
    print(result.trajectory.render())
    if args.trajectory:
        _guard_overwrite(args.trajectory, args.force)
        result.trajectory.write(args.trajectory)
        print(f"wrote {args.trajectory}", file=sys.stderr)
    if args.output:
        artifact = result.to_dict()
        artifact["trajectory"] = {
            "header": result.trajectory.header,
            "steps": [s.to_dict() for s in result.trajectory.steps],
        }
        _write_json_artifact(args.output, artifact, force=args.force)
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve.server import SweepServer

    async def _run() -> None:
        server = SweepServer(
            host=args.host,
            port=args.port,
            max_pending_points=args.max_pending,
            cache_dir=None if args.no_cache else args.cache_dir,
            jobs=args.jobs,
            engine_mode=args.engine_mode,
        )
        await server.start()
        loop = asyncio.get_running_loop()

        def _stop() -> None:
            asyncio.ensure_future(server.shutdown(drain=True))

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _stop)
            except (NotImplementedError, RuntimeError):
                pass  # event loops without signal support (e.g. Windows)
        # the port line goes to stdout so scripts can scrape the
        # ephemeral port; everything else is stderr chatter
        print(f"serving on {server.host}:{server.port}", flush=True)
        print(
            f"cache={'off' if args.no_cache else args.cache_dir} "
            f"jobs={args.jobs or 1} max_pending={args.max_pending} "
            f"engine_mode={args.engine_mode} — Ctrl-C drains and stops",
            file=sys.stderr,
            flush=True,
        )
        await server.wait_closed()

    asyncio.run(_run())
    return 0


def _result_table(result: dict) -> "Table":
    """Render a serve sweep result (JSON, not ``SweepResult``) as the
    same table :func:`_generic_sweep_table` prints for local sweeps."""
    from .harness.report import Table

    names = [s.get("name", "?") for s in result.get("specs", [])]
    table = Table(
        title=f"Sweep — {', '.join(names)}",
        columns=[
            "spec",
            "app",
            "variant",
            "NP",
            "K",
            "network",
            "collective",
            "cpu_scale",
            "time_s",
            "comm_s",
            "messages",
            "cached",
        ],
    )
    for run in result["runs"]:
        axes = run["axes"]
        m = run["measurement"]
        table.add(
            axes["spec"],
            axes["app"],
            axes["variant"],
            axes["nranks"],
            str(axes["tile_size"]),
            axes["network"],
            axes["collective"],
            axes["cpu_scale"],
            m["time"],
            m["wait_time"] + m["mpi_overhead"],
            m["messages"],
            "yes" if run["cached"] else "no",
        )
    return table


def _submit_command(args: argparse.Namespace) -> int:
    from .serve.client import ServeClient

    _guard_overwrite(args.output, args.force)
    try:
        client = ServeClient(args.host, args.port)
    except OSError as exc:
        raise ReproError(
            f"cannot connect to {args.host}:{args.port} — is "
            f"'compuniformer serve' running there? ({exc})"
        ) from None
    with client:
        if args.status:
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown(drain=True)
            print("server draining and stopping", file=sys.stderr)
            return 0
        if args.spec and args.app:
            raise ReproError("--spec and --app are mutually exclusive")
        if not (args.spec or args.app):
            raise ReproError(
                "submit needs a sweep: --spec FILE or --app NAME "
                "(or --status / --shutdown)"
            )
        specs = (
            _load_spec_file(args.spec) if args.spec else [_custom_spec(args)]
        )

        def _progress(event: dict) -> None:
            if event.get("event") != "point":
                return
            axes = event.get("axes", {})
            print(
                f"[{event['seq']}/{event['total']}] "
                f"{axes.get('app')}/{axes.get('variant')} "
                f"NP={axes.get('nranks')} {axes.get('network')} "
                f"{event['source']} {event['time']:.6g}s",
                file=sys.stderr,
            )

        result = client.sweep(
            [s.to_dict() for s in specs],
            on_event=None if args.quiet else _progress,
        )
    print(_result_table(result).render())
    print(
        "serve: {points} points, {simulated} simulated, "
        "{cache_hits} cache hits, "
        "{coalesced} coalesced".format(**result["stats"]),
        file=sys.stderr,
    )
    if args.output:
        _write_json_artifact(args.output, result, force=args.force)
    return 0


def _cache_command(args: argparse.Namespace) -> int:
    from .harness.sweep import SweepCache

    cache = SweepCache(args.cache_dir)
    if args.action == "info":
        info = cache.info()
        print(f"cache root:       {info['root']}")
        print(f"entries:          {info['entries']} ({info['bytes']} bytes)")
        for kind, count in info["kinds"].items():
            print(f"  kind {kind:<12s} {count}")
        for label, count in info["versions"].items():
            print(f"  {label:<30s} {count}")
        print(f"current version:  {info['current_version']}")
        print(
            f"stale entries:    {info['stale_entries']} "
            f"({info['stale_bytes']} bytes; 'prune' deletes these)"
        )
        return 0
    report = cache.prune(dry_run=args.dry_run)
    verb = "would remove" if report["dry_run"] else "removed"
    print(
        f"{verb} {report['removed']} stale entries "
        f"({report['freed_bytes']} bytes), kept {report['kept']}"
    )
    print(
        f"{verb} {report['markers_removed']} lock/in-flight markers "
        "left by older versions"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
