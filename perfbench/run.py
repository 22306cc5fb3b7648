"""Run the repro benchmark: one workload, or all of them.

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a checkout: the package is imported from
``src/`` next to this directory, never from an installed copy, and the
command fails without printing a result when ``src/`` is missing.

One process, one client, closed loop, serial: every pass runs after the
previous one returned, with no process pool and no threads.  With
``--trace 0`` the command reports the end-to-end metrics, each pass
untraced:

* ``setup_s`` -- median wall time of 5 fresh processes that import
  ``repro`` and set the workload up (for ``tune-warm`` that includes the
  cold searches filling the cache), then exit;
* ``pass_best_s`` -- one fixed-size pass made of the fastest time of
  each of its units (a figure, a replay job or a tune search) across
  the run.  The median whole pass (``pass_s``) is printed as well, but
  co-tenant CPU contention on a shared VM slows whole runs by up to
  25%, which moves medians between runs far more than best times;
* ``peak_rss_mb`` -- peak resident memory of this process, which runs
  only the one workload.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of :func:`tracer.layer_metrics`, per traced pass,
plus the tracing overhead (best traced minus best untraced pass).  The spans go to
``.perfbench/spans/<workload>-seed<seed>.jsonl``.

Human-readable lines (metric, value, unit, sample count) come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation of every pass succeeded and matched its golden digest.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench"
NAMES = ("paper-figures", "replay-scale", "tune-warm")

#: fresh processes timed for ``setup_s``
SETUP_REPEATS = 5
#: passes measured even when they overrun ``--seconds``
MIN_PASSES = 3
#: (untraced, traced) pass pairs measured with ``--trace 1``
MIN_TRACED_PAIRS = 2

Metrics = Dict[str, Tuple[float, str]]


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument(
        "--seconds", type=float, default=30.0, help="measuring time of the run"
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set the workload up and exit (one ``setup_s`` sample)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _command(args: argparse.Namespace, workload: str, *extra: str) -> List[str]:
    return [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        *extra,
    ]


def _setup_seconds(args: argparse.Namespace) -> float:
    """Wall time of one fresh process that only sets the workload up."""
    t0 = time.perf_counter()
    subprocess.run(
        _command(args, args.workload, "--setup-probe"),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=150,
    )
    return time.perf_counter() - t0


class Run:
    """The passes of one set-up workload and their outcome."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.units = workload.units()
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer: Any = None) -> List[float]:
        """Run every unit once; returns the wall time of each."""
        gc.collect()
        times: List[float] = []
        produced: List[Any] = []
        with tracer.tracing() if tracer is not None else nullcontext():
            for unit in self.units:
                t0 = time.perf_counter()
                try:
                    result = unit()
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    result = None
                times.append(time.perf_counter() - t0)
                produced.append(result)
        attempted, failed = self.workload.check(produced)
        self.attempted += attempted
        self.failed += failed
        return times


def best(passes: List[List[float]]) -> float:
    """A pass made of every unit's fastest time across ``passes``."""
    return sum(min(unit) for unit in zip(*passes))


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.4g}, q3={q3:.4g}"


def measure(run: Run, args: argparse.Namespace, setup: List[float]) -> Metrics:
    passes: List[List[float]] = []
    totals: List[float] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(totals) <= args.seconds
    ):
        passes.append(run.one_pass())
        totals.append(sum(passes[-1]))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'setup_s':34s} {statistics.median(setup):.6g} s ({_spread(setup)})")
    print(f"{'pass_s':34s} {statistics.median(totals):.6g} s ({_spread(totals)})")
    print(f"{'pass_best_s':34s} {best(passes):.6g} s (n={len(passes)})")
    print(f"{'peak_rss_mb':34s} {peak:.6g} MB (n=1)")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "pass_best_s": (best(passes), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def measure_traced(run: Run, args: argparse.Namespace) -> Metrics:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    plain: List[List[float]] = []
    traced: List[List[float]] = []
    pair_s: List[float] = []
    start = time.perf_counter()
    while len(pair_s) < MIN_TRACED_PAIRS or (
        time.perf_counter() - start + statistics.median(pair_s) <= args.seconds
    ):
        plain.append(run.one_pass())
        traced.append(run.one_pass(tracer))
        pair_s.append(sum(plain[-1]) + sum(traced[-1]))
    metrics = layer_metrics(tracer, len(traced), run.workload.predicted)
    metrics["pass_s.untraced"] = (statistics.median(map(sum, plain)), "s")
    metrics["pass_s.traced"] = (statistics.median(map(sum, traced)), "s")
    metrics["pass_best_s.untraced"] = (best(plain), "s")
    metrics["pass_best_s.traced"] = (best(traced), "s")
    overhead = best(traced) - best(plain)
    metrics["tracer.overhead_s"] = (overhead, "s")
    metrics["tracer.overhead_frac"] = (overhead / best(plain), "ratio")
    metrics["trace.passes"] = (float(len(traced)), "count")
    spans = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    metrics["trace.spans"] = (float(tracer.write_spans(spans)), "count")

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit} (n={len(traced)} traced passes)")
    share = metrics["prediction.share"][0]
    verdict = "holds" if share >= 0.5 else "does NOT hold"
    print(
        f"prediction: {' + '.join(run.workload.predicted)} take {share:.1%} of "
        f"traced pass time (rule: at least 50%) -- {verdict}"
    )
    print(f"spans written to {spans.relative_to(ROOT)}")
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS, version_key

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.setup_probe:
            WORKLOADS[args.workload]().setup(args.seed, workdir)
            return 0
        probes = 0 if args.trace else SETUP_REPEATS
        setup = [_setup_seconds(args) for _ in range(probes)]
        workload = WORKLOADS[args.workload]()
        workload.setup(args.seed, workdir)
        run = Run(workload)
        metrics = measure_traced(run, args) if args.trace else measure(run, args, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    golden = run.workload.golden
    if golden.expected and not golden.pinned:
        print(f"golden: nothing pinned for {version_key()}; observed {golden.expected}")
    print(
        f"{'failed_frac':34s} {run.failed / max(run.attempted, 1):.6g} ratio "
        f"(failed {run.failed} of {run.attempted} operations)"
    )
    return emit(run.attempted, run.failed, metrics)


def emit(attempted: int, failed: int, metrics: Metrics) -> int:
    correct = attempted > 0 and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (so ``peak_rss_mb`` is its own)."""
    attempted = failed = 0
    metrics: Metrics = {}
    for name in NAMES:
        proc = subprocess.run(
            _command(args, name), stdout=subprocess.PIPE, text=True, timeout=600
        )
        lines = proc.stdout.splitlines()
        if not lines:
            print(f"{name}: no result (exit code {proc.returncode})")
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    return emit(attempted, failed, metrics)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources at {ROOT / 'src'}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
