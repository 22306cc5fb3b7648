"""Outside-in layer tracer: spans around calls into each layer of ``repro``.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` rebinds the
public entry points of each layer to timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so untraced passes run
the unmodified code.  Module-level functions are rebound *by identity* in
every loaded ``repro`` module, which also catches names imported by
value (``parse`` in ``interp.runner``, ``interp.replay`` and
``transform.pipeline``; ``find_opportunities`` in ``transform.pipeline``;
``_execute_sweep`` in ``api.session``; ...).  Methods are rebound on
their class.

Every wrapped call becomes a span ``(id, name, start, end, parent,
error)`` kept in memory and written out by :meth:`Tracer.write_spans`.
Self time is a span's duration minus the time its child spans cover.

The rank generators handed to ``Engine`` are wrapped as well, so the time
spent inside them (``interp.exec`` for per-rank interpreters,
``runtime.replay_ranks`` for the replay engine's per-rank op streams) is
split from the engine's own scheduling.  A generator is resumed once per
engine step, so its resumes are aggregated per name into the enclosing
``runtime.engine`` span instead of being kept one by one.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis import patterns
from repro.harness import runner as harness_runner
from repro.harness import sweep
from repro.interp import replay, runner
from repro.lang import parser, unparser
from repro.runtime.simulator import Engine
from repro.transform import pipeline
from repro.tune import driver, space, strategies

#: layers that share the traced pass time; ``bench`` is the part of a
#: pass no traced call covers (figure tables, Session construction)
LAYERS = (
    "lang",
    "analysis",
    "transform",
    "interp",
    "runtime",
    "harness",
    "tune",
    "bench",
)

#: the transform passes of the built-in variants
PASSES = ("interchange", "tile", "commgen", "indirect-elim")

#: root span around each traced pass
PASS_SPAN = "bench.pass"

#: span name of a rank generator, keyed by the generator's function name
RANK_GENERATORS = {
    "run_collecting": "interp.exec",
    "_replay_rank": "runtime.replay_ranks",
}

#: module-level functions, rebound wherever a ``repro`` module holds them
FUNCTIONS: Tuple[Tuple[Callable[..., Any], str], ...] = (
    (parser.parse, "lang.parse"),
    (unparser.unparse, "lang.unparse"),
    (patterns.find_opportunities, "analysis.find_opportunities"),
    (sweep.expand_spec, "harness.expand"),
    (runner.job_fingerprint, "harness.fingerprint"),
    (sweep._execute_sweep, "harness.sweep"),
    (runner.execute_job, "interp.job"),
    (runner._simulate, "interp.full"),
    (replay.replay_cluster, "interp.replay"),
    (replay.record_trace, "interp.symmetry.record"),
    (driver.tune, "tune.run"),
)


def _methods() -> List[Tuple[type, str, str]]:
    """``(class, method, span name)`` for every traced method."""
    out = [
        (Engine, "run", "runtime.engine"),
        (pipeline.Pipeline, "run", "transform.pipeline"),
        (sweep.SweepCache, "get", "harness.cache.get"),
        (sweep.SweepCache, "put", "harness.cache.put"),
        (harness_runner.PreparedApp, "check_equivalence", "harness.verify"),
        (space.SearchSpace, "normalize", "tune.normalize"),
    ]
    passes = {}
    for variant in pipeline.list_variants():
        for p in pipeline.get_variant(variant).passes:
            passes[type(p)] = p.name
    for cls, name in sorted(passes.items(), key=lambda kv: kv[1]):
        out.append((cls, "apply", f"transform.pass.{name}"))
    for name in strategies.list_strategies():
        factory = strategies.get_strategy(name)
        if isinstance(factory, type):
            out.append((factory, "ask", "tune.ask"))
            out.append((factory, "tell", "tune.tell"))
    return out


class _Frame:
    __slots__ = ("name", "start", "child", "id", "parent", "agg")

    def __init__(self, name: str, start: float, id_: int, parent: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.id = id_
        self.parent = parent
        self.agg: Optional[Dict[str, List[float]]] = None


class _RankGen:
    """A rank generator whose every resume is timed (``Engine`` only
    calls ``send``)."""

    __slots__ = ("_tracer", "_send", "_name")

    def __init__(self, tracer: "Tracer", gen: Any, name: str) -> None:
        self._tracer = tracer
        self._send = gen.send
        self._name = name

    def send(self, value: Any) -> Any:
        frame = self._tracer.enter(self._name)
        try:
            return self._send(value)
        finally:
            self._tracer.exit(frame, keep=False)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, Optional[str], Any]] = []
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: named event counts gathered from return values
        self.counts: Dict[str, int] = {}
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._undo: List[Tuple[Any, str, Any]] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------ spans

    def enter(self, name: str) -> _Frame:
        parent = self._stack[-1].id if self._stack else 0
        frame = _Frame(name, time.perf_counter(), self._next_id, parent)
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(
        self, frame: _Frame, error: Optional[str] = None, keep: bool = True
    ) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        total = self.totals.get(frame.name)
        if total is None:
            total = self.totals[frame.name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += own
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if keep:
            self.spans.append(
                (frame.id, frame.name, frame.start, end, frame.parent, error, frame.agg)
            )
        elif parent is not None:
            if parent.agg is None:
                parent.agg = {}
            agg = parent.agg.setdefault(frame.name, [0, 0.0])
            agg[0] += 1
            agg[1] += duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable[..., Any]:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame, type(exc).__name__)
                raise
            tracer.exit(frame)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return traced

    # ---------------------------------------------------------- patches

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every traced entry point; :meth:`uninstall` undoes it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "harness.sweep": _count_sweep,
            "harness.cache.get": _count_cache_get,
            "tune.run": _count_tune,
            "runtime.engine": _count_engine,
        }
        wrappers = {
            id(fn): self.wrap(fn, name, hooks.get(name)) for fn, name in FUNCTIONS
        }
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "repro" or modname.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(module, attr, wrapper)
        for cls, attr, name in _methods():
            self._set(cls, attr, self.wrap(cls.__dict__[attr], name, hooks.get(name)))

        tracer = self
        engine_init = Engine.__dict__["__init__"]

        def init(engine: Engine, programs: Any, *args: Any, **kwargs: Any) -> None:
            wrapped = [
                _RankGen(
                    tracer,
                    gen,
                    RANK_GENERATORS.get(
                        getattr(getattr(gen, "gi_code", None), "co_name", ""),
                        "interp.exec",
                    ),
                )
                for gen in programs
            ]
            engine_init(engine, wrapped, *args, **kwargs)

        self._set(Engine, "__init__", init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def tracing(self) -> Iterator[None]:
        """Trace the enclosed pass under one root span."""
        self.install()
        frame = self.enter(PASS_SPAN)
        try:
            yield
        finally:
            self.exit(frame)
            self.uninstall()

    # ----------------------------------------------------------- output

    def write_spans(self, path: Any) -> int:
        """Write every kept span as one JSON line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for id_, name, start, end, parent, error, agg in self.spans:
                record = {
                    "id": id_,
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                }
                if error is not None:
                    record["error"] = error
                if agg is not None:
                    record["resumes"] = agg
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        return len(self.spans)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def errors(self, name: str, error: str) -> Tuple[int, float]:
        """``(count, seconds)`` of ``name`` spans that raised ``error``."""
        hits = [s for s in self.spans if s[1] == name and s[5] == error]
        return len(hits), sum(s[3] - s[2] for s in hits)

    def seconds_under(self, name: str, ancestor: str) -> float:
        """Total time of ``name`` spans with an ``ancestor`` span above."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span in self.spans:
            if span[1] != name:
                continue
            parent = by_id.get(span[4])
            while parent is not None and parent[1] != ancestor:
                parent = by_id.get(parent[4])
            if parent is not None:
                total += span[3] - span[2]
        return total


def _count_sweep(tracer: Tracer, result: Any) -> None:
    tracer.count("harness.sweep.points", result.stats.points)
    tracer.count("harness.sweep.simulated", result.stats.simulated)


def _count_cache_get(tracer: Tracer, result: Any) -> None:
    if result is not None:
        tracer.count("harness.cache.hits")


def _count_tune(tracer: Tracer, result: Any) -> None:
    tracer.count("tune.evals", result.evaluations)


def _count_engine(tracer: Tracer, result: Any) -> None:
    tracer.count("runtime.engine.ops", result.ops_processed)
    tracer.count("runtime.messages", sum(s.messages_sent for s in result.stats))
    tracer.count("runtime.bytes", sum(s.bytes_sent for s in result.stats))


# ------------------------------------------------------------ metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def share_of(tracer: Tracer, prefixes: Tuple[str, ...]) -> float:
    """Self time of the spans named by ``prefixes`` (a name or a dotted
    prefix of names), as a share of the traced pass time."""
    own = sum(
        total[2]
        for name, total in tracer.totals.items()
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )
    return _ratio(own, tracer.seconds(PASS_SPAN))


def layer_metrics(
    tracer: Tracer, passes: int, predicted: Tuple[str, ...]
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, per traced pass: ``name -> (value, unit)``.

    Each ratio's base is reported next to it under its own name.
    """
    per = 1.0 / passes
    out: Dict[str, Tuple[float, str]] = {}

    def secs(metric: str, span: str, own: bool = False) -> None:
        value = tracer.self_seconds(span) if own else tracer.seconds(span)
        out[metric] = (value * per, "s")

    def calls(metric: str, span: str) -> None:
        out[metric] = (tracer.calls(span) * per, "count")

    def count(metric: str, unit: str = "count") -> None:
        out[metric] = (tracer.counts.get(metric, 0) * per, unit)

    def ratio(metric: str, num: float, den: float, unit: str = "ratio") -> None:
        out[metric] = (_ratio(num, den), unit)

    secs("interp.exec.s", "interp.exec", own=True)
    calls("interp.jobs", "interp.job")
    calls("interp.full.jobs", "interp.full")
    calls("interp.symmetry.record.calls", "interp.symmetry.record")
    secs("interp.symmetry.record.s", "interp.symmetry.record")
    fallbacks, wasted = tracer.errors("interp.symmetry.record", "SymmetryError")
    out["interp.symmetry.fallbacks"] = (fallbacks * per, "count")
    out["interp.symmetry.fallback_s"] = (wasted * per, "s")
    replayed = (
        tracer.calls("interp.replay")
        - tracer.errors("interp.replay", "SymmetryError")[0]
    )
    out["interp.replay.jobs"] = (replayed * per, "count")
    ratio("interp.replay.ratio", replayed, tracer.calls("interp.job"))

    calls("runtime.engine.runs", "runtime.engine")
    secs("runtime.engine.s", "runtime.engine")
    secs("runtime.engine.self_s", "runtime.engine", own=True)
    secs("runtime.replay_ranks.s", "runtime.replay_ranks", own=True)
    count("runtime.engine.ops")
    ratio(
        "runtime.engine.ops_per_s",
        tracer.counts.get("runtime.engine.ops", 0),
        tracer.seconds("runtime.engine"),
        "1/s",
    )
    count("runtime.messages")
    count("runtime.bytes", "B")

    for span in (
        "lang.parse",
        "lang.unparse",
        "analysis.find_opportunities",
        "transform.pipeline",
        "harness.fingerprint",
        "harness.cache.get",
        "harness.cache.put",
        "harness.verify",
        "harness.expand",
    ):
        calls(f"{span}.calls", span)
        secs(f"{span}.s", span)
    for name in PASSES:
        secs(f"transform.pass.{name}.s", f"transform.pass.{name}")
    count("harness.cache.hits")
    ratio(
        "harness.cache.hit_ratio",
        tracer.counts.get("harness.cache.hits", 0),
        tracer.calls("harness.cache.get"),
    )
    calls("harness.sweep.calls", "harness.sweep")
    count("harness.sweep.points")
    count("harness.sweep.simulated")
    ratio(
        "harness.sweep.sim_ratio",
        tracer.counts.get("harness.sweep.simulated", 0),
        tracer.counts.get("harness.sweep.points", 0),
    )

    calls("tune.runs", "tune.run")
    count("tune.evals")
    secs("tune.ask.s", "tune.ask")
    secs("tune.tell.s", "tune.tell")
    secs("tune.normalize.s", "tune.normalize")
    tune_sweep = tracer.seconds_under("harness.sweep", "tune.run")
    out["tune.sweep.s"] = (tune_sweep * per, "s")

    traced = tracer.seconds(PASS_SPAN)
    for layer in LAYERS:
        own = sum(
            total[2]
            for name, total in tracer.totals.items()
            if name.split(".")[0] == layer
        )
        out[f"layer.{layer}.self_s"] = (own * per, "s")
        ratio(f"layer.{layer}.share", own, traced)
    out["prediction.share"] = (share_of(tracer, predicted), "ratio")
    return out
