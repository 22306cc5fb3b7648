"""The asyncio sweep service (DESIGN.md §11).

:class:`SweepServer` puts a job server in front of the
:class:`~repro.api.Session` façade so the reproduction behaves as shared
infrastructure rather than a per-process convenience: many concurrent
clients submit sweep/compare/verify requests as JSON
(:mod:`repro.serve.protocol`), the server runs them through the same
plan and fold stages as :meth:`repro.api.Session.sweep`
(:func:`~repro.harness.sweep.plan_sweep`,
:class:`~repro.harness.sweep.SweepPlan`), **coalesces** concurrent
identical work so each fingerprint is simulated at most once
cluster-wide, shards the live simulations across the session's
persistent process pool, and streams per-point progress events back to
each subscriber.

Deduplication happens at three layers, cheapest first:

1. the content-addressed :class:`~repro.harness.sweep.SweepCache`,
   probed by the plan stage — previously simulated fingerprints are
   served without any work;
2. an in-process map of in-flight fingerprints to futures — a request
   arriving while an identical point simulates *subscribes* to the
   running simulation instead of starting its own;
3. the cache's cross-process claim markers
   (:meth:`~repro.harness.sweep.SweepCache.claim`) — a second *server*
   sharing the cache directory waits for the claiming peer's entry to
   land instead of duplicating the simulation.

Only the layers are the server's own; reading and writing cache
payloads and assembling results stay in :mod:`repro.harness.sweep`.

Backpressure is admission control at expansion time: a sweep whose
expanded point count would push the server past ``max_pending_points``
is refused with a structured :class:`~repro.errors.OverloadError`
before any simulation starts, so the queue can never grow without
bound.  :meth:`SweepServer.shutdown` with ``drain=True`` stops
accepting work, lets every in-flight request finish and stream its
terminal event, then releases the executor and (when the server created
it) the session.

:class:`ThreadedServer` runs the whole service on a background thread
with its own event loop — how the benchmarks, the tests, and any
synchronous embedder host a server in-process.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api.context import UNSET, CompareRequest, VerifyRequest
from ..api.session import Session
from ..apps import build_app
from ..errors import OverloadError, ReproError, RequestError
from ..harness.sweep import (
    CLAIM_STALE_AFTER,
    SweepCache,
    SweepPlan,
    SweepResult,
    SweepSpec,
    SweepStats,
    WorkKey,
    plan_sweep,
    read_measurement,
    read_verdict,
)
from ..interp.runner import ClusterJob, execute_job
from ..runtime.simulator import ENGINE_VERSION
from ..transform.options import TransformOptions
from .protocol import (
    PROTOCOL_VERSION,
    MAX_MESSAGE_BYTES,
    ServeRequest,
    decode_message,
    encode_message,
    error_event,
    event,
    parse_request,
)

__all__ = ["ServeStats", "SweepServer", "ThreadedServer"]


def _wire_options(body: Mapping[str, Any]) -> TransformOptions:
    """The ``tile_size``/``interchange`` keys of a compare or verify
    request as one :class:`TransformOptions`.  Call it inside the
    request's worker: a bad value raises a ``ReproError`` there, which
    the handler turns into an error event."""
    return TransformOptions(
        tile_size=body.get("tile_size", "auto"),
        interchange=body.get("interchange", "auto"),
    )


@dataclasses.dataclass
class ServeStats:
    """Lifetime accounting of one server (the ``status`` verb payload).

    ``dedup_ratio`` — measurement simulations actually run divided by
    sweep points requested — is the service's headline number: 1.0
    means every requested point cost a simulation; anything below means
    the cache, the in-flight coalescing, or a peer's claim absorbed the
    difference.

    The point counters add up the per-request ``stats`` of sweep
    results: ``cache_hits`` counts every point served from the cache
    (``cached: true``), including those read after waiting on a peer's
    claim, which ``peer_served`` counts again; ``coalesced`` counts the
    points that subscribed to another request's in-flight work.
    """

    requests: int = 0
    sweeps: int = 0
    compares: int = 0
    verifies: int = 0
    tunes: int = 0
    errors: int = 0
    rejected: int = 0
    points_requested: int = 0
    simulations: int = 0
    verify_simulations: int = 0
    cache_hits: int = 0
    peer_served: int = 0
    coalesced: int = 0
    verify_checks: int = 0
    verify_hits: int = 0

    @property
    def dedup_ratio(self) -> float:
        if not self.points_requested:
            return 1.0
        return self.simulations / self.points_requested

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["dedup_ratio"] = self.dedup_ratio
        return data


class SweepServer:
    """An asyncio job-queue server over one :class:`~repro.api.Session`.

    ``session=None`` builds a private session from the remaining
    keywords (``cache_dir``/``jobs``/``engine_mode`` and friends are
    forwarded to :class:`~repro.api.ExecutionContext`) and closes it on
    shutdown; a caller-supplied session is shared and left open.
    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).

    One connection handles its requests strictly in order (the
    protocol's framing guarantee); concurrency comes from concurrent
    connections, whose simulations all flow through one executor and
    one in-flight fingerprint map.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending_points: int = 4096,
        peer_wait_timeout: float = CLAIM_STALE_AFTER,
        peer_poll: float = 0.05,
        executor_workers: Optional[int] = None,
        **session_kwargs: Any,
    ) -> None:
        if session is not None and session_kwargs:
            raise ReproError(
                f"session and session keywords "
                f"{sorted(session_kwargs)} are mutually exclusive"
            )
        self._owns_session = session is None
        self.session = session or Session(**session_kwargs)
        self.host = host
        self.port = port
        self.max_pending_points = max_pending_points
        self.peer_wait_timeout = peer_wait_timeout
        self.peer_poll = peer_poll
        self.executor_workers = executor_workers or 4
        self.stats = ServeStats()

        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread_executor = None
        #: fingerprint -> future of (label-less Measurement, cached) for
        #: every measurement currently in flight (layer 2 dedup)
        self._inflight: Dict[str, "asyncio.Future"] = {}
        #: verification key -> future (same shape, verify verdicts)
        self._inflight_verify: Dict[str, "asyncio.Future"] = {}
        self._conn_tasks: set = set()
        self._active_requests = 0
        self._pending_points = 0
        self._draining = False
        self._idle: Optional[asyncio.Event] = None
        self._closed: Optional[asyncio.Event] = None

    # -------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.host,
            port=self.port,
            limit=MAX_MESSAGE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until :meth:`shutdown` completes."""
        if self._server is None:
            await self.start()
        await self._closed.wait()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def shutdown(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop the server (idempotent).

        The §11 drain contract: stop accepting connections, refuse new
        requests on existing connections (structured
        :class:`~repro.errors.RequestError`), wait until every admitted
        request has streamed its terminal event (bounded by
        ``timeout``), then close connections and release the executor
        and owned session.  ``drain=False`` cancels in-flight work
        instead of waiting.
        """
        if self._draining and self._closed is not None:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._thread_executor is not None:
            self._thread_executor.shutdown(wait=True)
            self._thread_executor = None
        if self._owns_session:
            self.session.close()
        if self._closed is not None:
            self._closed.set()

    # -------------------------------------------------------- executors

    def _executor_for(self, job: ClusterJob):
        """Where one simulation runs: the session's shared persistent
        process pool when it has one and the job can cross a process
        boundary, otherwise a lazily-created thread pool (correct
        either way; the thread pool trades parallelism for
        availability in sandboxes without multiprocessing)."""
        if job.externals is None:
            pool = self.session.pool()
            if pool is not None:
                return pool
        if self._thread_executor is None:
            from concurrent.futures import ThreadPoolExecutor

            self._thread_executor = ThreadPoolExecutor(
                max_workers=self.executor_workers,
                thread_name_prefix="repro-serve",
            )
        return self._thread_executor

    async def _run_job(self, job: ClusterJob, stats: SweepStats):
        executor = self._executor_for(job)
        if executor is self._thread_executor:
            stats.mode, stats.processes = "thread", self.executor_workers
        else:
            stats.mode, stats.processes = "pool", self.session.jobs
        return await self._loop.run_in_executor(executor, execute_job, job)

    # ------------------------------------------------------ connections

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        send_lock = asyncio.Lock()

        async def send(message: Mapping[str, Any]) -> None:
            async with send_lock:
                writer.write(encode_message(message))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                stop = await self._serve_one(line, send)
                if stop:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError, OSError):
                pass

    async def _serve_one(self, line: bytes, send) -> bool:
        """Handle one request line; True stops the connection loop."""
        self.stats.requests += 1
        try:
            request = parse_request(decode_message(line))
        except RequestError as exc:
            self.stats.errors += 1
            await send(error_event("", exc))
            return False
        if self._draining and request.type not in ("status",):
            self.stats.errors += 1
            await send(
                error_event(
                    request.id,
                    RequestError(
                        "server is draining for shutdown and not "
                        "accepting new work"
                    ),
                )
            )
            return False
        self._active_requests += 1
        self._idle.clear()
        try:
            if request.type == "sweep":
                await self._handle_sweep(request, send)
            elif request.type == "compare":
                await self._handle_compare(request, send)
            elif request.type == "verify":
                await self._handle_verify(request, send)
            elif request.type == "tune":
                await self._handle_tune(request, send)
            elif request.type == "status":
                await self._handle_status(request, send)
            elif request.type == "shutdown":
                await self._handle_shutdown(request, send)
                return True
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self.stats.errors += 1
            if isinstance(exc, OverloadError):
                self.stats.rejected += 1
            try:
                await send(error_event(request.id, exc))
            except (ConnectionError, OSError):
                return True
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()
        return False

    # ----------------------------------------------------------- verbs

    @staticmethod
    def _reject_unknown(body: Mapping[str, Any], known: Tuple[str, ...]):
        unknown = sorted(set(body) - set(known))
        if unknown:
            raise RequestError(
                f"unknown request keys {unknown}; accepted: {sorted(known)}"
            )

    def _parse_specs(self, body: Mapping[str, Any]) -> List[SweepSpec]:
        self._reject_unknown(body, ("spec", "specs"))
        if ("spec" in body) == ("specs" in body):
            raise RequestError(
                "a sweep request carries exactly one of 'spec' "
                "(one object) or 'specs' (a non-empty list)"
            )
        raw = body.get("specs", [body.get("spec")])
        if not isinstance(raw, list) or not raw:
            raise RequestError("'specs' must be a non-empty list")
        specs = []
        for item in raw:
            if not isinstance(item, dict):
                raise RequestError(
                    f"each spec must be a JSON object "
                    f"(got {type(item).__name__})"
                )
            try:
                spec = SweepSpec.from_dict(item)
            except ReproError as exc:
                raise RequestError(f"invalid sweep spec: {exc}") from None
            except (TypeError, ValueError) as exc:
                raise RequestError(f"invalid sweep spec: {exc}") from None
            specs.append(spec)
        return specs

    async def _handle_sweep(self, request: ServeRequest, send) -> None:
        self.stats.sweeps += 1
        specs = self._parse_specs(request.body)
        result, extra = await self._sweep(specs, send, request.id)
        payload = result.to_json()
        payload["stats"].update(extra)
        await send(event("result", request.id, result=payload))

    async def _sweep(
        self, specs: List[SweepSpec], send=None, request_id: str = ""
    ) -> Tuple[SweepResult, Dict[str, int]]:
        """Run ``specs`` through the shared sweep stages (§7) with the
        three dedup layers (§11.2) around their execute stage.

        Returns the :class:`~repro.harness.sweep.SweepResult` and the
        serve-only counters (``peer_served``, ``coalesced``).  With
        ``send``, streams ``accepted`` and one ``point`` event per
        point as its work key resolves.  Sweep requests and tune rounds
        both come through here.
        """
        specs = self.session._bind_specs(specs)
        try:
            # expansion transforms programs: CPU work kept off the loop
            plan = await asyncio.to_thread(
                plan_sweep,
                specs,
                self.session.cache,
                self.session._transforms,
            )
        except ReproError as exc:
            raise RequestError(f"sweep expansion failed: {exc}") from None

        total = len(plan.points)
        # admission control (§11 backpressure): refuse before simulating
        if self._pending_points + total > self.max_pending_points:
            raise OverloadError(
                f"request expands to {total} points but the server "
                f"already has {self._pending_points} pending of a "
                f"{self.max_pending_points}-point budget; retry later "
                f"or split the spec"
            )
        self._pending_points += total
        self.stats.points_requested += total
        self.stats.verify_checks += plan.stats.verify_checks

        indices: Dict[WorkKey, List[int]] = {}
        for index in range(total):
            indices.setdefault(plan.key(index), []).append(index)
        sources: Dict[WorkKey, str] = {}
        seq = 0

        async def settle(key: WorkKey, source: str) -> None:
            nonlocal seq
            sources[key] = source
            if send is None:
                return
            time = plan.resolved[key][0].time
            for index in indices[key]:
                seq += 1
                await send(
                    event(
                        "point",
                        request_id,
                        seq=seq,
                        total=total,
                        index=index,
                        axes=plan.points[index].axes,
                        source=source,
                        time=time,
                    )
                )

        try:
            if send is not None:
                await send(
                    event(
                        "accepted",
                        request_id,
                        points=total,
                        verifications=plan.stats.verify_checks,
                    )
                )
            await asyncio.gather(
                *(settle(key, "cache") for key in list(plan.resolved)),
                *(self._point(plan, key, settle) for key in plan.pending),
                *(self._verification(plan, v) for v in plan.verifications),
            )
        finally:
            self._pending_points -= total
            self.stats.simulations += plan.stats.simulated
            self.stats.verify_simulations += plan.stats.verify_simulated

        result = plan.result()
        per_point = [sources[plan.key(i)] for i in range(total)]
        extra = {
            "peer_served": per_point.count("peer"),
            "coalesced": per_point.count("coalesced"),
        }
        self.stats.cache_hits += result.stats.cache_hits
        self.stats.peer_served += extra["peer_served"]
        self.stats.coalesced += extra["coalesced"]
        self.stats.verify_hits += result.stats.verify_hits
        return result, extra

    # ------------------------------------------------------ dedup layers

    async def _point(self, plan: SweepPlan, key: WorkKey, settle) -> None:
        """Resolve one pending point of ``plan`` and report its source
        (``simulated``/``cache``/``peer``/``coalesced``)."""
        point = plan.pending[key]

        async def simulate():
            run = await self._run_job(point.job(), plan.stats)
            return plan.fold_run(key, run)

        if point.fingerprint is None:  # externals: uncacheable
            await simulate()
            source = "simulated"
        else:
            measurement, source, cached = await self._once(
                self._inflight,
                point.fingerprint,
                lambda cache: read_measurement(cache, key),
                simulate,
            )
            if source != "simulated":
                plan.resolved[key] = (measurement, cached)
        await settle(key, source)

    async def _verification(self, plan: SweepPlan, ver) -> None:
        """Resolve one pending equivalence check of ``plan`` (raises on
        mismatch)."""

        async def simulate():
            original, transformed = await asyncio.gather(
                self._run_job(ver.original_job, plan.stats),
                self._run_job(ver.transformed_job, plan.stats),
            )
            plan.fold_verification(ver, original, transformed)
            return True

        if ver.key is None:  # externals: uncacheable
            await simulate()
            return
        _, source, _ = await self._once(
            self._inflight_verify,
            ver.key,
            lambda cache: read_verdict(cache, ver.key),
            simulate,
        )
        if source == "cache":
            plan.stats.verify_hits += 1

    async def _once(self, inflight, key: str, probe, produce):
        """Produce the cache entry ``key`` at most once across this
        server (layer 2) and its peers (layer 3).

        ``probe(cache)`` reads a finished entry (falsy on a miss);
        ``produce()`` simulates and folds it.  Returns ``(value,
        source, cached)``; ``cached`` is what a direct
        :meth:`~repro.api.Session.sweep` would report: served from the
        shared cache rather than simulated by anyone this round.
        """
        holder = inflight.get(key)
        if holder is not None:
            # layer 2: subscribe to the in-flight identical work
            value, cached = await holder  # raises if the owner failed
            return value, "coalesced", cached
        cache = self.session.cache
        # re-probe with no await since the holder check: the plan
        # probed on a worker thread, and an owner that finished since
        # has put its entry before leaving ``inflight``
        value = probe(cache) if cache is not None else None
        if value:
            return value, "cache", True
        future = self._loop.create_future()
        inflight[key] = future
        source = "simulated"
        try:
            claimed = cache is not None and cache.claim(key)
            if cache is not None and not claimed:
                # layer 3: a peer process claimed this entry
                value = await self._await_peer(cache, key, probe)
                if value:
                    source = "peer"
                else:
                    # peer crashed or stalled: take over (an unclaimed
                    # duplicate simulation is still correct)
                    claimed = cache.claim(key)
            if not value:
                try:
                    value = await produce()
                except BaseException:
                    if claimed:
                        cache.release(key)
                    raise
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # a lone holder must not warn on GC
            raise
        finally:
            inflight.pop(key, None)
        cached = source != "simulated"
        future.set_result((value, cached))
        return value, source, cached

    async def _await_peer(self, cache: SweepCache, key: str, probe):
        """Async twin of :meth:`SweepCache.wait_for`: poll for the
        claiming peer's entry without blocking the event loop."""
        deadline = self._loop.time() + self.peer_wait_timeout
        while True:
            value = probe(cache)
            if value:
                return value
            if not cache.claim_live(key):
                return probe(cache)
            if self._loop.time() >= deadline:
                return None
            await asyncio.sleep(self.peer_poll)

    # ----------------------------------------------- compare and verify

    async def _handle_compare(self, request: ServeRequest, send) -> None:
        self.stats.compares += 1
        body = dict(request.body)
        self._reject_unknown(
            body,
            (
                "app",
                "app_kwargs",
                "nranks",
                "network",
                "collective",
                "variant",
                "tile_size",
                "interchange",
            ),
        )
        name = body.get("app")
        if not isinstance(name, str):
            raise RequestError("compare needs 'app': a workload name")

        def work():
            app = build_app(
                name,
                nranks=body.get("nranks", 8),
                **dict(body.get("app_kwargs", {})),
            )
            return self.session.compare(
                CompareRequest(
                    app=app,
                    network=body.get("network"),
                    collective=(
                        body["collective"] if "collective" in body else UNSET
                    ),
                    variant=body.get("variant"),
                    options=_wire_options(body),
                )
            )

        try:
            pair = await asyncio.to_thread(work)
        except ReproError as exc:
            raise RequestError(f"compare failed: {exc}") from None
        await send(
            event(
                "result",
                request.id,
                result={
                    "app": pair.app,
                    "network": pair.network,
                    "original": pair.original.to_dict(),
                    "transformed": pair.prepush.to_dict(),
                    "speedup": pair.speedup,
                    "equivalent": pair.equivalent,
                },
            )
        )

    async def _handle_verify(self, request: ServeRequest, send) -> None:
        self.stats.verifies += 1
        body = dict(request.body)
        self._reject_unknown(
            body,
            (
                "program",
                "nranks",
                "tile_size",
                "interchange",
                "variant",
                "network",
                "collective",
            ),
        )
        program = body.get("program")
        if not isinstance(program, str):
            raise RequestError("verify needs 'program': source text")

        def work():
            return self.session.verify(
                VerifyRequest(
                    program=program,
                    nranks=body.get("nranks", 8),
                    options=_wire_options(body),
                    variant=body.get("variant"),
                    network=body.get("network"),
                    collective=(
                        body["collective"] if "collective" in body else UNSET
                    ),
                )
            )

        try:
            result = await asyncio.to_thread(work)
        except ReproError as exc:
            raise RequestError(f"verify failed: {exc}") from None
        eq = result.equivalence
        await send(
            event(
                "result",
                request.id,
                result={
                    "equivalent": eq.equivalent,
                    "speedup": eq.speedup,
                    "time_original": eq.time_original,
                    "time_transformed": eq.time_transformed,
                    "compared_arrays": list(eq.compared_arrays),
                    "mismatches": list(eq.mismatches),
                    "transformed": result.transform.unparse(),
                },
            )
        )

    # -------------------------------------------------------------- tune

    async def _handle_tune(self, request: ServeRequest, send) -> None:
        """Run a :func:`repro.tune.tune` search server-side.

        The search loop itself runs on a worker thread (it is ordinary
        blocking orchestration), but every evaluation round is routed
        back onto the event loop through :meth:`_sweep`, so tune
        evaluations enjoy the same three-layer dedup as sweep points
        and coalesce with any concurrent client measuring the same
        fingerprints.
        """
        from ..errors import TuneError
        from ..tune.driver import tune as run_tune
        from ..tune.space import SearchSpace
        from ..tune.strategies import get_strategy

        self.stats.tunes += 1
        body = dict(request.body)
        self._reject_unknown(
            body,
            (
                "space",
                "strategy",
                "budget",
                "objective",
                "seed",
                "strategy_params",
            ),
        )
        space_data = body.get("space")
        if not isinstance(space_data, dict):
            raise RequestError(
                "tune needs 'space': a SearchSpace.to_dict() object"
            )
        try:
            space = SearchSpace.from_dict(space_data)
        except (ReproError, TypeError, ValueError) as exc:
            raise RequestError(f"invalid search space: {exc}") from None
        strategy = body.get("strategy", "hill-climb")
        if not isinstance(strategy, str):
            raise RequestError("'strategy' must be a string")
        try:
            get_strategy(strategy)
        except TuneError as exc:
            raise RequestError(str(exc)) from None
        budget = body.get("budget", 32)
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
            raise RequestError("'budget' must be a positive integer")
        # admission control: a tune evaluates up to `budget` points (x2
        # with baselines); refuse searches the pending-point budget
        # could never admit round by round
        if budget > self.max_pending_points:
            raise OverloadError(
                f"tune budget {budget} exceeds the server's "
                f"{self.max_pending_points}-point admission budget; "
                f"lower the budget or raise --max-pending"
            )
        objective = body.get("objective", "time")
        if objective not in ("time", "speedup"):
            raise RequestError(
                "'objective' must be 'time' or 'speedup' over the wire"
            )
        seed = body.get("seed")
        if seed is not None and (
            not isinstance(seed, int) or isinstance(seed, bool)
        ):
            raise RequestError("'seed' must be an integer")
        params = body.get("strategy_params") or {}
        if not isinstance(params, dict):
            raise RequestError("'strategy_params' must be an object")

        await send(
            event(
                "accepted",
                request.id,
                budget=budget,
                strategy=strategy,
                space_fingerprint=space.fingerprint(),
            )
        )

        loop = self._loop

        def evaluator(specs):
            # called on the driver's worker thread; hop each round back
            # onto the event loop where the dedup machinery lives
            return asyncio.run_coroutine_threadsafe(
                self._sweep(specs), loop
            ).result()[0]

        def on_step(step) -> None:
            asyncio.run_coroutine_threadsafe(
                send(event("step", request.id, **step.to_dict())), loop
            ).result()

        def work():
            return run_tune(
                space,
                session=self.session,
                strategy=strategy,
                budget=budget,
                objective=objective,
                seed=seed,
                strategy_params=params,
                evaluate=evaluator,
                on_step=on_step,
            )

        try:
            result = await asyncio.to_thread(work)
        except TuneError as exc:
            raise RequestError(f"tune failed: {exc}") from None
        payload = result.to_dict()
        payload["trajectory"] = {
            "header": result.trajectory.header,
            "steps": [s.to_dict() for s in result.trajectory.steps],
        }
        await send(event("result", request.id, result=payload))

    # --------------------------------------------------- status/shutdown

    async def _handle_status(self, request: ServeRequest, send) -> None:
        cache = self.session.cache
        await send(
            event(
                "result",
                request.id,
                result={
                    "protocol": PROTOCOL_VERSION,
                    "engine": ENGINE_VERSION,
                    "host": self.host,
                    "port": self.port,
                    "draining": self._draining,
                    "active_requests": self._active_requests,
                    "pending_points": self._pending_points,
                    "max_pending_points": self.max_pending_points,
                    "stats": self.stats.to_dict(),
                    "cache": (
                        None if cache is None else vars(cache.stats).copy()
                    ),
                },
            )
        )

    async def _handle_shutdown(self, request: ServeRequest, send) -> None:
        body = dict(request.body)
        self._reject_unknown(body, ("drain",))
        drain = body.get("drain", True)
        if not isinstance(drain, bool):
            raise RequestError("'drain' must be a boolean")
        await send(event("result", request.id, result={"stopping": True}))
        # detached: shutdown(drain) waits for active requests, and this
        # handler IS one — awaiting it here would deadlock the drain
        asyncio.ensure_future(self.shutdown(drain=drain))


class ThreadedServer:
    """Host a :class:`SweepServer` on a dedicated thread + event loop.

    The synchronous embedding used by the benchmarks and tests::

        with ThreadedServer(cache_dir=".cache") as ts:
            client = ServeClient(port=ts.port)
            ...

    ``stop()`` (or context exit) performs a drain shutdown.
    """

    def __init__(self, **server_kwargs: Any) -> None:
        self._kwargs = server_kwargs
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[SweepServer] = None

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-host", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.server = SweepServer(**self._kwargs)
                await self.server.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # surface on the caller thread
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            await self.server.wait_closed()

        asyncio.run(main())

    def stop(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        if self._loop is None or self.server is None:
            return
        # A client's shutdown verb (or a signal) may already be stopping
        # the server.  Its loop then winds down and can drop a second
        # shutdown scheduled now, so completion is read from the host
        # thread ending, never from that coroutine's future.
        if not self.server._draining:
            try:
                asyncio.run_coroutine_threadsafe(
                    self.server.shutdown(drain=drain), self._loop
                )
            except RuntimeError:  # the loop closed since the check
                pass
        self._thread.join(timeout)
        self._loop = None
        if self._thread.is_alive():
            raise TimeoutError(f"sweep server still running after {timeout}s")

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
