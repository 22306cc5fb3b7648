"""Clients for the sweep service — async, and a blocking wrapper.

:class:`AsyncServeClient` speaks the line-delimited JSON protocol
(:mod:`repro.serve.protocol`) on asyncio streams: one connection, one
outstanding request at a time (the server's per-connection ordering
guarantee makes anything fancier pointless — open more clients for
concurrency).  :class:`ServeClient` is the same surface for blocking
callers: it drives an :class:`AsyncServeClient` on a private event
loop.

Both raise the server's structured errors as the matching local
exception types (:class:`~repro.errors.RequestError`,
:class:`~repro.errors.OverloadError`, :class:`~repro.errors.ServeError`)
and surface streamed progress through an optional ``on_event`` callback::

    with ServeClient(port=port) as client:
        result = client.sweep(spec, on_event=lambda e: print(e["event"]))
        warm = client.sweep(spec)           # zero simulations server-side
"""

from __future__ import annotations

import asyncio
import itertools
import json
from typing import Any, Callable, Dict, Mapping, Optional, Union

from ..errors import ServeError
from ..harness.sweep import SweepSpec
from .protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    encode_message,
    exception_from_event,
)

__all__ = ["ServeClient", "AsyncServeClient"]

OnEvent = Optional[Callable[[Dict[str, Any]], None]]

_ids = itertools.count(1)


def _request_payload(
    rtype: str, request_id: str, body: Mapping[str, Any]
) -> Dict[str, Any]:
    message = {"type": rtype, "id": request_id, "protocol": PROTOCOL_VERSION}
    message.update(body)
    return message


def _spec_body(spec: Union[SweepSpec, Mapping[str, Any]]) -> Dict[str, Any]:
    if isinstance(spec, SweepSpec):
        return {"spec": spec.to_dict()}
    if isinstance(spec, Mapping):
        return {"spec": dict(spec)}
    if isinstance(spec, (list, tuple)):
        return {
            "specs": [
                s.to_dict() if isinstance(s, SweepSpec) else dict(s)
                for s in spec
            ]
        }
    raise TypeError(
        f"spec must be a SweepSpec, a to_dict() mapping, or a list of "
        f"them, got {type(spec).__name__}"
    )


def _tune_body(
    space: Any,
    *,
    strategy: str,
    budget: int,
    objective: str,
    seed: Optional[int],
    strategy_params: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    if hasattr(space, "to_dict"):
        space = space.to_dict()
    if not isinstance(space, Mapping):
        raise TypeError(
            f"space must be a SearchSpace or its to_dict() mapping, "
            f"got {type(space).__name__}"
        )
    body: Dict[str, Any] = {
        "space": dict(space),
        "strategy": strategy,
        "budget": budget,
        "objective": objective,
    }
    if seed is not None:
        body["seed"] = seed
    if strategy_params:
        body["strategy_params"] = dict(strategy_params)
    return body


class AsyncServeClient:
    """The verb surface on asyncio streams.

    Build with :meth:`connect`::

        client = await AsyncServeClient.connect(port=port)
        result = await client.sweep(spec)
        await client.close()
    """

    #: seconds to wait for each server event (``None``: no limit); the
    #: blocking :class:`ServeClient` sets it from its ``timeout=``
    _timeout: Optional[float] = None

    def __init__(self, reader, writer, host: str, port: int) -> None:
        self._reader = reader
        self._writer = writer
        self.host = host
        self.port = port

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 0
    ) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_MESSAGE_BYTES
        )
        return cls(reader, writer, host, port)

    async def sweep(
        self,
        spec: Union[SweepSpec, Mapping[str, Any], list, tuple],
        *,
        on_event: OnEvent = None,
    ) -> Dict[str, Any]:
        """Submit sweep spec(s); returns the
        :meth:`~repro.harness.sweep.SweepResult.to_json`-shaped result
        (its ``stats`` add the server's ``coalesced`` count)."""
        return await self._request("sweep", _spec_body(spec), on_event)

    submit = sweep  # the CLI verb's name

    async def compare(self, app: str, **body: Any) -> Dict[str, Any]:
        return await self._request("compare", dict(body, app=app), None)

    async def verify(self, program: str, **body: Any) -> Dict[str, Any]:
        return await self._request("verify", dict(body, program=program), None)

    async def tune(
        self,
        space: Union[Mapping[str, Any], Any],
        *,
        strategy: str = "hill-climb",
        budget: int = 32,
        objective: str = "time",
        seed: Optional[int] = None,
        strategy_params: Optional[Mapping[str, Any]] = None,
        on_event: OnEvent = None,
    ) -> Dict[str, Any]:
        """Run a server-side tune over ``space`` (a
        :class:`repro.tune.SearchSpace` or its ``to_dict()`` mapping);
        per-evaluation ``step`` events stream to ``on_event``.  Returns
        the :meth:`~repro.tune.TuneResult.to_dict` payload plus the
        full ``trajectory``."""
        body = _tune_body(
            space,
            strategy=strategy,
            budget=budget,
            objective=objective,
            seed=seed,
            strategy_params=strategy_params,
        )
        return await self._request("tune", body, on_event)

    async def status(self) -> Dict[str, Any]:
        return await self._request("status", {}, None)

    async def shutdown(self, *, drain: bool = True) -> Dict[str, Any]:
        """Ask the server to stop (drain by default); closes this
        client's connection afterwards (the server hangs up)."""
        try:
            return await self._request("shutdown", {"drain": drain}, None)
        finally:
            await self.close()

    # ------------------------------------------------------- transport

    async def _request(
        self, rtype: str, body: Mapping[str, Any], on_event: OnEvent
    ) -> Dict[str, Any]:
        """Send one request; dispatch its progress events to
        ``on_event`` and return the terminal ``result`` payload (an
        ``error`` event raises the mapped exception)."""
        request_id = f"c{next(_ids)}"
        self._writer.write(
            encode_message(_request_payload(rtype, request_id, body))
        )
        await self._writer.drain()
        while True:
            line = await asyncio.wait_for(
                self._reader.readline(), self._timeout
            )
            if not line:
                raise ServeError(
                    "server closed the connection before the terminal "
                    "event (crashed or shut down without drain?)"
                )
            message = _decode_event(line)
            if message.get("id") not in ("", request_id):
                continue  # stale event from an aborted earlier request
            kind = message.get("event")
            if kind == "error":
                raise exception_from_event(message)
            if kind == "result":
                return message["result"]
            if on_event is not None:
                on_event(message)

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class ServeClient:
    """Blocking client over one connection: an
    :class:`AsyncServeClient` driven on a private event loop (so it
    cannot be used from inside a running loop; use the async client
    there).  ``timeout`` bounds the connect and each wait for a server
    event."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._loop.run_until_complete(
                asyncio.wait_for(AsyncServeClient.connect(host, port), timeout)
            )
        except BaseException:
            self._loop.close()
            raise
        self._client._timeout = timeout

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def sweep(
        self,
        spec: Union[SweepSpec, Mapping[str, Any], list, tuple],
        *,
        on_event: OnEvent = None,
    ) -> Dict[str, Any]:
        """Blocking :meth:`AsyncServeClient.sweep`."""
        return self._run(self._client.sweep(spec, on_event=on_event))

    submit = sweep  # the CLI verb's name

    def compare(self, app: str, **body: Any) -> Dict[str, Any]:
        return self._run(self._client.compare(app, **body))

    def verify(self, program: str, **body: Any) -> Dict[str, Any]:
        return self._run(self._client.verify(program, **body))

    def tune(
        self,
        space: Union[Mapping[str, Any], Any],
        *,
        strategy: str = "hill-climb",
        budget: int = 32,
        objective: str = "time",
        seed: Optional[int] = None,
        strategy_params: Optional[Mapping[str, Any]] = None,
        on_event: OnEvent = None,
    ) -> Dict[str, Any]:
        """Blocking :meth:`AsyncServeClient.tune`."""
        return self._run(
            self._client.tune(
                space,
                strategy=strategy,
                budget=budget,
                objective=objective,
                seed=seed,
                strategy_params=strategy_params,
                on_event=on_event,
            )
        )

    def status(self) -> Dict[str, Any]:
        return self._run(self._client.status())

    def shutdown(self, *, drain: bool = True) -> Dict[str, Any]:
        """Ask the server to stop (drain by default); closes this
        client afterwards (the server hangs up)."""
        try:
            return self._run(self._client.shutdown(drain=drain))
        finally:
            self.close()

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._run(self._client.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _decode_event(line: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServeError(f"undecodable server event: {exc}") from None
    if not isinstance(message, dict) or "event" not in message:
        raise ServeError(f"malformed server event: {line[:200]!r}")
    return message
