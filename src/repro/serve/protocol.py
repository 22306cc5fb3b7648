"""Wire protocol of the sweep service (DESIGN.md §11).

One JSON object per line (UTF-8, ``\\n``-terminated) in both
directions.  Requests reuse the repo's existing JSON schemas as the
payload language — a ``sweep`` request carries
:meth:`repro.harness.sweep.SweepSpec.to_dict` objects verbatim, so any
spec file the ``compuniformer sweep --spec`` path accepts can be
submitted to a server unchanged.

Client → server (every request names a ``type`` and a client-chosen
``id`` echoed on every event it provokes):

``sweep``     ``{"type": "sweep", "id": ..., "spec": {...}}`` or
              ``{"specs": [{...}, ...]}`` — SweepSpec schema
``compare``   ``{"type": "compare", "id": ..., "app": "fft",
              "app_kwargs": {...}, "network": ..., ...}``
``verify``    ``{"type": "verify", "id": ..., "program": "...",
              "nranks": 8, ...}``
``tune``      ``{"type": "tune", "id": ..., "space": {...}, "strategy":
              "hill-climb", "budget": 40, "objective": "time",
              "seed": 7}`` — the ``space`` payload is
              :meth:`repro.tune.SearchSpace.to_dict`; the server runs
              the search with every candidate evaluation flowing
              through its two-layer dedup
``status``    server statistics (never queued; answered immediately)
``shutdown``  ``{"drain": true}`` — ask the server to stop

Server → client events (``event`` discriminates):

``accepted``  the request passed validation and admission control;
              carries the expanded ``points``/``verifications`` counts
``point``     one sweep point finished: ``axes``, its measurement
              ``source`` (``cache``/``coalesced``/``simulated``),
              completion ``seq`` of ``total``
``step``      one tune evaluation finished: the
              :meth:`repro.tune.TrajectoryStep.to_dict` fields
              (candidate, objective, cumulative best, cache_hit)
``result``    the terminal success event; carries the full response
              payload (for sweeps: the
              :meth:`~repro.harness.sweep.SweepResult.to_json` shape)
``error``     the terminal failure event; ``error`` names a
              :mod:`repro.errors` class the client re-raises

Exactly one terminal event (``result`` or ``error``) ends every
request; requests on one connection are handled strictly in order, so
concurrency comes from opening more connections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from ..errors import OverloadError, RequestError, ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "REQUEST_TYPES",
    "ServeRequest",
    "encode_message",
    "decode_message",
    "parse_request",
    "event",
    "error_event",
    "exception_from_event",
]

#: bumped on incompatible wire changes; a server refuses clients of any
#: other version (2: sweep result ``stats`` dropped the peer-served
#: count)
PROTOCOL_VERSION = 2

#: per-line ceiling (program texts ride in requests; 16 MiB is far
#: above any registered app and bounds a malicious/broken peer)
MAX_MESSAGE_BYTES = 16 * 1024 * 1024

REQUEST_TYPES = ("sweep", "compare", "verify", "tune", "status", "shutdown")

#: wire name → exception class for terminal ``error`` events
_ERROR_TYPES = {
    "RequestError": RequestError,
    "OverloadError": OverloadError,
    "ServeError": ServeError,
}


@dataclass(frozen=True)
class ServeRequest:
    """One decoded, shape-validated request (body still uninterpreted)."""

    type: str
    id: str
    body: Mapping[str, Any] = field(default_factory=dict)


def encode_message(message: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON + newline (sorted keys, so identical
    payloads are byte-identical on the wire)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Decode one wire line into a JSON object, or raise
    :class:`~repro.errors.RequestError`."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"undecodable message: {exc}") from None
    if not isinstance(message, dict):
        raise RequestError(
            f"a message must be a JSON object, got {type(message).__name__}"
        )
    return message


def parse_request(message: Mapping[str, Any]) -> ServeRequest:
    """Validate the request envelope (type/id/version) into a
    :class:`ServeRequest`; the body keys stay with the handler."""
    rtype = message.get("type")
    if rtype not in REQUEST_TYPES:
        raise RequestError(
            f"unknown request type {rtype!r} "
            f"(expected one of {', '.join(REQUEST_TYPES)})"
        )
    version = message.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise RequestError(
            f"protocol version {version!r} not supported "
            f"(server speaks {PROTOCOL_VERSION})"
        )
    request_id = message.get("id", "")
    if not isinstance(request_id, str):
        raise RequestError("request 'id' must be a string")
    body = {
        k: v
        for k, v in message.items()
        if k not in ("type", "id", "protocol")
    }
    return ServeRequest(type=rtype, id=request_id, body=body)


def event(kind: str, request_id: str, **fields: Any) -> Dict[str, Any]:
    """One server event addressed to the request that provoked it."""
    message = {"event": kind, "id": request_id}
    message.update(fields)
    return message


def error_event(request_id: str, exc: BaseException) -> Dict[str, Any]:
    """The terminal ``error`` event for ``exc``.

    Serve-layer errors keep their class name so the client re-raises
    the same type; anything else is wrapped as a generic ``ServeError``
    with the original class named in the message — internal exception
    taxonomy is not part of the wire contract.
    """
    if isinstance(exc, (RequestError, OverloadError)):
        name = type(exc).__name__
        text = str(exc)
    elif isinstance(exc, ServeError):
        name = "ServeError"
        text = str(exc)
    else:
        name = "ServeError"
        text = f"{type(exc).__name__}: {exc}"
    return event("error", request_id, error=name, message=text)


def exception_from_event(message: Mapping[str, Any]) -> ServeError:
    """The client-side inverse of :func:`error_event`."""
    cls = _ERROR_TYPES.get(str(message.get("error")), ServeError)
    return cls(str(message.get("message", "unspecified server error")))
