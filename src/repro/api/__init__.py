"""``repro.api`` — the typed library surface of the reproduction.

One front door: construct a :class:`Session` (optionally from an
:class:`ExecutionContext`), then drive the whole pipeline through its
methods with frozen request objects::

    from repro.api import Job, Session

    session = Session(network="gmnet", cache_dir=".cache", jobs=4)
    measurement = session.measure(Job(program=source, nranks=8))
    verdict = session.verify(source)
    result = session.sweep(spec)

See :mod:`repro.api.session` for the façade and
:mod:`repro.api.context` for the request dataclasses and their
inheritance rules.
"""

from .context import (  # noqa: F401
    UNSET,
    CompareRequest,
    ExecutionContext,
    Job,
    VerifyRequest,
)
from .session import Session, VerifyResult  # noqa: F401

__all__ = [
    "Session",
    "ExecutionContext",
    "Job",
    "CompareRequest",
    "VerifyRequest",
    "VerifyResult",
    "UNSET",
]
