"""AST interpreter and cluster-run helpers."""

from .interpreter import Frame, Interpreter  # noqa: F401
from .procedures import (  # noqa: F401
    ExternalCall,
    ExternalProc,
    ExternalRegistry,
    make_producer,
)
from .runner import (  # noqa: F401
    ClusterJob,
    ClusterRun,
    execute_job,
    run_serial,
)
from .values import FArray  # noqa: F401

__all__ = [
    "Interpreter",
    "Frame",
    "FArray",
    "ExternalProc",
    "ExternalRegistry",
    "ExternalCall",
    "make_producer",
    "execute_job",
    "run_serial",
    "ClusterJob",
    "ClusterRun",
]
