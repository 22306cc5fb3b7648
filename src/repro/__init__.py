"""repro — reproduction of *An Automated Approach to Improve
Communication-Computation Overlap in Clusters* (Fishgold, Danalis,
Pollock, Swany; IPDPS 2006).

The package implements the paper's **Compuniformer** source-to-source
transformer for a mini-Fortran MPI subset, together with every substrate
it needs: a frontend (:mod:`repro.lang`), dependence/region analyses
(:mod:`repro.analysis`), the pre-push transformation as a composable
pass pipeline with a registry of named variants
(:mod:`repro.transform`), a deterministic discrete-event cluster
simulator standing in for the paper's MPICH / MPICH-GM testbed
(:mod:`repro.runtime`), an AST interpreter executing programs on that
cluster (:mod:`repro.interp`), the §2 example workloads
(:mod:`repro.apps`), and the experiment harness regenerating the paper's
figure and the deferred ablations (:mod:`repro.harness`).

All of it is driven through one front door, the typed
:class:`~repro.api.Session` façade (:mod:`repro.api`), which resolves
registry names once, owns the content-addressed result cache, and keeps
a persistent process pool across calls.

Quickstart::

    from repro import Job, Session

    session = Session(network="gmnet")
    result = session.verify(source_text)    # transform + §4 equivalence
    assert result.equivalent
    print(result.transform.unparse())       # the pre-pushed program

    original = session.measure(Job(program=source_text, nranks=8))
    prepush = session.measure(
        Job(program=result.transform.source, nranks=8)
    )
    print(f"speedup {original.time / prepush.time:.2f}x")
"""

from .api import (  # noqa: F401
    UNSET,
    CompareRequest,
    ExecutionContext,
    Job,
    Session,
    VerifyRequest,
    VerifyResult,
)
from .errors import (  # noqa: F401
    AnalysisError,
    DeadlockError,
    InterchangeError,
    InterpError,
    LexError,
    NotAffineError,
    OverloadError,
    ParseError,
    PatternError,
    ReproError,
    RequestError,
    ServeError,
    SimulationError,
    SourceError,
    TransformError,
    TuneError,
    VerificationError,
)
from .lang import parse, unparse  # noqa: F401
from .runtime.collectives import (  # noqa: F401
    list_algorithms,
    register_algorithm,
)
from .runtime.network import list_models, register_model  # noqa: F401
from .transform.options import TransformOptions  # noqa: F401
from .transform.pipeline import (  # noqa: F401
    Pipeline,
    PipelineReport,
    SiteReport,
    get_variant,
    list_variants,
    register_variant,
)
from .serve import (  # noqa: F401
    AsyncServeClient,
    ServeClient,
    SweepServer,
    ThreadedServer,
)
from .tune import (  # noqa: F401
    Axis,
    SearchSpace,
    TuneResult,
    default_space,
    get_strategy,
    list_strategies,
    register_strategy,
    tune,
)
from .verify import (  # noqa: F401
    EquivalenceReport,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    # the typed façade (repro.api)
    "Session",
    "ExecutionContext",
    "Job",
    "CompareRequest",
    "VerifyRequest",
    "VerifyResult",
    "UNSET",
    # transformation
    "SiteReport",
    "TransformOptions",
    "Pipeline",
    "PipelineReport",
    "parse",
    "unparse",
    # verification
    "verify_equivalence",
    "EquivalenceReport",
    # registries
    "list_models",
    "register_model",
    "list_algorithms",
    "register_algorithm",
    "list_variants",
    "register_variant",
    "get_variant",
    # auto-tuning (repro.tune)
    "tune",
    "SearchSpace",
    "Axis",
    "TuneResult",
    "default_space",
    "register_strategy",
    "get_strategy",
    "list_strategies",
    # the full error hierarchy
    "ReproError",
    "SourceError",
    "LexError",
    "ParseError",
    "AnalysisError",
    "NotAffineError",
    "PatternError",
    "TransformError",
    "InterchangeError",
    "InterpError",
    "SimulationError",
    "DeadlockError",
    "VerificationError",
    "ServeError",
    "RequestError",
    "OverloadError",
    "TuneError",
    # the sweep service (repro.serve)
    "SweepServer",
    "ThreadedServer",
    "ServeClient",
    "AsyncServeClient",
    "__version__",
]
