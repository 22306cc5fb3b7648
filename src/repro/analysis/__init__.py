"""Static analyses: affine algebra, dependence testing (Omega-lite),
loop-nest facts, interprocedural mutation, and transformation-opportunity
detection.
"""

from .affine import Affine, to_affine, try_affine  # noqa: F401
from .callinfo import (  # noqa: F401
    ConservativeOracle,
    DictOracle,
    Oracle,
    RecordingOracle,
    mutated_arg_positions,
)
from .deps import (  # noqa: F401
    Dependence,
    LoopSpec,
    WriteRef,
    banerjee_test,
    boxes_from_loops,
    collect_write_refs,
    dependence_at_level,
    find_output_dependences,
    gcd_test,
    safe_write_refs,
)
from .loops import (  # noqa: F401
    NestInfo,
    contains_branch,
    find_last_mutating_nest,
    is_perfect_nest,
    loop_chain,
    loop_indexing_dimension,
)
from .omega import Constraint, Feasibility, is_feasible, solve_sample  # noqa: F401
from .params import parameter_values  # noqa: F401
from .patterns import (  # noqa: F401
    ALLTOALL_NAMES,
    CopyMapInfo,
    DetectionResult,
    Opportunity,
    PatternKind,
    Rejection,
    find_opportunities,
)

__all__ = [
    "Affine",
    "to_affine",
    "try_affine",
    "Constraint",
    "Feasibility",
    "is_feasible",
    "LoopSpec",
    "WriteRef",
    "collect_write_refs",
    "find_output_dependences",
    "safe_write_refs",
    "NestInfo",
    "loop_chain",
    "find_opportunities",
    "Opportunity",
    "PatternKind",
    "parameter_values",
]
