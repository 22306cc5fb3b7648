"""Shared machinery for the workload programs.

Every app is a *generator of mini-Fortran source text* plus the metadata
the harness and tests need: how many ranks its alltoall implies, which
pattern the detector should classify it as, which arrays carry the
result (for equivalence checking), and optional externals/oracle for
programs whose producer source is unavailable (paper §3.1's
semi-automatic case).

Compute intensity is expressed as a chain of *mixing stages* — helper
scalar assignments feeding the final store.  Each stage is a couple of
integer operations, so ``stages`` scales virtual CPU cost per element
without changing the loop structure the transformation analyzes.  The
values are a deterministic integer hash, so original/transformed
equivalence is exact (no floating-point tolerance games).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.callinfo import Oracle
from ..errors import ReproError
from ..interp.procedures import ExternalRegistry

#: Multiplier/increment/modulus triples for the mixing stages — small odd
#: constants so int64 never overflows even after millions of iterations.
_STAGE_CONSTANTS: Tuple[Tuple[int, int, int], ...] = (
    (5, 1, 8191),
    (7, 3, 7919),
    (11, 5, 6151),
    (13, 7, 4093),
    (17, 11, 3079),
    (19, 13, 2053),
    (23, 17, 1543),
    (29, 19, 1021),
)


@dataclass
class AppSpec:
    """One runnable workload: source text + everything needed to use it."""

    name: str
    description: str
    source: str
    nranks: int
    kind: str  # "direct" | "indirect"
    scheme: str  # expected transformation scheme: 'A', 'B', or 'slab'
    check_arrays: Tuple[str, ...]  # arrays equivalence must compare
    dead_arrays: Tuple[str, ...] = ()  # arrays the transform legitimately kills
    externals: Optional[ExternalRegistry] = None
    oracle: Optional[Oracle] = None
    params: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nranks < 2:
            raise ReproError(
                f"app {self.name!r} needs >= 2 ranks, got {self.nranks}"
            )


def mix_stages(
    seed_expr: str, stages: int, *, result: str, indent: str = "      "
) -> str:
    """Source lines computing ``result`` from ``seed_expr`` in ``stages`` hops.

    ``stages=0`` assigns the seed directly.  Stage constants repeat after
    :data:`_STAGE_CONSTANTS` is exhausted, with the stage index folded in
    so long chains do not cycle.
    """
    if stages < 0:
        raise ReproError(f"stages must be >= 0, got {stages}")
    if stages == 0:
        return f"{indent}{result} = {seed_expr}\n"
    lines: List[str] = [f"{indent}t0 = {seed_expr}\n"]
    for k in range(1, stages + 1):
        m, c, p = _STAGE_CONSTANTS[(k - 1) % len(_STAGE_CONSTANTS)]
        lines.append(
            f"{indent}t{k} = mod(t{k - 1} * {m} + {c + k}, {p})\n"
        )
    lines.append(f"{indent}{result} = t{stages}\n")
    return "".join(lines)


def stage_decls(stages: int) -> str:
    """Declaration line for the helper scalars used by :func:`mix_stages`."""
    if stages == 0:
        return ""
    names = ", ".join(f"t{k}" for k in range(stages + 1))
    return f"  integer :: {names}\n"


def require_divisible(n: int, d: int, what: str) -> None:
    if d <= 0 or n % d != 0:
        raise ReproError(f"{what}: {n} is not divisible by {d}")
