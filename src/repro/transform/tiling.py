"""Tiling geometry: splitting a loop's iteration range into tiles of K.

The pre-push transformation restructures the computation loop "into
blocks, or tiles, in which each tile executes only part of the iteration
space" (paper §2).  This module owns the arithmetic — tile ranges, counts,
the leftover block when K does not divide the trip count (§3.6 step 3) —
and the tile-size heuristic used when the caller asks for ``K="auto"``
(the paper defers optimal-K selection to [3]; the heuristic here is the
balanced-overhead rule of thumb the harness sweep in Ablation A
validates).

All ranges are inclusive ``(lo, hi)`` pairs in loop-index space, matching
Fortran DO semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from ..errors import TransformError
from .options import AUTO


@dataclass(frozen=True)
class Tiling:
    """A tiling of the inclusive iteration range ``[lo, hi]`` by ``k``."""

    lo: int
    hi: int
    k: int

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise TransformError(
                f"empty iteration range [{self.lo}, {self.hi}] cannot be tiled"
            )
        if not 1 <= self.k <= self.trip:
            raise TransformError(
                f"tile size {self.k} outside [1, {self.trip}] for range "
                f"[{self.lo}, {self.hi}]"
            )

    @property
    def trip(self) -> int:
        """Total number of iterations."""
        return self.hi - self.lo + 1

    @property
    def ntiles(self) -> int:
        """Number of *full* tiles of ``k`` iterations."""
        return self.trip // self.k

    @property
    def leftover(self) -> int:
        """Iterations not covered by full tiles (0 when ``k`` divides)."""
        return self.trip % self.k

    @property
    def nblocks(self) -> int:
        """Full tiles plus the leftover block if any."""
        return self.ntiles + (1 if self.leftover else 0)

    def tile_range(self, t: int) -> Tuple[int, int]:
        """Inclusive iteration range of full tile ``t`` (0-based)."""
        if not 0 <= t < self.ntiles:
            raise TransformError(
                f"tile index {t} outside [0, {self.ntiles})"
            )
        start = self.lo + t * self.k
        return start, start + self.k - 1

    def leftover_range(self) -> Tuple[int, int]:
        """Inclusive range of the leftover block (raises when none)."""
        if not self.leftover:
            raise TransformError("tiling has no leftover block")
        return self.lo + self.ntiles * self.k, self.hi

    def ranges(self) -> List[Tuple[int, int]]:
        """All block ranges in execution order (full tiles, then leftover).

        Invariant (tested property-based): the ranges are disjoint,
        ordered, and their union is exactly ``[lo, hi]``.
        """
        out = [self.tile_range(t) for t in range(self.ntiles)]
        if self.leftover:
            out.append(self.leftover_range())
        return out

    def tile_of(self, iteration: int) -> int:
        """0-based block index containing ``iteration``."""
        if not self.lo <= iteration <= self.hi:
            raise TransformError(
                f"iteration {iteration} outside [{self.lo}, {self.hi}]"
            )
        return min((iteration - self.lo) // self.k, self.nblocks - 1)

    def is_tile_end(self, iteration: int) -> bool:
        """True when ``iteration`` is the last iteration of a full tile.

        This is the guard the generated code evaluates:
        ``mod(iteration - lo + 1, k) == 0``.
        """
        return (iteration - self.lo + 1) % self.k == 0


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n``, ascending."""
    if n <= 0:
        raise TransformError(f"divisors of non-positive {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def choose_tile_size(
    trip: int,
    *,
    must_divide: int = 0,
    messages_target: int = 8,
) -> int:
    """Heuristic K: balance per-message overhead against overlap granularity.

    A tiny K sends many small messages (overhead-bound); a huge K leaves
    no computation to hide the last transfers behind (the paper's Figure 1
    experiments and Ablation A trace the resulting U-shaped curve).  The
    heuristic aims for about ``messages_target`` tiles, i.e.
    ``K ≈ trip / messages_target``, clamped to ``[1, trip]``.

    ``must_divide`` (scheme B: the partition thickness in iterations)
    restricts K to divisors of that value so no tile straddles two
    destination partitions; we pick the divisor closest to the unconstrained
    choice.
    """
    if trip < 1:
        raise TransformError(f"cannot tile {trip} iterations")
    want = max(1, min(trip, round(trip / max(1, messages_target))))
    if must_divide <= 0:
        return want
    if must_divide < 1:
        raise TransformError(f"invalid divisibility constraint {must_divide}")
    candidates = [d for d in divisors(must_divide) if d <= trip]
    if not candidates:
        raise TransformError(
            f"no tile size <= {trip} divides the partition thickness "
            f"{must_divide}"
        )
    return min(candidates, key=lambda d: (abs(d - want), d))


def resolve_tile_size(
    tile_size: Union[int, str], trip: int, must_divide: int = 0
) -> int:
    """The requested K validated against one site's geometry (§3.6)."""
    if tile_size == AUTO:
        return choose_tile_size(trip, must_divide=must_divide)
    k = int(tile_size)
    if k > trip:
        raise TransformError(
            f"requested tile size {k} exceeds the {trip}-iteration trip "
            f"count"
        )
    if must_divide and must_divide % k != 0:
        raise TransformError(
            f"requested tile size {k} does not divide the partition "
            f"thickness {must_divide} (scheme B requirement)"
        )
    return k


def comm_rounds(trip: int, k: int) -> int:
    """How many communication blocks a tiling emits (tiles + leftover)."""
    return Tiling(1, trip, k).nblocks


def overlap_headroom(
    compute_per_tile: float, wire_per_tile: float, ntiles: int
) -> float:
    """Idealized fraction of wire time hidden behind computation.

    With perfect offload and ``ntiles`` tiles, every tile's transfer except
    the last overlaps the following tile's compute; the exposed time is
    ``max(0, wire - compute)`` per interior tile plus the full last wire.
    Returns the hidden fraction in [0, 1].  Used by tests as an upper bound
    the simulator must respect, and by documentation examples.
    """
    if ntiles < 1 or wire_per_tile <= 0:
        return 0.0
    hidden = (ntiles - 1) * min(wire_per_tile, compute_per_tile)
    return hidden / (ntiles * wire_per_tile)
