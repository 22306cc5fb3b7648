"""Array access-region analysis: the paper's *partial triplets*.

For each write reference inside the nest ℓ, and for a *tile* — a subrange
of the tiled loop's iteration space — compute, per array dimension, the
symbolic lower and upper bound ``l(ik)``/``u(ik)`` of the subscript
expression.  This is the coarse-grained access representation (§3.3) that
lets the transformation aggregate element sends into block transfers, and
to check that the node (last) dimension is fully traversed within a tile.

The result is a :class:`Region`: a list of per-dimension
:class:`Triplet` (lo, hi) affine bounds, possibly depending on symbolic
parameters and on the tile-bound variables the caller supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..errors import AnalysisError, NotAffineError
from ..lang.ast_nodes import ArrayRef, DimSpec
from .affine import Affine, to_affine
from .deps import LoopSpec


@dataclass(frozen=True)
class Triplet:
    """Inclusive symbolic bounds of one dimension's accessed indices."""

    lo: Affine
    hi: Affine

    def is_point(self) -> bool:
        return self.lo == self.hi

    def extent(self) -> Affine:
        return self.hi - self.lo + Affine.constant(1)


@dataclass(frozen=True)
class Region:
    """Per-dimension triplets of one array access over a range of iterations."""

    array: str
    triplets: Tuple[Triplet, ...]

    @property
    def rank(self) -> int:
        return len(self.triplets)

    def size(self) -> Affine:
        """Element count — product of extents (requires all-but-one constant
        extents to stay affine; raises otherwise)."""
        total = Affine.constant(1)
        for t in self.triplets:
            ext = t.extent()
            if total.is_constant:
                total = ext.scale(total.const)
            elif ext.is_constant:
                total = total.scale(ext.const)
            else:
                raise NotAffineError("region size is not affine")
        return total


@dataclass(frozen=True)
class VarRange:
    """The value range a variable takes while the region is accumulated."""

    lo: Affine
    hi: Affine

    @staticmethod
    def point(value: Affine) -> "VarRange":
        return VarRange(value, value)

    @staticmethod
    def of_loop(spec: LoopSpec) -> "VarRange":
        return VarRange(spec.lo, spec.hi)


def subscript_triplet(
    sub: Affine, ranges: Mapping[str, VarRange]
) -> Triplet:
    """Interval-arithmetic bounds of an affine subscript over var ranges.

    Variables not present in ``ranges`` are treated as symbolic constants
    (they stay in the bound expressions).  The bounds of a range variable
    must themselves not depend on other range variables (triangular nests
    with tile-local dependence are rejected — conservative).
    """
    lo = Affine.from_dict({}, sub.const)
    hi = Affine.from_dict({}, sub.const)
    for v, c in sub.coeffs:
        rng = ranges.get(v)
        if rng is None:
            term = Affine.variable(v, c)
            lo = lo + term
            hi = hi + term
            continue
        for bound_expr in (rng.lo, rng.hi):
            if any(u in ranges for u in bound_expr.variables):
                raise AnalysisError(
                    f"range bound of {v!r} depends on another range variable"
                )
        if c > 0:
            lo = lo + rng.lo.scale(c)
            hi = hi + rng.hi.scale(c)
        else:
            lo = lo + rng.hi.scale(c)
            hi = hi + rng.lo.scale(c)
    return Triplet(lo=lo, hi=hi)


def access_region(
    ref: ArrayRef,
    ranges: Mapping[str, VarRange],
    params: Optional[Mapping[str, int]] = None,
) -> Region:
    """Region touched by ``ref`` while its variables sweep ``ranges``."""
    triplets: List[Triplet] = []
    for e in ref.subs:
        sub = to_affine(e, params)
        triplets.append(subscript_triplet(sub, ranges))
    return Region(array=ref.name, triplets=tuple(triplets))


def dim_extent(dim: DimSpec, params: Optional[Mapping[str, int]] = None) -> Affine:
    """Declared extent of one array dimension."""
    lo = to_affine(dim.lo, params)
    hi = to_affine(dim.hi, params)
    return hi - lo + Affine.constant(1)


def covers_dimension(
    triplet: Triplet, dim: DimSpec, params: Optional[Mapping[str, int]] = None
) -> bool:
    """True when the triplet provably covers the whole declared dimension."""
    lo = to_affine(dim.lo, params)
    hi = to_affine(dim.hi, params)
    return triplet.lo == lo and triplet.hi == hi


@dataclass(frozen=True)
class BlockStructure:
    """Contiguity summary of a region in column-major layout.

    ``block_size`` is the element count of each maximal contiguous run;
    ``num_blocks`` how many runs; ``contiguous`` when the whole region is
    one run (the paper's optimal single-transfer case).
    """

    block_size: Affine
    num_blocks: Affine

    @property
    def contiguous(self) -> bool:
        return self.num_blocks.is_constant and self.num_blocks.const == 1


def block_structure(
    region: Region,
    dims: Sequence[DimSpec],
    params: Optional[Mapping[str, int]] = None,
) -> BlockStructure:
    """Column-major contiguity of a rectangular region.

    Scanning dimensions innermost (leftmost) outward: dimensions covered
    fully merge into the contiguous block; at the first partial dimension
    the block closes and every remaining dimension multiplies the number
    of blocks by its accessed extent.
    """
    if region.rank != len(dims):
        raise AnalysisError(
            f"rank mismatch for {region.array!r}: region {region.rank}, "
            f"declared {len(dims)}"
        )
    size = Affine.constant(1)
    nblocks = Affine.constant(1)
    still_contiguous = True
    for triplet, dim in zip(region.triplets, dims):
        ext = triplet.extent()
        if still_contiguous:
            size = _mul_affine(size, ext)
            if not covers_dimension(triplet, dim, params):
                still_contiguous = False
        else:
            nblocks = _mul_affine(nblocks, ext)
    return BlockStructure(block_size=size, num_blocks=nblocks)


def _mul_affine(a: Affine, b: Affine) -> Affine:
    if a.is_constant:
        return b.scale(a.const)
    if b.is_constant:
        return a.scale(b.const)
    raise NotAffineError("product of two symbolic extents")
