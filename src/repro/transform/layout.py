"""Constant layout facts of a transformation site.

The code generator works with compile-time-constant array bounds and
partition sizes (the test programs declare ``nx``, ``np`` etc. as
``parameter`` constants — and the generated code then hardwires the same
constants the original program already committed to).  This module folds
an :class:`~repro.analysis.patterns.Opportunity` into a
:class:`SiteLayout`, rejecting sites whose geometry is not statically
known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import TransformError
from ..analysis.affine import try_affine
from ..analysis.patterns import Opportunity


@dataclass(frozen=True)
class SiteLayout:
    """Numeric geometry of one alltoall site."""

    as_name: str
    ar_name: str
    dims: Tuple[Tuple[int, int], ...]  # inclusive (lo, hi) per dimension
    nprocs: int
    part: int  # elements per partition = total // nprocs

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def extents(self) -> Tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.dims)

    @property
    def total(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    @property
    def last_lo(self) -> int:
        return self.dims[-1][0]

    @property
    def last_extent(self) -> int:
        lo, hi = self.dims[-1]
        return hi - lo + 1

    @property
    def planes_per_partition(self) -> int:
        """Last-dimension thickness of one partition (in index planes)."""
        return self.last_extent // self.nprocs

    @property
    def lead(self) -> int:
        """Product of all extents except the last (elements per plane)."""
        return self.total // self.last_extent


def resolve_layout(opp: Opportunity) -> SiteLayout:
    """Fold the site's arrays and counts to constants, with validation."""
    symtab = opp.symtab
    assert symtab is not None
    params = opp.params

    def fold_dims(name: str) -> Tuple[Tuple[int, int], ...]:
        sym = symtab.require(name)
        out: List[Tuple[int, int]] = []
        for d in sym.dims:
            lo = try_affine(d.lo, params)
            hi = try_affine(d.hi, params)
            if (
                lo is None
                or hi is None
                or not lo.is_constant
                or not hi.is_constant
            ):
                raise TransformError(
                    f"bounds of {name!r} are not compile-time constants; "
                    f"the code generator requires static geometry"
                )
            out.append((lo.const, hi.const))
        return tuple(out)

    as_dims = fold_dims(opp.send_array)
    ar_dims = fold_dims(opp.recv_array)

    count = try_affine(opp.send_count_expr, params)  # type: ignore[arg-type]
    if count is None or not count.is_constant or count.const <= 0:
        raise TransformError(
            "the alltoall element count is not a positive compile-time "
            "constant"
        )
    part = count.const

    total = 1
    for lo, hi in as_dims:
        total *= hi - lo + 1
    ar_total = 1
    for lo, hi in ar_dims:
        ar_total *= hi - lo + 1
    if ar_total != total:
        raise TransformError(
            f"send array {opp.send_array!r} ({total} elements) and receive "
            f"array {opp.recv_array!r} ({ar_total} elements) differ in size"
        )
    if total % part != 0:
        raise TransformError(
            f"alltoall count {part} does not divide the buffer size {total}"
        )
    nprocs = total // part
    if nprocs < 2:
        raise TransformError(
            f"alltoall implies {nprocs} rank(s); nothing to transform"
        )
    last_extent = as_dims[-1][1] - as_dims[-1][0] + 1
    if last_extent % nprocs != 0:
        raise TransformError(
            f"last dimension extent {last_extent} of {opp.send_array!r} is "
            f"not divisible by {nprocs} ranks; MPI_ALLTOALL partitions the "
            f"last dimension"
        )
    return SiteLayout(
        as_name=opp.send_array,
        ar_name=opp.recv_array,
        dims=as_dims,
        nprocs=nprocs,
        part=part,
    )
