"""Runtime value representation for the interpreter.

Arrays are Fortran arrays: column-major numpy storage plus per-dimension
lower bounds.  Scalars live as Python ``int``/``float``/``bool`` in the
frame.  All integer storage is int64 and real storage float64
(:data:`~repro.runtime.costmodel.ELEMENT_BYTES` per element), which fixes
message sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from ..errors import InterpError

Scalar = Union[int, float, bool]


_DTYPES = {"integer": np.int64, "real": np.float64, "logical": np.int64}


@dataclass
class FArray:
    """A Fortran array: F-ordered numpy data + lower bounds per dimension."""

    data: np.ndarray
    lbounds: Tuple[int, ...]
    base_type: str

    @staticmethod
    def allocate(
        base_type: str, bounds: Sequence[Tuple[int, int]]
    ) -> "FArray":
        """Allocate an array given inclusive (lo, hi) bounds per dimension."""
        shape = []
        lbounds = []
        for lo, hi in bounds:
            if hi < lo:
                raise InterpError(
                    f"array dimension with upper bound {hi} below lower "
                    f"bound {lo}"
                )
            shape.append(hi - lo + 1)
            lbounds.append(lo)
        dtype = _DTYPES.get(base_type)
        if dtype is None:
            raise InterpError(f"cannot allocate array of type {base_type!r}")
        data = np.zeros(tuple(shape), dtype=dtype, order="F")
        return FArray(data=data, lbounds=tuple(lbounds), base_type=base_type)

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    # ------------------------------------------------------------- indexing

    def _index(self, subs: Sequence[int]) -> Tuple[int, ...]:
        if len(subs) != self.rank:
            raise InterpError(
                f"rank mismatch: {len(subs)} subscripts for rank-{self.rank} "
                f"array"
            )
        out = []
        for s, lo, extent in zip(subs, self.lbounds, self.data.shape):
            off = int(s) - lo
            if not 0 <= off < extent:
                raise InterpError(
                    f"subscript {s} out of bounds [{lo}, {lo + extent - 1}]"
                )
            out.append(off)
        return tuple(out)

    def get(self, subs: Sequence[int]) -> Scalar:
        value = self.data[self._index(subs)]
        return float(value) if self.base_type == "real" else int(value)

    def set(self, subs: Sequence[int], value: Scalar) -> None:
        self.data[self._index(subs)] = value

    # ------------------------------------------------------------- sections

    def section(
        self, ranges: Sequence[Union[int, Tuple[int, int]]]
    ) -> np.ndarray:
        """An ndarray view of a rectangular section.

        Each entry is a single subscript (that dimension collapses) or an
        inclusive ``(lo, hi)`` pair.  The result is a (possibly strided)
        view — writes through it hit this array's storage.
        """
        if len(ranges) != self.rank:
            raise InterpError(
                f"rank mismatch: {len(ranges)} section subscripts for "
                f"rank-{self.rank} array"
            )
        index = []
        for r, lo, extent in zip(ranges, self.lbounds, self.data.shape):
            if isinstance(r, tuple):
                a, b = int(r[0]) - lo, int(r[1]) - lo
                if not (0 <= a and b < extent and a <= b + 1):
                    raise InterpError(
                        f"section {r[0]}:{r[1]} out of bounds "
                        f"[{lo}, {lo + extent - 1}]"
                    )
                index.append(slice(a, b + 1))
            else:
                off = int(r) - lo
                if not 0 <= off < extent:
                    raise InterpError(
                        f"subscript {r} out of bounds [{lo}, {lo + extent - 1}]"
                    )
                index.append(off)
        return self.data[tuple(index)]

    def flat(self) -> np.ndarray:
        """1-D view in Fortran (column-major) element order."""
        return self.data.reshape(-1, order="F")

    def flat_offset(self, subs: Sequence[int]) -> int:
        """0-based flat position of an element in Fortran order."""
        idx = self._index(subs)
        off = 0
        stride = 1
        for i, extent in zip(idx, self.data.shape):
            off += i * stride
            stride *= extent
        return off

    def view_from(
        self, flat_offset: int, bounds: Sequence[Tuple[int, int]], base_type: str
    ) -> "FArray":
        """Fortran sequence association: a dummy array overlaid on this
        array's storage sequence starting at ``flat_offset``."""
        shape = [hi - lo + 1 for lo, hi in bounds]
        need = 1
        for s in shape:
            need *= s
        flat = self.flat()
        if flat_offset < 0 or flat_offset + need > flat.size:
            raise InterpError(
                f"sequence association needs {need} elements at offset "
                f"{flat_offset}, but only {flat.size - flat_offset} remain"
            )
        window = flat[flat_offset : flat_offset + need]
        data = window.reshape(tuple(shape), order="F")
        return FArray(
            data=data,
            lbounds=tuple(lo for lo, _ in bounds),
            base_type=base_type,
        )

    def copy(self) -> "FArray":
        return FArray(
            data=self.data.copy(order="F"),
            lbounds=self.lbounds,
            base_type=self.base_type,
        )

    def __eq__(self, other: object) -> bool:  # pragma: no cover - debug aid
        if not isinstance(other, FArray):
            return NotImplemented
        return (
            self.lbounds == other.lbounds
            and self.base_type == other.base_type
            and np.array_equal(self.data, other.data)
        )
