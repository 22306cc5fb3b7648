"""Plain-text experiment tables (the harness's output format).

Every figure/ablation function returns a :class:`Table`: named columns,
typed rows, a title, and helpers for the assertions the benchmark suite
makes about result *shape* (who wins, by what factor).  ``render()``
produces the aligned ASCII table the CLI and benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

from ..errors import ReproError

Cell = Union[str, int, float]


def format_cell(value: Cell) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_seconds(seconds: float) -> str:
    """Human-scaled time: 1.234 ms, 56.7 us..."""
    for unit, scale in (("s", 1.0), ("ms", 1e-3), ("us", 1e-6), ("ns", 1e-9)):
        if abs(seconds) >= scale:
            return f"{seconds / scale:.4g} {unit}"
    return "0 s"


@dataclass
class Table:
    """A titled grid of results with typed columns."""

    title: str
    columns: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *cells: Cell) -> None:
        if len(cells) != len(self.columns):
            raise ReproError(
                f"row has {len(cells)} cells, table {self.title!r} has "
                f"{len(self.columns)} columns"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Cell]:
        """All values of one column."""
        try:
            i = self.columns.index(name)
        except ValueError:
            raise ReproError(
                f"table {self.title!r} has no column {name!r}; "
                f"columns: {self.columns}"
            ) from None
        return [row[i] for row in self.rows]

    def lookup(self, **key: Cell) -> Dict[str, Cell]:
        """The unique row matching all given column=value pairs, as a dict."""
        idx = {k: self.columns.index(k) for k in key}
        matches = [
            row
            for row in self.rows
            if all(row[idx[k]] == v for k, v in key.items())
        ]
        if len(matches) != 1:
            raise ReproError(
                f"{len(matches)} rows match {key!r} in table {self.title!r}"
            )
        return dict(zip(self.columns, matches[0]))

    def value(self, column: str, **key: Cell) -> Cell:
        """Single-cell lookup: the ``column`` of the row matching ``key``."""
        return self.lookup(**key)[column]

    def render(self) -> str:
        """Aligned ASCII rendering, paper-style."""
        cells = [[format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(
            self.columns[i].ljust(widths[i]) for i in range(len(self.columns))
        )
        lines = [self.title, "=" * max(len(self.title), len(header))]
        lines.append(header)
        lines.append(sep)
        for row in cells:
            lines.append(
                " | ".join(row[i].ljust(widths[i]) for i in range(len(row)))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 50,
    unit: str = "",
) -> str:
    """ASCII horizontal bar chart (the harness's 'figure' rendering)."""
    if len(labels) != len(values):
        raise ReproError("labels and values differ in length")
    if not values:
        return "(empty chart)"
    peak = max(values)
    label_w = max(len(l) for l in labels)
    lines = []
    for label, v in zip(labels, values):
        n = 0 if peak <= 0 else int(round(width * v / peak))
        lines.append(
            f"{label.ljust(label_w)} | {'#' * n} {format_cell(v)}{unit}"
        )
    return "\n".join(lines)
