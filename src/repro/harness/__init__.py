"""Experiment harness: measurement runners, figure/ablation generators,
and plain-text result tables.
"""

from .figures import (  # noqa: F401
    ablation_collectives,
    ablation_network,
    ablation_nodeloop,
    ablation_scaling,
    ablation_scenarios,
    ablation_tile_size,
    ablation_variants,
    ablation_workloads,
    figure1,
)
from .report import Table, bar_chart, format_seconds  # noqa: F401
from .runner import (  # noqa: F401
    Measurement,
    PairResult,
    PreparedApp,
    measurement_from_run,
)
from .sweep import (  # noqa: F401
    CacheStats,
    SweepCache,
    SweepResult,
    SweepSpec,
    collective_label,
    expand_spec,
)

__all__ = [
    "figure1",
    "ablation_tile_size",
    "ablation_scaling",
    "ablation_network",
    "ablation_workloads",
    "ablation_nodeloop",
    "ablation_scenarios",
    "ablation_collectives",
    "ablation_variants",
    "Table",
    "bar_chart",
    "format_seconds",
    "Measurement",
    "PairResult",
    "PreparedApp",
    "measurement_from_run",
    "CacheStats",
    "SweepCache",
    "SweepResult",
    "SweepSpec",
    "collective_label",
    "expand_spec",
]
