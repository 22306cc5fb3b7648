"""The one frozen options object every transformation path shares.

:class:`TransformOptions` is the only spelling of the transformation
knobs (``tile_size``, ``interchange``, ``max_sites``): the pipeline,
``PreparedApp``, the request dataclasses and the sweep expansion all
take one.  It is a single immutable value with a
``canonical_params()`` serialization, exactly like
:meth:`~repro.runtime.network.NetworkModel.canonical_params` and
:meth:`~repro.runtime.costmodel.CostModel.canonical_params`: the same
object configures a :class:`~repro.transform.pipeline.Pipeline` run and
feeds the content-addressed sweep-cache fingerprint
(:func:`~repro.interp.runner.job_fingerprint`), so the two can never
disagree about what was requested.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional, Union

from ..errors import TransformError

#: Accepted ``tile_size`` sentinel asking for the built-in heuristic.
AUTO = "auto"


@dataclass(frozen=True)
class TransformOptions:
    """Knobs of one transformation run, validated at construction.

    ``tile_size``
        Iterations per tile (the paper's K), or :data:`AUTO` for the
        heuristic in :func:`repro.transform.tiling.choose_tile_size`.
    ``interchange``
        ``"auto"`` interchanges the node loop inward when it is
        outermost and legal (§3.5); ``"never"`` keeps the original loop
        order (Ablation E measures the congestion cost).
    ``max_sites``
        Transform at most this many sites (``None`` = all).
    """

    tile_size: Union[int, str] = AUTO
    interchange: str = "auto"
    max_sites: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.tile_size, str) and self.tile_size != AUTO:
            raise TransformError(
                f"tile_size must be a positive int or {AUTO!r}"
            )
        if isinstance(self.tile_size, int) and self.tile_size < 1:
            raise TransformError(
                f"tile_size {self.tile_size} must be >= 1"
            )
        if self.interchange not in ("auto", "never"):
            raise TransformError(
                f"interchange must be 'auto' or 'never', "
                f"not {self.interchange!r}"
            )
        if self.max_sites is not None and self.max_sites < 1:
            raise TransformError(
                f"max_sites {self.max_sites} must be >= 1 or None"
            )

    def canonical_params(self) -> Dict[str, Union[str, int, None]]:
        """Stable, JSON-safe mapping of every option — field name →
        scalar, no derived values — for the sweep-cache fingerprint
        (DESIGN.md §7/§9).  Two options objects are fingerprint-equal
        exactly when every field matches."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The all-defaults options every entry point shares.
DEFAULT_TRANSFORM_OPTIONS = TransformOptions()
