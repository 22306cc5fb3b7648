"""Source-to-source pre-push transformation (the paper's Compuniformer).

The §3.6 whole-program rewrite is the registered ``"prepush"``
pipeline: ``get_variant("prepush").run(source, TransformOptions(...))``.

Submodules
----------
``tiling``       tile geometry, the K heuristic and per-site K validation
``layout``       static geometry of one alltoall site
``names``        the fresh-name pool, per-site generated names, the prolog
``commgen``      the Figure 4 pairwise communication generator
``direct``       §3.3 direct-pattern analysis, code generation and rewrite
``indirect``     §3.4 copy-loop elimination
``interchange``  §3.5 node-loop interchange
``options``      the frozen :class:`TransformOptions` knob object
``pipeline``     composable pass pipeline, its reports, the variant registry
"""

from .commgen import figure4_loop, peer_from_expr, peer_to_expr  # noqa: F401
from .direct import DirectPlan, analyze_direct  # noqa: F401
from .indirect import IndirectPlan, analyze_indirect  # noqa: F401
from .interchange import (  # noqa: F401
    apply_interchange,
    interchange_legal,
    scalars_privatizable,
)
from .layout import SiteLayout, resolve_layout  # noqa: F401
from .names import NamePool, SiteNames  # noqa: F401
from .options import (  # noqa: F401
    AUTO,
    DEFAULT_TRANSFORM_OPTIONS,
    TransformOptions,
)
from .pipeline import (  # noqa: F401
    CommGenPass,
    IndirectElimPass,
    InterchangePass,
    Pass,
    PassReport,
    PassResult,
    Pipeline,
    PipelineReport,
    SiteReport,
    TilePass,
    get_variant,
    list_variants,
    register_variant,
    resolve_variant,
    variant_label,
)
from .tiling import Tiling, choose_tile_size, divisors, overlap_headroom  # noqa: F401

__all__ = [
    "AUTO",
    "SiteReport",
    "TransformOptions",
    "DEFAULT_TRANSFORM_OPTIONS",
    "Pass",
    "PassReport",
    "PassResult",
    "Pipeline",
    "PipelineReport",
    "InterchangePass",
    "TilePass",
    "CommGenPass",
    "IndirectElimPass",
    "register_variant",
    "get_variant",
    "list_variants",
    "resolve_variant",
    "variant_label",
    "Tiling",
    "choose_tile_size",
    "divisors",
    "overlap_headroom",
    "SiteLayout",
    "resolve_layout",
    "SiteNames",
    "NamePool",
    "DirectPlan",
    "analyze_direct",
    "IndirectPlan",
    "analyze_indirect",
    "interchange_legal",
    "apply_interchange",
    "scalars_privatizable",
    "figure4_loop",
    "peer_to_expr",
    "peer_from_expr",
]
