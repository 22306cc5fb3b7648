"""Evaluation of ``parameter`` (compile-time constant) declarations.

Parameters may reference earlier parameters (``integer, parameter ::
nx = 64, szp = nx / np``), so evaluation proceeds in declaration order
with incremental bindings.
"""

from __future__ import annotations

from typing import Dict

from ..errors import AnalysisError
from ..lang.ast_nodes import TypeDecl, Unit
from .affine import to_affine


def parameter_values(unit: Unit) -> Dict[str, int]:
    """Numeric values of all integer ``parameter`` constants of a unit.

    Raises :class:`AnalysisError` when a parameter's initializer cannot be
    folded to a constant.
    """
    values: Dict[str, int] = {}
    for decl in unit.decls:
        if not isinstance(decl, TypeDecl) or not decl.is_parameter:
            continue
        for ent in decl.entities:
            if ent.init is None:
                raise AnalysisError(
                    f"parameter {ent.name!r} lacks an initializer"
                )
            if decl.base_type != "integer":
                # Only integer parameters participate in subscript analysis;
                # real parameters are skipped (the interpreter evaluates them).
                continue
            affine = to_affine(ent.init, values)
            if not affine.is_constant:
                raise AnalysisError(
                    f"parameter {ent.name!r} initializer is not a constant"
                )
            values[ent.name] = affine.const
    return values
