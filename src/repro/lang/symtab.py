"""Symbol tables built from a unit's declaration part.

The analyses and the interpreter both need to know, for each name: its base
type, whether it is an array and with which (symbolic) dimension bounds,
whether it is a ``parameter`` constant (and its value expression), whether
it is a dummy argument, and whether it names an external procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import AnalysisError
from .ast_nodes import (
    DimSpec,
    Expr,
    ExternalDecl,
    SourceFile,
    Subroutine,
    TypeDecl,
    Unit,
)


@dataclass
class Symbol:
    """One declared name within a unit."""

    name: str
    base_type: str  # 'integer' | 'real' | 'logical'
    dims: List[DimSpec] = field(default_factory=list)
    is_parameter: bool = False
    init: Optional[Expr] = None
    is_dummy: bool = False
    intent: Optional[str] = None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class SymbolTable:
    """Symbols of one program unit plus the externals it references."""

    unit_name: str
    symbols: Dict[str, Symbol] = field(default_factory=dict)
    externals: List[str] = field(default_factory=list)

    def lookup(self, name: str) -> Optional[Symbol]:
        return self.symbols.get(name)

    def require(self, name: str) -> Symbol:
        sym = self.symbols.get(name)
        if sym is None:
            raise AnalysisError(
                f"undeclared name {name!r} in unit {self.unit_name!r}"
            )
        return sym

    def is_array(self, name: str) -> bool:
        sym = self.symbols.get(name)
        return sym is not None and sym.is_array

    def arrays(self) -> List[Symbol]:
        return [s for s in self.symbols.values() if s.is_array]

    def parameters(self) -> List[Symbol]:
        return [s for s in self.symbols.values() if s.is_parameter]


def build_symtab(unit: Unit) -> SymbolTable:
    """Construct the symbol table for one program unit."""
    table = SymbolTable(unit_name=unit.name)
    dummy_names = set(unit.params) if isinstance(unit, Subroutine) else set()

    for decl in unit.decls:
        if isinstance(decl, TypeDecl):
            for ent in decl.entities:
                if ent.name in table.symbols:
                    raise AnalysisError(
                        f"duplicate declaration of {ent.name!r} in "
                        f"unit {unit.name!r}"
                    )
                table.symbols[ent.name] = Symbol(
                    name=ent.name,
                    base_type=decl.base_type,
                    dims=list(ent.dims),
                    is_parameter=decl.is_parameter,
                    init=ent.init,
                    is_dummy=ent.name in dummy_names,
                    intent=decl.intent,
                )
        elif isinstance(decl, ExternalDecl):
            table.externals.extend(decl.names)

    if isinstance(unit, Subroutine):
        for p in unit.params:
            if p not in table.symbols:
                # Implicitly-typed dummy (integer, scalar) — permissive, the
                # paper's test codes always declare, but be forgiving.
                table.symbols[p] = Symbol(
                    name=p, base_type="integer", is_dummy=True
                )
    return table


def build_symtabs(source: SourceFile) -> Dict[str, SymbolTable]:
    """Symbol tables for every unit in a file, keyed by unit name."""
    return {u.name: build_symtab(u) for u in source.units}
