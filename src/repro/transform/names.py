"""Generated-variable names: the fresh-name pool, each site's names and
their declarations.

Generated helper variables (``pp_me``, ``pp_j``, tile counters, copy-loop
indices...) must not collide with names the program already uses.  The
``pp_`` prefix follows the tool's name ("pre-push").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..lang.ast_nodes import ArrayRef, FuncCall, TypeDecl, Unit, VarRef
from ..lang import builder as b
from ..lang.symtab import build_symtab


class NamePool:
    """Allocates identifiers unused by the unit."""

    def __init__(self, unit: Unit, prefix: str = "pp_") -> None:
        self.prefix = prefix
        self.used: Set[str] = set()
        table = build_symtab(unit)
        self.used.update(table.symbols)
        self.used.update(table.externals)
        for node in unit.walk():
            if isinstance(node, (VarRef, ArrayRef, FuncCall)):
                self.used.add(node.name)

    def fresh(self, hint: str) -> str:
        """A new name like ``pp_<hint>`` (numbered on collision)."""
        base = f"{self.prefix}{hint}"
        if base not in self.used:
            self.used.add(base)
            return base
        i = 2
        while f"{base}{i}" in self.used:
            i += 1
        name = f"{base}{i}"
        self.used.add(name)
        return name


@dataclass
class SiteNames:
    """Fresh names used by the code generated for one site."""

    me: str
    j: str
    to: str
    from_: str
    ierr: str
    ierr_is_new: bool
    _pool: NamePool = field(repr=False, default=None)  # type: ignore[assignment]
    _copy_vars: List[str] = field(default_factory=list)
    slot: Optional[str] = None
    slot_loop: Optional[str] = None
    g: Optional[str] = None
    q: Optional[str] = None

    @staticmethod
    def allocate(unit: Unit, pool: NamePool) -> "SiteNames":
        table = build_symtab(unit)
        ierr_sym = table.lookup("ierr")
        reuse = (
            ierr_sym is not None
            and not ierr_sym.is_array
            and ierr_sym.base_type == "integer"
            and not ierr_sym.is_parameter
        )
        return SiteNames(
            me=pool.fresh("me"),
            j=pool.fresh("j"),
            to=pool.fresh("to"),
            from_=pool.fresh("from"),
            ierr="ierr" if reuse else pool.fresh("ierr"),
            ierr_is_new=not reuse,
            _pool=pool,
        )

    def copy_vars(self, rank: int) -> List[str]:
        """Loop indices for generated copy nests (allocated on demand)."""
        while len(self._copy_vars) < rank:
            self._copy_vars.append(
                self._pool.fresh(f"c{len(self._copy_vars) + 1}")
            )
        return self._copy_vars[:rank]

    def need_indirect(self) -> None:
        if self.slot is None:
            self.slot = self._pool.fresh("slot")
            self.slot_loop = self._pool.fresh("s")
            self.g = self._pool.fresh("g")
            self.q = self._pool.fresh("q")

    def declarations(self) -> List[TypeDecl]:
        """Integer declarations for every allocated generated name."""
        names = [self.me, self.j, self.to, self.from_]
        if self.ierr_is_new:
            names.append(self.ierr)
        names.extend(self._copy_vars)
        for extra in (self.slot, self.slot_loop, self.g, self.q):
            if extra is not None:
                names.append(extra)
        return [b.int_decl(*names)]


def insert_prolog(unit: Unit, names: SiteNames) -> None:
    """Declare generated variables and initialize ``me = mynode()``."""
    unit.decls.extend(names.declarations())
    unit.body.insert(
        0, b.assign(b.var(names.me), b.call_expr("mynode"))
    )
