"""Code generator: the interpreter's fast path for yield-free code.

The tree-walking interpreter dispatches on AST node type at *every*
visit, charges the cost model through a method call per operation, and
threads every statement through generator machinery (``yield from``)
even when the statement can never yield an engine operation.

This module removes those costs for the common case by generating
Python source.  A *pure* statement is one whose execution can never
yield to the simulator: no MPI call anywhere below it, decided by a
call-graph fixpoint (a call is impure only if it is an MPI operation or
transitively reaches one; externals run synchronously and are pure).
Each *maximal* pure statement — a pure statement the generator path
reaches directly — becomes one Python function, and every pure
subroutine such a region calls becomes one more.  All of a program's
functions are emitted into one module, built with ``compile()`` and
shared by every rank of a job (DESIGN.md §5):

* expressions become straight-line Python over the frame's scalar dict
  and the arrays' numpy storage, with the operator, literal, intrinsic
  and subscript arity baked in;
* DO and DO WHILE become Python loops, EXIT and CYCLE ``break`` and
  ``continue``; an EXIT, CYCLE or RETURN that leaves the function still
  raises the interpreter's control-flow exception;
* cost-model charges accumulate in a local float and are written back
  to the interpreter's ``_acc_cell`` before every call, print, raise of
  control flow and return, always as the same sequence of ``+``
  additions the tree-walking path performs.  The charges themselves are
  locals each function loads from the interpreter's cost model, so the
  text is the same for every cost model.

Charges are constants wherever the operand types are fixed by the
unit's declarations (scalars declared once, literals, local arrays);
elsewhere — dummy arrays, ``min``/``max``/``merge``, ``**``, undeclared
names — the emitted code keeps the runtime ``isinstance`` test.  Impure
statements keep the interpreter's generator path, and their nested pure
statements are regions of their own, so an outer time-step loop that
contains MPI pays generator overhead only at the communication
skeleton.

Compiled code objects are memoized process-wide by generated source
text, in an LRU of :data:`CODE_MEMO_SIZE` entries: the same program
compiled again (the next job, the next sweep point) costs one
generation walk and no ``compile()``.
"""

from __future__ import annotations

import math
import re
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import InterpError
from ..lang.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    BoolLit,
    CallStmt,
    Comment,
    ContinueStmt,
    CycleStmt,
    DoLoop,
    ExitStmt,
    Expr,
    ExternalDecl,
    FuncCall,
    If,
    ImplicitNone,
    IntLit,
    Print,
    RealLit,
    Return,
    SourceFile,
    Stmt,
    StrLit,
    Subroutine,
    TypeDecl,
    UnaryOp,
    Unit,
    VarRef,
    WhileLoop,
)
from .procedures import ExternalRegistry

#: compiled modules kept process-wide, keyed by their generated source
CODE_MEMO_SIZE = 64

_code_lock = threading.Lock()
_code_memo: "OrderedDict[str, Any]" = OrderedDict()


def _compile(text: str) -> Any:
    """``compile(text)``, memoized by text in a bounded LRU."""
    with _code_lock:
        code = _code_memo.get(text)
        if code is not None:
            _code_memo.move_to_end(text)
            return code
    code = compile(text, "<repro.interp.compiler>", "exec")
    with _code_lock:
        _code_memo[text] = code
        while len(_code_memo) > CODE_MEMO_SIZE:
            _code_memo.popitem(last=False)
    return code


def _subscript_error(subs: Sequence[int], arr) -> InterpError:
    """Reproduce FArray._index's error for an out-of-bounds subscript."""
    data = arr.data
    if len(subs) != data.ndim:
        return InterpError(
            f"rank mismatch: {len(subs)} subscripts for rank-{data.ndim} "
            f"array"
        )
    for s, lo, extent in zip(subs, arr.lbounds, data.shape):
        if not 0 <= s - lo < extent:
            return InterpError(
                f"subscript {s} out of bounds [{lo}, {lo + extent - 1}]"
            )
    return InterpError("internal: subscript error without cause")


def _set_scalar(sc: dict, types: dict, name: str, v: Any, line: int) -> None:
    """A store to a scalar whose declaration the generator cannot see."""
    if name not in sc:
        raise InterpError(f"undeclared scalar {name!r}", line)
    t = types.get(name, "integer")
    if t == "integer":
        sc[name] = int(v)
    elif t == "real":
        sc[name] = float(v)
    else:
        sc[name] = bool(v)


def _mod(a: Any, b: Any, line: int) -> Any:
    """``mod`` when the argument types are only known at run time."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise InterpError("mod with zero divisor", line)
        return int(math.fmod(a, b))
    return math.fmod(a, b)


# --------------------------------------------------------- static types
#
# The type letter of a value the emitted code produces: 'i' an int,
# 'b' a bool, 'n' an int or a bool, 'f' a float, 's' a string, None
# unknown until run time.  Only 'f' versus the int-like letters decides
# a charge (real_op or int_op); 'i' also lets the emitter drop int().

_INTLIKE = frozenset("ibn")
_NUMERIC = frozenset("ibnf")
_DECLARED = {"integer": "i", "real": "f", "logical": "b"}

#: the cost-model charges, as the locals the emitted code names them by
_COSTS = {
    "SO": "itp.cost.stmt_overhead",
    "IOP": "itp.cost.int_op",
    "ROP": "itp.cost.real_op",
    "MEM": "itp.cost.mem_access",
    "INTR": "itp.cost.intrinsic",
}
_COST_NAME = re.compile(r"\b(?:" + "|".join(_COSTS) + r")\b")

_CMP = {"==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH = {"+": "+", "-": "-", "*": "*"}
_MATH1 = {
    "sqrt": "_sqrt",
    "sin": "_sin",
    "cos": "_cos",
    "exp": "_exp",
    "log": "_log",
}


def _statements(body: Sequence[Stmt]):
    """Every statement of ``body``, nested ones included."""
    stack = list(body)
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, (DoLoop, WhileLoop)):
            stack.extend(s.body)
        elif isinstance(s, If):
            for _, branch in s.branches:
                stack.extend(branch)
            stack.extend(s.else_body)


def _real_operands(lt: Optional[str], rt: Optional[str]) -> Optional[bool]:
    """Whether a binary operation charges ``real_op``; None: run time."""
    if lt == "f" or rt == "f":
        return True
    if lt in _INTLIKE and rt in _INTLIKE:
        return False
    return None


def _intrinsic_type(name: str, types: Sequence[Optional[str]]) -> Optional[str]:
    """The static type of an intrinsic's result; None: run time."""
    n = len(types)
    if name == "mod" and n == 2:
        if types[0] in _INTLIKE and types[1] in _INTLIKE:
            return "i"
        if _real_operands(*types) and set(types) <= _NUMERIC:
            return "f"
        return None
    if n == 1 and name == "abs":
        return "f" if types[0] == "f" else "i" if types[0] in _INTLIKE else None
    if n == 1 and name == "int":
        return "i"
    if n == 1 and (name == "real" or name in _MATH1):
        return "f"
    if n == 2 and name in ("iand", "ior", "ieor", "ishft"):
        return "i"
    return None  # min, max, merge, size(), wrong arity, unknown


class _UnitTypes:
    """What one unit's declarations fix about its names.

    Only a name declared exactly once gets a static type; a DO variable
    or an MPI ``ierr`` argument may hold an int whatever its declared
    type, so those keep only what an int agrees with.
    """

    def __init__(self, unit: Optional[Unit]) -> None:
        #: scalar name -> declared base type (assignment coercion)
        self.declared: Dict[str, str] = {}
        #: scalar name -> type letter of the value it holds
        self.scalars: Dict[str, str] = {}
        #: array name -> (base type, rank, is a dummy)
        self.arrays: Dict[str, Tuple[str, int, bool]] = {}
        if unit is None:
            return
        params = set(getattr(unit, "params", ()))
        counts: Dict[str, int] = {}
        entities = []
        for decl in unit.decls:
            if isinstance(decl, TypeDecl):
                for ent in decl.entities:
                    counts[ent.name] = counts.get(ent.name, 0) + 1
                    entities.append((decl.base_type, ent))
        for base_type, ent in entities:
            if counts[ent.name] != 1 or base_type not in _DECLARED:
                continue
            if ent.dims:
                self.arrays[ent.name] = (
                    base_type, len(ent.dims), ent.name in params
                )
            else:
                self.declared[ent.name] = base_type
                self.scalars[ent.name] = _DECLARED[base_type]
        for name in params:
            if name not in counts:  # an undeclared dummy binds as integer
                self.declared[name] = "integer"
                self.scalars[name] = "i"
        from .interpreter import _MPI_CALLS

        for s in _statements(unit.body):
            if isinstance(s, DoLoop):
                self._holds_int(s.var)
            elif isinstance(s, CallStmt) and s.name in _MPI_CALLS and s.args:
                if isinstance(s.args[-1], VarRef):
                    self._holds_int(s.args[-1].name)

    def _holds_int(self, name: str) -> None:
        t = self.scalars.get(name)
        if t == "b":
            self.scalars[name] = "n"
        elif t == "f":
            del self.scalars[name]


class _V(NamedTuple):
    """An emitted value: Python expression text, type letter, and
    whether it is certainly a plain Python scalar (never a vector)."""

    code: str
    type: Optional[str]
    scalar: bool = True


def _lit(value: Any) -> str:
    if isinstance(value, float) and not math.isfinite(value):
        return f"float({repr(value)!r})"
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _is_atom(code: str) -> bool:
    """Text that names a value without computing anything."""
    return code.isidentifier() or code.startswith("sc[") or (
        code.replace(".", "", 1).replace("e-", "", 1).isdigit()
    )


def _loop_aliasable(var: str, body: Sequence[Stmt]) -> bool:
    """True when nothing in ``body`` can rebind the DO variable: no
    assignment to it, no nested DO over it, and no call (a call may copy
    a result back into it)."""
    for s in _statements(body):
        if isinstance(s, CallStmt):
            return False
        if isinstance(s, Assign) and isinstance(s.lhs, VarRef):
            if s.lhs.name == var:
                return False
        elif isinstance(s, DoLoop) and s.var == var:
            return False
    return True


class _Fn:
    """The function being emitted: its lines, temporaries, pending
    charges and the arrays and runtime values its header must load."""

    def __init__(self, types: _UnitTypes, in_sub: bool) -> None:
        self.types = types
        self.in_sub = in_sub
        self.lines: List[str] = []
        self.depth = 2
        self.ntemp = 0
        self.pending: List[str] = []
        self.loops = 0
        self.aliases: Dict[str, str] = {}
        self.arrays: Dict[str, int] = {}  # name -> hoist slot
        self.header: Dict[str, str] = {}  # local -> initializer

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def temp(self, prefix: str = "t") -> str:
        self.ntemp += 1
        return f"{prefix}{self.ntemp}"

    def charge(self, term: str) -> None:
        for name in _COST_NAME.findall(term):
            self.need(name, _COSTS[name])
        self.pending.append(term)

    def flush(self) -> None:
        """Emit the pending charges as one left-to-right chain: the same
        float additions, in the same order, as one ``+=`` apiece."""
        if self.pending:
            if len(self.pending) == 1:
                self.emit(f"_a += {self.pending[0]}")
            else:
                self.emit("_a = _a + " + " + ".join(self.pending))
            self.pending = []

    def writeback(self) -> None:
        self.flush()
        self.emit("acc[0] = _a")

    def atom(self, v: _V) -> _V:
        """``v`` as text that may be repeated without recomputing."""
        if _is_atom(v.code):
            return v
        t = self.temp()
        self.emit(f"{t} = {v.code}")
        return _V(t, v.type, v.scalar)

    def local(self, code: str) -> str:
        """``code`` held in a Python local: a frame read taken now."""
        if not code.startswith("sc["):
            return code
        t = self.temp()
        self.emit(f"{t} = {code}")
        return t

    def need(self, local: str, init: str) -> str:
        self.header.setdefault(local, init)
        return local


class StmtCompiler:
    """Generates and compiles the pure regions of one program.

    One compiler serves every interpreter of a job: the emitted
    functions take the interpreter (``itp``) and the frame (``f``) as
    parameters, so the module is generated once per job, not once per
    rank, and compiled once per text.  Generation is lazy — the first
    :meth:`body_entries` call builds everything, under a lock, since a
    session's program memo shares one compiler across the jobs (and the
    sweep server's threads) that run its program — and the
    ``compile()`` itself is shared process-wide through the code memo.
    """

    #: the charges' names in emitted code (see :data:`_COSTS`)
    SO, IOP, ROP, MEM, INTR = _COSTS

    def __init__(self, source: SourceFile, externals: ExternalRegistry) -> None:
        self.source = source
        self.externals = externals
        self.subroutines: Dict[str, Subroutine] = {
            u.name: u for u in source.units if isinstance(u, Subroutine)
        }
        self._sub_purity: Dict[str, bool] = {}
        self._fns: Optional[Dict[int, Callable]] = None
        self._exprs: Dict[int, Tuple[Expr, Callable]] = {}
        self._bodies: Dict[int, Tuple[list, list]] = {}
        self._pinned: List[Any] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------- purity

    def stmt_is_pure(self, stmt: Stmt) -> bool:
        """True when no execution of ``stmt`` can yield a SimOp."""
        if isinstance(stmt, CallStmt):
            return self._call_is_pure(stmt.name)
        if isinstance(stmt, (DoLoop, WhileLoop)):
            return all(self.stmt_is_pure(s) for s in stmt.body)
        if isinstance(stmt, If):
            return all(
                self.stmt_is_pure(s) for _, b in stmt.branches for s in b
            ) and all(self.stmt_is_pure(s) for s in stmt.else_body)
        return isinstance(
            stmt,
            (
                Assign,
                Print,
                Return,
                ExitStmt,
                CycleStmt,
                ContinueStmt,
                Comment,
                TypeDecl,
                ImplicitNone,
                ExternalDecl,
            ),
        )

    def _call_is_pure(self, name: str) -> bool:
        from .interpreter import _MPI_CALLS

        if name in _MPI_CALLS:
            return False
        if self.externals.lookup(name) is not None:
            return True
        sub = self.subroutines.get(name)
        if sub is None:
            return True  # unknown procedure: the error raises eagerly
        return self.sub_is_pure(sub)

    def sub_is_pure(self, sub: Subroutine) -> bool:
        if not self._sub_purity:
            self._compute_subroutine_purity()
        return self._sub_purity.get(sub.name, True)

    def _compute_subroutine_purity(self) -> None:
        """Transitive purity for every subroutine, as a worklist fixpoint.

        A subroutine is impure iff its body syntactically contains an MPI
        call, or it calls (transitively, through any cycle) an impure
        subroutine.  Computed bottom-up over the whole call graph in one
        pass — a recursive walk with an optimistic memo would finalize a
        member of a mutual-recursion cycle using a provisional answer.
        """
        from .interpreter import _MPI_CALLS

        subroutines = self.subroutines
        calls: Dict[str, set] = {}
        impure: set = set()
        for name, sub in subroutines.items():
            callees: set = set()
            for stmt in _statements(sub.body):
                if isinstance(stmt, CallStmt):
                    if stmt.name in _MPI_CALLS:
                        impure.add(name)
                    elif stmt.name in subroutines:
                        callees.add(stmt.name)
            calls[name] = callees

        callers: Dict[str, set] = {name: set() for name in subroutines}
        for name, callees in calls.items():
            for callee in callees:
                callers[callee].add(name)
        worklist = list(impure)
        while worklist:
            name = worklist.pop()
            for caller in callers[name]:
                if caller not in impure:
                    impure.add(caller)
                    worklist.append(caller)

        self._sub_purity = {
            name: name not in impure for name in subroutines
        }

    # ------------------------------------------------------------ lookups

    def body_entries(self, body: List[Stmt]):
        """``[(region_fn_or_None, stmt), ...]`` for a statement list the
        generator path executes; memoized by list identity.  A statement
        without a region (impure, or in a body the generator never
        reaches) takes the tree-walking path."""
        key = id(body)
        hit = self._bodies.get(key)
        if hit is not None and hit[0] is body:
            return hit[1]
        fns = self._functions()
        entries = [(fns.get(id(s)), s) for s in body]
        self._bodies[key] = (body, entries)
        return entries

    def expr(self, e: Expr) -> Callable:
        """The compiled ``fn(itp, frame) -> value`` of one expression."""
        hit = self._exprs.get(id(e))
        if hit is None and self._fns is None:
            self._functions()
            hit = self._exprs.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
        _, exprs = self._emit_module([], [(e, _UnitTypes(None))])
        fn = exprs[0]
        self._exprs[id(e)] = (e, fn)
        return fn

    # --------------------------------------------------------- generation

    def _regions(self) -> List[Tuple[Stmt, _UnitTypes]]:
        """Every maximal pure statement the generator path reaches."""
        out: List[Tuple[Stmt, _UnitTypes]] = []

        def walk(body: Sequence[Stmt], types: _UnitTypes) -> None:
            for s in body:
                if self.stmt_is_pure(s):
                    out.append((s, types))
                elif isinstance(s, (DoLoop, WhileLoop)):
                    walk(s.body, types)
                elif isinstance(s, If):
                    for _, b in s.branches:
                        walk(b, types)
                    walk(s.else_body, types)

        walk(self.source.main.body, _UnitTypes(self.source.main))
        for sub in self.subroutines.values():
            if not self.sub_is_pure(sub):
                walk(sub.body, _UnitTypes(sub))
        return out

    def _skeleton(self) -> List[Tuple[Expr, _UnitTypes]]:
        """Expressions to compile up front besides the regions."""
        return []

    def _functions(self) -> Dict[int, Callable]:
        """The region functions, generated on first use."""
        fns = self._fns
        if fns is None:
            with self._lock:
                fns = self._fns if self._fns is not None else self._build()
        return fns

    def _build(self) -> Dict[int, Callable]:
        regions = self._regions()
        skeleton = self._skeleton()
        fns, exprs = self._emit_module(regions, skeleton)
        self._pinned.append(regions)
        self._exprs.update(
            (id(e), (e, fn)) for (e, _), fn in zip(skeleton, exprs)
        )
        self._fns = {id(s): fn for (s, _), fn in zip(regions, fns)}
        return self._fns

    def _emit_module(self, regions, skeleton):
        """Generate, compile and instantiate one module: a ``_make``
        factory whose nested functions are the regions, the pure
        subroutines they call and the listed expressions."""
        self._nodes: List[Any] = []
        self._node_ids: Dict[int, int] = {}
        self._subs: Dict[str, int] = {}
        self._sub_queue: List[Subroutine] = []
        defs: List[str] = []
        for k, (s, types) in enumerate(regions):
            fn = _Fn(types, in_sub=False)
            self.stmt(s, fn)
            defs.append(self._function(f"r{k}", fn))
        for k, (e, types) in enumerate(skeleton):
            fn = _Fn(types, in_sub=False)
            v = self.expr_value(e, fn)
            fn.writeback()
            fn.emit(f"return {v.code}")
            defs.append(self._function(f"e{k}", fn, writeback=False))
        done = 0
        while done < len(self._sub_queue):
            sub = self._sub_queue[done]
            fn = _Fn(_UnitTypes(sub), in_sub=True)
            self.body(sub.body, fn)
            defs.append(self._function(f"s{self._subs[sub.name]}", fn))
            done += 1
        lines = ["def _make(N):"]
        for k in range(len(self._nodes)):
            lines.append(f"    N{k} = N[{k}]")
        lines.extend(defs)
        regs = ", ".join(f"r{k}" for k in range(len(regions)))
        exps = ", ".join(f"e{k}" for k in range(len(skeleton)))
        lines.append(f"    return ({regs}{',' if regions else ''}), "
                     f"({exps}{',' if skeleton else ''})")
        text = "\n".join(lines) + "\n"
        namespace = dict(self.runtime())
        exec(_compile(text), namespace)
        return namespace["_make"](tuple(self._nodes))

    def _function(self, name: str, fn: _Fn, writeback: bool = True) -> str:
        if writeback:
            fn.writeback()
        head = ["acc = itp._acc_cell", "_a = acc[0]"]
        head += [f"{k} = {v}" for k, v in fn.header.items()]
        for name_, slot in fn.arrays.items():
            head += self.hoist_array(name_, slot, fn)
        out = [f"    def {name}(itp, f):"]
        out += ["        " + h for h in head]
        out += fn.lines
        return "\n".join(out)

    def runtime(self) -> Dict[str, Any]:
        """The globals of every emitted module."""
        from .interpreter import _Cycle, _Exit, _Return

        return {
            "InterpError": InterpError,
            "_Exit": _Exit,
            "_Cycle": _Cycle,
            "_Return": _Return,
            "_subscript_error": _subscript_error,
            "_set_scalar": _set_scalar,
            "_mod": _mod,
            "_fmod": math.fmod,
            "_sqrt": math.sqrt,
            "_sin": math.sin,
            "_cos": math.cos,
            "_exp": math.exp,
            "_log": math.log,
        }

    def node(self, obj: Any) -> str:
        """A constant of the module (an AST node, an external)."""
        k = self._node_ids.get(id(obj))
        if k is None:
            k = self._node_ids[id(obj)] = len(self._nodes)
            self._nodes.append(obj)
        return f"N{k}"

    # ---------------------------------------------------------- statements

    def body(self, body: Sequence[Stmt], fn: _Fn) -> None:
        mark = len(fn.lines)
        for s in body:
            self.stmt(s, fn)
        fn.flush()
        if len(fn.lines) == mark:
            fn.emit("pass")

    def stmt(self, s: Stmt, fn: _Fn) -> None:
        if isinstance(s, Assign):
            self.assign(s, fn)
        elif isinstance(s, DoLoop):
            self.do_loop(s, fn)
        elif isinstance(s, If):
            self.if_stmt(s, fn)
        elif isinstance(s, WhileLoop):
            self.while_loop(s, fn)
        elif isinstance(s, CallStmt):
            self.call(s, fn)
        elif isinstance(s, Print):
            fn.charge(self.SO)
            items = [fn.atom(self.expr_value(e, fn)).code for e in s.items]
            fn.writeback()
            self.output(items, fn)
        elif isinstance(s, (Return, ExitStmt, CycleStmt)):
            fn.charge(self.SO)
            fn.flush()
            if isinstance(s, Return) and fn.in_sub:
                fn.emit("acc[0] = _a")
                fn.emit("return")
            elif isinstance(s, Return):
                fn.emit("acc[0] = _a")
                fn.emit("raise _Return()")
            elif fn.loops:
                fn.emit("break" if isinstance(s, ExitStmt) else "continue")
            else:
                fn.emit("acc[0] = _a")
                exc = "_Exit" if isinstance(s, ExitStmt) else "_Cycle"
                fn.emit(f"raise {exc}()")
        else:  # CONTINUE, comments, declarations
            fn.charge(self.SO)

    def output(self, items: List[str], fn: _Fn) -> None:
        values = "".join(f"{c}, " for c in items)
        fn.emit(f"itp.output.append(({values}))")

    def assign(self, s: Assign, fn: _Fn) -> None:
        fn.charge(self.SO)
        v = self.expr_value(s.rhs, fn)
        lhs = s.lhs
        if isinstance(lhs, VarRef):
            self.assign_scalar(lhs.name, v, s.line, fn)
        elif isinstance(lhs, ArrayRef):
            self.assign_array(lhs, v, s.line, fn)
        else:
            fn.emit(f"raise InterpError('invalid assignment target', {s.line})")

    def assign_scalar(self, name: str, v: _V, line: int, fn: _Fn) -> None:
        t = fn.types.declared.get(name)
        if t is None:
            fn.emit(f"_set_scalar(sc, f.types, {name!r}, {v.code}, {line})")
        elif _DECLARED[t] == v.type and v.scalar:
            fn.emit(f"sc[{name!r}] = {v.code}")
        else:
            conv = {"integer": "int", "real": "float", "logical": "bool"}[t]
            fn.emit(f"sc[{name!r}] = {conv}({v.code})")
        fn.need("sc", "f.scalars")

    def assign_array(self, lhs: ArrayRef, v: _V, line: int, fn: _Fn) -> None:
        v = fn.atom(v)
        arr = self.array(lhs.name, line, fn)
        subs = [self.to_int(self.expr_value(e, fn), fn) for e in lhs.subs]
        fn.charge(self.MEM)
        idx = self.checked_index(lhs.name, arr, subs, fn)
        if idx is None:
            fn.emit(f"{arr}.set([{', '.join(subs)}], {v.code})")
        else:
            fn.emit(f"{idx[0]}[{idx[1]}] = {v.code}")

    def do_loop(self, s: DoLoop, fn: _Fn) -> None:
        fn.charge(self.SO)
        # the bounds are read once, on entry: the body may reassign the
        # variables they were read from
        lo = fn.local(self.to_int(self.expr_value(s.lo, fn), fn))
        hi = self.to_int(self.expr_value(s.hi, fn), fn)
        step = 1
        if s.step is not None:
            if isinstance(s.step, IntLit) and s.step.value:
                step = s.step.value
            else:
                step = fn.local(self.to_int(self.expr_value(s.step, fn), fn))
                fn.emit(f"if {step} == 0:")
                fn.emit(f"    raise InterpError('do loop with zero step', "
                        f"{s.line})")
        fn.flush()
        n = fn.temp("n")
        v = fn.temp("i")
        if step == 1:
            fn.emit(f"{n} = {hi} - {lo} + 1")
            stop = f"{lo} + {n}"
            rng = f"range({lo}, {stop})"
        else:
            st = _lit(step) if isinstance(step, int) else step
            fn.emit(f"{n} = ({hi} - {lo} + {st}) // {st}")
            stop = f"{lo} + {n} * {st}"
            rng = f"range({lo}, {stop}, {st})"
        fn.emit(f"if {n} < 0:")
        fn.emit(f"    {n} = 0")
        fn.need("sc", "f.scalars")
        fn.emit(f"for {v} in {rng}:")
        fn.depth += 1
        fn.emit(f"sc[{s.var!r}] = {v}")
        saved = fn.aliases.get(s.var)
        if _loop_aliasable(s.var, s.body):
            fn.aliases[s.var] = v
        else:
            fn.aliases.pop(s.var, None)
        fn.loops += 1
        self.body(s.body, fn)
        fn.loops -= 1
        if saved is None:
            fn.aliases.pop(s.var, None)
        else:
            fn.aliases[s.var] = saved
        fn.depth -= 1
        fn.emit("else:")
        fn.emit(f"    sc[{s.var!r}] = {stop}")
        fn.charge(f"{self.IOP} * ({n} if {n} > 1 else 1)")
        fn.flush()

    def if_stmt(self, s: If, fn: _Fn) -> None:
        fn.charge(self.SO)
        opened = 0
        for cond, body in s.branches:
            fn.charge(self.IOP)
            c = self.expr_value(cond, fn)
            fn.flush()
            fn.emit(f"if {c.code}:")
            fn.depth += 1
            self.body(body, fn)
            fn.depth -= 1
            fn.emit("else:")
            fn.depth += 1
            opened += 1
        self.body(s.else_body, fn)
        fn.depth -= opened

    def while_loop(self, s: WhileLoop, fn: _Fn) -> None:
        fn.charge(self.SO)
        fn.flush()
        g = fn.temp("g")
        fn.emit(f"{g} = 0")
        fn.emit("while True:")
        fn.depth += 1
        fn.charge(self.IOP)
        c = self.expr_value(s.cond, fn)
        fn.flush()
        fn.emit(f"if not {c.code}:")
        fn.emit("    break")
        fn.emit(f"{g} += 1")
        fn.emit(f"if {g} > 10000000:")
        fn.emit(f"    raise InterpError('while loop exceeded iteration guard', "
                f"{s.line})")
        fn.loops += 1
        self.body(s.body, fn)
        fn.loops -= 1
        fn.depth -= 1

    def call(self, s: CallStmt, fn: _Fn) -> None:
        """A pure call: an external, a pure subroutine, or an unknown
        procedure (whose error raises when the call executes)."""
        fn.charge(self.SO)
        ext = self.externals.lookup(s.name)
        if ext is not None:
            fn.writeback()
            fn.emit(f"itp._exec_external({self.node(ext)}, {self.node(s)}, f)")
            fn.emit("_a = acc[0]")
            return
        sub = self.subroutines.get(s.name)
        if sub is None:
            msg = (
                f"call to unknown procedure {s.name!r} (not defined, not "
                f"registered as external, not an MPI call)"
            )
            fn.emit(f"raise InterpError({msg!r}, {s.line})")
            return
        k = self._subs.get(sub.name)
        if k is None:
            k = self._subs[sub.name] = len(self._subs)
            self._sub_queue.append(sub)
        fn.writeback()
        callee = fn.temp("c")
        fn.emit(f"{callee}, cb, eb = itp._bind_call("
                f"{self.node(sub)}, {self.node(s)}, f)")
        if fn.loops:
            # an EXIT or CYCLE outside any loop of the callee leaves
            # through the caller's loop, as on the tree-walking path
            fn.emit("try:")
            fn.emit(f"    s{k}(itp, {callee})")
            fn.emit("except _Exit:")
            fn.emit("    _a = acc[0]")
            fn.emit("    break")
            fn.emit("except _Cycle:")
            fn.emit("    _a = acc[0]")
            fn.emit("    continue")
        else:
            fn.emit(f"s{k}(itp, {callee})")
        fn.emit(f"itp._copy_back_results(f, {callee}, cb, eb)")
        fn.emit("_a = acc[0]")

    # -------------------------------------------------------------- arrays

    def array(self, name: str, line: int, fn: _Fn) -> str:
        """Text naming the frame's array ``name``: a hoisted local for a
        declared array, else a checked lookup at this point."""
        if name in fn.types.arrays:
            slot = fn.arrays.setdefault(name, len(fn.arrays))
            return f"A{slot}"
        fn.need("ar", "f.arrays")
        a = fn.temp("a")
        fn.emit(f"{a} = ar.get({name!r})")
        fn.emit(f"if {a} is None:")
        msg = f"undeclared array {name!r}"
        fn.emit(f"    raise InterpError({msg!r}, {line})")
        return a

    def hoist_array(self, name: str, slot: int, fn: _Fn) -> List[str]:
        _, ndim, _ = fn.types.arrays[name]
        lbs = ", ".join(f"L{slot}_{d}" for d in range(ndim))
        exts = ", ".join(f"E{slot}_{d}" for d in range(ndim))
        return [
            f"A{slot} = f.arrays[{name!r}]",
            f"D{slot} = A{slot}.data",
            f"{lbs}, = A{slot}.lbounds",
            f"{exts}, = D{slot}.shape",
        ]

    def checked_index(self, name: str, arr: str, subs: List[str], fn: _Fn):
        """Emit the bounds check of a declared array's element and return
        ``(data, index)`` text; None for an undeclared array, which goes
        through :class:`~repro.interp.values.FArray` itself."""
        info = fn.types.arrays.get(name)
        if info is None:
            return None
        slot = fn.arrays[name]
        if len(subs) != info[1]:
            fn.emit(f"raise _subscript_error(({''.join(x + ', ' for x in subs)}), "
                    f"{arr})")
            return f"D{slot}", ", ".join(subs) or "()"
        offs = []
        for d, sub in enumerate(subs):
            j = fn.temp("j")
            fn.emit(f"{j} = {sub} - L{slot}_{d}")
            offs.append(j)
        ok = " and ".join(f"0 <= {j} < E{slot}_{d}" for d, j in enumerate(offs))
        fn.emit(f"if not ({ok}):")
        fn.emit(f"    raise _subscript_error(({''.join(x + ', ' for x in subs)}), "
                f"{arr})")
        return f"D{slot}", ", ".join(offs)

    def array_get(self, e: ArrayRef, fn: _Fn) -> _V:
        arr = self.array(e.name, e.line, fn)
        subs = [self.to_int(self.expr_value(s, fn), fn) for s in e.subs]
        fn.charge(self.MEM)
        idx = self.checked_index(e.name, arr, subs, fn)
        t = fn.temp()
        if idx is None:
            fn.emit(f"{t} = {arr}.get([{', '.join(subs)}])")
            return _V(t, None)
        base, _, dummy = fn.types.arrays[e.name]
        if dummy:
            # storage is the actual's; the dummy's type converts
            conv = "float" if base == "real" else "int"
            fn.emit(f"{t} = {conv}({idx[0]}[{idx[1]}])")
            return _V(t, None)
        fn.emit(f"{t} = {idx[0]}.item({idx[1]})")
        return _V(t, "f" if base == "real" else "i")

    # ---------------------------------------------------------- expressions

    def to_int(self, v: _V, fn: _Fn) -> str:
        """``int(v)`` as an atom, dropping the call when ``v`` is an int."""
        if v.type == "i" and v.scalar:
            return fn.atom(v).code
        return fn.atom(_V(f"int({v.code})", "i")).code

    def to_bool(self, v: _V) -> str:
        if v.type == "b" and v.scalar:
            return v.code
        return f"bool({v.code})"

    def expr_value(self, e: Expr, fn: _Fn) -> _V:
        if isinstance(e, IntLit):
            return _V(_lit(e.value), "i" if type(e.value) is int else None)
        if isinstance(e, RealLit):
            return _V(_lit(e.value), "f" if type(e.value) is float else None)
        if isinstance(e, BoolLit):
            return _V(_lit(e.value), "b" if type(e.value) is bool else None)
        if isinstance(e, StrLit):
            return _V(_lit(e.value), "s")
        if isinstance(e, VarRef):
            return self.var(e, fn)
        if isinstance(e, ArrayRef):
            return self.array_get(e, fn)
        if isinstance(e, BinOp):
            return self.binop(e, fn)
        if isinstance(e, UnaryOp):
            return self.unop(e, fn)
        if isinstance(e, FuncCall):
            return self.funcall(e, fn)
        msg = f"cannot evaluate {type(e).__name__}"
        fn.emit(f"raise InterpError({msg!r}, {getattr(e, 'line', 0)})")
        return _V("None", None)

    def var(self, e: VarRef, fn: _Fn) -> _V:
        alias = fn.aliases.get(e.name)
        if alias is not None:
            return _V(alias, "i")
        fn.need("sc", "f.scalars")
        t = fn.types.scalars.get(e.name)
        if t is not None:
            return _V(f"sc[{e.name!r}]", t, self.scalar_var)
        tmp = fn.temp()
        fn.emit("try:")
        fn.emit(f"    {tmp} = sc[{e.name!r}]")
        fn.emit("except KeyError:")
        msg = f"undefined variable {e.name!r}"
        fn.emit(f"    raise InterpError({msg!r}, {e.line}) from None")
        return _V(tmp, None, self.scalar_var)

    #: whether a scalar variable certainly holds a plain Python scalar
    scalar_var = True

    def charge_for(self, l: _V, r: _V, fn: _Fn) -> Optional[bool]:
        """Charge a binary operation; returns its static realness."""
        real = _real_operands(l.type, r.type)
        if real is None:
            l, r = fn.atom(l), fn.atom(r)
            k = fn.temp("k")
            fn.emit(f"{k} = {self.is_real(l)} or {self.is_real(r)}")
            fn.charge(f"({self.ROP} if {k} else {self.IOP})")
        else:
            fn.charge(self.ROP if real else self.IOP)
        return real

    def is_real(self, v: _V) -> str:
        """Run-time test that ``v`` is real (for a charge)."""
        if v.type == "f":
            return "True"
        if v.type in _INTLIKE:
            return "False"
        return f"isinstance({v.code}, float)"

    def binop(self, e: BinOp, fn: _Fn) -> _V:
        op = e.op
        if op in (".and.", ".or."):
            fn.charge(self.IOP)
            l = self.expr_value(e.left, fn)
            t = fn.temp()
            fn.emit(f"{t} = {self.to_bool(l)}")
            fn.flush()
            fn.emit(f"if {t}:" if op == ".and." else f"if not {t}:")
            fn.depth += 1
            mark = len(fn.lines)
            r = self.expr_value(e.right, fn)
            fn.emit(f"{t} = {self.to_bool(r)}")
            fn.flush()
            if len(fn.lines) == mark:
                fn.emit("pass")
            fn.depth -= 1
            return _V(t, "b")
        # an operand the result uses once may stay an unevaluated
        # expression: those never raise and read nothing that changes
        # before the statement completes
        l = self.expr_value(e.left, fn)
        r = self.expr_value(e.right, fn)
        return self.binop_value(op, l, r, e.line, fn)

    def binop_value(self, op: str, l: _V, r: _V, line: int, fn: _Fn) -> _V:
        """Charge and compute ``l op r``."""
        if op not in _ARITH and op not in _CMP and op not in ("/", "**"):
            msg = f"unknown operator {op!r}"
            fn.emit(f"raise InterpError({msg!r}, {line})")
            return _V("None", None)
        real = self.charge_for(l, r, fn)
        known = l.type in _NUMERIC and r.type in _NUMERIC
        if op in _CMP:
            code = f"({l.code} {_CMP[op]} {r.code})"
            return _V(code, "b") if known else fn.atom(_V(code, "b"))
        if op in _ARITH:
            code = f"({l.code} {_ARITH[op]} {r.code})"
            if real is False:
                return _V(code, "i")  # int arithmetic never raises
            return fn.atom(_V(code, "f" if real else None))
        t = fn.temp()
        if op == "**":
            fn.emit(f"{t} = {l.code} ** {r.code}")
            return _V(t, None)
        if real:
            fn.emit(f"{t} = {l.code} / {r.code}")
            return _V(t, "f")
        if real is None:
            fn.emit(f"{t} = itp._binop_value('/', {l.code}, {r.code}, "
                    f"{self.is_real(l)} or {self.is_real(r)}, {line})")
            return _V(t, None)
        # Fortran integer division truncates toward zero
        l, r = fn.atom(l), fn.atom(r)
        if not (r.code.isdigit() and int(r.code) > 0):
            fn.emit(f"if {r.code} == 0:")
            fn.emit(f"    raise InterpError('integer division by zero', {line})")
            fn.emit(f"{t} = abs({l.code}) // abs({r.code})")
            fn.emit(f"if ({l.code} >= 0) != ({r.code} >= 0):")
        else:
            fn.emit(f"{t} = abs({l.code}) // {r.code}")
            fn.emit(f"if {l.code} < 0:")
        fn.emit(f"    {t} = -{t}")
        return _V(t, "i")

    def unop(self, e: UnaryOp, fn: _Fn) -> _V:
        v = self.expr_value(e.operand, fn)
        if e.op == "-":
            return self.negate(v, fn)
        if e.op == ".not.":
            fn.charge(self.IOP)
            return fn.atom(_V(f"(not {v.code})", "b"))
        msg = f"unknown unary op {e.op!r}"
        fn.emit(f"raise InterpError({msg!r}, {e.line})")
        return _V("None", None)

    def negate(self, v: _V, fn: _Fn) -> _V:
        if v.type == "f":
            fn.charge(self.ROP)
            return _V(f"(-{v.code})", "f")
        if v.type in _INTLIKE:
            fn.charge(self.IOP)
            return _V(f"(-{v.code})", "i")
        v = fn.atom(v)
        k = fn.temp("k")
        fn.emit(f"{k} = {self.is_real(v)}")
        fn.charge(f"({self.ROP} if {k} else {self.IOP})")
        return fn.atom(_V(f"(-{v.code})", None))

    def funcall(self, e: FuncCall, fn: _Fn) -> _V:
        name = e.name
        if name == "mynode":
            return self.mynode(fn)
        if name == "numnodes":
            return self.numnodes(fn)
        args = [self.expr_value(a, fn) for a in e.args]
        fn.charge(self.INTR)
        return self.intrinsic(name, args, e.line, fn)

    def mynode(self, fn: _Fn) -> _V:
        return _V(fn.need("RANK", "itp.rank"), "i")

    def numnodes(self, fn: _Fn) -> _V:
        return _V(fn.need("SIZE", "itp.size"), "i")

    def intrinsic(self, name: str, args: List[_V], line: int, fn: _Fn) -> _V:
        """Compute intrinsic ``name`` of evaluated, charged arguments."""
        n = len(args)
        codes = [a.code for a in args]
        rt = _intrinsic_type(name, [a.type for a in args])
        t = fn.temp()
        if name == "mod" and n == 2:
            a, b = codes
            if rt == "i":
                if not (b.isdigit() and int(b) > 0):
                    b = fn.atom(args[1]).code
                    fn.emit(f"if {b} == 0:")
                    fn.emit(f"    raise InterpError('mod with zero divisor', "
                            f"{line})")
                fn.emit(f"{t} = int(_fmod({a}, {b}))")
            elif rt == "f":
                fn.emit(f"{t} = _fmod({a}, {b})")
            else:
                fn.emit(f"{t} = _mod({a}, {b}, {line})")
        elif n == 1 and name == "abs":
            fn.emit(f"{t} = abs({codes[0]})")
        elif n == 1 and name in ("int", "real"):
            conv = "int" if name == "int" else "float"
            same = args[0].type == rt
            fn.emit(f"{t} = {codes[0]}" if same else f"{t} = {conv}({codes[0]})")
        elif n == 1 and name in _MATH1:
            fn.emit(f"{t} = {_MATH1[name]}({codes[0]})")
        elif n == 2 and name in ("iand", "ior", "ieor"):
            a, b = (self.to_int(x, fn) for x in args)
            sym = {"iand": "&", "ior": "|", "ieor": "^"}[name]
            fn.emit(f"{t} = {a} {sym} {b}")
        elif n == 2 and name == "ishft":
            a, s = (self.to_int(x, fn) for x in args)
            fn.emit(f"{t} = {a} << {s} if {s} >= 0 else {a} >> (-{s})")
        elif name in ("min", "max") and n:
            fn.emit(f"{t} = {name}(({''.join(c + ', ' for c in codes)}))")
        elif name == "merge" and n == 3:
            fn.emit(f"{t} = {codes[0]} if {codes[2]} else {codes[1]}")
        else:
            # size(), a wrong arity or an unknown name: the interpreter's
            # own intrinsic semantics raise (or answer) as when walking
            fn.emit(f"{t} = itp._intrinsic_value({name!r}, "
                    f"[{', '.join(codes)}], {line})")
        return _V(t, rt)
