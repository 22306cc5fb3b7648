"""Rank-symmetry recorder: interpret one representative, prove the rest.

SPMD programs in the mini-Fortran subset are usually *rank-symmetric*:
every rank executes the same statements in the same order, and the rank
id (``mynode()``) only flows into stored data and collective payloads,
never into control flow, message sizes, or communication partners.  For
such programs one interpretation can stand in for all ``P`` ranks — the
basis of the replay engine (DESIGN.md §10) that scales simulations to
1024+ ranks.

:class:`SymmetryRecorder` is an :class:`~repro.interp.interpreter.Interpreter`
that executes the program *once*, carrying rank-dependent values as
:class:`RankVec` vectors with one slot per rank (numpy-backed, so the
vector width is almost free).  The proof obligation is enforced
dynamically as a taint discipline: any attempt to convert a
:class:`RankVec` to a single scalar — a loop bound, an IF condition, an
MPI count or root, a subscript of a store, a point-to-point partner —
raises :class:`~repro.errors.SymmetryError`, and the caller falls back
to full per-rank interpretation.  There are no false positives: if
recording succeeds, replaying the recorded trace is bit-identical to
interpreting every rank (the parity suite in
``tests/integration/test_replay_parity.py`` checks exactly this guarantee).

Expressions run through a generated rank-vector value domain,
:class:`VecCompiler` — the code generator of the fast path
(:mod:`repro.interp.compiler`, DESIGN.md §5) with vector-aware operator,
intrinsic, array and assignment emitters.  Scalar operands take the
scalar domain's exact arithmetic and charges; a vector operand
dispatches to the vector semantics below.  The taint checks need no
code of their own: loop bounds, IF conditions and store subscripts pass
through ``int()``/``bool()`` in the generated code, and a vector
refuses both.  The recorder evaluates *every* expression this way,
including those of the communication skeleton (MPI arguments, bounds of
loops that contain MPI), so vector semantics have exactly one code
path.

What must match full interpretation, and how it is kept exact:

* **Virtual time.**  Cost charges never depend on *values*, only on the
  statements executed, so the single recorded charge stream is every
  rank's charge stream.  Pure statements run as generated code and
  the communication skeleton through the interpreter's generator path,
  exactly as in full interpretation, so the ``Compute`` partition (and
  the order of every floating-point charge) is the fast path's by
  construction.
* **Data.**  Arrays that ever receive a rank-dependent store are
  *shadowed*: a ``(P, size)`` matrix holding every rank's copy in flat
  Fortran order.  Collectives are applied to shadows algebraically
  (an alltoall is a blocked transpose, an allgather a concatenation),
  which is exact because the registered algorithms move bytes without
  transforming them; integer allreduce is exact under any combination
  order, while *real* allreduce raises :class:`SymmetryError` because
  its result depends on the algorithm's combination order.
* **Scalars.**  Rank-uniform scalars stay Python ints (arbitrary
  precision, like the full path).  Rank-dependent values live in int64/
  float64/bool numpy vectors; intermediates that overflow int64 are the
  one documented divergence (no roster app does this — see DESIGN.md
  §10).  Wherever numpy's result could differ from Python's —
  transcendental intrinsics, ``**``, ``min``/``max`` over mixed or real
  arguments — the operation runs element-wise through Python, so libm
  and Python's type rules give the scalar path's results bit-for-bit;
  if the per-rank results disagree in type (an ``int ** int`` that is
  real on some ranks only), the ranks' later charges would diverge, so
  that raises :class:`SymmetryError`.
* **Errors.**  A vector operation that would raise on some rank (a zero
  divisor slot, a negative ``sqrt`` argument, an out-of-bounds gather
  subscript, a non-finite ``int()``) raises :class:`SymmetryError`
  instead of guessing which rank fails first; ``engine_mode="auto"``
  then runs full interpretation, which reports the program's own error.

Shadow memory is bounded by ``max_shadow_bytes`` (default 256 MiB of
worst-case ``P × array`` footprint).  An array whose shadow would blow
the budget degrades to an *approximate* representative copy: timing
stays exact (charges are value-independent), but its per-rank contents
are dropped and any value read back out of it becomes an
:class:`ApproxVec`, which may flow into further stores but never into
control flow, printed output, or anything else observable — those raise
:class:`SymmetryError`, as does any error its representative value
would raise.  The owning :class:`~repro.interp.runner.ClusterRun`
is flagged ``data_approximate`` so correctness checkers refuse to
compare such arrays.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import InterpError, SimulationError, SymmetryError
from ..lang.ast_nodes import (
    ArrayRef,
    CallStmt,
    DoLoop,
    Expr,
    If,
    Slice,
    SourceFile,
    Stmt,
    TypeDecl,
    WhileLoop,
)
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from .compiler import StmtCompiler, _Fn, _intrinsic_type, _UnitTypes, _V
from .interpreter import _MPI_CALLS, Frame, Gen, Interpreter
from .procedures import ExternalRegistry
from .values import FArray, Scalar

# Bump when the recorder's semantics change in any way that could alter
# a replayed result: job fingerprints fold this in (runner.job_fingerprint),
# so cached measurements produced under older recorder semantics are
# invalidated rather than served stale.
SYMMETRY_VERSION = "1.0"

# Worst-case bytes of per-rank shadow storage (P × flat array) the
# recorder will allocate before degrading an array to an approximate
# representative.  256 MiB keeps parity-scale runs (P <= 64) fully
# exact while letting a 1024-rank nodeloop (16 GiB of would-be shadows)
# complete with exact timing.
MAX_SHADOW_BYTES = 256 * 1024 * 1024


class _Vec:
    """Common base of the rank-varying value kinds, so one
    ``isinstance`` per operand tells a vector from a scalar."""

    __slots__ = ()


class RankVec(_Vec):
    """A rank-indexed value: slot ``r`` is the value rank ``r`` computes.

    Backed by a numpy vector (int64 / float64 / bool) so element-wise
    arithmetic over all ranks costs one vector op.  The vector is never
    modified in place once wrapped, so values may share it.  Converting
    one to a plain scalar is exactly the taint sink the symmetry proof
    forbids, so every conversion protocol raises :class:`SymmetryError`.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def _diverges(self, what: str) -> SymmetryError:
        return SymmetryError(
            f"rank-dependent value used {what}: ranks would diverge, so "
            f"one recorded trace cannot stand in for all of them"
        )

    def __bool__(self) -> bool:
        raise self._diverges("in control flow or a logical context")

    def __int__(self) -> int:
        raise self._diverges(
            "where a rank-uniform integer is required (loop bound, MPI "
            "count/root/partner, store subscript, array bound)"
        )

    def __index__(self) -> int:
        raise self._diverges("as an index")

    def __float__(self) -> float:
        raise self._diverges("where a rank-uniform real is required")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RankVec({self.values!r})"


class ApproxVec(_Vec):
    """A rank-varying value whose per-rank contents were dropped.

    Produced only by reads from budget-degraded (approximate) arrays.
    Carries one deterministic representative so arithmetic and stores
    keep working — timing charges are value-independent — but it is
    *not* any real rank's value, so everything observable (control
    flow, subscripts, MPI arguments, printed output) raises
    :class:`SymmetryError`.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: Scalar) -> None:
        self.rep = rep

    @property
    def is_real(self) -> bool:
        return isinstance(self.rep, float)

    def _dropped(self, what: str) -> SymmetryError:
        return SymmetryError(
            f"approximate per-rank data (shadow budget exceeded) used "
            f"{what}; rerun with engine_mode='full' if its exact contents "
            f"matter"
        )

    def __bool__(self) -> bool:
        raise self._dropped("in control flow")

    def __int__(self) -> int:
        raise self._dropped("where a rank-uniform integer is required")

    def __index__(self) -> int:
        raise self._dropped("as an index")

    def __float__(self) -> float:
        raise self._dropped("where a rank-uniform real is required")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ApproxVec({self.rep!r})"


# trace event tuples produced by the recorder (sizes are element counts):
#   ("compute", seconds)
#   ("alltoall", send_elems, recv_elems)
#   ("allreduce", count, op)
#   ("allgather", send_elems, recv_elems)
#   ("bcast", count, root)
#   ("barrier",)
TraceEvent = Tuple[Any, ...]


# ------------------------------------------------------- vector semantics


def _rep_of(x: Any) -> Scalar:
    if isinstance(x, ApproxVec):
        return x.rep
    if isinstance(x, RankVec):
        return x.values[0].item()
    return x


_SCALAR_KIND = {bool: "b", int: "i", float: "f"}

# numpy kind letter of a vector already of each declared type
_TYPE_KIND = {"integer": "i", "real": "f", "logical": "b"}


def _kind(x: Any) -> Optional[str]:
    """numpy kind letter of a vector or scalar (None: not numeric)."""
    if isinstance(x, RankVec):
        return x.values.dtype.kind
    return _SCALAR_KIND.get(type(x))


def _num(x: Any) -> Any:
    """An arithmetic operand with Python's bool semantics (``True +
    True == 2``, ``-True == -1``): numpy would treat bools logically."""
    if isinstance(x, np.ndarray):
        return x.astype(np.int64) if x.dtype.kind == "b" else x
    return int(x) if isinstance(x, bool) else x


def _failing(what: str, exc: Optional[BaseException] = None) -> SymmetryError:
    cause = f" ({type(exc).__name__}: {exc})" if exc is not None else ""
    return SymmetryError(
        f"{what} on some ranks{cause}: full interpretation reports the "
        f"program's own error"
    )


def _ints(v: Any) -> Any:
    """``int()`` of every slot (truncation toward zero), as int64."""
    if not isinstance(v, np.ndarray):
        return int(v)
    if v.dtype.kind != "f":
        return v.astype(np.int64, copy=False)
    if np.isfinite(v).all() and (np.abs(v) < 2.0**63).all():
        return np.trunc(v).astype(np.int64)
    raise _failing("int() of a non-finite or out-of-range real")


def _pack(out: List[Any]) -> RankVec:
    """One rank's scalar result per slot, as a vector — if every rank
    got the same type (otherwise their later charges would diverge)."""
    kinds = set(map(type, out))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is float:
            return RankVec(np.array(out, dtype=np.float64))
        if kind is bool:
            return RankVec(np.array(out, dtype=np.bool_))
        if kind is int:
            try:
                return RankVec(np.array(out, dtype=np.int64))
            except OverflowError:
                pass
    raise SymmetryError(
        f"per-rank results of types {sorted(k.__name__ for k in kinds)} "
        f"(or beyond int64): ranks would take different charges"
    )


def _elementwise(fn: Callable[..., Any], args: List[Any]) -> RankVec:
    """``fn`` applied rank by rank with Python scalar semantics."""
    cols = [
        a.values.tolist() if isinstance(a, RankVec) else itertools.repeat(a)
        for a in args
    ]
    try:
        out = [fn(*xs) for xs in zip(*cols)]
    except (ArithmeticError, ValueError) as exc:
        raise _failing("an operation raises", exc) from exc
    return _pack(out)


def _approx(fn: Callable[..., Any], *args: Any) -> ApproxVec:
    """Scalar semantics on approximate representatives.  An error there
    proves nothing about the real ranks, so it is a fallback."""
    try:
        return ApproxVec(fn(*args))
    except (ArithmeticError, ValueError, InterpError) as exc:
        raise SymmetryError(
            f"approximate per-rank data (shadow budget exceeded) raised "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _has_zero(v: Any) -> bool:
    return not v.all() if isinstance(v, np.ndarray) else v == 0


_COMPARE: Dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "/=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}

_SCALAR_BINOPS = {**_ARITH, **_COMPARE}

# arguments each intrinsic reads (the scalar path ignores the rest);
# None: all of them
_INTRINSIC_ARITY: Dict[str, Optional[int]] = {
    "mod": 2,
    "min": None,
    "max": None,
    "abs": 1,
    "int": 1,
    "real": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "iand": 2,
    "ior": 2,
    "ieor": 2,
    "ishft": 2,
    "merge": 3,
}


def _exact_offset(arr: FArray, subs: List[Any]) -> Optional[int]:
    """The flat Fortran-order offset of an in-bounds element of a 1-D or
    2-D array subscripted by ints; None for anything else."""
    data = arr.data
    lb = arr.lbounds
    if len(subs) == 1:
        s0 = subs[0]
        if s0.__class__ is int and data.ndim == 1:
            j0 = s0 - lb[0]
            if 0 <= j0 < data.shape[0]:
                return j0
    elif len(subs) == 2:
        s0, s1 = subs
        if s0.__class__ is int and s1.__class__ is int and data.ndim == 2:
            n0, n1 = data.shape
            j0 = s0 - lb[0]
            j1 = s1 - lb[1]
            if 0 <= j0 < n0 and 0 <= j1 < n1:
                return j0 + j1 * n0
    return None


def _flat_offset(arr: FArray, subs: List[int]) -> int:
    """:meth:`FArray.flat_offset` with the 1-D and 2-D cases inlined."""
    off = _exact_offset(arr, subs)
    return arr.flat_offset(subs) if off is None else off


def _call_error(name: str) -> SymmetryError:
    # Subroutines and externals execute per rank with the rank id in
    # scope; one vectorized activation cannot prove them symmetric.
    # (An *unknown* procedure also lands here: the full-interpretation
    # fallback then reports the proper undefined-procedure error.)
    return SymmetryError(
        f"call to procedure {name!r}: subroutine/external bodies are "
        f"interpreted per rank and are outside the symmetry proof"
    )


def _vreal(x: Any) -> bool:
    """Whether ``x`` — a scalar or a vector — charges as a real."""
    c = x.__class__
    if c is RankVec:
        return x.values.dtype.kind == "f"
    if c is ApproxVec:
        return isinstance(x.rep, float)
    return isinstance(x, float)


def _vbin(op: str, l: Any, r: Any, line: int, last: List[Any]) -> Any:
    """``l op r`` (already charged) when either side may be a vector.

    Vectors are immutable, so the last result is reused while both
    operands are the very same objects: ``last`` is one operator site's
    ``[l, r, l op r]``, and a loop-invariant term such as
    ``mynode() * 37`` costs one vector operation per site, not one per
    iteration.
    """
    lc = l.__class__
    rc = r.__class__
    if lc is ApproxVec or rc is ApproxVec:
        lr, rr = _rep_of(l), _rep_of(r)
        is_real = isinstance(lr, float) or isinstance(rr, float)
        return _approx(_binop_value, op, lr, rr, is_real, line)
    if lc is not RankVec and rc is not RankVec:
        is_real = isinstance(l, float) or isinstance(r, float)
        return _binop_value(op, l, r, is_real, line)
    if l is last[0] and r is last[1]:
        return last[2]
    if lc is RankVec:
        lv = l.values
        lk = lv.dtype.kind
    else:
        lv = l
        lk = _SCALAR_KIND.get(lc)
    if rc is RankVec:
        rv = r.values
        rk = rv.dtype.kind
    else:
        rv = r
        rk = _SCALAR_KIND.get(rc)
    cmp = _COMPARE.get(op)
    if cmp is not None:
        out = RankVec(cmp(lv, rv))
    elif op == "**":
        # Python's ** is int, real or an error depending on values
        out = _elementwise(operator.pow, [l, r])
    else:
        if lk == "b":
            lv = _num(lv)
        if rk == "b":
            rv = _num(rv)
        arith = _ARITH.get(op)
        if arith is not None:
            out = RankVec(arith(lv, rv))
        elif _has_zero(rv):  # "/": Python raises on any zero divisor
            raise _failing("division by zero")
        elif lk == "f" or rk == "f":
            out = RankVec(lv / rv)
        else:
            q = abs(lv) // abs(rv)
            out = RankVec(np.where((lv >= 0) == (rv >= 0), q, -q))
    last[0] = l
    last[1] = r
    last[2] = out
    return out


def _vneg(v: Any) -> Any:
    if v.__class__ is RankVec:
        return RankVec(-_num(v.values))
    if v.__class__ is ApproxVec:
        return ApproxVec(-v.rep)
    return -v


def _vintrinsic(itp: Any, name: str, args: List[Any], line: int) -> Any:
    """Evaluate intrinsic ``name`` (already charged) when some argument
    is a vector."""
    scalar = itp._intrinsic_value
    if name not in _INTRINSIC_ARITY:
        return scalar(name, args, line)  # size() / unknown: its error
    used = args[: _INTRINSIC_ARITY[name]]
    if not any(isinstance(a, _Vec) for a in used):
        return scalar(name, args, line)  # only ignored args vary
    if any(isinstance(a, ApproxVec) for a in used):
        return _approx(scalar, name, [_rep_of(a) for a in args], line)
    vals = [a.values if isinstance(a, RankVec) else a for a in args]
    if name == "mod":
        a, b = vals
        if _has_zero(b):
            raise _failing("mod with a zero divisor")
        # isinstance(v, int) on the scalar path (bool is an int)
        ints = ("b", "i")
        real = not (_kind(args[0]) in ints and _kind(args[1]) in ints)
        if real and np.isinf(a).any():
            raise _failing("mod of an infinite dividend")
        return RankVec(np.fmod(_num(a), _num(b)))
    if name in ("min", "max"):
        if all(_kind(a) == "i" for a in args):
            fold = np.minimum if name == "min" else np.maximum
            out = vals[0]
            for v in vals[1:]:
                out = fold(out, v)
            return RankVec(out)
        pick = min if name == "min" else max
        return _elementwise(lambda *xs: pick(xs), args)
    v = vals[0]
    if name == "abs":
        return RankVec(np.abs(_num(v)))
    if name == "int":
        return RankVec(_ints(v))
    if name == "real":
        return RankVec(_num(v).astype(np.float64))
    if name == "sqrt":
        if (v < 0).any():
            raise _failing("sqrt of a negative argument")
        return RankVec(np.sqrt(_num(v)))
    if name in ("sin", "cos", "exp", "log"):
        # through libm rank by rank: numpy's SIMD kernels for these
        # are not guaranteed bit-identical to math.*
        return _elementwise(getattr(math, name), args[:1])
    if name == "merge":
        t, f, cond = args[0], args[1], args[2]
        if not isinstance(cond, RankVec):
            return t if bool(cond) else f
        if _kind(t) is not None and _kind(t) == _kind(f):
            return RankVec(np.where(cond.values != 0, vals[0], vals[1]))
        return _elementwise(lambda x, y, c: x if c else y, args[:3])
    a, b = _ints(vals[0]), _ints(vals[1])
    if name == "iand":
        return RankVec(a & b)
    if name == "ior":
        return RankVec(a | b)
    if name == "ieor":
        return RankVec(a ^ b)
    # ishft
    left = np.left_shift(a, np.maximum(b, 0))
    right = np.right_shift(a, np.maximum(-b, 0))
    return RankVec(np.asarray(np.where(b >= 0, left, right)))


def _vcall(itp: Any, name: str, args: List[Any], line: int) -> Any:
    for a in args:
        if isinstance(a, _Vec):
            return _vintrinsic(itp, name, args, line)
    return itp._intrinsic_value(name, args, line)


def _vmod(itp: Any, a: Any, b: Any, line: int) -> Any:
    if a.__class__ is RankVec and b.__class__ is int and b:
        v = a.values
        if v.dtype.kind == "i":  # the common integer case
            return RankVec(np.fmod(v, b))
    return _vcall(itp, "mod", [a, b], line)


def _vscalar(v: Any, t: str, coerce: Callable[[Any, str], Any]) -> Any:
    """A value stored into a scalar declared ``t``."""
    if isinstance(v, _Vec):
        if v.__class__ is RankVec and v.values.dtype.kind == _TYPE_KIND.get(t):
            return v  # already of the declared type
        return coerce(v, t)
    if t == "integer":
        return int(v)
    if t == "real":
        return float(v)
    return bool(v)


def _vstore(
    itp: Any, name: str, arr: FArray, subs: List[Any], v: Any, line: int
) -> None:
    if v.__class__ is RankVec:
        # the hot case: a rank-dependent value into a shadow
        shadow = itp.shadows.get(name)
        if shadow is not None:
            off = _exact_offset(arr, subs)
            if off is not None:
                shadow[:, off] = v.values
                return
    itp._store_element(name, arr, subs, v, line)


def _vprint(out: List[Tuple[Any, ...]], values: Tuple[Any, ...]) -> None:
    for v in values:
        if isinstance(v, ApproxVec):
            raise v._dropped("in printed output")
    out.append(values)


_binop_value = Interpreter._binop_value

_CONVERT = {"integer": "int", "real": "float", "logical": "bool"}


class VecCompiler(StmtCompiler):
    """The code generator over the rank-vector value domain.

    Only the emitters whose operands can be vectors are replaced — the
    operators, intrinsics, array reads and stores, and scalar stores —
    plus print (approximate values are unobservable) and calls (outside
    the proof).  Statements, loops and conditionals are the base
    generator's, whose ``int()``/``bool()`` conversions of a value that
    may be a vector are kept: those are the taint checks.  Operands that
    are certainly scalars take the base emitters unchanged; the others
    call the vector helpers above, with the same evaluation order and
    charges.  The communication skeleton's expressions are compiled up
    front as functions of their own, so the recorder evaluates every
    expression through generated code.
    """

    scalar_var = False

    def __init__(self, source: SourceFile, externals: ExternalRegistry) -> None:
        super().__init__(source, externals)
        self._sites = itertools.count()  # operator sites, across modules

    def memo(self, fn: _Fn) -> str:
        """A fresh operator site's slot in the recorder's ``_site_memo``."""
        return f"{fn.need('VM', 'itp._site_memo')}[{next(self._sites)}]"

    def runtime(self) -> Dict[str, Any]:
        return {
            **super().runtime(),
            "_vbin": _vbin,
            "_vneg": _vneg,
            "_vmod": _vmod,
            "_vcall": _vcall,
            "_vreal": _vreal,
            "_vscalar": _vscalar,
            "_vstore": _vstore,
            "_vprint": _vprint,
            "_call_error": _call_error,
        }

    def _skeleton(self):
        main = self.source.main
        types = _UnitTypes(main)
        out: Dict[int, Tuple[Expr, Any]] = {}

        def add(e: Optional[Expr], types: _UnitTypes = types) -> None:
            if e is not None:
                out.setdefault(id(e), (e, types))

        # a declaration may read a name declared after it, still unbound
        # while the declarations elaborate: no static types, so every
        # read is a checked lookup that raises the program's own error
        unbound = _UnitTypes(None)
        for decl in main.decls:
            if isinstance(decl, TypeDecl):
                for ent in decl.entities:
                    add(ent.init, unbound)
                    for d in ent.dims:
                        add(d.lo, unbound)
                        add(d.hi, unbound)

        def walk(body: List[Stmt]) -> None:
            for s in body:
                if self.stmt_is_pure(s):
                    continue
                if isinstance(s, DoLoop):
                    add(s.lo)
                    add(s.hi)
                    add(s.step)
                    walk(s.body)
                elif isinstance(s, WhileLoop):
                    add(s.cond)
                    walk(s.body)
                elif isinstance(s, If):
                    for cond, b in s.branches:
                        add(cond)
                        walk(b)
                    walk(s.else_body)
                elif isinstance(s, CallStmt):
                    for a in s.args:
                        if not isinstance(a, ArrayRef):
                            add(a)
                            continue
                        for sub in a.subs:
                            if isinstance(sub, Slice):
                                add(sub.lo)
                                add(sub.hi)
                            else:
                                add(sub)

        walk(main.body)
        return list(out.values())

    # --------------------------------------------------------- emitters

    def is_real(self, v: _V) -> str:
        if v.scalar or v.type is not None:
            return super().is_real(v)
        return f"_vreal({v.code})"

    def binop_value(self, op: str, l: _V, r: _V, line: int, fn: _Fn) -> _V:
        if l.scalar and r.scalar or op not in _SCALAR_BINOPS and op not in (
            "/",
            "**",
        ):
            return super().binop_value(op, l, r, line, fn)
        l, r = fn.atom(l), fn.atom(r)
        real = self.charge_for(l, r, fn)
        t = fn.temp()
        vec = f"_vbin({op!r}, {l.code}, {r.code}, {line}, {self.memo(fn)})"
        checks = [f"{x.code}.__class__ is int" for x in (l, r) if not x.scalar]
        if op in _SCALAR_BINOPS:
            py = {"/=": "!="}.get(op, op)
            fn.emit(f"{t} = {l.code} {py} {r.code} if {' and '.join(checks)} "
                    f"else {vec}")
        else:
            fn.emit(f"{t} = {vec}")
        if op in _COMPARE:
            rt = "b"
        elif op == "**" or real is None:
            rt = None
        else:
            rt = "f" if real else "i"
        return _V(t, rt, False)

    def negate(self, v: _V, fn: _Fn) -> _V:
        if v.scalar:
            return super().negate(v, fn)
        v = fn.atom(v)
        if v.type == "f" or v.type in ("i", "b", "n"):
            fn.charge(self.ROP if v.type == "f" else self.IOP)
            rt = "f" if v.type == "f" else "i"
        else:
            k = fn.temp("k")
            fn.emit(f"{k} = _vreal({v.code})")
            fn.charge(f"({self.ROP} if {k} else {self.IOP})")
            rt = None
        t = fn.temp()
        fn.emit(f"{t} = -{v.code} if {v.code}.__class__ is int else "
                f"_vneg({v.code})")
        return _V(t, rt, False)

    def mynode(self, fn: _Fn) -> _V:
        return _V(fn.need("MYNODE", "itp._mynode"), "i", False)

    def numnodes(self, fn: _Fn) -> _V:
        return _V(fn.need("NRANKS", "itp.nranks"), "i")

    def intrinsic(self, name: str, args: List[_V], line: int, fn: _Fn) -> _V:
        if all(a.scalar for a in args):
            return super().intrinsic(name, args, line, fn)
        args = [fn.atom(a) for a in args]
        codes = ", ".join(a.code for a in args)
        rt = _intrinsic_type(name, [a.type for a in args])
        t = fn.temp()
        if name == "mod" and rt == "i":
            # rank-uniform ints take the scalar path's own arithmetic
            a, b = args
            checks = [f"{x.code}.__class__ is int" for x in args if not x.scalar]
            if not (b.scalar and b.code.isdigit() and int(b.code) > 0):
                checks.append(b.code)  # a zero divisor raises in _vmod
            fn.emit(f"{t} = int(_fmod({a.code}, {b.code})) if "
                    f"{' and '.join(checks)} else _vmod(itp, {codes}, {line})")
        elif name == "mod" and len(args) == 2:
            fn.emit(f"{t} = _vmod(itp, {codes}, {line})")
        else:
            fn.emit(f"{t} = _vcall(itp, {name!r}, [{codes}], {line})")
        return _V(t, rt, False)

    def hoist_array(self, name: str, slot: int, fn: _Fn) -> List[str]:
        return [f"A{slot} = f.arrays[{name!r}]"]

    def array_get(self, e: ArrayRef, fn: _Fn) -> _V:
        arr = self.array(e.name, e.line, fn)
        subs = [fn.atom(self.expr_value(s, fn)).code for s in e.subs]
        fn.charge(self.MEM)
        read = fn.need("RD", "itp._read_element")
        t = fn.temp()
        fn.emit(f"{t} = {read}({e.name!r}, {arr}, [{', '.join(subs)}], "
                f"{e.line})")
        info = fn.types.arrays.get(e.name)
        rt = None
        if info is not None and not info[2]:
            rt = "f" if info[0] == "real" else "i"
        return _V(t, rt, False)

    def assign_scalar(self, name: str, v: _V, line: int, fn: _Fn) -> None:
        if v.scalar:
            return super().assign_scalar(name, v, line, fn)
        v = fn.atom(v)
        coerce = fn.need("CO", "itp._coerce")
        fn.need("sc", "f.scalars")
        t = fn.types.declared.get(name)
        if t is None:
            msg = f"undeclared scalar {name!r}"
            fn.emit(f"if {name!r} not in sc:")
            fn.emit(f"    raise InterpError({msg!r}, {line})")
            fn.emit(f"sc[{name!r}] = _vscalar({v.code}, "
                    f"f.types.get({name!r}, 'integer'), {coerce})")
            return
        fn.emit(f"sc[{name!r}] = {v.code} if {v.code}.__class__ is "
                f"{_CONVERT[t]} else _vscalar({v.code}, {t!r}, {coerce})")

    def assign_array(self, lhs: ArrayRef, v: _V, line: int, fn: _Fn) -> None:
        v = fn.atom(v)
        arr = self.array(lhs.name, line, fn)
        subs = [fn.atom(self.expr_value(e, fn)).code for e in lhs.subs]
        fn.charge(self.MEM)
        fn.emit(f"_vstore(itp, {lhs.name!r}, {arr}, [{', '.join(subs)}], "
                f"{v.code}, {line})")

    def output(self, items: List[str], fn: _Fn) -> None:
        values = "".join(f"{c}, " for c in items)
        fn.emit(f"_vprint(itp.output, ({values}))")

    def call(self, s, fn: _Fn) -> None:
        fn.emit(f"raise _call_error({s.name!r})")


class SymmetryRecorder(Interpreter):
    """One vectorized interpretation standing in for all ``nranks`` ranks.

    Drive it like an interpreter (``run_collecting()``); it yields only
    ``Compute`` ops (communication is recorded, not performed).  After a
    successful run, :attr:`trace` holds the collective/compute schedule
    every rank follows, :attr:`main_frame` the rank-uniform final state,
    and :attr:`shadows` each rank-varying array's per-rank contents.
    """

    def __init__(
        self,
        source: SourceFile,
        nranks: int,
        *,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_shadow_bytes: int = MAX_SHADOW_BYTES,
    ) -> None:
        if nranks < 1:
            raise SimulationError(f"cannot record a trace for {nranks} ranks")
        super().__init__(
            source,
            comm=None,
            cost_model=cost_model,
            compiler=VecCompiler(source, ExternalRegistry()),
        )
        # each operator site's last vector result (see _vbin)
        self._site_memo: Dict[int, List[Any]] = defaultdict(
            lambda: [None, None, None]
        )
        self.nranks = nranks
        self.max_shadow_bytes = max_shadow_bytes
        self.trace: List[TraceEvent] = []
        # per-array (P, size) matrices of flat Fortran-order contents;
        # while an entry exists the FArray's own storage is stale
        self.shadows: Dict[str, np.ndarray] = {}
        self._shadow_bytes = 0
        # arrays degraded to an approximate representative copy
        self._approx: Set[str] = set()
        self._mynode = RankVec(np.arange(nranks, dtype=np.int64))

    @property
    def data_approximate(self) -> bool:
        return bool(self._approx)

    # --------------------------------------------------------- statements

    def _eval(self, e: Expr, frame: Frame) -> Any:
        # the communication skeleton (loop bounds, IF conditions, MPI
        # arguments, declarations) evaluates through generated code too
        return self._compiler.expr(e)(self, frame)

    def _exec_call(self, stmt, frame: Frame) -> Gen:
        if stmt.name in _MPI_CALLS:
            yield from self._exec_mpi(stmt, frame)
            return
        raise _call_error(stmt.name)

    def _coerce(self, value: Any, base_type: str) -> Any:  # type: ignore[override]
        if isinstance(value, RankVec):
            v = value.values
            if base_type == "integer":
                out = _ints(v)
            elif base_type == "real":
                out = _num(v).astype(np.float64, copy=False)
            else:
                out = v != 0
            return value if out is v else RankVec(out)
        if isinstance(value, ApproxVec):
            return _approx(Interpreter._coerce, value.rep, base_type)
        return Interpreter._coerce(value, base_type)

    # ------------------------------------------------------ shadowed arrays

    def _read_element(
        self, name: str, arr: FArray, subs: List[Any], line: int
    ) -> Any:
        exact = True
        for s in subs:
            if s.__class__ is not int:
                if isinstance(s, _Vec):
                    return self._gather(name, arr, subs, line)
                exact = False
        if not exact:
            subs = [int(s) for s in subs]
        off = _flat_offset(arr, subs)
        shadow = self.shadows.get(name)
        if shadow is not None:
            # copy first: comparing the contiguous copy is cheaper
            return self._collapse(shadow[:, off].copy(), arr.base_type)
        v = arr.flat()[off]
        value = float(v) if arr.base_type == "real" else int(v)
        return ApproxVec(value) if name in self._approx else value

    def _gather(
        self, name: str, arr: FArray, subs: List[Any], line: int
    ) -> Any:
        """Read with rank-dependent subscripts: each rank reads its own
        element (halo-exchange style, e.g. ``halo(left * 2 + 2)``)."""
        for s in subs:
            if isinstance(s, ApproxVec):
                raise s._dropped(f"as a subscript reading {name!r}")
        if len(subs) != arr.rank:
            raise InterpError(
                f"rank mismatch: {len(subs)} subscripts for rank-{arr.rank} "
                f"array"
            )
        P = self.nranks
        offs: Any = 0
        stride = 1
        for s, lo, extent in zip(subs, arr.lbounds, arr.shape):
            sv = _ints(s.values) if isinstance(s, RankVec) else int(s)
            off_d = sv - lo
            if np.any((off_d < 0) | (off_d >= extent)):
                raise _failing(f"subscript out of bounds reading {name!r}")
            offs = offs + off_d * stride
            stride *= extent
        shadow = self.shadows.get(name)
        if shadow is not None:
            col = shadow[np.arange(P), offs]
        elif name in self._approx:
            v = np.asarray(arr.flat())[int(offs[0])]
            return ApproxVec(
                float(v) if arr.base_type == "real" else int(v)
            )
        else:
            col = np.asarray(arr.flat())[offs]
        return self._collapse(col, arr.base_type)

    def _collapse(self, col: np.ndarray, base_type: str) -> Any:
        """A freshly copied column as a scalar if every rank agrees."""
        first = col[0]
        if (col == first).all():
            return float(first) if base_type == "real" else int(first)
        return RankVec(col)

    def _store_element(
        self, name: str, arr: FArray, subs: List[Any], value: Any, line: int
    ) -> None:
        exact = True
        for s in subs:
            if s.__class__ is not int:
                if isinstance(s, _Vec):
                    raise SymmetryError(
                        f"rank-dependent subscript in a store to {name!r}: "
                        f"ranks would write different elements of the same "
                        f"array"
                    )
                exact = False
        if not exact:
            subs = [int(s) for s in subs]
        off = _flat_offset(arr, subs)
        shadow = self.shadows.get(name)
        if value.__class__ is RankVec:
            if shadow is None:
                shadow = self._shadow_for(name, arr)
            if shadow is None:  # over budget: keep rank 0's copy only
                arr.flat()[off] = value.values[0].item()
                self._approx.add(name)
                return
            shadow[:, off] = value.values
            return
        if value.__class__ is ApproxVec:
            self._demote_to_rank0(name, arr)
            arr.flat()[off] = value.rep
            self._approx.add(name)
            return
        if shadow is not None:
            shadow[:, off] = value
            return
        arr.flat()[off] = value

    def _shadow_for(self, name: str, arr: FArray) -> Optional[np.ndarray]:
        shadow = self.shadows.get(name)
        if shadow is not None:
            return shadow
        if name in self._approx:
            return None
        flat = np.asarray(arr.flat())
        need = flat.nbytes * self.nranks
        if self._shadow_bytes + need > self.max_shadow_bytes:
            return None
        shadow = np.repeat(flat[None, :], self.nranks, axis=0)
        self.shadows[name] = shadow
        self._shadow_bytes += need
        return shadow

    def _drop_shadow(self, name: str) -> None:
        shadow = self.shadows.pop(name, None)
        if shadow is not None:
            self._shadow_bytes -= shadow.nbytes

    def _demote_to_rank0(self, name: str, arr: FArray) -> None:
        shadow = self.shadows.pop(name, None)
        if shadow is not None:
            self._shadow_bytes -= shadow.nbytes
            arr.flat()[:] = shadow[0]

    def _send_rows(self, name: str, arr: FArray) -> np.ndarray:
        """Every rank's flat copy of ``name``: the shadow, or a broadcast
        view of the rank-uniform contents (no copy)."""
        shadow = self.shadows.get(name)
        if shadow is not None:
            return shadow
        flat = np.asarray(arr.flat())
        return np.broadcast_to(flat, (self.nranks, flat.size))

    def _budget_allows(self, name: str, need: int) -> bool:
        current = self.shadows.get(name)
        used = self._shadow_bytes - (
            current.nbytes if current is not None else 0
        )
        return used + need <= self.max_shadow_bytes

    def _install_rows(
        self, name: str, arr: FArray, rows: np.ndarray
    ) -> None:
        """Replace ``name``'s contents with per-rank rows, collapsing to
        rank-uniform storage when every row coincides."""
        if rows.dtype != arr.data.dtype:
            rows = rows.astype(arr.data.dtype)
        first = rows[0]
        if (rows == first).all():
            self._drop_shadow(name)
            arr.flat()[:] = first
            self._approx.discard(name)
            return
        self._drop_shadow(name)
        rows = np.ascontiguousarray(rows)
        self.shadows[name] = rows
        self._shadow_bytes += rows.nbytes
        self._approx.discard(name)

    # -------------------------------------------------------------- MPI

    def _exec_mpi(self, stmt, frame: Frame) -> Gen:
        yield from self._flush()
        name = stmt.name
        if name == "mpi_alltoall":
            self._rec_alltoall(stmt, frame)
        elif name == "mpi_allreduce":
            self._rec_allreduce(stmt, frame)
        elif name == "mpi_allgather":
            self._rec_allgather(stmt, frame)
        elif name == "mpi_bcast":
            self._rec_bcast(stmt, frame)
        elif name == "mpi_barrier":
            self.trace.append(("barrier",))
        else:
            raise SymmetryError(
                f"{name}: point-to-point partners/counts are per-rank "
                f"expressions; symmetry is not provable for explicit "
                f"send/recv programs"
            )
        self._set_ierr(stmt, frame)

    def _rec_alltoall(self, stmt, frame: Frame) -> None:
        P = self.nranks
        if len(stmt.args) < 7:
            raise InterpError("mpi_alltoall needs 8 arguments", stmt.line)
        send = self._whole_array(stmt.args[0], frame, stmt.line)
        recv = self._whole_array(stmt.args[3], frame, stmt.line)
        scount = int(self._eval(stmt.args[1], frame))
        if scount * P != send.size:
            raise InterpError(
                f"mpi_alltoall send count {scount} * {P} ranks != "
                f"buffer size {send.size}",
                stmt.line,
            )
        if send.size % P or recv.size % P:
            raise SimulationError(
                f"alltoall buffer length {send.size} not divisible by "
                f"{P} ranks"
            )
        if recv.size != send.size:
            raise SimulationError("alltoall send/recv sizes differ")
        sname, rname = stmt.args[0].name, stmt.args[3].name
        self.trace.append(("alltoall", send.size, recv.size))
        part = send.size // P
        if sname in self._approx:
            # senders' true rows are unknown; deterministic fill
            rep = np.asarray(send.flat())
            self._drop_shadow(rname)
            recv.flat()[:] = np.tile(rep[:part], P)
            self._approx.add(rname)
            return
        rows = self._send_rows(sname, send)
        if not self._budget_allows(rname, P * send.size * rows.dtype.itemsize):
            # recv row r is rank r's exact result; keep only rank 0's:
            # recv_0 block i = send_i block 0
            rep_row = np.ascontiguousarray(rows[:, :part]).reshape(-1)
            self._drop_shadow(rname)
            recv.flat()[:] = rep_row
            self._approx.add(rname)
            return
        # recv_j partition i = send_i partition j: a blocked transpose
        cube = np.ascontiguousarray(rows).reshape(P, P, part)
        recv_rows = np.ascontiguousarray(cube.transpose(1, 0, 2)).reshape(
            P, send.size
        )
        self._install_rows(rname, recv, recv_rows)

    def _rec_allreduce(self, stmt, frame: Frame) -> None:
        from ..runtime.collectives import OP_CODES, reduce_ufunc

        P = self.nranks
        if len(stmt.args) not in (4, 5):
            raise InterpError(
                "mpi_allreduce needs (sbuf, rbuf, count[, op], ierr)",
                stmt.line,
            )
        send = self._whole_array(stmt.args[0], frame, stmt.line)
        recv = self._whole_array(stmt.args[1], frame, stmt.line)
        count = int(self._eval(stmt.args[2], frame))
        if count != send.size or count != recv.size:
            raise InterpError(
                f"mpi_allreduce count {count} != buffer sizes "
                f"{send.size}/{recv.size}",
                stmt.line,
            )
        op = "sum"
        if len(stmt.args) == 5:
            code = int(self._eval(stmt.args[3], frame))
            if code not in OP_CODES:
                raise InterpError(
                    f"mpi_allreduce op code {code} unknown "
                    f"(0 sum, 1 max, 2 min, 3 prod)",
                    stmt.line,
                )
            op = OP_CODES[code]
        if send.base_type == "real" or recv.base_type == "real":
            raise SymmetryError(
                "allreduce on real data: each algorithm's combination "
                "order groups the floating-point reduction differently, "
                "which an algebraic replay cannot reproduce"
            )
        sname, rname = stmt.args[0].name, stmt.args[1].name
        self.trace.append(("allreduce", count, op))
        ufunc = reduce_ufunc(op)
        if sname in self._approx:
            rep = np.asarray(send.flat())
            res = ufunc.reduce(np.broadcast_to(rep, (P, rep.size)), axis=0)
            self._drop_shadow(rname)
            recv.flat()[:] = res
            self._approx.add(rname)
            return
        res = ufunc.reduce(self._send_rows(sname, send), axis=0)
        self._drop_shadow(rname)
        recv.flat()[:] = res
        self._approx.discard(rname)

    def _rec_allgather(self, stmt, frame: Frame) -> None:
        P = self.nranks
        if len(stmt.args) != 4:
            raise InterpError(
                "mpi_allgather needs (sbuf, scount, rbuf, ierr)", stmt.line
            )
        send = self._whole_array(stmt.args[0], frame, stmt.line)
        recv = self._whole_array(stmt.args[2], frame, stmt.line)
        scount = int(self._eval(stmt.args[1], frame))
        if scount != send.size:
            raise InterpError(
                f"mpi_allgather send count {scount} != buffer size "
                f"{send.size}",
                stmt.line,
            )
        if scount * P != recv.size:
            raise InterpError(
                f"mpi_allgather recv buffer size {recv.size} != count "
                f"{scount} * {P} ranks",
                stmt.line,
            )
        sname, rname = stmt.args[0].name, stmt.args[2].name
        self.trace.append(("allgather", send.size, recv.size))
        if sname in self._approx:
            rep = np.asarray(send.flat())
            self._drop_shadow(rname)
            recv.flat()[:] = np.tile(rep, P)
            self._approx.add(rname)
            return
        # partition j of every rank's recv is rank j's send: the result
        # is rank-uniform even when the contributions differ
        flat = np.ascontiguousarray(self._send_rows(sname, send)).reshape(-1)
        self._drop_shadow(rname)
        recv.flat()[:] = flat
        self._approx.discard(rname)

    def _rec_bcast(self, stmt, frame: Frame) -> None:
        P = self.nranks
        if len(stmt.args) != 4:
            raise InterpError(
                "mpi_bcast needs (buf, count, root, ierr)", stmt.line
            )
        buf = self._whole_array(stmt.args[0], frame, stmt.line)
        count = int(self._eval(stmt.args[1], frame))
        if count != buf.size:
            raise InterpError(
                f"mpi_bcast count {count} != buffer size {buf.size}",
                stmt.line,
            )
        root = int(self._eval(stmt.args[2], frame))
        if not 0 <= root < P:
            raise SimulationError(
                f"bcast root {root} out of range for {P} ranks"
            )
        name = stmt.args[0].name
        self.trace.append(("bcast", count, root))
        shadow = self.shadows.get(name)
        if shadow is not None:
            row = shadow[root].copy()
            self._drop_shadow(name)
            buf.flat()[:] = row
            self._approx.discard(name)
        # rank-uniform buf: broadcasting is the identity; approximate
        # buf: the root's true contents are unknown, so it stays approx
