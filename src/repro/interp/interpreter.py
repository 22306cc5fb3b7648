"""AST interpreter: executes mini-Fortran programs on the simulated cluster.

Each rank runs one :class:`Interpreter` as a generator (the engine drives
it).  Expression evaluation is eager Python over numpy-backed
:class:`~repro.interp.values.FArray` storage; virtual CPU time accrues per
executed operation from the :class:`~repro.runtime.costmodel.CostModel`
and is flushed to the engine as ``Compute`` events (always before any
communication, so overlap timing is exact at MPI boundaries).

Statements whose subtree contains no MPI call never yield: they run as
Python functions that :class:`~repro.interp.compiler.StmtCompiler`
generates once per job, executed eagerly, with their accumulated
CPU charge batched into a single ``Compute`` event at the next
communication point (identical virtual-time totals, far less Python
overhead — DESIGN.md §5).  Only the communication skeleton pays the
generator slow path below.

MPI is intercepted by name:

====================  ====================================================
``mpi_alltoall(as, scount, stype, ar, rcount, rtype, comm, ierr)``
                      blocking all-to-all exchange (the original code's C;
                      algorithm from the collective registry)
``mpi_allreduce(as, ar, count, op, ierr)``
                      blocking reduction-to-all; ``op`` is an integer code
                      (0 sum, 1 max, 2 min, 3 prod) and may be omitted
                      (defaults to sum)
``mpi_allgather(as, scount, ar, ierr)``
                      blocking gather-to-all of ``scount`` elements per rank
``mpi_bcast(buf, count, root, ierr)``
                      blocking broadcast from rank ``root``
``mpi_isend(buf, count, dest, tag, ierr)``
                      non-blocking send of an array/section actual
``mpi_irecv(buf, count, source, tag, ierr)``
                      non-blocking receive into an array/section actual
``mpi_waitall(ierr)`` wait for all outstanding requests
``mpi_waitall_sends(ierr)`` / ``mpi_waitall_recvs(ierr)``
                      wait for outstanding sends / receives only
``mpi_barrier(comm, ierr)``
====================  ====================================================

plus the rank intrinsics ``mynode()`` / ``numnodes()``.  Counts passed to
isend/irecv are validated against the actual section size — a mismatch is
exactly the kind of bug an unsafe transformation would introduce, so it
raises :class:`~repro.errors.InterpError` rather than silently adjusting.

Fortran semantics honored: column-major storage, 1-based (or declared)
bounds, DO trip count computed on entry, integer division truncating
toward zero, ``mod`` with dividend sign, by-reference argument passing
with sequence association (an element actual associates the dummy with
the storage sequence starting there), and value-result copy-back for
scalar actuals that are variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

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
    DimSpec,
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
    Slice,
    SourceFile,
    Stmt,
    StrLit,
    Subroutine,
    TypeDecl,
    UnaryOp,
    VarRef,
)
from ..runtime.costmodel import DEFAULT_COST_MODEL, CostModel
from ..runtime.events import Compute, SimOp
from ..runtime.mpi import SimComm
from .procedures import ExternalCall, ExternalRegistry
from .values import FArray, Scalar

if TYPE_CHECKING:
    from .compiler import StmtCompiler

Gen = Generator[SimOp, Any, Any]

_MPI_CALLS = {
    "mpi_alltoall",
    "mpi_allreduce",
    "mpi_allgather",
    "mpi_bcast",
    "mpi_isend",
    "mpi_irecv",
    "mpi_waitall",
    "mpi_waitall_sends",
    "mpi_waitall_recvs",
    "mpi_barrier",
}


class _Exit(Exception):
    """Internal: EXIT statement."""


class _Cycle(Exception):
    """Internal: CYCLE statement."""


class _Return(Exception):
    """Internal: RETURN statement."""


@dataclass
class Frame:
    """One activation record: scalars and arrays by name."""

    unit_name: str
    scalars: Dict[str, Scalar] = field(default_factory=dict)
    arrays: Dict[str, FArray] = field(default_factory=dict)
    types: Dict[str, str] = field(default_factory=dict)

    def has(self, name: str) -> bool:
        return name in self.scalars or name in self.arrays


class Interpreter:
    """Executes one rank's program."""

    def __init__(
        self,
        source: SourceFile,
        *,
        comm: Optional[SimComm] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        externals: Optional[ExternalRegistry] = None,
        compiler: Optional["StmtCompiler"] = None,
    ) -> None:
        self.source = source
        self.comm = comm
        self.cost = cost_model
        self.externals = externals or ExternalRegistry()
        self.subroutines: Dict[str, Subroutine] = {
            u.name: u for u in source.units if isinstance(u, Subroutine)
        }
        self.output: List[Tuple[Any, ...]] = []
        # accumulated un-flushed compute seconds, held in a one-element
        # list the generated code reads once and writes back per region
        self._acc_cell: List[float] = [0.0]
        if compiler is None:
            from .compiler import StmtCompiler

            compiler = StmtCompiler(source, self.externals)
        # shared by every rank of a job: the generated code takes the
        # interpreter and the frame as parameters
        self._compiler = compiler
        self._dummy_info: Dict[int, Dict[str, Tuple[str, List[DimSpec]]]] = {}

    # ------------------------------------------------------------- plumbing

    @property
    def rank(self) -> int:
        return self.comm.rank if self.comm else 0

    @property
    def size(self) -> int:
        return self.comm.size if self.comm else 1

    def charge(self, seconds: float) -> None:
        self._acc_cell[0] += seconds

    def _flush(self) -> Gen:
        acc = self._acc_cell
        if acc[0] > 0.0:
            seconds, acc[0] = acc[0], 0.0
            yield Compute(seconds=seconds)

    def _maybe_flush(self) -> Gen:
        if self._acc_cell[0] >= self.cost.flush_threshold:
            yield from self._flush()

    # ------------------------------------------------------------------ run

    def run(self) -> Gen:
        """Execute the main program; yields engine operations."""
        return self.run_collecting()

    def run_collecting(self) -> Gen:
        """Execute the main program, yielding engine operations, and
        leave its frame in ``self.main_frame``."""
        program = self.source.main
        frame = Frame(unit_name=program.name)
        self.main_frame = frame
        self._elaborate_decls(program.decls, frame)
        try:
            yield from self._exec_body(program.body, frame)
        except _Return:
            pass
        yield from self._flush()

    # ----------------------------------------------------------- elaboration

    def _elaborate_decls(self, decls: Sequence[Stmt], frame: Frame) -> None:
        for decl in decls:
            if isinstance(decl, (ImplicitNone, ExternalDecl)):
                continue
            if not isinstance(decl, TypeDecl):
                continue
            for ent in decl.entities:
                if frame.has(ent.name):
                    continue  # dummy already bound by the caller
                frame.types[ent.name] = decl.base_type
                if ent.dims:
                    bounds = [self._dim_bounds(d, frame) for d in ent.dims]
                    frame.arrays[ent.name] = FArray.allocate(
                        decl.base_type, bounds
                    )
                else:
                    init: Scalar
                    if ent.init is not None:
                        init = self._eval(ent.init, frame)
                    else:
                        init = 0.0 if decl.base_type == "real" else 0
                    frame.scalars[ent.name] = self._coerce(
                        init, decl.base_type
                    )

    def _dim_bounds(self, d: DimSpec, frame: Frame) -> Tuple[int, int]:
        lo = self._eval(d.lo, frame)
        hi = self._eval(d.hi, frame)
        return int(lo), int(hi)

    @staticmethod
    def _coerce(value: Scalar, base_type: str) -> Scalar:
        if base_type == "integer":
            return int(value)
        if base_type == "real":
            return float(value)
        return bool(value)

    # ------------------------------------------------------------ statements

    def _exec_body(self, body: Sequence[Stmt], frame: Frame) -> Gen:
        # Pure statements (no MPI anywhere below) run as generated
        # functions, eagerly, without touching the generator machinery.
        # Only communication-bearing statements go through the yielding
        # slow path.  See compiler.StmtCompiler.
        for fn, stmt in self._compiler.body_entries(body):
            if fn is not None:
                fn(self, frame)
            else:
                yield from self._exec_stmt(stmt, frame)

    def _exec_stmt(self, stmt: Stmt, frame: Frame) -> Gen:
        self.charge(self.cost.stmt_overhead)
        yield from self._maybe_flush()

        if isinstance(stmt, Assign):
            self._exec_assign(stmt, frame)
        elif isinstance(stmt, CallStmt):
            yield from self._exec_call(stmt, frame)
        elif isinstance(stmt, DoLoop):
            yield from self._exec_do(stmt, frame)
        elif isinstance(stmt, If):
            yield from self._exec_if(stmt, frame)
        elif isinstance(stmt, Print):
            values = tuple(self._eval(e, frame) for e in stmt.items)
            self.output.append(values)
        elif isinstance(stmt, Return):
            raise _Return()
        elif isinstance(stmt, ExitStmt):
            raise _Exit()
        elif isinstance(stmt, CycleStmt):
            raise _Cycle()
        elif isinstance(stmt, (ContinueStmt, Comment, TypeDecl, ImplicitNone, ExternalDecl)):
            pass
        else:
            from ..lang.ast_nodes import WhileLoop

            if isinstance(stmt, WhileLoop):
                yield from self._exec_while(stmt, frame)
            else:
                raise InterpError(
                    f"cannot execute {type(stmt).__name__}", stmt.line
                )

    def _exec_assign(self, stmt: Assign, frame: Frame) -> None:
        value = self._eval(stmt.rhs, frame)
        lhs = stmt.lhs
        if isinstance(lhs, VarRef):
            if lhs.name not in frame.scalars:
                raise InterpError(f"undeclared scalar {lhs.name!r}", stmt.line)
            frame.scalars[lhs.name] = self._coerce(
                value, frame.types.get(lhs.name, "integer")
            )
        elif isinstance(lhs, ArrayRef):
            arr = self._array(lhs.name, frame, stmt.line)
            subs = [int(self._eval(s, frame)) for s in lhs.subs]
            self.charge(self.cost.mem_access)
            arr.set(subs, value)
        else:
            raise InterpError("invalid assignment target", stmt.line)

    def _exec_do(self, stmt: DoLoop, frame: Frame) -> Gen:
        lo = int(self._eval(stmt.lo, frame))
        hi = int(self._eval(stmt.hi, frame))
        step = int(self._eval(stmt.step, frame)) if stmt.step else 1
        if step == 0:
            raise InterpError("do loop with zero step", stmt.line)
        trips = max(0, (hi - lo + step) // step)
        value = lo
        var = stmt.var
        for _ in range(trips):
            frame.scalars[var] = value
            try:
                yield from self._exec_body(stmt.body, frame)
            except _Exit:
                break
            except _Cycle:
                pass
            value += step
        else:
            frame.scalars[var] = value
        self.charge(self.cost.int_op * max(1, trips))

    def _exec_while(self, stmt, frame: Frame) -> Gen:
        guard = 0
        while True:
            self.charge(self.cost.int_op)
            if not self._truthy(self._eval(stmt.cond, frame)):
                break
            guard += 1
            if guard > 10_000_000:
                raise InterpError("while loop exceeded iteration guard", stmt.line)
            try:
                yield from self._exec_body(stmt.body, frame)
            except _Exit:
                break
            except _Cycle:
                continue

    def _exec_if(self, stmt: If, frame: Frame) -> Gen:
        for cond, body in stmt.branches:
            self.charge(self.cost.int_op)
            if self._truthy(self._eval(cond, frame)):
                yield from self._exec_body(body, frame)
                return
        yield from self._exec_body(stmt.else_body, frame)

    @staticmethod
    def _truthy(v: Scalar) -> bool:
        return bool(v)

    # ----------------------------------------------------------------- calls

    def _exec_call(self, stmt: CallStmt, frame: Frame) -> Gen:
        name = stmt.name
        if name in _MPI_CALLS:
            yield from self._exec_mpi(stmt, frame)
            return
        ext = self.externals.lookup(name)
        if ext is not None:
            self._exec_external(ext, stmt, frame)
            return
        sub = self.subroutines.get(name)
        if sub is None:
            raise InterpError(
                f"call to unknown procedure {name!r} (not defined, not "
                f"registered as external, not an MPI call)",
                stmt.line,
            )
        yield from self._exec_subroutine(sub, stmt, frame)

    def _exec_external(self, ext, stmt: CallStmt, frame: Frame) -> None:
        args: List[Union[Scalar, FArray]] = []
        for a in stmt.args:
            if isinstance(a, VarRef) and a.name in frame.arrays:
                args.append(frame.arrays[a.name])
            elif isinstance(a, ArrayRef) and a.name in frame.arrays:
                arr = frame.arrays[a.name]
                view = self._section_farray(arr, a, frame)
                args.append(view)
            else:
                args.append(self._eval(a, frame))
        self.charge(self.cost.call_overhead)
        seconds = ext.fn(
            ExternalCall(name=ext.name, args=args, rank=self.rank, size=self.size)
        )
        if seconds:
            self.charge(float(seconds))

    def _section_farray(self, arr: FArray, ref: ArrayRef, frame: Frame) -> FArray:
        """Array actual with subscripts: a section (slices present) or a
        sequence-association window (all-element subscripts)."""
        if any(isinstance(s, Slice) for s in ref.subs):
            ranges = self._section_ranges(arr, ref, frame)
            view = arr.section(ranges)
            if view.ndim == 0:
                view = view.reshape(1)
            return FArray(
                data=view,
                lbounds=tuple(1 for _ in range(view.ndim)),
                base_type=arr.base_type,
            )
        subs = [int(self._eval(s, frame)) for s in ref.subs]
        offset = arr.flat_offset(subs)
        remaining = arr.size - offset
        return arr.view_from(offset, [(1, remaining)], arr.base_type)

    def _exec_subroutine(
        self, sub: Subroutine, stmt: CallStmt, frame: Frame
    ) -> Gen:
        callee, copy_back, element_back = self._bind_call(sub, stmt, frame)
        try:
            yield from self._exec_body(sub.body, callee)
        except _Return:
            pass
        self._copy_back_results(frame, callee, copy_back, element_back)

    def _sub_dummy_info(
        self, sub: Subroutine
    ) -> Dict[str, Tuple[str, List[DimSpec]]]:
        """Classify dummy arguments from the callee's declarations (cached)."""
        info = self._dummy_info.get(id(sub))
        if info is None:
            info = {}
            for decl in sub.decls:
                if isinstance(decl, TypeDecl):
                    for ent in decl.entities:
                        if ent.name in sub.params:
                            info[ent.name] = (decl.base_type, ent.dims)
            self._dummy_info[id(sub)] = info
        return info

    def _bind_call(
        self, sub: Subroutine, stmt: CallStmt, frame: Frame
    ) -> Tuple[Frame, list, list]:
        """Build the callee frame for one call: argument binding only.

        Returns ``(callee_frame, copy_back, element_back)``; the caller
        (generator slow path or compiled fast path) executes the body and
        then applies :meth:`_copy_back_results`.
        """
        if len(stmt.args) != len(sub.params):
            raise InterpError(
                f"call to {sub.name!r} passes {len(stmt.args)} args, "
                f"expected {len(sub.params)}",
                stmt.line,
            )
        self.charge(self.cost.call_overhead)
        callee = Frame(unit_name=sub.name)
        dummy_info = self._sub_dummy_info(sub)
        copy_back: List[Tuple[str, VarRef]] = []
        element_back: List[Tuple[str, FArray, List[int]]] = []
        array_binds: List[Tuple[str, FArray, int, List[DimSpec], str]] = []

        for pname, actual in zip(sub.params, stmt.args):
            base_type, dims = dummy_info.get(pname, ("integer", []))
            callee.types[pname] = base_type
            if dims:
                # array dummy: bind by reference with sequence association
                if isinstance(actual, VarRef) and actual.name in frame.arrays:
                    src, offset = frame.arrays[actual.name], 0
                elif isinstance(actual, ArrayRef) and actual.name in frame.arrays:
                    src_arr = frame.arrays[actual.name]
                    if any(isinstance(s, Slice) for s in actual.subs):
                        ranges = self._section_ranges(src_arr, actual, frame)
                        sec = src_arr.section(ranges)
                        if not sec.flags["F_CONTIGUOUS"]:
                            raise InterpError(
                                f"non-contiguous section passed to array "
                                f"dummy {pname!r} of {sub.name!r}",
                                stmt.line,
                            )
                        src = FArray(
                            data=sec,
                            lbounds=tuple(1 for _ in range(sec.ndim)),
                            base_type=src_arr.base_type,
                        )
                        offset = 0
                    else:
                        subs = [int(self._eval(s, frame)) for s in actual.subs]
                        src, offset = src_arr, src_arr.flat_offset(subs)
                else:
                    raise InterpError(
                        f"argument for array dummy {pname!r} of {sub.name!r} "
                        f"is not an array",
                        stmt.line,
                    )
                array_binds.append((pname, src, offset, dims, base_type))
            else:
                # scalar dummy: value (+ copy-back when the actual is a var
                # or an array element — Fortran passes by reference)
                value = self._eval(actual, frame)
                callee.scalars[pname] = self._coerce(value, base_type)
                if isinstance(actual, VarRef) and actual.name in frame.scalars:
                    copy_back.append((pname, actual))
                elif (
                    isinstance(actual, ArrayRef)
                    and actual.name in frame.arrays
                    and not any(isinstance(s, Slice) for s in actual.subs)
                ):
                    subs = [int(self._eval(s, frame)) for s in actual.subs]
                    element_back.append(
                        (pname, frame.arrays[actual.name], subs)
                    )

        # array dummy bounds may reference scalar dummies: bind arrays after
        # scalars, evaluating bounds in the callee frame
        for pname, src, offset, dims, base_type in array_binds:
            bounds = [self._dim_bounds(d, callee) for d in dims]
            callee.arrays[pname] = src.view_from(offset, bounds, base_type)

        self._elaborate_decls(sub.decls, callee)
        return callee, copy_back, element_back

    def _copy_back_results(
        self, frame: Frame, callee: Frame, copy_back: list, element_back: list
    ) -> None:
        """Value-result copy-back for scalar actuals after a call returns."""
        for pname, actual in copy_back:
            frame.scalars[actual.name] = self._coerce(
                callee.scalars[pname], frame.types.get(actual.name, "integer")
            )
        for pname, arr, subs in element_back:
            arr.set(subs, callee.scalars[pname])

    # ------------------------------------------------------------------- MPI

    def _exec_mpi(self, stmt: CallStmt, frame: Frame) -> Gen:
        if self.comm is None:
            raise InterpError(
                f"{stmt.name} requires a communicator (serial run?)",
                stmt.line,
            )
        yield from self._flush()
        name = stmt.name
        if name == "mpi_alltoall":
            yield from self._mpi_alltoall(stmt, frame)
        elif name == "mpi_allreduce":
            yield from self._mpi_allreduce(stmt, frame)
        elif name == "mpi_allgather":
            yield from self._mpi_allgather(stmt, frame)
        elif name == "mpi_bcast":
            yield from self._mpi_bcast(stmt, frame)
        elif name == "mpi_isend":
            yield from self._mpi_isend(stmt, frame)
        elif name == "mpi_irecv":
            yield from self._mpi_irecv(stmt, frame)
        elif name == "mpi_waitall":
            yield from self.comm.waitall()
        elif name == "mpi_waitall_sends":
            yield from self.comm.waitall_sends()
        elif name == "mpi_waitall_recvs":
            yield from self.comm.waitall_recvs()
        elif name == "mpi_barrier":
            yield from self.comm.barrier()
        self._set_ierr(stmt, frame)

    def _set_ierr(self, stmt: CallStmt, frame: Frame) -> None:
        if not stmt.args:
            return
        last = stmt.args[-1]
        if isinstance(last, VarRef) and last.name in frame.scalars:
            frame.scalars[last.name] = 0

    def _mpi_alltoall(self, stmt: CallStmt, frame: Frame) -> Gen:
        if len(stmt.args) < 7:
            raise InterpError("mpi_alltoall needs 8 arguments", stmt.line)
        send = self._whole_array(stmt.args[0], frame, stmt.line)
        recv = self._whole_array(stmt.args[3], frame, stmt.line)
        scount = int(self._eval(stmt.args[1], frame))
        if scount * self.size != send.size:
            raise InterpError(
                f"mpi_alltoall send count {scount} * {self.size} ranks != "
                f"buffer size {send.size}",
                stmt.line,
            )
        yield from self.comm.alltoall(send.flat(), recv.flat())

    def _mpi_allreduce(self, stmt: CallStmt, frame: Frame) -> Gen:
        from ..runtime.collectives import OP_CODES

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
        yield from self.comm.allreduce(send.flat(), recv.flat(), op=op)

    def _mpi_allgather(self, stmt: CallStmt, frame: Frame) -> Gen:
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
        if scount * self.size != recv.size:
            raise InterpError(
                f"mpi_allgather recv buffer size {recv.size} != count "
                f"{scount} * {self.size} ranks",
                stmt.line,
            )
        yield from self.comm.allgather(send.flat(), recv.flat())

    def _mpi_bcast(self, stmt: CallStmt, frame: Frame) -> Gen:
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
        yield from self.comm.bcast(buf.flat(), root=root)

    def _mpi_isend(self, stmt: CallStmt, frame: Frame) -> Gen:
        if len(stmt.args) != 5:
            raise InterpError(
                "mpi_isend needs (buf, count, dest, tag, ierr)", stmt.line
            )
        buf, count, dest, tag = stmt.args[:4]
        n = int(self._eval(count, frame))
        view = self._buffer_view(buf, frame, n, stmt.line)
        yield from self.comm.isend(
            view,
            dest=int(self._eval(dest, frame)),
            tag=int(self._eval(tag, frame)),
        )

    def _mpi_irecv(self, stmt: CallStmt, frame: Frame) -> Gen:
        if len(stmt.args) != 5:
            raise InterpError(
                "mpi_irecv needs (buf, count, source, tag, ierr)", stmt.line
            )
        buf, count, source, tag = stmt.args[:4]
        n = int(self._eval(count, frame))
        view = self._buffer_view(buf, frame, n, stmt.line)
        if view.flags["F_CONTIGUOUS"]:
            target: Any = view.reshape(-1, order="F")  # always a view
        else:
            def scatter(payload: np.ndarray, _view=view) -> None:
                np.copyto(
                    _view, payload.view(_view.dtype).reshape(_view.shape, order="F")
                )

            target = scatter
        yield from self.comm.irecv(
            target,
            source=int(self._eval(source, frame)),
            tag=int(self._eval(tag, frame)),
            nbytes=int(view.nbytes),
        )

    def _whole_array(self, arg: Expr, frame: Frame, line: int) -> FArray:
        if isinstance(arg, VarRef) and arg.name in frame.arrays:
            return frame.arrays[arg.name]
        raise InterpError(
            "MPI buffer must be a whole-array variable here", line
        )

    def _buffer_view(
        self, arg: Expr, frame: Frame, count: int, line: int
    ) -> np.ndarray:
        """ndarray view for an isend/irecv buffer actual.

        Three Fortran-MPI conventions are honored:

        * whole array ``a`` — count must not exceed its size; the first
          ``count`` elements (storage order) form the buffer;
        * array section ``a(1:k, j)`` — count must equal the section size;
        * element start ``a(i, j)`` — *sequence association*, exactly the
          paper's Figure 4 style: the buffer is ``count`` elements of the
          storage sequence starting at that element.
        """
        if isinstance(arg, VarRef) and arg.name in frame.arrays:
            flat = frame.arrays[arg.name].flat()
            if count > flat.size:
                raise InterpError(
                    f"MPI count {count} exceeds array size {flat.size}", line
                )
            return flat[:count]
        if isinstance(arg, ArrayRef) and arg.name in frame.arrays:
            arr = frame.arrays[arg.name]
            if any(isinstance(s, Slice) for s in arg.subs):
                view = arr.section(self._section_ranges(arr, arg, frame))
                if count != view.size:
                    raise InterpError(
                        f"MPI count {count} differs from section size "
                        f"{view.size}",
                        line,
                    )
                return view
            subs = [int(self._eval(s, frame)) for s in arg.subs]
            off = arr.flat_offset(subs)
            flat = arr.flat()
            if off + count > flat.size:
                raise InterpError(
                    f"MPI count {count} from element offset {off} overruns "
                    f"array of {flat.size} elements",
                    line,
                )
            return flat[off : off + count]
        raise InterpError("MPI buffer must be an array or array section", line)

    def _section_ranges(
        self, arr: FArray, ref: ArrayRef, frame: Frame
    ) -> List[Union[int, Tuple[int, int]]]:
        ranges: List[Union[int, Tuple[int, int]]] = []
        for dim, s in enumerate(ref.subs):
            if isinstance(s, Slice):
                lo = (
                    int(self._eval(s.lo, frame))
                    if s.lo is not None
                    else arr.lbounds[dim]
                )
                hi = (
                    int(self._eval(s.hi, frame))
                    if s.hi is not None
                    else arr.lbounds[dim] + arr.shape[dim] - 1
                )
                ranges.append((lo, hi))
            else:
                ranges.append(int(self._eval(s, frame)))
        return ranges

    # ------------------------------------------------------------ expressions

    def _eval(self, e: Expr, frame: Frame) -> Scalar:
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, RealLit):
            return e.value
        if isinstance(e, BoolLit):
            return e.value
        if isinstance(e, StrLit):
            return e.value  # only reaches Print
        if isinstance(e, VarRef):
            if e.name in frame.scalars:
                return frame.scalars[e.name]
            raise InterpError(f"undefined variable {e.name!r}", e.line)
        if isinstance(e, ArrayRef):
            arr = self._array(e.name, frame, e.line)
            subs = [int(self._eval(s, frame)) for s in e.subs]
            self.charge(self.cost.mem_access)
            return arr.get(subs)
        if isinstance(e, BinOp):
            return self._eval_binop(e, frame)
        if isinstance(e, UnaryOp):
            v = self._eval(e.operand, frame)
            if e.op == "-":
                self.charge(
                    self.cost.real_op
                    if isinstance(v, float)
                    else self.cost.int_op
                )
                return -v
            if e.op == ".not.":
                self.charge(self.cost.int_op)
                return not self._truthy(v)
            raise InterpError(f"unknown unary op {e.op!r}", e.line)
        if isinstance(e, FuncCall):
            return self._eval_intrinsic(e, frame)
        raise InterpError(f"cannot evaluate {type(e).__name__}", e.line)

    def _eval_binop(self, e: BinOp, frame: Frame) -> Scalar:
        op = e.op
        if op == ".and.":
            self.charge(self.cost.int_op)
            return self._truthy(self._eval(e.left, frame)) and self._truthy(
                self._eval(e.right, frame)
            )
        if op == ".or.":
            self.charge(self.cost.int_op)
            return self._truthy(self._eval(e.left, frame)) or self._truthy(
                self._eval(e.right, frame)
            )
        left = self._eval(e.left, frame)
        right = self._eval(e.right, frame)
        is_real = isinstance(left, float) or isinstance(right, float)
        self.charge(self.cost.real_op if is_real else self.cost.int_op)
        return self._binop_value(op, left, right, is_real, e.line)

    @staticmethod
    def _binop_value(
        op: str, left: Scalar, right: Scalar, is_real: bool, line: int
    ) -> Scalar:
        """Arithmetic/comparison semantics on already-evaluated operands.

        Split out from :meth:`_eval_binop` so generated code
        (:mod:`repro.interp.compiler`, :mod:`repro.interp.symmetry`)
        applies the exact same value semantics — including the Fortran
        truncating integer division — without duplicating them.
        """
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if is_real:
                return left / right
            if right == 0:
                raise InterpError("integer division by zero", line)
            q = abs(left) // abs(right)
            return q if (left >= 0) == (right >= 0) else -q
        if op == "**":
            return left**right
        if op == "==":
            return left == right
        if op == "/=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise InterpError(f"unknown operator {op!r}", line)

    def _eval_intrinsic(self, e: FuncCall, frame: Frame) -> Scalar:
        name = e.name
        if name == "mynode":
            return self.rank
        if name == "numnodes":
            return self.size
        args = [self._eval(a, frame) for a in e.args]
        self.charge(self.cost.intrinsic)
        return self._intrinsic_value(name, args, e.line)

    def _intrinsic_value(self, name: str, args: List[Scalar], line: int) -> Scalar:
        """Intrinsic semantics on already-evaluated arguments.

        Split out from :meth:`_eval_intrinsic` (after the charge) so
        generated code applies the exact same semantics, including to
        the symmetry recorder's rank-uniform arguments and approximate
        representatives.
        """
        if name == "mod":
            a, b = args
            if isinstance(a, int) and isinstance(b, int):
                if b == 0:
                    raise InterpError("mod with zero divisor", line)
                return int(math.fmod(a, b))
            return math.fmod(a, b)
        if name == "min":
            return min(args)
        if name == "max":
            return max(args)
        if name == "abs":
            return abs(args[0])
        if name == "int":
            return int(args[0])
        if name == "real":
            return float(args[0])
        if name == "sqrt":
            return math.sqrt(args[0])
        if name == "sin":
            return math.sin(args[0])
        if name == "cos":
            return math.cos(args[0])
        if name == "exp":
            return math.exp(args[0])
        if name == "log":
            return math.log(args[0])
        if name == "iand":
            return int(args[0]) & int(args[1])
        if name == "ior":
            return int(args[0]) | int(args[1])
        if name == "ieor":
            return int(args[0]) ^ int(args[1])
        if name == "ishft":
            a, s = int(args[0]), int(args[1])
            return a << s if s >= 0 else a >> (-s)
        if name == "merge":
            return args[0] if self._truthy(args[2]) else args[1]
        if name == "size":
            raise InterpError("size() on expressions is not supported", line)
        raise InterpError(f"unknown intrinsic {name!r}", line)

    def _array(self, name: str, frame: Frame, line: int) -> FArray:
        arr = frame.arrays.get(name)
        if arr is None:
            raise InterpError(f"undeclared array {name!r}", line)
        return arr
