"""AST interpreter: Fortran semantics, procedures, costs, MPI interception."""

import numpy as np
import pytest

from repro.errors import InterpError
from repro import Job, Session
from repro.interp import ExternalProc, ExternalRegistry, run_serial
from repro.runtime.costmodel import CostModel
from repro.runtime.network import IDEAL, MPICH_GM


def _run(body: str, decls: str = "", **kwargs):
    src = f"program t\n{decls}\n{body}\nend program t\n"
    return run_serial(src, **kwargs)


class TestScalarsAndExpressions:
    def test_assignment_and_print(self):
        run = _run("  x = 2 + 3 * 4\n  print *, x", "  integer :: x")
        assert run.outputs[0] == [(14,)]

    def test_integer_division_truncates_toward_zero(self):
        run = _run(
            "  a = 7 / 2\n  b = (0 - 7) / 2\n  print *, a, b",
            "  integer :: a, b",
        )
        assert run.outputs[0] == [(3, -3)]

    def test_mod_follows_dividend_sign(self):
        run = _run(
            "  a = mod(7, 3)\n  b = mod(0 - 7, 3)\n  print *, a, b",
            "  integer :: a, b",
        )
        assert run.outputs[0] == [(1, -1)]

    def test_real_arithmetic(self):
        run = _run(
            "  x = 1.5 * 2.0\n  print *, x", "  real :: x"
        )
        assert run.outputs[0] == [(3.0,)]

    def test_intrinsics(self):
        run = _run(
            "  print *, min(3, 1, 2), max(4, 9), abs(0 - 5), ishft(1, 4)",
        )
        assert run.outputs[0] == [(1, 9, 5, 16)]

    def test_undefined_variable_raises(self):
        with pytest.raises(InterpError, match="undefined variable"):
            _run("  x = y", "  integer :: x")

    def test_integer_division_by_zero(self):
        with pytest.raises(InterpError, match="division by zero"):
            _run("  x = 1 / 0", "  integer :: x")

    def test_parameter_initializer(self):
        run = _run(
            "  print *, n * 2", "  integer, parameter :: n = 21"
        )
        assert run.outputs[0] == [(42,)]


class TestControlFlow:
    def test_do_loop_trip_count(self):
        run = _run(
            "  s = 0\n  do i = 1, 5\n    s = s + i\n  enddo\n  print *, s",
            "  integer :: s, i",
        )
        assert run.outputs[0] == [(15,)]

    def test_do_loop_zero_trips(self):
        run = _run(
            "  s = 0\n  do i = 5, 1\n    s = s + 1\n  enddo\n  print *, s",
            "  integer :: s, i",
        )
        assert run.outputs[0] == [(0,)]

    def test_do_loop_step(self):
        run = _run(
            "  s = 0\n  do i = 1, 10, 3\n    s = s + i\n  enddo\n  print *, s",
            "  integer :: s, i",
        )
        assert run.outputs[0] == [(22,)]  # 1+4+7+10

    def test_if_elseif_else(self):
        body = """
  do i = 1, 3
    if (i == 1) then
      print *, 10
    elseif (i == 2) then
      print *, 20
    else
      print *, 30
    endif
  enddo"""
        run = _run(body, "  integer :: i")
        assert run.outputs[0] == [(10,), (20,), (30,)]

    def test_exit_and_cycle(self):
        body = """
  s = 0
  do i = 1, 10
    if (mod(i, 2) == 0) then
      cycle
    endif
    if (i > 6) then
      exit
    endif
    s = s + i
  enddo
  print *, s"""
        run = _run(body, "  integer :: s, i")
        assert run.outputs[0] == [(9,)]  # 1 + 3 + 5

    def test_while_loop(self):
        body = """
  i = 1
  do while (i < 100)
    i = i * 2
  enddo
  print *, i"""
        run = _run(body, "  integer :: i")
        assert run.outputs[0] == [(128,)]


class TestArrays:
    def test_column_major_final_arrays(self):
        body = """
  do j = 1, 2
    do i = 1, 2
      a(i, j) = i * 10 + j
    enddo
  enddo"""
        run = _run(body, "  integer :: a(1:2, 1:2)\n  integer :: i, j")
        a = run.array(0, "a")
        assert a[0, 0] == 11 and a[1, 0] == 21 and a[0, 1] == 12

    def test_out_of_bounds_write_raises(self):
        with pytest.raises(InterpError, match="out of bounds"):
            _run("  a(5) = 1", "  integer :: a(1:4)")

    def test_nonunit_lower_bound(self):
        run = _run(
            "  do i = 0, 3\n    a(i) = i * i\n  enddo\n  print *, a(3)",
            "  integer :: a(0:3)\n  integer :: i",
        )
        assert run.outputs[0] == [(9,)]


class TestSubroutines:
    SRC = """
program t
  integer :: a(1:6)
  integer :: x, i

  do i = 1, 6
    a(i) = 0
  enddo
  x = 5
  call fill(a, x)
  print *, a(1), a(6), x
end program t

subroutine fill(buf, v)
  integer :: buf(1:6)
  integer :: v
  integer :: i

  do i = 1, 6
    buf(i) = v * i
  enddo
  v = v + 1
end subroutine fill
"""

    def test_by_reference_array_and_scalar_copyback(self):
        run = run_serial(self.SRC)
        assert run.outputs[0] == [(5, 30, 6)]

    def test_sequence_association_element_start(self):
        src = """
program t
  integer :: a(1:8)
  integer :: i

  do i = 1, 8
    a(i) = 0
  enddo
  call fill(a(5))
  print *, a(4), a(5), a(8)
end program t

subroutine fill(buf)
  integer :: buf(1:4)
  integer :: i

  do i = 1, 4
    buf(i) = i * 100
  enddo
end subroutine fill
"""
        run = run_serial(src)
        assert run.outputs[0] == [(0, 100, 400)]

    def test_unknown_procedure_raises(self):
        with pytest.raises(InterpError, match="unknown procedure"):
            _run("  call missing(1)")

    def test_wrong_arity_raises(self):
        src = """
program t
  call f(1, 2)
end program t

subroutine f(x)
  integer :: x
end subroutine f
"""
        with pytest.raises(InterpError, match="passes 2 args"):
            run_serial(src)


class TestExternals:
    def test_external_fills_array_and_charges_time(self):
        def fn(call):
            arr = call.array(1)
            arr.flat()[:] = call.scalar(0) * 10
            return 5e-6

        reg = ExternalRegistry([ExternalProc("gen", fn, mutates={1})])
        src = """
program t
  integer :: a(1:4)

  call gen(7, a)
  print *, a(1)
end program t
"""
        run = run_serial(src, externals=reg)
        assert run.outputs[0] == [(70,)]
        assert run.time >= 5e-6


class TestMpiInterception:
    def test_mynode_numnodes(self):
        src = """
program t
  print *, mynode(), numnodes()
end program t
"""
        run = Session().run(Job(program=src, nranks=3, network=IDEAL))
        assert [o[0] for o in run.outputs] == [(0, 3), (1, 3), (2, 3)]

    def test_alltoall_through_interpreter(self):
        src = """
program t
  integer, parameter :: n = 8, np = 4
  integer :: as(1:n)
  integer :: ar(1:n)
  integer :: i, ierr

  do i = 1, n
    as(i) = mynode() * 100 + i
  enddo
  call mpi_alltoall(as, n / np, 0, ar, n / np, 0, 0, ierr)
end program t
"""
        run = Session().run(Job(program=src, nranks=4, network=MPICH_GM))
        # rank j's partition r holds rank r's partition j
        for j in range(4):
            ar = run.array(j, "ar")
            for r in range(4):
                assert ar[2 * r] == r * 100 + 2 * j + 1
                assert ar[2 * r + 1] == r * 100 + 2 * j + 2

    def test_isend_irecv_sections(self):
        src = """
program t
  integer :: a(1:4, 1:4)
  integer :: r(1:4, 1:4)
  integer :: i, j, ierr

  do i = 1, 4
    do j = 1, 4
      a(i, j) = mynode() * 1000 + i * 10 + j
      r(i, j) = 0
    enddo
  enddo
  if (mynode() == 0) then
    call mpi_isend(a(1:2, 2:3), 4, 1, 9, ierr)
  endif
  if (mynode() == 1) then
    call mpi_irecv(r(3:4, 1:2), 4, 0, 9, ierr)
  endif
  call mpi_waitall(ierr)
end program t
"""
        run = Session().run(Job(program=src, nranks=2, network=MPICH_GM))
        r = run.array(1, "r")
        # rank 0's a(1:2, 2:3) in column-major order lands in r(3:4, 1:2)
        assert r[2, 0] == 12 and r[3, 0] == 22
        assert r[2, 1] == 13 and r[3, 1] == 23

    def test_count_mismatch_raises(self):
        src = """
program t
  integer :: a(1:4)
  integer :: ierr

  call mpi_isend(a(1:4), 3, 1, 0, ierr)
  call mpi_waitall(ierr)
end program t
"""
        with pytest.raises(InterpError, match="differs from section size"):
            Session().run(Job(program=src, nranks=2, network=IDEAL))

    def test_mpi_without_comm_raises(self):
        src = """
program t
  integer :: ierr

  call mpi_barrier(0, ierr)
end program t
"""
        # run_serial provides a 1-rank comm, so build an Interpreter directly
        from repro.interp import Interpreter
        from repro.lang import parse

        it = Interpreter(parse(src))
        with pytest.raises(InterpError, match="requires a communicator"):
            list(it.run())

    def test_ierr_set_to_zero(self):
        src = """
program t
  integer :: ierr

  ierr = 99
  call mpi_barrier(0, ierr)
  print *, ierr
end program t
"""
        run = Session().run(Job(program=src, nranks=2, network=IDEAL))
        assert run.outputs[0] == [(0,)]


class TestVirtualTime:
    def test_cost_scaling_scales_time(self):
        body = "  do i = 1, 1000\n    x = x + i\n  enddo"
        decls = "  integer :: x, i"
        base = _run(body, decls)
        scaled = _run(body, decls, cost_model=CostModel().scaled(10.0))
        assert scaled.time > base.time * 5

    def test_python_speed_does_not_leak(self):
        """Virtual time depends only on executed operations, not wall time."""
        a = _run("  x = 1 + 1", "  integer :: x").time
        b = _run("  x = 1 + 1", "  integer :: x").time
        assert a == b
