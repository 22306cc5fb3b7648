"""Generated code against the tree-walking interpreter, bit for bit.

Every program here runs twice: once with its pure regions executing as
the generated code of :mod:`repro.interp.compiler`, once with every
statement forced through ``Interpreter._exec_stmt`` (the reference
semantics).  Both runs use ``flush_threshold=inf``, so ``Compute``
events are emitted only at communication points on both paths and the
per-rank ``Compute`` *stream* must match exactly, not only its total.
Outputs must match including their Python types, final arrays including
their dtypes, and a failing program must fail with the same exception
type, message and line.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Job, Session
from repro.apps import build_app
from repro.errors import ReproError
from repro.interp import compiler
from repro.interp.compiler import StmtCompiler
from repro.interp.interpreter import Interpreter
from repro.interp.procedures import ExternalRegistry
from repro.lang import parse
from repro.runtime.costmodel import CostModel
from repro.runtime.events import Compute
from repro.runtime.mpi import SimComm
from repro.runtime.network import resolve_model
from repro.runtime.simulator import Engine
from repro.transform import Compuniformer
from repro.transform.options import TransformOptions
from repro.transform.pipeline import list_variants, resolve_variant
from tests.integration.test_property_equivalence import (
    _direct_program,
    _indirect_program,
)
from tests.interp.test_fastpath import (
    EXIT_CYCLE_SRC,
    MUTUAL_RECURSION_SRC,
    RECURSIVE_SRC,
    TIMING_SRC,
    WHILE_EXIT_SRC,
)

COST = CostModel(flush_threshold=math.inf)


def _tap(gen, stream):
    """Pass a rank's ops through, recording each Compute's seconds."""
    reply = None
    while True:
        try:
            op = gen.send(reply)
        except StopIteration:
            return
        if type(op) is Compute:
            stream.append(op.seconds)
        reply = yield op


def _execute(program, nranks, *, generated, network="gmnet", externals=None):
    source = parse(program) if isinstance(program, str) else program
    externals = externals or ExternalRegistry()
    shared = StmtCompiler(source, externals)
    if not generated:
        # every statement through Interpreter._exec_stmt
        shared.body_entries = lambda body: [(None, s) for s in body]
    interps = [
        Interpreter(
            source,
            comm=SimComm(rank, nranks),
            cost_model=COST,
            externals=externals,
            compiler=shared,
        )
        for rank in range(nranks)
    ]
    streams = [[] for _ in interps]
    try:
        result = Engine(
            [_tap(it.run_collecting(), s) for it, s in zip(interps, streams)],
            resolve_model(network),
        ).run()
    except (ReproError, ArithmeticError, ValueError, TypeError) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))
    return {
        "result": result,
        "streams": streams,
        "outputs": [it.output for it in interps],
        "arrays": [
            {n: a.data.copy() for n, a in it.main_frame.arrays.items()}
            for it in interps
        ],
    }


def assert_parity(program, nranks=2, *, fails=False, **kwargs):
    gen = _execute(program, nranks, generated=True, **kwargs)
    ref = _execute(program, nranks, generated=False, **kwargs)
    assert isinstance(ref, tuple) == fails, ref
    if fails:
        assert gen == ref
        return ref
    assert gen["streams"] == ref["streams"]
    assert gen["result"] == ref["result"]
    assert gen["outputs"] == ref["outputs"]
    assert [[tuple(map(type, e)) for e in o] for o in gen["outputs"]] == [
        [tuple(map(type, e)) for e in o] for o in ref["outputs"]
    ]
    for g, r in zip(gen["arrays"], ref["arrays"]):
        assert g.keys() == r.keys()
        for name in g:
            assert g[name].dtype == r[name].dtype, name
            assert np.array_equal(g[name], r[name]), name
    return ref


# ------------------------------------------------------------- programs

# one construct each: types, operators, intrinsics, control flow and
# procedure calls the generator specializes
FEATURES = {
    "real-intrinsic": """
program t
  integer :: i
  real :: x, y(1:3)
  logical :: p

  i = 7
  x = real(i) / 2.0 + real(i / 2)
  y(1) = real(mod(i, 4)) * 0.5
  y(2) = sqrt(x) + sin(x) * cos(x) - exp(0.5) + log(x)
  y(3) = abs(-x) + abs(-i) + int(x) + int(-2.5)
  p = x > 3.0 .and. i == 7
  print *, x, y(1), y(2), y(3), p, real(i), int(y(2))
end program t
""",
    "mixed-types": """
program t
  integer :: i, k, m
  real :: r
  logical :: a, b

  i = 5
  r = 1.5
  a = i > 3
  b = .not. a
  k = a + b + 1
  m = (i > 2) * 3 - (r < 1.0)
  r = r * i + k - 2 ** 3 + 2.0 ** 2 + i ** (-1)
  print *, k, m, r, a, b, -a, a .or. b, b .and. a
  print *, min(i, 2, k), max(r, i), min(r, 1), merge(i, r, a), merge(1, 2, b)
  print *, iand(12, 10), ior(12, 10), ieor(12, 10), ishft(1, 4), ishft(64, -2)
  print *, 7 / 2, (0 - 7) / 2, 7 / (0 - 2), mod(0 - 7, 3), mod(7, 0 - 3)
  print *, mod(7.5, 2.0), mod(i, 2.0), 7.0 / 2, i / r, 'done'
  r = merge(r, i, a) * 2 + max(r, i) - 2 ** (-1) * 3 + min(k, 1) * 2
  print *, r
end program t
""",
    "loops": """
program t
  integer :: a(1:6, 1:4)
  integer :: i, j, s, n
  real :: x

  s = 0
  n = 0
  do j = 4, 1, -1
    do i = 1, 6, 2
      a(i, j) = i * 10 + j
      s = s + a(i, j)
    enddo
  enddo
  do i = 3, 1
    s = s + 1000
  enddo
  do x = 1, 3
    s = s + x
  enddo
  n = 2
  do j = n, 4, n
    n = n + 10
  enddo
  print *, j, n
  n = 0
  do while (n < 5)
    n = n + 1
    if (n == 2) then
      cycle
    else if (n == 4) then
      exit
    else
      s = s + n
    endif
  enddo
  print *, s, i, j, n, x
end program t
""",
    "subroutines": """
program t
  integer :: v(1:8), w(1:2, 1:4)
  integer :: i, k, total
  real :: x(1:4)

  total = 0
  do i = 1, 8
    v(i) = i
  enddo
  call fill(v(3), 4)
  call fill(w, 8)
  k = 2
  call bump(k, total)
  call bump(v(5), total)
  do i = 1, 3
    call early(i, total)
  enddo
  do i = 1, 4
    x(i) = i * 0.5
  enddo
  call halve(x, 4)
  print *, v(1), v(3), v(6), w(2, 4), k, total, x(1), x(4)
end program t

subroutine halve(y, n)
  integer :: n
  real :: y(1:n)
  integer :: i

  do i = 1, n
    y(i) = y(i) / 2 + y(i) * 3
  enddo
end subroutine halve

subroutine fill(a, n)
  integer :: n
  integer :: a(1:n)
  integer :: i

  do i = 1, n
    a(i) = a(i) + i * 100
  enddo
end subroutine fill

subroutine bump(x, t)
  integer :: x, t

  x = x + 1
  t = t + x
end subroutine bump

subroutine early(i, t)
  integer :: i, t
  integer :: j

  do j = 1, 10
    if (j > i) then
      return
    endif
    t = t + j
  enddo
end subroutine early
""",
    "exit-through-a-call": """
program t
  integer :: i, s

  s = 0
  do i = 1, 5
    call leave(i, s)
    s = s + 100
  enddo
  print *, i, s
end program t

subroutine leave(i, s)
  integer :: i, s

  s = s + i
  if (i == 2) then
    cycle
  endif
  if (i == 3) then
    exit
  endif
end subroutine leave
""",
    "communication-skeleton": """
program t
  integer, parameter :: n = 4
  integer :: as(1:n), ar(1:n)
  integer :: i, k, ierr
  real :: rierr

  do k = 1, 2
    do i = 1, n
      as(i) = mynode() * 10 + i + k
    enddo
    if (mod(k, 2) == 0) then
      call mpi_barrier(0, ierr)
    endif
    call mpi_alltoall(as, n / numnodes(), 0, ar, n / numnodes(), 0, 0, rierr)
    do i = 1, n
      as(i) = ar(i) + rierr
    enddo
  enddo
  print *, ar(1), ar(n), rierr
end program t
""",
}


def _program(body, subroutines=""):
    return f"program t\n{body}\nend program t\n{subroutines}"


# each fails on both paths; the error must be the same one
FAILING = {
    "undeclared-scalar": _program("  integer :: x\n  y = x"),
    "undefined-variable": _program("  integer :: x\n  x = y + 1"),
    "undeclared-array": _program("  integer :: x\n  x = q(1) + 1"),
    "out-of-bounds-store": _program(
        "  integer :: a(1:4), i\n  i = 5\n  a(i) = 1"
    ),
    "out-of-bounds-read": _program(
        "  integer :: a(1:2, 1:3), x\n  x = a(2, 4)"
    ),
    "rank-mismatch": _program("  integer :: a(1:4), x\n  x = a(1, 1)"),
    "division-by-zero": _program(
        "  integer :: x, z\n  z = 0\n  x = 7 / z"
    ),
    "real-division-by-zero": _program("  real :: x, z\n  x = 7.0 / z"),
    "mod-by-zero": _program(
        "  integer :: x, z\n  z = 0\n  x = mod(7, z)"
    ),
    "zero-step": _program(
        "  integer :: i, z\n  z = 0\n  do i = 1, 3, z\n  enddo"
    ),
    "negative-sqrt": _program("  real :: x\n  x = sqrt(0.0 - 1.0)"),
    "unknown-procedure": _program("  integer :: x\n  call nothere(x)"),
    "size-intrinsic": _program("  integer :: a(1:4), x\n  x = size(a)"),
    "in-a-subroutine": _program(
        "  integer :: a(1:4)\n  call put(a, 9)",
        "\nsubroutine put(b, i)\n  integer :: i\n  integer :: b(1:4)\n"
        "  b(i) = 1\nend subroutine put\n",
    ),
}


@pytest.mark.parametrize("name", sorted(FEATURES))
def test_feature_programs(name):
    assert_parity(FEATURES[name], nranks=2)


@pytest.mark.parametrize(
    "src",
    [EXIT_CYCLE_SRC, WHILE_EXIT_SRC, RECURSIVE_SRC, MUTUAL_RECURSION_SRC,
     TIMING_SRC],
    ids=["exit-cycle", "while-exit", "recursion", "mutual-recursion",
         "timing"],
)
def test_fastpath_programs(src):
    assert_parity(src, nranks=2)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_programs_fail_alike(name):
    assert_parity(FAILING[name], nranks=1, fails=True)


# one small instance of every roster app at 4 ranks
ROSTER = {
    "figure2": dict(n=32, steps=2, stages=1),
    "fft": dict(n=8, steps=1, stages=1),
    "sort": dict(keys_per_dest=8, steps=2, stages=1),
    "stencil": dict(n=8, steps=2),
    "lu": dict(n=8, steps=2),
    "nodeloop": dict(n=8, steps=2, stages=1),
    "cg": dict(n=16, steps=2, ndots=2, stages=1),
    "halo": dict(n=16, steps=2, stages=1),
    "indirect": dict(n=8, stages=1),
    "indirect-external": dict(n=8, stages=1),
}


@pytest.mark.parametrize("variant", sorted(list_variants()))
@pytest.mark.parametrize("name", sorted(ROSTER))
def test_roster_apps_and_variants(name, variant):
    app = build_app(name, nranks=4, **ROSTER[name])
    program = app.source
    if variant != "original":
        try:
            report = resolve_variant(variant).run(
                app.source, TransformOptions(), oracle=app.oracle
            )
        except ReproError as exc:
            pytest.skip(f"{variant} does not apply to {name}: {exc}")
        if not report.changed:
            pytest.skip(f"{variant} leaves {name} unchanged")
        program = report.unparse()
    assert_parity(program, nranks=4, externals=app.externals)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    nranks=st.sampled_from([2, 3, 4]),
    planes=st.sampled_from([1, 2, 3]),
    rows=st.sampled_from([3, 4, 6, 8]),
    c1=st.integers(1, 50),
    c2=st.integers(1, 50),
    c3=st.integers(0, 20),
    swap=st.booleans(),
    k=st.integers(1, 8),
)
def test_random_direct_programs(nranks, planes, rows, c1, c2, c3, swap, k):
    src = _direct_program(nranks, planes, rows, c1, c2, c3, swap)
    assert_parity(src, nranks)
    report = Compuniformer(tile_size=min(k, rows)).transform(src)
    if report.transformed:
        assert_parity(report.source, nranks)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.sampled_from([4, 6, 8]),
    nranks=st.sampled_from([2, 4]),
    k=st.integers(1, 8),
)
def test_random_indirect_programs(n, nranks, k):
    if n % nranks:
        return
    src = _indirect_program(n, nranks)
    assert_parity(src, nranks)
    report = Compuniformer(tile_size=min(k, n)).transform(src)
    assert_parity(report.source, nranks)


# ------------------------------------------------------------ sharing


def test_a_16_rank_job_generates_and_compiles_each_region_once(monkeypatch):
    """The ranks of a job share one generated module; the next job of
    the same program, under any cost model, generates it again but
    compiles nothing: the text does not depend on the cost model."""
    generated = []
    compiled = []
    emit = StmtCompiler._emit_module
    build = compile

    def counting_emit(self, regions, skeleton):
        generated.append([id(s) for s, _ in regions])
        return emit(self, regions, skeleton)

    def counting_compile(text, *args):
        compiled.append(text)
        return build(text, *args)

    monkeypatch.setattr(StmtCompiler, "_emit_module", counting_emit)
    monkeypatch.setattr(compiler, "compile", counting_compile, raising=False)
    monkeypatch.setattr(compiler, "_code_memo", type(compiler._code_memo)())
    app = build_app("fft", nranks=16, n=16, steps=1, stages=1)
    session = Session()
    job = Job(program=app.source, nranks=16, engine_mode="full")
    first = session.run(job)
    assert len(generated) == 1  # one module for all 16 ranks
    assert generated[0] and len(set(generated[0])) == len(generated[0])
    assert len(compiled) == 1
    again = session.run(dataclasses.replace(job, program=parse(app.source)))
    assert again.result == first.result
    assert len(generated) == 2 and len(compiled) == 1
    slower = CostModel().scaled(2.0)
    scaled = session.run(dataclasses.replace(job, cost_model=slower))
    assert scaled.result.time > first.result.time
    assert len(generated) == 3 and len(compiled) == 1


def test_the_code_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(compiler, "_code_memo", type(compiler._code_memo)())
    for k in range(compiler.CODE_MEMO_SIZE + 5):
        compiler._compile(f"x = {k}\n")
    assert len(compiler._code_memo) == compiler.CODE_MEMO_SIZE
