"""Operator parity table for the symmetry recorder's vector domain.

Every binary and unary operator and every intrinsic runs with each
operand as a rank-uniform scalar, a :class:`RankVec` (``mynode()``-
derived) and an :class:`ApproxVec` (read back from an array whose
shadow a small ``max_shadow_bytes`` refused), in both integer and real.
Each case runs under forced replay and under full interpretation and
must agree on virtual time, scheduler op count, printed output and
final arrays (approximate arrays excepted).  Cases whose evaluation
fails on some ranks check the fallback rule instead: ``auto`` raises
exactly the error full interpretation raises.
"""

import functools
import itertools
import warnings

import numpy as np
import pytest

from repro.apps import build_app
from repro.errors import EngineModeError, InterpError, SymmetryError
from repro.interp import replay
from repro.interp.interpreter import Interpreter
from repro.interp.runner import ClusterJob, execute_job
from repro.interp.symmetry import SymmetryRecorder
from repro.lang import parse

NRANKS = 4

# ``bigi``/``bigr`` (64 elements, 2 KiB of shadow each at 4 ranks)
# exceed this budget and degrade to approximate; the other arrays
# (640 bytes of shadow together) fit in it
SHADOW_BUDGET = 1024

PROGRAM = """
program ops
  integer :: ia, iv, k, ierr
  real :: ra, rv
  integer :: ires(1:2)
  real :: rres(1:2)
  integer :: bigi(1:64)
  real :: bigr(1:64)
  integer :: sh(1:4)
  integer :: m(1:4, 1:3)

  ia = 7
  ra = 2.5
  iv = mynode() + 2
  rv = mynode() * 0.75 + 1.25
  do k = 1, 64
    bigi(k) = mynode() + k + 1
    bigr(k) = mynode() * 0.5 + k
  enddo
  do k = 1, 4
    sh(k) = mynode() * k + 1
    m(k, 1) = k * 10
    m(k, 2) = k * 10 + mynode()
    m(k, 3) = k
  enddo
  call mpi_barrier(0, ierr)
{body}
  call mpi_barrier(0, ierr)
end program ops
"""

# operand kind -> (expression, is_real, is_approx)
OPERANDS = {
    "int": ("ia", False, False),
    "real": ("ra", True, False),
    "intvec": ("iv", False, False),
    "realvec": ("rv", True, False),
    "intapprox": ("bigi(1)", False, True),
    "realapprox": ("bigr(1)", True, True),
}
KINDS = sorted(OPERANDS)
SCALAR_KINDS = ("int", "real")

ARITH = ("+", "-", "*", "/", "**")
COMPARE = ("==", "/=", "<", "<=", ">", ">=")


@pytest.fixture(autouse=True)
def small_shadow_budget(monkeypatch):
    monkeypatch.setattr(
        replay,
        "SymmetryRecorder",
        functools.partial(SymmetryRecorder, max_shadow_bytes=SHADOW_BUDGET),
    )


def _run(body, mode):
    return execute_job(
        ClusterJob(
            program=parse(PROGRAM.format(body=body)),
            nranks=NRANKS,
            network="gmnet",
            engine_mode=mode,
        )
    )


def _statement(expr, is_real, observable):
    target = "rres(1)" if is_real else "ires(1)"
    lines = [f"  {target} = {expr}"]
    if observable:
        lines.append(f"  print *, {expr}")
    return "\n".join(lines)


def assert_replay_parity(body, *, approx=False):
    """Forced replay must succeed and match full interpretation."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning either
        rep = _run(body, "replay")
    full = _run(body, "full")
    assert rep.result.time == full.result.time
    assert rep.result.ops_processed == full.result.ops_processed
    assert rep.result == full.result
    assert rep.outputs == full.outputs
    # the print records carry types too: True is not 1, 2.0 is not 2
    assert [[tuple(map(type, e)) for e in o] for o in rep.outputs] == [
        [tuple(map(type, e)) for e in o] for o in full.outputs
    ]
    # bigi/bigr are approximate by design; so are results built from them
    exact = ["sh", "m"] if approx else ["ires", "rres", "sh", "m"]
    for rank in range(NRANKS):
        for name in exact:
            assert np.array_equal(
                rep.arrays[rank][name], full.arrays[rank][name]
            ), (rank, name)
    return rep, full


def assert_fallback_parity(body):
    """``auto`` reproduces full interpretation: same result or the same
    typed error; forced replay refuses instead of guessing."""
    try:
        full = _run(body, "full")
    except Exception as exc:  # the program's own error
        with pytest.raises(type(exc)) as err:
            _run(body, "auto")
        assert str(err.value) == str(exc)
        outcome = exc
    else:
        auto = _run(body, "auto")
        assert auto.result == full.result
        assert auto.outputs == full.outputs
        outcome = None
    with pytest.raises(EngineModeError) as err:
        _run(body, "replay")
    assert isinstance(err.value.__cause__, SymmetryError)
    return outcome


# ------------------------------------------------------------ operators


def _binop_cases():
    for op in ARITH + COMPARE:
        for lk, rk in itertools.product(KINDS, KINDS):
            if lk in SCALAR_KINDS and rk in SCALAR_KINDS:
                continue  # no vector: the scalar domain, pinned elsewhere
            yield op, lk, rk


@pytest.mark.parametrize("op,lk,rk", list(_binop_cases()))
def test_binary_operator(op, lk, rk):
    (l, lreal, lapprox), (r, rreal, rapprox) = OPERANDS[lk], OPERANDS[rk]
    approx = lapprox or rapprox
    is_real = (lreal or rreal) and op in ARITH
    body = _statement(f"{l} {op} {r}", is_real, observable=not approx)
    assert_replay_parity(body, approx=approx)


@pytest.mark.parametrize("expr", ["iv .and. ia", "ia .and. iv",
                                  "bigi(1) .and. ia", "iv .or. ia",
                                  "(ia - 7) .or. iv", "bigi(1) .or. ia"])
def test_logical_operator_on_a_vector_falls_back(expr):
    assert_fallback_parity(_statement(expr, False, observable=False))


@pytest.mark.parametrize("expr", ["(ia - 7) .and. iv", "ia .or. iv"])
def test_logical_operator_short_circuits_past_a_vector(expr):
    # the right side is never evaluated, exactly as on every rank
    assert_replay_parity(_statement(expr, False, observable=True))


@pytest.mark.parametrize("kind", KINDS)
def test_unary_minus(kind):
    expr, is_real, approx = OPERANDS[kind]
    assert_replay_parity(
        _statement(f"-{expr}", is_real, observable=not approx), approx=approx
    )


@pytest.mark.parametrize("kind", ["intvec", "realvec", "intapprox"])
def test_not_on_a_vector_falls_back(kind):
    expr = OPERANDS[kind][0]
    assert_fallback_parity(_statement(f".not. {expr}", False, False))


# ----------------------------------------------------------- intrinsics

# name -> is the result real? (None: the argument's type); every
# operand is positive, so sqrt and log stay in their domains
ONE_ARG = {
    "abs": None,
    "int": False,
    "real": True,
    "sqrt": True,
    "sin": True,
    "cos": True,
    "exp": True,
    "log": True,
}
TWO_ARG = ("mod", "min", "max", "iand", "ior", "ieor", "ishft")


def _one_arg_cases():
    for name in ONE_ARG:
        for kind in KINDS:
            if kind not in SCALAR_KINDS:
                yield name, kind


@pytest.mark.parametrize("name,kind", list(_one_arg_cases()))
def test_one_argument_intrinsic(name, kind):
    expr, is_real, approx = OPERANDS[kind]
    real_result = ONE_ARG[name]
    if real_result is None:
        real_result = is_real
    body = _statement(f"{name}({expr})", real_result, observable=not approx)
    assert_replay_parity(body, approx=approx)


def _two_arg_cases():
    for name in TWO_ARG:
        for ak, bk in itertools.product(KINDS, KINDS):
            if ak in SCALAR_KINDS and bk in SCALAR_KINDS:
                continue
            yield name, ak, bk


def _types_vary(run):
    """True when ranks printed values of different types."""
    types = {
        tuple(tuple(map(type, entry)) for entry in out) for out in run.outputs
    }
    return len(types) > 1


@pytest.mark.parametrize("name,ak,bk", list(_two_arg_cases()))
def test_two_argument_intrinsic(name, ak, bk):
    (a, areal, aapprox), (b, breal, bapprox) = OPERANDS[ak], OPERANDS[bk]
    approx = aapprox or bapprox
    if name in ("mod", "min", "max"):
        is_real = areal or breal
    else:
        is_real = False
    body = _statement(f"{name}({a}, {b})", is_real, observable=not approx)
    if not approx and _types_vary(_run(body, "full")):
        # min/max return the winning argument itself: where an int wins
        # on some ranks and a real on others, their charges would diverge
        assert name in ("min", "max")
        assert_fallback_parity(body)
    else:
        assert_replay_parity(body, approx=approx)


def test_min_max_over_int_and_real():
    # the same type wins on every rank: one trace stands in for all
    assert_replay_parity(
        "\n".join(
            _statement(expr, True, observable=True)
            for expr in ("max(rv, iv, 2)", "min(rv, ia)", "min(iv, ia, 4)")
        )
    )
    # ranks 0 and 1 get an integer, ranks 2 and 3 the real 3.5
    assert_fallback_parity("  print *, min(iv, 3.5, ia)")


@pytest.mark.parametrize("ck", ["int", "intvec", "realvec", "intapprox"])
@pytest.mark.parametrize("tk,fk", [("int", "intvec"), ("intvec", "int"),
                                   ("realvec", "real"), ("intvec", "intvec"),
                                   ("intapprox", "int")])
def test_merge(tk, fk, ck):
    t, treal, tapprox = OPERANDS[tk]
    f, freal, fapprox = OPERANDS[fk]
    c, _, capprox = OPERANDS[ck]
    # the vector condition picks per rank: rank 0 gets false for "iv - 2"
    cond = {"int": "ia", "intvec": "iv - 2", "realvec": "rv - 1.25",
            "intapprox": "bigi(1) - 2"}[ck]
    approx = tapprox or fapprox or capprox
    body = _statement(f"merge({t}, {f}, {cond})", treal or freal,
                      observable=not approx)
    assert_replay_parity(body, approx=approx)


def test_merge_of_int_and_real_per_rank_types_falls_back():
    # rank 0 picks the integer, the others the real: their later charges
    # would diverge, so one trace cannot stand in for all of them
    assert_fallback_parity("  print *, merge(ra, ia, iv - 2)")


def test_arithmetic_on_logical_vectors():
    # comparisons give bools; Python adds them as integers where numpy
    # would take the logical or
    body = """
  ires(1) = (iv > 3) + (iv > 2)
  print *, (iv > 3) + (iv > 2), (iv > 3) - (iv > 2), (iv > 3) * (iv > 4)
  print *, -(iv > 3), abs(iv > 3), (iv > 3) + 1, (iv > 3) / (iv > 1)
  print *, mod(iv > 3, 2), max(iv > 3, 0), merge(iv > 3, ia > 1, iv > 2)
"""
    assert_replay_parity(body)


def test_negative_shift_vector():
    assert_replay_parity(_statement("ishft(ia * 64, mynode() - 2)", False,
                                    observable=True))


# ------------------------------------------------------ arrays and stores


def test_shadowed_reads_and_stores():
    body = """
  ires(1) = sh(2) + sh(3)
  print *, sh(2), sh(4) * 2
  sh(3) = 5
  print *, sh(3)
  do k = 1, sh(3)
    ires(2) = ires(2) + sh(k - 1 - (k - 1) / 4 * 4 + 1)
  enddo
  rres(1) = real(sh(1)) * 0.5
"""
    # sh(3) collapses to the uniform 5 and may then bound a loop
    assert_replay_parity(body)


def test_gathers_with_rank_dependent_subscripts():
    body = """
  ires(1) = sh(mynode() + 1)
  ires(2) = m(mynode() + 1, 2) + m(4 - mynode(), 1)
  rres(1) = real(m(iv - 1, 3))
  print *, sh(mynode() + 1), m(mynode() + 1, 1), m(2, mynode() / 2 + 1)
  print *, sh(4 - mynode())
"""
    assert_replay_parity(body)


def test_gather_from_an_approximate_array():
    assert_replay_parity("  ires(1) = bigi(mynode() + 1) * 2", approx=True)


def test_rank_dependent_store_subscript_falls_back():
    assert_fallback_parity("  ires(mynode() / 2 + 1) = 3\n  print *, ires(1)")


def test_approximate_value_in_output_falls_back():
    assert_fallback_parity("  print *, bigi(2) + 1")


def test_approximate_value_in_control_flow_falls_back():
    assert_fallback_parity("  if (bigi(2) > 0) then\n    ia = 1\n  endif")


# ---------------------------------------------------- errors and fallbacks


@pytest.mark.parametrize("target", ["ires(1)", "rres(1)", "ia", "ra"])
def test_integer_power_with_a_negative_exponent(target):
    # every rank gets a real: the vector domain computes it rank by rank
    body = f"  {target} = (mynode() + 2) ** (-1)\n  print *, iv ** (-2)"
    assert_replay_parity(body)


def test_integer_power_with_per_rank_result_types_falls_back():
    # rank 0 computes 2 ** (-1) (a real), the others integers
    assert_fallback_parity("  print *, (mynode() + 2) ** (mynode() - 1)")


def test_real_division_by_a_zero_slot():
    # rank 1 divides by 0.0: full interpretation raises, and replay
    # must neither return inf for that rank nor warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = assert_fallback_parity(
            "  rres(1) = ra / (mynode() - 1.0)"
        )
    assert isinstance(error, ZeroDivisionError)


@pytest.mark.parametrize(
    "expr,error",
    [
        ("ia / (mynode() - 1)", InterpError),
        ("mod(ia, mynode() - 1)", InterpError),
        ("mod(ra, mynode() - 1.0)", ValueError),
        ("int(sqrt(mynode() - 1.0))", ValueError),
        ("int(log(mynode() * 1.0))", ValueError),
        ("sh(mynode() + 2)", InterpError),
        ("int(rv / (rv - rv))", ZeroDivisionError),
    ],
)
def test_errors_on_some_ranks_fall_back_to_the_full_error(expr, error):
    outcome = assert_fallback_parity(f"  ires(1) = {expr}")
    assert isinstance(outcome, error)


def test_uniform_error_is_the_programs_own():
    # a scalar divisor of zero fails on every rank alike
    assert_fallback_parity("  ires(1) = iv / (ia - 7)")


@pytest.mark.parametrize(
    "decl", ["integer :: a(1:n)", "integer :: a(n:4)", "integer :: k = n + 1"]
)
def test_declaration_reading_a_later_declared_scalar(decl):
    # ``n`` is still unbound while ``decl`` elaborates: the recorder
    # raises full interpretation's own error, not a lookup failure
    source = f"""
program later
  {decl}
  integer :: n, ierr
  n = 3
  call mpi_barrier(0, ierr)
end program later
"""
    errors = []
    for mode in ("full", "auto", "replay"):
        job = ClusterJob(
            program=source, nranks=NRANKS, network="gmnet", engine_mode=mode
        )
        with pytest.raises(InterpError) as err:
            execute_job(job)
        errors.append(str(err.value))
    assert errors == ["undefined variable 'n' (line 3)"] * 3


# -------------------------------------------------------------- guard


def test_recording_nodeloop_never_walks_the_tree(monkeypatch):
    """Every expression the recorder evaluates runs as generated code:
    the tree-walking evaluator is never entered, and the recorder's own
    ``_eval`` (the communication skeleton's entry into the generated
    code) runs a fixed number of times, not once per element."""
    calls = {"tree": 0, "skeleton": 0}
    tree_eval = Interpreter._eval
    skeleton_eval = SymmetryRecorder._eval

    def counting_tree(self, e, frame):
        calls["tree"] += 1
        return tree_eval(self, e, frame)

    def counting_skeleton(self, e, frame):
        calls["skeleton"] += 1
        return skeleton_eval(self, e, frame)

    monkeypatch.setattr(Interpreter, "_eval", counting_tree)
    monkeypatch.setattr(SymmetryRecorder, "_eval", counting_skeleton)
    app = build_app("nodeloop", nranks=8, n=32, steps=2, stages=0)
    recorder = replay.record_trace(app.source, 8)
    assert calls["tree"] == 0
    # declarations plus two time steps' loop bounds and MPI counts
    assert 0 < calls["skeleton"] < 20
    assert [ev[0] for ev in recorder.trace if ev[0] != "compute"] == [
        "alltoall",
        "alltoall",
    ]


#: the SimComm methods every local data move of a collective goes through
_DATA_HELPERS = (
    "copy_to",
    "working_copy",
    "reduce_into",
    "take_rows",
    "put_rows",
)


@pytest.mark.parametrize(
    "app,kwargs,collective",
    [
        ("halo", {"n": 32, "steps": 2, "stages": 2}, None),
        ("nodeloop", {"n": 32, "steps": 1, "stages": 0}, "bruck"),
    ],
)
def test_replay_moves_no_payloads(monkeypatch, app, kwargs, collective):
    """Replay ranks time their collectives without moving data: no
    collective data helper copies on a payload-carrying communicator,
    the engine delivers nothing, and the shared scratch buffers keep
    the sentinel they were filled with.  The same job under full
    interpretation shows the counters are live."""
    from repro.runtime.mpi import SimComm
    from repro.runtime.simulator import Engine

    moves = {"helpers": 0, "deliver": 0}

    def spy(name):
        original = getattr(SimComm, name)

        def counting(self, *args):
            if self._payloads:  # a payload-free comm skips the move
                moves["helpers"] += 1
            return original(self, *args)

        monkeypatch.setattr(SimComm, name, counting)

    for name in _DATA_HELPERS:
        spy(name)
    deliver = Engine._deliver

    def counting_deliver(self, target, msg):
        moves["deliver"] += 1
        return deliver(self, target, msg)

    monkeypatch.setattr(Engine, "_deliver", counting_deliver)
    scratch_for = replay._scratch_for
    filled = []

    def sentinel_scratch(events):
        scratch = scratch_for(events)
        for bufs in scratch:
            for buf in bufs:
                buf.fill(-4242)
                filled.append(buf)
        return scratch

    monkeypatch.setattr(replay, "_scratch_for", sentinel_scratch)
    spec = build_app(app, nranks=NRANKS, **kwargs)

    replay.replay_cluster(spec.source, NRANKS, "gmnet", collective=collective)
    assert moves == {"helpers": 0, "deliver": 0}
    assert filled and all((buf == -4242).all() for buf in filled)

    execute_job(
        ClusterJob(
            program=spec.source,
            nranks=NRANKS,
            network="gmnet",
            collective=collective,
            engine_mode="full",
        )
    )
    assert moves["helpers"] > 0 and moves["deliver"] > 0
