"""Replay-engine parity suite (DESIGN.md §10).

The rank-symmetry replay engine's contract is *bit-identity*: whenever
recording succeeds, ``engine_mode="replay"`` must produce exactly the
``ClusterRun`` full per-rank interpretation produces — virtual times,
per-rank accounting, warnings, printed records, and every final array,
at ``==`` precision, across the whole app roster, the network registry,
the collective-algorithm registry, and every rank count the workload
divides into.  These tests pin that claim, plus the fallback rule: a
program the recorder rejects (point-to-point, subroutines/externals,
rank-dependent control flow, real allreduce) silently falls back under
``"auto"`` and raises :class:`~repro.errors.EngineModeError` under
``"replay"`` — never a silently different result.
"""

import pickle

import numpy as np
import pytest

from repro import Session
from repro.apps import build_app
from repro.errors import EngineModeError, ReproError, SymmetryError
from repro.interp.replay import replay_cluster
from repro.interp.runner import ClusterJob, execute_job, run_many
from repro.transform.pipeline import resolve_variant
from repro.transform.options import TransformOptions

from test_determinism import assert_runs_bit_identical


def _run(program, nranks, mode, *, network="gmnet", collective=None,
         externals=None):
    return execute_job(
        ClusterJob(
            program=program,
            nranks=nranks,
            network=network,
            collective=collective,
            externals=externals,
            engine_mode=mode,
        )
    )


def assert_parity(program, nranks, *, network="gmnet", collective=None):
    """Force replay and force full interpretation; demand bit-identity.

    Forcing (rather than ``auto``) proves the replay path actually ran:
    an asymmetric program would raise EngineModeError here, not quietly
    compare full against full.
    """
    replay = _run(program, nranks, "replay",
                  network=network, collective=collective)
    full = _run(program, nranks, "full",
                network=network, collective=collective)
    assert replay.data_approximate is False
    assert_runs_bit_identical(replay, full)
    # the SimResult dataclass == covers every field at once, including
    # the scheduler op count
    assert replay.result == full.result
    return replay, full


# one kwargs builder per roster app, sized so the P=64 cases stay fast;
# a ReproError from a divisibility constraint skips that combination
_APP_KWARGS = {
    "figure2": lambda p: dict(n=8 * p, steps=2, stages=1),
    "fft": lambda p: dict(n=p if p % 2 == 0 else 2 * p, steps=1, stages=1),
    "sort": lambda p: dict(keys_per_dest=8, steps=2, stages=1),
    "stencil": lambda p: dict(n=2 * p, steps=2),
    "lu": lambda p: dict(n=2 * p, steps=2),
    "nodeloop": lambda p: dict(n=p, steps=2, stages=1),
    "cg": lambda p: dict(n=4 * p, steps=2, ndots=2, stages=1),
    "halo": lambda p: dict(n=16, steps=2, stages=1),
}

RANK_COUNTS = (2, 4, 7, 16, 64)


class TestRosterParity:
    @pytest.mark.parametrize("name", sorted(_APP_KWARGS))
    @pytest.mark.parametrize("nranks", RANK_COUNTS)
    def test_app_replays_bit_identically(self, name, nranks):
        try:
            app = build_app(name, nranks=nranks, **_APP_KWARGS[name](nranks))
        except ReproError as exc:
            pytest.skip(f"{name} does not divide into {nranks} ranks: {exc}")
        assert_parity(app.source, nranks)

    @pytest.mark.parametrize("network",
                             ["ideal", "gmnet", "hostnet", "gm-rendezvous"])
    @pytest.mark.parametrize("name", ["nodeloop", "halo"])
    def test_networks_axis(self, name, network):
        app = build_app(name, nranks=8, **_APP_KWARGS[name](8))
        assert_parity(app.source, 8, network=network)

    @pytest.mark.parametrize("algorithm",
                             ["pairwise", "ring", "scattered", "bruck"])
    def test_alltoall_algorithms(self, algorithm):
        app = build_app("nodeloop", nranks=8, n=16, steps=2, stages=1)
        assert_parity(app.source, 8, collective={"alltoall": algorithm})

    @pytest.mark.parametrize("algorithm", ["recursive-doubling", "ring"])
    def test_allreduce_algorithms(self, algorithm):
        app = build_app("cg", nranks=8, n=32, steps=2, ndots=2, stages=1)
        assert_parity(app.source, 8, collective={"allreduce": algorithm})

    @pytest.mark.parametrize("algorithm", ["ring", "linear"])
    def test_allgather_algorithms(self, algorithm):
        app = build_app("halo", nranks=8, n=16, steps=2, stages=1)
        assert_parity(app.source, 8, collective={"allgather": algorithm})


BCAST_BARRIER_SRC = """
program bb
  integer, parameter :: n = 12
  integer :: a(1:n)
  integer :: i, ierr
  do i = 1, n
    a(i) = i * 3 + mynode() * 11
  enddo
  call mpi_bcast(a, n, 2, ierr)
  call mpi_barrier(ierr)
  do i = 1, n
    a(i) = a(i) + mynode()
  enddo
  call mpi_barrier(ierr)
  print *, a(1), a(n)
end program bb
"""

ALLREDUCE_OPS_SRC = """
program ops
  integer, parameter :: n = 6
  integer :: a(1:n), r(1:n)
  integer :: i, ierr
  do i = 1, n
    a(i) = i + mynode() * 5
  enddo
  call mpi_allreduce(a, r, n, {op}, ierr)
  print *, r(1), r(n)
end program ops
"""

PRINT_RANKVEC_SRC = """
program pr
  integer :: x, ierr
  x = mynode() * 7 + 3
  call mpi_barrier(ierr)
  print *, x, numnodes()
end program pr
"""


class TestCollectiveAndOutputParity:
    @pytest.mark.parametrize("algorithm", ["binomial", "linear"])
    def test_bcast_and_barrier(self, algorithm):
        assert_parity(BCAST_BARRIER_SRC, 8,
                      collective={"bcast": algorithm})

    @pytest.mark.parametrize("op", [0, 1, 2, 3])  # sum, max, min, prod
    def test_integer_allreduce_ops(self, op):
        assert_parity(ALLREDUCE_OPS_SRC.format(op=op), 8)

    def test_rank_dependent_prints_expand_per_rank(self):
        replay, full = assert_parity(PRINT_RANKVEC_SRC, 5)
        assert replay.outputs[3] == [(3 * 7 + 3, 5)]
        assert [o[0][0] for o in replay.outputs] == [3, 10, 17, 24, 31]


REAL_ALLREDUCE_SRC = """
program rsum
  real :: a(1:4), r(1:4)
  integer :: i, ierr
  do i = 1, 4
    a(i) = (i + mynode()) * 0.5
  enddo
  call mpi_allreduce(a, r, 4, 0, ierr)
end program rsum
"""

P2P_SRC = """
program ring
  integer :: buf(1:8)
  integer :: i, ierr
  do i = 1, 8
    buf(i) = i + mynode()
  enddo
  call mpi_isend(buf, 8, mod(mynode() + 1, numnodes()), 0, ierr)
  call mpi_waitall(ierr)
end program ring
"""

BRANCH_ON_RANK_SRC = """
program br
  integer :: x, ierr
  x = 1
  if (mynode() == 0) then
    x = 2
  endif
  call mpi_barrier(ierr)
  print *, x
end program br
"""


class TestFallback:
    """Asymmetric programs: ``auto`` falls back bit-identically to
    ``full``; ``replay`` refuses loudly instead of approximating."""

    @pytest.mark.parametrize("src", [REAL_ALLREDUCE_SRC, P2P_SRC,
                                     BRANCH_ON_RANK_SRC],
                             ids=["real-allreduce", "p2p", "rank-branch"])
    def test_auto_falls_back_to_full(self, src):
        auto = _run(src, 4, "auto")
        full = _run(src, 4, "full")
        assert_runs_bit_identical(auto, full)
        assert auto.result == full.result

    @pytest.mark.parametrize("src", [REAL_ALLREDUCE_SRC, P2P_SRC,
                                     BRANCH_ON_RANK_SRC],
                             ids=["real-allreduce", "p2p", "rank-branch"])
    def test_forced_replay_raises(self, src):
        with pytest.raises(EngineModeError) as err:
            _run(src, 4, "replay")
        assert "not provably rank-symmetric" in str(err.value)
        assert isinstance(err.value.__cause__, SymmetryError)

    def test_indirect_app_falls_back(self):
        app = build_app("indirect", nranks=4, n=8, stages=1)
        auto = _run(app.source, 4, "auto", externals=app.externals)
        full = _run(app.source, 4, "full", externals=app.externals)
        assert_runs_bit_identical(auto, full)
        with pytest.raises(EngineModeError):
            _run(app.source, 4, "replay", externals=app.externals)

    def test_transformed_variant_falls_back(self):
        """The prepush schedule emits isend/irecv — outside the
        symmetry proof, so it must fall back, never replay wrongly."""
        app = build_app("nodeloop", nranks=4, n=16, steps=2, stages=1)
        report = resolve_variant("prepush").run(
            app.source, TransformOptions(), snapshots=False
        )
        assert report.changed
        auto = _run(report.source, 4, "auto")
        full = _run(report.source, 4, "full")
        assert_runs_bit_identical(auto, full)
        with pytest.raises(EngineModeError):
            _run(report.source, 4, "replay")

    def test_replay_cluster_raises_symmetry_error_directly(self):
        with pytest.raises(SymmetryError):
            replay_cluster(P2P_SRC, 4)

    def test_unknown_engine_mode_rejected(self):
        app = build_app("halo", nranks=4, n=16, steps=1, stages=1)
        with pytest.raises(Exception, match="engine_mode"):
            _run(app.source, 4, "warp")


class TestReadOnlyArrays:
    """Replay gives every rank one ndarray per rank-uniform array, so a
    write into one rank's copy would change them all: both engines hand
    back read-only arrays instead."""

    SRC = """
program uniform
  integer, parameter :: n = 8
  integer :: a(1:n), b(1:n)
  integer :: i, ierr
  do i = 1, n
    a(i) = i + mynode()
    b(i) = i
  enddo
  call mpi_barrier(ierr)
end program uniform
"""

    @pytest.mark.parametrize("mode", ["replay", "full"])
    def test_writing_a_rank_array_raises(self, mode):
        run = _run(self.SRC, 4, mode)
        for name in ("a", "b"):
            with pytest.raises(ValueError, match="read-only"):
                run.arrays[0][name][0] = 99
        assert [arrays["b"][0] for arrays in run.arrays] == [1] * 4
        assert [arrays["a"][0] for arrays in run.arrays] == [1, 2, 3, 4]

    def assert_read_only(self, run):
        for name in ("a", "b"):
            with pytest.raises(ValueError, match="read-only"):
                run.arrays[0][name][0] = 99

    @pytest.mark.parametrize("mode", ["replay", "full"])
    def test_an_unpickled_run_stays_read_only(self, mode):
        """A pool worker's run reaches the caller through pickle, which
        rebuilds writeable arrays (and keeps replay's shared ones
        shared)."""
        self.assert_read_only(
            pickle.loads(pickle.dumps(_run(self.SRC, 4, mode)))
        )

    def test_a_pooled_batch_stays_read_only(self):
        with Session(jobs=2) as session:
            pool = session.pool()
            if pool is None:
                pytest.skip("multiprocessing unavailable in this environment")
            batch = run_many(
                [
                    ClusterJob(
                        program=self.SRC,
                        nranks=4,
                        network="gmnet",
                        engine_mode=mode,
                    )
                    for mode in ("replay", "full")
                ],
                executor=pool,
            )
        assert batch.mode == "pool"
        for run in batch:
            self.assert_read_only(run)
