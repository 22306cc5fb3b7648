"""The session program memo behind the sweep executor (DESIGN.md §7.4).

A :class:`~repro.api.Session` keeps a bounded memo of what its sweeps'
simulations derive from a program text alone: the parsed AST, the
generated code of full interpretation and the symmetry recording (or
the refusal) per rank count and cost model.  These tests pin the
contract: a sweep over networks parses, generates and records each
program once; results, outputs and arrays equal memo-less runs; the
memo stays within its bound; a memoized refusal behaves as a fresh one;
no run can write into a shared recording; sessions share nothing; and
the planned verbs (measure, compare, verify, sweep) use it while the raw
run paths do not.
"""

import dataclasses
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Job, Session
from repro.errors import EngineModeError, SymmetryError
from repro.harness.sweep import TRANSFORM_MEMO_SIZE, SweepSpec, plan_sweep
from repro.interp import replay, runner
from repro.interp.compiler import StmtCompiler
from repro.interp.procedures import ExternalRegistry
from repro.interp.runner import ClusterJob, ProgramMemo, execute_job
from repro.lang import parse
from repro.runtime.costmodel import CostModel
from repro.serve import ServeClient, ThreadedServer

NETWORKS = ("ideal", "gmnet", "hostnet")

#: rank-symmetric, with a rank-varying (shadowed) array
SYMMETRIC_SRC = """
program sym
  integer, parameter :: n = 8
  integer :: a(1:n), b(1:n)
  integer :: i, ierr
  do i = 1, n
    a(i) = i * 3 + mynode() * 11
    b(i) = i
  enddo
  call mpi_barrier(ierr)
  print *, a(1), b(n)
end program sym
"""

#: point-to-point: outside the symmetry proof
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


def spec(**overrides):
    base = dict(
        name="programs",
        app="fft",
        app_kwargs={"n": 8, "steps": 1, "stages": 2},
        nranks=(4,),
        variants=("original", "prepush"),
        networks=NETWORKS,
        verify=True,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def counts(monkeypatch):
    """Counts parses inside the job executor, code generations per
    compiler kind and symmetry recordings per (nranks, cost)."""
    seen = Counter()
    parse_ = runner.parse
    build = StmtCompiler._build
    record = replay.record_trace

    def counting_parse(text):
        seen["parse"] += 1
        return parse_(text)

    def counting_build(self):
        seen[type(self).__name__] += 1
        return build(self)

    def counting_record(program, nranks, *, cost_model):
        seen["record", nranks, cost_model] += 1
        return record(program, nranks, cost_model=cost_model)

    monkeypatch.setattr(runner, "parse", counting_parse)
    monkeypatch.setattr(StmtCompiler, "_build", counting_build)
    monkeypatch.setattr(replay, "record_trace", counting_record)
    return seen


def assert_same_run(a, b):
    assert a.result == b.result
    assert a.outputs == b.outputs
    assert a.data_approximate == b.data_approximate
    assert len(a.arrays) == len(b.arrays)
    for mine, theirs in zip(a.arrays, b.arrays):
        assert mine.keys() == theirs.keys()
        for name in mine:
            assert mine[name].dtype == theirs[name].dtype
            assert np.array_equal(mine[name], theirs[name])


class TestOncePerSession:
    def test_a_sweep_over_three_networks_does_each_step_once(self, counts):
        session = Session()
        result = session.sweep(spec(variants=("original",), verify=False))
        assert len(result.runs) == len(NETWORKS)
        assert result.stats.simulated == len(NETWORKS)
        # the original text is parsed once, and replays everywhere:
        # one recording, and no full-interpretation code at all
        assert counts["parse"] == 1
        assert counts["VecCompiler"] == 1
        assert counts["StmtCompiler"] == 0
        records = {k: n for k, n in counts.items() if k[0] == "record"}
        assert list(records.values()) == [1]

    def test_a_refused_program_generates_its_code_once(self, counts):
        session = Session()
        session.sweep(spec(variants=("prepush",), verify=False))
        # the transformed AST comes from the transform memo: no parse
        assert counts["parse"] == 0
        assert counts["VecCompiler"] == 1  # the one refused recording
        assert counts["StmtCompiler"] == 1  # shared by three networks
        records = [n for k, n in counts.items() if k[0] == "record"]
        assert records == [1]

    def test_each_cost_model_records_once(self, counts):
        session = Session()
        session.sweep(
            spec(variants=("original",), verify=False, cpu_scales=(1.0, 2.0))
        )
        records = {k: n for k, n in counts.items() if k[0] == "record"}
        assert sorted(records.values()) == [1, 1]
        assert {k[2] for k in records} == {
            CostModel().scaled(1.0),
            CostModel().scaled(2.0),
        }
        assert counts["parse"] == 1

    def test_a_second_sweep_of_the_session_does_nothing_again(self, counts):
        session = Session()
        session.sweep(spec())
        first = Counter(counts)
        session.sweep(spec(name="again", networks=("tcp-10g",)))
        assert counts == first


class TestSameResults:
    def test_runs_equal_memoless_runs(self):
        """Every job of a verified sweep, run through one memo (twice:
        cold and warm), equals the same job run without it."""
        plan = plan_sweep(spec(), None)
        jobs = plan.jobs()
        assert any(isinstance(j.program, str) for j in jobs)
        assert any(j.text is not None for j in jobs)
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        for _ in range(2):
            for job in jobs:
                assert_same_run(execute_job(job, memo), execute_job(job))

    def test_sweep_equals_a_fresh_session_per_point(self):
        together = Session().sweep(spec())
        for run in together.runs:
            alone = Session().sweep(
                spec(
                    variants=(run.axes["variant"],),
                    networks=(run.axes["network"],),
                )
            )
            assert [r.measurement for r in alone.runs] == [run.measurement]


class TestBound:
    @staticmethod
    def _program(k):
        return f"program p{k}\n  integer :: x\n  x = {k}\nend program p{k}\n"

    def test_the_session_memo_uses_the_transform_memo_bound(self):
        assert Session()._programs.size == TRANSFORM_MEMO_SIZE

    def test_entries_are_bounded(self, counts):
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        texts = [self._program(k) for k in range(TRANSFORM_MEMO_SIZE + 5)]
        for text in texts:
            memo.entry(ClusterJob(program=text, nranks=1))
        assert len(memo._entries) == TRANSFORM_MEMO_SIZE
        counts.clear()
        memo.entry(ClusterJob(program=texts[-1], nranks=1))
        assert counts["parse"] == 0  # most recent: still held
        memo.entry(ClusterJob(program=texts[0], nranks=1))
        assert counts["parse"] == 1  # least recent: evicted
        assert len(memo._entries) == TRANSFORM_MEMO_SIZE

    def test_outcomes_are_bounded(self, counts):
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        entry = memo.entry(ClusterJob(program=SYMMETRIC_SRC, nranks=1))
        cost = CostModel()
        for nranks in range(1, TRANSFORM_MEMO_SIZE + 6):
            memo.recording(entry, nranks, cost)
        assert len(memo._outcomes) == TRANSFORM_MEMO_SIZE
        counts.clear()
        memo.recording(entry, TRANSFORM_MEMO_SIZE + 5, cost)
        memo.recording(entry, 1, cost)
        assert [n for k, n in counts.items() if k[0] == "record"] == [1]
        assert len(memo._outcomes) == TRANSFORM_MEMO_SIZE

    def test_outcomes_stay_within_the_shadow_budget(self, monkeypatch):
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        entry = memo.entry(ClusterJob(program=SYMMETRIC_SRC, nranks=1))
        costs = [CostModel().scaled(s) for s in (1.0, 2.0, 3.0, 4.0)]
        one = memo.recording(entry, 4, costs[0])
        # room for two recordings of this size, not three
        monkeypatch.setattr(
            runner.symmetry, "MAX_SHADOW_BYTES", 2 * one.nbytes + 1
        )
        for cost in costs[1:]:
            memo.recording(entry, 4, cost)
        assert [dict(k[2]) for k in memo._outcomes] == [
            c.canonical_params() for c in costs[2:]
        ]
        assert memo._outcome_bytes == 2 * one.nbytes


class TestRefusal:
    def test_a_memoized_refusal_falls_back_with_the_same_message(
        self, counts
    ):
        job = ClusterJob(program=P2P_SRC, nranks=4, network="gmnet")
        forced = dataclasses.replace(job, engine_mode="replay")
        with pytest.raises(EngineModeError) as fresh:
            execute_job(forced)
        full = execute_job(dataclasses.replace(job, engine_mode="full"))
        counts.clear()
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        for _ in range(2):
            with pytest.raises(EngineModeError) as err:
                execute_job(forced, memo)
            assert isinstance(err.value.__cause__, SymmetryError)
            assert str(err.value) == str(fresh.value)
            assert_same_run(execute_job(job, memo), full)
        # one refusal recorded, one code generation for both fallbacks
        assert [n for k, n in counts.items() if k[0] == "record"] == [1]
        assert counts["StmtCompiler"] == 1

    def test_the_refusal_is_raised_afresh_each_time(self):
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        entry = memo.entry(ClusterJob(program=P2P_SRC, nranks=4))
        errors = []
        for _ in range(2):
            with pytest.raises(SymmetryError) as err:
                memo.recording(entry, 4, CostModel())
            errors.append(err.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])


class TestThreads:
    def test_threads_sharing_one_memo_generate_each_program_once(
        self, counts
    ):
        """More threads than cores, switching often, run the same jobs
        through one memo: every run equals its memo-less run, and the
        shared compiler of the refused program generates its module
        once (the lock in ``StmtCompiler``)."""
        jobs = [
            ClusterJob(program=src, nranks=4, network=network, engine_mode=mode)
            for src in (P2P_SRC, SYMMETRIC_SRC)
            for network in NETWORKS
            for mode in ("full", "auto")
        ]
        expected = [execute_job(job) for job in jobs]
        counts.clear()
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(execute_job, job, memo)
                    for _ in range(4)
                    for job in jobs
                ]
                runs = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for run, want in zip(runs, expected * 4):
            assert_same_run(run, want)
        assert len(memo._entries) == 2
        assert counts["StmtCompiler"] == 2  # one module per program


class TestNoAliasing:
    def test_writing_one_runs_arrays_leaves_the_next_run_unchanged(self):
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        job = ClusterJob(program=SYMMETRIC_SRC, nranks=4, engine_mode="replay")
        expected = execute_job(job)
        first = execute_job(job, memo)
        for arrays in first.arrays:
            for data in arrays.values():
                # a run's arrays are read-only; a caller that forces a
                # write still must not reach the memo's recording
                data.flags.writeable = True
                data[...] = -1
        second = execute_job(dataclasses.replace(job, network="gmnet"), memo)
        third = execute_job(job, memo)
        assert_same_run(third, expected)
        assert [a["a"].tolist() for a in second.arrays] == [
            a["a"].tolist() for a in expected.arrays
        ]


def _worker_entries():
    """Run in a pool worker: the texts its program memo holds."""
    return sorted(runner._worker.programs._entries)


class TestScope:
    def test_two_sessions_share_nothing(self, counts):
        a, b = Session(), Session()
        assert a._programs is not b._programs
        a.sweep(spec(variants=("original",), verify=False))
        b.sweep(spec(variants=("original",), verify=False))
        assert counts["parse"] == 2
        assert [n for k, n in counts.items() if k[0] == "record"] == [2]

    def test_run_and_run_many_stay_off_the_memo(self, counts):
        session = Session()
        job = Job(program=SYMMETRIC_SRC, nranks=4)
        session.run(job)
        session.run_many([job, job])
        assert len(session._programs._entries) == 0
        assert counts["parse"] == 3

    def test_measure_runs_through_the_memo(self, counts):
        session = Session()
        job = Job(program=SYMMETRIC_SRC, nranks=4)
        first = session.measure(job)
        second = session.measure(dataclasses.replace(job, network="ideal"))
        assert list(session._programs._entries) == [SYMMETRIC_SRC]
        assert counts["parse"] == 1
        assert [n for k, n in counts.items() if k[0] == "record"] == [1]
        assert first.network != second.network

    def test_externals_bypass_the_memo(self):
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        job = ClusterJob(
            program=SYMMETRIC_SRC, nranks=4, externals=ExternalRegistry()
        )
        assert memo.entry(job) is None
        execute_job(job, memo)
        assert len(memo._entries) == 0

    def test_an_ast_without_its_text_bypasses_the_memo(self):
        memo = ProgramMemo(TRANSFORM_MEMO_SIZE)
        tree = parse(SYMMETRIC_SRC)
        assert memo.entry(ClusterJob(program=tree, nranks=4)) is None
        entry = memo.entry(
            ClusterJob(program=tree, nranks=4, text=SYMMETRIC_SRC)
        )
        assert entry.source is tree
        # the same text as a string finds the entry the AST made
        assert memo.entry(ClusterJob(program=SYMMETRIC_SRC, nranks=4)) is entry

    def test_server_threads_share_the_session_memo(self):
        session = Session()
        with ThreadedServer(session=session) as ts:
            with ServeClient(port=ts.port) as client:
                served = client.sweep(spec(variants=("original",)))
        assert len(session._programs._entries) == 1
        direct = Session().sweep(spec(variants=("original",)))
        assert [r["measurement"] for r in served["runs"]] == [
            r.measurement.to_dict() for r in direct.runs
        ]

    def test_pool_workers_keep_memos_of_their_own(self):
        with Session(jobs=2) as session:
            pool = session.pool()
            if pool is None:
                pytest.skip("multiprocessing unavailable in this environment")
            pooled = session.sweep(spec())
            held = set()
            for _ in range(4):
                held.update(pool.submit(_worker_entries).result())
        assert pooled.stats.mode == "pool"
        assert held  # the workers parsed and memoized
        assert len(session._programs._entries) == 0  # the parent did not
        assert not hasattr(runner._worker, "programs")
        assert [r.measurement for r in pooled.runs] == [
            r.measurement for r in Session().sweep(spec()).runs
        ]
