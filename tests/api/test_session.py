"""The Session façade: construction-time resolution, typed requests,
golden parity with the legacy engine paths, and resource amortization
(one cache + one pool reused across calls)."""

from __future__ import annotations

import pytest

from repro import (
    CompareRequest,
    ExecutionContext,
    Job,
    Session,
    UNSET,
    VerifyRequest,
)
from repro.apps import build_app
from repro.errors import ReproError, SimulationError, VerificationError
from repro.harness.figures import figure1
from repro.harness.runner import measurement_from_run
from repro.harness.sweep import SweepSpec, _execute_sweep, plan_sweep
from repro.interp.runner import ClusterJob, execute_job
from repro.runtime import network as network_registry
from repro.runtime.costmodel import DEFAULT_COST_MODEL
from repro.runtime.network import IDEAL, resolve_model
from repro.transform import TransformOptions, get_variant
from repro.verify import compare_runs
from tests.programs import direct_2d

NRANKS = 4


def small_spec(name: str = "api-spec") -> SweepSpec:
    return SweepSpec(
        name=name,
        app="fft",
        app_kwargs={"n": 32, "steps": 1, "stages": 2},
        nranks=(NRANKS,),
        networks=("gmnet",),
    )


class TestConstruction:
    def test_defaults(self):
        s = Session()
        assert s.network.name == "mpich-gm"  # "gmnet" alias resolves
        assert s.cache is None
        assert s.jobs is None
        assert s.pool() is None

    def test_context_object_and_overrides(self):
        ctx = ExecutionContext(network="hostnet", jobs=3)
        s = Session(ctx, network="ideal")
        assert s.network.name == "ideal"  # keyword override wins
        assert s.jobs == 3  # the rest comes from the context

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            Session(fault_model="chaos")

    def test_unknown_network_rejected_at_construction(self):
        with pytest.raises(SimulationError):
            Session(network="carrier-pigeon")

    def test_unknown_collective_rejected_at_construction(self):
        with pytest.raises(SimulationError):
            Session(collective="carrier-pigeon")

    def test_collective_suite_resolved_once(self):
        s = Session(collective="bruck")
        assert s.collective_suite["alltoall"] == "bruck"
        # unlisted collectives keep their defaults in the resolved map
        assert set(s.collective_suite) == {
            "alltoall",
            "allreduce",
            "allgather",
            "bcast",
        }

    def test_registry_mutation_cannot_reach_a_live_session(self):
        """Names resolve at construction: deleting the registry entry
        afterwards must not affect the session (a daemon's registry may
        churn under it)."""
        model = network_registry.MPICH_GM.with_(name="api-ephemeral")
        network_registry.register_model(model)
        try:
            s = Session(network="api-ephemeral")
        finally:
            del network_registry._REGISTRY["api-ephemeral"]
        m = s.measure(Job(program=direct_2d(), nranks=NRANKS))
        assert m.network == "api-ephemeral"


class TestRequests:
    def test_measure_matches_legacy_measure(self):
        src = direct_2d()
        s = Session(network="gmnet")
        got = s.measure(Job(program=src, nranks=NRANKS))
        # the engine core, composed by hand: one job, folded
        network = resolve_model("gmnet")
        legacy = measurement_from_run(
            execute_job(
                ClusterJob(program=src, nranks=NRANKS, network=network)
            ),
            network=network,
        )
        assert got.to_dict() == legacy.to_dict()

    def test_job_overrides_beat_session_defaults(self):
        src = direct_2d()
        s = Session(network="hostnet")
        inherited = s.measure(Job(program=src, nranks=NRANKS))
        overridden = s.measure(
            Job(program=src, nranks=NRANKS, network="gmnet")
        )
        assert inherited.network == "mpich"
        assert overridden.network == "mpich-gm"

    def test_collective_override_and_unset_sentinel(self):
        src = direct_2d()
        s = Session(collective="bruck")
        inherited = s.measure(Job(program=src, nranks=NRANKS))
        assert "alltoall=bruck" in inherited.collective
        # explicit None forces the registry defaults despite the session
        defaults = s.measure(
            Job(program=src, nranks=NRANKS, collective=None)
        )
        assert "alltoall=pairwise" in defaults.collective
        assert Job(program=src, nranks=NRANKS).collective is UNSET

    def test_compare_matches_legacy_run_pair(self):
        app = build_app("fft", nranks=NRANKS, n=32, steps=1, stages=2)
        s = Session(network="gmnet")
        options = TransformOptions(tile_size=4)
        got = s.compare(CompareRequest(app=app, options=options))
        # the engine core, composed by hand: transform, simulate both
        # programs on the network, fold each run, check §4 on IDEAL
        report = get_variant("prepush").run(app.source, options)
        network = resolve_model("gmnet")

        def run(program, net=network):
            return execute_job(
                ClusterJob(program=program, nranks=NRANKS, network=net)
            )

        def measure(program, label):
            return measurement_from_run(
                run(program), network=network, label=f"{app.name}/{label}"
            )

        original = measure(app.source, "original")
        prepush = measure(report.source, "prepush")
        assert got.original.to_dict() == original.to_dict()
        assert got.prepush.to_dict() == prepush.to_dict()
        legacy = compare_runs(
            run(app.source, IDEAL),
            run(report.source, IDEAL),
            skip=report.dead_arrays,
        )
        assert got.equivalent and legacy.equivalent

    def test_compare_accepts_bare_appspec(self):
        app = build_app("fft", nranks=NRANKS, n=32, steps=1, stages=2)
        pair = Session(network="gmnet", verify=False).compare(app)
        assert pair.app == app.name

    def test_verify_returns_both_reports(self):
        src = direct_2d()
        result = Session(network="gmnet").verify(
            VerifyRequest(program=src, nranks=NRANKS)
        )
        assert result.equivalent
        assert result.transform.transformed
        assert result.speedup == result.equivalence.speedup

    def test_verify_bare_program_shorthand(self):
        # direct_2d defaults to np=4; VerifyRequest defaults to 8 ranks,
        # so the shorthand needs a program sized for the default
        src = direct_2d(n=16, nprocs=8)
        result = Session(network="gmnet").verify(src)
        assert result.equivalent

    def test_verify_untransformable_raises(self):
        with pytest.raises(VerificationError):
            Session().verify(
                VerifyRequest(
                    program="program p\ninteger :: i\ni = 1\n"
                    "end program p",
                    nranks=2,
                )
            )

    def test_run_many_serial_without_jobs(self):
        src = direct_2d()
        s = Session()
        batch = s.run_many(
            [Job(program=src, nranks=NRANKS) for _ in range(2)]
        )
        assert batch.mode == "serial"
        assert batch[0].time == batch[1].time


class TestSweepAmortization:
    def test_sweep_uses_session_cache_and_pool(self, tmp_path):
        with Session(cache_dir=tmp_path, jobs=2) as s:
            cold = s.sweep(small_spec())
            pool_after_first = s._executor
            warm = s.sweep(small_spec())
            pool_after_second = s._executor
        # warm cache: zero simulations, bit-identical measurements
        assert cold.stats.total_simulated > 0
        assert warm.stats.total_simulated == 0
        assert [r.measurement.to_dict() for r in warm.runs] == [
            r.measurement.to_dict() for r in cold.runs
        ]
        # the pool object is created once and reused across sweeps
        # (when multiprocessing is unavailable both are None — equally shared)
        assert pool_after_first is pool_after_second

    def test_sweep_matches_legacy_engine(self, tmp_path):
        legacy = _execute_sweep(plan_sweep(small_spec(), None))
        with Session() as s:
            via_session = s.sweep(small_spec())
        assert [r.measurement.to_dict() for r in via_session.runs] == [
            r.measurement.to_dict() for r in legacy.runs
        ]

    def test_figure1_golden_parity_and_warm_cache(self, tmp_path):
        """The acceptance bar: figure1 through the Session façade is
        cell-for-cell identical to the engine-direct path, and a warm
        session regenerates it with zero simulations."""
        kwargs = dict(n=16, nranks=NRANKS, stages=2, verify=False)
        direct = figure1(**kwargs)
        with Session(cache_dir=tmp_path) as s:
            cold = figure1(session=s, **kwargs)
            warm = figure1(session=s, **kwargs)
        assert cold.rows == direct.rows
        assert warm.rows == direct.rows
        assert cold.columns == direct.columns
        # second pass was served entirely from the session's cache
        assert s.cache.stats.hits > 0
        assert s.cache.stats.misses == s.cache.stats.stores

    def test_broken_pool_is_retired_not_resubmitted(self):
        """A pool whose workers die mid-session must be retired: later
        calls may not keep submitting to the dead executor."""
        s = Session(jobs=2)
        pool = s.pool()
        if pool is None:
            pytest.skip("multiprocessing unavailable in this environment")
        pool._broken = "simulated worker death"
        assert s.pool() is None
        assert s._executor_failed
        # the session stays usable: later batches run serially
        batch = s.run_many(
            [Job(program=direct_2d(), nranks=NRANKS) for _ in range(2)]
        )
        assert len(batch) == 2
        s.close()

    def test_close_is_idempotent_and_pool_recreates(self):
        s = Session(jobs=2)
        s.close()
        s.close()
        batch = s.run_many(
            [Job(program=direct_2d(), nranks=NRANKS) for _ in range(2)]
        )
        assert len(batch) == 2
