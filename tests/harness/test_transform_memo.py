"""The session transform memo in front of ``Pipeline.run`` (DESIGN.md §7).

A :class:`~repro.api.Session` keeps a bounded in-memory memo of the
pipeline runs its sweeps expand, so a warm sweep or tune search skips
``parse``, analysis and every pass.  These tests pin the contract: the
memo answers repeated (program, pipeline, options) triples and nothing
else, never sees apps carrying opaque Python objects, is private to one
session, stays within its bound, and changes no plan or result.
"""

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.callinfo import DictOracle
from repro.api import Session
from repro.apps import APP_BUILDERS, fft_transpose
from repro.harness.sweep import (
    TRANSFORM_MEMO_SIZE,
    SweepSpec,
    _execute_sweep,
    _TransformMemo,
    plan_sweep,
)
from repro.lang import unparse
from repro.lang.ast_nodes import SourceFile
from repro.serve import ServeClient, ThreadedServer
from repro.transform import pipeline as pipeline_mod
from repro.transform.options import TransformOptions
from repro.transform.pipeline import (
    CommGenPass,
    IndirectElimPass,
    Pipeline,
    TilePass,
    register_variant,
)
from repro.tune import default_space


def spec(**overrides):
    base = dict(
        name="memo",
        app="fft",
        app_kwargs={"n": 8, "steps": 1, "stages": 2},
        nranks=(4,),
        variants=("original", "prepush"),
        tile_sizes=(2, 4),
        networks=("gmnet", "ideal"),
        verify=False,
    )
    base.update(overrides)
    return SweepSpec(**base)


@pytest.fixture
def runs(monkeypatch):
    """Counts every ``Pipeline.run`` call."""
    calls = []
    original = Pipeline.run

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Pipeline, "run", counting)
    return calls


def rows(result):
    return [
        (r.axes, r.fingerprint, r.measurement.to_dict()) for r in result.runs
    ]


def plan_digest(plan):
    return (
        [
            (
                p.axes,
                p.fingerprint,
                p.text,
                unparse(p.program)
                if isinstance(p.program, SourceFile)
                else p.program,
                p.variant_id,
            )
            for p in plan.points
        ],
        [v.key for v in plan.verifications],
        sorted(str(k) for k in plan.pending),
    )


class TestWarmSessions:
    def test_warm_sweep_runs_no_pipeline(self, runs, tmp_path):
        with Session(cache_dir=tmp_path) as session:
            cold = session.sweep(spec(verify=True))
            assert len(runs) == 2  # one prepush run per tile size
            del runs[:]
            warm = session.sweep(spec(verify=True))
        assert runs == []
        assert warm.stats.total_simulated == 0
        assert rows(warm) == rows(cold)

    def test_memo_works_without_a_cache(self, runs):
        session = Session()
        first = session.sweep(spec())
        del runs[:]
        second = session.sweep(spec())
        assert runs == []
        assert second.stats.simulated == first.stats.simulated > 0
        assert rows(second) == rows(first)

    def test_warm_tune_runs_no_pipeline(self, runs, tmp_path):
        space = default_space(
            "fft",
            app_kwargs={"n": 8, "steps": 1, "stages": 2},
            nranks=(4,),
            tile_sizes=("auto", 2, 4),
        )
        with Session(cache_dir=tmp_path) as session:
            cold = session.tune(space, budget=10, seed=3)
            assert runs
            del runs[:]
            warm = session.tune(space, budget=10, seed=3)
        assert runs == []
        assert warm.simulations == 0
        assert (
            warm.trajectory.search_fingerprint()
            == cold.trajectory.search_fingerprint()
        )

    def test_warm_server_sweep_runs_no_pipeline(self, runs, tmp_path):
        with ThreadedServer(cache_dir=tmp_path) as ts:
            with ServeClient(port=ts.port) as client:
                cold = client.sweep(spec())
                assert runs
                del runs[:]
                warm = client.sweep(spec())
        assert runs == []
        assert [r["measurement"] for r in warm["runs"]] == [
            r["measurement"] for r in cold["runs"]
        ]

    def test_results_match_a_memoless_sweep(self):
        session = Session()
        session.sweep(spec(verify=True, engine_mode="auto"))
        memoized = session.sweep(spec(verify=True, engine_mode="auto"))
        fresh = _execute_sweep(spec(verify=True, engine_mode="auto"))
        assert memoized.to_json() == fresh.to_json()


class TestMisses:
    @pytest.mark.parametrize(
        "change",
        [
            {"app_kwargs": {"n": 16, "steps": 1, "stages": 2}},
            {"app_kwargs": {"n": 8, "steps": 1, "stages": 3}},
            {"tile_sizes": (2, 8)},
            {"interchange": ("never",)},
            {"variants": ("original", "no-interchange")},
        ],
        ids=["size", "stages", "tile", "interchange", "variant"],
    )
    def test_changed_input_misses(self, runs, change):
        session = Session()
        session.sweep(spec())
        del runs[:]
        session.sweep(spec(**change))
        assert runs

    def test_reregistered_variant_misses(self, runs, monkeypatch):
        monkeypatch.setattr(
            pipeline_mod, "_VARIANTS", dict(pipeline_mod._VARIANTS)
        )
        register_variant(
            "memo-tiles", Pipeline((TilePass(), CommGenPass()), partial=True)
        )
        session = Session()
        first = session.sweep(spec(variants=("memo-tiles",)))
        # same name, same identity, a different object: never served
        # the old entry
        register_variant(
            "memo-tiles",
            Pipeline((TilePass(), CommGenPass()), partial=True),
            overwrite=True,
        )
        del runs[:]
        second = session.sweep(spec(variants=("memo-tiles",)))
        assert runs == ["memo-tiles", "memo-tiles"]
        assert rows(second) == rows(first)

    def test_pipeline_with_other_pass_config_misses(self, runs):
        session = Session()
        plain = Pipeline(
            (TilePass(), CommGenPass(), IndirectElimPass()), name="cfg"
        )
        session.sweep(spec(variants=(plain,)))
        other = Pipeline(
            (TilePass(), CommGenPass(skip_scheme_b=True), IndirectElimPass()),
            name="cfg",
            partial=True,
        )
        del runs[:]
        session.sweep(spec(variants=(other,)))
        assert len(runs) == 2

    def test_pipeline_mutated_in_place_misses(self, runs):
        session = Session()
        tiles = Pipeline((TilePass(), CommGenPass()), name="mut", partial=True)
        session.sweep(spec(variants=(tiles,)))
        tiles.passes = (TilePass(), CommGenPass(skip_scheme_b=True))
        del runs[:]
        session.sweep(spec(variants=(tiles,)))
        assert len(runs) == 2


class TestBypass:
    def test_externals_app_bypasses_the_memo(self, runs):
        session = Session()
        indirect = spec(
            app="indirect-external",
            app_kwargs={"n": 8, "stages": 2},
            variants=("prepush",),
            tile_sizes=("auto",),
            networks=("gmnet",),
        )
        session.sweep(indirect)
        first = len(runs)
        session.sweep(indirect)
        assert first > 0 and len(runs) == 2 * first
        assert len(session._transforms._entries) == 0

    def test_oracle_app_bypasses_the_memo(self, runs, monkeypatch):
        monkeypatch.setitem(
            APP_BUILDERS,
            "fft-oracle",
            lambda **kw: dataclasses.replace(
                fft_transpose(**kw), oracle=DictOracle({})
            ),
        )
        session = Session()
        session.sweep(spec(app="fft-oracle"))
        session.sweep(spec(app="fft-oracle"))
        assert len(runs) == 4
        assert len(session._transforms._entries) == 0


class TestSharing:
    @pytest.mark.parametrize("engine_mode", ["full", "auto"])
    def test_simulation_leaves_memoized_ast_unchanged(self, engine_mode):
        session = Session(engine_mode=engine_mode)
        session.sweep(spec(verify=True))
        entries = list(session._transforms._entries.values())
        assert entries
        before = [unparse(report.source) for report, _ in entries]
        assert before == [text for _, text in entries]
        # the warm sweep simulates the very ASTs the memo holds
        session.sweep(spec(verify=True))
        assert [unparse(r.source) for r, _ in entries] == before

    def test_sessions_share_no_entries(self, runs):
        a, b = Session(), Session()
        a.sweep(spec())
        del runs[:]
        b.sweep(spec())
        assert len(runs) == 2
        assert a._transforms is not b._transforms

    def test_transform_and_prepare_stay_fresh(self):
        session = Session()
        session.sweep(spec())
        source = fft_transpose(n=8, nranks=4, steps=1, stages=2).source
        one = session.transform(source, variant="prepush")
        two = session.transform(source, variant="prepush")
        assert one.source is not two.source

    def test_memo_stays_within_its_bound(self, runs):
        memo = _TransformMemo()
        source = fft_transpose(n=8, nranks=4, steps=1, stages=2).source
        options = TransformOptions()
        tiles = [
            Pipeline((TilePass(), CommGenPass()), name=f"t{i}", partial=True)
            for i in range(TRANSFORM_MEMO_SIZE + 1)
        ]
        for pipeline in tiles:
            memo.run(pipeline, source, options)
        assert len(memo._entries) == TRANSFORM_MEMO_SIZE
        del runs[:]
        memo.run(tiles[-1], source, options)
        assert runs == []  # most recent: still held
        memo.run(tiles[0], source, options)
        assert runs == ["t0"]  # least recent: evicted
        assert len(memo._entries) == TRANSFORM_MEMO_SIZE

    def test_concurrent_plans_are_identical(self):
        memo = _TransformMemo()
        specs = [spec(verify=True), spec(name="memo-2", interchange=("never",))]
        expected = plan_digest(plan_sweep(specs, None))
        with ThreadPoolExecutor(max_workers=4) as pool:
            plans = list(
                pool.map(lambda _: plan_sweep(specs, None, memo), range(8))
            )
        assert all(plan_digest(p) == expected for p in plans)
        assert len(memo._entries) == 4
