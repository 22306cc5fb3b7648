"""Workload generators: they parse, classify as declared, and run."""

import pytest

from repro.apps import APP_BUILDERS, build_app
from repro.apps.base import AppSpec, mix_stages, stage_decls
from repro.analysis.patterns import find_opportunities
from repro.errors import ReproError
from repro.api import Job, Session
from repro.lang import parse

SMALL = {
    "figure2": dict(n=32, nranks=4, steps=1, stages=2),
    "indirect": dict(n=8, nranks=4, stages=2),
    "indirect-external": dict(n=8, nranks=4, stages=2),
    "fft": dict(n=8, nranks=4, steps=1, stages=2),
    "sort": dict(keys_per_dest=8, nranks=4, steps=1, stages=2),
    "stencil": dict(n=8, nranks=4, steps=1),
    "lu": dict(n=8, nranks=4, steps=1),
    "nodeloop": dict(n=8, nranks=4, steps=1, stages=2),
    "cg": dict(n=16, nranks=4, steps=2, ndots=4, stages=2),
    "halo": dict(n=8, nranks=4, steps=2, stages=2),
}


@pytest.mark.parametrize("name", sorted(APP_BUILDERS))
def test_app_parses(name):
    app = build_app(name, **SMALL[name])
    parse(app.source)


@pytest.mark.parametrize("name", sorted(APP_BUILDERS))
def test_app_detector_classification(name):
    app = build_app(name, **SMALL[name])
    result = find_opportunities(parse(app.source), oracle=app.oracle)
    if app.kind == "collective":
        # collective-bound workloads carry no alltoall site: they exist
        # for the algorithm ablation, not for the pre-push transform
        assert len(result.opportunities) == 0
        return
    assert len(result.opportunities) == 1, [
        r.reason for r in result.rejections
    ]
    assert result.opportunities[0].kind.value == app.kind


@pytest.mark.parametrize("name", sorted(APP_BUILDERS))
def test_app_runs_on_cluster(name):
    app = build_app(name, **SMALL[name])
    run = Session(network="ideal").run(
        Job(program=app.source, nranks=app.nranks, externals=app.externals)
    )
    assert run.time > 0
    for array in app.check_arrays:
        assert array in run.arrays[0]


def test_unknown_app_rejected():
    with pytest.raises(KeyError, match="unknown app"):
        build_app("quicksort")


def test_indivisible_sizes_rejected():
    with pytest.raises(ReproError, match="not divisible"):
        build_app("figure2", n=10, nranks=4)
    with pytest.raises(ReproError, match="not divisible"):
        build_app("fft", n=10, nranks=4)


def test_rank_dependence():
    """Every app's data must differ across ranks (otherwise the exchange
    proves nothing)."""
    import numpy as np

    for name in sorted(APP_BUILDERS):
        app = build_app(name, **SMALL[name])
        run = Session(network="ideal").run(
            Job(program=app.source, nranks=app.nranks, externals=app.externals)
        )
        a0 = run.arrays[0][app.check_arrays[0]]
        a1 = run.arrays[1][app.check_arrays[0]]
        assert not np.array_equal(a0, a1), name


def test_external_variant_matches_subroutine_variant():
    """The Python external producer reproduces the in-language producer's
    integer arithmetic exactly."""
    import numpy as np

    sub = build_app("indirect", n=8, nranks=4, stages=3)
    ext = build_app("indirect-external", n=8, nranks=4, stages=3)
    session = Session(network="ideal")
    run_sub = session.run(Job(program=sub.source, nranks=4))
    run_ext = session.run(
        Job(program=ext.source, nranks=4, externals=ext.externals)
    )
    for r in range(4):
        assert np.array_equal(run_sub.array(r, "ar"), run_ext.array(r, "ar"))


class TestMixStages:
    def test_zero_stages_direct_assign(self):
        assert mix_stages("x + 1", 0, result="a(i)") == "      a(i) = x + 1\n"

    def test_stage_chain_structure(self):
        text = mix_stages("seed", 3, result="a(i)", indent="")
        lines = text.strip().splitlines()
        assert lines[0] == "t0 = seed"
        assert lines[-1] == "a(i) = t3"
        assert len(lines) == 5

    def test_negative_stages_rejected(self):
        with pytest.raises(ReproError):
            mix_stages("x", -1, result="y")

    def test_stage_decls(self):
        assert stage_decls(0) == ""
        assert "t0, t1, t2" in stage_decls(2)


def test_appspec_requires_two_ranks():
    with pytest.raises(ReproError, match=">= 2 ranks"):
        AppSpec(
            name="x",
            description="",
            source="",
            nranks=1,
            kind="direct",
            scheme="A",
            check_arrays=(),
        )
