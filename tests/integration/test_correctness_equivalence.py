"""The paper's §4 evaluation criterion: transformed output identical to
the original — across every workload, multiple tile sizes, rank counts,
and both network stacks (results must not depend on timing).
"""

import pytest

from repro.apps import APP_BUILDERS, build_app
from repro.runtime.network import IDEAL, MPICH_GM, MPICH_P4
from repro.transform import TransformOptions, get_variant
from repro.verify import verify_equivalence, verify_transform

SMALL = {
    "figure2": dict(n=64, nranks=4, steps=2, stages=2),
    "indirect": dict(n=8, nranks=4, stages=2),
    "indirect-external": dict(n=8, nranks=4, stages=2),
    "fft": dict(n=16, nranks=4, steps=2, stages=2),
    "sort": dict(keys_per_dest=16, nranks=4, steps=2, stages=2),
    "stencil": dict(n=16, nranks=4, steps=2),
    "lu": dict(n=16, nranks=4, steps=2),
    "nodeloop": dict(n=16, nranks=4, steps=2, stages=2),
}


def _check(app, tile_size, network=MPICH_GM, interchange="auto"):
    report = get_variant("prepush").run(
        app.source,
        TransformOptions(tile_size=tile_size, interchange=interchange),
        oracle=app.oracle,
    )
    assert report.transformed, [r.reason for r in report.rejections]
    eq = verify_equivalence(
        app.source,
        report.source,
        app.nranks,
        network=network,
        externals=app.externals,
        skip=report.dead_arrays,
    )
    assert eq.equivalent, eq.mismatches[:5]
    return report, eq


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_app_equivalent_auto_k(name):
    app = build_app(name, **SMALL[name])
    report, _ = _check(app, "auto")
    assert report.sites[0].kind.value == app.kind


def test_every_transformable_app_is_covered():
    """SMALL must track APP_BUILDERS: every app except the
    collective-bound ones (no alltoall site — their correctness is pinned
    by the cross-algorithm equivalence tests) goes through _check."""
    transformable = {
        name
        for name in APP_BUILDERS
        if build_app(name).kind != "collective"
    }
    assert transformable == set(SMALL)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_fig2_all_legal_tile_sizes(k):
    # planes = 64/4 = 16, all of 1,2,4,8 divide it
    app = build_app("figure2", **SMALL["figure2"])
    _check(app, k)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 16])
def test_fft_arbitrary_tile_sizes_with_leftovers(k):
    app = build_app("fft", **SMALL["fft"])
    report, _ = _check(app, k)
    site = report.sites[0]
    assert site.ntiles * k + site.leftover == site.trip


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8])
def test_indirect_tile_sizes_with_leftovers(k):
    app = build_app("indirect", **SMALL["indirect"])
    _check(app, k)


@pytest.mark.parametrize("nranks", [2, 4, 8])
def test_rank_count_sweep(nranks):
    app = build_app("fft", n=16, nranks=nranks, steps=2, stages=2)
    _check(app, 4)


@pytest.mark.parametrize(
    "network", [IDEAL, MPICH_GM, MPICH_P4], ids=lambda n: n.name
)
def test_results_independent_of_network(network):
    """Timing changes with the network; data must not."""
    app = build_app("stencil", **SMALL["stencil"])
    _check(app, 4, network=network)


def test_congested_nodeloop_still_correct():
    """interchange='never' produces the §3.5 congested schedule — slower,
    but it must compute the same data."""
    app = build_app("nodeloop", **SMALL["nodeloop"])
    _check(app, 4, interchange="never")


def test_verify_transform_one_call():
    app = build_app("figure2", **SMALL["figure2"])
    eq, report = verify_transform(
        app.source,
        app.nranks,
        options=TransformOptions(tile_size=4),
        network=MPICH_GM,
    )
    assert eq.equivalent
    assert report.transformed


def test_no_simulator_race_warnings():
    """The transformation must never modify a buffer with a transfer in
    flight; the engine's race detector is armed in every run above, but
    assert explicitly on the warning list here."""
    app = build_app("indirect", **SMALL["indirect"])
    report, eq = _check(app, 4)
    assert not any("in flight" in w for w in eq.warnings)
