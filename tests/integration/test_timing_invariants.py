"""Timing-shape invariants of the simulated evaluation (DESIGN.md §5).

These pin the *physics* of the substitution: what overlap can and cannot
buy under each network model.  The configuration (128x128 FFT transpose
on 8 ranks) is the validated regime where communication is a meaningful
fraction of execution and tiles are large enough to amortize per-message
overheads — the same regime the paper's testbed experiments ran in.
All assertions are orderings with margins, never absolute times.
"""

import pytest

from repro.apps import build_app
from repro.harness.runner import PreparedApp
from repro.runtime.network import IDEAL, MPICH_GM, MPICH_P4
from repro.transform import TransformOptions


@pytest.fixture(scope="module")
def pairs():
    """One transformed FFT workload measured on all three networks."""
    app = build_app("fft", n=128, nranks=8, steps=1, stages=6)
    prepared = PreparedApp(
        app, options=TransformOptions(tile_size=16), verify=False
    )
    return {
        net.name: prepared.run_on(net) for net in (MPICH_GM, MPICH_P4, IDEAL)
    }


def test_prepush_wins_on_offload_network(pairs):
    gm = pairs["mpich-gm"]
    assert gm.speedup > 1.1, (
        f"prepush must beat the original on an offload NIC; got "
        f"{gm.speedup:.3f}"
    )


def test_prepush_hides_most_wait_time(pairs):
    gm = pairs["mpich-gm"]
    assert gm.prepush.wait_time < gm.original.wait_time * 0.5


def test_prepush_never_below_compute_floor(pairs):
    """No schedule can beat pure computation time."""
    gm = pairs["mpich-gm"]
    assert gm.prepush.time >= gm.prepush.compute_time


def test_ideal_network_equalizes(pairs):
    """On a zero-cost network both variants cost ~compute only."""
    ideal = pairs["ideal"]
    assert ideal.prepush.time == pytest.approx(ideal.original.time, rel=0.1)


def test_host_stack_gains_little(pairs):
    """MPICH (host-driven) cannot overlap: prepush must not win there,
    and the offload stack must benefit strictly more."""
    p4 = pairs["mpich"]
    gm = pairs["mpich-gm"]
    assert p4.speedup < 1.05
    assert gm.speedup > p4.speedup + 0.1


def test_original_gm_faster_than_original_mpich(pairs):
    """Stack ordering: GM hardware is simply faster."""
    assert pairs["mpich-gm"].original.time < pairs["mpich"].original.time


def test_bytes_identical_between_variants(pairs):
    """Pre-pushing moves the same data, just earlier and in more pieces."""
    gm = pairs["mpich-gm"]
    assert gm.prepush.bytes_sent == gm.original.bytes_sent
    assert gm.prepush.messages > gm.original.messages


def test_makespan_at_least_wire_floor(pairs):
    """Each rank must push its own bytes through its NIC: makespan >= the
    per-rank wire occupancy under either variant."""
    gm = pairs["mpich-gm"]
    per_rank_bytes = gm.prepush.bytes_sent / 8
    wire_floor = per_rank_bytes * MPICH_GM.byte_time
    assert gm.prepush.time >= wire_floor
    assert gm.original.time >= wire_floor


def test_tile_size_extremes_are_worse_than_moderate():
    """The U-shape of Ablation A: K=1 pays per-message overhead, K=trip
    has no overlap; a moderate K beats both extremes."""
    app = build_app("fft", n=128, nranks=8, steps=1, stages=6)
    times = {}
    for k in (1, 16, 128):
        pair = PreparedApp(
            app, options=TransformOptions(tile_size=k), verify=False
        ).run_on(MPICH_GM)
        times[k] = pair.prepush.time
    assert times[16] < times[1]
    assert times[16] < times[128]


def test_congestion_costs():
    """Ablation E's physics: the congested (no-interchange) schedule of
    the nodeloop kernel is slower than the interchanged one."""
    app = build_app("nodeloop", n=96, nranks=8, steps=1, stages=6)
    good = PreparedApp(
        app, options=TransformOptions(interchange="auto"), verify=False
    ).run_on(MPICH_GM)
    bad = PreparedApp(
        app, options=TransformOptions(interchange="never"), verify=False
    ).run_on(MPICH_GM)
    assert good.prepush.time < bad.prepush.time
