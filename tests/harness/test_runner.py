"""Measurement runner: PreparedApp, PairResult, and the figure functions
at miniature sizes (the real sizes run in benchmarks/)."""

import dataclasses

import pytest

from repro.api import CompareRequest, Job, Session
from repro.apps import build_app
from repro.errors import ReproError
from repro.harness.figures import (
    ablation_collectives,
    ablation_network,
    ablation_nodeloop,
    ablation_scaling,
    ablation_tile_size,
    ablation_workloads,
    figure1,
)
from repro.harness.runner import PreparedApp
from repro.runtime.network import IDEAL, MPICH_GM
from repro.transform import TransformOptions


@pytest.fixture(scope="module")
def small_app():
    return build_app("fft", n=8, nranks=4, steps=1, stages=2)


class TestMeasure:
    def test_measure_fields(self, small_app):
        m = Session(network=MPICH_GM).measure(
            Job(program=small_app.source, nranks=4, label="x")
        )
        assert m.time > 0
        assert m.compute_time > 0
        assert m.messages == 4 * 3  # one alltoall: NP*(NP-1)
        assert m.bytes_sent == 4 * 3 * 16 * 8  # part=16 elems of 8 B
        assert m.network == "mpich-gm"
        assert m.comm_cost == m.wait_time + m.mpi_overhead

    def test_comm_cost_is_single_worst_rank(self, small_app):
        """comm_cost must be max over ranks of (wait + overhead), never a
        mix of the independent wait maximum and overhead maximum from
        different ranks."""
        job = Job(program=small_app.source, nranks=4, network=MPICH_GM)
        m = Session().measure(job)
        stats = Session().run(job).result.stats
        per_rank = [s.wait_time + s.mpi_overhead_time for s in stats]
        assert m.comm_cost == pytest.approx(max(per_rank))
        worst = max(
            stats, key=lambda s: s.wait_time + s.mpi_overhead_time
        )
        assert m.wait_time == pytest.approx(worst.wait_time)
        assert m.mpi_overhead == pytest.approx(worst.mpi_overhead_time)
        # the buggy aggregation would report at least as much, and
        # strictly more whenever the maxima live on different ranks
        mixed = max(s.wait_time for s in stats) + max(
            s.mpi_overhead_time for s in stats
        )
        assert m.comm_cost <= mixed

    def test_measure_records_collective_suite(self, small_app):
        job = Job(program=small_app.source, nranks=4, network=MPICH_GM)
        m = Session().measure(job)
        assert "alltoall=pairwise" in m.collective
        m2 = Session().measure(
            dataclasses.replace(job, collective={"alltoall": "bruck"})
        )
        assert "alltoall=bruck" in m2.collective
        assert m2.time != m.time


class TestPreparedApp:
    def test_reusable_across_networks(self, small_app):
        prepared = PreparedApp(
            small_app, options=TransformOptions(tile_size=4)
        )
        a = prepared.run_on(MPICH_GM)
        b = prepared.run_on(IDEAL)
        assert a.network == "mpich-gm"
        assert b.network == "ideal"
        assert a.prepush.bytes_sent == b.prepush.bytes_sent

    def test_verify_on_construction(self, small_app):
        prepared = PreparedApp(
            small_app, options=TransformOptions(tile_size=4), verify=True
        )
        assert prepared.equivalent

    def test_untransformable_app_raises(self):
        app = build_app("fft", n=8, nranks=4, steps=1, stages=2)
        # tile size 100 > trip count: nothing transformable
        with pytest.raises(ReproError, match="not transformed"):
            PreparedApp(app, options=TransformOptions(tile_size=100))

    def test_pair_result_properties(self, small_app):
        pair = Session().compare(
            CompareRequest(
                app=small_app,
                network=MPICH_GM,
                options=TransformOptions(tile_size=4),
            )
        )
        assert pair.speedup == pair.original.time / pair.prepush.time
        assert -5.0 < pair.overhead_reduction <= 1.0

    def test_speedup_degenerate_zero_work(self, small_app):
        """0/0 (both variants take no virtual time) is 'no change', not
        an infinite speedup; a real win over zero time stays inf."""
        pair = Session().compare(
            CompareRequest(
                app=small_app,
                network=MPICH_GM,
                options=TransformOptions(tile_size=4),
            )
        )
        zeroed = dataclasses.replace(
            pair,
            original=dataclasses.replace(pair.original, time=0.0),
            prepush=dataclasses.replace(pair.prepush, time=0.0),
        )
        assert zeroed.speedup == 1.0
        real_over_zero = dataclasses.replace(
            zeroed, original=dataclasses.replace(pair.original, time=2.0)
        )
        assert real_over_zero.speedup == float("inf")

    def test_run_on_collective_knob(self, small_app):
        prepared = PreparedApp(
            small_app, options=TransformOptions(tile_size=4)
        )
        default = prepared.run_on(MPICH_GM)
        bruck = prepared.run_on(MPICH_GM, collective={"alltoall": "bruck"})
        # the original contains the alltoall: its schedule moves; the
        # prepush variant replaced it with point-to-point, so it doesn't
        assert bruck.original.time != default.original.time
        assert bruck.prepush.time == default.prepush.time


class TestFigureFunctionsMiniature:
    """Shape of the table machinery, not of the results (sizes are tiny)."""

    def test_figure1_rows(self):
        t = figure1(n=8, nranks=4, stages=2, verify=False)
        assert t.columns[0] == "stack"
        assert len(t.rows) == 4
        stacks = set(t.column("stack"))
        assert stacks == {"mpich", "mpich-gm"}
        # normalization: exactly one row is 1.0 and it is the minimum
        norms = [float(v) for v in t.column("normalized")]
        assert min(norms) == pytest.approx(1.0)

    def test_ablation_tile_size_rows(self):
        t = ablation_tile_size(
            ks=[1, 2, 4], n=8, nranks=4, steps=1, stages=2, verify=False
        )
        assert t.column("K") == [1, 2, 4]
        assert all(v > 0 for v in t.column("time_s"))
        # tiles column consistent with K
        assert t.value("tiles", K=1) == 8
        assert t.value("tiles", K=4) == 2

    def test_ablation_tile_size_dedupes_ks(self):
        """The default ks list repeats n whenever n is itself one of the
        standard points (e.g. n=8) — duplicates must collapse instead of
        making the per-K sweep lookup ambiguous."""
        t = ablation_tile_size(
            ks=[1, 2, 2, 4], n=8, nranks=4, steps=1, stages=2, verify=False
        )
        assert t.column("K") == [1, 2, 4]
        # the n=power-of-two default list hits the same duplication
        t = ablation_tile_size(n=8, nranks=4, steps=1, stages=2, verify=False)
        assert t.column("K") == [1, 4, 8]

    def test_ablation_scaling_rows(self):
        t = ablation_scaling(
            nranks_list=(2, 4), n=8, steps=1, stages=2, verify=False
        )
        assert t.column("NP") == [2, 4]

    def test_ablation_network_rows(self):
        t = ablation_network(n=8, nranks=4, steps=1, stages=2, verify=False)
        nets = t.column("network")
        assert "gm" in nets and "mpich" in nets and "gm-no-offload" in nets
        assert t.value("offload", network="gm") == "yes"
        assert t.value("offload", network="gm-no-offload") == "no"

    def test_ablation_workloads_rows(self):
        t = ablation_workloads(
            nranks=4,
            sizes=dict(figure2=32, indirect=8, fft=8, sort=8, stencil=8, lu=8),
            verify=False,
        )
        assert len(t.rows) == 6
        patterns = set(t.column("pattern"))
        assert patterns == {"direct", "indirect"}
        schemes = set(t.column("scheme"))
        assert {"A", "B", "slab"} <= schemes

    def test_ablation_nodeloop_rows(self):
        t = ablation_nodeloop(n=8, nranks=4, steps=1, stages=2, verify=False)
        variants = t.column("variant")
        assert variants == [
            "original",
            "prepush+interchange",
            "prepush-congested",
        ]
        assert t.value("scheme", variant="prepush+interchange") == "A"
        assert t.value("scheme", variant="prepush-congested") == "B"

    def test_ablation_collectives_rows(self):
        from repro.runtime.collectives import list_algorithms

        t = ablation_collectives(
            networks=("gmnet",),
            nranks=4,
            fft_n=8,
            cg_n=16,
            halo_n=8,
            steps=1,
            stages=2,
        )
        collectives = set(t.column("collective"))
        assert collectives == {"alltoall", "allreduce", "allgather"}
        expected_rows = sum(
            len(list_algorithms(c)) for c in collectives
        )
        assert len(t.rows) == expected_rows
        # the default algorithm normalizes to exactly 1.0 per group
        defaults = [
            float(v)
            for v, a, c in zip(
                t.column("vs_default"),
                t.column("algorithm"),
                t.column("collective"),
            )
            if a
            == {
                "alltoall": "pairwise",
                "allreduce": "recursive-doubling",
                "allgather": "ring",
            }[c]
        ]
        assert all(v == pytest.approx(1.0) for v in defaults)
