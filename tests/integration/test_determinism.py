"""DESIGN §3.2 determinism regression: the simulation is a pure function
of its inputs.

The sweep cache's soundness (DESIGN §7) rests entirely on this section:
two runs of the same :class:`ClusterJob` — in the same process, or
through the :func:`run_many` process pool — must produce bit-identical
``SimResult``s: virtual times, per-rank accounting (event counts), and
final payloads.  These tests pin exactly that, at bit (``==``) rather
than approximate precision.
"""

import numpy as np
import pytest

from repro.api import Job, Session
from repro.apps import build_app
from repro.interp.runner import ClusterJob, run_many
from repro.transform import TransformOptions, get_variant


def assert_runs_bit_identical(a, b):
    # virtual times
    assert a.result.time == b.result.time
    assert a.result.rank_times == b.result.rank_times
    # event counts and per-rank accounting (RankStats is a dataclass:
    # == compares every field exactly, including float times)
    assert a.result.stats == b.result.stats
    assert a.result.warnings == b.result.warnings
    # printed records and final payloads
    assert a.outputs == b.outputs
    assert len(a.arrays) == len(b.arrays)
    for rank in range(len(a.arrays)):
        assert sorted(a.arrays[rank]) == sorted(b.arrays[rank])
        for name, arr in a.arrays[rank].items():
            assert np.array_equal(arr, b.arrays[rank][name]), (rank, name)


def _jobs():
    """A job mix covering point-to-point, collectives, and the prepush
    schedule, on both the offload and host-driven stacks."""
    fft = build_app("fft", n=8, nranks=4, steps=1, stages=2)
    prepush = get_variant("prepush").run(
        fft.source,
        TransformOptions(tile_size=2),
    )
    cg = build_app("cg", n=16, nranks=4, steps=2, stages=2)
    return [
        ClusterJob(program=fft.source, nranks=4, network="gmnet"),
        ClusterJob(program=prepush.source, nranks=4, network="gmnet"),
        ClusterJob(program=fft.source, nranks=4, network="hostnet",
                   collective={"alltoall": "bruck"}),
        ClusterJob(program=cg.source, nranks=4, network="gm-rendezvous"),
    ]


class TestSerialDeterminism:
    @pytest.mark.parametrize("index", range(4))
    def test_same_job_twice_is_bit_identical(self, index):
        job = _jobs()[index]
        request = Job(
            program=job.program,
            nranks=job.nranks,
            network=job.network,
            collective=job.collective,
        )
        first = Session().run(request)
        second = Session().run(request)
        assert_runs_bit_identical(first, second)


class TestPoolDeterminism:
    def test_pool_matches_serial_bit_for_bit(self):
        """The same batch through the process pool (when the sandbox
        provides one — the serial fallback is equally covered and the
        batch reports which one ran)."""
        jobs = _jobs()
        serial = run_many(jobs, processes=None)
        assert serial.mode == "serial"
        pooled = run_many(jobs, processes=2)
        assert pooled.mode in ("pool", "serial")
        assert len(pooled) == len(serial)
        for a, b in zip(serial, pooled):
            assert_runs_bit_identical(a, b)


class TestReplayScaleDeterminism:
    """§3.2 at scale: a 256-rank sweep through the replay engine
    (DESIGN.md §10) is a pure function of its spec — run twice serially
    and once through the process pool, it must produce bit-identical
    measurements and identical content-addressed cache keys."""

    @staticmethod
    def _spec():
        from repro.harness.sweep import SweepSpec

        return SweepSpec(
            name="scale-256",
            app="nodeloop",
            app_kwargs={"n": 256, "steps": 1, "stages": 0},
            nranks=(256,),
            variants=("original",),
            collectives=({"alltoall": "bruck"},),
            verify=False,
        )

    def test_cache_keys_are_stable(self):
        from repro.harness.sweep import expand_spec
        from repro.interp.runner import job_fingerprint

        first, _ = expand_spec(self._spec())
        second, _ = expand_spec(self._spec())
        assert [job_fingerprint(p.job()) for p in first] == [
            job_fingerprint(p.job()) for p in second
        ]

    def test_serial_twice_and_pooled_are_bit_identical(self):
        from repro.api import Session

        spec = self._spec()
        with Session(jobs=None) as s:
            serial_a = s.sweep(spec)
            serial_b = s.sweep(spec)
        assert serial_a.stats.simulated == serial_b.stats.simulated > 0
        assert [r.measurement for r in serial_a.runs] == [
            r.measurement for r in serial_b.runs
        ]  # Measurement is a dataclass: == is bit-exact on every float
        with Session(jobs=2) as s:
            pooled = s.sweep(spec)
        assert [r.measurement for r in pooled.runs] == [
            r.measurement for r in serial_a.runs
        ]
