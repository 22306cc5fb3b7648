"""One measurement path (DESIGN.md §7.5): measure, compare and verify
run as plans through the same plan → execute → fold stages as a sweep,
so each reads and writes the session cache, runs under the session's
``engine_mode`` and keys its verdicts by the jobs they check."""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

import pytest

from repro import Job, Session, VerifyRequest
from repro.apps import build_app
from repro.errors import EngineModeError, ReproError
from repro.harness import sweep as sweep_mod
from repro.harness.runner import PreparedApp
from repro.harness.sweep import SweepSpec
from repro.interp import replay, symmetry
from repro.serve import ServeClient, ThreadedServer
from repro.verify import EquivalenceReport
from tests.programs import direct_2d

NRANKS = 4


def fft():
    return build_app("fft", nranks=NRANKS, n=8, steps=1, stages=2)


@pytest.fixture
def records(monkeypatch):
    """Counts symmetry recordings (each replay attempt starts with one)."""
    seen = Counter()
    record = replay.record_trace

    def counting(program, nranks, *, cost_model):
        seen["record"] += 1
        return record(program, nranks, cost_model=cost_model)

    monkeypatch.setattr(replay, "record_trace", counting)
    return seen


@pytest.fixture
def failing_checks(monkeypatch):
    """Every §4 check fails."""

    def failing(original, transformed, skip=()):
        return EquivalenceReport(equivalent=False, mismatches=["x"])

    monkeypatch.setattr(
        PreparedApp, "check_equivalence", staticmethod(failing)
    )


def misses(session):
    stats = session.cache.stats
    return stats.misses, stats.verify_misses


class TestWarmVerbsSimulateNothing:
    def test_second_measure(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        job = Job(program=direct_2d(), nranks=NRANKS, label="m")
        first = session.measure(job)
        assert misses(session) == (1, 0)
        second = session.measure(job)
        assert misses(session) == (1, 0)
        assert session.cache.stats.hits == 1
        assert second == first

    def test_second_compare(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        first = session.compare(fft())
        assert misses(session) == (2, 1)
        second = session.compare(fft())
        assert misses(session) == (2, 1)
        assert session.cache.stats.verify_hits == 1
        assert second.original == first.original
        assert second.prepush == first.prepush
        assert second.equivalent and first.equivalent

    def test_second_verify_returns_the_same_report(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        request = VerifyRequest(program=direct_2d(), nranks=NRANKS)
        first = session.verify(request)
        assert misses(session) == (0, 1)
        second = session.verify(request)
        assert misses(session) == (0, 1)
        assert session.cache.stats.verify_hits == 1
        assert second.equivalence == first.equivalence
        assert second.equivalence.compared_arrays

    def test_compare_and_sweep_share_a_verdict(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        session.compare(fft())
        result = session.sweep(
            SweepSpec(
                name="shared",
                app="fft",
                app_kwargs={"n": 8, "steps": 1, "stages": 2},
                nranks=(NRANKS,),
            )
        )
        assert result.stats.verify_hits == 1
        # the sweep's gmnet points are the compare's points
        assert result.stats.total_simulated == 0

    def test_served_compare_after_a_direct_one(self, tmp_path):
        direct = Session(cache_dir=tmp_path).compare(fft())
        with ThreadedServer(cache_dir=tmp_path) as ts:
            with ServeClient(port=ts.port) as client:
                served = client.compare(
                    "fft",
                    app_kwargs={"n": 8, "steps": 1, "stages": 2},
                    nranks=NRANKS,
                )
                stats = client.status()["stats"]
        assert stats["simulations"] == 0
        assert stats["verify_simulations"] == 0
        assert served["original"] == direct.original.to_dict()
        assert served["transformed"] == direct.prepush.to_dict()
        assert served["equivalent"] is True


class TestSessionEngineMode:
    """The pre-pushed programs exchange point-to-point, outside the
    symmetry proof: forced replay must refuse them."""

    def test_compare_under_forced_replay_raises(self):
        with pytest.raises(EngineModeError):
            Session(engine_mode="replay").compare(fft())

    def test_verify_under_forced_replay_raises(self):
        with pytest.raises(EngineModeError):
            Session(engine_mode="replay").verify(
                VerifyRequest(program=direct_2d(), nranks=NRANKS)
            )

    def test_full_mode_verifications_record_nothing(self, records):
        result = Session(engine_mode="full").sweep(
            SweepSpec(
                name="full",
                app="fft",
                app_kwargs={"n": 8, "steps": 1, "stages": 2},
                nranks=(NRANKS,),
                verify=True,
            )
        )
        assert result.stats.verify_simulated == 2
        assert records["record"] == 0

    def test_full_mode_compare_and_verify_record_nothing(self, records):
        session = Session(engine_mode="full")
        session.compare(fft())
        session.verify(VerifyRequest(program=direct_2d(), nranks=NRANKS))
        assert records["record"] == 0


class TestVerdictKeys:
    def test_another_symmetry_version_is_a_miss_and_prunable(
        self, tmp_path, monkeypatch
    ):
        request = VerifyRequest(program=direct_2d(), nranks=NRANKS)
        with monkeypatch.context() as m:
            m.setattr(symmetry, "SYMMETRY_VERSION", "older")
            m.setattr(sweep_mod, "SYMMETRY_VERSION", "older")
            Session(cache_dir=tmp_path).verify(request)
        session = Session(cache_dir=tmp_path)
        session.verify(request)
        assert misses(session) == (0, 1)
        assert session.cache.prune(dry_run=True)["removed"] == 1

    def test_the_key_follows_the_network(self, tmp_path):
        request = VerifyRequest(program=direct_2d(), nranks=NRANKS)
        session = Session(cache_dir=tmp_path)
        session.verify(request)
        session.verify(dataclasses.replace(request, network="hostnet"))
        assert misses(session) == (0, 2)

    def test_a_failed_check_is_not_cached(self, tmp_path, failing_checks):
        """A failing verdict stays out of the cache: the next verify
        checks again instead of trusting it."""
        session = Session(cache_dir=tmp_path)
        request = VerifyRequest(program=direct_2d(), nranks=NRANKS)
        assert not session.verify(request).equivalent
        assert not session.verify(request).equivalent
        assert misses(session) == (0, 2)
        with pytest.raises(ReproError, match="NOT equivalent"):
            session.compare(fft())

    def test_a_failed_served_check_leaves_no_claim(
        self, tmp_path, failing_checks
    ):
        """A failing verdict is not stored, and the server leaves no
        marker behind it: the next identical verify checks again at
        once."""
        with ThreadedServer(cache_dir=tmp_path) as ts:
            with ServeClient(port=ts.port) as client:
                for _ in range(2):
                    start = time.monotonic()
                    out = client.verify(direct_2d(), nranks=NRANKS)
                    assert out["equivalent"] is False
                    assert not [p for p in tmp_path.rglob("*") if p.is_file()]
                    assert time.monotonic() - start < 60
                stats = client.status()["stats"]
        assert stats["verify_simulations"] == 4
