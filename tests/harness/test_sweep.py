"""The declarative sweep engine and its content-addressed result cache.

Covers the DESIGN.md §7 contract: cache hit/miss accounting, key
sensitivity (every axis and the engine semantic version must move the
key), corrupted-entry fallback, the no-cache bypass, fingerprint
deduplication, and bit-identical warm-run reproduction.
"""

import dataclasses
import json

import pytest

import repro.interp.runner as interp_runner
from repro.api import Session
from repro.errors import ReproError, SimulationError
from repro.harness.runner import Measurement
from repro.harness.sweep import (
    SweepCache,
    SweepSpec,
    collective_label,
    expand_spec,
)
from repro.interp.runner import ClusterJob, job_fingerprint
from repro.runtime.costmodel import DEFAULT_COST_MODEL


def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        app="fft",
        app_kwargs={"n": 8, "steps": 1, "stages": 2},
        nranks=(4,),
        tile_sizes=(4,),
        networks=("gmnet",),
        verify=False,
    )
    base.update(overrides)
    return SweepSpec(**base)


PROGRAM = """
program fp
  integer :: a(1:8)
  integer :: i

  do i = 1, 8
    a(i) = i * 3
  enddo
end program fp
"""


class TestJobFingerprint:
    def base_job(self, **overrides):
        kwargs = dict(program=PROGRAM, nranks=2, network="gmnet")
        kwargs.update(overrides)
        return ClusterJob(**kwargs)

    def test_stable_across_calls(self):
        assert job_fingerprint(self.base_job()) == job_fingerprint(
            self.base_job()
        )

    def test_every_axis_moves_the_key(self):
        base = job_fingerprint(self.base_job())
        variations = {
            "program": self.base_job(program=PROGRAM.replace("3", "4")),
            "nranks": self.base_job(nranks=4),
            "network": self.base_job(network="hostnet"),
            "cost_model": self.base_job(
                cost_model=DEFAULT_COST_MODEL.scaled(2.0)
            ),
            "collective": self.base_job(collective={"alltoall": "bruck"}),
            "detect_races": self.base_job(detect_races=False),
        }
        keys = {name: job_fingerprint(job) for name, job in variations.items()}
        for name, key in keys.items():
            assert key != base, f"axis {name} did not change the fingerprint"
        assert len(set(keys.values())) == len(keys)

    def test_engine_version_moves_the_key(self, monkeypatch):
        base = job_fingerprint(self.base_job())
        monkeypatch.setattr(interp_runner, "ENGINE_VERSION", "999-test")
        assert job_fingerprint(self.base_job()) != base

    def test_source_and_text_agree(self):
        """A parsed program must fingerprint like its unparsed text, so
        the prepush variant (an AST) shares keys across runs."""
        from repro.lang import parse, unparse

        tree = parse(PROGRAM)
        as_ast = job_fingerprint(self.base_job(program=tree))
        as_text = job_fingerprint(self.base_job(program=unparse(tree)))
        assert as_ast == as_text

    def test_externals_are_uncacheable(self):
        from repro.apps import build_app

        app = build_app("indirect-external", n=4, nranks=2, stages=1)
        job = ClusterJob(
            program=app.source, nranks=2, externals=app.externals
        )
        with pytest.raises(SimulationError, match="content-hashed"):
            job_fingerprint(job)

    def test_default_collective_shares_key_with_explicit_defaults(self):
        from repro.runtime.collectives import resolve_suite

        assert job_fingerprint(
            self.base_job(collective=None)
        ) == job_fingerprint(self.base_job(collective=resolve_suite(None)))


class TestSweepCacheAccounting:
    def test_cold_then_warm(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        cold = Session(cache_dir=cache).sweep(tiny_spec())
        assert cold.stats.simulated > 0
        assert cache.stats.hits == 0
        assert cache.stats.misses > 0
        assert cache.stats.stores == cache.stats.misses

        warm_cache = SweepCache(tmp_path / "c")
        warm = Session(cache_dir=warm_cache).sweep(tiny_spec())
        assert warm.stats.total_simulated == 0
        assert warm.stats.mode == "none"
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits == cold.stats.cache_misses

    def test_warm_run_is_bit_identical(self, tmp_path):
        spec = tiny_spec(networks=("gmnet", "hostnet"), verify=True)
        cold = Session(cache_dir=tmp_path / "c").sweep(spec)
        warm = Session(cache_dir=tmp_path / "c").sweep(spec)
        assert warm.stats.simulated == 0
        for a, b in zip(cold.runs, warm.runs):
            assert a.axes == b.axes
            assert a.measurement == b.measurement  # == on floats: bit-exact

    def test_no_cache_bypass(self, tmp_path):
        # a populated cache must be ignored when caching is disabled
        cache = SweepCache(tmp_path / "c")
        Session(cache_dir=cache).sweep(tiny_spec())
        bypass = Session(cache_dir=None).sweep(tiny_spec())
        assert bypass.stats.simulated > 0
        assert bypass.stats.cache_hits == 0

    def test_corrupt_entry_falls_back_to_simulation(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        cold = Session(cache_dir=cache).sweep(tiny_spec())
        reference = {tuple(r.axes.items()): r.measurement for r in cold.runs}

        entries = sorted((tmp_path / "c").rglob("*.json"))
        assert len(entries) == cold.stats.cache_misses
        entries[0].write_text("{ not json", encoding="utf-8")

        recovered_cache = SweepCache(tmp_path / "c")
        recovered = Session(cache_dir=recovered_cache).sweep(tiny_spec())
        assert recovered_cache.stats.corrupt == 1
        assert recovered.stats.simulated == 1  # only the corrupted entry
        for r in recovered.runs:
            assert r.measurement == reference[tuple(r.axes.items())]
        # the re-simulation healed the entry
        healed = SweepCache(tmp_path / "c")
        healed_res = Session(cache_dir=healed).sweep(tiny_spec())
        assert healed_res.stats.simulated == 0

    def test_wrong_kind_payload_is_not_trusted(self, tmp_path):
        cache = SweepCache(tmp_path / "c")
        cold = Session(cache_dir=cache).sweep(tiny_spec())
        # rewrite every measurement entry as a foreign payload kind
        for path in (tmp_path / "c").rglob("*.json"):
            payload = json.loads(path.read_text())
            payload["kind"] = "something-else"
            path.write_text(json.dumps(payload))
        again_cache = SweepCache(tmp_path / "c")
        again = Session(cache_dir=again_cache).sweep(tiny_spec())
        assert again.stats.simulated == cold.stats.simulated

    def test_axis_change_is_a_miss(self, tmp_path):
        cache_dir = tmp_path / "c"
        Session(cache_dir=cache_dir).sweep(tiny_spec())
        for changed in (
            tiny_spec(networks=("hostnet",)),
            tiny_spec(nranks=(2,)),
            tiny_spec(cpu_scales=(2.0,)),
            tiny_spec(collectives=({"alltoall": "bruck"},)),
        ):
            res = Session(cache_dir=cache_dir).sweep(changed)
            assert res.stats.cache_hits == 0, changed
            assert res.stats.simulated > 0, changed

    def test_engine_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "c"
        Session(cache_dir=cache_dir).sweep(tiny_spec())
        monkeypatch.setattr(interp_runner, "ENGINE_VERSION", "999-test")
        res = Session(cache_dir=cache_dir).sweep(tiny_spec())
        assert res.stats.cache_hits == 0
        assert res.stats.simulated > 0

    def test_verification_is_cached(self, tmp_path):
        spec = tiny_spec(verify=True)
        cache = SweepCache(tmp_path / "c")
        cold = Session(cache_dir=cache).sweep(spec)
        assert cold.stats.verify_checks == 1
        assert cold.stats.verify_hits == 0
        # measurement and verification simulations are accounted apart
        assert cold.stats.simulated == 2  # original + prepush on gmnet
        assert cold.stats.verify_simulated == 2  # the two ideal runs
        warm_cache = SweepCache(tmp_path / "c")
        warm = Session(cache_dir=warm_cache).sweep(spec)
        assert warm.stats.verify_hits == 1
        assert warm.stats.total_simulated == 0


class TestSweepEngine:
    def test_fingerprint_dedupe_within_a_run(self):
        # the untransformed baseline is the same program at every K
        res = Session().sweep(tiny_spec(tile_sizes=(1, 2, 4)))
        assert res.stats.deduplicated == 2
        originals = res.select(variant="original")
        assert len({r.fingerprint for r in originals}) == 1
        assert len({id(r.measurement) for r in originals}) == 3  # per-point

    def test_select_and_get(self):
        res = Session().sweep(tiny_spec(networks=("gmnet", "hostnet")))
        assert len(res.select(variant="prepush")) == 2
        m = res.measurement(variant="prepush", network="mpich-gm")
        assert m.time > 0
        with pytest.raises(ReproError, match="2 sweep runs"):
            res.get(variant="prepush")
        with pytest.raises(ReproError, match="0 sweep runs"):
            res.get(variant="prepush", network="nope")

    def test_transform_attached_to_both_variants(self):
        res = Session().sweep(tiny_spec())
        for run in res.runs:
            assert run.transform is not None
            assert run.transform.sites[0].tile_size == 4

    def test_uncacheable_externals_still_run(self, tmp_path):
        spec = SweepSpec(
            name="ext",
            app="indirect-external",
            app_kwargs={"n": 4, "stages": 1},
            nranks=(2,),
            networks=("gmnet",),
            verify=True,
        )
        cache = SweepCache(tmp_path / "c")
        res = Session(cache_dir=cache).sweep(spec)
        assert res.stats.uncacheable == len(res.runs)
        assert all(r.fingerprint is None for r in res.runs)
        assert all(not r.cached for r in res.runs)
        # nothing was stored, so the second run simulates again
        again = Session(cache_dir=SweepCache(tmp_path / "c")).sweep(spec)
        assert again.stats.simulated == res.stats.simulated
        for a, b in zip(res.runs, again.runs):
            assert a.measurement == b.measurement

    def test_measurement_roundtrip(self):
        res = Session().sweep(tiny_spec())
        m = res.runs[0].measurement
        assert Measurement.from_dict(m.to_dict()) == m
        with pytest.raises(ValueError, match="fields"):
            Measurement.from_dict({"time": 1.0})

    def test_bad_variant_rejected(self):
        with pytest.raises(ReproError, match="unknown variants"):
            tiny_spec(variants=("original", "transmogrified"))

    def test_spec_json_roundtrip(self):
        spec = tiny_spec(collectives=({"alltoall": "bruck"},))
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        a = Session().sweep(spec)
        b = Session().sweep(clone)
        for ra, rb in zip(a.runs, b.runs):
            assert ra.axes == rb.axes
            assert ra.measurement == rb.measurement

    def test_spec_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ReproError, match="unknown keys"):
            SweepSpec.from_dict({"name": "x", "app": "fft", "colour": "red"})
        with pytest.raises(ReproError, match="'name' and 'app'"):
            SweepSpec.from_dict({"app": "fft"})

    def test_expand_spec_counts(self):
        spec = tiny_spec(
            networks=("gmnet", "hostnet"),
            tile_sizes=(2, 4),
            cpu_scales=(1.0, 4.0),
        )
        points, verifications = expand_spec(spec)
        # 1 nranks x 2 tiles x 1 interchange x 2 scales x 2 variants x
        # 2 networks x 1 collective
        assert len(points) == 16
        assert verifications == []  # verify=False

    def test_collective_label(self):
        assert collective_label(None) == "default"
        assert collective_label({"alltoall": "pairwise"}) == "default"
        assert collective_label({"alltoall": "bruck"}) == "alltoall=bruck"
        assert (
            collective_label("alltoall=bruck,allreduce=ring")
            == "alltoall=bruck,allreduce=ring"
        )


class TestEngineModeKeys:
    """Replay-engine cache-key rules (DESIGN.md §10): engine mode is NOT
    part of the key (all modes are bit-identical, so they must share
    entries), while the symmetry-analyzer version IS (a semantics bump
    must invalidate replay-produced results)."""

    def base_job(self, **overrides):
        kwargs = dict(program=PROGRAM, nranks=2, network="gmnet")
        kwargs.update(overrides)
        return ClusterJob(**kwargs)

    def test_engine_mode_does_not_move_the_key(self):
        keys = {
            job_fingerprint(self.base_job(engine_mode=mode))
            for mode in ("auto", "replay", "full")
        }
        assert len(keys) == 1

    def test_symmetry_version_moves_the_key(self, monkeypatch):
        import repro.interp.symmetry as symmetry

        base = job_fingerprint(self.base_job())
        monkeypatch.setattr(symmetry, "SYMMETRY_VERSION", "999-test")
        assert job_fingerprint(self.base_job()) != base

    def test_modes_share_sweep_cache_entries(self, tmp_path):
        from repro.api import Session

        symmetric = tiny_spec(variants=("original",))
        with Session(cache_dir=tmp_path / "c", engine_mode="full") as s:
            cold = s.sweep(symmetric)
        assert cold.stats.simulated > 0
        with Session(cache_dir=tmp_path / "c", engine_mode="replay") as s:
            warm = s.sweep(symmetric)
        assert warm.stats.total_simulated == 0
        assert [r.measurement for r in warm.runs] == [
            r.measurement for r in cold.runs
        ]

    def test_warm_1024_rank_sweep_does_zero_simulations(self, tmp_path):
        """The scaling endgame: once measured (or migrated), a
        1024-rank sweep re-runs entirely from the cache — the spec is
        expanded and fingerprinted, but nothing simulates."""
        import dataclasses as _dc

        from repro.api import Session
        from repro.harness.sweep import SweepCache

        spec = SweepSpec(
            name="warm-1024",
            app="nodeloop",
            app_kwargs={"n": 1024, "steps": 1, "stages": 0},
            nranks=(1024,),
            variants=("original",),
            collectives=({"alltoall": "bruck"},),
            verify=False,
        )
        points, verifications = expand_spec(spec)
        assert verifications == []
        cache = SweepCache(tmp_path / "c")
        for point in points:
            fp = job_fingerprint(point.job)
            synthetic = Measurement(
                label=point.job.label,
                network=point.job.network.name,
                time=1.25,
                compute_time=1.0,
                wait_time=0.125,
                mpi_overhead=0.125,
                messages=10240,
                bytes_sent=8 << 20,
                unexpected=0,
                warnings=[],
                collective="alltoall=bruck",
            )
            cache.put(
                fp,
                {
                    "kind": "measurement",
                    "inputs": dict(point.axes),
                    "measurement": _dc.asdict(synthetic),
                },
            )
        with Session(cache_dir=tmp_path / "c") as s:
            warm = s.sweep(spec)
        assert warm.stats.total_simulated == 0
        assert warm.stats.mode == "none"
        assert len(warm.runs) == len(points)
        assert all(r.cached for r in warm.runs)
        assert warm.runs[0].measurement.time == 1.25
