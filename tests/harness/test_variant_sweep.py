"""The variant axis of the sweep engine and its cache-key rules.

DESIGN.md §9: transformed points carry their pipeline's identity plus
the canonical TransformOptions in the job fingerprint, so (a) a warm
cache serves a named variant with zero simulations, and (b) changing
the pipeline or any option can never serve a stale entry.
"""

import pytest

from repro.api import Session
from repro.errors import ReproError
from repro.harness.figures import ablation_variants
from repro.harness.sweep import SweepCache, SweepSpec, expand_spec
from repro.interp.runner import job_fingerprint
from repro.transform.pipeline import (
    CommGenPass,
    Pipeline,
    TilePass,
)


def spec(**overrides):
    base = dict(
        name="vtest",
        app="fft",
        app_kwargs={"n": 8, "steps": 1, "stages": 2},
        nranks=(4,),
        tile_sizes=(4,),
        networks=("gmnet",),
        verify=False,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestVariantAxis:
    def test_named_variants_expand_with_own_transforms(self):
        points, _ = expand_spec(
            spec(variants=("original", "prepush", "no-interchange"))
        )
        by_variant = {p.axes["variant"]: p for p in points}
        assert set(by_variant) == {
            "original",
            "prepush",
            "no-interchange",
        }
        # fft is interchange-free, so both treatments produce the same
        # text — but their provenance keeps their cache keys apart
        pp, ni = by_variant["prepush"], by_variant["no-interchange"]
        assert pp.job().program_text() == ni.job().program_text()
        assert pp.variant_id != ni.variant_id
        assert job_fingerprint(pp.job()) != job_fingerprint(ni.job())
        # the baseline stays provenance-free: its fingerprint is the
        # same as a plain untransformed job's (old caches keep hitting)
        assert by_variant["original"].variant_id is None

    def test_options_move_the_fingerprint(self):
        a, _ = expand_spec(spec(variants=("prepush",), tile_sizes=(2,)))
        b, _ = expand_spec(spec(variants=("prepush",), tile_sizes=(4,)))
        assert job_fingerprint(a[0].job()) != job_fingerprint(b[0].job())

    def test_pipeline_instances_are_valid_axis_values(self):
        custom = Pipeline((TilePass(), CommGenPass()), name="my-tiles")
        points, _ = expand_spec(spec(variants=("original", custom)))
        labels = {p.axes["variant"] for p in points}
        assert labels == {"original", "my-tiles"}

    def test_unknown_variant_name_rejected(self):
        with pytest.raises(ReproError, match="unknown variants"):
            spec(variants=("original", "transmogrified"))

    def test_duplicate_variant_labels_rejected(self):
        with pytest.raises(ReproError, match="duplicate variant"):
            spec(variants=("prepush", Pipeline((), name="prepush")))

    def test_non_transforming_variant_measured_as_original(self):
        # tile-only leaves the indirect kernel untouched: the point
        # must measure the unchanged program instead of raising
        points, verifications = expand_spec(
            spec(
                app="indirect",
                app_kwargs={"n": 8, "stages": 2},
                variants=("original", "tile-only"),
                verify=True,
            )
        )
        tile_only = next(
            p for p in points if p.axes["variant"] == "tile-only"
        )
        original = next(
            p for p in points if p.axes["variant"] == "original"
        )
        from repro.lang import parse, unparse

        # same program modulo unparser normalization (the baseline point
        # ships the app's raw source text, the variant point its AST)
        assert tile_only.job().program_text() == unparse(
            parse(original.job().program_text())
        )
        # nothing changed, so there is nothing to §4-verify
        assert verifications == []

    def test_failed_transform_raises_even_for_partial_variants(self):
        # an unchanged program is OK only when the variant left it
        # alone on purpose; a REJECTED site (illegal K) must raise, not
        # silently measure the original as the treatment arm
        with pytest.raises(ReproError, match="exceeds"):
            expand_spec(
                spec(
                    variants=("original", "no-interchange"),
                    tile_sizes=(1000,),
                )
            )

    def test_to_dict_refuses_unregistered_pipeline(self):
        custom = Pipeline((TilePass(), CommGenPass()), name="ephemeral")
        s = spec(variants=("original", custom))
        with pytest.raises(ReproError, match="unregistered pipeline"):
            s.to_dict()

    def test_each_transforming_variant_gets_its_own_verification(self):
        _, verifications = expand_spec(
            spec(
                variants=("original", "prepush", "no-interchange"),
                verify=True,
            )
        )
        assert len(verifications) == 2


class TestWarmVariantCache:
    def test_named_variant_warm_cache_zero_sims(self, tmp_path):
        """Acceptance criterion: a warm sweep cache from a named
        variant performs zero simulations on re-run."""
        from repro.api import Session

        s = spec(
            variants=("original", "no-interchange", "prepush-schemeB-off"),
            verify=True,
        )
        with Session(cache_dir=tmp_path / "c") as session:
            cold = session.sweep(s)
        assert cold.stats.total_simulated > 0
        with Session(cache_dir=tmp_path / "c") as session:
            warm = session.sweep(s)
        assert warm.stats.total_simulated == 0
        assert warm.stats.cache_hits > 0
        for a, b in zip(cold.runs, warm.runs):
            assert a.axes == b.axes
            assert a.measurement == b.measurement  # bit-identical

    def test_reregistered_pipeline_invalidates_entries(self, tmp_path):
        """Overwriting a variant with a differently-shaped pipeline
        changes the cache keys: the old entries cannot be served."""
        from repro.transform.pipeline import (
            _VARIANTS,
            register_variant,
        )

        name = "vtest-volatile"
        register_variant(
            name, Pipeline((TilePass(), CommGenPass()))
        )
        try:
            cache = SweepCache(tmp_path / "c")
            cold = Session(cache_dir=cache).sweep(spec(variants=(name,)))
            assert cold.stats.simulated > 0
            register_variant(
                name,
                Pipeline(
                    (TilePass(), CommGenPass(skip_scheme_b=True))
                ),
                overwrite=True,
            )
            redo = Session(cache_dir=cache).sweep(spec(variants=(name,)))
            # same axes, different pipeline identity -> re-simulated
            assert redo.stats.simulated > 0
            assert redo.stats.cache_hits == 0
        finally:
            _VARIANTS.pop(name, None)


class TestAblationVariants:
    def test_table_covers_variant_network_workload(self):
        table = ablation_variants(
            sizes={"fft": 24, "nodeloop": 24, "indirect": 8},
            nranks=4,
            networks=("gmnet",),
            verify=True,
        )
        rows = {(r[0], r[1], r[2]) for r in table.rows}
        # 3 workloads x >=5 variants x 1 network
        assert len(rows) >= 15
        by_key = {(r[0], r[1]): r for r in table.rows}
        # the congestion story: prepush interchanges nodeloop to scheme
        # A, tile-only leaves it congested in scheme B
        assert by_key[("nodeloop", "prepush")][4] == "A"
        assert by_key[("nodeloop", "tile-only")][4] == "B"
        # tile-only cannot touch the indirect kernel: identical to
        # original, speedup exactly 1
        assert by_key[("indirect", "tile-only")][6] == pytest.approx(1.0)
        for row in table.rows:
            assert row[5] > 0  # every cell measured

    def test_auto_roster_drops_incompatible_custom_variant(self):
        """A runtime-registered full-rewrite variant that cannot
        transform one roster workload is dropped with a note instead
        of aborting the whole table (README: variants registered at
        runtime join automatically)."""
        from repro.transform.pipeline import (
            _VARIANTS,
            register_variant,
        )

        name = "vtest-direct-strict"
        # direct-only passes but NOT marked partial: fails on the
        # indirect roster workload
        register_variant(name, Pipeline((TilePass(), CommGenPass())))
        try:
            table = ablation_variants(
                sizes={"fft": 24, "nodeloop": 24, "indirect": 8},
                nranks=4,
                networks=("gmnet",),
                verify=False,
            )
        finally:
            _VARIANTS.pop(name, None)
        assert any(name in n for n in table.notes)
        assert not any(r[1] == name for r in table.rows)
        # the compatible built-ins are all still present
        assert {r[1] for r in table.rows} >= {
            "original",
            "prepush",
            "tile-only",
        }

    def test_rejects_unregistered_variant(self):
        with pytest.raises(ReproError, match="unknown variants"):
            ablation_variants(
                variants=("original", "nope"),
                sizes={"fft": 8, "nodeloop": 8, "indirect": 8},
                nranks=4,
                networks=("gmnet",),
                verify=False,
            )
