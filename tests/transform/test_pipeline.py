"""The composable pass pipeline and the variant registry (DESIGN.md §9).

The load-bearing suite is the golden parity block: the registered
``"prepush"`` pipeline must reproduce, **bit for bit**, what the
paper's original monolithic transformer produced on every configuration the
figures use (figure1's indirect kernel plus the Ablation A–G
workload/tile/interchange grid).  That transformer is gone; its outputs are
frozen in ``prepush_parity.json`` next to this file — per case the
sha-256 of the unparsed program text and the rewritten sites, and for
one simulated anchor the virtual time, the per-rank outputs and a
digest of every final array.  Text equality is the strongest possible
form of the claim — the simulator is deterministic in the program text
(DESIGN.md §3.2), so identical text implies identical virtual times and
payloads; the simulated anchor re-proves that implication end to end.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.apps import build_app
from repro.lang import parse, unparse
from repro.errors import TransformError
from repro.interp.runner import ClusterJob, execute_job
from repro.runtime.network import MPICH_GM
from repro.transform.options import TransformOptions
from repro.transform.pipeline import (
    CommGenPass,
    IndirectElimPass,
    InterchangePass,
    Pipeline,
    TilePass,
    _VARIANTS,
    get_variant,
    list_variants,
    register_variant,
    resolve_variant,
    variant_identity,
    variant_label,
)

# every (app, geometry) the figure/ablation suite transforms: figure1's
# indirect kernel plus the Ablation A-G rosters at their real sizes
FIGURE_CONFIGS = [
    ("figure1", "indirect", {"n": 32, "stages": 6, "nranks": 8}),
    ("ablation-A", "fft", {"n": 128, "steps": 1, "stages": 6, "nranks": 8}),
    ("ablation-B-np2", "fft", {"n": 128, "steps": 1, "stages": 6, "nranks": 2}),
    ("ablation-B-np16", "fft", {"n": 128, "steps": 1, "stages": 6, "nranks": 16}),
    ("ablation-D-figure2", "figure2", {"n": 4096, "steps": 1, "stages": 6, "nranks": 8}),
    ("ablation-D-sort", "sort", {"keys_per_dest": 1024, "steps": 1, "stages": 6, "nranks": 8}),
    ("ablation-D-stencil", "stencil", {"n": 96, "steps": 2, "nranks": 8}),
    ("ablation-D-lu", "lu", {"n": 96, "steps": 2, "nranks": 8}),
    ("ablation-E", "nodeloop", {"n": 96, "steps": 1, "stages": 6, "nranks": 8}),
]


@pytest.fixture
def scratch_registry():
    """Let a test register variants without leaking into the session."""
    added = []

    def register(name, pipeline, **kwargs):
        added.append(name)
        return register_variant(name, pipeline, **kwargs)

    yield register
    for name in added:
        _VARIANTS.pop(name, None)


#: the frozen outputs of the original monolithic transformer (see the module
#: docstring); keys name the cases below
PARITY = json.loads(
    Path(__file__).with_name("prepush_parity.json").read_text()
)


def site_tuples(report):
    """Every recorded field of every rewritten site, JSON-shaped."""
    return [
        [
            s.kind.value, s.send_array, s.recv_array, s.scheme,
            s.tile_size, s.trip, s.ntiles, s.leftover, s.interchanged,
            list(s.dead_arrays), list(s.notes),
        ]
        for s in report.sites
    ]


def fingerprint(report):
    """The frozen form of one transformation: text digest + sites."""
    text = report.unparse().encode("utf-8")
    return {
        "sha256": hashlib.sha256(text).hexdigest(),
        "sites": site_tuples(report),
    }


def array_digest(run):
    """sha-256 over every rank's final arrays (name, dtype, shape and
    bytes), in rank then name order."""
    h = hashlib.sha256()
    for rank, arrays in enumerate(run.arrays):
        for name in sorted(arrays):
            a = np.ascontiguousarray(arrays[name])
            h.update(f"{rank}:{name}:{a.dtype.str}:{a.shape}\0".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def simulated(report, nranks):
    """The frozen form of the simulated anchor."""
    run = execute_job(
        ClusterJob(program=report.unparse(), nranks=nranks, network=MPICH_GM)
    )
    return {
        "time": run.time,
        "outputs": [[list(rec) for rec in rank] for rank in run.outputs],
        "arrays": array_digest(run),
    }


TWO_SITE = """
program twosite
  integer, parameter :: n = 16, np = 4
  integer :: as(1:n, 1:n), ar(1:n, 1:n)
  integer :: bs(1:n, 1:n), br(1:n, 1:n)
  integer :: ix, iy, ierr

  do iy = 1, n
    do ix = 1, n
      as(ix, iy) = ix * 1000 + iy + mynode()
    enddo
  enddo
  call mpi_alltoall(as, n * n / np, 0, ar, n * n / np, 0, 0, ierr)
  do iy = 1, n
    do ix = 1, n
      bs(ix, iy) = ix * 2000 + iy + mynode()
    enddo
  enddo
  call mpi_alltoall(bs, n * n / np, 0, br, n * n / np, 0, 0, ierr)
end program twosite
"""

TWO_KINDS = """
program twokinds
  integer, parameter :: n = 16, m = 4, np = 4
  integer :: as(1:m), ar(1:m)
  integer :: bs(1:n, 1:n), br(1:n, 1:n)
  integer :: i, ix, iy, ierr

  do i = 1, m
    as(i) = i + mynode()
  enddo
  call mpi_alltoall(as, m / np, 0, ar, m / np, 0, 0, ierr)
  do iy = 1, n
    do ix = 1, n
      bs(ix, iy) = ix * 1000 + iy + mynode()
    enddo
  enddo
  call mpi_alltoall(bs, n * n / np, 0, br, n * n / np, 0, 0, ierr)
end program twokinds
"""

#: the app of the simulated anchor
ANCHOR = ("indirect", {"n": 8, "stages": 2, "nranks": 4})


class TestGoldenParity:
    """The pipeline's non-negotiable invariant: prepush reproduces the
    frozen outputs of the original transformer."""

    @pytest.mark.parametrize(
        "label,app_name,kwargs",
        FIGURE_CONFIGS,
        ids=[c[0] for c in FIGURE_CONFIGS],
    )
    def test_prepush_pipeline_matches_legacy_text(
        self, label, app_name, kwargs
    ):
        app = build_app(app_name, **kwargs)
        piped = get_variant("prepush").run(app.source, oracle=app.oracle)
        assert fingerprint(piped) == PARITY["figure"][label]

    @pytest.mark.parametrize("tile", [1, 4, 8, 16, 32, 64, 128])
    def test_ablation_a_tile_grid_matches_legacy(self, tile):
        app = build_app("fft", n=128, steps=1, stages=6, nranks=8)
        piped = get_variant("prepush").run(
            app.source, TransformOptions(tile_size=tile)
        )
        assert fingerprint(piped) == PARITY["tile_grid"][str(tile)]

    def test_no_interchange_matches_legacy_never(self):
        app = build_app("nodeloop", n=96, steps=1, stages=6, nranks=8)
        piped = get_variant("no-interchange").run(app.source)
        assert fingerprint(piped) == PARITY["no_interchange"]
        # options.interchange='never' on the full pipeline is the same
        # knob through the other door
        knob = get_variant("prepush").run(
            app.source, TransformOptions(interchange="never")
        )
        assert fingerprint(knob) == PARITY["no_interchange"]

    @pytest.mark.parametrize("max_sites", [1, 2, None])
    def test_max_sites_matches_legacy_on_two_site_program(self, max_sites):
        """max_sites must cap EVERY pass: a site the planner will never
        rewrite must not have its loop nest interchanged either."""
        piped = get_variant("prepush").run(
            TWO_SITE, TransformOptions(max_sites=max_sites)
        )
        assert fingerprint(piped) == PARITY["max_sites"][str(max_sites)]

    def test_max_sites_budget_skips_rejected_sites_like_legacy(self):
        """A site the planner rejects (K exceeds its trip) must not
        consume the interchange budget: the cap counts accepted sites,
        exactly as the original transformer's loop did."""
        piped = get_variant("prepush").run(
            TWO_KINDS,
            TransformOptions(tile_size=8, max_sites=1),
        )
        assert fingerprint(piped) == PARITY["max_sites_budget"]
        # the first site was rejected, the second interchanged+rewritten
        assert len(piped.sites) == 1
        assert piped.sites[0].send_array == "bs"
        assert piped.sites[0].interchanged

    def test_custom_alltoall_names_reach_every_pass(self):
        """applicable() must screen with the run's alltoall_names, not
        the defaults — otherwise a renamed collective silently no-ops
        where the original transformer rewrote it."""
        src = TWO_SITE.replace("mpi_alltoall", "my_exch")
        piped = get_variant("prepush").run(
            src, alltoall_names=("my_exch",)
        )
        assert piped.transformed
        assert fingerprint(piped) == PARITY["custom_alltoall_names"]

    def test_simulated_times_and_payloads_identical(self):
        """The end-to-end anchor: identical text -> identical virtual
        times, per-rank outputs, and final array payloads."""
        app_name, kwargs = ANCHOR
        app = build_app(app_name, **kwargs)
        piped = get_variant("prepush").run(app.source)
        frozen = PARITY["simulated_anchor"]
        assert fingerprint(piped) == frozen["transform"]
        got = simulated(piped, app.nranks)
        assert got["time"] == frozen["time"]  # bit-identical, no approx
        assert got["outputs"] == frozen["outputs"]
        assert got["arrays"] == frozen["arrays"]

class TestBuiltinVariants:
    def test_at_least_five_variants_registered(self):
        names = list_variants()
        assert len(names) >= 5
        for required in (
            "original",
            "prepush",
            "tile-only",
            "no-interchange",
            "prepush-schemeB-off",
        ):
            assert required in names

    def test_original_is_identity(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = get_variant("original").run(app.source)
        assert not rep.transformed
        assert rep.unparse() == unparse(parse(app.source))
        assert rep.passes == [] and rep.snapshots == []

    def test_tile_only_skips_indirect_sites(self):
        app = build_app("indirect", n=8, stages=2, nranks=4)
        rep = get_variant("tile-only").run(app.source, oracle=app.oracle)
        assert not rep.transformed  # the only site is indirect
        assert rep.unparse() == unparse(parse(app.source))
        # but the tile pass still planned (and reported) the site
        tile = next(p for p in rep.passes if p.name == "tile")
        assert any("slab" in n for n in tile.notes)

    def test_tile_only_transforms_direct_sites_without_interchange(self):
        app = build_app("nodeloop", n=24, steps=1, stages=2, nranks=4)
        rep = get_variant("tile-only").run(app.source)
        assert rep.transformed
        assert rep.sites[0].scheme == "B"  # stayed congested: no §3.5
        assert not rep.sites[0].interchanged

    def test_scheme_b_off_leaves_scheme_b_sites_alone(self):
        app = build_app("figure2", n=256, steps=1, stages=2, nranks=4)
        rep = get_variant("prepush-schemeB-off").run(app.source)
        # figure2 is the pure scheme-B workload (no legal interchange):
        # nothing must be rewritten, and the skip is reported
        assert not rep.transformed
        assert rep.unparse() == unparse(parse(app.source))
        commgen = next(p for p in rep.passes if p.name == "commgen")
        assert any("skip_scheme_b" in n for n in commgen.notes)

    def test_scheme_b_off_still_transforms_scheme_a(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = get_variant("prepush-schemeB-off").run(app.source)
        assert rep.transformed and rep.sites[0].scheme == "A"


class TestPipelineMechanics:
    def test_snapshots_one_per_applicable_pass(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = get_variant("prepush").run(app.source)
        # fft has one direct site; once commgen consumed it, the
        # indirect-elim pass sees no candidate call and is skipped
        assert [s.pass_name for s in rep.snapshots] == [
            "interchange",
            "tile",
            "commgen",
        ]
        assert [p.name for p in rep.passes] == [
            "interchange",
            "tile",
            "commgen",
            "indirect-elim",
        ]
        assert rep.passes[-1].skipped
        # the commgen snapshot is where the rewrite lands
        by_name = {s.pass_name: s for s in rep.snapshots}
        assert by_name["tile"].text == unparse(parse(app.source))
        assert by_name["commgen"].changed
        assert by_name["commgen"].text == rep.unparse()

    def test_snapshots_can_be_disabled(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = get_variant("prepush").run(app.source, snapshots=False)
        assert rep.snapshots == [] and rep.transformed

    def test_passes_skipped_on_inapplicable_program(self):
        rep = get_variant("prepush").run(
            "program p\n  integer :: x\n\n  x = 1\nend program p\n"
        )
        assert not rep.transformed
        assert all(p.skipped for p in rep.passes)

    def test_changed_covers_siteless_rewrites(self):
        """An interchange-only pipeline rewrites no *site* but does
        change the program; `.changed` must say so (it gates §4
        verification and the unchanged-program policies)."""
        app = build_app("nodeloop", n=24, steps=1, stages=2, nranks=4)
        rep = Pipeline(
            (InterchangePass(),), name="swap-only", partial=True
        ).run(app.source)
        assert not rep.transformed  # no SiteReport produced
        assert rep.changed  # but the nest was interchanged
        assert rep.unparse() != unparse(parse(app.source))
        # and a PreparedApp on it runs the §4 check instead of skipping
        from repro.harness.runner import PreparedApp

        prepared = PreparedApp(
            app,
            variant=Pipeline(
                (InterchangePass(),), name="swap-only", partial=True
            ),
            verify=True,
        )
        assert prepared.equivalent

    def test_describe_passes_mentions_every_pass(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = get_variant("prepush").run(app.source)
        text = rep.describe_passes()
        for name in ("interchange", "tile", "commgen", "indirect-elim"):
            assert name in text

    def test_interchange_after_planning_is_an_error(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        bad = Pipeline((TilePass(), InterchangePass()), name="backwards")
        with pytest.raises(TransformError, match="before any pass"):
            bad.run(app.source)

    def test_invalid_tile_size_becomes_rejection(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = get_variant("prepush").run(
            app.source, TransformOptions(tile_size=1000)
        )
        assert not rep.transformed
        assert any("exceeds" in r.reason for r in rep.rejections)

    def test_max_sites_zero_sites_planned(self):
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = get_variant("prepush").run(
            app.source, TransformOptions(max_sites=1)
        )
        assert len(rep.sites) == 1


class TestOptions:
    def test_validation_mirrors_legacy(self):
        with pytest.raises(TransformError, match="positive int"):
            TransformOptions(tile_size="huge")
        with pytest.raises(TransformError, match=">= 1"):
            TransformOptions(tile_size=0)
        with pytest.raises(TransformError, match="interchange"):
            TransformOptions(interchange="sometimes")
        with pytest.raises(TransformError, match="max_sites"):
            TransformOptions(max_sites=0)

    def test_canonical_params_round_trips_json(self):
        import json

        opts = TransformOptions(tile_size=4, interchange="never")
        params = json.loads(json.dumps(opts.canonical_params()))
        assert params == {
            "tile_size": 4,
            "interchange": "never",
            "max_sites": None,
        }


class TestRegistry:
    def test_unknown_variant_raises_with_roster(self):
        with pytest.raises(TransformError, match="unknown variant"):
            get_variant("transmogrified")
        with pytest.raises(TransformError, match="prepush"):
            get_variant("transmogrified")  # message lists the registry

    def test_duplicate_registration_requires_overwrite(
        self, scratch_registry
    ):
        scratch_registry("pipeline-test-dup", Pipeline(()))
        with pytest.raises(TransformError, match="already registered"):
            register_variant("pipeline-test-dup", Pipeline(()))
        scratch_registry(
            "pipeline-test-dup",
            Pipeline((TilePass(),)),
            overwrite=True,
        )
        assert len(get_variant("pipeline-test-dup").passes) == 1

    def test_invalid_names_and_pipelines_rejected(self):
        with pytest.raises(TransformError, match="non-empty string"):
            register_variant("", Pipeline(()))
        with pytest.raises(TransformError, match="must be a Pipeline"):
            register_variant("pipeline-test-bad", [TilePass()])
        with pytest.raises(TransformError, match="not a transform pass"):
            Pipeline((object(),))
        with pytest.raises(TransformError, match="registered name"):
            resolve_variant(42)

    def test_registration_names_anonymous_pipeline(self, scratch_registry):
        pipe = Pipeline((TilePass(), CommGenPass()))
        scratch_registry("pipeline-test-named", pipe)
        assert pipe.name == "pipeline-test-named"
        assert variant_label(pipe) == "pipeline-test-named"

    def test_custom_registered_variant_runs(self, scratch_registry):
        scratch_registry(
            "pipeline-test-direct",
            Pipeline((TilePass(), CommGenPass(), IndirectElimPass())),
        )
        app = build_app("fft", n=8, steps=1, stages=2, nranks=4)
        rep = resolve_variant("pipeline-test-direct").run(app.source)
        assert rep.transformed


class TestIdentity:
    """variant_identity is what the sweep-cache fingerprint hashes."""

    def test_identity_distinguishes_pipelines_and_options(self):
        opts = TransformOptions()
        a = variant_identity("prepush", opts)
        b = variant_identity("no-interchange", opts)
        assert a != b
        assert a == variant_identity("prepush", TransformOptions())
        assert a != variant_identity(
            "prepush", TransformOptions(tile_size=4)
        )

    def test_identity_sees_pass_configuration(self):
        plain = Pipeline((CommGenPass(),), name="x").identity()
        configured = Pipeline(
            (CommGenPass(skip_scheme_b=True),), name="x"
        ).identity()
        assert plain != configured

    def test_identity_is_json_safe(self):
        import json

        blob = json.dumps(
            variant_identity("prepush-schemeB-off", TransformOptions())
        )
        assert "skip_scheme_b" in blob
