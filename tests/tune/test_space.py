"""SearchSpace: axes, constraints, canonicalization, serialization.

The space's dict form is both the serve wire payload (a ``tune``
request ships ``to_dict()``) and the trajectory-header format, so the
round-trip property test here is a protocol invariant — mirroring
``tests/harness/test_spec_roundtrip.py`` for :class:`SweepSpec`.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import APP_BUILDERS
from repro.errors import TuneError
from repro.harness.sweep import SweepSpec
from repro.runtime.collectives import default_algorithm, list_algorithms
from repro.runtime.network import list_models
from repro.transform.pipeline import list_variants
from repro.tune import Axis, SearchSpace, default_space
from repro.tune.space import AXIS_NAMES, list_constraints


def tiny_space(**over) -> SearchSpace:
    kwargs = dict(
        app="fft",
        app_kwargs={"n": 16, "steps": 1, "stages": 2},
        axes=(
            Axis("variant", ("original", "prepush")),
            Axis("tile_size", ("auto", 4)),
            Axis("nranks", (4,), kind="integer"),
        ),
    )
    kwargs.update(over)
    return SearchSpace(**kwargs)


class TestAxis:
    def test_unknown_name_rejected(self):
        with pytest.raises(TuneError, match="unknown axis"):
            Axis("fanout", (1, 2))

    def test_empty_values_rejected(self):
        with pytest.raises(TuneError, match="at least one value"):
            Axis("variant", ())

    def test_bad_kind_rejected(self):
        with pytest.raises(TuneError, match="kind"):
            Axis("nranks", (4, 8), kind="ordinal")

    def test_integer_kind_rejects_non_ints(self):
        with pytest.raises(TuneError, match="non-int"):
            Axis("nranks", (4, "eight"), kind="integer")
        # bool is not an acceptable int
        with pytest.raises(TuneError, match="non-int"):
            Axis("nranks", (4, True), kind="integer")

    def test_duplicate_values_rejected(self):
        with pytest.raises(TuneError, match="duplicate"):
            Axis("tile_size", ("auto", 4, 4))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TuneError, match="unknown keys"):
            Axis.from_dict({"name": "variant", "values": ["original"], "x": 1})


class TestValidation:
    def test_duplicate_axes_rejected(self):
        with pytest.raises(TuneError, match="duplicate axes"):
            SearchSpace(
                app="fft",
                axes=(
                    Axis("variant", ("original",)),
                    Axis("variant", ("prepush",)),
                ),
            )

    def test_unknown_constraint_rejected(self):
        with pytest.raises(TuneError, match="unknown constraints"):
            tiny_space(constraints=("no-such-rule",))

    def test_unresolvable_variant_fails_at_construction(self):
        with pytest.raises(Exception):
            tiny_space(
                axes=(Axis("variant", ("original", "no-such-variant")),)
            )

    def test_unresolvable_network_fails_at_construction(self):
        with pytest.raises(Exception):
            tiny_space(axes=(Axis("network", ("carrier-pigeon",)),))

    def test_nranks_axis_must_be_integer_kind(self):
        with pytest.raises(TuneError, match="integer-kind"):
            tiny_space(axes=(Axis("nranks", (4, 8)),))

    def test_builtin_constraints_listed(self):
        names = list_constraints()
        assert "tile-size-requires-tiling" in names
        assert "interchange-requires-interchange-pass" in names


class TestNormalize:
    def test_unknown_candidate_key_rejected(self):
        with pytest.raises(TuneError, match="unknown axes"):
            tiny_space().normalize({"variant": "original", "fanout": 2})

    def test_off_axis_value_rejected(self):
        with pytest.raises(TuneError, match="not on axis"):
            tiny_space().normalize({"variant": "no-interchange"})

    def test_missing_axis_takes_first_value(self):
        cand = tiny_space().normalize({})
        assert cand == {"variant": "original", "tile_size": "auto", "nranks": 4}

    def test_tile_size_collapses_without_tile_pass(self):
        # the 'original' pipeline has no passes at all, so a concrete
        # tile size is inexpressible and must canonicalize to "auto"
        cand = tiny_space().normalize({"variant": "original", "tile_size": 4})
        assert cand["tile_size"] == "auto"
        # 'prepush' tiles, so the knob survives
        cand = tiny_space().normalize({"variant": "prepush", "tile_size": 4})
        assert cand["tile_size"] == 4

    def test_interchange_collapses_without_interchange_pass(self):
        space = tiny_space(
            axes=(
                Axis("variant", ("no-interchange", "prepush")),
                Axis("interchange", ("auto", "never")),
            )
        )
        cand = space.normalize(
            {"variant": "no-interchange", "interchange": "never"}
        )
        assert cand["interchange"] == "auto"
        cand = space.normalize({"variant": "prepush", "interchange": "never"})
        assert cand["interchange"] == "never"

    def test_normalize_is_idempotent(self):
        space = tiny_space()
        for cand in space.grid():
            assert space.normalize(cand) == cand


class TestEnumeration:
    def test_grid_dedupes_collapsed_candidates(self):
        # variant=original collapses both tile sizes into one candidate:
        # 2*2 raw combinations -> 3 canonical candidates
        space = tiny_space()
        grid = space.grid()
        assert len(grid) == 3
        assert space.size() == 3
        keys = {space.candidate_key(c) for c in grid}
        assert len(keys) == len(grid)

    def test_grid_matches_sweep_cross_product(self):
        """The grid is exactly the cross-product a SweepSpec over the
        same values expands to, deduplicated by job identity."""
        from repro.harness.sweep import expand_spec
        from repro.interp.runner import job_fingerprint

        space = tiny_space()
        spec = SweepSpec(
            name="xprod",
            app=space.app,
            app_kwargs=dict(space.app_kwargs),
            variants=("original", "prepush"),
            tile_sizes=("auto", 4),
            nranks=(4,),
        )
        points, _ = expand_spec(spec)
        fingerprints = {job_fingerprint(p.job) for p in points}
        # the sweep expansion dedupes by the same fingerprint the tune
        # cache memoizes on, so distinct canonical candidates == distinct
        # sweep points
        assert len(fingerprints) == len(space.grid())

    def test_sample_is_seed_deterministic(self):
        space = tiny_space()
        a = [space.sample(random.Random(7)) for _ in range(5)]
        b = [space.sample(random.Random(7)) for _ in range(5)]
        assert a == b

    def test_neighbors_excludes_self_and_dedupes(self):
        space = tiny_space()
        base = {"variant": "original", "tile_size": "auto", "nranks": 4}
        neigh = space.axis_moves(base, "variant") + space.axis_moves(
            base, "tile_size"
        )
        base_key = space.candidate_key(space.normalize(base))
        keys = [space.candidate_key(c) for c in neigh]
        assert base_key not in keys
        assert len(set(keys)) == len(keys)
        # original+tile=4 collapses back onto the base and is excluded;
        # the single remaining one-axis move is variant -> prepush
        assert space.axis_moves(base, "tile_size") == []
        assert neigh == [
            {"variant": "prepush", "tile_size": "auto", "nranks": 4}
        ]

    def test_axis_moves_restrict_to_one_axis(self):
        space = tiny_space()
        base = {"variant": "prepush", "tile_size": "auto", "nranks": 4}
        moves = space.axis_moves(base, "tile_size")
        assert moves == [space.normalize(dict(base, tile_size=4))]
        assert space.axis_moves(base, "network") == []  # undeclared axis


class TestSerialization:
    def test_round_trip(self):
        space = tiny_space()
        wire = json.loads(json.dumps(space.to_dict()))
        rebuilt = SearchSpace.from_dict(wire)
        assert rebuilt.to_dict() == space.to_dict()
        assert rebuilt.fingerprint() == space.fingerprint()

    def test_from_dict_rejects_unknown_keys(self):
        data = tiny_space().to_dict()
        data["budget"] = 40
        with pytest.raises(TuneError, match="unknown keys"):
            SearchSpace.from_dict(data)

    def test_from_dict_requires_app_and_axes(self):
        with pytest.raises(TuneError, match="'app' and 'axes'"):
            SearchSpace.from_dict({"app": "fft"})

    def test_fingerprint_tracks_content(self):
        a = tiny_space()
        b = tiny_space(cpu_scale=2.0)
        assert a.fingerprint() != b.fingerprint()

    def test_spaces_are_hashable_set_members(self):
        a = default_space("fft", app_kwargs={"n": 8})
        same = SearchSpace.from_dict(json.loads(json.dumps(a.to_dict())))
        other = default_space("fft", app_kwargs={"n": 16})
        assert hash(a) == hash(same)
        assert {a, same, other} == {a, other}
        assert len({a, same, other, default_space("fft")}) == 3
        assert {a: "seen"}[same] == "seen"

    def test_app_kwargs_are_read_only_and_keep_the_wire_form(self):
        kwargs = {"n": 8, "steps": 2}
        space = default_space("fft", app_kwargs=kwargs)
        with pytest.raises(TypeError):
            space.app_kwargs["n"] = 16
        kwargs["n"] = 16  # the caller's dict is not aliased
        assert space.app_kwargs == {"n": 8, "steps": 2}
        assert space.to_dict()["app_kwargs"] == {"n": 8, "steps": 2}
        assert type(space.to_dict()["app_kwargs"]) is dict
        assert space == SearchSpace.from_dict(space.to_dict())
        assert space.fingerprint() == SearchSpace.from_dict(
            space.to_dict()
        ).fingerprint()

    def test_default_space_draws_registries(self):
        space = default_space("fft")
        variant_axis = space.axis("variant")
        assert list(variant_axis.values) == list_variants()
        coll_axis = space.axis("collective")
        assert coll_axis.values[0] is None
        default = default_algorithm("alltoall")
        expected = {
            f"alltoall={name}"
            for name in list_algorithms("alltoall")
            if name != default
        }
        assert set(coll_axis.values[1:]) == expected


class TestSpecsFor:
    def test_single_point_spec(self):
        space = tiny_space()
        (spec,) = space.specs_for(
            {"variant": "prepush", "tile_size": 4}, name="t0"
        )
        assert isinstance(spec, SweepSpec)
        assert spec.name == "t0"
        assert spec.variants == ("prepush",)
        assert spec.tile_sizes == (4,)
        assert spec.nranks == (4,)

    def test_baseline_spec_added_for_transformed_candidate(self):
        space = tiny_space()
        specs = space.specs_for(
            {"variant": "prepush"}, name="t0", baseline=True
        )
        assert [s.name for s in specs] == ["t0", "t0-baseline"]
        assert specs[1].variants == ("original",)

    def test_no_baseline_for_original(self):
        space = tiny_space()
        specs = space.specs_for(
            {"variant": "original"}, name="t0", baseline=True
        )
        assert [s.name for s in specs] == ["t0"]


# ------------------------------------------------------ property test

_collective_values = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from(
            sorted(
                f"alltoall={name}" for name in list_algorithms("alltoall")
            )
        ),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda v: json.dumps(v),
)


@st.composite
def spaces(draw) -> SearchSpace:
    """Registry-drawn spaces with a random subset of declared axes."""
    axes = []
    names = draw(
        st.lists(
            st.sampled_from(AXIS_NAMES), min_size=1, max_size=6, unique=True
        )
    )
    for name in names:
        if name == "variant":
            values = tuple(
                draw(
                    st.lists(
                        st.sampled_from(list_variants()),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    )
                )
            )
            axes.append(Axis("variant", values))
        elif name == "tile_size":
            values = tuple(
                draw(
                    st.lists(
                        st.one_of(
                            st.just("auto"),
                            st.integers(min_value=1, max_value=64),
                        ),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    )
                )
            )
            axes.append(Axis("tile_size", values))
        elif name == "interchange":
            values = tuple(
                draw(
                    st.lists(
                        st.sampled_from(["auto", "never"]),
                        min_size=1,
                        max_size=2,
                        unique=True,
                    )
                )
            )
            axes.append(Axis("interchange", values))
        elif name == "collective":
            axes.append(Axis("collective", tuple(draw(_collective_values))))
        elif name == "network":
            values = tuple(
                draw(
                    st.lists(
                        st.sampled_from(list_models()),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    )
                )
            )
            axes.append(Axis("network", values))
        elif name == "nranks":
            values = tuple(
                draw(
                    st.lists(
                        st.sampled_from([2, 4, 8, 16, 1024]),
                        min_size=1,
                        max_size=3,
                        unique=True,
                    )
                )
            )
            axes.append(Axis("nranks", values, kind="integer"))
    return SearchSpace(
        app=draw(st.sampled_from(sorted(APP_BUILDERS))),
        app_kwargs=draw(
            st.dictionaries(
                st.sampled_from(["n", "steps", "stages"]),
                st.integers(min_value=1, max_value=64),
                max_size=3,
            )
        ),
        axes=tuple(axes),
        cpu_scale=draw(
            st.floats(
                min_value=0.001,
                max_value=1000.0,
                allow_nan=False,
                allow_infinity=False,
            )
        ),
        verify=draw(st.booleans()),
        engine_mode=draw(st.sampled_from([None, "auto", "replay", "full"])),
    )


@given(space=spaces())
def test_to_dict_json_from_dict_round_trip(space: SearchSpace) -> None:
    wire = json.loads(json.dumps(space.to_dict()))
    rebuilt = SearchSpace.from_dict(wire)
    assert rebuilt.to_dict() == space.to_dict()
    assert rebuilt.fingerprint() == space.fingerprint()
    # a second trip is the identity (serve echoes spaces in trajectory
    # headers)
    assert SearchSpace.from_dict(rebuilt.to_dict()).to_dict() == wire


@given(space=spaces())
def test_round_trip_preserves_canonicalization(space: SearchSpace) -> None:
    """The rebuilt space normalizes every candidate identically — the
    serve-side search must collapse exactly what the client side would."""
    rebuilt = SearchSpace.from_dict(json.loads(json.dumps(space.to_dict())))
    assert rebuilt.default_candidate() == space.default_candidate()
    grid = space.grid()
    assert rebuilt.grid() == grid
    for cand in grid[:4]:
        assert rebuilt.normalize(cand) == space.normalize(cand)
