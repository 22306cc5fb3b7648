"""The network scenario registry: round trips, errors, and golden parity."""

import pytest

from repro.errors import SimulationError
from repro.api import Job, Session
from repro.runtime.network import (
    _REGISTRY,
    GM_2RAIL,
    GM_RENDEZVOUS,
    IDEAL,
    MPICH_GM,
    MPICH_P4,
    NetworkModel,
    get_model,
    list_models,
    register_model,
    resolve_model,
)

from tests.programs import direct_1d


@pytest.fixture
def clean_registry():
    """Snapshot/restore the registry around tests that mutate it."""
    snapshot = dict(_REGISTRY)
    yield
    _REGISTRY.clear()
    _REGISTRY.update(snapshot)


class TestRegistryRoundTrip:
    def test_register_get_list(self, clean_registry):
        model = MPICH_GM.with_(name="test-net", latency=1e-3)
        returned = register_model(model)
        assert returned is model
        assert get_model("test-net") is model
        assert "test-net" in list_models()

    def test_register_with_aliases(self, clean_registry):
        model = MPICH_GM.with_(name="test-net")
        register_model(model, "test-alias", "test-alias-2")
        assert get_model("test-alias") is model
        assert get_model("test-alias-2") is model
        assert {"test-net", "test-alias", "test-alias-2"} <= set(list_models())

    def test_list_is_sorted(self):
        assert list_models() == sorted(list_models())

    def test_resolve_passthrough_and_name(self):
        assert resolve_model(MPICH_GM) is MPICH_GM
        assert resolve_model("mpich-gm") is MPICH_GM

    def test_builtin_scenarios_present(self):
        names = set(list_models())
        assert {
            "hostnet",
            "gmnet",
            "ideal",
            "gm-rendezvous",
            "gm-2rail",
            "gm-congested",
            "rdma-100g",
            "tcp-10g",
        } <= names


class TestRegistryErrors:
    def test_unknown_name_raises(self):
        with pytest.raises(SimulationError, match="unknown network model"):
            get_model("no-such-network")

    def test_unknown_name_lists_known(self):
        with pytest.raises(SimulationError, match="gmnet"):
            get_model("no-such-network")

    def test_resolve_unknown_raises(self):
        with pytest.raises(SimulationError, match="unknown network model"):
            resolve_model("no-such-network")

    def test_duplicate_registration_raises(self, clean_registry):
        with pytest.raises(SimulationError, match="already registered"):
            register_model(MPICH_GM.with_(name="mpich-gm", latency=1.0))

    def test_duplicate_overwrite_allowed(self, clean_registry):
        replacement = MPICH_GM.with_(latency=1.0)
        register_model(replacement, overwrite=True)
        assert get_model("mpich-gm") is replacement

    def test_reregistering_same_model_is_idempotent(self, clean_registry):
        register_model(MPICH_GM)
        assert get_model("mpich-gm") is MPICH_GM

    def test_bad_rails_rejected(self):
        with pytest.raises(SimulationError, match="rails"):
            MPICH_GM.with_(rails=0)

    def test_bad_congestion_rejected(self):
        with pytest.raises(SimulationError, match="congestion_factor"):
            MPICH_GM.with_(congestion_factor=0.0)


#: the pre-refactor constants, reconstructed field-for-field: the classic
#: eight parameters with every scenario-extension knob left at its default
LEGACY_HOSTNET = NetworkModel(
    name="mpich",
    latency=55e-6,
    byte_time=20e-9,
    send_overhead=12e-6,
    recv_overhead=6e-6,
    offload=False,
    host_byte_time=18e-9,
    copy_byte_time=6e-9,
)
LEGACY_GMNET = NetworkModel(
    name="mpich-gm",
    latency=8e-6,
    byte_time=4e-9,
    send_overhead=1.5e-6,
    recv_overhead=1.0e-6,
    offload=True,
    host_byte_time=0.0,
    copy_byte_time=5e-9,
)


class TestGoldenParity:
    """Registry presets reproduce the pre-refactor constants exactly."""

    def test_aliases_are_the_classic_models(self):
        assert get_model("hostnet") is MPICH_P4
        assert get_model("gmnet") is MPICH_GM
        assert MPICH_P4 == LEGACY_HOSTNET
        assert MPICH_GM == LEGACY_GMNET

    @pytest.mark.parametrize(
        "preset, legacy",
        [("hostnet", LEGACY_HOSTNET), ("gmnet", LEGACY_GMNET)],
    )
    def test_simresult_byte_identical(self, preset, legacy):
        """A real program times identically under the named preset and a
        model carrying only the classic fields (defaults for the rest)."""
        src = direct_1d()
        a = Session().run(Job(program=src, nranks=8, network=preset))
        b = Session().run(Job(program=src, nranks=8, network=legacy))
        assert a.result.time == b.result.time
        assert a.result.rank_times == b.result.rank_times
        assert a.result.stats == b.result.stats
        assert a.result.warnings == b.result.warnings

    def test_extension_defaults_do_not_change_the_math(self):
        # the formulas the engine calls, compared term by term
        for nbytes in (8, 512, 1 << 20):
            assert MPICH_GM.wire_time(nbytes) == nbytes * MPICH_GM.byte_time
            assert MPICH_GM.msg_latency(nbytes) == MPICH_GM.latency
            assert MPICH_GM.unexpected_copy_cost(nbytes) == (
                nbytes * MPICH_GM.copy_byte_time
            )
            assert not MPICH_GM.is_rendezvous(nbytes)


class TestScenarioSemantics:
    def test_rendezvous_switches_on_size(self):
        threshold = GM_RENDEZVOUS.eager_threshold
        assert not GM_RENDEZVOUS.is_rendezvous(threshold)
        assert GM_RENDEZVOUS.is_rendezvous(threshold + 1)
        assert GM_RENDEZVOUS.msg_latency(threshold + 1) == pytest.approx(
            GM_RENDEZVOUS.latency + GM_RENDEZVOUS.rendezvous_latency
        )
        # rendezvous messages never pay the bounce-buffer copy
        assert GM_RENDEZVOUS.unexpected_copy_cost(threshold + 1) == 0.0
        assert GM_RENDEZVOUS.unexpected_copy_cost(threshold) > 0.0

    def test_rails_divide_wire_time(self):
        assert GM_2RAIL.wire_time(4096) == pytest.approx(
            MPICH_GM.wire_time(4096) / 2
        )

    def test_ideal_stays_free(self):
        assert IDEAL.wire_time(1 << 20) == 0.0
        assert IDEAL.msg_latency(1 << 20) == 0.0

    def test_run_cluster_accepts_scenario_names(self):
        src = direct_1d()
        named = Session().run(Job(program=src, nranks=8, network="gm-2rail"))
        direct = Session().run(Job(program=src, nranks=8, network=GM_2RAIL))
        assert named.result.time == direct.result.time
