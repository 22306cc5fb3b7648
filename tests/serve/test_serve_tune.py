"""The serve ``tune`` verb end-to-end (DESIGN.md §11/§12).

A real :class:`ThreadedServer` runs the search server-side: every
candidate evaluation flows through the same two-layer dedup as sweep
points, per-evaluation ``step`` events stream to the client, and a
warm re-run of the same seeded search answers entirely from cache.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.errors import OverloadError, RequestError
from repro.serve import ServeClient, ThreadedServer
from repro.serve.protocol import PROTOCOL_VERSION, encode_message
from repro.tune import Axis, SearchSpace


def _raw_tune_event(port: int, body: dict) -> dict:
    """Ship one raw tune request, return the first server event."""
    payload = encode_message(
        {"type": "tune", "id": "x", "protocol": PROTOCOL_VERSION, **body}
    )
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        return json.loads(sock.makefile("rb").readline())

NRANKS = 4


def tiny_space(**over) -> SearchSpace:
    kwargs = dict(
        app="fft",
        app_kwargs={"n": 8, "steps": 1, "stages": 2},
        axes=(
            Axis("variant", ("original", "prepush")),
            Axis("tile_size", ("auto", 4)),
            Axis("nranks", (NRANKS,), kind="integer"),
        ),
    )
    kwargs.update(over)
    return SearchSpace(**kwargs)


@pytest.fixture
def served(tmp_path):
    with ThreadedServer(cache_dir=tmp_path / "cache") as ts:
        yield ts


class TestTuneVerb:
    def test_cold_run_streams_steps_then_result(self, served):
        events = []
        with ServeClient(port=served.port) as client:
            result = client.tune(
                tiny_space(),
                strategy="grid",
                budget=8,
                seed=7,
                on_event=events.append,
            )
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        assert events[0]["space_fingerprint"] == tiny_space().fingerprint()
        steps = [e for e in events if e["event"] == "step"]
        assert len(steps) == result["evaluations"]
        assert [s["step"] for s in steps] == list(range(len(steps)))
        assert result["simulations"] > 0
        assert result["strategy"] == "grid"
        assert result["seed"] == 7
        # the full trajectory rides along with the result payload
        traj = result["trajectory"]
        assert traj["header"]["kind"] == "tune-trajectory"
        assert len(traj["steps"]) == result["evaluations"]

    def test_warm_rerun_is_simulation_free_and_search_identical(self, served):
        space = tiny_space()
        with ServeClient(port=served.port) as client:
            cold = client.tune(space, strategy="hill-climb", budget=6, seed=3)
            warm = client.tune(space, strategy="hill-climb", budget=6, seed=3)
        assert cold["simulations"] > 0
        assert warm["simulations"] == 0
        assert warm["cache_hits"] == warm["evaluations"]
        assert warm["search_fingerprint"] == cold["search_fingerprint"]
        assert warm["best_candidate"] == cold["best_candidate"]
        assert warm["best_objective"] == cold["best_objective"]

    def test_accepts_raw_space_dict(self, served):
        with ServeClient(port=served.port) as client:
            result = client.tune(
                tiny_space().to_dict(), strategy="grid", budget=2
            )
        assert result["evaluations"] == 2

    def test_stats_count_tunes(self, served):
        with ServeClient(port=served.port) as client:
            client.tune(tiny_space(), strategy="grid", budget=2)
            status = client.status()
        assert status["stats"]["tunes"] == 1


class TestTuneValidation:
    def test_malformed_space_is_a_request_error(self, served):
        with ServeClient(port=served.port) as client:
            with pytest.raises(RequestError, match="search space"):
                client.tune({"app": "fft"})  # missing 'axes'

    def test_space_must_be_an_object(self, served):
        # the client refuses locally; the server enforces it for raw
        # protocol speakers too (exercised in
        # test_unknown_body_key_is_a_request_error's idiom below)
        with ServeClient(port=served.port) as client:
            with pytest.raises(TypeError, match="SearchSpace"):
                client.tune("fft")
        ev = _raw_tune_event(
            served.port, {"space": "fft", "budget": 2}
        )
        assert ev["event"] == "error" and ev["error"] == "RequestError"
        assert "space" in ev["message"]

    def test_unknown_strategy_is_a_request_error(self, served):
        with ServeClient(port=served.port) as client:
            with pytest.raises(RequestError, match="hill-climb"):
                client.tune(tiny_space(), strategy="simulated-annealing")

    def test_bad_budget_is_a_request_error(self, served):
        with ServeClient(port=served.port) as client:
            with pytest.raises(RequestError, match="budget"):
                client.tune(tiny_space(), budget=0)
            with pytest.raises(RequestError, match="budget"):
                client.tune(tiny_space(), budget=True)

    def test_bad_objective_is_a_request_error(self, served):
        with ServeClient(port=served.port) as client:
            with pytest.raises(RequestError, match="objective"):
                client.tune(tiny_space(), objective="throughput")

    def test_bad_seed_is_a_request_error(self, served):
        with ServeClient(port=served.port) as client:
            with pytest.raises(RequestError, match="seed"):
                client.tune(tiny_space(), seed="lucky")

    def test_unknown_body_key_is_a_request_error(self, served):
        ev = _raw_tune_event(
            served.port,
            {"space": tiny_space().to_dict(), "iterations": 5},
        )
        assert ev["event"] == "error" and ev["error"] == "RequestError"
        assert "iterations" in ev["message"]


class TestTuneAdmission:
    def test_budget_beyond_pending_points_is_overload(self, tmp_path):
        with ThreadedServer(
            cache_dir=tmp_path / "cache", max_pending_points=4
        ) as ts:
            with ServeClient(port=ts.port) as client:
                with pytest.raises(OverloadError, match="admission"):
                    client.tune(tiny_space(), budget=100)
                # rejection is accounted and the server stays usable
                status = client.status()
                assert status["stats"]["rejected"] >= 1
                result = client.tune(tiny_space(), strategy="grid", budget=2)
                assert result["evaluations"] == 2
