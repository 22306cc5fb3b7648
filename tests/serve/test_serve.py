"""End-to-end tests of the sweep service (DESIGN.md §11).

Each test hosts a real :class:`~repro.serve.server.SweepServer` on a
background event loop (:class:`~repro.serve.server.ThreadedServer`) and
talks to it over real sockets — the protocol, coalescing, backpressure,
and drain semantics are exercised exactly as ``compuniformer serve``
ships them.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.api import Session
from repro.errors import OverloadError, RequestError, ServeError
from repro.harness.sweep import (
    SweepCache,
    SweepSpec,
    read_measurement,
    read_verdict,
)
from repro.interp.runner import execute_job
from repro.serve import AsyncServeClient, ServeClient, ThreadedServer
from repro.serve.protocol import PROTOCOL_VERSION, encode_message


def tiny_spec(name: str = "serve-tiny", *, verify: bool = False, **over):
    axes = dict(
        app="fft",
        app_kwargs={"n": 8, "steps": 1, "stages": 2},
        nranks=(4,),
        tile_sizes=(4,),
        networks=("gmnet",),
        verify=verify,
    )
    axes.update(over)
    return SweepSpec(name=name, **axes)


@pytest.fixture
def served(tmp_path):
    """A live server sharing ``tmp_path/cache`` with the test."""
    cache_dir = tmp_path / "cache"
    with ThreadedServer(cache_dir=cache_dir) as ts:
        yield ts, cache_dir


def _raw_exchange(port: int, payload: bytes) -> dict:
    """Ship raw bytes, read one event line (protocol-level tests)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(payload)
        return json.loads(sock.makefile("rb").readline())


class TestProtocol:
    def test_malformed_json_keeps_connection_usable(self, served):
        ts, _ = served
        with socket.create_connection(
            ("127.0.0.1", ts.port), timeout=30
        ) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"definitely not json\n")
            ev = json.loads(reader.readline())
            assert ev["event"] == "error"
            assert ev["error"] == "RequestError"
            # the same connection still serves valid requests
            sock.sendall(
                encode_message(
                    {"type": "status", "id": "s1", "protocol": PROTOCOL_VERSION}
                )
            )
            ev = json.loads(reader.readline())
            assert ev["event"] == "result" and ev["id"] == "s1"
            assert ev["result"]["protocol"] == PROTOCOL_VERSION

    def test_unknown_request_type(self, served):
        ts, _ = served
        ev = _raw_exchange(
            ts.port,
            encode_message(
                {"type": "frobnicate", "id": "x", "protocol": PROTOCOL_VERSION}
            ),
        )
        assert ev["event"] == "error" and ev["error"] == "RequestError"
        assert "frobnicate" in ev["message"]

    def test_protocol_version_mismatch(self, served):
        ts, _ = served
        ev = _raw_exchange(
            ts.port,
            encode_message({"type": "status", "id": "x", "protocol": 99}),
        )
        assert ev["event"] == "error" and ev["error"] == "RequestError"

    def test_a_version_1_client_is_refused(self, served):
        """Version 1 results carried ``peer_served``, which a version 1
        client reads: it gets a clean refusal instead of a KeyError."""
        ts, _ = served
        ev = _raw_exchange(
            ts.port,
            encode_message({"type": "status", "id": "x", "protocol": 1}),
        )
        assert ev["event"] == "error" and ev["error"] == "RequestError"
        assert "protocol version 1 not supported" in ev["message"]

    def test_invalid_spec_is_a_request_error(self, served):
        ts, _ = served
        with ServeClient(port=ts.port) as client:
            with pytest.raises(RequestError, match="name"):
                client.sweep({"app": "fft"})  # missing 'name'

    def test_unknown_app_is_a_request_error(self, served):
        ts, _ = served
        with ServeClient(port=ts.port) as client:
            with pytest.raises(ServeError):
                client.sweep(
                    tiny_spec().to_dict() | {"app": "no-such-workload"}
                )


class TestSweep:
    def test_cold_then_warm(self, served):
        ts, _ = served
        spec = tiny_spec()
        with ServeClient(port=ts.port) as client:
            cold = client.sweep(spec)
            warm = client.sweep(spec)
        assert cold["stats"]["simulated"] == 2
        assert cold["stats"]["points"] == 2
        assert warm["stats"]["simulated"] == 0
        assert warm["stats"]["cache_hits"] == 2
        # warm results are bit-identical (floats round-trip json)
        assert [r["measurement"] for r in warm["runs"]] == [
            r["measurement"] for r in cold["runs"]
        ]
        assert all(not r["cached"] for r in cold["runs"])
        assert all(r["cached"] for r in warm["runs"])

    def test_matches_direct_session_sweep(self, served, tmp_path):
        """The service is a transport, not a different engine: its runs
        equal a direct Session.sweep of the same spec bit-for-bit."""
        ts, cache_dir = served
        spec = tiny_spec(verify=True)
        with ServeClient(port=ts.port) as client:
            client.sweep(spec)  # cold: fills the shared cache
            warm = client.sweep(spec)
        with Session(cache_dir=cache_dir) as session:
            direct = session.sweep(spec)
        assert direct.stats.simulated == 0  # shared cache: all warm
        direct_json = json.loads(json.dumps(direct.to_json()))
        assert direct_json["runs"] == warm["runs"]

    def test_point_events_stream_in_order(self, served):
        ts, _ = served
        events = []
        with ServeClient(port=ts.port) as client:
            client.sweep(tiny_spec(), on_event=events.append)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "accepted"
        points = [e for e in events if e["event"] == "point"]
        assert len(points) == 2
        assert [p["seq"] for p in points] == [1, 2]
        assert all(p["total"] == 2 for p in points)
        assert {p["source"] for p in points} == {"simulated"}

    def test_multi_spec_request(self, served):
        ts, _ = served
        specs = [tiny_spec("a"), tiny_spec("b", networks=("hostnet",))]
        with ServeClient(port=ts.port) as client:
            result = client.sweep(specs)
        assert [s["name"] for s in result["specs"]] == ["a", "b"]
        assert result["stats"]["points"] == 4
        assert {r["axes"]["spec"] for r in result["runs"]} == {"a", "b"}


class TestDedup:
    def test_concurrent_identical_submissions_simulate_once(self, served):
        """The acceptance criterion: N clients submitting the same sweep
        concurrently trigger exactly one simulation per unique point."""
        ts, _ = served
        spec = tiny_spec()
        results = [None] * 4

        def worker(i):
            with ServeClient(port=ts.port) as client:
                results[i] = client.sweep(spec)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        with ServeClient(port=ts.port) as client:
            stats = client.status()["stats"]
        assert stats["points_requested"] == 8
        assert stats["simulations"] == 2  # one per unique fingerprint
        assert stats["dedup_ratio"] == pytest.approx(0.25)
        assert stats["coalesced"] + stats["cache_hits"] == 6
        # every client saw the same measurements
        tables = [
            [r["measurement"] for r in res["runs"]] for res in results
        ]
        assert all(t == tables[0] for t in tables)

    def test_coalescing_subscribes_to_inflight_simulation(
        self, served, monkeypatch
    ):
        """With simulations forcibly slowed, a second identical request
        arrives mid-flight and must subscribe, not re-simulate."""
        ts, _ = served
        import repro.serve.server as server_mod

        def slow_execute(job):
            time.sleep(0.4)
            return execute_job(job)

        monkeypatch.setattr(server_mod, "execute_job", slow_execute)
        spec = tiny_spec()
        first = {}

        def leader():
            with ServeClient(port=ts.port) as client:
                first["result"] = client.sweep(spec)

        t = threading.Thread(target=leader)
        t.start()
        time.sleep(0.1)  # leader is now simulating both points
        with ServeClient(port=ts.port) as client:
            second = client.sweep(spec)
        t.join()

        with ServeClient(port=ts.port) as client:
            stats = client.status()["stats"]
        assert stats["simulations"] == 2
        assert stats["coalesced"] >= 1
        assert [r["measurement"] for r in second["runs"]] == [
            r["measurement"] for r in first["result"]["runs"]
        ]

    def test_two_servers_share_one_directory(self, tmp_path, monkeypatch):
        """Two servers on one cache directory do not coordinate: both
        may simulate a point, but determinism (§3.2) and the atomic put
        leave one readable entry per key with the direct results, and
        later submissions to either server simulate nothing."""
        import repro.serve.server as server_mod

        def slow_execute(job):
            time.sleep(0.3)
            return execute_job(job)

        monkeypatch.setattr(server_mod, "execute_job", slow_execute)
        cache_dir = tmp_path / "cache"
        spec = tiny_spec(verify=True)
        with ThreadedServer(cache_dir=cache_dir) as a, ThreadedServer(
            cache_dir=cache_dir
        ) as b:
            results = {}
            barrier = threading.Barrier(2)

            def submit(ts):
                with ServeClient(port=ts.port) as client:
                    barrier.wait()
                    results[ts.port] = client.sweep(spec)

            threads = [
                threading.Thread(target=submit, args=(ts,)) for ts in (a, b)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for ts in (a, b):
                with ServeClient(port=ts.port) as client:
                    again = client.sweep(spec)["stats"]
                assert again["simulated"] == again["verify_simulated"] == 0

        direct = [r.measurement.to_dict() for r in Session().sweep(spec).runs]
        for result in results.values():
            assert [r["measurement"] for r in result["runs"]] == direct
        cache = SweepCache(cache_dir)
        kinds = []
        for _, payload in cache.entries():
            kinds.append(payload["kind"])
            if payload["kind"] == "measurement":
                assert read_measurement(cache, payload["key"]) is not None
            else:
                assert read_verdict(cache, payload["key"]).equivalent
        assert sorted(kinds) == ["measurement", "measurement", "verify"]

    def test_a_served_sweep_leaves_only_entries(self, served):
        """A cold, verified sweep leaves its entries under the cache
        root and no lock or in-flight marker beside them."""
        ts, cache_dir = served
        with ServeClient(port=ts.port) as client:
            stats = client.sweep(tiny_spec(verify=True))["stats"]
        assert stats["simulated"] == 2 and stats["verify_simulated"] == 2
        files = [p for p in cache_dir.rglob("*") if p.is_file()]
        assert len(files) == 3
        assert all(p.suffix == ".json" for p in files)


class TestBackpressureAndLifecycle:
    def test_overload_rejects_before_simulating(self, served):
        ts, _ = served
        ts.server.max_pending_points = 1
        try:
            with ServeClient(port=ts.port) as client:
                with pytest.raises(OverloadError, match="budget"):
                    client.sweep(tiny_spec())  # 2 points > budget of 1
                status = client.status()
            assert status["stats"]["simulations"] == 0
            assert status["stats"]["rejected"] == 1
        finally:
            ts.server.max_pending_points = 4096

    def test_verify_verb(self, served, fig2_source):
        ts, _ = served
        with ServeClient(port=ts.port) as client:
            out = client.verify(fig2_source, nranks=8)
        assert out["equivalent"] is True
        assert out["compared_arrays"]
        assert "do" in out["transformed"]

    def test_compare_verb(self, served):
        ts, _ = served
        with ServeClient(port=ts.port) as client:
            out = client.compare("fft", app_kwargs={"n": 8}, nranks=4)
        assert out["app"] == "fft"
        assert out["equivalent"] is True
        assert out["original"]["time"] > 0
        assert out["transformed"]["time"] > 0

    def test_status_verb(self, served):
        ts, _ = served
        with ServeClient(port=ts.port) as client:
            status = client.status()
        assert status["protocol"] == PROTOCOL_VERSION
        assert status["port"] == ts.port
        assert status["draining"] is False
        assert status["pending_points"] == 0
        assert "dedup_ratio" in status["stats"]
        assert status["cache"] is not None

    def test_shutdown_drains_and_stops(self, tmp_path):
        ts = ThreadedServer(cache_dir=tmp_path / "cache").start()
        port = ts.port
        with ServeClient(port=port) as client:
            client.sweep(tiny_spec())
            assert client.shutdown(drain=True) == {"stopping": True}
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), 1).close()
                time.sleep(0.05)
            except OSError:
                break
        else:
            pytest.fail("server still accepting after shutdown")
        ts.stop()  # idempotent

    def test_draining_server_rejects_new_requests(self, served, monkeypatch):
        ts, _ = served
        import repro.serve.server as server_mod

        release = threading.Event()

        def gated_execute(job):
            release.wait(timeout=30)
            return execute_job(job)

        monkeypatch.setattr(server_mod, "execute_job", gated_execute)
        done = {}

        def submitter():
            with ServeClient(port=ts.port) as client:
                done["result"] = client.sweep(tiny_spec())

        t = threading.Thread(target=submitter)
        t.start()
        time.sleep(0.15)
        with ServeClient(port=ts.port) as client:
            client.shutdown(drain=True)
        time.sleep(0.1)
        # new connections are refused or new requests rejected mid-drain
        try:
            with ServeClient(port=ts.port) as client:
                with pytest.raises(ServeError):
                    client.sweep(tiny_spec("other"))
        except (ServeError, OSError):
            pass  # listener already closed: equally correct
        release.set()
        t.join(timeout=30)
        # the in-flight request completed despite the drain
        assert done["result"]["stats"]["points"] == 2


class TestTransformKnobsOnTheWire:
    """``compare``/``verify`` keep accepting ``tile_size`` and
    ``interchange`` keys; the server folds them into one
    TransformOptions inside the request's worker."""

    def test_compare_tile_size_matches_session(self, served):
        from repro.api import CompareRequest
        from repro.apps import build_app
        from repro.transform import TransformOptions

        ts, _ = served
        with ServeClient(port=ts.port) as client:
            out = client.compare(
                "fft", app_kwargs={"n": 8}, nranks=4, tile_size=4
            )
        app = build_app("fft", nranks=4, n=8)
        want = Session().compare(
            CompareRequest(app=app, options=TransformOptions(tile_size=4))
        )
        assert want.transform.sites[0].tile_size == 4
        assert out["original"] == want.original.to_dict()
        assert out["transformed"] == want.prepush.to_dict()
        assert out["speedup"] == want.speedup

    def test_verify_interchange_never_reaches_the_transform(self, served):
        from repro.apps import build_app
        from repro.transform import TransformOptions

        ts, _ = served
        app = build_app("nodeloop", n=24, steps=1, stages=2, nranks=4)
        with ServeClient(port=ts.port) as client:
            never = client.verify(
                app.source, nranks=app.nranks, interchange="never"
            )
            auto = client.verify(app.source, nranks=app.nranks)
        assert never["equivalent"] is True
        want = Session().transform(
            app.source, options=TransformOptions(interchange="never")
        )
        assert not want.sites[0].interchanged
        assert never["transformed"] == want.unparse()
        assert auto["transformed"] != never["transformed"]

    def test_bad_tile_size_is_an_error_event(self, served):
        ts, _ = served
        with ServeClient(port=ts.port) as client:
            with pytest.raises(RequestError, match="tile_size 0"):
                client.compare(
                    "fft", app_kwargs={"n": 8}, nranks=4, tile_size=0
                )
            # the same connection still serves valid requests
            out = client.compare("fft", app_kwargs={"n": 8}, nranks=4)
            assert out["equivalent"] is True
            assert client.status()["protocol"] == PROTOCOL_VERSION


class TestSessionParity:
    def test_cache_stats_match_session(self, tmp_path):
        """The server plans through the same stage as Session.sweep, so
        a cold then warm verified sweep counts the same cache hits,
        misses, stores and verdicts either way."""
        spec = tiny_spec(verify=True)
        with Session(cache_dir=tmp_path / "direct") as session:
            session.sweep(spec)
            session.sweep(spec)
        with ThreadedServer(cache_dir=tmp_path / "served") as ts:
            with ServeClient(port=ts.port) as client:
                client.sweep(spec)
                client.sweep(spec)
                served = client.status()["cache"]
        assert session.cache.stats.misses == 2
        assert session.cache.stats.verify_misses == 1
        assert served == vars(session.cache.stats)


class TestAsyncClient:
    def test_sweep_status_close(self, served):
        ts, _ = served
        events = []

        async def drive():
            client = await AsyncServeClient.connect(port=ts.port)
            try:
                result = await client.sweep(
                    tiny_spec(), on_event=events.append
                )
                status = await client.status()
            finally:
                await client.close()
            return result, status

        result, status = asyncio.run(drive())
        assert events[0]["event"] == "accepted"
        points = [e for e in events if e["event"] == "point"]
        assert [p["seq"] for p in points] == [1, 2]
        assert result["stats"]["simulated"] == 2
        assert len(result["runs"]) == 2
        assert status["stats"]["sweeps"] == 1
        assert status["stats"]["simulations"] == 2
