"""CLI coverage for the service verbs: ``submit`` and ``cache``.

``compuniformer serve`` itself is signal-driven and runs forever, so
these tests host the server in-process (:class:`ThreadedServer` — the
same :class:`SweepServer` the verb starts) and drive the *client* verbs
through ``main()`` exactly as a shell would.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.harness.sweep import SweepCache, SweepSpec
from repro.serve import ThreadedServer


@pytest.fixture
def served(tmp_path):
    with ThreadedServer(cache_dir=tmp_path / "cache") as ts:
        yield ts


def _submit_args(ts, *extra):
    return [
        "submit",
        "--port",
        str(ts.port),
        "--app",
        "fft",
        "--n",
        "8",
        "--steps",
        "1",
        "--stages",
        "2",
        "--nranks",
        "4",
        "-K",
        "4",
        "--no-verify",
        *extra,
    ]


class TestSubmit:
    def test_submit_cold_then_warm(self, served, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(_submit_args(served, "-o", str(out))) == 0
        cold = capsys.readouterr()
        assert "cli-fft" in cold.out
        assert "2 simulated" in cold.err
        artifact = json.loads(out.read_text())
        assert artifact["stats"]["simulated"] == 2
        assert len(artifact["runs"]) == 2

        assert main(_submit_args(served, "-q")) == 0
        warm = capsys.readouterr()
        assert "0 simulated, 2 cache hits" in warm.err
        assert "[1/2]" not in warm.err  # -q silences progress
        # the table rows (times, counters) reproduce bit-identically
        assert [
            row for row in warm.out.splitlines() if "| yes" in row
        ] and warm.out.replace("| yes", "| no ") == cold.out.replace(
            "| yes", "| no "
        )

    def test_submit_streams_progress(self, served, capsys):
        assert main(_submit_args(served)) == 0
        err = capsys.readouterr().err
        assert "[1/2]" in err and "[2/2]" in err
        assert "simulated" in err

    def test_submit_spec_file(self, served, tmp_path, capsys):
        spec = SweepSpec(
            name="filed",
            app="fft",
            app_kwargs={"n": 8, "steps": 1, "stages": 2},
            nranks=(4,),
            tile_sizes=(4,),
            networks=("gmnet",),
            verify=False,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        rc = main(
            ["submit", "--port", str(served.port), "--spec", str(path), "-q"]
        )
        assert rc == 0
        assert "filed" in capsys.readouterr().out

    def test_submit_status(self, served, capsys):
        rc = main(["submit", "--port", str(served.port), "--status"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["port"] == served.port
        assert status["draining"] is False

    def test_submit_requires_a_sweep_source(self, served, capsys):
        rc = main(["submit", "--port", str(served.port)])
        assert rc == 1
        assert "--spec FILE or --app NAME" in capsys.readouterr().err

    def test_submit_no_server(self, capsys):
        rc = main(["submit", "--port", "1", "--status"])
        assert rc == 1
        assert "cannot connect" in capsys.readouterr().err

    def test_submit_shutdown(self, tmp_path, capsys):
        ts = ThreadedServer(cache_dir=tmp_path / "cache").start()
        rc = main(["submit", "--port", str(ts.port), "--shutdown"])
        assert rc == 0
        assert "draining" in capsys.readouterr().err
        ts.stop()
        assert main(["submit", "--port", str(ts.port), "--status"]) == 1


class TestCacheVerb:
    def test_info_empty(self, tmp_path, capsys):
        rc = main(
            ["cache", "info", "--cache-dir", str(tmp_path / "fresh")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries:          0" in out
        assert "current version:" in out

    def test_info_and_prune_after_sweep(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "sweep",
                    "--app",
                    "fft",
                    "--n",
                    "8",
                    "--nranks",
                    "4",
                    "--no-verify",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:          2" in out
        assert "kind measurement" in out
        assert "stale entries:    0" in out

        # age one entry onto a dead engine version, then prune
        cache = SweepCache(cache_dir)
        path, payload = next(iter(cache.entries()))
        payload["engine"] = "0.0-dead"
        path.write_text(json.dumps(payload))
        # and a lock marker as older versions left beside each entry
        marker = path.with_suffix(".lock")
        marker.touch()

        rc = main(
            ["cache", "prune", "--cache-dir", str(cache_dir), "--dry-run"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "would remove 1 stale entries" in out
        assert "would remove 1 lock/in-flight markers" in out
        assert path.exists() and marker.exists()

        assert main(["cache", "prune", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "removed 1 stale entries" in out
        assert "removed 1 lock/in-flight markers" in out
        assert not path.exists() and not marker.exists()
        assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "entries:          1" in capsys.readouterr().out
