"""The compuniformer CLI."""

import functools
import json

import pytest

from repro import cli
from repro.cli import main
from repro.harness.report import Table
from tests.programs import direct_1d


@pytest.fixture
def kernel_file(tmp_path):
    p = tmp_path / "kernel.f90"
    p.write_text(direct_1d(n=16, nprocs=4, steps=1))
    return p


class TestTransform:
    def test_transform_to_stdout(self, kernel_file, capsys):
        rc = main(["transform", str(kernel_file), "-K", "4", "-q"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mpi_isend" in out
        assert "mpi_alltoall" not in out

    def test_transform_to_file(self, kernel_file, tmp_path, capsys):
        out_file = tmp_path / "out.f90"
        rc = main(
            ["transform", str(kernel_file), "-K", "4", "-o", str(out_file)]
        )
        assert rc == 0
        assert "mpi_isend" in out_file.read_text()
        assert "direct pattern" in capsys.readouterr().err

    def test_transform_auto_k(self, kernel_file):
        assert main(["transform", str(kernel_file), "-q"]) == 0

    def test_untransformable_returns_2(self, tmp_path, capsys):
        p = tmp_path / "plain.f90"
        p.write_text("program p\n  integer :: x\n\n  x = 1\nend program p\n")
        assert main(["transform", str(p), "-q"]) == 2

    def test_parse_error_returns_1(self, tmp_path, capsys):
        p = tmp_path / "broken.f90"
        p.write_text("program p\n  do i = \nend program p\n")
        assert main(["transform", str(p), "-q"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRun:
    @pytest.mark.parametrize(
        "command", [["run", "-n", "4"], ["verify", "-n", "4"], ["transform"]]
    )
    def test_missing_source_file_is_an_error(self, command, tmp_path, capsys):
        path = tmp_path / "nonexistent.f90"
        assert main(command + [str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read source file")
        assert str(path) in err
        assert "Traceback" not in err

    def test_run_reports_timing(self, kernel_file, capsys):
        rc = main(["run", str(kernel_file), "-n", "4", "--network", "mpich-gm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan:" in out
        assert "messages:" in out
        assert "collectives:" in out

    def test_run_with_collective(self, kernel_file, capsys):
        rc = main(
            ["run", str(kernel_file), "-n", "4", "--collective", "bruck"]
        )
        assert rc == 0
        assert "alltoall=bruck" in capsys.readouterr().out

    def test_run_rejects_unknown_collective(self, kernel_file, capsys):
        rc = main(
            ["run", str(kernel_file), "-n", "4", "--collective", "quantum"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCollectives:
    def test_list(self, capsys):
        assert main(["collectives"]) == 0
        out = capsys.readouterr().out
        assert "alltoall" in out
        assert "pairwise (default)" in out
        assert "bruck" in out
        assert "allreduce" in out and "bcast" in out


class TestVerify:
    def test_verify_equivalent(self, kernel_file, capsys):
        rc = main(["verify", str(kernel_file), "-n", "4", "-K", "4"])
        assert rc == 0
        assert "EQUIVALENT" in capsys.readouterr().out


class TestApps:
    def test_list(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out and "indirect" in out

    def test_print_source(self, capsys):
        assert main(["apps", "fft"]) == 0
        assert "mpi_alltoall" in capsys.readouterr().out


class TestSweep:
    """The sweep subcommand: cached figure regeneration and custom specs."""

    FIGURE_ARGS = [
        "sweep",
        "figure1",
        "--n",
        "8",
        "--nranks",
        "4",
        "--stages",
        "2",
    ]

    def test_figure_target_warm_cache_is_bit_identical(self, tmp_path, capsys):
        args = self.FIGURE_ARGS + ["--cache-dir", str(tmp_path / "c")]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "Figure 1" in cold.out
        assert "misses" in cold.err

        assert main(args) == 0
        warm = capsys.readouterr()
        # the acceptance criterion: zero simulations, identical tables
        assert warm.out == cold.out
        assert "0 misses" in warm.err
        assert "verify 1 hits" in warm.err

    def test_no_cache_bypasses_a_populated_cache(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "c")]
        assert main(self.FIGURE_ARGS + cache) == 0
        capsys.readouterr()
        assert main(self.FIGURE_ARGS + cache + ["--no-cache"]) == 0
        res = capsys.readouterr()
        assert "cache[" not in res.err  # the cache was never consulted

    def test_custom_sweep_with_artifact(self, tmp_path, capsys):
        out = tmp_path / "art.json"
        args = [
            "sweep",
            "--app",
            "fft",
            "--n",
            "8",
            "--nranks",
            "4",
            "-K",
            "2",
            "-K",
            "4",
            "--cache-dir",
            str(tmp_path / "c"),
            "-o",
            str(out),
        ]
        assert main(args) == 0
        table = capsys.readouterr().out
        assert "cli-fft" in table and "prepush" in table
        artifact = json.loads(out.read_text())
        assert artifact["cache"]["misses"] > 0
        runs = artifact["result"]["runs"]
        assert len(runs) == 4  # 2 tile sizes x 2 variants
        # warm re-run: refused without --force (the artifact exists),
        # then reports zero misses and identical values with it
        assert main(args) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0
        warm = json.loads(out.read_text())
        assert warm["cache"]["misses"] == 0
        assert warm["result"]["stats"]["simulated"] == 0
        for a, b in zip(runs, warm["result"]["runs"]):
            assert a["measurement"] == b["measurement"]

    def test_spec_file(self, tmp_path, capsys):
        spec = {
            "name": "from-file",
            "app": "fft",
            "app_kwargs": {"n": 8, "steps": 1, "stages": 2},
            "nranks": [4],
            "tile_sizes": [4],
            "networks": ["gmnet"],
            "verify": False,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(path), "--no-cache"]) == 0
        assert "from-file" in capsys.readouterr().out

    def test_bad_spec_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"name": "x", "app": "fft", "colour": "red"}')
        assert main(["sweep", "--spec", str(path), "--no-cache"]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_spec_and_app_conflict(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        rc = main(
            ["sweep", "--spec", str(path), "--app", "fft", "--no-cache"]
        )
        assert rc == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_figure_target_rejects_axis_flags(self, capsys):
        """Flags a figure target cannot honor must error, not silently
        run a different sweep than the one asked for."""
        rc = main(["sweep", "network", "-K", "4", "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--tile-size/-K not supported by this figure target" in err

        rc = main(["sweep", "figure1", "-K", "4", "-K", "8", "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "repeated --tile-size/-K" in err and "custom sweeps" in err

        rc = main(
            [
                "sweep",
                "figure1",
                "--network",
                "gmnet",
                "--network",
                "hostnet",
                "--no-cache",
            ]
        )
        assert rc == 1
        assert "repeated --network" in capsys.readouterr().err

    def test_figure1_forwards_tile_size_and_prints_chart(
        self, monkeypatch, capsys
    ):
        seen = []
        figure1 = cli._FIGURES["figure1"]

        @functools.wraps(figure1)
        def recorder(**kwargs):
            seen.append(kwargs["tile_size"])
            return figure1(**kwargs)

        monkeypatch.setitem(cli._FIGURES, "figure1", recorder)
        assert main(self.FIGURE_ARGS + ["-K", "4", "--no-cache"]) == 0
        assert seen == [4]
        table, chart = capsys.readouterr().out.split("\n\n")
        assert "Figure 1" in table
        assert "mpich-gm/prepush  | " in chart and chart.endswith("x\n")

    def test_figure_target_with_spec_or_app_conflict(self, capsys):
        rc = main(["sweep", "figure1", "--app", "fft", "--no-cache"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "figure target 'figure1' and --spec/--app are mutually " \
            "exclusive" in err

    def test_figure_target_rejects_unaccepted_flag(self, capsys):
        # ablation_scenarios sweeps every scenario itself: a single
        # --network cannot be honored and must not be dropped
        rc = main(
            ["sweep", "scenarios", "--network", "gmnet", "--no-cache"]
        )
        assert rc == 1
        assert "--network not supported" in capsys.readouterr().err


class TestVariants:
    def test_list_variants(self, capsys):
        assert main(["variants"]) == 0
        out = capsys.readouterr().out
        assert "original" in out and "(empty: program unchanged)" in out
        assert "prepush" in out
        assert "interchange -> tile -> commgen -> indirect-elim" in out
        assert "tile-only" in out and "prepush-schemeB-off" in out

    def test_run_with_variant_and_report(self, kernel_file, capsys):
        rc = main(
            [
                "run",
                str(kernel_file),
                "-n",
                "4",
                "--variant",
                "prepush",
                "-K",
                "4",
                "--report",
            ]
        )
        assert rc == 0
        res = capsys.readouterr()
        assert "variant:        prepush" in res.out
        assert "makespan:" in res.out
        # the per-pass chain lands on stderr
        assert "pipeline prepush" in res.err
        assert "pass commgen" in res.err

    def test_run_report_requires_variant(self, kernel_file, capsys):
        rc = main(["run", str(kernel_file), "-n", "4", "--report"])
        assert rc == 1
        assert "--variant" in capsys.readouterr().err

    def test_run_variant_changes_traffic(self, kernel_file, capsys):
        assert main(["run", str(kernel_file), "-n", "4"]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                ["run", str(kernel_file), "-n", "4", "--variant", "prepush"]
            )
            == 0
        )
        treated = capsys.readouterr().out

        def messages(out):
            return next(
                line for line in out.splitlines() if "messages:" in line
            )

        assert messages(plain) != messages(treated)

    def test_custom_sweep_with_variant_axis(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--app",
                "fft",
                "--n",
                "8",
                "--nranks",
                "4",
                "--variant",
                "original",
                "--variant",
                "no-interchange",
                "--no-cache",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "no-interchange" in out

    def test_figure_target_accepts_single_variant(self, capsys):
        # nodeloop at tiny geometry: --variant selects the treatment arm
        rc = main(
            [
                "sweep",
                "nodeloop",
                "--n",
                "8",
                "--nranks",
                "4",
                "--stages",
                "1",
                "--no-verify",
                "--no-cache",
                "--variant",
                "tile-only",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tile-only+interchange" in out

    def test_figure_target_rejects_repeated_variant(self, capsys):
        rc = main(
            [
                "sweep",
                "figure1",
                "--variant",
                "prepush",
                "--variant",
                "tile-only",
                "--no-cache",
            ]
        )
        assert rc == 1
        assert "repeated --variant" in capsys.readouterr().err

    def test_run_tile_size_requires_variant(self, kernel_file, capsys):
        rc = main(["run", str(kernel_file), "-n", "4", "-K", "4"])
        assert rc == 1
        assert "--variant" in capsys.readouterr().err

    def test_run_variant_untransformable_errors(self, tmp_path, capsys):
        p = tmp_path / "plain.f90"
        p.write_text("program p\n  integer :: x\n\n  x = 1\nend program p\n")
        rc = main(["run", str(p), "-n", "2", "--variant", "prepush"])
        assert rc == 1
        assert "transformed nothing" in capsys.readouterr().err

    def test_run_partial_variant_unchanged_notes(self, tmp_path, capsys):
        from repro.apps import build_app

        p = tmp_path / "ind.f90"
        p.write_text(build_app("indirect", n=8, nranks=4, stages=1).source)
        rc = main(["run", str(p), "-n", "4", "--variant", "tile-only"])
        assert rc == 0
        res = capsys.readouterr()
        assert "left the program unchanged" in res.err
        assert "makespan:" in res.out

    def test_variants_target_accepts_repeated_variant(self, capsys):
        rc = main(
            [
                "sweep",
                "variants",
                "--nranks",
                "4",
                "--variant",
                "tile-only",
                "--variant",
                "no-interchange",
                "--network",
                "gmnet",
                "--no-verify",
                "--no-cache",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "tile-only" in out and "no-interchange" in out


P2P_KERNEL = """
program ring
  integer :: buf(1:8)
  integer :: i, ierr
  do i = 1, 8
    buf(i) = i + mynode()
  enddo
  call mpi_isend(buf, 8, mod(mynode() + 1, numnodes()), 0, ierr)
  call mpi_waitall(ierr)
end program ring
"""


class TestEngineMode:
    """--engine-mode on run/sweep (DESIGN.md §10)."""

    @pytest.fixture
    def p2p_file(self, tmp_path):
        p = tmp_path / "p2p.f90"
        p.write_text(P2P_KERNEL)
        return p

    def test_run_round_trips_and_modes_agree(self, kernel_file, capsys):
        reports = {}
        for mode in ("auto", "replay", "full"):
            rc = main(
                ["run", str(kernel_file), "-n", "4", "--engine-mode", mode]
            )
            assert rc == 0
            reports[mode] = capsys.readouterr().out
            assert "makespan:" in reports[mode]
        # the engine contract: every mode prints the same numbers
        assert reports["auto"] == reports["replay"] == reports["full"]

    def test_forced_replay_on_asymmetric_program_errors(
        self, p2p_file, capsys
    ):
        rc = main(
            ["run", str(p2p_file), "-n", "4", "--engine-mode", "replay"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not provably rank-symmetric" in err

    def test_auto_falls_back_silently_on_asymmetric_program(
        self, p2p_file, capsys
    ):
        assert main(["run", str(p2p_file), "-n", "4"]) == 0
        auto = capsys.readouterr()
        assert main(
            ["run", str(p2p_file), "-n", "4", "--engine-mode", "full"]
        ) == 0
        full = capsys.readouterr()
        assert auto.out == full.out
        assert "not provably rank-symmetric" not in auto.err

    def test_run_rejects_unknown_mode(self, kernel_file, capsys):
        with pytest.raises(SystemExit):
            main(
                ["run", str(kernel_file), "-n", "4", "--engine-mode", "warp"]
            )
        assert "invalid choice" in capsys.readouterr().err

    def test_bench_accepts_engine_mode(self, capsys):
        rc = main(
            ["sweep", "nodeloop", "--engine-mode", "full", "--no-cache"]
        )
        assert rc == 0
        assert "Ablation E" in capsys.readouterr().out

    def test_sweep_engine_modes_share_results(self, tmp_path, capsys):
        args = [
            "sweep",
            "--app",
            "fft",
            "--n",
            "8",
            "--nranks",
            "4",
            "--variant",
            "original",
            "--no-verify",
            "--no-cache",
        ]
        outs = {}
        for mode in ("replay", "full"):
            out = tmp_path / f"{mode}.json"
            rc = main(args + ["--engine-mode", mode, "-o", str(out)])
            assert rc == 0
            capsys.readouterr()
            outs[mode] = json.loads(out.read_text())
        replay = outs["replay"]["result"]["runs"]
        full = outs["full"]["result"]["runs"]
        assert replay and len(replay) == len(full)
        for a, b in zip(replay, full):
            assert a["measurement"] == b["measurement"]



_FLAGS = {"--network": "gmnet", "--collective": "bruck",
          "--variant": "tile-only", "-K": "4"}
_ONE_ARM = {
    "--network": {"network": "gmnet"},
    "--collective": {"collective": "bruck"},
    "--variant": {"variant": "tile-only"},
    "-K": None,
}
#: (figure, flag) -> the keywords ``sweep FIGURE`` forwards: the figures
#: that sweep their own networks/variants take the flag as a one-element
#: axis, and a figure that cannot take the flag rejects it (``None``)
_FIGURE_KWARGS = {
    **{(name, flag): kwargs for name in
       ("nodeloop", "scaling", "tile_size", "workloads")
       for flag, kwargs in _ONE_ARM.items()},
    ("figure1", "--network"): None,
    ("figure1", "--collective"): None,
    ("figure1", "--variant"): {"variant": "tile-only"},
    ("figure1", "-K"): {"tile_size": 4},
    ("collectives", "--network"): {"networks": ("gmnet",)},
    ("collectives", "--collective"): None,
    ("collectives", "--variant"): None,
    ("collectives", "-K"): None,
    ("variants", "--network"): {"networks": ("gmnet",)},
    ("variants", "--collective"): None,
    ("variants", "--variant"): {"variants": ("tile-only",)},
    ("variants", "-K"): None,
    **{(name, flag): None for name in ("network", "scenarios")
       for flag in _FLAGS},
}


class TestBenchForwarding:
    """``sweep FIGURE`` forwards --network/--collective/--variant/-K to
    exactly the keywords each figure's signature accepts (the figures
    the retired ``bench`` verb ran, plus Figure 1)."""

    @staticmethod
    def _record(monkeypatch, name):
        seen = []

        @functools.wraps(cli._FIGURES[name])
        def recorder(*, session, **kwargs):
            seen.append(kwargs)
            return Table(title=name, columns=["x"])

        monkeypatch.setitem(cli._FIGURES, name, recorder)
        return seen

    def test_table_covers_every_bench(self):
        assert {name for name, _ in _FIGURE_KWARGS} == set(cli._FIGURES)

    @pytest.mark.parametrize("name, flag", sorted(_FIGURE_KWARGS))
    def test_forwarded_kwargs(self, name, flag, monkeypatch, capsys):
        seen = self._record(monkeypatch, name)
        expected = _FIGURE_KWARGS[name, flag]
        rc = main(["sweep", name, flag, _FLAGS[flag], "--no-cache"])
        if expected is None:
            # rejected before anything runs
            assert rc == 1 and seen == []
            err = capsys.readouterr().err
            assert f"{flag} not supported by this figure target" in err
        else:
            assert rc == 0
            assert seen == [expected]
            assert name in capsys.readouterr().out

    @pytest.mark.parametrize("flag", sorted(_FLAGS))
    def test_bench_all_forwards_where_applicable(
        self, flag, monkeypatch, capsys
    ):
        seen = {name: self._record(monkeypatch, name) for name in cli._FIGURES}
        assert main(["sweep", "all", flag, _FLAGS[flag], "--no-cache"]) == 0
        assert seen == {
            name: [_FIGURE_KWARGS[name, flag] or {}] for name in cli._FIGURES
        }

    @pytest.mark.parametrize("name", sorted(cli._FIGURES))
    def test_no_flags_forward_nothing(self, name, monkeypatch):
        seen = self._record(monkeypatch, name)
        assert main(["sweep", name, "--no-cache"]) == 0
        assert seen == [{}]
