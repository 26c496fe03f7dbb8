"""The ``python -m repro`` scenario subcommands."""

import pytest

from repro.__main__ import main
from repro.errors import ScenarioError
from repro.scenarios import available_cases
from repro.scenarios.cli import _parse_assignments, _parse_grid


class TestCasesCommand:
    def test_lists_catalog(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        for name in available_cases():
            assert name in out


class TestCaseCommand:
    def test_runs_case_with_steps_override(self, capsys):
        code = main(["case", "taylor-green", "--steps", "40",
                     "--set", "shape=16,16,4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "taylor-green" in out
        assert "PASS" in out

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = str(tmp_path / "tg.npz")
        assert main(["case", "taylor-green", "--steps", "10",
                     "--set", "shape=16,16,4", "--checkpoint", ckpt]) == 0
        assert main(["case", "taylor-green", "--steps", "20",
                     "--set", "shape=16,16,4", "--resume", ckpt]) == 0
        out = capsys.readouterr().out
        assert "reached step 20" in out


class TestSweepCommand:
    def test_two_parameter_sweep_emits_table(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        code = main([
            "sweep", "taylor-green",
            "--param", "tau=0.6,0.8",
            "--param", "lattice=D3Q19,D3Q27",
            "--steps", "10",
            "--csv", str(csv),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep over taylor-green" in out
        assert "D3Q27" in out
        assert csv.read_text().startswith("tau,lattice")


class TestSweepEngineFlags:
    def test_jobs_and_cache_dir_then_warm_resume(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "taylor-green",
            "--param", "tau=0.6,0.8",
            "--steps", "10",
            "--jobs", "2",
            "--cache-dir", cache,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 variants: 2 run, 0 cached" in out
        assert "source" in out  # provenance column in the CLI table

        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2 variants: 0 run, 2 cached" in out

    def test_plain_sweep_is_deterministic_no_timing_column(
        self, capsys, tmp_path
    ):
        """The CLI always executes through the sweep engine, so
        wall-clock metrics never appear and --jobs N data is
        byte-identical; only the source column says who ran a row."""
        argv = ["sweep", "taylor-green", "--param", "tau=0.6,0.8",
                "--steps", "10"]
        assert main(argv + ["--csv", str(tmp_path / "serial.csv")]) == 0
        serial = capsys.readouterr().out
        assert "mflups" not in serial
        assert "2 variants: 2 run, 0 cached" in serial
        assert main(argv + ["--jobs", "2",
                            "--csv", str(tmp_path / "parallel.csv")]) == 0
        parallel = capsys.readouterr().out
        assert "2 variants: 2 run, 0 cached" in parallel
        assert "worker:w" in parallel
        assert (tmp_path / "parallel.csv").read_bytes() == (
            tmp_path / "serial.csv"
        ).read_bytes()

    def test_resume_without_cache_dir_is_an_error(self, capsys):
        code = main([
            "sweep", "taylor-green",
            "--param", "tau=0.6",
            "--steps", "10",
            "--resume",
        ])
        assert code == 2
        assert "cache directory" in capsys.readouterr().err


class TestErrorPaths:
    """Every malformed invocation exits 2 with a message on stderr."""

    def test_unknown_case_name(self, capsys):
        code = main(["case", "no-such-case", "--steps", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown case" in err
        assert "taylor-green" in err  # lists what *is* available

    def test_unknown_sweep_case_name(self, capsys):
        code = main(["sweep", "no-such-case", "--param", "tau=0.6"])
        assert code == 2
        assert "unknown case" in capsys.readouterr().err

    def test_malformed_param_no_equals(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau"])
        assert code == 2
        assert "expected key=v1,v2" in capsys.readouterr().err

    def test_malformed_param_empty_values(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau="])
        assert code == 2
        assert "expected key=v1,v2" in capsys.readouterr().err

    def test_malformed_set_assignment(self, capsys):
        code = main(["case", "taylor-green", "--set", "tau"])
        assert code == 2
        assert "expected key=value" in capsys.readouterr().err

    def test_workers_without_cache_dir_runs(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6,0.8",
                     "--steps", "10", "--workers", "2"])
        assert code == 0
        assert "2 variants: 2 run, 0 cached" in capsys.readouterr().out

    def test_publish_without_cache_dir(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6",
                     "--steps", "10", "--publish"])
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_workers_and_jobs_conflict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "taylor-green", "--param", "tau=0.6",
                  "--steps", "10", "--workers", "2", "--jobs", "3",
                  "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "conflicts with the worker count 2" in capsys.readouterr().err

    def test_workers_and_jobs_are_one_option(self, tmp_path, capsys):
        """--workers N is a spelling of --jobs N: the same bytes."""
        argv = ["sweep", "taylor-green", "--param", "tau=0.6,0.8",
                "--steps", "10", "--json"]
        outputs = []
        for name, flags in (("jobs", ["--jobs", "2"]),
                            ("workers", ["--workers", "2"]),
                            ("both", ["--jobs", "2", "--workers", "2"])):
            assert main(argv + flags + ["--cache-dir", str(tmp_path / name)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_adaptive_conflicts_with_publish(self, tmp_path, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6,0.7,0.8",
                     "--steps", "10", "--adaptive", "steps_run",
                     "--publish", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_worker_against_unpublished_dir(self, tmp_path, capsys):
        code = main(["sweep-worker", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "no published sweep" in capsys.readouterr().err

    def test_adaptive_unknown_observable(self, tmp_path, capsys):
        code = main(["sweep", "taylor-green",
                     "--param", "tau=0.6,0.7,0.8", "--steps", "10",
                     "--adaptive", "bogus"])
        assert code == 2
        assert "unknown observable" in capsys.readouterr().err


class TestDistributedCommands:
    ARGS = ["--param", "tau=0.6,0.8", "--steps", "10"]

    def test_publish_then_worker_then_merge(self, tmp_path, capsys):
        cache = str(tmp_path / "shared")
        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--cache-dir", cache, "--publish"]) == 0
        out = capsys.readouterr().out
        assert "published 2 variant(s)" in out
        assert "sweep-worker" in out  # launch recipe printed

        assert main(["sweep-worker", "--cache-dir", cache,
                     "--worker-id", "t1"]) == 0
        out = capsys.readouterr().out
        assert "worker t1: ran 2 variant(s)" in out

        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "2 variants: 0 run, 2 cached" in out

    def test_workers_flag_matches_serial_output(self, tmp_path, capsys):
        serial_csv = tmp_path / "serial.csv"
        dist_csv = tmp_path / "dist.csv"
        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--csv", str(serial_csv)]) == 0
        capsys.readouterr()
        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--workers", "2", "--cache-dir", str(tmp_path / "c"),
                     "--csv", str(dist_csv)]) == 0
        out = capsys.readouterr().out
        assert "2 variants: 2 run, 0 cached" in out
        assert serial_csv.read_bytes() == dist_csv.read_bytes()


    def test_workers_json_prints_one_body(self, tmp_path, capfd):
        """Worker children share the parent's stdout; their summaries go
        to stderr so `--json` stays exactly one JSON body."""
        import json

        assert main(["sweep", "taylor-green", *self.ARGS,
                     "--workers", "2", "--cache-dir", str(tmp_path / "c"),
                     "--json"]) == 0
        captured = capfd.readouterr()
        body = json.loads(captured.out)
        assert body["data"]["case"] == "taylor-green"
        assert "ran" in captured.err


class TestAdaptiveCommand:
    def test_adaptive_samples_strict_subset(self, capsys):
        code = main(["sweep", "taylor-green",
                     "--param", "tau=0.55,0.6,0.7,0.8,0.95",
                     "--steps", "10",
                     "--adaptive", "final_kinetic_energy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampled 4/5 grid points (3 coarse + 1 refined)" in out
        assert "stage" in out  # per-row stage column in the CLI table


class TestLegacyCommands:
    def test_experiment_list_still_works(self, capsys):
        assert main(["--list"]) == 0
        assert "fig8a" in capsys.readouterr().out


class TestParsing:
    def test_assignment_scalars_and_tuples(self):
        parsed = _parse_assignments(["tau=0.9", "shape=8,8,4", "lattice=D3Q19"])
        assert parsed == {"tau": 0.9, "shape": (8, 8, 4), "lattice": "D3Q19"}

    def test_grid_values(self):
        assert _parse_grid(["kn=0.05,0.1"]) == {"kn": [0.05, 0.1]}

    def test_malformed_assignment_rejected(self):
        with pytest.raises(ScenarioError):
            _parse_assignments(["tau"])
        with pytest.raises(ScenarioError):
            _parse_grid(["kn="])


class TestAutoKernelSpelling:
    """`--kernel auto` is the planned engine: it resolves before the
    (fingerprinted) spec is built, so outputs match `--kernel planned`."""

    def test_case_json_byte_identical_to_planned(self, capsys):
        bodies = {}
        for kernel in ("auto", "planned"):
            code = main(["case", "taylor-green", "--steps", "20",
                         "--kernel", kernel, "--json"])
            assert code == 0
            bodies[kernel] = capsys.readouterr().out
        assert bodies["auto"] == bodies["planned"]

    def test_sweep_table_identical_to_planned(self, capsys):
        tables = {}
        for kernel in ("auto", "planned"):
            code = main(["sweep", "taylor-green", "--param", "tau=0.7,0.8",
                         "--steps", "5", "--kernel", kernel])
            assert code == 0
            tables[kernel] = capsys.readouterr().out
        assert tables["auto"] == tables["planned"]

    def test_set_kernel_auto_byte_identical_to_planned(self, capsys):
        bodies = {}
        for kernel in ("auto", "planned"):
            code = main(["case", "taylor-green", "--steps", "20",
                         "--set", f"kernel={kernel}", "--json"])
            assert code == 0
            bodies[kernel] = capsys.readouterr().out
        assert bodies["auto"] == bodies["planned"]

    def test_param_kernel_axis_accepts_auto(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "kernel=auto,roll",
                     "--steps", "5"])
        assert code == 0
        assert "error" not in capsys.readouterr().err


class TestTelemetryFlags:
    def test_telemetry_without_cache_dir(self, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6",
                     "--steps", "10", "--telemetry"])
        assert code == 2
        assert "--telemetry needs --cache-dir" in capsys.readouterr().err

    def test_telemetry_conflicts_with_adaptive(self, tmp_path, capsys):
        code = main(["sweep", "taylor-green", "--param", "tau=0.6,0.7,0.8",
                     "--steps", "10", "--adaptive", "steps_run",
                     "--cache-dir", str(tmp_path), "--telemetry"])
        assert code == 2
        assert "not supported with --adaptive" in capsys.readouterr().err


class TestEventsCommand:
    def test_no_telemetry_recorded(self, tmp_path, capsys):
        code = main(["events", "--cache-dir", str(tmp_path)])
        assert code == 1
        assert "no telemetry under" in capsys.readouterr().out

    def test_tails_a_recorded_sweep(self, tmp_path, capsys):
        assert main(["sweep", "taylor-green", "--param", "tau=0.6,0.8",
                     "--steps", "10", "--cache-dir", str(tmp_path),
                     "--telemetry"]) == 0
        capsys.readouterr()
        code = main(["events", "--cache-dir", str(tmp_path),
                     "--name", "variant", "--tail", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "variant" in out
        assert "event(s) from" in out

    def test_type_filter_validated_by_parser(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["events", "--cache-dir", str(tmp_path),
                  "--type", "bogus"])
        assert "invalid choice" in capsys.readouterr().err
