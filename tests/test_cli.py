"""Tests for the command-line interface."""

import dataclasses
import json
import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import soavmud
from soavmud import cli, harness
from soavmud.cli import main, parse_axis, parse_detectors
from soavmud.detectors import DetectorConfig


def _run_python(*args, max_memory=None, timeout=60):
    """Run a fresh interpreter with ``args``, importing this checkout's soavmud.

    ``max_memory`` caps its address space in bytes, so that a runaway
    allocation fails there within seconds; ``timeout`` caps its wall time.
    """
    src = str(Path(soavmud.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (max_memory, max_memory))

    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit_memory if max_memory else None)


class TestParsing:
    def test_single_value(self):
        assert parse_axis("12") == [12.0]

    def test_comma_list(self):
        assert parse_axis("12,14,16") == [12.0, 14.0, 16.0]

    def test_inclusive_range(self):
        assert parse_axis("6:16:2") == [6.0, 8.0, 10.0, 12.0, 14.0, 16.0]

    def test_fractional_range_hits_endpoint(self):
        values = parse_axis("0.05:0.95:0.15")
        assert values[0] == 0.05
        assert values[-1] == pytest.approx(0.95)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            parse_axis("6:16")
        with pytest.raises(ValueError):
            parse_axis("6:16:0")

    @pytest.mark.parametrize("spec", ["nan:1:1", "0:inf:1", "-inf:0:1", "0:1:nan", "0:1:inf"])
    def test_non_finite_range_rejected(self, spec):
        # A NaN or infinite bound once made the range loop grow its list without end,
        # so the CLI runs in a child with capped memory.
        proc = _run_python("-m", "soavmud.cli", "simulate", "--users", "8", "--meas", "6",
                           "--trials", "1", f"--snr={spec}", max_memory=2 * 1024**3)
        assert proc.returncode == 1
        assert proc.stderr == "error: range spec must be finite\n"

    def test_range_bound(self):
        assert parse_axis("10:16:2") == [10.0, 12.0, 14.0, 16.0]
        assert len(parse_axis("1:10000:1")) == cli._MAX_AXIS_POINTS
        with pytest.raises(ValueError, match="range spec gives 10001 points, more than 10000"):
            parse_axis("0:10000:1")

    def test_tiny_step_rejected_before_building_the_range(self):
        # 10^12 values once grew until MemoryError, so the CLI runs in a child
        # with capped memory and a timeout.
        proc = _run_python("-m", "soavmud.cli", "simulate", "--users", "8", "--meas", "6",
                           "--trials", "1", "--snr=0:1:1e-12", max_memory=2 * 1024**3)
        assert proc.returncode == 1
        assert proc.stderr == "error: range spec gives 1e+12 points, more than 10000\n"

    def test_detector_aliases(self):
        assert parse_detectors("lmmse,lasso,map-soav,exhaustive-map") == [
            "lmmse", "lasso", "map_soav", "exhaustive_map",
        ]

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            parse_detectors("sphere")


def _config_of(monkeypatch, argv):
    """The ExperimentConfig that ``main(argv)`` hands to run_sweep; no trial runs."""
    got = []
    monkeypatch.setattr(cli, "run_sweep", got.append)
    monkeypatch.setattr(cli, "emit_csv", lambda results, destination: None)
    assert main(argv) == 0
    return got[0]


def _run_diverging(tmp_path, entry, *flags):
    """Run ``simulate`` with every map_soav solve diverging, in a fresh interpreter.

    In a fresh interpreter, because pytest's log capture would replace the
    last-resort handler that prints the warnings when no logging is set up. At
    rho 0.2 the SOAV weights are nonconvex, so map_soav runs FISTA, and a
    spectral bound of 1e-9 makes its step far too long: every solve diverges.
    """
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"detectors": [{"kind": "map_soav", **entry}]}))
    script = textwrap.dedent("""
        import sys
        from soavmud import cli, model

        model.SystemInstance.mix_norm_sq = property(lambda self: 1e-9)
        sys.exit(cli.main(sys.argv[1:]))
    """)
    return _run_python("-W", "ignore::RuntimeWarning", "-c", script, "simulate",
                       "--config", str(path), "--users", "8", "--meas", "6", "--seed", "3",
                       "--rho", "0.2", *flags)


def _divergence_warning(trial):
    return (f"trial {trial} at snr_db=12.0: detector map_soav failed (solver produced a"
            " non-finite iterate)\n")


def _divergence_lines(trials):
    """The CSV's failure lines when all ``trials`` map_soav solves of ``_run_diverging`` fail."""
    return (f"# failures snr_db=12 map_soav: {trials}\n# failure_reason snr_db=12 map_soav:"
            f" {trials} x DivergenceError: solver produced a non-finite iterate\n")


class TestWorkers:
    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["sweep-rho", "--rho", "0.2,0.8", "--sigma2", "0.1"],
        ["oracle-compare"],
    ], ids=["simulate", "sweep-rho", "oracle-compare"])
    def test_default_is_the_usable_cpus(self, monkeypatch, argv):
        assert _config_of(monkeypatch, argv).parallelism == len(os.sched_getaffinity(0))

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_file_and_flag_override_the_default(self, monkeypatch, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"parallelism": cli._usable_cpus() + 1}))
        argv = ["simulate", "--config", str(path)]
        assert _config_of(monkeypatch, argv).parallelism == cli._usable_cpus() + 1
        assert _config_of(monkeypatch, argv + ["--parallelism", "1"]).parallelism == 1

    def test_pooled_detector_failures_are_logged_to_stderr(self, tmp_path):
        for parallelism in ("2", "3"):
            proc = _run_diverging(tmp_path, {}, "--trials", "4", "--parallelism", parallelism)
            assert proc.returncode == 0, proc.stderr
            # The processes' lines may interleave, but each arrives whole.
            assert sorted(proc.stderr.splitlines(keepends=True)) == [
                _divergence_warning(i) for i in range(4)
            ]
            assert _divergence_lines(4) in proc.stdout


class TestCommands:
    def test_weights_prints_reference_constants(self, capsys):
        assert main(["weights", "--rho", "0.8", "--offset", "10"]) == 0
        out = capsys.readouterr().out
        assert "C=14.6052" in out
        assert "convex=True" in out

    def test_weights_nonconvex_case(self, capsys):
        assert main(["weights", "--rho", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "C=13.7402" in out
        assert "convex=False" in out

    @pytest.mark.parametrize("offset", ["nan", "inf"])
    def test_weights_nonfinite_offset_returns_error_code(self, capsys, offset):
        # It used to report "weight system solved to residual nan only".
        assert main(["weights", "--rho", "0.8", "--offset", offset]) == 1
        assert capsys.readouterr().err == "error: offset must be finite\n"

    def test_simulate_writes_csv(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main([
            "simulate", "--users", "10", "--meas", "7", "--rho", "0.8",
            "--snr", "10:14:4", "--trials", "3", "--seed", "9",
            "--detectors", "lmmse,map-soav", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "axis,axis_value,detector,trials,error_ratio,std_err,master_seed" in text
        rows = [l for l in text.splitlines() if not l.startswith("#") and l]
        assert len(rows) == 1 + 2 * 2  # header + 2 axis points x 2 detectors

    def test_simulate_stdout_default(self, capsys):
        code = main([
            "simulate", "--users", "8", "--meas", "6", "--rho", "0.8",
            "--snr", "12", "--trials", "2", "--detectors", "lmmse",
        ])
        assert code == 0
        assert "snr_db,12,lmmse,2," in capsys.readouterr().out

    def test_sweep_rho_requires_sigma(self, capsys):
        code = main([
            "sweep-rho", "--users", "8", "--meas", "6", "--rho", "0.2,0.8",
            "--trials", "1", "--detectors", "lmmse",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_sweep_rho_runs_fixed_variance(self, tmp_path):
        out = tmp_path / "rho.csv"
        code = main([
            "sweep-rho", "--users", "8", "--meas", "6", "--rho", "0.2,0.8",
            "--sigma2", "0.0226", "--trials", "2", "--detectors", "lmmse,map-soav",
            "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# sigma_w2=0.0226" in text
        assert "rho,0.2,lmmse,2," in text

    def test_sweep_rho_config_file_snr_db_rejected(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"snr_db": 12}))
        code = main([
            "sweep-rho", "--config", str(path), "--users", "8", "--meas", "6",
            "--rho", "0.2,0.8", "--sigma2", "0.0226", "--trials", "1", "--detectors", "lmmse",
        ])
        assert code == 1
        assert "a rho sweep fixes the noise variance" in capsys.readouterr().err

    def test_oracle_compare_defaults_to_small_system(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main([
            "oracle-compare", "--trials", "2", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "exhaustive_map" in text
        assert "n_users=8 n_meas=6" in text

    @pytest.mark.parametrize("command", ["simulate", "oracle-compare"])
    def test_help_gives_the_defaults_the_command_runs(self, monkeypatch, capsys, command):
        # Wide enough that argparse wraps no help line.
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        config = _config_of(monkeypatch, [command])
        lasso = next(det for det in config.detectors if det.kind == "lasso")
        for flag_help, value in [
            ("number of users N", config.n_users),
            ("number of measurements M", config.n_meas),
            ("trials per axis point", config.trials),
            ("master seed", config.master_seed),
            ("LASSO quadratic weight", lasso.lam),
            ("decision threshold", lasso.alpha),
            ("weight-offset margin", lasso.offset),
            ("solver iteration cap", lasso.solver.max_iters),
            ("solver stopping tolerance", lasso.solver.rel_tol),
            ("non-active rate", config.rho),
            ("start:stop:step", config.snr_db),
        ]:
            assert f"{flag_help} (default {value:g})" in text

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--snr", "10,12,12"], "snr_db repeats the axis point 12.0"),
        (["sweep-rho", "--rho", "0.2,0.5,0.2", "--sigma2", "0.1"],
         "rho repeats the axis point 0.2"),
        (["simulate", "--snr", "10,10.0000001"],
         "snr_db repeats the axis point 10.0000001: the CSV cannot tell it from 10.0"),
        (["sweep-rho", "--rho", "0.2,0.2000001", "--sigma2", "0.1"],
         "rho repeats the axis point 0.2000001: the CSV cannot tell it from 0.2"),
    ], ids=["snr", "rho", "snr-below-print-precision", "rho-below-print-precision"])
    def test_repeated_axis_point_rejected(self, monkeypatch, capsys, argv, message):
        # Each repeat would rerun the same keyed trials as a second estimate,
        # or print rows that the CSV's six significant digits cannot tell apart.
        def no_sweep(config):
            raise AssertionError("run_sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert main(argv + ["--users", "8", "--meas", "6", "--trials", "1"]) == 1
        assert message in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = {
            "n_users": 8,
            "n_meas": 6,
            "trials": 2,
            "rho": 0.8,
            "snr_db": [12.0],
            "master_seed": 11,
            "detectors": [{"kind": "lmmse"}],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--config", str(path), "--trials", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "trials=3" in out          # flag wins
        assert "master_seed=11" in out    # file value survives

    def test_flags_override_a_file_detector_entry(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"detectors": [{"kind": "lasso"}]}))
        code = main(["simulate", "--config", str(path), "--users", "8", "--meas", "6",
                     "--trials", "2", "--max-iters", "7", "--lam", "5", "--alpha", "0.3"])
        assert code == 0
        assert ("# detector lasso: alpha=0.3 lam=5 max_iters=7 rel_tol=1e-08\n"
                in capsys.readouterr().out)

    def test_file_overrides_oracle_compare_defaults(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"n_users": 7, "n_meas": 5, "trials": 3, "snr_db": 9}))
        assert main(["oracle-compare", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# axis=snr_db n_users=7 n_meas=5 trials=3 master_seed=0 fix_matrix=False\n" in out
        assert "snr_db,9,exhaustive_map,3," in out

    def test_detector_entry_overrides_the_file_top_level(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({
            "lam": 4, "max_iters": 9,
            "detectors": [{"kind": "lasso", "lam": 6}, {"kind": "map-soav"}],
        }))
        code = main(["simulate", "--config", str(path), "--users", "8", "--meas", "6",
                     "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# detector lasso: alpha=0.5 lam=6 max_iters=9 rel_tol=1e-08\n" in out
        assert "# detector map_soav: alpha=0.5 offset=10 max_iters=9 rel_tol=1e-08\n" in out

    def test_no_flags_and_no_file_give_the_dataclass_defaults(self, monkeypatch):
        # All but the worker count, which the CLI sets to the usable CPUs.
        assert _config_of(monkeypatch, ["simulate"]) == dataclasses.replace(
            harness.ExperimentConfig(), parallelism=cli._usable_cpus())

    def test_config_file_numeric_string_sigma2(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(
            {"sigma_w2_override": "0.1", "detectors": [{"kind": "lmmse"}]}
        ))
        code = main(["simulate", "--config", str(path), "--users", "8", "--meas", "6",
                     "--trials", "2"])
        # A value has one form, a JSON number, as for a library caller.
        assert code == 1
        assert "sigma_w2_override must be a number, got '0.1'" in capsys.readouterr().err

    def test_config_file_unknown_detector_field_rejected(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(
            {"detectors": [{"kind": "map_soav", "exact_prox": True}]}
        ))
        code = main(["simulate", "--config", str(path), "--users", "8", "--meas", "6",
                     "--trials", "1"])
        assert code == 1
        assert "unknown detector fields: ['exact_prox']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"fix_matrix": "false"}, "fix_matrix must be a boolean"),
            ({"fix_matrix": 1}, "fix_matrix must be a boolean"),
            ({"trials": 2.9}, "trials must be an integer"),
            ({"n_users": True}, "n_users must be an integer"),
            ({"master_seed": "3"}, "master_seed must be an integer"),
            ({"max_iters": 2.5}, "max_iters must be an integer"),
            ({"detectors": [{"kind": "lasso", "max_iters": 2.5}]},
             "max_iters must be an integer"),
            ({"lam": [30]}, "lam must be a number, got [30]"),
            ({"detectors": [{"kind": "lasso", "rel_tol": None}]},
             "rel_tol must be a number, got None"),
            ({"rho": [0.2, 0.8], "snr_db": None, "sigma_w2_override": 0.1},
             "rho must be a number, got [0.2, 0.8]"),
            ({"detectors": {"kind": "lasso"}}, "detectors must be a JSON list"),
            ({"n_user": 8, "detector": [{"kind": "lasso"}]},
             "unknown config keys: ['detector', 'n_user']"),
            ({"detectors": [{"kind": "lasso", "lipschitz": 1e6}]},
             "unknown detector fields: ['lipschitz']"),
        ],
        ids=["fix_matrix-string", "fix_matrix-int", "trials-float", "n_users-bool",
             "master_seed-string", "max_iters-float", "detector-max_iters-float",
             "lam-list", "detector-rel_tol-null", "simulate-rho-list", "detectors-object",
             "misspelt-keys", "detector-lipschitz"],
    )
    def test_config_file_wrong_type_rejected(self, tmp_path, capsys, doc, message):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"n_users": 8, "n_meas": 6, "trials": 1, **doc}))
        code = main(["simulate", "--config", str(path)])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_oversized_exhaustive_map_rejected_before_the_sweep(self, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("run_sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        code = main(["oracle-compare", "--users", "16", "--meas", "12", "--trials", "2",
                     "--parallelism", "2"])
        assert code == 1
        assert "enumeration bound" in capsys.readouterr().err

    def test_huge_exhaustive_map_rejected_at_once(self):
        # Forming 3^100,000,000 to compare it with the bound takes minutes.
        proc = _run_python("-m", "soavmud.cli", "oracle-compare", "--users", "100000000",
                           "--meas", "6", "--trials", "1", timeout=20)
        assert proc.returncode == 1
        assert ("exhaustive_map would scan 3^100000000 candidates, more than the"
                " enumeration bound 16777216") in proc.stderr

    def test_killed_worker_fails_the_sweep_instead_of_hanging(self):
        script = textwrap.dedent("""
            import os, signal, sys
            from soavmud import cli, harness

            real_run_trial = harness.run_trial

            def dying(config, axis_value, trial_index):
                if trial_index == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_run_trial(config, axis_value, trial_index)

            harness.run_trial = dying
            sys.exit(cli.main(["simulate", "--users", "8", "--meas", "6", "--trials", "8",
                               "--seed", "13", "--parallelism", "2"]))
        """)
        proc = _run_python("-c", script)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr
        assert "master_seed=13" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("entry", [{}, {"rel_tol": 0}], ids=["default-rel_tol", "rel_tol-0"])
    def test_detector_failures_are_logged_to_stderr(self, tmp_path, entry):
        # Serial, so the warnings come in trial order.
        proc = _run_diverging(tmp_path, entry, "--trials", "2", "--parallelism", "1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "".join(_divergence_warning(i) for i in range(2))
        assert _divergence_lines(2) in proc.stdout

    def test_failing_trial_is_named(self, monkeypatch, capsys):
        calls = []
        real = harness.run_detector

        def failing(instance, prior, config):
            calls.append(config.kind)
            if len(calls) == 3:  # lmmse only, serial: the third call is trial 2
                raise RuntimeError("injected fault")
            return real(instance, prior, config)

        monkeypatch.setattr(harness, "run_detector", failing)
        code = main(["simulate", "--users", "8", "--meas", "6", "--trials", "4",
                     "--snr", "12", "--seed", "13", "--detectors", "lmmse",
                     "--parallelism", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.endswith(
            "\nerror: trial 2 at snr_db=12.0 with master_seed=13 failed:"
            " RuntimeError: injected fault\n"
        )
        # The cause's traceback shows where the trial failed.
        assert err.startswith("Traceback (most recent call last):\n")
        assert "in failing\n" in err
        assert "RuntimeError: injected fault\nerror: " in err

    def test_failing_trial_in_a_child_is_named(self, monkeypatch, capsys):
        sweep_pid = os.getpid()
        real = harness.run_detector

        def failing(instance, prior, config):
            if os.getpid() != sweep_pid:  # the child runs trials 1 and 3; 1 fails
                raise RuntimeError("injected fault")
            return real(instance, prior, config)

        monkeypatch.setattr(harness, "run_detector", failing)
        code = main(["simulate", "--users", "8", "--meas", "6", "--trials", "4",
                     "--snr", "12", "--seed", "13", "--detectors", "lmmse",
                     "--parallelism", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.endswith(
            "\nerror: trial 1 at snr_db=12.0 with master_seed=13 failed:"
            " RuntimeError: injected fault\n"
        )
        # The child's traceback, sent as text, reads as a serial run's does.
        assert err.startswith("Traceback (most recent call last):\n")
        assert "in failing\n" in err
        assert "RuntimeError: injected fault\nerror: " in err

    def test_trial_error_stderr_does_not_depend_on_the_process(self, monkeypatch, capsys):
        # Trial 3 of 4 is the sweep process's own at 1 and 3 processes, a child's at 2.
        real = harness.substream

        def failing(master_seed, *keys):
            if keys[-1] == 3:
                raise RuntimeError("injected fault")
            return real(master_seed, *keys)

        monkeypatch.setattr(harness, "substream", failing)
        cfg = harness.ExperimentConfig(n_users=8, n_meas=6, trials=4, snr_db=12.0,
                                       master_seed=13, detectors=(DetectorConfig("lmmse"),))
        with pytest.raises(harness.TrialError) as info:
            harness.run_trial(cfg, 12.0, 3)
        expected = f"{info.value.details}error: {info.value}\n"
        for parallelism in ("1", "2", "3"):
            code = main(["simulate", "--users", "8", "--meas", "6", "--trials", "4",
                         "--snr", "12", "--seed", "13", "--detectors", "lmmse",
                         "--parallelism", parallelism])
            assert code == 1
            assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("out", ["missing-dir/out.csv", "."], ids=["missing-dir", "dir"])
    def test_unwritable_out_fails_before_the_sweep(self, monkeypatch, capsys, tmp_path, out):
        def no_sweep(config):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        code = main(["simulate", "--trials", "1", "--out", str(tmp_path / out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno ")

    def test_failed_sweep_leaves_out_as_it_was(self, monkeypatch, capsys, tmp_path):
        def failing(config):
            raise ChildProcessError("a child process was killed")

        monkeypatch.setattr(cli, "run_sweep", failing)
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_text("old bytes\n")
        for out in (kept, absent):
            assert main(["simulate", "--trials", "1", "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: a child process was killed\n"
        assert kept.read_text() == "old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]

    def test_nan_sigma2_returns_error_code(self, capsys):
        code = main([
            "simulate", "--users", "10", "--meas", "7", "--trials", "3",
            "--snr", "12", "--sigma2", "nan",
        ])
        assert code == 1
        assert "sigma_w2_override must be positive and finite" in capsys.readouterr().err

    def test_invalid_rho_returns_error_code(self, capsys):
        code = main([
            "simulate", "--users", "8", "--meas", "6", "--rho", "1.0",
            "--snr", "12", "--trials", "1", "--detectors", "lmmse",
        ])
        assert code == 1
        assert "rho" in capsys.readouterr().err
