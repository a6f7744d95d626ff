"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import soavmud
from soavmud import cli
from soavmud.cli import main, parse_axis, parse_detectors


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

    def test_detector_aliases(self):
        assert parse_detectors("lmmse,lasso,map-soav,exhaustive-map") == [
            "lmmse", "lasso", "map_soav", "exhaustive_map",
        ]

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            parse_detectors("sphere")


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

    def test_oracle_compare_defaults_to_small_system(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main([
            "oracle-compare", "--trials", "2", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "exhaustive_map" in text
        assert "n_users=8 n_meas=6" in text

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

    def test_config_file_numeric_string_sigma2(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(
            {"sigma_w2_override": "0.1", "detectors": [{"kind": "lmmse"}]}
        ))
        code = main(["simulate", "--config", str(path), "--users", "8", "--meas", "6",
                     "--trials", "2"])
        assert code == 0
        assert "# sigma_w2=0.1" in capsys.readouterr().out

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
            ({"fix_matrix": "false"}, "fix_matrix must be a JSON boolean"),
            ({"fix_matrix": 1}, "fix_matrix must be a JSON boolean"),
            ({"trials": 2.9}, "trials must be a JSON integer"),
            ({"n_users": True}, "n_users must be a JSON integer"),
            ({"master_seed": "3"}, "master_seed must be a JSON integer"),
            ({"max_iters": 2.5}, "max_iters must be a JSON integer"),
            ({"detectors": [{"kind": "lasso", "max_iters": 2.5}]},
             "max_iters must be a JSON integer"),
            ({"lam": [30]}, "lam must be a JSON number, got [30]"),
            ({"detectors": [{"kind": "lasso", "rel_tol": None}]},
             "rel_tol must be a JSON number, got None"),
            ({"detectors": {"kind": "lasso"}}, "detectors must be a JSON list"),
        ],
        ids=["fix_matrix-string", "fix_matrix-int", "trials-float", "n_users-bool",
             "master_seed-string", "max_iters-float", "detector-max_iters-float",
             "lam-list", "detector-rel_tol-null", "detectors-object"],
    )
    def test_config_file_wrong_type_rejected(self, tmp_path, capsys, doc, message):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"n_users": 8, "n_meas": 6, "trials": 1, **doc}))
        code = main(["simulate", "--config", str(path)])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_config_file_numeric_string_lipschitz(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"detectors": [{"kind": "lasso", "lipschitz": "1e6"}]}))
        code = main(["simulate", "--config", str(path), "--users", "8", "--meas", "6",
                     "--trials", "2"])
        assert code == 0
        assert "snr_db,12,lasso,2," in capsys.readouterr().out

    def test_oversized_exhaustive_map_rejected_before_the_sweep(self, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("run_sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        code = main(["oracle-compare", "--users", "16", "--meas", "12", "--trials", "2",
                     "--parallelism", "2"])
        assert code == 1
        assert "enumeration bound" in capsys.readouterr().err

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
        src = str(Path(soavmud.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr
        assert "master_seed=13" in proc.stderr
        assert "Traceback" not in proc.stderr

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
