"""Tests for the Monte Carlo engine, aggregation, and CSV emission."""

import io
import logging
import os

import numpy as np
import pytest

from soavmud import harness
from soavmud.detectors import DetectorConfig, run_detector
from soavmud.harness import (
    ExperimentConfig,
    emit_csv,
    error_ratio,
    run_sweep,
    run_trial,
)
from soavmud.model import bpsk_prior, substream, synthesize
from soavmud.optim import SolverConfig
from soavmud.soav import default_offset, solve_weights


def capture_instances(monkeypatch):
    """List that collects every instance run_trial synthesizes from now on."""
    made = []

    def recording(*args, **kwargs):
        made.append(synthesize(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(harness, "synthesize", recording)
    return made


def small_config(**overrides):
    base = dict(
        n_users=12,
        n_meas=9,
        trials=8,
        rho=0.8,
        snr_db=(10.0, 14.0),
        master_seed=5,
        detectors=(
            DetectorConfig(kind="lmmse"),
            DetectorConfig(kind="lasso"),
            DetectorConfig(kind="map_soav"),
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestErrorRatio:
    def test_perfect_agreement(self):
        assert error_ratio([1, 0, -1], [1, 0, -1]) == 0.0

    def test_single_mismatch_among_hundred(self):
        truth = np.zeros(100)
        decided = truth.copy()
        decided[17] = 1.0
        assert error_ratio(decided, truth) == 0.01

    def test_total_disagreement(self):
        truth = np.array([1.0, -1.0, 1.0, 1.0])
        assert error_ratio(-truth, truth) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_ratio([1, 0], [1, 0, -1])


class TestExperimentConfig:
    def test_rho_sweep_requires_override(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho=(0.2, 0.8), snr_db=None)

    def test_rho_sweep_rejects_snr_axis(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho=(0.2, 0.8), snr_db=12.0, sigma_w2_override=0.02)

    def test_snr_sweep_rejects_override(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho=0.8, snr_db=(10.0, 12.0), sigma_w2_override=0.02)

    def test_boundary_rho_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho=(0.0, 0.5), snr_db=None, sigma_w2_override=0.02)

    def test_duplicate_detector_kinds_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(detectors=(DetectorConfig(kind="lmmse"),
                                        DetectorConfig(kind="lmmse")))

    def test_oversized_exhaustive_map_rejected(self):
        oracle = (DetectorConfig(kind="exhaustive_map"),)
        with pytest.raises(ValueError, match="3\\^16 candidates"):
            small_config(n_users=16, n_meas=12, detectors=oracle)
        assert small_config(n_users=15, n_meas=12, detectors=oracle).n_users == 15

    @pytest.mark.parametrize(
        "build",
        [
            lambda v: ExperimentConfig(snr_db=(12.0, v)),
            lambda v: ExperimentConfig(snr_db=12.0, sigma_w2_override=v),
            lambda v: DetectorConfig(kind="lasso", lam=v),
            lambda v: DetectorConfig(kind="map_soav", offset=v),
            lambda v: SolverConfig(rel_tol=v),
            lambda v: SolverConfig(lipschitz=v),
        ],
        ids=["snr_db", "sigma_w2_override", "lam", "offset", "rel_tol", "lipschitz"],
    )
    def test_non_finite_value_rejected(self, build):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                build(value)

    def test_axis_properties(self):
        snr_cfg = small_config()
        assert snr_cfg.axis == "snr_db"
        assert snr_cfg.axis_points == (10.0, 14.0)
        rho_cfg = ExperimentConfig(rho=(0.2, 0.8), snr_db=None,
                                   sigma_w2_override=0.0226)
        assert rho_cfg.axis == "rho"
        assert rho_cfg.axis_points == (0.2, 0.8)
        assert rho_cfg.sigma_at(0.2) == 0.0226

    def test_sigma_follows_snr_definition(self):
        cfg = small_config()
        assert cfg.sigma_at(10.0) == pytest.approx(12 * 0.2 / 9 * 0.1, rel=1e-12)


class TestRunTrial:
    def test_identical_keys_identical_record(self):
        cfg = small_config()
        a = run_trial(cfg, 10.0, 3)
        b = run_trial(cfg, 10.0, 3)
        assert a == b

    def test_distinct_trials_distinct_instances(self, monkeypatch):
        made = capture_instances(monkeypatch)
        cfg = small_config()
        for i in range(6):
            run_trial(cfg, 10.0, i)
        assert len({inst.S.tobytes() for inst in made}) == 6
        assert len({inst.y.tobytes() for inst in made}) == 6

    def test_fixed_matrix_mode_changes_stream(self, monkeypatch):
        made = capture_instances(monkeypatch)
        cfg = small_config()
        fixed = small_config(fix_matrix=True)
        run_trial(cfg, 10.0, 0)
        run_trial(fixed, 10.0, 0)
        run_trial(fixed, 10.0, 1)
        free, fixed_0, fixed_1 = made
        assert not np.array_equal(free.S, fixed_0.S)
        assert not np.array_equal(free.y, fixed_0.y)
        np.testing.assert_array_equal(fixed_0.S, fixed_1.S)
        # Still deterministic in fixed mode.
        assert run_trial(fixed, 10.0, 1) == run_trial(fixed, 10.0, 1)

    def test_error_counts_bounded_by_users(self):
        cfg = small_config()
        rec = run_trial(cfg, 10.0, 0)
        for count in rec.error_counts.values():
            assert 0 <= count <= cfg.n_users

    def test_near_noiseless_sanity_orthonormal(self):
        # Paired-trial structure at sigma_w2 = 1e-8 with orthonormal-ish
        # square mixing: every detector should be exact almost always.
        prior = bpsk_prior(0.8)
        detectors = tuple(
            DetectorConfig(kind=k)
            for k in ("lmmse", "lasso", "map_soav", "exhaustive_map")
        )
        clean = 0
        for trial in range(100):
            rng = substream(314, trial)
            q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
            inst = synthesize(prior, q, np.ones(10), 1e-8, rng)
            clean += all(
                np.array_equal(run_detector(inst, prior, det).decided, inst.b)
                for det in detectors
            )
        assert clean >= 99


class TestRunSweep:
    def test_single_trial_mean_equals_trial_ratio(self):
        cfg = small_config(trials=1, snr_db=10.0,
                           detectors=(DetectorConfig(kind="lmmse"),))
        record = run_trial(cfg, 10.0, 0)
        result = run_sweep(cfg)[0]
        assert result.means["lmmse"] == record.error_counts["lmmse"] / cfg.n_users
        assert result.std_errs["lmmse"] == 0.0

    def test_mean_is_arithmetic_mean_of_trials(self):
        cfg = small_config(trials=6, snr_db=10.0)
        ratios = [
            run_trial(cfg, 10.0, i).error_counts["lasso"] / cfg.n_users
            for i in range(6)
        ]
        result = run_sweep(cfg)[0]
        assert abs(result.means["lasso"] - np.mean(ratios)) < 1e-12

    def test_parallelism_does_not_change_results(self):
        serial = run_sweep(small_config())
        parallel = run_sweep(small_config(parallelism=2))
        for a, b in zip(serial, parallel):
            assert a.means == b.means
            assert a.std_errs == b.std_errs

    def test_parallelism_keeps_csv_bytes_at_paper_scale(self):
        # At N = 100, M = 70 LMMSE's 70x100x70 product is large enough for
        # OpenBLAS to split across threads in the serial run, while each
        # pooled worker computes it on one thread.
        def csv_text(parallelism):
            cfg = ExperimentConfig(
                n_users=100, n_meas=70, trials=3, rho=0.8, snr_db=(12.0, 16.0),
                master_seed=21, parallelism=parallelism,
            )
            buf = io.StringIO()
            emit_csv(run_sweep(cfg), buf)
            return buf.getvalue()

        assert csv_text(1) == csv_text(2)

    def test_pool_workers_run_one_blas_thread(self, monkeypatch, tmp_path):
        functions = harness._blas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS exposes no known thread-count symbol")
        set_threads, get_threads = functions
        real_run_trial = harness.run_trial

        def reporting(config, axis_value, trial_index):
            report = tmp_path / f"{os.getpid()}-{axis_value}-{trial_index}"
            report.write_text(str(get_threads()))
            return real_run_trial(config, axis_value, trial_index)

        monkeypatch.setattr(harness, "run_trial", reporting)
        original = get_threads()
        set_threads(2)
        try:
            before = get_threads()
            run_sweep(small_config(parallelism=2))
            after = get_threads()
        finally:
            set_threads(original)
        assert after == before
        reports = list(tmp_path.iterdir())
        assert len(reports) == 16
        assert not any(r.name.startswith(f"{os.getpid()}-") for r in reports)
        assert {r.read_text() for r in reports} == {"1"}

    def test_rho_sweep_fixed_variance_protocol(self):
        cfg = ExperimentConfig(
            n_users=12, n_meas=9, trials=4, rho=(0.2, 0.8), snr_db=None,
            sigma_w2_override=0.0226, master_seed=3,
            detectors=(DetectorConfig(kind="lmmse"),),
        )
        results = run_sweep(cfg)
        assert [r.axis_value for r in results] == [0.2, 0.8]
        assert all(r.config.axis == "rho" for r in results)

    def test_results_ordered_by_axis(self):
        results = run_sweep(small_config())
        assert [r.axis_value for r in results] == [10.0, 14.0]

    def test_failed_detector_logged_excluded_and_counted(self, caplog):
        # An absurdly small Lipschitz bound makes the solver diverge on
        # every trial; the sweep must survive, log it, and keep the mean of
        # the healthy detector untouched.
        doomed = DetectorConfig(
            kind="map_soav",
            solver=SolverConfig(lipschitz=1e-9, max_iters=200, rel_tol=0.0),
        )
        cfg = small_config(
            trials=3, snr_db=10.0,
            detectors=(DetectorConfig(kind="lmmse"), doomed),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with caplog.at_level(logging.WARNING, logger="soavmud.harness"):
                results = run_sweep(cfg)
        res = results[0]
        assert res.failures["map_soav"] == 3
        assert np.isnan(res.means["map_soav"])
        assert res.failures["lmmse"] == 0
        assert np.isfinite(res.means["lmmse"])
        assert any("map_soav failed" in rec.getMessage() for rec in caplog.records)
        buf = io.StringIO()
        emit_csv(results, buf)
        text = buf.getvalue()
        assert "# failures snr_db=10 map_soav: 3" in text
        assert "snr_db,10,map_soav,0,nan,nan,5" in text


class TestEmitCsv:
    def test_round_trip_single_row(self):
        cfg = small_config(trials=2, snr_db=10.0,
                           detectors=(DetectorConfig(kind="lmmse"),))
        results = run_sweep(cfg)
        buf = io.StringIO()
        emit_csv(results, buf)
        lines = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        header, row = lines
        assert header == "axis,axis_value,detector,trials,error_ratio,std_err,master_seed"
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["axis"] == "snr_db"
        assert float(fields["axis_value"]) == 10.0
        assert fields["detector"] == "lmmse"
        assert int(fields["trials"]) == 2
        assert float(fields["error_ratio"]) == pytest.approx(
            results[0].means["lmmse"], rel=1e-5
        )
        assert int(fields["master_seed"]) == cfg.master_seed

    def test_metadata_weights_match_solver_output(self):
        cfg = small_config(trials=1, snr_db=10.0)
        buf = io.StringIO()
        emit_csv(run_sweep(cfg), buf)
        weight_line = next(
            l for l in buf.getvalue().splitlines() if l.startswith("# weights")
        )
        prior = bpsk_prior(0.8)
        expected = solve_weights(prior, default_offset(prior, 10.0))
        c_text = weight_line.split("C=")[1].split(" ")[0]
        q_text = weight_line.split("q=[")[1].split("]")[0]
        assert float(c_text) == pytest.approx(expected.c, rel=1e-5)
        parsed_q = [float(v) for v in q_text.split(",")]
        np.testing.assert_allclose(parsed_q, expected.q, rtol=1e-5)

    def test_sparse_metadata_contains_printed_constant(self):
        cfg = small_config(trials=1, snr_db=10.0)
        buf = io.StringIO()
        emit_csv(run_sweep(cfg), buf)
        assert "C=14.6052" in buf.getvalue()

    def test_rho_sweep_emits_weights_per_point(self):
        cfg = ExperimentConfig(
            n_users=12, n_meas=9, trials=1, rho=(0.2, 0.8), snr_db=None,
            sigma_w2_override=0.0226, master_seed=3,
            detectors=(DetectorConfig(kind="map_soav"),),
        )
        buf = io.StringIO()
        emit_csv(run_sweep(cfg), buf)
        weight_lines = [
            l for l in buf.getvalue().splitlines() if l.startswith("# weights")
        ]
        assert len(weight_lines) == 2

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([], io.StringIO())

    def test_unwritable_destination_raises(self, tmp_path):
        cfg = small_config(trials=1, snr_db=10.0,
                           detectors=(DetectorConfig(kind="lmmse"),))
        results = run_sweep(cfg)
        with pytest.raises(OSError):
            emit_csv(results, tmp_path / "missing-dir" / "out.csv")
