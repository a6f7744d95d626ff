"""Tests for the Monte Carlo engine, aggregation, and CSV emission."""

import collections
import dataclasses
import functools
import io
import itertools
import logging
import os
import pickle
import re
import signal
import traceback

import numpy as np
import pytest

from soavmud import harness, model, optim
from soavmud.detectors import DetectorConfig, run_detector
from soavmud.harness import (
    ExperimentConfig,
    TrialError,
    emit_csv,
    run_sweep,
    run_trial,
)
from soavmud.model import bpsk_prior, gaussian_matrix, substream, synthesize
from soavmud.optim import DivergenceError, SolverConfig, lipschitz_bound
from soavmud.soav import default_offset, solve_weights


def capture_instances(monkeypatch):
    """List that collects every instance run_trial synthesizes from now on."""
    made = []

    def recording(*args, **kwargs):
        made.append(synthesize(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(harness, "synthesize", recording)
    return made


def tiny_spectral_bound(monkeypatch):
    """Make every instance's spectral bound 1e-9, so each FISTA step is far
    too long and its iterates diverge. FISTA runs map_soav at a nonconvex rho,
    0.3 or below; ADMM, which runs the convex problems, takes no step."""
    monkeypatch.setattr(model.SystemInstance, "mix_norm_sq", property(lambda self: 1e-9))


def count_spectral_work(monkeypatch):
    """Lists of the instances whose Gram is formed and of the eigvalsh inputs, from now on."""
    grams, eigs = [], []
    real_gram, real_eigvalsh = model.SystemInstance.gram.func, np.linalg.eigvalsh

    def gram(self):
        grams.append(self)
        return real_gram(self)

    def eigvalsh(a, *args, **kwargs):
        eigs.append(a)
        return real_eigvalsh(a, *args, **kwargs)

    counting = functools.cached_property(gram)
    counting.__set_name__(model.SystemInstance, "gram")
    monkeypatch.setattr(model.SystemInstance, "gram", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return grams, eigs


def csv_of(config) -> str:
    """The CSV text of a sweep of ``config``."""
    buf = io.StringIO()
    emit_csv(run_sweep(config), buf)
    return buf.getvalue()


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

    def test_detector_entry_must_be_a_detector_config(self):
        # Before, a bare kind string raised "AttributeError: 'str' object has
        # no attribute 'kind'".
        message = "each detector must be a DetectorConfig, got 'lasso'"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(detectors=("lasso",))
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(detectors=(DetectorConfig(kind="lmmse"), "lasso"))

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
        ],
        ids=["snr_db", "sigma_w2_override", "lam", "offset", "rel_tol"],
    )
    def test_non_finite_value_rejected(self, build):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                build(value)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"],
                             ids=["float", "integral-float", "bool", "string"])
    @pytest.mark.parametrize(
        "name", ["n_users", "n_meas", "trials", "master_seed", "parallelism", "max_iters"]
    )
    def test_integer_field_rejects_non_integer(self, name, value):
        # A float seed used to draw the streams of its integer part, and a
        # float trial count to fail in run_sweep instead of here.
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            if name == "max_iters":
                SolverConfig(max_iters=value)
            else:
                small_config(**{name: value})

    @pytest.mark.parametrize("fields, message", [
        (dict(snr_db=12.0, sigma_w2_override="0.1"),
         "sigma_w2_override must be a number, got '0.1'"),
        (dict(rho="0.8"), "rho must be a number, got '0.8'"),
        (dict(snr_db=("10", "12")), "snr_db must be a number, got '10'"),
        (dict(rho=(0.2, True), snr_db=None, sigma_w2_override=0.1),
         "rho must be a number, got True"),
    ], ids=["sigma_w2_override-string", "rho-string", "snr_db-strings", "rho-bool"])
    def test_number_field_rejects_non_number(self, fields, message):
        # Before, a numeric string was read as its number, or raised a bare TypeError.
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(**fields)

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_fix_matrix_rejects_non_boolean(self, value):
        # "false" used to run fix-matrix mode, its CSV reading fix_matrix=false.
        message = f"fix_matrix must be a boolean, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(fix_matrix=value)

    def test_fix_matrix_takes_a_numpy_bool(self):
        assert small_config(fix_matrix=np.bool_(True)).fix_matrix is True

    @pytest.mark.parametrize("fields, message", [
        (dict(snr_db=(10.0, 14.0, 10.0)), "snr_db repeats the axis point 10.0"),
        (dict(snr_db=(0.0, -0.0)), "snr_db repeats the axis point -0.0"),
        (dict(rho=(0.2, 0.5, 0.2), snr_db=None, sigma_w2_override=0.1),
         "rho repeats the axis point 0.2"),
        (dict(snr_db=(10.0, 10.0000001)),
         "snr_db repeats the axis point 10.0000001: the CSV cannot tell it from 10.0"),
        (dict(rho=(0.2, 0.2000001), snr_db=None, sigma_w2_override=0.1),
         "rho repeats the axis point 0.2000001: the CSV cannot tell it from 0.2"),
    ], ids=["snr_db", "signed-zero-snr_db", "rho", "snr_db-below-print-precision",
            "rho-below-print-precision"])
    def test_repeated_axis_point_rejected(self, fields, message):
        # Each repeat would rerun the same keyed trials as a second estimate,
        # or print rows that the CSV's six significant digits cannot tell apart.
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(**fields)

    def test_integer_fields_take_numpy_integers(self):
        counts = dict(n_users=12, n_meas=9, trials=8, master_seed=5, parallelism=2)
        cfg = small_config(**{name: np.int64(v) for name, v in counts.items()})
        assert {name: getattr(cfg, name) for name in counts} == counts
        assert all(type(getattr(cfg, name)) is int for name in counts)
        assert type(SolverConfig(max_iters=np.int32(7)).max_iters) is int

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

    def test_fixed_matrix_is_drawn_once_per_process(self, monkeypatch):
        harness._fixed_matrix.cache_clear()
        draws = []

        def counting(m, n, rng):
            draws.append((m, n))
            return gaussian_matrix(m, n, rng)

        monkeypatch.setattr(harness, "gaussian_matrix", counting)
        made = capture_instances(monkeypatch)
        cfg = small_config(fix_matrix=True)
        for axis_value in (10.0, 14.0):
            for i in range(3):
                run_trial(cfg, axis_value, i)
        assert draws == [(cfg.n_meas, cfg.n_users)]
        # The bits of a fresh draw from the matrix stream, substream(seed, 0).
        fresh = gaussian_matrix(cfg.n_meas, cfg.n_users, substream(cfg.master_seed, 0))
        shared = harness._fixed_matrix(cfg.master_seed, cfg.n_meas, cfg.n_users)
        assert shared.tobytes() == fresh.tobytes()
        assert len(made) == 6
        assert all(inst.S.tobytes() == fresh.tobytes() for inst in made)

    def test_one_gram_and_eigvalsh_per_trial(self, monkeypatch):
        made = capture_instances(monkeypatch)
        grams, eigs = count_spectral_work(monkeypatch)
        bounds = []  # (scale, L) for every L that a detector forms
        real_bound = optim.lipschitz_bound

        def recording_bound(scale, norm_sq):
            bounds.append((scale, real_bound(scale, norm_sq)))
            return bounds[-1][1]

        monkeypatch.setattr(optim, "lipschitz_bound", recording_bound)
        cfg = ExperimentConfig(
            n_users=100, n_meas=70, trials=1, rho=0.8, snr_db=12.0, master_seed=9,
            detectors=tuple(DetectorConfig(kind=k) for k in ("lmmse", "lasso", "map_soav")),
        )
        run_trial(cfg, 12.0, 0)
        (inst,) = made
        # lmmse, lasso and map_soav share one Gram and one eigenvalue solve.
        assert grams == [inst]
        assert len(eigs) == 1 and eigs[0] is inst.gram
        scales = [30.0, 1.0 / (2.0 * inst.sigma_w2)]
        assert [scale for scale, _ in bounds] == scales
        top = float(np.linalg.eigvalsh(inst.S @ inst.S.T)[-1])
        for scale, L in bounds:
            expected = lipschitz_bound(scale, top)
            assert np.float64(L).view(np.uint64) == np.float64(expected).view(np.uint64)

    def test_one_admm_factor_per_convex_trial(self, monkeypatch):
        made = capture_instances(monkeypatch)
        factors = []
        real_factor = model.SystemInstance.admm_factor.func

        def factor(self):
            factors.append(self)
            return real_factor(self)

        counting = functools.cached_property(factor)
        counting.__set_name__(model.SystemInstance, "admm_factor")
        monkeypatch.setattr(model.SystemInstance, "admm_factor", counting)

        def run(rho, *kinds):
            cfg = ExperimentConfig(
                n_users=100, n_meas=70, trials=1, rho=rho, snr_db=12.0, master_seed=9,
                detectors=tuple(DetectorConfig(kind=k) for k in kinds),
            )
            run_trial(cfg, 12.0, 0)
            return made[-1]

        # lasso and map_soav at a convex rho share one factor.
        convex = run(0.8, "lmmse", "lasso", "map_soav")
        assert factors == [convex]
        # No ADMM solve, no factor: lmmse alone, or map_soav at a nonconvex rho.
        run(0.8, "lmmse")
        run(0.2, "lmmse", "map_soav")
        assert len(made) == 3
        assert factors == [convex]

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
            inst = synthesize(prior, q, 1e-8, rng)
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
        assert result.detectors["lmmse"].error_ratio == record.error_counts["lmmse"] / cfg.n_users
        assert result.detectors["lmmse"].std_err == 0.0

    def test_mean_is_arithmetic_mean_of_trials(self, monkeypatch):
        # lasso fails on the trials whose y[0] is positive, for one of two
        # reasons; lmmse runs no solver, and map_soav never fails.
        real = harness.run_detector

        def flaky(instance, prior, config):
            if config.kind == "lasso" and instance.y[0] > 0:
                raise DivergenceError(f"injected {int(instance.y[1] > 0)}")
            return real(instance, prior, config)

        monkeypatch.setattr(harness, "run_detector", flaky)
        cfg = small_config(trials=6, snr_db=10.0)
        records = [run_trial(cfg, 10.0, i) for i in range(6)]
        result = run_sweep(cfg)[0]
        assert list(result.detectors) == ["lmmse", "lasso", "map_soav"]
        for kind, summary in result.detectors.items():
            ratios = [rec.error_counts[kind] / cfg.n_users for rec in records
                      if rec.error_counts[kind] is not None]
            assert summary.trials == len(ratios)
            assert abs(summary.error_ratio - np.mean(ratios)) < 1e-12
            assert summary.std_err == pytest.approx(
                np.std(ratios, ddof=1) / np.sqrt(len(ratios)), rel=1e-12)
            assert summary.failure_reasons == collections.Counter(
                rec.failure_reasons[kind] for rec in records if kind in rec.failure_reasons)
            solves = [rec.solves[kind] for rec in records if kind in rec.solves]
            if kind == "lmmse":
                assert summary.solver is None
                continue
            mean_iterations, cap_hits, median_residual = summary.solver
            assert mean_iterations == pytest.approx(np.mean([n for n, _, _ in solves]))
            assert cap_hits == sum(not done for _, done, _ in solves)
            assert median_residual == pytest.approx(np.median([r for _, _, r in solves]))
        lasso = result.detectors["lasso"]
        assert 0 < lasso.trials < cfg.trials
        assert len(lasso.failure_reasons) == 2
        assert sum(lasso.failure_reasons.values()) == cfg.trials - lasso.trials

    def test_parallelism_does_not_change_results(self):
        serial = run_sweep(small_config())
        parallel = run_sweep(small_config(parallelism=2))
        for a, b in zip(serial, parallel):
            assert a.detectors == b.detectors

    def test_parallelism_keeps_csv_bytes_at_paper_scale(self):
        # At N = 100, M = 70 LMMSE's 70x100x70 product is large enough for
        # OpenBLAS to split across threads. Both runs hold it to one thread:
        # the serial run in this process, the pooled run in each of its processes.
        def csv_text(parallelism):
            cfg = ExperimentConfig(
                n_users=100, n_meas=70, trials=3, rho=0.8, snr_db=(12.0, 16.0),
                master_seed=21, parallelism=parallelism,
            )
            buf = io.StringIO()
            emit_csv(run_sweep(cfg), buf)
            return buf.getvalue()

        assert csv_text(1) == csv_text(2)

    def test_uneven_shards_keep_csv_bytes(self):
        # 14 trials on 3 processes are shards of 5, 5 and 4; on 8, of 2 and 1.
        def csv_text(parallelism):
            buf = io.StringIO()
            emit_csv(run_sweep(small_config(trials=7, parallelism=parallelism)), buf)
            return buf.getvalue()

        serial = csv_text(1)
        assert [csv_text(p) for p in (2, 3, 8)] == [serial] * 3

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_pool_workers_run_one_blas_thread(self, monkeypatch, tmp_path, parallelism):
        functions = harness._blas_thread_functions()
        if functions is None:
            pytest.skip("numpy's BLAS exposes no known thread-count symbol")
        set_threads, get_threads = functions
        real_synthesize = harness.synthesize
        counter = itertools.count()

        # Each trial calls synthesize once, in the process that runs it.
        def reporting(*args, **kwargs):
            report = tmp_path / f"{os.getpid()}-{next(counter)}"
            report.write_text(str(get_threads()))
            return real_synthesize(*args, **kwargs)

        monkeypatch.setattr(harness, "synthesize", reporting)
        original = get_threads()
        set_threads(2)
        try:
            before = get_threads()
            run_sweep(small_config(parallelism=parallelism))
            after = get_threads()
        finally:
            set_threads(original)
        assert after == before
        reports = list(tmp_path.iterdir())
        assert len(reports) == 16
        # The sweep's own process runs one shard and forks a child per other.
        pids = {r.name.split("-")[0] for r in reports}
        assert len(pids) == parallelism and str(os.getpid()) in pids
        assert {r.read_text() for r in reports} == {"1"}

    def test_unknown_blas_leaves_the_thread_count_alone(self, monkeypatch):
        # numpy built against a BLAS without a known thread-count symbol.
        serial = csv_of(small_config())
        monkeypatch.setattr(harness, "_blas_thread_functions", lambda: None)
        assert csv_of(small_config(parallelism=2)) == serial

    def test_no_more_workers_than_trials(self, monkeypatch):
        # One trial leaves no work for a second process, so it runs in this
        # one, where the recording stand-in sees it.
        made = capture_instances(monkeypatch)
        run_sweep(small_config(trials=1, snr_db=10.0, parallelism=4))
        assert len(made) == 1

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

    def test_failed_detector_logged_excluded_and_counted(self, caplog, monkeypatch):
        # An absurdly small Lipschitz bound makes the solver diverge on
        # every trial; the sweep must survive, log it, and keep the mean of
        # the healthy detector untouched.
        tiny_spectral_bound(monkeypatch)
        doomed = DetectorConfig(
            kind="map_soav", solver=SolverConfig(max_iters=200, rel_tol=0.0))
        cfg = small_config(
            trials=3, snr_db=10.0, rho=0.2,
            detectors=(DetectorConfig(kind="lmmse"), doomed),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with caplog.at_level(logging.WARNING, logger="soavmud.harness"):
                results = run_sweep(cfg)
        res = results[0]
        assert cfg.trials - res.detectors["map_soav"].trials == 3
        assert np.isnan(res.detectors["map_soav"].error_ratio)
        assert cfg.trials - res.detectors["lmmse"].trials == 0
        assert np.isfinite(res.detectors["lmmse"].error_ratio)
        assert any("map_soav failed" in rec.getMessage() for rec in caplog.records)
        buf = io.StringIO()
        emit_csv(results, buf)
        text = buf.getvalue()
        assert "snr_db,10,map_soav,0,nan,nan,5" in text
        expected = [
            "# failures snr_db=10 map_soav: 3",
            "# failure_reason snr_db=10 map_soav: 3 x DivergenceError: solver produced a"
            " non-finite iterate",
        ]
        assert [l for l in text.splitlines() if l.startswith("# failure")] == expected
        # The reasons come from the trial records, so no process count changes them.
        for parallelism in (2, 3):
            with np.errstate(over="ignore", invalid="ignore"):
                pooled = csv_of(dataclasses.replace(cfg, parallelism=parallelism))
            assert [l for l in pooled.splitlines() if l.startswith("# failure")] == expected


class TestTrialError:
    """A non-recoverable exception names the trial that raised it."""

    @staticmethod
    def fail_at(monkeypatch, cfg, *trials):
        """Make run_detector raise on the realizations of the (axis value, trial
        index) pairs ``trials`` only."""
        made = capture_instances(monkeypatch)
        for axis_value, trial_index in trials:
            run_trial(cfg, axis_value, trial_index)
        targets = [instance.y for instance in made]
        real = harness.run_detector

        def failing(instance, prior, config):
            if any(np.array_equal(instance.y, target) for target in targets):
                raise RuntimeError("injected fault")
            return real(instance, prior, config)

        # Forked children inherit the patched module attribute.
        monkeypatch.setattr(harness, "run_detector", failing)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_sweep_names_the_failing_trial(self, monkeypatch, parallelism):
        cfg = small_config(parallelism=parallelism)
        self.fail_at(monkeypatch, cfg, (14.0, 5))
        with pytest.raises(TrialError) as info:
            run_sweep(cfg)
        err = info.value
        assert (err.master_seed, err.axis, err.axis_value, err.trial_index) == (
            5, "snr_db", 14.0, 5)
        assert "RuntimeError: injected fault" in str(err)
        assert "trial 5 at snr_db=14.0 with master_seed=5" in str(err)

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_earliest_of_two_failing_trials_is_named(self, monkeypatch, parallelism):
        # Sweep positions 3 and 8 of 16. On 2 processes 3 is a child's and 8
        # the sweep process's own; on 3 processes it is the other way round.
        cfg = small_config(parallelism=parallelism)
        self.fail_at(monkeypatch, cfg, (10.0, 3), (14.0, 0))
        with pytest.raises(TrialError) as info:
            run_sweep(cfg)
        assert (info.value.axis_value, info.value.trial_index) == (10.0, 3)

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_details_are_the_traceback_of_the_cause(self, monkeypatch, parallelism):
        # Position 13 of 16: the sweep process's own at 1 process, a child's at 2 and 3.
        cfg = small_config(parallelism=parallelism)
        self.fail_at(monkeypatch, cfg, (14.0, 5))
        with pytest.raises(TrialError) as direct:
            run_trial(cfg, 14.0, 5)
        cause = direct.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert direct.value.details == "".join(traceback.format_exception(cause))
        with pytest.raises(TrialError) as info:
            run_sweep(cfg)
        assert info.value.details == direct.value.details

    def test_run_trial_replays_it(self, monkeypatch):
        cfg = small_config()
        self.fail_at(monkeypatch, cfg, (14.0, 5))
        run_trial(cfg, 14.0, 4)
        with pytest.raises(TrialError, match="trial 5 at snr_db=14.0"):
            run_trial(cfg, 14.0, 5)

    def test_recoverable_failures_are_not_trial_errors(self, monkeypatch):
        tiny_spectral_bound(monkeypatch)
        doomed = DetectorConfig(kind="map_soav", solver=SolverConfig(max_iters=50, rel_tol=0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            record = run_trial(small_config(rho=0.2, detectors=(doomed,)), 10.0, 0)
        assert record.error_counts == {"map_soav": None}
        assert record.solves == {}


class TestForkJoin:
    """However a pooled sweep ends, it leaves no child process behind."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_child(self, monkeypatch):
        sweep_pid = os.getpid()
        real = harness.run_trial

        def dying(config, axis_value, trial_index):
            if os.getpid() != sweep_pid and trial_index == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, axis_value, trial_index)

        monkeypatch.setattr(harness, "run_trial", dying)
        with pytest.raises(ChildProcessError, match="SIGKILL .* master_seed=5; no results"):
            run_sweep(small_config(parallelism=3))
        self.assert_no_child_left()

    @pytest.mark.parametrize("trial", [(10.0, 0), (14.0, 5)], ids=["own-shard", "child-shard"])
    def test_trial_error(self, monkeypatch, trial):
        cfg = small_config(parallelism=2)
        TestTrialError.fail_at(monkeypatch, cfg, trial)
        with pytest.raises(TrialError):
            run_sweep(cfg)
        self.assert_no_child_left()

    def test_interrupted_own_shard(self, monkeypatch):
        # An exception that is no TrialError ends the sweep at once: the
        # children still running are killed.
        class Interrupt(BaseException):
            pass

        sweep_pid = os.getpid()
        real = harness.run_trial

        def interrupted(config, axis_value, trial_index):
            if os.getpid() == sweep_pid:
                raise Interrupt
            return real(config, axis_value, trial_index)

        monkeypatch.setattr(harness, "run_trial", interrupted)
        with pytest.raises(Interrupt):
            run_sweep(small_config(parallelism=3))
        self.assert_no_child_left()

    def test_child_trial_error_pickles_with_its_details(self, monkeypatch):
        # A traceback does not pickle, so a child's error arrives without a
        # __cause__ and with the text of the cause's traceback as details.
        cfg = small_config(parallelism=2)
        TestTrialError.fail_at(monkeypatch, cfg, (14.0, 5))
        with pytest.raises(TrialError) as info:
            run_sweep(cfg)
        err = info.value
        assert err.__cause__ is None
        assert err.details.startswith("Traceback (most recent call last):\n")
        assert err.details.endswith("RuntimeError: injected fault\n")
        again = pickle.loads(pickle.dumps(err))
        assert (again.args, again.details, str(again)) == (err.args, err.details, str(err))


class TestSolverMetadata:
    """Mean iterations and cap hits per solver detector and axis point."""

    @staticmethod
    def solver_lines(cfg):
        buf = io.StringIO()
        emit_csv(run_sweep(cfg), buf)
        return [l for l in buf.getvalue().splitlines() if l.startswith("# solver")]

    def test_lines_recount_the_trial_records(self):
        # At the default budget every 8 x 6 solve stops early on its polish;
        # at 40 iterations some stop and some hit the cap.
        solver = SolverConfig(max_iters=40)
        cfg = small_config(n_users=8, n_meas=6, detectors=(
            DetectorConfig(kind="lmmse"), DetectorConfig(kind="lasso", solver=solver),
            DetectorConfig(kind="map_soav", solver=solver)))
        expected = []
        for value in cfg.axis_points:
            records = [run_trial(cfg, value, i) for i in range(cfg.trials)]
            for kind in ("lasso", "map_soav"):
                iters = [rec.solves[kind][0] for rec in records]
                capped = sum(not rec.solves[kind][1] for rec in records)
                residual = np.median([rec.solves[kind][2] for rec in records])
                expected.append(
                    f"# solver snr_db={value:g} {kind}: mean_iterations="
                    f"{np.mean(iters):.6g} cap_hits={capped}/{cfg.trials}"
                    f" median_residual={residual:.2g}"
                )
        lines = self.solver_lines(cfg)
        assert lines == expected
        # The small system converges on some trials and not on others here.
        caps = [int(l.split("cap_hits=")[1].split("/")[0]) for l in lines]
        assert 0 < sum(caps) < len(caps) * cfg.trials

    def test_no_early_stop_hits_the_cap_every_time(self):
        solver = SolverConfig(max_iters=40, rel_tol=0.0)
        cfg = small_config(trials=3, snr_db=10.0, detectors=(
            DetectorConfig(kind="lmmse"), DetectorConfig(kind="lasso", solver=solver)))
        residual = np.median([run_trial(cfg, 10.0, i).solves["lasso"][2] for i in range(3)])
        assert residual > 0.0
        assert self.solver_lines(cfg) == [
            "# solver snr_db=10 lasso: mean_iterations=40 cap_hits=3/3"
            f" median_residual={residual:.2g}"]

    def test_failed_solves_are_left_out(self, monkeypatch):
        tiny_spectral_bound(monkeypatch)
        doomed = DetectorConfig(kind="map_soav", solver=SolverConfig(max_iters=50, rel_tol=0.0))
        cfg = small_config(trials=2, snr_db=10.0, rho=0.2, detectors=(doomed,))
        with np.errstate(over="ignore", invalid="ignore"):
            lines = self.solver_lines(cfg)
        assert lines == []

    def test_lines_do_not_depend_on_worker_count(self):
        cfg = small_config(n_users=8, n_meas=6)
        assert self.solver_lines(cfg) == self.solver_lines(small_config(
            n_users=8, n_meas=6, parallelism=2))


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
            results[0].detectors["lmmse"].error_ratio, rel=1e-5
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

    def test_failure_reasons_one_line_each_in_reason_order(self, monkeypatch):
        # Serial, so the calls come in trial order: trial 0 fails one way,
        # trials 1 and 2 another, with a reason that spans two lines.
        faults = iter([np.linalg.LinAlgError("Singular matrix"),
                       DivergenceError("first line\nsecond line"),
                       DivergenceError("first line\nsecond line")])

        def failing(instance, prior, config):
            raise next(faults)

        monkeypatch.setattr(harness, "run_detector", failing)
        cfg = small_config(trials=3, snr_db=10.0, detectors=(DetectorConfig(kind="lasso"),))
        lines = [l for l in csv_of(cfg).splitlines() if l.startswith("# failure")]
        assert lines == [
            "# failures snr_db=10 lasso: 3",
            "# failure_reason snr_db=10 lasso: 2 x DivergenceError: first line second line",
            "# failure_reason snr_db=10 lasso: 1 x LinAlgError: Singular matrix",
        ]

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([], io.StringIO())

    def test_unwritable_destination_raises(self, tmp_path):
        cfg = small_config(trials=1, snr_db=10.0,
                           detectors=(DetectorConfig(kind="lmmse"),))
        results = run_sweep(cfg)
        with pytest.raises(OSError):
            emit_csv(results, tmp_path / "missing-dir" / "out.csv")
