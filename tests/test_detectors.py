"""Tests for the four detectors and the ternary quantizer."""

import itertools
import re

import numpy as np
import pytest

from oracles import (
    exhaustive_map_reference,
    map_lattice_objective,
    noiseless_instance,
    soft_threshold,
)
from soavmud import detectors
from soavmud.detectors import (
    DetectorConfig,
    EnumerationBoundError,
    exhaustive_map,
    lasso,
    lmmse,
    map_soav,
    run_detector,
    threshold_map,
)
from soavmud.harness import ExperimentConfig, run_sweep
from soavmud.model import (
    SymbolPrior,
    SystemInstance,
    bpsk_prior,
    gaussian_matrix,
    substream,
    synthesize,
)
from soavmud.optim import SolverConfig, admm, fista
from soavmud.soav import default_offset, soav_objective, solve_weights, ternary_prox

BINARY = SymbolPrior(alphabet=(-1.0, 1.0), probs=(0.5, 0.5))  # rho -> 0 limit


def scalar_instance(y, sigma_w2=1.0, b=1.0):
    return SystemInstance(S=[[1.0]], sigma_w2=sigma_w2, b=[b], w=[0.0], y=[y])


class TestThresholdMap:
    def test_half_open_boundaries(self):
        raw = [-0.51, -0.5, 0.49, 0.5]
        np.testing.assert_array_equal(threshold_map(raw, 0.5), [-1, 0, 0, 1])

    def test_zero_vector_maps_to_zero(self):
        np.testing.assert_array_equal(threshold_map(np.zeros(5), 0.5), np.zeros(5))

    def test_lattice_points_are_fixed(self):
        lattice = np.array([-1.0, 0.0, 1.0, 1.0, -1.0])
        np.testing.assert_array_equal(threshold_map(lattice, 0.5), lattice)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-2, 2, size=300)
        once = threshold_map(raw, 0.5)
        np.testing.assert_array_equal(threshold_map(once, 0.5), once)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            threshold_map([0.0], 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_rejects_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            threshold_map([0.3, 2.0], alpha)


class TestLmmse:
    def test_scalar_formula(self):
        result = lmmse(scalar_instance(y=1.0), BINARY)
        assert result.raw[0] == pytest.approx(0.5, rel=1e-12)

    def test_huge_noise_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        prior = bpsk_prior(0.5)
        inst = synthesize(prior, gaussian_matrix(7, 10, rng), 1e6, rng)
        result = lmmse(inst, prior)
        assert np.linalg.norm(result.raw) < 1e-3 * np.linalg.norm(inst.y)

    def test_orthonormal_rows_low_noise_limit(self):
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        S = q[:6]
        inst = noiseless_instance(BINARY, S, 1e-6, rng)
        result = lmmse(inst, BINARY)
        np.testing.assert_allclose(result.raw, S.T @ inst.y, atol=1e-4)

    def test_raw_output_linear_in_y(self):
        rng = np.random.default_rng(3)
        prior = bpsk_prior(0.8)
        S = gaussian_matrix(7, 10, rng)
        base = synthesize(prior, S, 0.3, rng)
        y1 = rng.standard_normal(7)
        y2 = rng.standard_normal(7)

        def raw_for(y):
            inst = SystemInstance(S=S, sigma_w2=0.3, b=base.b, w=base.w, y=y)
            return lmmse(inst, prior).raw

        np.testing.assert_allclose(
            raw_for(y1 + y2), raw_for(y1) + raw_for(y2), atol=1e-10
        )


class TestLasso:
    def test_zero_measurement_returns_zero(self):
        inst = SystemInstance(S=np.eye(4), sigma_w2=1.0, b=np.ones(4), w=np.zeros(4),
                              y=np.zeros(4))
        result = lasso(inst, DetectorConfig(kind="lasso"))
        np.testing.assert_array_equal(result.raw, np.zeros(4))

    def test_scalar_subgradient_solution(self):
        # min 0.5 (2 - x)^2 + |x|: stationarity at x = 1.
        result = lasso(scalar_instance(y=2.0), DetectorConfig(kind="lasso", lam=0.5))
        assert result.raw[0] == pytest.approx(1.0, abs=1e-6)

    def test_beats_random_probes(self):
        rng = np.random.default_rng(4)
        prior = bpsk_prior(0.8)
        inst = synthesize(prior, gaussian_matrix(7, 10, rng), 0.05, rng)
        config = DetectorConfig(kind="lasso")
        result = lasso(inst, config)

        def objective(x):
            resid = inst.y - inst.S @ x
            return config.lam * float(resid @ resid) + float(np.abs(x).sum())

        best_probe = min(
            objective(rng.uniform(-1.5, 1.5, size=10)) for _ in range(10_000)
        )
        assert objective(result.raw) <= best_probe + 1e-9


def sweep_instance(seed, axis_value, trial, rho, snr_db, n=100, m=70):
    """The realization run_trial draws for one simulate trial."""
    rng = substream(seed, float(axis_value), trial)
    sigma_w2 = n * (1.0 - rho) / m * 10.0 ** (-snr_db / 10.0)
    return synthesize(bpsk_prior(rho), gaussian_matrix(m, n, rng), sigma_w2, rng)


class TestLassoIsSoftThresholdFista:
    """lasso runs ADMM with the ternary prox at q = (0, 1, 0); it must solve as
    ADMM with the soft threshold does."""

    @staticmethod
    def soft_threshold_solve(inst, config):
        return admm(inst, lambda gamma: lambda z: soft_threshold(z, gamma), config.lam,
                    config.solver)

    def assert_same_solve(self, inst, config):
        result = lasso(inst, config)
        ref = self.soft_threshold_solve(inst, config)
        # == treats +0.0 and -0.0 as equal; the bytes may differ only there.
        np.testing.assert_array_equal(result.raw, ref.solution)
        assert result.diagnostics.iterations == ref.iterations
        assert result.diagnostics.converged == ref.converged
        assert result.diagnostics.residual == ref.residual
        np.testing.assert_array_equal(
            result.decided, threshold_map(ref.solution, config.alpha)
        )
        differ = result.raw.view(np.uint64) != ref.solution.view(np.uint64)
        assert np.all(result.raw[differ] == 0.0)
        return result

    @pytest.mark.parametrize("rho, snr_db", [(0.8, 12.0), (0.8, 16.0), (0.05, 12.0), (0.2, 10.0)])
    def test_paper_scale_regimes(self, rho, snr_db):
        config = DetectorConfig(kind="lasso")
        for trial in range(25):
            self.assert_same_solve(sweep_instance(7, snr_db, trial, rho, snr_db), config)

    def test_early_stop_before_the_cap(self):
        # simulate --users 20 --meas 14 --rho 0.8 --snr 14 --seed 1, trial 141:
        # the residual test fires at iteration 220 of 500.
        inst = sweep_instance(1, 14.0, 141, 0.8, 14.0, n=20, m=14)
        result = self.assert_same_solve(inst, DetectorConfig(kind="lasso"))
        assert result.diagnostics.converged
        assert result.diagnostics.iterations < SolverConfig().max_iters


class TestNonconvexMapSoavIsFista:
    """At rho 0.3 and below the middle SOAV weight is negative, and map_soav runs fista."""

    @pytest.mark.parametrize("rho", [0.05, 0.2, 0.3])
    def test_bit_for_bit_a_direct_fista_call(self, rho):
        prior = bpsk_prior(rho)
        weights = solve_weights(prior, default_offset(prior))
        assert not weights.convex
        config = DetectorConfig(kind="map_soav")
        for trial in range(10):
            inst = sweep_instance(11, rho, trial, rho, 12.0)
            ref = fista(inst, lambda gamma: ternary_prox(gamma, weights),
                        1.0 / (2.0 * inst.sigma_w2), config.solver)
            result = map_soav(inst, prior, config)
            assert result.raw.tobytes() == ref.solution.tobytes()
            assert (result.diagnostics.iterations, result.diagnostics.converged,
                    result.diagnostics.residual) == (ref.iterations, ref.converged, ref.residual)


class TestMapSoav:
    def test_near_exact_recovery_orthonormal(self):
        prior = bpsk_prior(0.8)
        config = DetectorConfig(kind="map_soav")
        for trial in range(100):
            rng = substream(777, trial)
            q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            inst = noiseless_instance(prior, q, 1e-6, rng)
            result = map_soav(inst, prior, config)
            np.testing.assert_array_equal(result.decided, inst.b)

    def test_zero_measurement_symmetric_weights_fixed_point(self):
        prior = bpsk_prior(0.8)
        inst = SystemInstance(S=np.eye(6), sigma_w2=0.5, b=np.ones(6), w=np.zeros(6),
                              y=np.zeros(6))
        result = map_soav(inst, prior, DetectorConfig(kind="map_soav"))
        np.testing.assert_array_equal(result.raw, np.zeros(6))

    def test_paired_trials_beat_lasso_on_sparse_prior(self):
        # 500 paired realizations at N=10, M=7, rho=0.8, SNR 14 dB.
        prior = bpsk_prior(0.8)
        sigma_w2 = 10 * 0.2 / 7 * 10 ** (-1.4)
        soav_cfg = DetectorConfig(kind="map_soav")
        lasso_cfg = DetectorConfig(kind="lasso")
        soav_errors = lasso_errors = 0
        for trial in range(500):
            rng = substream(4242, trial)
            inst = synthesize(prior, gaussian_matrix(7, 10, rng), sigma_w2, rng)
            soav_errors += np.count_nonzero(
                map_soav(inst, prior, soav_cfg).decided != inst.b
            )
            lasso_errors += np.count_nonzero(
                lasso(inst, lasso_cfg).decided != inst.b
            )
        assert soav_errors < lasso_errors

    def test_rejects_non_ternary_prior(self):
        from soavmud.soav import UnsupportedAlphabetError

        inst = scalar_instance(y=0.5)
        with pytest.raises(UnsupportedAlphabetError):
            map_soav(inst, BINARY, DetectorConfig(kind="map_soav"))


class TestExhaustiveMap:
    def test_three_candidate_hand_enumeration(self):
        prior = bpsk_prior(0.8)
        inst = scalar_instance(y=0.9, sigma_w2=0.1)
        logp = np.log(prior.probs)

        def by_hand(x):
            mismatch = sum(lp for r, lp in zip(prior.alphabet, logp) if x != r)
            return (0.9 - x) ** 2 / (2 * 0.1) + mismatch

        values = {x: by_hand(x) for x in (-1.0, 0.0, 1.0)}
        winner = min(values, key=values.get)
        result = exhaustive_map(inst, prior)
        assert result.decided[0] == winner == 1.0

    def test_noiseless_injective_recovers_exactly(self):
        prior = bpsk_prior(0.5)
        rng = np.random.default_rng(8)
        S = gaussian_matrix(8, 8, rng)
        inst = noiseless_instance(prior, S, 0.01, rng)
        result = exhaustive_map(inst, prior)
        np.testing.assert_array_equal(result.decided, inst.b)

    def test_minimizes_over_full_lattice(self):
        from itertools import product

        prior = bpsk_prior(0.7)
        rng = np.random.default_rng(9)
        inst = synthesize(prior, gaussian_matrix(5, 6, rng), 0.2, rng)
        result = exhaustive_map(inst, prior)
        args = (inst.S, inst.y, inst.sigma_w2, prior.alphabet, prior.probs)
        best = map_lattice_objective(result.decided, *args)
        for combo in product(prior.alphabet, repeat=6):
            assert best <= map_lattice_objective(np.array(combo), *args) + 1e-9

    def test_dropping_constant_terms_keeps_argmin(self):
        # The per-candidate prior term differs from -sum_n log p(x_n) by a
        # constant, so both rankings must select the same lattice vector.
        from itertools import product

        prior = bpsk_prior(0.7)
        rng = np.random.default_rng(10)
        inst = synthesize(prior, gaussian_matrix(5, 6, rng), 0.2, rng)
        logp = dict(zip(prior.alphabet, np.log(prior.probs)))

        def reduced(x):
            resid = inst.y - inst.S @ np.asarray(x)
            return float(resid @ resid) / (2 * inst.sigma_w2) - sum(
                logp[v] for v in x
            )

        lattice = list(product(prior.alphabet, repeat=6))
        args = (inst.S, inst.y, inst.sigma_w2, prior.alphabet, prior.probs)
        full_argmin = min(lattice, key=lambda x: map_lattice_objective(np.array(x), *args))
        reduced_argmin = min(lattice, key=reduced)
        assert full_argmin == reduced_argmin

    def test_enumeration_bound_guard(self):
        prior = bpsk_prior(0.5)
        rng = np.random.default_rng(11)
        inst = synthesize(prior, gaussian_matrix(4, 16, rng), 0.1, rng)
        with pytest.raises(EnumerationBoundError):
            exhaustive_map(inst, prior)

    @staticmethod
    def product_argmin(inst, prior):
        """The first minimizer of map_lattice_objective over itertools.product."""
        lattice = itertools.product(prior.alphabet, repeat=inst.n_users)
        args = (inst.S, inst.y, inst.sigma_w2, prior.alphabet, prior.probs)
        return np.array(min(lattice, key=lambda x: map_lattice_objective(np.array(x), *args)))

    def assert_matches_references(self, result, inst, prior):
        reference = exhaustive_map_reference(inst.S, inst.y, inst.sigma_w2, prior.alphabet,
                                             prior.probs)
        assert result.raw.tobytes() == reference.tobytes()
        assert result.decided.tobytes() == reference.tobytes()
        np.testing.assert_array_equal(result.decided, self.product_argmin(inst, prior))

    def test_repeated_calls_and_instances_match_uncached_references(self):
        # The lattice is built once per (N, prior); each instance must still
        # get its own argmin, on every call.
        prior = bpsk_prior(0.6)
        rng = np.random.default_rng(21)
        instances = [synthesize(prior, gaussian_matrix(4, 5, rng), 0.3, rng)
                     for _ in range(4)]
        for inst in instances + instances[::-1]:
            self.assert_matches_references(exhaustive_map(inst, prior), inst, prior)

    def test_lattice_of_many_blocks(self, monkeypatch):
        # 3^6 = 729 candidates in blocks of 7: 105 blocks, each a cache miss.
        monkeypatch.setattr(detectors, "_ENUMERATION_BLOCK", 7)
        prior = bpsk_prior(0.7)
        rng = np.random.default_rng(22)
        for _ in range(3):
            inst = synthesize(prior, gaussian_matrix(5, 6, rng), 0.2, rng)
            self.assert_matches_references(exhaustive_map(inst, prior), inst, prior)

    @pytest.mark.parametrize("block", [7, 2**15], ids=["many-blocks", "one-block"])
    def test_exact_tie_keeps_the_earliest_candidate(self, monkeypatch, block):
        # User 0's column of S is zero, so flipping its -1 to +1 changes no residual,
        # and at rho 0.2 P(-1) = P(+1): the two best candidates tie exactly
        # (every product and sum below is exact). They lie 2 * 3^5 codes apart,
        # so blocks of 7 put them in different blocks. The earlier one, with
        # -1, must win either way.
        monkeypatch.setattr(detectors, "_ENUMERATION_BLOCK", block)
        prior = bpsk_prior(0.2)
        S = np.array([[0.0, -1.0, 1.0, 1.0, -1.0, 1.0],
                      [0.0, 1.0, -1.0, 1.0, 1.0, -1.0],
                      [0.0, 1.0, 1.0, -1.0, 1.0, 1.0],
                      [0.0, 1.0, 1.0, -1.0, -1.0, -1.0]])
        inst = SystemInstance(S=S, sigma_w2=0.5, b=np.zeros(6), w=np.zeros(4),
                              y=[1.5, -0.5, 2.0, -1.0])
        result = exhaustive_map(inst, prior)
        assert result.decided[0] == -1.0
        flipped = result.decided.copy()
        flipped[0] = 1.0
        logp = np.log(prior.probs)
        terms = [(inst.y - inst.S @ x, logp[np.searchsorted(prior.alphabet, x)].sum())
                 for x in (result.decided, flipped)]
        assert terms[0][0].tobytes() == terms[1][0].tobytes()
        assert terms[0][1] == terms[1][1]
        # The oracle objective sums its prior term in the same order, so it
        # ties the two exactly and its first minimizer is the -1 candidate too.
        args = (inst.S, inst.y, inst.sigma_w2, prior.alphabet, prior.probs)
        assert map_lattice_objective(result.decided, *args) == map_lattice_objective(flipped,
                                                                                     *args)
        np.testing.assert_array_equal(self.product_argmin(inst, prior), result.decided)
        reference = exhaustive_map_reference(inst.S, inst.y, inst.sigma_w2, prior.alphabet,
                                             prior.probs)
        assert result.raw.tobytes() == reference.tobytes()

    def test_cached_block_is_read_only(self):
        prior = bpsk_prior(0.8)
        rng = np.random.default_rng(23)
        inst = synthesize(prior, gaussian_matrix(3, 4, rng), 0.1, rng)
        result = exhaustive_map(inst, prior)
        logp = tuple(np.log(prior.probs).tolist())
        X, prior_term = detectors._lattice_block(4, tuple(prior.alphabet.tolist()), logp, 0, 81)
        assert X.shape == (81, 4) and prior_term.shape == (81,)
        for arr in (X, prior_term):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # The result is a copy, so a caller may change it.
        assert result.raw.flags.writeable and result.decided.flags.writeable

    def test_one_cache_miss_per_lattice_over_a_sweep(self):
        # Each rho is another prior, so another lattice: 2 misses in 2 x 5 trials.
        config = ExperimentConfig(n_users=6, n_meas=5, trials=5, rho=(0.2, 0.8), snr_db=None,
                                  sigma_w2_override=0.1,
                                  detectors=(DetectorConfig(kind="exhaustive_map"),))
        detectors._lattice_block.cache_clear()
        run_sweep(config)
        info = detectors._lattice_block.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 8, 1)


class TestCommonContracts:
    def test_all_decisions_live_on_the_alphabet(self):
        prior = bpsk_prior(0.8)
        rng = np.random.default_rng(12)
        inst = synthesize(prior, gaussian_matrix(6, 8, rng), 0.1, rng)
        for kind in ("lmmse", "lasso", "map_soav", "exhaustive_map"):
            result = run_detector(inst, prior, DetectorConfig(kind=kind))
            assert np.all(np.isin(result.decided, prior.alphabet))

    def test_dispatch_matches_direct_calls(self):
        prior = bpsk_prior(0.8)
        rng = np.random.default_rng(13)
        inst = synthesize(prior, gaussian_matrix(6, 8, rng), 0.1, rng)
        config = DetectorConfig(kind="lmmse")
        np.testing.assert_array_equal(
            run_detector(inst, prior, config).raw, lmmse(inst, prior).raw
        )

    def test_solver_iterations_respect_budget(self):
        prior = bpsk_prior(0.8)
        rng = np.random.default_rng(14)
        inst = synthesize(prior, gaussian_matrix(6, 8, rng), 0.1, rng)
        config = DetectorConfig(
            kind="map_soav", solver=SolverConfig(max_iters=37, rel_tol=0.0)
        )
        result = map_soav(inst, prior, config)
        assert result.diagnostics.iterations == 37

    def test_soav_solution_objective_not_worse_than_truth(self):
        prior = bpsk_prior(0.8)
        weights = solve_weights(prior, default_offset(prior))
        rng = np.random.default_rng(15)
        inst = synthesize(prior, gaussian_matrix(14, 20, rng), 0.05, rng)
        result = map_soav(inst, prior, DetectorConfig(kind="map_soav"))
        assert soav_objective(result.raw, inst, weights) <= soav_objective(
            inst.b, inst, weights
        ) + 1e-6

    @pytest.mark.parametrize("value", [True, "30"], ids=["bool", "string"])
    @pytest.mark.parametrize("name", ["lam", "alpha", "offset"])
    def test_config_number_field_rejects_non_number(self, name, value):
        # Before, True was taken as 1 and "30" raised a bare TypeError.
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
            DetectorConfig(kind="lasso", **{name: value})

    def test_config_stores_numbers_as_floats(self):
        config = DetectorConfig(kind="lasso", lam=30, alpha=np.float32(0.25), offset=np.int64(7))
        assert (config.lam, config.alpha, config.offset) == (30.0, 0.25, 7.0)
        assert all(type(v) is float for v in (config.lam, config.alpha, config.offset))

    def test_config_solver_rejects_non_solver_config(self):
        # Before, the dict was accepted and run_sweep failed at trial 0 with
        # "'dict' object has no attribute 'rel_tol'".
        message = "solver must be a SolverConfig, got {'max_iters': 5}"
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectorConfig(kind="lasso", solver={"max_iters": 5})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig(kind="zf")
        with pytest.raises(ValueError):
            DetectorConfig(kind="lasso", lam=0.0)
        with pytest.raises(ValueError):
            DetectorConfig(kind="lmmse", alpha=1.0)
