"""Tests for the quadratic term, Lipschitz estimation, and the FISTA solver."""

import numpy as np
import pytest

from oracles import (
    central_difference_gradient,
    fista_reference,
    power_iteration_lipschitz,
    prox_vector_exhaustive,
    soav_objective_ref,
    soav_prox_gradient_oracle,
    ternary_prox_cascade,
)
from soavmud.model import bpsk_prior, gaussian_matrix, synthesize
from soavmud.optim import (
    DegenerateOperatorError,
    QuadraticData,
    SolverConfig,
    estimate_lipschitz,
    fista,
    gradient,
    soft_threshold,
)
from soavmud.soav import default_offset, prox_vector, soav_penalty, solve_weights

TERNARY = (-1.0, 0.0, 1.0)


def make_soav_problem(seed, n=20, m=14, rho=0.8, snr_db=8.0):
    """Random convex composite instance plus its prox and penalty callables."""
    prior = bpsk_prior(rho)
    rng = np.random.default_rng(seed)
    sigma_w2 = n * (1 - rho) / m * 10.0 ** (-snr_db / 10.0)
    inst = synthesize(prior, gaussian_matrix(m, n, rng), np.ones(n), sigma_w2, rng)
    weights = solve_weights(prior, default_offset(prior))
    data = QuadraticData(B=inst.mix, y=inst.y, scale=1.0 / (2.0 * sigma_w2))

    def prox(z, gamma):
        return prox_vector(z, gamma, weights)

    def penalty(x):
        return soav_penalty(x, weights)

    return inst, data, weights, prox, penalty


class TestGradient:
    def test_zero_at_consistent_point(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        data = QuadraticData(B=B, y=B @ x, scale=0.5)
        np.testing.assert_allclose(gradient(data, x), np.zeros(5), atol=1e-12)

    def test_identity_quadratic(self):
        data = QuadraticData(B=np.eye(4), y=np.zeros(4), scale=0.5)
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(gradient(data, x), x)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        data = QuadraticData(B=rng.standard_normal((7, 5)), y=rng.standard_normal(7),
                             scale=1.7)
        x = rng.standard_normal(5)
        numeric = central_difference_gradient(data.value, x)
        analytic = gradient(data, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)

    def test_standing_property_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            data = QuadraticData(B=rng.standard_normal((m, n)),
                                 y=rng.standard_normal(m),
                                 scale=float(rng.uniform(0.1, 5.0)))
            x = rng.standard_normal(n)
            numeric = central_difference_gradient(data.value, x)
            np.testing.assert_allclose(gradient(data, x), numeric, rtol=1e-5, atol=1e-5)

    def test_dimension_mismatch(self):
        data = QuadraticData(B=np.eye(3), y=np.zeros(3), scale=1.0)
        with pytest.raises(ValueError):
            gradient(data, np.zeros(4))


class TestEstimateLipschitz:
    def test_identity_operator(self):
        data = QuadraticData(B=np.eye(6), y=np.zeros(6), scale=0.5)
        assert estimate_lipschitz(data) == pytest.approx(1.01, rel=1e-6)

    def test_diagonal_spectrum(self):
        data = QuadraticData(B=np.diag([3.0, 1.0]), y=np.zeros(2), scale=0.5)
        assert estimate_lipschitz(data) == pytest.approx(9.09, rel=1e-6)

    def test_random_wide_matrix_against_svd(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((70, 100))
        data = QuadraticData(B=B, y=np.zeros(70), scale=0.25)
        exact = 2.0 * 0.25 * np.linalg.svd(B, compute_uv=False)[0] ** 2
        estimate = estimate_lipschitz(data)
        assert exact <= estimate <= 1.011 * exact

    def test_zero_operator_rejected(self):
        data = QuadraticData(B=np.zeros((3, 3)), y=np.zeros(3), scale=1.0)
        with pytest.raises(DegenerateOperatorError):
            estimate_lipschitz(data)


class TestSoftThreshold:
    def test_zero_input(self):
        assert soft_threshold(0.0, 0.7) == 0.0

    def test_textbook_shrinkage(self):
        assert soft_threshold(2.0, 0.5) == 1.5
        assert soft_threshold(-2.0, 0.5) == -1.5

    def test_matches_general_prox_with_single_point(self):
        v = np.linspace(-3.0, 3.0, 601)
        np.testing.assert_allclose(
            soft_threshold(v, 0.35),
            prox_vector_exhaustive(v, 1.0, (0.35,), (0.0,)),
            atol=1e-12,
        )

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)


class TestFista:
    def test_unconstrained_quadratic_converges_to_data(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(8)
        data = QuadraticData(B=np.eye(8), y=y, scale=0.5)
        report = fista(data, prox=lambda z, g: z,
                       config=SolverConfig(max_iters=200, rel_tol=0.0))
        assert report.iterations <= 200
        np.testing.assert_allclose(report.solution, y, atol=1e-8)

    def test_scalar_lasso_soft_threshold_solution(self):
        # min 0.5 (2 - x)^2 + 0.5 |x| has the closed-form solution 1.5.
        data = QuadraticData(B=np.eye(1), y=np.array([2.0]), scale=0.5)
        report = fista(
            data,
            prox=lambda z, g: soft_threshold(z, 0.5 * g),
            config=SolverConfig(max_iters=500, rel_tol=1e-12),
            penalty=lambda x: 0.5 * float(np.abs(x).sum()),
        )
        assert report.solution[0] == pytest.approx(1.5, abs=1e-6)

    def test_matches_long_run_unaccelerated_oracle(self):
        inst, data, weights, prox, penalty = make_soav_problem(seed=100)
        lipschitz = estimate_lipschitz(data)
        config = SolverConfig(lipschitz=lipschitz, max_iters=2000, rel_tol=1e-14)
        report = fista(data, prox=prox, config=config, penalty=penalty)
        oracle_x = soav_prox_gradient_oracle(
            inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY, lipschitz, iters=50_000
        )
        oracle_f = soav_objective_ref(
            oracle_x, inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY
        )
        assert report.final_objective <= oracle_f + 1e-5 * abs(oracle_f)

    def test_fixed_point_residual_of_solution(self):
        _, data, _, prox, penalty = make_soav_problem(seed=101)
        lipschitz = estimate_lipschitz(data)
        config = SolverConfig(lipschitz=lipschitz, max_iters=3000, rel_tol=1e-14)
        report = fista(data, prox=prox, config=config, penalty=penalty)
        x = report.solution
        step = gradient(data, x) / lipschitz
        residual = np.linalg.norm(x - prox(x - step, 1.0 / lipschitz))
        assert residual <= 1e-6 * (1.0 + np.linalg.norm(x))

    def test_momentum_accelerates_objective_decay(self):
        # Objective gap must shrink by much more than the 16x that the
        # 1/k^2 rate guarantees between iterations 50 and 200.
        inst, data, weights, prox, penalty = make_soav_problem(seed=102)
        lipschitz = estimate_lipschitz(data)
        config = SolverConfig(lipschitz=lipschitz, max_iters=400, rel_tol=0.0,
                              record_trajectory=True)
        report = fista(data, prox=prox, config=config, penalty=penalty)
        oracle_x = soav_prox_gradient_oracle(
            inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY, lipschitz, iters=50_000
        )
        f_star = soav_objective_ref(
            oracle_x, inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY
        )
        gap_50 = report.objective_trace[49] - f_star
        gap_200 = report.objective_trace[199] - f_star
        assert gap_200 <= gap_50 / 8.0

    def test_trajectory_records_every_iteration(self):
        data = QuadraticData(B=np.eye(3), y=np.ones(3), scale=0.5)
        config = SolverConfig(max_iters=25, rel_tol=0.0, record_trajectory=True)
        report = fista(data, prox=lambda z, g: z, config=config)
        assert len(report.objective_trace) == report.iterations == 25

    def test_divergence_detected_for_tiny_lipschitz(self):
        from soavmud.optim import DivergenceError

        rng = np.random.default_rng(6)
        data = QuadraticData(B=rng.standard_normal((10, 10)), y=rng.standard_normal(10),
                             scale=1.0)
        config = SolverConfig(lipschitz=1e-6, max_iters=5000, rel_tol=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                fista(data, prox=lambda z, g: z, config=config)

    def test_finite_iterate_with_overflowing_step_is_accepted(self):
        # The squared step (1e200)^2 overflows, but the iterate itself is
        # finite, so it is no divergence.
        y = np.full(3, 1e200)
        data = QuadraticData(B=np.eye(3), y=y, scale=0.5)
        config = SolverConfig(lipschitz=1.0, max_iters=1)
        with np.errstate(over="ignore"):
            report = fista(data, prox=lambda z, g: z, config=config)
        np.testing.assert_array_equal(report.solution, y)
        assert report.iterations == 1


class TestFistaMatchesReferenceLoop:
    """fista returns the reference loop's bits: solution, iterations, objective."""

    @staticmethod
    def assert_same_solve(data, prox, penalty, config, ref_prox):
        # config leaves L unset, so fista's own power iteration is compared too.
        report = fista(data, prox=prox, config=config, penalty=penalty)
        x, iterations, objective = fista_reference(
            data.B, data.y, data.scale, ref_prox, penalty,
            power_iteration_lipschitz(data.B, data.scale), config.max_iters, config.rel_tol,
        )
        np.testing.assert_array_equal(report.solution.view(np.uint64), x.view(np.uint64))
        assert report.iterations == iterations
        assert np.float64(report.final_objective).view(np.uint64) == np.float64(
            objective).view(np.uint64)
        return report

    @pytest.mark.parametrize("rho", [0.8, 0.05])
    def test_paper_scale_lasso_and_map_soav(self, rho):
        inst, data, weights, prox, penalty = make_soav_problem(
            seed=7, n=100, m=70, rho=rho, snr_db=12.0
        )
        self.assert_same_solve(
            data, prox, penalty, SolverConfig(),
            lambda z, g: ternary_prox_cascade(z, g, tuple(weights.q)),
        )
        lasso_data = QuadraticData(B=inst.mix, y=inst.y, scale=30.0)
        self.assert_same_solve(
            lasso_data, soft_threshold, lambda x: float(np.abs(x).sum()),
            SolverConfig(), soft_threshold,
        )

    def test_small_system_stops_on_rel_tol(self):
        _, data, weights, prox, penalty = make_soav_problem(seed=8, n=8, m=6)
        config = SolverConfig(max_iters=500, rel_tol=1e-8)
        report = self.assert_same_solve(
            data, prox, penalty, config,
            lambda z, g: ternary_prox_cascade(z, g, tuple(weights.q)),
        )
        assert report.iterations < config.max_iters
