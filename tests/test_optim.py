"""Tests for the quadratic term, Lipschitz estimation, and the FISTA solver."""

import re

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
    fista,
    gradient,
    lipschitz_bound,
    power_iteration,
    soft_threshold,
)
from soavmud.soav import default_offset, solve_weights, ternary_prox

TERNARY = (-1.0, 0.0, 1.0)


def make_soav_problem(seed, n=20, m=14, rho=0.8, snr_db=8.0):
    """Random convex composite instance plus its prox, as gamma -> (z -> prox)."""
    prior = bpsk_prior(rho)
    rng = np.random.default_rng(seed)
    sigma_w2 = n * (1 - rho) / m * 10.0 ** (-snr_db / 10.0)
    inst = synthesize(prior, gaussian_matrix(m, n, rng), np.ones(n), sigma_w2, rng)
    weights = solve_weights(prior, default_offset(prior))
    data = QuadraticData(B=inst.mix, y=inst.y, scale=1.0 / (2.0 * sigma_w2))
    return inst, data, weights, lambda gamma: ternary_prox(gamma, weights)


def spectral_lipschitz(data):
    """The bound L the detectors use: formed from the power iteration of B."""
    return lipschitz_bound(data.scale, power_iteration(data.B))


def solve(data, prox_at, config, lipschitz=None):
    """fista at the step 1/L with the prox ``prox_at(1/L)``, as the detectors run it.

    L defaults to ``spectral_lipschitz(data)``.
    """
    if lipschitz is None:
        lipschitz = spectral_lipschitz(data)
    return fista(data, prox_at(1.0 / lipschitz), config, lipschitz)


def identity(z):
    return z


def soft_threshold_at(gamma):
    return lambda z: soft_threshold(z, gamma)


class TestQuadraticData:
    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_scale(self, scale):
        with pytest.raises(ValueError, match="scale"):
            QuadraticData(B=np.eye(3), y=np.zeros(3), scale=scale)


class TestSolverConfig:
    @pytest.mark.parametrize("rel_tol", [True, "1e-3", None], ids=["bool", "string", "none"])
    def test_rel_tol_rejects_non_number(self, rel_tol):
        # Before, True was taken as 1 and "1e-3" or None raised a bare TypeError.
        message = f"rel_tol must be a number, got {rel_tol!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverConfig(rel_tol=rel_tol)

    def test_rel_tol_is_stored_as_a_float(self):
        assert type(SolverConfig(rel_tol=0).rel_tol) is float


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
        assert spectral_lipschitz(data) == pytest.approx(1.01, rel=1e-6)

    def test_diagonal_spectrum(self):
        data = QuadraticData(B=np.diag([3.0, 1.0]), y=np.zeros(2), scale=0.5)
        assert spectral_lipschitz(data) == pytest.approx(9.09, rel=1e-6)

    def test_random_wide_matrix_against_svd(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((70, 100))
        data = QuadraticData(B=B, y=np.zeros(70), scale=0.25)
        exact = 2.0 * 0.25 * np.linalg.svd(B, compute_uv=False)[0] ** 2
        estimate = spectral_lipschitz(data)
        assert exact <= estimate <= 1.011 * exact

    def test_zero_operator_rejected(self):
        data = QuadraticData(B=np.zeros((3, 3)), y=np.zeros(3), scale=1.0)
        with pytest.raises(DegenerateOperatorError):
            spectral_lipschitz(data)

    @pytest.mark.parametrize("scale", [30.0, 0.25, 1.0 / (2.0 * 0.0226)])
    def test_oracle_bits_from_the_shared_power_iteration(self, scale):
        # The power iteration does not depend on scale, so one estimate per
        # matrix serves every scale with the bits of the full computation.
        B = np.random.default_rng(21).standard_normal((70, 100))
        data = QuadraticData(B=B, y=np.zeros(70), scale=scale)
        expected = power_iteration_lipschitz(B, scale)
        assert np.float64(spectral_lipschitz(data)).view(np.uint64) == np.float64(
            expected).view(np.uint64)
        assert power_iteration(B) == power_iteration(B.copy())


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

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_nonfinite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            soft_threshold(np.array([1.0, -2.0]), gamma)

    def test_zero_gamma_is_the_identity(self):
        v = np.array([-2.0, 0.0, 0.3])
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)


class TestFista:
    def test_unconstrained_quadratic_converges_to_data(self):
        rng = np.random.default_rng(12)
        y = rng.standard_normal(8)
        data = QuadraticData(B=np.eye(8), y=y, scale=0.5)
        report = solve(data, lambda g: identity, SolverConfig(max_iters=200, rel_tol=0.0))
        assert report.iterations <= 200
        np.testing.assert_allclose(report.solution, y, atol=1e-8)

    def test_scalar_lasso_soft_threshold_solution(self):
        # min 0.5 (2 - x)^2 + 0.5 |x| has the closed-form solution 1.5.
        data = QuadraticData(B=np.eye(1), y=np.array([2.0]), scale=0.5)
        report = solve(
            data,
            lambda g: lambda z: soft_threshold(z, 0.5 * g),
            SolverConfig(max_iters=500, rel_tol=1e-12),
        )
        assert report.solution[0] == pytest.approx(1.5, abs=1e-6)

    def test_matches_long_run_unaccelerated_oracle(self):
        inst, data, weights, prox_at = make_soav_problem(seed=100)
        lipschitz = spectral_lipschitz(data)
        report = solve(data, prox_at, SolverConfig(max_iters=2000, rel_tol=1e-14), lipschitz)
        oracle_x = soav_prox_gradient_oracle(
            inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY, lipschitz, iters=50_000
        )
        f, oracle_f = (
            soav_objective_ref(x, inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY)
            for x in (report.solution, oracle_x)
        )
        assert f <= oracle_f + 1e-5 * abs(oracle_f)

    def test_fixed_point_residual_of_solution(self):
        _, data, _, prox_at = make_soav_problem(seed=101)
        lipschitz = spectral_lipschitz(data)
        report = solve(data, prox_at, SolverConfig(max_iters=3000, rel_tol=1e-14), lipschitz)
        x = report.solution
        step = gradient(data, x) / lipschitz
        residual = np.linalg.norm(x - prox_at(1.0 / lipschitz)(x - step))
        assert residual <= 1e-6 * (1.0 + np.linalg.norm(x))

    def test_momentum_accelerates_objective_decay(self):
        # Objective gap must shrink by much more than the 16x that the
        # 1/k^2 rate guarantees between iterations 50 and 200. FISTA is
        # deterministic, so a solve capped at k iterations ends at iterate k.
        inst, data, weights, prox_at = make_soav_problem(seed=102)
        lipschitz = spectral_lipschitz(data)

        def objective(x):
            return soav_objective_ref(x, inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY)

        def objective_after(iters):
            config = SolverConfig(max_iters=iters, rel_tol=0.0)
            return objective(solve(data, prox_at, config, lipschitz).solution)

        f_star = objective(soav_prox_gradient_oracle(
            inst.mix, inst.y, inst.sigma_w2, weights.q, TERNARY, lipschitz, iters=50_000
        ))
        gap_50 = objective_after(50) - f_star
        gap_200 = objective_after(200) - f_star
        assert gap_200 <= gap_50 / 8.0

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-8])
    def test_divergence_detected_for_tiny_lipschitz(self, rel_tol):
        from soavmud.optim import DivergenceError

        rng = np.random.default_rng(6)
        data = QuadraticData(B=rng.standard_normal((10, 10)), y=rng.standard_normal(10),
                             scale=1.0)
        config = SolverConfig(max_iters=5000, rel_tol=rel_tol)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError):
                fista(data, identity, config, lipschitz=1e-6)

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_lipschitz(self, lipschitz):
        # Unchecked, 0 raised ZeroDivisionError, -1 ran an ascent and inf
        # returned x = 0 as converged.
        rng = np.random.default_rng(6)
        data = QuadraticData(B=rng.standard_normal((10, 10)), y=rng.standard_normal(10),
                             scale=1.0)
        with pytest.raises(ValueError, match="lipschitz"):
            fista(data, identity, SolverConfig(), lipschitz=lipschitz)

    def test_finite_iterate_with_overflowing_step_is_accepted(self):
        # The squared step (1e200)^2 overflows, but the iterate itself is
        # finite, so it is no divergence.
        y = np.full(3, 1e200)
        data = QuadraticData(B=np.eye(3), y=y, scale=0.5)
        with np.errstate(over="ignore"):
            report = fista(data, identity, SolverConfig(max_iters=1), lipschitz=1.0)
        np.testing.assert_array_equal(report.solution, y)
        assert report.iterations == 1


class TestFistaStepAlgebra:
    """fista's step is x - gradient(data, x) / L, checked against gradient itself.

    With the identity prox, iterate 1 is the gradient step from 0, and the
    momentum weight (t_1 - 1) / t_2 is 0, so iterate 2 is the gradient step
    from iterate 1.
    """

    @pytest.mark.parametrize("m, n", [(70, 100), (100, 40), (20, 100)],
                             ids=["paper", "tall", "wide N > 2M"])
    def test_two_iterations_are_two_gradient_steps(self, m, n):
        rng = np.random.default_rng(50)
        data = QuadraticData(B=rng.standard_normal((m, n)), y=rng.standard_normal(m),
                             scale=30.0)
        lipschitz = spectral_lipschitz(data)
        report = fista(data, identity, SolverConfig(max_iters=2, rel_tol=0.0), lipschitz)
        x1 = -gradient(data, np.zeros(n)) / lipschitz
        x2 = x1 - gradient(data, x1) / lipschitz
        assert report.iterations == 2
        assert np.linalg.norm(report.solution - x2) <= 1e-12 * np.linalg.norm(x2)


class TestFistaConvergenceFlag:
    def test_converged_when_the_stopping_test_fires(self):
        _, data, _, prox_at = make_soav_problem(seed=8, n=8, m=6)
        report = solve(data, prox_at, SolverConfig(max_iters=500))
        assert report.iterations < 500
        assert report.converged

    def test_not_converged_when_the_budget_runs_out(self):
        _, data, _, prox_at = make_soav_problem(seed=8, n=8, m=6)
        for config in (SolverConfig(max_iters=5), SolverConfig(max_iters=50, rel_tol=0.0)):
            report = solve(data, prox_at, config)
            assert report.iterations == config.max_iters
            assert not report.converged


class TestMemoryLayout:
    """fista forms H = I - a B^T B and c = a B^T y with ``B.T.dot`` whatever
    the memory layout of B, and its loop multiplies by H, a fresh C-ordered
    array, with ``H.dot``.

    ``dot`` and ``@`` agree bit for bit on C- and F-ordered matrices, so
    there fista keeps the bits of the ``@`` reference loop. On other strided
    views, e.g. every second column, forming H and c takes different code
    paths and differs in the last bits; no caller builds such a B.
    """

    @staticmethod
    def layouts():
        rng = np.random.default_rng(40)
        base = rng.standard_normal((70, 200))
        c_order = np.ascontiguousarray(base[:, :100])
        return {
            "C": c_order,
            "F": np.asfortranarray(c_order),
            "transposed": np.ascontiguousarray(rng.standard_normal((100, 70))).T,
            "every second column": base[:, ::2],
            "column block": base[:, :100],
            "every second row": rng.standard_normal((140, 100))[::2],
        }

    @staticmethod
    def contiguous(B):
        return B.flags.c_contiguous or B.flags.f_contiguous

    def test_dot_matches_matmul_on_contiguous_layouts(self):
        rng = np.random.default_rng(41)
        for name, B in self.layouts().items():
            if not self.contiguous(B):
                continue
            for _ in range(20):
                x, r = rng.standard_normal(B.shape[1]), rng.standard_normal(B.shape[0])
                np.testing.assert_array_equal(B.dot(x), B @ x, err_msg=name)
                np.testing.assert_array_equal(B.T.dot(r), B.T @ r, err_msg=name)
            np.testing.assert_array_equal(B.T.dot(B), B.T @ B, err_msg=name)

    def test_fista_matches_reference_loop_on_every_layout(self):
        """Bit for bit on contiguous layouts, to 1e-12 on strided views."""
        rng = np.random.default_rng(42)
        for name, B in self.layouts().items():
            y = B @ rng.choice([-1.0, 0.0, 1.0], B.shape[1]) + 0.1 * rng.standard_normal(70)
            data = QuadraticData(B=B, y=y, scale=30.0)
            config = SolverConfig(max_iters=100, rel_tol=0.0)
            report = solve(data, soft_threshold_at, config)
            x, iterations, _ = fista_reference(
                B, y, 30.0, soft_threshold, lambda _x: 0.0,
                power_iteration_lipschitz(B, 30.0), 100, 0.0,
            )
            assert report.iterations == iterations == 100
            if self.contiguous(B):
                np.testing.assert_array_equal(
                    report.solution.view(np.uint64), x.view(np.uint64), err_msg=name)
            else:
                np.testing.assert_allclose(
                    report.solution, x, rtol=0.0, atol=1e-12, err_msg=name)


class TestFistaMatchesReferenceLoop:
    """fista returns the reference loop's bits: solution and iterations."""

    @staticmethod
    def assert_same_solve(data, prox_at, config, ref_prox):
        # solve forms L from the library's power iteration, so that is compared too.
        report = solve(data, prox_at, config)
        x, iterations, _ = fista_reference(
            data.B, data.y, data.scale, ref_prox, lambda _x: 0.0,
            power_iteration_lipschitz(data.B, data.scale), config.max_iters, config.rel_tol,
        )
        np.testing.assert_array_equal(report.solution.view(np.uint64), x.view(np.uint64))
        assert report.iterations == iterations
        return report

    @pytest.mark.parametrize("rho", [0.8, 0.05])
    def test_paper_scale_lasso_and_map_soav(self, rho):
        inst, data, weights, prox_at = make_soav_problem(
            seed=7, n=100, m=70, rho=rho, snr_db=12.0
        )
        self.assert_same_solve(
            data, prox_at, SolverConfig(),
            lambda z, g: ternary_prox_cascade(z, g, tuple(weights.q)),
        )
        lasso_data = QuadraticData(B=inst.mix, y=inst.y, scale=30.0)
        self.assert_same_solve(lasso_data, soft_threshold_at, SolverConfig(), soft_threshold)

    def test_small_system_stops_on_rel_tol(self):
        _, data, weights, prox_at = make_soav_problem(seed=8, n=8, m=6)
        config = SolverConfig(max_iters=500, rel_tol=1e-8)
        report = self.assert_same_solve(
            data, prox_at, config,
            lambda z, g: ternary_prox_cascade(z, g, tuple(weights.q)),
        )
        assert report.iterations < config.max_iters
