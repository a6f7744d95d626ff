"""Tests for the quadratic term, Lipschitz estimation, and the ADMM and FISTA solvers."""

import re

import numpy as np
import pytest

from oracles import (
    batched_soav_prox_gradient_oracle,
    central_difference_gradient,
    fista_reference,
    prox_vector_exhaustive,
    soav_objective_ref,
    soav_prox_gradient_oracle,
    soft_threshold,
    ternary_prox_cascade,
)
from soavmud.detectors import DetectorConfig, lasso, map_soav
from soavmud.model import SystemInstance, bpsk_prior, gaussian_matrix, synthesize
from soavmud.optim import (
    QuadraticData,
    SolverConfig,
    admm,
    fista,
    gradient,
    lipschitz_bound,
)
from soavmud.soav import SoavWeights, default_offset, solve_weights, ternary_prox

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
    """The bound L the detectors use: formed from the ``mix_norm_sq`` of B."""
    m, n = data.B.shape
    inst = SystemInstance(S=data.B, gains=np.ones(n), sigma_w2=1.0, b=np.zeros(n),
                          w=np.zeros(m), y=data.y)
    return lipschitz_bound(data.scale, inst.mix_norm_sq)


def norm_lipschitz(B, scale):
    """Some valid L for a reference loop: 1.01 * 2 * scale * ||B||_2^2 by np.linalg.norm."""
    return 1.01 * 2 * scale * np.linalg.norm(B, 2) ** 2


def solve(data, prox_at, config, lipschitz=None):
    """fista at the step 1/L with the prox ``prox_at(1/L)``, as the detectors run it.

    L defaults to ``spectral_lipschitz(data)``.
    """
    if lipschitz is None:
        lipschitz = spectral_lipschitz(data)
    return fista(data, prox_at(1.0 / lipschitz), config, lipschitz)


def quadratic_value(data):
    """The data term x -> scale * ||y - B x||^2, written out."""

    def value(x):
        resid = data.y - data.B @ x
        return data.scale * float(resid @ resid)

    return value


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
        numeric = central_difference_gradient(quadratic_value(data), x)
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
            numeric = central_difference_gradient(quadratic_value(data), x)
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
        # All gains zero: S A = 0 has no spectral bound, so no step exists.
        inst = SystemInstance(S=np.ones((3, 3)), gains=np.zeros(3), sigma_w2=1.0,
                              b=np.zeros(3), w=np.zeros(3), y=np.zeros(3))
        assert inst.mix_norm_sq == 0.0
        prior = bpsk_prior(0.8)
        with pytest.raises(ValueError, match="zero operator"):
            lasso(inst, DetectorConfig(kind="lasso"))
        with pytest.raises(ValueError, match="zero operator"):
            map_soav(inst, prior, DetectorConfig(kind="map_soav"))


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

    def test_reports_the_residual_of_its_solution(self):
        _, data, _, prox_at = make_soav_problem(seed=101)
        lipschitz = spectral_lipschitz(data)
        for iters in (20, 200):
            report = solve(data, prox_at, SolverConfig(max_iters=iters, rel_tol=0.0), lipschitz)
            x = report.solution
            step = gradient(data, x) / lipschitz
            residual = np.linalg.norm(x - prox_at(1.0 / lipschitz)(x - step))
            assert report.residual == pytest.approx(
                residual / (1.0 + np.linalg.norm(x)), rel=1e-6)

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
            L = norm_lipschitz(B, 30.0)
            report = solve(data, soft_threshold_at, config, L)
            x, iterations, _ = fista_reference(
                B, y, 30.0, soft_threshold, lambda _x: 0.0, L, 100, 0.0,
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
        L = norm_lipschitz(data.B, data.scale)
        report = solve(data, prox_at, config, L)
        x, iterations, _ = fista_reference(
            data.B, data.y, data.scale, ref_prox, lambda _x: 0.0,
            L, config.max_iters, config.rel_tol,
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


def admm_solve(inst, data, prox_at, config):
    """admm on ``inst``'s factor at the detectors' L, as the detectors run it."""
    lipschitz = lipschitz_bound(data.scale, inst.mix_norm_sq)
    return admm(data, prox_at, config, lipschitz, inst.admm_factor, inst.admm_ridge)


class TestAdmm:
    """Over-relaxed ADMM with the exact x-update, on the convex problems."""

    L1 = SoavWeights(q=(0.0, 1.0, 0.0), c=0.0, alphabet=TERNARY)

    @pytest.mark.parametrize("kind, rho", [("lasso", 0.8), ("map_soav", 0.8), ("map_soav", 0.5)])
    def test_default_config_meets_the_criterion_3_bounds(self, kind, rho):
        """Relative objective <= 1e-5 against the 50,000-iteration oracle, residual <= 1e-6."""
        prior = bpsk_prior(rho)
        weights = self.L1 if kind == "lasso" else solve_weights(prior, default_offset(prior))
        sigma_w2 = 20 * (1 - rho) / 14 * 10 ** (-0.8)
        # Lasso's scale 30 is the SOAV scale 1 / (2 sigma_w2) at sigma_w2 = 1/60.
        objective_w2 = 1.0 / 60.0 if kind == "lasso" else sigma_w2
        insts, datas, lipschitzes, reports = [], [], [], []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            inst = synthesize(prior, gaussian_matrix(14, 20, rng), np.ones(20), sigma_w2, rng)
            data = QuadraticData(B=inst.mix, y=inst.y, scale=1.0 / (2.0 * objective_w2))
            insts.append(inst)
            datas.append(data)
            lipschitzes.append(lipschitz_bound(data.scale, inst.mix_norm_sq))
            reports.append(admm_solve(inst, data, lambda g: ternary_prox(g, weights),
                                      SolverConfig()))
        oracle = batched_soav_prox_gradient_oracle(
            [i.mix for i in insts], [i.y for i in insts], [objective_w2] * len(insts),
            weights.q, TERNARY, lipschitzes, iters=50_000,
        )
        for inst, data, L, report, oracle_x in zip(insts, datas, lipschitzes, reports, oracle):
            f, f_star = (
                soav_objective_ref(x, inst.mix, inst.y, objective_w2, weights.q, TERNARY)
                for x in (report.solution, oracle_x)
            )
            assert f - f_star <= 1e-5 * abs(f_star)
            x = report.solution
            step = gradient(data, x) / L
            residual = np.linalg.norm(x - ternary_prox(1.0 / L, weights)(x - step)) / (
                1.0 + np.linalg.norm(x))
            assert residual <= 1e-6
            assert report.residual == pytest.approx(residual, rel=1e-4)

    def test_factor_is_the_scaled_ridge_inverse(self):
        inst, *_ = make_soav_problem(seed=60)
        mu = inst.admm_ridge
        assert mu == 0.005 * inst.mix_norm_sq
        expected = mu * np.linalg.inv(inst.mix.T @ inst.mix + mu * np.identity(inst.n_users))
        np.testing.assert_allclose(inst.admm_factor, expected, rtol=0.0, atol=1e-10)
        assert not inst.admm_factor.flags.writeable

    def test_stops_on_the_residual_every_ten_iterations(self):
        inst, data, _, prox_at = make_soav_problem(seed=61)
        report = admm_solve(inst, data, prox_at, SolverConfig())
        assert report.converged
        assert report.iterations % 10 == 0 and report.iterations < 500
        assert 0.0 < report.residual <= 1e-8
        # Ten iterations fewer, the residual had not yet fallen below rel_tol.
        earlier = admm_solve(inst, data, prox_at,
                             SolverConfig(max_iters=report.iterations - 10, rel_tol=0.0))
        assert earlier.residual > 1e-8

    def test_budget_runs_out_unconverged(self):
        inst, data, _, prox_at = make_soav_problem(seed=61)
        for config in (SolverConfig(max_iters=7), SolverConfig(max_iters=50, rel_tol=0.0)):
            report = admm_solve(inst, data, prox_at, config)
            assert report.iterations == config.max_iters
            assert not report.converged
            assert report.residual > 0.0

    def test_identity_prox_solves_least_squares(self):
        # g = 0: every iterate's fixed point is the least-squares solution.
        rng = np.random.default_rng(62)
        B = rng.standard_normal((12, 8))
        y = rng.standard_normal(12)
        inst = SystemInstance(S=B, gains=np.ones(8), sigma_w2=1.0, b=np.zeros(8),
                              w=np.zeros(12), y=y)
        data = QuadraticData(B=B, y=y, scale=0.5)
        report = admm_solve(inst, data, lambda g: identity, SolverConfig(rel_tol=1e-12))
        np.testing.assert_allclose(report.solution, np.linalg.lstsq(B, y)[0], atol=1e-9)

    @pytest.mark.parametrize("name, value", [
        ("lipschitz", 0.0), ("lipschitz", np.inf), ("ridge", 0.0), ("ridge", np.nan)])
    def test_rejects_nonpositive_or_nonfinite_parameters(self, name, value):
        inst, data, _, prox_at = make_soav_problem(seed=63)
        args = {"lipschitz": 1.0, "ridge": inst.admm_ridge, name: value}
        with pytest.raises(ValueError, match=name):
            admm(data, prox_at, SolverConfig(), args["lipschitz"], inst.admm_factor,
                 args["ridge"])

    def test_rejects_a_factor_of_the_wrong_shape(self):
        inst, data, _, prox_at = make_soav_problem(seed=63)
        with pytest.raises(ValueError, match="factor"):
            admm(data, prox_at, SolverConfig(), 1.0, inst.gram, inst.admm_ridge)
