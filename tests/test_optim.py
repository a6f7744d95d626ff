"""Tests for the Lipschitz bound and the ADMM and FISTA solvers."""

import functools
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from oracles import (
    batched_soav_prox_gradient_oracle,
    central_difference_gradient,
    fista_reference,
    gradient,
    prox_vector_exhaustive,
    soav_objective_ref,
    soav_prox_gradient_oracle,
    soft_threshold,
    ternary_prox_cascade,
)
from soavmud import optim
from soavmud.detectors import DetectorConfig, lasso, map_soav
from soavmud.model import SystemInstance, bpsk_prior, gaussian_matrix, synthesize
from soavmud.optim import (
    DivergenceError,
    SolverConfig,
    admm,
    fista,
    lipschitz_bound,
)
from soavmud.soav import SoavWeights, default_offset, solve_weights, ternary_prox

TERNARY = (-1.0, 0.0, 1.0)


def make_soav_problem(seed, n=20, m=14, rho=0.8, snr_db=8.0):
    """Random SOAV instance, its scale 1 / (2 sigma_w2), weights and prox as gamma -> (z -> prox)."""
    prior = bpsk_prior(rho)
    rng = np.random.default_rng(seed)
    sigma_w2 = n * (1 - rho) / m * 10.0 ** (-snr_db / 10.0)
    inst = synthesize(prior, gaussian_matrix(m, n, rng), sigma_w2, rng)
    weights = solve_weights(prior, default_offset(prior))
    return inst, 1.0 / (2.0 * sigma_w2), weights, lambda gamma: ternary_prox(gamma, weights)


def instance_of(B, y):
    """The SystemInstance with S = B and received vector y."""
    m, n = np.shape(B)
    return SystemInstance(S=B, sigma_w2=1.0, b=np.zeros(n), w=np.zeros(m), y=y)


def spectral_lipschitz(inst, scale):
    """The bound L both solvers take: formed from the ``mix_norm_sq`` of S."""
    return lipschitz_bound(scale, inst.mix_norm_sq)


def quadratic_value(B, y, scale):
    """The data term x -> scale * ||y - B x||^2, written out."""

    def value(x):
        resid = y - B @ x
        return scale * float(resid @ resid)

    return value


def fixed_point_residual(inst, scale, prox_at, x):
    """||x - prox(x - grad f(x) / L)|| / (1 + ||x||) at the solvers' L, by np.linalg.norm."""
    L = spectral_lipschitz(inst, scale)
    step = gradient(inst.S, inst.y, scale, x) / L
    return np.linalg.norm(x - prox_at(1.0 / L)(x - step)) / (1.0 + np.linalg.norm(x))


def identity(z):
    return z


def identity_at(gamma):
    return identity


def soft_threshold_at(gamma):
    return lambda z: soft_threshold(z, gamma)


class TestQuadraticData:
    """The quadratic term scale * ||y - S x||^2, which both solvers take as (instance, scale)."""

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_scale(self, scale):
        inst, _, _, prox_at = make_soav_problem(seed=63)
        for solver in (admm, fista):
            with pytest.raises(ValueError, match="scale"):
                solver(inst, prox_at, scale, SolverConfig())


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
    """The test oracle ``gradient``, which the residual checks below rely on."""

    def test_zero_at_consistent_point(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((5, 5))
        x = rng.standard_normal(5)
        np.testing.assert_allclose(gradient(B, B @ x, 0.5, x), np.zeros(5), atol=1e-12)

    def test_identity_quadratic(self):
        x = np.array([1.0, -2.0, 3.0, 0.5])
        np.testing.assert_array_equal(gradient(np.eye(4), np.zeros(4), 0.5, x), x)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        B, y = rng.standard_normal((7, 5)), rng.standard_normal(7)
        x = rng.standard_normal(5)
        numeric = central_difference_gradient(quadratic_value(B, y, 1.7), x)
        analytic = gradient(B, y, 1.7, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)

    def test_standing_property_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            B, y = rng.standard_normal((m, n)), rng.standard_normal(m)
            scale = float(rng.uniform(0.1, 5.0))
            x = rng.standard_normal(n)
            numeric = central_difference_gradient(quadratic_value(B, y, scale), x)
            np.testing.assert_allclose(gradient(B, y, scale, x), numeric, rtol=1e-5, atol=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gradient(np.eye(3), np.zeros(3), 1.0, np.zeros(4))


class TestEstimateLipschitz:
    def test_identity_operator(self):
        inst = instance_of(np.eye(6), np.zeros(6))
        assert spectral_lipschitz(inst, 0.5) == pytest.approx(1.01, rel=1e-6)

    def test_diagonal_spectrum(self):
        inst = instance_of(np.diag([3.0, 1.0]), np.zeros(2))
        assert spectral_lipschitz(inst, 0.5) == pytest.approx(9.09, rel=1e-6)

    def test_random_wide_matrix_against_svd(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((70, 100))
        exact = 2.0 * 0.25 * np.linalg.svd(B, compute_uv=False)[0] ** 2
        estimate = spectral_lipschitz(instance_of(B, np.zeros(70)), 0.25)
        assert exact <= estimate <= 1.011 * exact

    def test_zero_operator_rejected(self):
        # S = 0 has no spectral bound, so no step exists.
        inst = SystemInstance(S=np.zeros((3, 3)), sigma_w2=1.0, b=np.zeros(3), w=np.zeros(3),
                              y=np.zeros(3))
        assert inst.mix_norm_sq == 0.0
        prior = bpsk_prior(0.8)
        with pytest.raises(ValueError, match="zero operator"):
            lasso(inst, DetectorConfig(kind="lasso"))
        with pytest.raises(ValueError, match="zero operator"):
            map_soav(inst, prior, DetectorConfig(kind="map_soav"))
        for solver in (admm, fista):
            with pytest.raises(ValueError, match="zero operator"):
                solver(inst, identity_at, 1.0, SolverConfig())


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
        report = fista(instance_of(np.eye(8), y), identity_at, 0.5,
                       SolverConfig(max_iters=200, rel_tol=0.0))
        assert report.iterations <= 200
        np.testing.assert_allclose(report.solution, y, atol=1e-8)

    def test_scalar_lasso_soft_threshold_solution(self):
        # min 0.5 (2 - x)^2 + 0.5 |x| has the closed-form solution 1.5.
        report = fista(
            instance_of(np.eye(1), np.array([2.0])),
            lambda g: lambda z: soft_threshold(z, 0.5 * g),
            0.5,
            SolverConfig(max_iters=500, rel_tol=1e-12),
        )
        assert report.solution[0] == pytest.approx(1.5, abs=1e-6)

    def test_matches_long_run_unaccelerated_oracle(self):
        inst, scale, weights, prox_at = make_soav_problem(seed=100)
        report = fista(inst, prox_at, scale, SolverConfig(max_iters=2000, rel_tol=1e-14))
        oracle_x = soav_prox_gradient_oracle(
            inst.S, inst.y, inst.sigma_w2, weights.q, TERNARY,
            spectral_lipschitz(inst, scale), iters=50_000
        )
        f, oracle_f = (
            soav_objective_ref(x, inst.S, inst.y, inst.sigma_w2, weights.q, TERNARY)
            for x in (report.solution, oracle_x)
        )
        assert f <= oracle_f + 1e-5 * abs(oracle_f)

    def test_fixed_point_residual_of_solution(self):
        inst, scale, _, prox_at = make_soav_problem(seed=101)
        report = fista(inst, prox_at, scale, SolverConfig(max_iters=3000, rel_tol=1e-14))
        assert fixed_point_residual(inst, scale, prox_at, report.solution) <= 1e-6

    def test_reports_the_residual_of_its_solution(self):
        inst, scale, _, prox_at = make_soav_problem(seed=101)
        for iters in (20, 200):
            report = fista(inst, prox_at, scale, SolverConfig(max_iters=iters, rel_tol=0.0))
            assert report.residual == pytest.approx(
                fixed_point_residual(inst, scale, prox_at, report.solution), rel=1e-6)

    def test_momentum_accelerates_objective_decay(self):
        # Objective gap must shrink by much more than the 16x that the
        # 1/k^2 rate guarantees between iterations 50 and 200. FISTA is
        # deterministic, so a solve capped at k iterations ends at iterate k.
        inst, scale, weights, prox_at = make_soav_problem(seed=102)

        def objective(x):
            return soav_objective_ref(x, inst.S, inst.y, inst.sigma_w2, weights.q, TERNARY)

        def objective_after(iters):
            config = SolverConfig(max_iters=iters, rel_tol=0.0)
            return objective(fista(inst, prox_at, scale, config).solution)

        f_star = objective(soav_prox_gradient_oracle(
            inst.S, inst.y, inst.sigma_w2, weights.q, TERNARY,
            spectral_lipschitz(inst, scale), iters=50_000
        ))
        gap_50 = objective_after(50) - f_star
        gap_200 = objective_after(200) - f_star
        assert gap_200 <= gap_50 / 8.0

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-8])
    def test_divergence_detected_for_tiny_lipschitz(self, rel_tol, monkeypatch):
        # A bound L = 1e-6, far below the true one, makes every step overshoot.
        monkeypatch.setattr(optim, "lipschitz_bound", lambda scale, norm_sq: 1e-6)
        rng = np.random.default_rng(6)
        inst = instance_of(rng.standard_normal((10, 10)), rng.standard_normal(10))
        config = SolverConfig(max_iters=5000, rel_tol=rel_tol)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite iterate"):
                fista(inst, identity_at, 1.0, config)

    def test_finite_iterate_with_overflowing_step_is_accepted(self):
        # The squares of iterate 1, about 1e200, overflow, but the iterate
        # itself is finite, so it is no divergence.
        y = np.full(3, 1e200)
        inst = instance_of(np.eye(3), y)
        with np.errstate(over="ignore"):
            report = fista(inst, identity_at, 0.5, SolverConfig(max_iters=1))
        np.testing.assert_array_equal(report.solution, (1.0 / 1.01) * y)
        assert report.iterations == 1
        assert not report.converged


class TestDivergence:
    """Both solvers raise DivergenceError from their one residual test."""

    @pytest.mark.parametrize("solver", [admm, fista], ids=["admm", "fista"])
    def test_expanding_prox_raises(self, solver):
        # A "prox" that scales by 1e10 drives every iterate to inf, then NaN.
        inst, scale, _, _ = make_soav_problem(seed=64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="solver produced a non-finite iterate"):
                solver(inst, lambda g: lambda z: 1e10 * z, scale, SolverConfig())


class TestFistaStepAlgebra:
    """fista's step is x - gradient(x) / L, checked against the oracle gradient.

    With the identity prox, iterate 1 is the gradient step from 0, and the
    momentum weight (t_1 - 1) / t_2 is 0, so iterate 2 is the gradient step
    from iterate 1.
    """

    @pytest.mark.parametrize("m, n", [(70, 100), (100, 40), (20, 100)],
                             ids=["paper", "tall", "wide N > 2M"])
    def test_two_iterations_are_two_gradient_steps(self, m, n):
        rng = np.random.default_rng(50)
        B, y = rng.standard_normal((m, n)), rng.standard_normal(m)
        inst = instance_of(B, y)
        L = spectral_lipschitz(inst, 30.0)
        report = fista(inst, identity_at, 30.0, SolverConfig(max_iters=2, rel_tol=0.0))
        x1 = -gradient(B, y, 30.0, np.zeros(n)) / L
        x2 = x1 - gradient(B, y, 30.0, x1) / L
        assert report.iterations == 2
        assert np.linalg.norm(report.solution - x2) <= 1e-12 * np.linalg.norm(x2)


class TestFistaConvergenceFlag:
    def test_converged_when_the_stopping_test_fires(self):
        inst, scale, _, prox_at = make_soav_problem(seed=8, n=8, m=6)
        report = fista(inst, prox_at, scale, SolverConfig(max_iters=500))
        assert report.iterations < 500 and report.iterations % 10 == 0
        assert report.converged
        assert report.residual <= 1e-8

    def test_not_converged_when_the_budget_runs_out(self):
        inst, scale, _, prox_at = make_soav_problem(seed=8, n=8, m=6)
        for config in (SolverConfig(max_iters=5), SolverConfig(max_iters=50, rel_tol=0.0)):
            report = fista(inst, prox_at, scale, config)
            assert report.iterations == config.max_iters
            assert not report.converged


class TestMemoryLayout:
    """fista forms H = I - a B^T B and c = a B^T y with ``B.T.dot``, and its
    loop multiplies by H, a fresh C-ordered array, with ``H.dot``.

    B is the instance's ``S``, a C- or F-ordered array. ``dot`` and ``@``
    agree bit for bit on both, so fista keeps the bits of the ``@`` reference
    loop.
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
        }

    def test_dot_matches_matmul_on_contiguous_layouts(self):
        rng = np.random.default_rng(41)
        for name, S in self.layouts().items():
            B = instance_of(S, np.zeros(70)).S
            assert B.flags.c_contiguous or B.flags.f_contiguous, name
            for _ in range(20):
                x, r = rng.standard_normal(B.shape[1]), rng.standard_normal(B.shape[0])
                np.testing.assert_array_equal(B.dot(x), B @ x, err_msg=name)
                np.testing.assert_array_equal(B.T.dot(r), B.T @ r, err_msg=name)
            np.testing.assert_array_equal(B.T.dot(B), B.T @ B, err_msg=name)

    def test_fista_matches_reference_loop_on_every_layout(self):
        rng = np.random.default_rng(42)
        for name, S in self.layouts().items():
            y = S @ rng.choice([-1.0, 0.0, 1.0], S.shape[1]) + 0.1 * rng.standard_normal(70)
            inst = instance_of(S, y)
            config = SolverConfig(max_iters=100, rel_tol=0.0)
            report = fista(inst, soft_threshold_at, 30.0, config)
            x, iterations, _ = fista_reference(
                inst.S, inst.y, 30.0, soft_threshold, lambda _x: 0.0,
                spectral_lipschitz(inst, 30.0), 100, 0.0,
            )
            assert report.iterations == iterations == 100
            np.testing.assert_array_equal(
                report.solution.view(np.uint64), x.view(np.uint64), err_msg=name)


class TestFistaMatchesReferenceLoop:
    """fista returns the reference loop's bits: solution and iterations."""

    @staticmethod
    def assert_same_solve(inst, scale, prox_at, config, ref_prox):
        report = fista(inst, prox_at, scale, config)
        x, iterations, _ = fista_reference(
            inst.S, inst.y, scale, ref_prox, lambda _x: 0.0,
            spectral_lipschitz(inst, scale), config.max_iters, config.rel_tol,
        )
        np.testing.assert_array_equal(report.solution.view(np.uint64), x.view(np.uint64))
        assert report.iterations == iterations
        return report

    @pytest.mark.parametrize("rho", [0.8, 0.05])
    def test_paper_scale_lasso_and_map_soav(self, rho):
        inst, scale, weights, prox_at = make_soav_problem(
            seed=7, n=100, m=70, rho=rho, snr_db=12.0
        )
        self.assert_same_solve(
            inst, scale, prox_at, SolverConfig(),
            lambda z, g: ternary_prox_cascade(z, g, tuple(weights.q)),
        )
        self.assert_same_solve(inst, 30.0, soft_threshold_at, SolverConfig(), soft_threshold)

    def test_small_system_stops_on_rel_tol(self):
        inst, scale, weights, prox_at = make_soav_problem(seed=8, n=8, m=6)
        config = SolverConfig(max_iters=500, rel_tol=1e-8)
        report = self.assert_same_solve(
            inst, scale, prox_at, config,
            lambda z, g: ternary_prox_cascade(z, g, tuple(weights.q)),
        )
        assert report.iterations < config.max_iters


@functools.lru_cache(maxsize=None)
def criterion_3_solves(kind, rho):
    """Ten 20 x 14 instances at 8 dB, solved by ``admm`` at the default config.

    Returns (objective_w2, scale, weights, instances, reports, polished,
    oracle): ``polished[i]`` says whether report i's solution is a polish
    candidate, and ``oracle`` holds the 50,000-iteration prox-gradient
    solutions. Cached, since the oracle takes seconds per regime.
    """
    prior = bpsk_prior(rho)
    weights = TestAdmm.L1 if kind == "lasso" else solve_weights(prior, default_offset(prior))
    sigma_w2 = 20 * (1 - rho) / 14 * 10 ** (-0.8)
    # Lasso's scale 30 is the SOAV scale 1 / (2 sigma_w2) at sigma_w2 = 1/60.
    objective_w2 = 1.0 / 60.0 if kind == "lasso" else sigma_w2
    scale = 1.0 / (2.0 * objective_w2)
    candidates = []
    polish = optim._polish

    def recording_polish(*args):
        candidates.append(polish(*args))
        return candidates[-1]

    insts, reports = [], []
    with mock.patch.object(optim, "_polish", recording_polish):
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            insts.append(synthesize(prior, gaussian_matrix(14, 20, rng), sigma_w2, rng))
            reports.append(admm(insts[-1], lambda g: ternary_prox(g, weights), scale,
                                SolverConfig()))
    polished = [any(r.solution is c for c in candidates) for r in reports]
    oracle = batched_soav_prox_gradient_oracle(
        [i.S for i in insts], [i.y for i in insts], [objective_w2] * len(insts),
        weights.q, TERNARY, [spectral_lipschitz(i, scale) for i in insts], iters=50_000,
    )
    return objective_w2, scale, weights, insts, reports, polished, oracle


CRITERION_3_REGIMES = [("lasso", 0.8), ("map_soav", 0.8), ("map_soav", 0.5)]


class TestAdmm:
    """Over-relaxed ADMM with the exact x-update, on the convex problems."""

    L1 = SoavWeights(q=(0.0, 1.0, 0.0), c=0.0, alphabet=TERNARY)

    @pytest.mark.parametrize("kind, rho", CRITERION_3_REGIMES)
    def test_default_config_meets_the_criterion_3_bounds(self, kind, rho):
        """Relative objective <= 1e-5 against the 50,000-iteration oracle, residual <= 1e-6."""
        objective_w2, scale, weights, insts, reports, _, oracle = criterion_3_solves(kind, rho)
        prox_at = lambda g: ternary_prox(g, weights)  # noqa: E731
        for inst, report, oracle_x in zip(insts, reports, oracle):
            f, f_star = (
                soav_objective_ref(x, inst.S, inst.y, objective_w2, weights.q, TERNARY)
                for x in (report.solution, oracle_x)
            )
            assert f - f_star <= 1e-5 * abs(f_star)
            residual = fixed_point_residual(inst, scale, prox_at, report.solution)
            assert residual <= 1e-6
            assert report.residual == pytest.approx(residual, rel=1e-4)

    @pytest.mark.parametrize("kind, rho", CRITERION_3_REGIMES)
    def test_polished_estimates_pass_the_stopping_test(self, kind, rho):
        """A polish returns only an estimate at rel_tol and no worse than the oracle."""
        objective_w2, scale, weights, insts, reports, polished, oracle = criterion_3_solves(
            kind, rho)
        prox_at = lambda g: ternary_prox(g, weights)  # noqa: E731
        assert any(polished)
        for inst, report, oracle_x, was_polished in zip(insts, reports, oracle, polished):
            if not was_polished:
                continue
            assert report.converged and report.iterations % 10 == 0
            assert fixed_point_residual(inst, scale, prox_at, report.solution) <= 1e-8
            f, f_star = (
                soav_objective_ref(x, inst.S, inst.y, objective_w2, weights.q, TERNARY)
                for x in (report.solution, oracle_x)
            )
            assert f <= f_star + 1e-12 * abs(f_star)

    @pytest.mark.parametrize("kind", ["lasso", "map_soav"])
    def test_singular_polish_is_skipped(self, kind):
        """Equal columns 0 and 1 of S make B_F^T B_F singular once both are free."""
        prior = bpsk_prior(0.8)
        weights = self.L1 if kind == "lasso" else solve_weights(prior, default_offset(prior))
        rng = np.random.default_rng(0)
        S = rng.standard_normal((14, 20)) / np.sqrt(14)
        S[:, 1] = S[:, 0]
        sigma_w2 = 20 * (1 - 0.8) / 14 * 10 ** (-0.8)
        inst = synthesize(prior, S, sigma_w2, rng)
        scale = 30.0 if kind == "lasso" else 1.0 / (2.0 * sigma_w2)
        singular, solve = [], np.linalg.solve

        def recording_solve(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a.shape)
                raise

        with warnings.catch_warnings(), mock.patch.object(np.linalg, "solve", recording_solve):
            warnings.simplefilter("error")
            report = admm(inst, lambda g: ternary_prox(g, weights), scale, SolverConfig())
        assert singular
        assert report.converged and report.residual <= 1e-8

    @pytest.mark.parametrize("kind", ["lasso", "map_soav"])
    def test_no_polish_at_zero_rel_tol(self, kind):
        """At rel_tol = 0 the whole budget runs the plain loop: polishing changes no bit."""
        inst, scale, weights, prox_at = make_soav_problem(seed=8, n=8, m=6)
        if kind == "lasso":
            scale, prox_at = 30.0, lambda g: ternary_prox(g, self.L1)
        config = SolverConfig(max_iters=200, rel_tol=0.0)
        report = admm(inst, prox_at, scale, config)
        with mock.patch.object(optim, "_polish", lambda *args: None):
            plain = admm(inst, prox_at, scale, config)
        assert report.iterations == plain.iterations == 200 and not report.converged
        np.testing.assert_array_equal(report.solution.view(np.uint64),
                                      plain.solution.view(np.uint64))
        assert report.residual == plain.residual

    def test_factor_is_the_scaled_ridge_inverse(self):
        inst, *_ = make_soav_problem(seed=60)
        mu = inst.admm_ridge
        assert mu == 0.005 * inst.mix_norm_sq
        expected = mu * np.linalg.inv(inst.S.T @ inst.S + mu * np.identity(inst.n_users))
        np.testing.assert_allclose(inst.admm_factor, expected, rtol=0.0, atol=1e-10)
        assert not inst.admm_factor.flags.writeable

    def test_stops_on_the_residual_every_ten_iterations(self):
        inst, scale, _, prox_at = make_soav_problem(seed=61)
        report = admm(inst, prox_at, scale, SolverConfig())
        assert report.converged
        assert report.iterations % 10 == 0 and report.iterations < 500
        assert 0.0 < report.residual <= 1e-8
        # Ten iterations fewer, the residual had not yet fallen below rel_tol.
        earlier = admm(inst, prox_at, scale,
                       SolverConfig(max_iters=report.iterations - 10, rel_tol=0.0))
        assert earlier.residual > 1e-8

    def test_budget_runs_out_unconverged(self):
        inst, scale, _, prox_at = make_soav_problem(seed=61)
        for config in (SolverConfig(max_iters=7), SolverConfig(max_iters=50, rel_tol=0.0)):
            report = admm(inst, prox_at, scale, config)
            assert report.iterations == config.max_iters
            assert not report.converged
            assert report.residual > 0.0

    def test_identity_prox_solves_least_squares(self):
        # g = 0: every iterate's fixed point is the least-squares solution.
        rng = np.random.default_rng(62)
        B = rng.standard_normal((12, 8))
        y = rng.standard_normal(12)
        report = admm(instance_of(B, y), identity_at, 0.5, SolverConfig(rel_tol=1e-12))
        np.testing.assert_allclose(report.solution, np.linalg.lstsq(B, y)[0], atol=1e-9)
