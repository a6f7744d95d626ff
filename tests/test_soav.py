"""Tests for the relaxation weight system and the proximity operators."""

import numpy as np
import pytest

from oracles import (
    noiseless_instance,
    prox_1d_exhaustive,
    soft_threshold,
    ternary_prox_breakpoints,
    ternary_prox_cascade,
)
from soavmud import soav
from soavmud.model import SymbolPrior, bpsk_prior, gaussian_matrix, synthesize
from soavmud.soav import (
    SingularWeightSystemError,
    SoavWeights,
    UnsupportedAlphabetError,
    _build_weight_system,
    _soav_penalty,
    default_offset,
    soav_objective,
    solve_weights,
    ternary_prox,
)

TERNARY = (-1.0, 0.0, 1.0)


def ternary_weights(q):
    return SoavWeights(q=q, c=0.0, alphabet=TERNARY)


class TestWeightSystem:
    def test_distance_matrix_for_ternary_alphabet(self):
        R, _ = _build_weight_system(bpsk_prior(0.5), 1.0)
        np.testing.assert_array_equal(R, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_rhs_at_reference_offset(self):
        # Log arithmetic for rho = 0.8 with the literal printed constant.
        _, p_c = _build_weight_system(bpsk_prior(0.8), 14.6052)
        np.testing.assert_allclose(p_c, [12.0795, 10.0000, 12.0795], atol=5e-5)

    def test_uniform_prior_cancels_exactly(self):
        prior = SymbolPrior(alphabet=TERNARY, probs=(1 / 3, 1 / 3, 1 / 3))
        _, p_c = _build_weight_system(prior, 2.0 * np.log(3.0))
        np.testing.assert_allclose(p_c, np.zeros(3), atol=1e-12)


class TestDefaultOffset:
    def test_sparse_operating_point(self):
        assert default_offset(bpsk_prior(0.8)) == pytest.approx(14.6052, abs=1e-3)

    def test_dense_operating_point(self):
        assert default_offset(bpsk_prior(0.05)) == pytest.approx(13.7402, abs=1e-3)

    def test_uniform_prior(self):
        prior = SymbolPrior(alphabet=TERNARY, probs=(1 / 3, 1 / 3, 1 / 3))
        assert default_offset(prior) == pytest.approx(2.0 * np.log(3.0) + 10.0, rel=1e-12)


class TestSolveWeights:
    def test_sparse_weights_are_convex(self):
        weights = solve_weights(bpsk_prior(0.8), 14.6052)
        np.testing.assert_allclose(weights.q, [5.0, 2.0794, 5.0], atol=1e-3)
        assert weights.convex

    def test_dense_weights_are_nonconvex(self):
        weights = solve_weights(bpsk_prior(0.05), 13.7402)
        np.testing.assert_allclose(weights.q, [6.1256, -2.2513, 6.1256], atol=1e-3)
        assert not weights.convex

    def test_uniform_prior_by_hand_elimination(self):
        prior = SymbolPrior(alphabet=TERNARY, probs=(1 / 3, 1 / 3, 1 / 3))
        weights = solve_weights(prior, default_offset(prior))
        np.testing.assert_allclose(weights.q, [5.0, 0.0, 5.0], atol=1e-12)

    def test_residual_meets_tolerance(self):
        for rho in (0.05, 0.3, 0.8, 0.95):
            prior = bpsk_prior(rho)
            c = default_offset(prior)
            R, p_c = _build_weight_system(prior, c)
            weights = solve_weights(prior, c)
            assert np.max(np.abs(R @ weights.q - p_c)) < 1e-9

    def test_symmetric_priors_give_symmetric_weights(self):
        for rho in (0.05, 0.2, 0.5, 0.8, 0.95):
            weights = solve_weights(bpsk_prior(rho), default_offset(bpsk_prior(rho)))
            assert weights.q[0] == pytest.approx(weights.q[2], rel=1e-12)

    def test_relaxation_matches_log_prior_on_lattice(self):
        # On every alphabet point the weighted l1 spread must equal the
        # shifted log-prior row it was calibrated against.
        for rho in (0.05, 0.8):
            prior = bpsk_prior(rho)
            c = default_offset(prior)
            weights = solve_weights(prior, c)
            logp = np.log(prior.probs)
            for i, r_i in enumerate(prior.alphabet):
                lhs = sum(
                    weights.q[l] * abs(r_i - prior.alphabet[l])
                    for l in range(3) if l != i
                )
                rhs = logp.sum() - logp[i] + c
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_weights_carry_their_alphabet(self):
        prior = bpsk_prior(0.8)
        weights = solve_weights(prior, default_offset(prior))
        np.testing.assert_array_equal(weights.alphabet, prior.alphabet)
        assert weights.ternary

    def test_alphabet_length_must_match_weights(self):
        with pytest.raises(ValueError, match="equal length"):
            SoavWeights(q=(1.0, 1.0, 1.0), c=0.0, alphabet=(-1.0, 1.0))

    def test_alphabet_must_increase_strictly(self):
        for alphabet in ((1.0, 0.0, -1.0), (-1.0, 0.0, 0.0)):
            with pytest.raises(ValueError, match="strictly increasing"):
                SoavWeights(q=(1.0, 1.0, 1.0), c=0.0, alphabet=alphabet)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["q", "c"])
    def test_nonfinite_weights_rejected(self, field, value):
        # Unchecked, q = (inf, 1, 0) read convex and its prox sent [-2, 0.3, 2]
        # to [-1, -1, -1]; q = (nan, 1, 0) gave a NaN prox.
        args = {"q": (1.0, 1.0, 0.0), "c": 0.0}
        args[field] = (value, 1.0, 0.0) if field == "q" else value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SoavWeights(alphabet=TERNARY, **args)

    def test_singular_system_raises(self, monkeypatch):
        # A strictly increasing alphabet always gives a regular R (the matrix
        # of a Euclidean distance), so a zero R stands in for a singular one.
        monkeypatch.setattr(
            soav, "_build_weight_system", lambda prior, c: (np.zeros((3, 3)), np.ones(3))
        )
        with pytest.raises(SingularWeightSystemError, match="weight system is singular"):
            solve_weights(bpsk_prior(0.8), 14.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_nonfinite_offset_raises(self, c):
        # Bad input, not a singular system: a sweep would count a
        # SingularWeightSystemError as a recoverable detector failure.
        with pytest.raises(ValueError, match="^c must be finite$") as raised:
            solve_weights(bpsk_prior(0.8), c)
        assert not isinstance(raised.value, SingularWeightSystemError)
        with pytest.raises(ValueError, match="^offset must be finite$"):
            default_offset(bpsk_prior(0.8), c)


class TestSoavObjective:
    def test_zero_residual_leaves_penalty_only(self):
        prior = bpsk_prior(0.8)
        weights = solve_weights(prior, default_offset(prior))
        rng = np.random.default_rng(2)
        inst = noiseless_instance(prior, gaussian_matrix(7, 10, rng), 0.5, rng)
        value = soav_objective(inst.b, inst, weights)
        assert value == pytest.approx(_soav_penalty(inst.b, weights))

    def test_hand_evaluated_l1_terms(self):
        prior = bpsk_prior(0.5)
        weights = SoavWeights(q=(1.0, 1.0, 1.0), c=0.0, alphabet=TERNARY)
        inst = noiseless_instance(prior, np.eye(2), 1.0, np.random.default_rng(0))
        # Force x = 0, y = 0: only the l1 spread terms remain.
        inst = type(inst)(S=inst.S, sigma_w2=1.0,
                          b=inst.b, w=np.zeros(2), y=np.zeros(2))
        assert soav_objective(np.zeros(2), inst, weights) == pytest.approx(4.0)

    def test_doubling_sigma_halves_data_term(self):
        prior = bpsk_prior(0.8)
        weights = solve_weights(prior, default_offset(prior))
        rng = np.random.default_rng(5)
        inst = synthesize(prior, gaussian_matrix(6, 9, rng), 0.2, rng)
        x = rng.standard_normal(9)
        pen = _soav_penalty(x, weights)
        base = soav_objective(x, inst, weights) - pen
        doubled = type(inst)(S=inst.S, sigma_w2=0.4,
                             b=inst.b, w=inst.w, y=inst.y)
        assert soav_objective(x, doubled, weights) - pen == pytest.approx(
            base / 2.0, rel=1e-12
        )

    def test_dimension_mismatch(self):
        prior = bpsk_prior(0.8)
        weights = solve_weights(prior, default_offset(prior))
        rng = np.random.default_rng(5)
        inst = synthesize(prior, gaussian_matrix(6, 9, rng), 0.2, rng)
        with pytest.raises(ValueError):
            soav_objective(np.zeros(8), inst, weights)


class TestProxTernary:
    def test_identity_when_weights_vanish(self):
        weights = ternary_weights((0.0, 0.0, 0.0))
        for v in (-5.0, -0.3, 0.0, 1.0, 9.9):
            assert ternary_prox(0.7, weights)([v])[0] == v

    def test_reference_points_against_oracle(self):
        # Frozen values confirmed with the exhaustive 1-D oracle.
        weights = ternary_weights((5.0, 2.0794, 5.0))
        cases = [(0.0, 0.0), (0.5, 0.29206), (-3.0, -1.79206)]
        for v, expected in cases:
            assert ternary_prox(0.1, weights)([v])[0] == pytest.approx(expected, abs=1e-12)
            oracle = prox_1d_exhaustive(v, 0.1, (5.0, 2.0794, 5.0), TERNARY)
            assert ternary_prox(0.1, weights)([v])[0] == pytest.approx(oracle, abs=1e-9)

    def test_matches_oracle_on_random_convex_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            gamma = float(rng.uniform(0.01, 1.0))
            q = rng.uniform(0.0, 10.0, size=3)
            v = float(rng.uniform(-3.0, 3.0))
            oracle = prox_1d_exhaustive(v, gamma, q, TERNARY)
            assert ternary_prox(gamma, ternary_weights(q))([v])[0] == pytest.approx(
                oracle, abs=1e-9
            )

    def test_monotone_and_nonexpansive_for_convex_weights(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            gamma = float(rng.uniform(0.05, 0.8))
            weights = ternary_weights(rng.uniform(0.0, 5.0, 3))
            v = np.sort(rng.uniform(-4.0, 4.0, size=200))
            out = ternary_prox(gamma, weights)(v)
            diffs = np.diff(out)
            assert np.all(diffs >= -1e-12)
            assert np.all(diffs <= np.diff(v) + 1e-12)

    def test_nonconvex_zero_branch_never_fires(self):
        weights = solve_weights(bpsk_prior(0.05), default_offset(bpsk_prior(0.05)))
        v = np.linspace(-0.2, 0.2, 81)
        out = ternary_prox(0.1, weights)(v)
        assert not np.any(out == 0.0)

    def test_wrong_alphabet_is_rejected(self):
        weights = SoavWeights(q=(1.0, 1.0), c=0.0, alphabet=(-2.0, 2.0))
        with pytest.raises(UnsupportedAlphabetError):
            ternary_prox(0.1, weights)

    def test_nonpositive_gamma_is_rejected(self):
        weights = ternary_weights((1.0, 1.0, 1.0))
        for gamma in (0.0, -0.1):
            with pytest.raises(ValueError, match="gamma"):
                ternary_prox(gamma, weights)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_nonfinite_gamma_is_rejected(self, gamma):
        # Unchecked, gamma = inf sends 0.3 and 2.0 to -1 under q = (1, 0, 1).
        for q in ((1.0, 1.0, 1.0), (1.0, 0.0, 1.0)):
            with pytest.raises(ValueError, match="gamma"):
                ternary_prox(gamma, ternary_weights(q))

    @pytest.mark.parametrize("gamma", [1e-3, 0.1, 0.5, 2.0])
    def test_l1_weights_give_the_soft_threshold(self, gamma):
        # q = (0, 1, 0) makes the penalty ||x||_1, the LASSO prox.
        edges = np.array([0.0, gamma, 1.0 + gamma, np.inf])
        v = np.concatenate([edges, -edges, np.nextafter(edges, 0.0), [np.nan],
                            np.linspace(-3.0, 3.0, 601)])
        out = ternary_prox(gamma, ternary_weights((0.0, 1.0, 0.0)))(v)
        # assert_array_equal compares by == and wants NaN in the same places.
        np.testing.assert_array_equal(out, soft_threshold(v, gamma))


class TestProxMatchesCascade:
    """The one-pass prox returns the seven-branch cascade's bits exactly."""

    @staticmethod
    def probe_values(rng, gamma, q):
        edges = np.array(ternary_prox_breakpoints(gamma, q))
        return np.concatenate([
            rng.standard_normal(400) * 2.0,
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            [0.0, -0.0, -1.0, 1.0, np.inf, -np.inf, np.nan],
        ])

    def assert_bitwise_equal(self, gamma, q, rng):
        v = self.probe_values(rng, gamma, q)
        out = ternary_prox(gamma, ternary_weights(q))(v)
        ref = ternary_prox_cascade(v, gamma, tuple(q))
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))

    def test_paper_weights(self):
        rng = np.random.default_rng(31)
        for rho in (0.05, 0.2, 0.8, 0.95):
            prior = bpsk_prior(rho)
            q = solve_weights(prior, default_offset(prior)).q
            for gamma in (1e-3, 0.01, 0.1, 0.5, 2.0):
                self.assert_bitwise_equal(gamma, q, rng)

    def test_l1_weights(self):
        rng = np.random.default_rng(33)
        for gamma in (1e-3, 0.01, 0.1, 0.5, 2.0):
            self.assert_bitwise_equal(gamma, (0.0, 1.0, 0.0), rng)

    def test_random_weights_with_negative_middle_weight(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            q = (rng.uniform(0.0, 8.0), -rng.uniform(0.0, 8.0), rng.uniform(0.0, 8.0))
            self.assert_bitwise_equal(float(rng.uniform(0.001, 1.0)), q, rng)

