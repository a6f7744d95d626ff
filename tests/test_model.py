"""Tests for symbol priors, SNR calibration, and instance synthesis."""

import dataclasses
import functools

import numpy as np
import pytest
from scipy import stats

from soavmud import model
from soavmud.model import (
    SymbolPrior,
    SystemInstance,
    _draw_symbols,
    bpsk_prior,
    gaussian_matrix,
    sigma_from_snr,
    substream,
    synthesize,
)


class TestSymbolPrior:
    def test_bpsk_prior_splits_mass(self):
        prior = bpsk_prior(0.8)
        np.testing.assert_allclose(prior.alphabet, [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(prior.probs, [0.1, 0.8, 0.1])

    def test_rejects_unsorted_alphabet(self):
        with pytest.raises(ValueError):
            SymbolPrior(alphabet=(1.0, 0.0), probs=(0.5, 0.5))

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            SymbolPrior(alphabet=(-1.0, 0.0, 1.0), probs=(0.5, 0.0, 0.5))

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(ValueError):
            SymbolPrior(alphabet=(-1.0, 1.0), probs=(0.5, 0.6))

    def test_rejects_degenerate_rho(self):
        for rho in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                bpsk_prior(rho)


class TestDrawSymbols:
    def test_near_degenerate_prior_yields_top_symbol(self):
        # The all-mass-on-one-symbol limit: a sliver of probability keeps the
        # prior valid while every draw still lands on r_L.
        eps = 1e-13
        prior = SymbolPrior(alphabet=(-1.0, 1.0), probs=(eps, 1.0 - eps))
        symbols = _draw_symbols(prior, 1000, np.random.default_rng(0))
        assert np.all(symbols == 1.0)

    def test_zero_fraction_matches_rho(self):
        # Law of large numbers: 3-sigma binomial band at n = 1e6 is 0.0012.
        prior = bpsk_prior(0.8)
        symbols = _draw_symbols(prior, 10**6, np.random.default_rng(123))
        assert abs(np.mean(symbols == 0.0) - 0.8) < 0.002

    def test_active_fractions_match_rho(self):
        prior = bpsk_prior(0.05)
        symbols = _draw_symbols(prior, 10**6, np.random.default_rng(124))
        assert abs(np.mean(symbols == 1.0) - 0.475) < 0.002
        assert abs(np.mean(symbols == -1.0) - 0.475) < 0.002

    def test_chi_square_goodness_of_fit(self):
        prior = bpsk_prior(0.3)
        n = 10**6
        symbols = _draw_symbols(prior, n, np.random.default_rng(125))
        observed = [np.count_nonzero(symbols == r) for r in prior.alphabet]
        _, p_value = stats.chisquare(observed, f_exp=prior.probs * n)
        assert p_value > 0.001

    def test_deterministic_given_stream(self):
        prior = bpsk_prior(0.5)
        a = _draw_symbols(prior, 100, np.random.default_rng(7))
        b = _draw_symbols(prior, 100, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            _draw_symbols(bpsk_prior(0.5), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("prior", [
        bpsk_prior(0.05),
        bpsk_prior(0.5),
        bpsk_prior(0.95),
        SymbolPrior(alphabet=(-1.0, 1.0), probs=(0.3, 0.7)),
        SymbolPrior(alphabet=(-2.0, -1.0, 0.0, 1.0, 2.0), probs=(0.1, 0.15, 0.5, 0.2, 0.05)),
    ], ids=["rho0.05", "rho0.5", "rho0.95", "binary", "five-symbol"])
    @pytest.mark.parametrize("n", [1, 100, 10**5])
    def test_equals_generator_choice_bit_for_bit(self, prior, n):
        # The inverse-CDF lookup is the algorithm Generator.choice runs: the
        # same symbols, and the generator left in the same state.
        ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
        drawn = _draw_symbols(prior, n, ours)
        expected = theirs.choice(prior.alphabet, size=n, p=prior.probs)
        assert drawn.dtype == expected.dtype and drawn.tobytes() == expected.tobytes()
        assert ours.random() == theirs.random()

    def test_bpsk_prior_is_one_read_only_object_per_rho(self):
        prior = bpsk_prior(0.3)
        assert bpsk_prior(0.3) is prior
        assert bpsk_prior(0.4) is not prior
        for arr in (prior.alphabet, prior.probs, prior.cdf):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


class TestSigmaFromSnr:
    def test_reference_operating_point(self):
        # 5 dB with signal-power factor 0.05 at N=100, M=70 gives 0.0226.
        sigma = sigma_from_snr(5.0, 0.95, 100, 70)
        assert sigma == pytest.approx(0.0226, abs=5e-5)

    def test_unity_when_all_factors_cancel(self):
        assert sigma_from_snr(0.0, 0.0, 50, 50) == 1.0

    def test_direct_formula_value(self):
        sigma = sigma_from_snr(10.0, 0.8, 100, 70)
        assert sigma == pytest.approx(100 * 0.2 / 70 * 0.1, rel=1e-12)

    def test_inverse_of_snr_definition(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            snr_db, rho = float(rng.uniform(-5, 25)), float(rng.uniform(0, 0.99))
            sigma = sigma_from_snr(snr_db, rho, 100, 70)
            recovered = 10.0 * np.log10(100 * (1 - rho) / (70 * sigma))
            assert abs(recovered - snr_db) < 1e-10

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            sigma_from_snr(5.0, 0.0, 0, 70)

    @pytest.mark.parametrize("rho", [-0.1, 1.0, float("nan")])
    def test_rejects_rho_outside_unit_interval(self, rho):
        with pytest.raises(ValueError, match="0 <= rho < 1"):
            sigma_from_snr(5.0, rho, 100, 70)


class TestSynthesize:
    def test_deterministic_for_fixed_stream(self):
        prior = bpsk_prior(0.8)
        S = gaussian_matrix(7, 10, np.random.default_rng(11))
        one = synthesize(prior, S, np.ones(10), 0.1, np.random.default_rng(5))
        two = synthesize(prior, S, np.ones(10), 0.1, np.random.default_rng(5))
        np.testing.assert_array_equal(one.b, two.b)
        np.testing.assert_array_equal(one.w, two.w)
        np.testing.assert_array_equal(one.y, two.y)

    def test_construction_residual_is_exactly_zero(self):
        prior = bpsk_prior(0.3)
        rng = np.random.default_rng(21)
        S = gaussian_matrix(7, 12, rng)
        gains = rng.uniform(0.5, 2.0, size=12)
        inst = synthesize(prior, S, gains, 0.25, rng)
        residual = inst.y - (S @ (gains * inst.b) + inst.w)
        assert np.linalg.norm(residual) == 0.0
        # At unit gains, as in every harness trial, y has the bits of (S A) b + w.
        inst = synthesize(prior, S, np.ones(12), 0.25, rng)
        assert inst.y.tobytes() == (inst.mix @ inst.b + inst.w).tobytes()

    def test_spectral_bound_is_formed_once(self, monkeypatch):
        grams, eigs = [], []
        real_gram, real_eigvalsh = SystemInstance.gram.func, np.linalg.eigvalsh

        def gram(self):
            grams.append(self)
            return real_gram(self)

        def eigvalsh(a, *args, **kwargs):
            eigs.append(a)
            return real_eigvalsh(a, *args, **kwargs)

        counting = functools.cached_property(gram)
        counting.__set_name__(SystemInstance, "gram")
        monkeypatch.setattr(SystemInstance, "gram", counting)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        rng = np.random.default_rng(22)
        gains = rng.uniform(0.5, 2.0, size=12)
        inst = synthesize(bpsk_prior(0.8), gaussian_matrix(7, 12, rng), gains, 0.25, rng)
        mix = inst.S * gains
        assert inst.mix_norm_sq == inst.mix_norm_sq == float(real_eigvalsh(mix @ mix.T)[-1])
        assert inst.gram is inst.gram
        assert grams == [inst]
        assert len(eigs) == 1 and eigs[0] is inst.gram
        assert inst.gram.tobytes() == (mix @ mix.T).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            inst.gram[0, 0] = 0.0

    def test_mix_is_formed_once_and_read_only(self):
        rng = np.random.default_rng(23)
        S = gaussian_matrix(7, 12, rng)
        gains = rng.uniform(0.5, 2.0, size=12)
        for inst in (
            synthesize(bpsk_prior(0.8), S, gains, 0.25, rng),
            SystemInstance(S=S, gains=gains, sigma_w2=0.25, b=np.zeros(12), w=np.zeros(7),
                           y=np.zeros(7)),
        ):
            assert inst.mix is inst.mix
            assert inst.mix.tobytes() == (S * gains).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                inst.mix[0, 0] = 0.0

    def test_replace_forms_mix_anew(self):
        inst = SystemInstance(S=np.eye(3), gains=np.ones(3), sigma_w2=1.0, b=np.zeros(3),
                              w=np.zeros(3), y=np.zeros(3))
        gains = np.array([1.0, 2.0, 3.0])
        changed = dataclasses.replace(inst, gains=gains)
        assert changed.mix.tobytes() == np.diag(gains).tobytes()
        assert not changed.mix.flags.writeable

    def test_noise_covariance_matches_sigma(self):
        # Monte Carlo covariance estimate over 1e5 draws; the relative
        # Frobenius error concentrates near sqrt((M + 1)/draws) ~ 2.7%.
        prior = bpsk_prior(0.8)
        rng = np.random.default_rng(31)
        S = gaussian_matrix(70, 100, rng)
        sigma_w2 = 0.3
        draws = 10**5
        noise = np.empty((draws, 70))
        for i in range(draws):
            noise[i] = synthesize(prior, S, np.ones(100), sigma_w2, rng).w
        cov = noise.T @ noise / draws
        err = np.linalg.norm(cov - sigma_w2 * np.eye(70)) / np.linalg.norm(
            sigma_w2 * np.eye(70)
        )
        assert err < 0.05

    def test_rejects_dimension_mismatch(self):
        # Each call fails before it draws anything, so the stream is untouched.
        prior = bpsk_prior(0.5)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="gains"):
            synthesize(prior, np.eye(4), np.ones(5), 0.1, rng)
        with pytest.raises(ValueError, match="gains"):
            synthesize(prior, np.eye(4), np.arange(16.0).reshape(4, 4), 0.1, rng)
        with pytest.raises(ValueError, match="2-D"):
            synthesize(prior, np.ones(4), np.ones(4), 0.1, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("sigma_w2", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_rejects_nonpositive_or_nonfinite_noise_variance(self, sigma_w2):
        # A NaN or infinite variance would make every entry of y NaN or infinite.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="sigma_w2"):
            synthesize(bpsk_prior(0.5), np.eye(4), np.ones(4), sigma_w2, rng)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="sigma_w2"):
            SystemInstance(S=np.eye(4), gains=np.ones(4), sigma_w2=sigma_w2,
                           b=np.ones(4), w=np.zeros(4), y=np.ones(4))


def instance_of(S, gains=None):
    """A SystemInstance on S with zero symbols, noise and measurements."""
    S = np.asarray(S, dtype=float)
    m, n = S.shape
    gains = np.ones(n) if gains is None else gains
    return SystemInstance(S=S, gains=gains, sigma_w2=1.0, b=np.zeros(n), w=np.zeros(m),
                          y=np.zeros(m))


class TestSpectralBound:
    @staticmethod
    def matrices():
        rng = np.random.default_rng(40)
        repeated = rng.standard_normal((6, 10))
        repeated[3] = repeated[5] = repeated[1]
        zero_gain = rng.uniform(0.5, 2.0, size=10)
        zero_gain[4] = 0.0
        return {
            "wide": (rng.standard_normal((70, 100)), None),
            "tall": (rng.standard_normal((100, 70)), None),
            "repeated-rows": (repeated, None),
            "zero-gain": (rng.standard_normal((6, 10)), zero_gain),
            "1x1": (rng.standard_normal((1, 1)), None),
        }

    @pytest.mark.parametrize("kind", ["wide", "tall", "repeated-rows", "zero-gain", "1x1"])
    def test_mix_norm_sq_matches_svd(self, kind):
        S, gains = self.matrices()[kind]
        inst = instance_of(S, gains)
        exact = np.linalg.svd(inst.mix, compute_uv=False)[0] ** 2
        assert abs(inst.mix_norm_sq - exact) <= 1e-12 * exact

    def test_zero_operator_has_zero_bound(self):
        assert instance_of(np.ones((3, 4)), np.zeros(4)).mix_norm_sq == 0.0


class TestNonFiniteInputs:
    FIELDS = {"S": (3, 4), "gains": (4,), "b": (4,), "w": (3,), "y": (3,)}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_each_field_rejects_a_non_finite_entry(self, name, bad):
        arrays = {field: np.ones(shape) for field, shape in self.FIELDS.items()}
        arrays[name].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SystemInstance(sigma_w2=1.0, **arrays)

    def test_synthesize_rejects_a_nan_gain(self):
        # A NaN gain makes y NaN; lmmse used to decide all zeros on it.
        gains = np.ones(4)
        gains[2] = np.nan
        with pytest.raises(ValueError, match="gains must be finite"):
            synthesize(bpsk_prior(0.5), np.eye(4), gains, 0.1, np.random.default_rng(0))


class TestGaussianMatrix:
    def test_reproducible_single_draw(self):
        a = gaussian_matrix(1, 1, np.random.default_rng(42))
        b = gaussian_matrix(1, 1, np.random.default_rng(42))
        assert a.shape == (1, 1)
        assert a[0, 0] == b[0, 0]

    def test_moments_within_clt_bands(self):
        m = gaussian_matrix(70, 100, np.random.default_rng(8))
        assert abs(m.mean()) < 0.05
        assert abs(m.var() - 1.0) < 0.05

    def test_different_seeds_differ(self):
        a = gaussian_matrix(3, 3, np.random.default_rng(1))
        b = gaussian_matrix(3, 3, np.random.default_rng(2))
        assert not np.array_equal(a, b)


class TestSubstream:
    def test_same_keys_same_stream(self):
        a = substream(42, 12.0, 3).standard_normal(5)
        b = substream(42, 12.0, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        base = substream(42, 12.0, 3).standard_normal(5)
        for keys in ((42, 12.0, 4), (42, 14.0, 3), (43, 12.0, 3), (42, 3)):
            other = substream(keys[0], *keys[1:]).standard_normal(5)
            assert not np.array_equal(base, other)

    def test_float_keys_resolve_by_bit_pattern(self):
        a = substream(0, 0.8).standard_normal(3)
        b = substream(0, 0.8 + 1e-12).standard_normal(3)
        assert not np.array_equal(a, b)

    def test_rejects_non_numeric_keys(self):
        with pytest.raises(TypeError):
            substream(0, "snr")
