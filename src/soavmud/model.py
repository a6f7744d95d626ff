"""Symbol priors, SNR calibration, and synthesis of linear-model realizations.

The received-signal model is ``y = S A b + w`` with ``S`` an M x N real
mixing matrix, ``A = diag(gains)`` the per-user channel gains, ``b`` a
vector of symbols drawn from a finite alphabet, and ``w`` i.i.d. zero-mean
Gaussian noise of variance ``sigma_w2``. A ``SystemInstance`` also forms,
on first use, the M x M Gram (S A)(S A)^T, its top eigenvalue
sigma_max(S A)^2, from which the solvers take their step bound, and the
N x N factor of ADMM's x-update.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "SymbolPrior",
    "SystemInstance",
    "bpsk_prior",
    "sigma_from_snr",
    "gaussian_matrix",
    "synthesize",
    "substream",
]

_PROB_TOL = 1e-12
# ADMM's ridge mu as a share of sigma_max(S A)^2.
_ADMM_RIDGE_SHARE = 0.005


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SymbolPrior:
    """Finite symbol alphabet r_0 < ... < r_L with occurrence probabilities.

    ``cdf`` is the normalized cumulative distribution that ``_draw_symbols``
    searches, formed once here.
    """

    alphabet: np.ndarray
    probs: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alphabet = _readonly(self.alphabet)
        probs = _readonly(self.probs)
        if alphabet.ndim != 1 or alphabet.size < 2:
            raise ValueError("alphabet must be 1-D with at least two symbols")
        if probs.shape != alphabet.shape:
            raise ValueError("probs must have one entry per symbol")
        if not np.all(np.diff(alphabet) > 0):
            raise ValueError("alphabet must be strictly increasing")
        if np.any(probs <= 0.0):
            raise ValueError("all symbol probabilities must be positive")
        if abs(float(probs.sum()) - 1.0) > _PROB_TOL:
            raise ValueError("symbol probabilities must sum to 1")
        # The expressions Generator.choice applies to p, so the draw keeps its bits.
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "cdf", cdf)

    @property
    def n_symbols(self) -> int:
        return int(self.alphabet.size)


@functools.lru_cache(maxsize=64)
def bpsk_prior(rho: float) -> SymbolPrior:
    """On-off BPSK prior: P(0) = rho, P(-1) = P(+1) = (1 - rho) / 2.

    rho is the non-active rate, i.e. the probability that a user transmits
    nothing in the slot. It must lie strictly inside (0, 1) so that every
    symbol keeps positive probability. A prior is read-only, so one object
    per value of rho is built and shared by every trial that asks for it.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (0, 1) for a ternary prior")
    half = 0.5 * (1.0 - rho)
    return SymbolPrior(alphabet=(-1.0, 0.0, 1.0), probs=(half, rho, half))


def sigma_from_snr(snr_db: float, rho: float, n_users: int, n_meas: int) -> float:
    """Noise variance that realizes the requested SNR at non-active rate rho.

    SNR is defined as the ratio of total signal power N(1 - rho) to total
    noise power M sigma_w2, so sigma_w2 = N(1 - rho)/M * 10^(-SNR/10).
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must satisfy 0 <= rho < 1")
    if n_users < 1 or n_meas < 1:
        raise ValueError("n_users and n_meas must be at least 1")
    return n_users * (1.0 - rho) / n_meas * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True, eq=False)
class SystemInstance:
    """One realization of y = S A b + w.

    ``mix`` is the effective mixing matrix S A, formed once here as
    ``S * gains`` and read-only. It is not a constructor argument, so
    ``dataclasses.replace`` forms it anew from the new S and gains. Every
    array must be finite: a NaN or infinite entry raises ValueError naming
    its field.
    """

    S: np.ndarray        # (M, N) mixing matrix
    gains: np.ndarray    # (N,) diagonal of the channel-gain matrix A
    sigma_w2: float
    b: np.ndarray        # (N,) transmitted symbols
    w: np.ndarray        # (M,) noise actually added
    y: np.ndarray        # (M,) received vector
    mix: np.ndarray = field(init=False, repr=False)  # (M, N) S A

    def __post_init__(self):
        S = _readonly(self.S)
        if S.ndim != 2:
            raise ValueError("S must be a 2-D matrix")
        m, n = S.shape
        gains = _readonly(self.gains)
        b = _readonly(self.b)
        w = _readonly(self.w)
        y = _readonly(self.y)
        if gains.shape != (n,):
            raise ValueError("gains must have one entry per user")
        if b.shape != (n,):
            raise ValueError("b must have one entry per user")
        if w.shape != (m,) or y.shape != (m,):
            raise ValueError("w and y must have one entry per measurement")
        if not 0.0 < self.sigma_w2 < math.inf:
            raise ValueError("sigma_w2 must be positive and finite")
        for name, arr in (("S", S), ("gains", gains), ("b", b), ("w", w), ("y", y)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        mix = S * gains
        mix.setflags(write=False)
        object.__setattr__(self, "mix", mix)

    @property
    def n_meas(self) -> int:
        return int(self.S.shape[0])

    @property
    def n_users(self) -> int:
        return int(self.S.shape[1])

    @cached_property
    def gram(self) -> np.ndarray:
        """The M x M Gram matrix (S A)(S A)^T, formed once and read-only.

        lmmse builds its system from it, and ``mix_norm_sq`` is its top
        eigenvalue, so one product serves every detector on this instance.
        """
        gram = self.mix @ self.mix.T
        gram.setflags(write=False)
        return gram

    @cached_property
    def mix_norm_sq(self) -> float:
        """sigma_max(S A)^2, the top eigenvalue of ``gram``, formed once.

        Every solver run on this instance bounds its step with it. It is
        exact to rounding whatever the shape of S A: the nonzero eigenvalues
        of the M x M Gram are those of the N x N one.
        """
        return float(np.linalg.eigvalsh(self.gram)[-1])

    @property
    def admm_ridge(self) -> float:
        """ADMM's ridge mu = 0.005 sigma_max(S A)^2, with which ``admm_factor`` is formed."""
        return _ADMM_RIDGE_SHARE * self.mix_norm_sq

    @cached_property
    def admm_factor(self) -> np.ndarray:
        """The N x N W = I - (S A)^T (mu I + G)^-1 (S A), G = ``gram``, formed once and read-only.

        W / mu is (G' + mu I)^-1 for the N x N Gram G' = (S A)^T (S A), so it
        gives ADMM's x-update at any scale of the quadratic term: lasso and
        map_soav on this instance share it. Formed by one solve of the M x M
        system with N right-hand sides and one N x N product.
        """
        ridged = self.gram + self.admm_ridge * np.identity(self.n_meas)
        factor = np.identity(self.n_users) - self.mix.T @ np.linalg.solve(ridged, self.mix)
        factor.setflags(write=False)
        return factor


def _draw_symbols(prior: SymbolPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. symbols from the prior by inverse-CDF lookup.

    This is the algorithm ``rng.choice(prior.alphabet, size=n, p=prior.probs)``
    runs, without its check of p, so it gives the same symbols and leaves
    ``rng`` in the same state.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return prior.alphabet[prior.cdf.searchsorted(rng.random(n), side="right")]


def gaussian_matrix(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m x n matrix of i.i.d. standard normal entries."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be at least 1")
    return rng.standard_normal((m, n))


def synthesize(
    prior: SymbolPrior,
    S,
    gains,
    sigma_w2: float,
    rng: np.random.Generator,
) -> SystemInstance:
    """Draw (b, w) and assemble one realization of y = S A b + w.

    ``gains`` is the length-N diagonal of A.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ValueError("S must be a 2-D matrix")
    m, n = S.shape
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (n,):
        raise ValueError("gains must have one entry per user")
    if not 0.0 < sigma_w2 < math.inf:
        raise ValueError("sigma_w2 must be positive and finite")
    b = _draw_symbols(prior, n, rng)
    w = rng.normal(0.0, np.sqrt(sigma_w2), size=m)
    y = S.dot(gains * b) + w
    return SystemInstance(S=S, gains=gains, sigma_w2=float(sigma_w2), b=b, w=w, y=y)


def substream(master_seed: int, *keys) -> np.random.Generator:
    """Independent random stream keyed by (master_seed, *keys).

    Float keys are folded in through their IEEE-754 bit pattern, so any
    axis value maps to a distinct stream without rounding ambiguity.
    Streams depend only on their keys, never on evaluation order, which is
    what makes parallel sweeps reproduce serial ones bit for bit.
    """
    words = []
    for key in keys:
        if isinstance(key, (bool, int, np.integer)):
            words.append(int(key) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(key, (float, np.floating)):
            words.append(int(np.float64(key).view(np.uint64)))
        else:
            raise TypeError(f"stream keys must be ints or floats, got {type(key)!r}")
    seq = np.random.SeedSequence(
        entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=tuple(words)
    )
    return np.random.default_rng(seq)
