"""Symbol detectors: LMMSE, LASSO, SOAV-regularized MAP, and exhaustive MAP.

Every detector maps a SystemInstance to a continuous estimate plus a hard
ternary decision. The continuous detectors share the same quantizer
``threshold_map`` so their error ratios are directly comparable.

LASSO is SOAV with weights q = (0, 1, 0), whose penalty is ||x||_1, so both
solver detectors run the closed-form ternary prox and differ only in
(scale, weights). A convex problem, lasso always and map_soav when its
weights are nonnegative, runs ``admm``; a nonconvex map_soav runs ``fista``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import SymbolPrior, SystemInstance
from .optim import SolveReport, SolverConfig, _as_float, admm, fista
from .soav import SoavWeights, default_offset, solve_weights, ternary_prox

__all__ = [
    "DETECTOR_KINDS",
    "DetectorConfig",
    "DetectionResult",
    "EnumerationBoundError",
    "threshold_map",
    "lmmse",
    "lasso",
    "map_soav",
    "exhaustive_map",
    "run_detector",
]

DETECTOR_KINDS = ("lmmse", "lasso", "map_soav", "exhaustive_map")

_ENUMERATION_BOUND = 2**24
_ENUMERATION_BLOCK = 2**15
# q_0|x + 1| + q_1|x| + q_2|x - 1| with q = (0, 1, 0) is ||x||_1: the LASSO penalty.
_L1_WEIGHTS = SoavWeights(q=(0.0, 1.0, 0.0), c=0.0, alphabet=(-1.0, 0.0, 1.0))


class EnumerationBoundError(ValueError):
    """The candidate lattice is too large to enumerate."""


@dataclass(frozen=True)
class DetectorConfig:
    """Which detector to run and with what parameters."""

    kind: str
    lam: float = 30.0        # weight on the quadratic term of the LASSO objective
    alpha: float = 0.5       # decision threshold of the ternary quantizer
    offset: float = 10.0     # additive margin in the weight-offset rule
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        if not isinstance(self.solver, SolverConfig):
            raise ValueError(f"solver must be a SolverConfig, got {self.solver!r}")
        for name in ("lam", "alpha", "offset"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")


@dataclass(frozen=True, eq=False)
class DetectionResult:
    """Continuous estimate, hard decision, and the solver report.

    ``diagnostics`` is None for the closed-form and enumerating detectors.
    """

    raw: np.ndarray
    decided: np.ndarray
    diagnostics: Optional[SolveReport] = None


def threshold_map(raw, alpha: float) -> np.ndarray:
    """Quantize to {-1, 0, +1}: -1 below -alpha, 0 on [-alpha, alpha), +1 above.

    Both boundaries are half-open: exactly -alpha maps to 0 and exactly
    +alpha maps to +1.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    v = np.asarray(raw, dtype=float)
    out = np.zeros_like(v)
    out[v < -alpha] = -1.0
    out[v >= alpha] = 1.0
    return out


def lmmse(
    instance: SystemInstance, prior: SymbolPrior, alpha: float = 0.5
) -> DetectionResult:
    """Linear MMSE estimate followed by the ternary quantizer.

    With symbol second moment m2 = E[b^2] the weight matrix is
    m2 S^T (m2 S S^T + sigma_w2 I)^-1; for the on-off BPSK prior
    m2 = 1 - rho. The M x M system is built from the instance's cached Gram
    and solved directly, no inverse is formed.
    """
    m2 = float(prior.probs @ prior.alphabet**2)
    G = instance.gram * m2
    # The diagonal of the C-ordered M x M matrix, as a strided view.
    G.reshape(-1)[:: G.shape[0] + 1] += instance.sigma_w2
    raw = m2 * (instance.S.T @ np.linalg.solve(G, instance.y))
    return DetectionResult(raw=raw, decided=threshold_map(raw, alpha))


def _solve(instance, scale, weights: SoavWeights, config: DetectorConfig) -> DetectionResult:
    """Minimize scale * ||y - S x||^2 + sum_l q_l ||x - r_l 1||_1; quantize.

    Convex weights run ``admm``, nonconvex ones ``fista``, both with the
    prox ``ternary_prox``. Each solver reads sigma_max(S)^2, and ``admm``
    its factor, from the instance's cache, so lasso and map_soav on one
    instance share one eigenvalue solve and one ADMM factor.
    """
    solver = admm if weights.convex else fista
    # The prox factory stays the second positional argument: perfbench's
    # tracer wraps fista as fista(instance, prox_at, *args) and times prox_at.
    report = solver(instance, functools.partial(ternary_prox, weights=weights), scale,
                    config.solver)
    return DetectionResult(
        raw=report.solution,
        decided=threshold_map(report.solution, config.alpha),
        diagnostics=report,
    )


def lasso(instance: SystemInstance, config: DetectorConfig) -> DetectionResult:
    """Solve min_x lam * ||y - S x||^2 + ||x||_1, SOAV with q = (0, 1, 0), and quantize."""
    return _solve(instance, config.lam, _L1_WEIGHTS, config)


def map_soav(
    instance: SystemInstance, prior: SymbolPrior, config: DetectorConfig
) -> DetectionResult:
    """SOAV-regularized MAP detector.

    Calibrates the penalty weights from the prior, then minimizes
    ||y - S x||^2 / (2 sigma_w2) + sum_l q_l ||x - r_l 1||_1 with the
    closed-form ternary prox, by ADMM when the weights are convex and by
    accelerated proximal gradient otherwise, and quantizes the result. A
    non-ternary prior raises ``UnsupportedAlphabetError`` from
    ``ternary_prox`` before the solve starts.
    """
    weights = solve_weights(prior, default_offset(prior, config.offset))
    return _solve(instance, 1.0 / (2.0 * instance.sigma_w2), weights, config)


@functools.lru_cache(maxsize=1)
def _lattice_block(n_users: int, alphabet: tuple, logp: tuple, start: int, stop: int):
    """Candidates start..stop-1 of the lattice and their prior terms, read-only.

    Candidate c holds the base-k digits of c, most significant first, mapped
    through ``alphabet``; its prior term is the sum of ``logp`` over those
    digits. The key is the exact values, block bounds included, so a changed
    block size never returns a stale block. One block is kept: a lattice of
    one block is built once for a run of trials on the same (N, prior), and a
    larger one is rebuilt block by block on every call.
    """
    k = len(alphabet)
    place = k ** np.arange(n_users - 1, -1, -1, dtype=np.int64)
    codes = np.arange(start, stop, dtype=np.int64)
    digits = (codes[:, None] // place[None, :]) % k
    X = np.asarray(alphabet)[digits]
    prior_term = np.asarray(logp)[digits].sum(axis=1)
    X.flags.writeable = False
    prior_term.flags.writeable = False
    return X, prior_term


def exhaustive_map(instance: SystemInstance, prior: SymbolPrior) -> DetectionResult:
    """Exact MAP detection by full lattice enumeration.

    Only feasible for small problems; refuses to enumerate more than 2^24
    candidates. Candidates are scanned in lexicographic order of their
    symbol indices and ties keep the earliest candidate, so the result is
    deterministic. The candidates and their prior terms depend only on
    (N, prior) and come from ``_lattice_block``, which keeps its last block:
    a lattice of one block (at most 2^15 candidates, N <= 9 on a ternary
    alphabet) is built once for a run of trials on one (N, prior).
    """
    n = instance.n_users
    k = prior.n_symbols
    total = k**n
    if total > _ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"{k}^{n} = {total} candidates exceed the enumeration bound {_ENUMERATION_BOUND}"
        )
    B = instance.S
    logp = np.log(prior.probs)
    const = n * float(logp.sum())
    key = (n, tuple(prior.alphabet.tolist()), tuple(logp.tolist()))
    best_value = np.inf
    best_x = None
    for start in range(0, total, _ENUMERATION_BLOCK):
        X, prior_term = _lattice_block(*key, start, min(start + _ENUMERATION_BLOCK, total))
        resid = instance.y[None, :] - X @ B.T
        values = (
            np.einsum("ij,ij->i", resid, resid) / (2.0 * instance.sigma_w2)
            + const
            - prior_term
        )
        j = int(np.argmin(values))
        if values[j] < best_value:
            best_value = float(values[j])
            best_x = X[j].copy()
    return DetectionResult(raw=best_x, decided=best_x.copy())


def run_detector(
    instance: SystemInstance, prior: SymbolPrior, config: DetectorConfig
) -> DetectionResult:
    """Dispatch on config.kind."""
    if config.kind == "lmmse":
        return lmmse(instance, prior, alpha=config.alpha)
    if config.kind == "lasso":
        return lasso(instance, config)
    if config.kind == "map_soav":
        return map_soav(instance, prior, config)
    return exhaustive_map(instance, prior)
