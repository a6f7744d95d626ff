"""Relaxation weights and proximity operators for sum-of-absolute-values penalties.

The penalty g(x) = sum_l q_l ||x - r_l 1||_1 pulls every coordinate toward
the alphabet points r_l. The weights q are calibrated so that g agrees with
the negative log prior (shifted by a constant C) on every lattice vector,
which replaces the combinatorial MAP search with a continuous program that
is convex whenever all q_l come out nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import SymbolPrior, SystemInstance

__all__ = [
    "SoavWeights",
    "SingularWeightSystemError",
    "UnsupportedAlphabetError",
    "default_offset",
    "solve_weights",
    "soav_objective",
    "ternary_prox",
]

_RESIDUAL_TOL = 1e-9
_TERNARY = np.array([-1.0, 0.0, 1.0])
# Slope of each ternary prox branch: shifts of v alternate with the constants -1, 0, 1.
_SLOPE = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


class SingularWeightSystemError(ValueError):
    """The weight linear system is singular for this alphabet."""


class UnsupportedAlphabetError(ValueError):
    """The closed-form prox only covers the ternary alphabet {-1, 0, +1}."""


@dataclass(frozen=True, eq=False)
class SoavWeights:
    """Calibrated penalty weights q for the alphabet r, with the offset constant c.

    q and c must be finite: a NaN or infinite entry raises ValueError naming
    its field. ``ternary`` records once whether the alphabet is (-1, 0, 1), the only
    one the closed-form prox covers.
    """

    q: np.ndarray
    c: float
    alphabet: np.ndarray
    ternary: bool = field(init=False)

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 1 or q.size < 1:
            raise ValueError("q must be a nonempty vector")
        if not np.isfinite(q).all():
            raise ValueError("q must be finite")
        if not math.isfinite(self.c):
            raise ValueError("c must be finite")
        alphabet = np.array(self.alphabet, dtype=float)
        if alphabet.shape != q.shape:
            raise ValueError("weights and alphabet must have equal length")
        if not np.all(np.diff(alphabet) > 0):
            raise ValueError("alphabet must be strictly increasing")
        q.setflags(write=False)
        alphabet.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "ternary", np.array_equal(alphabet, _TERNARY))

    @property
    def convex(self) -> bool:
        """True when the penalty is convex, i.e. no weight is negative."""
        return bool(np.min(self.q) >= 0.0)


def _build_weight_system(prior: SymbolPrior, c: float):
    """Return (R, p_c) with R[i, j] = |r_i - r_j| and p_c[i] = sum_{l != i} log p_l + c."""
    r = prior.alphabet
    logp = np.log(prior.probs)
    R = np.abs(r[:, None] - r[None, :])
    p_c = logp.sum() - logp + c
    return R, p_c


def default_offset(prior: SymbolPrior, offset: float = 10.0) -> float:
    """Offset constant C = |min_i sum_{l != i} log p_l| + offset.

    The additive margin defaults to 10, which reproduces the reference
    operating points C = 14.6052 (rho = 0.8) and C = 13.7402 (rho = 0.05)
    for the on-off BPSK prior. A NaN or infinite offset raises ValueError.
    """
    if not math.isfinite(offset):
        raise ValueError("offset must be finite")
    logp = np.log(prior.probs)
    cross = logp.sum() - logp
    return abs(float(cross.min())) + offset


def solve_weights(prior: SymbolPrior, c: float) -> SoavWeights:
    """Solve R q = p_c for the penalty weights.

    A singular R, or a solution whose residual exceeds the tolerance, raises
    SingularWeightSystemError; a NaN or infinite c raises ValueError first.
    """
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    R, p_c = _build_weight_system(prior, c)
    try:
        q = np.linalg.solve(R, p_c)
    except np.linalg.LinAlgError as exc:
        raise SingularWeightSystemError("weight system is singular") from exc
    residual = float(np.max(np.abs(R @ q - p_c)))
    if not residual <= _RESIDUAL_TOL:  # also rejects a NaN residual
        raise SingularWeightSystemError(
            f"weight system solved to residual {residual:.2e} only"
        )
    return SoavWeights(q=q, c=float(c), alphabet=prior.alphabet)


def _soav_penalty(x, weights: SoavWeights) -> float:
    """Penalty value sum_l q_l ||x - r_l 1||_1."""
    x = np.asarray(x, dtype=float)
    return float(np.abs(x[:, None] - weights.alphabet).sum(axis=0) @ weights.q)


def soav_objective(x, instance: SystemInstance, weights: SoavWeights) -> float:
    """Full objective: ||y - S x||^2 / (2 sigma_w2) + penalty."""
    x = np.asarray(x, dtype=float)
    if x.shape != (instance.n_users,):
        raise ValueError("x must have one entry per user")
    resid = instance.y - instance.S @ x
    data = float(resid @ resid) / (2.0 * instance.sigma_w2)
    return data + _soav_penalty(x, weights)


def ternary_prox(gamma: float, weights: SoavWeights):
    """The closed-form ternary prox of gamma * g, as a map v -> prox, elementwise.

    Seven branches separated by six breakpoints, alternately a shift v - s
    (slope 1) and a constant (slope 0). Branch i serves v below breakpoint i
    and the first matching branch wins, so the map stays well defined even
    when negative weights make some intervals empty. One sorted search over
    the running maximum of the breakpoints finds that first branch: a
    breakpoint below an earlier one can never be the first above v. NaN
    sorts past every breakpoint and lands on the last branch.

    The inputs are checked and the tables built here, once, so a solver that
    applies the prox at one fixed step pays for them once per solve.
    """
    if not weights.ternary:
        raise UnsupportedAlphabetError("closed-form prox requires alphabet (-1, 0, 1)")
    if not 0.0 < gamma < math.inf:
        raise ValueError("gamma must be positive and finite")
    q0, q1, q2 = weights.q.tolist()
    lo = gamma * (-q0 - q1 - q2)
    inner_lo = gamma * (q0 - q1 - q2)
    inner_hi = gamma * (q0 + q1 - q2)
    hi = gamma * (q0 + q1 + q2)
    edges = np.maximum.accumulate(
        [-1.0 + lo, -1.0 + inner_lo, inner_lo, inner_hi, 1.0 + inner_hi, 1.0 + hi]
    )
    # -s on the shift branches, the constant on the others.
    const = np.array([-lo, -1.0, -inner_lo, 0.0, -inner_hi, 1.0, -hi])

    def prox(values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        idx = edges.searchsorted(v, side="right")
        # v * 1 + (-s) is v - s exactly, and v * 0 + c is c for finite v; an
        # infinite v only reaches the two outer branches, which have slope 1.
        return v * _SLOPE[idx] + const[idx]

    return prox
