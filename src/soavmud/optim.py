"""Accelerated proximal-gradient solver for composite objectives f + g.

f is the quadratic data term scale * ||y - B x||^2 and g is whatever penalty
the supplied prox encodes. The gradient step uses a fixed 1/L step size, so
the solver needs an upper bound L on the Lipschitz constant of grad f, which
``estimate_lipschitz`` obtains by power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "QuadraticData",
    "SolverConfig",
    "SolveReport",
    "DegenerateOperatorError",
    "DivergenceError",
    "gradient",
    "estimate_lipschitz",
    "fista",
    "soft_threshold",
]

_LIPSCHITZ_SAFETY = 1.01
_POWER_SEED = 0x51BB


class DegenerateOperatorError(ValueError):
    """The data operator is identically zero, so no spectral bound exists."""


class DivergenceError(RuntimeError):
    """Iterates became non-finite, usually because L underestimates the true bound."""


@dataclass(frozen=True, eq=False)
class QuadraticData:
    """Quadratic data-fit term scale * ||y - B x||_2^2."""

    B: np.ndarray
    y: np.ndarray
    scale: float

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if B.ndim != 2:
            raise ValueError("B must be a 2-D matrix")
        if y.shape != (B.shape[0],):
            raise ValueError("y must have one entry per row of B")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "y", y)

    def value(self, x) -> float:
        resid = self.y - self.B @ x
        return self.scale * float(resid @ resid)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping control for the proximal solver.

    ``lipschitz=None`` asks the solver to bound the gradient itself via
    power iteration; an explicit positive value skips that step.
    """

    lipschitz: Optional[float] = None
    max_iters: int = 500
    rel_tol: float = 1e-8
    record_trajectory: bool = False

    def __post_init__(self):
        if self.lipschitz is not None and not 0.0 < self.lipschitz < math.inf:
            raise ValueError("lipschitz must be positive and finite when given")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError("rel_tol must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output: solution, iterations used, and objective bookkeeping."""

    solution: np.ndarray
    iterations: int
    final_objective: float
    objective_trace: Optional[list] = None


def gradient(data: QuadraticData, x) -> np.ndarray:
    """Gradient of the quadratic term: 2 * scale * B^T (B x - y)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (data.B.shape[1],):
        raise ValueError("x must have one entry per column of B")
    return 2.0 * data.scale * (data.B.T @ (data.B @ x - data.y))


def estimate_lipschitz(
    data: QuadraticData, rel_tol: float = 1e-6, max_iters: int = 1000
) -> float:
    """Upper bound on the gradient Lipschitz constant 2 * scale * sigma_max(B)^2.

    Power iteration on B^T B with a deterministic start vector; the result
    carries a 1.01 safety factor so a slight underestimate of the spectral
    norm cannot break the step-size condition.
    """
    B = data.B
    if not np.any(B):
        raise DegenerateOperatorError("cannot bound the spectrum of a zero operator")
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(B.shape[1])
    v /= np.linalg.norm(v)
    top = 0.0
    for _ in range(max_iters):
        Bv = B @ v
        estimate = float(Bv @ Bv)
        w = B.T @ Bv
        norm_w = math.sqrt(w.dot(w))
        if norm_w == 0.0:
            # Start vector landed in the null space; try a fresh direction.
            v = rng.standard_normal(B.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w / norm_w
        if abs(estimate - top) <= rel_tol * estimate:
            top = estimate
            break
        top = estimate
    return _LIPSCHITZ_SAFETY * 2.0 * data.scale * top


def soft_threshold(v, gamma: float):
    """Shrink toward zero: sign(v) * max(|v| - gamma, 0)."""
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def fista(
    data: QuadraticData,
    prox: Callable[[np.ndarray, float], np.ndarray],
    config: SolverConfig,
    penalty: Optional[Callable[[np.ndarray], float]] = None,
) -> SolveReport:
    """Accelerated proximal-gradient minimization of f(x) + g(x).

    Args:
        data: quadratic term f(x) = scale * ||y - B x||^2.
        prox: callable (z, gamma) -> prox of gamma * g at z, applied with
            the fixed step gamma = 1/L.
        config: iteration budget, stopping tolerance, optional L.
        penalty: g itself, used only to report objective values; omitted
            means g is treated as zero in the reports.

    Starts from x = 0 with unit momentum weight; each step takes a gradient
    step at the extrapolation point, applies the prox, then extrapolates for
    the next iteration. Stops when ||x_k - x_{k-1}|| <= rel_tol (1 + ||x_k||)
    or the iteration budget runs out; rel_tol = 0 disables the early stop so
    the full budget (and trajectory) is always produced.
    """
    L = config.lipschitz if config.lipschitz is not None else estimate_lipschitz(data)
    gamma = 1.0 / L
    two_scale = 2.0 * data.scale
    g = penalty if penalty is not None else (lambda _x: 0.0)
    B, y = data.B, data.y
    Bt = B.T
    x_prev = np.zeros(B.shape[1])
    x_tilde = x_prev
    x = x_prev
    t = 1.0
    trace = [] if config.record_trajectory else None
    iterations = 0
    for k in range(1, config.max_iters + 1):
        grad = two_scale * (Bt @ (B @ x_tilde - y))
        x = prox(x_tilde - gamma * grad, gamma)
        d = x - x_prev
        # dot() is what np.linalg.norm computes for a vector; the squared step
        # of a non-finite iterate is never finite, but a finite one can overflow.
        sq = d.dot(d)
        if not math.isfinite(sq) and not np.all(np.isfinite(x)):
            raise DivergenceError(
                "solver produced a non-finite iterate; the Lipschitz bound is too small"
            )
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        x_tilde = x + ((t - 1.0) / t_next) * d
        iterations = k
        if trace is not None:
            trace.append(data.value(x) + g(x))
        x_prev = x
        t = t_next
        if config.rel_tol > 0.0 and math.sqrt(sq) <= config.rel_tol * (
            1.0 + math.sqrt(x.dot(x))
        ):
            break
    return SolveReport(
        solution=x,
        iterations=iterations,
        final_objective=data.value(x) + g(x),
        objective_trace=trace,
    )
