"""Accelerated proximal-gradient solver for composite objectives f + g.

f is the quadratic data term scale * ||y - B x||^2 and g is whatever penalty
the supplied prox encodes. The gradient step uses a fixed 1/L step size, so
the caller supplies an upper bound L on the Lipschitz constant of grad f:
``lipschitz_bound`` forms it from sigma_max(B)^2, which the detectors take
from ``SystemInstance.mix_norm_sq``, and the prox the caller passes is that
of g at the matching step gamma = 1/L.

With a fixed step, x - grad f(x) / L is the affine map H x + c, where
H = I - a B^T B, c = a B^T y and a = 2 scale / L. ``fista`` forms H and c
once per solve, so each iteration takes one N x N matrix-vector product in
place of two M x N ones. That costs fewer flops only while N < 2M, which
holds for the paper's systems (N = 100, M = 70) and every benchmark
workload; there is no switch to the two-product form for N >= 2M.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadraticData",
    "SolverConfig",
    "SolveReport",
    "DivergenceError",
    "gradient",
    "lipschitz_bound",
    "fista",
]

_LIPSCHITZ_SAFETY = 1.01


def _as_int(name: str, value) -> int:
    """``value`` as an int; a bool, a float or any other non-integer raises."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(name: str, value) -> float:
    """``value`` as a float; a bool, a string, None or any other non-number raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


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
        if not 0.0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping control for the proximal solver."""

    max_iters: int = 500
    rel_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _as_int("max_iters", self.max_iters))
        object.__setattr__(self, "rel_tol", _as_float("rel_tol", self.rel_tol))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError("rel_tol must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Solver output: the solution and how the solve ended.

    ``converged`` is True only when the stopping test fired; a solve that
    ran its whole iteration budget reports False.
    """

    solution: np.ndarray
    iterations: int
    converged: bool


def gradient(data: QuadraticData, x) -> np.ndarray:
    """Gradient of the quadratic term: 2 * scale * B^T (B x - y)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (data.B.shape[1],):
        raise ValueError("x must have one entry per column of B")
    return 2.0 * data.scale * (data.B.T @ (data.B @ x - data.y))


def lipschitz_bound(scale: float, norm_sq: float) -> float:
    """Upper bound L on the gradient Lipschitz constant 2 * scale * sigma_max(B)^2.

    ``norm_sq`` is sigma_max(B)^2. The product is formed as
    1.01 * 2 * scale * norm_sq, in this order. The 1.01 safety factor once
    covered the shortfall of a power-iteration estimate. With an exact
    ``norm_sq`` it shortens the step by 1%, far more than rounding needs;
    it is kept because dropping it changes the golden sweep CSVs.
    """
    return _LIPSCHITZ_SAFETY * 2.0 * scale * norm_sq


def fista(
    data: QuadraticData,
    prox: Callable[[np.ndarray], np.ndarray],
    config: SolverConfig,
    lipschitz: float,
) -> SolveReport:
    """Accelerated proximal-gradient minimization of f(x) + g(x).

    Args:
        data: quadratic term f(x) = scale * ||y - B x||^2.
        prox: callable z -> prox of gamma * g at z, for the fixed step
            gamma = 1 / lipschitz.
        config: iteration budget and stopping tolerance.
        lipschitz: the bound L on the Lipschitz constant of grad f, e.g.
            ``lipschitz_bound(data.scale, instance.mix_norm_sq)``; it must
            be positive and finite, or ValueError is raised.

    Starts from x = 0 with unit momentum weight; each step takes a gradient
    step at the extrapolation point, applies the prox, then extrapolates for
    the next iteration. Stops when ||x_k - x_{k-1}|| <= rel_tol (1 + ||x_k||)
    or the iteration budget runs out; rel_tol = 0 disables the early stop so
    the full budget is always run. A step whose square overflows never stops
    the solve.
    """
    if not 0.0 < lipschitz < math.inf:
        raise ValueError("lipschitz must be positive and finite")
    rel_tol = config.rel_tol
    B = data.B
    a = (1.0 / lipschitz) * 2.0 * data.scale
    # The gradient step x - a B^T (B x - y) is H x + c. dot skips the dispatch
    # of @ in the loop; on C- and F-ordered B, B.T.dot(B) has the bits of
    # B.T @ B, while on other strided views, e.g. base[:, ::2], the two can
    # differ in the last bits.
    H = np.identity(B.shape[1]) - a * B.T.dot(B)
    c = a * B.T.dot(data.y)
    x_prev = np.zeros(B.shape[1])
    x_tilde = x_prev
    x = x_prev
    t = 1.0
    converged = False
    for k in range(1, config.max_iters + 1):
        z = H.dot(x_tilde)
        z += c
        x = prox(z)
        d = x - x_prev
        # dot() is what np.linalg.norm computes for a vector; the squared step
        # of a non-finite iterate is never finite, but a finite one can overflow.
        sq = d.dot(d)
        if not math.isfinite(sq) and not np.all(np.isfinite(x)):
            raise DivergenceError(
                "solver produced a non-finite iterate; the Lipschitz bound is too small"
            )
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        # x + beta * d, with one temporary fewer.
        x_tilde = d * ((t - 1.0) / t_next)
        x_tilde += x
        x_prev = x
        t = t_next
        # inf <= rel_tol * inf would hold once both squares overflow.
        if (rel_tol > 0.0 and math.isfinite(sq)
                and math.sqrt(sq) <= rel_tol * (1.0 + math.sqrt(x.dot(x)))):
            converged = True
            break
    return SolveReport(solution=x, iterations=k, converged=converged)
