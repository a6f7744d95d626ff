"""Proximal solvers for composite objectives f + g.

f is the quadratic data term scale * ||y - B x||^2 and g is whatever penalty
the supplied prox encodes. Both solvers take an upper bound L on the
Lipschitz constant of grad f: ``lipschitz_bound`` forms it from
sigma_max(B)^2, which the detectors take from ``SystemInstance.mix_norm_sq``.
Both report the fixed-point residual ||x - prox(x - grad f(x) / L)|| /
(1 + ||x||) of the estimate they return, with the prox of g at gamma = 1/L;
it is zero exactly at a minimizer of a convex f + g.

``admm`` is over-relaxed ADMM on the split x = z (Boyd et al., "Distributed
optimization and statistical learning via the alternating direction method
of multipliers", FnT ML 2011, section 3.4.3). Its x-update is exact, through
a factor W the caller forms once per B, so its iteration takes no step bound
(L sets only its stopping test) and cannot diverge on a convex g. It stops on
the fixed-point residual. The detectors run every convex problem through it.

``fista`` is accelerated proximal gradient with a fixed 1/L step. It stops
on the size of its last step. The detectors run it on the nonconvex SOAV
problems, where ADMM stops in worse stationary points. With a fixed step,
x - grad f(x) / L is the affine map H x + c, where H = I - a B^T B,
c = a B^T y and a = 2 scale / L. ``fista`` forms H and c once per solve, so
each iteration takes one N x N matrix-vector product in place of two M x N
ones. That costs fewer flops only while N < 2M, which holds for the paper's
systems (N = 100, M = 70) and every benchmark workload; there is no switch to
the two-product form for N >= 2M.
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
    "admm",
    "fista",
]

_LIPSCHITZ_SAFETY = 1.01
# ADMM's over-relaxation weight alpha, in the range 1.5-1.8 that Boyd et al.
# (section 3.4.3) recommend.
_ADMM_RELAXATION = 1.6
# ADMM forms its fixed-point residual, and may stop, every this many iterations.
_ADMM_CHECK_EVERY = 10


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
    """Iteration budget and stopping tolerance of the proximal solvers.

    ``rel_tol`` bounds what each solver tests: ``admm`` the fixed-point
    residual of its estimate, every 10 iterations; ``fista`` its last step
    relative to 1 + ||x||, every iteration. 0 disables the early stop, so
    the whole budget runs.
    """

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
    ran its whole iteration budget reports False. ``residual`` is the
    fixed-point residual ||x - prox(x - grad f(x) / L)|| / (1 + ||x||) of
    ``solution``, with the prox at gamma = 1/L.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    residual: float


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


def _residual(x: np.ndarray, step: np.ndarray, prox) -> float:
    """||x - prox(step)|| / (1 + ||x||), with ``step`` the point x - grad f(x) / L."""
    d = x - prox(step)
    return math.sqrt(d.dot(d)) / (1.0 + math.sqrt(x.dot(x)))


def _check_lipschitz(lipschitz: float) -> None:
    if not 0.0 < lipschitz < math.inf:
        raise ValueError("lipschitz must be positive and finite")


def admm(
    data: QuadraticData,
    prox_at: Callable[[float], Callable[[np.ndarray], np.ndarray]],
    config: SolverConfig,
    lipschitz: float,
    factor: np.ndarray,
    ridge: float,
) -> SolveReport:
    """Over-relaxed ADMM minimization of f(x) + g(x), g convex.

    Args:
        data: quadratic term f(x) = scale * ||y - B x||^2.
        prox_at: callable gamma -> (z -> prox of gamma * g at z).
        config: iteration budget and stopping tolerance.
        lipschitz: the bound L on the Lipschitz constant of grad f, e.g.
            ``lipschitz_bound(data.scale, instance.mix_norm_sq)``; it sets
            the prox step 1/L of the stopping test only. It must be
            positive and finite, or ValueError is raised.
        factor: the N x N matrix W = I - B^T (ridge I + B B^T)^-1 B, e.g.
            ``instance.admm_factor``.
        ridge: the mu > 0 that ``factor`` was formed with, e.g.
            ``instance.admm_ridge``.

    The ADMM penalty is rho_a = 2 scale mu, so the x-update
    argmin_x f(x) + rho_a/2 ||x - z + u||^2 is W (z - u) + W B^T y / mu for
    every scale: one W serves every detector on one B. From x = z = u = 0
    each iteration takes

        x = W (z - u) + W B^T y / mu
        x_hat = alpha x + (1 - alpha) z,  alpha = 1.6
        z = prox of g / rho_a at x_hat + u
        u = u + x_hat - z

    and returns z. The loop keeps z and w = x_hat + u only: then u = w - z,
    z - u = 2 z - w, and the next w is w + alpha (x - z). With
    M = alpha W - (alpha / 2) I that is [2 M, (1 - alpha / 2) I - M] [z; w]
    plus alpha W B^T y / mu: one N x 2N product per iteration, into the
    other of two stacked [z; w] buffers. Every 10 iterations, and after the
    last, it forms the fixed-point residual of z and stops once that is
    <= rel_tol; rel_tol = 0 disables the early stop. A non-finite residual
    at a non-finite z raises DivergenceError.
    """
    _check_lipschitz(lipschitz)
    if not 0.0 < ridge < math.inf:
        raise ValueError("ridge must be positive and finite")
    B, y = data.B, data.y
    n = B.shape[1]
    W = np.asarray(factor, dtype=float)
    if W.shape != (n, n):
        raise ValueError("factor must be N x N, one row and column per column of B")
    rel_tol = config.rel_tol
    alpha = _ADMM_RELAXATION
    prox = prox_at(1.0 / (2.0 * data.scale * ridge))
    residual_prox = prox_at(1.0 / lipschitz)
    a = (1.0 / lipschitz) * 2.0 * data.scale
    M = alpha * W
    M.reshape(-1)[:: n + 1] -= 0.5 * alpha
    K = np.hstack((2.0 * M, (1.0 - 0.5 * alpha) * np.identity(n) - M))
    c = W.dot(B.T.dot(y)) * (alpha / ridge)
    # [z; w], both 0, and the buffer the next iteration writes.
    state, next_state = np.zeros(2 * n), np.zeros(2 * n)
    converged = False
    for k in range(1, config.max_iters + 1):
        w = next_state[n:]
        np.dot(K, state, out=w)
        w += c
        next_state[:n] = prox(w)
        state, next_state = next_state, state
        if k % _ADMM_CHECK_EVERY and k < config.max_iters:
            continue
        z = state[:n]
        residual = _residual(z, z - a * B.T.dot(B.dot(z) - y), residual_prox)
        if not math.isfinite(residual) and not np.all(np.isfinite(z)):
            raise DivergenceError("solver produced a non-finite iterate")
        if rel_tol > 0.0 and residual <= rel_tol:
            converged = True
            break
    return SolveReport(solution=state[:n].copy(), iterations=k, converged=converged,
                       residual=residual)


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
    the solve. The fixed-point residual of the returned x is formed once,
    after the loop.
    """
    _check_lipschitz(lipschitz)
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
    residual = _residual(x, H.dot(x) + c, prox)
    return SolveReport(solution=x, iterations=k, converged=converged, residual=residual)
