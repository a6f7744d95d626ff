"""Proximal solvers for composite objectives f + g on one ``SystemInstance``.

f is the quadratic data term scale * ||y - B x||^2 with B and y the
instance's S and y, and g is whatever penalty the supplied prox encodes. Both
solvers share one contract, ``solver(instance, prox_at, scale, config)``,
with ``prox_at`` mapping gamma to the prox of gamma * g. Each takes the
bound L = ``lipschitz_bound(scale, instance.mix_norm_sq)`` on the Lipschitz
constant of grad f, and both stop on one test: every 10 iterations, and
after the last, the fixed-point residual ||x - prox(x - grad f(x) / L)|| /
(1 + ||x||) of the current estimate, with the prox of g at gamma = 1/L, is
compared with ``rel_tol`` (Boyd et al., "Distributed optimization and
statistical learning via the alternating direction method of multipliers",
FnT ML 2011, section 3.3). It is zero exactly at a minimizer of a convex
f + g.

``admm`` is over-relaxed ADMM on the split x = z (Boyd et al., section
3.4.3). Its x-update is exact, through the factor W that ``_admm_operator``
forms once per instance, so its iteration takes no step bound (L sets only
its stopping test) and cannot diverge on a convex g. The detectors run
every convex problem through it. At each check where its estimate failed
the test, ``admm`` also tries a polish, as OSQP finishes its ADMM
(Stellato et al., "OSQP: an operator splitting solver for quadratic
programs", Math. Prog. Comp. 2020): once the coordinates on a kink of the
ternary penalty are the same as at the previous check, the penalty is
linear on the others, and one small linear solve gives the minimizer for
that kink set. The candidate is returned only if it passes the same
residual test; otherwise the iteration goes on unchanged.

``fista`` is accelerated proximal gradient with a fixed 1/L step. The
detectors run it on the nonconvex SOAV problems, where ADMM stops in worse
stationary points. With a fixed step, x - grad f(x) / L is the affine map
H x + c, where H = I - a B^T B, c = a B^T y and a = 2 scale / L. ``fista``
forms H and c once per solve, so each iteration takes one N x N
matrix-vector product in place of two M x N ones. That costs fewer flops
only while N < 2M, which holds for the paper's systems (N = 100, M = 70)
and every benchmark workload; there is no switch to the two-product form
for N >= 2M.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import SystemInstance

__all__ = [
    "SolverConfig",
    "SolveReport",
    "DivergenceError",
    "lipschitz_bound",
    "admm",
    "fista",
]

_LIPSCHITZ_SAFETY = 1.01
# ADMM's ridge mu as a share of sigma_max(S)^2.
_ADMM_RIDGE_SHARE = 0.005
# ADMM's over-relaxation weight alpha, in the range 1.5-1.8 that Boyd et al.
# (section 3.4.3) recommend.
_ADMM_RELAXATION = 1.6
# Both solvers form their fixed-point residual, and may stop, every this many
# iterations.
_CHECK_EVERY = 10

ProxAt = Callable[[float], Callable[[np.ndarray], np.ndarray]]


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


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping tolerance of the proximal solvers.

    Both solvers stop once the fixed-point residual of their estimate,
    formed every 10 iterations and after the last, is at most ``rel_tol``;
    ``admm`` also stops when its polish of the estimate passes that test.
    0 disables the early stop, so the whole budget runs.
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

    ``iterations`` counts the iterations run before the solve stopped; an
    ``admm`` solution from a polish counts those up to the check that
    accepted it. ``converged`` is True only when the stopping test fired, on
    the iterate or on ``admm``'s polish of it; a solve that ran its whole
    iteration budget without either passing reports False. ``residual`` is
    the fixed-point residual ||x - prox(x - grad f(x) / L)|| / (1 + ||x||)
    of ``solution``, with the prox at gamma = 1/L.
    """

    solution: np.ndarray
    iterations: int
    converged: bool
    residual: float


def lipschitz_bound(scale: float, norm_sq: float) -> float:
    """Upper bound L on the gradient Lipschitz constant 2 * scale * sigma_max(B)^2.

    ``norm_sq`` is sigma_max(B)^2. The product is formed as
    1.01 * 2 * scale * norm_sq, in this order. The 1.01 safety factor once
    covered the shortfall of a power-iteration estimate. With an exact
    ``norm_sq`` it shortens the step by 1%, far more than rounding needs;
    it is kept because dropping it changes the golden sweep CSVs.
    """
    return _LIPSCHITZ_SAFETY * 2.0 * scale * norm_sq


def _step_bound(instance: SystemInstance, scale: float) -> float:
    """L for scale * ||y - S x||^2 on ``instance``; a bad scale or a zero S raises."""
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    L = lipschitz_bound(scale, instance.mix_norm_sq)
    if L == 0.0:
        raise ValueError("S is the zero operator, so no step size bounds it")
    return L


def _stop(x: np.ndarray, step: np.ndarray, prox, rel_tol: float) -> tuple[float, bool]:
    """The residual ||x - prox(step)|| / (1 + ||x||) and whether it stops the solve.

    ``step`` is the point x - grad f(x) / L. The solve stops once the
    residual is at most ``rel_tol``, never at rel_tol = 0. A non-finite
    residual at a non-finite x raises DivergenceError; a finite x whose
    squares overflow is no divergence, and its NaN residual never stops.
    """
    d = x - prox(step)
    residual = math.sqrt(d.dot(d)) / (1.0 + math.sqrt(x.dot(x)))
    if not math.isfinite(residual) and not np.all(np.isfinite(x)):
        raise DivergenceError("solver produced a non-finite iterate")
    return residual, 0.0 < rel_tol and residual <= rel_tol


@functools.lru_cache(maxsize=1)
def _admm_operator(instance: SystemInstance) -> tuple[float, np.ndarray, np.ndarray]:
    """``admm``'s ridge mu, iteration matrix K and offset c on ``instance``, formed once.

    None depends on the scale, so lasso and map_soav on one instance share
    them. The key is the instance, not B, because c depends on y. K and c
    are read-only.
    """
    B, y = instance.S, instance.y
    n = B.shape[1]
    alpha = _ADMM_RELAXATION
    ridge = _ADMM_RIDGE_SHARE * instance.mix_norm_sq
    ridged = instance.gram + ridge * np.identity(B.shape[0])
    W = np.identity(n) - B.T @ np.linalg.solve(ridged, B)
    M = alpha * W
    M.reshape(-1)[:: n + 1] -= 0.5 * alpha
    K = np.hstack((2.0 * M, (1.0 - 0.5 * alpha) * np.identity(n) - M))
    c = W.dot(B.T.dot(y)) * (alpha / ridge)
    K.setflags(write=False)
    c.setflags(write=False)
    return ridge, K, c


def admm(instance: SystemInstance, prox_at: ProxAt, scale: float,
         config: SolverConfig) -> SolveReport:
    """Over-relaxed ADMM minimization of scale * ||y - B x||^2 + g(x), g convex.

    ``prox_at`` maps gamma to the prox of gamma * g. With the ridge
    mu = 0.005 sigma_max(B)^2, W = I - B^T (mu I + B B^T)^-1 B is
    mu (B^T B + mu I)^-1, formed by one solve of the M x M system with N
    right-hand sides. The ADMM penalty is rho_a = 2 scale mu, so the
    x-update argmin_x f(x) + rho_a/2 ||x - z + u||^2 is W (z - u) + W B^T y / mu
    for every scale. From x = z = u = 0 each iteration takes

        x = W (z - u) + W B^T y / mu
        x_hat = alpha x + (1 - alpha) z,  alpha = 1.6
        z = prox of g / rho_a at x_hat + u
        u = u + x_hat - z

    and returns z. The loop keeps z and w = x_hat + u only: then u = w - z,
    z - u = 2 z - w, and the next w is w + alpha (x - z). With
    M = alpha W - (alpha / 2) I that is K [z; w] + c, K = [2 M,
    (1 - alpha / 2) I - M] and c = alpha W B^T y / mu, from
    ``_admm_operator``: one N x 2N product per iteration, into the other of
    two stacked [z; w] buffers.

    At each check whose z fails the stopping test, the kink set, the
    coordinates where z is exactly -1, 0 or 1 (the ternary prox's constant
    branches), is compared with the previous check's. If it is the same,
    ``_polish`` solves for the free coordinates with z held on the kinks,
    and the candidate is returned if it passes the same test at the same
    ``rel_tol``; no candidate passes at rel_tol = 0. A singular or
    non-finite polish is skipped.
    """
    L = _step_bound(instance, scale)
    B, y = instance.S, instance.y
    ridge, K, c = _admm_operator(instance)
    n = B.shape[1]
    prox = prox_at(1.0 / (2.0 * scale * ridge))
    residual_prox = prox_at(1.0 / L)
    a = (1.0 / L) * 2.0 * scale

    def check(x):
        return _stop(x, x - a * B.T.dot(B.dot(x) - y), residual_prox, config.rel_tol)

    # [z; w], both 0, and the buffer the next iteration writes.
    state, next_state = np.zeros(2 * n), np.zeros(2 * n)
    settled = None
    for k in range(1, config.max_iters + 1):
        w = next_state[n:]
        np.dot(K, state, out=w)
        w += c
        next_state[:n] = prox(w)
        state, next_state = next_state, state
        if k % _CHECK_EVERY and k < config.max_iters:
            continue
        z = state[:n]
        residual, converged = check(z)
        if converged:
            break
        # z where it sits on -1, 0 or 1, a constant branch of the prox; 2 elsewhere.
        kinks = np.where((z == 0.0) | (np.abs(z) == 1.0), z, 2.0)
        if settled is not None and np.array_equal(kinks, settled):
            # A polish that fails, however badly, is skipped: the solve goes on.
            with np.errstate(all="ignore"):
                polished = _polish(B, y, ridge, z, state[n:], kinks == 2.0)
                if polished is not None:
                    polished_residual, polished_converged = check(polished)
                    if polished_converged:
                        return SolveReport(solution=polished, iterations=k,
                                           converged=True, residual=polished_residual)
        settled = kinks
    return SolveReport(solution=state[:n].copy(), iterations=k, converged=converged,
                       residual=residual)


def _polish(B: np.ndarray, y: np.ndarray, ridge: float, z: np.ndarray, w: np.ndarray,
            free: np.ndarray) -> np.ndarray | None:
    """The minimizer of f + g on ADMM's kink set, or None when no solve gives one.

    z = prox(w) is ADMM's last prox step, at gamma = 1 / (2 scale mu).
    On a free coordinate the prox takes a shift branch, w - z = gamma * slope
    of g, so g is linear there and its slope over 2 scale is mu (w - z). With
    z kept on the kinks K and the free set F solved for,

        (B_F^T B_F) x_F = B_F^T (y - B_K z_K) - mu (w_F - z_F)

    is the stationarity of f + g in x_F. A singular B_F^T B_F, more than M
    free coordinates or none, or a non-finite x_F gives None.
    """
    if not 0 < np.count_nonzero(free) <= B.shape[0]:
        return None
    x = np.where(free, 0.0, z)
    B_F = B[:, free]
    rhs = B_F.T.dot(y - B.dot(x)) - ridge * (w[free] - z[free])
    try:
        x_F = np.linalg.solve(B_F.T.dot(B_F), rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x_F)):
        return None
    x[free] = x_F
    return x


def fista(instance: SystemInstance, prox_at: ProxAt, scale: float,
          config: SolverConfig) -> SolveReport:
    """Accelerated proximal-gradient minimization of scale * ||y - B x||^2 + g(x).

    ``prox_at`` maps gamma to the prox of gamma * g; it is called once, at
    the fixed step gamma = 1/L. Starts from x = 0 with unit momentum weight;
    each step takes a gradient step at the extrapolation point, applies the
    prox, then extrapolates for the next iteration.
    """
    L = _step_bound(instance, scale)
    B = instance.S
    prox = prox_at(1.0 / L)
    a = (1.0 / L) * 2.0 * scale
    # The gradient step x - a B^T (B x - y) is H x + c; dot skips the dispatch
    # of @ in the loop.
    H = np.identity(B.shape[1]) - a * B.T.dot(B)
    c = a * B.T.dot(instance.y)
    x_prev = np.zeros(B.shape[1])
    x_tilde = x_prev
    t = 1.0
    for k in range(1, config.max_iters + 1):
        z = H.dot(x_tilde)
        z += c
        x = prox(z)
        if k % _CHECK_EVERY == 0 or k == config.max_iters:
            residual, converged = _stop(x, H.dot(x) + c, prox, config.rel_tol)
            if converged:
                break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        # x + beta (x - x_prev), with one temporary fewer.
        x_tilde = (x - x_prev) * ((t - 1.0) / t_next)
        x_tilde += x
        x_prev = x
        t = t_next
    return SolveReport(solution=x, iterations=k, converged=converged, residual=residual)
