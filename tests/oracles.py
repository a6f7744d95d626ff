"""Independent reference implementations used to pin expected test values.

Everything here deliberately uses the dumbest correct method available
(full decompositions, exhaustive candidate enumeration, unaccelerated
iterations, dense grids) and never calls the library code it checks;
``noiseless_instance`` only packs its own draw into a ``SystemInstance``.
"""

import math

import numpy as np

from soavmud.model import SystemInstance


def prox_objective_1d(u, v, gamma, q, alphabet):
    """Objective of the scalar prox subproblem at u (u may be an array)."""
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(alphabet, dtype=float)
    penalty = np.abs(u[..., None] - r) @ q
    return penalty + (u - v) ** 2 / (2.0 * gamma)


def prox_1d_exhaustive(v, gamma, q, alphabet, grid_halfwidth=4.0, grid_points=2001):
    """Exact scalar prox by candidate enumeration.

    Candidates: every alphabet point, the stationary point of every sign
    pattern (all 2^L combinations, a superset of the attainable ones), and a
    coarse safety grid. The global minimizer of a piecewise quadratic with
    positive curvature is always a breakpoint or an interior stationary
    point, so the exact minimizer is in this set.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(alphabet, dtype=float)
    signs = np.array(
        [[1.0 if (mask >> l) & 1 else -1.0 for l in range(q.size)]
         for mask in range(2 ** q.size)]
    )
    stationary = v - gamma * (signs @ q)
    grid = np.linspace(v - grid_halfwidth, v + grid_halfwidth, grid_points)
    candidates = np.concatenate([r, stationary, grid])
    values = prox_objective_1d(candidates, v, gamma, q, alphabet)
    return float(candidates[int(np.argmin(values))])


def prox_vector_exhaustive(values, gamma, q, alphabet):
    """Vectorized exact prox (no safety grid; breakpoints + stationary points).

    Used inside the long-run solver oracles where speed matters; the
    candidate set still contains the exact global minimizer. ``gamma`` may
    be a scalar or one step per element.
    """
    v = np.asarray(values, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(alphabet, dtype=float)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), v.shape)
    signs = np.array(
        [[1.0 if (mask >> l) & 1 else -1.0 for l in range(q.size)]
         for mask in range(2 ** q.size)]
    )
    candidates = np.vstack(
        [
            v[None, :] - gamma[None, :] * (signs @ q)[:, None],
            np.broadcast_to(r[:, None], (r.size, v.size)),
        ]
    )
    penalty = np.abs(candidates[:, :, None] - r) @ q
    objective = penalty + (candidates - v) ** 2 / (2.0 * gamma[None, :])
    best = np.argmin(objective, axis=0)
    return candidates[best, np.arange(v.size)]


def soav_objective_ref(x, B, y, sigma_w2, q, alphabet):
    """Reference composite objective ||y - Bx||^2/(2 sigma) + sum_l q_l ||x - r_l||_1."""
    x = np.asarray(x, dtype=float)
    resid = y - B @ x
    data = float(resid @ resid) / (2.0 * sigma_w2)
    penalty = float(np.abs(x[:, None] - np.asarray(alphabet)).sum(axis=0) @ np.asarray(q))
    return data + penalty


def unaccelerated_prox_gradient(B, y, scale, gamma_times_q_prox, lipschitz, iters):
    """Plain (monotone) proximal gradient descent, no momentum, fixed 1/L step.

    gamma_times_q_prox(z, gamma) must return the prox of gamma * g at z.
    """
    x = np.zeros(B.shape[1])
    step = 1.0 / lipschitz
    for _ in range(iters):
        grad = 2.0 * scale * (B.T @ (B @ x - y))
        x = gamma_times_q_prox(x - step * grad, step)
    return x


def soav_prox_gradient_oracle(B, y, sigma_w2, q, alphabet, lipschitz, iters):
    """Long-run unaccelerated solver for the SOAV objective, oracle prox inside."""
    def prox(z, gamma):
        return prox_vector_exhaustive(z, gamma, q, alphabet)

    scale = 1.0 / (2.0 * sigma_w2)
    return unaccelerated_prox_gradient(B, y, scale, prox, lipschitz, iters)


def batched_soav_prox_gradient_oracle(Bs, ys, sigma_w2s, q, alphabet, lipschitzes, iters):
    """Unaccelerated proximal gradient on a whole stack of instances at once.

    Same iteration as soav_prox_gradient_oracle, vectorized over instances so
    a 50k-iteration run over tens of instances stays fast. Returns an array
    of solutions, one row per instance.
    """
    B = np.asarray(Bs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n_inst, _, n = B.shape
    scales = 1.0 / (2.0 * np.asarray(sigma_w2s, dtype=float))
    steps = 1.0 / np.asarray(lipschitzes, dtype=float)
    gammas = np.repeat(steps, n)
    x = np.zeros((n_inst, n))
    for _ in range(iters):
        resid = np.einsum("kmn,kn->km", B, x) - y
        grad = 2.0 * scales[:, None] * np.einsum("kmn,km->kn", B, resid)
        z = (x - steps[:, None] * grad).ravel()
        x = prox_vector_exhaustive(z, gammas, q, alphabet).reshape(n_inst, n)
    return x


def ternary_prox_breakpoints(gamma, q):
    """The six breakpoints of the closed-form ternary prox of gamma * g, in branch order."""
    q0, q1, q2 = q
    lo = gamma * (-q0 - q1 - q2)
    inner_lo = gamma * (q0 - q1 - q2)
    inner_hi = gamma * (q0 + q1 - q2)
    hi = gamma * (q0 + q1 + q2)
    return (-1.0 + lo, -1.0 + inner_lo, inner_lo, inner_hi, 1.0 + inner_hi, 1.0 + hi)


def ternary_prox_cascade(values, gamma, q):
    """Closed-form ternary prox as a cascade of seven np.where passes.

    Branches are tested top to bottom and the first matching one wins; the
    cascade is built from the last branch upward so earlier branches take
    precedence. Kept as the bit-level reference for the library's one-pass
    evaluation of the same map.
    """
    v = np.asarray(values, dtype=float)
    q0, q1, q2 = q
    lo = gamma * (-q0 - q1 - q2)
    inner_lo = gamma * (q0 - q1 - q2)
    inner_hi = gamma * (q0 + q1 - q2)
    hi = gamma * (q0 + q1 + q2)
    edge0, edge1, edge2, edge3, edge4, edge5 = ternary_prox_breakpoints(gamma, q)
    out = v - hi
    out = np.where(v < edge5, 1.0, out)
    out = np.where(v < edge4, v - inner_hi, out)
    out = np.where(v < edge3, 0.0, out)
    out = np.where(v < edge2, v - inner_lo, out)
    out = np.where(v < edge1, -1.0, out)
    out = np.where(v < edge0, v - lo, out)
    return out


def fista_reference(B, y, scale, prox, penalty, lipschitz, max_iters, rel_tol):
    """FISTA for scale * ||y - B x||^2 + g(x), written step by step.

    Stops, every 10 iterations and after the last, once the fixed-point
    residual ||x - prox(H x + c)|| / (1 + ||x||) is at most rel_tol, with
    both norms taken by np.linalg.norm, and checks every iterate with
    np.isfinite, so it is the bit-level reference for the library loop.
    Returns (solution, iterations, final objective).
    """
    gamma = 1.0 / lipschitz
    # The gradient step x - gamma * 2 scale B^T (B x - y) as the affine map H x + c.
    a = gamma * 2.0 * scale
    H = np.identity(B.shape[1]) - a * (B.T @ B)
    c = a * (B.T @ y)
    x_prev = np.zeros(B.shape[1])
    x_tilde = x_prev
    x = x_prev
    t = 1.0
    iterations = 0
    for k in range(1, max_iters + 1):
        x = prox(H @ x_tilde + c, gamma)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite iterate")
        iterations = k
        if k % 10 == 0 or k == max_iters:
            residual = np.linalg.norm(x - prox(H @ x + c, gamma)) / (1.0 + np.linalg.norm(x))
            if rel_tol > 0.0 and residual <= rel_tol:
                break
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        x_tilde = x + ((t - 1.0) / t_next) * (x - x_prev)
        x_prev = x
        t = t_next
    resid = y - B @ x
    return x, iterations, scale * float(resid @ resid) + penalty(x)


def exhaustive_map_reference(B, y, sigma_w2, alphabet, probs):
    """Exact MAP over the whole lattice in one array, built afresh on every call.

    The same expressions as ``detectors.exhaustive_map`` over candidates in
    lexicographic order of their symbol indices; ``np.argmin`` keeps the
    earliest of tied candidates. Returns the winning lattice vector.
    """
    alphabet = np.asarray(alphabet, dtype=float)
    logp = np.log(np.asarray(probs, dtype=float))
    k, n = alphabet.size, B.shape[1]
    place = k ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(k**n, dtype=np.int64)[:, None] // place[None, :]) % k
    X = alphabet[digits]
    resid = y[None, :] - X @ B.T
    values = (
        np.einsum("ij,ij->i", resid, resid) / (2.0 * sigma_w2)
        + n * float(logp.sum())
        - logp[digits].sum(axis=1)
    )
    return X[int(np.argmin(values))].copy()


def map_lattice_objective(x, B, y, sigma_w2, alphabet, probs):
    """Exact MAP objective of the lattice vector x:

    ||y - B x||^2 / (2 sigma_w2) + sum_l (log p_l) ||x - r_l 1||_0.

    The prior term is N sum_l log p_l - sum_n log p(x_n), with the second
    sum taken per symbol in user order, as ``exhaustive_map_reference`` and
    ``detectors.exhaustive_map`` take it, so two candidates with equal
    residuals and equal symbol probabilities tie exactly.
    """
    x = np.asarray(x, dtype=float)
    alphabet = np.asarray(alphabet, dtype=float)
    logp = np.log(np.asarray(probs, dtype=float))
    digits = np.searchsorted(alphabet, x)
    if x.shape != (B.shape[1],) or not np.array_equal(
        alphabet[np.minimum(digits, alphabet.size - 1)], x
    ):
        raise ValueError("x must be a lattice vector with one entry per user")
    resid = y - B @ x
    data = float(resid @ resid) / (2.0 * sigma_w2)
    return data + x.size * float(logp.sum()) - float(logp[digits].sum())


def soft_threshold(v, gamma):
    """Shrink toward zero: sign(v) * max(|v| - gamma, 0), the prox of gamma * ||x||_1."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be nonnegative and finite")
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def gradient(B, y, scale, x):
    """Gradient of the quadratic term scale * ||y - B x||^2: 2 * scale * B^T (B x - y)."""
    return 2.0 * scale * (B.T @ (B @ np.asarray(x, dtype=float) - y))


def central_difference_gradient(fun, x, h=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad


def noiseless_instance(prior, S, sigma_w2, rng):
    """A realization with w = 0, so y = S b exactly.

    b is drawn as ``synthesize`` draws it, by ``rng.choice`` with the prior's
    probabilities, so a stream gives the same symbols. ``sigma_w2`` is only
    recorded, for the detectors' objectives.
    """
    S = np.asarray(S, dtype=float)
    b = rng.choice(prior.alphabet, size=S.shape[1], p=prior.probs)
    return SystemInstance(S=S, sigma_w2=sigma_w2, b=b, w=np.zeros(S.shape[0]), y=S.dot(b))
