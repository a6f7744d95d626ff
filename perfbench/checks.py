"""Correctness checks on a sweep's outputs, computed apart from soavmud.

Every formula here is written out again with numpy and itertools; nothing
calls back into the program. Each check raises ``CheckError`` with a
message naming the trial and the quantity that disagrees.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

ALPHABET = np.array([-1.0, 0.0, 1.0])
LAM = 30.0        # LASSO quadratic weight, the CLI default
OFFSET = 10.0     # margin of the SOAV offset rule, the CLI default
ALPHA = 0.5       # quantizer threshold, the CLI default
LMMSE_RTOL = 1e-8
OBJECTIVE_RTOL = 1e-9
CSV_RTOL = 1e-5   # the CSV prints 6 significant digits
ORDER_SE = 2.0    # sampling error allowed against a paper ordering, in standard errors
BRUTE_FORCE_EVERY = 4  # trials whose exhaustive_map answer is also brute-forced
ACCURATE_ITERS = 2000  # iterations of the benchmark's own solve, see objective_gap
# Largest median relative objective gap to the benchmark's own solve, per
# solver. At N = 100, M = 70 the program's 500 FISTA iterations leave medians
# of about 1e-2 (lasso) and 1e-4 (map_soav); a 150-iteration cap gives 0.2 and
# 8e-3.
GAP_P50_MAX = {"lasso": 0.05, "map_soav": 1e-3}


class CheckError(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def log_probs(rho):
    half = 0.5 * (1.0 - rho)
    return np.log(np.array([half, rho, half]))


def mix(trial):
    inst = trial.instance
    return np.asarray(inst.S) * np.asarray(inst.gains)


def quantize(raw):
    out = np.zeros_like(raw)
    out[raw < -ALPHA] = -1.0
    out[raw >= ALPHA] = 1.0
    return out


def soav_weights(rho):
    """q solving |r_i - r_j| q = sum_{l != i} log p_l + C, C from the offset rule."""
    logp = log_probs(rho)
    cross = logp.sum() - logp
    c = abs(float(cross.min())) + OFFSET
    R = np.abs(ALPHABET[:, None] - ALPHABET[None, :])
    return np.linalg.solve(R, cross + c)


def lasso_objective(x, B, y):
    r = y - B @ x
    return LAM * float(r @ r) + float(np.abs(x).sum())


def soav_objective(x, B, y, sigma2, q):
    r = y - B @ x
    penalty = float(np.abs(x[:, None] - ALPHABET[None, :]).sum(axis=0) @ q)
    return float(r @ r) / (2.0 * sigma2) + penalty


def lattice_objective(X, B, y, sigma2, logp):
    """MAP objective ||y - Bx||^2 / (2 sigma2) - sum_i log p(x_i), rows of X."""
    X = np.atleast_2d(X)
    R = y[None, :] - X @ B.T
    index = np.rint(X).astype(int) + 1
    return np.einsum("ij,ij->i", R, R) / (2.0 * sigma2) - logp[index].sum(axis=1)


def soav_prox(z, gamma, q):
    """Exact minimizer of gamma * sum_l q_l |u - r_l| + (u - z)^2 / 2, per entry."""
    signs = np.array([[-1, -1, -1], [1, -1, -1], [1, 1, -1], [1, 1, 1]], dtype=float)
    slopes = signs @ q
    cand = np.concatenate([z[None, :] - gamma * slopes[:, None],
                           np.broadcast_to(ALPHABET[:, None], (3, z.size))])
    h = gamma * (np.abs(cand[:, :, None] - ALPHABET) @ q) + 0.5 * (cand - z) ** 2
    return cand[np.argmin(h, axis=0), np.arange(z.size)]


def problem(kind, trial):
    """(objective, gradient step x - grad f(x) / L, prox at step 1/L) of one solver."""
    B = mix(trial)
    y = np.asarray(trial.instance.y)
    top = float(np.linalg.norm(B, 2)) ** 2
    if kind == "lasso":
        lip = 2.0 * LAM * top
        return (lambda x: lasso_objective(x, B, y),
                lambda x: x - 2.0 * LAM * (B.T @ (B @ x - y)) / lip,
                lambda z: np.sign(z) * np.maximum(np.abs(z) - 1.0 / lip, 0.0))
    q = soav_weights(trial.rho)
    lip = top / trial.sigma2
    return (lambda x: soav_objective(x, B, y, trial.sigma2, q),
            lambda x: x - (B.T @ (B @ x - y)) / trial.sigma2 / lip,
            lambda z: soav_prox(z, 1.0 / lip, q))


def fixed_point_residual(kind, trial, x):
    """||x - prox(x - grad f(x) / L)|| / (1 + ||x||) with L = ||grad f||_Lip."""
    _, step, prox = problem(kind, trial)
    return float(np.linalg.norm(x - prox(step(x)))) / (1.0 + float(np.linalg.norm(x)))


def objective_gap(kind, trial, x):
    """(F(x) - F(x*)) / |F(x*)|, x* from ACCURATE_ITERS FISTA steps with the exact L.

    The benchmark's solve starts from 0 like the program's, so on the
    nonconvex SOAV problem (rho 0.2) both usually end in the same basin; a
    negative gap means the program found the lower point.
    """
    objective, step, prox = problem(kind, trial)
    u = u_prev = v = np.zeros_like(x)
    t = 1.0
    for _ in range(ACCURATE_ITERS):
        u = prox(step(v))
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        v = u + ((t - 1.0) / t_next) * (u - u_prev)
        u_prev, t = u, t_next
    best = objective(u)
    return (objective(x) - best) / abs(best)


def _where(trial):
    return f"trial {trial.trial_index} at axis value {trial.axis_value:g}"


def check_synthesis(t):
    """The noise variance is the workload's, symbols lie on the alphabet, y = S A b + w."""
    if not _close(float(t.instance.sigma_w2), t.sigma2, 1e-12):
        raise CheckError(f"{_where(t)}: sigma_w2 {t.instance.sigma_w2!r}, expected {t.sigma2!r}")
    b = np.asarray(t.instance.b)
    if not np.all(np.isin(b, ALPHABET)):
        raise CheckError(f"{_where(t)}: symbols off the alphabet")
    expect = mix(t) @ b + np.asarray(t.instance.w)
    if not np.allclose(t.instance.y, expect, rtol=1e-12, atol=1e-12):
        raise CheckError(f"{_where(t)}: y differs from S A b + w")


def check_decisions(t):
    """Decisions lie on the alphabet; continuous detectors threshold at +-0.5."""
    n = np.asarray(t.instance.b).size
    for kind, res in t.results.items():
        decided = np.asarray(res.decided)
        if decided.shape != (n,) or not np.all(np.isin(decided, ALPHABET)):
            raise CheckError(f"{_where(t)}: {kind} decision is not a lattice point")
        if kind != "exhaustive_map" and not np.array_equal(
            decided, quantize(np.asarray(res.raw, dtype=float))
        ):
            raise CheckError(f"{_where(t)}: {kind} decision is not its thresholded estimate")


def check_lmmse(t):
    """raw = (B^T B + sigma2 / m2 I)^-1 B^T y with m2 = 1 - rho, the N x N form."""
    res = t.results.get("lmmse")
    if res is None:
        return
    B = mix(t)
    ratio = t.sigma2 / (1.0 - t.rho)
    G = B.T @ B + ratio * np.eye(B.shape[1])
    expect = np.linalg.solve(G, B.T @ np.asarray(t.instance.y))
    err = float(np.linalg.norm(np.asarray(res.raw) - expect))
    if err > LMMSE_RTOL * float(np.linalg.norm(expect)):
        raise CheckError(f"{_where(t)}: lmmse estimate off by {err:.3e}")


def check_solver_objectives(t):
    """The lasso and map_soav estimates beat both the true b and zero."""
    B = mix(t)
    y = np.asarray(t.instance.y)
    b = np.asarray(t.instance.b, dtype=float)
    zero = np.zeros_like(b)
    for kind in ("lasso", "map_soav"):
        res = t.results.get(kind)
        if res is None:
            continue
        if kind == "lasso":
            f = lambda x: lasso_objective(x, B, y)  # noqa: E731
        else:
            q = soav_weights(t.rho)
            f = lambda x: soav_objective(x, B, y, t.sigma2, q)  # noqa: E731
        got = f(np.asarray(res.raw, dtype=float))
        best = min(f(b), f(zero))
        if got > best + OBJECTIVE_RTOL * abs(best):
            raise CheckError(
                f"{_where(t)}: {kind} objective {got:.9g} exceeds {best:.9g}"
                " at the true symbols or zero"
            )


def check_exhaustive(t):
    """Exhaustive MAP beats b and every other decision; sampled trials equal brute force."""
    res = t.results.get("exhaustive_map")
    if res is None:
        return
    B = mix(t)
    y = np.asarray(t.instance.y)
    logp = log_probs(t.rho)
    got = float(lattice_objective(res.decided, B, y, t.sigma2, logp)[0])
    others = [("the true b", t.instance.b)] + [
        (kind, r.decided) for kind, r in t.results.items() if kind != "exhaustive_map"
    ]
    for label, x in others:
        value = float(lattice_objective(x, B, y, t.sigma2, logp)[0])
        if got > value + OBJECTIVE_RTOL * abs(value):
            raise CheckError(
                f"{_where(t)}: exhaustive_map objective {got:.9g} exceeds {label}'s {value:.9g}"
            )
    if t.trial_index % BRUTE_FORCE_EVERY == 0:
        X = np.array(list(itertools.product(ALPHABET, repeat=B.shape[1])))
        values = lattice_objective(X, B, y, t.sigma2, logp)
        best = X[int(np.argmin(values))]
        if not np.array_equal(best, np.asarray(res.decided)):
            raise CheckError(f"{_where(t)}: exhaustive_map differs from brute force")


def check_trial(t):
    """Every check on one trial that needs its instance (S, w, y)."""
    check_synthesis(t)
    check_decisions(t)
    check_lmmse(t)
    check_solver_objectives(t)
    check_exhaustive(t)


def parse_csv(text):
    """Data rows keyed by (axis value, detector) -> (trials, error ratio, std err)."""
    rows = {}
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "axis,axis_value,detector,trials,error_ratio,std_err,master_seed":
        raise CheckError("CSV header missing or changed")
    for line in lines[1:]:
        _, value, kind, used, ratio, err, _ = line.split(",")
        rows[(float(value), kind)] = (int(used), float(ratio), float(err))
    return rows


def _close(a, b, rtol):
    return abs(a - b) <= rtol * abs(b) + 1e-12


def check_recount(csv_text, trials, kinds, trials_per_point):
    """CSV trial counts, error ratios and standard errors equal a recount against b."""
    rows = parse_csv(csv_text)
    by_point = {}
    for t in trials:
        by_point.setdefault(t.axis_value, []).append(t)
    if len(rows) != len(by_point) * len(kinds):
        raise CheckError(f"CSV has {len(rows)} rows, expected {len(by_point) * len(kinds)}")
    for value, group in by_point.items():
        if len(group) != trials_per_point:
            raise CheckError(f"axis value {value:g}: {len(group)} trials replayed")
        for kind in kinds:
            key = next((k for k in rows if k[1] == kind and _close(k[0], value, CSV_RTOL)), None)
            if key is None:
                raise CheckError(f"CSV lacks the row for {kind} at {value:g}")
            ratios = np.array([
                np.count_nonzero(np.asarray(t.results[kind].decided) != t.b) / t.b.size
                for t in group if kind in t.results
            ])
            mean = float(ratios.mean()) if ratios.size else math.nan
            err = float(ratios.std(ddof=1) / math.sqrt(ratios.size)) if ratios.size > 1 else 0.0
            used, csv_mean, csv_err = rows[key]
            if used != ratios.size:
                raise CheckError(f"{kind} at {value:g}: CSV counts {used} trials, recount {ratios.size}")
            if not (_close(csv_mean, mean, CSV_RTOL) and _close(csv_err, err, CSV_RTOL)):
                raise CheckError(
                    f"{kind} at {value:g}: CSV says {csv_mean:g} +- {csv_err:g},"
                    f" recount {mean:.6g} +- {err:.6g}"
                )


def check_same_csv(texts):
    """Every sweep of the run, any worker count, wrote the same bytes."""
    first = texts[0]
    for i, text in enumerate(texts[1:], start=1):
        if text != first:
            raise CheckError(f"sweep {i} wrote a different CSV than sweep 0")


def check_orderings(trials, orderings):
    """The paper's detector orderings, tested on paired per-trial symbol errors.

    For each (points, better, worse), with ``points`` a tuple of axis values
    or None for the whole sweep, d = errors(better) - errors(worse) per trial
    must not be positive by more than ORDER_SE standard errors of its mean.
    The paper orders means over 1000 trials; a benchmark sweep of a few dozen
    trials can only test that up to its sampling error.
    """
    for points, better, worse in orderings:
        d = np.array([
            np.count_nonzero(np.asarray(t.results[better].decided) != t.b)
            - np.count_nonzero(np.asarray(t.results[worse].decided) != t.b)
            for t in trials
            if (points is None or any(_close(t.axis_value, p, 1e-9) for p in points))
            and better in t.results and worse in t.results
        ], dtype=float)
        where = "the sweep" if points is None else f"axis values {points}"
        if d.size == 0:
            raise CheckError(f"no trials with both {better} and {worse} over {where}")
        mean = float(d.mean())
        se = float(d.std(ddof=1)) / math.sqrt(d.size) if d.size > 1 else 0.0
        if mean > ORDER_SE * se:
            raise CheckError(
                f"over {where}: {better} made {mean:+.3f} symbol errors per trial against"
                f" {worse}, more than {ORDER_SE:g} standard errors ({se:.3f})"
            )


def check_accuracy(trials):
    """The median objective gap of each solver stays within GAP_P50_MAX."""
    for kind, limit in GAP_P50_MAX.items():
        gaps = [t.gaps[kind] for t in trials if kind in t.gaps]
        if gaps and float(np.median(gaps)) > limit:
            raise CheckError(
                f"{kind} estimates lie a median {float(np.median(gaps)):.3g} of the objective"
                f" above the benchmark's own solve, more than {limit:g}"
            )


def check_complete(trials, kinds):
    """No detector failed, and every one left a result the checks could see."""
    for t in trials:
        if t.record.failure_reasons:
            raise CheckError(f"{_where(t)}: detectors failed: {t.record.failure_reasons}")
        missing = [kind for kind in kinds if kind not in t.results]
        if missing:
            raise CheckError(f"{_where(t)}: no result captured for {', '.join(missing)}")


def check_sweep(workload, trials, csv_texts):
    """Every check on the whole sweep; each trial needs only b, its decisions and gaps."""
    check_complete(trials, workload.kinds)
    check_accuracy(trials)
    check_same_csv(csv_texts)
    check_recount(csv_texts[0], trials, workload.kinds, workload.trials)
    check_orderings(trials, workload.orderings)
