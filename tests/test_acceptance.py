"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
use the harness with fixed seeds and two worker processes; results are
independent of the worker count by construction.
"""

import numpy as np
import pytest

from oracles import (
    batched_soav_prox_gradient_oracle,
    gradient,
    prox_1d_exhaustive,
    soav_objective_ref,
)
from soavmud.detectors import DetectorConfig
from soavmud.harness import ExperimentConfig, emit_csv, run_sweep
from soavmud.model import bpsk_prior, gaussian_matrix, synthesize
from soavmud.optim import SolverConfig, fista, lipschitz_bound
from soavmud.soav import SoavWeights, default_offset, solve_weights, ternary_prox

TERNARY = (-1.0, 0.0, 1.0)
MASTER_SEED = 42
PARALLELISM = 2


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {number}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def continuous_detectors():
    return (
        DetectorConfig(kind="lmmse"),
        DetectorConfig(kind="lasso"),
        DetectorConfig(kind="map_soav"),
    )


def test_criterion_1_weight_reproduction():
    expected = {
        0.8: (14.6052, [5.0, 2.0794, 5.0]),
        0.05: (13.7402, [6.1256, -2.2513, 6.1256]),
    }
    worst = 0.0
    for rho, (c_ref, q_ref) in expected.items():
        prior = bpsk_prior(rho)
        weights = solve_weights(prior, default_offset(prior, 10.0))
        worst = max(worst, abs(weights.c - c_ref),
                    float(np.max(np.abs(weights.q - q_ref))))
    report(1, "weight reproduction", worst < 1e-3,
           f"max deviation from printed values {worst:.2e}")


def test_criterion_2_prox_oracle_equivalence():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(1000):
        gamma = float(rng.uniform(0.01, 1.0))
        q = rng.uniform(0.0, 10.0, size=3)
        v = float(rng.uniform(-3.0, 3.0))
        weights = SoavWeights(q=q, c=0.0, alphabet=TERNARY)
        got = ternary_prox(gamma, weights)([v])[0]
        oracle = prox_1d_exhaustive(v, gamma, q, TERNARY)
        worst = max(worst, abs(got - oracle))
    report(2, "prox oracle equivalence", worst < 1e-9,
           f"max |closed form - oracle| = {worst:.2e} over 1000 convex cases")


def test_criterion_3_solver_correctness():
    prior = bpsk_prior(0.8)
    weights = solve_weights(prior, default_offset(prior, 10.0))
    sigma_w2 = 20 * 0.2 / 14 * 10 ** (-0.8)
    instances, lipschitzes, reports = [], [], []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        inst = synthesize(prior, gaussian_matrix(14, 20, rng), sigma_w2, rng)
        scale = 1.0 / (2.0 * sigma_w2)
        L = lipschitz_bound(scale, inst.mix_norm_sq)
        prox = ternary_prox(1.0 / L, weights)
        # FISTA is deterministic, so a solve capped at k iterations ends at iterate k.
        solutions = [
            fista(inst, lambda gamma: prox, scale, SolverConfig(max_iters=k, rel_tol=0.0)).solution
            for k in (50, 200, 2000)
        ]
        instances.append(inst)
        lipschitzes.append(L)
        reports.append((scale, L, prox, solutions))
    oracle_solutions = batched_soav_prox_gradient_oracle(
        [i.S for i in instances], [i.y for i in instances],
        [i.sigma_w2 for i in instances], weights.q, TERNARY, lipschitzes,
        iters=50_000,
    )
    worst_rel = worst_ratio = worst_residual = 0.0
    for inst, oracle_x, (scale, L, prox, solutions) in zip(
        instances, oracle_solutions, reports
    ):
        f_star, f_50, f_200, f_final = (
            soav_objective_ref(x, inst.S, inst.y, inst.sigma_w2, weights.q, TERNARY)
            for x in (oracle_x, *solutions)
        )
        worst_rel = max(worst_rel, (f_final - f_star) / abs(f_star))
        gap_50 = f_50 - f_star
        gap_200 = f_200 - f_star
        worst_ratio = max(worst_ratio, gap_200 / gap_50)
        x = solutions[-1]
        residual = np.linalg.norm(
            x - prox(x - gradient(inst.S, inst.y, scale, x) / L)
        ) / (1.0 + np.linalg.norm(x))
        worst_residual = max(worst_residual, residual)
    ok = worst_rel <= 1e-5 and worst_residual <= 1e-6 and worst_ratio <= 1.0 / 8.0
    report(3, "solver correctness", ok,
           f"worst rel objective {worst_rel:.2e}, worst fixed-point residual "
           f"{worst_residual:.2e}, worst gap ratio {worst_ratio:.4f} (allowed 0.125)")


def test_criterion_4_figure4_ordering():
    config = ExperimentConfig(
        n_users=100, n_meas=70, trials=1000, rho=0.8,
        snr_db=(12.0, 14.0, 16.0), master_seed=MASTER_SEED,
        detectors=continuous_detectors(), parallelism=PARALLELISM,
    )
    results = run_sweep(config)
    ok = True
    details = []
    for res in results:
        soav, las, lin = (res.detectors[k].error_ratio for k in ("map_soav", "lasso", "lmmse"))
        margin = 2.0 * np.hypot(res.detectors["map_soav"].std_err, res.detectors["lmmse"].std_err)
        ok &= soav <= las <= lin and soav < lin - margin
        details.append(
            f"{res.axis_value:g} dB: soav={soav:.4f} lasso={las:.4f} lmmse={lin:.4f}"
        )
    report(4, "sparse-regime ordering", ok, "; ".join(details))


def test_criterion_5_figure5_regime():
    config = ExperimentConfig(
        n_users=100, n_meas=70, trials=1000, rho=0.05,
        snr_db=(10.0, 12.0), master_seed=MASTER_SEED,
        detectors=continuous_detectors(), parallelism=PARALLELISM,
    )
    results = run_sweep(config)
    ok = True
    details = []
    for res in results:
        soav, las, lin = (res.detectors[k].error_ratio for k in ("map_soav", "lasso", "lmmse"))
        ok &= soav <= 0.5 * las and soav <= 0.5 * lin
        details.append(
            f"{res.axis_value:g} dB: soav={soav:.4f} lasso={las:.4f} lmmse={lin:.4f}"
        )
    report(5, "dense-regime dominance", ok, "; ".join(details))


def test_criterion_6_figure6_shape():
    config = ExperimentConfig(
        n_users=100, n_meas=70, trials=1000,
        rho=(0.05, 0.2, 0.5, 0.8, 0.95), snr_db=None, sigma_w2_override=0.0226,
        master_seed=MASTER_SEED, detectors=continuous_detectors(),
        parallelism=PARALLELISM,
    )
    results = run_sweep(config)
    by_rho = {res.axis_value: {k: s.error_ratio for k, s in res.detectors.items()}
              for res in results}
    ok = True
    details = []
    for rho in (0.05, 0.95):
        means = by_rho[rho]
        ok &= means["map_soav"] <= means["lasso"]
        ok &= means["map_soav"] <= means["lmmse"]
        details.append(
            f"rho={rho:g}: soav={means['map_soav']:.4f} lasso={means['lasso']:.4f} "
            f"lmmse={means['lmmse']:.4f}"
        )
    report(6, "rho-extremes advantage", ok, "; ".join(details))


def test_criterion_7_exhaustive_map_sanity():
    config = ExperimentConfig(
        n_users=8, n_meas=6, trials=200, rho=0.8, snr_db=12.0,
        master_seed=MASTER_SEED,
        detectors=continuous_detectors() + (DetectorConfig(kind="exhaustive_map"),),
        parallelism=PARALLELISM,
    )
    res = run_sweep(config)[0]
    means = {k: s.error_ratio for k, s in res.detectors.items()}
    oracle_mean = means["exhaustive_map"]
    ok = all(oracle_mean <= means[k] for k in ("lmmse", "lasso", "map_soav"))
    report(7, "exhaustive-MAP lower bound", ok,
           ", ".join(f"{k}={v:.4f}" for k, v in means.items()))


def test_criterion_8_determinism(tmp_path):
    def run(parallelism, name):
        config = ExperimentConfig(
            n_users=20, n_meas=14, trials=40, rho=0.8, snr_db=(10.0, 14.0),
            master_seed=MASTER_SEED, detectors=continuous_detectors(),
            parallelism=parallelism,
        )
        path = tmp_path / name
        emit_csv(run_sweep(config), path)
        return path.read_bytes()

    serial = run(1, "serial.csv")
    parallel = run(8, "parallel.csv")
    report(8, "bitwise determinism", serial == parallel,
           f"{len(serial)} bytes, parallelism 1 vs 8")
