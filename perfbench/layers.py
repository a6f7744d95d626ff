"""Per-layer metrics from a traced run's spans.

Times are means per call over every traced sweep of the run; counts are per
sweep (every traced sweep replays the same trials, so they divide exactly).
A layer that a workload never enters reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import PROX_CLOSURE, self_times

SOLVER_KINDS = ("lasso", "map_soav")
MAX_ITERS = 500  # the CLI's default FISTA iteration cap
PROX_SPANS = ("optim.soft_threshold", PROX_CLOSURE)


def _mean(values, scale):
    values = list(values)
    return sum(values) / len(values) / scale if values else 0.0


def layer_metrics(tracer, trials, rounds, workload):
    """Metric name -> (unit, value) for one traced run.

    ``trials`` are the checked captures of one verification replay, ``rounds``
    the number of traced sweeps the spans cover.
    """
    spans = tracer.spans
    own = self_times(spans)
    dur = [s[3] - s[2] for s in spans]
    by_name = defaultdict(list)
    iterations = defaultdict(int)  # fista span -> prox calls made directly under it
    for i, (name, parent, _, _) in enumerate(spans):
        by_name[name].append(i)
        if name in PROX_SPANS and parent >= 0 and spans[parent][0] == "optim.fista":
            iterations[parent] += 1

    m = {}
    mn, n = workload.n_meas, workload.n_users
    for kind in SOLVER_KINDS:
        solves = [i for i in by_name["optim.fista"]
                  if spans[i][1] >= 0 and spans[spans[i][1]][0] == f"detectors.{kind}"]
        iters = [iterations[i] for i in solves]
        total_iters = sum(iters)
        busy_s = sum(dur[i] for i in solves) / 1e9
        residuals = [t.residuals[kind] for t in trials if kind in t.residuals]
        gaps = [t.gaps[kind] for t in trials if kind in t.gaps]
        m[f"optim.fista_ms.{kind}"] = ("ms", _mean((dur[i] for i in solves), 1e6))
        m[f"optim.iter_self_us.{kind}"] = (
            "us", sum(own[i] for i in solves) / total_iters / 1e3 if total_iters else 0.0)
        m[f"optim.iterations.{kind}"] = ("iterations", _mean(iters, 1))
        m[f"optim.converged_solves.{kind}"] = (
            "count", sum(1 for k in iters if k < MAX_ITERS) // rounds)
        m[f"optim.fp_residual_p50.{kind}"] = (
            "ratio", statistics.median(residuals) if residuals else 0.0)
        m[f"optim.objective_gap_p50.{kind}"] = (
            "ratio", statistics.median(gaps) if gaps else 0.0)
        m[f"optim.gflops_computed.{kind}"] = (
            "GFLOP/s", 4.0 * mn * n * total_iters / busy_s / 1e9 if busy_s else 0.0)
    m["optim.soft_threshold_us"] = ("us", _mean((dur[i] for i in by_name["optim.soft_threshold"]), 1e3))
    m["optim.lipschitz_ms"] = ("ms", _mean((dur[i] for i in by_name["optim.estimate_lipschitz"]), 1e6))
    m["optim.lipschitz_calls"] = ("count", len(by_name["optim.estimate_lipschitz"]) // rounds)

    m["soav.prox_us"] = ("us", _mean((dur[i] for i in by_name["soav.prox_vector"]), 1e3))
    m["soav.prox_calls"] = ("count", len(by_name["soav.prox_vector"]) // rounds)
    m["soav.solve_weights_ms"] = ("ms", _mean((dur[i] for i in by_name["soav.solve_weights"]), 1e6))
    m["soav.solve_weights_calls"] = ("count", len(by_name["soav.solve_weights"]) // rounds)

    for kind in ("lmmse", "lasso", "map_soav", "exhaustive_map"):
        m[f"detectors.{kind}_ms"] = ("ms", _mean((dur[i] for i in by_name[f"detectors.{kind}"]), 1e6))
    exhaustive = by_name["detectors.exhaustive_map"]
    exhaustive_s = sum(dur[i] for i in exhaustive) / 1e9
    m["detectors.exhaustive_map.candidates_per_s"] = (
        "1/s", 3.0 ** n * len(exhaustive) / exhaustive_s if exhaustive_s else 0.0)
    m["detectors.prox_closure_self_us"] = ("us", _mean((own[i] for i in by_name[PROX_CLOSURE]), 1e3))

    trial_spans = by_name["harness.run_trial"]
    synth = sum(dur[i] for name in ("model.substream", "model.gaussian_matrix", "model.synthesize")
                for i in by_name[name])
    m["model.synthesize_ms"] = ("ms", synth / len(trial_spans) / 1e6 if trial_spans else 0.0)
    m["harness.trial_self_ms"] = ("ms", _mean((own[i] for i in trial_spans), 1e6))
    m["harness.emit_csv_ms"] = ("ms", _mean((dur[i] for i in by_name["harness.emit_csv"]), 1e6))
    return m
