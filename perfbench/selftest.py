"""Show that no correctness check in perfbench/checks.py is vacuous.

Usage (from the repository root): python3 perfbench/selftest.py

Runs a small oracle-compare sweep (all four detectors), confirms that every
check passes on its real outputs, then corrupts one output at a time and
confirms that the check meant to catch that corruption fails. Exits 1 if a
check fails on clean outputs or lets a corruption through.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import sys

import numpy as np

import checks
import run
import tracing

SEED = 7
WORKLOAD = dataclasses.replace(run.WORKLOADS["oracle-small"], trials=8)
CUT_SHORT_ITERS = 5


def real_outputs(extra_argv=()):
    """The sweep's trials and CSV; ``extra_argv`` is appended to the CLI's argv."""
    modules = run.import_soavmud()
    config = run.config_from_argv(modules["cli"], WORKLOAD.argv(SEED) + list(extra_argv))
    tracer = tracing.Tracer(capture=True)
    os.makedirs(run.OUT, exist_ok=True)
    _, text = run.replay(modules, tracer, config, os.path.join(run.OUT, "selftest.csv"))
    for t in tracer.trials:
        t.rho = WORKLOAD.rho_at(t.axis_value)
        t.sigma2 = WORKLOAD.sigma2_at(t.axis_value)
        t.b = np.asarray(t.instance.b)
        for kind in ("lasso", "map_soav"):
            t.gaps[kind] = checks.objective_gap(kind, t, np.asarray(t.results[kind].raw))
    return tracer.trials, text


def edit(t, kind=None, **changes):
    """Copy of capture ``t`` with a field, or a field of one detector result, changed."""
    if kind is None:
        return dataclasses.replace(t, **changes)
    results = dict(t.results)
    results[kind] = dataclasses.replace(results[kind], **changes)
    return dataclasses.replace(t, results=results)


def flip(x):
    """The lattice point with its first coordinate moved to another alphabet value."""
    x = np.array(x, dtype=float)
    x[0] = 1.0 if x[0] < 1.0 else -1.0
    return x


def opposite(b):
    """A lattice point that differs from b in every coordinate."""
    x = -np.asarray(b, dtype=float)
    x[x == 0.0] = 1.0
    return x


def second_best(t):
    """The lattice point with the second-lowest MAP objective, by brute force."""
    B = checks.mix(t)
    X = np.array(list(itertools.product(checks.ALPHABET, repeat=B.shape[1])))
    values = checks.lattice_objective(X, B, np.asarray(t.instance.y), t.sigma2,
                                      checks.log_probs(t.rho))
    return X[np.argsort(values, kind="stable")[1]]


def everything_at(t, x):
    """The trial with the truth and every detector's decision replaced by x."""
    results = {kind: dataclasses.replace(r, decided=x) for kind, r in t.results.items()}
    return dataclasses.replace(t, instance=dataclasses.replace(t.instance, b=x), b=x,
                               results=results)


def csv_with(text, kind, column, new_value):
    """The CSV with one field of the first data row of ``kind`` replaced."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        fields = line.rstrip("\n").split(",")
        if len(fields) == 7 and fields[2] == kind:
            fields[column] = new_value(fields[column])
            lines[i] = ",".join(fields) + "\n"
            return "".join(lines)
    raise AssertionError(f"no row for {kind}")


def corruptions(trials, text, cut_short):
    """(check name, what was corrupted, call that must raise CheckError).

    ``cut_short`` are the same trials solved with FISTA stopped after
    CUT_SHORT_ITERS iterations.
    """
    t0, t1 = trials[0], trials[1]
    kinds = WORKLOAD.kinds
    n = WORKLOAD.trials
    return [
        ("check_synthesis", "noise variance off by 1%",
         lambda: checks.check_synthesis(edit(t0, sigma2=t0.sigma2 * 1.01))),
        ("check_synthesis", "y perturbed by 1e-6",
         lambda: checks.check_synthesis(edit(
             t0, instance=dataclasses.replace(t0.instance, y=t0.instance.y + 1e-6)))),
        ("check_decisions", "one lmmse decision flipped",
         lambda: checks.check_decisions(edit(
             t0, "lmmse", decided=flip(t0.results["lmmse"].decided)))),
        ("check_decisions", "map_soav decision off the lattice",
         lambda: checks.check_decisions(edit(
             t0, "map_soav", decided=t0.results["map_soav"].decided + 0.5))),
        ("check_lmmse", "lmmse estimate scaled by 1 + 1e-6",
         lambda: checks.check_lmmse(edit(
             t0, "lmmse", raw=t0.results["lmmse"].raw * (1.0 + 1e-6)))),
        ("check_solver_objectives", "lasso estimate moved off its minimum",
         lambda: checks.check_solver_objectives(edit(
             t0, "lasso", raw=t0.results["lasso"].raw + 0.5))),
        ("check_solver_objectives", "map_soav estimate replaced by 2 b",
         lambda: checks.check_solver_objectives(edit(t0, "map_soav", raw=2.0 * t0.b))),
        ("check_accuracy", f"lasso and map_soav stopped after {CUT_SHORT_ITERS} iterations",
         lambda: checks.check_accuracy(cut_short)),
        ("check_complete", "lasso failed on one trial",
         lambda: checks.check_complete([edit(t0, record=dataclasses.replace(
             t0.record, failure_reasons={"lasso": "DivergenceError"}))] + trials[1:], kinds)),
        ("check_complete", "map_soav result missing from one trial",
         lambda: checks.check_complete([edit(t0, results={
             k: r for k, r in t0.results.items() if k != "map_soav"})] + trials[1:], kinds)),
        ("check_exhaustive", "worse lattice point, trial not brute-forced",
         lambda: checks.check_exhaustive(edit(t1, "exhaustive_map", decided=opposite(t1.b)))),
        ("check_exhaustive", "truth and all decisions moved to the second-best lattice point,"
         " so only the brute force can tell",
         lambda: checks.check_exhaustive(everything_at(t0, second_best(t0)))),
        ("check_recount", "one decision flipped after the CSV was written",
         lambda: checks.check_recount(text, [edit(
             t0, "map_soav", decided=flip(t0.results["map_soav"].decided))] + trials[1:], kinds, n)),
        ("check_recount", "CSV error ratio raised by 1e-3",
         lambda: checks.check_recount(csv_with(
             text, "lasso", 4, lambda v: f"{float(v) + 1e-3:.6g}"), trials, kinds, n)),
        ("check_recount", "CSV trial count lowered by one",
         lambda: checks.check_recount(csv_with(
             text, "lmmse", 3, lambda v: str(int(v) - 1)), trials, kinds, n)),
        ("check_same_csv", "second sweep's CSV differs in one digit",
         lambda: checks.check_same_csv([text, csv_with(
             text, "lmmse", 5, lambda v: f"{float(v) * 1.5 + 1e-3:.6g}")])),
        ("check_orderings", "every exhaustive_map decision wrong in every symbol",
         lambda: checks.check_orderings([
             edit(t, "exhaustive_map", decided=opposite(t.b)) for t in trials
         ], WORKLOAD.orderings)),
    ]


def main():
    trials, text = real_outputs()
    failures = 0
    try:
        for t in trials:
            checks.check_trial(t)
        checks.check_sweep(WORKLOAD, trials, [text, text])
        print("PASS all checks accept the real outputs")
    except checks.CheckError as exc:
        print(f"FAIL a check rejects the real outputs: {exc}")
        failures += 1
    cut_short, _ = real_outputs(["--max-iters", str(CUT_SHORT_ITERS)])
    for name, what, call in corruptions(trials, text, cut_short):
        try:
            call()
        except checks.CheckError as exc:
            print(f"PASS {name} catches: {what} ({exc})")
        else:
            print(f"FAIL {name} lets through: {what}")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
