"""Monte Carlo sweep benchmark for soavmud.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig4-sparse --seed 1 --seconds 22 --trace 0

With ``--trace 0`` it runs one CLI sweep after another, each in a fresh
interpreter (perfbench/child.py), for ``--seconds`` seconds, and reports
trials_per_s, setup_s (both scaled to reference speed, see
perfbench/calibration.py) and peak_rss_mb as medians over the sweeps. With ``--trace 1`` it
repeats rounds of three in-process sweeps of the same trials (serial, two
workers, serial traced) and reports per-layer metrics from the traced
sweeps' spans. Either way it also replays the trials serially and checks
every output against its own computations (perfbench/checks.py). The last
line it prints is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import layers
import tracing
from calibration import REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

MIN_SWEEPS = 3          # medians need a few samples even on a short run
CHILD_TIMEOUT_S = 120
USERS, MEAS = 100, 70   # paper scale


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: tuple          # CLI argv without --trials and --seed
    kinds: tuple            # detector kinds, in CSV order
    trials: int             # trials per axis point
    axis_values: tuple
    fixed_rho: float = None      # None: the axis is rho
    fixed_sigma2: float = None   # None: derived from the SNR axis
    orderings: tuple = ()        # (axis values or None, better, worse)

    def argv(self, seed):
        return list(self.command) + ["--trials", str(self.trials), "--seed", str(seed)]

    @property
    def n_users(self):
        return int(self.command[self.command.index("--users") + 1])

    @property
    def n_meas(self):
        return int(self.command[self.command.index("--meas") + 1])

    @property
    def trials_per_sweep(self):
        return self.trials * len(self.axis_values)

    def rho_at(self, axis_value):
        return self.fixed_rho if self.fixed_rho is not None else axis_value

    def sigma2_at(self, axis_value):
        if self.fixed_sigma2 is not None:
            return self.fixed_sigma2
        rho = self.rho_at(axis_value)
        return self.n_users * (1.0 - rho) / self.n_meas * 10.0 ** (-axis_value / 10.0)


_SCALE = ("--users", str(USERS), "--meas", str(MEAS))
_FIG4 = ("simulate", "--rho", "0.8", "--snr", "12,14,16") + _SCALE
# The paper's rho 0.05 is left out: there the map_soav solve, cut off at the
# CLI's 500 iterations, ended above the objective of the true symbols on 1 of
# about 4600 trials checked (seed 253, trial 1): a run would fail on some seeds only.
_RHOS = (0.2, 0.5, 0.8, 0.95)
# Why each workload exists and which layer it isolates: perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig4-sparse",
        command=_FIG4 + ("--detectors", "lmmse,lasso,map-soav"),
        kinds=("lmmse", "lasso", "map_soav"),
        trials=6,
        axis_values=(12.0, 14.0, 16.0),
        fixed_rho=0.8,
        orderings=((None, "map_soav", "lasso"), (None, "lasso", "lmmse")),
    ),
    Workload(
        name="fig4-lmmse",
        command=_FIG4 + ("--detectors", "lmmse"),
        kinds=("lmmse",),
        trials=600,
        axis_values=(12.0, 14.0, 16.0),
        fixed_rho=0.8,
    ),
    Workload(
        name="fig6-rho-pool",
        command=("sweep-rho", "--sigma2", "0.0226", "--rho", ",".join(map(str, _RHOS)))
        + _SCALE + ("--detectors", "lmmse,lasso,map-soav", "--parallelism", "2"),
        kinds=("lmmse", "lasso", "map_soav"),
        trials=4,
        axis_values=_RHOS,
        fixed_sigma2=0.0226,
        orderings=tuple(
            ((rho,), "map_soav", worse) for rho in (0.2, 0.95) for worse in ("lasso", "lmmse")
        ),
    ),
    Workload(
        name="oracle-small",
        command=("oracle-compare", "--users", "8", "--meas", "6", "--rho", "0.8", "--snr", "12",
                 "--detectors", "lmmse,lasso,map-soav,exhaustive-map"),
        kinds=("lmmse", "lasso", "map_soav", "exhaustive_map"),
        trials=24,
        axis_values=(12.0,),
        fixed_rho=0.8,
        orderings=tuple((None, "exhaustive_map", worse) for worse in ("lmmse", "lasso", "map_soav")),
    ),
)}


class BenchError(RuntimeError):
    """The program could not be run or did not behave as a sweep should."""


def import_soavmud():
    """Import soavmud from this checkout's src/, never from site-packages."""
    sys.path.insert(0, SRC)
    import soavmud.cli as cli
    import soavmud.detectors as detectors
    import soavmud.harness as harness

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"soavmud imported from {cli.__file__}, not from {SRC}")
    return {"cli": cli, "harness": harness, "detectors": detectors}


class _Captured(Exception):
    pass


def config_from_argv(cli, argv):
    """The ExperimentConfig that ``soavmud.cli.main(argv)`` hands to run_sweep."""
    real = cli.run_sweep

    def capture(config):
        raise _Captured(config)

    cli.run_sweep = capture
    try:
        code = cli.main(argv)
    except _Captured as got:
        return got.args[0]
    finally:
        cli.run_sweep = real
    raise BenchError(f"soavmud.cli.main returned {code} without starting a sweep")


def timed_sweep(cli, config, csv_path):
    """Run one sweep and write its CSV through the CLI's own functions."""
    start = time.perf_counter()
    results = cli.run_sweep(config)
    cli.emit_csv(results, csv_path)
    elapsed = time.perf_counter() - start
    with open(csv_path, encoding="utf-8") as fh:
        return elapsed, fh.read()


def replay(modules, tracer, config, csv_path):
    """The same trials, serially, with the tracer's wrappers installed."""
    tracer.install(modules)
    try:
        return timed_sweep(modules["cli"], dataclasses.replace(config, parallelism=1), csv_path)
    finally:
        tracer.uninstall()


def verified_replay(workload, modules, config, csv_path):
    """Replay the trials serially, checking each trial as it finishes.

    Returns (trials, CSV text, first check failure or None). Once checked, a
    trial keeps only b, its detector results, and the fixed-point residuals
    and objective gaps of its solver estimates, so a sweep of thousands of
    trials stays small in memory.
    """

    def on_trial(t):
        t.rho = workload.rho_at(t.axis_value)
        t.sigma2 = workload.sigma2_at(t.axis_value)
        checks.check_trial(t)
        for kind in ("lasso", "map_soav"):
            if kind in t.results:
                raw = np.asarray(t.results[kind].raw, dtype=float)
                t.residuals[kind] = checks.fixed_point_residual(kind, t, raw)
                t.gaps[kind] = checks.objective_gap(kind, t, raw)
        t.b = np.asarray(t.instance.b)
        t.instance = None

    tracer = tracing.Tracer(capture=True, on_trial=on_trial)
    try:
        text = replay(modules, tracer, config, csv_path)[1]
    except checks.CheckError as exc:
        return tracer.trials, None, str(exc)
    return tracer.trials, text, None


def verify(workload, trials, csv_texts, failure):
    """Run the whole-sweep checks unless a trial already failed; report the failure."""
    if failure is None:
        try:
            checks.check_sweep(workload, trials, csv_texts)
        except checks.CheckError as exc:
            failure = str(exc)
    if failure is not None:
        print(f"check failed: {failure}", file=sys.stderr)
    return failure is None


def failed_trials(trials):
    return sum(1 for t in trials if t.record.failure_reasons)


def run_child(argv):
    """One sweep in a fresh interpreter; its whole process group dies on timeout."""
    with subprocess.Popen(
        [sys.executable, CHILD, SRC, "--"] + argv, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"sweep process ran past {CHILD_TIMEOUT_S} s") from None
    return out, err, proc.returncode


def run_untraced(workload, seed, seconds, run_id):
    csv_path = os.path.join(OUT, run_id + ".csv")
    argv = workload.argv(seed) + ["--out", csv_path]
    samples, csv_texts = [], []
    start = time.perf_counter()
    while len(samples) < MIN_SWEEPS or time.perf_counter() - start < seconds:
        out, err, code = run_child(argv)
        if code != 0:
            raise BenchError(f"sweep process failed ({code}): {err.strip()}")
        samples.append(json.loads(out.strip().splitlines()[-1]))
        with open(csv_path, encoding="utf-8") as fh:
            csv_texts.append(fh.read())
    with open(os.path.join(OUT, run_id + ".sweeps.json"), "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    # Each sweep's times at reference speed: scaled by REF_S over the time of
    # the calibration kernel run in the same process just before and after.
    scale = [REF_S / s["calibration_s"] for s in samples]

    modules = import_soavmud()
    config = config_from_argv(modules["cli"], workload.argv(seed))
    trials, text, failure = verified_replay(workload, modules, config, csv_path)
    csv_texts.append(text)
    correct = verify(workload, trials, csv_texts, failure)
    sweeps = len(csv_texts)
    completed = workload.trials_per_sweep - failed_trials(trials)
    metrics = {
        "trials_per_s": statistics.median(
            completed / (s["sweep_s"] * f) for s, f in zip(samples, scale)),
        "setup_s": statistics.median(s["setup_s"] * f for s, f in zip(samples, scale)),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    units = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB"}
    return {
        "correct": correct,
        "attempted": sweeps * workload.trials_per_sweep,
        "failed": sweeps * failed_trials(trials),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_traced(workload, seed, seconds, run_id):
    csv_path = os.path.join(OUT, run_id + ".csv")
    modules = import_soavmud()
    cli = modules["cli"]
    config = config_from_argv(cli, workload.argv(seed))
    serial = dataclasses.replace(config, parallelism=1)
    pooled = dataclasses.replace(config, parallelism=2)
    trials, text, failure = verified_replay(workload, modules, config, csv_path)
    tracer = tracing.Tracer()
    rounds, csv_texts = [], [text]
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t_serial, text_serial = timed_sweep(cli, serial, csv_path)
        t_pool, text_pool = timed_sweep(cli, pooled, csv_path)
        t_traced, text_traced = replay(modules, tracer, config, csv_path)
        rounds.append((t_serial, t_pool, t_traced))
        csv_texts += [text_serial, text_pool, text_traced]
    correct = verify(workload, trials, csv_texts, failure)
    tracer.write(os.path.join(OUT, run_id + ".trace.json"))
    metrics = layers.layer_metrics(tracer, trials, len(rounds), workload)
    metrics["harness.pool_speedup"] = ("x", statistics.median(s / p for s, p, _ in rounds))
    metrics["trace.overhead_s"] = ("s", statistics.median(t - s for s, _, t in rounds))
    return {
        "correct": correct,
        "attempted": len(csv_texts) * workload.trials_per_sweep,
        "failed": len(csv_texts) * failed_trials(trials),
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "soavmud", "cli.py")):
        print(f"error: no soavmud sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run = run_traced if args.trace else run_untraced
    try:
        result = run(workload, args.seed, args.seconds, run_id)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
