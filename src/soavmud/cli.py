"""Command-line interface for the Monte Carlo simulator.

Subcommands:
    simulate        SNR sweep with the continuous detectors
    sweep-rho       non-active-rate sweep at fixed noise variance
    weights         print the calibrated penalty weights for a prior
    oracle-compare  small-system sweep including the exhaustive-MAP oracle

A sweep's settings are merged in layers, each overriding the one before: the
ExperimentConfig, DetectorConfig and SolverConfig defaults, the subcommand's
own defaults, the JSON config file's top level, the file's detector entry (for
that detector), then the command line flags. Among the subcommand defaults is
the worker count: one process per CPU this process may run on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback
from concurrent.futures import BrokenExecutor

from .detectors import DETECTOR_KINDS, DetectorConfig
from .harness import ExperimentConfig, TrialError, emit_csv, run_sweep
from .model import bpsk_prior
from .optim import SolverConfig
from .soav import default_offset, solve_weights

# oracle-compare's defaults: a system small enough to enumerate, and every detector.
_ORACLE_DEFAULTS = {
    "n_users": 8,
    "n_meas": 6,
    "trials": 200,
    "detectors": [{"kind": kind} for kind in DETECTOR_KINDS],
}
# Each dataclass field's default; the flags' help text shows them.
_DEFAULTS = {f.name: f.default
             for cls in (ExperimentConfig, DetectorConfig, SolverConfig)
             for f in dataclasses.fields(cls)}
# Each config key goes to the dataclass with a field of that name, which checks its value.
_SOLVER_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}
# Detector fields that the file's top level and the flags set for every detector.
_SHARED = ({f.name for f in dataclasses.fields(DetectorConfig)} - {"kind", "solver"}
           | _SOLVER_FIELDS)
_EXPERIMENT_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
# The most points a start:stop:step range may give; a tiny step against a wide
# span would otherwise build billions of values before the config could reject them.
_MAX_AXIS_POINTS = 10_000


def parse_axis(text: str) -> list:
    """Parse an axis spec: a number, a comma list, or an inclusive start:stop:step."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range spec must be start:stop:step")
        bounds = [float(p) for p in parts]
        # A NaN or infinite bound would never end the loop below.
        if not all(map(math.isfinite, bounds)):
            raise ValueError("range spec must be finite")
        start, stop, step = bounds
        if step <= 0:
            raise ValueError("range step must be positive")
        steps = (stop + 1e-9 - start) / step  # the loop below keeps floor(steps) + 1 values
        if steps >= _MAX_AXIS_POINTS:
            raise ValueError(
                f"range spec gives {steps + 1:.6g} points, more than {_MAX_AXIS_POINTS}"
            )
        values = []
        k = 0
        while True:
            value = start + k * step
            if value > stop + 1e-9:
                break
            values.append(value)
            k += 1
        if not values:
            raise ValueError("range spec produced no values")
        return values
    if "," in text:
        return [float(p) for p in text.split(",") if p.strip()]
    return [float(text)]


def parse_detectors(text: str) -> list:
    kinds = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        kind = token.replace("-", "_")
        if kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector {token!r}")
        kinds.append(kind)
    if not kinds:
        raise ValueError("no detectors given")
    return kinds


def _detector_from_dict(entry, file_doc: dict, flags: dict) -> DetectorConfig:
    """A detector from its entry, over the file's shared fields and under the flags'."""
    if not isinstance(entry, dict):
        raise ValueError(f"detector entries must be JSON objects, got {entry!r}")
    below, above = ({key: doc[key] for key in _SHARED if key in doc} for doc in (file_doc, flags))
    doc = {**below, **entry, **above}
    kind = str(doc.pop("kind", "")).lower().replace("-", "_")
    if kind not in DETECTOR_KINDS:
        raise ValueError("detector entries need a valid 'kind'")
    unknown = doc.keys() - _SHARED
    if unknown:
        raise ValueError(f"unknown detector fields: {sorted(unknown)}")
    solver = SolverConfig(**{key: doc.pop(key) for key in _SOLVER_FIELDS if key in doc})
    return DetectorConfig(kind=kind, solver=solver, **doc)


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform, e.g. macOS
        return os.cpu_count() or 1


def _experiment_from_args(args) -> ExperimentConfig:
    """The sweep that the parsed command line ``args`` asks for."""
    axis = "rho" if args.command == "sweep-rho" else "snr_db"
    # A fresh interpreter holds no threads, so forking workers is safe here,
    # unlike in a library caller's process: see ExperimentConfig.parallelism.
    base = {"parallelism": _usable_cpus(),
            **(_ORACLE_DEFAULTS if args.command == "oracle-compare" else {})}
    file_doc = _load_config_file(args.config) if args.config else {}
    unknown = file_doc.keys() - _EXPERIMENT_FIELDS - _SHARED
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    flags = {key: value for key, value in vars(args).items() if value is not None}
    if axis in flags:
        flags[axis] = parse_axis(flags[axis])
    if "detectors" in flags:
        flags["detectors"] = [{"kind": kind} for kind in parse_detectors(flags["detectors"])]
    merged = {**base, **file_doc, **flags}
    entries = merged.get("detectors")
    if entries is not None and not isinstance(entries, list):
        raise ValueError(f"detectors must be a JSON list of detector objects, got {entries!r}")
    # A null or empty list in the file leaves the detectors of the layers below.
    entries = entries or base.get("detectors") or [
        {"kind": det.kind} for det in ExperimentConfig().detectors
    ]
    fields = {key: merged[key] for key in _EXPERIMENT_FIELDS if key in merged}
    fields["detectors"] = tuple(_detector_from_dict(e, file_doc, flags) for e in entries)
    rho = fields.get("rho")
    if axis == "snr_db":
        # The command sweeps snr_db; a list would make ExperimentConfig sweep rho.
        if isinstance(rho, list):
            raise ValueError(f"rho must be a number, got {rho!r}")
        return ExperimentConfig(**fields)
    if rho is None:
        raise ValueError("a rho sweep needs --rho")
    if fields.get("sigma_w2_override") is None:
        raise ValueError("a rho sweep needs --sigma2")
    fields["rho"] = rho if isinstance(rho, list) else [rho]
    # Left unset, snr_db would take its SNR-sweep default; one the file sets
    # reaches ExperimentConfig, which refuses it.
    fields.setdefault("snr_db", None)
    return ExperimentConfig(**fields)


def _add_common(parser: argparse.ArgumentParser, defaults: dict):
    """The flags of every sweep, with the values that ``defaults`` gives as their defaults."""
    def shown(key):
        return f"(default {defaults[key]:g})"

    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--users", dest="n_users", type=int,
                        help=f"number of users N {shown('n_users')}")
    parser.add_argument("--meas", dest="n_meas", type=int,
                        help=f"number of measurements M {shown('n_meas')}")
    parser.add_argument("--trials", type=int, help=f"trials per axis point {shown('trials')}")
    parser.add_argument("--seed", dest="master_seed", type=int,
                        help=f"master seed {shown('master_seed')}")
    parser.add_argument("--parallelism", type=int,
                        help="worker processes (default: the CPUs this process may use)")
    parser.add_argument("--fix-matrix", action="store_true", default=None,
                        help="reuse one mixing matrix for every trial")
    parser.add_argument("--detectors", help="comma list, e.g. lmmse,lasso,map-soav")
    parser.add_argument("--lam", type=float, help=f"LASSO quadratic weight {shown('lam')}")
    parser.add_argument("--alpha", type=float, help=f"decision threshold {shown('alpha')}")
    parser.add_argument("--offset", type=float, help=f"weight-offset margin {shown('offset')}")
    parser.add_argument("--max-iters", dest="max_iters", type=int,
                        help=f"solver iteration cap {shown('max_iters')}")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float,
                        help=f"solver stopping tolerance {shown('rel_tol')} on the fixed-point"
                        " residual, tested every 10 iterations; 0 runs every iteration")
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soavmud", description="Monte Carlo simulator for ternary multiuser detection"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="SNR sweep")
    rho = sub.add_parser("sweep-rho", help="non-active-rate sweep at fixed variance")
    wts = sub.add_parser("weights", help="print the calibrated penalty weights")
    cmp_ = sub.add_parser(
        "oracle-compare",
        help="small-system sweep including exhaustive MAP (default {n_users} users,"
        " {n_meas} measurements, {trials} trials, every detector)".format(**_ORACLE_DEFAULTS),
    )
    for snr_sweep, defaults in ((sim, _DEFAULTS), (cmp_, {**_DEFAULTS, **_ORACLE_DEFAULTS})):
        _add_common(snr_sweep, defaults)
        snr_sweep.add_argument("--rho", type=float,
                               help=f"non-active rate (default {defaults['rho']:g})")
        snr_sweep.add_argument("--snr", dest="snr_db",
                               help="SNR axis in dB: value, list, or start:stop:step"
                               f" (default {defaults['snr_db']:g})")
        snr_sweep.add_argument("--sigma2", dest="sigma_w2_override", type=float,
                               help="noise variance override (single-point runs only)")

    _add_common(rho, _DEFAULTS)
    rho.add_argument("--rho", help="rho axis: value, list, or start:stop:step")
    rho.add_argument("--sigma2", dest="sigma_w2_override", type=float,
                     help="fixed noise variance (required)")

    wts.add_argument("--rho", type=float, required=True)
    wts.add_argument("--offset", type=float, default=DetectorConfig.offset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "weights":
            prior = bpsk_prior(args.rho)
            weights = solve_weights(prior, default_offset(prior, args.offset))
            q_text = ", ".join(f"{v:.6g}" for v in weights.q)
            print(f"rho={args.rho:.6g} offset={args.offset:.6g}")
            print(f"C={weights.c:.6g}")
            print(f"q=[{q_text}]")
            print(f"convex={weights.convex}")
            return 0
        emit_csv(run_sweep(_experiment_from_args(args)), args.out or sys.stdout)
        return 0
    except TrialError as exc:
        # A trial failed inside the program rather than on its input, so show
        # where: the traceback of the cause (from a worker, its remote text).
        if exc.__cause__ is not None:
            traceback.print_exception(exc.__cause__, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
