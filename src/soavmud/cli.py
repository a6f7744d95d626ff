"""Command-line interface for the Monte Carlo simulator.

Subcommands:
    simulate        SNR sweep with the continuous detectors
    sweep-rho       non-active-rate sweep at fixed noise variance
    weights         print the calibrated penalty weights for a prior
    oracle-compare  small-system sweep including the exhaustive-MAP oracle

A JSON config file may supply any ExperimentConfig field; explicit command
line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from concurrent.futures import BrokenExecutor

from .detectors import DetectorConfig
from .harness import ExperimentConfig, TrialError, emit_csv, run_sweep
from .model import bpsk_prior
from .optim import SolverConfig
from .soav import default_offset, solve_weights

_CANONICAL_KINDS = {
    "lmmse": "lmmse",
    "lasso": "lasso",
    "map-soav": "map_soav",
    "map_soav": "map_soav",
    "exhaustive-map": "exhaustive_map",
    "exhaustive_map": "exhaustive_map",
}


def parse_axis(text: str) -> list:
    """Parse an axis spec: a number, a comma list, or an inclusive start:stop:step."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range spec must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
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
        if token not in _CANONICAL_KINDS:
            raise ValueError(f"unknown detector {token!r}")
        kinds.append(_CANONICAL_KINDS[token])
    if not kinds:
        raise ValueError("no detectors given")
    return kinds


def _detector_from_dict(doc: dict) -> DetectorConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"detector entries must be JSON objects, got {doc!r}")
    doc = dict(doc)
    kind = _CANONICAL_KINDS.get(str(doc.pop("kind", "")).lower())
    if kind is None:
        raise ValueError("detector entries need a valid 'kind'")
    lipschitz = doc.pop("lipschitz", None)
    solver = SolverConfig(
        lipschitz=None if lipschitz is None else _json_typed(lipschitz, float, "lipschitz"),
        max_iters=_json_typed(doc.pop("max_iters", 500), int, "max_iters"),
        rel_tol=_json_typed(doc.pop("rel_tol", 1e-8), float, "rel_tol"),
    )
    known = {
        key: _json_typed(doc.pop(key), float, key)
        for key in ("lam", "alpha", "offset")
        if key in doc
    }
    if doc:
        raise ValueError(f"unknown detector fields: {sorted(doc)}")
    return DetectorConfig(kind=kind, solver=solver, **known)


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


_JSON_NAMES = {int: "a JSON integer", bool: "a JSON boolean", float: "a JSON number"}


def _json_typed(value, kind: type, key: str):
    """Return a config value of JSON type ``kind``: int, bool or float.

    int and bool values are not coerced: 2.9 or "2" is no integer, "false" no
    boolean, and a boolean is no integer although Python's bool subclasses
    int. A float field takes any JSON number, or a string that reads as one
    ("0.1"), and returns a float; a list, null or boolean is no number.
    """
    is_bool = isinstance(value, bool)
    if kind is float and isinstance(value, (int, float, str)) and not is_bool:
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, kind) and (kind is bool or not is_bool):
        return value
    raise ValueError(f"{key} must be {_JSON_NAMES[kind]}, got {value!r}")


def _json_axis(value, key: str) -> list:
    """An axis from a config file: one JSON number or a list of them."""
    values = value if isinstance(value, list) else [value]
    return [_json_typed(v, float, key) for v in values]


def _pick(args_value, file_doc: dict, key: str, default, kind: type):
    """The flag's value, else the file's, else the default; checked against ``kind``.

    A field whose default is None may be left null.
    """
    value = args_value if args_value is not None else file_doc.get(key, default)
    if value is None and default is None:
        return None
    return _json_typed(value, kind, key)


def _build_detector_list(kinds, args, file_doc) -> tuple:
    if kinds is None:
        file_dets = file_doc.get("detectors")
        if file_dets is not None and not isinstance(file_dets, list):
            raise ValueError(
                f"detectors must be a JSON list of detector objects, got {file_dets!r}"
            )
        if file_dets:
            return tuple(_detector_from_dict(d) for d in file_dets)
        kinds = ["lmmse", "lasso", "map_soav"]
    solver = SolverConfig(
        max_iters=_pick(args.max_iters, file_doc, "max_iters", 500, int),
        rel_tol=_pick(args.rel_tol, file_doc, "rel_tol", 1e-8, float),
    )
    common = dict(
        lam=_pick(args.lam, file_doc, "lam", 30.0, float),
        alpha=_pick(args.alpha, file_doc, "alpha", 0.5, float),
        offset=_pick(args.offset, file_doc, "offset", 10.0, float),
        solver=solver,
    )
    return tuple(DetectorConfig(kind=kind, **common) for kind in kinds)


def _experiment_from_args(args, axis: str) -> ExperimentConfig:
    file_doc = _load_config_file(args.config) if args.config else {}
    kinds = parse_detectors(args.detectors) if args.detectors else None
    detectors = _build_detector_list(kinds, args, file_doc)
    common = dict(
        n_users=_pick(args.users, file_doc, "n_users", 100, int),
        n_meas=_pick(args.meas, file_doc, "n_meas", 70, int),
        trials=_pick(args.trials, file_doc, "trials", 1000, int),
        master_seed=_pick(args.seed, file_doc, "master_seed", 0, int),
        parallelism=_pick(args.parallelism, file_doc, "parallelism", 1, int),
        fix_matrix=_pick(args.fix_matrix or None, file_doc, "fix_matrix", False, bool),
        detectors=detectors,
    )
    sigma2 = _pick(args.sigma2, file_doc, "sigma_w2_override", None, float)
    if axis == "snr_db":
        if args.snr:
            snr = parse_axis(args.snr)
        else:
            snr = _json_axis(file_doc.get("snr_db", 12.0), "snr_db")
        return ExperimentConfig(
            rho=_pick(args.rho, file_doc, "rho", 0.8, float),
            snr_db=snr[0] if len(snr) == 1 else tuple(snr),
            sigma_w2_override=sigma2,
            **common,
        )
    rho = parse_axis(args.rho) if args.rho else file_doc.get("rho", None)
    if rho is None:
        raise ValueError("a rho sweep needs --rho")
    if sigma2 is None:
        raise ValueError("a rho sweep needs --sigma2")
    return ExperimentConfig(
        rho=tuple(_json_axis(rho, "rho")), snr_db=None, sigma_w2_override=sigma2, **common
    )


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--users", type=int, help="number of users N (default 100)")
    parser.add_argument("--meas", type=int, help="number of measurements M (default 70)")
    parser.add_argument("--trials", type=int, help="trials per axis point (default 1000)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--parallelism", type=int, help="worker processes (default 1)")
    parser.add_argument("--fix-matrix", action="store_true", default=False,
                        help="reuse one mixing matrix for every trial")
    parser.add_argument("--detectors", help="comma list, e.g. lmmse,lasso,map-soav")
    parser.add_argument("--lam", type=float, help="LASSO quadratic weight (default 30)")
    parser.add_argument("--alpha", type=float, help="decision threshold (default 0.5)")
    parser.add_argument("--offset", type=float, help="weight-offset margin (default 10)")
    parser.add_argument("--max-iters", dest="max_iters", type=int,
                        help="solver iteration cap (default 500)")
    parser.add_argument("--rel-tol", dest="rel_tol", type=float,
                        help="solver stopping tolerance (default 1e-8)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soavmud", description="Monte Carlo simulator for ternary multiuser detection"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="SNR sweep")
    _add_common(sim)
    sim.add_argument("--rho", type=float, help="non-active rate (default 0.8)")
    sim.add_argument("--snr", help="SNR axis in dB: value, list, or start:stop:step")
    sim.add_argument("--sigma2", type=float,
                     help="noise variance override (single-point runs only)")

    rho = sub.add_parser("sweep-rho", help="non-active-rate sweep at fixed variance")
    _add_common(rho)
    rho.add_argument("--rho", help="rho axis: value, list, or start:stop:step")
    rho.add_argument("--sigma2", type=float, help="fixed noise variance (required)")

    wts = sub.add_parser("weights", help="print the calibrated penalty weights")
    wts.add_argument("--rho", type=float, required=True)
    wts.add_argument("--offset", type=float, default=10.0)

    cmp_ = sub.add_parser("oracle-compare",
                          help="small-system sweep including exhaustive MAP")
    _add_common(cmp_)
    cmp_.add_argument("--rho", type=float, help="non-active rate (default 0.8)")
    cmp_.add_argument("--snr", help="SNR axis in dB (default 12)")
    cmp_.add_argument("--sigma2", type=float,
                      help="noise variance override (single-point runs only)")
    return parser


def _run_and_emit(config: ExperimentConfig, out) -> None:
    results = run_sweep(config)
    if out:
        emit_csv(results, out)
    else:
        emit_csv(results, sys.stdout)


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
        if args.command == "simulate":
            config = _experiment_from_args(args, axis="snr_db")
        elif args.command == "sweep-rho":
            config = _experiment_from_args(args, axis="rho")
        else:  # oracle-compare
            if args.users is None:
                args.users = 8
            if args.meas is None:
                args.meas = 6
            if args.trials is None:
                args.trials = 200
            if args.snr is None:
                args.snr = "12"
            if args.detectors is None:
                args.detectors = "lmmse,lasso,map-soav,exhaustive-map"
            config = _experiment_from_args(args, axis="snr_db")
        _run_and_emit(config, args.out)
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
