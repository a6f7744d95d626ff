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

from .detectors import DetectorConfig
from .harness import ExperimentConfig, emit_csv, run_sweep
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
    doc = dict(doc)
    kind = _CANONICAL_KINDS.get(str(doc.pop("kind", "")).lower())
    if kind is None:
        raise ValueError("detector entries need a valid 'kind'")
    solver = SolverConfig(
        lipschitz=doc.pop("lipschitz", None),
        max_iters=int(doc.pop("max_iters", 500)),
        rel_tol=float(doc.pop("rel_tol", 1e-8)),
    )
    known = {key: doc.pop(key) for key in ("lam", "alpha", "offset") if key in doc}
    if doc:
        raise ValueError(f"unknown detector fields: {sorted(doc)}")
    return DetectorConfig(kind=kind, solver=solver, **known)


def _load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _pick(args_value, file_doc: dict, key: str, default):
    if args_value is not None:
        return args_value
    if key in file_doc:
        return file_doc[key]
    return default


def _build_detector_list(kinds, args, file_doc) -> tuple:
    if kinds is None:
        file_dets = file_doc.get("detectors")
        if file_dets:
            return tuple(_detector_from_dict(d) for d in file_dets)
        kinds = ["lmmse", "lasso", "map_soav"]
    solver = SolverConfig(
        max_iters=int(_pick(args.max_iters, file_doc, "max_iters", 500)),
        rel_tol=float(_pick(args.rel_tol, file_doc, "rel_tol", 1e-8)),
    )
    common = dict(
        lam=float(_pick(args.lam, file_doc, "lam", 30.0)),
        alpha=float(_pick(args.alpha, file_doc, "alpha", 0.5)),
        offset=float(_pick(args.offset, file_doc, "offset", 10.0)),
        solver=solver,
    )
    return tuple(DetectorConfig(kind=kind, **common) for kind in kinds)


def _experiment_from_args(args, axis: str) -> ExperimentConfig:
    file_doc = _load_config_file(args.config) if args.config else {}
    kinds = parse_detectors(args.detectors) if args.detectors else None
    detectors = _build_detector_list(kinds, args, file_doc)
    common = dict(
        n_users=int(_pick(args.users, file_doc, "n_users", 100)),
        n_meas=int(_pick(args.meas, file_doc, "n_meas", 70)),
        trials=int(_pick(args.trials, file_doc, "trials", 1000)),
        master_seed=int(_pick(args.seed, file_doc, "master_seed", 0)),
        parallelism=int(_pick(args.parallelism, file_doc, "parallelism", 1)),
        fix_matrix=bool(_pick(args.fix_matrix or None, file_doc, "fix_matrix", False)),
        detectors=detectors,
    )
    if axis == "snr_db":
        snr = parse_axis(args.snr) if args.snr else file_doc.get("snr_db", [12.0])
        if not isinstance(snr, list):
            snr = [float(snr)]
        rho = float(_pick(args.rho, file_doc, "rho", 0.8))
        sigma2 = _pick(args.sigma2, file_doc, "sigma_w2_override", None)
        return ExperimentConfig(
            rho=rho,
            snr_db=snr[0] if len(snr) == 1 else tuple(snr),
            sigma_w2_override=None if sigma2 is None else float(sigma2),
            **common,
        )
    rho = parse_axis(args.rho) if args.rho else file_doc.get("rho", None)
    if rho is None:
        raise ValueError("a rho sweep needs --rho")
    if not isinstance(rho, list):
        rho = [float(rho)]
    sigma2 = _pick(args.sigma2, file_doc, "sigma_w2_override", None)
    if sigma2 is None:
        raise ValueError("a rho sweep needs --sigma2")
    return ExperimentConfig(
        rho=tuple(rho), snr_db=None, sigma_w2_override=float(sigma2), **common
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
