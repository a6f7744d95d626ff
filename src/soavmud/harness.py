"""Monte Carlo experiment engine: paired-seed sweeps, aggregation, CSV output.

A sweep walks one axis (SNR in dB, or the non-active rate rho at fixed noise
variance). At every axis point it runs `trials` independent trials; within a
trial all configured detectors see the identical realization (S, A, b, w),
so detector comparisons are paired. Trial streams are keyed by
(master_seed, axis value, trial index), which makes results independent of
execution order and of the degree of parallelism.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .detectors import _ENUMERATION_BOUND, DetectorConfig, run_detector
from .model import SnrSpec, bpsk_prior, gaussian_matrix, sigma_from_snr, substream, synthesize
from .optim import DivergenceError
from .soav import SingularWeightSystemError, default_offset, solve_weights

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "SweepResult",
    "error_ratio",
    "run_trial",
    "run_sweep",
    "emit_csv",
]

logger = logging.getLogger(__name__)

# Stream key for the shared matrix in fix-matrix mode. Trial streams use
# two-element keys, so a one-element key can never collide with them.
_MATRIX_STREAM_KEY = 0

_RECOVERABLE = (DivergenceError, SingularWeightSystemError, np.linalg.LinAlgError)

# (set, get) thread-count functions of the OpenBLAS builds numpy ships, in the
# order they are tried: numpy 2.x wheels, then older 64-bit and 32-bit builds.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _default_detectors() -> tuple:
    return (
        DetectorConfig(kind="lmmse"),
        DetectorConfig(kind="lasso"),
        DetectorConfig(kind="map_soav"),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one sweep.

    Exactly one axis is swept: pass a sequence for ``snr_db`` (with scalar
    ``rho`` and no variance override, the noise variance follows from the
    SNR), or a sequence for ``rho`` (which requires ``sigma_w2_override``
    and leaves ``snr_db`` unset, matching the fixed-variance protocol).
    """

    n_users: int = 100
    n_meas: int = 70
    trials: int = 1000
    rho: Union[float, tuple] = 0.8
    snr_db: Union[float, tuple, None] = 12.0
    sigma_w2_override: Optional[float] = None
    detectors: tuple = field(default_factory=_default_detectors)
    master_seed: int = 0
    parallelism: int = 1
    fix_matrix: bool = False

    def __post_init__(self):
        if self.n_users < 1 or self.n_meas < 1:
            raise ValueError("n_users and n_meas must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if not self.detectors:
            raise ValueError("at least one detector must be configured")
        kinds = [det.kind for det in self.detectors]
        if len(set(kinds)) != len(kinds):
            raise ValueError("detector kinds must be unique within a run")
        # The prior is always ternary, so exhaustive MAP scans 3**n_users candidates.
        if "exhaustive_map" in kinds and 3**self.n_users > _ENUMERATION_BOUND:
            raise ValueError(
                f"exhaustive_map would scan 3^{self.n_users} candidates, more than"
                f" the enumeration bound {_ENUMERATION_BOUND}"
            )
        rho = self.rho
        snr = self.snr_db
        if isinstance(rho, (list, tuple, np.ndarray)):
            rho = tuple(float(r) for r in rho)
            object.__setattr__(self, "rho", rho)
            if not rho:
                raise ValueError("rho sweep must be nonempty")
            if snr is not None:
                raise ValueError("a rho sweep fixes the noise variance; leave snr_db unset")
            if self.sigma_w2_override is None:
                raise ValueError("a rho sweep requires sigma_w2_override")
        else:
            object.__setattr__(self, "rho", float(rho))
            if snr is None:
                raise ValueError("snr_db is required unless rho is swept")
            if isinstance(snr, (list, tuple, np.ndarray)):
                snr = tuple(float(s) for s in snr)
                object.__setattr__(self, "snr_db", snr)
                if not snr:
                    raise ValueError("snr sweep must be nonempty")
                if len(snr) > 1 and self.sigma_w2_override is not None:
                    raise ValueError(
                        "an SNR sweep derives the noise variance; drop sigma_w2_override"
                    )
            else:
                object.__setattr__(self, "snr_db", float(snr))
        if self.sigma_w2_override is not None and not 0.0 < self.sigma_w2_override < math.inf:
            raise ValueError("sigma_w2_override must be positive and finite")
        if self.snr_db is not None and not all(map(math.isfinite, self.axis_points)):
            raise ValueError("every snr_db must be finite")
        for r in self.rho_values():
            if not 0.0 < r < 1.0:
                raise ValueError("every rho must lie strictly inside (0, 1)")

    @property
    def axis(self) -> str:
        return "rho" if isinstance(self.rho, tuple) else "snr_db"

    @property
    def axis_points(self) -> tuple:
        if self.axis == "rho":
            return self.rho
        return self.snr_db if isinstance(self.snr_db, tuple) else (self.snr_db,)

    def rho_values(self) -> tuple:
        return self.rho if isinstance(self.rho, tuple) else (self.rho,)

    def rho_at(self, axis_value: float) -> float:
        return float(axis_value) if self.axis == "rho" else self.rho

    def sigma_at(self, axis_value: float) -> float:
        if self.sigma_w2_override is not None:
            return self.sigma_w2_override
        return sigma_from_snr(
            SnrSpec(snr_db=float(axis_value), rho=self.rho), self.n_users, self.n_meas
        )


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial outcome: symbol error counts and solver effort per detector."""

    trial_index: int
    axis_value: float
    error_counts: dict      # detector kind -> int, or None when the detector failed
    iterations: dict        # detector kind -> solver iterations (0 for closed forms)
    failure_reasons: dict   # detector kind -> message, only for failed detectors


@dataclass(frozen=True)
class SweepResult:
    """Aggregated error statistics for one axis point of ``config``."""

    axis_value: float
    means: dict            # detector kind -> mean error ratio over successful trials
    std_errs: dict         # detector kind -> standard error of that mean
    failures: dict         # detector kind -> number of failed trials
    config: ExperimentConfig


def error_ratio(decided, truth) -> float:
    """Fraction of symbol positions decided incorrectly."""
    decided = np.asarray(decided)
    truth = np.asarray(truth)
    if decided.shape != truth.shape:
        raise ValueError("decided and truth must have equal length")
    return float(np.count_nonzero(decided != truth)) / decided.size


def run_trial(config: ExperimentConfig, axis_value: float, trial_index: int) -> TrialRecord:
    """Run every configured detector on one shared realization."""
    rho = config.rho_at(axis_value)
    sigma_w2 = config.sigma_at(axis_value)
    prior = bpsk_prior(rho)
    rng = substream(config.master_seed, float(axis_value), trial_index)
    if config.fix_matrix:
        S = gaussian_matrix(
            config.n_meas, config.n_users, substream(config.master_seed, _MATRIX_STREAM_KEY)
        )
    else:
        S = gaussian_matrix(config.n_meas, config.n_users, rng)
    instance = synthesize(prior, S, np.ones(config.n_users), sigma_w2, rng)
    counts, iters, reasons = {}, {}, {}
    for det in config.detectors:
        try:
            result = run_detector(instance, prior, det)
        except _RECOVERABLE as exc:
            counts[det.kind] = None
            iters[det.kind] = 0
            reasons[det.kind] = f"{type(exc).__name__}: {exc}"
            logger.warning(
                "trial %d at %s=%s: detector %s failed (%s)",
                trial_index, config.axis, axis_value, det.kind, exc,
            )
            continue
        counts[det.kind] = int(np.count_nonzero(result.decided != instance.b))
        iters[det.kind] = 0 if result.diagnostics is None else result.diagnostics.iterations
    return TrialRecord(
        trial_index=trial_index,
        axis_value=float(axis_value),
        error_counts=counts,
        iterations=iters,
        failure_reasons=reasons,
    )


def _trial_task(args) -> TrialRecord:
    config, axis_value, trial_index = args
    return run_trial(config, axis_value, trial_index)


def _aggregate(config: ExperimentConfig, axis_value: float, records) -> SweepResult:
    means, std_errs, failures = {}, {}, {}
    for det in config.detectors:
        ratios = np.array(
            [
                rec.error_counts[det.kind] / config.n_users
                for rec in records
                if rec.error_counts[det.kind] is not None
            ]
        )
        failures[det.kind] = config.trials - ratios.size
        if ratios.size == 0:
            means[det.kind] = float("nan")
            std_errs[det.kind] = float("nan")
        else:
            means[det.kind] = float(np.mean(ratios))
            std_errs[det.kind] = (
                float(np.std(ratios, ddof=1) / np.sqrt(ratios.size))
                if ratios.size > 1
                else 0.0
            )
    return SweepResult(
        axis_value=float(axis_value),
        means=means,
        std_errs=std_errs,
        failures=failures,
        config=config,
    )


def _blas_thread_functions():
    """numpy's BLAS ``(set_num_threads, get_num_threads)`` pair, or None.

    The symbols are looked up through numpy's own ``_multiarray_umath``
    extension, because ``dlsym`` on it also searches the libraries it links,
    among them the OpenBLAS numpy was built against. None means no known
    symbol was found, e.g. numpy built against another BLAS.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for set_name, get_name in _BLAS_THREAD_SYMBOLS:
        try:
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's BLAS at one thread inside the block, then restore the count.

    Workers forked inside the block inherit the single thread. With more, an
    idle OpenBLAS helper thread in each worker spins on the CPU the other
    workers need; limiting each worker after the fork instead starts such a
    thread in every one of them.
    """
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    set_threads, get_threads = functions
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def run_sweep(config: ExperimentConfig) -> list:
    """Run all axis points; returns one SweepResult per point, in axis order.

    With ``parallelism > 1`` the trials run in forked worker processes, each
    with a single BLAS thread. A worker that dies (killed, or out of memory)
    raises ``BrokenProcessPool`` naming the sweep's master seed.
    """
    tasks = [
        (config, axis_value, index)
        for axis_value in config.axis_points
        for index in range(config.trials)
    ]
    if config.parallelism > 1:
        # Imported here, because importing it costs every serial run ~7 ms of start-up.
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        chunk = max(1, len(tasks) // (4 * config.parallelism))
        # fork, not spawn: a spawned worker re-imports numpy, which costs more
        # than the trials of a short sweep, and would not inherit the limit.
        fork = multiprocessing.get_context("fork")
        try:
            with _one_blas_thread(), ProcessPoolExecutor(config.parallelism, fork) as pool:
                records = list(pool.map(_trial_task, tasks, chunksize=chunk))
        except BrokenProcessPool as exc:
            raise BrokenProcessPool(
                f"a worker process died during the sweep with master_seed"
                f"={config.master_seed}; no results were kept"
            ) from exc
    else:
        records = [_trial_task(task) for task in tasks]
    results = []
    for i, axis_value in enumerate(config.axis_points):
        block = records[i * config.trials : (i + 1) * config.trials]
        results.append(_aggregate(config, axis_value, block))
    return results


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _metadata_lines(config: ExperimentConfig, results) -> list:
    lines = [
        "# soavmud sweep",
        f"# axis={config.axis} n_users={config.n_users} n_meas={config.n_meas}"
        f" trials={config.trials} master_seed={config.master_seed}"
        f" fix_matrix={config.fix_matrix}",
    ]
    # Parallelism is an execution detail, not an experiment parameter, and is
    # deliberately left out so output is identical for any worker count.
    if config.axis == "rho":
        lines.append(f"# sigma_w2={_fmt(config.sigma_w2_override)}")
    else:
        lines.append(f"# rho={_fmt(config.rho)}")
        if config.sigma_w2_override is not None:
            lines.append(f"# sigma_w2={_fmt(config.sigma_w2_override)}")
    for det in config.detectors:
        parts = [f"# detector {det.kind}: alpha={_fmt(det.alpha)}"]
        if det.kind == "lasso":
            parts.append(f"lam={_fmt(det.lam)}")
        if det.kind == "map_soav":
            parts.append(f"offset={_fmt(det.offset)}")
        if det.kind in ("lasso", "map_soav"):
            parts.append(
                f"max_iters={det.solver.max_iters} rel_tol={_fmt(det.solver.rel_tol)}"
            )
        lines.append(" ".join(parts))
    if any(det.kind == "map_soav" for det in config.detectors):
        soav_det = next(det for det in config.detectors if det.kind == "map_soav")
        for rho in config.rho_values():
            weights = solve_weights(
                bpsk_prior(rho), default_offset(bpsk_prior(rho), soav_det.offset)
            )
            q_text = ",".join(_fmt(float(v)) for v in weights.q)
            lines.append(
                f"# weights rho={_fmt(rho)}: C={_fmt(weights.c)} q=[{q_text}]"
                f" convex={weights.convex}"
            )
    failure_lines = []
    for res in results:
        for kind, count in res.failures.items():
            if count:
                failure_lines.append(
                    f"# failures {config.axis}={_fmt(res.axis_value)} {kind}: {count}"
                )
    return lines + failure_lines


def emit_csv(results, destination) -> None:
    """Write sweep results as CSV preceded by '#' metadata comment lines.

    Columns: axis,axis_value,detector,trials,error_ratio,std_err,master_seed.
    The trials column counts the trials actually averaged (failed trials are
    excluded and reported in the metadata).
    """
    if not results:
        raise ValueError("no results to emit")
    config = results[0].config
    lines = _metadata_lines(config, results)
    lines.append("axis,axis_value,detector,trials,error_ratio,std_err,master_seed")
    for res in results:
        for det in config.detectors:
            used = config.trials - res.failures[det.kind]
            lines.append(
                ",".join(
                    (
                        config.axis,
                        _fmt(res.axis_value),
                        det.kind,
                        str(used),
                        _fmt(res.means[det.kind]),
                        _fmt(res.std_errs[det.kind]),
                        str(config.master_seed),
                    )
                )
            )
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
