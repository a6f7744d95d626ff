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
import itertools
import logging
import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .detectors import _ENUMERATION_BOUND, DetectorConfig, run_detector
from .model import bpsk_prior, gaussian_matrix, sigma_from_snr, substream, synthesize
from .optim import DivergenceError, _as_float, _as_int
from .soav import SingularWeightSystemError, default_offset, solve_weights

__all__ = [
    "ExperimentConfig",
    "TrialError",
    "TrialRecord",
    "SweepResult",
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


def _number_or_axis(name: str, value):
    """A swept setting as a tuple of floats, or a fixed one as a float."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(_as_float(name, v) for v in value)
    return _as_float(name, value)


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
    and leaves ``snr_db`` unset, matching the fixed-variance protocol). The
    swept axis may not repeat a point.

    ``parallelism`` is the most worker processes ``run_sweep`` forks. It
    defaults to 1, so a library call runs in the caller's process: forking a
    process that may hold threads, as a host application can, is unsafe. The
    CLI, which starts in a fresh interpreter, defaults to one worker per usable
    CPU instead.
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
        for name in ("n_users", "n_meas", "trials", "master_seed", "parallelism"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
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
        if not isinstance(self.fix_matrix, (bool, np.bool_)):
            raise ValueError(f"fix_matrix must be a boolean, got {self.fix_matrix!r}")
        object.__setattr__(self, "fix_matrix", bool(self.fix_matrix))
        rho = _number_or_axis("rho", self.rho)
        snr = None if self.snr_db is None else _number_or_axis("snr_db", self.snr_db)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "snr_db", snr)
        if self.sigma_w2_override is not None:
            sigma_w2 = _as_float("sigma_w2_override", self.sigma_w2_override)
            object.__setattr__(self, "sigma_w2_override", sigma_w2)
        if isinstance(rho, tuple):
            if not rho:
                raise ValueError("rho sweep must be nonempty")
            if snr is not None:
                raise ValueError("a rho sweep fixes the noise variance; leave snr_db unset")
            if self.sigma_w2_override is None:
                raise ValueError("a rho sweep requires sigma_w2_override")
        elif snr is None:
            raise ValueError("snr_db is required unless rho is swept")
        elif isinstance(snr, tuple):
            if not snr:
                raise ValueError("snr sweep must be nonempty")
            if len(snr) > 1 and self.sigma_w2_override is not None:
                raise ValueError(
                    "an SNR sweep derives the noise variance; drop sigma_w2_override"
                )
        if self.sigma_w2_override is not None and not 0.0 < self.sigma_w2_override < math.inf:
            raise ValueError("sigma_w2_override must be positive and finite")
        if self.snr_db is not None and not all(map(math.isfinite, self.axis_points)):
            raise ValueError("every snr_db must be finite")
        for r in self.rho_values():
            if not 0.0 < r < 1.0:
                raise ValueError("every rho must lie strictly inside (0, 1)")
        # A repeated point would rerun the same keyed trials and print a copy
        # of its rows as if it were a second, independent estimate.
        points = self.axis_points
        if len(set(points)) < len(points):
            value = next(v for i, v in enumerate(points) if v in points[:i])
            raise ValueError(f"{self.axis} repeats the axis point {value!r}")

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
        return sigma_from_snr(float(axis_value), self.rho, self.n_users, self.n_meas)


class TrialError(RuntimeError):
    """A trial raised an exception that is no recoverable detector failure.

    It names the keys that replay the trial: ``run_trial(config, axis_value,
    trial_index)`` with a config of the same ``master_seed``.
    """

    def __init__(self, master_seed: int, axis: str, axis_value: float,
                 trial_index: int, reason: str):
        # All five go to args, so the error pickles back out of a worker.
        super().__init__(master_seed, axis, axis_value, trial_index, reason)
        self.master_seed = master_seed
        self.axis = axis
        self.axis_value = axis_value
        self.trial_index = trial_index
        self.reason = reason

    def __str__(self) -> str:
        return (
            f"trial {self.trial_index} at {self.axis}={self.axis_value!r} with"
            f" master_seed={self.master_seed} failed: {self.reason}"
        )


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial outcome: symbol error counts and solver effort per detector.

    It names no trial: ``run_sweep`` keeps the records in trial order.
    """

    error_counts: dict      # detector kind -> int, or None when the detector failed
    failure_reasons: dict   # detector kind -> message, only for failed detectors
    solves: dict            # detector kind -> (iterations, converged), solver runs only


@dataclass(frozen=True)
class SweepResult:
    """Aggregated error statistics for one axis point of ``config``."""

    axis_value: float
    means: dict            # detector kind -> mean error ratio over successful trials
    std_errs: dict         # detector kind -> standard error of that mean
    failures: dict         # detector kind -> number of failed trials
    config: ExperimentConfig
    mean_iterations: dict  # solver kind -> mean iterations of its successful solves
    cap_hits: dict         # solver kind -> solves that stopped at max_iters unconverged
    # A solver kind with no successful solve at this point has no entry.


def run_trial(config: ExperimentConfig, axis_value: float, trial_index: int) -> TrialRecord:
    """Run every configured detector on one shared realization.

    A detector failure listed in ``_RECOVERABLE`` is logged and recorded;
    any other exception is raised as a ``TrialError`` naming this trial.
    """
    try:
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
        counts, reasons, solves = {}, {}, {}
        for det in config.detectors:
            try:
                result = run_detector(instance, prior, det)
            except _RECOVERABLE as exc:
                counts[det.kind] = None
                reasons[det.kind] = f"{type(exc).__name__}: {exc}"
                logger.warning(
                    "trial %d at %s=%s: detector %s failed (%s)",
                    trial_index, config.axis, axis_value, det.kind, exc,
                )
                continue
            counts[det.kind] = int(np.count_nonzero(result.decided != instance.b))
            report = result.diagnostics
            if report is not None:
                solves[det.kind] = (report.iterations, report.converged)
        return TrialRecord(error_counts=counts, failure_reasons=reasons, solves=solves)
    except Exception as exc:
        raise TrialError(
            config.master_seed, config.axis, float(axis_value), trial_index,
            f"{type(exc).__name__}: {exc}",
        ) from exc


def _aggregate(config: ExperimentConfig, axis_value: float, records) -> SweepResult:
    means, std_errs, failures, mean_iterations, cap_hits = {}, {}, {}, {}, {}
    for det in config.detectors:
        solves = [rec.solves[det.kind] for rec in records if det.kind in rec.solves]
        if solves:
            mean_iterations[det.kind] = sum(n for n, _ in solves) / len(solves)
            cap_hits[det.kind] = sum(1 for _, done in solves if not done)
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
        mean_iterations=mean_iterations,
        cap_hits=cap_hits,
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
    thread in every one of them. Serial sweeps run inside it too, so every
    sweep has one BLAS policy; at paper scale they also ran faster on one thread.
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

    The trials run on ``min(parallelism, trials x axis points)`` worker
    processes, forked, or in this process when that is 1; either way with a
    single BLAS thread. A worker that dies (killed, or out of memory) raises
    ``BrokenProcessPool`` naming the sweep's master seed. A trial that raises,
    serially or in a worker, raises ``TrialError`` naming the trial.
    """
    values = [value for value in config.axis_points for _ in range(config.trials)]
    indices = [index for _ in config.axis_points for index in range(config.trials)]
    workers = min(config.parallelism, len(values))
    with _one_blas_thread():
        if workers > 1:
            # Imported here, because importing it costs every serial run ~7 ms of start-up.
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

            # Rounded up, so chunks split evenly: 18 trials on 2 workers are 6 chunks of 3.
            chunk = math.ceil(len(values) / (4 * workers))
            # fork, not spawn: a spawned worker re-imports numpy, which costs more
            # than the trials of a short sweep, and would not inherit the limit.
            fork = multiprocessing.get_context("fork")
            try:
                with ProcessPoolExecutor(workers, fork) as pool:
                    records = list(pool.map(run_trial, itertools.repeat(config), values,
                                            indices, chunksize=chunk))
            except BrokenProcessPool as exc:
                raise BrokenProcessPool(
                    f"a worker process died during the sweep with master_seed"
                    f"={config.master_seed}; no results were kept"
                ) from exc
        else:
            records = [run_trial(config, value, index) for value, index in zip(values, indices)]
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
    for res in results:
        for kind, count in res.failures.items():
            if count:
                lines.append(f"# failures {config.axis}={_fmt(res.axis_value)} {kind}: {count}")
    # Iteration counts and cap hits depend only on the trials, never on the
    # worker count, so these lines keep the output byte-identical too.
    for res in results:
        for kind, mean in res.mean_iterations.items():
            solves = config.trials - res.failures[kind]
            lines.append(
                f"# solver {config.axis}={_fmt(res.axis_value)} {kind}:"
                f" mean_iterations={_fmt(mean)} cap_hits={res.cap_hits[kind]}/{solves}"
            )
    return lines


def emit_csv(results, destination) -> None:
    """Write sweep results as CSV preceded by '#' metadata comment lines.

    Columns: axis,axis_value,detector,trials,error_ratio,std_err,master_seed.
    The trials column counts the trials actually averaged (failed trials are
    excluded and reported in the metadata). For lasso and map_soav the
    metadata also gives, per axis point, the mean solver iterations and how
    many solves hit the iteration cap without converging.
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
