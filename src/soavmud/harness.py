"""Monte Carlo experiment engine: paired-seed sweeps, aggregation, CSV output.

A sweep walks one axis (SNR in dB, or the non-active rate rho at fixed noise
variance). At every axis point it runs `trials` independent trials; within a
trial all configured detectors see the identical realization (S, b, w),
so detector comparisons are paired. Trial streams are keyed by
(master_seed, axis value, trial index), which makes results independent of
execution order and of the degree of parallelism.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import logging
import math
import os
import pickle
import signal
import sys
import traceback
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
    "DetectorSummary",
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

# The most users whose 3**n_users ternary candidates fit the enumeration bound,
# so that the config check never forms a power of 3 the size of n_users.
_MAX_EXHAUSTIVE_USERS = max(n for n in range(64) if 3**n <= _ENUMERATION_BOUND)

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
    swept axis may not repeat a point, nor hold two that the CSV prints
    alike at six significant digits.

    ``parallelism`` is the most processes that run trials, the sweep's own
    included: ``run_sweep`` forks at most ``parallelism - 1`` children. It
    defaults to 1, so a library call runs in the caller's process alone:
    forking a process that may hold threads, as a host application can, is
    unsafe. The CLI, which starts in a fresh interpreter, defaults to one
    process per usable CPU instead.
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
        for det in self.detectors:
            if not isinstance(det, DetectorConfig):
                raise ValueError(f"each detector must be a DetectorConfig, got {det!r}")
        kinds = [det.kind for det in self.detectors]
        if len(set(kinds)) != len(kinds):
            raise ValueError("detector kinds must be unique within a run")
        # The prior is always ternary, so exhaustive MAP scans 3**n_users candidates.
        if "exhaustive_map" in kinds and self.n_users > _MAX_EXHAUSTIVE_USERS:
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
        # Two points whose CSV rows read alike would print two estimates that
        # cannot be told apart, or rerun the same keyed trials as a second one.
        printed = {}
        for value in self.axis_points:
            key = float(_fmt(value))
            if key in printed:
                raise ValueError(f"{self.axis} repeats the axis point {value!r}:"
                                 f" the CSV cannot tell it from {printed[key]!r}")
            printed[key] = value

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
    trial_index)`` with a config of the same ``master_seed``. ``details`` is
    the formatted traceback of the cause, the same text whichever process
    ran the trial.
    """

    def __init__(self, master_seed: int, axis: str, axis_value: float,
                 trial_index: int, reason: str, details: str):
        # All six go to args, so the error pickles back out of a forked child;
        # a traceback does not pickle, so its text goes as ``details``.
        super().__init__(master_seed, axis, axis_value, trial_index, reason, details)
        self.master_seed = master_seed
        self.axis = axis
        self.axis_value = axis_value
        self.trial_index = trial_index
        self.reason = reason
        self.details = details

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
    solves: dict            # detector kind -> (iterations, converged, residual), solver runs only


@dataclass(frozen=True)
class DetectorSummary:
    """One detector's error statistics at one axis point."""

    trials: int             # trials averaged: those on which the detector did not fail
    error_ratio: float      # mean symbol error ratio over them; NaN when there are none
    std_err: float          # standard error of that mean; 0 for a single trial
    failure_reasons: collections.Counter  # failure message -> trials that failed with it
    solver: Optional[tuple]  # None or (mean iterations, cap hits, median residual) of its solves


@dataclass(frozen=True)
class SweepResult:
    """Aggregated error statistics for one axis point of ``config``."""

    axis_value: float
    detectors: dict         # detector kind -> DetectorSummary, in config order
    config: ExperimentConfig


@functools.lru_cache(maxsize=1)
def _fixed_matrix(master_seed: int, n_meas: int, n_users: int) -> np.ndarray:
    """The S shared by every trial of a fix-matrix sweep, drawn once per process.

    It comes from its own stream, so a child process that draws it anew gets the
    same bits. The array is read-only, because every trial is handed it.
    """
    S = gaussian_matrix(n_meas, n_users, substream(master_seed, _MATRIX_STREAM_KEY))
    S.setflags(write=False)
    return S


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
            S = _fixed_matrix(config.master_seed, config.n_meas, config.n_users)
        else:
            S = gaussian_matrix(config.n_meas, config.n_users, rng)
        instance = synthesize(prior, S, sigma_w2, rng)
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
                solves[det.kind] = (report.iterations, report.converged, report.residual)
        return TrialRecord(error_counts=counts, failure_reasons=reasons, solves=solves)
    except Exception as exc:
        raise TrialError(
            config.master_seed, config.axis, float(axis_value), trial_index,
            f"{type(exc).__name__}: {exc}", "".join(traceback.format_exception(exc)),
        ) from exc


def _summarize(kind: str, n_users: int, records) -> DetectorSummary:
    """The statistics of detector ``kind`` over the records of one axis point."""
    ratios = np.array([rec.error_counts[kind] / n_users for rec in records
                       if rec.error_counts[kind] is not None])
    solves = [rec.solves[kind] for rec in records if kind in rec.solves]
    solver = None
    if solves:
        # Not np.median: its first call imports numpy.ma, 2 MiB of peak RSS.
        residuals = sorted(r for _, _, r in solves)
        half = len(residuals) // 2
        median = (residuals[half] if len(residuals) % 2
                  else 0.5 * (residuals[half - 1] + residuals[half]))
        solver = (sum(n for n, _, _ in solves) / len(solves),
                  sum(1 for _, done, _ in solves if not done), median)
    error_ratio = std_err = float("nan")
    if ratios.size:
        error_ratio = float(np.mean(ratios))
        std_err = float(np.std(ratios, ddof=1) / np.sqrt(ratios.size)) if ratios.size > 1 else 0.0
    reasons = collections.Counter(rec.failure_reasons[kind] for rec in records
                                  if kind in rec.failure_reasons)
    return DetectorSummary(ratios.size, error_ratio, std_err, reasons, solver)


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

    Children forked inside the block inherit the single thread. With more, an
    idle OpenBLAS helper thread in each process spins on the CPU the others
    need; limiting each child after the fork instead starts such a thread in
    every one of them. Serial sweeps run inside it too, so every
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


def _run_shard(config: ExperimentConfig, shard: int, processes: int):
    """Run positions ``shard``, ``shard + processes``, ... of the sweep's trials.

    Position j is trial j mod ``trials`` of axis point j // ``trials``.
    Returns ``(records, failure)``: the records in position order, and None or
    ``(position, TrialError)`` for the first trial that raised, at which the
    shard stops.
    """
    points = config.axis_points
    records = []
    for position in range(shard, len(points) * config.trials, processes):
        point, trial_index = divmod(position, config.trials)
        try:
            records.append(run_trial(config, points[point], trial_index))
        except TrialError as exc:
            return records, (position, exc)
    return records, None


def _run_child(config: ExperimentConfig, shard: int, processes: int, write_fd: int):
    """Run one shard in a forked child, pickle its outcome into the pipe, exit.

    It never returns: exit status 0 means the whole outcome was written.
    """
    status = 1
    try:
        outcome = _run_shard(config, shard, processes)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException:
        # Printed here, because os._exit ends the child before Python would.
        traceback.print_exc()
        sys.stderr.flush()
        raise
    finally:
        os._exit(status)


def _lost_child(config: ExperimentConfig, status: int) -> ChildProcessError:
    """The error for a child that ended, with wait ``status``, before sending its outcome."""
    if os.WIFSIGNALED(status):
        how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    elif status:
        how = f"exited with status {os.waitstatus_to_exitcode(status)}"
    else:
        how = "sent no results"
    return ChildProcessError(
        f"a child process {how} during the sweep with master_seed"
        f"={config.master_seed}; no results were kept"
    )


def _fork_join(config: ExperimentConfig) -> list:
    """The records of every trial, in sweep order.

    The trials run on ``min(parallelism, trials x axis points)`` processes,
    and position j goes to shard j mod that count. This process runs shard 0
    and forks one child per other shard, so with one process the sweep runs
    here alone.
    """
    total = len(config.axis_points) * config.trials
    processes = min(config.parallelism, total)
    children = []  # (pid, read end of its pipe), in shard order, until reaped
    try:
        for shard in range(1, processes):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(config, shard, processes, write_fd)
            # Closed at once, so no later child holds it: EOF on the pipe then
            # means that this child is done.
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        outcomes = [_run_shard(config, 0, processes)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status or not data:
                raise _lost_child(config, status)
            outcomes.append(pickle.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # A shard stops at its first failure, so the earliest of these is the
    # earliest failing trial of the sweep: the one a serial run names.
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    records = [None] * total
    for shard, (shard_records, _) in enumerate(outcomes):
        records[shard::processes] = shard_records
    return records


def run_sweep(config: ExperimentConfig) -> list:
    """Run all axis points; returns one SweepResult per point, in axis order.

    The trials run on ``min(parallelism, trials x axis points)`` processes,
    with a single BLAS thread each. This process runs one shard of them and
    forks a child for each other shard; trial i of axis point k is position
    j = k x trials + i, which goes to shard j mod the process count. Each
    result holds one ``DetectorSummary`` per detector. A child that dies (killed,
    or out of memory) or sends nothing raises ``ChildProcessError`` naming
    the sweep's master seed, and no child is left running. A trial that
    raises, in any process, raises ``TrialError`` naming the trial; when
    several do, the earliest in sweep order, as in a serial run. Its
    ``details`` hold the cause's traceback; only one raised in this process
    keeps the cause itself as ``__cause__``.
    """
    with _one_blas_thread():
        records = _fork_join(config)
    results = []
    for i, axis_value in enumerate(config.axis_points):
        block = records[i * config.trials : (i + 1) * config.trials]
        summaries = {det.kind: _summarize(det.kind, config.n_users, block)
                     for det in config.detectors}
        results.append(SweepResult(float(axis_value), summaries, config))
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
    # deliberately left out so output is identical for any process count.
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
    for det in config.detectors:
        if det.kind == "map_soav":
            for rho in config.rho_values():
                prior = bpsk_prior(rho)
                weights = solve_weights(prior, default_offset(prior, det.offset))
                q_text = ",".join(_fmt(float(v)) for v in weights.q)
                lines.append(f"# weights rho={_fmt(rho)}: C={_fmt(weights.c)} q=[{q_text}]"
                             f" convex={weights.convex}")
    for res in results:
        for kind, summary in res.detectors.items():
            if summary.failure_reasons:
                where = f"{config.axis}={_fmt(res.axis_value)} {kind}"
                lines.append(f"# failures {where}: {config.trials - summary.trials}")
                # A reason spread over several lines would end its '#' line early.
                for reason, n in sorted(summary.failure_reasons.items()):
                    one_line = " ".join(reason.splitlines())
                    lines.append(f"# failure_reason {where}: {n} x {one_line}")
    # Iteration counts, cap hits and residuals depend only on the trials, never
    # on the process count, so these lines keep the output byte-identical too.
    # The residual gets two digits: enough for its order of magnitude.
    for res in results:
        for kind, summary in res.detectors.items():
            if summary.solver is not None:
                mean, capped, residual = summary.solver
                lines.append(
                    f"# solver {config.axis}={_fmt(res.axis_value)} {kind}:"
                    f" mean_iterations={_fmt(mean)} cap_hits={capped}/{summary.trials}"
                    f" median_residual={residual:.2g}"
                )
    return lines


def emit_csv(results, destination) -> None:
    """Write sweep results as CSV preceded by '#' metadata comment lines.

    Columns: axis,axis_value,detector,trials,error_ratio,std_err,master_seed.
    The trials column counts the trials actually averaged (failed trials are
    excluded and reported in the metadata, with a count per distinct reason).
    For lasso and map_soav the metadata also gives, per axis point, the mean
    solver iterations, how many solves hit the iteration cap without
    converging, and the median fixed-point residual of the estimates.
    """
    if not results:
        raise ValueError("no results to emit")
    config = results[0].config
    lines = _metadata_lines(config, results)
    lines.append("axis,axis_value,detector,trials,error_ratio,std_err,master_seed")
    for res in results:
        for kind, summary in res.detectors.items():
            row = (config.axis, _fmt(res.axis_value), kind, str(summary.trials),
                   _fmt(summary.error_ratio), _fmt(summary.std_err), str(config.master_seed))
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
