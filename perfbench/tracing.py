"""In-memory span tracer that wraps soavmud's public functions from outside.

Each layer boundary is the name one module looks up in another: the harness
calls ``substream``, ``gaussian_matrix``, ``synthesize`` and ``run_detector``
through its own module globals, ``run_detector`` calls ``lmmse`` and friends
through ``soavmud.detectors``, and so on. ``Tracer.install`` replaces those
names with wrappers that record one span per call (name, parent, start, end)
and restores the originals on ``uninstall``. Nothing inside ``src/`` changes.

A capturing tracer also keeps what the checks need: each trial's instance
and detector results. ``on_trial`` sees every trial as it finishes, so the
benchmark can check it and drop the instance before the next one.
"""

from __future__ import annotations

import dataclasses
import json
import time

# (module, attribute, span name). A name a module no longer has is skipped,
# so a refactor that removes a boundary shows as a count of zero.
BOUNDARIES = (
    ("cli", "run_sweep", "harness.run_sweep"),
    ("cli", "emit_csv", "harness.emit_csv"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "substream", "model.substream"),
    ("harness", "gaussian_matrix", "model.gaussian_matrix"),
    ("harness", "synthesize", "model.synthesize"),
    ("harness", "run_detector", "detectors.run_detector"),
    ("harness", "solve_weights", "soav.solve_weights"),
    ("detectors", "lmmse", "detectors.lmmse"),
    ("detectors", "lasso", "detectors.lasso"),
    ("detectors", "map_soav", "detectors.map_soav"),
    ("detectors", "exhaustive_map", "detectors.exhaustive_map"),
    ("detectors", "estimate_lipschitz", "optim.estimate_lipschitz"),
    ("detectors", "solve_weights", "soav.solve_weights"),
    ("detectors", "soft_threshold", "optim.soft_threshold"),
    ("detectors", "prox_vector", "soav.prox_vector"),
    ("detectors", "fista", "optim.fista"),
)

# Span given to the prox callback that fista receives from map_soav: a
# closure in soavmud.detectors that builds a ProxSpec and calls prox_vector.
PROX_CLOSURE = "detectors.prox_closure"


@dataclasses.dataclass
class TrialCapture:
    """What one trial produced, as seen at the layer boundaries."""

    axis_value: float
    trial_index: int
    rho: float = None        # the workload's own rho and noise variance,
    sigma2: float = None     # filled in by the benchmark for the checks
    instance: object = None  # model.SystemInstance, until on_trial drops it
    b: object = None         # the true symbols, kept after the instance is dropped
    results: dict = dataclasses.field(default_factory=dict)  # kind -> DetectionResult
    record: object = None                                    # harness.TrialRecord
    residuals: dict = dataclasses.field(default_factory=dict)  # kind -> fixed-point residual
    gaps: dict = dataclasses.field(default_factory=dict)       # kind -> objective_gap


class Tracer:
    """Records spans and trial captures while its wrappers are installed."""

    def __init__(self, capture=False, on_trial=None):
        self.spans = []      # [name, parent index or -1, start ns, end ns]
        self.trials = []     # TrialCapture, in the order the sweep ran them
        self.capture = capture
        self.on_trial = on_trial
        self._stack = []
        self._saved = []

    def span(self, name, fn):
        """``fn`` wrapped to record one span named ``name`` per call."""
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0, 0])
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec = spans[index]
                rec[2] = start
                rec[3] = end

        wrapped.traced_span = name
        return wrapped

    def install(self, modules):
        """Wrap every boundary in ``modules`` (short name -> module object)."""
        for short, attr, name in BOUNDARIES:
            module = modules[short]
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, attr, name, original):
        timed = self.span(name, original)
        if attr == "fista":
            def fista(data, prox, *args, **kwargs):
                if not hasattr(prox, "traced_span"):
                    prox = self.span(PROX_CLOSURE, prox)
                return timed(data, prox, *args, **kwargs)
            return fista
        if not self.capture:
            return timed
        if attr == "run_trial":
            def run_trial(config, axis_value, trial_index):
                self.trials.append(TrialCapture(float(axis_value), int(trial_index)))
                record = timed(config, axis_value, trial_index)
                self.trials[-1].record = record
                if self.on_trial is not None:
                    self.on_trial(self.trials[-1])
                return record
            return run_trial
        if attr == "synthesize":
            def synthesize(prior, *args, **kwargs):
                instance = timed(prior, *args, **kwargs)
                self.trials[-1].instance = instance
                return instance
            return synthesize
        if attr == "run_detector":
            def run_detector(instance, prior, config):
                result = timed(instance, prior, config)
                self.trials[-1].results[config.kind] = result
                return result
            return run_detector
        return timed

    def write(self, path):
        """Write the spans as JSON: names once, then [name id, parent, start, end]."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": names,
                "fields": ["name", "parent", "start_ns", "end_ns"],
                "spans": [[ids[s[0]], s[1], s[2], s[3]] for s in self.spans],
            }, fh, separators=(",", ":"))


def self_times(spans):
    """Duration minus the time covered by direct children, per span, in ns."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own
