"""Run one CLI sweep in a fresh interpreter and report its timings as JSON.

Usage: python3 perfbench/child.py SRC_DIR -- SOAVMUD_ARGV...

The clock starts before numpy or soavmud is imported. ``setup_s`` runs until
``soavmud.cli.main`` hands the finished ExperimentConfig to ``run_sweep``;
``sweep_s`` runs from there until ``main`` returns, so it covers the trials
and the CSV emission. ``calibration_s`` is the mean time of the calibration
kernel run just before and just after the sweep, outside both intervals.
``peak_rss_mb`` is the largest resident set of this process and of every
process it reaped (the sweep's Pool workers).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    sep = sys.argv.index("--")
    src = os.path.abspath(sys.argv[1])
    argv = sys.argv[sep + 1 :]
    sys.path.insert(0, src)
    import soavmud.cli as cli
    from calibration import calibrate

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"soavmud imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    marks = {}
    real_run_sweep = cli.run_sweep

    def timed_run_sweep(config):
        marks["setup_end"] = time.perf_counter()
        marks["cal_before"] = calibrate()
        marks["sweep_start"] = time.perf_counter()
        return real_run_sweep(config)

    cli.run_sweep = timed_run_sweep
    code = cli.main(argv)
    end = time.perf_counter()
    cal_after = calibrate()
    if code != 0 or "sweep_start" not in marks:
        print(f"soavmud exited with {code} before or during the sweep", file=sys.stderr)
        return 2
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    print(json.dumps({
        "setup_s": marks["setup_end"] - _T0,
        "sweep_s": end - marks["sweep_start"],
        "calibration_s": 0.5 * (marks["cal_before"] + cal_after),
        "peak_rss_mb": kib / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
