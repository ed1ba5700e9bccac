"""Figure 9: performance of a full library.

Synthetic steady-rate Poisson trace over a fully populated library, ~100 MB
files (the measured average file size), uniform placement. Paper: the mean
read rate of the simulated early deployment is 0.3 reads/s; projecting
deletions and cool-down 9 age-folds out gives ~1.6 reads/s, which 60 MB/s
drives serve with a tail around 8 hours; higher-throughput drives (or more
read racks) buy headroom for harder futures.

The workload builder is shared with the ``fig9_full_library`` bench
scenario (``repro.bench``), so this figure and the committed BENCH
baseline replay the same library.
"""

from repro.bench.scenarios import (
    FIG9_RATE_READS_PER_SEC,
    build_full_library_sim,
)
from repro.core.metrics import SLO_SECONDS

from conftest import FULL_SCALE, hours, print_series


THROUGHPUTS = (30, 60, 120)
WINDOW_HOURS = 6.0 if FULL_SCALE else 1.5


def _run_full_library(mbps, seed=12):
    kernel = build_full_library_sim(mbps, WINDOW_HOURS, seed=seed)
    return kernel.run(), kernel


def test_fig9_full_library(once):
    def experiment():
        return {mbps: _run_full_library(mbps) for mbps in THROUGHPUTS}

    results = once(experiment)
    rows = []
    for mbps, (report, _) in results.items():
        rows.append(
            f"{mbps:3d} MB/s drives: tail {hours(report.completions.tail):6.2f} h   "
            f"median {report.completions.median / 60:5.1f} min   "
            f"({report.completions.count} requests)"
        )
    rows.append(
        f"future-projected rate {FIG9_RATE_READS_PER_SEC} reads/s over a full "
        f"library of ~100 MB files (paper: ~8 h tail at 60 MB/s)"
    )
    print_series("Figure 9: full library", "per-drive throughput", rows)
    reports = {mbps: report for mbps, (report, _) in results.items()}
    # 60 MB/s drives keep the future full-library workload within SLO.
    assert reports[60].completions.tail < SLO_SECONDS
    # Higher throughput helps monotonically for this 100 MB-file workload.
    assert reports[30].completions.tail >= reports[60].completions.tail
    assert reports[60].completions.tail >= reports[120].completions.tail * 0.8
    # Every replay ran on the event loop.
    for _, kernel in results.values():
        assert kernel.ctx.sim.events_processed > 0