"""Sim-time time-series monitoring of a running kernel.

Where the tracer records *events*, the monitor records *state over
simulated time*: every ``interval`` simulated seconds it snapshots the
kernel's live gauges — queue depths, busy shuttles/drives, free
partitions, in-flight and deadline-pressured requests, fault state —
into a bounded columnar reservoir. The result is
the queryable time dimension TALICS³ treats as a first-class simulation
output: the ``watch`` dashboard renders it live, run artifacts export it
as a schema-versioned ``timeseries`` block, and bench results carry it
beside their simulated metrics.

Determinism contract: sampling rides the engine's
:meth:`~repro.core.events.Simulation.set_sampler` hook, which fires
between events without scheduling anything, and
:meth:`~repro.core.sim.kernel.SimKernel.sample_state` is read-only
against kernel state — so a monitor-on run keeps byte-identical
simulated metrics to a monitor-off run (there is a regression test for
exactly this). When the reservoir fills, it *halves*: every other sample
is dropped and the sampling interval doubles, a deterministic
downsampler that keeps long horizons bounded at ``max_samples`` points
while preserving uniform spacing.

Units: sample timestamps are simulated **seconds**; all series values
are dimensionless gauges (counts, or 0/1 flags).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

#: Version stamp of the exported ``timeseries`` block.
TIMESERIES_SCHEMA_VERSION = "repro.timeseries/1"

#: The gauge names every kernel sample carries, in export order (the
#: keys of :meth:`repro.core.sim.kernel.SimKernel.sample_state`).
MONITOR_SERIES = (
    "pending_requests",
    "pending_platters",
    "busy_shuttles",
    "busy_drives",
    "free_partitions",
    "in_flight_requests",
    "deadline_pressured",
    "active_faults",
    "metadata_down",
)


class TimeSeriesMonitor:
    """Bounded, deterministically-downsampled sim-time gauge recorder.

    ``attach(kernel)`` wires the monitor to a kernel's sampling hook;
    from then on every ``interval`` simulated seconds (stretching as the
    reservoir halves) it appends one row of
    :meth:`~repro.core.sim.kernel.SimKernel.sample_state` gauges.
    A custom ``probe`` callable may replace the kernel snapshot for
    non-kernel sources (tests, the fleet coordinator's merged view).
    """

    def __init__(self, interval: float, max_samples: int = 512) -> None:
        """``interval``: simulated seconds between samples; ``max_samples``:
        reservoir bound (must be >= 2; the reservoir halves when hit)."""
        if interval <= 0:
            raise ValueError(f"monitor interval must be > 0 (got {interval})")
        if max_samples < 2:
            raise ValueError("monitor reservoir needs at least 2 samples")
        self.initial_interval = interval
        self.interval = interval
        self.max_samples = max_samples
        self.downsample_halvings = 0
        self.times: List[float] = []
        self.series: Dict[str, List[float]] = {}
        self._probe: Optional[Callable[[], Dict[str, float]]] = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, kernel: Any) -> None:
        """Install on a kernel's sampling hook (`attach_sampler`)."""
        self._probe = kernel.sample_state
        kernel.attach_sampler(self.interval, self.sample)

    def sample(self, ts: float) -> float:
        """Record one sample at simulated time ``ts``.

        This is the sampler callback: it returns the (possibly
        stretched) interval until the next sample.
        """
        if self._probe is None:
            raise RuntimeError("monitor sampled before attach()/set_probe()")
        values = self._probe()
        self.times.append(ts)
        for name, value in values.items():
            self.series.setdefault(name, []).append(value)
        if len(self.times) >= self.max_samples:
            self._halve()
        return self.interval

    def set_probe(self, probe: Callable[[], Dict[str, float]]) -> None:
        """Use a custom state snapshot callable instead of a kernel's."""
        self._probe = probe

    def _halve(self) -> None:
        """Drop every other sample and double the interval.

        Keeps even indices (the oldest sample survives every halving) so
        repeated halvings of the same run always converge to the same
        retained set — the downsampling is a pure function of the sample
        count, independent of when the reservoir limit was hit.
        """
        self.times = self.times[::2]
        for name in self.series:
            self.series[name] = self.series[name][::2]
        self.interval *= 2.0
        self.downsample_halvings += 1

    # ------------------------------------------------------------------ #
    # Read-out
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.times)

    def latest(self) -> Dict[str, float]:
        """The most recent sample row (empty dict before any sample)."""
        if not self.times:
            return {}
        out = {"ts": self.times[-1]}
        for name, column in self.series.items():
            out[name] = column[-1]
        return out

    def as_dict(self) -> Dict[str, Any]:
        """The schema-versioned columnar ``timeseries`` block."""
        return {
            "schema": TIMESERIES_SCHEMA_VERSION,
            "interval_seconds": self.interval,
            "initial_interval_seconds": self.initial_interval,
            "downsample_halvings": self.downsample_halvings,
            "samples": len(self.times),
            "times": list(self.times),
            "series": {
                name: list(column)
                for name, column in sorted(self.series.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TimeSeriesMonitor":
        """Rehydrate an exported ``timeseries`` block (for ``--html``)."""
        schema = payload.get("schema")
        if schema != TIMESERIES_SCHEMA_VERSION:
            raise ValueError(f"unsupported timeseries schema {schema!r}")
        monitor = cls(
            interval=float(payload.get("initial_interval_seconds", 1.0)),
            max_samples=max(2, int(payload.get("samples", 0)) + 1),
        )
        monitor.interval = float(payload.get("interval_seconds", monitor.interval))
        monitor.downsample_halvings = int(payload.get("downsample_halvings", 0))
        monitor.times = [float(t) for t in payload.get("times", [])]
        monitor.series = {
            str(name): [float(v) for v in column]
            for name, column in payload.get("series", {}).items()
        }
        return monitor

    def to_gauges(self, registry: Any, prefix: str = "monitor_") -> None:
        """Publish the latest sample into a metrics registry as gauges.

        Gives the monitor a Prometheus surface: each series becomes
        ``{prefix}{name}`` with its most recent value.
        """
        latest = self.latest()
        for name in MONITOR_SERIES:
            if name in latest:
                registry.gauge(
                    f"{prefix}{name}",
                    f"Latest sampled value of {name}",
                ).set(latest[name])
