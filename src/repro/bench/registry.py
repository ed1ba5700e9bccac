"""Benchmark scenario registry: named, seeded, suite-tagged workloads.

A :class:`Scenario` is the unit of the behaviour gate: a name, a suite
tag (``fast`` scenarios run on every PR, ``full`` at paper scale), an
explicit seed, and a zero-argument ``build`` callable producing a fresh
:class:`ScenarioRun` per execution. The runner builds every scenario
twice — one bare execution, one monitored — so ``build`` must not share
mutable state between the runs it returns.

The registry is just a name -> scenario map with duplicate protection;
:func:`repro.bench.scenarios.default_registry` populates it with the
scenarios wrapping the ``benchmarks/`` figures and tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


#: The suites a scenario may belong to.
SUITES = ("fast", "full")


class BenchError(RuntimeError):
    """Raised on invalid bench usage (unknown scenario, empty baseline...)."""


@dataclass
class ScenarioRun:
    """One prepared execution of a scenario.

    ``execute`` performs the work and returns the scenario's headline
    *simulated-time* metrics (a flat name -> number mapping that must be
    bit-identical across executions of the same seed).
    ``kernel`` optionally exposes the run's
    :class:`~repro.core.sim.SimKernel` so the runner's monitored
    execution can attach a sim-time
    :class:`~repro.observability.monitor.TimeSeriesMonitor` (``None``
    for scenarios without a library kernel).
    """

    execute: Callable[[], Dict[str, float]]
    kernel: Optional[Any] = None


@dataclass(frozen=True)
class Scenario:
    """A named, reproducible benchmark workload."""

    name: str
    description: str
    suite: str
    seed: int
    build: Callable[[], ScenarioRun]

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise BenchError(
                f"scenario {self.name!r}: suite must be one of {SUITES}, got {self.suite!r}"
            )


class ScenarioRegistry:
    """Name -> :class:`Scenario` map with duplicate and lookup guards."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        """Add a built :class:`Scenario`, rejecting duplicate names."""
        if scenario.name in self._scenarios:
            raise BenchError(f"scenario {scenario.name!r} is already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def add(
        self,
        name: str,
        description: str,
        suite: str,
        seed: int,
        build: Callable[[], ScenarioRun],
    ) -> Scenario:
        """Convenience constructor-and-register in one call."""
        return self.register(Scenario(name, description, suite, seed, build))

    def get(self, name: str) -> Scenario:
        """The scenario registered under ``name`` (BenchError if unknown)."""
        try:
            return self._scenarios[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise BenchError(
                f"unknown scenario {name!r}; registered: {known}"
            ) from None

    def names(self) -> List[str]:
        """All registered scenario names, sorted."""
        return sorted(self._scenarios)

    def by_suite(self, suite: str) -> List[Scenario]:
        """Scenarios of one suite, name-sorted for stable run order."""
        if suite not in SUITES:
            raise BenchError(f"unknown suite {suite!r}; suites: {SUITES}")
        return [
            self._scenarios[name]
            for name in self.names()
            if self._scenarios[name].suite == suite
        ]

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        for name in self.names():
            yield self._scenarios[name]
