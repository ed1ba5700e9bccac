"""Edge-case and cross-cutting tests filling coverage gaps."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import RequestScheduler
from repro.core.requests import SimRequest
from repro.core.sim import SimConfig, SimKernel
from repro.media.channel import ReadChannel
from repro.media.codec import SectorCodec
from repro.media.geometry import PlatterGeometry, SectorAddress, extent_addresses
from repro.workload.generator import WorkloadGenerator
from repro.workload.traces import ReadTrace


class TestExtentAddresses:
    def test_matches_write_read_agreement(self):
        geometry = PlatterGeometry(tracks=4, layers=3, sector_payload_bytes=10)
        addresses = extent_addresses(geometry, SectorAddress(0, 0), 7)
        assert len(addresses) == 7
        assert len(set(addresses)) == 7
        # Consecutive addresses are physically adjacent (serpentine).
        for a, b in zip(addresses, addresses[1:]):
            same_track = a.track == b.track and abs(a.layer - b.layer) == 1
            next_track = b.track == a.track + 1 and b.layer == a.layer
            assert same_track or next_track

    def test_mid_track_start(self):
        geometry = PlatterGeometry(tracks=4, layers=4, sector_payload_bytes=10)
        addresses = extent_addresses(geometry, SectorAddress(1, 2), 3)
        assert addresses[0] == SectorAddress(1, 2)

    def test_overflow_raises(self):
        geometry = PlatterGeometry(tracks=2, layers=2, sector_payload_bytes=10)
        with pytest.raises(ValueError):
            extent_addresses(geometry, SectorAddress(0, 0), 5)

    def test_invalid_start_raises(self):
        geometry = PlatterGeometry(tracks=2, layers=2, sector_payload_bytes=10)
        with pytest.raises(IndexError):
            extent_addresses(geometry, SectorAddress(5, 0), 1)


class TestSchedulerEdges:
    def test_remove_pending_in_service_rejected(self):
        scheduler = RequestScheduler()
        scheduler.enqueue(SimRequest(1, 0.0, "A", 10))
        scheduler.begin_service("A")
        with pytest.raises(ValueError):
            scheduler.remove_pending("A")

    def test_remove_pending_returns_queue(self):
        scheduler = RequestScheduler()
        scheduler.enqueue(SimRequest(1, 0.0, "A", 10))
        scheduler.enqueue(SimRequest(2, 1.0, "A", 20))
        removed = scheduler.remove_pending("A")
        assert [r.request_id for r in removed] == [1, 2]
        assert not scheduler.has_work("A")
        assert scheduler.earliest_for("A") is None

    def test_remove_pending_unknown_platter(self):
        scheduler = RequestScheduler()
        assert scheduler.remove_pending("ghost") == []


class TestCodecProperties:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.binary(min_size=0, max_size=48))
    def test_hard_decode_roundtrip_any_payload(self, payload):
        codec = SectorCodec(payload_bytes=48, ldpc_rate=0.8, seed=9)
        symbols = codec.encode(payload)
        result = codec.decode_hard(symbols)
        assert result.success
        assert result.payload[: len(payload)] == payload

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.binary(min_size=1, max_size=48), st.integers(0, 2**31))
    def test_soft_decode_roundtrip_through_channel(self, payload, seed):
        codec = SectorCodec(payload_bytes=48, ldpc_rate=0.75, seed=9)
        channel = ReadChannel(seed=seed)
        symbols = codec.encode(payload)
        observations = channel.observe(symbols)
        result = codec.decode(channel.symbol_posteriors(observations))
        # The default channel sits well inside the LDPC operating point;
        # per-sector failure is ~1e-3, so flakes are vanishingly rare in
        # 8 examples — and a failure must never return wrong bytes.
        if result.success:
            assert result.payload[: len(payload)] == payload


class TestSimulationEdges:
    def test_zero_request_trace(self):
        kernel = SimKernel(SimConfig(num_platters=50, seed=70))
        kernel.lifecycle.assign_trace(ReadTrace([]), 0.0, 1.0)
        report = kernel.run()
        assert report.requests_submitted == 0
        assert report.completions.count == 0

    def test_single_shuttle_library(self):
        generator = WorkloadGenerator(seed=71)
        trace, start, end = generator.interval_trace(
            0.2, interval_hours=0.2, warmup_hours=0.02, cooldown_hours=0.02,
            fixed_size=4_000_000,
        )
        kernel = SimKernel(
            SimConfig(num_shuttles=1, num_drives=4, num_platters=50, seed=71)
        )
        kernel.lifecycle.assign_trace(trace, start, end)
        report = kernel.run()
        assert report.requests_completed == report.requests_submitted

    def test_more_platters_than_slots_rejected(self):
        with pytest.raises(ValueError):
            SimKernel(SimConfig(num_platters=100_000, seed=72))

    def test_platter_set_of_groups_consecutively(self):
        kernel = SimKernel(SimConfig(num_platters=100, seed=73))
        group = kernel.lifecycle.platter_set_of("P00000")
        assert len(group) == 19  # 16 + 3
        assert "P00018" in group
        assert "P00019" not in group

    def test_covered_partitions_initially_self(self):
        kernel = SimKernel(SimConfig(num_shuttles=10, num_platters=50, seed=74))
        for shuttle_sim in kernel.robotics.shuttles:
            own = shuttle_sim.shuttle.partition
            assert kernel.dispatch.covered_partitions(own) == [own]

    def test_sorted_batches_preserve_completion_set(self):
        """Elevator ordering changes order, never the set of work done."""
        generator = WorkloadGenerator(seed=75)
        trace, start, end = generator.interval_trace(
            0.8, interval_hours=0.2, warmup_hours=0.02, cooldown_hours=0.02,
            fixed_size=4_000_000,
        )
        results = {}
        for sort in (False, True):
            kernel = SimKernel(
                SimConfig(num_platters=30, sort_batch_by_track=sort, seed=75)
            )
            kernel.lifecycle.assign_trace(trace, start, end)
            report = kernel.run()
            results[sort] = report
        assert (
            results[True].requests_completed == results[False].requests_completed
        )
        assert results[True].bytes_read == results[False].bytes_read
