"""Property-based tests (hypothesis) on core data structures and invariants."""

import bisect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.events import Simulation
from repro.ecc.crc import append_checksum, crc32c, verify_checksum
from repro.ecc.durability import binomial_tail
from repro.ecc.gf256 import gf_div, gf_inv, gf_mul, gf_pow
from repro.ecc.network_coding import NetworkGroup
from repro.media.geometry import PlatterGeometry, SectorAddress
from repro.media.voxel import (
    VoxelConstellation,
    bits_to_symbols,
    bytes_to_symbols,
    symbols_to_bits,
    symbols_to_bytes,
)
from repro.workload.traces import IngressSeries, ReadRequest, ReadTrace


field_elements = st.integers(min_value=0, max_value=255)
nonzero_elements = st.integers(min_value=1, max_value=255)


class TestFieldProperties:
    @given(field_elements, field_elements)
    def test_multiplication_commutes(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(field_elements, field_elements, field_elements)
    def test_multiplication_associates(self, a, b, c):
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    @given(field_elements, field_elements, field_elements)
    def test_distributes_over_xor(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @given(nonzero_elements)
    def test_inverse_cancels(self, a):
        assert gf_mul(a, gf_inv(a)) == 1

    @given(field_elements, nonzero_elements)
    def test_div_inverts_mul(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    @given(nonzero_elements, st.integers(min_value=0, max_value=50))
    def test_pow_is_repeated_mul(self, a, n):
        acc = 1
        for _ in range(n):
            acc = gf_mul(acc, a)
        assert gf_pow(a, n) == acc


class TestCrcProperties:
    @given(st.binary(max_size=200))
    def test_frame_roundtrip(self, payload):
        ok, recovered = verify_checksum(append_checksum(payload))
        assert ok and recovered == payload

    @given(st.binary(min_size=1, max_size=100), st.data())
    def test_bit_flip_detected(self, payload, data):
        frame = bytearray(append_checksum(payload))
        index = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        frame[index] ^= 1 << bit
        ok, _ = verify_checksum(bytes(frame))
        assert not ok

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_incremental_matches_whole(self, a, b):
        # CRC with `initial` continues a previous computation.
        whole = crc32c(a + b)
        incremental = crc32c(b, initial=crc32c(a))
        assert whole == incremental


class TestNetworkCodingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=32),
        st.randoms(use_true_random=False),
    )
    def test_any_i_subset_recovers(self, information, redundancy, width, random):
        group = NetworkGroup(information, redundancy)
        rng = np.random.default_rng(random.randint(0, 2**31))
        sectors = [
            rng.integers(0, 256, width, dtype=np.uint8).tobytes()
            for _ in range(information)
        ]
        parity = group.encode(sectors)
        everything = {i: s for i, s in enumerate(sectors)}
        everything.update({information + j: p for j, p in enumerate(parity)})
        keep = sorted(
            random.sample(range(information + redundancy), information)
        )
        available = {i: everything[i] for i in keep}
        recovered = group.recover(available, wanted=range(information))
        for i in range(information):
            assert recovered[i] == sectors[i]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=4))
    def test_encode_deterministic(self, information, redundancy):
        rng = np.random.default_rng(0)
        sectors = [
            rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
            for _ in range(information)
        ]
        a = NetworkGroup(information, redundancy).encode(sectors)
        b = NetworkGroup(information, redundancy).encode(sectors)
        assert a == b


class TestVoxelProperties:
    @given(st.binary(min_size=1, max_size=128), st.integers(min_value=1, max_value=4))
    def test_bytes_symbols_roundtrip(self, data, bits_per_voxel):
        symbols = bytes_to_symbols(data, bits_per_voxel)
        assert symbols_to_bytes(symbols, len(data), bits_per_voxel) == data

    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=4),
    )
    def test_bits_symbols_roundtrip(self, bits, bits_per_voxel):
        array = np.array(bits, dtype=np.uint8)
        symbols = bits_to_symbols(array, bits_per_voxel)
        recovered = symbols_to_bits(symbols, bits_per_voxel)[: len(bits)]
        assert (recovered == array).all()

    @given(st.integers(min_value=1, max_value=4))
    def test_symbols_within_constellation(self, bits_per_voxel):
        data = bytes(range(64))
        symbols = bytes_to_symbols(data, bits_per_voxel)
        assert symbols.max() < (1 << bits_per_voxel)

    @given(st.integers(min_value=1, max_value=4), st.data())
    def test_hard_decision_inverts_modulation(self, bits_per_voxel, data):
        constellation = VoxelConstellation(bits_per_voxel=bits_per_voxel)
        symbols = np.array(
            data.draw(
                st.lists(
                    st.integers(0, constellation.num_symbols - 1),
                    min_size=1,
                    max_size=50,
                )
            )
        )
        observations = constellation.ideal_observations(symbols)
        assert (constellation.nearest_symbol(observations) == symbols).all()


class TestGeometryProperties:
    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    def test_serpentine_is_a_permutation(self, tracks, layers):
        geometry = PlatterGeometry(
            tracks=tracks, layers=layers, voxels_per_sector=10, sector_payload_bytes=1
        )
        order = list(geometry.serpentine_order())
        assert len(order) == tracks * layers
        assert len(set(order)) == tracks * layers

    @settings(max_examples=30)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.data(),
    )
    def test_index_bijection(self, tracks, layers, data):
        geometry = PlatterGeometry(
            tracks=tracks, layers=layers, voxels_per_sector=10, sector_payload_bytes=1
        )
        index = data.draw(st.integers(0, geometry.total_sectors - 1))
        assert geometry.sector_index(geometry.address_of(index)) == index


class TestSimulationEngineProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulation()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_run_until_never_overshoots(self, delays, until):
        sim = Simulation()
        for delay in delays:
            sim.schedule(delay, lambda: None)
        sim.run(until=until)
        fired_after = [d for d in delays if d <= until]
        assert sim.events_processed == len(fired_after)


#: One step of a randomized scheduler program. ``schedule`` delays are
#: drawn from a small palette with repeats so equal timestamps (the
#: tie-order case) arise constantly; the 1e5 outlier keeps far-future
#: entries pending across many run horizons. ``reserve`` takes a sequence
#: number now for an event pushed later — by a ``push`` op, by a
#: ``push-next`` callback, or at the latest just before a run could reach
#: it; ``stream`` reserves a batch and feeds it to the engine one head at a
#: time, each fired head pushing the next (the lifecycle's trace intake).
_delays = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 40.0, 1e5])
_actions = st.sampled_from([None, "child", "cancel-next", "push-next"])
_scheduler_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays, _actions),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=100)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 1.0, 5.0, 250.0])),
    st.tuples(st.just("reserve"), _delays, _actions),
    st.tuples(st.just("push")),
    st.tuples(st.just("stream"), st.lists(_delays, min_size=1, max_size=6)),
)


class _OracleEvent:
    """A pending callback of :class:`_ListEngine`."""

    def __init__(self, time, callback, label):
        self.time = time
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ListEngine:
    """Sorted-list reference model of :class:`Simulation`.

    Pending ``(time, seq, event)`` entries sit in one list kept sorted by
    ``bisect.insort``; the head is index 0. The model states the engine's
    contract directly: fire the earliest live entry while it is within the
    horizon, discard cancelled entries whenever they reach the head (one
    ``cancelled_skip`` each), fire samples due at or before the next event
    and close out the drained tail, and pin the clock to the horizon.
    """

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._sampler = None
        self.pushes = 0
        self.pops = 0
        self.cancelled_skips = 0

    @property
    def events_processed(self):
        return self.pops

    @property
    def scheduler_stats(self):
        return {
            "pushes": self.pushes,
            "pops": self.pops,
            "cancelled_skips": self.cancelled_skips,
        }

    def schedule(self, delay, callback, label=""):
        event = _OracleEvent(self.now + delay, callback, label)
        bisect.insort(self._queue, (event.time, self.pushes, event))
        self.pushes += 1
        return event

    def reserve(self, time, callback, label=""):
        """A reserved event is inserted at reservation time; the later
        push is a no-op (see ``TestEngineOracle._execute``)."""
        self.schedule(time - self.now, callback, label)

    def set_sampler(self, interval, callback):
        self._sampler = [self.now + interval, callback]

    def _fire_samples(self, limit):
        while self._sampler is not None and self._sampler[0] <= limit:
            due, callback = self._sampler
            self.now = max(self.now, due)
            interval = callback(due)
            self._sampler = None if interval is None else [due + interval, callback]

    def _live_head(self):
        while self._queue and self._queue[0][2].cancelled:
            del self._queue[0]
            self.cancelled_skips += 1
        return self._queue[0] if self._queue else None

    def peek(self):
        head = self._live_head()
        return None if head is None else head[0]

    def run(self, until=None):
        while True:
            head = self._live_head()
            if head is None or (until is not None and head[0] > until):
                break
            del self._queue[0]
            time, _seq, event = head
            self._fire_samples(time)
            self.now = time
            self.pops += 1
            event.callback()
        if until is not None and self.now < until:
            self._fire_samples(until)
            self.now = until


class TestEngineOracle:
    """The heap engine must replay any schedule/cancel/run interleaving
    exactly like the sorted-list oracle: same fire order, same clock, same
    sampler ticks, same event count and counters. Reserved sequence
    numbers are part of the interleaving: the oracle inserts a reserved
    event when its number is taken, the heap engine only when it is
    pushed, and every push comes before the clock can reach the event."""

    @staticmethod
    def _execute(program, sim):
        """Run ``program`` on a fresh engine; return every observable."""
        log = []
        samples = []
        handles = []
        #: reservations not pushed yet, oldest first: (time, push thunk).
        outstanding = []
        sim.set_sampler(3.0, lambda ts: (samples.append(ts), 3.0)[1])

        def reserve(delay, callback, label):
            """Take a seq now; return the thunk that pushes the event."""
            time = sim.now + delay
            if isinstance(sim, _ListEngine):
                sim.reserve(time, callback, label)
                return lambda: None
            seq = sim.reserve_seq()
            return lambda: sim.schedule_reserved(time, seq, callback, label)

        def push_due(horizon):
            """Push every reservation a run up to ``horizon`` could reach."""
            for entry in [e for e in outstanding if e[0] <= horizon]:
                outstanding.remove(entry)
                entry[1]()

        def start_stream(uid, delays):
            """Reserve in op order, feed in ``(time, seq)`` order: each
            head's callback pushes the next head before it runs."""
            order = sorted(range(len(delays)), key=lambda k: delays[k])
            pushes = {}

            def feed_after(k):
                position = order.index(k) + 1
                if position < len(order):
                    pushes[order[position]]()

            for k, delay in enumerate(delays):
                callback = make_callback(f"{uid}.s{k}", None, then=lambda k=k: feed_after(k))
                pushes[k] = reserve(delay, callback, f"{uid}.s{k}")
            pushes[order[0]]()

        def make_callback(uid, action, then=None):
            """A callback that logs, then optionally schedules, cancels or
            pushes; ``then`` pushes the next head of a stream."""

            def fire():
                log.append((sim.now, uid))
                if then is not None:
                    then()
                if action == "push-next" and outstanding:
                    outstanding.pop(0)[1]()
                elif action == "child":
                    handles.append(
                        sim.schedule(
                            1.0, make_callback(uid + ".c", None), label="child"
                        )
                    )
                elif action == "cancel-next":
                    # Mid-run cancellation of the earliest still-pending
                    # handle: exercises lazy-deletion skips.
                    for handle in handles:
                        if not handle.cancelled and handle.time >= sim.now:
                            handle.cancel()
                            break

            return fire

        for i, op in enumerate(program):
            if op[0] == "schedule":
                handles.append(
                    sim.schedule(
                        op[1], make_callback(str(i), op[2]), label=f"op{i}"
                    )
                )
            elif op[0] == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
            elif op[0] == "reserve":
                push = reserve(op[1], make_callback(str(i), op[2]), f"op{i}")
                outstanding.append((sim.now + op[1], push))
            elif op[0] == "push":
                if outstanding:
                    outstanding.pop(0)[1]()
            elif op[0] == "stream":
                start_stream(str(i), op[1])
            else:  # run
                push_due(sim.now + op[1])
                sim.run(until=sim.now + op[1])
                log.append(("run", sim.now, sim.events_processed, sim.scheduler_stats))
        push_due(float("inf"))
        sim.run()
        return (
            log,
            samples,
            sim.now,
            sim.events_processed,
            sim.scheduler_stats,
        )

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_scheduler_ops, min_size=1, max_size=40))
    def test_engine_matches_oracle(self, program):
        engine = self._execute(program, Simulation())
        oracle = self._execute(program, _ListEngine())
        assert engine == oracle

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_scheduler_ops, min_size=1, max_size=25))
    def test_peek_matches_next_fire(self, program):
        """``peek`` is exactly the next fired time."""
        sim = Simulation()
        for i, op in enumerate(program):
            if op[0] == "schedule":
                sim.schedule(op[1], lambda: None)
        fired = []
        while True:
            head = sim.peek()
            if head is None:
                break
            before = sim.events_processed
            assert sim.step()
            assert sim.now == head
            assert sim.events_processed == before + 1
            fired.append(head)
        assert fired == sorted(fired)


class TestWorkloadProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.integers(min_value=1, max_value=10**12),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_trace_window_partition(self, raw):
        trace = ReadTrace(
            [ReadRequest(t, f"f{i}", s) for i, (t, s) in enumerate(raw)]
        )
        mid = 5e5
        left = trace.window(0, mid)
        right = trace.window(mid, 2e6)
        assert len(left) + len(right) == len(trace)
        assert left.total_bytes + right.total_bytes == trace.total_bytes

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=2, max_size=90),
        st.data(),
    )
    def test_peak_over_mean_at_least_one(self, volumes, data):
        series = IngressSeries(np.array(volumes), np.ones(len(volumes)))
        window = data.draw(st.integers(1, len(volumes)))
        assert series.peak_over_mean(window) >= 1.0 - 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=40, max_size=90))
    def test_smoothing_monotone_at_extremes(self, volumes):
        """The full-series window always has ratio 1; the 1-day window is
        maximal among all windows' ... at least as large as the full one."""
        series = IngressSeries(np.array(volumes), np.ones(len(volumes)))
        assert series.peak_over_mean(1) >= series.peak_over_mean(series.num_days) - 1e-9
        assert series.peak_over_mean(series.num_days) == pytest.approx(1.0)


class TestDurabilityProperties:
    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=301),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_tail_is_a_probability(self, n, k, p):
        tail = binomial_tail(n, k, p)
        assert 0.0 <= tail <= 1.0 + 1e-12

    @given(
        st.integers(min_value=2, max_value=100),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.001, max_value=0.5),
    )
    def test_tail_monotone_in_threshold(self, n, k, p):
        assert binomial_tail(n, k, p) >= binomial_tail(n, k + 1, p) - 1e-12


class TestDeploymentPlacerProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(
            st.integers(min_value=1, max_value=19), min_size=1, max_size=6
        ),
        st.randoms(use_true_random=False),
    )
    def test_blast_zone_invariant_always_holds(self, num_libraries, set_sizes, random):
        """No two platters of any set ever share a blast zone, for any
        library count and any mix of set sizes that fits."""
        from repro.layout.deployment import DeploymentPlacer, PlacementError
        from repro.library.layout import LibraryConfig, LibraryLayout

        placer = DeploymentPlacer(
            [LibraryLayout(LibraryConfig()) for _ in range(num_libraries)]
        )
        sets = {}
        for index, size in enumerate(set_sizes):
            set_id = f"set{index}"
            platters = [f"S{index}P{i}" for i in range(size)]
            try:
                placer.place_set(set_id, platters)
            except PlacementError:
                continue  # ran out of disjoint zones: acceptable refusal
            sets[set_id] = platters
        assert placer.verify_invariant(sets)


class TestPackerProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=900),
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_every_byte_packed_exactly_once(self, files):
        """Conservation: packing never loses or duplicates bytes."""
        from repro.layout.packing import FilePacker, PackingConfig, StagedFile

        packer = FilePacker(
            PackingConfig(platter_capacity_bytes=1000, shard_threshold_bytes=400)
        )
        staged = [
            StagedFile(f"f{i}", size, account, float(i))
            for i, (size, account) in enumerate(files)
        ]
        plans = packer.pack(staged)
        packed_bytes = sum(p.used_bytes for p in plans)
        assert packed_bytes == sum(f.size_bytes for f in staged)
        for plan in plans:
            assert plan.used_bytes <= plan.capacity_bytes
