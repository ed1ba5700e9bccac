"""Cross-module integration tests: the full stack working together."""

import numpy as np
import pytest

from repro.core.sim import SimConfig, SimKernel
from repro.decode.training import train_decoder
from repro.ecc.network_coding import TrackCode, TrackCodeConfig
from repro.layout.deployment import DeploymentPlacer
from repro.layout.metadata import rebuild_from_platters
from repro.layout.packing import FilePacker, PackingConfig, StagedFile
from repro.layout.placement import PlatterLayout
from repro.library.layout import LibraryConfig, LibraryLayout
from repro.media.channel import ReadChannel
from repro.media.codec import SectorCodec
from repro.media.geometry import PlatterGeometry, SectorAddress
from repro.media.platter import Platter
from repro.media.read_drive import ReadDriveModel
from repro.media.write_drive import WriteDrive
from repro.service.frontend import ArchiveService
from repro.service.verification import VerificationManager
from repro.workload.generator import WorkloadGenerator


class TestWriteVerifyReadPipeline:
    """Write path -> seal -> verify -> imaging -> decode, with real bits."""

    def test_full_data_path(self):
        geometry = PlatterGeometry(
            tracks=8, layers=4, voxels_per_sector=700, sector_payload_bytes=96
        )
        codec = SectorCodec(payload_bytes=96, ldpc_rate=0.8)
        write_drive = WriteDrive(codec=codec)
        platter = Platter("int-1", geometry)
        write_drive.load_blank(platter)
        rng = np.random.default_rng(0)
        files = {
            f"file-{i}": rng.integers(0, 256, int(rng.integers(50, 400)), dtype=np.uint8).tobytes()
            for i in range(3)
        }
        cursor = 0
        for file_id, payload in files.items():
            track, layer = divmod(cursor, geometry.layers)
            extent = write_drive.write_file_sectors(
                "int-1", file_id, payload, SectorAddress(track, layer)
            )
            cursor += extent.num_sectors
        sealed = write_drive.eject("int-1")
        # Verify with the read technology before trusting the platter.
        verifier = VerificationManager(ReadDriveModel(seed=1), codec)
        report = verifier.verify_platter(sealed)
        assert report.passed
        # Read one file back through imaging + decode.
        read_drive = ReadDriveModel(seed=2)
        extent = sealed.header.locate("file-0")
        recovered = b""
        count = 0
        for address in geometry.serpentine_order(start_track=extent.start_track):
            if count == 0 and address.layer != extent.start_layer:
                continue
            image = read_drive.image_sector(sealed, address.track, address.layer)
            result = codec.decode(read_drive.channel.symbol_posteriors(image))
            assert result.success
            recovered += result.payload
            count += 1
            if count == extent.num_sectors:
                break
        assert recovered[: extent.size_bytes] == files["file-0"]


class TestErasureEscalation:
    """LDPC failure -> sector erasure -> within-track NC recovery."""

    def test_track_survives_destroyed_sectors(self):
        config = TrackCodeConfig(information_sectors=12, redundancy_sectors=3)
        track_code = TrackCode(config)
        rng = np.random.default_rng(3)
        info = [rng.integers(0, 256, 32, dtype=np.uint8).tobytes() for _ in range(12)]
        track = track_code.encode_track(info)
        # Channel destroys three sectors (decode returned None for them).
        damaged = list(track)
        damaged[1] = None
        damaged[6] = None
        damaged[13] = None
        assert track_code.decode_track(damaged) == info


class TestPackingToPlacement:
    """Staged files -> packer -> within-platter placement."""

    def test_packed_plan_places_cleanly(self):
        packer = FilePacker(
            PackingConfig(platter_capacity_bytes=12_000, shard_threshold_bytes=4_000)
        )
        files = [
            StagedFile(f"f{i}", 900 + 13 * i, account=f"acct{i % 2}", write_time=float(i))
            for i in range(8)
        ]
        plans = packer.pack(files)
        geometry = PlatterGeometry(
            tracks=20, layers=12, voxels_per_sector=100, sector_payload_bytes=100
        )
        layout = PlatterLayout(
            geometry, TrackCodeConfig(information_sectors=10, redundancy_sectors=2)
        )
        for plan in plans:
            placed = layout.place_files(plan.shards)
            assert len(placed) == len(plan.shards)
            # No overlapping sector assignments.
            used = [a for p in placed for a in p.sector_addresses]
            assert len(used) == len(set(used))


class TestDeploymentWithSimulation:
    """Blast-zone placement invariant feeding the simulator's guarantee."""

    def test_invariant_for_many_sets(self):
        placer = DeploymentPlacer([LibraryLayout(LibraryConfig(storage_racks=7))])
        sets = {}
        for set_index in range(10):
            platters = [f"S{set_index}P{i}" for i in range(19)]
            placer.place_set(f"set{set_index}", platters)
            sets[f"set{set_index}"] = platters
        assert placer.verify_invariant(sets)
        assert placer.max_unavailable_on_failure(sets) == 3


class TestMetadataDisasterRecovery:
    """Service loses its index; platter headers rebuild it."""

    def test_rebuild_then_read(self):
        service = ArchiveService()
        service.put("dr/file", b"survives the index loss")
        platters = [(0, p) for p in service._platters.values()]
        rebuilt = rebuild_from_platters(platters)
        location = rebuilt.locate("dr/file")
        assert location.platter_id in service._platters


class TestDecoderFeedsLdpc:
    """Trained net posteriors drive the sector codec end to end."""

    def test_net_posteriors_decode_sector(self):
        from repro.decode.images import SectorImager, SectorImageShape
        from repro.decode.training import posteriors_for_sector
        from repro.media.channel import ChannelModel

        # A gentle channel so the small demo net is comfortably above the
        # LDPC threshold.
        channel = ChannelModel(sensor_noise_sigma=0.12, isi_fraction=0.15)
        codec = SectorCodec(payload_bytes=32, ldpc_rate=0.75)
        needed = codec.symbols_per_sector
        rows = 16
        cols = -(-needed // rows)
        imager = SectorImager(SectorImageShape(rows, cols), model=channel)
        net, _ = train_decoder(imager=imager, train_sectors=15, test_sectors=3, epochs=8, seed=4)
        payload = b"net-to-ldpc-contract-works!!"
        symbols = codec.encode(payload)
        grid = np.zeros(rows * cols, dtype=np.uint8)
        grid[: len(symbols)] = symbols
        rng = np.random.default_rng(5)
        image = imager.render(grid.reshape(rows, cols), rng)
        posteriors = posteriors_for_sector(net, imager, image)[: len(symbols)]
        result = codec.decode(posteriors)
        assert result.success
        assert result.payload.rstrip(b"\x00") == payload


class TestSimulatorAtScale:
    def test_thousand_request_run_completes(self):
        generator = WorkloadGenerator(seed=99)
        trace, start, end = generator.interval_trace(
            1.0, interval_hours=0.5, warmup_hours=0.1, cooldown_hours=0.1
        )
        kernel = SimKernel(SimConfig(num_platters=1000, seed=99))
        kernel.lifecycle.assign_trace(trace, start, end)
        report = kernel.run()
        assert report.requests_completed == report.requests_submitted
        assert report.completions.count > 100
        assert report.drive_utilization.utilization > 0.9
