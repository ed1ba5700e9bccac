"""Public-API surface tests: everything __all__ promises exists and imports."""

import importlib

import pytest

SUBPACKAGES = [
    "repro.bench",
    "repro.core",
    "repro.core.sim",
    "repro.costs",
    "repro.decode",
    "repro.ecc",
    "repro.fleet",
    "repro.layout",
    "repro.library",
    "repro.media",
    "repro.observability",
    "repro.serve",
    "repro.service",
    "repro.tenancy",
    "repro.workload",
]


class TestImports:
    def test_top_level_package(self):
        import repro

        assert repro.__version__

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        for symbol in exported:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    def test_cli_entry_point(self):
        from repro.cli import build_parser, main

        assert callable(main)
        assert build_parser().prog == "repro"


class TestKeyTypesAccessible:
    def test_simulator_types(self):
        from repro.core import (
            DeploymentSimulation,
            SimConfig,
            SimKernel,
            TapeLibrarySimulation,
        )

        assert SimConfig().num_drives == 20

    def test_media_types(self):
        from repro.media import (
            PAPER_GEOMETRY,
            GlassMediaSpec,
            Platter,
            SectorCodec,
            WriteDrive,
        )

        assert PAPER_GEOMETRY.layers == 200

    def test_service_types(self):
        from repro.service import (
            ArchiveService,
            GlassLedger,
            VerificationManager,
            libraries_needed,
        )

        assert callable(libraries_needed)

    def test_workload_types(self):
        from repro.workload import (
            IOPS,
            TYPICAL,
            VOLUME,
            WorkloadGenerator,
            save_trace,
            select_evaluation_intervals,
        )

        assert IOPS.name == "IOPS"

    def test_ecc_types(self):
        from repro.ecc import LdpcCode, NetworkGroup, PlatterSetCode, TrackCode

        assert NetworkGroup(4, 2).size == 6
