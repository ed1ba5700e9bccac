"""Tests for the command-line interface."""

import json
import os
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.profile == "IOPS"
        assert args.policy == "silica"

    def test_invalid_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--profile", "Bursty"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "16+3" in out and "18.8" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out

    def test_durability(self, capsys):
        assert main(["durability"]) == 0
        out = capsys.readouterr().out
        assert "1e-2" in out or "1e-3" in out  # a large negative exponent

    def test_archive_roundtrip(self, capsys):
        assert main(["archive", "--payload", "cli test"]) == 0
        out = capsys.readouterr().out
        assert "roundtrip OK" in out

    def test_workload(self, capsys):
        assert main(["workload", "--days", "40"]) == 0
        out = capsys.readouterr().out
        assert "write/read ops ratio" in out

    def test_simulate_small(self, capsys):
        code = main(
            [
                "simulate",
                "--profile",
                "Typical",
                "--hours",
                "0.2",
                "--platters",
                "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "within the 15 h SLO" in out


class TestChaosCommand:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.shuttle_mtbf > 0 and args.drive_mtbf > 0
        assert args.metadata_mtbf == 0.0  # outages off by default
        assert not args.no_repair

    def test_chaos_run_with_repair(self, capsys):
        code = main(
            [
                "--seed", "3",
                "chaos",
                "--hours", "0.2",
                "--platters", "950",
                "--read-error-prob", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repair on" in out
        assert "resilience" in out
        assert "availability" in out

    def test_chaos_run_without_repair(self, capsys):
        code = main(
            [
                "--seed", "3",
                "chaos",
                "--hours", "0.2",
                "--platters", "950",
                "--no-repair",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repair off" in out
        assert "repaired=0" in out

    def test_chaos_json_stable_keys(self, capsys):
        code = main(
            [
                "--seed", "3",
                "chaos",
                "--hours", "0.2",
                "--platters", "950",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == sorted(payload)
        assert list(payload["resilience"]) == sorted(payload["resilience"])
        assert payload["schedule"]["repair"] is True
        assert payload["resilience"]["faults_injected"] >= 0
        # No wall-clock block: the payload is a pure function of the seed.
        assert "perf" not in payload
        # Front-end retry-ladder counters ride along (ServiceRetryStats
        # schema): stable keys, non-negative counts.
        retry = payload["service_retry"]
        assert list(retry) == sorted(retry)
        assert set(retry) == {
            "admission_rejections",
            "backoff_seconds",
            "deep_decodes",
            "metadata_failures",
            "metadata_retries",
            "sector_rereads",
            "unrecovered_sectors",
        }
        assert all(value >= 0 for value in retry.values())

    def test_chaos_json_is_byte_identical_across_runs(self, capsys):
        argv = ["--seed", "3", "chaos", "--hours", "0.2", "--platters", "950", "--json"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_chaos_json_counts_metadata_retries(self, capsys):
        code = main(
            [
                "--seed", "3",
                "chaos",
                "--hours", "0.2",
                "--platters", "950",
                "--metadata-mtbf", "120",
                "--metadata-mttr", "60",
                "--json",
            ]
        )
        assert code == 0
        retry = json.loads(capsys.readouterr().out)["service_retry"]
        assert retry["metadata_retries"] > 0
        assert retry["backoff_seconds"] > 0


class TestFleetCommand:
    def test_fleet_survives_library_outage(self, capsys):
        code = main(
            [
                "--seed", "3",
                "fleet",
                "--hours", "0.2",
                "--platters", "240",
                "--drives", "8",
                "--shuttles", "8",
                "--libraries", "3",
                "--lib-mtbf", "600",
                "--lib-mttr", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 libraries, k=2" in out
        assert "availability" in out

    def test_fleet_json_stable_keys(self, capsys, tmp_path):
        out_dir = str(tmp_path / "fleet")
        code = main(
            [
                "--seed", "3",
                "fleet",
                "--hours", "0.2",
                "--platters", "240",
                "--drives", "8",
                "--shuttles", "8",
                "--lib-mtbf", "600",
                "--hedge",
                "--hedge-delay", "60",
                "--json",
                "--out", out_dir,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == sorted(payload)
        assert list(payload["fleet"]) == sorted(payload["fleet"])
        assert payload["fleet"]["libraries"] == 3
        assert payload["schedule"]["repair"] is True
        # Artifacts: trace + metrics + report land in --out.
        names = {p.name for p in (tmp_path / "fleet").iterdir()}
        assert {"trace.jsonl", "metrics.json", "metrics.prom",
                "report.json"} <= names


class TestTraceExportCommands:
    _small = ["--hours", "0.1", "--rate-factor", "0.2", "--platters", "300"]

    def test_trace_writes_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code = main(["trace", *self._small, "--out", out_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        for name in ("trace.jsonl", "spans.json", "metrics.json",
                     "metrics.prom", "report.json"):
            assert os.path.exists(os.path.join(out_dir, name)), name
        # The documented offline reconstruction: spans re-assembled from
        # the exported trace match the exported spans.json.
        from repro.observability import assemble_spans, read_jsonl

        spans = assemble_spans(read_jsonl(os.path.join(out_dir, "trace.jsonl")))
        with open(os.path.join(out_dir, "spans.json")) as handle:
            exported = json.load(handle)
        assert len(exported["spans"]) == len(spans)
        assert exported["critical_path"]["spans"] == sum(
            1 for s in spans if s.phases
        )

    def test_export_writes_metrics_and_report(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code = main(["export", *self._small, "--out", out_dir])
        assert code == 0
        assert not os.path.exists(os.path.join(out_dir, "trace.jsonl"))
        with open(os.path.join(out_dir, "metrics.json")) as handle:
            metrics = json.load(handle)
        assert list(metrics) == sorted(metrics)
        assert "sim_bytes_read_total" in metrics
        prom = open(os.path.join(out_dir, "metrics.prom")).read()
        assert "# TYPE sim_bytes_read_total counter" in prom


class TestWatchCommand:
    _run = ["--seed", "2", "watch", "--hours", "0.05", "--rate-factor", "0.3",
            "--drives", "4", "--shuttles", "4", "--platters", "120"]
    _exported = ("report.json", "timeseries.json", "metrics.json")

    def test_frame_count_leaves_the_exported_run_byte_identical(self, tmp_path, capsys):
        exported = {}
        for frames in (1, 5):
            out_dir = tmp_path / f"frames-{frames}"
            code = main([*self._run, "--frames", str(frames), "--out", str(out_dir)])
            assert code == 0
            exported[frames] = {
                name: (out_dir / name).read_bytes() for name in self._exported
            }
        assert exported[1] == exported[5]
        assert "result    :" in capsys.readouterr().out

    def test_refresh_pauses_between_frames_only(self, monkeypatch, capsys):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        assert main([*self._run, "--frames", "3", "--refresh", "0.5"]) == 0
        # N frames -> N-1 pauses, never one after the last frame.
        assert sleeps == [0.5, 0.5]


class TestBenchCommands:
    """The ``bench`` subcommand family (run / compare / list / update)."""

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "event_loop" in out and "fig9_full_library" in out
        assert "[fast]" in out and "[full]" in out

    def test_bench_run_compare_update_roundtrip(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        code = main(
            [
                "bench", "run",
                "--scenario", "event_loop",
                "--out", run_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_event_loop.json" in out
        artifact = os.path.join(run_dir, "BENCH_event_loop.json")
        with open(artifact) as handle:
            doc = json.load(handle)
        assert doc["schema"] == "repro.bench/2"
        assert set(doc["simulated_metrics"]) == {"events_fired", "simulated_seconds"}

        # Same artifacts on both sides: clean pass.
        code = main(
            ["bench", "compare", "--baseline", run_dir, "--candidate", run_dir]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

        # Promote to a baseline dir, perturb a simulated metric: drift fails.
        base_dir = str(tmp_path / "base")
        code = main(
            [
                "bench", "update-baseline",
                "--from-dir", run_dir,
                "--baseline", base_dir,
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(os.path.join(base_dir, "BENCH_event_loop.json")) as handle:
            doc = json.load(handle)
        doc["simulated_metrics"]["events_fired"] += 1
        with open(os.path.join(base_dir, "BENCH_event_loop.json"), "w") as handle:
            json.dump(doc, handle)
        code = main(
            [
                "bench", "compare",
                "--baseline", base_dir,
                "--candidate", run_dir,
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "drift" in out and "REGRESSION" in out

    def test_bench_update_baseline_checks_every_name_first(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "BENCH_event_loop.json").write_text(
            json.dumps({"scenario": "event_loop", "simulated_metrics": {"x": 2.0}})
        )
        base_dir = tmp_path / "base"
        base_dir.mkdir()
        committed = json.dumps({"scenario": "event_loop", "simulated_metrics": {"x": 1.0}})
        (base_dir / "BENCH_event_loop.json").write_text(committed)
        code = main(
            [
                "bench", "update-baseline",
                "--from-dir", str(run_dir),
                "--baseline", str(base_dir),
                "--scenario", "event_loop",
                "--scenario", "typo",
            ]
        )
        assert code == 1
        assert "no BENCH_typo.json" in capsys.readouterr().err
        assert os.listdir(base_dir) == ["BENCH_event_loop.json"]
        assert (base_dir / "BENCH_event_loop.json").read_text() == committed

    def test_bench_unknown_scenario_errors(self, tmp_path, capsys):
        code = main(
            ["bench", "run", "--scenario", "warp_drive", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bench_compare_missing_baseline_dir_errors(self, tmp_path, capsys):
        code = main(
            [
                "bench", "compare",
                "--baseline", str(tmp_path / "nope"),
                "--candidate", str(tmp_path / "nope"),
            ]
        )
        assert code == 2
        assert "no such artifact directory" in capsys.readouterr().err
