"""Tests for the hot-path benchmark suite and its results ledger."""

import json

import pytest

from repro.bench import (
    bench_shaper_fleet_vs_scalar,
    bench_stream,
    bench_waterfill,
    check_results,
    format_table,
    load_results,
    record_results,
)
from repro.cli import main


class TestBenchmarks:
    def test_waterfill_microbench_reports_checksum(self):
        result = bench_waterfill(n_flows=300, n_nodes=8, rounds=1)
        assert result["n_flows"] == 300
        assert result["wall_s"] >= 0
        assert result["checksum"] > 0

    def test_waterfill_checksum_is_deterministic(self):
        a = bench_waterfill(n_flows=200, n_nodes=8, rounds=1)
        b = bench_waterfill(n_flows=200, n_nodes=8, rounds=1)
        assert a["checksum"] == b["checksum"]

    def test_stream_bench_small(self):
        result = bench_stream(n_nodes=4, n_jobs=2, data_scale=0.05)
        assert result["checksum"] > 0
        assert result["makespan_s"] > 0
        assert result["samples"] > 0

    def test_shaper_case_compares_paths_bit_exactly(self):
        result = bench_shaper_fleet_vs_scalar(n_nodes=16, duration_s=60.0)
        assert result["checksum"] > 0
        assert result["n_steps"] > 0
        assert result["fleet_speedup"] > 0
        assert "scalar_wall_s" in result


class TestLedger:
    def test_missing_ledger_is_empty(self, tmp_path):
        ledger = load_results(tmp_path / "nope.json")
        assert ledger["baseline"] is None
        assert "(no benchmark results recorded)" in format_table(ledger)

    def test_record_and_speedup_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        base = {"x": {"wall_s": 2.0, "checksum": 42.0}}
        cur = {"x": {"wall_s": 0.5, "checksum": 42.0}}
        record_results(base, path=path, label="old", as_baseline=True)
        ledger = record_results(cur, path=path, label="new")
        assert ledger["speedup"]["x"] == pytest.approx(4.0)
        reloaded = json.loads(path.read_text())
        assert reloaded["baseline"]["label"] == "old"
        assert reloaded["current"]["label"] == "new"
        table = format_table(reloaded)
        assert "4.00x" in table

    def test_checksum_mismatch_voids_speedup(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        record_results(
            {"x": {"wall_s": 2.0, "checksum": 1.0}}, path=path, as_baseline=True
        )
        ledger = record_results({"x": {"wall_s": 0.5, "checksum": 2.0}}, path=path)
        assert "x" not in ledger["speedup"]

    def test_recording_current_never_touches_baseline(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        record_results(
            {"x": {"wall_s": 2.0, "checksum": 1.0}}, path=path, as_baseline=True
        )
        record_results({"x": {"wall_s": 1.0, "checksum": 1.0}}, path=path)
        assert load_results(path)["baseline"]["results"]["x"]["wall_s"] == 2.0

    def test_workload_param_mismatch_voids_speedup(self, tmp_path):
        # A 10k-flow baseline against a 1k-flow current is a units
        # error, not a speedup — even when the checksum happens to
        # survive the relabelling.
        path = tmp_path / "BENCH_engine.json"
        record_results(
            {"x": {"wall_s": 2.0, "checksum": 1.0, "n_flows": 10_000}},
            path=path,
            as_baseline=True,
        )
        ledger = record_results(
            {"x": {"wall_s": 0.2, "checksum": 1.0, "n_flows": 1_000}},
            path=path,
        )
        assert "x" not in ledger["speedup"]


class TestCheckGate:
    _REF = {"label": "ref", "results": {"x": {"wall_s": 1.0, "checksum": 42.0}}}

    def test_clean_run_passes(self):
        results = {"x": {"wall_s": 1.1, "checksum": 42.0}}
        assert check_results(results, self._REF) == []

    def test_checksum_drift_fails(self):
        results = {"x": {"wall_s": 1.0, "checksum": 43.0}}
        failures = check_results(results, self._REF)
        assert len(failures) == 1
        assert "checksum drifted" in failures[0]

    def test_wall_regression_fails_beyond_tolerance(self):
        results = {"x": {"wall_s": 1.3, "checksum": 42.0}}
        failures = check_results(results, self._REF, wall_tolerance=1.25)
        assert len(failures) == 1
        assert "regressed" in failures[0]
        assert check_results(results, self._REF, wall_tolerance=1.5) == []

    def test_unrecorded_case_is_skipped(self):
        results = {"new_case": {"wall_s": 9.0, "checksum": 1.0}}
        assert check_results(results, self._REF) == []

    def test_workload_param_mismatch_is_refused(self):
        ref = {
            "label": "ref",
            "results": {
                "x": {"wall_s": 1.0, "checksum": 42.0, "n_jobs": 200}
            },
        }
        results = {"x": {"wall_s": 1.0, "checksum": 42.0, "n_jobs": 20}}
        failures = check_results(results, ref)
        assert len(failures) == 1
        assert "workload params differ" in failures[0]
        # The refusal replaces (not compounds) the checksum/wall gates:
        # a drifted checksum on mismatched params reports only the
        # param failure, since the comparison itself is meaningless.
        results = {"x": {"wall_s": 9.0, "checksum": 7.0, "n_jobs": 20}}
        failures = check_results(results, ref)
        assert len(failures) == 1
        assert "workload params differ" in failures[0]

    def test_workload_params_strips_only_measured_keys(self):
        from repro.bench import workload_params

        row = {
            "wall_s": 1.0,
            "checksum": 42.0,
            "overhead_pct": 3.0,
            "batch_speedup": 2.0,
            "n_jobs": 200,
            "scheduler": "fair",
        }
        assert workload_params(row) == {"n_jobs": 200, "scheduler": "fair"}

    def test_missing_reference_section_skips_everything(self):
        results = {"x": {"wall_s": 9.0, "checksum": 99.0}}
        assert check_results(results, None) == []

    def test_cli_check_fails_without_reference(self, tmp_path, capsys):
        # Reference validation happens before any benchmark runs, so
        # this is instant despite going through the real CLI.
        path = tmp_path / "BENCH_engine.json"
        record_results(
            {"x": {"wall_s": 2.0, "checksum": 1.0}}, path=path, as_baseline=True
        )
        code = main(["bench", "--smoke", "--check", "--json", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "no 'smoke' reference" in err

    def test_cli_smoke_check_round_trip(self, tmp_path, capsys, monkeypatch):
        # Gate plumbing only (exit codes, sections, output); the suite
        # itself is canned — the real smoke suite already runs in CI
        # and in TestBenchmarks.
        import repro.bench.hotpath as hotpath

        canned = {"stream_16x200": {"wall_s": 1.0, "checksum": 42.0}}
        monkeypatch.setattr(hotpath, "run_suite", lambda smoke=False: canned)
        path = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--save-smoke", "--json", str(path)]) == 0
        assert load_results(path)["smoke"] is not None
        code = main(
            [
                "bench", "--smoke", "--check", "--json", str(path),
                "--wall-tolerance", "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bench check ok" in out

    def test_cli_check_detects_checksum_drift(self, tmp_path, capsys, monkeypatch):
        import repro.bench.hotpath as hotpath

        canned = {"stream_16x200": {"wall_s": 1.0, "checksum": 42.0}}
        monkeypatch.setattr(hotpath, "run_suite", lambda smoke=False: canned)
        path = tmp_path / "BENCH_engine.json"
        assert main(["bench", "--save-smoke", "--json", str(path)]) == 0
        ledger = load_results(path)
        ledger["smoke"]["results"]["stream_16x200"]["checksum"] += 1.0
        path.write_text(json.dumps(ledger))
        code = main(
            [
                "bench", "--smoke", "--check", "--json", str(path),
                "--wall-tolerance", "1000",
            ]
        )
        assert code == 1
        assert "checksum drifted" in capsys.readouterr().err


class TestCli:
    def test_bench_table_only(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        record_results(
            {"x": {"wall_s": 2.0, "checksum": 1.0}}, path=path, as_baseline=True
        )
        assert main(["bench", "--table-only", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "benchmark" in out
        assert "2.0000" in out


class TestCampaignOverhead:
    def test_overhead_case_is_deterministic_and_cached(self):
        from repro.bench import bench_campaign_overhead

        a = bench_campaign_overhead(n_cells=4, seed=77)
        b = bench_campaign_overhead(n_cells=4, seed=77)
        assert a["cache_hits"] == 4
        assert a["checksum"] == b["checksum"]
        assert a["wall_s"] >= 0.0
        # per_cell_ms derives from the unrounded wall clock; it must
        # sit within a rounding step of the recorded wall_s / n_cells.
        assert a["per_cell_ms"] == pytest.approx(
            a["wall_s"] / 4 * 1_000.0, abs=0.05
        )


class TestProvenance:
    def test_record_provenance_archives_each_case(self, tmp_path):
        from repro.bench import record_provenance
        from repro.runtime import ArtifactStore

        results = {
            "stream_16x200": {"wall_s": 1.0, "checksum": 2.0},
            "waterfill_10k": {"wall_s": 0.1, "checksum": 3.0},
        }
        record_provenance(results, tmp_path / "store", label="pr")
        store = ArtifactStore(tmp_path / "store")
        assert store.keys() == ["bench-stream_16x200", "bench-waterfill_10k"]
        doc = store.get("bench-stream_16x200")
        assert doc["result"] == results["stream_16x200"]
        assert "python" in doc["environment"]
        assert store.meta("bench-stream_16x200")["label"] == "pr"
        # Benchmarks re-run: provenance overwrites instead of refusing.
        record_provenance(results, tmp_path / "store")
        assert store.get("bench-stream_16x200")["result"]["wall_s"] == 1.0


class TestProfiles:
    def test_top_functions_ranks_by_cumtime(self):
        import cProfile

        from repro.bench.hotpath import _top_functions

        def inner():
            return sum(range(2_000))

        def outer():
            return [inner() for _ in range(50)]

        prof = cProfile.Profile()
        prof.runcall(outer)
        rows = _top_functions(prof, limit=5)
        assert 0 < len(rows) <= 5
        for row in rows:
            assert set(row) == {"function", "ncalls", "tottime_s", "cumtime_s"}
        cumtimes = [row["cumtime_s"] for row in rows]
        assert cumtimes == sorted(cumtimes, reverse=True)
        assert any("outer" in row["function"] for row in rows)

    def test_record_profiles_archives_per_case(self, tmp_path):
        import cProfile

        from repro.bench import record_profiles
        from repro.runtime import ArtifactStore

        prof = cProfile.Profile()
        prof.runcall(lambda: sum(range(1_000)))
        from repro.bench.hotpath import _top_functions

        profiles = {"waterfill_10k": _top_functions(prof)}
        record_profiles(profiles, tmp_path / "store", label="pr")
        store = ArtifactStore(tmp_path / "store")
        assert store.keys() == ["bench-profile-waterfill_10k"]
        doc = store.get("bench-profile-waterfill_10k")
        assert doc["top_functions"] == profiles["waterfill_10k"]
        meta = store.meta("bench-profile-waterfill_10k")
        assert meta["kind"] == "bench-profile"
        assert meta["label"] == "pr"
        # Re-profiling overwrites, mirroring provenance recording.
        record_profiles(profiles, tmp_path / "store")
        assert store.get("bench-profile-waterfill_10k") == doc
