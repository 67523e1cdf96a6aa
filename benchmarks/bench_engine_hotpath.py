"""Simulator hot-path benchmarks: the perf trajectory anchor.

Times the 16-node/200-job multi-tenant stream, the 10k-flow
water-filling microbench and the 64-node shaper fleet against its
scalar adapter, all defined in :mod:`repro.bench.hotpath`.  Under
pytest each runs once (like every bench_* module) and prints its row
without touching the ledger; ``python -m repro bench`` is the one
command that records or gates ``BENCH_engine.json``.
"""

from __future__ import annotations

from repro.bench.hotpath import (
    bench_shaper_fleet_vs_scalar,
    bench_stream,
    bench_waterfill,
)


def test_stream_hotpath(benchmark):
    from conftest import print_rows, run_once

    result = run_once(benchmark, bench_stream)
    print_rows("stream 16x200 hot path", [result])
    assert result["checksum"] > 0


def test_waterfill_microbench(benchmark):
    from conftest import print_rows, run_once

    result = run_once(benchmark, bench_waterfill)
    print_rows("water-filling 10k flows", [result])
    assert result["checksum"] > 0


def test_shaper_fleet_vs_scalar(benchmark):
    from conftest import print_rows, run_once

    result = run_once(
        benchmark, lambda: bench_shaper_fleet_vs_scalar(duration_s=300.0)
    )
    print_rows("64-node shaper fleet vs scalar adapter", [result])
    assert result["checksum"] > 0
    assert result["fleet_speedup"] > 0
