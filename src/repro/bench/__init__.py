"""Hot-path benchmark suite and its results ledger.

The ROADMAP's north star is "as fast as the hardware allows", which is
only meaningful against a recorded trajectory.  This package defines
the canonical hot-path benchmarks (a 16-node/200-job multi-tenant
stream, a 10k-flow water-filling microbench, 64-node shaper and
per-core-QoS fleet sweeps that time the vectorized and scalar-adapter
paths against each other, a ``multistream_32cell`` case that races the
batched multi-stream runner against serial per-cell execution, and a
``campaign_overhead`` case that times the :mod:`repro.runtime`
orchestration layer per cached cell), runs them with :func:`run_suite`,
and records results in ``BENCH_engine.json`` at the repository root so
every PR can compare itself against the pinned pre-refactor baseline.

``python -m repro bench --check`` re-runs the suite and exits non-zero
when any case's checksum drifts from the ledger or its wall time
regresses beyond a tolerance — the regression gate CI runs (against
the ``smoke`` reference section recorded with ``--save-smoke``).
Comparisons refuse rows whose workload params differ from the
recorded reference; ``--profile`` archives per-case cProfile tables.

``python -m repro bench`` is the one command that runs the suite
and records or gates the ledger.
"""

from repro.bench.hotpath import (
    DEFAULT_RESULTS_PATH,
    bench_campaign_overhead,
    bench_multistream,
    bench_obs_overhead,
    bench_percore_fleet_vs_scalar,
    bench_shaper_fleet_vs_scalar,
    bench_stream,
    bench_waterfill,
    check_results,
    format_table,
    load_results,
    record_profiles,
    record_provenance,
    record_results,
    run_and_record,
    run_check,
    run_suite,
    workload_params,
)

__all__ = [
    "DEFAULT_RESULTS_PATH",
    "bench_stream",
    "bench_campaign_overhead",
    "bench_multistream",
    "bench_obs_overhead",
    "bench_percore_fleet_vs_scalar",
    "bench_shaper_fleet_vs_scalar",
    "bench_waterfill",
    "record_provenance",
    "record_profiles",
    "run_suite",
    "run_and_record",
    "run_check",
    "check_results",
    "load_results",
    "record_results",
    "format_table",
    "workload_params",
]
