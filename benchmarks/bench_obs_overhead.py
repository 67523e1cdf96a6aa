"""Observability overhead benchmark: what a full recorder costs.

Runs the canonical 16-node multi-tenant stream twice — recorder off,
then under a full :class:`~repro.obs.recorder.ObsRecorder` (metrics
scraping, latency/queueing quantiles, job/stage/task-group/flow
spans) — and reports both wall times plus the relative cost.  The two
runs must agree on checksum and step count: the recorder only reads
simulation state, and :func:`repro.bench.hotpath.bench_obs_overhead`
raises if observability perturbed the trajectory.

Under pytest the benchmark runs once (smoke-sized) and prints its row
without touching the ledger.  The ``obs_overhead`` case is one row of
``python -m repro bench``, the one command that records or gates
``BENCH_engine.json``.
"""

from __future__ import annotations

from repro.bench.hotpath import bench_obs_overhead


def test_obs_overhead(benchmark):
    from conftest import print_rows, run_once

    result = run_once(benchmark, lambda: bench_obs_overhead(n_jobs=20))
    print_rows("observability overhead (smoke-sized stream)", [result])
    assert result["checksum"] > 0
    assert result["spans"] > 0
    assert result["scrapes"] > 0
