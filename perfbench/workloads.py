"""The benchmark's workloads: inputs, build, one timed unit, output checks.

Every workload is driven through the simulator's public API only.  A
workload splits into three phases, which the runner times separately:

* ``inputs(seed)`` — generate the seeded inputs (job catalogs, arrival
  times, scenario matrices, serving configs) as a list of variants;
  repetition ``i`` of a run uses variant ``i % len(variants)``;
* ``build(variant, work_dir)`` — construct everything the timed call
  needs (cluster, fabric, engine or serving state, a populated store);
* ``run(state)`` — the timed unit of work;
* ``outputs(state, result)`` — untimed: the simulated outputs (a
  JSON-comparable dict), the number of work units attempted (jobs,
  requests or cells) and how many of them completed.

``check(state, outputs)`` then applies the checks that need no recorded
reference (every unit completed, the store verifies, every warm-pass
cell was a cache hit).  The runner compares the outputs of variant
``k`` with entry ``k`` of ``reference.json`` when the seed is
:data:`DEFAULT_SEED`.

A built state is consumed by one ``run``; the runner builds a fresh one
for each repetition, outside the timed region.  ``tiny=True`` shrinks
every workload to a size the benchmark's own tests can afford.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.measurement.repository import TraceRepository
from repro.netmodel.token_bucket import TokenBucketModel, TokenBucketParams
from repro.runtime.executors import ShardExecutor
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.scenarios.orchestrate import ScenarioCampaign, scenario_matrix
from repro.serving.scenario import ServingConfig, finish_serving, prepare_serving
from repro.simulator.cluster import Cluster, NodeSpec
from repro.simulator.engine import SparkEngine
from repro.simulator.tasks import JobSpec, StageSpec

#: The seed whose simulated outputs are recorded in ``reference.json``.
DEFAULT_SEED = 1

#: Input variants per seed of the simulation workloads.  Repetitions
#: cycle through them, so a run averages over several arrival, noise
#: and shaper draws instead of hanging on one.
VARIANTS = 8

#: Token-bucket shaper of the DAG-stream workloads (c5.xlarge-like
#: rates).  ``dag_stream`` shrinks the capacity so nodes run dry and
#: change tier during a run.
_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=600.0,
)

#: Seed of the fixed ``dag_stream`` job catalog.  The catalog is part of
#: the workload's definition: ``--seed`` draws the order, the arrival
#: times and the compute noise, so the amount of work per run does not
#: depend on the seed and runs with different seeds stay comparable.
_CATALOG_SEED = 20200225


def _rows_digest(rows: list[dict]) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# DAG streams
# ----------------------------------------------------------------------
@dataclass
class _StreamState:
    engine: object
    stream: list
    fabric: object
    scheduler: str


class _StreamWorkload:
    """Shared run/check for the two DAG-stream workloads."""

    unit = "jobs"
    scheduler = "fair"

    def build(self, inputs, work_dir: Path) -> _StreamState:
        noise_seed, stream = inputs
        params = self.bucket
        cluster = Cluster(
            n_nodes=self.n_nodes,
            node_spec=NodeSpec(slots=self.slots),
            link_model_factory=lambda node: TokenBucketModel(params),
        )
        return _StreamState(
            # A fresh generator per build, so every repetition of the
            # same inputs draws the same compute noise.
            engine=SparkEngine(cluster, rng=np.random.default_rng(noise_seed)),
            stream=stream,
            fabric=cluster.build_fabric(),
            scheduler=self.scheduler,
        )

    def run(self, state: _StreamState):
        return state.engine.run_stream(
            state.stream, fabric=state.fabric, scheduler=state.scheduler
        )

    def outputs(self, state: _StreamState, result):
        runtimes = result.runtimes()
        completed = int(np.count_nonzero(np.isfinite(runtimes)))
        outputs = {
            "n_jobs": len(result.job_results),
            "runtime_sum_s": float(np.sum(runtimes)),
            "makespan_s": float(result.makespan_s),
            "n_steps": int(result.n_steps),
        }
        return outputs, len(state.stream), completed

    def check(self, state: _StreamState, outputs: dict) -> list[str]:
        if outputs["n_jobs"] != len(state.stream):
            return [f"{outputs['n_jobs']} of {len(state.stream)} jobs reported"]
        return []


class DagStream(_StreamWorkload):
    """16 nodes x 4 slots, a Poisson multi-tenant DAG stream, fair scheduler."""

    name = "dag_stream"
    n_nodes = 16
    slots = 4
    bucket = replace(_BUCKET, capacity_gbit=100.0)

    def __init__(self, tiny: bool = False) -> None:
        self.n_jobs = 2 if tiny else 6
        self.data_scale = 0.2 if tiny else 1.0

    def inputs(self, seed: int):
        catalog = [
            job
            for _, job in job_stream(
                np.random.default_rng(_CATALOG_SEED),
                np.zeros(self.n_jobs),
                n_nodes=self.n_nodes,
                slots=self.slots,
                data_scale=self.data_scale,
            )
        ]
        variants = []
        for k in range(VARIANTS):
            rng = np.random.default_rng([seed, k])
            order = rng.permutation(len(catalog))
            times = poisson_arrivals(rng, rate_per_min=6.0, n_jobs=len(catalog))
            stream = [(float(t), catalog[i]) for t, i in zip(times, order)]
            variants.append(([seed, k, 1], stream))
        return variants


class WideShuffle(_StreamWorkload):
    """64 nodes, a few large all-to-all map/reduce jobs.

    Each reduce task group fetches from every other node, and the
    reduce stage runs in waves, so many groups' fetches overlap: the
    water-fill sees hundreds of concurrent flows.
    """

    name = "wide_shuffle"
    n_nodes = 64
    slots = 2
    bucket = _BUCKET

    def __init__(self, tiny: bool = False) -> None:
        self.n_jobs = 1 if tiny else 4
        self.waves = 1 if tiny else 2
        self.spacing_s = 8.0

    def inputs(self, seed: int):
        n_tasks = self.n_nodes * self.slots * self.waves
        return [self._variant(seed, k, n_tasks) for k in range(VARIANTS)]

    def _variant(self, seed: int, k: int, n_tasks: int):
        rng = np.random.default_rng([seed, k])
        stream = []
        for i in range(self.n_jobs):
            scale = float(rng.uniform(0.95, 1.05))
            job = JobSpec(
                name=f"all-to-all-{i}",
                stages=(
                    StageSpec(
                        "map",
                        n_tasks,
                        compute_s=4.0,
                        compute_cov=0.15,
                        input_gbit=100.0 * scale,
                        input_locality=1.0,
                    ),
                    StageSpec(
                        "reduce",
                        n_tasks,
                        compute_s=2.0,
                        compute_cov=0.15,
                        shuffle_gbit=100.0 * scale,
                        parents=(0,),
                    ),
                ),
            )
            stream.append((i * self.spacing_s, job))
        return [seed, k, 1], stream


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
class ServingFlash:
    """Open-loop flash crowd on a three-tier call tree, 8 hpccloud nodes."""

    name = "serving_flash"
    unit = "requests"

    def __init__(self, tiny: bool = False) -> None:
        self.duration_s = 10.0 if tiny else 120.0

    def inputs(self, seed: int):
        # Arrival gaps are drawn lazily during the run, from the same
        # seeded generator as the compute noise.
        return [self._variant(seed * VARIANTS + k) for k in range(VARIANTS)]

    def _variant(self, seed: int) -> ServingConfig:
        return ServingConfig(
            provider_name="hpccloud",
            instance_name="hpccloud-8core",
            n_nodes=8,
            topology="three_tier",
            arrival="flash",
            rate_rps=60.0,
            duration_s=self.duration_s,
            slo_p99_ms=250.0,
            slo_window_s=10.0,
            seed=seed,
        )

    def build(self, inputs, work_dir: Path):
        return prepare_serving(inputs)

    def run(self, prepared):
        return prepared.state.execute()

    def outputs(self, prepared, result):
        result = finish_serving(prepared, result)
        outputs = {
            "n_requests": int(result.n_requests),
            "n_completed": int(result.n_completed),
            "latency_sum_s": float(result.latency["sum_s"]),
            "latency_p99_s": float(result.latency["p99"]),
            "n_steps": int(result.n_steps),
            "slo_violations": int(result.slo_violations),
        }
        return outputs, outputs["n_requests"], outputs["n_completed"]

    def check(self, prepared, outputs: dict) -> list[str]:
        return []


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
def _matrix(seed: int, tiny: bool):
    return scenario_matrix(
        providers=("amazon", "google", "hpccloud"),
        arrival_rates=(1.0,) if tiny else tuple(float(r) for r in range(1, 8)),
        schedulers=("fifo", "fair") if tiny else ("fifo", "fair", "preempt", "srpt", "edf"),
        n_jobs=1,
        n_nodes=2,
        slots=1,
        data_scale=0.01,
        seed=seed,
    )


def _cold_pass(configs, root: Path):
    """Two in-process shards -> worker -> store -> merge into ``root/store``."""
    repository = TraceRepository(root / "store")
    outcome = ScenarioCampaign(
        configs,
        repository=repository,
        executor=ShardExecutor(2, work_dir=root / "shards"),
    ).run()
    return repository, outcome


@dataclass
class _CampaignState:
    configs: list
    root: Path
    repository: TraceRepository
    #: The cold pass's merged-store hash and row digest.
    cold: dict


class CampaignSweep:
    """A sweep of tiny cells: the cold pass is set-up, the warm pass is timed.

    Set-up computes every cell, stores it and merges the shards (the
    write path); the timed unit reloads the whole matrix from the
    merged store (the read path).  The cold pass is fsync-bound, so its
    wall time follows the shared disk; it is gated through ``setup_s``.
    """

    name = "campaign_sweep"
    unit = "cells"

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny
        #: Cold-pass outputs per populated store directory.
        self._cold: dict[Path, dict] = {}

    def inputs(self, seed: int):
        return [_matrix(seed, self.tiny)]

    def build(self, inputs, work_dir: Path) -> _CampaignState:
        # The store a warm pass reads is this workload's set-up: one
        # cold pass populates it, and every warm pass only reads it.
        root = work_dir / "campaign"
        if root not in self._cold:
            shutil.rmtree(root, ignore_errors=True)
            root.mkdir(parents=True)
            repository, outcome = _cold_pass(inputs, root)
            report = repository.artifacts.verify()
            if not report.ok or len(outcome.computed_ids) != len(inputs):
                raise RuntimeError(
                    f"cold pass computed {len(outcome.computed_ids)} of "
                    f"{len(inputs)} cells; store verify: {report.problems[:3]}"
                )
            self._cold[root] = {
                "content_hash": repository.artifacts.content_hash(),
                "rows_sha256": _rows_digest(outcome.aggregate_rows()),
            }
        return _CampaignState(
            configs=inputs,
            root=root,
            repository=TraceRepository(root / "store"),
            cold=self._cold[root],
        )

    def run(self, state: _CampaignState):
        return ScenarioCampaign(state.configs, repository=state.repository).run()

    def outputs(self, state: _CampaignState, outcome):
        outputs = {
            "n_cells": len(state.configs),
            "cache_hits": len(outcome.cached_ids),
            "content_hash": state.repository.artifacts.content_hash(),
            "rows_sha256": _rows_digest(outcome.aggregate_rows()),
        }
        return outputs, len(state.configs), len(outcome.results)

    def check(self, state: _CampaignState, outputs: dict) -> list[str]:
        problems = []
        if outputs["content_hash"] != state.cold["content_hash"]:
            problems.append("merged store changed during the warm pass")
        if outputs["cache_hits"] != outputs["n_cells"]:
            problems.append(
                f"warm pass hit {outputs['cache_hits']} of "
                f"{outputs['n_cells']} cells"
            )
        if outputs["rows_sha256"] != state.cold["rows_sha256"]:
            problems.append("warm-pass rows differ from cold-pass rows")
        return problems


WORKLOADS = {
    cls.name: cls
    for cls in (DagStream, WideShuffle, ServingFlash, CampaignSweep)
}
