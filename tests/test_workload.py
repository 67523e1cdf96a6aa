"""The shared workload pipeline, pinned across versions and workloads.

Cache keys and store bytes are a compatibility contract — a store
populated by an older checkout must stay warm under a newer one, and a
shard manifest written by one version must run on the next.  The
literals below were recorded on the numpy leg and must never move.
Everything the DAG-stream and serving workloads share (chain guards,
the campaign) is exercised once per workload.
"""

import dataclasses
import json

import pytest

from repro.measurement.repository import TraceRepository
from repro.obs import ObsRecorder
from repro.runtime import ArtifactStore, run_manifest
from repro.scenarios import ScenarioConfig, run_scenario, scenario_matrix
from repro.serving import ServingConfig, run_serving, serving_matrix
from repro.workload import ScenarioCampaign, batch_executor, chain


class TestIdentityLiterals:
    def test_scenario_ids(self):
        assert ScenarioConfig().scenario_id == "scn-d467cf26a2d7998b"
        assert (
            ScenarioConfig(deadline_slack=1.0).scenario_id
            == "scn-479ca4b67d9b47e9"
        )
        assert [c.scenario_id for c in chain(ScenarioConfig(seed=5), 2)] == [
            "scn-20b7e9fb55674ffc",
            "scn-7b30eb48835d9379",
        ]

    def test_serving_ids(self):
        assert ServingConfig().serving_id == "srv-1167445d9e53a229"
        assert [c.serving_id for c in chain(ServingConfig(seed=11), 2)] == [
            "srv-dc09044981ac8f9d",
            "srv-acfe2aeebd785113",
        ]

    def test_matrix_cell_seeds(self):
        assert [c.seed for c in scenario_matrix(seed=3)[:3]] == [
            2443007200,
            1435268929,
            2198163568,
        ]
        assert [c.seed for c in serving_matrix(seed=1)[:3]] == [
            4277716156,
            46854468,
            3173421344,
        ]


STORE_HASHES = {
    "serving": (
        lambda: serving_matrix(
            providers=("hpccloud", "fixed"),
            arrivals=("flash",),
            rates_rps=(120.0,),
            n_nodes=4,
            duration_s=30.0,
            slo_window_s=10.0,
            seed=1,
            chain_length=2,
        ),
        "2ea77bd6adf8a95ba08c793069803ca749d6b6a47cdf3d46f3c49d1d010ab439",
    ),
    "scenario": (
        lambda: scenario_matrix(
            seed=3,
            n_jobs=3,
            n_nodes=4,
            data_scale=0.05,
            deadline_slack=1.0,
            chain_length=2,
        ),
        "b2635671741dc794db7c7c6b875e9348fc10db0071b64b577931212010a2cb68",
    ),
}


@pytest.mark.parametrize("executor", ["serial", "batch"])
@pytest.mark.parametrize("workload", sorted(STORE_HASHES))
def test_store_content_hash(tmp_path, workload, executor):
    matrix, expected = STORE_HASHES[workload]
    repository = TraceRepository(tmp_path)
    ScenarioCampaign(
        matrix(),
        repository=repository,
        executor=None if executor == "serial" else batch_executor(),
    ).run()
    assert repository.artifacts.content_hash() == expected


# ----------------------------------------------------------------------
# the chained-upstream guard, once per workload
# ----------------------------------------------------------------------
WORKLOADS = {
    "scenario": (
        ScenarioConfig(seed=5, n_nodes=4, n_jobs=3, data_scale=0.05),
        run_scenario,
        dict(provider_name="google", instance_name="gce-4core"),
    ),
    "serving": (
        ServingConfig(
            seed=11, n_nodes=4, rate_rps=10.0, duration_s=10.0,
            slo_window_s=5.0,
        ),
        run_serving,
        dict(provider_name="fixed", instance_name="fixed-9gbps"),
    ),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def chained(request):
    """A workload's two-link chain with the head already run."""
    base, run, other_provider = WORKLOADS[request.param]
    head, tail = chain(base, 2)
    return run, tail, run(head), other_provider


@pytest.mark.parametrize(
    "guard", ["no_upstream", "no_fabric_state", "provider", "node_count"]
)
def test_chain_guard(chained, guard):
    run, tail, upstream, other_provider = chained
    if guard == "no_upstream":
        upstream, match = None, "no upstream"
    elif guard == "no_fabric_state":
        upstream = dataclasses.replace(upstream, fabric_state=None)
        match = "carries no fabric state"
    elif guard == "provider":
        tail = dataclasses.replace(tail, **other_provider)
        match = "provider incarnation"
    else:
        tail = dataclasses.replace(tail, n_nodes=6)
        match = "nodes, this cell needs 6"
    with pytest.raises(ValueError, match=match):
        run(tail, upstream=upstream)


def test_recorder_observes_a_scenario_cell_without_changing_it():
    config, _, _ = WORKLOADS["scenario"]
    recorder = ObsRecorder()
    observed = run_scenario(config, recorder=recorder)
    bare = run_scenario(config)
    assert observed.runtimes.tolist() == bare.runtimes.tolist()
    assert observed.fabric_state == bare.fabric_state
    assert len(recorder.tracer.spans("job")) == config.n_jobs


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
def test_campaign_rejects_mixed_workloads():
    scenario, _, _ = WORKLOADS["scenario"]
    serving, _, _ = WORKLOADS["serving"]
    with pytest.raises(ValueError, match="one workload"):
        ScenarioCampaign([scenario, serving])


# ----------------------------------------------------------------------
# shard manifests written by earlier versions
# ----------------------------------------------------------------------
DAG_HEAD = {
    "provider_name": "amazon", "instance_name": "c5.xlarge", "n_nodes": 4,
    "slots": 4, "n_jobs": 2, "arrival_rate_per_min": 2.0,
    "arrival": "poisson", "scheduler": "fifo", "workload": "mixed",
    "data_scale": 0.05, "seed": 5, "deadline_slack": 0.0,
    "predecessor": None,
}
SERVING_HEAD = {
    "provider_name": "hpccloud", "instance_name": "hpccloud-8core",
    "n_nodes": 4, "topology": "three_tier", "depth": 3, "breadth": 2,
    "arrival": "poisson", "rate_rps": 10.0, "duration_s": 10.0,
    "users": 0, "think_s": 1.0, "payload_scale": 1.0, "slo_p50_ms": 0.0,
    "slo_p99_ms": 250.0, "slo_p999_ms": 0.0, "slo_window_s": 5.0,
    "seed": 11, "predecessor": None,
}
LEGACY_MANIFESTS = {
    "scenario": dict(
        fn="repro.scenarios.orchestrate:run_scenario_payload",
        encode="repro.scenarios.orchestrate:encode_scenario_result",
        decode="repro.scenarios.orchestrate:decode_scenario_result",
        head=DAG_HEAD,
        keys=("scn-e51b424d13d454d6", "scn-eac4ce5da0c2eb05"),
        config=ScenarioConfig,
    ),
    "serving": dict(
        fn="repro.serving.scenario:run_serving_payload",
        encode="repro.serving.scenario:encode_serving_result",
        decode="repro.serving.scenario:decode_serving_result",
        head=SERVING_HEAD,
        keys=("srv-3b307d52001a6de2", "srv-59afa6831d278963"),
        config=ServingConfig,
    ),
}


def _write_manifest(path, spec, entries):
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "shard": 0,
                "n_shards": 1,
                "encode": spec["encode"],
                "decode": spec["decode"],
                "cells": entries,
            }
        )
    )
    return path


@pytest.mark.parametrize("workload", sorted(LEGACY_MANIFESTS))
def test_legacy_manifest_runs_into_the_serial_store(tmp_path, workload):
    spec = LEGACY_MANIFESTS[workload]
    head_key, tail_key = spec["keys"]
    head = {"fn": spec["fn"], "key": head_key, "payload": spec["head"]}
    tail = {
        "fn": spec["fn"],
        "key": tail_key,
        "after": head_key,
        "payload": {**spec["head"], "seed": spec["head"]["seed"] + 1,
                    "predecessor": head_key},
    }
    store = tmp_path / "shard-store"
    # Pass 1 stores the head; pass 2 finds it cached, so the tail's
    # upstream comes back through the manifest's decode ref.
    run_manifest(_write_manifest(tmp_path / "a.json", spec, [head]), store,
                 echo=None)
    summary = run_manifest(
        _write_manifest(tmp_path / "b.json", spec, [head, tail]), store,
        echo=None,
    )
    assert summary["computed"] == (tail_key,)

    serial = TraceRepository(tmp_path / "serial")
    configs = chain(spec["config"](**spec["head"]), 2)
    assert [c.key for c in configs] == [head_key, tail_key]
    ScenarioCampaign(configs, repository=serial).run()
    assert (
        ArtifactStore(store).content_hash()
        == serial.artifacts.content_hash()
    )
