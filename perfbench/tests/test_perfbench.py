"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench/tests``)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_unit(workload, tmp_path, tracer=None):
    state = workload.build(workload.inputs(workloads.DEFAULT_SEED)[0], tmp_path)
    if tracer is None:
        result = workload.run(state)
    else:
        with tracer.installed(), tracer.span("run"):
            result = workload.run(state)
    return workload.outputs(state, result)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_is_bit_identical_to_untraced(name, tmp_path):
    workload = workloads.WORKLOADS[name](tiny=True)
    plain = run_unit(workload, tmp_path / "plain")
    tracer = tracing.Tracer()
    traced = run_unit(workload, tmp_path / "traced", tracer)
    assert traced == plain
    assert plain[1] == plain[2] > 0  # every unit completed
    assert tracer.check_nesting() == []
    metrics = tracer.layer_metrics(traced[0])
    assert set(metrics) | {"setup.import_s", "setup.inputs_s", "setup.build_s",
                           "trace.overhead_pct"} == set(tracing.PER_LAYER)


def test_tracer_restores_the_program():
    from repro.netmodel.fleet import TokenBucketFleet
    from repro.runtime import worker
    from repro.simulator.fabric import Fabric

    before = (Fabric.compute_rates, vars(TokenBucketFleet)["advance"], worker.run_manifest)
    with tracing.Tracer().installed():
        assert Fabric.compute_rates is not before[0]
    assert (Fabric.compute_rates, vars(TokenBucketFleet)["advance"], worker.run_manifest) == before


def test_metric_names_and_units():
    for group, expected in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        entries = SPEC[group]
        assert {e["name"]: e["unit"] for e in entries} == expected
        for entry in entries:
            assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert set(run.THROUGHPUT_NAMES) == set(workloads.WORKLOADS)


def test_reference_mismatch_fails_every_unit(tmp_path):
    workload = workloads.WORKLOADS["serving_flash"](tiny=True)
    state = workload.build(workload.inputs(workloads.DEFAULT_SEED)[0], tmp_path)
    outputs, attempted, completed = workload.outputs(state, workload.run(state))
    checker = run.Checker(workload, [dict(outputs, n_steps=outputs["n_steps"] + 1)])
    checker.record(0, state, outputs, attempted, completed)
    assert checker.failed == checker.attempted == attempted
    assert checker.problems


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "serving_flash",
         "--seed", "3", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else tracing.PER_LAYER
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(re.fullmatch(rf"{re.escape(name)} = \S+ {re.escape(unit)}", line) for line in lines)
    assert any(line.startswith("error_rate = ") for line in lines)
