"""Equivalence contract for the batched multi-stream runner.

``repro.simulator.multistream.run_cores`` over
``SparkEngine.stream_state`` cores must reproduce N serial
``run_stream`` calls *bit for bit* — same job runtimes, same stage
windows, same telemetry floats, same step counts — for every
scheduler, every fleet class, and mixed-completion batches where cells
finish at very different times.  These tests pin that contract, plus
the ``concat_fleets`` view-aliasing semantics the runner is built on.
"""

import math

import numpy as np
import pytest

from repro.netmodel import (
    ConstantRateModel,
    TokenBucketModel,
    TokenBucketParams,
)
from repro.netmodel.fleet import (
    ConstantRateFleet,
    PerCoreQosFleet,
    ResamplingFleet,
    ScalarFleetAdapter,
    TokenBucketFleet,
    build_fleet,
    concat_fleets,
)
from repro.netmodel.percore import PerCoreQosModel
from repro.netmodel.stochastic import UniformQuantileSamplingModel
from repro.scenarios.generate import job_stream, poisson_arrivals
from repro.simulator import Cluster, NodeSpec, SparkEngine
from repro.simulator.multistream import run_cores

_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=0.95,
    capacity_gbit=60.0,
    resume_threshold_gbit=10.0,
)

#: Small bucket that flips tiers both ways within a few seconds.
_OSC_BUCKET = TokenBucketParams(
    peak_gbps=10.0,
    capped_gbps=1.0,
    replenish_gbps=1.05,
    capacity_gbit=8.0,
    resume_threshold_gbit=1.0,
)


def _make_cell(seed, scheduler, n_nodes=5, n_jobs=4, model_factory=None):
    """One small stream cell; fresh RNG state per call, keyed by seed."""
    if model_factory is None:
        model_factory = lambda node: TokenBucketModel(_BUCKET)
    rng = np.random.default_rng(seed)
    cluster = Cluster(
        n_nodes=n_nodes,
        node_spec=NodeSpec(slots=4),
        link_model_factory=model_factory,
    )
    times = poisson_arrivals(rng, rate_per_min=3.0, n_jobs=n_jobs)
    stream = job_stream(
        rng, times, n_nodes=n_nodes, slots=4, data_scale=0.15
    )
    if scheduler == "edf":
        stream = [
            (t, job, t + 400.0 + 100.0 * i)
            for i, (t, job) in enumerate(stream)
        ]
    engine = SparkEngine(cluster, rng=rng, sample_interval_s=5.0)
    return engine, stream


def _snapshot(result):
    """Full-fidelity projection of a StreamResult for == comparison."""
    return {
        "scheduler": result.scheduler,
        "makespan": result.makespan_s,
        "n_steps": result.n_steps,
        "runtimes": [r.runtime_s for r in result.job_results],
        "finishes": [r.finish_s for r in result.job_results],
        "windows": [
            sorted(r.stage_windows.items()) for r in result.job_results
        ],
        "tasks": [r.tasks_per_node.tolist() for r in result.job_results],
        "sample_times": result.sample_times.tolist(),
        "egress": result.egress_rates.tolist(),
        "budgets": None if result.budgets is None else result.budgets.tolist(),
    }


class TestRunStreamsEquivalence:
    @pytest.mark.parametrize(
        "scheduler", ["fifo", "fair", "srpt", "edf", "preempt"]
    )
    def test_matches_serial_per_scheduler(self, scheduler):
        seeds = [101, 202, 303]
        serial = [
            _snapshot(
                _make_cell(seed, scheduler)[0].run_stream(
                    _make_cell(seed, scheduler)[1], scheduler=scheduler
                )
            )
            for seed in seeds
        ]
        states = []
        for seed in seeds:
            engine, stream = _make_cell(seed, scheduler)
            states.append(engine.stream_state(stream, scheduler=scheduler))
        batched = [_snapshot(r) for r in run_cores(states)]
        assert batched == serial

    def test_mixed_schedulers_in_one_batch(self):
        schedulers = ["fifo", "fair", "srpt", "edf", "preempt"]
        serial = []
        for i, sched in enumerate(schedulers):
            engine, stream = _make_cell(500 + i, sched)
            serial.append(_snapshot(engine.run_stream(stream, scheduler=sched)))
        states = []
        for i, sched in enumerate(schedulers):
            engine, stream = _make_cell(500 + i, sched)
            states.append(engine.stream_state(stream, scheduler=sched))
        assert [_snapshot(r) for r in run_cores(states)] == serial

    def test_uneven_cell_lifetimes(self):
        # One tiny 1-job cell drains long before a 6-job cell: the
        # finished cell must ride along as a no-op without perturbing
        # the survivor.
        specs = [(1, 900), (6, 901), (2, 902)]
        serial = []
        for n_jobs, seed in specs:
            engine, stream = _make_cell(seed, "fair", n_jobs=n_jobs)
            serial.append(_snapshot(engine.run_stream(stream, scheduler="fair")))
        states = []
        for n_jobs, seed in specs:
            engine, stream = _make_cell(seed, "fair", n_jobs=n_jobs)
            states.append(engine.stream_state(stream, scheduler="fair"))
        assert [_snapshot(r) for r in run_cores(states)] == serial

    def test_heterogeneous_node_counts(self):
        serial = []
        for n_nodes, seed in [(3, 71), (6, 72), (4, 73)]:
            engine, stream = _make_cell(seed, "fifo", n_nodes=n_nodes)
            serial.append(_snapshot(engine.run_stream(stream, scheduler="fifo")))
        states = []
        for n_nodes, seed in [(3, 71), (6, 72), (4, 73)]:
            engine, stream = _make_cell(seed, "fifo", n_nodes=n_nodes)
            states.append(engine.stream_state(stream, scheduler="fifo"))
        assert [_snapshot(r) for r in run_cores(states)] == serial

    def test_percore_fleet_cells(self):
        factory = lambda node: PerCoreQosModel(cores=4, seed=9000 + node)
        serial = []
        for seed in (31, 32):
            engine, stream = _make_cell(seed, "fair", model_factory=factory)
            serial.append(_snapshot(engine.run_stream(stream, scheduler="fair")))
        states = []
        for seed in (31, 32):
            engine, stream = _make_cell(seed, "fair", model_factory=factory)
            states.append(engine.stream_state(stream, scheduler="fair"))
        assert [_snapshot(r) for r in run_cores(states)] == serial

    def test_mixed_fleet_classes_rejected(self):
        engine, stream = _make_cell(1, "fifo")
        s1 = engine.stream_state(stream)
        engine, stream = _make_cell(
            2, "fifo", model_factory=lambda n: ConstantRateModel(8.0)
        )
        s2 = engine.stream_state(stream)
        with pytest.raises(ValueError, match="one class"):
            run_cores([s1, s2])

    def test_empty_batch(self):
        assert run_cores([]) == []

    def test_single_cell_batch(self):
        engine, stream = _make_cell(55, "fair")
        serial = _snapshot(engine.run_stream(stream, scheduler="fair"))
        engine, stream = _make_cell(55, "fair")
        [result] = run_cores([engine.stream_state(stream, scheduler="fair")])
        assert _snapshot(result) == serial

    def test_validation_matches_run_stream(self):
        engine, stream = _make_cell(1, "fifo")
        with pytest.raises(ValueError, match="unknown scheduler"):
            engine.stream_state(stream, scheduler="nope")
        with pytest.raises(ValueError, match="at least one job"):
            engine.stream_state([])


class TestConcatFleets:
    def _bucket_fleet(self, n, seed=0):
        return build_fleet([TokenBucketModel(_BUCKET) for _ in range(n)])

    def test_views_alias_super_arrays(self):
        fleets = [self._bucket_fleet(3), self._bucket_fleet(2)]
        sup = concat_fleets(fleets)
        assert isinstance(sup, TokenBucketFleet)
        assert sup.n == 5
        # Writes through the super-fleet surface in the members...
        sup._budget[0] = 12.5
        assert fleets[0]._budget[0] == 12.5
        # ...and scalar-model writes surface in the super-fleet.
        fleets[1].models[1].set_budget(0.0)
        assert sup._budget[4] == 0.0
        assert bool(sup._throttled[4])
        # _sync_thresholds stays in place (aliasing survives a flip).
        fleets[1]._sync_thresholds()
        assert np.shares_memory(fleets[1]._flip_threshold, sup._flip_threshold)

    def test_advance_many_matches_scalar_advance_per_cell(self):
        # The batched driver's per-cell step: ``advance`` with one dt per
        # link on the super-fleet equals a float-dt ``advance`` per cell.
        fleets = [self._bucket_fleet(2), self._bucket_fleet(3)]
        ref = [self._bucket_fleet(2), self._bucket_fleet(3)]
        sup = concat_fleets(fleets)
        rng = np.random.default_rng(4)
        for _ in range(50):
            dts = rng.uniform(0.0, 3.0, size=2)
            sends = rng.uniform(0.0, 6.0, size=5)
            changed = sup.advance(np.repeat(dts, [2, 3]), sends)
            ref_changed = [
                ref[0].advance(float(dts[0]), sends[:2]),
                ref[1].advance(float(dts[1]), sends[2:]),
            ]
            if not changed:
                assert ref_changed == [False, False]
            else:
                links = sup.changed_links
                assert [bool(links[:2].any()), bool(links[2:].any())] == (
                    ref_changed
                )
            assert fleets[0]._budget.tolist() == ref[0]._budget.tolist()
            assert fleets[1]._budget.tolist() == ref[1]._budget.tolist()
            assert fleets[0]._throttled.tolist() == ref[0]._throttled.tolist()
            assert fleets[1]._throttled.tolist() == ref[1]._throttled.tolist()

    def test_resampling_fleet_concat(self):
        from repro.netmodel.distributions import QuantileDistribution

        dist = QuantileDistribution(
            probs=(0.01, 0.5, 0.99), values=(4.0, 8.0, 10.0)
        )

        def fleet(seed):
            return build_fleet(
                [
                    UniformQuantileSamplingModel(
                        dist, interval_s=7.0, seed=seed + i
                    )
                    for i in range(2)
                ]
            )

        fleets = [fleet(0), fleet(10)]
        ref = [fleet(0), fleet(10)]
        assert isinstance(fleets[0], ResamplingFleet)
        sup = concat_fleets(fleets)
        rng = np.random.default_rng(5)
        sends = np.zeros(4)
        for _ in range(30):
            dts = rng.uniform(0.0, 9.0, size=2)
            sup.advance(np.repeat(dts, [2, 2]), sends)
            ref[0].advance(float(dts[0]), sends[:2])
            ref[1].advance(float(dts[1]), sends[2:])
            assert fleets[0].limits().tolist() == ref[0].limits().tolist()
            assert fleets[1].limits().tolist() == ref[1].limits().tolist()

    def test_per_link_dt_matches_float_dt_twins(self):
        # Concatenate two members of unequal size, step the super-fleet
        # with one dt per link (some zero) and each member's twin with
        # that cell's float dt: every class must agree byte for byte,
        # and the per-cell OR of ``changed_links`` must equal each
        # twin's return value.
        from repro.netmodel.distributions import QuantileDistribution

        dist = QuantileDistribution(
            probs=(0.01, 0.5, 0.99), values=(4.0, 8.0, 10.0)
        )

        def resampling(seed):
            return UniformQuantileSamplingModel(
                dist, interval_s=4.0 + seed % 5, seed=seed
            )

        def percore(seed):
            return PerCoreQosModel(
                cores=4, interval_s=3.0 + seed % 4, idle_reset_s=2.0, seed=seed
            )

        mixed = (lambda s: TokenBucketModel(_OSC_BUCKET), resampling, percore)
        factories = {
            TokenBucketFleet: lambda s: TokenBucketModel(_OSC_BUCKET),
            ConstantRateFleet: lambda s: ConstantRateModel(4.0 + s % 3),
            ResamplingFleet: resampling,
            PerCoreQosFleet: percore,
            ScalarFleetAdapter: lambda s: mixed[s % 3](s),
        }
        sizes = [2, 3]
        cuts = [0, 2, 5]
        for cls, factory in factories.items():

            def member(k):
                return cls([factory(10 * k + i) for i in range(sizes[k])])

            fleets = [member(0), member(1)]
            twins = [member(0), member(1)]
            sup = concat_fleets(fleets)
            assert type(sup) is cls
            rng = np.random.default_rng(4)
            seen_change = False
            for _ in range(120):
                dts = rng.uniform(0.0, 3.0, size=2)
                dts[rng.random(2) < 0.25] = 0.0
                sends = rng.uniform(0.0, 6.0, size=5)
                sends[rng.random(5) < 0.3] = 0.0
                parts = [sends[cuts[k] : cuts[k + 1]] for k in range(2)]
                assert sup.horizons(sends).tobytes() == b"".join(
                    twin.horizons(part).tobytes()
                    for twin, part in zip(twins, parts)
                ), cls.__name__
                changed = sup.advance(np.repeat(dts, sizes), sends)
                cells = [False, False]
                if changed:
                    cells = np.logical_or.reduceat(
                        sup.changed_links, cuts[:-1]
                    ).tolist()
                twin_changed = [
                    twin.advance(float(dt), part)
                    for twin, dt, part in zip(twins, dts, parts)
                ]
                assert cells == twin_changed, cls.__name__
                seen_change = seen_change or changed
                for fleet, twin in zip(fleets, twins):
                    assert fleet.limits().tobytes() == twin.limits().tobytes()
                    budgets = fleet.budgets()
                    want = twin.budgets()
                    if want is None:
                        assert budgets is None, cls.__name__
                    else:
                        assert budgets.tobytes() == want.tobytes(), cls.__name__
            assert seen_change or cls is ConstantRateFleet, cls.__name__

    def test_mixed_classes_rejected(self):
        bucket = self._bucket_fleet(2)
        const = build_fleet([ConstantRateModel(5.0) for _ in range(2)])
        with pytest.raises(ValueError, match="one class"):
            concat_fleets([bucket, const])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            concat_fleets([])

    def test_percore_fleet_concat_is_percore(self):
        def fleet(seed):
            return build_fleet(
                [PerCoreQosModel(cores=4, seed=seed + i) for i in range(2)]
            )

        sup = concat_fleets([fleet(0), fleet(5)])
        assert isinstance(sup, PerCoreQosFleet)
        assert sup.n == 4
        assert math.isfinite(float(sup.limits().sum()))


class TestCampaignBatchExecutor:
    def test_batched_campaign_matches_serial(self, tmp_path):
        from repro.scenarios.orchestrate import scenario_matrix
        from repro.workload import ScenarioCampaign, batch_executor

        configs = scenario_matrix(
            providers=("amazon", "google"),
            arrival_rates=(2.0,),
            schedulers=("fifo", "fair"),
            n_jobs=3,
            n_nodes=4,
            seed=11,
        )
        serial = ScenarioCampaign(configs).run()
        batched = ScenarioCampaign(
            configs, executor=batch_executor(batch_size=3)
        ).run()
        assert serial.results.keys() == batched.results.keys()
        for sid, a in serial.results.items():
            b = batched.results[sid]
            assert a.aggregate_row() == b.aggregate_row()
            assert a.runtimes.tolist() == b.runtimes.tolist()
            assert a.fabric_state == b.fabric_state
            assert a.n_steps == b.n_steps

    def test_batched_campaign_with_chains(self):
        from repro.scenarios.orchestrate import ScenarioConfig
        from repro.workload import ScenarioCampaign, batch_executor, chain

        base = ScenarioConfig(n_nodes=4, n_jobs=2, seed=3)
        configs = chain(base, 3) + [
            ScenarioConfig(n_nodes=4, n_jobs=2, seed=99)
        ]
        serial = ScenarioCampaign(configs).run()
        batched = ScenarioCampaign(
            configs, executor=batch_executor(batch_size=4)
        ).run()
        assert serial.results.keys() == batched.results.keys()
        for sid, a in serial.results.items():
            b = batched.results[sid]
            assert a.aggregate_row() == b.aggregate_row()
            assert a.fabric_state == b.fabric_state
