"""Tests for multi-job stream execution on a shared fabric."""

import math

import numpy as np
import pytest

from repro.netmodel import ConstantRateModel, TokenBucketModel, TokenBucketParams
from repro.simulator import Cluster, JobSpec, NodeSpec, SparkEngine, StageSpec

TB_PARAMS = TokenBucketParams(
    peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=0.95, capacity_gbit=5_400.0
)


def constant_cluster(n=2, rate=10.0, slots=4):
    return Cluster(
        n_nodes=n,
        node_spec=NodeSpec(slots=slots),
        link_model_factory=lambda node: ConstantRateModel(rate),
    )


def bucket_cluster(budget, n=12):
    def factory(node):
        return TokenBucketModel(TB_PARAMS.with_budget(budget))

    return Cluster.paper_testbed(factory)


def shuffle_job(name="job", shuffle=100.0, tasks=8, compute=1.0, cov=0.0):
    return JobSpec(
        name=name,
        stages=(
            StageSpec(name="map", num_tasks=tasks, compute_s=compute, compute_cov=cov),
            StageSpec(
                name="reduce",
                num_tasks=tasks,
                compute_s=compute,
                compute_cov=cov,
                shuffle_gbit=shuffle,
                parents=(0,),
            ),
        ),
    )


def compute_job(name="cpu", tasks=8, compute=3.0):
    return JobSpec(
        name=name,
        stages=(StageSpec(name="only", num_tasks=tasks, compute_s=compute, compute_cov=0.0),),
    )


class TestStreamBasics:
    def test_single_job_stream_matches_run(self):
        job = shuffle_job(shuffle=2_000.0, tasks=48, compute=5.0, cov=0.2)
        direct = SparkEngine(bucket_cluster(100.0), rng=np.random.default_rng(7)).run(job)
        stream = SparkEngine(
            bucket_cluster(100.0), rng=np.random.default_rng(7)
        ).run_stream([(0.0, job)])
        assert len(stream) == 1
        assert stream.job_results[0].runtime_s == direct.runtime_s
        assert stream.makespan_s == direct.runtime_s

    def test_sequential_arrivals_do_not_overlap(self):
        # Second job arrives long after the first finishes: its response
        # time equals a solo run of the same job.
        cluster = constant_cluster(n=2)
        job = compute_job(tasks=8, compute=3.0)
        solo = SparkEngine(constant_cluster(n=2), rng=np.random.default_rng(0)).run(job)
        result = SparkEngine(cluster, rng=np.random.default_rng(0)).run_stream(
            [(0.0, job), (100.0, job)]
        )
        second = result.job_results[1]
        assert second.submit_s == 100.0
        assert second.runtime_s == pytest.approx(solo.runtime_s)
        assert result.makespan_s == pytest.approx(100.0 + solo.runtime_s)

    def test_fifo_contention_delays_later_job(self):
        # Two single-wave compute jobs submitted together on one wave of
        # slots: FIFO runs them back to back.
        cluster = constant_cluster(n=2)
        a = compute_job("a", tasks=8, compute=3.0)
        b = compute_job("b", tasks=8, compute=3.0)
        result = SparkEngine(cluster, rng=np.random.default_rng(0)).run_stream(
            [(0.0, a), (0.0, b)], scheduler="fifo"
        )
        ra, rb = result.job_results
        assert ra.runtime_s == pytest.approx(3.0)
        assert rb.runtime_s == pytest.approx(6.0)
        assert result.queueing_delays()[1] == pytest.approx(3.0)

    def test_fair_shares_slots(self):
        # Same two jobs under fair scheduling: each gets half the slots,
        # so both finish together after two waves.
        cluster = constant_cluster(n=2)
        a = compute_job("a", tasks=8, compute=3.0)
        b = compute_job("b", tasks=8, compute=3.0)
        result = SparkEngine(cluster, rng=np.random.default_rng(0)).run_stream(
            [(0.0, a), (0.0, b)], scheduler="fair"
        )
        ra, rb = result.job_results
        assert ra.runtime_s == pytest.approx(6.0)
        assert rb.runtime_s == pytest.approx(6.0)

    def test_fair_is_not_fifo_under_staggered_arrivals(self):
        # Job A grabs the whole cluster before B arrives.  A true fair
        # scheduler must hand freed slots to B (the job below its fair
        # share) instead of letting A reclaim them one by one, so B
        # finishes much earlier than under FIFO.
        a = compute_job("a", tasks=40, compute=3.0)
        b = compute_job("b", tasks=8, compute=3.0)
        arrivals = [(0.0, a), (1.0, b)]
        fifo = SparkEngine(constant_cluster(n=2), rng=np.random.default_rng(0)).run_stream(
            arrivals, scheduler="fifo"
        )
        fair = SparkEngine(constant_cluster(n=2), rng=np.random.default_rng(0)).run_stream(
            arrivals, scheduler="fair"
        )
        fifo_b = fifo.job_results[1].runtime_s
        fair_b = fair.job_results[1].runtime_s
        # FIFO: B waits for all five of A's waves (finishes t=18).
        assert fifo_b == pytest.approx(17.0)
        # Fair: B gets its share as soon as A's first wave frees slots.
        assert fair_b < 0.6 * fifo_b
        # A pays for it: fair trades A's latency for B's.
        assert fair.job_results[0].runtime_s > fifo.job_results[0].runtime_s

    def test_results_ordered_by_submission(self):
        cluster = constant_cluster(n=2)
        result = SparkEngine(cluster, rng=np.random.default_rng(0)).run_stream(
            [(50.0, compute_job("late")), (0.0, compute_job("early"))]
        )
        assert [r.job_name for r in result.job_results] == ["early", "late"]
        assert result.rows()[0]["job"] == "early"

    def test_validation(self):
        engine = SparkEngine(constant_cluster())
        with pytest.raises(ValueError):
            engine.run_stream([])
        with pytest.raises(ValueError):
            engine.run_stream([(0.0, compute_job())], scheduler="lottery")
        with pytest.raises(ValueError):
            engine.run_stream([(-1.0, compute_job())])

    @pytest.mark.parametrize("entry", ["run_stream", "stream_state"])
    @pytest.mark.parametrize(
        "submit_s, deadline_s",
        [(math.nan, None), (math.inf, None), (0.0, math.nan), (0.0, -math.inf)],
        ids=["nan-submit", "inf-submit", "nan-deadline", "neg-inf-deadline"],
    )
    def test_non_finite_inputs_rejected(self, entry, submit_s, deadline_s):
        # Left through, a NaN submit deadlocks at t=0, an inf submit
        # deadlocks once the other jobs finish, a NaN deadline is never
        # reported missed, and a -inf deadline precedes every submission.
        engine = SparkEngine(constant_cluster())
        stream = [
            (0.0, compute_job("other")),
            (submit_s, compute_job(), deadline_s),
        ]
        with pytest.raises(ValueError):
            getattr(engine, entry)(stream)

    @pytest.mark.parametrize("entry", ["run_stream", "stream_state"])
    def test_arrivals_may_be_any_iterable(self, entry):
        def arrivals():
            return ((10.0 * i, compute_job(f"j{i}")) for i in range(3))

        def run(stream):
            engine = SparkEngine(constant_cluster(), rng=np.random.default_rng(0))
            if entry == "stream_state":
                return engine.stream_state(stream).execute()
            return engine.run_stream(stream)

        lazy = run(arrivals())
        assert [r.job_name for r in lazy.job_results] == ["j0", "j1", "j2"]
        assert lazy.runtimes().tolist() == run(list(arrivals())).runtimes().tolist()

    @pytest.mark.parametrize("deadline", [math.inf, None])
    def test_infinite_or_missing_deadline_means_none(self, deadline):
        engine = SparkEngine(constant_cluster(), rng=np.random.default_rng(0))
        result = engine.run_stream([(0.0, compute_job(), deadline)])
        assert result.job_results[0].deadline_missed is None


class TestStreamCarryOver:
    def test_bucket_depletion_carries_into_later_jobs(self):
        # A heavy shuffle empties the shared buckets (400 Gbit egress
        # per node); a probe job arriving afterwards meets depleted
        # buckets and runs slower than on a fresh cluster (Figure 19,
        # multi-tenant form).
        heavy = shuffle_job("heavy", shuffle=4_800.0, tasks=48, compute=1.0)
        probe = shuffle_job("probe", shuffle=2_400.0, tasks=48, compute=1.0)
        fresh = SparkEngine(bucket_cluster(400.0), rng=np.random.default_rng(0)).run(probe)
        engine = SparkEngine(bucket_cluster(400.0), rng=np.random.default_rng(0))
        heavy_alone = SparkEngine(
            bucket_cluster(400.0), rng=np.random.default_rng(0)
        ).run(heavy)
        stream = engine.run_stream(
            [(0.0, heavy), (heavy_alone.runtime_s + 10.0, probe)]
        )
        assert stream.job_results[1].runtime_s > 1.2 * fresh.runtime_s

    def test_contention_slows_both_tenants(self):
        job_a = shuffle_job("a", shuffle=1_200.0, tasks=48, compute=1.0)
        job_b = shuffle_job("b", shuffle=1_200.0, tasks=48, compute=1.0)
        solo = SparkEngine(bucket_cluster(5_000.0), rng=np.random.default_rng(0)).run(job_a)
        both = SparkEngine(
            bucket_cluster(5_000.0), rng=np.random.default_rng(0)
        ).run_stream([(0.0, job_a), (0.0, job_b)], scheduler="fair")
        assert min(r.runtime_s for r in both.job_results) > solo.runtime_s

    def test_stream_telemetry_spans_makespan(self):
        job = shuffle_job(shuffle=1_000.0, tasks=48, compute=1.0)
        result = SparkEngine(
            bucket_cluster(400.0), rng=np.random.default_rng(0)
        ).run_stream([(0.0, job), (30.0, job)])
        assert result.sample_times[0] == 0.0
        assert result.sample_times[-1] == pytest.approx(result.makespan_s)
        assert result.budgets is not None
        assert result.egress_rates.shape[0] == 12
        # Per-job telemetry is windowed to the job's active interval.
        second = result.job_results[1]
        assert second.sample_times[0] >= second.submit_s - 1e-9
        assert second.sample_times[-1] <= second.finish_s + 1e-9


class TestStreamDeterminism:
    def test_same_seed_bit_identical(self):
        jobs = [
            (0.0, shuffle_job("a", shuffle=1_500.0, tasks=48, compute=5.0, cov=0.2)),
            (20.0, shuffle_job("b", shuffle=800.0, tasks=24, compute=2.0, cov=0.2)),
            (45.0, compute_job("c", tasks=24, compute=4.0)),
        ]

        def run():
            engine = SparkEngine(bucket_cluster(500.0), rng=np.random.default_rng(11))
            return engine.run_stream(jobs, scheduler="fair")

        r1, r2 = run(), run()
        assert [a.runtime_s for a in r1.job_results] == [
            b.runtime_s for b in r2.job_results
        ]
        assert np.array_equal(r1.sample_times, r2.sample_times)
        assert np.array_equal(r1.egress_rates, r2.egress_rates)
