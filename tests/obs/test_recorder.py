"""Determinism and content tests for the in-simulation recorder.

The load-bearing contract: attaching an :class:`ObsRecorder` to
``run_stream`` must not change a single bit of the simulation output,
under every scheduler.  The golden-trace suite pins this against the
frozen fixture for the fair scheduler; here the equivalence is checked
scheduler-by-scheduler, and the recorder's own contents are validated
for consistency.
"""

import math

import numpy as np
import pytest

from repro.obs import NullRecorder, ObsRecorder
from repro.obs.metrics import parse_prometheus_text
from repro.netmodel import TokenBucketModel
from repro.simulator import SCHEDULERS, Cluster, NodeSpec, SparkEngine
from repro.simulator import _kernels
from tests.simulator.test_golden_trace import _BUCKET, _snapshot


def _run(scheduler, recorder=None, deadline_s=None):
    """The golden reference stream (6 jobs, shaped 6-node cluster)."""
    from repro.scenarios.generate import job_stream, poisson_arrivals

    rng = np.random.default_rng(20260727)
    cluster = Cluster(
        n_nodes=6,
        node_spec=NodeSpec(slots=4),
        link_model_factory=lambda node: TokenBucketModel(_BUCKET),
    )
    times = poisson_arrivals(rng, rate_per_min=3.0, n_jobs=6)
    stream = job_stream(rng, times, n_nodes=6, slots=4, data_scale=0.15)
    if deadline_s is not None:
        # Deadlines are absolute sim times; give every job the same
        # (hopeless) slack after its own submission.
        stream = [(t, job, t + deadline_s) for t, job in stream]
    engine = SparkEngine(cluster, rng=rng, sample_interval_s=5.0)
    return engine.run_stream(stream, scheduler=scheduler, recorder=recorder)


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_recorder_never_perturbs_the_simulation(self, scheduler):
        bare = _run(scheduler)
        recorder = ObsRecorder(scrape_interval_s=7.0, window_s=120.0)
        observed = _run(scheduler, recorder=recorder)
        assert _snapshot(bare) == _snapshot(observed)
        assert bare.n_steps == observed.n_steps
        # The recorder actually recorded the run it rode along on.
        assert recorder.task_latency.count > 0
        assert len(recorder.tracer.spans("job")) == 6

    def test_null_recorder_is_discarded_up_front(self):
        bare = _run("fair")
        nulled = _run("fair", recorder=NullRecorder())
        assert _snapshot(bare) == _snapshot(nulled)


class TestRecorderContents:
    @pytest.fixture(scope="class")
    def recorder(self):
        recorder = ObsRecorder(scrape_interval_s=5.0, window_s=60.0)
        _run("fair", recorder=recorder)
        return recorder

    def test_counters_balance(self, recorder):
        reg = recorder.registry
        admitted = reg.counter("repro_sim_jobs_admitted_total").value()
        finished = reg.counter("repro_sim_jobs_finished_total").value()
        assert admitted == finished == 6.0
        opened = reg.counter("repro_sim_flows_opened_total").value()
        closed = reg.counter("repro_sim_flows_closed_total").value(
            result="completed"
        )
        assert opened == closed > 0

    def test_latency_histogram_matches_quantile_stream(self, recorder):
        h = recorder.registry.histogram("repro_sim_task_latency_seconds")
        assert h.count() == recorder.task_latency.count > 0
        summary = recorder.task_latency.summary()
        assert 0.0 < summary["p50"] <= summary["p99"] <= summary["p999"]

    def test_scrapes_form_aligned_series(self, recorder):
        series = recorder.series()
        times = series["active_flows"].times
        assert times.size > 1
        assert np.all(np.diff(times) > 0)
        for ts in series.values():
            assert ts.values.size == times.size
        # One queue-depth series per tenant, all drained by the end.
        depth_series = [
            ts
            for name, ts in series.items()
            if name.startswith("tenant_queue_depth/")
        ]
        assert len(depth_series) == 6
        assert all(ts.values[-1] == 0.0 for ts in depth_series)

    def test_prometheus_render_parses(self, recorder):
        samples = parse_prometheus_text(recorder.render_prometheus())
        assert samples[("repro_sim_jobs_finished_total", ())] == 6.0
        assert ("repro_sim_makespan_seconds", ()) in samples

    def test_spans_are_well_formed(self, recorder):
        for span in recorder.tracer.spans():
            assert span["t1"] >= span["t0"]
        assert len(recorder.tracer.spans("stage")) > 0
        assert len(recorder.tracer.spans("taskgroup")) > 0
        assert len(recorder.tracer.spans("flow")) > 0
        trace = recorder.tracer.to_chrome_trace()
        assert len(trace["traceEvents"]) > len(recorder.tracer.records())

    def test_shaper_transitions_recorded(self):
        # A big shuffle through nearly-drained buckets must deplete
        # them: the fleet fires the transition hook and the recorder
        # books one throttle per capped node.
        from repro.netmodel import TokenBucketParams
        from repro.simulator import JobSpec, StageSpec

        params = TokenBucketParams(
            peak_gbps=10.0,
            capped_gbps=1.0,
            replenish_gbps=0.95,
            capacity_gbit=400.0,
            initial_budget_gbit=5.0,
        )
        cluster = Cluster(
            n_nodes=2,
            node_spec=NodeSpec(slots=4),
            link_model_factory=lambda node: TokenBucketModel(params),
        )
        job = JobSpec(
            name="shuffler",
            stages=(
                StageSpec(
                    name="map", num_tasks=4, compute_s=0.5, compute_cov=0.0
                ),
                StageSpec(
                    name="reduce",
                    num_tasks=4,
                    compute_s=0.5,
                    compute_cov=0.0,
                    shuffle_gbit=200.0,
                    parents=(0,),
                ),
            ),
        )
        recorder = ObsRecorder()
        engine = SparkEngine(cluster, rng=np.random.default_rng(1))
        engine.run_stream([(0.0, job)], scheduler="fair", recorder=recorder)
        throttles = recorder.registry.counter(
            "repro_sim_shaper_throttles_total"
        )
        assert sum(throttles.samples().values()) > 0
        assert any(
            e["name"] == "shaper_throttle"
            for e in recorder.tracer.events("fabric")
        )


class TestActiveFlowsGauge:
    def test_gauge_counts_live_flows_only(self, monkeypatch):
        # Completed flows leave tombstoned slots in the fabric's arrays
        # until the next squeeze; the gauge must count live flows.  The
        # compiled leg squeezes before every water-fill, so pin the
        # scalar leg, where scrapes see tombstones.
        monkeypatch.setattr(_kernels, "HAVE_JIT", False)
        scrapes = []

        class Probe(ObsRecorder):
            def maybe_scrape(self, state, force=False):
                before = len(self._scrape_times)
                super().maybe_scrape(state, force=force)
                if len(self._scrape_times) > before:
                    fabric = state.fabric
                    scrapes.append(
                        (
                            self._gauges["active_flows"].value(),
                            self._scrape_cols["active_flows"][-1],
                            len(fabric.flows),
                            fabric._n,
                        )
                    )

        recorder = Probe(scrape_interval_s=1.0, window_s=60.0)
        _run("fair", recorder=recorder)
        closed = recorder.registry.counter("repro_sim_flows_closed_total")
        assert closed.value(result="completed") > 0
        assert scrapes
        for gauge, column, live, _ in scrapes:
            assert gauge == column == live
        # The run did scrape with tombstones present, so a slot count
        # would have disagreed.
        assert any(slots > live for _, _, live, slots in scrapes)


class TestRecorderOptions:
    def test_rejects_nonpositive_scrape_interval(self):
        with pytest.raises(ValueError):
            ObsRecorder(scrape_interval_s=0.0)

    def test_trace_flows_off_counts_but_does_not_span(self):
        recorder = ObsRecorder(trace_flows=False)
        _run("fair", recorder=recorder)
        assert recorder.tracer.spans("flow") == []
        opened = recorder.registry.counter(
            "repro_sim_flows_opened_total"
        ).value()
        assert opened > 0

    def test_preempt_scheduler_emits_preempt_events(self):
        recorder = ObsRecorder()
        _run("preempt", recorder=recorder)
        preempts = recorder.registry.counter(
            "repro_sim_preemptions_total"
        ).value()
        events = [
            e
            for e in recorder.tracer.events("sched")
            if e["name"] == "preempt"
        ]
        assert preempts == len(events)
        cancelled = recorder.registry.counter(
            "repro_sim_flows_closed_total"
        ).value(result="cancelled")
        assert cancelled >= 0

    def test_deadline_misses_counted(self):
        recorder = ObsRecorder()
        result = _run("fair", recorder=recorder, deadline_s=1.0)
        missed = sum(
            1 for job in result.job_results if job.deadline_missed
        )
        assert missed > 0
        counted = recorder.registry.counter(
            "repro_sim_deadline_misses_total"
        ).value()
        assert counted == missed
        assert any(
            e["name"] == "deadline_miss"
            for e in recorder.tracer.events("sched")
        )
