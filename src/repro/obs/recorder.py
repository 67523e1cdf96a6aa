"""The simulation-time observability recorder.

An :class:`ObsRecorder` plugs into :meth:`SparkEngine.run_stream
<repro.simulator.engine.SparkEngine.run_stream>` (and
:func:`~repro.scenarios.orchestrate.run_scenario`) and turns a run
into:

* **metrics** — counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry` (task completions,
  preemptions, deadline misses, shaper throttles/redraws, latency
  histograms);
* **scrapes** — engine/fabric state (runnable stages, active flows,
  free slots, token-budget totals, per-tenant queue depth, preemption
  count) sampled every ``scrape_interval_s`` *simulated* seconds into
  :class:`~repro.trace.TimeSeries`-compatible series;
* **sliding-window quantiles** — streaming P² p50/p99/p99.9 of task
  latency and queueing delay per tumbling ``window_s`` window
  (:class:`~repro.obs.quantiles.WindowedQuantiles`);
* **spans/events** — job, stage, task-group, and flow spans plus
  admission/launch/preempt/deadline-miss/shaper events in a
  :class:`~repro.obs.spans.SpanTracer`, exportable to Chrome
  trace-event JSON.

The contract that makes this safe to ship on by default in tooling:
the recorder only ever *reads* simulator state — it draws no random
numbers, mutates no budgets, and reorders no floating-point work — so
results with a recorder attached are bit-identical to results without
one (pinned by the golden-trace and bench-checksum determinism tests).
When no recorder is passed the engine's hot loop pays exactly one
``is not None`` check per event step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.quantiles import WindowedQuantiles
from repro.obs.spans import SpanTracer
from repro.trace import TimeSeries

__all__ = ["ObsRecorder"]


class ObsRecorder:
    """Records metrics, scrapes, quantiles, and spans for one run.

    Create one recorder per ``run_stream`` call; pass
    ``trace_flows=False`` to skip per-flow spans on very large streams
    (flows dominate span volume).  All hook methods are invoked by the
    event core: the DAG stream engine calls the job/stage/task/flow
    hooks, and every step epilogue calls :meth:`observe_shapers`, which
    reads the shaper ceilings itself.  User code only reads the
    results afterwards:
    :attr:`registry`, :meth:`series`, :attr:`task_latency` /
    :attr:`queueing_delay` (``.rows()`` / ``.summary()``), and
    :attr:`tracer` (``.to_chrome_trace()`` / ``.to_jsonl()``).
    """

    def __init__(
        self,
        scrape_interval_s: float = 5.0,
        window_s: float = 300.0,
        quantiles: tuple[float, ...] = (0.5, 0.99, 0.999),
        trace_flows: bool = True,
    ) -> None:
        if scrape_interval_s <= 0:
            raise ValueError("scrape_interval_s must be positive")
        self.scrape_interval_s = float(scrape_interval_s)
        self.trace_flows = bool(trace_flows)
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()
        self.task_latency = WindowedQuantiles(window_s, quantiles)
        self.queueing_delay = WindowedQuantiles(window_s, quantiles)

        reg = self.registry
        self._c_admitted = reg.counter(
            "repro_sim_jobs_admitted_total", "Jobs admitted to the stream"
        )
        self._c_finished = reg.counter(
            "repro_sim_jobs_finished_total", "Jobs that completed"
        )
        self._c_groups = reg.counter(
            "repro_sim_task_groups_launched_total", "Task groups launched"
        )
        self._c_tasks = reg.counter(
            "repro_sim_tasks_completed_total", "Tasks completed"
        )
        self._c_preempt = reg.counter(
            "repro_sim_preemptions_total", "Task groups checkpoint-preempted"
        )
        self._c_miss = reg.counter(
            "repro_sim_deadline_misses_total", "Jobs that finished late"
        )
        self._c_flows_open = reg.counter(
            "repro_sim_flows_opened_total", "Fabric flows opened"
        )
        self._c_flows_closed = reg.counter(
            "repro_sim_flows_closed_total",
            "Fabric flows closed, by result (completed/cancelled)",
        )
        self._c_throttle = reg.counter(
            "repro_sim_shaper_throttles_total",
            "Shaper ceiling drops (token bucket depleted), by node",
        )
        self._c_redraw = reg.counter(
            "repro_sim_shaper_redraws_total",
            "Shaper ceiling raises/redraws, by node",
        )
        self._h_latency = reg.histogram(
            "repro_sim_task_latency_seconds",
            "Task-group launch to task completion, sim seconds",
        )
        self._h_queue = reg.histogram(
            "repro_sim_queueing_delay_seconds",
            "Job submission to first task launch, sim seconds",
        )
        self._g_makespan = reg.gauge(
            "repro_sim_makespan_seconds", "Stream makespan so far"
        )
        self._gauges = {
            name: reg.gauge("repro_sim_" + name, help)
            for name, help in (
                ("runnable_stages", "Stages with launchable tasks"),
                ("active_flows", "Flows currently on the fabric"),
                ("free_slots", "Unoccupied executor slots"),
                ("running_tasks", "Tasks occupying slots"),
                ("queued_tasks", "Admitted tasks not yet launched"),
                ("budget_total_gbit", "Sum of shaper token budgets"),
            )
        }

        # Scrape storage: plain appended lists, one column per signal.
        self._scrape_times: list[float] = []
        self._scrape_cols: dict[str, list[float]] = {
            "runnable_stages": [],
            "active_flows": [],
            "free_slots": [],
            "running_tasks": [],
            "queued_tasks": [],
            "budget_total_gbit": [],
            "preemptions_total": [],
        }
        self._tenant_names: list[str] = []
        self._tenant_depth: dict[str, list[float]] = {}
        self._job_tracks: dict[int, str] = {}
        self._last_scrape_t = -math.inf

        # Span bookkeeping.
        self._job_spans: dict[int, int] = {}
        self._stage_spans: dict[tuple[int, int], int] = {}
        self._group_spans: dict[int, int] = {}
        self._flow_spans: dict[int, int] = {}
        self._jobs_started: set[int] = set()

        self._last_limits: np.ndarray | None = None

    # -- wiring (called by the engine) ------------------------------------
    def bind_stream(self, state) -> None:
        """Register a stream's job roster and snapshot its shaper
        ceilings (called by the engine)."""
        self._last_limits = state.fabric.fleet.limits()
        seen: dict[str, int] = {}
        names: list[str] = []
        for job in state.jobs:
            name = job.name
            count = seen.get(name, 0)
            seen[name] = count + 1
            if count:
                name = f"{name}#{count}"
            names.append(name)
        self._tenant_names = names
        pad = [0.0] * len(self._scrape_times)
        for j, name in enumerate(names):
            self._tenant_depth.setdefault(name, list(pad))
            self._job_tracks[j] = "job:" + name

    # -- engine event hooks -----------------------------------------------
    def on_job_admitted(self, state, j: int) -> None:
        t = state.now
        track = self._job_tracks.get(j, "jobs")
        name = self._tenant_names[j] if j < len(self._tenant_names) else str(j)
        self._c_admitted.inc()
        self.tracer.event("admit", "sched", t, track, submit_s=state.submits[j])
        self._job_spans[j] = self.tracer.begin(
            name, "job", t, track, submit_s=state.submits[j]
        )

    def on_stage_start(self, state, j: int, index: int) -> None:
        stage = state.jobs[j].stages[index]
        self._stage_spans[(j, index)] = self.tracer.begin(
            stage.name,
            "stage",
            state.now,
            self._job_tracks.get(j, "jobs"),
            tasks=stage.num_tasks,
        )

    def on_group_launch(self, state, group) -> None:
        t = state.now
        j = group.job_index
        if j not in self._jobs_started:
            self._jobs_started.add(j)
            delay = t - state.submits[j]
            self.queueing_delay.add(t, delay)
            self._h_queue.observe(delay)
        track = self._job_tracks.get(j, "jobs")
        stage = state.jobs[j].stages[group.stage_index]
        self._c_groups.inc()
        self.tracer.event(
            "launch",
            "sched",
            t,
            track,
            stage=stage.name,
            node=group.node,
            n_tasks=group.n_tasks,
        )
        self._group_spans[id(group)] = self.tracer.begin(
            f"{stage.name}[{group.n_tasks}]",
            "taskgroup",
            t,
            track,
            node=group.node,
        )

    def on_group_preempt(self, state, group) -> None:
        t = state.now
        self._c_preempt.inc()
        track = self._job_tracks.get(group.job_index, "jobs")
        self.tracer.event(
            "preempt",
            "sched",
            t,
            track,
            node=group.node,
            tasks_lost=group.n_tasks - group.n_done,
        )
        span = self._group_spans.pop(id(group), None)
        if span is not None:
            self.tracer.end(span, t, preempted=True)
        for flow in group.flows:
            flow_span = self._flow_spans.pop(flow.flow_id, None)
            if flow_span is not None:
                self._c_flows_closed.inc(result="cancelled")
                self.tracer.end(flow_span, t, cancelled=True)

    def on_flow_open(self, state, flow, group) -> None:
        self._c_flows_open.inc()
        if self.trace_flows:
            self._flow_spans[flow.flow_id] = self.tracer.begin(
                f"flow {flow.src}->{flow.dst}",
                "flow",
                state.now,
                "fabric",
                volume_gbit=round(flow.remaining_gbit, 6),
            )

    def on_flow_close(self, state, flow) -> None:
        self._c_flows_closed.inc(result="completed")
        span = self._flow_spans.pop(flow.flow_id, None)
        if span is not None:
            self.tracer.end(span, state.now)

    def on_task_done(self, state, group) -> None:
        t = state.now
        latency = t - group.t_launch
        self._c_tasks.inc()
        self.task_latency.add(t, latency)
        self._h_latency.observe(latency)
        if group.n_done >= group.n_tasks:
            span = self._group_spans.pop(id(group), None)
            if span is not None:
                self.tracer.end(span, t)

    def on_stage_end(self, state, j: int, index: int) -> None:
        span = self._stage_spans.pop((j, index), None)
        if span is not None:
            self.tracer.end(span, state.now)

    def on_job_finish(self, state, j: int) -> None:
        t = state.now
        self._c_finished.inc()
        span = self._job_spans.pop(j, None)
        if span is not None:
            self.tracer.end(span, t)
        deadline = state.deadlines[j]
        if not math.isinf(deadline) and t > deadline + 1e-9:
            self._c_miss.inc()
            self.tracer.event(
                "deadline_miss",
                "sched",
                t,
                self._job_tracks.get(j, "jobs"),
                deadline_s=deadline,
                late_s=t - deadline,
            )

    def observe_shapers(self, state) -> None:
        """Book the shaper ceilings that changed over the last step.

        Called by the event core once per step, as soon as sim time
        reaches the end of the step just integrated.  Compares the
        fleet's ceilings with those seen last: a link whose ceiling
        dropped is a throttle (its token bucket depleted), any other
        change a redraw.
        """
        limits = state.fabric.fleet.limits()
        last = self._last_limits
        # Most steps move no ceiling; comparing bytes is the cheapest
        # exact test on arrays this small.
        if limits.tobytes() == last.tobytes():
            return
        t = state.now
        for i in np.flatnonzero(limits != last).tolist():
            new = float(limits[i])
            if new < float(last[i]):
                self._c_throttle.inc(node=str(i))
                self.tracer.event(
                    "shaper_throttle", "fabric", t, "fabric",
                    node=i, limit_gbps=new,
                )
            else:
                self._c_redraw.inc(node=str(i))
                self.tracer.event(
                    "shaper_redraw", "fabric", t, "fabric",
                    node=i, limit_gbps=new,
                )
        self._last_limits = limits

    # -- scraping -----------------------------------------------------------
    def maybe_scrape(self, state, force: bool = False) -> None:
        """Sample engine/fabric state every ``scrape_interval_s``."""
        now = state.now
        if (
            not force
            and now - self._last_scrape_t
            < self.scrape_interval_s - 1e-12
        ):
            return
        self._last_scrape_t = now
        finished = state.finished
        runnable = state._runnable
        admitted_n = state._next_arrival
        runnable_stages = 0
        queued = 0.0
        for j in state._admitted:
            if finished[j]:
                continue
            runnable_stages += len(runnable[j])
            queued += state._job_tasks[j] - state._launched_total[j]
        total_slots = state.engine.cluster.total_slots
        running = float(total_slots - state._free_total)
        active_flows = float(len(state.fabric.flows))
        budgets = state.fabric.fleet.budgets()
        budget_total = float(np.sum(budgets)) if budgets is not None else 0.0
        cols = self._scrape_cols
        self._scrape_times.append(now)
        cols["runnable_stages"].append(float(runnable_stages))
        cols["active_flows"].append(active_flows)
        cols["free_slots"].append(float(state._free_total))
        cols["running_tasks"].append(running)
        cols["queued_tasks"].append(queued)
        cols["budget_total_gbit"].append(budget_total)
        cols["preemptions_total"].append(self._c_preempt.value())
        for j, name in enumerate(self._tenant_names):
            depth = 0.0
            if j < admitted_n and not finished[j]:
                depth = float(state._job_tasks[j] - state._launched_total[j])
            self._tenant_depth[name].append(depth)
        gauges = self._gauges
        gauges["runnable_stages"].set(float(runnable_stages))
        gauges["active_flows"].set(active_flows)
        gauges["free_slots"].set(float(state._free_total))
        gauges["running_tasks"].set(running)
        gauges["queued_tasks"].set(queued)
        gauges["budget_total_gbit"].set(budget_total)
        self._g_makespan.set(now)

    def finalize(self, state) -> None:
        """End-of-run flush: final scrape, close dangling spans."""
        self.maybe_scrape(state, force=True)
        self.tracer.close_open_spans(state.now)
        self._g_makespan.set(state.now)

    # -- results -------------------------------------------------------------
    def series(self) -> dict[str, TimeSeries]:
        """The scraped signals as named :class:`~repro.trace.TimeSeries`.

        Aggregate signals under their scrape-column names, plus one
        ``tenant_queue_depth/<job>`` series per tenant.
        """
        times = np.asarray(self._scrape_times, dtype=float)
        out = {
            name: TimeSeries(times, np.asarray(col, dtype=float), label=name)
            for name, col in self._scrape_cols.items()
        }
        for name, depths in self._tenant_depth.items():
            padded = depths + [0.0] * (len(times) - len(depths))
            out[f"tenant_queue_depth/{name}"] = TimeSeries(
                times,
                np.asarray(padded, dtype=float),
                label=f"queue-depth {name}",
            )
        return out

    def render_prometheus(self) -> str:
        """Final metric values in Prometheus text exposition format."""
        return self.registry.render_prometheus()

