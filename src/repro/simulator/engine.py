"""The Spark-like execution engine.

Executes a :class:`~repro.simulator.tasks.JobSpec` on a
:class:`~repro.simulator.cluster.Cluster` whose nodes send through
shaped egress links.  The engine reproduces the structure that makes
the paper's application-level results emerge:

* reduce stages shuffle-fetch from the nodes that ran their parents,
  so per-node token-bucket state shapes stage timing;
* tasks launch in waves onto executor slots; a wave's fetches from one
  source aggregate into a single *channel* flow (equivalent for
  equal-size, simultaneous fetches, and it keeps the fluid simulation
  fast);
* node budgets persist across jobs when the caller reuses a fabric —
  the carry-over that breaks iid repetitions in Figure 19;
* per-node egress rates and bucket budgets are recorded continuously,
  which is exactly what Figures 15 and 18 plot.

The scheduler is FIFO over stages (Spark's default within a job):
a stage becomes runnable when all its parents complete, and its tasks
are handed to free executor slots round-robin across nodes.

:meth:`SparkEngine.run_stream` generalizes the same machinery to a
*stream* of jobs arriving over time on one shared cluster/fabric —
the multi-tenant situation the scenarios subsystem sweeps.  Jobs
contend for executor slots under one of five schedulers:

* ``fifo`` — arrival order drains first (Spark's default);
* ``fair`` — active jobs split slots evenly, with deficit accounting
  so freed slots go to tenants below their share first and remainder
  slots spill round-robin across equally deficient peers;
* ``preempt`` — fair, plus preemption: when a starved tenant cannot
  reach its share because an over-share job holds every slot, the
  over-share job's most recently launched task groups are checkpointed
  back to their stage queue (flows withdrawn, slots freed; the tasks
  restart from scratch when relaunched);
* ``srpt`` — shortest remaining processing time: jobs ranked by
  outstanding expected task-seconds, the smallest drains first;
* ``edf`` — earliest deadline first, ordered by slack (deadline minus
  now minus the job's remaining work spread over the cluster); jobs
  without a deadline rank last.  Arrivals optionally carry a deadline
  as a third tuple element, and :class:`StreamResult` reports
  per-tenant slowdown and deadline-miss telemetry.

Because the fabric is shared, token-bucket depletion caused by one job
carries over into its successors — the Figure 19 mechanism generalized
to contended runs.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.simulator.cluster import Cluster
from repro.simulator.core import MAX_STEPS, EventCore
from repro.simulator.fabric import Fabric, Flow
from repro.simulator.tasks import JobSpec, StageSpec
from repro.trace import TimeSeries

__all__ = ["SparkEngine", "JobResult", "StreamResult", "rest_fabric", "SCHEDULERS"]

#: Safety valve: a single job may not need more steps than this.
#: (Defined by the event core; re-exported here for the historical name.)
_MAX_STEPS = MAX_STEPS

#: Slot-scheduling policies understood by :meth:`SparkEngine.run_stream`.
SCHEDULERS: tuple[str, ...] = ("fifo", "fair", "preempt", "srpt", "edf")


class _TaskGroup:
    """A wave of same-stage tasks launched together on one node."""

    __slots__ = (
        "job_index",
        "stage_index",
        "node",
        "n_tasks",
        "n_done",
        "pending_flows",
        "extra_compute_s",
        "flows",
        "cancelled",
        "t_launch",
    )

    def __init__(
        self, job_index: int, stage_index: int, node: int, n_tasks: int
    ) -> None:
        self.job_index = job_index
        self.stage_index = stage_index
        self.node = node
        self.n_tasks = n_tasks
        self.n_done = 0
        self.pending_flows = 0
        self.extra_compute_s = 0.0
        #: Sim time the group launched; the recorder's task-latency base.
        self.t_launch = 0.0
        #: Live flow handles, kept so preemption can withdraw them.
        self.flows: list[Flow] = []
        #: Set when the group is preempted; queued compute completions
        #: of a cancelled group are discarded at the heap.
        self.cancelled = False


@dataclass
class JobResult:
    """Everything one job run produced."""

    job_name: str
    runtime_s: float
    #: ``{stage_name: (start_s, end_s)}``
    stage_windows: dict[str, tuple[float, float]]
    #: Telemetry sample times.
    sample_times: np.ndarray
    #: ``egress_rates[node]`` aligned with :attr:`sample_times` (Gbps).
    egress_rates: np.ndarray
    #: ``budgets[node]`` aligned with :attr:`sample_times` (Gbit), or
    #: ``None`` when the shapers expose no budget.
    budgets: np.ndarray | None
    #: Tasks completed per node (over all stages).
    tasks_per_node: np.ndarray
    #: When the job entered the system (0 for standalone runs).
    submit_s: float = 0.0
    #: When the job's last stage completed (``submit_s + runtime_s``).
    finish_s: float = 0.0
    #: Absolute completion deadline (``inf`` when none was set).
    deadline_s: float = math.inf
    #: Contention-free service-time proxy: the job's expected compute
    #: task-seconds spread over every slot in the cluster.  The
    #: denominator of :attr:`slowdown`.
    service_estimate_s: float = 0.0

    @property
    def slowdown(self) -> float:
        """Response time over the ideal service-time proxy (>= 0).

        The classic scheduling metric: 1.0 means the tenant saw the
        cluster as if alone and perfectly parallel; queueing, slot
        contention, and shaped-network transfer time all inflate it.
        """
        if self.service_estimate_s <= 0:
            return math.inf
        return self.runtime_s / self.service_estimate_s

    @property
    def deadline_missed(self) -> bool | None:
        """Whether the job finished past its deadline; None without one."""
        if math.isinf(self.deadline_s):
            return None
        return self.finish_s > self.deadline_s + 1e-9

    def node_bandwidth_series(self, node: int) -> TimeSeries:
        """Egress-rate time series for one node (Figure 15/18 panels)."""
        return TimeSeries(
            self.sample_times, self.egress_rates[node], label=f"node{node}-egress"
        )

    def node_budget_series(self, node: int) -> TimeSeries:
        """Budget time series for one node; raises when not recorded."""
        if self.budgets is None:
            raise ValueError("shapers exposed no budget; nothing recorded")
        return TimeSeries(
            self.sample_times, self.budgets[node], label=f"node{node}-budget"
        )

    def throttled_fraction(self, node: int, threshold_gbit: float = 1.0) -> float:
        """Fraction of samples a node's budget sat at/below ``threshold``."""
        if self.budgets is None:
            raise ValueError("shapers exposed no budget; nothing recorded")
        series = self.budgets[node]
        if series.size == 0:
            return 0.0
        return float(np.mean(series <= threshold_gbit))

    def straggler_nodes(self, threshold_gbit: float = 1.0) -> list[int]:
        """Nodes that depleted their budget while most others did not.

        Figure 18's situation: one node oscillating at the low QoS while
        the rest of the deployment stays fast.
        """
        if self.budgets is None:
            return []
        fractions = [
            self.throttled_fraction(n, threshold_gbit)
            for n in range(self.budgets.shape[0])
        ]
        median = float(np.median(fractions))
        return [
            n
            for n, frac in enumerate(fractions)
            if frac > 0.05 and frac > 4 * max(median, 0.005)
        ]


@dataclass
class StreamResult:
    """Everything one multi-job stream execution produced.

    Per-job details (stage windows, task placement, response times)
    live in :attr:`job_results`, ordered by submission; the telemetry
    arrays span the whole stream because egress shaping is a property
    of the shared cluster, not of any single job.
    """

    scheduler: str
    job_results: list[JobResult]
    makespan_s: float
    sample_times: np.ndarray
    egress_rates: np.ndarray
    budgets: np.ndarray | None
    #: Event steps the fluid simulation integrated (perf diagnostics:
    #: wall time / ``n_steps`` is the per-step cost, and event-horizon
    #: coalescing shows up as fewer steps for the same makespan).
    n_steps: int = 0

    def __len__(self) -> int:
        return len(self.job_results)

    def runtimes(self) -> np.ndarray:
        """Per-job response times (finish - submit), in submit order.

        Queueing behind earlier jobs counts: this is the latency a
        tenant observes, the quantity scenario campaigns aggregate.
        """
        return np.asarray([r.runtime_s for r in self.job_results])

    def queueing_delays(self) -> np.ndarray:
        """Seconds each job waited before its first task launched."""
        delays = []
        for result in self.job_results:
            first_start = min(w[0] for w in result.stage_windows.values())
            delays.append(first_start - result.submit_s)
        return np.asarray(delays)

    def slowdowns(self) -> np.ndarray:
        """Per-tenant slowdown (response over ideal service), submit order."""
        return np.asarray([r.slowdown for r in self.job_results])

    def deadline_misses(self) -> np.ndarray:
        """Boolean miss flags for the jobs that carried a deadline."""
        return np.asarray(
            [
                bool(r.deadline_missed)
                for r in self.job_results
                if r.deadline_missed is not None
            ],
            dtype=bool,
        )

    def deadline_miss_rate(self) -> float:
        """Fraction of deadlined jobs that finished late (0.0 if none)."""
        misses = self.deadline_misses()
        if misses.size == 0:
            return 0.0
        return float(np.mean(misses))

    def rows(self) -> list[dict]:
        """Printable per-job rows."""
        rows = []
        for r in self.job_results:
            row = {
                "job": r.job_name,
                "submit_s": round(r.submit_s, 1),
                "finish_s": round(r.finish_s, 1),
                "runtime_s": round(r.runtime_s, 1),
                "slowdown": round(r.slowdown, 2),
            }
            if r.deadline_missed is not None:
                row["deadline_s"] = round(r.deadline_s, 1)
                row["missed"] = r.deadline_missed
            rows.append(row)
        return rows


class SparkEngine:
    """Runs job DAGs on a cluster with shaped per-node egress."""

    def __init__(
        self,
        cluster: Cluster,
        rng: np.random.Generator | None = None,
        #: Per-node multiplier on shuffle-source shares; index 0 > 1
        #: models the driver/HDFS-master imbalance that creates the
        #: Figure 18 straggler.
        node_data_skew: list[float] | None = None,
        #: Telemetry sampling resolution; steps shorter than this still
        #: record, longer steps are recorded once (piecewise constant).
        sample_interval_s: float = 1.0,
    ) -> None:
        self.cluster = cluster
        self.rng = rng or np.random.default_rng(0)
        if node_data_skew is None:
            node_data_skew = [1.0] * cluster.n_nodes
        if len(node_data_skew) != cluster.n_nodes:
            raise ValueError("one skew factor per node required")
        if any(s <= 0 for s in node_data_skew):
            raise ValueError("skew factors must be positive")
        self.node_data_skew = list(node_data_skew)
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.sample_interval_s = float(sample_interval_s)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        job: JobSpec,
        fabric: Fabric | None = None,
        recorder=None,
        scheduler: str = "fifo",
    ) -> JobResult:
        """Execute ``job``; returns runtimes and telemetry.

        Passing an existing ``fabric`` preserves shaper state across
        runs (budget carry-over); omitting it builds a fresh one
        ("fresh VMs for every experiment", the F5.4 recommendation).
        ``recorder`` attaches an :class:`~repro.obs.ObsRecorder`;
        ``scheduler`` picks the slot policy (see :data:`SCHEDULERS` —
        with a single job the policies mostly coincide, but preempt's
        group tracking and fair's share accounting are exercised).
        """
        state = self.stream_state(
            [(0.0, job)], fabric=fabric, scheduler=scheduler, recorder=recorder
        )
        return state.execute().job_results[0]

    def run_stream(
        self,
        arrivals: Sequence[tuple],
        fabric: Fabric | None = None,
        scheduler: str = "fifo",
        recorder=None,
    ) -> StreamResult:
        """Execute a stream of jobs sharing this cluster's fabric.

        ``arrivals`` pairs each job with its submission time (seconds
        from stream start): ``(submit_s, job)``, optionally extended to
        ``(submit_s, job, deadline_s)`` where ``deadline_s`` is an
        absolute completion deadline (``None``/``inf`` for no
        deadline).  Jobs contend for executor slots under ``scheduler``
        (see :data:`SCHEDULERS`; "edf" orders by deadline slack, the
        others ignore deadlines but still report miss telemetry).  All
        jobs share one fabric, so token-bucket state one job depletes
        is the state the next job meets — the Figure 19 carry-over
        generalized to multi-tenant contention.  Passing an existing
        ``fabric`` additionally carries shaper state in from earlier
        work.

        ``recorder`` attaches an :class:`~repro.obs.ObsRecorder` that
        collects metrics, sim-time scrapes, streaming quantiles, and
        spans for this run.  Recorders only observe — results are
        bit-identical with and without one.
        """
        return self.stream_state(
            arrivals, fabric=fabric, scheduler=scheduler, recorder=recorder
        ).execute()

    def stream_state(
        self,
        arrivals: Sequence[tuple],
        fabric: Fabric | None = None,
        scheduler: str = "fifo",
        recorder=None,
    ) -> "_StreamState":
        """Validate a stream and build its unstarted event core.

        Takes :meth:`run_stream`'s arguments and returns the
        :class:`~repro.simulator.core.EventCore` that ``run_stream``
        executes: call ``execute()`` on it to run it alone, or pass
        several to :func:`repro.simulator.multistream.run_cores` to run
        them in lockstep (bit-identical per stream).  ``fabric`` is
        built from the cluster when omitted.
        """
        arrivals = list(arrivals)
        self.validate_stream(arrivals, scheduler)
        if fabric is None:
            fabric = self.cluster.build_fabric()
        return _StreamState(
            self, arrivals, fabric, scheduler=scheduler, recorder=recorder
        )

    @staticmethod
    def validate_stream(arrivals: Sequence[tuple], scheduler: str) -> None:
        """Reject malformed streams before any state is built.

        Each entry is ``(submit_s, job)`` or ``(submit_s, job,
        deadline_s)`` with a :class:`JobSpec` job.  Submission times
        must be finite and non-negative.  A deadline of ``None`` or
        ``inf`` means none; any other deadline must be a number no
        earlier than its submission.
        """
        if not arrivals:
            raise ValueError("a stream needs at least one job")
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
            )
        for index, entry in enumerate(arrivals):
            if not (
                isinstance(entry, (tuple, list))
                and len(entry) in (2, 3)
                and isinstance(entry[1], JobSpec)
            ):
                raise ValueError(
                    f"arrival {index} is not (submit_s, job) or "
                    "(submit_s, job, deadline_s) with a JobSpec job"
                )
            submit_s = float(entry[0])
            if not math.isfinite(submit_s) or submit_s < 0:
                raise ValueError(
                    f"submission time {submit_s} is not finite and non-negative"
                )
            if len(entry) > 2 and entry[2] is not None:
                deadline = float(entry[2])
                if math.isnan(deadline):
                    raise ValueError("a deadline cannot be NaN")
                if deadline != math.inf and deadline < submit_s:
                    raise ValueError(
                        f"deadline {deadline} precedes submission {submit_s}"
                    )

    def run_repetitions(
        self,
        job: JobSpec,
        repetitions: int,
        fresh_fabric: bool = True,
        rest_between_s: float = 0.0,
        scheduler: str = "fifo",
        recorder=None,
    ) -> list[JobResult]:
        """Run a job repeatedly under a chosen reset policy.

        ``fresh_fabric=False`` reuses one fabric across repetitions so
        shaper state (token budgets) carries over — the scenario that
        invalidates CI analysis in Figure 19.  ``rest_between_s`` lets
        buckets refill between runs, the paper's cheaper alternative to
        fresh VMs.

        ``scheduler`` and ``recorder`` forward to :meth:`run` for each
        repetition.  A single recorder observes *all* repetitions
        cumulatively: every run rebinds it and restarts sim time at 0,
        so counters and spans accumulate across repetitions while
        sliding-window quantiles fold every repetition into the same
        windows — the right view for rep-over-rep variability, pass a
        fresh recorder per call for per-run isolation.  As everywhere,
        recorders only observe: results are bit-identical with and
        without one.
        """
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if rest_between_s < 0:
            raise ValueError("rest cannot be negative")
        results: list[JobResult] = []
        fabric = None if fresh_fabric else self.cluster.build_fabric()
        for _ in range(repetitions):
            results.append(
                self.run(job, fabric=fabric, recorder=recorder, scheduler=scheduler)
            )
            if fabric is not None and rest_between_s > 0:
                rest_fabric(fabric, rest_between_s)
        return results

    # ------------------------------------------------------------------
    # helpers used by _RunState
    # ------------------------------------------------------------------
    def sample_compute_time(self, stage: StageSpec) -> float:
        """Per-task compute duration: lognormal around the stage mean."""
        if stage.compute_s == 0:
            return 0.0
        cov = stage.compute_cov
        if cov == 0:
            return stage.compute_s
        sigma = math.sqrt(math.log(1.0 + cov**2))
        mu = math.log(stage.compute_s) - sigma**2 / 2.0
        return float(self.rng.lognormal(mean=mu, sigma=sigma))


def rest_fabric(fabric: Fabric, duration_s: float) -> None:
    """Let every shaper idle for ``duration_s`` (buckets refill).

    Delegates to :meth:`~repro.netmodel.fleet.LinkModelFleet.rest`,
    which rests each node's model through its own
    :meth:`~repro.netmodel.base.LinkModel.rest` (a token bucket refills
    in one closed-form step).  Shaper ceilings may change while
    resting, so the fabric's rate assignment is invalidated; a
    recorder attached to the next run snapshots the rested ceilings
    when that run binds it.
    """
    fabric.fleet.rest(duration_s)
    fabric.invalidate_rates()


class _StreamState(EventCore):
    """DAG-stream workload over the event core (1..n jobs).

    The generic event machinery — simulated time, the timer heap,
    telemetry buffers, the begin/prologue/epilogue/finish protocol —
    lives in :class:`~repro.simulator.core.EventCore`; this class
    implements the :class:`~repro.simulator.core.WorkloadSource` hooks
    for job streams: arrivals admit jobs, dispatch launches task waves
    under the configured scheduler, timers are task-compute
    completions, and flows are shuffle/input fetches.
    """

    def __init__(
        self,
        engine: SparkEngine,
        arrivals: list[tuple],
        fabric: Fabric,
        scheduler: str,
        recorder=None,
    ) -> None:
        super().__init__(engine, fabric, recorder=recorder)
        self.scheduler = scheduler
        # Stable sort: ties keep caller submission order (FIFO tiebreak).
        order = sorted(range(len(arrivals)), key=lambda i: arrivals[i][0])
        self.submits = [float(arrivals[i][0]) for i in order]
        self.jobs = [arrivals[i][1] for i in order]
        self.deadlines = [
            math.inf
            if len(arrivals[i]) < 3 or arrivals[i][2] is None
            else float(arrivals[i][2])
            for i in order
        ]
        n_jobs = len(self.jobs)
        n_nodes = engine.cluster.n_nodes
        self.launched = [[0] * len(job.stages) for job in self.jobs]
        self.done = [[0] * len(job.stages) for job in self.jobs]
        self.stage_start = [[math.inf] * len(job.stages) for job in self.jobs]
        self.stage_end = [[math.inf] * len(job.stages) for job in self.jobs]
        self.tasks_run = [
            np.zeros((len(job.stages), n_nodes), dtype=float) for job in self.jobs
        ]
        self.finished = [False] * n_jobs
        self._n_finished = 0
        self._skew_arr = np.asarray(engine.node_data_skew)
        self.finish_times = [math.inf] * n_jobs
        self._next_arrival = 0
        self._admitted: list[int] = []
        self.free_slots = [engine.cluster.node_spec.slots] * n_nodes
        self._free_total = sum(self.free_slots)
        self._rr_node = 0
        self.max_steps = _MAX_STEPS * n_jobs
        # Incremental runnable-stage tracking: a stage is runnable while
        # every parent has completed and it still has tasks to launch.
        # Maintained at stage-completion and launch-exhaustion events so
        # launch passes never rescan O(jobs x stages) state.
        self._pending_parents = [
            [len(set(stage.parents)) for stage in job.stages] for job in self.jobs
        ]
        self._children: list[list[list[int]]] = []
        for job in self.jobs:
            children: list[list[int]] = [[] for _ in job.stages]
            for index, stage in enumerate(job.stages):
                for parent in set(stage.parents):
                    children[parent].append(index)
            self._children.append(children)
        self._runnable = [
            [i for i, n_pending in enumerate(pending) if n_pending == 0]
            for pending in self._pending_parents
        ]
        # O(1) progress counters (running-task and job-finished checks).
        self._launched_total = [0] * n_jobs
        self._done_total = [0] * n_jobs
        self._job_tasks = [
            sum(stage.num_tasks for stage in job.stages) for job in self.jobs
        ]
        # Expected outstanding compute task-seconds per job: the SRPT
        # rank and the EDF slack numerator.  Decremented by the stage's
        # *mean* task time on each completion, so the estimate is a
        # deterministic function of progress, not of sampled durations.
        self._remaining_est = [
            sum(stage.compute_s * stage.num_tasks for stage in job.stages)
            for job in self.jobs
        ]
        total_slots = engine.cluster.total_slots
        # Contention-free service proxy: all task-seconds spread over
        # every slot (the slowdown denominator reported per tenant).
        self._service_est = [
            max(est / total_slots, 1e-9) for est in self._remaining_est
        ]
        # Launched-but-unfinished groups per job, in launch order; the
        # preemptive scheduler checkpoints from the tail (most recent
        # launch = least sunk work).  Only that scheduler pays for the
        # tracking — the per-flow handle retention and per-completion
        # list upkeep would otherwise tax every fifo/fair/srpt/edf
        # event step for state nothing reads.
        self._track_groups = scheduler == "preempt"
        # Preemption cancels queued compute timers; let the core purge
        # them at the heap head so they never bound the step size.
        self._purge_cancelled = self._track_groups
        self._active_groups: list[list[_TaskGroup]] = [[] for _ in self.jobs]
        if self._obs is not None:
            self._obs.bind_stream(self)

    # -- structural helpers ------------------------------------------------
    def _next_arrival_time(self) -> float:
        return (
            self.submits[self._next_arrival]
            if self._next_arrival < len(self.jobs)
            else math.inf
        )

    def _admit_arrivals(self) -> None:
        while (
            self._next_arrival < len(self.jobs)
            and self.submits[self._next_arrival] <= self.now + 1e-9
        ):
            self._admitted.append(self._next_arrival)
            if self._obs is not None:
                self._obs.on_job_admitted(self, self._next_arrival)
            self._next_arrival += 1
            self._sched_dirty = True

    def _active_jobs(self) -> list[int]:
        """Admitted, unfinished jobs in submission order."""
        return [j for j in self._admitted if not self.finished[j]]

    def _shuffle_shares(self, j: int, stage: StageSpec) -> np.ndarray:
        """Per-node fraction of the stage's shuffle input held locally."""
        n_nodes = self.engine.cluster.n_nodes
        counts = np.zeros(n_nodes)
        for parent in stage.parents:
            counts += self.tasks_run[j][parent]
        if counts.sum() == 0:
            counts = np.ones(n_nodes)
        counts = counts * self._skew_arr
        return counts / counts.sum()

    # -- scheduling --------------------------------------------------------
    def _try_launch(self) -> None:
        scheduler = self.scheduler
        if scheduler == "fair":
            self._try_launch_fair()
        elif scheduler == "preempt":
            self._try_launch_preempt()
        elif scheduler in ("srpt", "edf"):
            self._try_launch_ranked()
        else:  # fifo
            for j in self._active_jobs():
                self._launch_for_job(j, math.inf)

    def _try_launch_fair(self) -> None:
        """Split the cluster's slots evenly across jobs with work.

        Fairness is accounted against slots a job already *holds*, not
        just slots free this instant: each pass computes the fair share
        (total slots over active jobs) and offers freed slots to jobs
        below their share first, most-starved first.  Without the
        deficit accounting, a job that grabbed the whole cluster before
        a second tenant arrived would reclaim every freed slot one at a
        time and fair would degenerate to FIFO.  Slots left over once
        every job is at its share (e.g. a tenant draining its last
        wave) spill greedily, again most-starved first.
        """
        total_slots = self.engine.cluster.total_slots
        launched_total = self._launched_total
        done_total = self._done_total
        finished = self.finished
        runnable = self._runnable
        while True:
            active = [
                j for j in self._admitted if not finished[j] and runnable[j]
            ]
            if not active or self._free_total <= 0:
                return
            share = max(1, total_slots // len(active))
            # Fewest running tasks first; submission order breaks ties.
            # Sorting (running, j) pairs avoids a Python-level key
            # callable per element — this pass runs every scheduling
            # round of every event step.
            order = sorted(
                [(launched_total[j] - done_total[j], j) for j in active]
            )
            launched = 0
            for running, j in order:
                deficit = share - running
                if deficit > 0:
                    launched += self._launch_for_job(j, deficit)
            if launched == 0:
                # Everyone is at/above the fair share; spill what's left
                # round-robin, one slot per job per pass, so equally
                # deficient peers split the remainder instead of the
                # first job in the sorted order taking every leftover
                # slot.  The enclosing loop re-sorts by running count,
                # so successive spill passes keep rotating fairly.
                for _, j in order:
                    launched += self._launch_for_job(j, 1)
                    if self._free_total <= 0:
                        break
            if launched == 0:
                return

    def _running_tasks(self, j: int) -> int:
        """Slots job ``j`` currently occupies (launched, not done)."""
        return self._launched_total[j] - self._done_total[j]

    def _try_launch_preempt(self) -> None:
        """Fair scheduling plus checkpoint-preemption of over-share jobs.

        After the ordinary fair pass, if a tenant with runnable work is
        still below its fair share and no slots are free (the situation
        a job that grabbed the whole cluster before the tenant arrived
        creates), the plan phase checkpoints task groups of the most
        over-share job — most recently launched first, so the least
        sunk work is lost — until the starved tenants' *unmet demand*
        (their share deficits, capped by what they can actually
        launch) is covered by freed slots, every victim is at its
        share, or no starved tenant remains.  Preempted tasks return
        to their stage's queue and restart from scratch when
        relaunched; a final fair pass then hands the freed slots to
        the starved tenants, most deficient first.
        """
        self._try_launch_fair()
        if self._free_total > 0:
            return
        total_slots = self.engine.cluster.total_slots
        preempted = False
        while True:
            active = self._active_jobs()
            if len(active) < 2:
                break
            # The share counts every active tenant, whether or not it
            # still has tasks to launch: a job occupying the cluster
            # with its final wave is exactly the victim preemption
            # exists for.
            share = max(1, total_slots // len(active))
            demand = 0
            for j in active:
                if not self._runnable[j]:
                    continue
                deficit = share - self._running_tasks(j)
                if deficit <= 0:
                    continue
                launchable = sum(
                    self.jobs[j].stages[i].num_tasks - self.launched[j][i]
                    for i in self._runnable[j]
                )
                demand += min(deficit, launchable)
            if demand <= self._free_total:
                # Already-freed slots cover everything the starved
                # tenants can use; preempting further would only
                # discard a victim's work to leave slots idle.
                break
            victims = [
                (self._running_tasks(j), j)
                for j in active
                if self._running_tasks(j) > share and self._active_groups[j]
            ]
            if not victims:
                break
            # Most over-share job loses work; ties resolve to the
            # latest submission (it has the least seniority).
            _, victim = max(victims)
            self._preempt_group(self._active_groups[victim][-1])
            preempted = True
        if preempted:
            self._try_launch_fair()

    def _preempt_group(self, group: _TaskGroup) -> None:
        """Checkpoint one launched group back to its stage queue."""
        j, index = group.job_index, group.stage_index
        group.cancelled = True
        if self._obs is not None:
            # Before the flow handles are withdrawn, so the recorder
            # can close the group's flow spans as cancelled.
            self._obs.on_group_preempt(self, group)
        for flow in group.flows:
            self.fabric.remove_flow(flow)  # no-op for completed flows
        group.flows.clear()
        group.pending_flows = 0
        remaining = group.n_tasks - group.n_done
        self.free_slots[group.node] += remaining
        self._free_total += remaining
        self.launched[j][index] -= remaining
        self._launched_total[j] -= remaining
        self._active_groups[j].remove(group)
        stage = self.jobs[j].stages[index]
        if (
            self._pending_parents[j][index] == 0
            and self.launched[j][index] < stage.num_tasks
            and index not in self._runnable[j]
        ):
            insort(self._runnable[j], index)
        self._sched_dirty = True

    def _try_launch_ranked(self) -> None:
        """Strict-priority launch for the srpt and edf schedulers.

        Jobs are ranked each pass — by outstanding expected
        task-seconds for srpt, by deadline slack for edf — and drain
        the free slots greedily in that order.  Job index breaks ties,
        so the order (and therefore the whole simulation) is
        deterministic.
        """
        active = [
            j
            for j in self._admitted
            if not self.finished[j] and self._runnable[j]
        ]
        if not active or self._free_total <= 0:
            return
        if self.scheduler == "srpt":
            order = sorted(active, key=lambda j: (self._remaining_est[j], j))
        else:
            order = sorted(active, key=lambda j: (self._slack(j), j))
        for j in order:
            if self._free_total <= 0:
                return
            self._launch_for_job(j, math.inf)

    def _slack(self, j: int) -> float:
        """EDF rank: time to deadline minus ideally-parallel remaining work.

        Jobs without a deadline report infinite slack and therefore
        yield to every deadlined job.
        """
        deadline = self.deadlines[j]
        if math.isinf(deadline):
            return math.inf
        remaining = self._remaining_est[j] / self.engine.cluster.total_slots
        return deadline - self.now - remaining

    def _launch_for_job(self, j: int, budget: float) -> int:
        """Launch up to ``budget`` tasks of job ``j``; returns the count."""
        n_nodes = self.engine.cluster.n_nodes
        total = 0
        stages = self.jobs[j].stages
        # Snapshot: launches only shrink the runnable set (a stage needs
        # a *completion* to become runnable, which can't happen here).
        for index in list(self._runnable[j]):
            stage = stages[index]
            while (
                budget > 0
                and self.launched[j][index] < stage.num_tasks
                and self._free_total > 0
            ):
                launched_any = False
                for offset in range(n_nodes):
                    node = (self._rr_node + offset) % n_nodes
                    slots = self.free_slots[node]
                    remaining = stage.num_tasks - self.launched[j][index]
                    if slots <= 0 or remaining <= 0:
                        continue
                    group_size = int(min(slots, remaining, budget))
                    self._launch_group(j, index, stage, node, group_size)
                    self._rr_node = (node + 1) % n_nodes
                    budget -= group_size
                    total += group_size
                    launched_any = True
                    if self.launched[j][index] >= stage.num_tasks or budget <= 0:
                        break
                if not launched_any:
                    break
        return total

    def _launch_group(
        self, j: int, index: int, stage: StageSpec, node: int, n_tasks: int
    ) -> None:
        obs = self._obs
        if self.stage_start[j][index] == math.inf:
            self.stage_start[j][index] = self.now
            if obs is not None:
                obs.on_stage_start(self, j, index)
        self.free_slots[node] -= n_tasks
        self._free_total -= n_tasks
        self.launched[j][index] += n_tasks
        self._launched_total[j] += n_tasks
        if self.launched[j][index] >= stage.num_tasks:
            self._runnable[j].remove(index)
        group = _TaskGroup(j, index, node, n_tasks)
        group.t_launch = self.now
        if self._track_groups:
            self._active_groups[j].append(group)
        fraction = n_tasks / stage.num_tasks
        disk_gbps = self.engine.cluster.node_spec.disk_gbps

        # Shuffle fetches: one channel per remote source node.
        if stage.shuffle_gbit > 0:
            shares = self._shuffle_shares(j, stage)
            group_volume = stage.shuffle_gbit * fraction
            for src, share in enumerate(shares):
                volume = group_volume * share
                if volume <= 1e-12:
                    continue
                if src == node:
                    group.extra_compute_s += volume / disk_gbps / n_tasks
                    continue
                flow = self.fabric.add_flow(src, node, volume, tag=group)
                if self._track_groups:
                    group.flows.append(flow)
                if obs is not None:
                    obs.on_flow_open(self, flow, group)
                group.pending_flows += 1

        # Remote input reads (non-local HDFS blocks), spread uniformly
        # over the other nodes.
        remote_input = stage.input_gbit * (1.0 - stage.input_locality) * fraction
        local_input = stage.input_gbit * stage.input_locality * fraction
        group.extra_compute_s += local_input / disk_gbps / n_tasks
        if remote_input > 1e-12:
            n_nodes = self.engine.cluster.n_nodes
            others = [n for n in range(n_nodes) if n != node]
            per_src = remote_input / len(others)
            for src in others:
                flow = self.fabric.add_flow(src, node, per_src, tag=group)
                if self._track_groups:
                    group.flows.append(flow)
                if obs is not None:
                    obs.on_flow_open(self, flow, group)
                group.pending_flows += 1

        if obs is not None:
            obs.on_group_launch(self, group)
        if group.pending_flows == 0:
            self._start_computes(group)

    def _start_computes(self, group: _TaskGroup) -> None:
        stage = self.jobs[group.job_index].stages[group.stage_index]
        for _ in range(group.n_tasks):
            duration = (
                self.engine.sample_compute_time(stage) + group.extra_compute_s
            )
            heapq.heappush(
                self.timer_heap,
                (self.now + duration, next(self._timer_counter), group),
            )

    # -- completions ---------------------------------------------------------
    def _on_flow_complete(self, flow: Flow) -> None:
        if self._obs is not None:
            self._obs.on_flow_close(self, flow)
        group = flow.tag
        if not isinstance(group, _TaskGroup):
            return
        group.pending_flows -= 1
        if group.pending_flows == 0:
            self._start_computes(group)

    def _on_timer(self, group: _TaskGroup) -> None:
        """A task-compute completion (the stream workload's only timer)."""
        obs = self._obs
        j = group.job_index
        index = group.stage_index
        job = self.jobs[j]
        self.done[j][index] += 1
        self._done_total[j] += 1
        group.n_done += 1
        if self._track_groups and group.n_done >= group.n_tasks:
            self._active_groups[j].remove(group)
        if obs is not None:
            obs.on_task_done(self, group)
        self._remaining_est[j] -= job.stages[index].compute_s
        self.tasks_run[j][index][group.node] += 1
        self.free_slots[group.node] += 1
        self._free_total += 1
        self._sched_dirty = True
        if self.done[j][index] >= job.stages[index].num_tasks:
            self.stage_end[j][index] = self.now
            if obs is not None:
                obs.on_stage_end(self, j, index)
            pending = self._pending_parents[j]
            for child in self._children[j][index]:
                pending[child] -= 1
                if (
                    pending[child] == 0
                    and self.launched[j][child] < job.stages[child].num_tasks
                ):
                    insort(self._runnable[j], child)
            if self._done_total[j] >= self._job_tasks[j]:
                self.finished[j] = True
                self._n_finished += 1
                self.finish_times[j] = self.now
                if obs is not None:
                    obs.on_job_finish(self, j)

    # -- main loop ---------------------------------------------------------------
    #
    # begin / step_prologue / step_epilogue / finish / execute live in
    # EventCore (repro.simulator.core), shared with the serving layer
    # and the batched multistream driver.  Only the workload hooks —
    # admission, dispatch, timer/flow completion, result assembly —
    # are implemented here.

    @property
    def all_done(self) -> bool:
        return self._n_finished == len(self.jobs)

    def deadlock_error(self) -> RuntimeError:
        return RuntimeError(
            f"deadlock at t={self.now}: no flows, no computes, "
            f"no arrivals, jobs done={self.finished}"
        )

    # -- result assembly ---------------------------------------------------
    def _build_result(self) -> StreamResult:
        k = self._n_samples
        sample_times = self._t_buf[:k].copy()
        egress_rates = self._rate_buf[:k].copy().T
        budgets = None
        if self._budget_buf is not None:
            budgets = self._budget_buf[:k].copy().T
        single = len(self.jobs) == 1
        job_results = []
        for j, job in enumerate(self.jobs):
            submit = self.submits[j]
            finish = self.finish_times[j]
            if single:
                times, rates, buds = sample_times, egress_rates, budgets
            else:
                mask = (sample_times >= submit - 1e-9) & (
                    sample_times <= finish + 1e-9
                )
                times = sample_times[mask]
                rates = egress_rates[:, mask]
                buds = None if budgets is None else budgets[:, mask]
            stage_windows = {
                stage.name: (self.stage_start[j][i], self.stage_end[j][i])
                for i, stage in enumerate(job.stages)
            }
            job_results.append(
                JobResult(
                    job_name=job.name,
                    runtime_s=finish - submit,
                    stage_windows=stage_windows,
                    sample_times=times,
                    egress_rates=rates,
                    budgets=buds,
                    tasks_per_node=self.tasks_run[j].sum(axis=0),
                    submit_s=submit,
                    finish_s=finish,
                    deadline_s=self.deadlines[j],
                    service_estimate_s=self._service_est[j],
                )
            )
        return StreamResult(
            scheduler=self.scheduler,
            job_results=job_results,
            makespan_s=self.now,
            sample_times=sample_times,
            egress_rates=egress_rates,
            budgets=budgets,
            n_steps=self._n_steps,
        )
