"""A discrete-event, fluid-flow simulator of a Spark-like cluster.

Section 4 runs HiBench and TPC-DS on a 12-node Spark cluster whose
network is shaped by the emulated EC2 token bucket.  The application-
level phenomena the paper reports — budget-dependent slowdowns
(Figures 15-17), shaper-induced stragglers (Figure 18), and non-iid
repetitions (Figure 19) — all arise from the *interaction* between the
stage/shuffle structure of the jobs and the per-node shapers.  This
package models exactly that interaction:

* :mod:`repro.simulator.core` — the workload-agnostic event-driven
  core (:class:`EventCore` + the :class:`WorkloadSource` hook
  protocol) shared by the DAG stream engine and ``repro.serving``;
* :mod:`repro.simulator.fabric` — fluid flows with max-min fair
  sharing, bounded by per-node egress shapers (any
  :class:`~repro.netmodel.base.LinkModel`) and ingress capacities;
* :mod:`repro.simulator.cluster` — node and cluster descriptions;
* :mod:`repro.simulator.tasks` — tasks, stages, and job DAGs.  Input
  locality is a constant per stage: :attr:`StageSpec.input_locality`
  of its input is read from local disk, the rest is fetched evenly
  from the other nodes;
* :mod:`repro.simulator.engine` — the DAG scheduler / execution engine
  producing runtimes and per-node utilization/budget telemetry.

**Hot-path design (array-based fabric).**  Campaign throughput is
gated by the event loop's per-step cost, so the innermost state is
struct-of-arrays: the fabric keeps flow ``src``/``dst``/``remaining``/
``rate`` in flat numpy arrays (insertion-ordered; :class:`Flow`
objects are handles into them).  Water-filling, the flow completion
bound and the flow advance each have one implementation per leg: the
numba kernels in :mod:`repro.simulator._kernels` when numba is
importable, otherwise the scalar reference loops (numpy array passes
do not repay their per-call dispatch here, even at 10k flows).  Flow
bookkeeping is incremental: per-node egress and ingress member lists
are maintained as flows start and retire, so the scalar water-fill
never rebuilds its resource topology (a resource's first-appearance
rank is ``2 * first_member.flow_id``, ``+ 1`` for ingress), and a
finished flow leaves a tombstone slot instead of shifting the arrays;
one order-preserving squeeze drops the tombstones later.  Per event
step the cost is

* one lazy water-filling — skipped entirely unless a flow arrived or
  completed, a shaper ceiling moved, or a caller invalidated rates;
  otherwise O(bottlenecks x resources + flows);
* one cached per-node egress aggregation (``bincount``), shared by
  telemetry, ``horizon``, and ``advance`` instead of recomputed
  thrice;
* one batched ``limits``/``horizons``/``advance`` call on the shaper
  fleet (:mod:`repro.netmodel.fleet`) for all nodes at once
  (heterogeneous model lists fall back to the per-model
  ``ScalarFleetAdapter`` loop);
* O(1) scheduler bookkeeping: runnable stages are maintained
  incrementally at stage-completion/launch-exhaustion events, and
  launch passes are skipped on steps where no slot was freed, no
  stage became runnable, and no job arrived.

Telemetry appends into growable preallocated numpy buffers.  The
refactor is *bit-exact* against the reference implementation — the
golden-trace test (``tests/simulator/test_golden_trace.py``) pins
pre-refactor outputs, and determinism tests guarantee same seed ⇒
identical timings.  Benchmarks: ``python -m repro bench`` (or
``python benchmarks/bench_engine_hotpath.py``) times a 16-node/200-job
stream plus a 10k-flow water-filling microbench and records the
trajectory in ``BENCH_engine.json``; read it with
``python -m repro bench --table-only``.
"""

from repro.simulator.cluster import Cluster, NodeSpec
from repro.simulator.core import EventCore, WorkloadSource
from repro.simulator.engine import (
    SCHEDULERS,
    JobResult,
    SparkEngine,
    StreamResult,
)
from repro.simulator.fabric import Fabric, Flow
from repro.simulator.tasks import JobSpec, StageSpec

__all__ = [
    "EventCore",
    "WorkloadSource",
    "Fabric",
    "Flow",
    "Cluster",
    "NodeSpec",
    "JobSpec",
    "StageSpec",
    "SparkEngine",
    "JobResult",
    "StreamResult",
    "SCHEDULERS",
]
