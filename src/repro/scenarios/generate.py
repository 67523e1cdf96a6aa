"""Randomized workload generation: job DAGs and arrival processes.

The paper's application-level findings come from three fixed suites
(Terasort, HiBench, TPC-DS).  Whether those findings generalize
depends on *which* workload meets *which* network state, so the
scenario layer manufactures diversity on demand:

* :func:`random_job` — a seeded random DAG generator producing
  layered fan-in/fan-out stage graphs with skewed (lognormal) task
  sizes and shuffle volumes;
* :func:`tpch_like_job` — template-based analytic queries shaped like
  the TPC-H catalog (scan -> join trees -> aggregate), jittered per
  incarnation;
* :func:`poisson_arrivals` / :func:`burst_arrivals` — arrival
  processes turning individual jobs into multi-tenant streams (lazy
  open-loop request arrivals live in :mod:`repro.serving.arrivals`);
* :func:`job_stream` — the combinator: a seeded mix of random,
  TPC-H-like, and HiBench jobs attached to an arrival process, ready
  for :meth:`repro.simulator.engine.SparkEngine.run_stream`;
* :func:`synthesize_deadlines` — attaches seeded per-job completion
  deadlines to a stream (slack drawn relative to each job's ideal
  service time), feeding the engine's EDF scheduler and the
  deadline-miss telemetry every scheduler reports.

Everything is driven by an explicit :class:`numpy.random.Generator`,
so the same seed always reproduces the same stream bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulator.tasks import JobSpec, StageSpec
from repro.workloads.hibench import HIBENCH_APPS

__all__ = [
    "RandomDagConfig",
    "WorkloadMix",
    "random_job",
    "tpch_like_job",
    "TPCH_LIKE_QUERIES",
    "poisson_arrivals",
    "burst_arrivals",
    "job_stream",
    "synthesize_deadlines",
]


@dataclass(frozen=True)
class RandomDagConfig:
    """Knobs of the random DAG generator.

    Defaults produce jobs in the same size class as the HiBench models:
    a handful of stages, one or two scheduling waves per stage, tens of
    seconds of compute per task, and shuffle volumes whose lognormal
    skew spans compute-bound to heavily network-bound stages.
    """

    min_stages: int = 3
    max_stages: int = 7
    #: Most fan-in a join-like stage may have.
    max_fan_in: int = 3
    #: Most scheduling waves a stage's task count may span.
    max_waves: int = 2
    #: Per-task mean compute range (seconds).
    compute_range: tuple[float, float] = (5.0, 45.0)
    #: Lognormal CoV of per-task compute times within a stage.
    compute_cov: float = 0.12
    #: Median shuffle volume per reduce-like stage (Gbit) before skew.
    shuffle_median_gbit: float = 400.0
    #: Sigma of the lognormal skew on shuffle volumes; ~1.0 spans two
    #: orders of magnitude, covering K-Means-like to Terasort-like.
    shuffle_sigma: float = 1.0
    #: Median input read by source stages (Gbit).
    input_median_gbit: float = 800.0
    #: Probability a non-root stage also reads fresh input (side scan).
    p_side_input: float = 0.2
    #: HDFS locality of input reads.
    input_locality: float = 0.95

    def __post_init__(self) -> None:
        if self.min_stages < 1 or self.max_stages < self.min_stages:
            raise ValueError("need 1 <= min_stages <= max_stages")
        if self.max_fan_in < 1 or self.max_waves < 1:
            raise ValueError("fan-in and waves must be >= 1")
        if self.compute_range[0] < 0 or self.compute_range[1] < self.compute_range[0]:
            raise ValueError("compute range must be ordered and non-negative")
        if self.shuffle_median_gbit < 0 or self.input_median_gbit < 0:
            raise ValueError("volumes cannot be negative")
        if not 0.0 <= self.p_side_input <= 1.0:
            raise ValueError("p_side_input must be a probability")
        if not 0.0 <= self.input_locality <= 1.0:
            raise ValueError("locality must be a fraction")


def random_job(
    rng: np.random.Generator,
    name: str = "rand",
    n_nodes: int = 12,
    slots: int = 4,
    data_scale: float = 1.0,
    config: RandomDagConfig | None = None,
) -> JobSpec:
    """Draw one random DAG job.

    The DAG is layered: stage 0 is always a source scan; every later
    stage picks 1..``max_fan_in`` parents among its predecessors
    (fan-in), and a predecessor feeding several later stages gives
    fan-out.  Shuffle volumes are lognormally skewed so the generated
    population spans the paper's compute-bound-to-network-bound axis.
    """
    cfg = config or RandomDagConfig()
    if data_scale <= 0:
        raise ValueError("data_scale must be positive")
    n_stages = int(rng.integers(cfg.min_stages, cfg.max_stages + 1))
    base_tasks = n_nodes * slots
    stages: list[StageSpec] = []
    for i in range(n_stages):
        waves = int(rng.integers(1, cfg.max_waves + 1))
        compute_s = float(rng.uniform(*cfg.compute_range))
        if i == 0:
            parents: tuple[int, ...] = ()
            shuffle = 0.0
        else:
            fan_in = int(rng.integers(1, min(i, cfg.max_fan_in) + 1))
            parents = tuple(
                sorted(rng.choice(i, size=fan_in, replace=False).tolist())
            )
            shuffle = float(
                cfg.shuffle_median_gbit
                * data_scale
                * rng.lognormal(mean=0.0, sigma=cfg.shuffle_sigma)
            )
        reads_input = i == 0 or rng.uniform() < cfg.p_side_input
        input_gbit = (
            float(
                cfg.input_median_gbit
                * data_scale
                * rng.lognormal(mean=0.0, sigma=cfg.shuffle_sigma / 2.0)
            )
            if reads_input
            else 0.0
        )
        stages.append(
            StageSpec(
                name=f"s{i}",
                num_tasks=base_tasks * waves,
                compute_s=compute_s,
                compute_cov=cfg.compute_cov,
                shuffle_gbit=shuffle,
                input_gbit=input_gbit,
                input_locality=cfg.input_locality,
                parents=parents,
            )
        )
    return JobSpec(name=name, stages=tuple(stages))


#: TPC-H-like query templates: canonical analytic DAG shapes.  Each
#: stage is (name, parents, compute_s, shuffle_gbit, input_gbit); the
#: shapes follow the TPC-H catalog's archetypes — single-table
#: aggregation (Q1), selective join (Q12), star joins of increasing
#: width (Q3, Q5), and join-heavy reporting queries (Q18, Q21).
#: Volumes are nominal Gbit at ``data_scale=1`` and jittered per call.
TPCH_LIKE_QUERIES: dict[int, tuple[tuple[str, tuple[int, ...], float, float, float], ...]] = {
    1: (
        ("scan-lineitem", (), 30.0, 0.0, 2_400.0),
        ("aggregate", (0,), 20.0, 120.0, 0.0),
    ),
    3: (
        ("scan-customer", (), 8.0, 0.0, 200.0),
        ("scan-orders", (), 14.0, 0.0, 600.0),
        ("scan-lineitem", (), 24.0, 0.0, 2_400.0),
        ("join-cust-ord", (0, 1), 16.0, 500.0, 0.0),
        ("join-lineitem", (2, 3), 28.0, 1_400.0, 0.0),
        ("topk", (4,), 8.0, 60.0, 0.0),
    ),
    5: (
        ("scan-region", (), 2.0, 0.0, 10.0),
        ("scan-nation", (), 2.0, 0.0, 10.0),
        ("scan-customer", (), 8.0, 0.0, 200.0),
        ("scan-supplier", (), 6.0, 0.0, 100.0),
        ("scan-orders", (), 14.0, 0.0, 600.0),
        ("scan-lineitem", (), 24.0, 0.0, 2_400.0),
        ("join-dims", (0, 1, 2), 10.0, 220.0, 0.0),
        ("join-facts", (4, 5), 26.0, 1_600.0, 0.0),
        ("join-all", (3, 6, 7), 20.0, 800.0, 0.0),
        ("aggregate", (8,), 10.0, 90.0, 0.0),
    ),
    12: (
        ("scan-orders", (), 14.0, 0.0, 600.0),
        ("scan-lineitem", (), 22.0, 0.0, 2_400.0),
        ("join", (0, 1), 20.0, 700.0, 0.0),
        ("aggregate", (2,), 8.0, 50.0, 0.0),
    ),
    18: (
        ("scan-lineitem", (), 24.0, 0.0, 2_400.0),
        ("group-lineitem", (0,), 18.0, 1_200.0, 0.0),
        ("scan-orders", (), 14.0, 0.0, 600.0),
        ("scan-customer", (), 8.0, 0.0, 200.0),
        ("join-big", (1, 2, 3), 24.0, 900.0, 0.0),
        ("topk", (4,), 6.0, 40.0, 0.0),
    ),
    21: (
        ("scan-supplier", (), 6.0, 0.0, 100.0),
        ("scan-lineitem-1", (), 22.0, 0.0, 2_400.0),
        ("scan-orders", (), 14.0, 0.0, 600.0),
        ("scan-nation", (), 2.0, 0.0, 10.0),
        ("self-join-l1", (1,), 20.0, 1_100.0, 0.0),
        ("join-sup", (0, 3, 4), 16.0, 500.0, 0.0),
        ("join-ord", (2, 5), 18.0, 600.0, 0.0),
        ("aggregate", (6,), 8.0, 60.0, 0.0),
    ),
}


def tpch_like_job(
    query: int,
    rng: np.random.Generator,
    n_nodes: int = 12,
    slots: int = 4,
    data_scale: float = 1.0,
    volume_jitter: float = 0.2,
) -> JobSpec:
    """Build one incarnation of a TPC-H-like template query.

    Data volumes jitter uniformly by ``±volume_jitter`` per call,
    modeling scale-factor and selectivity differences between
    incarnations of the "same" query.
    """
    try:
        template = TPCH_LIKE_QUERIES[query]
    except KeyError:
        raise KeyError(
            f"no TPC-H-like template for query {query}; "
            f"available: {sorted(TPCH_LIKE_QUERIES)}"
        ) from None
    if data_scale <= 0:
        raise ValueError("data_scale must be positive")
    if not 0.0 <= volume_jitter < 1.0:
        raise ValueError("volume_jitter must be in [0, 1)")
    base_tasks = n_nodes * slots
    stages = []
    for name, parents, compute_s, shuffle, input_gbit in template:
        jitter = float(rng.uniform(1.0 - volume_jitter, 1.0 + volume_jitter))
        # Scans get a full wave; small dimension stages less compute
        # but task count stays a wave so placement spreads evenly.
        stages.append(
            StageSpec(
                name=name,
                num_tasks=base_tasks,
                compute_s=compute_s,
                compute_cov=0.12,
                shuffle_gbit=shuffle * data_scale * jitter,
                input_gbit=input_gbit * data_scale * jitter,
                input_locality=0.95,
                parents=parents,
            )
        )
    return JobSpec(name=f"tpch-q{query}", stages=tuple(stages))


def poisson_arrivals(
    rng: np.random.Generator,
    rate_per_min: float,
    n_jobs: int,
) -> np.ndarray:
    """Job submission times of a Poisson process (exponential gaps).

    The first job arrives at t=0 so every stream does work immediately;
    subsequent gaps are exponential with mean ``60 / rate_per_min``.
    """
    if rate_per_min <= 0:
        raise ValueError("arrival rate must be positive")
    if n_jobs < 1:
        raise ValueError("need at least one job")
    gaps = rng.exponential(scale=60.0 / rate_per_min, size=n_jobs - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)])


def burst_arrivals(
    rng: np.random.Generator,
    n_bursts: int,
    jobs_per_burst: int,
    burst_spacing_s: float,
    jitter_s: float = 2.0,
) -> np.ndarray:
    """Bursty submissions: batches of near-simultaneous jobs.

    Models the nightly-ETL pattern: every ``burst_spacing_s`` a batch
    of ``jobs_per_burst`` jobs lands within ``jitter_s`` of the burst
    start — the worst case for slot contention and bucket depletion.
    """
    if n_bursts < 1 or jobs_per_burst < 1:
        raise ValueError("need at least one burst with one job")
    if burst_spacing_s <= 0 or jitter_s < 0:
        raise ValueError("spacing must be positive, jitter non-negative")
    times = []
    for b in range(n_bursts):
        base = b * burst_spacing_s
        offsets = np.sort(rng.uniform(0.0, jitter_s, size=jobs_per_burst))
        times.extend(base + offsets)
    arr = np.asarray(times)
    return arr - arr[0]


@dataclass(frozen=True)
class WorkloadMix:
    """Relative weights of the three job sources in a stream."""

    random_weight: float = 1.0
    tpch_weight: float = 1.0
    hibench_weight: float = 1.0

    def __post_init__(self) -> None:
        weights = (self.random_weight, self.tpch_weight, self.hibench_weight)
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("mix weights must be non-negative and not all zero")

    @property
    def probabilities(self) -> np.ndarray:
        weights = np.asarray(
            [self.random_weight, self.tpch_weight, self.hibench_weight]
        )
        return weights / weights.sum()


def job_stream(
    rng: np.random.Generator,
    arrival_times: np.ndarray,
    n_nodes: int = 12,
    slots: int = 4,
    data_scale: float = 1.0,
    mix: WorkloadMix | None = None,
    dag_config: RandomDagConfig | None = None,
) -> list[tuple[float, JobSpec]]:
    """Attach a seeded job to every arrival time.

    Each arrival draws its source (random DAG, TPC-H-like template, or
    HiBench application) from ``mix``, then draws the job itself; the
    whole stream is a pure function of ``rng``'s state.
    """
    mix = mix or WorkloadMix()
    probs = mix.probabilities
    hibench_names = sorted(HIBENCH_APPS)
    tpch_numbers = sorted(TPCH_LIKE_QUERIES)
    stream: list[tuple[float, JobSpec]] = []
    for i, t in enumerate(np.asarray(arrival_times, dtype=float)):
        source = int(rng.choice(3, p=probs))
        if source == 0:
            job = random_job(
                rng,
                name=f"rand-{i}",
                n_nodes=n_nodes,
                slots=slots,
                data_scale=data_scale,
                config=dag_config,
            )
        elif source == 1:
            query = int(rng.choice(tpch_numbers))
            job = tpch_like_job(
                query, rng, n_nodes=n_nodes, slots=slots, data_scale=data_scale
            )
        else:
            name = hibench_names[int(rng.integers(len(hibench_names)))]
            job = HIBENCH_APPS[name](
                n_nodes=n_nodes, slots=slots, data_scale=data_scale
            )
        stream.append((float(t), job))
    return stream


def _ideal_service_s(
    job: JobSpec, total_slots: int, n_nodes: int, bandwidth_gbps: float
) -> float:
    """Contention-free runtime lower bound for one job.

    The max of two classic bounds — total compute work spread over
    every slot, and the DAG critical path with each stage taking
    ``ceil(tasks / slots)`` waves of its mean task time — plus the
    job's network volume spread over every NIC.  Tighter than either
    bound alone: wide jobs are slot-bound, deep jobs path-bound.
    """
    work_bound = job.total_compute_s / total_slots
    path: list[float] = []
    for stage in job.stages:
        waves = -(-stage.num_tasks // total_slots)  # ceil
        longest_parent = max((path[p] for p in stage.parents), default=0.0)
        path.append(longest_parent + waves * stage.compute_s)
    transfer = job.total_network_gbit / (n_nodes * bandwidth_gbps)
    return max(work_bound, max(path)) + transfer


def synthesize_deadlines(
    rng: np.random.Generator,
    stream: list[tuple[float, JobSpec]],
    n_nodes: int,
    slots: int,
    mean_slack: float = 1.0,
    bandwidth_gbps: float = 10.0,
) -> list[tuple[float, JobSpec, float]]:
    """Attach a completion deadline to every job of an arrival stream.

    Each job's deadline is its submission time plus its *ideal service
    time* (see :func:`_ideal_service_s`: slot-parallel work or DAG
    critical path, whichever binds, plus transfer time) inflated by a
    multiplicative slack factor ``1 + Exp(mean_slack)``.  Exponential
    slack makes some deadlines barely feasible (tight tail near 1.0,
    missed under any contention) and others generous, so deadline-miss
    rates discriminate between schedulers instead of saturating at 0
    or 1.  Deadlines are a pure function of ``rng``; drive it with a
    generator independent of the workload's so attaching deadlines
    never perturbs the stream itself.
    """
    if n_nodes < 1 or slots < 1:
        raise ValueError("n_nodes and slots must be >= 1")
    if mean_slack <= 0:
        raise ValueError("mean slack must be positive")
    if bandwidth_gbps <= 0:
        raise ValueError("bandwidth must be positive")
    total_slots = n_nodes * slots
    out: list[tuple[float, JobSpec, float]] = []
    for t, job in stream:
        service = _ideal_service_s(job, total_slots, n_nodes, bandwidth_gbps)
        factor = 1.0 + float(rng.exponential(scale=mean_slack))
        out.append((t, job, t + service * factor))
    return out
