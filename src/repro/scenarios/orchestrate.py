"""DAG-stream scenario cells: the job-stream workload of the pipeline.

One :class:`ScenarioConfig` fully determines one multi-tenant job
stream on a shaped cloud fabric — provider incarnations, the arrival
process, the job mix, deadlines, and the engine's compute noise all
derive from its seed — and hashes to a stable ``scn-…`` id.  This
module supplies only what is particular to DAG streams: the config's
fields and validation, :func:`prepare_scenario` (config -> job-stream
event core), :func:`finish_scenario` (outcome ->
:class:`ScenarioResult` with its CoV/CONFIRM ``aggregate_row``), the
store document body, and the :func:`scenario_matrix` axes.

Everything else — content ids, warm-fabric chains, matrices, batched
execution, the codec's fabric document, and the
:class:`~repro.workload.ScenarioCampaign` that runs a matrix through
the :mod:`repro.runtime` executors into a
:class:`~repro.measurement.repository.TraceRepository` — is the shared
workload pipeline in :mod:`repro.workload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.measurement.campaign import CampaignConfig, CampaignResult
from repro.measurement.repository import (
    campaign_from_documents,
    campaign_to_documents,
)
from repro.runtime.campaign import ArtifactCodec
from repro.runtime.cell import Cell
from repro.scenarios.generate import (
    RandomDagConfig,
    WorkloadMix,
    burst_arrivals,
    job_stream,
    poisson_arrivals,
    synthesize_deadlines,
)
from repro.simulator.cluster import NodeSpec
from repro.simulator.engine import SCHEDULERS
from repro.stats.confirm import confirm_curve
from repro.stats.cov import coefficient_of_variation
from repro.trace import BandwidthTrace
from repro.workload import (
    CampaignOutcome,
    CellConfig,
    Prepared,
    ScenarioCampaign,
    cell_fabric,
    decode_fabric,
    encode_fabric,
    fabric_snapshot,
    matrix,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioCampaign",
    "CampaignOutcome",
    "run_scenario",
    "prepare_scenario",
    "finish_scenario",
    "run_scenario_payload",
    "scenario_matrix",
    "encode_scenario_result",
    "decode_scenario_result",
    "SCENARIO_CODEC",
]

#: Workload keyword -> generator mix.
_MIXES: dict[str, WorkloadMix] = {
    "mixed": WorkloadMix(),
    "random": WorkloadMix(1.0, 0.0, 0.0),
    "tpch": WorkloadMix(0.0, 1.0, 0.0),
    "hibench": WorkloadMix(0.0, 0.0, 1.0),
}

#: Arrival-process keywords.
_ARRIVALS: tuple[str, ...] = ("poisson", "burst")

#: The scenario layer's store codec, referenced by import path so shard
#: manifests can name it across machines.
SCENARIO_CODEC = ArtifactCodec(
    encode_ref="repro.scenarios.orchestrate:encode_scenario_result",
    decode_ref="repro.scenarios.orchestrate:decode_scenario_result",
)


@dataclass(frozen=True)
class ScenarioConfig(CellConfig):
    """One cell of a scenario matrix, fully determining its result."""

    id_prefix = "scn"
    # Fields that did not exist when early repositories were populated
    # hash only away from their defaults, so those caches stay warm.
    id_defaults = {"deadline_slack": 0.0, "predecessor": None}
    noun = "scenario"
    run_ref = "repro.scenarios.orchestrate:run_scenario_payload"
    prepare_ref = "repro.scenarios.orchestrate:prepare_scenario"
    finish_ref = "repro.scenarios.orchestrate:finish_scenario"
    codec = SCENARIO_CODEC

    provider_name: str = "amazon"
    instance_name: str = "c5.xlarge"
    n_nodes: int = 8
    slots: int = 4
    n_jobs: int = 4
    #: Poisson rate (jobs/minute) or burst cadence, per ``arrival``.
    arrival_rate_per_min: float = 2.0
    arrival: str = "poisson"
    scheduler: str = "fifo"
    workload: str = "mixed"
    data_scale: float = 1.0
    seed: int = 0
    #: Mean multiplicative deadline slack; 0 disables deadlines (jobs
    #: arrive without one and miss telemetry reports ``None``).
    deadline_slack: float = 0.0
    #: ``scenario_id`` of the cell whose final fabric/shaper state
    #: seeds this cell's run (warm-fabric chains); ``None`` for a
    #: fresh fabric.
    predecessor: str | None = None

    def __post_init__(self) -> None:
        self._coerce(
            float, ("arrival_rate_per_min", "data_scale", "deadline_slack")
        )
        self._coerce(int, ("n_nodes", "slots", "n_jobs", "seed"))
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of {SCHEDULERS}"
            )
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"expected one of {_ARRIVALS}"
            )
        if self.workload not in _MIXES:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"expected one of {sorted(_MIXES)}"
            )
        if self.n_nodes < 2 or self.slots < 1 or self.n_jobs < 1:
            raise ValueError("n_nodes >= 2, slots >= 1, n_jobs >= 1 required")
        if self.arrival_rate_per_min <= 0 or self.data_scale <= 0:
            raise ValueError("rates and scales must be positive")
        if self.deadline_slack < 0:
            raise ValueError("deadline slack cannot be negative")
        self._check_predecessor()

    @property
    def scenario_id(self) -> str:
        """The ``scn-…`` content id (:attr:`~repro.workload.CellConfig.key`)."""
        return self.key


@dataclass
class ScenarioResult:
    """Per-job outcomes of one scenario cell."""

    config: ScenarioConfig
    #: Submission times, in submit order (seconds from stream start).
    submits: np.ndarray
    #: Per-job response times aligned with :attr:`submits`.
    runtimes: np.ndarray
    makespan_s: float
    #: Job names, absent when reloaded from a repository cache.
    job_names: tuple[str, ...] | None = None
    cached: bool = False
    #: Absolute per-job deadlines aligned with :attr:`submits`, or
    #: ``None`` when the cell ran without deadline synthesis.
    deadlines: np.ndarray | None = None
    #: Per-tenant slowdowns (response over ideal service time).
    slowdowns: np.ndarray | None = None
    #: Per-node link-model snapshots captured when the stream finished
    #: (:func:`repro.netmodel.state.model_state_dict`); what a chained
    #: successor cell seeds its fabric from.
    fabric_state: list[dict] | None = None
    #: Engine event-loop steps the cell cost (``None`` when reloaded
    #: from cache).  Deliberately *not* encoded into store documents —
    #: it feeds execution provenance (manifest meta), so stored bytes
    #: stay independent of engine-internals accounting.
    n_steps: int | None = None

    def deadline_miss_rate(self) -> float | None:
        """Fraction of deadlined jobs finishing late; None without deadlines."""
        if self.deadlines is None:
            return None
        finite = np.isfinite(self.deadlines)
        if not finite.any():
            return None
        finishes = self.submits[finite] + self.runtimes[finite]
        return float(np.mean(finishes > self.deadlines[finite] + 1e-9))

    def aggregate_row(self) -> dict:
        """One sweep-table row: config axes plus CoV/CONFIRM verdicts.

        Values are rounded so rows compare bit-for-bit across workers
        and across cache reload (JSON round-trips floats exactly).
        """
        cov = (
            coefficient_of_variation(self.runtimes)
            if self.runtimes.size > 1
            else 0.0
        )
        ci_widened = None
        if self.runtimes.size >= 12:
            ci_widened = confirm_curve(self.runtimes).widening_detected()
        miss_rate = self.deadline_miss_rate()
        return {
            "scenario": self.config.scenario_id,
            "provider": self.config.provider_name,
            "instance": self.config.instance_name,
            "arrival": self.config.arrival,
            "rate_per_min": self.config.arrival_rate_per_min,
            "scheduler": self.config.scheduler,
            "workload": self.config.workload,
            "chained": self.config.predecessor is not None,
            "n_jobs": int(self.runtimes.size),
            "mean_runtime_s": round(float(np.mean(self.runtimes)), 3),
            "p50_runtime_s": round(float(np.median(self.runtimes)), 3),
            "max_runtime_s": round(float(np.max(self.runtimes)), 3),
            "makespan_s": round(float(self.makespan_s), 3),
            "cov": round(float(cov), 4),
            "ci_widened": ci_widened,
            "miss_rate": None if miss_rate is None else round(miss_rate, 4),
            "mean_slowdown": (
                None
                if self.slowdowns is None
                else round(float(np.mean(self.slowdowns)), 3)
            ),
        }

    # -- repository round-trip ---------------------------------------------
    def to_campaign_result(self) -> CampaignResult:
        """Encode the cell as a storable campaign (runtimes as a trace).

        Deadlines and slowdowns ride along as extra traces when
        present, so a cache reload reproduces the same aggregate row a
        fresh computation would.
        """
        config = CampaignConfig(
            provider_name=self.config.provider_name,
            instance_name=self.config.instance_name,
            duration_s=float(self.makespan_s),
            patterns=(),
            seed=self.config.seed,
        )
        result = CampaignResult(config=config)
        extras = {"deadlines": self.deadlines, "slowdowns": self.slowdowns}
        for name, values in [("runtimes", self.runtimes), *extras.items()]:
            if values is None:
                continue
            result.traces[name] = BandwidthTrace(
                times=self.submits,
                values=np.asarray(values, dtype=float),
                label=f"scenario-{name}/{self.config.scenario_id}",
                durations=np.ones_like(self.runtimes),
            )
        return result

    @classmethod
    def from_campaign_result(
        cls, config: ScenarioConfig, stored: CampaignResult
    ) -> "ScenarioResult":
        """Rebuild a cell from its stored trace (cache hit)."""
        trace = stored.trace("runtimes")

        def optional(name: str) -> np.ndarray | None:
            if name not in stored.traces:
                return None
            return np.asarray(stored.trace(name).values, dtype=float)

        return cls(
            config=config,
            submits=np.asarray(trace.times, dtype=float),
            runtimes=np.asarray(trace.values, dtype=float),
            makespan_s=float(stored.config.duration_s),
            job_names=None,
            cached=True,
            deadlines=optional("deadlines"),
            slowdowns=optional("slowdowns"),
        )


def run_scenario(
    config: ScenarioConfig,
    upstream: "ScenarioResult | None" = None,
    recorder=None,
) -> ScenarioResult:
    """Execute one scenario cell end to end.

    A pure function of ``config`` (plus, for chained cells, the
    predecessor's result): provider incarnations, the arrival process,
    the job mix, and the engine's compute noise all derive from one
    seeded generator, so the same config always produces the same
    result regardless of where (or how parallel) it runs.  Deadlines
    draw from a *separate* generator derived from the seed, so turning
    deadline synthesis on never perturbs the workload stream itself.

    When ``config.predecessor`` names another cell, ``upstream`` must
    be that cell's result: the fabric is rebuilt from its persisted
    per-node shaper snapshots instead of drawing fresh VMs (see
    :func:`repro.workload.cell_fabric`).

    ``recorder`` attaches an :class:`~repro.obs.ObsRecorder` that
    observes the cell's stream without changing its result.
    """
    prepared = prepare_scenario(config, upstream=upstream, recorder=recorder)
    return finish_scenario(prepared, prepared.state.execute())


def prepare_scenario(
    config: ScenarioConfig,
    upstream: "ScenarioResult | None" = None,
    recorder=None,
) -> Prepared:
    """Build one cell's fabric, workload stream, and stream state."""
    rng = np.random.default_rng(config.seed)
    engine, fabric = cell_fabric(
        config, upstream, rng, NodeSpec(slots=config.slots)
    )
    if config.arrival == "burst":
        per_burst = max(config.n_jobs // 2, 1)
        n_bursts = -(-config.n_jobs // per_burst)  # ceil
        times = burst_arrivals(
            rng,
            n_bursts=n_bursts,
            jobs_per_burst=per_burst,
            burst_spacing_s=60.0 / config.arrival_rate_per_min * per_burst,
        )[: config.n_jobs]
    else:
        times = poisson_arrivals(
            rng, rate_per_min=config.arrival_rate_per_min, n_jobs=config.n_jobs
        )
    stream = job_stream(
        rng,
        times,
        n_nodes=config.n_nodes,
        slots=config.slots,
        data_scale=config.data_scale,
        mix=_MIXES[config.workload],
        dag_config=RandomDagConfig(),
    )
    if config.deadline_slack > 0:
        deadline_rng = np.random.default_rng([config.seed, 0xDEAD11E5])
        stream = synthesize_deadlines(
            deadline_rng,
            stream,
            n_nodes=config.n_nodes,
            slots=config.slots,
            mean_slack=config.deadline_slack,
        )
    state = engine.stream_state(
        stream, fabric=fabric, scheduler=config.scheduler, recorder=recorder
    )
    return Prepared(config=config, state=state)


def finish_scenario(prepared: Prepared, outcome) -> ScenarioResult:
    """Assemble a :class:`ScenarioResult` from a finished stream."""
    config = prepared.config
    deadlines = None
    if config.deadline_slack > 0:
        # Read back from the results (submit order) rather than the
        # stream, so alignment never depends on arrival-time ordering.
        deadlines = np.asarray([r.deadline_s for r in outcome.job_results])
    return ScenarioResult(
        config=config,
        submits=np.asarray([r.submit_s for r in outcome.job_results]),
        runtimes=outcome.runtimes(),
        makespan_s=outcome.makespan_s,
        job_names=tuple(r.job_name for r in outcome.job_results),
        deadlines=deadlines,
        slowdowns=outcome.slowdowns(),
        fabric_state=fabric_snapshot(prepared.state.fabric),
        n_steps=outcome.n_steps,
    )


def scenario_matrix(
    providers: tuple[str, ...] = ("amazon", "google"),
    arrival_rates: tuple[float, ...] = (1.0, 4.0),
    schedulers: tuple[str, ...] = ("fifo", "fair"),
    workloads: tuple[str, ...] = ("mixed",),
    n_jobs: int = 4,
    n_nodes: int = 8,
    slots: int = 4,
    data_scale: float = 1.0,
    seed: int = 0,
    instances: dict[str, str] | None = None,
    deadline_slack: float = 0.0,
    chain_length: int = 1,
) -> list[ScenarioConfig]:
    """Provider x rate x scheduler x workload cells, one config per cell.

    Seeds and cache keys follow :func:`repro.workload.matrix`: stable
    under axis extension.  ``deadline_slack`` > 0 synthesizes per-job
    deadlines in every cell (reported as miss rates; ordering-relevant
    under the "edf" scheduler), and ``chain_length`` > 1 expands every
    cell into a warm-fabric chain (see :func:`repro.workload.chain`).
    """
    return matrix(
        ScenarioConfig,
        providers,
        [
            ("arrival_rate_per_min", [float(rate) for rate in arrival_rates]),
            ("scheduler", schedulers),
            ("workload", workloads),
        ],
        seed=seed,
        instances=instances,
        chain_length=chain_length,
        n_jobs=n_jobs,
        n_nodes=n_nodes,
        slots=slots,
        data_scale=data_scale,
        deadline_slack=deadline_slack,
    )


# ----------------------------------------------------------------------
# runtime plumbing: the cell function and the store codec
# ----------------------------------------------------------------------
def run_scenario_payload(
    payload: Mapping, upstream: ScenarioResult | None = None
) -> ScenarioResult:
    """Cell function: reconstruct the config and run the scenario.

    The module-global :func:`run_scenario` is looked up at call time
    (not captured), so tests and instrumentation that patch it keep
    working when cells execute in-process.  ``upstream`` is the
    predecessor's decoded result for chained cells (the runtime passes
    it when the cell's ``after`` is set); unchained cells call through
    with the historical single-argument shape, so patches that take
    only a config keep working.
    """
    config = ScenarioConfig(**payload)
    if upstream is None:
        return run_scenario(config)
    return run_scenario(config, upstream=upstream)


def encode_scenario_result(result: ScenarioResult) -> tuple[dict, dict]:
    """Codec encoder: a scenario cell as trace-repository documents
    (legacy readers that only walk ``patterns`` ignore the fabric)."""
    documents, meta = campaign_to_documents(result.to_campaign_result())
    return encode_fabric(result, documents), meta


def decode_scenario_result(cell: Cell, documents: Mapping) -> ScenarioResult:
    """Codec decoder: rebuild a :class:`ScenarioResult` from the store."""
    result = ScenarioResult.from_campaign_result(
        ScenarioConfig(**cell.payload), campaign_from_documents(documents)
    )
    result.fabric_state = decode_fabric(documents)
    return result
