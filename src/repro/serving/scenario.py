"""Serving campaign cells: the request-serving workload of the pipeline.

One :class:`ServingConfig` fully determines one serving run (provider
incarnations, topology, arrival draws, compute noise — all from one
seeded generator) and hashes to a stable ``srv-…`` id.  This module
supplies only what is particular to serving: the config's fields and
validation, :func:`prepare_serving` (config -> serving event core),
:func:`finish_serving` (outcome -> :class:`ServingCellResult` with its
latency/SLO ``aggregate_row``), the ``serving`` store document, and the
:func:`serving_matrix` axes.  Content ids, chains, matrices, batched
execution (serving states ride
:func:`repro.simulator.multistream.run_cores` exactly like DAG
streams), the fabric document and the
:class:`~repro.workload.ScenarioCampaign` are the shared workload
pipeline in :mod:`repro.workload`.

The experiment this layer exists for is the variability-meets-serving
question: the pseudo-provider ``"fixed"`` gives every node a
:class:`~repro.netmodel.base.ConstantRateModel` at the HPC-cloud-class
median rate — a *clean* fabric with the same mean capacity as the
resampling ``"hpccloud"`` incarnations — so a matrix over
``("hpccloud", "fixed")`` isolates whether shaper *variability* (not
mean bandwidth) turns a passing SLO into p99/p99.9 violation windows
under burst traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.runtime.campaign import ArtifactCodec
from repro.runtime.cell import Cell
from repro.serving.arrivals import (
    diurnal_process,
    flash_crowd_process,
    poisson_process,
)
from repro.serving.slo import SloPolicy, SloReport
from repro.serving.state import ServingState
from repro.serving.topology import ServiceTopology
from repro.workload import (
    CellConfig,
    Prepared,
    cell_fabric,
    decode_fabric,
    encode_fabric,
    fabric_snapshot,
    matrix,
)

__all__ = [
    "ServingConfig",
    "ServingCellResult",
    "run_serving",
    "prepare_serving",
    "finish_serving",
    "run_serving_payload",
    "serving_matrix",
    "encode_serving_result",
    "decode_serving_result",
    "SERVING_CODEC",
]

_ARRIVALS: tuple[str, ...] = ("poisson", "diurnal", "flash")
_TOPOLOGIES: tuple[str, ...] = ("line", "fanout", "three_tier")

#: The serving layer's store codec, referenced by import path so shard
#: manifests can name it across machines.
SERVING_CODEC = ArtifactCodec(
    encode_ref="repro.serving.scenario:encode_serving_result",
    decode_ref="repro.serving.scenario:decode_serving_result",
)


@dataclass(frozen=True)
class ServingConfig(CellConfig):
    """One serving cell, fully determining its result."""

    id_prefix = "srv"
    noun = "serving"
    run_ref = "repro.serving.scenario:run_serving_payload"
    prepare_ref = "repro.serving.scenario:prepare_serving"
    finish_ref = "repro.serving.scenario:finish_serving"
    codec = SERVING_CODEC

    provider_name: str = "hpccloud"
    instance_name: str = "hpccloud-8core"
    n_nodes: int = 8
    #: Call-tree shape (see :class:`~repro.serving.topology.ServiceTopology`).
    topology: str = "three_tier"
    #: Chain length for ``line``, tree depth for ``fanout``.
    depth: int = 3
    #: Fan-out per level for ``fanout`` (ignored otherwise).
    breadth: int = 2
    arrival: str = "poisson"
    #: Open-loop request rate (requests/second); 0 disables the
    #: arrival process (closed-loop-only cells).
    rate_rps: float = 20.0
    duration_s: float = 120.0
    #: Closed-loop user pool size (0 for open-loop-only cells).
    users: int = 0
    think_s: float = 1.0
    payload_scale: float = 1.0
    #: SLO targets in milliseconds; 0 disables that quantile's gate.
    slo_p50_ms: float = 0.0
    slo_p99_ms: float = 250.0
    slo_p999_ms: float = 0.0
    slo_window_s: float = 30.0
    seed: int = 0
    #: ``serving_id`` of the cell whose final fabric state seeds this
    #: cell's run (warm-fabric chains); ``None`` for a fresh fabric.
    predecessor: str | None = None

    def __post_init__(self) -> None:
        self._coerce(
            float,
            (
                "rate_rps",
                "duration_s",
                "think_s",
                "payload_scale",
                "slo_p50_ms",
                "slo_p99_ms",
                "slo_p999_ms",
                "slo_window_s",
            ),
        )
        self._coerce(int, ("n_nodes", "depth", "breadth", "users", "seed"))
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"expected one of {_ARRIVALS}"
            )
        if self.topology not in _TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"expected one of {_TOPOLOGIES}"
            )
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.depth < 1 or self.breadth < 1:
            raise ValueError("depth and breadth must be >= 1")
        if self.rate_rps < 0 or self.users < 0:
            raise ValueError("rate_rps and users cannot be negative")
        if self.rate_rps == 0 and self.users == 0:
            raise ValueError("a serving cell needs load: rate_rps, users, or both")
        if self.duration_s <= 0 or self.payload_scale <= 0:
            raise ValueError("duration and payload scale must be positive")
        if self.think_s < 0:
            raise ValueError("think_s cannot be negative")
        if min(self.slo_p50_ms, self.slo_p99_ms, self.slo_p999_ms) < 0:
            raise ValueError("SLO targets cannot be negative")
        if self.slo_window_s <= 0:
            raise ValueError("slo_window_s must be positive")
        self._check_predecessor()

    @property
    def serving_id(self) -> str:
        """The ``srv-…`` content id (:attr:`~repro.workload.CellConfig.key`)."""
        return self.key

    def build_topology(self) -> ServiceTopology:
        if self.topology == "line":
            return ServiceTopology.line(self.depth)
        if self.topology == "fanout":
            return ServiceTopology.fanout(self.breadth, self.depth)
        return ServiceTopology.three_tier()

    def slo_policy(self) -> SloPolicy | None:
        """The cell's gate, or ``None`` when every target is disabled."""
        if max(self.slo_p50_ms, self.slo_p99_ms, self.slo_p999_ms) == 0:
            return None
        return SloPolicy(
            p50_ms=self.slo_p50_ms,
            p99_ms=self.slo_p99_ms,
            p999_ms=self.slo_p999_ms,
            window_s=self.slo_window_s,
        )


@dataclass
class ServingCellResult:
    """One serving cell's outcome, store-round-trippable."""

    config: ServingConfig
    n_requests: int
    n_completed: int
    makespan_s: float
    #: Run-level latency summary (count/mean/max/sum + P² quantiles).
    latency: dict
    #: Tumbling-window quantile rows the SLO gate evaluated.
    windows: list
    slo: SloReport | None
    #: Per-node link-model snapshots at finish (chain seeds).
    fabric_state: list | None = None
    cached: bool = False
    #: Event-loop steps (provenance only; never stored in documents).
    n_steps: int | None = None

    @property
    def slo_violations(self) -> int:
        """Violation count (0 without a policy) — provenance hook."""
        return 0 if self.slo is None else len(self.slo.violations)

    @property
    def slo_passed(self) -> bool | None:
        return None if self.slo is None else self.slo.passed

    def aggregate_row(self) -> dict:
        """One sweep-table row: config axes plus latency/SLO verdicts."""

        def ms(key: str):
            value = self.latency.get(key)
            if value is None or (
                isinstance(value, float) and value != value
            ):
                return None
            return round(value * 1000.0, 3)

        return {
            "serving": self.config.serving_id,
            "provider": self.config.provider_name,
            "instance": self.config.instance_name,
            "topology": self.config.topology,
            "arrival": self.config.arrival,
            "rate_rps": self.config.rate_rps,
            "users": self.config.users,
            "chained": self.config.predecessor is not None,
            "n_requests": self.n_requests,
            "p50_ms": ms("p50"),
            "p99_ms": ms("p99"),
            "p999_ms": ms("p999"),
            "max_ms": ms("max_s"),
            "slo_pass": self.slo_passed,
            "slo_violations": self.slo_violations,
        }


def _build_arrivals(config: ServingConfig, rng: np.random.Generator):
    """The cell's open-loop arrival iterator (``None`` when rate is 0).

    The diurnal and flash shapes derive every parameter from the
    configured rate and duration — ``rate_rps`` is the *peak*: diurnal
    swings between a quarter of it and all of it over one full cycle;
    flash idles at a fifth of it and spikes to it for the middle fifth
    of the run.
    """
    if config.rate_rps == 0:
        return None
    if config.arrival == "diurnal":
        return diurnal_process(
            rng,
            base_rps=config.rate_rps / 4.0,
            peak_rps=config.rate_rps,
            period_s=config.duration_s,
            duration_s=config.duration_s,
        )
    if config.arrival == "flash":
        return flash_crowd_process(
            rng,
            base_rps=config.rate_rps / 5.0,
            spike_rps=config.rate_rps,
            spike_start_s=config.duration_s * 0.4,
            spike_len_s=config.duration_s * 0.2,
            duration_s=config.duration_s,
        )
    return poisson_process(rng, config.rate_rps, config.duration_s)


def prepare_serving(
    config: ServingConfig, upstream: "ServingCellResult | None" = None
) -> Prepared:
    """Build one cell's fabric, topology, and serving state."""
    rng = np.random.default_rng(config.seed)
    engine, fabric = cell_fabric(config, upstream, rng)
    state = ServingState(
        engine,
        config.build_topology(),
        fabric,
        duration_s=config.duration_s,
        # Lazy: arrival gaps draw from the same cell generator as the
        # compute noise, interleaved in event order — deterministic,
        # and identical between the serial and batched drivers.
        arrivals=_build_arrivals(config, rng),
        users=config.users,
        think_s=config.think_s,
        payload_scale=config.payload_scale,
        slo_policy=config.slo_policy(),
    )
    return Prepared(config=config, state=state)


def finish_serving(prepared: Prepared, outcome) -> ServingCellResult:
    """Assemble a :class:`ServingCellResult` from a finished run."""
    return ServingCellResult(
        config=prepared.config,
        n_requests=outcome.n_requests,
        n_completed=outcome.n_completed,
        makespan_s=outcome.makespan_s,
        latency=dict(outcome.latency),
        windows=list(outcome.windows),
        slo=outcome.slo,
        fabric_state=fabric_snapshot(prepared.state.fabric),
        n_steps=outcome.n_steps,
    )


def run_serving(
    config: ServingConfig, upstream: "ServingCellResult | None" = None
) -> ServingCellResult:
    """Execute one serving cell end to end (pure function of config)."""
    prepared = prepare_serving(config, upstream=upstream)
    return finish_serving(prepared, prepared.state.execute())


def serving_matrix(
    providers: tuple[str, ...] = ("hpccloud", "fixed"),
    arrivals: tuple[str, ...] = ("poisson", "flash"),
    rates_rps: tuple[float, ...] = (20.0,),
    topologies: tuple[str, ...] = ("three_tier",),
    n_nodes: int = 8,
    duration_s: float = 120.0,
    users: int = 0,
    payload_scale: float = 1.0,
    slo_p99_ms: float = 250.0,
    slo_p999_ms: float = 0.0,
    slo_window_s: float = 30.0,
    seed: int = 0,
    instances: dict[str, str] | None = None,
    chain_length: int = 1,
) -> list[ServingConfig]:
    """Provider x arrival x rate x topology cells, one config per cell.

    Seeds and cache keys follow :func:`repro.workload.matrix`: stable
    under axis extension.
    """
    return matrix(
        ServingConfig,
        providers,
        [
            ("arrival", arrivals),
            ("rate_rps", [float(rate) for rate in rates_rps]),
            ("topology", topologies),
        ],
        seed=seed,
        instances=instances,
        chain_length=chain_length,
        n_nodes=n_nodes,
        duration_s=duration_s,
        users=users,
        payload_scale=payload_scale,
        slo_p99_ms=slo_p99_ms,
        slo_p999_ms=slo_p999_ms,
        slo_window_s=slo_window_s,
    )


# ----------------------------------------------------------------------
# runtime plumbing: the cell function and the store codec
# ----------------------------------------------------------------------
def run_serving_payload(
    payload: Mapping, upstream: "ServingCellResult | None" = None
) -> ServingCellResult:
    """Cell function: reconstruct the config and run the cell."""
    return run_serving(ServingConfig(**payload), upstream=upstream)


def encode_serving_result(result: ServingCellResult) -> tuple[dict, dict]:
    """Codec encoder: a serving cell as store documents.

    Everything the aggregate row and the SLO verdict need rides in one
    ``serving`` document.  Telemetry arrays and ``n_steps`` are
    deliberately not stored — stored bytes stay independent of
    sampling resolution and engine-internals accounting.
    """
    doc = {
        "n_requests": result.n_requests,
        "n_completed": result.n_completed,
        "makespan_s": result.makespan_s,
        "latency": result.latency,
        "windows": result.windows,
        "slo": None if result.slo is None else result.slo.to_dict(),
    }
    return encode_fabric(result, {"serving": doc}), {}


def decode_serving_result(
    cell: Cell, documents: Mapping
) -> ServingCellResult:
    """Codec decoder: rebuild a :class:`ServingCellResult` from the store."""
    doc = documents["serving"]
    slo_doc = doc.get("slo")
    return ServingCellResult(
        config=ServingConfig(**cell.payload),
        n_requests=int(doc["n_requests"]),
        n_completed=int(doc["n_completed"]),
        makespan_s=float(doc["makespan_s"]),
        latency=dict(doc["latency"]),
        windows=list(doc["windows"]),
        slo=None if slo_doc is None else SloReport.from_dict(slo_doc),
        fabric_state=decode_fabric(documents),
        cached=True,
    )
