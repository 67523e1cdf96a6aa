"""One workload pipeline: content-hashed cells, chains, matrices, campaigns.

KheOps-style campaign economics: a variability study is only as broad
as the number of (provider, instance, load, policy) cells it can afford
to run, so every workload's cells go through one cheap, repeatable
pipeline —

* a frozen config dataclass (a :class:`CellConfig`) hashes into a
  stable content id (``scn-…``, ``srv-…``), so a
  :class:`~repro.measurement.repository.TraceRepository` skips cells
  that already ran and extending an axis only executes the new column;
* :func:`matrix` crosses the axes with per-cell seeds derived from the
  axis *values* (never positions), and :func:`chain` expands a cell
  into a warm-fabric chain whose links each inherit their
  predecessor's shaper state (:func:`cell_fabric` guards the link);
* :class:`ScenarioCampaign` maps configs to runtime
  :class:`~repro.runtime.cell.Cell`\\ s (:func:`cells`) and runs them
  through a pluggable :mod:`repro.runtime` executor — serial, a process
  pool, the lockstep batched driver (:func:`batch_executor`), or
  per-machine shard manifests — and the execution strategy never
  changes a result, only the wall clock.

A workload supplies only what differs: its config fields and
validation, ``prepare`` (config -> :class:`Prepared` event core),
``finish`` (outcome -> result with ``aggregate_row``), and the body of
its store documents.  The DAG-stream workload lives in
:mod:`repro.scenarios.orchestrate`, request serving in
:mod:`repro.serving.scenario`.  Their cell functions, codecs, prepare
and finish are named by import path and resolved at call time, so shard
manifests written by older versions keep running and instrumentation
that patches those module attributes sees every run path.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from repro.cloud.providers import default_providers
from repro.measurement.repository import TraceRepository, run_wrapping_corruption
from repro.netmodel.base import ConstantRateModel
from repro.netmodel.state import model_from_state, model_state_dict
from repro.runtime.campaign import CampaignRunner
from repro.runtime.cell import Cell, resolve_ref
from repro.runtime.executors import (
    BatchExecutor,
    ProcessPoolExecutor,
    SerialExecutor,
)
from repro.runtime.worker import write_shard_manifests
from repro.simulator.cluster import Cluster, NodeSpec
from repro.simulator.core import EventCore
from repro.simulator.engine import SparkEngine
from repro.simulator.fabric import Fabric
from repro.simulator.multistream import run_cores

__all__ = [
    "CellConfig",
    "Prepared",
    "ScenarioCampaign",
    "CampaignOutcome",
    "cell_fabric",
    "fabric_snapshot",
    "encode_fabric",
    "decode_fabric",
    "run_batched",
    "run_cells_batched",
    "batch_executor",
    "chain",
    "matrix",
    "cells",
    "DEFAULT_INSTANCES",
    "FIXED_RATE_GBPS",
]

#: Clean-fabric egress rate for the ``"fixed"`` pseudo-provider: the
#: HPC-cloud-class median (its resampled marginals span ~7.7-10.4
#: Gbps), so fixed-vs-hpccloud contrasts variability, not mean capacity.
FIXED_RATE_GBPS = 9.0

#: Default instance type per provider, matching the Table 3 catalog
#: (plus the ``"fixed"`` pseudo-provider).
DEFAULT_INSTANCES: dict[str, str] = {
    "amazon": "c5.xlarge",
    "google": "gce-4core",
    "hpccloud": "hpccloud-8core",
    "fixed": "fixed-9gbps",
}

#: Cell function ref -> config class, filled as workloads are defined.
_CONFIG_TYPES: dict[str, type] = {}


class CellConfig:
    """Base of every workload's frozen config dataclass.

    A subclass declares its fields (at least ``provider_name``,
    ``instance_name``, ``n_nodes``, ``seed`` and ``predecessor``) and
    these class attributes:

    * ``id_prefix`` — the content id's prefix (``"scn"``);
    * ``id_defaults`` — fields dropped from the hash while they hold
      this default: fields added after stores were populated, so those
      stores stay warm;
    * ``noun`` — what a cell is called in messages (``"scenario"``);
    * ``run_ref`` — the cell function, ``fn(payload, upstream=None)``;
    * ``prepare_ref`` / ``finish_ref`` — ``prepare(config,
      upstream=None) -> Prepared`` and ``finish(prepared, outcome)``;
    * ``codec`` — the store
      :class:`~repro.runtime.campaign.ArtifactCodec`.
    """

    id_defaults: Mapping[str, object] = {"predecessor": None}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _CONFIG_TYPES[cls.run_ref] = cls

    @property
    def key(self) -> str:
        """Content hash of the config: the repository cache key.

        Two configs share a key exactly when every field matches, so a
        stored result can stand in for re-execution.
        """
        payload = asdict(self)
        for name, default in self.id_defaults.items():
            if payload[name] == default:
                del payload[name]
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return f"{self.id_prefix}-{digest.hexdigest()[:16]}"

    def _coerce(self, kind: type, names: Sequence[str]) -> None:
        """Normalize numeric fields so equal configs hash equally
        (``json.dumps`` renders 1 and 1.0 differently)."""
        for name in names:
            object.__setattr__(self, name, kind(getattr(self, name)))

    def _check_predecessor(self) -> None:
        if self.predecessor is not None and not self.predecessor.startswith(
            f"{self.id_prefix}-"
        ):
            raise ValueError(
                f"predecessor must be a {self.noun} id, got {self.predecessor!r}"
            )


@dataclass
class Prepared:
    """A cell built and ready to run: the prepare/finish seam.

    The serial path is prepare → ``state.execute()`` → finish; the
    batched path swaps the middle for one
    :func:`~repro.simulator.multistream.run_cores` call over many
    cells' states.  All RNG-consuming construction happens in prepare,
    so the two paths are bit-identical per cell.
    """

    config: CellConfig
    state: EventCore


def cell_fabric(config, upstream, rng, node_spec: NodeSpec = NodeSpec()):
    """The cell's engine and fabric: ``(SparkEngine, Fabric)``.

    A fresh cell draws one link model per node from its provider (the
    ``"fixed"`` pseudo-provider pins every link at
    :data:`FIXED_RATE_GBPS`).  A chained cell — ``config.predecessor``
    set — instead rebuilds its predecessor's per-node shaper snapshots
    from ``upstream`` (same incarnations, same budgets, same RNG
    positions: back-to-back tenants on a warm fabric, the Figure 19
    carry-over at campaign scale), after checking that ``upstream`` is
    there, carries a fabric, and ran the same provider incarnation on
    the same node count.
    """
    if config.predecessor is not None:
        if upstream is None:
            raise ValueError(
                f"cell {config.key} chains after "
                f"{config.predecessor} but no upstream result was supplied"
            )
        if upstream.fabric_state is None:
            raise ValueError(
                f"predecessor {config.predecessor} carries no fabric "
                "state (stored by an older version?); recompute it"
            )
        if (
            upstream.config.provider_name != config.provider_name
            or upstream.config.instance_name != config.instance_name
        ):
            # The inherited models ARE the predecessor's provider
            # incarnations; letting a cell labeled for another provider
            # run on them would poison rows and cache keys alike.
            raise ValueError(
                f"chained cell {config.key} targets "
                f"{config.provider_name}/{config.instance_name} but its "
                f"predecessor ran {upstream.config.provider_name}/"
                f"{upstream.config.instance_name}; a warm-fabric chain "
                "stays on one provider incarnation"
            )
        if len(upstream.fabric_state) != config.n_nodes:
            raise ValueError(
                f"predecessor fabric has {len(upstream.fabric_state)} "
                f"nodes, this cell needs {config.n_nodes}"
            )
        models = [model_from_state(s) for s in upstream.fabric_state]
    elif config.provider_name == "fixed":
        models = [
            ConstantRateModel(FIXED_RATE_GBPS) for _ in range(config.n_nodes)
        ]
    else:
        provider = default_providers()[config.provider_name]
        models = [
            provider.link_model(config.instance_name, rng)
            for _ in range(config.n_nodes)
        ]
    cluster = Cluster(
        n_nodes=config.n_nodes,
        node_spec=node_spec,
        link_model_factory=lambda node: models[node],
    )
    return SparkEngine(cluster, rng=rng), cluster.build_fabric()


def fabric_snapshot(fabric: Fabric) -> list[dict]:
    """Per-node link-model snapshots of a finished cell (chain seeds)."""
    return [model_state_dict(m) for m in fabric.egress_models]


def encode_fabric(result, documents: dict) -> dict:
    """Add the fabric snapshot to a result's store documents.

    It travels as its own ``fabric`` document, so chained successors
    can reload it and readers of the workload's body ignore it.
    """
    if result.fabric_state is not None:
        documents["fabric"] = {"models": result.fabric_state}
    return documents


def decode_fabric(documents: Mapping) -> list | None:
    """The stored fabric snapshot, or ``None`` when none was stored."""
    fabric_doc = documents.get("fabric")
    return None if fabric_doc is None else list(fabric_doc["models"])


def run_batched(configs: Sequence[CellConfig], upstreams=None) -> list:
    """Run independent cells through the lockstep batched driver.

    Bit-identical to running each cell serially — RNG draws, event
    order and floats are unchanged — but all cells' shaper-fleet work
    batches through one concatenated super-fleet per fleet class
    (cells are grouped automatically, so mixed-provider matrices work).
    Cells must be independent of *each other*; a chained cell needs
    its upstream result in ``upstreams``.
    """
    if upstreams is None:
        upstreams = [None] * len(configs)
    if len(upstreams) != len(configs):
        raise ValueError("one upstream entry (or None) per config required")
    prepared = [
        resolve_ref(config.prepare_ref)(config, upstream=upstream)
        for config, upstream in zip(configs, upstreams)
    ]
    # Super-fleet concatenation requires one concrete fleet class;
    # grouping keeps per-cell results exact (cells are independent).
    groups: dict[type, list[int]] = {}
    for index, prep in enumerate(prepared):
        groups.setdefault(type(prep.state.fabric.fleet), []).append(index)
    results: list = [None] * len(configs)
    for indices in groups.values():
        outcomes = run_cores([prepared[i].state for i in indices])
        for i, outcome in zip(indices, outcomes):
            finish = resolve_ref(prepared[i].config.finish_ref)
            results[i] = finish(prepared[i], outcome)
    return results


def run_cells_batched(batch: Sequence[Cell], upstreams) -> list:
    """Batch-runner hook for :class:`~repro.runtime.executors.BatchExecutor`:
    rebuild each cell's config and run the batch via :func:`run_batched`."""
    configs = [_CONFIG_TYPES[cell.fn](**cell.payload) for cell in batch]
    return run_batched(configs, upstreams)


def batch_executor(batch_size: int = 32) -> BatchExecutor:
    """A :class:`~repro.runtime.executors.BatchExecutor` for workload cells.

    ``ScenarioCampaign(configs, executor=batch_executor()).run()`` runs
    a matrix's independent cells through the lockstep batched driver;
    rows, checksums and cache keys are bit-identical to the serial
    default — only the wall clock changes.
    """
    return BatchExecutor(run_cells_batched, batch_size=batch_size)


def chain(base: CellConfig, length: int) -> list:
    """A warm-fabric chain of ``length`` cells rooted at ``base``.

    Link ``i`` names link ``i-1`` as its predecessor and derives a
    distinct seed, so each link is a *different* tenant arriving on the
    fabric the previous tenant left warm — shaper budgets, stream ages,
    and RNG positions all carry over.  Each link's key covers its
    predecessor's, so extending a chain never invalidates its prefix.
    """
    if length < 1:
        raise ValueError("a chain needs at least one cell")
    configs = [base]
    for i in range(1, length):
        configs.append(
            replace(base, seed=base.seed + i, predecessor=configs[-1].key)
        )
    return configs


def matrix(
    config_type: type,
    providers: Sequence[str],
    axes: Sequence[tuple[str, Sequence]],
    seed: int = 0,
    instances: Mapping[str, str] | None = None,
    chain_length: int = 1,
    **fields,
) -> list:
    """Cross product of ``providers`` and the named ``axes``.

    ``axes`` pairs config field names with their values (the last axis
    varies fastest); ``fields`` are shared by every cell.  Each cell's
    seed derives from the base ``seed`` and the cell's own axis values
    (not its position in the cross product), so cells are
    statistically independent yet *stable*: extending an axis later
    leaves every pre-existing cell's seed — and therefore its cache
    key — unchanged.  ``chain_length`` > 1 expands every cell into a
    warm-fabric chain (see :func:`chain`).
    """
    if chain_length < 1:
        raise ValueError("chain_length must be >= 1")
    instances = {**DEFAULT_INSTANCES, **(instances or {})}
    names = [name for name, _ in axes]
    configs = []
    for provider in providers:
        for values in itertools.product(*(values for _, values in axes)):
            cell_key = json.dumps(
                [int(seed), provider, instances[provider], *values]
            )
            cell_seed = seed + int.from_bytes(
                hashlib.sha256(cell_key.encode()).digest()[:4], "big"
            )
            base = config_type(
                provider_name=provider,
                instance_name=instances[provider],
                seed=cell_seed,
                **dict(zip(names, values)),
                **fields,
            )
            configs.extend(chain(base, chain_length))
    return configs


def cells(configs: Sequence[CellConfig]) -> list[Cell]:
    """Map configs to runtime cells.

    Cells keep the config's content id as their key, so repositories
    populated before the runtime refactor keep serving cache hits; a
    config's ``predecessor`` becomes the cell's ``after`` link, which
    keeps a warm-fabric chain ordered (and on one shard) under every
    executor.
    """
    return [
        Cell(
            fn=config.run_ref,
            payload=asdict(config),
            key=config.key,
            after=config.predecessor,
        )
        for config in configs
    ]


@dataclass
class CampaignOutcome:
    """Everything one campaign run produced, cache hits included."""

    results: dict
    cached_ids: tuple[str, ...]
    computed_ids: tuple[str, ...]

    def aggregate_rows(self) -> list[dict]:
        """Sweep-table rows, deterministically ordered by cell id."""
        return [
            self.results[sid].aggregate_row() for sid in sorted(self.results)
        ]

    @property
    def cache_hit_fraction(self) -> float:
        total = len(self.cached_ids) + len(self.computed_ids)
        return len(self.cached_ids) / total if total else 0.0


class ScenarioCampaign:
    """Runs a matrix of one workload's cells, caching them in a repository.

    A thin adapter over :class:`repro.runtime.campaign.CampaignRunner`:
    cells store as they complete, so an interrupted or partially
    failing sweep keeps its finished work, and the repository's
    manifest writes are atomic (single coordinating writer per
    executor; shard workers write their own stores and merge).

    ``configs`` must all be of one workload (DAG scenarios or serving
    cells; run two campaigns into one repository to mix them).
    ``executor`` overrides the strategy derived from ``workers``
    (serial for 1, a chunked process pool otherwise) — pass
    :func:`batch_executor` for the lockstep batched driver, a
    :class:`repro.runtime.executors.ShardExecutor` to split the matrix
    into per-machine manifests, or use :meth:`shard_manifests` and the
    ``repro worker`` / ``repro merge`` CLI directly.
    """

    def __init__(
        self,
        configs: Sequence[CellConfig],
        repository: TraceRepository | None = None,
        workers: int = 1,
        executor=None,
    ) -> None:
        if not configs:
            raise ValueError("a campaign needs at least one cell")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        kinds = {type(config) for config in configs}
        if len(kinds) > 1:
            raise ValueError(
                "a campaign runs one workload, got "
                f"{sorted(kind.__name__ for kind in kinds)}; run one "
                "campaign per workload into the same repository instead"
            )
        ids = [config.key for config in configs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate {configs[0].noun} configs in the matrix")
        self.configs = list(configs)
        self.codec = configs[0].codec
        self.repository = repository
        self.workers = workers
        if executor is None:
            executor = (
                SerialExecutor() if workers == 1 else ProcessPoolExecutor(workers)
            )
        self.executor = executor

    @property
    def cells(self) -> list[Cell]:
        """The matrix as runtime cells (keyed by content id)."""
        return cells(self.configs)

    def shard_manifests(self, directory: str | Path, n_shards: int) -> list[Path]:
        """Write per-machine shard manifests for this matrix.

        Each manifest runs via ``python -m repro worker <manifest>
        --store <dir>``; the resulting stores merge back with
        ``python -m repro merge``.
        """
        return write_shard_manifests(
            self.cells,
            n_shards=n_shards,
            directory=directory,
            encode_ref=self.codec.encode_ref,
            decode_ref=self.codec.decode_ref,
        )

    def run(self) -> CampaignOutcome:
        """Execute pending cells (per the executor), reload cached ones.

        Raises :class:`~repro.measurement.repository.RepositoryCorruptionError`
        when a cached cell's files have gone missing behind the
        manifest's back.
        """
        runner = CampaignRunner(
            self.cells,
            store=self.repository.artifacts if self.repository else None,
            codec=self.codec,
            executor=self.executor,
        )
        outcome = run_wrapping_corruption(runner)
        return CampaignOutcome(
            results=dict(outcome.results),
            cached_ids=outcome.cached_keys,
            computed_ids=outcome.computed_keys,
        )
