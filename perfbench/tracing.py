"""Spans around calls into each layer's public functions, and the
per-layer metrics derived from them.

:class:`Tracer` wraps public methods and module functions of the
simulator for the duration of a ``with tracer.installed():`` block and
restores the originals afterwards; nothing in the program changes.
Spans are kept in memory as flat arrays (name, start, end, parent) and
written out with :meth:`Tracer.save` when the run ends.  A span's self
time is its duration minus the durations of its child spans, so the
self times of all spans under a root add up to the root's duration.

Counters are recorded at the same boundaries, so ratios such as the
share of water-fills that follow a flow-set or shaper-limit change are
measured where the work happens.
"""

from __future__ import annotations

import functools
import weakref
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

#: Every per-layer metric of a traced run, with its unit.  ``*_self_s``
#: is a span's duration minus its child spans; other ``*_s`` metrics
#: are whole span durations, summed over one run of the workload.
PER_LAYER: dict[str, str] = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "setup.build_s": "s",
    "core.steps": "count",
    "core.steps_per_s": "1/s",
    "core.prologue_self_s": "s",
    "core.loop_self_s": "s",
    "engine.epilogue_self_s": "s",
    "engine.tasks": "count",
    "engine.sample_compute_s": "s",
    "serving.epilogue_self_s": "s",
    "serving.requests": "count",
    "serving.completed": "count",
    "serving.hops": "count",
    "fabric.waterfill_calls": "count",
    "fabric.waterfill_s": "s",
    "fabric.waterfill_recompute_share": "fraction",
    "fabric.waterfill_flows_p50": "flows",
    "fabric.waterfill_flows_p99": "flows",
    "fabric.waterfill_ge64_share": "fraction",
    "fabric.horizon_self_s": "s",
    "fabric.advance_self_s": "s",
    "fabric.add_flow_s": "s",
    "fabric.flows_added": "count",
    "fabric.flows_completed": "count",
    "fabric.flows_removed": "count",
    "fabric.bound_step_share": "fraction",
    "fleet.horizons_s": "s",
    "fleet.advance_s": "s",
    "fleet.transitions": "count",
    "fleet.transition_share": "fraction",
    "store.puts": "count",
    "store.put_s": "s",
    "store.put_ms_p50": "ms",
    "store.put_ms_p90": "ms",
    "store.bytes_written": "bytes",
    "store.merge_from_s": "s",
    "codec.encode_s": "s",
    "scenario.prepare_s": "s",
    "scenario.run_s": "s",
    "worker.run_manifest_self_s": "s",
    "store.manifest_s": "s",
    "store.get_s": "s",
    "codec.decode_s": "s",
    "campaign.cache_hit_share": "fraction",
    "trace.overhead_pct": "%",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """In-memory span recorder plus the counters the layer metrics need."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # Counters.
        self.waterfill_flows = array("i")
        self.recomputes = 0
        self.bound_steps = 0
        self.flows_completed = 0
        self.transitions = 0
        self.bytes_written = 0
        self.fleet_classes: set[str] = set()
        # Per-fabric state: rates invalidated since the last water-fill,
        # and the horizon the last horizon() call returned.
        self._dirty: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._horizon: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._fleet_changed = False

    # -- spans -------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[index] = t0
        self.end[index] = t1

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        index = self._open(self._id(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(index, t0, perf_counter())

    def _wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a function of the call's first
        argument returning one.  ``before(args)`` and
        ``after(args, result)`` update counters outside the span.
        """
        original = getattr(owner, attr)
        fixed = self._id(name) if isinstance(name, str) else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            nid = fixed if fixed is not None else tracer._id(name(args[0]))
            index = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, t0, perf_counter())
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, traced)

    # -- counters ----------------------------------------------------------
    def _before_waterfill(self, args) -> None:
        fabric = args[0]
        self.waterfill_flows.append(len(fabric.flows))
        if self._dirty.get(fabric, True):
            self.recomputes += 1
            self._dirty[fabric] = False

    def _invalidate(self, args, result) -> None:
        self._dirty[args[0]] = True

    def _after_horizon(self, args, result) -> None:
        self._horizon[args[0]] = result

    def _before_advance(self, args) -> None:
        fabric, dt = args[0], args[1]
        if dt == self._horizon.get(fabric):
            self.bound_steps += 1

    def _after_advance(self, args, result) -> None:
        self.flows_completed += len(result)
        if result or self._fleet_changed:
            self._dirty[args[0]] = True
        self._fleet_changed = False

    def _after_fleet_advance(self, args, result) -> None:
        self.fleet_classes.add(type(args[0]).__name__)
        if result:
            self.transitions += 1
            self._fleet_changed = True

    def _after_put(self, args, result) -> None:
        from repro.runtime.store import MANIFEST_NAME

        store = args[0]
        self.bytes_written += sum(p.stat().st_size for p in Path(result).glob("*.json"))
        self.bytes_written += (store.root / MANIFEST_NAME).stat().st_size

    # -- installation ------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every traced layer boundary for the ``with`` body."""
        import repro.runtime.worker as worker
        import repro.scenarios.orchestrate as orchestrate
        from repro.netmodel.fleet import LinkModelFleet
        from repro.runtime.store import ArtifactStore
        from repro.serving.state import ServingState
        from repro.simulator.core import EventCore
        from repro.simulator.engine import SparkEngine
        from repro.simulator.fabric import Fabric

        def epilogue_name(state) -> str:
            return "serving.epilogue" if isinstance(state, ServingState) else "engine.epilogue"

        try:
            self._wrap(EventCore, "step_prologue", "core.prologue")
            self._wrap(EventCore, "step_epilogue", epilogue_name)
            self._wrap(SparkEngine, "sample_compute_time", "engine.sample_compute")
            self._wrap(Fabric, "compute_rates", "fabric.waterfill", before=self._before_waterfill)
            self._wrap(Fabric, "horizon", "fabric.horizon", after=self._after_horizon)
            self._wrap(
                Fabric, "advance", "fabric.advance",
                before=self._before_advance, after=self._after_advance,
            )
            self._wrap(Fabric, "add_flow", "fabric.add_flow", after=self._invalidate)
            self._wrap(Fabric, "remove_flow", "fabric.remove_flow", after=self._invalidate)
            for fleet in LinkModelFleet.__subclasses__():
                self._wrap(fleet, "horizons", "fleet.horizons")
                self._wrap(fleet, "advance", "fleet.advance", after=self._after_fleet_advance)
            self._wrap(ArtifactStore, "put", "store.put", after=self._after_put)
            self._wrap(ArtifactStore, "get", "store.get")
            self._wrap(ArtifactStore, "manifest", "store.manifest")
            self._wrap(ArtifactStore, "merge_from", "store.merge_from")
            self._wrap(worker, "run_manifest", "worker.run_manifest")
            self._wrap(orchestrate, "prepare_scenario", "scenario.prepare")
            self._wrap(orchestrate, "run_scenario", "scenario.run")
            self._wrap(orchestrate, "encode_scenario_result", "codec.encode")
            self._wrap(orchestrate, "decode_scenario_result", "codec.decode")
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                if original is None:
                    delattr(owner, attr)  # the attribute was inherited
                else:
                    setattr(owner, attr, original)
            self._patches.clear()

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        """Write every span (name table plus flat arrays) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans of that name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = _child_durations(a["parent"], dur)
        totals = np.bincount(a["name"], weights=dur - child, minlength=len(self.names))
        return dict(zip(self.names, totals.tolist()))

    def check_nesting(self) -> list[str]:
        """Every child span lies inside its parent, and self times add up."""
        a = self.arrays()
        parent, start, end = a["parent"], a["start"], a["end"]
        has = parent >= 0
        inside = (start[has] >= start[parent[has]]) & (end[has] <= end[parent[has]])
        problems = []
        if not inside.all():
            problems.append(f"{int((~inside).sum())} spans outside their parent")
        dur = end - start
        roots = float(dur[~has].sum())
        total_self = float((dur - _child_durations(parent, dur)).sum())
        if abs(total_self - roots) > 1e-9 * max(roots, 1.0):
            problems.append(f"self times sum to {total_self}, root spans to {roots}")
        return problems

    def layer_metrics(self, outputs: dict) -> dict[str, float]:
        """The per-layer metrics of everything recorded so far.

        ``outputs`` are the simulated outputs of the traced unit; the
        serving counts and the warm-pass hit share come from there.
        """
        a = self.arrays()
        names, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        own = dur - _child_durations(parent, dur)
        n_names = len(self.names)
        count_by = np.bincount(names, minlength=n_names)
        total_by = np.bincount(names, weights=dur, minlength=n_names)
        self_by = np.bincount(names, weights=own, minlength=n_names)

        def nid(name: str) -> int:
            return self._ids.get(name, -1)

        def count(name: str) -> int:
            i = nid(name)
            return int(count_by[i]) if i >= 0 else 0

        def total(name: str) -> float:
            i = nid(name)
            return float(total_by[i]) if i >= 0 else 0.0

        def self_s(name: str) -> float:
            i = nid(name)
            return float(self_by[i]) if i >= 0 else 0.0

        def durations(name: str) -> np.ndarray:
            return dur[names == nid(name)]

        def quantile(values: np.ndarray, q: float) -> float:
            return float(np.percentile(values, q)) if values.size else 0.0

        run_s = float(dur[parent < 0].sum())
        prologue = names == nid("core.prologue")
        loop_parents = np.unique(parent[prologue])
        loop_parents = loop_parents[loop_parents >= 0]
        add_flow_parents = parent[(names == nid("fabric.add_flow")) & (parent >= 0)]
        serving_epilogue = nid("serving.epilogue")
        hops = (
            int(np.count_nonzero(names[add_flow_parents] == serving_epilogue))
            if serving_epilogue >= 0
            else 0
        )
        flows = np.frombuffer(self.waterfill_flows, dtype=np.int32)
        steps = count("core.prologue")
        put_ms = durations("store.put") * 1e3
        cells = outputs.get("n_cells", 0)
        return {
            "core.steps": steps,
            "core.steps_per_s": _ratio(steps, run_s),
            "core.prologue_self_s": self_s("core.prologue"),
            "core.loop_self_s": float(own[loop_parents].sum()),
            "engine.epilogue_self_s": self_s("engine.epilogue"),
            "engine.tasks": count("engine.sample_compute"),
            "engine.sample_compute_s": total("engine.sample_compute"),
            "serving.epilogue_self_s": self_s("serving.epilogue"),
            "serving.requests": outputs.get("n_requests", 0),
            "serving.completed": outputs.get("n_completed", 0),
            "serving.hops": hops,
            "fabric.waterfill_calls": count("fabric.waterfill"),
            "fabric.waterfill_s": total("fabric.waterfill"),
            "fabric.waterfill_recompute_share": _ratio(
                self.recomputes, count("fabric.waterfill")
            ),
            "fabric.waterfill_flows_p50": quantile(flows, 50),
            "fabric.waterfill_flows_p99": quantile(flows, 99),
            "fabric.waterfill_ge64_share": _ratio(
                int(np.count_nonzero(flows >= 64)), flows.size
            ),
            "fabric.horizon_self_s": self_s("fabric.horizon"),
            "fabric.advance_self_s": self_s("fabric.advance"),
            "fabric.add_flow_s": total("fabric.add_flow"),
            "fabric.flows_added": count("fabric.add_flow"),
            "fabric.flows_completed": self.flows_completed,
            "fabric.flows_removed": count("fabric.remove_flow"),
            "fabric.bound_step_share": _ratio(
                self.bound_steps, count("fabric.advance")
            ),
            "fleet.horizons_s": total("fleet.horizons"),
            "fleet.advance_s": total("fleet.advance"),
            "fleet.transitions": self.transitions,
            "fleet.transition_share": _ratio(
                self.transitions, count("fleet.advance")
            ),
            "store.puts": count("store.put"),
            "store.put_s": total("store.put"),
            "store.put_ms_p50": quantile(put_ms, 50),
            "store.put_ms_p90": quantile(put_ms, 90),
            "store.bytes_written": self.bytes_written,
            "store.merge_from_s": total("store.merge_from"),
            "codec.encode_s": total("codec.encode"),
            "scenario.prepare_s": total("scenario.prepare"),
            "scenario.run_s": total("scenario.run"),
            "worker.run_manifest_self_s": self_s("worker.run_manifest"),
            "store.manifest_s": total("store.manifest"),
            "store.get_s": total("store.get"),
            "codec.decode_s": total("codec.decode"),
            "campaign.cache_hit_share": _ratio(outputs.get("cache_hits", 0), cells),
        }


def _child_durations(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    has = parent >= 0
    return np.bincount(parent[has], weights=dur[has], minlength=dur.size)
