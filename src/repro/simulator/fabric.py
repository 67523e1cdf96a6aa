"""The cluster network fabric: fluid flows with max-min fair sharing.

Every node has an egress shaper (any
:class:`~repro.netmodel.base.LinkModel` — a token bucket for the
emulated-EC2 experiments) and an ingress capacity.  Active flows share
those resources max-min fairly, which is what TCP congestion control
approximates for long-lived shuffle transfers on a non-blocking core
(the paper's 12-node cluster has an FDR InfiniBand fabric, so node
access links are the only bottlenecks).

Rates are piecewise-constant: :meth:`Fabric.compute_rates` performs the
water-filling, :meth:`Fabric.horizon` bounds how long the current rate
assignment stays valid (flow completions and shaper transitions), and
:meth:`Fabric.advance` integrates one step, returning completed flows.

Internally the fabric is a struct-of-arrays engine: flow endpoints,
remaining volumes, and rates live in flat numpy arrays kept in flow
insertion order, and :class:`Flow` objects are handles into them.
Flow bookkeeping is incremental.  Each node keeps two member lists
(its egress flows and its ingress flows, live handles in insertion
order), appended by :meth:`Fabric.add_flow` and pruned when a flow
retires.  A completed or removed flow retires without moving any
other flow: its handle takes its final values and detaches, and its
slot stays behind as a tombstone (``remaining = inf``, ``rate = 0.0``) that never completes,
never binds the horizon and adds an exact ``+0.0`` to egress sums.
One order-preserving squeeze drops the tombstones once they
outnumber the live slots, and before every compiled water-fill.

Each computation has one implementation per leg: with numba, the
compiled :mod:`repro.simulator._kernels` loops; without it, the scalar
reference progressive filling (over the member lists, Python scalars)
and plain per-flow bound and advance loops.  Both legs reproduce the
reference algorithm *bit for bit* — same saturation order, same
tie-breaking (first resource in flow-insertion order wins), same
floating-point operation order for the per-flow capacity subtractions
— which is what lets the golden-trace equivalence test pin
pre-refactor outputs exactly.

The shaper side is batched: the fabric holds a
:class:`~repro.netmodel.fleet.LinkModelFleet` (built automatically
from the ``egress_models`` sequence — homogeneous model lists get
struct-of-arrays fleets, anything else the per-model
:class:`~repro.netmodel.fleet.ScalarFleetAdapter` loop), so gathering
N egress ceilings, bounding N shaper horizons, and advancing N shapers
are single array operations rather than N scalar calls per event step.
Near-tied shaper horizons additionally *coalesce*: horizons within a
relative ``coalesce_eps`` of the binding event are treated as one
event, so a fleet of look-alike token buckets whose budgets differ
only by float residue transitions in one step instead of fragmenting
into N micro-steps.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Sequence

import numpy as np

from repro.netmodel.base import LinkModel
from repro.netmodel.fleet import LinkModelFleet, build_fleet
from repro.simulator import _kernels

__all__ = ["Flow", "Fabric"]

#: Flows whose remaining volume drops to/below this complete (Gbit).
_COMPLETE_EPS_GBIT = 1e-9

#: Initial capacity of the flow arrays; doubled on demand.
_MIN_CAPACITY = 64

#: Default relative tolerance for event-horizon coalescing: shaper
#: horizons within this factor of the step bound resolve in the same
#: step.  One part per billion is far below any physically distinct
#: event spacing but wide enough to absorb accumulation residue that
#: escapes the shapers' own state-snap epsilons (budget deltas just
#: above ``_EMPTY_EPS_GBIT`` on ordinary bucket scales).
_COALESCE_EPS = 1e-9


class Flow:
    """One fluid transfer between two nodes.

    While registered, the authoritative ``remaining_gbit``/``rate_gbps``
    state lives in the owning fabric's arrays and the handle reads
    through; once completed or removed, the final values are
    materialized onto the handle (so a completed flow still reports its
    terminal state, as callers of :meth:`Fabric.advance` expect).
    """

    __slots__ = ("flow_id", "src", "dst", "tag", "_fabric", "_index", "_remaining", "_rate")

    def __init__(
        self, flow_id: int, src: int, dst: int, volume_gbit: float, tag: object = None
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.tag = tag
        self._fabric: "Fabric | None" = None
        self._index = -1
        self._remaining = float(volume_gbit)
        self._rate = 0.0

    @property
    def remaining_gbit(self) -> float:
        if self._fabric is not None:
            return float(self._fabric._remaining[self._index])
        return self._remaining

    @remaining_gbit.setter
    def remaining_gbit(self, value: float) -> None:
        if self._fabric is not None:
            self._fabric._remaining[self._index] = value
            self._fabric._flow_bound_valid = False
        else:
            self._remaining = float(value)

    @property
    def rate_gbps(self) -> float:
        if self._fabric is not None:
            return float(self._fabric._rate[self._index])
        return self._rate

    @rate_gbps.setter
    def rate_gbps(self, value: float) -> None:
        if self._fabric is not None:
            self._fabric._rate[self._index] = value
            self._fabric._flow_bound_valid = False
        else:
            self._rate = float(value)

    def completion_time(self) -> float:
        """Seconds until completion at the current rate."""
        remaining = self.remaining_gbit
        if remaining <= 0:
            return 0.0
        rate = self.rate_gbps
        if rate <= 0:
            return math.inf
        return remaining / rate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Flow({self.src}->{self.dst}, {self.remaining_gbit:.1f} Gbit "
            f"@ {self.rate_gbps:.2f} Gbps)"
        )


class Fabric:
    """Max-min fair fluid network between cluster nodes."""

    def __init__(
        self,
        egress_models: Sequence[LinkModel] | LinkModelFleet,
        ingress_caps_gbps: Sequence[float],
        coalesce_eps: float = _COALESCE_EPS,
    ) -> None:
        if isinstance(egress_models, LinkModelFleet):
            self.fleet = egress_models
        else:
            self.fleet = build_fleet(egress_models)
        if coalesce_eps < 0:
            raise ValueError("coalesce_eps cannot be negative")
        self.coalesce_eps = float(coalesce_eps)
        if self.fleet.n != len(ingress_caps_gbps):
            raise ValueError("one ingress cap per egress model required")
        if any(cap <= 0 for cap in ingress_caps_gbps):
            raise ValueError("ingress caps must be positive")
        self.egress_models = list(self.fleet.models)
        self.ingress_caps = [float(c) for c in ingress_caps_gbps]
        #: Number of nodes attached to the fabric.
        self.n_nodes = self.fleet.n
        self._ingress_arr = np.asarray(self.ingress_caps, dtype=float)
        #: Live flows by id, in insertion order.
        self.flows: dict[int, Flow] = {}
        self._next_id = 0
        self._rates_valid = False
        # Struct-of-arrays flow state, in insertion order up to _n
        # slots; retired slots are tombstones (handle None).
        self._src = np.zeros(_MIN_CAPACITY, dtype=np.intp)
        self._dst = np.zeros(_MIN_CAPACITY, dtype=np.intp)
        self._remaining = np.zeros(_MIN_CAPACITY, dtype=float)
        self._rate = np.zeros(_MIN_CAPACITY, dtype=float)
        self._handles: list[Flow | None] = []
        self._n = 0
        self._n_dead = 0
        #: Water-filling resources: ``_members[node]`` holds the node's
        #: live egress flows, ``_members[n_nodes + node]`` its live
        #: ingress flows, each in insertion order.
        self._members: list[list[Flow]] = [[] for _ in range(2 * self.n_nodes)]
        #: Per-node aggregate send rates under the current assignment,
        #: computed at most once per event step (``None`` = stale).
        self._egress_cache: np.ndarray | None = None
        #: Conservative lower bound on the earliest flow completion,
        #: maintained incrementally across completion-free advances so
        #: :meth:`horizon` can skip the O(flows) scan when no flow can
        #: possibly bind (see the maintenance notes in :meth:`advance`).
        self._flow_bound = math.inf
        self._flow_bound_valid = False
        #: Scratch for the compiled advance kernel's completed indices.
        self._done_scratch = np.empty(_MIN_CAPACITY, dtype=np.int64)
        #: Optional external buffer for the egress cache (a view into
        #: the multistream runner's shared staging array); ``None``
        #: means refills allocate their own array.
        self._egress_out: np.ndarray | None = None

    def set_recorder(self, recorder) -> None:
        """Attach (or with ``None`` detach) an observability recorder.

        Wires the fleet's :attr:`~repro.netmodel.fleet.LinkModelFleet.
        transition_hook` to the recorder's shaper-transition handler so
        throttle/redraw events surface as metrics and trace events.
        The hook only reads fleet state; detaching restores the
        zero-overhead path.
        """
        if recorder is None:
            self.fleet.transition_hook = None
        else:
            recorder.bind_fabric(self)
            self.fleet.transition_hook = recorder.on_shaper_transition

    # ------------------------------------------------------------------
    # flow registry
    # ------------------------------------------------------------------
    def add_flow(self, src: int, dst: int, volume_gbit: float, tag: object = None) -> Flow:
        """Register a new transfer; rates are recomputed lazily."""
        if not 0 <= src < self.n_nodes or not 0 <= dst < self.n_nodes:
            raise ValueError(f"flow endpoints out of range: {src}->{dst}")
        if src == dst:
            raise ValueError("loopback transfers never touch the fabric")
        if volume_gbit <= 0:
            raise ValueError("flow volume must be positive")
        if self._n == self._src.shape[0]:
            self._grow()
        index = self._n
        self._src[index] = src
        self._dst[index] = dst
        self._remaining[index] = volume_gbit
        self._rate[index] = 0.0
        flow = Flow(self._next_id, src, dst, volume_gbit, tag=tag)
        flow._fabric = self
        flow._index = index
        self._next_id += 1
        self.flows[flow.flow_id] = flow
        self._handles.append(flow)
        self._members[src].append(flow)
        self._members[self.n_nodes + dst].append(flow)
        self._n = index + 1
        self._rates_valid = False
        self._egress_cache = None
        self._flow_bound_valid = False
        return flow

    def remove_flow(self, flow: Flow) -> None:
        """Withdraw a flow (for cancelled tasks).

        A handle not registered here — already completed or removed,
        or owned by a different fabric (flow ids are per-fabric
        counters, so ids alone cannot identify a flow) — is a no-op.
        """
        if flow._fabric is not self:
            return
        self._retire(flow)
        self._rates_valid = False
        self._egress_cache = None
        self._flow_bound_valid = False

    def _grow(self) -> None:
        capacity = max(2 * self._src.shape[0], _MIN_CAPACITY)
        for name in ("_src", "_dst", "_remaining", "_rate"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)
        self._done_scratch = np.empty(capacity, dtype=np.int64)

    def _retire(self, flow: Flow) -> None:
        """Detach ``flow`` with its final values; tombstone its slot.

        The tombstone (``remaining = inf``, ``rate = 0.0``) never
        completes, never binds the horizon, and adds an exact ``+0.0``
        to its node's egress sum, so the slot can stay in the arrays
        until tombstones outnumber live slots.
        """
        i = flow._index
        flow._remaining = float(self._remaining[i])
        flow._rate = float(self._rate[i])
        flow._fabric = None
        flow._index = -1
        self._members[flow.src].remove(flow)
        self._members[self.n_nodes + flow.dst].remove(flow)
        del self.flows[flow.flow_id]
        self._handles[i] = None
        self._remaining[i] = math.inf
        self._rate[i] = 0.0
        self._n_dead += 1
        if 2 * self._n_dead > self._n:
            self._squeeze()

    def _squeeze(self) -> None:
        """Drop tombstoned slots, preserving insertion order.

        A pure relabelling: every live flow keeps its values, so rates,
        the egress cache and the flow-bound cache all stay valid.
        """
        handles = [h for h in self._handles if h is not None]
        k = len(handles)
        kept = np.array([h._index for h in handles], dtype=np.intp)
        for arr in (self._src, self._dst, self._remaining, self._rate):
            arr[:k] = arr[kept]
        for index, handle in enumerate(handles):
            handle._index = index
        self._handles = handles
        self._n = k
        self._n_dead = 0

    # ------------------------------------------------------------------
    # water-filling
    # ------------------------------------------------------------------
    def compute_rates(self) -> None:
        """Water-filling max-min fair allocation under current limits.

        Resources are node egress limits (from the shapers' current
        state) and node ingress caps.  Classic progressive filling:
        repeatedly saturate the tightest resource and freeze its flows.
        A no-op while the current assignment is still valid — flow
        arrivals/completions and shaper ceiling changes (detected by
        :meth:`advance`) invalidate it, as does
        :meth:`invalidate_rates`.
        """
        if self._rates_valid:
            return
        self._egress_cache = None
        self._flow_bound_valid = False
        if not self.flows:
            self._rates_valid = True
            return
        if _kernels.HAVE_JIT:
            if self._n_dead:
                self._squeeze()
            n = self._n
            _kernels.waterfill(
                self._src[:n],
                self._dst[:n],
                self.fleet.limits(),
                self._ingress_arr.copy(),
                self._rate[:n],
            )
        else:
            self._compute_rates_scalar()
        self._rates_valid = True

    def _compute_rates_scalar(self) -> None:
        """Reference progressive filling over Python scalars.

        Semantically (and bit-for-bit) the same algorithm as the
        compiled :func:`~repro.simulator._kernels.waterfill` on the live
        flows in insertion order: the tightest fair share saturates
        first, the first-ranked resource wins exact ties, and capacity
        subtraction clamps per frozen flow, visiting a resource's flows
        in insertion order.

        Resources are the maintained member lists — resource ``node``
        is the node's egress, ``n_nodes + node`` its ingress — so no
        topology is rebuilt per call.  The kernel ranks resources by
        first appearance in the (out, src), (in, dst) sequence over the
        live flows; the first appearance of a resource is its first
        live member, at sequence position ``2 * index`` (``+ 1`` for
        ingress).  Flow ids grow with insertion order and squeezes keep
        that order, so the key ``2 * first_member.flow_id`` (``+ 1``
        for ingress) ranks resources exactly as the kernel does.  The
        scan takes the lexicographic minimum of ``(share, key)``,
        reading keys only on exact share ties, and never picks an
        infinite share.

        Active-flow counts per resource are maintained incrementally
        (decremented as flows freeze) instead of intersecting member
        sets against the unfixed set on every scan.
        """
        flows = self.flows
        if len(flows) == 1:
            # One flow: the tighter of its two resources is the unique
            # bottleneck.  The out resource ranks first and so wins
            # exact ties: the general loop's first (and only) round
            # verbatim.
            (flow,) = flows.values()
            lim = self.fleet.limit_at(flow.src)
            cap = self.ingress_caps[flow.dst]
            best_share = cap if cap < lim else lim
            self._rate[flow._index] = best_share if best_share > 0.0 else 0.0
            return
        n_nodes = self.n_nodes
        members = self._members
        res_rem = self.fleet.limits().tolist() + self.ingress_caps
        res_cnt = list(map(len, members))
        active = list(compress(range(2 * n_nodes), res_cnt))
        n = self._n
        rates = [0.0] * n
        fixed = [False] * n
        n_unfixed = len(flows)
        while n_unfixed:
            best = -1
            best_share = math.inf
            for rid in active:
                count = res_cnt[rid]
                if count:
                    share = res_rem[rid] / count
                    if share < best_share:
                        best_share = share
                        best = rid
                    elif share == best_share and best >= 0 and (
                        2 * members[rid][0].flow_id + (rid >= n_nodes)
                        < 2 * members[best][0].flow_id + (best >= n_nodes)
                    ):
                        best = rid
            if best < 0:
                break
            # ``v if v > 0.0 else 0.0`` is ``max(v, 0.0)``: -0.0 cannot
            # arise from IEEE subtraction under round-to-nearest.
            rate_val = best_share if best_share > 0.0 else 0.0
            for flow in members[best]:
                i = flow._index
                if fixed[i]:
                    continue
                fixed[i] = True
                rates[i] = rate_val
                n_unfixed -= 1
                rid = flow.src
                v = res_rem[rid] - rate_val
                res_rem[rid] = v if v > 0.0 else 0.0
                res_cnt[rid] -= 1
                rid = n_nodes + flow.dst
                v = res_rem[rid] - rate_val
                res_rem[rid] = v if v > 0.0 else 0.0
                res_cnt[rid] -= 1
        self._rate[:n] = rates

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _egress_raw(self) -> np.ndarray:
        """Per-node aggregate send rates; cached until rates change.

        When ``_egress_out`` is set (the batched multistream runner
        points it at this cell's slice of the shared staging array),
        refills write into that buffer in place, so the caller's copy
        of the egress vector is maintained for free.
        """
        if self._egress_cache is None:
            n = self._n
            out = self._egress_out
            if out is None:
                out = np.zeros(self.n_nodes, dtype=float)
            else:
                out.fill(0.0)
            if n <= 8:
                # bincount accumulates weights in input order; this
                # loop performs the identical additions, skipping the
                # ufunc dispatch that dominates at campaign-cell sizes.
                src = self._src
                rate = self._rate
                for i in range(n):
                    out[src[i]] += rate[i]
            else:
                out[:] = np.bincount(
                    self._src[:n], weights=self._rate[:n], minlength=self.n_nodes
                )
            self._egress_cache = out
        return self._egress_cache

    def node_egress_rates(self) -> np.ndarray:
        """Aggregate send rate per node under the current assignment."""
        return self._egress_raw().copy()

    def horizon(self) -> float:
        """Seconds the current rate assignment is guaranteed valid.

        The bound is the earliest flow completion or shaper transition,
        except that shaper horizons within ``coalesce_eps`` (relative)
        of that bound coalesce into the same event: the step extends to
        the latest of the near-tied horizons, so shapers transitioning
        at float-residue-distinct instants resolve together instead of
        fragmenting the simulation into degenerate micro-steps.  Models
        tolerate the resulting sub-epsilon overshoot by contract.

        The flow-completion side is O(flows), and most event steps do
        not move it (steps bounded by compute completions, arrivals,
        or shaper transitions leave every remaining volume strictly
        positive), so the fabric maintains a conservative lower bound
        on the earliest flow completion across completion-free
        advances (see :meth:`advance`).  When that cached bound
        provably clears the binding shaper event's coalescing window,
        the scan cannot change the answer and is skipped — the
        returned bound is bit-identical to the full computation.
        """
        if not self._rates_valid:
            self.compute_rates()
        return self.horizon_with_shaper_bounds(
            self.fleet.horizons(self._egress_raw()).tolist()
        )

    def horizon_with_shaper_bounds(self, shaper_bounds: list[float]) -> float:
        """:meth:`horizon` with externally computed shaper horizons.

        This is the one combine — shaper minimum, flow completion bound
        (with its skip cache), near-tie coalescing — behind every
        horizon: :meth:`horizon` passes its own fleet's horizons, and
        the batched multistream runner, which gathers every cell's
        shaper horizons in one concatenated super-fleet call, hands
        each fabric its slice (as a plain float list) here.

        Callers must have computed rates (the runner's step prologue
        does) and pass exactly one horizon per node, taken from this
        fabric's fleet state.
        """
        if not self._rates_valid:
            self.compute_rates()
        shaper_min = min(shaper_bounds) if shaper_bounds else math.inf
        flow_bound = self._flow_completion_bound(shaper_min)
        bound = flow_bound if flow_bound < shaper_min else shaper_min
        if self.coalesce_eps > 0.0 and 0.0 < bound < math.inf:
            ceiling = bound * (1.0 + self.coalesce_eps)
            # Only scan for near-ties when a shaper is at (or within
            # epsilon of) the binding event; when a flow completion
            # binds well before any shaper, there is nothing to
            # coalesce.
            if shaper_min <= ceiling:
                # max over {h <= ceiling}: the set contains shaper_min,
                # so the scan can start from it.
                coalesced = shaper_min
                for h in shaper_bounds:
                    if h <= ceiling and h > coalesced:
                        coalesced = h
                if coalesced > bound:
                    bound = coalesced
        return bound

    def _flow_completion_bound(self, shaper_min: float) -> float:
        """Earliest flow completion, or inf when provably not binding.

        When the cached conservative lower bound proves every flow
        completes strictly after the coalescing ceiling around the
        binding shaper event, the O(flows) scan could neither tighten
        the step nor join the coalesced set — skip it and report inf.
        (An infinite ``shaper_min`` never takes this path.)  Otherwise
        scan (compiled kernel or scalar loop) and refresh the cache.
        """
        n = self._n
        if self._flow_bound_valid and self._flow_bound > shaper_min * (
            1.0 + self.coalesce_eps
        ):
            return math.inf
        if _kernels.HAVE_JIT and n:
            flow_bound = float(
                _kernels.flow_min_bound(self._remaining[:n], self._rate[:n])
            )
        elif n == 1:
            rem = float(self._remaining[0])
            rate = float(self._rate[0])
            if rem <= 0.0:
                flow_bound = 0.0
            elif rate <= 0.0:
                flow_bound = math.inf
            else:
                flow_bound = rem / rate
        elif n:
            flow_bound = math.inf
            rates = self._rate[:n].tolist()
            for rem, rate in zip(self._remaining[:n].tolist(), rates):
                if rem <= 0.0:
                    completion = 0.0
                elif rate <= 0.0:
                    continue  # math.inf never tightens the bound
                else:
                    completion = rem / rate
                if completion < flow_bound:
                    flow_bound = completion
        else:
            return math.inf
        self._flow_bound = flow_bound
        self._flow_bound_valid = True
        return flow_bound

    def advance(self, dt: float) -> list[Flow]:
        """Integrate ``dt`` seconds; returns flows that completed.

        Callers must not advance past :meth:`horizon`.  Shaper models
        advance with their node's aggregate egress rate so token
        buckets drain exactly as much as the flows send.  If any
        shaper's ceiling changed over the step (a token-bucket tier
        transition, a stochastic resample), the rate assignment is
        invalidated even when no flow completed — rates computed
        against the old ceiling are stale.
        """
        if dt < 0:
            raise ValueError(f"dt must be non-negative, got {dt}")
        if not self._rates_valid:
            self.compute_rates()
        egress = self._egress_raw()
        limit_changed = self.fleet.advance(dt, egress)
        return self._advance_flows(dt, limit_changed)

    def _advance_flows(self, dt: float, limit_changed: bool) -> list[Flow]:
        """Flow-side half of :meth:`advance`: integrate and complete.

        Both paths reach the shapers through the same fleet
        ``advance``: the serial :meth:`advance` calls it with a float
        ``dt`` and passes its return value here; the batched
        multistream runner calls it once on a concatenated super-fleet
        with one ``dt`` per link, then calls this per cell with the
        cell's own ``dt`` and its slice of the fleet's
        ``changed_links`` reduced to one flag.  Both run the same flow
        update, retirement, and flow-bound cache maintenance.
        """
        completed: list[Flow] = []
        n = self._n
        if n:
            if _kernels.HAVE_JIT:
                count = _kernels.advance_flows(
                    self._remaining[:n],
                    self._rate[:n],
                    dt,
                    _COMPLETE_EPS_GBIT,
                    self._done_scratch,
                )
                done = self._done_scratch[:count].tolist()
            elif n == 1:
                v = float(self._remaining[0]) - float(self._rate[0]) * dt
                self._remaining[0] = v
                done = (0,) if v <= _COMPLETE_EPS_GBIT else ()
            else:
                # The same ``remaining -= rate * dt`` multiply-subtract
                # per element as the compiled kernel.
                remaining = self._remaining
                rem_list = remaining[:n].tolist()
                rate_list = self._rate[:n].tolist()
                done = []
                for i in range(n):
                    v = rem_list[i] - rate_list[i] * dt
                    rem_list[i] = v
                    if v <= _COMPLETE_EPS_GBIT:
                        done.append(i)
                remaining[:n] = rem_list
            if done:
                handles = self._handles
                completed = [handles[i] for i in done]
                for flow in completed:
                    self._retire(flow)
                self._rates_valid = False
                self._egress_cache = None
        if limit_changed:
            self._rates_valid = False
        if completed or limit_changed:
            # Remaining volumes or rates moved in ways the cached
            # completion bound cannot track; drop it.
            self._flow_bound_valid = False
        elif self._flow_bound_valid:
            # No completion and no rate change: every flow's completion
            # shrank by exactly dt (up to float residue).  Keep the
            # cached lower bound valid by shifting it down dt and
            # paying a margin that strictly dominates the accumulated
            # ulp error of the ``remaining -= rate * dt`` update — the
            # relative term covers division/min rounding at any scale,
            # the dt-proportional term covers the multiply-subtract
            # residue even when the bound lands near zero.
            self._flow_bound = (self._flow_bound - dt) * (1.0 - 1e-12) - dt * 1e-12
        return completed

    def invalidate_rates(self) -> None:
        """Force a rate recomputation before the next horizon/advance.

        Required after mutating an egress model behind the fabric's
        back (``set_budget``, ``reset``, resting a shaper directly).
        """
        self._rates_valid = False
        self._egress_cache = None
        self._flow_bound_valid = False
