"""Shaper fleets: batched limit/horizon/advance across a set of links.

A fluid-fabric step must ask *every* node's egress shaper for its
ceiling, its horizon under the node's aggregate send rate, and then
advance it — per step.  With scalar :class:`~repro.netmodel.base.LinkModel`
objects that is a Python-level loop of N method calls, and it dominates
step cost once the water-filling itself is vectorized (the remaining
~40% pinned by the PR 2 profile).  A :class:`LinkModelFleet` replaces
the loop with struct-of-arrays state and single numpy expressions.

Fleets *adopt* the scalar models they are built from: the hot state
(token budgets, resample clocks) moves into flat fleet arrays and the
scalar objects become read/write views into them — the same handle
pattern :class:`~repro.simulator.fabric.Flow` uses — so existing code
that pokes an individual model (``set_budget``, ``reset``, telemetry
reads) stays correct with zero synchronization logic.  Every batched
operation performs the exact same floating-point operations, in the
same order, as N scalar calls would, which is what lets the
golden-trace test pin fleet and scalar outputs bit-for-bit against
each other.

Each fleet has one :meth:`~LinkModelFleet.advance`.  Its ``dt`` is a
float (one step for every link, the serial fabric path) or a per-link
float64 array (independent cells stepping through one concatenated
super-fleet, see :func:`concat_fleets`).  The body is elementwise in
``dt``, so a scalar step broadcasts to the very operations the array
form performs per link and both forms are bit-exact.

Only the per-step operations are batched.  The between-repetitions
cold paths, :meth:`~LinkModelFleet.rest` and
:meth:`~LinkModelFleet.reset`, call each adopted model's own scalar
method, which writes through its view into the fleet arrays.

Five implementations:

* :class:`TokenBucketFleet` — flat budget/capacity/fill/tier arrays
  and vectorized net-fill accounting (all Amazon-style shapers);
* :class:`ConstantRateFleet` — stateless fixed capacities;
* :class:`ResamplingFleet` — vectorizes the interval clockwork of
  :class:`~repro.netmodel.stochastic.UniformQuantileSamplingModel` /
  :class:`~repro.netmodel.stochastic.Ar1QuantileModel` while keeping
  each node's per-seed RNG draw sequence bit-exact (draws batch into
  one RNG call per node via ``_draw_batch``);
* :class:`PerCoreQosFleet` — vectorizes the stream-age/idle-gap/
  interval clockwork of
  :class:`~repro.netmodel.percore.PerCoreQosModel` (the GCE model)
  with the same per-link RNG guarantees, batching warm/cold
  efficiency redraws at interval crossings;
* :class:`ScalarFleetAdapter` — wraps heterogeneous or unknown scalar
  models in the reference per-model loop, so every fabric holds *some*
  fleet, whatever list of link models it is built from.

:func:`build_fleet` picks the best implementation for a model list.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.netmodel.base import ConstantRateModel, LinkModel
from repro.netmodel.percore import PerCoreQosModel
from repro.netmodel.stochastic import (
    Ar1QuantileModel,
    UniformQuantileSamplingModel,
)
from repro.netmodel.token_bucket import TokenBucketModel, _EMPTY_EPS_GBIT

__all__ = [
    "LinkModelFleet",
    "TokenBucketFleet",
    "ConstantRateFleet",
    "ResamplingFleet",
    "PerCoreQosFleet",
    "ScalarFleetAdapter",
    "build_fleet",
    "concat_fleets",
]


class LinkModelFleet(ABC):
    """Batched :class:`~repro.netmodel.base.LinkModel` over N links.

    The per-link scalar contract carries over elementwise: ``limits()``
    is N ``limit()`` calls, ``horizons(rates)`` is N ``horizon(rate)``
    calls, and so on — implementations must produce bit-identical
    values (callers rely on this to swap fleets for scalar loops under
    golden-trace pins).  ``models`` exposes the adopted scalar handles;
    reading or mutating one of them observes/updates fleet state
    directly.  :meth:`advance` takes a float ``dt`` or one ``dt`` per
    link, with the same per-link arithmetic either way.  Fleets know no
    observers: a recorder reads :meth:`limits` after each step.
    """

    #: Adopted scalar handles, in node order.
    models: list[LinkModel]

    #: Per-link bool mask of the links whose ceiling changed, valid
    #: after an :meth:`advance` that returned True and until the next
    #: fleet call (it may be a scratch buffer).
    changed_links: np.ndarray

    #: Array attributes :func:`concat_fleets` concatenates into a
    #: super-fleet and rebinds on the member fleets as slice views
    #: (constants and hot state alike: views of constants cost nothing
    #: and keep the stitching uniform).  None: the class cannot be
    #: concatenated.  Scratch buffers are not shared; each fleet sizes
    #: its own in :meth:`_alloc_scratch`.
    _CONCAT_ARRAYS: tuple[str, ...] | None = None

    def _alloc_scratch(self, n: int) -> None:
        """Allocate the per-fleet buffers for ``n`` links."""
        self.changed_links = np.zeros(n, dtype=bool)

    def _adopt(
        self,
        models: Sequence[LinkModel],
        kinds: tuple[type, ...],
        state: dict[str, tuple[str, type]],
    ) -> None:
        """Take ``models`` over as views into this fleet's arrays.

        Each model must be exactly one of ``kinds`` (a subclass may
        change the dynamics the fleet vectorizes) and not yet adopted by
        another fleet.  ``state`` maps each hot-state array to the model
        attribute that holds its value before adoption, plus the array
        dtype.  Afterwards every model reads and writes that state
        through ``_fleet``/``_fleet_index``.
        """
        models = list(models)
        for model in models:
            if type(model) not in kinds:
                names = " / ".join(kind.__name__ for kind in kinds)
                raise TypeError(f"not a {names}: {model!r}")
            if model._fleet is not None:
                raise ValueError("model already adopted by another fleet")
        self.models = models
        for name, (local, dtype) in state.items():
            values = [getattr(model, local) for model in models]
            setattr(self, name, np.array(values, dtype=dtype))
        self._alloc_scratch(len(models))
        for index, model in enumerate(models):
            model._fleet = self
            model._fleet_index = index

    @property
    def n(self) -> int:
        """Number of links in the fleet."""
        return len(self.models)

    @abstractmethod
    def limits(self) -> np.ndarray:
        """Per-link rate ceilings (fresh array; callers may mutate)."""

    def limit_at(self, index: int) -> float:
        """One link's current rate ceiling, exactly ``limits()[index]``.

        Single-flow water-filling needs exactly one ceiling; subclasses
        override this with a scalar state read so the hot path skips
        materializing the whole fleet's limit array.
        """
        return float(self.limits()[index])

    @abstractmethod
    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        """Per-link ceiling-persistence bounds under ``send_rates``.

        The returned array may be an internal scratch buffer: read it
        before the next fleet call, and do not mutate it.
        """

    @abstractmethod
    def advance(self, dt: float | np.ndarray, send_rates: np.ndarray) -> bool:
        """Account ``dt`` seconds of per-link traffic.

        ``dt`` is one step for every link, or a float64 array with one
        step per link, so independent cells sharing a concatenated
        super-fleet (:func:`concat_fleets`) each take their own event
        step in one call.  Link ``i`` sees the exact float operations
        a scalar ``advance(dt[i], ...)`` performs.

        Returns True when any link's ceiling changed over the step —
        the signal :meth:`~repro.simulator.fabric.Fabric.advance` uses
        to invalidate its rate assignment; :attr:`changed_links` then
        says which links changed.
        """

    def rest(self, duration_s: float) -> None:
        """Idle every link for ``duration_s`` (buckets refill).

        Each model rests through its own scalar
        :meth:`~repro.netmodel.base.LinkModel.rest`; an adopted model
        writes straight into the fleet arrays.  Resting is not a
        simulated step: :func:`~repro.simulator.engine.rest_fabric`
        invalidates the fabric's rates itself.
        """
        if duration_s < 0:
            raise ValueError(f"duration must be non-negative, got {duration_s}")
        for model in self.models:
            model.rest(duration_s)

    def reset(self) -> None:
        """Restore every link's pristine initial state (each model's
        own :meth:`~repro.netmodel.base.LinkModel.reset`)."""
        for model in self.models:
            model.reset()

    def budgets(self) -> np.ndarray | None:
        """Per-link token budgets (Gbit), or None when not exposed.

        Returned array may be an internal view — treat as read-only.
        """
        return None


def _check_dt(dt: float | np.ndarray) -> None:
    """Reject a negative step: a float, or any entry of a per-link array."""
    if isinstance(dt, np.ndarray):
        if dt.size and float(dt.min()) < 0.0:
            raise ValueError("dt must be non-negative elementwise")
    elif dt < 0:
        raise ValueError(f"dt must be non-negative, got {dt}")


class ScalarFleetAdapter(LinkModelFleet):
    """Reference fleet: per-model Python loops over arbitrary models.

    This is the compatibility (and correctness-reference) path: any mix
    of link models works, at the cost of N scalar calls per operation —
    exactly the loops :class:`~repro.simulator.fabric.Fabric` ran
    before fleets existed.
    """

    # The models themselves hold the state: an adapter over the
    # concatenated model list shares it.
    _CONCAT_ARRAYS = ()

    def __init__(self, models: Sequence[LinkModel]) -> None:
        self.models = list(models)
        self._alloc_scratch(len(self.models))

    def limits(self) -> np.ndarray:
        return np.array([m.limit() for m in self.models], dtype=float)

    def limit_at(self, index: int) -> float:
        return float(self.models[index].limit())

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        return np.array(
            [
                m.horizon(rate)
                for m, rate in zip(self.models, send_rates.tolist())
            ],
            dtype=float,
        )

    def advance(self, dt: float | np.ndarray, send_rates: np.ndarray) -> bool:
        _check_dt(dt)
        changed = self.changed_links
        changed.fill(False)
        steps = np.broadcast_to(dt, changed.shape).tolist()
        for index, (model, step, rate) in enumerate(
            zip(self.models, steps, send_rates.tolist())
        ):
            before = model.limit()
            model.advance(step, rate)
            if model.limit() != before:
                changed[index] = True
        return bool(changed.any())

    def budgets(self) -> np.ndarray | None:
        if all(hasattr(m, "budget_gbit") for m in self.models):
            return np.array([m.budget_gbit for m in self.models], dtype=float)
        return None


class TokenBucketFleet(LinkModelFleet):
    """Struct-of-arrays token buckets (possibly heterogeneous params).

    Budgets and throttled flags live in flat arrays; the vectorized
    net-fill accounting in :meth:`advance` performs the same
    elementwise float operations as the scalar
    :meth:`~repro.netmodel.token_bucket.TokenBucketModel.advance`, so
    fleet and scalar paths are bit-exact.
    """

    _CONCAT_ARRAYS = (
        "_peak",
        "_capped",
        "_replenish",
        "_capacity",
        "_resume",
        "_resume_minus_eps",
        "_tier_differs",
        "_budget",
        "_throttled",
        "_flip_threshold",
    )

    def __init__(self, models: Sequence[TokenBucketModel]) -> None:
        self._adopt(
            models,
            (TokenBucketModel,),
            {
                "_budget": ("_budget_local", float),
                "_throttled": ("_throttled_local", bool),
            },
        )
        params = [m.params for m in self.models]
        self._peak = np.array([p.peak_gbps for p in params], dtype=float)
        self._capped = np.array([p.capped_gbps for p in params], dtype=float)
        self._replenish = np.array(
            [p.replenish_gbps for p in params], dtype=float
        )
        self._capacity = np.array([p.capacity_gbit for p in params], dtype=float)
        self._resume = np.array(
            [p.resume_threshold_gbit for p in params], dtype=float
        )
        # Precomputed constants for the per-step hot path.
        self._resume_minus_eps = self._resume - _EMPTY_EPS_GBIT
        self._tier_differs = self._capped != self._peak
        # Tier-flip threshold per link: a high link flips when its
        # budget hits 0 (== any value at/below the empty snap, since
        # advance snaps (0, eps] to 0), a throttled link when the
        # budget reaches resume - eps.  Caching it per tier state turns
        # the flip test into one vector compare.
        self._flip_threshold = np.where(
            self._throttled, self._resume_minus_eps, _EMPTY_EPS_GBIT
        )

    def _alloc_scratch(self, n: int) -> None:
        # Scratch buffers: arrays this small are dominated by
        # allocation and ufunc-dispatch overhead, not arithmetic.
        super()._alloc_scratch(n)
        self._f64_scratch = np.empty(n, dtype=float)
        self._f64_scratch2 = np.empty(n, dtype=float)
        self._bool_scratch = np.empty(n, dtype=bool)
        self._bool_scratch2 = np.empty(n, dtype=bool)
        self._horizon_out = np.empty(n, dtype=float)

    def _sync_thresholds(self) -> None:
        """Recompute the cached flip thresholds from ``_throttled``.

        Writes in place: when this fleet's state arrays are slice views
        into a concatenated super-fleet (:func:`concat_fleets`), or
        vice versa, rebinding the attribute would silently decouple the
        two.
        """
        self._flip_threshold.fill(_EMPTY_EPS_GBIT)
        np.copyto(
            self._flip_threshold, self._resume_minus_eps, where=self._throttled
        )

    def _set_throttled(self, index: int, value: bool) -> None:
        """Scalar-view write path (``set_budget``/``reset`` on a model).

        Keeps the cached flip threshold coherent with the tier flag —
        every write to ``_throttled`` from outside :meth:`advance` must
        go through here.
        """
        self._throttled[index] = value
        self._flip_threshold[index] = (
            self._resume_minus_eps[index] if value else _EMPTY_EPS_GBIT
        )

    def limits(self) -> np.ndarray:
        return np.where(self._throttled, self._capped, self._peak)

    def limit_at(self, index: int) -> float:
        if self._throttled[index]:
            return float(self._capped[index])
        return float(self._peak[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        """Per-link horizons; the returned array is a reused scratch
        buffer, valid until the next fleet call."""
        fill = np.subtract(self._replenish, send_rates, out=self._f64_scratch)
        throttled = self._throttled
        out = self._horizon_out
        out.fill(math.inf)
        # Throttled links: ceiling changes when the budget climbs past
        # the resume threshold (never, if not refilling).
        thr_div = np.greater(fill, 0.0, out=self._bool_scratch)
        np.logical_and(throttled, thr_div, out=thr_div)
        if thr_div.any():
            gap = np.subtract(self._resume, self._budget, out=self._f64_scratch2)
            np.divide(gap, fill, out=out, where=thr_div)
            zero = np.less_equal(gap, _EMPTY_EPS_GBIT, out=self._bool_scratch2)
            np.logical_and(thr_div, zero, out=zero)
            if zero.any():
                out[zero] = 0.0
        # High links: ceiling changes when the budget empties.  For
        # booleans ``a > b`` is ``a & ~b``, saving a negation temp.
        high_div = np.less(fill, 0.0, out=self._bool_scratch)
        np.greater(high_div, throttled, out=high_div)
        if high_div.any():
            np.negative(fill, out=fill)
            np.divide(self._budget, fill, out=out, where=high_div)
            zero = np.less_equal(
                self._budget, _EMPTY_EPS_GBIT, out=self._bool_scratch2
            )
            np.logical_and(high_div, zero, out=zero)
            if zero.any():
                out[zero] = 0.0
        return out

    def advance(self, dt: float | np.ndarray, send_rates: np.ndarray) -> bool:
        _check_dt(dt)
        budget = self._budget
        step = np.subtract(self._replenish, send_rates, out=self._f64_scratch)
        step *= dt
        budget += step
        np.maximum(budget, 0.0, out=budget)
        np.minimum(budget, self._capacity, out=budget)
        # Snap float residue at/below eps to exactly 0 (see the scalar
        # model): multiply-by-mask is the cheapest exact formulation.
        alive = np.greater(budget, _EMPTY_EPS_GBIT, out=self._bool_scratch)
        np.multiply(budget, alive, out=budget)
        # After the snap, budgets live in {0} U (eps, capacity], so the
        # scalar tier rules (throttled: budget >= resume - eps resumes;
        # high: budget <= 0 throttles) reduce to one compare against
        # the per-tier threshold.
        flipped = np.less(budget, self._flip_threshold, out=self.changed_links)
        throttled = self._throttled
        np.not_equal(flipped, throttled, out=flipped)
        if not flipped.any():
            return False
        np.logical_xor(throttled, flipped, out=throttled)
        self._sync_thresholds()
        # The ceiling only moves when the tier flips on a link whose
        # two tiers actually differ.
        np.logical_and(flipped, self._tier_differs, out=flipped)
        return bool(flipped.any())

    def budgets(self) -> np.ndarray | None:
        return self._budget


class ConstantRateFleet(LinkModelFleet):
    """Fixed-capacity links: nothing to advance, horizons are infinite."""

    _CONCAT_ARRAYS = ("_rates",)

    def __init__(self, models: Sequence[ConstantRateModel]) -> None:
        models = list(models)
        for model in models:
            if type(model) is not ConstantRateModel:
                raise TypeError(f"not a ConstantRateModel: {model!r}")
        self.models = models
        self._rates = np.array([m.limit() for m in models], dtype=float)
        self._alloc_scratch(len(models))

    def limits(self) -> np.ndarray:
        return self._rates.copy()

    def limit_at(self, index: int) -> float:
        return float(self._rates[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        return np.full(self._rates.shape[0], math.inf)

    def advance(self, dt: float | np.ndarray, send_rates: np.ndarray) -> bool:
        _check_dt(dt)
        return False


class ResamplingFleet(LinkModelFleet):
    """Batched interval clockwork for periodically-resampled ceilings.

    The elapsed-time bookkeeping of N resampling models advances as one
    array operation; only links that actually cross a resample boundary
    fall back to per-link handling, where all of a link's crossed-
    boundary draws batch into a single RNG call
    (each model's ``_draw_batch``).
    Each model keeps its own seeded generator, so per-node draw
    sequences are bit-identical to the scalar path — including the
    clockwork float residues, which replay the scalar operation order
    per crossing link.
    """

    _ADOPTABLE = (UniformQuantileSamplingModel, Ar1QuantileModel)
    _CONCAT_ARRAYS = ("_intervals", "_elapsed", "_current")

    def __init__(self, models: Sequence[LinkModel]) -> None:
        self._adopt(
            models,
            self._ADOPTABLE,
            {
                "_elapsed": ("_elapsed_local", float),
                "_current": ("_current_local", float),
            },
        )
        self._intervals = np.array(
            [m._interval for m in self.models], dtype=float
        )

    def limits(self) -> np.ndarray:
        return self._current.copy()

    def limit_at(self, index: int) -> float:
        return float(self._current[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        return np.maximum(self._intervals - self._elapsed, 0.0)

    def advance(self, dt: float | np.ndarray, send_rates: np.ndarray) -> bool:
        _check_dt(dt)
        elapsed = self._elapsed
        elapsed += dt
        crossed = elapsed >= self._intervals - 1e-12
        if not crossed.any():
            return False
        changed = self.changed_links
        changed.fill(False)
        current = self._current
        for i in np.flatnonzero(crossed).tolist():
            interval = float(self._intervals[i])
            e = float(elapsed[i])
            k = 0
            # Same repeated subtraction as the scalar while-loop, so
            # the elapsed residue carries identical float error.
            while e >= interval - 1e-12:
                e -= interval
                k += 1
            elapsed[i] = e
            value = self.models[i]._draw_batch(k)
            if value != current[i]:
                changed[i] = True
            current[i] = value
        return bool(changed.any())


class PerCoreQosFleet(LinkModelFleet):
    """Batched stream-age/idle-gap clockwork for GCE per-core QoS links.

    The per-step bookkeeping of
    :class:`~repro.netmodel.percore.PerCoreQosModel` — is this node
    sending, did an idle gap expire, did the resample interval roll
    over — advances as a handful of array operations instead of N
    scalar method calls.  Only links that actually redraw (an idle
    resume restarting a cold stream, or interval-boundary crossings)
    fall back to per-link handling; a link's crossed-boundary draws
    batch into a single RNG call
    (:meth:`~repro.netmodel.percore.PerCoreQosModel.
    _draw_efficiency_batch`).  Each model keeps its own seeded
    generator and the clockwork float residues replay the scalar
    operation order per crossing link, so per-node state and draw
    sequences are bit-identical to the scalar path.
    """

    _CONCAT_ARRAYS = (
        "_qos",
        "_ramp",
        "_idle_reset",
        "_interval",
        "_interval_eps",
        "_age",
        "_idle",
        "_elapsed",
        "_eff",
    )

    def __init__(self, models: Sequence[PerCoreQosModel]) -> None:
        self._adopt(
            models,
            (PerCoreQosModel,),
            {
                "_age": ("_age_local", float),
                "_idle": ("_idle_local", float),
                "_elapsed": ("_elapsed_local", float),
                "_eff": ("_eff_local", float),
            },
        )
        models = self.models
        self._qos = np.array([m.qos_gbps for m in models], dtype=float)
        self._ramp = np.array([m.ramp_s for m in models], dtype=float)
        self._idle_reset = np.array([m.idle_reset_s for m in models], dtype=float)
        self._interval = np.array([m.interval_s for m in models], dtype=float)
        # Same threshold value the scalar while-loop computes each
        # iteration (``interval_s - 1e-12``), hoisted per link.
        self._interval_eps = self._interval - 1e-12

    def _alloc_scratch(self, n: int) -> None:
        super()._alloc_scratch(n)
        self._f64_scratch = np.empty(n, dtype=float)
        self._bool_scratch = np.empty(n, dtype=bool)
        self._bool_scratch2 = np.empty(n, dtype=bool)

    def limits(self) -> np.ndarray:
        return self._qos * self._eff

    def limit_at(self, index: int) -> float:
        return float(self._qos[index]) * float(self._eff[index])

    def horizons(self, send_rates: np.ndarray) -> np.ndarray:
        out = np.subtract(self._interval, self._elapsed, out=self._f64_scratch)
        np.maximum(out, 0.0, out=out)
        return out

    def advance(self, dt: float | np.ndarray, send_rates: np.ndarray) -> bool:
        _check_dt(dt)
        age = self._age
        idle = self._idle
        elapsed = self._elapsed
        eff = self._eff
        sending = np.greater(send_rates, 1e-9, out=self._bool_scratch)
        # Pre-redraw ceilings of the (rare) links that redraw this
        # step, keyed by index: "changed" is the net before/after
        # comparison, exactly what ScalarFleetAdapter observes when a
        # resume redraw is later superseded by a boundary redraw.
        old_eff: dict[int, float] | None = None
        # Idle resume: a sending link whose idle gap expired restarts
        # its stream age and redraws from the (almost always cold)
        # distribution — before the age/idle update, as in the scalar.
        resume = np.greater_equal(idle, self._idle_reset, out=self._bool_scratch2)
        np.logical_and(resume, sending, out=resume)
        if resume.any():
            old_eff = {}
            for i in np.flatnonzero(resume).tolist():
                age[i] = 0.0
                old_eff[i] = float(eff[i])
                eff[i] = self.models[i]._draw_efficiency()
        # Vectorized clockwork, elementwise-identical to the scalar
        # branches: sending links age and zero their idle time, idle
        # links accumulate it; the interval clock always ticks.
        np.add(age, dt, out=age, where=sending)
        notsending = np.logical_not(sending, out=self._bool_scratch2)
        np.add(idle, dt, out=idle, where=notsending)
        idle[sending] = 0.0
        elapsed += dt
        crossed = np.greater_equal(
            elapsed, self._interval_eps, out=self._bool_scratch2
        )
        if crossed.any():
            if old_eff is None:
                old_eff = {}
            for i in np.flatnonzero(crossed).tolist():
                interval = float(self._interval[i])
                threshold = float(self._interval_eps[i])
                e = float(elapsed[i])
                k = 0
                # Same repeated subtraction as the scalar while-loop,
                # so the elapsed residue carries identical float error.
                while e >= threshold:
                    e -= interval
                    k += 1
                elapsed[i] = e
                if i not in old_eff:
                    old_eff[i] = float(eff[i])
                eff[i] = self.models[i]._draw_efficiency_batch(k)
        if old_eff is None:
            return False
        changed = self.changed_links
        changed.fill(False)
        for i, before in old_eff.items():
            if eff[i] != before:
                changed[i] = True
        return bool(changed.any())


def build_fleet(models: Sequence[LinkModel]) -> LinkModelFleet:
    """Choose the best fleet implementation for ``models``.

    Homogeneous lists of the known model *exact* types get their
    vectorized fleet (the two resampling classes may mix, since their
    clockwork is shared); anything else — mixed fleets, subclasses,
    models already adopted elsewhere — falls back to the scalar
    adapter, which is always correct.  Reference runs construct
    :class:`ScalarFleetAdapter` directly.
    """
    models = list(models)
    if not models:
        return ScalarFleetAdapter(models)
    if any(getattr(m, "_fleet", None) is not None for m in models):
        return ScalarFleetAdapter(models)
    first = type(models[0])
    if all(type(m) is first for m in models):
        if first is TokenBucketModel:
            return TokenBucketFleet(models)
        if first is ConstantRateModel:
            return ConstantRateFleet(models)
        if first is PerCoreQosModel:
            return PerCoreQosFleet(models)
    if all(type(m) in ResamplingFleet._ADOPTABLE for m in models):
        return ResamplingFleet(models)
    return ScalarFleetAdapter(models)


def concat_fleets(fleets: Sequence[LinkModelFleet]) -> LinkModelFleet:
    """Stitch same-class fleets into one super-fleet over shared state.

    The returned fleet's state arrays are the member fleets' arrays
    concatenated in order, and each member fleet's array attributes are
    *rebound to slice views* of the concatenation — after this call the
    member fleets and the super-fleet read and write the same memory.
    One ``horizons``/``advance`` call on the super-fleet then covers
    every member link while scalar model handles, per-member
    ``limits()``/``budgets()`` reads, and member-level ``reset`` keep
    working unchanged (all fleet mutators write in place).

    This is the multistream runner's core trick: N independent
    simulation cells, each with its own few-link fleet, pay one numpy
    dispatch per batched operation instead of N.  Per-link arithmetic
    is unchanged — ``advance`` takes a per-link ``dt`` so each cell
    still steps by its own event horizon, bit-identically to its
    standalone float-``dt`` ``advance``.

    All fleets must be the same concrete class (heterogeneous batches
    would need per-class dispatch — group cells first).
    """
    fleets = list(fleets)
    if not fleets:
        raise ValueError("concat_fleets needs at least one fleet")
    cls = type(fleets[0])
    for fleet in fleets:
        if type(fleet) is not cls:
            raise ValueError(
                "all fleets in a batch must share one class; got "
                f"{cls.__name__} and {type(fleet).__name__}"
            )
    if cls._CONCAT_ARRAYS is None:
        raise ValueError(f"cannot concatenate fleets of class {cls.__name__}")
    super_fleet = object.__new__(cls)
    super_fleet.models = [m for fleet in fleets for m in fleet.models]
    for name in cls._CONCAT_ARRAYS:
        parts = [getattr(fleet, name) for fleet in fleets]
        merged = np.concatenate(parts)
        setattr(super_fleet, name, merged)
        lo = 0
        for fleet, part in zip(fleets, parts):
            hi = lo + part.shape[0]
            setattr(fleet, name, merged[lo:hi])
            lo = hi
    super_fleet._alloc_scratch(super_fleet.n)
    return super_fleet
