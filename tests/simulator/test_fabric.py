"""Tests for the max-min fair fluid fabric."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.netmodel import ConstantRateModel, TokenBucketModel, TokenBucketParams
from repro.simulator import Fabric
from repro.simulator import _kernels


def constant_fabric(n=4, egress=10.0, ingress=10.0):
    return Fabric(
        egress_models=[ConstantRateModel(egress) for _ in range(n)],
        ingress_caps_gbps=[ingress] * n,
    )


class TestFlowManagement:
    def test_add_and_remove(self):
        fabric = constant_fabric()
        flow = fabric.add_flow(0, 1, 100.0)
        assert len(fabric.flows) == 1
        fabric.remove_flow(flow)
        assert len(fabric.flows) == 0

    def test_loopback_rejected(self):
        with pytest.raises(ValueError):
            constant_fabric().add_flow(1, 1, 10.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            constant_fabric(n=2).add_flow(0, 5, 10.0)

    def test_zero_volume_rejected(self):
        with pytest.raises(ValueError):
            constant_fabric().add_flow(0, 1, 0.0)

    def test_mismatched_construction(self):
        with pytest.raises(ValueError):
            Fabric([ConstantRateModel(1.0)], [1.0, 2.0])


class TestFairness:
    def test_single_flow_gets_bottleneck(self):
        fabric = constant_fabric(egress=10.0, ingress=5.0)
        flow = fabric.add_flow(0, 1, 100.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(5.0)

    def test_two_flows_share_egress(self):
        fabric = constant_fabric(egress=10.0, ingress=100.0)
        a = fabric.add_flow(0, 1, 100.0)
        b = fabric.add_flow(0, 2, 100.0)
        fabric.compute_rates()
        assert a.rate_gbps == pytest.approx(5.0)
        assert b.rate_gbps == pytest.approx(5.0)

    def test_max_min_unlocks_spare_capacity(self):
        # Flow 0->1 shares egress with 0->2; 2->1 shares ingress with
        # 0->1.  Classic water-filling: the constrained pair gets 5,
        # and no resource is overcommitted.
        fabric = constant_fabric(egress=10.0, ingress=10.0)
        a = fabric.add_flow(0, 1, 100.0)
        b = fabric.add_flow(0, 2, 100.0)
        c = fabric.add_flow(2, 1, 100.0)
        fabric.compute_rates()
        assert a.rate_gbps + b.rate_gbps <= 10.0 + 1e-9
        assert a.rate_gbps + c.rate_gbps <= 10.0 + 1e-9
        assert min(a.rate_gbps, b.rate_gbps, c.rate_gbps) == pytest.approx(5.0)

    def test_all_to_all_symmetric(self):
        n = 4
        fabric = constant_fabric(n=n)
        flows = [
            fabric.add_flow(s, d, 50.0)
            for s in range(n)
            for d in range(n)
            if s != d
        ]
        fabric.compute_rates()
        rates = {round(f.rate_gbps, 6) for f in flows}
        assert len(rates) == 1  # perfect symmetry
        assert fabric.node_egress_rates()[0] == pytest.approx(10.0)

    @given(
        n_flows=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_resource_overcommitted_and_work_conserving(self, n_flows, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n = 5
        fabric = constant_fabric(n=n, egress=10.0, ingress=8.0)
        for _ in range(n_flows):
            src, dst = rng.choice(n, size=2, replace=False)
            fabric.add_flow(int(src), int(dst), float(rng.uniform(1, 100)))
        fabric.compute_rates()
        egress = fabric.node_egress_rates()
        ingress = [0.0] * n
        for flow in fabric.flows.values():
            ingress[flow.dst] += flow.rate_gbps
            assert flow.rate_gbps > 0  # work conservation per flow
        for node in range(n):
            assert egress[node] <= 10.0 + 1e-6
            assert ingress[node] <= 8.0 + 1e-6


class TestAdvance:
    def test_flow_completes_exactly_at_horizon(self):
        fabric = constant_fabric()
        fabric.add_flow(0, 1, 50.0)
        fabric.compute_rates()
        horizon = fabric.horizon()
        assert horizon == pytest.approx(5.0)
        completed = fabric.advance(horizon)
        assert len(completed) == 1
        assert len(fabric.flows) == 0

    def test_partial_advance(self):
        fabric = constant_fabric()
        flow = fabric.add_flow(0, 1, 50.0)
        fabric.compute_rates()
        completed = fabric.advance(2.0)
        assert completed == []
        assert flow.remaining_gbit == pytest.approx(30.0)

    def test_token_bucket_throttling_respected(self):
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=50.0,
        )
        fabric = Fabric(
            egress_models=[TokenBucketModel(params), ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        fabric.add_flow(0, 1, 500.0)
        fabric.compute_rates()
        # Horizon stops at the bucket transition (50/(10-1) s).
        assert fabric.horizon() == pytest.approx(50.0 / 9.0)
        fabric.advance(fabric.horizon())
        fabric.compute_rates()
        flow = next(iter(fabric.flows.values()))
        assert flow.rate_gbps == pytest.approx(1.0)

    def test_idle_nodes_models_still_advance(self):
        # Buckets refill during pure-compute phases.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=100.0, initial_budget_gbit=0.0,
        )
        model = TokenBucketModel(params)
        fabric = Fabric(
            egress_models=[model, ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        fabric.advance(30.0)
        assert model.budget_gbit == pytest.approx(30.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            constant_fabric().advance(-1.0)

    def test_empty_fabric_horizon_infinite(self):
        assert math.isinf(constant_fabric().horizon())

    def test_advance_invalidates_on_shaper_transition_without_completion(self):
        # The bucket empties mid-transfer: no flow completes, but the
        # egress ceiling drops 10 -> 1.  The next horizon query must
        # water-fill against the capped rate, not the stale assignment.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=50.0,
        )
        fabric = Fabric(
            egress_models=[TokenBucketModel(params), ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        flow = fabric.add_flow(0, 1, 500.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(10.0)
        completed = fabric.advance(fabric.horizon())
        assert completed == []  # tier transition, not a completion
        fabric.horizon()  # lazily recomputes because the ceiling moved
        assert flow.rate_gbps == pytest.approx(1.0)

    def test_completed_flows_keep_terminal_state(self):
        fabric = constant_fabric()
        flow = fabric.add_flow(0, 1, 50.0)
        fabric.compute_rates()
        (completed,) = fabric.advance(fabric.horizon())
        assert completed is flow
        assert flow.flow_id not in fabric.flows
        assert flow.remaining_gbit <= 1e-9
        assert flow.rate_gbps == pytest.approx(10.0)
        # The detached handle is insulated from later fabric activity.
        other = fabric.add_flow(0, 2, 30.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(10.0)
        assert other.rate_gbps == pytest.approx(10.0)


class TestMaxMinOracle:
    """Water-filling and advance checked against facts of the problem.

    Nothing here reuses the fabric's own arithmetic: loads are summed
    with ``math.fsum`` per node, so a wrong assignment cannot pass by
    agreeing with itself.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_nodes=st.integers(min_value=6, max_value=64),
        n_flows=st.integers(min_value=1, max_value=500),
        step=st.sampled_from([1.0, 0.5, 1e-3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_feasible_max_min_and_conserving(self, seed, n_nodes, n_flows, step):
        rng = np.random.default_rng(seed)
        # Mixed caps: a shared tier (exact fair-share ties) next to
        # arbitrary per-node values.
        egress = [
            float(rng.choice([10.0, rng.uniform(0.5, 40.0)])) for _ in range(n_nodes)
        ]
        ingress = [
            float(rng.choice([10.0, rng.uniform(0.5, 40.0)])) for _ in range(n_nodes)
        ]
        fabric = Fabric(
            egress_models=[ConstantRateModel(e) for e in egress],
            ingress_caps_gbps=ingress,
        )
        flows = []
        for _ in range(n_flows):
            src, dst = rng.choice(n_nodes, size=2, replace=False)
            flows.append(
                fabric.add_flow(int(src), int(dst), float(rng.uniform(0.1, 100.0)))
            )
        fabric.compute_rates()
        rates = [f.rate_gbps for f in flows]

        out_members = [[] for _ in range(n_nodes)]
        in_members = [[] for _ in range(n_nodes)]
        for i, f in enumerate(flows):
            out_members[f.src].append(i)
            in_members[f.dst].append(i)
        resources = [(egress[v], out_members[v]) for v in range(n_nodes)] + [
            (ingress[v], in_members[v]) for v in range(n_nodes)
        ]
        tol = 1e-9
        bottlenecked = [False] * n_flows
        for cap, members in resources:
            load = math.fsum(rates[i] for i in members)
            # Feasibility: no resource carries more than its cap.
            assert load <= cap * (1.0 + tol)
            if members and load >= cap * (1.0 - tol):
                top = max(rates[i] for i in members)
                for i in members:
                    if rates[i] >= top * (1.0 - tol):
                        bottlenecked[i] = True
        # Max-min optimality: every flow crosses a saturated resource
        # on which no other flow gets a higher rate.
        assert all(r > 0.0 for r in rates)
        assert all(bottlenecked), [i for i, ok in enumerate(bottlenecked) if not ok]

        # Byte conservation over one step at or below the horizon.
        dt = fabric.horizon() * step
        before = math.fsum(f.remaining_gbit for f in flows)
        sent = math.fsum(r * dt for r in rates)
        completed = fabric.advance(dt)
        after = math.fsum(f.remaining_gbit for f in flows)
        assert after == pytest.approx(before - sent, rel=tol, abs=tol * before)
        if step == 1.0:
            assert completed
        for f in completed:
            assert f.remaining_gbit <= 1e-9


class TestArrayStateManagement:
    def test_grows_past_initial_capacity(self):
        n = 6
        fabric = constant_fabric(n=n, egress=10.0, ingress=10.0)
        flows = [
            fabric.add_flow(i % n, (i + 1 + i // n) % n, 5.0)
            for i in range(0, 500)
            if i % n != (i + 1 + i // n) % n
        ]
        fabric.compute_rates()
        assert len(fabric.flows) == len(flows)
        assert all(f.rate_gbps > 0 for f in flows)
        egress = fabric.node_egress_rates()
        assert all(rate <= 10.0 + 1e-6 for rate in egress)

    def test_remove_middle_flow_keeps_handles_consistent(self):
        fabric = constant_fabric()
        a = fabric.add_flow(0, 1, 10.0)
        b = fabric.add_flow(0, 2, 20.0)
        c = fabric.add_flow(0, 3, 30.0)
        fabric.remove_flow(b)
        assert set(fabric.flows) == {a.flow_id, c.flow_id}
        fabric.compute_rates()
        assert a.rate_gbps == pytest.approx(5.0)
        assert c.rate_gbps == pytest.approx(5.0)
        assert c.remaining_gbit == pytest.approx(30.0)
        # Removed handle froze its last-known state.
        assert b.remaining_gbit == pytest.approx(20.0)

    def test_remove_foreign_or_detached_handle_is_noop(self):
        fabric = constant_fabric()
        mine = fabric.add_flow(0, 1, 10.0)
        # A different fabric's handle shares flow_id 0 with `mine`;
        # removing it must not evict this fabric's flow.
        other_fabric = constant_fabric()
        foreign = other_fabric.add_flow(0, 2, 5.0)
        assert foreign.flow_id == mine.flow_id
        fabric.remove_flow(foreign)
        assert mine.flow_id in fabric.flows
        # Removing an already-removed handle stays a no-op, and the
        # fabric still advances cleanly afterwards.
        fabric.remove_flow(mine)
        fabric.remove_flow(mine)
        assert fabric.flows == {}
        fabric.add_flow(0, 3, 50.0)
        fabric.compute_rates()
        assert len(fabric.advance(fabric.horizon())) == 1

    def test_stale_rates_after_external_mutation_need_invalidate(self):
        # Mutating a shaper behind the fabric's back requires an
        # explicit invalidate_rates(); compute_rates() alone is a no-op
        # while the assignment is still marked valid.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=1.0,
            capacity_gbit=50.0,
        )
        model = TokenBucketModel(params)
        fabric = Fabric(
            egress_models=[model, ConstantRateModel(10.0)],
            ingress_caps_gbps=[10.0, 10.0],
        )
        flow = fabric.add_flow(0, 1, 500.0)
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(10.0)
        model.set_budget(0.0)
        fabric.invalidate_rates()
        fabric.compute_rates()
        assert flow.rate_gbps == pytest.approx(1.0)


def _kernel_rates(fabric, live):
    """``waterfill_py`` on ``live`` flows in insertion order."""
    rate = np.zeros(len(live))
    _kernels.waterfill_py(
        np.array([f.src for f in live], dtype=np.intp),
        np.array([f.dst for f in live], dtype=np.intp),
        fabric.fleet.limits(),
        np.array(fabric.ingress_caps),
        rate,
    )
    return rate.tolist()


def _rebuilt(fabric):
    """A fresh fabric holding ``fabric``'s live flows, rates computed."""
    fresh = Fabric(
        egress_models=[ConstantRateModel(e) for e in fabric.fleet.limits().tolist()],
        ingress_caps_gbps=fabric.ingress_caps,
    )
    for f in fabric.flows.values():
        fresh.add_flow(f.src, f.dst, f.remaining_gbit)
    fresh.compute_rates()
    return fresh


def _check_tombstone_invariants(fabric, retired):
    """Live/retired handle bookkeeping after any fabric operation.

    ``retired`` maps each retired handle to the (remaining, rate) it
    held when it left the fabric.
    """
    live = [h for h in fabric._handles[: fabric._n] if h is not None]
    # ``flows`` holds exactly the live handles, in insertion order.
    assert list(fabric.flows.values()) == live
    assert all(f._fabric is fabric for f in live)
    assert fabric._n - fabric._n_dead == len(live)
    # Slot order is flow-id order, through any number of squeezes.
    ids = [f.flow_id for f in live]
    assert ids == sorted(ids)
    indices = [f._index for f in live]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert all(fabric._handles[i] is f for i, f in zip(indices, live))
    for flow, (remaining, rate) in retired.items():
        assert flow._fabric is None
        assert flow.flow_id not in fabric.flows
        assert flow.remaining_gbit == remaining
        assert flow.rate_gbps == rate


class TestTombstones:
    def test_retired_slots_squeeze_in_order(self):
        fabric = constant_fabric(n=6)
        flows = [fabric.add_flow(i % 6, (i + 1) % 6, 10.0 + i) for i in range(12)]
        fabric.compute_rates()
        retired = {}
        # Remove every third flow: tombstones stay (dead < live).
        for flow in flows[::3]:
            fabric.remove_flow(flow)
            retired[flow] = (flow.remaining_gbit, flow.rate_gbps)
        assert (fabric._n, fabric._n_dead) == (12, 4)
        _check_tombstone_invariants(fabric, retired)
        # The seventh dead slot of twelve squeezes the arrays down to
        # the five live flows, in insertion order; the eighth removal
        # leaves one new tombstone behind.
        for flow in flows[1::3]:
            fabric.remove_flow(flow)
            retired[flow] = (flow.remaining_gbit, flow.rate_gbps)
        assert (fabric._n, fabric._n_dead) == (5, 1)
        _check_tombstone_invariants(fabric, retired)
        assert [f._index for f in fabric.flows.values()] == [0, 1, 2, 4]
        fabric.compute_rates()
        assert fabric.node_egress_rates().tolist() == (
            _rebuilt(fabric).node_egress_rates().tolist()
        )

    def test_completed_flow_leaves_inert_tombstone(self):
        fabric = constant_fabric(n=4)
        short = fabric.add_flow(0, 1, 1.0)
        long_flows = [fabric.add_flow(s, d, 50.0) for s, d in ((1, 2), (2, 3))]
        fabric.compute_rates()
        rate = short.rate_gbps
        (done,) = fabric.advance(fabric.horizon())
        assert done is short
        # One dead slot of three: kept as a tombstone.
        assert fabric._n == 3 and fabric._n_dead == 1
        assert fabric._remaining[0] == math.inf and fabric._rate[0] == 0.0
        assert short.rate_gbps == rate
        assert short.remaining_gbit <= 1e-9
        _check_tombstone_invariants(
            fabric, {short: (short.remaining_gbit, short.rate_gbps)}
        )
        # The tombstone never binds the horizon nor completes.
        fabric.compute_rates()
        horizon = fabric.horizon()
        assert horizon == min(f.completion_time() for f in long_flows)
        assert fabric.node_egress_rates().tolist() == (
            _rebuilt(fabric).node_egress_rates().tolist()
        )

    def test_remove_retired_handle_is_noop(self):
        fabric = constant_fabric(n=4)
        a = fabric.add_flow(0, 1, 10.0)
        b = fabric.add_flow(1, 2, 10.0)
        c = fabric.add_flow(2, 3, 10.0)
        fabric.remove_flow(b)
        state = (fabric._n, fabric._n_dead, list(fabric.flows))
        fabric.remove_flow(b)
        assert (fabric._n, fabric._n_dead, list(fabric.flows)) == state
        assert [m for m in fabric._members if b in m] == []
        fabric.compute_rates()
        assert a.rate_gbps == c.rate_gbps == 10.0


class _FabricMachine(RuleBasedStateMachine):
    """Random add / advance-to-horizon / remove interleavings.

    After every operation the maintained member lists must fill
    exactly like the kernel source run on the live flows in insertion
    order, and the tombstone bookkeeping must hold.
    """

    n_nodes = 7
    kernel_leg = False

    @initialize(tied=st.booleans(), seed=st.integers(0, 2**16))
    def build(self, tied, seed):
        rng = np.random.default_rng(seed)
        n = self.n_nodes
        if tied:
            # Two shared tiers: fair shares tie exactly and the
            # first-appearance tie-break decides the saturation order.
            egress = rng.choice([10.0, 25.0], size=n).tolist()
            ingress = rng.choice([10.0, 25.0], size=n).tolist()
        else:
            egress = rng.uniform(1.0, 12.0, size=n).tolist()
            ingress = rng.uniform(1.0, 12.0, size=n).tolist()
        self.fabric = Fabric(
            egress_models=[ConstantRateModel(e) for e in egress],
            ingress_caps_gbps=ingress,
        )
        self.retired = {}

    def _retire(self, flows):
        for flow in flows:
            self.retired[flow] = (flow.remaining_gbit, flow.rate_gbps)

    @rule(data=st.data(), count=st.integers(1, 40))
    def add_flows(self, data, count):
        n = self.n_nodes
        for _ in range(count):
            src = data.draw(st.integers(0, n - 1))
            dst = data.draw(st.integers(0, n - 2))
            dst += dst >= src
            volume = data.draw(st.sampled_from([1.0, 5.0, 12.5, 40.0]))
            self.fabric.add_flow(src, dst, volume)

    @precondition(lambda self: self.fabric.flows)
    @rule(fraction=st.sampled_from([1.0, 1.0, 0.5]))
    def advance(self, fraction):
        fabric = self.fabric
        before = {f: (f.remaining_gbit, f.rate_gbps) for f in fabric.flows.values()}
        dt = fabric.horizon() * fraction
        completed = fabric.advance(dt)
        if fraction == 1.0:
            assert completed
        for flow in completed:
            remaining, rate = before[flow]
            assert flow.rate_gbps == rate
            assert flow.remaining_gbit == remaining - rate * dt
        self._retire(completed)

    @precondition(lambda self: self.fabric.flows)
    @rule(data=st.data())
    def remove(self, data):
        live = list(self.fabric.flows.values())
        flow = data.draw(st.sampled_from(live))
        self.fabric.remove_flow(flow)
        self._retire([flow])

    @precondition(lambda self: self.retired)
    @rule(data=st.data())
    def remove_retired(self, data):
        fabric = self.fabric
        flow = data.draw(st.sampled_from(sorted(self.retired, key=id)))
        state = (fabric._n, fabric._n_dead, list(fabric.flows))
        fabric.remove_flow(flow)
        assert (fabric._n, fabric._n_dead, list(fabric.flows)) == state

    @invariant()
    def fabric_state_holds(self):
        fabric = self.fabric
        _check_tombstone_invariants(fabric, self.retired)
        live = list(fabric.flows.values())
        # Tombstones add nothing to the egress sums, even before the
        # next water-fill.
        sums = [0.0] * self.n_nodes
        for f in live:
            sums[f.src] += f.rate_gbps
        assert fabric.node_egress_rates().tolist() == sums
        expected = _kernel_rates(fabric, live)
        saved = _kernels.HAVE_JIT
        _kernels.HAVE_JIT = self.kernel_leg
        try:
            fabric.compute_rates()
        finally:
            _kernels.HAVE_JIT = saved
        assert [f.rate_gbps for f in live] == expected
        fabric._compute_rates_scalar()
        assert [f.rate_gbps for f in live] == expected
        assert fabric.node_egress_rates().tolist() == (
            _rebuilt(fabric).node_egress_rates().tolist()
        )


class TestMaintainedMembership:
    @pytest.mark.parametrize("kernel_leg", [False, True], ids=["scalar", "kernel"])
    @pytest.mark.parametrize("n_nodes", [7, 64])
    def test_fill_matches_kernel_on_live_flows(self, n_nodes, kernel_leg):
        machine = type(
            f"FabricMachine{n_nodes}",
            (_FabricMachine,),
            {"n_nodes": n_nodes, "kernel_leg": kernel_leg},
        )
        run_state_machine_as_test(
            machine,
            settings=settings(
                max_examples=12, stateful_step_count=25, deadline=None
            ),
        )


class TestEventHorizonCoalescing:
    """Near-tied shaper horizons must resolve as one event."""

    @staticmethod
    def _near_tie_fabric(coalesce_eps=None):
        # Two identical buckets whose budgets differ by a residue just
        # above the bucket's empty-snap epsilon: without coalescing
        # their depletion horizons land a ~1e-10 relative step apart
        # and fragment the simulation into a sub-nanosecond follow-up.
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=0.95,
            capacity_gbit=100.0,
        )
        models = [TokenBucketModel(params) for _ in range(2)]
        kwargs = {} if coalesce_eps is None else {"coalesce_eps": coalesce_eps}
        fabric = Fabric(models, [10.0, 10.0], **kwargs)
        models[0].set_budget(50.0)
        models[1].set_budget(50.0 + 5e-9)
        fabric.add_flow(0, 1, 1e9)
        fabric.add_flow(1, 0, 1e9)
        fabric.invalidate_rates()
        return fabric, models

    def test_near_ties_transition_in_one_step(self):
        fabric, models = self._near_tie_fabric()
        fabric.compute_rates()
        dt = fabric.horizon()
        # The coalesced bound covers the *later* of the two horizons...
        assert dt == max(m.horizon(10.0) for m in models)
        fabric.advance(dt)
        # ...so both buckets deplete in the same event step.
        assert [m.throttled for m in models] == [True, True]

    def test_disabled_coalescing_fragments_steps(self):
        fabric, models = self._near_tie_fabric(coalesce_eps=0.0)
        fabric.compute_rates()
        dt = fabric.horizon()
        assert dt == min(m.horizon(10.0) for m in models)
        fabric.advance(dt)
        assert [m.throttled for m in models] == [True, False]
        fabric.compute_rates()
        follow_up = fabric.horizon()
        assert 0.0 <= follow_up < 1e-9  # the fragment coalescing removes
        fabric.advance(follow_up)
        assert [m.throttled for m in models] == [True, True]

    def test_flow_bound_far_below_shapers_is_untouched(self):
        params = TokenBucketParams(
            peak_gbps=10.0, capped_gbps=1.0, replenish_gbps=0.95,
            capacity_gbit=1000.0,
        )
        fabric = Fabric(
            [TokenBucketModel(params) for _ in range(2)], [10.0, 10.0]
        )
        flow = fabric.add_flow(0, 1, 5.0)  # completes long before depletion
        fabric.compute_rates()
        assert fabric.horizon() == pytest.approx(flow.completion_time())

    def test_negative_coalesce_eps_rejected(self):
        with pytest.raises(ValueError):
            Fabric(
                [ConstantRateModel(10.0)], [10.0], coalesce_eps=-1e-9
            )
