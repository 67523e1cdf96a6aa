"""Shaper-fleet scaling: the O(N) model loop vs one batched fleet.

Before PR 3, every fluid-simulation step asked each node's egress
shaper for its ceiling, horizon, and state update in a Python loop —
per-step cost grew linearly with cluster size even when nothing but
the shapers changed.  The struct-of-arrays fleets in
``repro.netmodel.fleet`` replace that loop with a handful of numpy
operations whose cost is nearly flat in node count.

This example sweeps the node count 16 -> 256 over the ``shaper_64_tb``
benchmark workload (sparse never-completing flows through
tier-oscillating token buckets — reused from ``repro.bench.hotpath``
so the example demonstrates exactly the pinned case) and prints the
achieved event-step rate through the vectorized fleet and through the
scalar-adapter reference loop.  Watch the scalar column's step rate
collapse with N while the fleet column barely moves.

Run with:  python examples/fleet_scaling.py
"""

from repro.bench import bench_shaper_fleet_vs_scalar

DURATION_S = 600.0
MAX_STEP_S = 0.1


def main() -> None:
    print(f"shaper-fleet scaling sweep ({DURATION_S:.0f}s of fluid time per cell)\n")
    print(
        f"{'nodes':>6s} {'fleet_steps/s':>14s} {'scalar_steps/s':>15s} "
        f"{'speedup':>8s}"
    )
    for n_nodes in (16, 32, 64, 128, 256):
        # Runs the sweep through both paths and refuses to report a
        # speedup unless they walk the same trajectory (checksum and
        # step count), so the ratio compares one simulation.
        row = bench_shaper_fleet_vs_scalar(n_nodes, DURATION_S, MAX_STEP_S)
        fleet_rate = (
            row["n_steps"] / row["wall_s"] if row["wall_s"] > 0 else float("inf")
        )
        scalar_rate = (
            row["n_steps"] / row["scalar_wall_s"]
            if row["scalar_wall_s"] > 0
            else float("inf")
        )
        print(
            f"{n_nodes:6d} {fleet_rate:14.0f} {scalar_rate:15.0f} "
            f"{row['fleet_speedup']:7.2f}x"
        )
    print(
        "\nThe scalar loop pays ~3 Python calls per node per step; the"
        "\nfleet pays a fixed handful of array ops regardless of N."
    )


if __name__ == "__main__":
    main()
