"""Serving SLOs on a variable fabric: the paper's question at p99.

The paper shows that hidden shaper state decides *batch* runtimes; a
microservice's tail latency is even more exposed, because one node's
depleted shaper sits on every request's critical path.  This example
builds a three-tier call tree, drives it with a flash-crowd arrival
burst at the same seeded operating point twice — once on resampling
HPC-cloud link incarnations, once on a constant-rate "fixed" fabric at
the same class-median capacity — and gates both runs with the same
p99 SLO.  Same mean bandwidth, same arrivals, same compute noise: only
the variability differs, and only the variable fabric fails the SLO.
Both legs run as one two-cell campaign through the batched driver —
the same pipeline a whole provider x arrival sweep uses.

Run with:  python examples/serving_slo.py
"""

from repro.serving import ServingConfig
from repro.workload import ScenarioCampaign, batch_executor

SEED = 1


def leg(provider: str, instance: str) -> ServingConfig:
    return ServingConfig(
        provider_name=provider,
        instance_name=instance,
        n_nodes=4,
        topology="three_tier",
        arrival="flash",
        rate_rps=90.0,
        duration_s=60.0,
        slo_p99_ms=500.0,
        slo_window_s=10.0,
        seed=SEED,
    )


def main() -> None:
    print("serving SLO gate: three-tier fan-out, flash crowd at 90 rps, "
          f"seed {SEED}\n")

    legs = [
        ("variable", "hpccloud", "hpccloud-8core"),
        ("fixed-rate", "fixed", "fixed-9gbps"),
    ]
    configs = {label: leg(provider, instance)
               for label, provider, instance in legs}
    outcome = ScenarioCampaign(
        list(configs.values()), executor=batch_executor()
    ).run()
    reports = {}
    for label, provider, instance in legs:
        config = configs[label]
        result = reports[label] = outcome.results[config.serving_id]
        lat = result.latency
        print(f"[{label}] {provider}/{instance}  cell {config.serving_id}")
        print(f"  {result.n_completed}/{result.n_requests} requests in "
              f"{result.makespan_s:.1f} s simulated")
        print(f"  p50 {lat['p50'] * 1e3:7.1f} ms   "
              f"p99 {lat['p99'] * 1e3:7.1f} ms   "
              f"max {lat['max_s'] * 1e3:7.1f} ms")
        print(f"  {'quantile':>8s} {'target_ms':>10s} {'worst_ms':>10s} "
              f"{'violations':>10s} {'status':>6s}")
        for row in result.slo.verdict_rows():
            print(f"  {row['quantile']:>8s} {row['target_ms']:10.1f} "
                  f"{row['worst_ms']:10.1f} {row['violations']:10d} "
                  f"{row['status']:>6s}")
        verdict = "PASS" if result.slo.passed else "FAIL"
        print(f"  slo verdict: {verdict} "
              f"({result.slo_violations} violation window(s))\n")

    variable, fixed = reports["variable"], reports["fixed-rate"]
    assert not variable.slo.passed and fixed.slo.passed
    print("same mean capacity, same arrivals — but only the variable "
          "fabric breaks the SLO:")
    print(f"  variable fabric: {variable.slo_violations} violation "
          f"window(s), worst p99 "
          f"{variable.slo.worst['p99'] * 1e3:.0f} ms")
    print(f"  fixed fabric:    {fixed.slo_violations} violation "
          f"window(s), worst p99 {fixed.slo.worst['p99'] * 1e3:.0f} ms")
    print("\nshaper variability, not mean bandwidth, decides the p99 "
          "verdict — the paper's reproducibility gap, restated as an SLO")


if __name__ == "__main__":
    main()
