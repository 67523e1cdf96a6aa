"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/steadiness.py --workload serving_flash --runs 10

Runs ``BENCHMARK.json``'s command once per seed (``--first-seed``,
``--first-seed + 1``, ...) with ``--trace 0`` and ``run_seconds``, then
prints, for every end-to-end metric, the median, the spread (distance
between the first and third quartile as a share of the median) beside
the metric's bound, and the repetitions CONFIRM
(:func:`repro.stats.confirm.repetitions_needed`) says the median needs
for its 95% confidence interval to fit within the bound.  The report is
informational; the bounds live in ``BENCHMARK.json``.  Results are also
written to ``.bench_work/steadiness-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORK_ROOT, import_program


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = [
        *spec["command"],
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    if command[0] == "python3":
        command[0] = sys.executable
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({done.returncode}): {done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run for seed {seed}: {done.stdout[-2000:]}")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    import_program()
    from repro.stats.confirm import repetitions_needed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(spec, args.workload, seed)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    report = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        needed = repetitions_needed(series, error=bound)
        report[name] = {
            "values": series,
            "median": statistics.median(series),
            "spread": spread(series),
            "bound": bound,
            "confirm_repetitions": needed,
        }
        print(
            f"{args.workload} {name}: median {report[name]['median']:.6g} {metric['unit']}, "
            f"spread {report[name]['spread']:.4f} (bound {bound}, "
            f"{report[name]['spread'] / bound:.2f} of it), CONFIRM repetitions for "
            f"+-{bound:.0%}: {needed if needed is not None else f'more than {len(series)}'}"
        )
    WORK_ROOT.mkdir(exist_ok=True)
    (WORK_ROOT / f"steadiness-{args.workload}.json").write_text(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
