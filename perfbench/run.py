"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dag_stream --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the workload's unit of work is repeated for
``--seconds`` seconds and the end-to-end metrics are printed: set-up
time (median of several fresh set-ups), work units completed per
second and peak resident memory.  Times are scaled to reference speed
by ``calibrate.SpeedProbe``, which samples the host's speed from
process start; the host's own figures are printed beside them.  With
``--trace 1`` untraced and traced repetitions alternate instead, the
traced outputs must equal the untraced ones, and the per-layer metrics
of ``tracing.PER_LAYER`` are printed.

Every repetition's simulated outputs are checked: repetitions of the
same input variant must agree, the workload's own checks must pass,
and for ``--seed 1`` the outputs must equal ``reference.json``.  A
repetition that fails a check counts all its units as failed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
the run is correct.

The program is imported from ``src/`` next to this directory; the run
fails before printing any result when it is not there.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"

#: End-to-end metrics, each with its unit.  ``setup_s`` and
#: ``units_per_s`` are scaled to reference speed.
END_TO_END = {"setup_s": "s", "units_per_s": "units/s", "peak_rss_mb": "MiB"}

#: The throughput name each workload's unit gives ``units_per_s``.
THROUGHPUT_NAMES = {
    "dag_stream": "jobs_per_s",
    "wide_shuffle": "jobs_per_s",
    "serving_flash": "requests_per_s",
    "campaign_sweep": "cached_cells_per_s",
}

#: Shortest round of repetitions of one variant (seconds); a round's
#: rate is scaled by the mean speed sampled during it.
ROUND_S = 1.0

#: Fresh set-ups per run whose median is ``setup_s``: this process's
#: own plus ``SETUP_SAMPLES - 1`` set-up-only child processes.
SETUP_SAMPLES = 3


def import_program():
    """Import the benchmark's modules and the program from ``ROOT/src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro
    import tracing
    import workloads

    location = Path(repro.__file__).resolve()
    if src.resolve() not in location.parents:
        raise SystemExit(f"error: repro imported from {location}, not from {src}")
    return workloads, tracing


def environment() -> dict:
    """Which interpreter, libraries, jit leg, machine and commit ran this."""
    from importlib import metadata

    import numpy

    from repro.simulator import _kernels

    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = None
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
        "jit": bool(_kernels.HAVE_JIT),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_child(args) -> dict:
    """Time one fresh set-up in a child process (import, inputs, build)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class Checker:
    """Checks every repetition's outputs; counts attempted and failed units.

    Repetitions of the same input variant must agree with each other
    and, when ``reference`` is given, with its entry for that variant.
    """

    def __init__(self, workload, reference: list | None) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, variant, state, outputs, attempted, completed, problems=()) -> None:
        problems = list(problems) + self.workload.check(state, outputs)
        first = self.first.setdefault(variant, outputs)
        if outputs != first:
            problems.append(f"variant {variant}: outputs differ between repetitions")
        if self.reference is not None and outputs != self.reference[variant]:
            problems.append(
                f"variant {variant}: outputs {outputs} differ from reference "
                f"{self.reference[variant]}"
            )
        self.attempted += attempted
        self.failed += attempted if problems else attempted - completed
        if completed != attempted:
            problems.append(f"{attempted - completed} of {attempted} units did not complete")
        self.problems.extend(p for p in problems if p not in self.problems)


class Repetitions:
    """Builds, times and checks one repetition at a time.

    Wall times exclude the time ``probe`` spent sampling inside them.
    """

    def __init__(self, workload, variants, state, work_dir, checker, probe) -> None:
        self.workload = workload
        self.variants = variants
        self.work_dir = work_dir
        self.checker = checker
        self.probe = probe
        self.count = 0
        self._state = state  # built during set-up, for variant 0

    def run(self, variant: int, tracer=None, expected=None):
        """One repetition of ``variant``; returns outputs, units and wall time.

        With a ``tracer`` the repetition is traced together with a fresh
        set-up of its variant, built in a directory of its own so that a
        campaign's cold pass runs again; its outputs must equal
        ``expected``, the untraced outputs of the same variant.
        """
        self.count += 1
        if tracer is None:
            state, self._state = self._state, None
            if state is None:
                state = self.workload.build(self.variants[variant], self.work_dir)
            spent, start = self.probe.spent, time.perf_counter()
            result = self.workload.run(state)
            wall = time.perf_counter() - start - (self.probe.spent - spent)
            problems = []
        else:
            with tracer.installed():
                with tracer.span("setup"):
                    state = self.workload.build(
                        self.variants[variant], self.work_dir / f"traced-{self.count}"
                    )
                spent, start = self.probe.spent, time.perf_counter()
                with tracer.span("run"):
                    result = self.workload.run(state)
                wall = time.perf_counter() - start - (self.probe.spent - spent)
            problems = tracer.check_nesting()
        outputs, attempted, completed = self.workload.outputs(state, result)
        if tracer is not None and outputs != expected:
            problems.append("traced outputs differ from untraced outputs")
        self.checker.record(variant, state, outputs, attempted, completed, problems)
        return outputs, attempted, wall


def measure(args, reps: Repetitions) -> tuple[float, float, list[float]]:
    """Repeat the timed unit for ``--seconds``, and every variant at least once.

    Each round repeats one variant for at least ``ROUND_S``; its rate is
    divided by the mean speed sampled during the round.  A variant's
    rate is the median over its rounds, and the run's rate is that of
    one repetition of every variant.  Returns the scaled rate, the
    host's unscaled rate and the speed of every round.
    """
    probe, count = reps.probe, len(reps.variants)
    rates: list[list[float]] = [[] for _ in range(count)]
    units = [0] * count
    host_units = host_wall = 0.0
    speeds = []
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds < count or time.perf_counter() < deadline:
        variant = rounds % count
        rounds += 1
        first = len(probe.speeds)
        done = busy = 0.0
        round_end = time.perf_counter() + ROUND_S
        while not done or time.perf_counter() < round_end:
            _, units[variant], wall = reps.run(variant)
            done += units[variant]
            busy += wall
        speeds.append(probe.speed(first))
        rates[variant].append(done / busy / speeds[-1])
        host_units += done
        host_wall += busy
    seconds = sum(n / statistics.median(r) for n, r in zip(units, rates))
    return sum(units) / seconds, host_units / host_wall, speeds


def trace(args, reps: Repetitions, tracing) -> tuple[dict, dict]:
    """Alternate untraced and traced repetitions of each variant.

    The traced outputs must equal the untraced ones.  Per-layer metrics
    are the medians over the traced repetitions.
    """
    untraced, traced, per_unit = [], [], []
    labels: dict = {}
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        variant = len(traced) % len(reps.variants)
        plain, _, wall = reps.run(variant)
        untraced.append(wall)
        tracer = tracing.Tracer()
        outputs, _, wall = reps.run(variant, tracer, expected=plain)
        traced.append(wall)
        per_unit.append(tracer.layer_metrics(outputs))
        if not labels:
            self_times = tracer.self_times()
            path = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.npz"
            tracer.save(path)
            labels = {
                "fleet.class": ",".join(sorted(tracer.fleet_classes)) or "none",
                "trace.largest_self": max(self_times, key=self_times.get),
                "trace.spans": len(tracer.name),
                "trace.file": str(path.relative_to(ROOT)),
            }
    metrics = {
        name: statistics.median(unit[name] for unit in per_unit)
        for name in per_unit[0]
    }
    metrics["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    ) * 100.0
    return metrics, labels


def main(argv=None) -> int:
    probe = calibrate.SpeedProbe().start()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up, print it as JSON and exit",
    )
    args = parser.parse_args(argv)

    workloads, tracing = import_program()
    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        start = time.perf_counter()
        variants = workload.inputs(args.seed)
        inputs_s = time.perf_counter() - start
        start = time.perf_counter()
        state = workload.build(variants[0], work_dir)
        build_s = time.perf_counter() - start
        raw_s = time.perf_counter() - T0 - probe.spent
        setup = {"raw_s": raw_s, "setup_s": raw_s * probe.speed()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        reference = json.loads((BENCH_DIR / "reference.json").read_text())
        checker = Checker(
            workload,
            reference[args.workload] if args.seed == workloads.DEFAULT_SEED else None,
        )
        reps = Repetitions(workload, variants, state, work_dir, checker, probe)
        print("env: " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            metrics, labels = trace(args, reps, tracing)
            metrics.update(
                {"setup.import_s": import_s, "setup.inputs_s": inputs_s, "setup.build_s": build_s}
            )
            units = tracing.PER_LAYER
            for name, value in labels.items():
                print(f"{name} = {value}")
        else:
            setups = [setup] + [setup_child(args) for _ in range(SETUP_SAMPLES - 1)]
            scaled, host, speeds = measure(args, reps)
            metrics = {
                "setup_s": statistics.median(s["setup_s"] for s in setups),
                "units_per_s": scaled,
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END
            if args.workload == "campaign_sweep":
                cells = len(variants[0])
                print(
                    f"cells_per_s = {cells / (build_s * setup['setup_s'] / setup['raw_s']):.6g} "
                    f"cells/s at reference speed, {cells / build_s:.6g} on this host "
                    "(the cold pass of this run's set-up; gated through setup_s)"
                )
            print(
                f"{THROUGHPUT_NAMES[args.workload]} = {scaled:.6g} {workload.unit}/s "
                f"at reference speed, {host:.6g} on this host ({len(speeds)} rounds "
                f"over {len(variants)} input variants; host speed {min(speeds):.3f} "
                f"to {max(speeds):.3f} of reference)"
            )
            print(
                "setup samples = "
                + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
                + " s at reference speed, "
                + ", ".join(f"{s['raw_s']:.4f}" for s in setups)
                + " s on this host"
            )
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)

    error_rate = checker.failed / checker.attempted
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(
        f"error_rate = {error_rate:.6g} fraction "
        f"({checker.failed} of {checker.attempted} {workload.unit} failed)"
    )
    for problem in checker.problems:
        print(f"check failed: {problem}")
    correct = not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
