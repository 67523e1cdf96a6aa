"""Record each workload's simulated outputs for the default seed.

    python3 perfbench/record_reference.py

Runs one unit of every input variant of every workload with
``workloads.DEFAULT_SEED`` and writes the outputs to ``reference.json``, which ``run.py`` compares
exactly.  Re-record only when a change is meant to alter what the
simulator computes.
"""

import json
import shutil
import tempfile
from pathlib import Path

from run import BENCH_DIR, WORK_ROOT, import_program


def main() -> None:
    workloads, _ = import_program()
    reference = {}
    WORK_ROOT.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        reference[name] = []
        for variant in workload.inputs(workloads.DEFAULT_SEED):
            work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
            try:
                state = workload.build(variant, work_dir)
                outputs, _, _ = workload.outputs(state, workload.run(state))
            finally:
                shutil.rmtree(work_dir)
            reference[name].append(outputs)
            print(name, outputs)
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
