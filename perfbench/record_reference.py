"""Records the exact outputs of every stability-sweep job, the reference the
stability checks compare against.  Run it once, at the commit whose values
the reference should hold, from the checkout root:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import contextlib
import io
import json
import shutil

import checks
from workloads import HERE, WORKLOADS, materialise
from worker import STABILITY_REFERENCE


def main():
    import jbalance.cli as cli
    workload = WORKLOADS["stability-sweep"]
    work = HERE.parent / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    materialise(workload, work)
    reference = {}
    for job in workload.jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(job.argv(work, 0))
        if code != 0:
            raise SystemExit(f"{job.label}: exit code {code}")
        reference[job.label] = checks.read_stability(job.out_dir(work))
    lines = [f"{json.dumps(label)}: {json.dumps(reference[label])}" for label in sorted(reference)]
    STABILITY_REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} jobs to {STABILITY_REFERENCE}")


if __name__ == "__main__":
    main()
