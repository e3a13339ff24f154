"""Times one set-up of a workload in a fresh process: importing jbalance,
building each distinct problem the workload's jobs use (quadrature build and
calibration) and constructing the Quantisation context for each level they
use.  Prints the seconds as one JSON number.  Started by ``run.py``, which
has written the job configs already.
"""

import argparse
import json
import os
import time
from pathlib import Path

from workloads import WORKLOADS, distinct_problems


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    workload = WORKLOADS[args.workload]
    work = Path(args.work)

    start = time.perf_counter()
    import jbalance.cli as cli
    for job, cfg in distinct_problems(cli, workload, work):
        problem = cli.build_problem(cfg)
        if job.levels:
            for k in cfg["k_list"]:
                problem.quantisation(k, n_theta=cfg["n_theta"])
    print(json.dumps(time.perf_counter() - start))


if __name__ == "__main__":
    main()
