"""jbalance benchmark.

    python3 perfbench/run.py --workload balance-p2 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout (the directory holding ``src/``).
Workloads are defined in ``perfbench/workloads.py``.  The run:

* writes the job configs under ``.perfbench_work/`` in the checkout;
* with ``--trace 0``, times the set-up (import, problem build, Quantisation
  contexts) in several fresh processes and reports the median;
* runs passes of the workload, one fresh child process per pass, pinned to
  the CPU that is quicker at launch (``quickest_cpu``), with the
  source tree on PYTHONPATH and the BLAS thread count fixed, passing
  ``--seed`` to every job, while another pass still fits in ``--seconds``
  counted from the start of the run, set-up included;
* reports each job's fastest wall time over the passes (see
  ``best_job_walls``);
* checks every job's artifacts (``perfbench/checks.py``); a job fails when it
  exits non-zero or fails a check;
* writes a run record (versions, CPU count, BLAS threads, sizes, accuracy
  outputs, timings and, when traced, the per-layer table) to
  ``.perfbench_work/records/`` and prints a summary;
* prints, as the last line, ``{"correct", "attempted", "failed",
  "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
  metrics with ``--trace 1``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, materialise

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BLAS_THREADS = 1            # at most the CPU count; one thread is steadiest
SETUP_PROBES = 7
DEADLINE_S = 170.0          # the whole run must end within 180 s


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


# Times a short pure Python loop on the CPU given as argv[1].
SPEED_PROBE = ("import os, sys, time; os.sched_setaffinity(0, {int(sys.argv[1])}); "
               "t = time.perf_counter(); sum(i * i for i in range(200000)); "
               "print(time.perf_counter() - t)")


def quickest_cpu():
    """The CPU, of the first two this process may use, on which a 20 ms loop
    ran faster just now.  The host slows each CPU for seconds at a time,
    largely independently of the other (a correlation of 0.35 between the
    two CPUs' speeds over 2-second windows), so a child pinned to the
    quicker one is less often slowed.  On ``flow-p1xp1`` this cut the
    quartile spread of ``solve_s`` over five seeds from 0.24 to 0.13."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    if len(cpus) == 1:
        return cpus[0]
    procs = [subprocess.Popen([sys.executable, "-S", "-c", SPEED_PROBE, str(cpu)],
                              stdout=subprocess.PIPE, text=True) for cpu in cpus]
    try:
        times = [float(proc.communicate(timeout=30)[0]) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return cpus[times.index(min(times))]


def run_child(script, args, deadline):
    """Run a perfbench script in a child process pinned to the quicker CPU;
    return its stdout."""
    args = args + ["--cpu", str(quickest_cpu())]
    proc = subprocess.run([sys.executable, str(HERE / script)] + args,
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: "
                           f"{proc.stderr.strip().splitlines()[-1:] or ''}")
    return proc.stdout


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


_UNITS = {"peak_rss_mib": "MiB", "quantisation.balance_steps": "count",
          "functionals.hessians_per_i_mu0": "ratio",
          "flows.balancing_flow.hilb_calls": "count", "flows.pde_min_dt": "flow_time",
          "cli.artifact_bytes": "bytes", "trace.overhead": "ratio"}


def unit(name):
    if name in _UNITS:
        return _UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def best_job_walls(passes):
    """Each job's fastest wall time over the passes, in job order.

    The host this was tuned on slows its CPUs by up to 1.7 times, in spells
    from under a second to minutes, and contention only ever adds time.  A
    job's fastest repetition is the steadiest estimate of its own cost, the
    more so the shorter the job and the more repetitions a run holds: in
    two sets of ten seeds, the quartile spread of ``solve_s`` on
    ``stability-sweep`` (23 jobs of about 26 ms) was 0.05 and 0.15 this way
    against 0.20 and 0.27 as the median pass time."""
    return [min(p["jobs"][i]["wall"] for p in passes) for i in range(len(passes[0]["jobs"]))]


def p90(values):
    """90th percentile of the jobs' best times; a single job is its own."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_passes(workload, work, args, start, deadline, stem):
    """Run one worker process per pass while the next pass, as long as the
    last one, still ends within --seconds of ``start``.  Traced runs
    alternate untraced and traced passes, at least one of each."""
    untraced, traced = [], []
    while True:
        trace = bool(args.trace) and len(untraced) > len(traced)
        index = len(untraced) + len(traced)
        result = work / f"pass{index}.json"
        worker_args = ["--workload", workload.name, "--seed", str(args.seed),
                       "--trace", str(int(trace)), "--work", str(work),
                       "--result", str(result)]
        if index == 0:
            worker_args.append("--record")
        if trace and not traced:
            worker_args += ["--spans", f"{stem}.spans.json"]
        pass_start = time.monotonic()
        run_child("worker.py", worker_args, deadline)
        (traced if trace else untraced).append(json.loads(result.read_text()))
        now = time.monotonic()
        if args.trace and not traced:
            continue
        if now + (now - pass_start) > min(start + args.seconds, deadline):
            return untraced, traced


def mean_table(passes, kind):
    """Mean per traced pass of each row of the passes' ``kind`` tables."""
    names = set().union(*(p[kind] for p in passes))
    keys = next(iter(passes[0][kind].values())).keys()
    return {name: {key: statistics.fmean(p[kind].get(name, {}).get(key, 0) for p in passes)
                   for key in keys}
            for name in names}


def print_table(title, table, total):
    print(f"{title:60s} {'calls':>9s} {'incl s':>10s} {'self s':>10s} {'share':>7s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["s"]):
        self_s = f"{row['self_s']:10.4f}" if "self_s" in row else f"{'':10s}"
        print(f"{name:60s} {row['calls']:9g} {row['s']:10.4f} {self_s} "
              f"{row['s'] / total:7.1%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # subprocess.run kills and waits for its child when this unwinds it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (ROOT / "src" / "jbalance" / "__init__.py").is_file():
        print(f"no jbalance source tree under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_work"
    work = base / workload.name
    shutil.rmtree(work, ignore_errors=True)
    materialise(workload, work)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    records = base / "records"
    records.mkdir(parents=True, exist_ok=True)

    try:
        setups = []
        if not args.trace:
            setups = [json.loads(run_child("setup_probe.py",
                                           ["--workload", workload.name, "--work", str(work)],
                                           deadline))
                      for _ in range(SETUP_PROBES)]
        untraced, traced = run_passes(workload, work, args, start, deadline, records / tag)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    jobs = [j for p in passes for j in p["jobs"]]
    walls = [sum(j["wall"] for j in p["jobs"]) for p in untraced]
    best = best_job_walls(untraced)
    failed = sum(1 for j in jobs if j["problems"])
    if args.trace:
        values = {name: statistics.fmean(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["flows.pde_min_dt"] = min(p["layers"]["flows.pde_min_dt"] for p in traced)
        values["trace.overhead"] = sum(best_job_walls(traced)) / sum(best) - 1
        table, edges = (mean_table(traced, kind) for kind in ("table", "edges"))
    else:
        values = {"solve_s": sum(best),
                  "setup_s": statistics.median(setups),
                  "job_p50_s": statistics.median(best),
                  "job_p90_s": p90(best),
                  "peak_rss_mib": max(p["peak_rss_mib"] for p in untraced)}
        table = edges = None
    metrics = {name: {"value": val, "unit": unit(name)} for name, val in values.items()}

    failures = [f"{j['label']}: {msg}" for j in jobs for msg in j["problems"]]
    accuracy = {j["label"]: j["accuracy"] for j in passes[-1]["jobs"] if j["accuracy"]}
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "metrics": metrics, "attempted": len(jobs),
              "failed": failed, "failures": failures[:20], "accuracy": accuracy,
              "pass_walls": walls, "best_job_walls": best,
              "setup_walls": setups, "table": table, "edges": edges,
              "record": dict(passes[0]["record"], **source_identity())}
    record_path = records / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1))

    print(f"workload {workload.name}: {len(untraced)} untraced and {len(traced)} traced "
          f"passes, {len(jobs)} jobs, {failed} failed")
    for msg in failures[:20]:
        print(f"  FAIL {msg}")
    print("accuracy (reported, not gated):")
    for label, acc in accuracy.items():
        print(f"  {label}: {json.dumps(acc)}")
    if table:
        total = table.get("cli.main", {}).get("s") or 1.0
        print_table("span", table, total)
        print_table("caller > callee", edges, total)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
