"""Runs one pass of a workload in this process and writes a JSON result file.

Started by ``run.py`` with the source tree on PYTHONPATH and the BLAS thread
count fixed in the environment.  The jobs run in process, one after another,
through ``jbalance.cli.main``.  Each pass gets a fresh process, as each CLI
invocation does: a process's first pass pays page faults for its large
temporaries that later passes in the same process would not.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import HERE, WORKLOADS, distinct_problems

STABILITY_REFERENCE = HERE / "reference" / "stability-seed.json"


def run_job(cli, job, work, seed, reference):
    out = job.out_dir(work)
    shutil.rmtree(out, ignore_errors=True)
    argv = job.argv(work, seed)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code or 0
        except Exception as exc:  # a crashing job is a failed job, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    if code != 0:
        problems, acc = [f"exit code {code}"], {}
    elif job.command == "balance":
        problems, acc = checks.check_balance(out, job.options["k_list"])
    elif job.command == "flow":
        problems, acc = checks.check_flow(out, job.options["k_list"])
    else:
        problems, acc = checks.check_stability(out, job.meta, reference.get(job.label))
    size = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0
    return {"label": job.label, "wall": wall, "problems": problems,
            "accuracy": acc, "bytes": size}


def blas_info():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "env_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def run_record(cli, workload, work, seed):
    import numpy as np
    problems = []
    for job, cfg in distinct_problems(cli, workload, work):
        problem = cli.build_problem(cfg)
        entry = {"problem": problem.name, "spec": cfg["problem"],
                 "resolution": cfg["resolution"], "M": int(len(problem.rule.nodes))}
        if job.levels:
            entry["levels"] = []
            for k in cfg["k_list"]:
                q = problem.quantisation(k, n_theta=cfg["n_theta"])
                entry["levels"].append({"k": k, "M": int(len(q.nodes)),
                                        "n_plus_1": int(q.n_plus_1),
                                        "n_theta": int(q.n_theta)})
        if job.command == "flow":
            entry["pde_grid"] = [cfg["flow"]["grid"]] * 2
        problems.append(entry)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)), "seed": seed,
            "jobs_per_pass": len(workload.jobs), "problems": problems}


def layer_metrics(tracer, jobs):
    """Per-layer metrics of one traced pass."""
    spans = tracer.spans
    table = tracing.layer_table(spans)

    def get(name, key="s"):
        return table.get(name, {}).get(key, 0)

    i_mu0_calls = get("functionals.i_mu0", "calls")
    hess_in_imu0 = tracing.count_within(spans, "geometry.lse_hessian", "functionals.i_mu0")
    metrics = {
        "geometry.lse_hessian.calls": get("geometry.lse_hessian", "calls"),
        "geometry.lse_hessian.s": get("geometry.lse_hessian"),
        "geometry.lse_value.calls": get("geometry.lse_value", "calls"),
        "geometry.lse_value.s": get("geometry.lse_value"),
        "geometry.build_quadrature.s": get("geometry.build_quadrature"),
        "geometry.calibrate.s": get("geometry.calibrate"),
        "geometry.intersection.s": get("geometry.intersection"),
        "cli.build_problem.s": get("cli.build_problem"),
        "quantisation.hilb_form.calls": get("quantisation.hilb_form", "calls"),
        "quantisation.hilb_form.s": get("quantisation.hilb_form"),
        "quantisation.mu0.s": get("quantisation.mu0"),
        "quantisation.trace_identity.s": get("quantisation.trace_identity"),
        "quantisation.iterate_to_balance.self_s": get("quantisation.iterate_to_balance", "self_s"),
        "quantisation.balance_steps": sum(sum(j["accuracy"].get("balance_steps", {}).values())
                                          for j in jobs),
        "functionals.i_mu0.calls": i_mu0_calls,
        "functionals.i_mu0.s": get("functionals.i_mu0"),
        "functionals.i_mu0.self_s": get("functionals.i_mu0", "self_s"),
        "functionals.hessians_per_i_mu0": hess_in_imu0 / i_mu0_calls if i_mu0_calls else 0.0,
        "flows.balancing_flow.s": get("flows.balancing_flow"),
        "flows.balancing_flow.hilb_calls": tracing.count_within(
            spans, "quantisation.hilb_form", "flows.balancing_flow"),
        "flows.jflow_run.calls": get("flows.jflow_run", "calls"),
        "flows.jflow_run.s": get("flows.jflow_run"),
        "flows.jflow_run.self_s": get("flows.jflow_run", "self_s"),
        "flows.jflow_step.calls": get("flows.jflow_step", "calls"),
        "flows.jflow_step.s": get("flows.jflow_step"),
        "flows.pde_min_dt": min(tracer.pde_dts) if tracer.pde_dts else 0.0,
        "flows.quantization_comparison.s": get("flows.quantization_comparison"),
    }
    for fn in ("blowup_table", "j_weight", "df_weight", "inequality_checks", "cone_criteria"):
        metrics[f"stability.{fn}.calls"] = get(f"stability.{fn}", "calls")
        metrics[f"stability.{fn}.s"] = get(f"stability.{fn}")
    metrics["cli.write.s"] = get("cli.write")
    metrics["cli.artifact_bytes"] = sum(j["bytes"] for j in jobs)
    metrics["cli.main.s"] = get("cli.main")
    return metrics, table, tracing.edge_table(spans)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="scratch directory for jobs")
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--spans", default=None, help="write traced spans here")
    parser.add_argument("--record", action="store_true",
                        help="add the run record (versions, sizes) to the result")
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    reference = (json.loads(STABILITY_REFERENCE.read_text())
                 if any(j.command == "stability" for j in workload.jobs) else {})
    import jbalance.cli as cli

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        jobs = [run_job(cli, job, work, args.seed, reference) for job in workload.jobs]
    finally:
        if tracer:
            tracer.uninstall()
    result = {"jobs": jobs,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["layers"], result["table"], result["edges"] = layer_metrics(tracer, jobs)
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans))
    if args.record:
        result["record"] = run_record(cli, workload, work, args.seed)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
