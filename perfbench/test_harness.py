"""Self-test of the benchmark harness: each check rejects a corrupted artifact,
a non-zero exit fails a job, the self-time arithmetic holds on a synthetic
span tree, the best-time arithmetic holds, and the metric names agree with
BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _write_balance(out, energies, k=3, converged=True, health=1e-8):
    out.mkdir(parents=True, exist_ok=True)
    (out / f"balanced_k{k}.json").write_text(json.dumps(
        {"k": k, "converged": converged, "steps": len(energies) - 1,
         "health_residual": health}))
    mu0 = [10.0 ** -i for i in range(len(energies) - 1)] + [5e-10]
    rows = "".join(f"{i},{m!r},{m!r},np.float64({e!r}),0.0\n"
                   for i, (m, e) in enumerate(zip(mu0, energies)))
    (out / f"balance_k{k}.csv").write_text("step,mu0_fro,mu0_op,i_mu0,logdet\n" + rows)


def test_balance_check_rejects_rising_energy(tmp_path):
    good = [0.0, -0.11, -0.123, -0.123]
    _write_balance(tmp_path / "ok", good)
    assert checks.check_balance(tmp_path / "ok", [3])[0] == []
    _write_balance(tmp_path / "bad", [0.0, -0.11, -0.109, -0.123])
    problems, _ = checks.check_balance(tmp_path / "bad", [3])
    assert len(problems) == 1 and "i_mu0 rises at step 2" in problems[0]


def test_balance_check_rejects_unconverged_and_unhealthy(tmp_path):
    _write_balance(tmp_path, [0.0, -0.1], converged=False, health=2e-6)
    problems, _ = checks.check_balance(tmp_path, [3])
    assert any("not converged" in p for p in problems)
    assert any("health residual" in p for p in problems)
    assert any("unreadable" in p for p in checks.check_balance(tmp_path, [4])[0])


def _write_flow(out, mu0_sq, logdet):
    out.mkdir(parents=True, exist_ok=True)
    for k in (2, 4):
        rows = "".join(f"{i * 0.5},{m ** 0.5!r},{m!r},,{ld!r}\n"
                       for i, (m, ld) in enumerate(zip(mu0_sq, logdet)))
        (out / f"balancing_flow_k{k}.csv").write_text("t,mu0_fro,mu0_sq,i_mu0,logdet\n" + rows)
    (out / "jflow_residual.csv").write_text("t,sup_residual\n0.0,0.3\n0.25,0.1\n")
    (out / "quantization_comparison.json").write_text(json.dumps(
        {"meta": {"pde_steps": 10}, "rows": [{"k": 2, "t": 0.25, "distance": 0.05}]}))


def test_flow_check_rejects_rising_mu0_and_logdet_drift(tmp_path):
    _write_flow(tmp_path / "ok", [1e-3, 5e-4, 5e-4], [-17.7] * 3)
    assert checks.check_flow(tmp_path / "ok", [2, 4])[0] == []
    _write_flow(tmp_path / "bad", [1e-3, 5e-4, 6e-4], [-17.7, -17.7, -17.6])
    problems, _ = checks.check_flow(tmp_path / "bad", [2, 4])
    assert sum("mu0_sq rises" in p for p in problems) == 2
    assert sum("logdet drifts" in p for p in problems) == 2


def _write_stability(out, exact):
    out.mkdir(parents=True, exist_ok=True)
    header = "r,j_weight,df_weight,ineq_ii,ineq_iii,ineq_surface,admissible\n"
    (out / "stability_sweep.csv").write_text(
        header + "".join(",".join(row) + "\n" for row in exact["sweep"]))
    (out / "pairings.csv").write_text(
        "classes,value\n" + "".join(",".join(row) + "\n" for row in exact["pairings"]))
    (out / "verdicts.json").write_text(json.dumps(exact["verdicts"]))


def test_stability_check_rejects_wrong_j_weight(tmp_path):
    reference = json.loads(worker.STABILITY_REFERENCE.read_text())
    job = next(j for j in WORKLOADS["stability-sweep"].jobs if j.label == "P2-O2-custom-f0")
    exact = reference[job.label]
    _write_stability(tmp_path / "ok", exact)
    assert checks.check_stability(tmp_path / "ok", job.meta, exact)[0] == []
    wrong = json.loads(json.dumps(exact))
    row = next(r for r in wrong["sweep"] if r[0] == "3")
    assert row[1] == "14/9"            # d (1 - 2/(3r)) at d = 2, r = 3
    row[1] = "3/2"
    _write_stability(tmp_path / "bad", wrong)
    problems, _ = checks.check_stability(tmp_path / "bad", job.meta, exact)
    assert any("closed form 14/9" in p for p in problems)
    assert any("sweep differs" in p for p in problems)


class _FakeCli:
    def __init__(self, outcome):
        self.outcome = outcome

    def main(self, argv):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def test_nonzero_exit_fails_the_job(tmp_path):
    job = WORKLOADS["balance-p2"].jobs[0]
    res = worker.run_job(_FakeCli(3), job, tmp_path, 0, {})
    assert res["problems"] == ["exit code 3"]
    res = worker.run_job(_FakeCli(ValueError("boom")), job, tmp_path, 0, {})
    assert res["problems"] == ["exit code ValueError: boom"]


def test_self_time_on_synthetic_span_tree():
    spans = [["root", 0.0, 10.0, -1],
             ["a", 1.0, 4.0, 0],
             ["b", 3.0, 6.0, 0],          # overlaps a: union, not sum
             ["c", 8.0, 12.0, 0],         # clipped to the parent's end
             ["a", 2.0, 3.0, 1],          # nested in a span of its own name
             ["d", 6.5, 7.0, -1]]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0, 0.5]
    table = tracing.layer_table(spans)
    assert table["a"] == {"calls": 2, "s": 3.0, "self_s": 3.0}
    assert table["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert tracing.count_within(spans, "a", "root") == 2
    assert tracing.count_within(spans, "a", "a") == 1
    edges = tracing.edge_table(spans)
    assert edges["root > a"] == {"calls": 1, "s": 3.0}
    assert edges["a > a"] == {"calls": 1, "s": 1.0}
    assert edges["(root) > d"] == {"calls": 1, "s": 0.5}


def test_best_job_walls_take_each_jobs_fastest_pass():
    passes = [{"jobs": [{"wall": 3.0}, {"wall": 1.0}]},
              {"jobs": [{"wall": 2.0}, {"wall": 4.0}]}]
    assert run.best_job_walls(passes) == [2.0, 1.0]
    assert run.p90([2.5]) == 2.5
    assert run.p90([float(v) for v in range(1, 12)]) == 10.0


def test_tracer_records_parents_and_uninstalls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]

    import jbalance.cli as cli
    import jbalance.flows as flows
    originals = (cli.balancing_flow, flows.jflow_step, cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.balancing_flow is flows.balancing_flow
        assert cli.balancing_flow is not originals[0]
        assert flows.jflow_step is not originals[1]
    finally:
        tracer.uninstall()
    assert (cli.balancing_flow, flows.jflow_step, cli.main) == originals


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) \
        == sorted(WORKLOADS)
    layers, _, _ = worker.layer_metrics(tracing.Tracer(), [{"bytes": 10, "accuracy": {}}])
    # run.py adds the tracing overhead, measured across passes
    assert list(layers) + ["trace.overhead"] == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"] + spec["end_to_end"]:
        assert run.unit(m["name"]) == m["unit"], m["name"]
