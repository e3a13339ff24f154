import csv
import json
import math
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from jbalance import cli


def run(argv):
    return cli.main(argv)


def test_usage_errors(tmp_path):
    # unknown preset
    assert run(["verify", "--problem", "NOPE", "--out", str(tmp_path)]) == cli.EXIT_USAGE
    # malformed config file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["balance", "--config", str(bad), "--out", str(tmp_path)]) == cli.EXIT_USAGE
    # invalid k list
    assert run(["balance", "--problem", "P2-O1-O1", "--k-list", "4,3",
                "--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert run(["balance", "--problem", "P2-O1-O1", "--k-list", "x",
                "--out", str(tmp_path)]) == cli.EXIT_USAGE


def test_verify_pass_and_health_failure(tmp_path):
    ok = run(["verify", "--problem", "P1xP1-O11-O11", "--k-list", "3",
              "--resolution", "48", "--out", str(tmp_path / "a")])
    assert ok == cli.EXIT_OK
    # coarsened quadrature below the documented minimum: health exit code
    bad = run(["verify", "--problem", "P1xP1-O11-O11", "--k-list", "4",
               "--resolution", "24", "--out", str(tmp_path / "b")])
    assert bad == cli.EXIT_HEALTH


def test_balance_artifacts_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = run(["balance", "--problem", "P1xP1-O11-O11", "--k-list", "2",
                    "--resolution", "48", "--seed", "7", "--out", str(out)])
        assert code == cli.EXIT_OK
    for name in ("balance_k2.csv", "balanced_k2.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    payload = json.loads((out1 / "balanced_k2.json").read_text())
    assert payload["converged"]
    with open(out1 / "balance_k2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "mu0_fro", "mu0_op", "i_mu0", "logdet"]
    fro = [float(r[1]) for r in rows[1:]]
    assert fro[-1] < 1e-9
    # every cell is plain text that float() reads (no numpy scalar reprs)
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)


def test_balance_convergence_failure_exit(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "P1xP1-O11-O11", "k_list": [3],
                               "resolution": 48, "maxiter": 1, "tol": 1e-15}))
    assert run(["balance", "--config", str(cfg), "--out", str(tmp_path / "o")]) == cli.EXIT_FAILURE


def test_stability_sweep_matches_oracle(tmp_path):
    code = run(["stability", "--problem", "P2-O1-O1", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    with open(tmp_path / "stability_sweep.csv") as fh:
        rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
    assert Fr(rows["trivial"][1]) == 0 and Fr(rows["trivial"][2]) == 0
    for r in range(1, 11):
        row = rows[str(r)]
        assert Fr(row[1]) == Fr(1) * (1 - Fr(2, 3 * r))       # J-weight oracle
        assert Fr(row[2]) == Fr(2) * (r - 1) ** 2 / r          # DF oracle
        assert Fr(row[3]) == 2 * r - 1 and Fr(row[4]) == 3 * r - 2
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    names = {v["criterion"]: v for v in verdicts["verdicts"]}
    assert names["j_stable_sufficient"]["holds"]


def test_stability_inapplicable_markers(tmp_path):
    # L2 = K on P^2: gamma = -3, criteria reported inapplicable
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"name": "custom", "polytope": "P2", "l2": "K"},
        "k_list": [2], "resolution": 32}))
    out = tmp_path / "s"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["gamma"] == "-3"
    flags = {v["criterion"]: v["applicable"] for v in verdicts["verdicts"]}
    assert not flags["j_stable_sufficient"]
    assert not flags["donaldson_necessary"]


def test_stability_raw_json_inputs(tmp_path):
    # user-supplied class data, intersection table and weight polynomials
    table = {}
    from itertools import combinations_with_replacement
    for key in combinations_with_replacement(sorted(("L1", "L2", "K", "E")), 3):
        e = key.count("E")
        val = "0"
        if e == 2:
            val = {"L1": "-1", "L2": "-1", "K": "3"}[[s for s in key if s != "E"][0]]
        if e == 3:
            val = "-1"
        table["/".join(key)] = val
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "P2-O1-O1", "k_list": [2], "resolution": 32,
        "stability": {
            "r_values": [1, 2],
            "class_data": {"L1L1": 1, "L1L2": 1, "L2L2": 1, "KL1": -3,
                           "KL2": -3, "KK": 9, "klt": True,
                           "mori": [{"name": "line", "l1": 1, "l2": 1, "k": -3}]},
            "table": table,
            "weights": {"n": 2, "m": 1, "h": ["1/2", "3/2", "1"],
                        "w": ["-1/6", "0", "0", "0"],
                        "hhat": ["1", "0"], "what": ["-1/2", "0", "0"]}}}))
    out = tmp_path / "s"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "pairings.csv").exists()
    with open(out / "chow_weights.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "e_top", "j_weight_normalised"]
    # e_top = what0 * r * h(r) - w(r) * hhat0 at r = 1:
    # (-1/2)*1*3 - (-1/6)*1 = -3/2 + 1/6 = -4/3
    assert Fr(rows[1][1]) == Fr(-4, 3)
    # fixed user table: j_weight column computed from it
    with open(out / "stability_sweep.csv") as fh:
        sweep = {r[0]: r for r in list(csv.reader(fh))[1:]}
    assert Fr(sweep["1"][1]) == Fr(1, 3)


def test_custom_polytope_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"polytope": {"normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                 "offsets": [0, 0, 2, 1], "name": "box21"},
                    "l2": [0, 0, 2, 1]},
        "k_list": [2], "resolution": 32}))
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == cli.EXIT_OK


def test_flow_artifacts(tmp_path, monkeypatch):
    # the continuum J-flow runs once; the comparison reuses that run
    from jbalance import flows
    pde_runs = []
    real_run = flows.jflow_run

    def counting_run(*args, **kwargs):
        pde_runs.append(1)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(flows, "jflow_run", counting_run)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "P1xP1-O11-O11", "k_list": [2], "resolution": 48, "seed": 1,
        "flow": {"dt": 0.1, "T": 1.0, "grid": 24, "compare_T": 0.2,
                 "start_amplitude": 0.2}}))
    code = run(["flow", "--config", str(cfg), "--out", str(tmp_path / "f")])
    assert code == cli.EXIT_OK
    out = tmp_path / "f"
    assert (out / "balancing_flow_k2.csv").exists()
    assert (out / "quantization_comparison.json").exists()
    grids = sorted(out.glob("jflow_grid_t*.csv"))
    assert len(grids) == 3
    with open(grids[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["nx", "ny"]
    assert int(rows[1][0]) == 24
    comp = json.loads((out / "quantization_comparison.json").read_text())
    assert {r["t"] for r in comp["rows"]} == {0.0, 0.1, 0.2}
    assert len(pde_runs) == 1


@pytest.mark.parametrize("config, key", [
    ({"k_list": ["a"]}, "k_list"),
    ({"resolution": "x"}, "resolution"),
    ({"flow": 5}, "flow"),
    ({"problem": "P2-O1-O1", "resoluton": 64}, "resoluton"),
    ({"problem": {"polytop": "P2", "l2": "O(1)"}}, "'problem.polytop'"),
    ({"problem": {"l2": "O(1)"}}, "problem.polytope"),
])
def test_config_errors_exit_usage(tmp_path, capsys, config, key):
    # bad keys and value types end in exit 2 with one line naming the key
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["stability", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and key in err
    assert not (tmp_path / "o").exists()


def _centre_config(tmp_path, l1d):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "P2-O1-O1",
        "stability": {"r_values": ["1/10", 2],
                      "centre": {"dd": 1, "l1d": l1d, "l2d": "0.5", "kd": -3,
                                 "r_min": "1/10"}}}))
    return cfg


def test_stability_refuses_float_pairings(tmp_path, capsys):
    out = tmp_path / "s"
    assert run(["stability", "--config", str(_centre_config(tmp_path, 0.1)),
                "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "l1d" in err
    assert not (out / "stability_sweep.csv").exists()


@pytest.mark.parametrize("field, value", [("n", "x"), ("m", 1.5), ("h", "1"), ("what", 3)])
def test_stability_bad_weights_exit_usage(tmp_path, capsys, field, value):
    weights = {"n": 2, "m": 1, "h": ["1/2", "3/2", "1"], "w": ["-1/6", "0", "0", "0"],
               "hhat": ["1", "0"], "what": ["-1/2", "0", "0"]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "P2-O1-O1", "stability": {
        "r_values": [1], "weights": dict(weights, **{field: value})}}))
    out = tmp_path / "s"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"weights.{field}" in err
    assert not out.exists()


def test_stability_reads_rational_strings_exactly(tmp_path):
    out = tmp_path / "s"
    for l1d in ("1/10", "0.1"):
        assert run(["stability", "--config", str(_centre_config(tmp_path, l1d)),
                    "--out", str(out)]) == cli.EXIT_OK
        with open(out / "stability_sweep.csv") as fh:
            rows = {r[0]: r for r in list(csv.reader(fh))[1:]}
        assert set(rows) == {"trivial", "1/10", "2"}
        for r in (Fr(1, 10), Fr(2)):
            # gamma = 1 on P2-O1-O1; (r L1 - E)^3 = D^2 - 3 r L1.D, (r L1 - E)^2.L2 = -L2.D
            cube = 1 - 3 * r * Fr(1, 10)
            assert Fr(rows[str(r)][1]) == -Fr(2, 3) / r * cube - Fr(1, 2)
            assert Fr(rows[str(r)][3]) == 2 * r * Fr(1, 10) - 1


@pytest.mark.parametrize("r_values", [[1], list(range(1, 13))])
def test_stability_builds_once_without_quadrature(tmp_path, monkeypatch, r_values):
    from jbalance import presets

    def refuse(*args, **kwargs):
        raise AssertionError("the stability path built a quadrature")

    monkeypatch.setattr(presets, "build_quadrature", refuse)
    monkeypatch.setattr(presets, "calibrate", refuse)
    calls = {"blowup_table": 0, "normal_cone_from_facet": 0}
    for name in calls:
        real = getattr(cli, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "P1xP1-O11-O21",
                               "stability": {"r_values": r_values, "facet": 1}}))
    out = tmp_path / "s"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert calls == {"blowup_table": 1, "normal_cone_from_facet": 1}
    with open(out / "stability_sweep.csv") as fh:
        assert len(list(csv.reader(fh))) == 2 + len(r_values)


def test_stability_pairs_classes_once(tmp_path, monkeypatch):
    # gamma, the class data and pairings.csv all read one pairing table
    from jbalance import geometry, presets
    calls = []
    real = geometry.intersection_numbers

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(geometry, "intersection_numbers", counted)
    monkeypatch.setattr(presets, "intersection_numbers", counted)
    assert run(["stability", "--problem", "P1xP1-O11-O21", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len(calls) == 1
    with open(tmp_path / "pairings.csv") as fh:
        assert dict(list(csv.reader(fh))[1:]) == {k: str(v) for k, v in real(*calls[0]).items()}


def test_resolution_checked_before_any_work(tmp_path):
    # the quadrature is built lazily, but a resolution below 4 still exits 2
    for command in ("stability", "verify"):
        assert run([command, "--problem", "P2-O1-O1", "--resolution", "2",
                    "--out", str(tmp_path / command)]) == cli.EXIT_USAGE
