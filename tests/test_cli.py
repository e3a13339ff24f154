import csv
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as Fr
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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
    assert payload["converged"] and payload["safeguard_stalled"] is False
    with open(out1 / "balance_k2.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "mu0_fro", "mu0_op", "i_mu0", "logdet", "rejected"]
    assert int(rows[-1][5]) == payload["rejected"]
    fro = [float(r[1]) for r in rows[1:]]
    assert fro[-1] < 1e-9
    # every cell is plain text that float() reads (no numpy scalar reprs)
    assert all(math.isfinite(float(cell)) for row in rows[1:] for cell in row)


def test_balanced_form_json_reads_back_bit_for_bit(tmp_path):
    # the form in balanced_k2.json is the balanced diagonal, to the last bit
    from jbalance.quantisation import HermitianForm
    out = tmp_path / "b"
    assert run(["balance", "--problem", "P1xP1-O11-O11", "--k-list", "2",
                "--resolution", "48", "--out", str(out)]) == cli.EXIT_OK
    form = json.loads((out / "balanced_k2.json").read_text())["form"]
    cfg = cli.load_config(None, {"problem": "P1xP1-O11-O11", "resolution": 48})
    q = cli.build_problem(cfg).quantisation(2)
    res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 2), tol=cfg["tol"],
                               maxiter=cfg["maxiter"], norm=cfg["norm"])
    H = HermitianForm.from_json(form)
    assert H.level == 2 and np.array_equal(H.diag(), res.H.diag())
    assert H.to_json(q.basis) == form


def test_jobs_make_no_linear_algebra_call(tmp_path, monkeypatch):
    # a torus-invariant form is its diagonal, so no job calls np.linalg.
    # The one exception is the eigvalsh of the Gauss-Legendre rule
    # (geometry.gauss_legendre, the Golub-Welsch step); every other call made
    # from a jbalance module raises.
    def refuse(name, real):
        def guarded(*args, **kwargs):
            caller = sys._getframe(1)
            module = caller.f_globals.get("__name__", "")
            rule = (module, caller.f_code.co_name) == ("jbalance.geometry", "gauss_legendre")
            if module.startswith("jbalance") and not (name == "eigvalsh" and rule):
                raise AssertionError(f"jbalance called np.linalg.{name}")
            return real(*args, **kwargs)
        return guarded

    for name in dir(np.linalg):
        real = getattr(np.linalg, name)
        if not name.startswith("_") and callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, refuse(name, real))
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"flow": {"grid": 16, "T": 0.02, "compare_T": 0.02}}))
    p2 = ["--problem", "P2-O1-O1", "--k-list", "2"]
    for argv in (["balance", *p2], ["verify", *p2],
                 ["flow", "--problem", "P1xP1-O11-O21", "--k-list", "2", "--config", str(cfg)]):
        assert run([*argv, "--out", str(tmp_path / argv[0])]) == cli.EXIT_OK, argv[0]


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


def test_jobs_read_the_polygons_intersection_matrix(tmp_path, monkeypatch):
    # a polygon builds (D_i . D_j) once, read-only; the pairings, the class
    # data's Mori classes and the stability and verify jobs read that copy
    from jbalance import geometry as geo
    from jbalance.stability import SurfaceClassData
    P = geo.polytope_preset("P2")
    assert not P.intersection_matrix.flags.writeable
    assert np.array_equal(P.intersection_matrix, geo.divisor_intersection_matrix(P))
    builds = []
    real = geo.divisor_intersection_matrix
    monkeypatch.setattr(geo, "divisor_intersection_matrix",
                        lambda P: builds.append(P) or real(P))
    assert run(["stability", "--problem", "P2-O1-O2", "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    assert run(["verify", "--problem", "P2-O1-O1", "--k-list", "2",
                "--out", str(tmp_path / "v")]) == cli.EXIT_OK
    assert builds == []
    F1 = geo.DelzantPolytope([[1, 0], [0, 1], [0, -1], [-1, -1]], [0, 0, 1, 2])
    geo.intersection_numbers(F1, "K")
    SurfaceClassData.from_polytope(F1, "L1")
    assert builds == [F1]


def test_stability_jobs_read_the_polygons_integers(tmp_path, monkeypatch):
    # a polygon's Python ints are its source of truth: a stability job on a
    # custom polygon never makes the numpy copies of its lattice data
    built = []
    real = cli.build_problem
    monkeypatch.setattr(cli, "build_problem", lambda cfg: built.append(real(cfg)) or built[-1])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"polytope": {"normals": [[1, 0], [0, 1], [0, -1], [-1, -1]],
                                 "offsets": [0, 0, 2, 3]}, "l2": "L1"},
        "stability": {"facet": 1, "r_values": ["1/2", 1, 2]}}))
    assert run(["stability", "--config", str(cfg), "--out", str(tmp_path / "s")]) == cli.EXIT_OK
    P = built[0].polytope
    assert P.int_vertices == ((0, 0), (3, 0), (1, 2), (0, 2))
    assert P.int_intersection_matrix == ((0, 1, 1, 0), (1, 1, 0, 1), (1, 0, -1, 1), (0, 1, 1, 0))
    assert not {"normals", "offsets", "vertices", "intersection_matrix"} & set(vars(P))


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
    # user-supplied class data, centre and weight polynomials
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "P2-O1-O1", "k_list": [2], "resolution": 32,
        "stability": {
            "r_values": [1, 2],
            "class_data": {"L1L1": 1, "L1L2": 1, "L2L2": 1, "KL1": -3,
                           "KL2": -3, "KK": 9, "klt": True,
                           "mori": [{"name": "line", "l1": 1, "l2": 1, "k": -3}]},
            "centre": {"dd": 1, "l1d": 1, "l2d": 1, "kd": -3},
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
    # fixed user centre: j_weight column computed from it
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
    with open(out / "balancing_flow_k2.csv") as fh:
        header = next(csv.reader(fh))
    assert header[-2:] == ["halvings_positivity", "halvings_mu0_rise"]
    assert (out / "quantization_comparison.json").exists()
    grids = sorted(out.glob("jflow_grid_t*.csv"))
    assert len(grids) == 3
    with open(grids[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["nx", "ny"]
    assert int(rows[1][0]) == 24
    comp = json.loads((out / "quantization_comparison.json").read_text())
    assert {r["t"] for r in comp["rows"]} == {0.0, 0.1, 0.2}
    assert [h["k"] for h in comp["meta"]["ode_halvings"]] == [2]
    pde = comp["meta"]
    assert pde["pde_evaluations"] >= pde["pde_steps"] * 2 and pde["pde_max_stages"] >= 2
    assert pde["pde_halvings"] == 0 and pde["pde_rejected"] >= 0
    assert len(pde_runs) == 1


def test_flow_compare_at_zero_writes_each_time_once(tmp_path, capsys):
    # compare_T = 0 makes 0, T/2 and T one time: one row per level, one grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": {"grid": 16, "T": 0.02, "compare_T": 0.0}}))
    assert run(["flow", "--problem", "P1xP1-O11-O11", "--k-list", "2,3", "--config", str(cfg),
                "--out", str(tmp_path / "f")]) == cli.EXIT_OK
    out = tmp_path / "f"
    comp = json.loads((out / "quantization_comparison.json").read_text())
    assert [(r["k"], r["t"]) for r in comp["rows"]] == [(2, 0.0), (3, 0.0)]
    assert comp["meta"]["pde_steps"] == comp["meta"]["pde_evaluations"] == 0
    assert [p.name for p in out.glob("jflow_grid_t*.csv")] == ["jflow_grid_t0.csv"]
    lines = capsys.readouterr().out.splitlines()
    assert "continuum J-flow: 0 steps, 0 evaluations (at most 0 stages), 0 halvings, " \
        "0 rejected" in lines
    (comparison,) = [line for line in lines if line.startswith("comparison:")]
    assert comparison.count("t=0:") == 2


@pytest.mark.parametrize("config, key", [
    ({"k_list": ["a"]}, "k_list"),
    ({"resolution": "x"}, "resolution"),
    ({"flow": 5}, "flow"),
    ({"problem": "P2-O1-O1", "resoluton": 64}, "resoluton"),
    ({"problem": {"polytop": "P2", "l2": "O(1)"}}, "'problem.polytop'"),
    ({"problem": {"l2": "O(1)"}}, "problem.polytope"),
    ({"problem": {"polytope": {"normals": "x", "offsets": [0]}, "l2": [0, 0, 1]}},
     "normals"),
    ({"problem": {"polytope": {"normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                               "offsets": [0, 0, 1.7, 1]}, "l2": [0, 0, 1, 1]}},
     "offsets"),
    ({"problem": {"polytope": "P1xP1", "l2": [0, 0, 1.5, 1]}}, "divisor class"),
    ({"problem": {"polytope": {"normals": [[1], [-1]], "offsets": [0, 2]}, "l2": [0, 1]},
      "k_list": [2]}, "dimension 1"),
    # a problem object gives a polytope and an l2; a preset name does not
    # stand in for them
    ({"problem": {"name": "P1xP1-O11-O21", "polytope": "P2"}}, "'problem.l2'"),
    ({"problem": {"name": "P2-O1-O1", "l2": "O(2)"}}, "'problem.polytope'"),
    # below 3 nodes a side the flow grid has no interior node
    ({"flow": {"grid": 1}}, "'flow.grid'"),
    ({"flow": {"grid": 2}}, "'flow.grid'"),
    # a problem object's name is a label only, never a preset's (the preset
    # would be taken and the polytope ignored), and it has no chi mode
    ({"problem": {"name": "P2-O1-O1", "polytope": "P1xP1", "l2": "O(1,1)"}},
     "'problem.name'"),
    ({"problem": {"polytope": "P2", "l2": "O(1)", "chi": "reference"}}, "'problem.chi'"),
    # a repeated level would run twice and overwrite its own artifacts
    ({"k_list": [2, 2]}, "k_list"),
    # a centre is given by its pairings only, and klt is the class data's
    ({"stability": {"table": {}}}, "'stability.table'; known: centre, "),
    ({"stability": {"klt": True}}, "'stability.klt'"),
])
def test_config_errors_exit_usage(tmp_path, capsys, config, key):
    # bad keys, value types and polytopes end in exit 2 with one line naming
    # the fault, before any subcommand writes its output directory
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for command in ("balance", "flow", "stability", "verify"):
        argv = [command, "--config", str(path), "--out", str(tmp_path / "o")]
        assert run(argv) == cli.EXIT_USAGE, command
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and key in err, (command, err)
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["balance", "flow"])
def test_k_list_flag_refuses_a_repeated_level(tmp_path, capsys, command):
    # --k-list 2,2 ran level 2 twice: balance rewrote its level-2 files from
    # a second health draw, flow wrote duplicate comparison rows
    out = tmp_path / "o"
    assert run([command, "--problem", "P1xP1-O11-O11", "--k-list", "2,2",
                "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "--k-list" in err and "strictly ascending" in err
    assert not out.exists()


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


@pytest.mark.parametrize("field, value", [("mori", [1]), ("mori", 5), ("klt", "no")])
def test_stability_bad_class_data_exit_usage(tmp_path, capsys, field, value):
    # a Mori entry that is not an object crashed with a traceback, and a
    # non-boolean klt was read as true
    data = {"L1L1": 1, "L1L2": 1, "L2L2": 1, "KL1": -3, "KL2": -3, "KK": 9,
            "klt": True, "mori": [{"name": "line", "l1": 1, "l2": 1, "k": -3}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "P2-O1-O1", "stability": {
        "r_values": [1], "class_data": dict(data, **{field: value})}}))
    out = tmp_path / "s"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"'{field}'" in err
    assert not out.exists()


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


def test_stability_parses_each_r_once(tmp_path, monkeypatch):
    # the schema check keeps the Fractions it parsed, and the sweep reads them
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "P2-O1-O1",
                                "stability": {"r_values": [1, "3/2", "2.5"]}}))
    cfg = cli.load_config(str(path), {"out": str(tmp_path / "s")})
    assert cfg["stability"]["r_values"] == [1, Fr(3, 2), Fr(5, 2)]
    assert all(type(r) is Fr for r in cfg["stability"]["r_values"])
    real = cli.rational

    def parsed_only(value, name):
        assert type(value) is Fr, f"{name} {value!r} parsed again"
        return real(value, name)

    monkeypatch.setattr(cli, "rational", parsed_only)
    assert cli.cmd_stability(cfg) == cli.EXIT_OK


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
    # gamma, the class data and pairings.csv all read one pairing table, and
    # a process computes one table per (polygon, L2): three jobs on two
    # bundles of P1xP1 compute two.  A job asks for the table twice (the
    # problem and the class data), and both calls return the memoised one
    from jbalance import geometry, presets
    monkeypatch.setattr(geometry.polytope_preset("P1xP1"), "_intersections", {},
                        raising=False)
    calls, returned, computed = [], [], []
    real, real_table = geometry.intersection_numbers, geometry._pairing_table

    def counted(*args, **kwargs):
        calls.append(args)
        returned.append(real(*args, **kwargs))
        return returned[-1]

    def computed_table(*args):
        computed.append(args)
        return real_table(*args)

    monkeypatch.setattr(geometry, "intersection_numbers", counted)
    monkeypatch.setattr(presets, "intersection_numbers", counted)
    monkeypatch.setattr(geometry, "_pairing_table", computed_table)
    for i, (problem, facet) in enumerate([("P1xP1-O11-O21", 0), ("P1xP1-O11-O21", 1),
                                          ("P1xP1-O11-O11", 0)]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": problem, "stability": {"facet": facet}}))
        out = tmp_path / str(i)
        assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        assert len(calls) == 2 * (i + 1)
        table = real(*calls[-1])
        assert all(tab is table for tab in returned[-2:])
        with open(out / "pairings.csv") as fh:
            written = dict(list(csv.reader(fh))[1:])
        assert written == {k: str(v) for k, v in table.items()}
    assert [args[1] for args in computed] == ["O(2,1)", "O(1,1)"]


def test_stability_writes_the_pairings_its_verdicts_use(tmp_path):
    # class data that pair L1.L2 = 2 on P2-O1-O1, whose fan gives 1:
    # pairings.csv lists the supplied table, as gamma in verdicts.json reads it
    data = {"L1L1": 1, "L1L2": 2, "L2L2": 4, "KL1": -3, "KL2": -6, "KK": 9,
            "mori": [{"name": "line", "l1": 1, "l2": 2, "k": -3}]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "P2-O1-O1",
                               "stability": {"r_values": [1], "class_data": data}}))
    out = tmp_path / "s"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    with open(out / "pairings.csv") as fh:
        written = dict(list(csv.reader(fh))[1:])
    assert written == {key: str(value) for key, value in data.items() if key != "mori"}
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert Fr(verdicts["gamma"]) == Fr(written["L1L2"]) / Fr(written["L1L1"]) == 2


@pytest.mark.parametrize("stability, message", [
    ({"r_values": [1, 0]}, "exponent r must be positive"),
    ({"r_values": [2, "-1/2"]}, "exponent r must be positive"),
    ({"r_values": [2, 3, "3/2"],
      "centre": {"dd": 1, "l1d": 1, "l2d": 1, "kd": -3, "r_min": 2}},
     "r = 3/2 below the declared r_min = 2"),
    ({"r_values": [1, "1/2"]}, "r = 1/2 below the declared r_min = 1"),
    ({"r_values": [2, 1, "1/2"], "centre": {"dd": 1, "l1d": 1, "l2d": 1, "kd": -3}},
     "r = 1/2 below the declared r_min = 1"),
])
def test_stability_refuses_bad_r_in_sweep(tmp_path, capsys, stability, message):
    # every r of the sweep, not just the first, passes the centre's checks,
    # before any output is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "P2-O1-O1", "stability": stability}))
    out = tmp_path / "s"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and message in err
    assert not out.exists()


F1_UNSTABLE = {"polytope": {"normals": [[1, 0], [0, 1], [0, -1], [-1, -1]],
                             "offsets": [0, 0, 2, 3]},
               "l2": [1, 1, 0, 2]}


@pytest.mark.parametrize("facet, r, message", [
    (1, "1/2", None), (2, "1/2", None),
    (1, "49/100", "r = 49/100 below the declared r_min = 1/2"),
    (2, "49/100", "r = 49/100 below the declared r_min = 1/2"),
    (0, "1/2", "r = 1/2 below the declared r_min = 1"),
    (3, "1/2", "r = 1/2 below the declared r_min = 1"),
])
def test_stability_sweeps_f1_down_to_its_seshadri_bound(tmp_path, capsys, facet, r, message):
    # on F1 with L1 = (0,0,2,3), facets 1 and 2 have Seshadri-type constant
    # 2, so a facet sweep admits r >= 1/2 there; facets 0 and 3 have 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": F1_UNSTABLE,
                               "stability": {"facet": facet, "r_values": [r, 1]}}))
    out = tmp_path / "s"
    code = run(["stability", "--config", str(cfg), "--out", str(out)])
    if message is None:
        assert code == cli.EXIT_OK
        with open(out / "stability_sweep.csv") as fh:
            rows = {row[0]: row for row in list(csv.reader(fh))[1:]}
        assert rows[r][-1] == "True"
    else:
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and message in err
        assert not out.exists()


@pytest.mark.parametrize("problem", ["P1xP1-O11-O21", F1_UNSTABLE])
def test_stability_rows_construct_no_fraction(tmp_path, monkeypatch, problem):
    # a row is five integers over one denominator, written as text: a job
    # with 40 r values constructs no more Fractions than a job with one
    real_new = Fr.__new__
    made = []

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    counts = []
    # the first job fills the process's memoised tables, which a job reads
    for r_values in ([1], [1], list(range(1, 41))):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problem": problem, "stability": {
            "r_values": r_values, "facet": 1}}))
        cfg = cli.load_config(str(path), {"out": str(tmp_path / "s")})
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Fr, "__new__", counted)
            assert cli.cmd_stability(cfg) == cli.EXIT_OK
        counts.append(len(made))
        with open(tmp_path / "s" / "stability_sweep.csv") as fh:
            assert len(list(csv.reader(fh))) == 2 + len(r_values)
    assert counts[1] > 0 and counts[2] == counts[1]


def test_stability_product_calls_do_not_grow_with_r(tmp_path, monkeypatch):
    # the closed forms are proved for every table by the test suite, so a
    # job makes no trilinear expansion and reads no triple product: each r
    # is one closed-form evaluation
    from jbalance import stability
    calls = []

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("product", "triple"):
        counted(stability.IntersectionTable, name)
    counts = []
    for r_values in ([1], list(range(1, 41))):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "P1xP1-O11-O21",
                                   "stability": {"r_values": r_values}}))
        calls.clear()
        assert run(["stability", "--config", str(cfg),
                    "--out", str(tmp_path / "s")]) == cli.EXIT_OK
        counts.append(len(calls))
    assert counts == [0, 0]


def test_verify_fails_on_a_skewed_form(tmp_path, monkeypatch, capsys):
    # verify certifies the closed forms on its default centre: one sweep
    # form off by one numerator fails stability_identities with exit 3
    from jbalance import stability
    real = stability.SweepForms.__init__

    def skewed(self, *args):
        real(self, *args)
        (n0, n1, n2), *rest = self.numerators
        self.numerators = ((n0, n1 + 1, n2), *rest)

    monkeypatch.setattr(stability.SweepForms, "__init__", skewed)
    assert run(["verify", "--problem", "P1xP1-O11-O11", "--k-list", "2",
                "--resolution", "48", "--out", str(tmp_path)]) == cli.EXIT_FAILURE
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].split()[:2] == ["FAIL", "stability_identities:"]
    assert "closed form of j_weight at r = 1" in failed[0]


def test_flow_names_the_degenerate_node(tmp_path, capsys):
    # on P2 at grid 16 one active node's det D^2u falls to roundoff, so no
    # step size keeps it convex: exit 3 naming the node and a finer grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flow": {"grid": 16, "T": 0.02, "compare_T": 0.02}}))
    assert run(["flow", "--problem", "P2-O1-O1", "--k-list", "2", "--config", str(cfg),
                "--out", str(tmp_path / "f")]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    match = re.search(r"after 40 halvings: D\^2u degenerates at grid node \(\d+, \d+\) "
                      r"\(x=\S+, y=\S+\), det (\S+); use a finer flow\.grid$", err)
    assert match and 0 < float(match.group(1)) < 1e-8, err


def test_flow_refuses_a_one_node_window(tmp_path, capsys):
    # at grid 4 the comparison window of P1xP1-O11-O21 holds one node, where
    # a mean-normalised distance is 0 whatever the flows do: exit 3 before
    # the continuum flow runs, with one line that names the count
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "P1xP1-O11-O21", "k_list": [2],
                               "flow": {"grid": 4, "T": 0.02, "compare_T": 0.02}}))
    out = tmp_path / "f"
    assert run(["flow", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err.strip()
    assert err == ("flow failure: the comparison window holds 1 of the 4 x 4 grid nodes, "
                   "and a distance needs at least 2; use a finer flow.grid")
    assert not (out / "quantization_comparison.json").exists()
    assert not list(out.glob("jflow_grid_t*.csv"))
    # the window is checked before any level runs: no balancing flow is
    # written, nor the output directory made
    assert not out.exists()


def test_verify_passes_nef_monotone_on_every_preset(tmp_path, capsys):
    # every preset's L2 is nef on its Mori classes, and verify passes
    from jbalance.presets import problem_names
    for name in problem_names():
        assert run(["verify", "--problem", name, "--k-list", "2",
                    "--out", str(tmp_path / name)]) == cli.EXIT_OK, name
        lines = capsys.readouterr().out.splitlines()
        assert "PASS         nef_monotone: L2 nef: True" in lines, name


def test_presets_use_their_documented_resolution():
    # no resolution in the config: each preset's own (96 on P^2)
    for name, res in (("P2-O1-O1", 96), ("P1xP1-O11-O21", 64)):
        problem = cli.build_problem(cli.load_config(None, {"problem": name}))
        assert problem.meta["resolution"] == res


def test_flow_artifacts_reproducible_across_processes(tmp_path):
    # two processes (different hash seeds) write byte-identical artifacts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": "P1xP1-O11-O21", "k_list": [2], "resolution": 48, "seed": 5,
        "flow": {"dt": 0.1, "T": 0.5, "grid": 24, "compare_T": 0.1,
                 "start_amplitude": 0.2}}))
    src = str(Path(cli.__file__).resolve().parents[1])
    for name, hash_seed in (("a", "1"), ("b", "2")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "jbalance.cli", "flow", "--config", str(cfg),
                        "--out", str(tmp_path / name)],
                       env=env, check=True, capture_output=True, timeout=300)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert len(names) == 6
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_balance_form_independent_of_blas_threads(tmp_path):
    # the balance-p2 benchmark job in two processes, with one and with two
    # OpenBLAS threads: the separable torus pass's matrix products give a
    # byte-identical balanced form
    src = str(Path(cli.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "jbalance.cli", "balance", "--problem", "P2-O1-O1",
                        "--k-list", "2", "--tol", "1e-9", "--resolution", "96", "--seed", "0",
                        "--out", str(tmp_path / threads)],
                       env=env, check=True, capture_output=True, timeout=300)
    one, two = ((tmp_path / threads / "balanced_k2.json").read_bytes() for threads in "12")
    assert one == two


def test_flow_job_computes_each_pass_once(tmp_path, monkeypatch):
    # the comparison's flow at each level starts where the job's own flow
    # started, and that start pass is kept in the level's memo
    from jbalance.quantisation import Quantisation
    computed = []
    real = Quantisation._compute_pass
    monkeypatch.setattr(Quantisation, "_compute_pass",
                        lambda self, x: computed.append((self.k, x.tobytes())) or real(self, x))
    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"flow": {"grid": 16, "T": 0.2, "compare_T": 0.05}}))
    assert run(["flow", "--problem", "P1xP1-O11-O21", "--k-list", "2,4", "--config", str(cfg),
                "--out", str(tmp_path / "f")]) == cli.EXIT_OK
    assert computed and len(set(computed)) == len(computed)


def test_seeded_draws():
    # the same seed gives the same bits; the normals have mean 0 and variance 1
    z = cli._standard_normals(random.Random(4), 20001)
    assert z.shape == (20001,)
    assert np.array_equal(z, cli._standard_normals(random.Random(4), 20001))
    assert abs(z.mean()) < 0.03 and abs(z.var() - 1.0) < 0.05
    q = SimpleNamespace(n_plus_1=1000)
    x = np.concatenate(cli._random_log_diagonals(q, random.Random(4), 2, spread=0.5))
    assert -0.5 <= x.min() < -0.49 and 0.49 < x.max() < 0.5


def test_jobs_never_load_numpy_random(tmp_path):
    # the seeded draws come from the stdlib generator: no balance, flow or
    # verify job loads numpy.random (nor the secrets module it pulls in).
    # Nor does any job, stability included, load numpy.polynomial (the
    # Gauss-Legendre rule is geometry.gauss_legendre) or hashlib and the
    # OpenSSL module behind it (the basis stamp is a zlib CRC-32)
    flow_cfg = tmp_path / "flow.json"
    flow_cfg.write_text(json.dumps({
        "problem": "P1xP1-O11-O11", "k_list": [2], "resolution": 48, "seed": 3,
        "flow": {"dt": 0.1, "T": 0.2, "grid": 16, "compare_T": 0.05}}))
    small = ["--problem", "P1xP1-O11-O11", "--k-list", "2", "--resolution", "48"]
    jobs = [["balance", *small, "--out", str(tmp_path / "b")],
            ["flow", "--config", str(flow_cfg), "--out", str(tmp_path / "f")],
            ["verify", *small, "--out", str(tmp_path / "v")],
            ["stability", "--problem", "P2-O1-O1", "--out", str(tmp_path / "s")]]
    refused = ("numpy.random", "secrets", "numpy.polynomial", "hashlib", "_hashlib")
    script = ("import json, sys\n"
              "from jbalance import cli\n"
              f"codes = [cli.main(argv) for argv in {jobs!r}]\n"
              f"loaded = sorted(m for m in {refused!r} if m in sys.modules)\n"
              "print(json.dumps([codes, loaded]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True, timeout=300)
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [cli.EXIT_OK] * 4
    assert loaded == []


@pytest.mark.parametrize("command, k_list, resolution", [
    ("balance", "100000", None), ("flow", "2,100000", None),
    ("verify", "3,100000", None), ("balance", "2", 100000)])
def test_size_guard_exits_usage_before_allocating(tmp_path, capsys, command, k_list,
                                                  resolution):
    # the (N+1) x M footprint comes from the closed-form Ehrhart count and
    # the resolution; above the cap the run ends at once with one line
    argv = [command, "--problem", "P2-O1-O1", "--k-list", k_list, "--out", str(tmp_path)]
    if resolution:
        argv += ["--resolution", str(resolution)]
    start = time.perf_counter()
    assert run(argv) == cli.EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "MAX_TORUS_BYTES" in err


def test_size_guard_admits_large_k_without_allocating():
    # P1xP1-O11-O21 at k = 32 and resolution 192: N+1 = 1089 and M = 36864,
    # whose (N+1) x M doubles alone take 306 MiB.  Only node blocks and
    # vectors stay live, so the level is admitted; the check builds nothing.
    from jbalance.presets import make_problem
    problem = make_problem("P1xP1-O11-O21", resolution=192)
    tracemalloc.start()
    try:
        cli._check_sizes(problem, [2, 32])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    assert "rule" not in vars(problem)


def test_jobs_never_form_the_full_log_weights(tmp_path, square_o21):
    # P1xP1-O11-O21 at k = 12 and resolution 80: N+1 = 169 and M = 6400,
    # whose (N+1) x M doubles take 8.3 MiB.  The verify, flow and balance
    # jobs and the balance iteration each stay below that, within a few node
    # block arrays and the level's vectors; the balance job writes its form
    # as the N+1 diagonal entries.
    from jbalance import kernel
    from jbalance.quantisation import TORUS_VECTORS, HermitianForm

    k = 12
    q = square_o21.quantisation(k)
    n_plus_1, n_nodes = q.n_plus_1, len(q.nodes)
    bound = 4 * kernel.NODE_BLOCK_BYTES + 8 * TORUS_VECTORS * (n_plus_1 + n_nodes)
    assert 8 * n_plus_1 * n_nodes > bound

    def traced(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cfg = tmp_path / "flow.json"
    cfg.write_text(json.dumps({"flow": {"grid": 20, "T": 0.02, "compare_T": 0.02}}))
    problem = ["--problem", "P1xP1-O11-O21", "--k-list", str(k), "--resolution", "80"]
    for argv in (["verify", *problem], ["flow", *problem, "--config", str(cfg)],
                 ["balance", *problem]):
        code, peak = traced(lambda: run([*argv, "--out", str(tmp_path / argv[0])]))
        assert code == cli.EXIT_OK and peak < bound, (argv[0], code, peak)
    H0 = HermitianForm.identity(n_plus_1, k)
    _, peak = traced(lambda: q.iterate_to_balance(H0, maxiter=4))
    assert peak < bound, ("balance", peak)


def test_resolution_checked_before_any_work(tmp_path):
    # the quadrature is built lazily, but a resolution below 4 still exits 2
    for command in ("stability", "verify"):
        assert run([command, "--problem", "P2-O1-O1", "--resolution", "2",
                    "--out", str(tmp_path / command)]) == cli.EXIT_USAGE


def test_one_parser_for_every_command(capsys):
    # an unknown command exits 2 with one stderr line; --help exits 0 and
    # lists every command
    assert cli.main(["bogus"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown command 'bogus'" in err
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert "balance | flow | stability | verify" in capsys.readouterr().out


def test_reused_parser_keeps_calls_independent(tmp_path):
    # a parse keeps no state between calls in one process: no call sees an
    # earlier one's arguments, so a call without --problem runs the default
    # preset
    assert cli.main(["bogus"]) == cli.EXIT_USAGE
    for name, argv in (("a", ["--problem", "P1xP1-O11-O21"]), ("b", [])):
        assert run(["stability", *argv, "--out", str(tmp_path / name)]) == cli.EXIT_OK
    verdicts = {name: json.loads((tmp_path / name / "verdicts.json").read_text())
                for name in "ab"}
    assert verdicts["a"]["problem"] == "P1xP1-O11-O21"
    assert verdicts["b"]["problem"] == "P2-O1-O1"


def test_parser_reads_both_flag_forms_in_any_order(tmp_path):
    # --flag value and --flag=value, before or after the command, give the
    # same options, and the same artifacts
    spaced = ["stability", "--problem", "P1xP1-O11-O21", "--seed", "3", "--tol", "1e-8",
              "--k-list", "2,4", "--resolution", "48"]
    joined = ["--k-list=2,4", "--problem=P1xP1-O11-O21", "--tol=1e-8", "stability",
              "--resolution=48", "--seed=3"]
    options = {"problem": "P1xP1-O11-O21", "seed": 3, "tol": 1e-8, "k_list": [2, 4],
               "resolution": 48}
    assert cli.parse_args(spaced) == cli.parse_args(joined) == ("stability", options)
    assert cli.parse_args(["--out=a=b", "verify"]) == ("verify", {"out": "a=b"})
    assert cli.parse_args(["verify", "--out=--dir"]) == ("verify", {"out": "--dir"})
    for name, argv in (("spaced", spaced), ("joined", joined)):
        assert run([*argv, "--out", str(tmp_path / name)]) == cli.EXIT_OK
    for artifact in ("verdicts.json", "pairings.csv", "stability_sweep.csv"):
        assert ((tmp_path / "spaced" / artifact).read_bytes()
                == (tmp_path / "joined" / artifact).read_bytes())


@pytest.mark.parametrize("argv, message", [
    ([], "no command given; choose balance | flow | stability | verify"),
    (["bogus"], "unknown command 'bogus'; choose balance | flow | stability | verify"),
    (["stability", "verify"], "unexpected argument 'verify'"),
    (["stability", "--bogus", "1"], "unknown option '--bogus'"),
    (["stability", "--prob", "P2-O1-O1"], "unknown option '--prob'"),   # no abbreviations
    (["-x", "stability"], "unknown option '-x'"),
    (["stability", "--seed"], "--seed needs a value"),
    (["stability", "--out", "--seed", "1"], "--out needs a value"),
    (["stability", "--seed", "x"], "--seed takes an integer, got 'x'"),
    (["stability", "--resolution=1.5"], "--resolution takes an integer, got '1.5'"),
    (["stability", "--tol=abc"], "--tol takes a number, got 'abc'"),
    (["stability", "--k-list", "2,x"], "--k-list takes comma separated integers, got '2,x'"),
    (["stability", "--k-list="], "--k-list takes comma separated integers, got ''"),
    # a value that parses but fails its config key's schema
    (["stability", "--k-list", "2,2"], "--k-list must be a non-empty strictly ascending list "
                                       "of positive integers, got '2,2'"),
    (["stability", "--tol", "-1"], "--tol must be a positive number, got '-1'"),
])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch, argv, message):
    # refused before any work, with one stderr line and nothing written
    monkeypatch.chdir(tmp_path)
    assert run(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message} (see jbalance --help)\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["stability", "--help"],
                                  ["--problem", "P2-O1-O1", "-h", "--bogus"]])
def test_help_lists_commands_and_presets(tmp_path, capsys, monkeypatch, argv):
    from jbalance.presets import problem_names
    monkeypatch.chdir(tmp_path)
    assert run(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out == cli.usage()
    assert "balance | flow | stability | verify" in captured.out
    assert all(name in captured.out for name in problem_names())
    assert all(flag in captured.out for flag in cli._FLAGS)
    assert not list(tmp_path.iterdir())


def test_cli_start_up_loads_no_argument_parser(tmp_path):
    # main parses its own flags: importing the CLI and running a job loads
    # neither argparse nor the gettext and locale modules argparse pulls in
    script = ("import json, sys\n"
              "from jbalance import cli\n"
              f"code = cli.main(['stability', '--out={tmp_path / 's'}'])\n"
              "loaded = sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules)\n"
              "print(json.dumps([code, loaded]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          check=True, capture_output=True, text=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == [cli.EXIT_OK, []]


def test_bundle_without_polytope(tmp_path, capsys):
    # O(2,-1) on P1xP1 pairs positively with L1 = O(1,1) (gamma = 1/2) but
    # is not globally generated, so it has no chi form: the numerical
    # commands exit 2 before writing output, as they do for gamma <= 0;
    # stability needs only the class data and succeeds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": {"polytope": "P1xP1", "l2": [0, 0, 2, -1]},
                               "k_list": [2]}))
    for command in ("balance", "flow", "verify"):
        out = tmp_path / command
        assert run([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert err == ("config error: bundle [0, 0, 2, -1] has no polytope on this fan "
                       "(not globally generated)"), command
        assert not out.exists()
    # L2 = K on P^2 has gamma = -3, so no chi form either: exit 2, naming gamma
    cfg_k = tmp_path / "cfg_k.json"
    cfg_k.write_text(json.dumps({"problem": {"polytope": "P2", "l2": "K"}, "k_list": [2]}))
    for command in ("balance", "flow", "verify"):
        out = tmp_path / f"{command}_k"
        assert run([command, "--config", str(cfg_k), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err.strip()
        assert err == ("config error: problem 'custom' has gamma = L1.L2 / L1^2 = -3 <= 0, "
                       "so no chi form: only the stability command applies"), command
        assert not out.exists()
    out = tmp_path / "stability"
    assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["gamma"] == "1/2"
    with open(out / "stability_sweep.csv") as fh:
        assert len(list(csv.reader(fh))) == 2 + 10


def test_balance_stalled_safeguard_exits_health(tmp_path, capsys):
    # P2 at resolution 32, k=2: the trace identity (about 2.5e-6) passes a
    # health_tol of 1e-5, but the I_mu0 safeguard refuses most Anderson
    # candidates; the level's artifacts are written and marked, and the run
    # exits 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"health_tol": 1e-5}))
    out = tmp_path / "b"
    assert run(["balance", "--problem", "P2-O1-O1", "--resolution", "32", "--k-list", "2",
                "--config", str(cfg), "--out", str(out)]) == cli.EXIT_HEALTH
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    match = re.fullmatch(r"HEALTH k=2: the I_mu0 safeguard rejected (\d+) of (\d+) Anderson "
                         r"candidates \(trace identity residual (\S+)\); increase resolution",
                         lines[0])
    assert match, lines[0]
    rejected, candidates, residual = int(match[1]), int(match[2]), float(match[3])
    assert 2 * rejected > candidates and residual < 1e-5
    payload = json.loads((out / "balanced_k2.json").read_text())
    assert payload["safeguard_stalled"] is True and payload["rejected"] == rejected
    assert (out / "balance_k2.csv").exists()


# the benchmark's stability jobs: every facet of every preset, and P2 with
# O(1..5) at facet 0, over r = 1..40
_PRESET_FACETS = {"P2-O1-O1": 3, "P2-O1-O2": 3, "P1xP1-O11-O11": 4,
                  "P1xP1-O11-O21": 4, "P1xP1-O11-O31": 4}
_SWEEP = {"r_values": list(range(1, 41))}
STABILITY_JOBS = (
    [(f"{name}-f{f}", {"problem": name, "stability": dict(_SWEEP, facet=f)})
     for name, facets in _PRESET_FACETS.items() for f in range(facets)]
    + [(f"P2-O{d}-custom-f0", {"problem": {"polytope": "P2", "l2": f"O({d})"},
                               "stability": dict(_SWEEP, facet=0)}) for d in range(1, 6)])


def test_stability_jobs_match_the_recorded_reference(tmp_path):
    # the exact outputs the benchmark gates on, against the values recorded
    # at the commit that introduced the reference
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "stability-seed.json"
    with open(path) as fh:
        reference = json.load(fh)
    assert sorted(reference) == sorted(label for label, _ in STABILITY_JOBS)
    for label, config in STABILITY_JOBS:
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / label
        assert run(["stability", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        got = {}
        for key in ("stability_sweep", "pairings"):
            with open(out / f"{key}.csv", newline="") as fh:
                got[key] = list(csv.reader(fh))[1:]
        assert got["stability_sweep"] == reference[label]["sweep"], label
        assert got["pairings"] == reference[label]["pairings"], label
        assert json.loads((out / "verdicts.json").read_text()) == reference[label]["verdicts"]


def test_stability_jobs_skip_unused_work(tmp_path, monkeypatch):
    # a stability job reads neither the reference potential nor the trivial
    # table (E = 0 gives the row 0, 0): with both refused, every recorded
    # job, on a preset or a custom polytope, still matches its reference
    from jbalance import presets

    def refuse(*args, **kwargs):
        raise AssertionError("a stability job built work that no output reads")

    monkeypatch.setattr(presets, "reference_potential", refuse)
    monkeypatch.setattr(cli, "trivial_table", refuse)
    test_stability_jobs_match_the_recorded_reference(tmp_path)
