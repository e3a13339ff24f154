"""Experiment runner: balance | flow | stability | verify.

Reproducible batch computations with machine-readable outputs (JSON + CSV).
Exit codes: 0 success, 2 config/usage error, 3 convergence or check failure,
4 quadrature health failure (trace identity or calibration off tolerance,
or a balance level whose I_mu0 safeguard stalled).
"""

import json
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .flows import (FlowError, balancing_flow, comparison_window,
                    quantization_comparison)
from .functionals import report_row
from .geometry import GeometryError, mixed_density, volume_density
from .presets import make_problem, normal_cone_from_facet, problem_names
from .quantisation import QuantisationError, check_torus_size, reference_form
from .stability import (NormalConeConfig, StabilityError, SweepForms,
                        blowup_table, certify_closed_forms, check_exponent,
                        cone_criteria, j_weight, rational, trivial_table)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAILURE = 3
EXIT_HEALTH = 4

DEFAULTS = {
    "problem": "P2-O1-O1",
    "k_list": [3, 4],
    # null: each preset's documented resolution (96 on P^2, 64 on product
    # fans); 64 for custom problems
    "resolution": None,
    # inert: no angular grid exists; kept because the benchmark's set-up
    # probe and run record still read it
    "n_theta": None,
    "tol": 1e-9,
    "norm": "fro",
    "maxiter": 500,
    "health_tol": 1e-6,
    "seed": 0,
    "out": "jbalance_out",
    "flow": {"dt": 0.1, "T": 10.0, "grid": 48, "compare_T": 1.0,
             "start_amplitude": 0.3},
    "stability": {"r_values": list(range(1, 11)), "facet": 0},
}


class ConfigError(ValueError):
    pass


def _int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v):
    return (_int(v) or isinstance(v, float)) and math.isfinite(v)


def _exact_list(v):
    """Whether v is a list of integers and rational strings; if it is, its
    entries are replaced by their Fractions, so that each is parsed once."""
    if not isinstance(v, list):
        return False
    try:
        v[:] = [rational(r, "r") for r in v]
    except StabilityError:
        return False
    return True


# key -> (what a valid value is, test); "flow" and "stability" are checked
# key by key against their own tables
_POSITIVE = ("a positive number", lambda v: _number(v) and v > 0)
_NON_NEGATIVE = ("a non-negative number", lambda v: _number(v) and v >= 0)
_POSITIVE_INT = ("a positive integer", lambda v: _int(v) and v > 0)
_OPTIONAL_INT = ("null or a positive integer", lambda v: v is None or _POSITIVE_INT[1](v))
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict))
_SCHEMA = {
    "problem": ("a preset name or an object", lambda v: isinstance(v, (str, dict))),
    "k_list": ("a non-empty strictly ascending list of positive integers",
               lambda v: isinstance(v, list) and v != []
               and all(_int(k) and k > 0 for k in v)
               and all(a < b for a, b in zip(v, v[1:]))),
    "resolution": _OPTIONAL_INT,
    "n_theta": _OPTIONAL_INT,   # inert, see DEFAULTS
    "tol": _POSITIVE,
    "norm": ("'fro' or 'op'", lambda v: v in ("fro", "op")),
    "maxiter": _POSITIVE_INT,
    "health_tol": _POSITIVE,
    "seed": ("a non-negative integer", lambda v: _int(v) and v >= 0),
    "out": ("a path string", lambda v: isinstance(v, str)),
    "flow": _OBJECT,
    "stability": _OBJECT,
}
_SECTIONS = {
    "flow": {"dt": _POSITIVE, "T": _NON_NEGATIVE,
             "grid": ("an integer >= 3", lambda v: _int(v) and v >= 3),
             "compare_T": _NON_NEGATIVE,
             "start_amplitude": ("a number", _number)},
    "stability": {
        "r_values": ("a list of integers or rational strings", _exact_list),
        "facet": ("a non-negative integer", lambda v: _int(v) and v >= 0),
        "centre": ("an object with keys dd, l1d, l2d, kd and optionally r_min",
                   lambda v: isinstance(v, dict)
                   and {"dd", "l1d", "l2d", "kd"} <= set(v)
                   <= {"dd", "l1d", "l2d", "kd", "r_min"}),
        "class_data": _OBJECT, "weights": _OBJECT},
}
# a "problem" object: a polytope and an L2, and optionally a "name" label
# (a preset is given by its name string instead)
_PROBLEM = {
    "name": ("a string", lambda v: isinstance(v, str)),
    "polytope": ("a preset name or an object with normals and offsets",
                 lambda v: isinstance(v, str)
                 or (isinstance(v, dict) and {"normals", "offsets"} <= set(v))),
    "l2": ("a bundle string or a list of facet coefficients",
           lambda v: isinstance(v, (str, list))),
}


def _check(values, schema, where=""):
    for key, val in values.items():
        if key not in schema:
            raise ConfigError(f"unknown config key '{where}{key}'; "
                              f"known: {', '.join(sorted(schema))}")
        what, ok = schema[key]
        if not ok(val):
            raise ConfigError(f"config key '{where}{key}' must be {what}, got {val!r}")


def load_config(path, overrides=None):
    """DEFAULTS, updated by the JSON object at ``path`` and then by the
    non-None ``overrides``; every key and value type is checked before any
    work starts, so a bad config ends in ConfigError (exit 2)."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        _check(user, _SCHEMA)
        for key, val in user.items():
            if key in _SECTIONS:
                _check(val, _SECTIONS[key], f"{key}.")
                cfg[key].update(val)
            else:
                cfg[key] = val
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    _check(overrides, _SCHEMA)
    cfg.update(overrides)
    return cfg


def build_problem(cfg):
    spec = cfg["problem"]
    if isinstance(spec, str):
        return make_problem(spec, resolution=cfg["resolution"])
    if isinstance(spec, dict):
        _check(spec, _PROBLEM, "problem.")
        for key in ("polytope", "l2"):
            if key not in spec:
                raise ConfigError(f"config key 'problem.{key}' is missing; a problem "
                                  f"object needs a polytope and an l2")
        name = spec.get("name", "custom")
        if name in problem_names():
            raise ConfigError(f"config key 'problem.name' {name!r} names a preset; give "
                              f"a preset as the problem string, or another label")
        polytope = spec["polytope"]
        if isinstance(polytope, dict):
            from .geometry import DelzantPolytope
            polytope = DelzantPolytope(polytope["normals"], polytope["offsets"],
                                       name=polytope.get("name", "custom"))
        return make_problem(name, resolution=cfg["resolution"], polytope=polytope,
                            l2_spec=spec["l2"])
    raise ConfigError("problem must be a preset name or an object")


# cells that csv.writer's default (excel) dialect quotes: those that hold
# a comma, a quote or a line break
_CSV_QUOTED = re.compile(r'[,"\r\n]')


def _csv_line(row):
    """One record, bytes as csv.writer's default dialect writes it: a float
    cell (numpy's included) is written as repr(float(v)), so no numpy scalar
    repr appears, None as "" and any other cell by str; the cells are joined
    by commas, a cell that holds a comma, a quote or a line break is quoted
    with its quotes doubled, a lone empty cell is written "", and the record
    ends in \r\n.  A line needs quoting only where it holds a quote, a line
    break or more commas than separators, which one look at it shows."""
    cells = [v if isinstance(v, str) else repr(float(v)) if isinstance(v, float)
             else "" if v is None else str(v) for v in row]
    line = ",".join(cells)
    if ('"' in line or "\n" in line or "\r" in line or line.count(",") != len(cells) - 1
            or cells == [""]):
        line = '""' if cells == [""] else ",".join(
            '"' + c.replace('"', '""') + '"' if _CSV_QUOTED.search(c) else c for c in cells)
    return line + "\r\n"


def write_csv(path, header, rows):
    """The header and the rows as CSV (_csv_line), in one write."""
    text = "".join(map(_csv_line, [header, *rows]))
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _check_sizes(problem, k_list):
    """Refuse, before any work, a run whose largest level would pass the
    size cap (quantisation.check_torus_size; exit 2).  It needs only the
    resolution, so the quadrature rule is not built first."""
    check_torus_size(problem.polytope, max(k_list), problem.meta["resolution"])


def _numerical_problem(cfg):
    """The problem of a balance, flow or verify run, refused (exit 2) before
    any output is written if it has no chi form (gamma <= 0, or an L2 with
    no polytope on the fan) or its largest level would pass the size cap."""
    problem = build_problem(cfg)
    if problem.chi is None:   # built on first use; stability runs never read it
        raise ConfigError(f"problem {problem.name!r} has gamma = L1.L2 / L1^2 = "
                          f"{problem.gamma_exact} <= 0, so no chi form: only "
                          f"the stability command applies")
    _check_sizes(problem, cfg["k_list"])
    return problem


# Seeded draws: every draw is built from random.Random(seed).random(), the
# one stream Python keeps across versions.  The package loads the stdlib
# generator anyway; numpy.random (and the secrets, hmac and OpenSSL modules
# it pulls in) would be loaded by each job on first use.

def _uniforms(rng, n):
    """``n`` uniform draws from [0, 1)."""
    return np.fromiter((rng.random() for _ in range(n)), float, n)


def _standard_normals(rng, n):
    """``n`` standard normal draws, by Box-Muller on pairs of uniforms."""
    m = (n + 1) // 2
    u = _uniforms(rng, 2 * m)
    r = np.sqrt(-2.0 * np.log1p(-u[:m]))   # 1 - u lies in (0, 1]
    theta = 2.0 * np.pi * u[m:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


def _random_log_diagonals(q, rng, count, spread=1.0):
    """``count`` random torus-invariant H, as vectors x = log diag H with
    entries uniform in [-spread, spread)."""
    return [spread * (2.0 * _uniforms(rng, q.n_plus_1) - 1.0) for _ in range(count)]


def flow_start(problem, seed, amplitude):
    """The start potential of ``flow``: u_ref with log coefficients
    ``amplitude`` times standard normals drawn from ``seed``, centred to
    mean zero."""
    coeffs = amplitude * _standard_normals(random.Random(seed),
                                           problem.polytope.ehrhart_count(1))
    return problem.u_ref.with_log_coeffs(coeffs - coeffs.mean())


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

def cmd_balance(cfg):
    problem = _numerical_problem(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(cfg["seed"])
    failures = 0
    for k in cfg["k_list"]:
        q = problem.quantisation(k)
        health = max(q.trace_identity_residual(x)
                     for x in _random_log_diagonals(q, rng, 2))
        if health > cfg["health_tol"]:
            print(f"HEALTH k={k}: trace identity residual {health:.3e} exceeds "
                  f"{cfg['health_tol']:.1e}; increase resolution")
            return EXIT_HEALTH
        res = q.iterate_to_balance(reference_form(q), tol=cfg["tol"],
                                   maxiter=cfg["maxiter"], norm=cfg["norm"])
        cols, rows = res.history_columns()
        write_csv(out / f"balance_k{k}.csv", cols, rows)
        (out / f"balanced_k{k}.json").write_text(json.dumps({
            "problem": problem.name, "k": k, "start": "reference",
            "converged": res.converged,
            "steps": len(res.history) - 1, "rejected": res.rejected,
            "safeguard_stalled": res.safeguard_stalled,
            "message": res.message,
            "health_residual": health,
            "energy": report_row("i_mu0", "FS(Id)", res.history[-1]["i_mu0"], q),
            "form": res.H.to_json(q.basis)}, indent=1))
        if res.safeguard_stalled:
            print(f"HEALTH k={k}: the I_mu0 safeguard rejected {res.rejected} of "
                  f"{res.candidates} Anderson candidates (trace identity residual "
                  f"{health:.3e}); increase resolution")
            return EXIT_HEALTH
        status = "ok" if res.converged else "NOT CONVERGED"
        print(f"balance k={k}: {status} in {len(res.history)-1} steps "
              f"({res.rejected} Anderson candidates rejected), "
              f"||mu0||_{cfg['norm']} = {res.history[-1]['mu0_' + cfg['norm']]:.3e}")
        if res.message != "converged":
            print(f"  {res.message}")
        if not res.converged:
            failures += 1
    return EXIT_FAILURE if failures else EXIT_OK


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def _write_grid_csv(path, xs, ys, values, t):
    head = [["nx", "ny", "xmin", "xmax", "ymin", "ymax", "t"],
            [len(xs), len(ys), float(xs[0]), float(xs[-1]), float(ys[0]), float(ys[-1]),
             float(t)],
            ["values_row_major"]]
    with open(path, "w", newline="") as fh:
        # the values are Python floats, which need no quoting
        fh.write("".join(map(_csv_line, head))
                 + "".join(",".join(map(repr, row)) + "\r\n" for row in values.tolist()))


def cmd_flow(cfg):
    problem = _numerical_problem(cfg)
    fcfg = cfg["flow"]
    u0 = flow_start(problem, cfg["seed"], fcfg["start_amplitude"])
    # the window depends on u0 and the grid alone: refused before any output
    window = comparison_window(problem.polytope, u0, fcfg["grid"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    # the comparison below reuses each level's context and start; u0 at the
    # rule's nodes is the same at every level
    nodes = problem.rule.nodes
    u0_nodes = (u0.value(nodes), u0.hessian(nodes))
    levels = []
    for k in cfg["k_list"]:
        q = problem.quantisation(k)
        H0 = q.hilb_map(u0, at_nodes=u0_nodes)
        levels.append((q, H0))
        traj = balancing_flow(q, H0, dt=fcfg["dt"], T=fcfg["T"])
        rows = [[s.t, s.diagnostics["mu0_fro"], s.diagnostics["mu0_sq"],
                 s.diagnostics["i_mu0"], s.diagnostics["logdet"],
                 s.diagnostics["halvings_positivity"], s.diagnostics["halvings_mu0_rise"]]
                for s in traj]
        write_csv(out / f"balancing_flow_k{k}.csv",
                  ["t", "mu0_fro", "mu0_sq", "i_mu0", "logdet",
                   "halvings_positivity", "halvings_mu0_rise"], rows)
        end = traj[-1].diagnostics
        print(f"flow k={k}: ||mu0||_F {traj[0].diagnostics['mu0_fro']:.3e} -> "
              f"{end['mu0_fro']:.3e} over T={fcfg['T']} (dt halvings: "
              f"{end['halvings_positivity']} positivity, "
              f"{end['halvings_mu0_rise']} ||mu0||^2 rise)")

    rows, meta, pde = quantization_comparison(levels, u0, T=fcfg["compare_T"],
                                              nx=fcfg["grid"], window=window)
    for t, vals in sorted(pde.snapshots.items()):
        _write_grid_csv(out / f"jflow_grid_t{t:g}.csv", pde.grid0.xs, pde.grid0.ys, vals, t)
    write_csv(out / "jflow_residual.csv", ["t", "sup_residual"],
              [[t, r] for t, r in pde.residual_log])
    (out / "quantization_comparison.json").write_text(json.dumps(
        {"problem": problem.name, "meta": meta, "rows": rows}, indent=1))
    print(f"continuum J-flow: {pde.steps} steps, {pde.evaluations} evaluations "
          f"(at most {pde.max_stages} stages), {pde.halvings} halvings, "
          f"{pde.rejected} rejected")
    print("comparison:", ", ".join(f"k={r['k']} t={r['t']:g}: {r['distance']:.4f}"
                                   for r in rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def cmd_stability(cfg):
    from .stability import SurfaceClassData, WeightPolynomials, chow_hilbert_weight

    problem = build_problem(cfg)
    scfg = cfg["stability"]
    try:
        if "class_data" in scfg:
            data = SurfaceClassData.from_json(scfg["class_data"])
        else:
            data = problem.class_data()
        wp = WeightPolynomials.from_json(scfg["weights"]) if "weights" in scfg else None
    except StabilityError as exc:
        raise ConfigError(str(exc))
    # before any output: the centre's blow-up table and its sweep forms,
    # built once (certify_closed_forms is proved for every table by the test
    # suite), and the least r checked against r > 0 and the centre's r_min.
    # A configured list holds the Fractions its schema check parsed; the
    # default, integers
    r_values = [rational(r, "stability.r_values") for r in scfg["r_values"]]
    if r_values:
        r_low = check_exponent(min(r_values))
        if "centre" in scfg:
            centre = NormalConeConfig(**scfg["centre"], r=r_low)
        else:
            centre = normal_cone_from_facet(problem.polytope, problem.l2_spec,
                                            scfg.get("facet", 0), r=r_low)
        forms = SweepForms(blowup_table(data, centre), data.gamma(), data.gamma_canonical())
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    # the pairings the verdicts and the sweep use: the class data's, which
    # are the problem's own unless the config supplies them
    write_csv(out / "pairings.csv", ["classes", "value"], sorted(data.pairings().items()))
    verdicts = cone_criteria(data)
    (out / "verdicts.json").write_text(json.dumps({
        "problem": problem.name, "gamma": str(verdicts["gamma"]),
        "gamma_canonical": str(verdicts["gamma_canonical"]),
        "verdicts": [v.as_dict() for v in verdicts["verdicts"]]}, indent=1))
    # the trivial configuration has E = 0, so both of its weights are 0
    rows = [["trivial", "0", "0", "", "", "", ""]]
    rows += [forms.text_row(r) for r in r_values]
    write_csv(out / "stability_sweep.csv",
              ["r", *SweepForms.COLUMNS, "admissible"], rows)
    if wp is not None:
        chout = []
        for r in r_values:
            res = chow_hilbert_weight(wp, r)
            chout.append([str(r), str(res["e_top"]),
                          str(res["j_weight_normalised"])])
        write_csv(out / "chow_weights.csv",
                  ["r", "e_top", "j_weight_normalised"], chout)
    for v in verdicts["verdicts"]:
        mark = "inapplicable" if not v.applicable else ("holds" if v.holds else "fails")
        print(f"stability {v.name}: {mark} (margin {v.margin})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def run_verification(cfg):
    """The invariant battery.  Returns (checks, exit_code) where checks are
    (name, passed, detail, is_health) tuples."""
    problem = _numerical_problem(cfg)
    P = problem.polytope
    rule = problem.rule
    rng = random.Random(cfg["seed"])
    checks = []

    def add(name, passed, detail, health=False):
        checks.append((name, bool(passed), detail, health))

    # geometry: enumerated lattice point counts are a degree-2 polynomial
    # with leading vol(P), and the closed-form Ehrhart count agrees
    counts = [len(P.lattice_points(k)) for k in range(1, 7)]
    d2 = np.diff(counts, 2)
    ok = (np.all(d2 == d2[0]) and Fraction(int(d2[0]), 2) == P.volume()
          and counts == [P.ehrhart_count(k) for k in range(1, 7)])
    add("ehrhart_polynomial", ok, f"counts k=1..6: {counts}")

    tab = problem.pairings
    add("intersection_volume", tab["L1L1"] == 2 * P.volume(),
        f"L1^2 = {tab['L1L1']}")

    # calibration consistency for random admissible potentials
    kcal = min(3, max(cfg["k_list"]))
    q = problem.quantisation(kcal)
    worst = 0.0
    for x in _random_log_diagonals(q, rng, 3):
        u = q.fs_map(x)
        total = rule.integrate(volume_density(np.asarray(u.hessian(rule.nodes)) * kcal)) * rule.c_vol
        worst = max(worst, abs(total / (kcal ** P.dim * q.V) - 1.0))
    add("calibration_consistency", worst < 1e-6, f"rel defect {worst:.2e}",
        health=True)

    # gamma two ways: quadrature vs intersection numbers
    mixv = mixed_density(problem.ref_hessian, problem.chi_hessian)
    g_quad = rule.integrate(mixv) * rule.c_vol / q.V
    add("gamma_two_ways", abs(g_quad / problem.gamma - 1.0) < 1e-6,
        f"quadrature {g_quad:.10f} vs exact {problem.gamma}", health=True)

    # trace identity at the largest requested level: the primary health check
    kmax = max(cfg["k_list"])
    qmax = problem.quantisation(kmax)
    health = max(qmax.trace_identity_residual(x)
                 for x in _random_log_diagonals(qmax, rng, 3))
    add("trace_identity", health < cfg["health_tol"],
        f"k={kmax} relative residual {health:.2e}", health=True)

    # moment map: exactly traceless, scale invariant metric distances
    x = _random_log_diagonals(qmax, rng, 1)[0]
    mu = qmax.mu0(x)
    add("mu0_traceless", abs(mu.sum()) < 1e-12 * qmax.n_plus_1,
        f"tr mu0 = {mu.sum():.2e}")

    # fs scaling invariance: D^2 u_{cH} = D^2 u_H
    u1 = qmax.fs_map(x)
    u2 = qmax.fs_map(x + np.log(4.2))
    dh = np.max(np.abs(np.asarray(u1.hessian(rule.nodes[:50]))
                       - np.asarray(u2.hessian(rule.nodes[:50]))))
    add("fs_scaling_invariance", dh < 1e-12, f"Hessian shift {dh:.2e}")

    # nef monotonicity on the Mori cone's classes: L2 nef makes L2 + L1 nef
    data = problem.class_data()
    nef_l2 = all(c.l2 >= 0 for c in data.mori)
    add("nef_monotone", (not nef_l2) or all(c.l1 + c.l2 >= 0 for c in data.mori),
        f"L2 nef: {nef_l2}")

    # stability identities on the default centre: the closed forms of its
    # table (the DF decomposition identity) and of its r-sweep, certified on
    # the certificate's own r grid.  The centre's r is left at r_min, so
    # that its config is accepted on a facet with eps < 1
    try:
        table = blowup_table(data, normal_cone_from_facet(P, problem.l2_spec, 0))
        certify_closed_forms(table, data.gamma(), data.gamma_canonical())
        triv = trivial_table()
        ok = all(j_weight(triv, data.gamma(), r) == 0 for r in (1, 2, 5))
        add("stability_identities", ok, "DF decomposition and E=0 zeroes")
    except StabilityError as exc:
        add("stability_identities", False, str(exc))

    any_fail = any(not p for _, p, _, _ in checks)
    health_fail = any(h and not p for _, p, _, h in checks)
    code = EXIT_HEALTH if health_fail else (EXIT_FAILURE if any_fail else EXIT_OK)
    return checks, code


def cmd_verify(cfg):
    checks, code = run_verification(cfg)
    for name, passed, detail, health in checks:
        tag = "PASS" if passed else ("FAIL(health)" if health else "FAIL")
        print(f"{tag:12s} {name}: {detail}")
    print(f"verify: {sum(p for _, p, _, _ in checks)}/{len(checks)} checks passed")
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {"balance": cmd_balance, "flow": cmd_flow,
            "stability": cmd_stability, "verify": cmd_verify}


class UsageError(ValueError):
    """A command line that names no command or a wrong one, or a wrong flag."""


# flag -> (option key, value parser, what the value must be); each flag
# takes one value, and every key but "config" is a config key
_FLAGS = {"--config": ("config", str, ""), "--out": ("out", str, ""),
          "--seed": ("seed", int, "an integer"),
          "--k-list": ("k_list", lambda v: [int(k) for k in v.split(",")],
                       "comma separated integers"),
          "--tol": ("tol", float, "a number"), "--resolution": ("resolution", int, "an integer"),
          "--problem": ("problem", str, "")}


def usage():
    return (f"usage: jbalance [-h] {{{' | '.join(COMMANDS)}}} [--flag value ...]\n"
            "flags (--flag value or --flag=value, before or after the command):\n"
            "  --config JSON  --out DIR  --seed N  --k-list K,K,...  --tol TOL\n"
            "  --resolution R  --problem PRESET  (flags override config keys)\n"
            f"presets: {', '.join(problem_names())}\n")


def parse_args(argv):
    """(command, options) of a command line: options maps the keys of
    _FLAGS to their parsed values, each checked against its config key's
    schema.  -h or --help gives (None, {}); any other mistake, a value the
    schema refuses included, raises a UsageError naming the flag."""
    command, options, args = None, {}, iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None, {}
        flag, eq, value = arg.partition("=")
        if flag in _FLAGS:
            key, parse, what = _FLAGS[flag]
            if not eq:
                value = next(args, None)
                if value is None or value.startswith("--"):
                    raise UsageError(f"{flag} needs a value")
            try:
                options[key] = parse(value)
            except ValueError:
                raise UsageError(f"{flag} takes {what}, got {value!r}") from None
            if key in _SCHEMA and not _SCHEMA[key][1](options[key]):
                raise UsageError(f"{flag} must be {_SCHEMA[key][0]}, got {value!r}")
        elif arg.startswith("-"):
            raise UsageError(f"unknown option {arg!r}")
        elif command is None and arg in COMMANDS:
            command = arg
        else:
            raise UsageError(f"unknown command {arg!r}; choose {' | '.join(COMMANDS)}"
                             if command is None else f"unexpected argument {arg!r}")
    if command is None:
        raise UsageError(f"no command given; choose {' | '.join(COMMANDS)}")
    return command, options


def main(argv=None):
    try:
        command, options = parse_args(sys.argv[1:] if argv is None else argv)
        if command is None:
            print(usage(), end="")
            return EXIT_OK
        cfg = load_config(options.pop("config", None), options)
        return COMMANDS[command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc} (see jbalance --help)", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigError, GeometryError, StabilityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FlowError as exc:
        print(f"flow failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except QuantisationError as exc:
        print(f"quadrature/positivity failure: {exc}", file=sys.stderr)
        return EXIT_HEALTH


if __name__ == "__main__":
    sys.exit(main())
