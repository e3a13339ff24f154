"""Per-job correctness checks on the CLI's artifacts, and the accuracy outputs
reported beside the timings.

Each ``check_*`` returns ``(problems, accuracy)``: a list of one-line
failure reasons (empty when the job passed) and a dict of accuracy outputs
that are reported but never gated on.  ``basis_hash`` is not checked: it
comes from Python's salted ``hash()`` and differs between processes.
"""

import csv
import json
import math
import re
from fractions import Fraction

BALANCE_TOL = 1e-9          # the --tol the balance workload passes
HEALTH_TOL = 1e-6           # the CLI's default health_tol
ENERGY_SLACK = 1e-12        # absolute slack on the non-increasing I_mu0 log
MU0_SQ_SLACK = 1e-9         # relative slack on the non-increasing ||mu0||^2
LOGDET_TOL = 1e-9           # log det H is an invariant of the balancing flow

# numpy 2 scalars written through repr() read "np.float64(x)"
_NP_SCALAR = re.compile(r"^np\.float\d+\((.*)\)$")


def number(text):
    match = _NP_SCALAR.match(text.strip())
    return float(match.group(1) if match else text)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(path, name):
    header, rows = read_csv(path)
    idx = header.index(name)
    return [number(row[idx]) for row in rows]


def check_balance(out, k_list):
    problems, acc = [], {"final_mu0_fro": {}, "balance_steps": {},
                         "trace_identity_residual": {}}
    for k in k_list:
        try:
            data = json.loads((out / f"balanced_k{k}.json").read_text())
            mu0 = column(out / f"balance_k{k}.csv", "mu0_fro")
            energy = column(out / f"balance_k{k}.csv", "i_mu0")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"k={k}: unreadable artifact ({exc})")
            continue
        acc["final_mu0_fro"][k] = mu0[-1]
        acc["balance_steps"][k] = data.get("steps")
        acc["trace_identity_residual"][k] = data.get("health_residual")
        if data.get("converged") is not True:
            problems.append(f"k={k}: not converged")
        if not mu0[-1] < BALANCE_TOL:
            problems.append(f"k={k}: final ||mu0||_fro {mu0[-1]:.3e} >= {BALANCE_TOL}")
        health = data.get("health_residual")
        if not (isinstance(health, float) and health < HEALTH_TOL):
            problems.append(f"k={k}: health residual {health} not < {HEALTH_TOL}")
        for step, (a, b) in enumerate(zip(energy, energy[1:]), start=1):
            if not b <= a + ENERGY_SLACK:
                problems.append(f"k={k}: i_mu0 rises at step {step} ({a!r} -> {b!r})")
                break
    acc["worst_trace_identity_residual"] = max(
        (v for v in acc["trace_identity_residual"].values() if v is not None), default=None)
    return problems, acc


def check_flow(out, k_list):
    problems, acc = [], {"final_mu0_fro": {}}
    for k in k_list:
        path = out / f"balancing_flow_k{k}.csv"
        try:
            mu0_sq = column(path, "mu0_sq")
            logdet = column(path, "logdet")
            acc["final_mu0_fro"][k] = column(path, "mu0_fro")[-1]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"k={k}: unreadable artifact ({exc})")
            continue
        for step, (a, b) in enumerate(zip(mu0_sq, mu0_sq[1:]), start=1):
            if not b <= a * (1.0 + MU0_SQ_SLACK):
                problems.append(f"k={k}: mu0_sq rises at row {step} ({a!r} -> {b!r})")
                break
        drift = max(abs(v - logdet[0]) for v in logdet)
        if not drift <= LOGDET_TOL * max(1.0, abs(logdet[0])):
            problems.append(f"k={k}: logdet drifts by {drift:.3e}")
    try:
        residual = column(out / "jflow_residual.csv", "sup_residual")
        comparison = json.loads((out / "quantization_comparison.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable PDE artifact ({exc})")
        return problems, acc
    if not residual or not all(math.isfinite(r) for r in residual):
        problems.append("jflow residual log is empty or not finite")
    rows = comparison.get("rows", [])
    if not rows or not all(math.isfinite(r["distance"]) for r in rows):
        problems.append("comparison distances are missing or not finite")
    if residual:
        acc["final_pde_sup_residual"] = residual[-1]
    t_end = max((r["t"] for r in rows), default=None)
    acc["comparison_distance_at_T"] = {r["k"]: r["distance"] for r in rows
                                       if r["t"] == t_end}
    acc["pde_steps"] = comparison.get("meta", {}).get("pde_steps")
    return problems, acc


def read_stability(out):
    """The exact outputs of one stability job, as written (strings)."""
    _, sweep = read_csv(out / "stability_sweep.csv")
    _, pairings = read_csv(out / "pairings.csv")
    verdicts = json.loads((out / "verdicts.json").read_text())
    return {"sweep": sweep, "pairings": pairings, "verdicts": verdicts}


def check_stability(out, meta, reference):
    """j_weight against the closed form d(1 - 2/(3r)) for P2 with O(d) at
    facet 0, and every exact output against ``reference`` (the values the
    same job wrote at the seed commit)."""
    try:
        got = read_stability(out)
        rows = {row[0]: row for row in got["sweep"]}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifact ({exc})"], {}
    problems = []
    if meta.get("polytope") == "P2" and meta.get("facet") == 0:
        d = meta["d"]
        for r_text, row in rows.items():
            if r_text == "trivial":
                continue
            r = Fraction(r_text)
            if Fraction(row[1]) != d * (1 - Fraction(2, 3 * r)):
                problems.append(f"j_weight at r={r_text} is {row[1]}, "
                                f"closed form {d * (1 - Fraction(2, 3 * r))}")
                break
    if reference is None:
        problems.append("no seed-commit reference for this job")
    else:
        for key in ("sweep", "pairings", "verdicts"):
            if got[key] != reference[key]:
                problems.append(f"{key} differs from the seed-commit values")
    return problems, {}
