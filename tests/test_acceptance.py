"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines; each test also enforces its stated runtime budget.
"""

import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from conftest import random_diagonal
from jbalance import cli
from jbalance import flows as fl
from jbalance import functionals as F
from jbalance import geometry as geo
from jbalance import stability as st
from jbalance.presets import make_problem
from jbalance.quantisation import HermitianForm, bergman_check


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {name} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s"


def trace_identity_residuals(resolution, count=20, seed=0):
    pb = make_problem("P1xP1-O11-O11", resolution=resolution)
    q = pb.quantisation(4)
    assert q.n_plus_1 == 25
    rng = np.random.default_rng(seed)
    return [q.trace_identity_residual(random_diagonal(q, rng)) for _ in range(count)]


def test_criterion_01_trace_identity():
    t0 = time.perf_counter()
    res = trace_identity_residuals(48)
    worst = max(res)
    report(1, "trace identity tr(Hilb(FS(H))H^-1) = N+1 = 25",
           worst < 1e-6, f"worst relative residual {worst:.2e} over 20 random H",
           time.perf_counter() - t0, 30.0)


def test_criterion_02_balanced_convergence(p2_problem):
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (3, 4, 5):
        q = p2_problem.quantisation(k)
        out = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, k),
                                   tol=1e-9, maxiter=500, norm="fro")
        energies = [row["i_mu0"] for row in out.history]
        mono = all(energies[i + 1] <= energies[i] + 1e-12
                   for i in range(len(energies) - 1))
        ok = ok and out.converged and mono
        details.append(f"k={k}: {len(out.history)-1} steps, "
                       f"fro={out.history[-1]['mu0_fro']:.1e}, monotone={mono}")
    report(2, "balanced convergence with monotone I_mu0 on (P2, O(1), O(1))",
           ok, "; ".join(details), time.perf_counter() - t0, 120.0)


def test_criterion_03_uniqueness(p2_problem):
    t0 = time.perf_counter()
    q = p2_problem.quantisation(4)
    rng = np.random.default_rng(1)
    r1 = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 4),
                              tol=1e-10, maxiter=500, norm="fro",
                              track_energy=False)
    r2 = q.iterate_to_balance(random_diagonal(q, rng), tol=1e-10, maxiter=500,
                              norm="fro", track_energy=False)
    d = float(np.sqrt(np.sum((r1.H.det_normalised().matrix
                              - r2.H.det_normalised().matrix) ** 2)))
    report(3, "uniqueness of the balanced form from two starts",
           r1.converged and r2.converged and d < 1e-6,
           f"Frobenius distance of normalised limits {d:.2e}",
           time.perf_counter() - t0, 120.0)


def test_criterion_04_gradient_flow(p2_problem):
    t0 = time.perf_counter()
    q = p2_problem.quantisation(3)
    rng = np.random.default_rng(2)
    ref = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 3),
                               tol=1e-11, maxiter=500, norm="fro",
                               track_energy=False)
    H0 = random_diagonal(q, rng, spread=0.5).det_normalised()
    traj = fl.balancing_flow(q, H0, dt=0.1, T=25.0, log_every=4)
    musq = [s.diagnostics["mu0_sq"] for s in traj]
    mono = all(musq[i + 1] <= musq[i] * (1 + 1e-9) + 1e-300
               for i in range(len(musq) - 1))
    d = float(np.sqrt(np.sum((traj[-1].payload.det_normalised().matrix
                              - ref.H.matrix) ** 2)))
    report(4, "balancing flow: ||mu0||^2 monotone, endpoint at the fixed point",
           mono and d < 1e-5,
           f"monotone={mono}, endpoint distance {d:.2e}",
           time.perf_counter() - t0, 120.0)


def test_criterion_05_bergman_trend(square_o21):
    t0 = time.perf_counter()
    pb = square_o21
    coeffs = np.array([0.5, -0.2, 0.1, -0.4])
    u = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    rows = bergman_check(pb.polytope, pb.chi, u, [2, 4, 6, 8], pb.rule, pb.gamma)
    devs = [r["deviation"] for r in rows]
    ok = all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
    report(5, "Bergman density deviation strictly decreasing over k=2,4,6,8",
           ok, "deviations " + ", ".join(f"{d:.4f}" for d in devs),
           time.perf_counter() - t0, 120.0)


def test_criterion_06_quantum_limit(square_o21):
    t0 = time.perf_counter()
    pb = square_o21
    sups = []
    for k in (2, 4, 8):
        q = pb.quantisation(k)
        bal = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, k),
                                   tol=1e-9, maxiter=800, norm="fro",
                                   track_energy=False)
        assert bal.converged
        sups.append(fl.critical_residual(q.fs_map(bal.H), pb.chi, pb.gamma,
                                         pb.rule)[0])
    res_ok = sups[0] > sups[1] > sups[2]

    # matched start: bulk perturbation of the closed-form critical metric,
    # so the Dirichlet truncation of the continuum solver is bias-free and
    # the O(1/k) quantisation gap sets the distances
    from jbalance.presets import separable_critical_potential
    u_crit = separable_critical_potential(pb.polytope, pb.l2_spec)
    u0 = geo.SumPotential([u_crit, geo.GaussianBump(0.06, [0.3, -0.2], 1.2)])
    T = 1.0
    rows, _, _ = fl.quantization_comparison(pb.polytope, pb.chi, pb.gamma,
                                            pb.rule, u0, [2, 4, 8], T=T, nx=48)
    at_T = {r["k"]: r["distance"] for r in rows if r["t"] == T}
    cmp_ok = at_T[2] > at_T[4] > at_T[8]
    report(6, "quantum limit trends on (P1xP1, O(1,1), O(2,1))",
           res_ok and cmp_ok,
           f"balanced residuals {[round(s, 4) for s in sups]}, "
           f"t=T distances {[round(at_T[k], 4) for k in (2, 4, 8)]}",
           time.perf_counter() - t0, 300.0)


def test_criterion_07_functional_identities(square_problem, square_o21):
    t0 = time.perf_counter()
    pb = square_problem
    rng = np.random.default_rng(3)

    # cocyclicity of I_{mu_J}
    us = [pb.u_ref.with_log_coeffs(0.5 * rng.standard_normal(4)) for _ in range(3)]
    coc = abs(F.i_mu_j(us[0], us[1], pb.chi, pb.gamma, pb.rule)
              + F.i_mu_j(us[1], us[2], pb.chi, pb.gamma, pb.rule)
              - F.i_mu_j(us[0], us[2], pb.chi, pb.gamma, pb.rule))

    # P_hat chain on 50 random pairs: the identity at FS(H), the FS
    # inequality in the mean-zero gauge, the arithmetic-geometric
    # inequality on the det-matched slice
    q = pb.quantisation(3)
    chain_ok = True
    worst_id = 0.0
    for _ in range(50):
        H = random_diagonal(q, rng)
        u = q.fs_map(random_diagonal(q, rng))
        worst_id = max(worst_id, abs(F.p_hat(q, q.fs_map(H), H)
                                     - (q.n_plus_1 / q.V) * F.i_mu0(q, H)))
        ug = F.mean_normalised_against_fs(q, u, H)
        chain_ok &= F.p_hat(q, ug, H) >= F.p_hat(q, q.fs_map(H), H) - 1e-9
        C = q.hilb_map(u)
        Hm = F.match_determinant(H, C)
        chain_ok &= F.p_hat(q, u, Hm) >= F.p_hat(q, u, C) - 1e-9
    chain_ok &= worst_id < 1e-8

    # quantisation consistency of I_hat
    pb2 = square_o21
    coeffs = np.array([0.6, -0.1, -0.2, 0.3])
    u = pb2.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    target = F.i_mu_j(pb2.u_ref, u, pb2.chi, pb2.gamma, pb2.rule)
    diffs = [abs(F.i_hat_relative(pb2.quantisation(k), u, pb2.u_ref) / k - target)
             for k in (2, 4, 8)]
    trend_ok = diffs[0] > diffs[1] > diffs[2]

    report(7, "functional identities: cocyclicity, P_hat chain, I_hat limit",
           coc < 1e-6 and chain_ok and trend_ok,
           f"cocycle defect {coc:.1e}, identity defect {worst_id:.1e}, "
           f"I_hat diffs {[round(float(d), 5) for d in diffs]}",
           time.perf_counter() - t0, 180.0)


def test_criterion_08_convexity(square_problem):
    t0 = time.perf_counter()
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(4)
    worst = np.inf
    worst_ld = 0.0
    for _ in range(10):
        path = F.PotentialPath.bergman(q, random_diagonal(q, rng),
                                       random_diagonal(q, rng), m=8)
        vals = [F.i_mu0(q, path.form_at(t)) for t in path.times()]
        worst = min(worst, F.convexity_probe(vals))
        lds = [path.form_at(t).logdet() for t in path.times()]
        worst_ld = max(worst_ld, float(np.max(np.abs(np.diff(lds, 2)))))
    report(8, "I_mu0 convex along Bergman geodesics, log det linear",
           worst >= -1e-8 and worst_ld < 1e-10,
           f"min second difference {worst:.2e}, log det defect {worst_ld:.1e}",
           time.perf_counter() - t0, 60.0)


def test_criterion_09_stability_arithmetic():
    t0 = time.perf_counter()
    P2 = geo.polytope_preset("P2")
    ok = True
    for d in range(1, 6):
        data = st.SurfaceClassData.from_polytope(P2, f"O({d})")
        cfg = st.NormalConeConfig(dd=1, l1d=1, l2d=d, kd=-3, r=1)
        table = st.blowup_table(data, cfg)
        for r in range(1, 11):
            ok &= st.j_weight(table, data.gamma(), r) == Fr(d) * (1 - Fr(2, 3 * r))
    data = st.SurfaceClassData.from_polytope(P2, "O(1)")
    table = st.blowup_table(data, st.NormalConeConfig(dd=1, l1d=1, l2d=1, kd=-3, r=1))
    for r in range(1, 11):
        A = {"L1": Fr(r), "E": Fr(-1)}
        gk = data.gamma_canonical()
        jk = (-Fr(2, 3) * gk / r * table.product(A, A, A)
              + table.product(A, A, {"K": Fr(1)}))
        ok &= st.df_weight(table, data, r) == jk + table.product(A, A, {"E": Fr(1)})
        rep = st.inequality_checks(table, r)
        ok &= rep["ii_exceptional"] == 2 * r - 1 > 0
        ok &= rep["iii_combined"] == 3 * r - 2 > 0
        ok &= rep["surface"] == r - 1 >= 0
    ok &= st.j_weight(st.trivial_table(), Fr(7, 2), 3) == 0
    ok &= st.df_weight(st.trivial_table(), data, 3) == 0

    rng = np.random.default_rng(5)
    for _ in range(100):
        wp = st.WeightPolynomials(
            n=2, m=1,
            h=(Fr(int(rng.integers(1, 9)), int(rng.integers(1, 5))),
               Fr(int(rng.integers(-9, 9)), int(rng.integers(1, 5))),
               Fr(int(rng.integers(-9, 9)), int(rng.integers(1, 5)))),
            w=tuple(Fr(int(rng.integers(-9, 9)), int(rng.integers(1, 5))) for _ in range(4)),
            hhat=(Fr(int(rng.integers(1, 9)), int(rng.integers(1, 5))), Fr(0)),
            what=tuple(Fr(int(rng.integers(-9, 9)), int(rng.integers(1, 5))) for _ in range(3)))
        out = st.chow_hilbert_weight(wp, Fr(int(rng.integers(1, 12))))
        ok &= out["e_top_leading_in_r"] == wp.b0_hat * wp.a0 - wp.b0 * wp.a0_hat
    report(9, "exact stability arithmetic (J-weight, DF, signs, Chow leading)",
           ok, "P2/line sweeps r=1..10, d=1..5 and 100 random weight sets",
           time.perf_counter() - t0, 60.0)


def test_criterion_10_negative_control(tmp_path):
    t0 = time.perf_counter()
    # halving the documented minimum resolution (48 -> 24) breaks criterion 1
    worst = max(trace_identity_residuals(24))
    broken = worst > 1e-6
    code = cli.main(["verify", "--problem", "P1xP1-O11-O11", "--k-list", "4",
                     "--resolution", "24", "--out", str(tmp_path)])
    report(10, "negative control: coarse quadrature fails with health exit code",
           broken and code == cli.EXIT_HEALTH,
           f"residual {worst:.2e} at resolution 24, verify exit {code}",
           time.perf_counter() - t0, 60.0)
