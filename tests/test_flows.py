from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_diagonal
from jbalance import flows as fl
from jbalance import geometry as geo
from jbalance.quantisation import HermitianForm, Quantisation
from jbalance.stability import SurfaceClassData, cone_criteria


# -- balancing flow ----------------------------------------------------------

def test_balancing_flow_stationary_at_balance(square_problem):
    q = square_problem.quantisation(3)
    res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 3),
                               tol=1e-11, maxiter=400, norm="fro")
    traj = fl.balancing_flow(q, res.H, dt=0.1, T=5.0)
    # the rescaled distance (tr (H - H_bal)^2 / k^2)^{1/2}
    assert np.sqrt(np.sum((traj[-1].payload.d - res.H.d) ** 2)) / q.k < 1e-9


def test_balancing_flow_matches_iteration(p2_problem):
    # (P^2, O(1), O(1)), k=3: flow endpoint at large T vs the fixed point
    q = p2_problem.quantisation(3)
    rng = np.random.default_rng(0)
    res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 3),
                               tol=1e-11, maxiter=400, norm="fro")
    H0 = random_diagonal(q, rng, spread=0.5).det_normalised()
    traj = fl.balancing_flow(q, H0, dt=0.1, T=25.0)
    end = traj[-1].payload.det_normalised()
    assert np.max(np.abs(end.diag() - res.H.diag())) < 1e-6


def test_balancing_flow_monotone_diagnostics(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(1)
    H0 = random_diagonal(q, rng).det_normalised()
    traj = fl.balancing_flow(q, H0, dt=0.1, T=10.0, log_every=3)
    musq = [s.diagnostics["mu0_sq"] for s in traj]
    assert all(musq[i + 1] <= musq[i] * (1 + 1e-9) + 1e-300 for i in range(len(musq) - 1))
    energies = [s.diagnostics["i_mu0"] for s in traj]
    assert all(energies[i + 1] <= energies[i] + 1e-10 for i in range(len(energies) - 1))
    # log det is an exact invariant of the traceless flow
    lds = [s.diagnostics["logdet"] for s in traj]
    assert np.max(np.abs(np.array(lds) - lds[0])) < 1e-8


def test_balancing_flow_counts_halvings_by_cause(square_problem):
    # dt = 100 forces refusals of both kinds: RK4 stages that leave the
    # positive cone, and steps that raise ||mu0||^2
    q = square_problem.quantisation(2)
    x = np.random.default_rng(0).uniform(-1.0, 1.0, q.n_plus_1)
    traj = fl.balancing_flow(q, x, dt=100.0, T=100.0, log_every=1)
    counts = [(s.diagnostics["halvings_positivity"], s.diagnostics["halvings_mu0_rise"])
              for s in traj]
    assert counts[0] == (0, 0)
    assert counts == sorted(counts)                # cumulative
    positivity, mu0_rise = counts[-1]
    assert positivity > 0 and mu0_rise > 0
    musq = [s.diagnostics["mu0_sq"] for s in traj]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(musq, musq[1:]))
    assert traj[-1].t == pytest.approx(100.0)


# -- residuals and pointwise checks -----------------------------------------

def test_critical_residual_exact_zero(square_problem):
    pb = square_problem
    chi = geo.ScaledPotential(pb.u_ref, pb.gamma)
    sup, l2 = fl.critical_residual(pb.u_ref, chi, pb.gamma, pb.rule)
    assert sup < 1e-12 and l2 < 1e-12


def test_separable_critical_metric_exact(square_o21):
    # closed-form critical metric on the product fan: u = v1/2 + v2 solves
    # chi wedge omega = gamma omega^2 identically for chi = ref(O(2,1))
    from jbalance.presets import separable_critical_potential
    pb = square_o21
    u_crit = separable_critical_potential(pb.polytope, pb.l2_spec)
    sup, l2 = fl.critical_residual(u_crit, pb.chi, pb.gamma, pb.rule)
    assert sup < 1e-12 and l2 < 1e-13


def test_critical_residual_affine_invariance(square_problem):
    pb = square_problem
    u2 = geo.AffineTilt(pb.u_ref, [0.4, -0.1], 2.0)
    r1 = fl.critical_residual(pb.u_ref, pb.chi, pb.gamma, pb.rule)
    r2 = fl.critical_residual(u2, pb.chi, pb.gamma, pb.rule)
    assert abs(r1[0] - r2[0]) < 1e-13 and abs(r1[1] - r2[1]) < 1e-13


def test_balanced_residual_decreases_in_k(square_o21):
    pb = square_o21
    sups = []
    for k in (2, 4):
        q = pb.quantisation(k)
        res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, k),
                                   tol=1e-9, maxiter=500, norm="fro")
        assert res.converged
        sups.append(fl.critical_residual(q.fs_map(res.H), pb.chi, pb.gamma, pb.rule)[0])
    assert sups[1] < sups[0]


def test_cone_condition_check(square_problem):
    pb = square_problem
    # chi = gamma omega, u' = u: relative form is gamma * identity
    chi = geo.ScaledPotential(pb.u_ref, pb.gamma)
    val = fl.cone_condition_check(pb.u_ref, chi, pb.gamma, pb.rule)
    assert abs(val - pb.gamma) < 1e-10
    # scaled chi -> 3 gamma omega: negative certificate
    chi3 = geo.ScaledPotential(pb.u_ref, 3 * pb.gamma)
    assert fl.cone_condition_check(pb.u_ref, chi3, pb.gamma, pb.rule) < 0


def test_cone_condition_linear_invariance(square_o21):
    # generalised eigenvalues are invariant under x -> T x; distinct
    # eigenvalues keep the quadratic formula well conditioned
    pb = square_o21
    T = np.array([[1.0, 1.0], [0.0, 1.0]])
    pts1 = pb.polytope.lattice_points(1).astype(float)
    pts2 = geo.polytope_preset("P1xP1").lattice_points(1).astype(float) * [2, 1]
    u2 = geo.LogSumExpPotential(pts1 @ T, level=1)
    chi2 = geo.LogSumExpPotential(pts2 @ T, level=1)
    X = np.array([[0.2, -0.4], [1.0, 0.5], [-0.7, 0.1]])

    class FixedRule:
        def __init__(self, nodes):
            self.nodes = nodes

    chi1 = geo.LogSumExpPotential(pts2, level=1)
    # u2(x) = u1(Tx), so D^2u2(x) = T^t D^2u1(Tx) T and the generalised
    # eigenvalues agree at matched nodes
    v1 = fl.cone_condition_check(pb.u_ref, chi1, pb.gamma, FixedRule(X @ T.T))
    v2 = fl.cone_condition_check(u2, chi2, pb.gamma, FixedRule(X))
    assert abs(v1 - v2) < 1e-10


def test_donaldson_necessary_check():
    # Donaldson's necessary condition 2 gamma L1 - L2 > 0 on every Mori
    # generator: the donaldson_necessary verdict of cone_criteria
    P2 = geo.polytope_preset("P2")
    sq = geo.polytope_preset("P1xP1")

    def verdict(P, l2):
        out = cone_criteria(SurfaceClassData.from_polytope(P, l2))
        (v,) = [v for v in out["verdicts"] if v.name == "donaldson_necessary"]
        return v.holds, v.margin

    for d in (1, 2, 5):
        ok, margin = verdict(P2, f"O({d})")
        assert ok and margin == d
    ok, margin = verdict(sq, "O(3,1)")
    assert ok and margin == 1
    # boundary case: one ruling pairs to zero, the strict test fails
    ok, margin = verdict(sq, "O(5,0)")
    assert not ok and margin == 0


# -- continuum flow ----------------------------------------------------------

def test_jflow_stationary_exact(square_problem):
    pb = square_problem
    chi = geo.ScaledPotential(pb.u_ref, pb.gamma)
    grid0 = fl.grid_from_potential(pb.polytope, pb.u_ref, 32)
    out = fl.jflow_run(grid0, chi, pb.gamma, T=0.3)
    assert out.residual_log[0][1] == 0.0
    assert np.max(np.abs(out.snapshots[0.3] - out.snapshots[0.0])) == 0.0


def test_jflow_residual_monotone(square_problem):
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 48)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=1.5)
    rl = [r for _, r in out.residual_log]
    assert rl[-1] < 0.15 * rl[0]
    assert all(rl[i + 1] <= rl[i] + 1e-12 for i in range(len(rl) - 1))


def _bump(values):
    values[10:14, 10:14] += 5.0


def _nan_node(values):
    values[14, 12] = np.nan


@pytest.mark.parametrize("poison", [_bump, _nan_node], ids=["bump", "nan"])
def test_jflow_step_rejects_convexity_loss(square_problem, poison):
    pb = square_problem
    grid = fl.grid_from_potential(pb.polytope, pb.u_ref, 24)
    # poison the interior so the Hessian loses convexity
    poison(grid.values)
    X = grid.mesh()
    vgrid = fl.GridPotential(grid.xs, grid.ys,
                             np.asarray(pb.chi.value(X)).reshape(grid.values.shape))
    _, ok = fl.jflow_step(grid, vgrid.interior_hessian(), pb.gamma, 1e-3)
    assert not ok


def test_jflow_steps_at_euler_bound(square_o21):
    # the flow benchmark's continuum input: steps at the forward-Euler bound
    # of the discrete operator reach t = 0.05 in about 700
    pb = square_o21
    coeffs = 0.05 * np.random.default_rng(0).standard_normal(pb.polytope.ehrhart_count(1))
    u0 = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    grid0 = fl.grid_from_potential(pb.polytope, u0, 48)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.05, snap_times=(0.025,))
    assert out.steps <= 1000 and out.halvings == 0


def _replay_on_full_grid(grid0, chi, gamma, out):
    """Snapshots of ``out``'s step sizes replayed through the public
    jflow_step on the full grid with the full interior mask."""
    vgrid = fl.GridPotential(grid0.xs, grid0.ys,
                             np.asarray(chi.value(grid0.mesh())).reshape(grid0.values.shape))
    v_hess = vgrid.interior_hessian()
    times = sorted(out.snapshots)
    snaps = {times[0]: grid0.values.copy()}
    grid, t = grid0, 0.0
    for h in out.dts:
        grid, ok = fl.jflow_step(grid, v_hess, gamma, h, out.active)
        assert ok
        t += h
        if t >= times[len(snaps)] - 1e-12:
            snaps[times[len(snaps)]] = grid.values.copy()
    return snaps


def test_jflow_box_matches_full_grid(square_o21):
    # the flow benchmark's continuum input: stepping only the active box
    # gives the full-grid snapshots bit for bit
    pb = square_o21
    coeffs = 0.05 * np.random.default_rng(0).standard_normal(pb.polytope.ehrhart_count(1))
    u0 = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    grid0 = fl.grid_from_potential(pb.polytope, u0, 48)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.05, snap_times=(0.025,))
    assert out.box == (22, 22) and out.active.shape == (46, 46)
    full = _replay_on_full_grid(grid0, pb.chi, pb.gamma, out)
    assert full.keys() == out.snapshots.keys() == {0.0, 0.025, 0.05}
    for t, values in out.snapshots.items():
        assert np.array_equal(values, full[t])


def test_jflow_box_matches_full_grid_l_shaped(square_problem):
    # an L-shaped override leaves a masked quadrant inside the box
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 32)
    active = np.zeros((30, 30), dtype=bool)
    active[8:22, 8:22] = True
    active[15:22, 15:22] = False
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1, snap_times=(0.05,),
                       active=active)
    assert out.steps > 25 and out.box == (14, 14)
    full = _replay_on_full_grid(grid0, pb.chi, pb.gamma, out)
    for t, values in out.snapshots.items():
        assert np.array_equal(values, full[t])
    # the L moves; the masked quadrant and everything outside the L stay put
    assert np.any(out.snapshots[0.1] != grid0.values)
    assert np.array_equal(out.snapshots[0.1][1:-1, 1:-1][~active],
                          grid0.values[1:-1, 1:-1][~active])


def test_jflow_one_hessian_per_step(square_problem, monkeypatch):
    pb = square_problem
    calls = []
    real = fl.GridPotential.interior_hessian
    monkeypatch.setattr(fl.GridPotential, "interior_hessian",
                        lambda self: calls.append(1) or real(self))
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 24)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1)
    assert out.halvings == 0 and out.steps > 25
    # one for chi, one for the start, one per accepted step
    assert len(calls) == out.steps + 2


def test_jflow_refusals_halve_the_step(square_problem, monkeypatch):
    # steps far beyond the forward-Euler bound lose convexity; each refusal
    # halves the step fraction until the run proceeds
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 24)
    ref = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1)
    monkeypatch.setattr(fl, "EULER_FRACTION", 64.0)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1)
    assert 0 < out.halvings <= 8 and len(out.dts) == out.steps
    assert np.max(np.abs(out.snapshots[0.1] - ref.snapshots[0.1])) < 1e-3


def test_residual_checks_reject_nan_hessians(square_problem):
    pb = square_problem
    rule = SimpleNamespace(nodes=np.array([[0.0, 0.0], [np.nan, 0.3]]))
    for check in (fl.critical_residual, fl.cone_condition_check):
        with pytest.raises(fl.FlowError):
            check(pb.u_ref, pb.chi, pb.gamma, rule)


def test_jflow_grid_convergence_order(square_problem):
    # refinement oracle: order ~ 2 on the bulk window (the frozen collar
    # carries a first-order boundary layer that decays into the bulk)
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    T = 0.25
    sols = {}
    for nx in (24, 48, 96):
        grid0 = fl.grid_from_potential(pb.polytope, pert, nx + 1)
        out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=T)
        sols[nx] = fl.GridPotential(grid0.xs, grid0.ys, out.snapshots[T])
    # compare on the shared coarse nodes inside the bulk window
    coarse = sols[24]
    idx = np.abs(coarse.xs) <= 3.0

    def on_coarse(fine, stride):
        return fine.values[::stride, ::stride][np.ix_(idx, idx)]

    d1 = np.max(np.abs(on_coarse(sols[48], 2) - coarse.values[np.ix_(idx, idx)]))
    d2 = np.max(np.abs(on_coarse(sols[96], 4) - on_coarse(sols[48], 2)))
    order = np.log2(d1 / d2)
    assert 1.6 < order < 3.2
    # 32 vs 64 agree at the O(h^2) scale on the same window
    g32 = fl.grid_from_potential(pb.polytope, pert, 33)
    g64 = fl.grid_from_potential(pb.polytope, pert, 65)
    o32 = fl.jflow_run(g32, pb.chi, pb.gamma, T=T)
    o64 = fl.jflow_run(g64, pb.chi, pb.gamma, T=T)
    idx32 = np.abs(g32.xs) <= 3.0
    d = np.max(np.abs(o64.snapshots[T][::2, ::2][np.ix_(idx32, idx32)]
                      - o32.snapshots[T][np.ix_(idx32, idx32)]))
    h32 = g32.dx
    assert d < 2.0 * h32 ** 2


def test_quantization_comparison(square_o21):
    pb = square_o21
    coeffs = np.array([0.35, -0.2, 0.15, -0.3])
    u0 = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    levels = [(q, q.hilb_map(u0)) for q in map(pb.quantisation, (2, 4))]
    rows, meta, _ = fl.quantization_comparison(levels, u0, T=0.4, nx=32)
    by = {(r["k"], r["t"]): r["distance"] for r in rows}
    # t = 0 distances decrease in k (Bergman approximation of the start)
    assert by[(4, 0.0)] < by[(2, 0.0)]
    assert meta["window_nodes"] > 0
    assert meta["ode_halvings"] == [{"k": k, "positivity": 0, "mu0_rise": 0} for k in (2, 4)]


def test_quantization_comparison_stationary(square_problem):
    # chi = gamma omega: both flows are near-stationary, so all distances
    # stay within the t=0 distance plus a small slack
    pb = square_problem
    chi = geo.ScaledPotential(pb.u_ref, pb.gamma)
    levels = [(q, q.hilb_map(pb.u_ref))
              for q in (Quantisation(pb.polytope, chi, k, pb.rule, gamma=pb.gamma)
                        for k in (2, 3))]
    rows, _, _ = fl.quantization_comparison(levels, pb.u_ref, T=0.4, nx=32)
    by = {(r["k"], r["t"]): r["distance"] for r in rows}
    for k in (2, 3):
        for t in (0.2, 0.4):
            assert by[(k, t)] <= by[(k, 0.0)] + 5e-3

