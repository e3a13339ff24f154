import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_diagonal
from jbalance import flows as fl
from jbalance import geometry as geo
from jbalance.cli import flow_start
from jbalance.presets import make_problem
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
    # chi = gamma omega with gamma = 1: the problem's chi is u_ref itself
    assert pb.chi is pb.u_ref
    sup, l2 = fl.critical_residual(pb.u_ref, pb.chi, pb.gamma, pb.rule)
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
    # shifting every exponent point by s and the offset by 2 gives
    # u + <s, x> + 2 exactly (dyadic shifts), whose Hessian is recomputed
    pb = square_problem
    u2 = geo.LogSumExpPotential(pb.u_ref.points + [0.5, -0.25], level=1, offset=2.0)
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
    grid0 = fl.grid_from_potential(pb.polytope, pb.u_ref, 32)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.3)
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
    u0 = flow_start(pb, seed=0, amplitude=0.05)
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
    u0 = flow_start(pb, seed=0, amplitude=0.05)
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


def _packed_hessian(grid0, chi, active):
    """An allocating interior Hessian of a full grid's values at the
    ``active`` nodes, and chi's there."""
    def hessian(u):
        twice = 2 * u[1:-1, 1:-1]
        uxx = (u[2:, 1:-1] - twice + u[:-2, 1:-1]) / grid0.dx ** 2
        uyy = (u[1:-1, 2:] - twice + u[1:-1, :-2]) / grid0.dy ** 2
        ddx = u[2:] - u[:-2]
        uxy = (ddx[:, 2:] - ddx[:, :-2]) / (4 * grid0.dx * grid0.dy)
        return [d[active] for d in (uxx, uyy, uxy)]

    return hessian, hessian(np.asarray(chi.value(grid0.mesh())).reshape(grid0.values.shape))


def _velocity_and_rate(vhess, gamma, dx, dy):
    """The velocity gamma - (1/2) tr(adj(A) B) / det A and the forward-Euler
    rate max(D11/dx^2 + D22/dy^2), D = adj(A) B adj(A) / det(A)^2, of
    A = (uxx, uyy, uxy), B = D^2 chi at the active nodes."""
    vxx, vyy, vxy = vhess

    def velocity(uxx, uyy, uxy):
        det = uxx * uyy - uxy * uxy
        assert np.all(det > 0) and np.all(uxx > 0)
        return gamma - 0.5 * (uxx * vyy + uyy * vxx - 2.0 * uxy * vxy) / det

    def rate(uxx, uyy, uxy):
        det = uxx * uyy - uxy * uxy
        d11 = uyy * uyy * vxx - 2.0 * uyy * uxy * vxy + uxy * uxy * vyy
        d22 = uxy * uxy * vxx - 2.0 * uxx * uxy * vxy + uxx * uxx * vyy
        return (((1.0 / dx ** 2) * d11 + (1.0 / dy ** 2) * d22) / (det * det)).max()

    return velocity, rate


def _reference_run(grid0, chi, gamma, T, snap_times, active, fraction):
    """Forward Euler at ``fraction`` of its bound h <= 1 / max(D11/dx^2 +
    D22/dy^2) on all of ``grid0``, with a fresh array for every quantity of
    every step; steps ahead of a snapshot time are shortened evenly."""
    hessian, vhess = _packed_hessian(grid0, chi, active)
    velocity, rate = _velocity_and_rate(vhess, gamma, grid0.dx, grid0.dy)
    values, t = grid0.values.copy(), 0.0
    times = sorted({0.0, T, *snap_times})
    snaps = {0.0: values.copy()}
    while t < T - 1e-12:
        A = hessian(values)
        span = times[len(snaps)] - t
        h = span / max(1, math.ceil(span / (fraction / (rate(*A) + 1e-300))))
        values = values.copy()
        values[1:-1, 1:-1][active] += h * velocity(*A)
        t += h
        if t >= times[len(snaps)] - 1e-12:
            snaps[times[len(snaps)]] = values.copy()
    return snaps


def _chebyshev_coefficients(s):
    """beta(s) and (mu_j, nu_j, mut_j, gt_j), j = 1..s, of RKC2 with damping
    2/13, as in Verwer, Sommeijer and Hundsdorfer (2004)."""
    w0 = 1.0 + (2.0 / 13.0) / (s * s)
    T, dT, ddT = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[-1] - T[-2])
        dT.append(2.0 * T[-2] + 2.0 * w0 * dT[-1] - dT[-2])
        ddT.append(4.0 * dT[-2] + 2.0 * w0 * ddT[-1] - ddT[-2])
    w1 = dT[s] / ddT[s]
    b = [ddT[max(j, 2)] / (dT[max(j, 2)] * dT[max(j, 2)]) for j in range(s + 1)]
    a = [1.0 - b[j] * T[j] for j in range(s + 1)]
    rows = [(0.0, 0.0, b[1] * w1, 0.0)]
    for j in range(2, s + 1):
        mut = 2.0 * b[j] * w1 / b[j - 1]
        rows.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mut, -a[j - 1] * mut))
    return (1.0 + w0) / w1, rows


def _rkc_reference_run(grid0, chi, gamma, T, snap_times, active):
    """jflow_run's schedule on the full grid, with a fresh array for every
    quantity of every stage: RKC2 steps whose stages are increments from the
    step's start, the stage count the least s >= 2 with beta(s) >=
    STABILITY_MARGIN (2 / Euler bound) h, and the Sommeijer-Shampine-Verwer
    error estimate controlling h.  Every stage must stay convex."""
    hessian, vhess = _packed_hessian(grid0, chi, active)
    velocity, rate = _velocity_and_rate(vhess, gamma, grid0.dx, grid0.dy)
    values, t = grid0.values.copy(), 0.0
    times = sorted({0.0, T, *snap_times})
    snaps = {0.0: values.copy()}
    A = hessian(values)
    F0 = velocity(*A)
    res_log = [(0.0, float(np.abs(F0).max()))]
    dts, stages, evaluations, rejected = [], [], 0, 0
    h, grow = 1.0 / (rate(*A) + 1e-300), 10.0
    while t < T - 1e-12:
        span = times[len(snaps)] - t
        step = span / max(1, math.ceil(span / h))
        rho = 2.0 / (1.0 / (rate(*A) + 1e-300))
        s = 2
        while _chebyshev_coefficients(s)[0] < fl.STABILITY_MARGIN * rho * step:
            s += 1
        incs, F = [], F0
        for j, (mu, nu, mut, gt) in enumerate(_chebyshev_coefficients(s)[1], start=1):
            if j == 1:
                inc = (mut * step) * F0
            else:
                inc = mu * incs[-1] if j == 2 else nu * incs[-2] + mu * incs[-1]
                inc = inc + (mut * step) * F + (gt * step) * F0
            incs.append(inc)
            stage = values.copy()
            stage[1:-1, 1:-1][active] += inc
            F = velocity(*hessian(stage))
            evaluations += 1
        est = -0.8 * incs[-1] + (0.4 * step) * F + (0.4 * step) * F0
        err = float(np.abs(est).max()) / fl.ERROR_TOL
        h = step * min(grow, max(0.1, 0.8 / max(err, 1e-6) ** (1.0 / 3.0)))
        if err > 1.0:
            rejected, grow = rejected + 1, 1.0
            continue
        values, A, F0, grow = stage, hessian(stage), F, 10.0
        t += step
        dts.append(step)
        stages.append(s)
        res_log.append((t, float(np.abs(F0).max())))
        if t >= times[len(snaps)] - 1e-12:
            snaps[times[len(snaps)]] = values.copy()
    return snaps, dts, stages, res_log, evaluations, rejected


def _pde_inputs(name):
    if name == "benchmark":
        # the flow benchmark's continuum input
        pb = make_problem("P1xP1-O11-O21", resolution=80)
        grid0 = fl.grid_from_potential(pb.polytope, flow_start(pb, seed=0, amplitude=0.05), 48)
        return pb, grid0, 0.05, None
    # an L-shaped override: a masked quadrant inside the box
    pb = make_problem("P1xP1-O11-O11", resolution=64)
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    active = np.zeros((30, 30), dtype=bool)
    active[8:22, 8:22] = True
    active[15:22, 15:22] = False
    return pb, fl.grid_from_potential(pb.polytope, pert, 32), 0.1, active


@pytest.mark.parametrize("name", ["benchmark", "l_shaped"])
def test_jflow_run_matches_reference_steps(name):
    # the in-place kernel gives the reference's snapshots, step sizes, stage
    # counts, evaluations, rejections and residuals to the last bit
    pb, grid0, T, active = _pde_inputs(name)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=T, snap_times=(T / 2,), active=active)
    assert out.halvings == 0
    snaps, dts, stages, res_log, evaluations, rejected = _rkc_reference_run(
        grid0, pb.chi, pb.gamma, T, (T / 2,), out.active)
    assert out.dts == dts and out.stages == stages and out.residual_log == res_log
    assert (out.evaluations, out.rejected) == (evaluations, rejected)
    assert out.max_stages == max(stages) > 2
    assert snaps.keys() == out.snapshots.keys()
    for t, values in snaps.items():
        assert values.tobytes() == out.snapshots[t].tobytes(), t


def _force_refusals(monkeypatch):
    # too few stages for the step and an error test too loose to catch it:
    # stages lose convexity before the step ends
    monkeypatch.setattr(fl, "STABILITY_MARGIN", 0.25)
    monkeypatch.setattr(fl, "ERROR_TOL", 1.0)


def test_jflow_refused_steps_roll_back(square_problem, monkeypatch):
    # a refused step leaves the current state as it was: with refusals, the
    # snapshots are those of the accepted step sizes replayed one by one
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 24)
    _force_refusals(monkeypatch)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1, snap_times=(0.05,))
    assert out.halvings > 0
    full = _replay_on_full_grid(grid0, pb.chi, pb.gamma, out)
    assert full.keys() == out.snapshots.keys()
    for t, values in out.snapshots.items():
        assert values.tobytes() == full[t].tobytes(), t


def test_jflow_steps_make_no_grids(square_problem, monkeypatch):
    # the step loop works in buffers made once: a longer run builds no more
    # GridPotential objects than a shorter one
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 24)
    made = []
    real = fl.GridPotential.__post_init__
    monkeypatch.setattr(fl.GridPotential, "__post_init__",
                        lambda self: made.append(1) or real(self))
    counts = []
    for T in (0.05, 0.1):
        made.clear()
        out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=T)
        counts.append((len(made), out.steps))
    assert counts[0][0] == counts[1][0] and counts[0][1] < counts[1][1]


def _count_hessians(monkeypatch):
    calls = []
    real = fl.GridPotential.interior_hessian
    monkeypatch.setattr(fl.GridPotential, "interior_hessian",
                        lambda self, *args, **kw: calls.append(1) or real(self, *args, **kw))
    return calls


def test_jflow_one_hessian_per_step(square_problem, monkeypatch):
    # one Hessian per stage evaluation, refused and rejected steps included;
    # rolling back a refused step computes none
    pb = square_problem
    calls = _count_hessians(monkeypatch)
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 24)
    for refusals in (False, True):
        if refusals:
            _force_refusals(monkeypatch)
        calls.clear()
        out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1)
        assert (out.halvings > 0) == refusals and out.evaluations > 50
        # the refused or rejected steps' stages count too
        assert out.evaluations > sum(out.stages)
        # one for chi, one for the start, one per evaluation
        assert len(calls) == out.evaluations + 2


def test_jflow_refusals_halve_the_step(square_problem, monkeypatch):
    # stages far beyond the stability interval lose convexity; each refusal
    # halves the step until the run proceeds
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = fl.grid_from_potential(pb.polytope, pert, 24)
    ref = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1)
    _force_refusals(monkeypatch)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1)
    assert 0 < out.halvings <= 8 and len(out.dts) == out.steps
    assert np.max(np.abs(out.snapshots[0.1] - ref.snapshots[0.1])) < 1e-3


@pytest.mark.parametrize("nx, T, budget", [(48, 0.05, 400), (97, 0.25, 3500)])
def test_jflow_evaluations_and_accuracy(monkeypatch, nx, T, budget):
    # the flow benchmark's continuum input: RKC2 stays within 1e-5 of forward
    # Euler on the active nodes with a fraction of its operator evaluations
    # (718 Euler steps at nx = 48 to T = 0.05, 17,503 at nx = 97 to T = 0.25);
    # at nx = 48 the Euler reference takes 1/16 of the 0.9 of its bound that
    # the solver used to step at, at nx = 97 the 0.9 itself
    pb = make_problem("P1xP1-O11-O21", resolution=80)
    grid0 = fl.grid_from_potential(pb.polytope, flow_start(pb, seed=0, amplitude=0.05), nx)
    calls = _count_hessians(monkeypatch)
    out = fl.jflow_run(grid0, pb.chi, pb.gamma, T=T, snap_times=(T / 2,))
    assert len(calls) - 2 == out.evaluations <= budget
    # Euler on the active nodes' box and halo, whose nodes see the full
    # grid's stencil values (test_jflow_box_matches_full_grid)
    bi, bj = fl._bounding_box(out.active)
    halo = (slice(bi.start, bi.stop + 2), slice(bj.start, bj.stop + 2))
    box = fl.GridPotential(grid0.xs[halo[0]], grid0.ys[halo[1]], grid0.values[halo],
                           grid0.dx, grid0.dy)
    active = out.active[bi, bj]
    euler = _reference_run(box, pb.chi, pb.gamma, T, (T / 2,), active,
                           0.9 / 16 if nx == 48 else 0.9)
    assert euler.keys() == out.snapshots.keys()
    for t, values in euler.items():
        assert np.max(np.abs(values - out.snapshots[t][halo])[1:-1, 1:-1][active]) < 1e-5, t


@pytest.mark.parametrize("snap", [-0.01, 0.11])
def test_jflow_refuses_snapshot_times_outside_the_run(square_problem, snap):
    # a snapshot time outside [0, T] would never be written
    pb = square_problem
    grid0 = fl.grid_from_potential(pb.polytope, pb.u_ref, 16)
    with pytest.raises(fl.FlowError, match=r"snapshot times must lie in \[0, T\]"):
        fl.jflow_run(grid0, pb.chi, pb.gamma, T=0.1, snap_times=(snap,))


def test_residual_checks_reject_nan_hessians(square_problem):
    pb = square_problem
    rule = SimpleNamespace(nodes=np.array([[0.0, 0.0], [np.nan, 0.3]]))
    with pytest.raises(fl.FlowError):
        fl.critical_residual(pb.u_ref, pb.chi, pb.gamma, rule)


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


def test_quantization_comparison_refuses_a_window_below_two_nodes(square_o21, monkeypatch):
    # from the CLI's start, grids 3, 4 and 5 leave one window node, whose
    # mean-normalised distance is 0 by construction; grid 2 leaves none.
    # Neither flow is run
    pb = square_o21
    q = pb.quantisation(2)
    monkeypatch.setattr(fl, "jflow_run", lambda *args, **kwargs: pytest.fail("PDE ran"))
    monkeypatch.setattr(fl, "balancing_flow", lambda *args, **kwargs: pytest.fail("ODE ran"))
    start = flow_start(pb, 0, 0.3)
    for u0, nx, count in ((start, 3, 1), (start, 4, 1), (start, 5, 1), (pb.u_ref, 2, 0)):
        with pytest.raises(fl.FlowError, match=rf"holds {count} of the {nx} x {nx} grid "
                                               r"nodes, and a distance needs at least 2"):
            fl.quantization_comparison([(q, q.hilb_map(u0))], u0, T=0.1, nx=nx)


def test_quantization_comparison_stationary(square_problem):
    # chi = gamma omega: both flows are near-stationary, so all distances
    # stay within the t=0 distance plus a small slack
    pb = square_problem
    levels = [(q, q.hilb_map(pb.u_ref))
              for q in (Quantisation(pb.polytope, pb.chi, k, pb.rule, gamma=pb.gamma)
                        for k in (2, 3))]
    rows, _, _ = fl.quantization_comparison(levels, pb.u_ref, T=0.4, nx=32)
    by = {(r["k"], r["t"]): r["distance"] for r in rows}
    for k in (2, 3):
        for t in (0.2, 0.4):
            assert by[(k, t)] <= by[(k, 0.0)] + 5e-3

