import numpy as np
import pytest

from conftest import random_diagonal, simpson_weights
from jbalance import functionals as F
from jbalance import geometry as geo
from jbalance.flows import GridPotential, grid_from_potential, jflow_run
from jbalance.quantisation import HermitianForm, QuantisationError


def test_j_energy_constant_path(square_problem):
    q = square_problem.quantisation(2)
    H = HermitianForm.identity(q.n_plus_1, 2)
    u = q.fs_map(H)
    assert F.j_energy_between(q, u, u) == 0.0


def test_j_energy_path_independence(square_problem):
    q = square_problem.quantisation(2)
    rng = np.random.default_rng(1)
    u0 = q.fs_map(random_diagonal(q, rng))
    u1 = q.fs_map(random_diagonal(q, rng))
    um = q.fs_map(random_diagonal(q, rng))
    direct = F.j_energy_between(q, u0, u1)
    via = F.j_energy_between(q, u0, um) + F.j_energy_between(q, um, u1)
    assert abs(direct - via) < 1e-6


def test_j_energy_surface_closed_form(square_problem):
    # n = 2: J(h1) - J(h0) = (1/(2 gamma k^{n-1})) int phi (mix0 + mix1)
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(2)
    u0 = q.fs_map(random_diagonal(q, rng))
    u1 = q.fs_map(random_diagonal(q, rng))
    X = q.nodes
    phi = q.k * (u1.value(X) - u0.value(X))
    mix0 = q.mixed_measure(u0)
    mix1 = q.mixed_measure(u1)
    closed = float(q.weights @ (phi * 0.5 * (mix0 + mix1))) / q.hilb_norm
    assert abs(F.j_energy_between(q, u0, u1) - closed) < 1e-10


def test_i_mu_j_basics(square_problem):
    pb = square_problem
    rng = np.random.default_rng(3)
    us = [pb.u_ref.with_log_coeffs(0.5 * rng.standard_normal(4)) for _ in range(3)]
    assert F.i_mu_j(us[0], us[0], pb.chi, pb.gamma, pb.rule) == 0.0
    a = F.i_mu_j(us[0], us[1], pb.chi, pb.gamma, pb.rule)
    b = F.i_mu_j(us[1], us[2], pb.chi, pb.gamma, pb.rule)
    c = F.i_mu_j(us[0], us[2], pb.chi, pb.gamma, pb.rule)
    assert abs(a + b - c) < 1e-6


def test_i_mu_j_decreasing_along_jflow(square_problem):
    # evaluate I_{mu_J} on grid snapshots of the continuum flow: strictly
    # decreasing while the flow is away from the critical point
    pb = square_problem
    pert = pb.u_ref.with_log_coeffs(np.array([0.4, -0.3, 0.2, -0.3]))
    grid0 = grid_from_potential(pb.polytope, pert, 48)
    times = (0.0, 0.3, 0.6, 0.9)
    out = jflow_run(grid0, pb.chi, pb.gamma, T=times[-1], snap_times=times)
    X = grid0.mesh()
    nx, ny = grid0.values.shape
    vh = GridPotential(grid0.xs, grid0.ys,
                       np.asarray(pb.chi.value(X)).reshape(nx, ny)).interior_hessian()
    dx, dy = grid0.dx, grid0.dy
    act = out.active

    def energy(vals_t, vals_0):
        # I_{mu_J}(u0, u_t) by Simpson between grid snapshots
        total = 0.0
        w = simpson_weights(8)
        for wt, s in zip(w, np.linspace(0, 1, 9)):
            g = GridPotential(grid0.xs, grid0.ys, (1 - s) * vals_0 + s * vals_t)
            uxx, uyy, uxy = g.interior_hessian()
            mix = 0.5 * (uxx * vh[1] + uyy * vh[0] - 2 * uxy * vh[2])
            det = uxx * uyy - uxy ** 2
            vel = (vals_t - vals_0)[1:-1, 1:-1]
            dens = (mix / pb.gamma - det)
            total += wt * float(np.sum((vel * dens)[act])) * dx * dy
        return total

    vals = [energy(out.snapshots[t], out.snapshots[0.0]) for t in times]
    assert all(vals[i + 1] < vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_i_mu0_anchor_and_scale(square_problem):
    q = square_problem.quantisation(3)
    assert abs(F.i_mu0(q, HermitianForm.identity(q.n_plus_1, 3))) < 1e-14
    rng = np.random.default_rng(5)
    H = random_diagonal(q, rng)
    assert abs(F.i_mu0(q, HermitianForm(3.7 * H.diag(), 3)) - F.i_mu0(q, H)) < 1e-10


def test_i_mu0_decreases_under_t_map(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(6)
    for _ in range(15):
        H = random_diagonal(q, rng)
        assert F.i_mu0(q, q.t_map(H)) <= F.i_mu0(q, H) + 1e-12


def test_i_mu0_convex_along_bergman_geodesics(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(7)
    for _ in range(4):
        path = F.PotentialPath.bergman(q, random_diagonal(q, rng),
                                       random_diagonal(q, rng), m=8)
        vals = [F.i_mu0(q, path.form_at(t)) for t in path.times()]
        assert F.convexity_probe(vals) >= -1e-8


def test_logdet_linear_on_geodesics(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(8)
    path = F.PotentialPath.bergman(q, random_diagonal(q, rng),
                                   random_diagonal(q, rng), m=8)
    vals = [path.form_at(t).logdet() for t in path.times()]
    assert np.max(np.abs(np.diff(vals, 2))) < 1e-10


def test_j_fs_convex_along_geodesics(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(9)
    u_id = q.fs_map(HermitianForm.identity(q.n_plus_1, 3))
    for _ in range(3):
        path = F.PotentialPath.bergman(q, random_diagonal(q, rng),
                                       random_diagonal(q, rng), m=8)
        vals = [F.j_energy_between(q, u_id, q.fs_map(path.form_at(t)))
                for t in path.times()]
        assert F.convexity_probe(vals) >= -1e-8


# I_hat_k anchored at u_id = FS(Id): it differs from the absolute I_hat_k by
# the per-level constant (V/(N+1)) log det Hilb(u_id)

def test_i_hat_decreases_under_fs_hilb(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(10)
    u_id = q.fs_map(HermitianForm.identity(q.n_plus_1, 3))
    for _ in range(10):
        u = q.fs_map(random_diagonal(q, rng))
        u2 = q.fs_map(q.hilb_map(u))
        assert F.i_hat_relative(q, u2, u_id) <= F.i_hat_relative(q, u, u_id) + 1e-10


def test_i_hat_minimum_at_balanced(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(11)
    res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 3),
                               tol=1e-10, maxiter=300, norm="fro")
    u_bal = q.fs_map(res.H)
    u_id = q.fs_map(HermitianForm.identity(q.n_plus_1, 3))
    base = F.i_hat_relative(q, u_bal, u_id)
    for _ in range(8):
        u = q.fs_map(random_diagonal(q, rng))
        assert F.i_hat_relative(q, u, u_id) >= base - 1e-9


def test_i_hat_quantisation_consistency(square_o21):
    pb = square_o21
    coeffs = np.array([0.6, -0.1, -0.2, 0.3])
    u = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    target = F.i_mu_j(pb.u_ref, u, pb.chi, pb.gamma, pb.rule)
    diffs = []
    for k in (2, 4, 8):
        q = pb.quantisation(k)
        diffs.append(abs(F.i_hat_relative(q, u, pb.u_ref) / k - target))
    assert diffs[0] > diffs[1] > diffs[2]


def test_p_hat_identity(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(12)
    for _ in range(5):
        H = random_diagonal(q, rng)
        lhs = F.p_hat(q, q.fs_map(H), H)
        rhs = (q.n_plus_1 / q.V) * F.i_mu0(q, H)
        assert abs(lhs - rhs) < 1e-10


def test_p_hat_fs_inequality(square_problem):
    # P_hat(h, H) >= P_hat(FS(H), H) in the mean-zero gauge of h
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(13)
    for _ in range(15):
        H = random_diagonal(q, rng)
        u = q.fs_map(random_diagonal(q, rng))
        u = F.mean_normalised_against_fs(q, u, H)
        assert F.p_hat(q, u, H) >= F.p_hat(q, q.fs_map(H), H) - 1e-10


def test_p_hat_hilb_inequality(square_problem):
    # P_hat(h, H) >= P_hat(h, Hilb(h)) on the det-matched slice
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(14)
    for _ in range(15):
        u = q.fs_map(random_diagonal(q, rng))
        C = q.hilb_map(u)
        H = F.match_determinant(random_diagonal(q, rng), C)
        assert F.p_hat(q, u, H) >= F.p_hat(q, u, C) - 1e-10


def test_potential_path_validation(square_problem):
    q = square_problem.quantisation(2)
    H = HermitianForm.identity(q.n_plus_1, 2)
    with pytest.raises(QuantisationError):
        F.PotentialPath.bergman(q, H, H, m=5)   # odd m
    with pytest.raises(QuantisationError):
        F.PotentialPath.bergman(q, H, H, m=2)   # below the minimum


def test_convexity_probe_requires_samples():
    with pytest.raises(QuantisationError):
        F.convexity_probe([1.0, 2.0])
    assert F.convexity_probe([1.0, 0.0, 1.0]) == 2.0
