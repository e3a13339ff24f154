"""Guards for Quantisation.torus_pass, the one-softmax kernel behind the
torus-invariant FS/Hilb maps and the energy I_{mu0}."""

import numpy as np
import pytest

from conftest import random_diagonal
from jbalance import functionals as F
from jbalance import geometry as geo
from jbalance.geometry import BlendPotential, LogSumExpPotential, QuadratureRule
from jbalance.quantisation import HermitianForm, Quantisation, QuantisationError


def with_far_field(pb, k):
    """Level-k context on the problem's calibrated rule plus far-field nodes
    with tiny weights, where the softmax collapses to roundoff or exactly
    onto a vertex or an edge.  Returns (q, number of far-field nodes)."""
    rule = pb.rule
    dirs = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1], [1, 1], [1, -2]], float)
    far = np.concatenate([r * dirs[:, :rule.dim] for r in (30.0, 120.0, 800.0)])
    far_rule = QuadratureRule(nodes=np.concatenate([rule.nodes, far]),
                              weights=np.concatenate([rule.weights, np.full(len(far), 1e-30)]),
                              resolution=rule.resolution, scales=rule.scales,
                              c_vol=rule.c_vol, meta=dict(rule.meta))
    return Quantisation(pb.polytope, pb.chi, k, far_rule, gamma=pb.gamma), len(far)


def assert_rel(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert np.all(np.abs(a - b) <= tol * np.abs(b))


@pytest.mark.parametrize("fixture,k", [("p2_problem", 2), ("p2_problem", 4),
                                       ("square_problem", 3)])
def test_torus_pass_matches_potential_and_hilb_map(request, fixture, k):
    q, n_far = with_far_field(request.getfixturevalue(fixture), k)
    rng = np.random.default_rng(k)
    B = q.chi_hess
    # a centred covariance carries an absolute roundoff of about (eps k)^2
    # from its rounded mean, which dominates where the softmax has collapsed
    floor = 4 * (np.finfo(float).eps * k) ** 2 * q.rule.c_vol * np.abs(B).sum(axis=(1, 2))
    for H in (HermitianForm.identity(q.n_plus_1, k), random_diagonal(q, rng, spread=2.0)):
        out = q.torus_pass(H)
        u = q.fs_map(H)
        assert_rel(out.values, k * u.value(q.nodes))
        A = k * np.asarray(u.hessian(q.nodes))
        mix = geo.mixed_density(A, B) * q.rule.c_vol
        # relative to the size of the terms of (1/2) tr(adj(A) B): they
        # cancel where A and B are both close to the same rank-one form
        terms = 0.5 * q.rule.c_vol * (np.abs(A[:, 0, 0] * B[:, 1, 1])
                                      + np.abs(A[:, 1, 1] * B[:, 0, 0])
                                      + 2 * np.abs(A[:, 0, 1] * B[:, 0, 1]))
        assert np.all(np.abs(out.mix - mix) <= 1e-12 * terms + floor)
        assert_rel(out.hilb, q.hilb_map(u).diag())
        assert np.all(out.mix[-n_far:] >= 0)
        assert np.min(out.mix[-n_far:]) == 0.0


def test_torus_pass_memo_never_stale(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(20)
    H1, H2 = random_diagonal(q, rng), random_diagonal(q, rng)
    fresh = {}
    for name, H in (("H1", H1), ("H2", H2), ("2H1", HermitianForm(2.0 * H1.matrix, 3))):
        q._memo = None
        fresh[name] = q.torus_pass(H)
    q._memo = None
    for name, H in (("H1", H1), ("H1", H1), ("H2", H2), ("H1", H1),
                    ("2H1", HermitianForm(2.0 * H1.matrix, 3)), ("H2", H2)):
        got = q.torus_pass(H)
        for field in ("values", "mix", "hilb"):
            assert np.array_equal(getattr(got, field), getattr(fresh[name], field))
    # a memoised result cannot be edited by a caller
    with pytest.raises(ValueError):
        got.hilb[0] = 1.0


def test_balance_energy_uses_one_pass_per_step(p2_problem, monkeypatch):
    q = p2_problem.quantisation(2)
    passes = []
    hessians = []
    real_pass = Quantisation.torus_pass

    def counting_pass(self, H):
        memo = self._memo
        out = real_pass(self, H)
        if self._memo is not memo:         # a miss computed a new pass
            passes.append(1)
        return out

    real_hessian = LogSumExpPotential.hessian
    monkeypatch.setattr(Quantisation, "torus_pass", counting_pass)
    monkeypatch.setattr(LogSumExpPotential, "hessian",
                        lambda self, X: hessians.append(1) or real_hessian(self, X))
    res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 2), tol=1e-9,
                               maxiter=100, norm="fro")
    assert res.converged and all(row["i_mu0"] is not None for row in res.history)
    assert not hessians
    assert 0 < len(passes) <= len(res.history)


def simpson_i_mu0(q, H, m=8):
    """I_{mu0} by the composite Simpson rule on m intervals of the linear
    path from FS(Id), one Hessian per sample."""
    u0 = q.fs_map(HermitianForm.identity(q.n_plus_1, q.k))
    u1 = q.fs_map(H)
    X = q.nodes
    vel = q.k * (u1.value(X) - u0.value(X))
    total = 0.0
    for wt, t in zip(F.simpson_weights(m), np.linspace(0.0, 1.0, m + 1)):
        hess = np.asarray(BlendPotential(u0, u1, t).hessian(X)) * q.k
        mix = geo.mixed_density(hess, q.chi_hess) * q.rule.c_vol
        total += wt * float(q.weights @ (vel * mix)) / q.hilb_norm
    return total + (q.V / q.n_plus_1) * H.logdet()


def test_closed_form_energies_match_simpson(p2_problem, square_problem):
    rng = np.random.default_rng(21)
    for pb, k in ((p2_problem, 3), (square_problem, 2)):
        q = pb.quantisation(k)
        for _ in range(3):
            H = random_diagonal(q, rng, spread=1.5)
            ref = simpson_i_mu0(q, H)
            assert abs(F.i_mu0(q, H) - ref) <= 1e-12 * max(1.0, abs(ref))
    # I_{mu_J} and the AYM energy against composite Simpson, m = 16
    pb = square_problem
    u0 = pb.u_ref.with_log_coeffs(0.4 * rng.standard_normal(4))
    u1 = pb.u_ref.with_log_coeffs(0.4 * rng.standard_normal(4))
    X = pb.rule.nodes
    vel = u1.value(X) - u0.value(X)
    chi_h = np.asarray(pb.chi.hessian(X))
    imuj = aym = 0.0
    for wt, t in zip(F.simpson_weights(16), np.linspace(0.0, 1.0, 17)):
        hess = np.asarray(BlendPotential(u0, u1, t).hessian(X))
        vol = geo.volume_density(hess) * pb.rule.c_vol
        mix = geo.mixed_density(hess, chi_h) * pb.rule.c_vol
        imuj += wt * pb.rule.integrate(vel * (mix / pb.gamma - vol))
        aym -= wt * pb.rule.integrate(vel * vol)
    assert abs(F.i_mu_j(u0, u1, pb.chi, pb.gamma, pb.rule) - imuj) <= 1e-12 * max(1.0, abs(imuj))
    assert abs(F.aym_energy(u0, u1, pb.rule) - aym) <= 1e-12 * max(1.0, abs(aym))


def test_torus_pass_rejects_non_diagonal(square_problem):
    q = square_problem.quantisation(3)
    M = np.eye(q.n_plus_1)
    M[0, 1] = M[1, 0] = 0.1
    for evaluate in (q.torus_pass, q.hilb_form, q.mu0, q.t_map,
                     q.trace_identity_residual, lambda H: F.i_mu0(q, H)):
        with pytest.raises(QuantisationError, match=r"needs a torus-invariant \(diagonal\) H"):
            evaluate(HermitianForm(M, 3))
