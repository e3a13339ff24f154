"""Guards for Quantisation.torus_pass, the one-softmax kernel behind the
torus-invariant FS/Hilb maps and the energy I_{mu0}."""

import collections
import tracemalloc

import numpy as np
import pytest

from conftest import random_diagonal
from jbalance import flows as fl
from jbalance import functionals as F
from jbalance import geometry as geo
from jbalance import kernel
from jbalance.geometry import BlendPotential, LogSumExpPotential, QuadratureRule
from jbalance.quantisation import (TORUS_VECTORS, HermitianForm, Quantisation,
                                   QuantisationError)


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


@pytest.mark.parametrize("fixture,k", [("p2_problem", 4), ("square_problem", 3)])
def test_node_blocks_match_one_block(request, monkeypatch, fixture, k):
    # budgets of 100 and 255 nodes, rounded down to blocks of 64 and 192,
    # split the level, far-field nodes included, into many blocks; against
    # one block holding every node, the per-node outputs agree bit for bit
    # and the Hilb diagonal, a sum over the blocks, to roundoff.  (Blocks
    # of 255 nodes change bits of mix with OpenBLAS 0.3.31: its product
    # treats a block's last partial group of nodes differently.)
    q, _ = with_far_field(request.getfixturevalue(fixture), k)
    H = random_diagonal(q, np.random.default_rng(30 + k), spread=2.0)
    u = q.fs_map(H)

    def evaluate(budget_nodes, nodes_per_block):
        monkeypatch.setattr(kernel, "NODE_BLOCK_BYTES", 8 * q.n_plus_1 * budget_nodes)
        assert kernel.node_block_size(q.n_plus_1) == nodes_per_block
        q._memo = None
        return q.torus_pass(H), u.value(q.nodes), u.hessian(q.nodes), q.hilb_map(u).diag()

    whole = len(q.nodes) // 64 * 64 + 64
    one = evaluate(whole, whole)
    for budget_nodes, nodes_per_block in ((100, 64), (255, 192)):
        assert len(q.nodes) > 20 * nodes_per_block
        got = evaluate(budget_nodes, nodes_per_block)
        for field in ("values", "mix"):
            assert np.array_equal(getattr(got[0], field), getattr(one[0], field))
        assert np.array_equal(got[1], one[1]) and np.array_equal(got[2], one[2])
        assert_rel(got[0].hilb, one[0].hilb, 1e-13)
        assert_rel(got[3], one[3], 1e-13)


def test_torus_pass_holds_no_basis_by_node_array(square_o21):
    # k = 16 at resolution 80: (N+1) x M = 289 x 6400 doubles (14 MiB), over
    # ten block budgets.  Building the context and running one pass stay
    # within a few block arrays and the context's vectors.
    pb = square_o21
    pb.rule, pb.chi         # built on first use, before the trace
    k = 16
    n_plus_1, n_nodes = pb.polytope.ehrhart_count(k), len(pb.rule.nodes)
    assert 8 * n_plus_1 * n_nodes > 10 * kernel.NODE_BLOCK_BYTES
    x = np.random.default_rng(40).uniform(-1.0, 1.0, n_plus_1)
    tracemalloc.start()
    try:
        pb.quantisation(k).torus_pass(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * kernel.NODE_BLOCK_BYTES + 8 * TORUS_VECTORS * (n_plus_1 + n_nodes)


def test_torus_pass_memo_never_stale(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(20)
    H1, H2 = random_diagonal(q, rng), random_diagonal(q, rng)
    fresh = {}
    for name, H in (("H1", H1), ("H2", H2), ("2H1", HermitianForm(2.0 * H1.diag(), 3))):
        q._memo = None
        fresh[name] = q.torus_pass(H)
    q._memo = None
    for name, H in (("H1", H1), ("H1", H1), ("H2", H2), ("H1", H1),
                    ("2H1", HermitianForm(2.0 * H1.diag(), 3)), ("H2", H2)):
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
    # one pass per step, plus one for each candidate the safeguard rejects
    assert 0 < len(passes) <= len(res.history) + res.rejected


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
    # a form is its diagonal; a matrix, even a diagonal one, is refused
    q = square_problem.quantisation(3)
    M = np.eye(q.n_plus_1)
    M[0, 1] = M[1, 0] = 0.1
    with pytest.raises(QuantisationError, match="1-D"):
        HermitianForm(M, 3)
    for evaluate in (q.torus_pass, q.mu0, q.t_map, q.fs_map,
                     q.trace_identity_residual, lambda H: F.i_mu0(q, H)):
        for matrix in (M, np.eye(q.n_plus_1)):
            with pytest.raises(QuantisationError, match=r"needs a torus-invariant \(diagonal\) H"):
                evaluate(matrix)


def test_log_diagonal_input_matches_form(square_problem):
    # every torus-slice map takes x = log diag H as well as the form
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(22)
    H = random_diagonal(q, rng, spread=1.5)
    x = np.log(H.diag())
    by_form = q.torus_pass(H)
    q._memo = None
    by_vector = q.torus_pass(x)
    for field in ("values", "mix", "hilb"):
        assert np.array_equal(getattr(by_form, field), getattr(by_vector, field))
    assert q.trace_identity_residual(x) == q.trace_identity_residual(H)
    assert np.array_equal(q.mu0(x), q.mu0(H))
    assert F.i_mu0(q, x) == F.i_mu0(q, H)
    for bad, match in ((np.full(q.n_plus_1, np.inf), "finite"),
                       (np.append(x, np.nan), "finite"),
                       (x[:-1], "shape mismatch")):
        with pytest.raises(QuantisationError, match=match):
            q.torus_pass(bad)


def longdouble_moments(A, points):
    """Reference for softmax_moments: the softmax of each column of A and
    the two-pass (mean first, then centred) weighted covariance of the
    points, all in np.longdouble."""
    L = A.astype(np.longdouble)
    W = np.exp(L - L.max(axis=0))
    W /= W.sum(axis=0)
    P = points.astype(np.longdouble)
    mean = np.einsum("am,ai->im", W, P)
    D = P[:, :, None] - mean[None]                     # (m, n, M)
    return W, mean, np.einsum("am,aim,ajm->ijm", W, D, D)


def interval_kernel_data(k):
    """Kernel input of dimension 1, fed directly: the points 0..k of the
    interval [0, k], and the nodes of a 64-point logistic Gauss-Legendre rule
    plus far-field nodes (with_far_field's, on one axis).  Returns (points,
    logE, number of far-field nodes)."""
    s = 0.5 * (np.polynomial.legendre.leggauss(64)[0] + 1.0)
    far = np.concatenate([r * np.array([1.0, 0, -1, 0, -1, 1, 1]) for r in (30.0, 120.0, 800.0)])
    nodes = np.concatenate([2.0 * np.log(s / (1.0 - s)), far])[:, None]
    points = np.arange(k + 1, dtype=float)[:, None]
    return points, points @ nodes.T, len(far)


# "p1_sanity" stands for interval_kernel_data, the others are fixtures
@pytest.mark.parametrize("fixture,k", [("p1_sanity", 3), ("p1_sanity", 16),
                                       ("p2_problem", 4), ("p2_problem", 16),
                                       ("square_problem", 16)])
def test_softmax_kernel_matches_longdouble_reference(request, fixture, k):
    # dim 1 (AxisPotential's one-variable potentials reach it) and dim 2,
    # up to N+1 = 289 (P1xP1 at k = 16), on sampled quadrature nodes and on
    # far-field nodes where the softmax collapses
    if fixture == "p1_sanity":
        points, logE, n_far = interval_kernel_data(k)
    else:
        q, n_far = with_far_field(request.getfixturevalue(fixture), k)
        points, logE = q.points, q.points @ q.nodes.T
    x = np.random.default_rng(k).uniform(-2.0, 2.0, len(points))
    cols = np.r_[np.arange(0, logE.shape[1] - n_far, 23),
                 np.arange(logE.shape[1] - n_far, logE.shape[1])]
    A = logE[:, cols] - x[:, None]
    lse, S, mean, cov = geo.softmax_moments(A.copy(), points)
    W, ref_mean, ref_cov = longdouble_moments(A, points)
    # long double reaches far below the double range: what double rounds to
    # 0 or to a subnormal is compared absolutely, against `tiny`
    tiny = 1e-290
    assert np.all(np.abs(S - W) <= 1e-13 * W + tiny)
    assert np.all(np.abs(mean - ref_mean) <= 1e-13 * k)
    # the covariance to a relative 1e-12 of its own scale, sqrt(C_ii C_jj):
    # centred on the heaviest point, an entry loses at most a factor about
    # N+1 to cancellation.  The reference itself is centred on its rounded
    # mean, which leaves it an absolute error of about (eps k)^2 in long
    # double precision, far above what double resolves where the softmax
    # has collapsed.
    floor = tiny + 16 * (np.finfo(np.longdouble).eps * k) ** 2
    n = points.shape[1]
    for i in range(n):
        for j in range(n):
            scale = np.sqrt(ref_cov[i, i] * ref_cov[j, j])
            assert np.all(np.abs(cov[i, j] - ref_cov[i, j]) <= 1e-12 * scale + floor)
    one_hot = np.count_nonzero(S, axis=0) == 1
    assert one_hot.sum() >= 3
    assert np.all(cov[:, :, one_hot] == 0.0)
    if n == 2:
        # the mixed measure of the whole pass: nonnegative, and 0 at one-hot nodes
        out = q.torus_pass(x)
        S_all = geo.softmax_moments(logE - x[:, None], q.points, order=1)[1]
        assert np.all(out.mix >= 0)
        assert np.all(out.mix[np.count_nonzero(S_all, axis=0) == 1] == 0.0)


def test_balance_loops_do_no_per_step_linear_algebra(p2_problem, monkeypatch):
    # the iteration and the balancing flow run on log-diagonal vectors: no
    # dense solve, least squares, factorisation, eigenvalue or form
    # construction per step (the Anderson mixing included),
    # so the number of such calls does not grow with the step count
    q = p2_problem.quantisation(2)
    H0 = HermitianForm.identity(q.n_plus_1, 2)
    calls = collections.Counter()
    for name in ("solve", "cholesky", "eigvalsh", "slogdet", "lstsq", "qr"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **kw:
                            calls.update([_name]) or _real(*a, **kw))
    real_init = HermitianForm.__init__
    monkeypatch.setattr(HermitianForm, "__init__",
                        lambda self, *a, **kw: calls.update(["HermitianForm"])
                        or real_init(self, *a, **kw))

    def count(run):
        calls.clear()
        run()
        return dict(calls)

    short, long = (count(lambda: q.iterate_to_balance(H0, tol=1e-30, maxiter=steps))
                   for steps in (2, 8))
    assert short == long
    short, long = (count(lambda: fl.balancing_flow(q, H0, dt=0.1, T=T, log_every=10**9))
                   for T in (0.2, 0.8))
    assert short == long
