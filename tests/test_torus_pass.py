"""Guards for Quantisation.torus_pass, the one-softmax kernel behind the
torus-invariant FS/Hilb maps and the energy I_{mu0}."""

import collections
import tracemalloc

import numpy as np
import pytest

from conftest import random_diagonal, simpson_weights
from jbalance import flows as fl
from jbalance import functionals as F
from jbalance import geometry as geo
from jbalance import kernel
from jbalance.geometry import LogSumExpPotential, QuadratureRule
from jbalance.quantisation import (TORUS_VECTORS, HermitianForm, Quantisation,
                                   QuantisationError, _TensorGrid, bergman_check)


# far-field nodes r d for these directions d and r = 30, 120, 800: there the
# softmax collapses to roundoff or exactly onto a vertex or an edge
FAR_DIRECTIONS = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1], [1, 1], [1, -2]], float)
FAR_RADII = (30.0, 120.0, 800.0)


def with_far_field(pb, k):
    """Level-k context on the problem's calibrated rule with each axis
    extended by the coordinates of the far-field nodes (and 0), so that
    each far-field node is a grid node.  The grid nodes added get weight
    1e-30, those of the rule keep theirs.  Returns (q, mask of the
    far-field nodes, mask of the rule's R x R nodes)."""
    rule = pb.rule
    far = np.concatenate([r * FAR_DIRECTIONS for r in FAR_RADII])
    axes = tuple(np.concatenate([xi, np.unique(np.append(far[:, d], 0.0))])
                 for d, xi in enumerate(rule.axes))
    R, shape = rule.resolution, tuple(map(len, axes))
    weights = np.full(shape, 1e-30)
    weights[:R, :R] = rule.weights.reshape(R, R)
    own = np.zeros(shape, bool)
    own[:R, :R] = True
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    far_rule = QuadratureRule(axes=axes, nodes=nodes, weights=weights.ravel(), resolution=R,
                              scales=rule.scales, c_vol=rule.c_vol, calibrated=True)
    is_far = (nodes[:, None] == far).all(axis=-1).any(axis=-1)
    assert is_far.sum() == len(far)
    return Quantisation(pb.polytope, pb.chi, k, far_rule, gamma=pb.gamma), is_far, own.ravel()


def assert_rel(a, b, tol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert np.all(np.abs(a - b) <= tol * np.abs(b))


@pytest.mark.parametrize("fixture,k", [("p2_problem", 2), ("p2_problem", 4),
                                       ("square_problem", 3)])
def test_torus_pass_matches_potential_and_hilb_map(request, fixture, k):
    q, far, _ = with_far_field(request.getfixturevalue(fixture), k)
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
        assert np.all(out.mix[far] >= 0)
        assert np.min(out.mix[far]) == 0.0


@pytest.mark.parametrize("fixture,k", [("p2_problem", 4), ("square_problem", 3)])
def test_node_blocks_match_one_block(request, monkeypatch, fixture, k):
    # budgets of 100 and 255 nodes, rounded down to blocks of 64 and 192,
    # split the level, far-field nodes included, into many blocks; against
    # one block holding every node, the per-node outputs agree bit for bit
    # and the Hilb diagonal, a sum over the blocks, to roundoff.  (Blocks
    # of 255 nodes change bits of mix with OpenBLAS 0.3.31: its product
    # treats a block's last partial group of nodes differently.)
    q, _, _ = with_far_field(request.getfixturevalue(fixture), k)
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
    h0, h1 = np.asarray(u0.hessian(X)), np.asarray(u1.hessian(X))
    total = 0.0
    for wt, t in zip(simpson_weights(m), np.linspace(0.0, 1.0, m + 1)):
        hess = ((1.0 - t) * h0 + t * h1) * q.k
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
    # I_{mu_J} against composite Simpson, m = 16
    pb = square_problem
    u0 = pb.u_ref.with_log_coeffs(0.4 * rng.standard_normal(4))
    u1 = pb.u_ref.with_log_coeffs(0.4 * rng.standard_normal(4))
    X = pb.rule.nodes
    vel = u1.value(X) - u0.value(X)
    chi_h = np.asarray(pb.chi.hessian(X))
    h0, h1 = np.asarray(u0.hessian(X)), np.asarray(u1.hessian(X))
    imuj = 0.0
    for wt, t in zip(simpson_weights(16), np.linspace(0.0, 1.0, 17)):
        hess = (1.0 - t) * h0 + t * h1
        vol = geo.volume_density(hess) * pb.rule.c_vol
        mix = geo.mixed_density(hess, chi_h) * pb.rule.c_vol
        imuj += wt * pb.rule.integrate(vel * (mix / pb.gamma - vol))
    assert abs(F.i_mu_j(u0, u1, pb.chi, pb.gamma, pb.rule) - imuj) <= 1e-12 * max(1.0, abs(imuj))


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
        n_nodes = logE.shape[1]
        cols = np.r_[np.arange(0, n_nodes - n_far, 23), np.arange(n_nodes - n_far, n_nodes)]
    else:
        q, far, own = with_far_field(request.getfixturevalue(fixture), k)
        points, logE = q.points, q.points @ q.nodes.T
        cols = np.r_[np.flatnonzero(own)[::23], np.flatnonzero(far)]
    x = np.random.default_rng(k).uniform(-2.0, 2.0, len(points))
    A = logE[:, cols] - x[:, None]
    lse, S, mean, cov = kernel.softmax_moments(A.copy(), points)
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
        S_all = kernel.softmax_moments(logE - x[:, None], q.points)[1]
        assert np.all(out.mix >= 0)
        assert np.all(out.mix[np.count_nonzero(S_all, axis=0) == 1] == 0.0)


@pytest.fixture(scope="module")
def p2_o2_problem():
    """(P^2, O(1), O(2)) at its preset resolution 96."""
    from jbalance.presets import make_problem
    return make_problem("P2-O1-O2")


def longdouble_pass(q, x, chunk=512):
    """Reference for torus_pass at x, in np.longdouble, a chunk of nodes at a
    time: per node the largest log-weight, the values, the mixed measure
    from longdouble_moments' covariance C, and the 1e-12 bound of
    test_softmax_kernel_matches_longdouble_reference carried over to it
    (1e-12 of sqrt(C_ii C_jj) per entry of C, plus its floor), and the Hilb
    diagonal."""
    P = q.points.astype(np.longdouble)
    xl = x.astype(np.longdouble)
    c_vol = np.longdouble(q.rule.c_vol)
    floor = 1e-290 + 16 * (np.finfo(np.longdouble).eps * q.k) ** 2
    amax, values, mix, bound = (np.empty(len(q.nodes), np.longdouble) for _ in range(4))
    moments = np.zeros(q.n_plus_1, np.longdouble)
    for lo in range(0, len(q.nodes), chunk):
        block = slice(lo, lo + chunk)
        A = P @ q.nodes[block].T.astype(np.longdouble) - xl[:, None]
        W, _, C = longdouble_moments(A, q.points)
        amax[block] = A.max(axis=0)
        values[block] = np.log(np.exp(A - amax[block]).sum(axis=0)) + amax[block]
        B = q.chi_hess[block].astype(np.longdouble)
        bxx, byy, bxy = B[:, 0, 0], B[:, 1, 1], B[:, 0, 1]
        mix[block] = 0.5 * c_vol * (C[0, 0] * byy + C[1, 1] * bxx - 2 * C[0, 1] * bxy)
        scale = 0.5 * c_vol * (C[0, 0] * abs(byy) + C[1, 1] * abs(bxx)
                               + 2 * np.sqrt(C[0, 0] * C[1, 1]) * abs(bxy))
        bound[block] = 1e-12 * scale + floor * 0.5 * c_vol * (abs(bxx) + abs(byy) + 2 * abs(bxy))
        moments += W @ (q.weights[block] * mix[block])
    values -= np.log(np.longdouble(q.n_plus_1) / np.longdouble(q.V))
    hilb = (q.n_plus_1 / np.longdouble(q.V)) * np.exp(xl) * moments / np.longdouble(q.hilb_norm)
    return amax, values, mix, bound, hilb


def per_axis_shift_gap(q, x, amax):
    """At the tensor grid's nodes, how far the separable pass's per-axis
    shifts (each axis's largest a_d xi_d over kP's bounding box, less
    min x) lie above the largest log-weight: the partition function on
    the grid is at most (N+1) e^{-gap}."""
    xi = np.meshgrid(*q.rule.axes, indexing="ij")
    lo, hi = q.points.min(axis=0), q.points.max(axis=0)
    shift = sum(np.maximum(lo[d] * xi[d], hi[d] * xi[d]).ravel() for d in range(2)) - x.min()
    return shift - amax


def test_torus_pass_matches_longdouble_reference_where_shifts_underflow(p2_o2_problem):
    # P2-O1-O2 at k = 32: on P^2's skew fan the per-axis shifts exceed the
    # largest log-weight by up to k min(xi1, xi2), and past about 745 the
    # grid's partition function would underflow to 0.  Those nodes go to the
    # node kernel, and the whole pass agrees with the long-double reference.
    q = p2_o2_problem.quantisation(32)
    rng = np.random.default_rng(32)
    x = np.log(q.t_map(HermitianForm.identity(q.n_plus_1, 32)).diag())
    x = x + 0.3 * rng.standard_normal(q.n_plus_1)
    out = q.torus_pass(x)
    amax, values, mix, bound, hilb = longdouble_pass(q, x)
    gap = per_axis_shift_gap(q, x, amax)
    underflow = np.flatnonzero(gap > 746)
    assert underflow.size > 0
    assert np.all(np.isin(underflow, out.exact))
    assert np.all(np.abs(out.values - values) <= 1e-12 * (1 + np.abs(values)))
    assert np.all(np.abs(out.mix - mix) <= bound)
    # the node kernel alone is 5.6e-13 from this reference, from the mixed
    # measure it sums where that measure cancels
    assert np.all(np.abs(out.hilb - hilb) <= 2e-12 * hilb)


def test_torus_pass_recomputes_flagged_nodes_on_a_skew_fan(p2_o2_problem):
    # P2-O1-O2 at k = 16, with far-field nodes.  At P^2's corners the
    # softmax sits at the far end of an axis from the per-row centre, and
    # the grid sums those nodes again on the nearer ends; the grid nodes
    # that lose digits even so are the node kernel's: their values and
    # mixed measure are its bits.  The mixed measure everywhere is within
    # the long-double bound.
    q, _, own = with_far_field(p2_o2_problem, 16)
    rng = np.random.default_rng(16)
    x = np.log(q.t_map(HermitianForm.identity(q.n_plus_1, 16)).diag())
    x = x + 0.3 * rng.standard_normal(q.n_plus_1)
    out = q.torus_pass(x)
    amax, values, mix, bound, hilb = longdouble_pass(q, x)
    exact = out.exact
    # the corners are resolved on the grid: centred on the per-row ends
    # alone, 2079 of the rule's 9216 nodes would lose digits
    assert 0 < np.count_nonzero(own[exact]) < 0.01 * np.count_nonzero(own)
    for block, (lse, _, _, cov) in kernel.node_blocks(q.points, q.nodes[exact], -x, order=2):
        nodes = exact[block]
        assert np.array_equal(out.values[nodes], lse - np.log(q.n_plus_1 / q.V))
        assert np.array_equal(out.mix[nodes], geo.mixed_density(
            np.moveaxis(cov, -1, 0), q.chi_hess[nodes]) * q.rule.c_vol)
    assert np.all(np.abs(out.mix - mix) <= bound)
    assert np.all(np.abs(out.values - values) <= 1e-12 * (1 + np.abs(values)))
    assert np.all(np.abs(out.hilb - hilb) <= 1e-12 * hilb)


def test_torus_pass_recentres_a_block_of_non_contiguous_rows(p2_o2_problem, monkeypatch):
    # P2-O1-O2 at k = 8 on its rule with each axis's nodes taken from both
    # ends in turn: the rows and columns whose centring loses digits (those
    # with xi > 0) alternate with rows and columns that keep them, so the
    # recentred block spans both.  The pass still agrees with the
    # long-double reference.
    pb, k = p2_o2_problem, 8
    rule, R = p2_o2_problem.rule, p2_o2_problem.rule.resolution
    order = np.column_stack([np.arange(R // 2), np.arange(R - 1, R // 2 - 1, -1)]).ravel()
    axes = tuple(xi[order] for xi in rule.axes)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    weights = rule.weights.reshape(R, R)[np.ix_(order, order)].ravel()
    shuffled = QuadratureRule(axes=axes, nodes=nodes, weights=weights, resolution=R,
                              scales=rule.scales, c_vol=rule.c_vol, calibrated=True)
    q = Quantisation(pb.polytope, pb.chi, k, shuffled, gamma=pb.gamma)
    flagged = []
    mixed = _TensorGrid._mixed

    def first_flags(*args):
        mix, lost = mixed(*args)
        flagged.append(lost.copy())
        return mix, lost

    monkeypatch.setattr(_TensorGrid, "_mixed", staticmethod(first_flags))
    rng = np.random.default_rng(k)
    x = np.log(q.t_map(HermitianForm.identity(q.n_plus_1, k)).diag())
    x = x + 0.3 * rng.standard_normal(q.n_plus_1)
    out = q.torus_pass(x)
    for axis in (1, 0):
        idx = np.flatnonzero(flagged[0].any(axis=axis))
        assert idx.size and np.any(np.diff(idx) > 1)
    assert flagged[1].shape[0] > np.count_nonzero(flagged[0].any(axis=1))
    # resolved on the grid: the node kernel takes under 1% of the nodes
    assert out.exact.size < 0.01 * len(q.nodes)
    amax, values, mix, bound, hilb = longdouble_pass(q, x)
    assert np.all(np.abs(out.mix - mix) <= bound)
    assert np.all(np.abs(out.values - values) <= 1e-12 * (1 + np.abs(values)))
    assert np.all(np.abs(out.hilb - hilb) <= 1e-12 * hilb)


def test_hilb_map_and_bergman_check_match_longdouble_reference_with_fallback_nodes(
        p2_o2_problem):
    # P2-O1-O2 at k = 32: at some grid nodes the per-axis shifts leave the
    # lattice's partition function below SEPARABLE_Z_MIN, so hilb_map and
    # the Bergman density sum them with the node kernel, and the grid
    # products with one shift elsewhere.  Both agree with a dense
    # long-double sum of e^{<a, x> - k u} over every node.
    pb, k = p2_o2_problem, 32
    q = pb.quantisation(k)
    assert q.grid.fallback.size > 0
    coeffs = np.linspace(-0.4, 0.5, len(pb.u_ref.log_coeffs))
    u = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    X = q.nodes
    k_u = (k * u.value(X)).astype(np.longdouble)
    hess1 = np.asarray(u.hessian(X))
    wmix = (q.weights * q.mixed_measure(u)).astype(np.longdouble)
    P = q.points.astype(np.longdouble)

    def section_weights(lo, hi):
        return np.exp(P @ X[lo:hi].T.astype(np.longdouble) - k_u[lo:hi])

    chunks = [(lo, lo + 1024) for lo in range(0, len(X), 1024)]
    G = sum(section_weights(lo, hi) @ wmix[lo:hi] for lo, hi in chunks) / q.hilb_norm
    rho = np.concatenate([(section_weights(lo, hi) / G[:, None]).sum(axis=0)
                          for lo, hi in chunks])
    target = pb.gamma * geo.volume_density(hess1) / geo.mixed_density(hess1, q.chi_hess)
    ref_dev = np.max(np.abs(rho * np.longdouble(q.V) / (q.n_plus_1 * target) - 1))
    ref_mass = q.rule.integrate(rho * q.mixed_measure(u)) / q.hilb_norm
    assert_rel(q.hilb_map(u).diag(), G, 1e-13)
    (row,) = bergman_check(pb.polytope, pb.chi, u, [k], pb.rule, pb.gamma)
    assert abs(row["deviation"] - ref_dev) <= 1e-13 * ref_dev
    assert abs(row["mass"] - ref_mass) <= 1e-13 * ref_mass


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
