import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_diagonal, random_form
from jbalance import geometry as geo
from jbalance import kernel
from jbalance.presets import make_problem, problem_names
from jbalance.quantisation import (TORUS_VECTORS, HermitianForm, Quantisation,
                                   QuantisationError, bergman_check,
                                   qk_operator, reference_form)


def test_hermitian_form_validation():
    with pytest.raises(QuantisationError, match="1-D"):
        HermitianForm(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)  # a matrix
    for bad in ([1.0, -2.0], [1.0, 0.0], [1.0, np.inf], [1.0, np.nan]):
        with pytest.raises(QuantisationError, match="finite and positive"):
            HermitianForm(bad, 1)
    d = np.array([2.0, 3.0])
    H = HermitianForm(d, 2)
    assert H.n_plus_1 == 2 and np.array_equal(H.diag(), d)
    assert H.logdet() == np.log(2.0) + np.log(3.0)
    d[0] = 5.0                  # the form holds its own copy
    assert H.diag()[0] == 2.0


def test_hermitian_form_json_roundtrip():
    rng = np.random.default_rng(0)
    H = random_form(4, 3, rng)
    H2 = HermitianForm.from_json(H.to_json())
    assert H2.level == 3
    assert np.array_equal(H.diag(), H2.diag())
    # a missing or non-integer level is refused like a bad diagonal
    for level in (None, "3", 3.0, True):
        data = H.to_json()
        if level is None:
            del data["level"]
        else:
            data["level"] = level
        with pytest.raises(QuantisationError, match="level"):
            HermitianForm.from_json(data)


@pytest.mark.parametrize("entries, match", [
    ([[1.0], [2.0]], "1-D"),
    (None, "diagonal"),
    ([1.0, -2.0], "positive"),
    ([1.0, 0.0], "positive"),
    ([1.0, np.nan], "positive"),
    ([[1.0], [2.0, 3.0]], "diagonal"),
])
def test_hermitian_form_from_json_refuses_bad_entries(entries, match):
    # a form read from outside must be a 1-D, finite and positive diagonal;
    # None leaves the diagonal out
    data = {"level": 1, "basis_hash": None}
    if entries is not None:
        data["diagonal"] = entries
    with pytest.raises(QuantisationError, match=match):
        HermitianForm.from_json(data)


def test_fs_map_round_p1(square_problem):
    # P^1 x P^1, k=1, H=Id: u_H = log(1 + e^x) + log(1 + e^y) + const, the
    # round metric of each P^1 factor
    q = square_problem.quantisation(1)
    uH = q.fs_map(HermitianForm.identity(4, 1))
    t = np.linspace(-3, 3, 13)
    X = np.stack(np.meshgrid(t, t[::-1] / 2, indexing="ij"), axis=-1).reshape(-1, 2)
    expect = np.log(1 + np.exp(X[:, 0])) + np.log(1 + np.exp(X[:, 1]))
    got = uH.value(X)
    assert np.allclose(got - got[0], expect - expect[0], atol=1e-12)
    sig = np.exp(X) / (1 + np.exp(X)) ** 2
    hess = np.asarray(uH.hessian(X))
    assert np.allclose(hess[:, [0, 1], [0, 1]], sig, atol=1e-12)
    assert np.allclose(hess[:, 0, 1], 0.0, atol=1e-12)


def test_fs_pointwise_normalisation(square_problem):
    # sum of |s_i|^2 over an H-orthonormal basis equals (N+1)/V pointwise
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(1)
    H = random_diagonal(q, rng)
    u = q.fs_map(H)
    X = q.nodes[::37]
    rho = (np.exp(q.basis.points.astype(float) @ X.T
                  - np.log(H.diag())[:, None])).sum(axis=0)
    lhs = rho * np.exp(-q.k * u.value(X))
    assert np.allclose(lhs, q.n_plus_1 / q.V, rtol=1e-12)


def test_fs_scaling_invariance(square_problem):
    q = square_problem.quantisation(2)
    rng = np.random.default_rng(2)
    H = random_diagonal(q, rng)
    u1 = q.fs_map(H)
    u2 = q.fs_map(HermitianForm(H.diag() * 7.3, q.k))
    X = q.nodes[:60]
    assert np.allclose(u2.value(X) - u1.value(X), -np.log(7.3) / q.k, atol=1e-12)
    assert np.allclose(u1.hessian(X), u2.hessian(X), atol=1e-13)


def test_fs_hessian_finite_difference_oracle(p2_problem):
    # P^2, k=2, random diagonal H: analytic Hessian vs central differences
    q = p2_problem.quantisation(2)
    rng = np.random.default_rng(3)
    u = q.fs_map(random_diagonal(q, rng))
    X = q.nodes[:: len(q.nodes) // 100][:100]
    h = 1e-4
    E = np.eye(2)
    H_an = np.asarray(u.hessian(X))
    for i in range(2):
        for j in range(2):
            if i == j:
                fd = (u.value(X + h * E[i]) - 2 * u.value(X) + u.value(X - h * E[i])) / h ** 2
            else:
                fd = (u.value(X + h * (E[i] + E[j])) - u.value(X + h * (E[i] - E[j]))
                      - u.value(X - h * (E[i] - E[j])) + u.value(X - h * (E[i] + E[j]))) / (4 * h ** 2)
            assert np.max(np.abs(H_an[:, i, j] - fd)) < 1e-6


def test_hilb_symmetric_identity(square_problem):
    # round metric with chi = gamma omega: Gram proportional to the identity
    # within lattice-symmetry orbits (all of kP in one orbit at k=1)
    q = square_problem.quantisation(1)
    G = q.t_map(HermitianForm.identity(q.n_plus_1, 1))
    d = G.diag()
    assert np.max(np.abs(d / d[0] - 1.0)) < 1e-12


def test_trace_identity(square_problem):
    q = square_problem.quantisation(4)
    rng = np.random.default_rng(4)
    for _ in range(5):
        assert q.trace_identity_residual(random_diagonal(q, rng)) < 1e-8


def test_hilb_refinement_oracle():
    # P^2, k=2, perturbed diagonal H: Gram against a much finer rule
    P2 = geo.polytope_preset("P2")
    u_ref = geo.reference_potential(P2)
    chi = geo.ScaledPotential(u_ref, 1.0)
    rng = np.random.default_rng(5)
    coeffs = rng.uniform(-0.7, 0.7, 6)
    fine = geo.calibrate(geo.build_quadrature(P2, 1280), P2, u_ref)
    base = geo.calibrate(geo.build_quadrature(P2, 128), P2, u_ref)
    grams = []
    for rule in (base, fine):
        q = Quantisation(P2, chi, 2, rule, gamma=1.0)
        u = q.fs_map(HermitianForm(np.exp(coeffs), 2))
        grams.append(q.hilb_map(u).diag())
    assert np.max(np.abs(grams[0] / grams[1] - 1.0)) < 1e-8


def test_t_map_preserves_pd(square_problem):
    rng = np.random.default_rng(6)
    q = square_problem.quantisation(2)
    for _ in range(30):
        C = q.t_map(random_diagonal(q, rng, spread=1.5))
        assert np.all(C.diag() > 0)


def test_t_map_lattice_symmetry_equivariance(square_problem):
    # the x <-> y swap of the square permutes the section basis; t_map
    # commutes with the induced permutation exactly (the tensor grid shares
    # the symmetry node-for-node)
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(100)
    pts = [tuple(p) for p in q.basis.points]
    perm = np.array([pts.index((p[1], p[0])) for p in pts])
    H = random_diagonal(q, rng)
    Hp = HermitianForm(H.diag()[perm], q.k)
    lhs = q.t_map(Hp).diag()
    rhs = q.t_map(H).diag()[perm]
    assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-13


def test_mu0_traceless_and_zero_iff_fixed(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(8)
    H = random_diagonal(q, rng)
    mu = q.mu0(H)
    assert abs(mu.sum()) < 1e-13 * q.n_plus_1
    # away from balance the moment map is visibly nonzero
    assert q.mu0_norms(mu)[0] > 1e-4
    res = q.iterate_to_balance(H, tol=1e-10, maxiter=300, norm="fro")
    assert res.converged
    assert q.mu0_norms(q.mu0(res.H))[0] < 1e-9
    # det-normalised t_map returns the balanced form
    back = q.t_map(res.H).det_normalised()
    assert np.max(np.abs(back.diag() - res.H.det_normalised().diag())) < 1e-9


def test_iterate_balance_symmetric_start(square_problem):
    # chi = gamma omega_{FS(Id)} on P^1 x P^1 at k=1: Id is balanced already
    q = square_problem.quantisation(1)
    res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 1),
                               tol=1e-8, maxiter=10, norm="fro")
    assert res.converged and len(res.history) == 1


def test_iterate_balance_uniqueness(p2_problem):
    q = p2_problem.quantisation(3)
    rng = np.random.default_rng(10)
    res1 = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 3),
                                tol=1e-10, maxiter=400, norm="fro")
    res2 = q.iterate_to_balance(random_diagonal(q, rng), tol=1e-10,
                                maxiter=400, norm="fro")
    assert res1.converged and res2.converged
    d = np.max(np.abs(res1.H.det_normalised().diag() - res2.H.det_normalised().diag()))
    assert d < 1e-6


def test_iterate_balance_symmetry_oracle(p2_problem):
    # balanced form on (P^2, O(1), O(1)) carries the full lattice symmetry
    # of the simplex: averaging the diagonal over the symmetry orbits of the
    # section points is the identity within tolerance
    q = p2_problem.quantisation(4)
    res = q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, 4),
                               tol=1e-10, maxiter=400, norm="fro")
    assert res.converged
    pts = [tuple(p) for p in q.basis.points]
    k = q.k

    def orbit(p):
        x, y = p
        images = {(x, y), (y, x), (k - x - y, y), (y, k - x - y),
                  (x, k - x - y), (k - x - y, x)}
        return sorted(images)

    # tolerance set by the quadrature: the tensor grid represents the x<->y
    # symmetry exactly but the third simplex symmetry only approximately
    d = res.H.diag()
    for p in pts:
        vals = [d[pts.index(im)] for im in orbit(p)]
        assert np.max(np.abs(np.array(vals) / vals[0] - 1.0)) < 1e-6


def f1_stable(resolution):
    """F1 with L1 = (0,0,2,3) and L2 = (0,0,1,2), a J-stable class."""
    F1 = geo.polytope_preset("F1")
    P = geo.DelzantPolytope(F1.normals, [0, 0, 2, 3], name="F1-L1")
    return make_problem("F1-stable", resolution=resolution, polytope=P, l2_spec=[0, 0, 1, 2])


@pytest.mark.parametrize("name", problem_names() + ["F1"])
def test_reference_form_quantises_the_reference_potential(name):
    # FS_k(H_ref,k) = k u_ref - log((N+1)/V) at the nodes, for every preset
    # polygon and F1: the multiplicities are exact
    pb = f1_stable(32) if name == "F1" else make_problem(name, resolution=32)
    X = pb.rule.nodes
    u_ref = pb.u_ref.value(X)
    for k in range(1, 7):
        q = pb.quantisation(k)
        fs = k * q.fs_map(reference_form(q)).value(X)
        err = np.abs(fs - k * u_ref + np.log(q.n_plus_1 / q.V))
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(k * u_ref))), k


def test_reference_form_counts_tuples():
    # 1/d_b is the number of ordered k-tuples of lattice points of P that
    # sum to b, counted here by brute force
    pb = f1_stable(32)
    ones = [tuple(a) for a in pb.polytope.lattice_points(1)]
    for k in (1, 2, 3):
        q = pb.quantisation(k)
        counts = {tuple(b): 0 for b in q.basis.points}
        for tup in itertools.product(ones, repeat=k):
            counts[tuple(np.sum(tup, axis=0))] += 1
        assert np.array_equal(1.0 / reference_form(q).d, list(counts.values()))


def test_reference_form_refuses_a_section_no_tuple_reaches():
    # every lattice point of kP is a sum of k lattice points of P (lattice
    # polygons are normal); a basis point that is not gets m_b = 0 and is
    # refused
    q = make_problem("P2-O1-O1", resolution=32).quantisation(2)
    fake = SimpleNamespace(P=q.P, k=2, basis=SimpleNamespace(
        points=np.vstack([q.basis.points, [[2, 2]]])))
    with pytest.raises(QuantisationError, match="multiplicit"):
        reference_form(fake)


def test_reference_form_is_balanced_where_chi_is_omega(square_problem, p2_problem):
    # chi = omega: the reference metric solves the continuum equation, and
    # its quantisation is balanced on arrival (P1xP1 to rounding, P2 to the
    # quadrature of its skew ray)
    for pb, bound in ((square_problem, 1e-14), (p2_problem, 1e-8)):
        for k in range(1, 9):
            q = pb.quantisation(k)
            assert q.mu0_norms(q.mu0(reference_form(q)))[0] <= bound, (pb.name, k)


@pytest.mark.parametrize("which", ["square_o21", "f1_stable"])
def test_reference_and_identity_starts_reach_one_balanced_form(request, which):
    if which == "f1_stable":
        q = f1_stable(128).quantisation(4)
    else:
        q = request.getfixturevalue(which).quantisation(8)
    starts = (HermitianForm.identity(q.n_plus_1, q.k), reference_form(q))
    ends = [q.iterate_to_balance(H, tol=1e-9, maxiter=500, norm="fro") for H in starts]
    assert all(res.converged for res in ends)
    d_id, d_ref = (res.H.det_normalised().diag() for res in ends)
    assert np.max(np.abs(d_ref / d_id - 1.0)) < 1e-6
    assert len(ends[1].history) < len(ends[0].history)


def test_iterate_divergence_report(square_problem):
    q = square_problem.quantisation(3)
    rng = np.random.default_rng(11)
    res = q.iterate_to_balance(random_diagonal(q, rng), tol=1e-16, maxiter=3,
                               norm="fro")
    assert not res.converged
    assert "no balanced metric" in res.message


def test_bergman_check_trend_and_mass(square_problem):
    pb = square_problem
    coeffs = np.array([0.5, -0.2, 0.1, -0.4])
    u = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    rows = bergman_check(pb.polytope, pb.chi, u, [2, 6], pb.rule, pb.gamma)
    assert rows[0]["deviation"] > rows[1]["deviation"]
    for row in rows:
        assert abs(row["mass"] - row["n_plus_1"]) < 1e-8 * row["n_plus_1"]


def test_bergman_check_symmetry_invariance(square_problem):
    # swapping the two axes of the data leaves the deviations unchanged
    pb = square_problem
    base = np.array([0.5, -0.2, 0.1, -0.4])
    pts = [tuple(p) for p in pb.polytope.lattice_points(1)]
    swapped = np.array([base[pts.index((p[1], p[0]))] for p in pts])
    u1 = pb.u_ref.with_log_coeffs(base)
    u2 = pb.u_ref.with_log_coeffs(swapped)
    r1 = bergman_check(pb.polytope, pb.chi, u1, [3], pb.rule, pb.gamma)
    r2 = bergman_check(pb.polytope, pb.chi, u2, [3], pb.rule, pb.gamma)
    assert abs(r1[0]["deviation"] - r2[0]["deviation"]) < 1e-10


def test_qk_operator(square_problem):
    pb = square_problem
    u = pb.u_ref
    X = pb.rule.nodes

    def make(k):
        return pb.quantisation(k)

    # reproducing property: Q_k(1) = (V/(N+1)) rho_k against the Hilb_Omega basis
    q = make(3)
    om = geo.volume_density(np.asarray(u.hessian(X))) * pb.rule.c_vol
    qf1, _ = qk_operator(q, np.ones(len(X)), u, om)
    logw = q.points @ X.T - q.k * u.value(X)[None, :]
    G = (np.exp(logw) * (q.weights * om)[None, :]).sum(axis=1)
    rho = (np.exp(logw) / G[:, None]).sum(axis=0)
    assert np.allclose(qf1, q.V / q.n_plus_1 * rho, rtol=1e-12)

    # linearity to machine precision
    f = np.exp(-0.5 * np.sum(X ** 2, axis=1))
    g_fun = np.cos(X[:, 0]) * np.exp(-0.3 * np.sum(X ** 2, axis=1))
    qa, _ = qk_operator(q, 2.0 * f - 3.0 * g_fun, u, om)
    qb, _ = qk_operator(q, f, u, om)
    qc, _ = qk_operator(q, g_fun, u, om)
    assert np.max(np.abs(qa - 2.0 * qb + 3.0 * qc)) < 1e-12

    # coordinate-symmetric bump: deviation decreases from k=3 to k=6
    _, dev3 = qk_operator(make(3), f, u, om)
    _, dev6 = qk_operator(make(6), f, u, om)
    assert dev6 < dev3


def test_bergman_check_and_qk_operator_hold_no_basis_by_node_array(square_o21):
    # k = 16 at resolution 80: (N+1) x M = 289 x 6400 doubles (14 MiB), over
    # ten block budgets.  Both functions stay within a few block arrays and
    # the level's vectors, and agree with the whole section weights
    # e^{<a, x> - k u}, formed here as one (N+1) x M array.
    pb = square_o21
    k = 16
    coeffs = np.array([0.5, -0.2, 0.1, -0.4])
    u = pb.u_ref.with_log_coeffs(coeffs - coeffs.mean())
    q = pb.quantisation(k)
    X = q.nodes
    n_plus_1, n_nodes = q.n_plus_1, len(X)
    assert 8 * n_plus_1 * n_nodes > 10 * kernel.NODE_BLOCK_BYTES
    om = geo.volume_density(np.asarray(u.hessian(X))) * q.rule.c_vol
    f = np.exp(-0.5 * np.sum(X ** 2, axis=1))

    def traced(run):
        tracemalloc.start()
        try:
            out = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * kernel.NODE_BLOCK_BYTES + 8 * TORUS_VECTORS * (n_plus_1 + n_nodes)
        return out

    (row,) = traced(lambda: bergman_check(pb.polytope, pb.chi, u, [k], pb.rule, pb.gamma))
    qf, dev = traced(lambda: qk_operator(q, f, u, om))

    W = np.exp(q.points @ X.T - k * u.value(X)[None, :])
    hess1 = np.asarray(u.hessian(X))
    mix = q.mixed_measure(u)
    G = W @ (q.weights * mix) / q.hilb_norm
    rho = (W / G[:, None]).sum(axis=0)
    target = pb.gamma * geo.volume_density(hess1) / geo.mixed_density(hess1, q.chi_hess)
    ref_dev = np.max(np.abs(rho * q.V / (n_plus_1 * target) - 1.0))
    ref_mass = q.rule.integrate(rho * mix) / q.hilb_norm
    assert row["n_plus_1"] == n_plus_1
    assert abs(row["deviation"] - ref_dev) <= 1e-12 * ref_dev
    assert abs(row["mass"] - ref_mass) <= 1e-12 * ref_mass

    base = W * (q.weights * om)[None, :]
    G, J = base.sum(axis=1), base @ f
    ref_qf = (q.V / n_plus_1) * ((J / G ** 2) @ W)
    ref_target = geo.volume_density(hess1) * q.rule.c_vol / om * f
    assert np.all(np.abs(qf - ref_qf) <= 1e-12 * np.abs(ref_qf))
    ref_qdev = np.max(np.abs(ref_qf - ref_target))
    assert abs(dev - ref_qdev) <= 1e-12 * ref_qdev


def test_uncalibrated_rule_rejected(square_problem):
    P = square_problem.polytope
    raw = geo.build_quadrature(P, 16)
    with pytest.raises(QuantisationError):
        Quantisation(P, square_problem.chi, 2, raw, gamma=1.0)
