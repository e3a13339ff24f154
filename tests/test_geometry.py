import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction
from math import gcd

from hypothesis import assume, given
from hypothesis import strategies as hs

from jbalance import geometry as geo
from jbalance import kernel
from jbalance.stability import SurfaceClassData


def test_preset_polytopes_valid():
    for name in ("P2", "P1xP1", "F1"):
        P = geo.polytope_preset(name)
        assert P.volume() > 0
    with pytest.raises(geo.GeometryError):
        geo.polytope_preset("P3")


def test_preset_polygons_are_shared_and_read_only():
    # one instance per preset and process, so no caller may write into it
    from jbalance.presets import make_problem
    P = geo.polytope_preset("P2")
    assert geo.polytope_preset("P2") is P
    before = [P.normals.copy(), P.offsets.copy(), P.vertices.copy()]
    for arr in (P.normals, P.offsets, P.vertices):
        with pytest.raises(ValueError):
            arr[0] = 7
        with pytest.raises(ValueError):
            arr += 1
    for arr, old in zip((P.normals, P.offsets, P.vertices), before):
        assert np.array_equal(arr, old)
    a, b = make_problem("P1xP1-O11-O21"), make_problem("P1xP1-O11-O21")
    c = make_problem("P1xP1-O11-O11")
    assert a.polytope is b.polytope is c.polytope is geo.polytope_preset("P1xP1")
    # one pairing table per (polygon, L2) and process, shared and read-only
    assert a.pairings is b.pairings is geo.intersection_numbers(a.polytope, "O(2,1)")
    with pytest.raises(TypeError):
        a.pairings["L1L2"] = None
    assert b.pairings["L1L2"] == 3 and c.pairings["L1L2"] == 2


def test_rejects_bad_polytopes():
    # non-primitive normal
    with pytest.raises(geo.GeometryError):
        geo.DelzantPolytope([[2, 0], [0, 1], [-1, -1]], [0, 0, 1])
    # non-Delzant vertex (weighted projective style corner)
    with pytest.raises(geo.GeometryError):
        geo.DelzantPolytope([[1, 0], [0, 1], [-1, -2]], [0, 0, 2])
    # unbounded
    with pytest.raises(geo.GeometryError):
        geo.DelzantPolytope([[1, 0], [0, 1]], [0, 0])
    # not a polygon: an interval, and the unit cube
    with pytest.raises(geo.GeometryError, match="dimension 1"):
        geo.DelzantPolytope([[1], [-1]], [0, 2])
    with pytest.raises(geo.GeometryError, match="dimension 3"):
        geo.DelzantPolytope(np.vstack([np.eye(3), -np.eye(3)]).astype(int), [0, 0, 0, 1, 1, 1])


@pytest.mark.parametrize("normals, offsets, what", [
    ("x", [0], "normals"),
    ([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 1.7, 1], "offsets"),
    ([[1, 0], [0, 1], [-1, 0], [0, 0.5]], [0, 0, 1, 1], "normals"),
    ([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, [1], 1], "offsets"),
])
def test_rejects_non_integer_polytope_data(normals, offsets, what):
    # refused, never truncated to a different polytope
    with pytest.raises(geo.GeometryError, match=what):
        geo.DelzantPolytope(normals, offsets)


def test_integral_float_polytope_data_accepted():
    P = geo.DelzantPolytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 2.0, 1])
    assert P.offsets.tolist() == [0, 0, 2, 1]


def test_rejects_facet_without_edge():
    # the unit square plus a far-away facet: the inequality cuts out no edge
    # of P, and its divisor would get wrong Mori pairings
    with pytest.raises(geo.GeometryError, match="facet 4"):
        geo.DelzantPolytope([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1]], [0, 0, 1, 1, 5])


def test_lattice_points_spec_examples():
    P2 = geo.polytope_preset("P2")
    sq = geo.polytope_preset("P1xP1")
    basis = geo.enumerate_lattice_points(P2, 1)
    assert {tuple(p) for p in basis.points} == {(0, 0), (1, 0), (0, 1)}
    assert geo.enumerate_lattice_points(sq, 3).n_plus_1 == 16
    assert geo.enumerate_lattice_points(P2, 5).n_plus_1 == 21
    with pytest.raises(geo.GeometryError):
        P2.lattice_points(0)


def test_lattice_points_lexicographic():
    sq = geo.polytope_preset("P1xP1")
    pts = sq.lattice_points(2)
    as_tuples = [tuple(p) for p in pts]
    assert as_tuples == sorted(as_tuples)


def test_basis_hash_reproducible_across_processes():
    # different hash seeds: the salted built-in hash() would differ
    code = ("from jbalance.geometry import enumerate_lattice_points, polytope_preset; "
            "print(enumerate_lattice_points(polytope_preset('P2'), 3).basis_hash())")
    src = str(Path(geo.__file__).resolve().parents[1])
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert digests == {geo.enumerate_lattice_points(geo.polytope_preset("P2"), 3).basis_hash()}
    assert geo.enumerate_lattice_points(geo.polytope_preset("P2"), 4).basis_hash() not in digests
    assert re.fullmatch(r"crc32:[0-9a-f]{8}", digests.pop())


def corner_cut_polygon(base, scale, cuts):
    """The preset ``base`` scaled by ``scale``, with each (vertex, size) of
    ``cuts`` cutting off that vertex by a lattice corner of that size: the
    new facet's normal is the sum of the two at the vertex (a toric
    blow-up), so the result is Delzant unless a cut reaches a neighbour."""
    P = geo.polytope_preset(base)
    normals, offsets = list(P.int_normals), [scale * c for c in P.int_offsets]
    for vertex, size in cuts:
        P = geo.DelzantPolytope(normals, offsets)
        (i, a), (j, b) = incident_facets(P, P.int_vertices[vertex % len(P.int_vertices)])
        normals.append((a[0] + b[0], a[1] + b[1]))
        offsets.append(P.int_offsets[i] + P.int_offsets[j] - size)
    return geo.DelzantPolytope(normals, offsets)


def incident_facets(P, v):
    """(i, a_i) of the facets through the lattice point v, exactly."""
    return [(i, a) for i, (a, c) in enumerate(zip(P.int_normals, P.int_offsets))
            if a[0] * v[0] + a[1] * v[1] + c == 0]


@given(hs.sampled_from(["P2", "P1xP1", "F1"]), hs.integers(2, 4),
       hs.lists(hs.tuples(hs.integers(0, 7), hs.integers(1, 2)), max_size=3))
def test_random_delzant_polygons_single_source(base, scale, cuts):
    try:
        P = corner_cut_polygon(base, scale, cuts)
    except geo.GeometryError:
        assume(False)
    # each facet carries exactly two vertices, its edge's ends: read from the
    # integer data, with no tolerance (DelzantPolytope refuses a facet that
    # carries no edge)
    edges = [[v for v in P.int_vertices if i in dict(incident_facets(P, v))]
             for i in range(P.num_facets)]
    assert all(len(e) == 2 for e in edges)
    # counter-clockwise, in the order atan2 gives about their mean
    V = np.array(P.int_vertices, dtype=float) - np.mean(P.int_vertices, axis=0)
    assert np.all(np.diff(np.arctan2(V[:, 1], V[:, 0])) > 0)
    # the numpy copies are the integers'
    assert P.vertices.tolist() == [list(map(float, v)) for v in P.int_vertices]
    assert P.normals.tolist() == [list(a) for a in P.int_normals]
    area = P.volume()
    counts = [len(P.lattice_points(k)) for k in range(1, 5)]
    assert all(d == 2 * area for d in np.diff(counts, 2))
    assert counts == [P.ehrhart_count(k) for k in range(1, 5)]
    tab = geo.intersection_numbers(P, "L1")
    assert tab["L1L1"] == 2 * area
    # K.L1 is minus the lattice perimeter; K^2 = 12 - (number of rays)
    lengths = [gcd(p[0] - q[0], p[1] - q[1]) for p, q in edges]
    assert tab["KL1"] == -sum(lengths)
    assert tab["KK"] == 12 - P.num_facets
    data = SurfaceClassData.from_polytope(P, "L1")
    fields = (data.l1l1, data.l1l2, data.l2l2, data.kl1, data.kl2, data.kk)
    assert fields == tuple(tab[key] for key in ("L1L1", "L1L2", "L2L2", "KL1", "KL2", "KK"))
    for c in data.mori:
        assert c.l1 == c.l2 == lengths[int(c.name[1:])]


def test_ehrhart_degree_two():
    for name in ("P2", "P1xP1", "F1"):
        P = geo.polytope_preset(name)
        counts = [len(P.lattice_points(k)) for k in range(1, 7)]
        second = np.diff(counts, 2)
        assert np.all(second == second[0])
        assert Fraction(int(second[0]), 2) == P.volume()
        # the closed form (Pick) agrees with the enumeration
        assert counts == [P.ehrhart_count(k) for k in range(1, 7)]


def test_intersection_numbers_examples():
    P2 = geo.polytope_preset("P2")
    sq = geo.polytope_preset("P1xP1")
    assert geo.intersection_numbers(P2, "O(1)")["L1L1"] == 1
    assert geo.intersection_numbers(sq, "O(1,1)")["L1L1"] == 2
    for a, b in ((1, 1), (3, 1), (0, 2)):
        assert geo.intersection_numbers(sq, f"O({a},{b})")["L1L2"] == a + b
    assert geo.intersection_numbers(P2, "K")["L1L2"] == -3


def test_intersection_numbers_are_memoised_and_read_only():
    sq = geo.polytope_preset("P1xP1")
    tab = geo.intersection_numbers(sq, "O(2,1)")
    # one instance per key; a coefficient list and its string are two keys
    assert geo.intersection_numbers(sq, "O(2,1)") is tab
    assert geo.intersection_numbers(sq, [0, 0, 2, 1]) == tab
    assert geo.intersection_numbers(sq, [0, 0, 2, 1]) is geo.intersection_numbers(sq, (0, 0, 2, 1))
    for write in (lambda t: t.__setitem__("L1L2", 0), lambda t: t.pop("L1L2"),
                  lambda t: t.update(L1L2=0), lambda t: t.__delitem__("KK")):
        with pytest.raises((TypeError, AttributeError)):
            write(tab)
    assert dict(tab) == {"L1L1": 2, "L1L2": 3, "L2L2": 4, "KL1": -4, "KL2": -6, "KK": 8}
    with pytest.raises(geo.GeometryError):
        geo.intersection_numbers(sq, [0, 0, 2.5, 1])


def test_mori_generators():
    # the class data's Mori classes: the boundary curves D_i, one per
    # distinct column of (D_i . D_j), named after their first facet
    P2 = geo.polytope_preset("P2")
    for d in (1, 2, 5):
        mori = SurfaceClassData.from_polytope(P2, f"O({d})").mori
        assert len(mori) == 1
        assert (mori[0].l1, mori[0].l2, mori[0].k) == (1, d, -3)

    sq = geo.polytope_preset("P1xP1")
    for a, b, nef in ((1, 0, True), (0, 3, True), (-1, 2, False), (2, 2, True)):
        rulings = SurfaceClassData.from_polytope(sq, f"O({a},{b})").mori
        assert [c.name for c in rulings] == ["D0", "D1"]
        assert all(c.l2 >= 0 for c in rulings) == nef

    f1 = geo.polytope_preset("F1")
    gens = SurfaceClassData.from_polytope(f1, "L1").mori
    # adjunction on a smooth rational curve: C^2 = -2 - K.C, which is the
    # diagonal entry of the intersection matrix
    self_ints = [-2 - g.k for g in gens]
    assert self_ints == [f1.intersection_matrix[i, i] for i in (int(g.name[1:]) for g in gens)]
    assert -1 in self_ints and 0 in self_ints  # -1-section and fiber present


def test_nef_monotone_under_ample():
    # a nef L2 plus an ample class (L1 = O(1,1), or O(2,1)) is nef on every
    # Mori class
    sq = geo.polytope_preset("P1xP1")
    for a in range(0, 3):
        for b in range(0, 3):
            mori = SurfaceClassData.from_polytope(sq, f"O({a},{b})").mori
            if all(c.l2 >= 0 for c in mori):
                assert all(c.l1 + c.l2 >= 0 for c in mori)
                shifted = SurfaceClassData.from_polytope(sq, f"O({a + 2},{b + 1})").mori
                assert [c.name for c in shifted] == [c.name for c in mori]
                assert all(c.l2 >= 0 for c in shifted)


def test_gauss_legendre_matches_numpy_bit_for_bit():
    # the in-package rule repeats leggauss's arithmetic, so its nodes and
    # weights are the installed numpy's to the last bit
    for n in range(4, 321):
        x, w = geo.gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w), n


def test_gauss_legendre_kept_read_only(monkeypatch):
    # the rule depends only on n: later calls return the first call's arrays,
    # read-only, and the quadrature built from them is unchanged
    x, w = geo.gauss_legendre(96)
    again = geo.gauss_legendre(96)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    P = geo.polytope_preset("P2")
    rule = geo.build_quadrature(P, 96)
    monkeypatch.setattr(geo, "gauss_legendre", geo.gauss_legendre.__wrapped__)
    ref = geo.build_quadrature(P, 96)
    assert np.array_equal(rule.nodes, ref.nodes) and np.array_equal(rule.weights, ref.weights)


def test_build_quadrature_unchanged_at_each_preset_resolution(monkeypatch):
    # every preset's rule, nodes and weights, is the one numpy's leggauss gives
    from jbalance.presets import make_problem, problem_names
    cases = {(pb.polytope.name, pb.meta["resolution"]): pb.polytope
             for pb in map(make_problem, problem_names())}
    rules = {key: geo.build_quadrature(P, key[1]) for key, P in cases.items()}
    monkeypatch.setattr(geo, "gauss_legendre", np.polynomial.legendre.leggauss)
    for (name, res), P in cases.items():
        ref = geo.build_quadrature(P, res)
        assert np.array_equal(rules[name, res].nodes, ref.nodes), (name, res)
        assert np.array_equal(rules[name, res].weights, ref.weights), (name, res)


@pytest.mark.parametrize("name", geo.PRESET_POLYTOPES)
def test_quadrature_is_the_tensor_grid_of_its_axis_rules(name):
    # the layout the sums over the grid take for granted
    # (quantisation._TensorGrid): node i R + j is (xi1_i, xi2_j) and its
    # weight the product of the axis weights, bit for bit; the calibrated
    # rule shares the arrays
    P = geo.polytope_preset(name)
    for resolution in (16, 97):
        rule = geo.build_quadrature(P, resolution)
        t, w = geo.gauss_legendre(resolution)
        axis_rules = [geo._axis_rule(t, w, scale) for scale in rule.scales]
        assert all(np.array_equal(xi, x) for xi, (x, _) in zip(rule.axes, axis_rules))
        X = np.meshgrid(*rule.axes, indexing="ij")
        W = np.meshgrid(*(wd for _, wd in axis_rules), indexing="ij")
        assert rule.nodes.shape == (resolution ** 2, 2)
        assert np.array_equal(rule.nodes, np.stack([g.ravel() for g in X], axis=-1))
        assert np.array_equal(rule.weights, (W[0] * W[1]).ravel())
        calibrated = geo.calibrate(rule, P, geo.reference_potential(P))
        assert calibrated.calibrated and not rule.calibrated
        for field in ("axes", "nodes", "weights"):
            assert getattr(calibrated, field) is getattr(rule, field)


def test_quadrature_logistic_density_1d():
    # integral over R of e^x/(1+e^x)^2 dx = 1 on each axis of the tensor
    # rule, so the product density integrates to 1 over R^2
    rule = geo.build_quadrature(geo.polytope_preset("P1xP1"), 48)
    vals = np.prod(np.exp(rule.nodes) / (1 + np.exp(rule.nodes)) ** 2, axis=1)
    assert abs(rule.integrate(vals) - 1.0) < 1e-10


def test_quadrature_2d_against_finer_rule():
    # simplex-type integrand (skew denominator): algebraic convergence, so
    # the 10x finer rule serves as the oracle at the demonstrated tolerance
    sq = geo.polytope_preset("P1xP1")
    coarse = geo.build_quadrature(sq, 48)
    fine = geo.build_quadrature(sq, 480)

    def integrand(rule):
        x = rule.nodes
        den = 1 + np.exp(x[:, 0]) + np.exp(x[:, 1])
        return rule.integrate(np.exp(x[:, 0] + x[:, 1]) / den ** 3)

    oracle = integrand(fine)
    assert abs(oracle - 0.5) < 1e-9  # Dirichlet integral, exact value 1/2
    assert abs(integrand(coarse) - oracle) < 5e-6


def test_calibration_examples():
    # P^2, k=2: total mass k^n L1^2 = 4
    P2 = geo.polytope_preset("P2")
    u2 = geo.reference_potential(P2)
    rule2 = geo.calibrate(geo.build_quadrature(P2, 96), P2, u2)
    dens = geo.volume_density(np.asarray(u2.hessian(rule2.nodes)) * 2)
    assert abs(rule2.integrate(dens) * rule2.c_vol - 4.0) < 4e-6

    # mixed measure cross-check on P1xP1, k=3, chi = gamma omega_ref
    sq = geo.polytope_preset("P1xP1")
    us = geo.reference_potential(sq)
    rs = geo.calibrate(geo.build_quadrature(sq, 64), sq, us)
    hess = np.asarray(us.hessian(rs.nodes))
    mix = geo.mixed_density(hess * 3, hess)
    # = k^{n-1} gamma L1^2 = 3 * 1 * 2
    assert abs(rs.integrate(mix) * rs.c_vol - 6.0) < 1e-8


def test_calibrate_rejects_nonconvex():
    sq = geo.polytope_preset("P1xP1")
    rule = geo.build_quadrature(sq, 16)

    class Saddle(geo.PotentialField):
        dim = 2

        def hessian(self, X):
            # diag(1, -1): negative determinant at every node
            return np.tile(np.diag([1.0, -1.0]), (len(np.atleast_2d(X)), 1, 1))

    with pytest.raises(geo.GeometryError):
        geo.calibrate(rule, sq, Saddle())


def test_gamma_two_ways(square_o21):
    pb = square_o21
    hess_u = np.asarray(pb.u_ref.hessian(pb.rule.nodes))
    hess_v = np.asarray(pb.chi.hessian(pb.rule.nodes))
    g_quad = pb.rule.integrate(geo.mixed_density(hess_u, hess_v)) * pb.rule.c_vol / 2.0
    assert abs(g_quad / pb.gamma - 1.0) < 1e-6


def test_calibration_consistency_random_potentials(square_problem):
    pb = square_problem
    rng = np.random.default_rng(0)
    for k in (1, 2, 4):
        q = pb.quantisation(k)
        from conftest import random_diagonal
        u = q.fs_map(random_diagonal(q, rng))
        total = pb.rule.integrate(geo.volume_density(np.asarray(u.hessian(pb.rule.nodes)) * k))
        assert abs(total * pb.rule.c_vol / (k ** 2 * 2.0) - 1.0) < 1e-6


def test_node_blocks_cover_the_nodes_and_join_a_one_node_tail(monkeypatch):
    # 64 nodes per block: blocks start at multiples of 64, and a last block
    # of one node joins the one before it; the potential's values and
    # Hessians are those of one block, bit for bit
    points = geo.polytope_preset("P2").lattice_points(3).astype(float)
    rng = np.random.default_rng(5)
    u = geo.LogSumExpPotential(points, rng.uniform(-1.0, 1.0, len(points)))
    for n_nodes in (1, 63, 64, 65, 129, 130, 200):
        nodes = 4.0 * rng.standard_normal((n_nodes, 2))
        monkeypatch.setattr(kernel, "NODE_BLOCK_BYTES", 8 * len(points) * 256)
        value, hessian = u.value(nodes), u.hessian(nodes)
        monkeypatch.setattr(kernel, "NODE_BLOCK_BYTES", 8 * len(points) * 64)
        blocks = [block for block, _ in kernel.node_blocks(points, nodes)]
        assert [b.start for b in blocks] == list(range(0, 64 * len(blocks), 64))
        assert blocks[-1].stop == n_nodes
        assert all(b.stop - b.start > 1 for b in blocks) or n_nodes == 1
        assert np.array_equal(u.value(nodes), value)
        assert np.array_equal(u.hessian(nodes), hessian)


def test_node_blocks_lend_their_work_buffer_to_one_evaluation(monkeypatch):
    # two evaluations consumed in step each get a buffer of their own, so
    # neither overwrites the other's blocks
    points = geo.polytope_preset("P1xP1").lattice_points(2).astype(float)
    rng = np.random.default_rng(6)
    nodes = 3.0 * rng.standard_normal((300, 2))
    offsets = [rng.uniform(-1.0, 1.0, len(points)) for _ in range(2)]
    monkeypatch.setattr(kernel, "NODE_BLOCK_BYTES", 8 * len(points) * 64)
    alone = [[S.copy() for _, (_, S, _, _) in kernel.node_blocks(points, nodes, off, order=2)]
             for off in offsets]
    in_step = zip(*(kernel.node_blocks(points, nodes, off, order=2) for off in offsets))
    for i, ((_, (_, S0, _, _)), (_, (_, S1, _, _))) in enumerate(in_step):
        assert np.array_equal(S0, alone[0][i]) and np.array_equal(S1, alone[1][i])
    assert len(alone[0]) == 5
