import os
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
from jbalance.stability import SurfaceClassData


def test_preset_polytopes_valid():
    for name in ("P2", "P1xP1", "F1"):
        P = geo.polytope_preset(name)
        assert P.volume() > 0
    with pytest.raises(geo.GeometryError):
        geo.polytope_preset("P3")


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


def corner_cut_polygon(base, scale, cuts):
    """The preset ``base`` scaled by ``scale``, with each (vertex, size) of
    ``cuts`` cutting off that vertex by a lattice corner of that size: the
    new facet's normal is the sum of the two at the vertex (a toric
    blow-up), so the result is Delzant unless a cut reaches a neighbour."""
    P = geo.polytope_preset(base)
    normals, offsets = P.normals.tolist(), (scale * P.offsets).tolist()
    for vertex, size in cuts:
        P = geo.DelzantPolytope(normals, offsets)
        v = P.vertices[vertex % len(P.vertices)]
        i, j = np.flatnonzero(np.abs(P.normals @ v + P.offsets) < 1e-9)
        normals.append((P.normals[i] + P.normals[j]).tolist())
        offsets.append(int(P.offsets[i] + P.offsets[j]) - size)
    return geo.DelzantPolytope(normals, offsets)


@given(hs.sampled_from(["P2", "P1xP1", "F1"]), hs.integers(2, 4),
       hs.lists(hs.tuples(hs.integers(0, 7), hs.integers(1, 2)), max_size=3))
def test_random_delzant_polygons_single_source(base, scale, cuts):
    try:
        P = corner_cut_polygon(base, scale, cuts)
    except geo.GeometryError:
        assume(False)
    on_facet = np.abs(P.vertices @ P.normals.T + P.offsets) < 1e-9
    assume(np.all(on_facet.sum(axis=0) == 2))  # every facet carries an edge
    area = P.volume()
    counts = [P.ehrhart_count(k) for k in range(1, 5)]
    assert all(d == 2 * area for d in np.diff(counts, 2))
    tab = geo.intersection_numbers(P, "L1")
    assert tab["L1L1"] == 2 * area
    # K.L1 is minus the lattice perimeter; K^2 = 12 - (number of rays)
    edges = [P.vertices[on_facet[:, i]] for i in range(P.num_facets)]
    lengths = [gcd(*(int(round(c)) for c in np.abs(e[1] - e[0]))) for e in edges]
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
        counts = [P.ehrhart_count(k) for k in range(1, 7)]
        second = np.diff(counts, 2)
        assert np.all(second == second[0])
        assert Fraction(int(second[0]), 2) == P.volume()


def test_intersection_numbers_examples():
    P2 = geo.polytope_preset("P2")
    sq = geo.polytope_preset("P1xP1")
    assert geo.intersection_numbers(P2, "O(1)")["L1L1"] == 1
    assert geo.intersection_numbers(sq, "O(1,1)")["L1L1"] == 2
    for a, b in ((1, 1), (3, 1), (0, 2)):
        assert geo.intersection_numbers(sq, f"O({a},{b})")["L1L2"] == a + b
    assert geo.intersection_numbers(P2, "K")["L1L2"] == -3


def test_intersection_table_symmetry_rejection():
    sq = geo.polytope_preset("P1xP1")
    with pytest.raises(geo.GeometryError):
        geo.intersection_numbers(sq, {"L1L2": 3, "L2L1": 4})


def test_mori_generators():
    P2 = geo.polytope_preset("P2")
    gens = geo.mori_generators(P2)
    assert len(gens) == 1
    line = gens[0]
    for d in (1, 2, 5):
        assert line.pair(geo.line_bundle_class(P2, f"O({d})")) == d

    sq = geo.polytope_preset("P1xP1")
    rulings = geo.mori_generators(sq)
    assert len(rulings) == 2
    for a, b, nef in ((1, 0, True), (0, 3, True), (-1, 2, False), (2, 2, True)):
        cls = geo.line_bundle_class(sq, f"O({a},{b})")
        assert geo.is_nef(sq, cls) == nef

    f1 = geo.polytope_preset("F1")
    gens = geo.mori_generators(f1)
    self_ints = sorted(g.self_intersection for g in gens)
    assert -1 in self_ints and 0 in self_ints  # -1-section and fiber present


def test_nef_monotone_under_ample():
    sq = geo.polytope_preset("P1xP1")
    amples = [geo.line_bundle_class(sq, "O(1,1)"), geo.line_bundle_class(sq, "O(2,1)")]
    for a in range(0, 3):
        for b in range(0, 3):
            cls = geo.line_bundle_class(sq, f"O({a},{b})")
            if geo.is_nef(sq, cls):
                for amp in amples:
                    assert geo.is_nef(sq, cls + amp)


def test_quadrature_logistic_density_1d():
    # integral over R of e^x/(1+e^x)^2 dx = 1
    P = geo.DelzantPolytope([[1], [-1]], [0, 1])
    rule = geo.build_quadrature(P, 48)
    x = rule.nodes[:, 0]
    vals = np.exp(x) / (1 + np.exp(x)) ** 2
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
    # P^1 sanity: total volume 1
    P1 = geo.DelzantPolytope([[1], [-1]], [0, 1])
    u1 = geo.reference_potential(P1)
    rule = geo.calibrate(geo.build_quadrature(P1, 48), P1, 1, u1)
    total = rule.integrate(geo.volume_density(np.asarray(u1.hessian(rule.nodes)))) * rule.c_vol
    assert abs(total - 1.0) < 1e-10

    # P^2, k=2: total mass k^n L1^2 = 4
    P2 = geo.polytope_preset("P2")
    u2 = geo.reference_potential(P2)
    rule2 = geo.calibrate(geo.build_quadrature(P2, 96), P2, 1, u2)
    dens = geo.volume_density(np.asarray(u2.hessian(rule2.nodes)) * 2)
    assert abs(rule2.integrate(dens) * rule2.c_vol - 4.0) < 4e-6

    # mixed measure cross-check on P1xP1, k=3, chi = gamma omega_ref
    sq = geo.polytope_preset("P1xP1")
    us = geo.reference_potential(sq)
    rs = geo.calibrate(geo.build_quadrature(sq, 64), sq, 1, us)
    hess = np.asarray(us.hessian(rs.nodes))
    mix = geo.mixed_density(hess * 3, hess)
    # = k^{n-1} gamma L1^2 = 3 * 1 * 2
    assert abs(rs.integrate(mix) * rs.c_vol - 6.0) < 1e-8


def test_calibrate_rejects_nonconvex():
    P1 = geo.DelzantPolytope([[1], [-1]], [0, 1])
    rule = geo.build_quadrature(P1, 16)

    class Concave(geo.PotentialField):
        dim = 1

        def hessian(self, X):
            return -np.ones((len(np.atleast_2d(X)), 1, 1))

    with pytest.raises(geo.GeometryError):
        geo.calibrate(rule, P1, 1, Concave())


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


def test_affine_tilt_preserves_hessian(square_problem):
    u = square_problem.u_ref
    tilted = geo.AffineTilt(u, [0.3, -0.2], 1.5)
    X = square_problem.rule.nodes[:40]
    assert np.allclose(tilted.hessian(X), u.hessian(X))
    assert not np.allclose(tilted.value(X), u.value(X))
