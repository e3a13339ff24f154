from fractions import Fraction as Fr
from itertools import combinations, permutations
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hs

from jbalance import geometry as geo
from jbalance import stability as st
from jbalance.presets import normal_cone_from_facet


def p2_data(d=1):
    return st.SurfaceClassData.from_polytope(geo.polytope_preset("P2"), f"O({d})")


def p2_line_cfg(r=1, d=1):
    return st.NormalConeConfig(dd=1, l1d=1, l2d=d, kd=-3, r=r)


def test_j_constant_examples():
    P2 = geo.polytope_preset("P2")
    sq = geo.polytope_preset("P1xP1")
    for d in (1, 3):
        assert st.SurfaceClassData.from_polytope(P2, f"O({d})").gamma() == d
    for a, b in ((1, 1), (3, 1), (2, 5)):
        assert st.SurfaceClassData.from_polytope(sq, f"O({a},{b})").gamma() == Fr(a + b, 2)
    assert st.SurfaceClassData.from_polytope(P2, "K").gamma() == -3


def test_surface_class_data_validation():
    with pytest.raises(st.StabilityError):
        st.SurfaceClassData(l1l1=0, l1l2=1, l2l2=1, kl1=-3, kl2=-3, kk=9,
                            mori=(st.CurveClass("C", Fr(1), Fr(1), Fr(-3)),))
    with pytest.raises(st.StabilityError):
        st.SurfaceClassData(l1l1=1, l1l2=1, l2l2=1, kl1=-3, kl2=-3, kk=9,
                            mori=(st.CurveClass("C", Fr(0), Fr(1), Fr(-3)),))


def test_normal_cone_config_validation():
    with pytest.raises(st.StabilityError):
        st.NormalConeConfig(dd=1, l1d=0, l2d=1, kd=-3, r=1)
    with pytest.raises(st.StabilityError):
        st.NormalConeConfig(dd=1, l1d=1, l2d=1, kd=-3, r=0)
    with pytest.raises(st.StabilityError):
        st.NormalConeConfig(dd=1, l1d=1, l2d=1, kd=-3, r=1, r_min=2)
    # r defaults to r_min, and a bad r_min is named as such
    assert st.NormalConeConfig(dd=1, l1d=1, l2d=1, kd=-3, r_min="1/2").r == Fr(1, 2)
    assert st.NormalConeConfig(dd=1, l1d=1, l2d=1, kd=-3).r == 1
    with pytest.raises(st.StabilityError, match="r_min must be"):
        st.NormalConeConfig(dd=1, l1d=1, l2d=1, kd=-3, r_min=0.5)


def test_blowup_table_structure():
    table = st.blowup_table(p2_data(), p2_line_cfg())
    one = {"L1": Fr(1)}
    e = {"E": Fr(1)}
    l2 = {"L2": Fr(1)}
    # spec examples: L1.E^2 = -1, E^3 = -1, L2(O(d)).E^2 = -d
    assert table.product(one, e, e) == -1
    assert table.product(e, e, e) == -1
    t5 = st.blowup_table(p2_data(5), st.NormalConeConfig(dd=1, l1d=1, l2d=5, kd=-3, r=1))
    assert t5.product(l2, e, e) == -5
    # three pulled-back classes vanish; symmetry under permutation
    assert table.product(one, one, l2) == 0
    assert table.product(one, e, l2) == table.product(l2, one, e) == 0
    assert table.triple("L1", "E", "E") == table.triple("E", "L1", "E")
    # the four free entries are the centre's pairings, negated
    assert (table.e2l1, table.e2l2, table.e2k, table.e3) == (-1, -1, 3, -1)
    with pytest.raises(st.StabilityError, match="L1/X/L2 is not three of E, K, L1, L2"):
        table.triple("L1", "X", "L2")


def exact_polygon_strip_volume(r):
    """Independent toric oracle for (r L1 - E)^3 on the P^2/line blow-up.

    On the toric 3-fold the twisted bundle r L1 + F - E has momentum
    polytope Q = {(y, s): y in r Simplex, 0 <= s <= 1, y_1 >= 1 - s}, so
    (r L1 + F - E)^3 = 3! vol(Q) and (r L1 - E)^3 = 6 vol(Q) - 3 r^2 L1^2
    (subtracting 3 (r L1 - E)^2 F = 3 r^2 L1^2, the generic-fibre term).
    Volumes are exact rational strip integrals: area(y_1 >= u) over the
    r-simplex is quadratic in u, so Simpson in u is exact.
    """
    def area(u):
        # area of {y in r*simplex : y_1 >= u}, 0 <= u <= r
        return (Fr(r) - u) ** 2 / 2

    # vol(Q) = integral_0^1 area(1 - s) ds, integrand quadratic: Simpson exact
    vals = [area(Fr(1) - s) for s in (Fr(0), Fr(1, 2), Fr(1))]
    vol = (vals[0] + 4 * vals[1] + vals[2]) / 6
    return 6 * vol - 3 * Fr(r) ** 2


def test_blowup_against_toric_volume_oracle():
    for r in (1, 2, 3, 7):
        table = st.blowup_table(p2_data(), p2_line_cfg(r=r))
        A = {"L1": Fr(r), "E": Fr(-1)}
        assert table.product(A, A, A) == exact_polygon_strip_volume(r)
        assert table.product(A, A, A) == 1 - 3 * r  # closed form


def test_j_weight_p2_line():
    for d in (1, 2, 5):
        data = p2_data(d)
        table = st.blowup_table(data, st.NormalConeConfig(dd=1, l1d=1, l2d=d, kd=-3, r=1))
        for r in range(1, 11):
            assert st.j_weight(table, data.gamma(), r) == Fr(d) * (1 - Fr(2, 3 * r))
    with pytest.raises(st.StabilityError):
        st.j_weight(st.trivial_table(), Fr(1), 0)


def test_j_weight_trivial_configuration():
    for r in (1, 2, 7):
        assert st.j_weight(st.trivial_table(), Fr(5, 2), r) == 0


def test_j_weight_scales_with_l2():
    # scaling L2 -> c L2 scales gamma and the weight by c
    data1, data3 = p2_data(1), p2_data(3)
    t1 = st.blowup_table(data1, p2_line_cfg(d=1))
    t3 = st.blowup_table(data3, p2_line_cfg(d=3))
    for r in (1, 2, 5):
        assert st.j_weight(t3, data3.gamma(), r) == 3 * st.j_weight(t1, data1.gamma(), r)


def test_df_weight_p2_line():
    data = p2_data(1)
    table = st.blowup_table(data, p2_line_cfg())
    assert st.df_weight(table, data, 1) == 0
    for r in (2, 3, 10):
        df = st.df_weight(table, data, r)
        assert df == Fr(2) * (r - 1) ** 2 / r
        assert df > 0
    assert st.df_weight(st.trivial_table(), data, 4) == 0


def test_df_decomposition_identity():
    # DF = J-weight with L2 := K plus (r L1 - E)^2 . E, checked explicitly
    data = p2_data(1)
    table = st.blowup_table(data, p2_line_cfg())
    A = {"L1": Fr(3), "E": Fr(-1)}
    jk = st.j_weight(table, data.gamma_canonical(), 3)
    # j_weight with gamma_K pairs against L2; rebuild against K by hand
    jk = (-Fr(2, 3) * data.gamma_canonical() / 3 * table.product(A, A, A)
          + table.product(A, A, {"K": Fr(1)}))
    assert st.df_weight(table, data, 3) == jk + table.product(A, A, {"E": Fr(1)})


def test_inequality_checks_p2_line():
    data = p2_data(1)
    table = st.blowup_table(data, p2_line_cfg())
    for r in range(1, 8):
        rep = st.inequality_checks(table, r)
        assert rep["ii_exceptional"] == 2 * r - 1 > 0
        assert rep["iii_combined"] == 3 * r - 2 > 0
        assert rep["surface"] == r - 1
        assert rep["nef_pairings"]["L1"] <= 0
        assert rep["admissible"] == (r >= 1)
    assert st.inequality_checks(table, 1)["surface"] == 0


@pytest.mark.parametrize("r", [0, "-1/2"])
def test_inequality_checks_refuse_non_positive_r(r):
    # the same exponent check as j_weight and df_weight
    table = st.blowup_table(p2_data(), p2_line_cfg())
    for weight in (lambda: st.j_weight(table, 1, r), lambda: st.inequality_checks(table, r)):
        with pytest.raises(st.StabilityError, match="exponent r must be positive"):
            weight()


def test_chow_hilbert_weights():
    rng = np.random.default_rng(0)
    # zero weights give the zero normalised weight
    wp0 = st.WeightPolynomials(n=2, m=1, h=(Fr(1), Fr(0), Fr(0)),
                               w=(Fr(0),) * 4, hhat=(Fr(1), Fr(0)), what=(Fr(0),) * 3)
    out = st.chow_hilbert_weight(wp0, Fr(3))
    assert all(c == 0 for c in out["coeffs_in_k"])
    for _ in range(20):
        wp = st.WeightPolynomials(
            n=2, m=1,
            h=(Fr(int(rng.integers(1, 9)), int(rng.integers(1, 5))),) +
              tuple(Fr(int(rng.integers(-9, 9)), int(rng.integers(1, 5))) for _ in range(2)),
            w=tuple(Fr(int(rng.integers(-9, 9)), int(rng.integers(1, 5))) for _ in range(4)),
            hhat=(Fr(int(rng.integers(1, 9)), int(rng.integers(1, 5))), Fr(0)),
            what=tuple(Fr(int(rng.integers(-9, 9)), int(rng.integers(1, 5))) for _ in range(3)))
        out = st.chow_hilbert_weight(wp, Fr(7, 3))
        assert out["degree_k"] == 2
        assert len(out["coeffs_in_k"]) == 3
        assert out["e_top_leading_in_r"] == wp.b0_hat * wp.a0 - wp.b0 * wp.a0_hat
        # e_top evaluates the polynomial identity at the given r
        r = Fr(7, 3)
        hr = sum(c * r ** (2 - i) for i, c in enumerate(wp.h))
        wr = sum(c * r ** (3 - i) for i, c in enumerate(wp.w))
        assert out["e_top"] == wp.what[0] * r * hr - wr * wp.hhat[0]


def test_weight_polynomials_validation():
    with pytest.raises(st.StabilityError):
        st.WeightPolynomials(n=2, m=1, h=(Fr(1), Fr(0)), w=(Fr(0),) * 4,
                             hhat=(Fr(1), Fr(0)), what=(Fr(0),) * 3)
    with pytest.raises(st.StabilityError):
        st.WeightPolynomials(n=2, m=1, h=(Fr(-1), Fr(0), Fr(0)), w=(Fr(0),) * 4,
                             hhat=(Fr(1), Fr(0)), what=(Fr(0),) * 3)


def test_cone_criteria_p2():
    out = st.cone_criteria(p2_data(1))
    v = {x.name: x for x in out["verdicts"]}
    assert v["j_stable_sufficient"].holds and v["j_stable_sufficient"].margin == 0
    assert v["j_semistable_surface"].holds
    assert v["donaldson_necessary"].holds and v["donaldson_necessary"].margin == 1
    # K-criterion inapplicable on Fano (gamma_K < 0)
    assert not v["k_stable_cone"].applicable


def test_cone_criteria_inapplicable_gamma():
    data = st.SurfaceClassData.from_polytope(geo.polytope_preset("P2"), "K")
    out = st.cone_criteria(data)
    assert out["gamma"] == -3
    for v in out["verdicts"]:
        if v.name != "k_stable_cone":
            assert not v.applicable


def test_cone_criteria_asymmetric_polarisation():
    # (P^1 x P^1, L1 = O(2,3), L2 = O(1,1)): gamma = 5/12, and
    # gamma L1 - L2 pairs negatively against one ruling
    P = geo.DelzantPolytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 2, 3])
    data = st.SurfaceClassData.from_polytope(P, [0, 0, 1, 1])
    assert data.gamma() == Fr(5, 12)
    out = st.cone_criteria(data)
    v = {x.name: x for x in out["verdicts"]}
    margins = sorted(c.pair(data.gamma(), Fr(-1), Fr(0)) for c in data.mori)
    assert margins[0] < 0 < margins[1]
    assert not v["j_stable_sufficient"].holds
    assert v["j_stable_sufficient"].margin == margins[0]


def test_criteria_monotone_in_l2():
    # enlarging L2 by an ample class can only weaken the nef margin
    sq = geo.polytope_preset("P1xP1")
    prev = None
    for c in range(1, 5):
        data = st.SurfaceClassData.from_polytope(sq, f"O({c},{c})")
        margin = min(x.pair(data.gamma(), Fr(-1), Fr(0)) for x in data.mori)
        if prev is not None:
            assert margin <= prev
        prev = margin


def test_normal_cone_from_facet():
    cfg = normal_cone_from_facet(geo.polytope_preset("P2"), "O(1)", 0, r=2)
    assert (cfg.dd, cfg.l1d, cfg.l2d, cfg.kd) == (1, 1, 1, -3)
    sq = geo.polytope_preset("P1xP1")
    cfg = normal_cone_from_facet(sq, "O(2,1)", 0, r=1)
    assert (cfg.dd, cfg.l1d, cfg.l2d, cfg.kd) == (0, 1, 1, -2)


F1_UNSTABLE = geo.DelzantPolytope([[1, 0], [0, 1], [0, -1], [-1, -1]], [0, 0, 2, 3])


def seshadri_scan(P, i, step=Fr(1, 60)):
    """The largest multiple c of ``step`` with L1 - c D_i nef, read off the
    polygon: with facet i moved inward by c, every facet line still meets
    the polygon, that is, passes through one of its vertices."""
    normals = [tuple(map(int, n)) for n in P.normals]

    def nef(c):
        off = [Fr(int(o)) for o in P.offsets]
        off[i] -= c
        vertices = []
        for (n1, n2), (m1, m2), a, b in ((normals[a], normals[b], off[a], off[b])
                                         for a, b in combinations(range(len(normals)), 2)):
            det = n1 * m2 - n2 * m1
            if det:
                x, y = (n2 * b - m2 * a) / det, (m1 * a - n1 * b) / det
                if all(nx * x + ny * y + o >= 0 for (nx, ny), o in zip(normals, off)):
                    vertices.append((x, y))
        return all(any(nx * x + ny * y + o == 0 for x, y in vertices)
                   for (nx, ny), o in zip(normals, off))

    c = Fr(0)
    while nef(c + step):
        c += step
    return c


def test_normal_cone_r_min_is_the_exact_seshadri_bound():
    # r_min = 1/eps with eps the largest c such that L1 - c D is nef: 1 on
    # every facet of the presets, and (1, 2, 2, 1) on F1 with L1 = (0,0,2,3)
    polygons = [(geo.polytope_preset(name), "K") for name in geo.PRESET_POLYTOPES]
    for P, l2 in polygons + [(F1_UNSTABLE, [1, 1, 0, 2])]:
        eps = [1 / normal_cone_from_facet(P, l2, i).r_min for i in range(P.num_facets)]
        assert eps == [seshadri_scan(P, i) for i in range(P.num_facets)]
        assert all(type(e) is Fr for e in eps)
        if P is not F1_UNSTABLE:
            assert eps == [1] * P.num_facets
    assert eps == [1, 2, 2, 1]
    cfg = normal_cone_from_facet(F1_UNSTABLE, [1, 1, 0, 2], 1)
    assert cfg.r == cfg.r_min == Fr(1, 2)
    assert normal_cone_from_facet(F1_UNSTABLE, [1, 1, 0, 2], 2, r="1/2").r == Fr(1, 2)
    for facet, r in ((1, "49/100"), (0, "1/2"), (3, "1/2")):
        with pytest.raises(st.StabilityError, match=f"r = {r} below the declared r_min"):
            normal_cone_from_facet(F1_UNSTABLE, [1, 1, 0, 2], facet, r=r)


# ---------------------------------------------------------------------------
# closed-form pairings against the generic trilinear expansion
# ---------------------------------------------------------------------------

BASIS = ("L1", "L2", "K", "E")
rationals = hs.fractions(min_value=-20, max_value=20, max_denominator=12)
positive = hs.builds(Fr, hs.integers(1, 120), hs.integers(1, 12))


def tables():
    """A table of four drawn entries E^2.L1, E^2.L2, E^2.K and E^3."""
    return hs.builds(st.IntersectionTable, rationals, rationals, rationals, rationals)


def class_data(kl1, l1l1=Fr(1)):
    return st.SurfaceClassData(l1l1=l1l1, l1l2=1, l2l2=1, kl1=kl1, kl2=0, kk=0,
                               mori=(st.CurveClass("C", Fr(1), Fr(1), Fr(-3)),))


@given(tables(), positive, rationals, rationals, positive)
def test_weights_match_trilinear_expansion(table, r, gamma, kl1, l1l1):
    A = {"L1": r, "E": Fr(-1)}
    cube = table.product(A, A, A)
    assert st.j_weight(table, gamma, r) == (-Fr(2, 3) * gamma / r * cube
                                            + table.product(A, A, {"L2": Fr(1)}))
    data = class_data(kl1, l1l1)
    assert st.df_weight(table, data, r) == (
        -Fr(2, 3) * data.gamma_canonical() / r * cube
        + table.product(A, A, {"K": Fr(1)}) + table.product(A, A, {"E": Fr(1)}))


@given(tables(), positive, rationals, rationals, rationals)
def test_inequality_checks_match_trilinear_expansion(table, r, a1, a2, ak):
    A = {"L1": r, "E": Fr(-1)}
    nef = {"L1": a1, "L2": a2, "K": ak}
    rep = st.inequality_checks(table, r, nef_classes=[nef])
    assert rep["nef_pairings"] == {"L1": table.product(A, A, {"L1": Fr(1)}),
                                   "nef0": table.product(A, A, nef)}
    assert rep["ii_exceptional"] == table.product(A, A, {"E": Fr(1)})
    assert rep["iii_combined"] == table.product(A, A, {"L1": r, "E": Fr(2)})
    assert rep["surface"] == table.product(A, A, {"L1": r, "E": Fr(1)})
    assert rep["admissible"] == (max(rep["nef_pairings"].values()) <= 0
                                 and rep["ii_exceptional"] > 0
                                 and rep["iii_combined"] > 0 and rep["surface"] >= 0)


@given(tables())
def test_triple_symmetric_under_permutation(table):
    for key in cartesian(BASIS, repeat=3):
        values = {table.triple(*perm) for perm in permutations(key)}
        assert len(values) == 1


@given(rationals, positive, rationals, rationals, positive)
def test_blowup_cube_closed_form(dd, l1d, l2d, kd, r):
    cfg = st.NormalConeConfig(dd=dd, l1d=l1d, l2d=l2d, kd=kd, r=r, r_min=r)
    table = st.blowup_table(p2_data(), cfg)
    A = {"L1": r, "E": Fr(-1)}
    assert table.product(A, A, A) == dd - 3 * r * l1d
    assert table.product(A, A, {"E": Fr(1)}) == 2 * r * l1d - dd


def free_table(a=Fr(-1), b=Fr(0), c=Fr(0), e=Fr(-1), cls=st.IntersectionTable):
    """The ``cls`` table with free entries E^2.L1 = a, E^2.L2 = b,
    E^2.K = c and E^3 = e."""
    return cls(a, b, c, e)


def off_triple(triple, entry):
    """``triple`` with the free entry E^2.entry (E^3 for E) off by 1/7."""
    def skewed(self, a, b, c):
        t = triple(self, a, b, c)
        return t + Fr(1, 7) if sorted((a, b, c)) == sorted(("E", "E", entry)) else t

    return skewed


def test_certificate_refuses_df_identity_mismatch():
    # the trilinear side disagrees with the closed forms in E^2.K, which only
    # DF reads: the certificate that df_weight's closed form rests on
    # refuses it
    class Skewed(st.IntersectionTable):
        triple = off_triple(st.IntersectionTable.triple, "K")

    data = p2_data()
    table = free_table(cls=Skewed)
    with pytest.raises(st.StabilityError, match="closed form of df_weight at r = 1 "):
        st.certify_closed_forms(table, data.gamma(), data.gamma_canonical())


@pytest.mark.parametrize("entry", BASIS)
def test_table_refuses_square_off_the_expansion(monkeypatch, entry):
    # a trilinear side that is off by a constant in any one free entry is
    # refused by the certificate, on one table and on the proof grid, for
    # the first column that reads the entry (gamma != 0 on both)
    data = p2_data()
    st.certify_closed_forms(free_table(), data.gamma(), data.gamma_canonical())
    monkeypatch.setattr(st.IntersectionTable, "triple",
                        off_triple(st.IntersectionTable.triple, entry))
    match = f"closed form of {'df_weight' if entry == 'K' else 'j_weight'} at r = 1 "
    with pytest.raises(st.StabilityError, match=match):
        st.certify_closed_forms(free_table(), data.gamma(), data.gamma_canonical())
    with pytest.raises(st.StabilityError, match=match):
        prove_closed_forms_on_grid()


def test_rational_inputs_exact_and_floats_refused():
    assert st.rational("1/3", "x") == Fr(1, 3)
    assert st.rational("0.1", "x") == Fr(1, 10)
    assert st.rational(4, "x") == 4
    for bad in (0.1, 1.0, True, None, "abc", "1/0"):
        with pytest.raises(st.StabilityError, match="l1d"):
            st.rational(bad, "l1d")
    with pytest.raises(st.StabilityError, match="l1d"):
        st.NormalConeConfig(dd=1, l1d=0.1, l2d=1, kd=-3, r=1)


# ---------------------------------------------------------------------------
# closed-form sweep rows against the trilinear expansion
# ---------------------------------------------------------------------------

SWEEP_R = [Fr(r) for r in range(1, 61)] + [Fr(1, 10), Fr(7, 3), Fr(22, 7), Fr(3, 2), Fr(99, 100)]


def reference_row(table, gamma, gamma_k, r):
    """The sweep's five values and admissible at r from ``product``."""
    A = {"L1": r, "E": Fr(-1)}

    def pair(c):
        return table.product(A, A, c)

    cube = pair(A)
    ii, iii, surface = pair({"E": Fr(1)}), pair({"L1": r, "E": Fr(2)}), pair({"L1": r, "E": Fr(1)})
    return (-Fr(2, 3) * gamma / r * cube + pair({"L2": Fr(1)}),
            -Fr(2, 3) * gamma_k / r * cube + pair({"K": Fr(1)}) + ii, ii, iii, surface,
            pair({"L1": Fr(1)}) <= 0 and ii > 0 and iii > 0 and surface >= 0)


def assert_forms_match(table, data):
    forms = st.SweepForms(table, data.gamma(), data.gamma_canonical())
    assert forms.den > 0
    assert all(type(n) is int for form in forms.numerators for n in form)
    for r in SWEEP_R:
        *values, admissible = reference_row(table, data.gamma(), data.gamma_canonical(), r)
        # the CSV row: each value is str() of the reference Fraction
        assert forms.text_row(r) == [str(r), *map(str, values), admissible]


def test_sweep_forms_match_reference_on_every_preset_facet():
    from jbalance.presets import make_problem, problem_names
    for name in problem_names():
        problem = make_problem(name)
        data = problem.class_data()
        for facet in range(problem.polytope.num_facets):
            cfg = normal_cone_from_facet(problem.polytope, problem.l2_spec, facet)
            assert_forms_match(st.blowup_table(data, cfg), data)


@given(rationals, rationals, rationals, positive, rationals, positive, rationals, rationals)
def test_sweep_forms_match_reference_on_drawn_class_data(l1l2, kl1, dd, l1d, l2d, l1l1,
                                                         kd, kk):
    data = st.SurfaceClassData(l1l1=l1l1, l1l2=l1l2, l2l2=1, kl1=kl1, kl2=0, kk=kk,
                               mori=(st.CurveClass("C", Fr(1), Fr(1), Fr(-3)),))
    cfg = st.NormalConeConfig(dd=dd, l1d=l1d, l2d=l2d, kd=kd, r=1)
    assert_forms_match(st.blowup_table(data, cfg), data)


def test_ratio_text_is_str_of_the_fraction():
    for n in range(-60, 61):
        for d in range(1, 61):
            assert st.ratio_text(n, d) == str(Fr(n, d))
    assert st.ratio_text(-(3 ** 90), 2 ** 70 * 3 ** 5) == str(Fr(-(3 ** 90), 2 ** 70 * 3 ** 5))


def skew_form(monkeypatch, form):
    """Make the r coefficient of one shared closed form off by 1/7."""
    real = st.closed_forms

    def skewed(*args):
        forms = [list(f) for f in real(*args)]
        forms[form][1] += Fr(1, 7)
        return tuple(map(tuple, forms))

    monkeypatch.setattr(st, "closed_forms", skewed)


# fixed ids, so that the cases keep their names in test reports
@pytest.mark.parametrize("form, column", enumerate(st.SweepForms.COLUMNS), ids=[
    "_j_weight-j_weight", "_df_weight-df_weight", "ii_exceptional-ineq_ii",
    "iii_combined-ineq_iii", "surface-ineq_surface"])
def test_sweep_forms_refuse_a_disagreeing_form(monkeypatch, form, column):
    # a shared closed form off by a constant times r, which the public
    # weights and the sweep rows both read, is refused by the certificate
    # for its column, on one table and on the proof grid
    skew_form(monkeypatch, form)
    data = p2_data()
    table = st.blowup_table(data, p2_line_cfg())
    match = f"closed form of {column} at r = 1 "
    with pytest.raises(st.StabilityError, match=match):
        st.certify_closed_forms(table, data.gamma(), data.gamma_canonical())
    with pytest.raises(st.StabilityError, match=match):
        prove_closed_forms_on_grid()


# ---------------------------------------------------------------------------
# the closed forms proved for every table
# ---------------------------------------------------------------------------

# two values, with non-trivial denominators, for each of E^2.L1, E^2.L2,
# E^2.K, E^3, gamma and gamma_K
PROOF_GRID = ((Fr(-2, 3), Fr(5, 4)), (Fr(1, 5), Fr(-7, 2)), (Fr(3, 7), Fr(-9, 8)),
              (Fr(-5, 6), Fr(11, 9)), (Fr(1, 3), Fr(-4, 5)), (Fr(-3, 2), Fr(7, 10)))


def prove_closed_forms_on_grid():
    """certify_closed_forms at every point of PROOF_GRID (r = 1, 2, 3 inside).

    Times r, both sides of each identity have degree <= 1 in each of the
    six grid variables and <= 2 in r, and every table has the structural
    zeroes, so by the Combinatorial Nullstellensatz (Alon 1999) agreement
    on this grid is agreement for every table, gamma, gamma_K and r > 0."""
    for a, b, c, e, gamma, gamma_k in cartesian(*PROOF_GRID):
        st.certify_closed_forms(free_table(a, b, c, e), gamma, gamma_k)


def test_closed_forms_hold_for_every_table():
    prove_closed_forms_on_grid()


@pytest.mark.parametrize("form", range(5))
@pytest.mark.parametrize("power", range(3))
def test_proof_grid_refuses_a_skewed_numerator(monkeypatch, form, power):
    # one numerator of one form off by one: refused on one table, and the
    # grid proof fails
    real = st.SweepForms.__init__

    def skewed(self, *args):
        real(self, *args)
        nums = [list(n) for n in self.numerators]
        nums[form][power] += 1
        self.numerators = tuple(map(tuple, nums))

    monkeypatch.setattr(st.SweepForms, "__init__", skewed)
    match = f"closed form of {st.SweepForms.COLUMNS[form]} at r = 1 "
    data = p2_data()
    with pytest.raises(st.StabilityError, match=match):
        st.certify_closed_forms(st.blowup_table(data, p2_line_cfg()), data.gamma(),
                                data.gamma_canonical())
    with pytest.raises(st.StabilityError, match=match):
        prove_closed_forms_on_grid()


def test_proof_grid_refuses_a_skew_at_one_grid_point(monkeypatch):
    # a skew that vanishes at all but the last grid point, so no single
    # table but that one shows it: the grid visits it
    real = st.SweepForms.__init__
    last = tuple(values[-1] for values in PROOF_GRID)

    def skewed(self, table, gamma, gamma_k):
        real(self, table, gamma, gamma_k)
        point = (table.e2l1, table.e2l2, table.e2k, table.e3, gamma, gamma_k)
        if point == last:
            self.numerators = ((self.numerators[0][0] + 1, *self.numerators[0][1:]),
                               *self.numerators[1:])

    monkeypatch.setattr(st.SweepForms, "__init__", skewed)
    with pytest.raises(st.StabilityError, match="closed form of j_weight at r = 1 "):
        prove_closed_forms_on_grid()
    data = p2_data()
    st.certify_closed_forms(st.blowup_table(data, p2_line_cfg()), data.gamma(),
                            data.gamma_canonical())
