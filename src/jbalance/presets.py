"""Named problem presets: a polarised toric surface, an auxiliary bundle L2,
the chi potential and a calibrated quadrature rule, bundled for the CLI,
the tests and the verification battery."""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .geometry import (AxisPotential, DelzantPolytope, GeometryError,
                       LogSumExpPotential, ScaledPotential, SumPotential, _read_only,
                       build_quadrature, calibrate, check_resolution, divisor_dots,
                       intersection_numbers, line_bundle_class,
                       polytope_preset, reference_potential, surface_classes)
from .stability import SurfaceClassData, j_constant


def l2_polytope(P, l2_spec):
    """Polytope of the nef line bundle sum_i c_i D_i on the same fan."""
    c = line_bundle_class(P, l2_spec)
    if any(v < 0 for v in c):
        raise GeometryError(f"bundle {l2_spec!r} has no polytope on this fan (not globally generated)")
    return DelzantPolytope(P.int_normals, c, name=f"{P.name}:{l2_spec}")


def chi_potential(P, l2_spec):
    """The chi form in c1(L2): the Fubini-Study type potential of the L2
    polytope."""
    return LogSumExpPotential(l2_polytope(P, l2_spec).lattice_points(1), level=1)


@dataclass
class Problem:
    """Everything a batch computation needs for one (M, L1, L2) triple.

    ``pairings`` is the read-only intersection_numbers table, one per
    (polygon, L2); gamma and the class data are read from it.  ``meta``
    holds the quadrature's ``resolution``; the reference potential, the rule
    and the chi form are built on first use, so work that reads only exact
    class data (the stability sweep) never pays for them.  A preset
    ``polytope`` is the one shared, read-only instance of ``polytope_preset``."""

    name: str
    polytope: DelzantPolytope
    l2_spec: object
    pairings: dict
    gamma_exact: Fraction
    meta: dict = field(default_factory=dict)

    @property
    def gamma(self):
        return float(self.gamma_exact)

    @cached_property
    def u_ref(self):
        """The reference potential of the polytope (level 1)."""
        return reference_potential(self.polytope)

    @cached_property
    def chi(self):
        """The chi form in c1(L2), or None when gamma <= 0 (only the
        stability machinery applies then).  Raises GeometryError when L2 has
        no polytope on the fan."""
        if self.gamma_exact <= 0:
            return None
        return chi_potential(self.polytope, self.l2_spec)

    @cached_property
    def rule(self):
        """The quadrature rule, calibrated against the reference potential."""
        return calibrate(self._quadrature, self.polytope, self.u_ref, hessian=self.ref_hessian)

    @cached_property
    def _quadrature(self):
        return build_quadrature(self.polytope, self.meta["resolution"])

    @cached_property
    def ref_hessian(self):
        """u_ref's Hessian at the rule's nodes (read-only), which calibration
        reads; the nodes do not depend on the calibration."""
        return _read_only(self.u_ref.hessian(self._quadrature.nodes), float)

    @cached_property
    def chi_hessian(self):
        """chi's Hessian at the rule's nodes (read-only), the same at every
        level.  Where chi has u_ref's exponent points (chi = omega, as on
        P2-O1-O1 and P1xP1-O11-O11) it is ref_hessian, bit for bit."""
        if np.array_equal(self.chi.points, self.u_ref.points):
            return self.ref_hessian
        return _read_only(self.chi.hessian(self.rule.nodes), float)

    def quantisation(self, k, n_theta=None):
        """Level-k Quantisation context.  ``n_theta`` is inert (see
        Quantisation); the benchmark's set-up probe still passes it."""
        from .quantisation import Quantisation, QuantisationError
        if self.chi is None:
            raise QuantisationError(
                f"problem {self.name!r} has no chi form (gamma <= 0); only the "
                f"stability machinery applies")
        return Quantisation(self.polytope, self.chi, k, self.rule,
                            gamma=self.gamma, n_theta=n_theta, chi_hess=self.chi_hessian)

    def class_data(self):
        return SurfaceClassData.from_polytope(self.polytope, self.l2_spec)


def separable_critical_potential(P, l2_spec):
    """Closed-form critical metric on a product fan.

    For L1, L2 with box polytopes [0, a_i], [0, b_i] and chi the reference
    form of L2 = sum_i v_i(x_i), the potential u = sum_i v_i / c_i with
    c_i = b_i / a_i satisfies chi wedge omega^{n-1} = gamma omega^n exactly,
    since the ratios v_i''/u_i'' = c_i average to gamma = (sum_i c_i)/n.
    """
    if any(np.sum(a != 0) > 1 for a in P.normals):
        raise GeometryError("separable critical metrics exist on product fans only")
    Q = l2_polytope(P, l2_spec)
    a = (P.vertices.max(axis=0) - P.vertices.min(axis=0))
    b = (Q.vertices.max(axis=0) - Q.vertices.min(axis=0))
    parts = []
    for axis in range(2):
        pts = np.arange(int(round(b[axis])) + 1, dtype=float)[:, None]
        v_i = LogSumExpPotential(pts, level=1)
        parts.append(AxisPotential(ScaledPotential(v_i, float(a[axis] / b[axis])), axis, 2))
    return SumPotential(parts)


def normal_cone_from_facet(P, l2_spec, facet_index=0, r=None):
    """NormalConeConfig for the centre D = D_i, a toric boundary divisor,
    with all pairings read exactly from the polygon's intersection matrix.

    r_min = 1/eps for the Seshadri-type constant eps of D, the largest c
    with L1 - c D nef.  On a toric surface nef is checked on the boundary
    curves D_j, and (L1 - c D).D_j = L1.D_j - c D.D_j falls with c only
    where D.D_j > 0, so eps is the least (L1.D_j) / (D.D_j) over those j.
    ``r`` defaults to r_min."""
    from .stability import NormalConeConfig, StabilityError
    if not 0 <= facet_index < P.num_facets:
        raise StabilityError(f"facet {facet_index} out of range: {P.name} has "
                             f"facets 0..{P.num_facets - 1}")
    l1_dots, l2_dots, k_dots = (divisor_dots(P, c) for c in surface_classes(P, l2_spec))
    column = P.int_intersection_matrix[facet_index]   # D.D_j, by symmetry
    # L1.D_j are the edge lengths
    eps = min(Fraction(l1, m) for l1, m in zip(l1_dots, column) if m > 0)
    r_min = 1 / eps
    return NormalConeConfig(dd=column[facet_index], l1d=l1_dots[facet_index],
                            l2d=l2_dots[facet_index], kd=k_dots[facet_index],
                            r=r_min if r is None else r, r_min=r_min, name=f"D{facet_index}")


_PRESET_L2 = {
    "P2-O1-O1": ("P2", "O(1)", 96),
    "P2-O1-O2": ("P2", "O(2)", 96),
    "P1xP1-O11-O11": ("P1xP1", "O(1,1)", 64),
    "P1xP1-O11-O21": ("P1xP1", "O(2,1)", 64),
    "P1xP1-O11-O31": ("P1xP1", "O(3,1)", 64),
}


def problem_names():
    return sorted(_PRESET_L2)


def make_problem(name, resolution=None, polytope=None, l2_spec=None):
    """Build a Problem from a preset name, or from explicit polytope + L2
    data under any other name; a preset name with either is refused.

    The resolution is checked here; the quadrature rule is built at it and
    calibrated against the reference potential on first use of
    ``Problem.rule``.  Preset defaults: 64 on product fans,
    96 on P^2 (its skew ray converges algebraically); 48 is the documented
    minimum for the level-4 trace-identity health bound of 1e-6 on product
    fans, and k = 8 work should use 80+.
    """
    if name in _PRESET_L2:
        if polytope is not None or l2_spec is not None:
            raise GeometryError(f"problem {name!r} is a preset, which takes no "
                                f"polytope or l2_spec; name a custom problem otherwise")
        pname, l2, default_res = _PRESET_L2[name]
        P = polytope_preset(pname)
        resolution = default_res if resolution is None else resolution
    elif polytope is not None and l2_spec is not None:
        resolution = 64 if resolution is None else resolution
        P = polytope_preset(polytope) if isinstance(polytope, str) else polytope
        l2 = l2_spec
    else:
        raise GeometryError(f"unknown problem {name!r}; presets: {problem_names()}")
    check_resolution(resolution)
    pairings = intersection_numbers(P, l2)
    gamma = j_constant(pairings["L1L2"], pairings["L1L1"])
    # chi needs gamma > 0 and a globally generated L2, and is built on first
    # use; stability-only runs (e.g. L2 = K on a Fano) work from the class
    # data alone
    return Problem(name=name, polytope=P, l2_spec=l2, pairings=pairings,
                   gamma_exact=gamma, meta={"resolution": resolution})
