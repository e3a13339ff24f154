"""Toric-surface backend in torus-invariant log coordinates.

A polarised toric surface (M, L1) is encoded by a Delzant lattice polytope P:
sections of L1^k are the lattice points of kP, metrics are convex potentials
on R^n, and volume forms become densities det(D^2 u) dx after an analytic
angular reduction.  All 2*pi-type constants are absorbed into a single
calibrated constant ``c_vol`` (close to n!), fixed so that the total volume
of the reference Monge-Ampere density equals the intersection number L1^n.

A polygon's lattice data are Python ints, its source of truth; its numpy
arrays are read-only copies, made once, for the float kernels.  Intersection
numbers come from the normal fan in exact arithmetic; the surface's Mori cone
is read off the same fan by stability.SurfaceClassData.from_polytope.

Every closed-form metric of the package is one LogSumExpPotential: the
reference Fubini-Study potentials, the chi forms, FS(H) for torus-invariant H
and the separable critical metrics of product fans.  SumPotential adds
potentials and GaussianBump is a bump to add to one.  Each gives ``value``
and ``hessian`` at nodes X (M, n), and each is normalised per level: the
fibre metric of L1^k is e^{-k u}, and the level-k curvature form has density
coming from D^2(k u) = k * hessian(u).
"""

import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import gcd
from operator import mul
from types import MappingProxyType

import numpy as np

from .kernel import node_blocks

# preset name -> (inward facet normals, offsets)
_PRESET_FACETS = {
    "P2": ([[1, 0], [0, 1], [-1, -1]], [0, 0, 1]),
    "P1xP1": ([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, 1, 1]),
    "F1": ([[1, 0], [0, 1], [0, -1], [-1, -1]], [0, 0, 1, 2]),
}
PRESET_POLYTOPES = tuple(_PRESET_FACETS)


class GeometryError(ValueError):
    """Invalid polytope, divisor or quadrature data."""


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

class LogSumExpPotential:
    """Potential u(x) = (log sum_a c_a e^{<p_a, x>} + offset) / level.

    ``level`` is any positive number: an FS potential's k, or b_i / a_i on
    axis i of a separable critical metric.  The gradient of ``level * u`` is the
    softmax average of the exponent points and therefore lies in the interior
    of their convex hull (the dilated polytope); the Hessian is the softmax
    covariance, so strict convexity holds whenever the points affinely span.
    Both are reduced by kernel.node_blocks from the log-weights points @ X^T
    + log_coeffs at the nodes X (M, n), a block of nodes at a time.
    """

    def __init__(self, points, log_coeffs=None, level=1, offset=0.0):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.dim = self.points.shape[1]
        if log_coeffs is None:
            log_coeffs = np.zeros(len(self.points))
        self.log_coeffs = np.asarray(log_coeffs, dtype=float)
        if self.log_coeffs.shape != (len(self.points),):
            raise GeometryError("one log-coefficient per exponent point required")
        if not 0 < level < np.inf:
            raise GeometryError(f"potential level must be positive and finite, got {level!r}")
        self.level = level
        self.offset = float(offset)

    def value(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(len(X))
        for block, (lse, _, _, _) in node_blocks(self.points, X, self.log_coeffs, order=0):
            out[block] = lse
        return (out + self.offset) / self.level

    def hessian(self, X):
        # (M, n, n), laid out component-major as the kernel returns it
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cov = np.empty((self.dim, self.dim, len(X)))
        for block, (_, _, _, cov_block) in node_blocks(self.points, X, self.log_coeffs, order=2):
            cov[..., block] = cov_block
        return np.moveaxis(cov, -1, 0) / self.level

    def with_log_coeffs(self, log_coeffs):
        return LogSumExpPotential(self.points, log_coeffs, self.level, self.offset)


class SumPotential:
    """Sum of potentials (separable metrics on product fans, bump additions)."""

    def __init__(self, parts):
        self.parts = list(parts)

    def value(self, X):
        return sum(p.value(X) for p in self.parts)

    def hessian(self, X):
        return sum(np.asarray(p.hessian(X)) for p in self.parts)


class GaussianBump:
    """amp * exp(-|x - c|^2 / (2 sigma^2)): a smooth bulk-localised
    perturbation with analytic derivatives (not convex on its own)."""

    def __init__(self, amplitude, center, sigma, dim=2):
        self.amplitude = float(amplitude)
        self.center = np.asarray(center, dtype=float)
        self.sigma = float(sigma)
        self.dim = int(dim)

    def _g(self, X):
        D = np.atleast_2d(X) - self.center
        return D, self.amplitude * np.exp(-0.5 * np.sum(D ** 2, axis=1) / self.sigma ** 2)

    def value(self, X):
        return self._g(X)[1]

    def hessian(self, X):
        D, g = self._g(X)
        s2 = self.sigma ** 2
        eye = np.eye(self.dim)
        return (np.einsum("pi,pj->pij", D, D) / s2 - eye[None]) * (-g / s2)[:, None, None]


# ---------------------------------------------------------------------------
# Delzant polytopes
# ---------------------------------------------------------------------------

def _integer_array(data, what):
    """``data`` as an int64 array, refused with a GeometryError unless every
    entry is an integer (integral floats included), so that lattice data is
    never truncated."""
    try:
        arr = np.asarray(data)
    except ValueError:      # ragged nesting; an object array is refused below
        arr = np.asarray(None)
    kind = arr.dtype.kind
    if not (kind in "iu" or (kind == "f" and np.all(np.abs(arr) < 2.0 ** 53)
                             and np.all(arr == np.round(arr)))):
        raise GeometryError(f"{what} must be integers, got {data!r}")
    return arr.astype(np.int64)


def _angle(dx, dy):
    """A value that increases with atan2(dy, dx) over (-pi, pi], exact for a
    rational (dx, dy): the signed "diamond angle" in (-2, 2], 0 at (0, 0)."""
    t = Fraction(dy, abs(dx) + abs(dy) or 1)
    return t if dx >= 0 else (2 - t if dy >= 0 else -2 - t)


def _read_only(data, dtype):
    arr = np.array(data, dtype=dtype)
    arr.setflags(write=False)
    return arr


class DelzantPolytope:
    """Lattice polytope {x : <a_i, x> + c_i >= 0} with unimodular vertex cones.

    The facet data are validated once, in exact arithmetic, and the Python
    ints are the polygon's source of truth: ``int_normals`` (the inward
    primitive facet normals a_i), ``int_offsets`` (the c_i) and
    ``int_vertices`` (counter-clockwise).  Only polygons (n = 2, toric
    surfaces) are accepted.  The numpy ``normals``, ``offsets`` and
    ``vertices`` (float) are read-only copies made once, on first use, for
    the float kernels, so one instance can be shared (``polytope_preset``).
    """

    def __init__(self, normals, offsets, name=None):
        normals = _integer_array(normals, "facet normals")
        offsets = _integer_array(offsets, "facet offsets")
        self.name = name
        if normals.ndim != 2 or offsets.ndim != 1 or len(normals) != len(offsets):
            raise GeometryError("need one offset per facet normal")
        self.dim = normals.shape[1]
        if self.dim != 2:
            raise GeometryError(f"polytope dimension {self.dim}: only polygons "
                                f"(toric surfaces, n = 2) are supported")
        self.int_normals = tuple(map(tuple, normals.tolist()))
        self.int_offsets = tuple(offsets.tolist())
        for a in self.int_normals:
            if gcd(*a) != 1:
                raise GeometryError(f"facet normal {list(a)} is not primitive")
        self.int_vertices = self._compute_vertices()
        self._validate()

    normals = cached_property(lambda self: _read_only(self.int_normals, np.int64))
    offsets = cached_property(lambda self: _read_only(self.int_offsets, np.int64))
    vertices = cached_property(lambda self: _read_only(self.int_vertices, float))

    @cached_property
    def int_intersection_matrix(self):
        """(D_i . D_j) (divisor_intersection_matrix), built on first use:
        the one copy that pair_classes and the class data read."""
        return divisor_intersection_matrix(self)

    @property
    def num_facets(self):
        return len(self.int_normals)

    def _compute_vertices(self):
        # two non-parallel facet lines meet at (nx, ny) / det (Cramer's
        # rule), a corner of P when every a.(nx, ny) + c det has the sign of
        # det or is 0; a coordinate det does not divide stays a Fraction (no
        # lattice point), and the corners are sorted by angle about their mean
        facets = tuple(zip(self.int_normals, self.int_offsets))
        verts = set()
        for ((a0, a1), c), ((b0, b1), d) in combinations(facets, 2):
            det = a0 * b1 - a1 * b0
            nx, ny = a1 * d - b1 * c, b0 * c - a0 * d
            if det and all((e0 * nx + e1 * ny + e * det) * det >= 0
                           for (e0, e1), e in facets):
                verts.add(tuple(Fraction(n, det) if n % det else n // det for n in (nx, ny)))
        if len(verts) < 3:
            raise GeometryError("polytope is not a bounded 2d body")
        m, sx, sy = len(verts), *map(sum, zip(*verts))
        return tuple(sorted(verts, key=lambda v: _angle(m * v[0] - sx, m * v[1] - sy)))

    def _validate(self):
        # vertices must be lattice points reproducing the facet data, at
        # each vertex the active normals must form a Z-basis (Delzant), and
        # each facet must carry n vertices: an inequality that cuts out no
        # edge is redundant, and its divisor would get wrong pairings.  All
        # of it is exact, so no tolerance enters.
        if any(isinstance(c, Fraction) for v in self.int_vertices for c in v):
            raise GeometryError("vertices are not lattice points")
        facets = tuple(zip(self.int_normals, self.int_offsets))
        on = [[i for i, ((a0, a1), c) in enumerate(facets) if a0 * x + a1 * y + c == 0]
              for x, y in self.int_vertices]
        for v, active in zip(self.int_vertices, on):
            if len(active) != self.dim:
                raise GeometryError(f"vertex {v}: {len(active)} active facets, "
                                    f"expected {self.dim}")
            (a0, a1), (b0, b1) = (self.int_normals[i] for i in active)
            if abs(a0 * b1 - a1 * b0) != 1:
                raise GeometryError(f"vertex {v}: normals do not form a Z-basis")
        for i in range(len(facets)):
            count = sum(i in active for active in on)
            if count < self.dim:
                raise GeometryError(
                    f"facet {i} (normal {list(self.int_normals[i])}, offset "
                    f"{self.int_offsets[i]}) carries {count} vertices, expected "
                    f"{self.dim}: the inequality is redundant")
        if self.volume() <= 0:
            raise GeometryError("empty interior")

    def volume(self):
        """Euclidean area of P as an exact Fraction (shoelace)."""
        V = self.int_vertices
        return Fraction(abs(sum(x0 * y1 - x1 * y0
                                for (x0, y0), (x1, y1) in zip(V, V[1:] + V[:1]))), 2)

    def lattice_points(self, k):
        """All points of kP cap Z^n in lexicographic order (int64): the
        lattice points of kP's bounding box, k times the vertices' box, that
        pass every facet inequality, tested exactly in integers."""
        if k < 1 or k != int(k):
            raise GeometryError("level k must be a positive integer")
        k = int(k)
        axes = [np.arange(k * min(c), k * max(c) + 1) for c in zip(*self.int_vertices)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        return grid[np.all(grid @ self.normals.T + k * self.offsets >= 0, axis=1)]

    def ehrhart_count(self, k):
        """Number of lattice points of kP, in closed form (nothing is
        enumerated): by Pick's theorem, area k^2 + (boundary points) k / 2 + 1."""
        if k < 1 or k != int(k):
            raise GeometryError("level k must be a positive integer")
        k = int(k)
        V = self.int_vertices
        boundary = sum(gcd(V[i][0] - V[i - 1][0], V[i][1] - V[i - 1][1])
                       for i in range(len(V)))
        return int(self.volume() * k * k + Fraction(boundary * k, 2) + 1)


@cache
def polytope_preset(name):
    """Named polarised toric surfaces: P2 = (P^2, O(1)), P1xP1 = (P^1xP^1,
    O(1,1)), F1 = first Hirzebruch surface with the standard trapezoid.
    Each is built once per process; every call returns that instance."""
    if name not in _PRESET_FACETS:
        raise GeometryError(f"unknown preset {name!r}; options: {PRESET_POLYTOPES}")
    return DelzantPolytope(*_PRESET_FACETS[name], name=name)


# ---------------------------------------------------------------------------
# section bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSectionBasis:
    """Monomial basis of H^0(M, L1^k): the lattice points of kP."""

    level: int
    points: np.ndarray

    @property
    def n_plus_1(self):
        return len(self.points)

    def basis_hash(self):
        """``"crc32:"`` and the CRC-32 (8 hex digits) of the level, the shape
        and the points: stable across processes and machines (unlike the
        salted built-in ``hash``).  A stamp, not a digest: nothing reads it
        back."""
        crc = zlib.crc32(f"{self.level}:{self.points.shape}".encode())
        crc = zlib.crc32(np.ascontiguousarray(self.points, dtype="<i8").tobytes(), crc)
        return f"crc32:{crc:08x}"


def enumerate_lattice_points(P, k):
    """Section basis for L1^k, lexicographically ordered (global convention)."""
    pts = P.lattice_points(k)
    return LatticeSectionBasis(level=int(k), points=pts)


# ---------------------------------------------------------------------------
# intersection theory on the surface (exact)
# ---------------------------------------------------------------------------

def divisor_intersection_matrix(P):
    """Matrix (D_i . D_j) of boundary divisors of the smooth toric surface,
    as a tuple of rows of ints.

    Adjacent rays meet once; self-intersections from v_{i-1} + v_{i+1} = b v_i
    giving D_i^2 = -b.  Indexing follows P.int_normals.
    """
    rays = P.int_normals
    d = len(rays)
    order = sorted(range(d), key=lambda i: _angle(*rays[i]))    # counter-clockwise
    M = [[0] * d for _ in range(d)]
    for pos, i in enumerate(order):
        ip, im = order[(pos + 1) % d], order[pos - 1]
        M[i][ip] = M[ip][i] = 1
        v = rays[i]
        s = (rays[im][0] + rays[ip][0], rays[im][1] + rays[ip][1])
        # s = b * v with b integer by smoothness
        b = s[0] // v[0] if v[0] != 0 else s[1] // v[1]
        if s != (b * v[0], b * v[1]):
            raise GeometryError(f"fan is not smooth at ray {list(v)}")
        M[i][i] = -b
    return tuple(map(tuple, M))


def line_bundle_class(P, spec):
    """Coefficient vector of a divisor class sum_i c_i D_i, a tuple of ints.

    ``spec`` may be: a coefficient sequence; "L1" (the polarisation, with
    c_i = offsets); "K" (canonical class, all -1); or for the presets the
    strings "O(d)" on P2 and "O(a,b)" on P1xP1.
    """
    if isinstance(spec, str):
        s = spec.strip()
        if s == "L1":
            return P.int_offsets
        if s == "K":
            return (-1,) * P.num_facets
        if s.startswith("O(") and s.endswith(")"):
            args = [int(t) for t in s[2:-1].split(",")]
            if (P.name, len(args)) in (("P2", 1), ("P1xP1", 2)):
                return (0, 0, *args)
            raise GeometryError(f"bundle {spec!r} not defined on preset {P.name!r}")
        raise GeometryError(f"cannot parse divisor class {spec!r}")
    c = _integer_array(spec, "divisor class coefficients")
    if c.shape != (P.num_facets,):
        raise GeometryError("divisor class needs one coefficient per facet")
    return tuple(c.tolist())


def surface_classes(P, l2_spec):
    """Class vectors (L1, L2, K) of the surface over its facet divisors;
    the one place they are formed (see line_bundle_class for l2_spec)."""
    return (line_bundle_class(P, "L1"), line_bundle_class(P, l2_spec),
            line_bundle_class(P, "K"))


def divisor_dots(P, c):
    """The pairings (c . D_j) of the class sum_i c_i D_i with each facet
    divisor D_j, as a tuple of ints."""
    return tuple(sum(map(mul, c, column)) for column in zip(*P.int_intersection_matrix))


def pair_classes(P, c1, c2):
    return sum(map(mul, divisor_dots(P, c1), c2))


def intersection_numbers(P, l2_spec="L1"):
    """Surface pairing table {L1^2, L1.L2, L2^2, K.L1, K.L2, K^2}, read-only.

    ``l2_spec`` follows line_bundle_class.  A table is computed once per
    (polygon, L2) and kept on the polygon, so later calls return that one
    instance.
    """
    memo = P.__dict__.setdefault("_intersections", {})
    key = l2_spec if isinstance(l2_spec, str) else line_bundle_class(P, l2_spec)
    if key not in memo:
        memo[key] = MappingProxyType(_pairing_table(P, l2_spec))
    return memo[key]


def _pairing_table(P, l2_spec):
    c = dict(zip(("L1", "L2", "K"), surface_classes(P, l2_spec)))
    tab = {a + b: pair_classes(P, c[a], c[b]) for a, b in (
        ("L1", "L1"), ("L1", "L2"), ("L2", "L2"), ("K", "L1"), ("K", "L2"), ("K", "K"))}
    if tab["L1L1"] != 2 * P.volume():
        raise GeometryError("L1^2 disagrees with 2 vol(P); fan/offset data corrupt")
    return tab


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss-Legendre rule pushed to R^2 by per-axis logistic maps.

    ``axes`` = (xi1, xi2) are the nodes of the two axis rules, and node
    i R + j is (xi1_i, xi2_j) with weight the product of the axis weights;
    build_quadrature forms ``nodes`` and ``weights`` so, and the sums over
    the grid (quantisation._TensorGrid) read the layout from ``axes``.
    ``c_vol`` is 1.0 until ``calibrate`` is run, which sets ``calibrated``;
    afterwards integral of det(D^2 u_ref) * c_vol equals L1^n by
    construction and every pi/2pi convention is absorbed.
    """

    axes: tuple                # (xi1, xi2), R nodes each
    nodes: np.ndarray          # (R^2, 2)
    weights: np.ndarray        # (R^2,) all positive
    resolution: int            # R
    scales: np.ndarray
    c_vol: float = 1.0
    calibrated: bool = False

    def integrate(self, density_values):
        """Integral of a density given by its values at the nodes (no c_vol)."""
        return float(self.weights @ np.asarray(density_values))


def _axis_rule(t, w, scale):
    """The Gauss-Legendre rule (t, w) on [-1, 1] mapped to the real line by
    x = scale*log(s/(1-s)), s = (t+1)/2."""
    s = 0.5 * (t + 1.0)
    x = scale * np.log(s / (1.0 - s))
    jac = 0.5 * scale / (s * (1.0 - s))
    return x, w * jac


@cache
def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] for n >= 2 nodes, bit for
    bit those of ``np.polynomial.legendre.leggauss(n)`` (numpy 2.4), whose
    arithmetic this repeats without loading numpy.polynomial: the
    eigenvalues of the symmetric companion matrix of L_n (Golub-Welsch), one
    Newton step, and the weights 1 / (L_{n-1} L_n') scaled, symmetrised and
    normalised to total 2.  Only leggauss's terms that are exactly 0 for L_n
    are left out, and L_n's derivative series is written in closed form
    (small integers, so exact either way).  Computed once per n, read-only."""
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    mat = np.zeros((n, n))
    off = np.arange(1, n) * scl[:n - 1] * scl[1:n]
    mat.reshape(-1)[1::n + 1] = off
    mat.reshape(-1)[n::n + 1] = off
    x = np.linalg.eigvalsh(mat)
    # L_n and L_n' (exact), stacked and summed in one sweep: L_n' is padded
    # by a zero, whose step leaves its recursion where legval starts it
    c = np.zeros((n + 1, 2, 1))
    c[n, 0] = 1.0
    j = np.arange(n)
    c[:n, 1, 0] = np.where((n - j) % 2 == 1, 2.0 * j + 1.0, 0.0)
    dy, df = _legendre_series(x, c)
    x -= dy / df
    fm = _legendre_series(x, c[1:, 0, 0])           # L_{n-1}
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2. / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_series(x, c):
    """sum_i c_i L_i(x) for len(c) >= 2 by Clenshaw's recursion, in the
    operation order of numpy's ``legval``; coefficients c_i of shape (m, 1)
    sum m series at once."""
    c0, c1 = c[-2], c[-1]
    nd = len(c)
    for i in range(3, len(c) + 1):
        tmp = c0
        nd -= 1
        c0 = c[-i] - c1 * ((nd - 1) / nd)
        c1 = tmp + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def check_resolution(resolution):
    """Refuse a quadrature resolution (nodes per axis) below 4."""
    if resolution < 4:
        raise GeometryError("resolution >= 4 required")


def build_quadrature(P, resolution):
    """Quadrature over R^2 adapted to exponential-sum-ratio integrands.

    Per axis: Gauss-Legendre on (0,1) composed with x = scale*log(s/(1-s)),
    centred at 0.  The scale widens with the polytope so the logistic tails
    match the e^{-dist} decay of the occurring densities.  The one place
    that lays out the tensor grid: node i R + j is (xi1_i, xi2_j), as
    meshgrid(xi1, xi2, indexing="ij") orders it.
    """
    check_resolution(resolution)
    # Axis-aligned fans push forward to rational integrands with distant
    # poles (spectrally exact); a skew ray such as P^2's diagonal leaves a
    # corner non-analyticity whose algebraic order improves with the scale.
    widths = P.vertices.max(axis=0) - P.vertices.min(axis=0)
    skew = any(np.all(a != 0) for a in P.normals)
    scales = np.maximum(3.0 if skew else 2.0, 1.0 + 0.5 * widths)
    # both axes share the resolution, so one Gauss-Legendre rule serves both
    t, w = gauss_legendre(resolution)
    (x1, w1), (x2, w2) = (_axis_rule(t, w, scale) for scale in scales)
    X, Y = np.meshgrid(x1, x2, indexing="ij")
    WX, WY = np.meshgrid(w1, w2, indexing="ij")
    return QuadratureRule(axes=(x1, x2), nodes=np.stack([X.ravel(), Y.ravel()], axis=-1),
                          weights=(WX * WY).ravel(), resolution=int(resolution),
                          scales=scales)


def reference_potential(P):
    """Round Fubini-Study style potential: log of the exponential sum over
    the lattice points of P (level 1)."""
    return LogSumExpPotential(P.lattice_points(1), level=1)


# The 2x2 formulas on components: symmetric matrices [[xx, xy], [xy, yy]]
# given entrywise, as finite-difference grids and node batches hold them.

def det_2x2(xx, yy, xy):
    """Elementwise det of the symmetric 2x2 matrices [[xx, xy], [xy, yy]]."""
    return xx * yy - xy * xy


def mixed_2x2(axx, ayy, axy, bxx, byy, bxy):
    """Elementwise (1/2) tr(adj(A) B) of symmetric 2x2 matrices A and B."""
    return 0.5 * (axx * byy + ayy * bxx - 2.0 * axy * bxy)


def volume_density(hess):
    """det of a batch of symmetric 2x2 Hessians (M, 2, 2) -> (M,)."""
    H = np.asarray(hess)
    return det_2x2(H[..., 0, 0], H[..., 1, 1], H[..., 0, 1])


def mixed_density(hess_a, hess_b):
    """(1/n) tr(adj(A) B): density of chi wedge omega^{n-1} over dx (no c_vol).

    A is the Hessian of the level-k potential of h (i.e. D^2(k u_h)), B the
    Hessian of the chi potential.
    """
    A, B = np.asarray(hess_a), np.asarray(hess_b)
    return mixed_2x2(A[..., 0, 0], A[..., 1, 1], A[..., 0, 1],
                     B[..., 0, 0], B[..., 1, 1], B[..., 0, 1])


def smallest_eigenvalue(hxx, hyy, hxy):
    """Elementwise smallest eigenvalue of the symmetric 2x2 matrices
    [[hxx, hxy], [hxy, hyy]]; the discriminant is clipped at 0 against
    rounding."""
    tr = hxx + hyy
    det = det_2x2(hxx, hyy, hxy)
    return 0.5 * (tr - np.sqrt(np.maximum(tr ** 2 - 4 * det, 0.0)))


def calibrate(rule, P, u_ref, hessian=None):
    """Fix c_vol so that integral det(D^2 u_ref) c_vol dx = L1^2.

    Because det(D^2(k u)) = k^n det(D^2 u) pointwise, the same c_vol serves
    every level k, and lands on n! up to quadrature error for any strictly
    convex reference whose gradient image is the interior of P.  ``hessian``
    is u_ref's Hessian at the rule's nodes, when the caller holds it.
    """
    if hessian is None:
        hessian = u_ref.hessian(rule.nodes)
    dens = volume_density(np.asarray(hessian))
    if np.min(dens) < 0:
        # exact zeros can only come from far-field softmax collapse (underflow
        # of e^{-dist}); genuine non-convexity shows up strictly negative
        raise GeometryError("reference potential is not strictly convex on the nodes")
    total = rule.integrate(dens)
    return replace(rule, c_vol=float(2 * P.volume()) / total, calibrated=True)
