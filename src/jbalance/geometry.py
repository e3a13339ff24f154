"""Toric-surface backend in torus-invariant log coordinates.

A polarised toric surface (M, L1) is encoded by a Delzant lattice polytope P:
sections of L1^k are the lattice points of kP, metrics are convex potentials
on R^n, and volume forms become densities det(D^2 u) dx after an analytic
angular reduction.  All 2*pi-type constants are absorbed into a single
calibrated constant ``c_vol`` (close to n!), fixed so that the total volume
of the reference Monge-Ampere density equals the intersection number L1^n.

Intersection numbers and Mori generators come from the normal fan; everything
there is exact integer/rational arithmetic.
"""

import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from types import MappingProxyType

import numpy as np

# softmax_moments keeps its public name geometry.softmax_moments
from .kernel import node_blocks, softmax_moments

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

class PotentialField:
    """Convex potential on R^n with value and Hessian access.

    The convention throughout the package: a potential ``u`` is normalised
    per level, i.e. the fibre metric of L1^k is e^{-k u} and the level-k
    curvature form has density coming from D^2(k u) = k * hessian(u).
    """

    dim = None

    def value(self, X):
        raise NotImplementedError

    def hessian(self, X):
        raise NotImplementedError


class LogSumExpPotential(PotentialField):
    """Potential u(x) = (log sum_a c_a e^{<p_a, x>} + offset) / level.

    This closed-form family covers every metric the package produces:
    reference Fubini-Study potentials, FS(H) for torus-invariant H, and
    coefficient perturbations of these.  The gradient of ``level * u`` is the
    softmax average of the exponent points and therefore lies in the interior
    of their convex hull (the dilated polytope); the Hessian is the softmax
    covariance, so strict convexity holds whenever the points affinely span.
    """

    def __init__(self, points, log_coeffs=None, level=1, offset=0.0):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.dim = self.points.shape[1]
        if log_coeffs is None:
            log_coeffs = np.zeros(len(self.points))
        self.log_coeffs = np.asarray(log_coeffs, dtype=float)
        if self.log_coeffs.shape != (len(self.points),):
            raise GeometryError("one log-coefficient per exponent point required")
        self.level = int(level)
        self.offset = float(offset)

    def moment_blocks(self, X, order):
        """node_blocks of the level-k potential's log-weights at the nodes
        X (M, n), A = points @ X^T + log_coeffs: (block, softmax_moments)
        pairs."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return node_blocks(self.points, X, self.log_coeffs, order=order)

    def value(self, X):
        out = np.empty(len(np.atleast_2d(X)))
        for block, (lse, _, _, _) in self.moment_blocks(X, 0):
            out[block] = lse
        return (out + self.offset) / self.level

    def hessian(self, X):
        # (M, n, n), laid out component-major as the kernel returns it
        cov = np.empty((self.dim, self.dim, len(np.atleast_2d(X))))
        for block, (_, _, _, cov_block) in self.moment_blocks(X, 2):
            cov[..., block] = cov_block
        return np.moveaxis(cov, -1, 0) / self.level

    def with_log_coeffs(self, log_coeffs):
        return LogSumExpPotential(self.points, log_coeffs, self.level, self.offset)


class ScaledPotential(PotentialField):
    """c * u for a positive constant c (e.g. chi = gamma * omega_ref)."""

    def __init__(self, base, factor):
        if factor <= 0:
            raise GeometryError("scaling factor must be positive")
        self.base = base
        self.factor = float(factor)
        self.dim = base.dim

    def value(self, X):
        return self.factor * self.base.value(X)

    def hessian(self, X):
        return self.factor * self.base.hessian(X)


class AffineTilt(PotentialField):
    """u + <a, x> + b; same curvature as u (Kaehler form unchanged)."""

    def __init__(self, base, slope, const=0.0):
        self.base = base
        self.slope = np.asarray(slope, dtype=float)
        self.const = float(const)
        self.dim = base.dim

    def value(self, X):
        return self.base.value(X) + np.asarray(X) @ self.slope + self.const

    def hessian(self, X):
        return self.base.hessian(X)


class SumPotential(PotentialField):
    """Sum of potentials (separable metrics on product fans, bump additions)."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.dim = self.parts[0].dim

    def value(self, X):
        return sum(p.value(X) for p in self.parts)

    def hessian(self, X):
        return sum(np.asarray(p.hessian(X)) for p in self.parts)


class AxisPotential(PotentialField):
    """A one-variable potential f applied to a single coordinate of R^n."""

    def __init__(self, base1d, axis, dim):
        self.base = base1d
        self.axis = int(axis)
        self.dim = int(dim)

    def _slice(self, X):
        return np.atleast_2d(X)[:, self.axis][:, None]

    def value(self, X):
        return self.base.value(self._slice(X))

    def hessian(self, X):
        X = np.atleast_2d(X)
        out = np.zeros((len(X), self.dim, self.dim))
        out[:, self.axis, self.axis] = np.asarray(self.base.hessian(self._slice(X)))[:, 0, 0]
        return out


class GaussianBump(PotentialField):
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


class BlendPotential(PotentialField):
    """(1-t) u0 + t u1, the linear interpolation used by potential paths."""

    def __init__(self, u0, u1, t):
        self.u0, self.u1, self.t = u0, u1, float(t)
        self.dim = u0.dim

    def value(self, X):
        return (1.0 - self.t) * self.u0.value(X) + self.t * self.u1.value(X)

    def hessian(self, X):
        return (1.0 - self.t) * self.u0.hessian(X) + self.t * self.u1.hessian(X)


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


class DelzantPolytope:
    """Lattice polytope {x : <a_i, x> + c_i >= 0} with unimodular vertex cones.

    ``normals`` are the inward primitive integer facet normals, ``offsets``
    the integer constants c_i.  Only polygons (n = 2, toric surfaces) are
    accepted: every class, pairing and density here is a surface's.
    ``normals``, ``offsets`` and ``vertices`` are read-only, so one instance
    can be shared (``polytope_preset``).
    """

    def __init__(self, normals, offsets, name=None):
        self.normals = _integer_array(normals, "facet normals")
        self.offsets = _integer_array(offsets, "facet offsets")
        self.name = name
        if self.normals.ndim != 2 or len(self.normals) != len(self.offsets):
            raise GeometryError("need one offset per facet normal")
        self.dim = self.normals.shape[1]
        if self.dim != 2:
            raise GeometryError(f"polytope dimension {self.dim}: only polygons "
                                f"(toric surfaces, n = 2) are supported")
        for a in self.normals:
            if np.gcd.reduce(np.abs(a)) != 1:
                raise GeometryError(f"facet normal {a} is not primitive")
        self.vertices = self._compute_vertices()
        self._validate()
        for arr in (self.normals, self.offsets, self.vertices):
            arr.setflags(write=False)

    @property
    def num_facets(self):
        return len(self.normals)

    def _compute_vertices(self):
        verts = []
        for i, j in combinations(range(self.num_facets), 2):
            A = self.normals[[i, j]]
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            if det == 0:
                continue
            b = -self.offsets[[i, j]]
            x = np.array([A[1, 1] * b[0] - A[0, 1] * b[1],
                          -A[1, 0] * b[0] + A[0, 0] * b[1]], dtype=np.int64)
            if np.any(x % det != 0):
                fx = x / det
            else:
                fx = x // det
            vals = self.normals @ np.asarray(fx, dtype=float) + self.offsets
            if np.all(vals >= -1e-9):
                verts.append(tuple(np.asarray(fx, dtype=float)))
        verts = sorted(set(verts))
        if len(verts) < 3:
            raise GeometryError("polytope is not a bounded 2d body")
        center = np.mean(verts, axis=0)
        verts = sorted(verts, key=lambda v: np.arctan2(v[1] - center[1], v[0] - center[0]))
        return np.array(verts)

    def _validate(self):
        # vertices must be lattice points reproducing the facet data, at
        # each vertex the active normals must form a Z-basis (Delzant), and
        # each facet must carry n vertices: an inequality that cuts out no
        # edge is redundant, and its divisor would get wrong pairings.
        if not np.allclose(self.vertices, np.round(self.vertices)):
            raise GeometryError("vertices are not lattice points")
        # facet incidence, elementwise (a BLAS matrix product grows peak memory)
        on = np.abs((self.vertices[:, None, :] * self.normals).sum(axis=-1) + self.offsets) < 1e-9
        for v, active in zip(self.vertices, on):
            if active.sum() != self.dim:
                raise GeometryError(f"vertex {v}: {active.sum()} active facets, "
                                    f"expected {self.dim}")
            A = self.normals[active]
            det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            if abs(int(det)) != 1:
                raise GeometryError(f"vertex {v}: normals do not form a Z-basis")
        for i, count in enumerate(on.sum(axis=0)):
            if count < self.dim:
                raise GeometryError(
                    f"facet {i} (normal {self.normals[i].tolist()}, offset "
                    f"{int(self.offsets[i])}) carries {count} vertices, expected "
                    f"{self.dim}: the inequality is redundant")
        if self.volume() <= 0:
            raise GeometryError("empty interior")

    def volume(self):
        """Euclidean area of P as an exact Fraction (shoelace)."""
        V = [[Fraction(int(round(c))) for c in v] for v in self.vertices]
        total = Fraction(0)
        for i in range(len(V)):
            x0, y0 = V[i]
            x1, y1 = V[(i + 1) % len(V)]
            total += x0 * y1 - x1 * y0
        return abs(total) / 2

    def contains(self, X, k=1):
        """Boolean mask: which rows of X lie in kP."""
        X = np.atleast_2d(X)
        vals = X @ self.normals.T + k * self.offsets
        return np.all(vals >= -1e-9, axis=1)

    def lattice_points(self, k):
        """All points of kP cap Z^n in lexicographic order."""
        if k < 1 or k != int(k):
            raise GeometryError("level k must be a positive integer")
        k = int(k)
        lo = np.floor(k * self.vertices.min(axis=0)).astype(int)
        hi = np.ceil(k * self.vertices.max(axis=0)).astype(int)
        axes = [np.arange(lo[d], hi[d] + 1) for d in range(self.dim)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        pts = grid[self.contains(grid, k)]
        order = np.lexsort(tuple(pts[:, d] for d in reversed(range(self.dim))))
        return pts[order]

    def ehrhart_count(self, k):
        """Number of lattice points of kP, in closed form (nothing is
        enumerated): by Pick's theorem, area k^2 + (boundary points) k / 2 + 1."""
        if k < 1 or k != int(k):
            raise GeometryError("level k must be a positive integer")
        k = int(k)
        V = [[int(round(c)) for c in v] for v in self.vertices]
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

def _ccw_ray_order(P):
    ang = np.arctan2(P.normals[:, 1], P.normals[:, 0])
    return np.argsort(ang)


def divisor_intersection_matrix(P):
    """Matrix (D_i . D_j) of boundary divisors of the smooth toric surface.

    Adjacent rays meet once; self-intersections from v_{i-1} + v_{i+1} = b v_i
    giving D_i^2 = -b.  Indexing follows P.normals.
    """
    order = _ccw_ray_order(P)
    d = len(order)
    M = np.zeros((d, d), dtype=np.int64)
    for pos in range(d):
        i = order[pos]
        ip = order[(pos + 1) % d]
        im = order[(pos - 1) % d]
        M[i, ip] = M[ip, i] = 1
        v = P.normals[i]
        s = P.normals[im] + P.normals[ip]
        # s = b * v with b integer by smoothness
        b = s[0] // v[0] if v[0] != 0 else s[1] // v[1]
        if np.any(s != b * v):
            raise GeometryError("fan is not smooth at ray " + str(v))
        M[i, i] = -int(b)
    return M


def line_bundle_class(P, spec):
    """Coefficient vector of a divisor class sum_i c_i D_i.

    ``spec`` may be: a coefficient sequence; "L1" (the polarisation, with
    c_i = offsets); "K" (canonical class, all -1); or for the presets the
    strings "O(d)" on P2 and "O(a,b)" on P1xP1.
    """
    if isinstance(spec, str):
        s = spec.strip()
        if s == "L1":
            return np.array(P.offsets, dtype=np.int64)
        if s == "K":
            return -np.ones(P.num_facets, dtype=np.int64)
        if s.startswith("O(") and s.endswith(")"):
            args = [int(t) for t in s[2:-1].split(",")]
            if P.name == "P2" and len(args) == 1:
                return np.array([0, 0, args[0]], dtype=np.int64)
            if P.name == "P1xP1" and len(args) == 2:
                a, b = args
                return np.array([0, 0, a, b], dtype=np.int64)
            raise GeometryError(f"bundle {spec!r} not defined on preset {P.name!r}")
        raise GeometryError(f"cannot parse divisor class {spec!r}")
    c = _integer_array(spec, "divisor class coefficients")
    if c.shape != (P.num_facets,):
        raise GeometryError("divisor class needs one coefficient per facet")
    return c


def surface_classes(P, l2_spec):
    """Class vectors (L1, L2, K) of the surface over its facet divisors;
    the one place they are formed (see line_bundle_class for l2_spec)."""
    return (line_bundle_class(P, "L1"), line_bundle_class(P, l2_spec),
            line_bundle_class(P, "K"))


def pair_classes(P, c1, c2):
    M = getattr(P, "_pairing_matrix", None)
    if M is None:
        M = divisor_intersection_matrix(P)
        P._pairing_matrix = M
    return int(np.asarray(c1) @ M @ np.asarray(c2))


def intersection_numbers(P, l2_spec="L1"):
    """Surface pairing table {L1^2, L1.L2, L2^2, K.L1, K.L2, K^2}, read-only.

    ``l2_spec`` follows line_bundle_class.  A table is computed once per
    (polygon, L2) and kept on the polygon, so later calls return that one
    instance.
    """
    memo = P.__dict__.setdefault("_intersections", {})
    key = l2_spec if isinstance(l2_spec, str) else tuple(line_bundle_class(P, l2_spec).tolist())
    if key not in memo:
        memo[key] = MappingProxyType(_pairing_table(P, l2_spec))
    return memo[key]


def _pairing_table(P, l2_spec):
    c1, c2, ck = surface_classes(P, l2_spec)
    tab = {
        "L1L1": pair_classes(P, c1, c1),
        "L1L2": pair_classes(P, c1, c2),
        "L2L2": pair_classes(P, c2, c2),
        "KL1": pair_classes(P, ck, c1),
        "KL2": pair_classes(P, ck, c2),
        "KK": pair_classes(P, ck, ck),
    }
    if tab["L1L1"] != 2 * P.volume():
        raise GeometryError("L1^2 disagrees with 2 vol(P); fan/offset data corrupt")
    return tab


@dataclass(frozen=True)
class MoriGenerator:
    """A torus-invariant boundary curve with its pairing functional."""

    facet_index: int
    self_intersection: int
    pairings: tuple  # value of C . D_j for every facet divisor D_j

    def pair(self, class_vector):
        return int(np.asarray(class_vector) @ np.asarray(self.pairings))


def mori_generators(P):
    """Generators of the Mori cone: the boundary curves, deduplicated by
    numerical class (equal pairing vectors)."""
    M = divisor_intersection_matrix(P)
    gens, seen = [], set()
    for i in range(P.num_facets):
        key = tuple(int(v) for v in M[:, i])
        if key in seen:
            continue
        seen.add(key)
        gens.append(MoriGenerator(facet_index=i, self_intersection=int(M[i, i]), pairings=key))
    return gens


def is_nef(P, class_vector, generators=None):
    gens = mori_generators(P) if generators is None else generators
    return all(g.pair(class_vector) >= 0 for g in gens)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass
class QuadratureRule:
    """Tensor Gauss-Legendre rule pushed to R^n by per-axis logistic maps.

    ``c_vol`` is 1.0 until ``calibrate`` is run; afterwards integral of
    det(D^2 u_ref) * c_vol equals L1^n by construction and every pi/2pi
    convention is absorbed.
    """

    nodes: np.ndarray          # (M, n)
    weights: np.ndarray        # (M,) all positive
    resolution: int
    scales: np.ndarray
    c_vol: float = 1.0
    meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.nodes.shape[1]

    def integrate(self, density_values):
        """Integral of a density given by its values at the nodes (no c_vol)."""
        return float(self.weights @ np.asarray(density_values))

    def with_c_vol(self, c):
        return QuadratureRule(self.nodes, self.weights, self.resolution,
                              self.scales, c_vol=float(c), meta=dict(self.meta))


def _axis_rule(t, w, scale, center):
    """The Gauss-Legendre rule (t, w) on [-1, 1] mapped to the real line by
    x = center + scale*log(s/(1-s)), s = (t+1)/2."""
    s = 0.5 * (t + 1.0)
    x = center + scale * np.log(s / (1.0 - s))
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
    c = np.zeros(n + 1)
    c[n] = 1.0                                      # L_n
    j = np.arange(n)
    dc = np.where((n - j) % 2 == 1, 2.0 * j + 1.0, 0.0)   # L_n' (exact)
    dy = _legendre_series(x, c)
    df = _legendre_series(x, dc)
    x -= dy / df
    fm = _legendre_series(x, c[1:])                 # L_{n-1}
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
    operation order of numpy's ``legval``."""
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


def build_quadrature(P, resolution, scale=None):
    """Quadrature over R^n adapted to exponential-sum-ratio integrands.

    Per axis: Gauss-Legendre on (0,1) composed with x = scale*log(s/(1-s)),
    centered on the polytope's gradient image.  ``scale`` widens with the
    polytope so the logistic tails match the e^{-dist} decay of the
    occurring densities.
    """
    check_resolution(resolution)
    # Axis-aligned fans push forward to rational integrands with distant
    # poles (spectrally exact); a skew ray such as P^2's diagonal leaves a
    # corner non-analyticity whose algebraic order improves with the scale.
    widths = P.vertices.max(axis=0) - P.vertices.min(axis=0)
    centers = np.zeros(P.dim)
    if scale is None:
        skew = any(np.all(a != 0) for a in P.normals)
        base = 3.0 if skew else 2.0
        scales = np.maximum(base, 1.0 + 0.5 * widths)
    else:
        scales = np.full(P.dim, float(scale))
    # both axes share the resolution, so one Gauss-Legendre rule serves both
    t, w = gauss_legendre(resolution)
    axes = [_axis_rule(t, w, scales[d], centers[d]) for d in range(P.dim)]
    X, Y = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
    WX, WY = np.meshgrid(axes[0][1], axes[1][1], indexing="ij")
    nodes = np.stack([X.ravel(), Y.ravel()], axis=-1)
    weights = (WX * WY).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, resolution=int(resolution),
                          scales=scales, meta={"map": "logistic*GL"})


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


def calibrate(rule, P, u_ref):
    """Fix c_vol so that integral det(D^2 u_ref) c_vol dx = L1^2.

    Because det(D^2(k u)) = k^n det(D^2 u) pointwise, the same c_vol serves
    every level k, and lands on n! up to quadrature error for any strictly
    convex reference whose gradient image is the interior of P.
    """
    dens = volume_density(np.asarray(u_ref.hessian(rule.nodes)))
    if np.min(dens) < 0:
        # exact zeros can only come from far-field softmax collapse (underflow
        # of e^{-dist}); genuine non-convexity shows up strictly negative
        raise GeometryError("reference potential is not strictly convex on the nodes")
    total = rule.integrate(dens)
    out = rule.with_c_vol(float(2 * P.volume()) / total)
    out.meta["calibrated"] = True
    return out
