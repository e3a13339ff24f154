"""Energy functionals: J_chi, I_{mu_J}, I_{mu0}, I_hat, P_hat, convexity probes.

Basepoint conventions.  J_chi is anchored at FS(Id) per level k in i_mu0
and p_hat; j_energy_between and i_hat_relative take the reference metric as
an endpoint, so quantisation-consistency comparisons anchor both sides at
the same metric.  All asserted properties are basepoint differences or
monotonicity statements, hence normalisation-free.

Time integrals.  For n <= 2 the mixed density (1/n) tr(adj(A) B) is linear
in A, so along a linear potential path the J_chi integrand is linear in t
and two endpoints give it exactly; the I_{mu_J} integrand is quadratic in t
and 3-point Simpson is exact.  J_chi is path independent, so this one
evaluator also gives its difference along a Bergman geodesic.

Gauge note for the P_hat inequalities: P_hat(h, H) >= P_hat(FS(H), H) holds
once the constant ambiguity of the h-potential is fixed (mean-zero against
its own mixed measure), and P_hat(h, H) >= P_hat(h, Hilb(h)) is the
arithmetic-geometric statement on the det-normalised slice det H =
det Hilb(h); both normalisations are provided as helpers here and the raw
formula is kept exactly as defined.
"""

import numpy as np

from .geometry import mixed_density, volume_density
from .quantisation import HermitianForm, QuantisationError, log_diagonal


class PotentialPath:
    """Bergman geodesic H^{1/2} e^{tA} H^{1/2} between torus-invariant
    level-k forms, sampled at m + 1 equispaced times: log diag H is linear
    in t along it."""

    def __init__(self, q, x0, x1, m):
        if m < 4 or m % 2:
            raise QuantisationError("sampling count m must be even and >= 4")
        self.m = int(m)
        self._data = (q, x0, x1)

    @classmethod
    def bergman(cls, q, H0, H1, m=16):
        """The geodesic from H0 to H1 (forms or log diagonals)."""
        return cls(q, log_diagonal(q, H0, "bergman"), log_diagonal(q, H1, "bergman"), m)

    def times(self):
        return np.linspace(0.0, 1.0, self.m + 1)

    def form_at(self, t):
        q, x0, x1 = self._data
        return HermitianForm(np.exp((1 - t) * x0 + t * x1), q.k)


def _two_endpoint_j(q, phi, mix0, mix1):
    """J_chi along a linear path with level-k velocity phi, exact for n <= 2:
    the integrand is linear in t, so it is the mean of its endpoint values."""
    return float(q.weights @ (phi * 0.5 * (mix0 + mix1))) / q.hilb_norm


def j_energy_between(q, u0, u1):
    """J_chi(u1) - J_chi(u0), exact along the linear path (1-t) u0 + t u1:
    positivity of the measure at both ends implies it along the path, since
    the density is linear in t."""
    X = q.nodes
    return _two_endpoint_j(q, q.k * (u1.value(X) - u0.value(X)),
                           q.mixed_measure(u0), q.mixed_measure(u1))


def i_mu_j(u0, u1, chi, gamma, rule):
    """Continuum functional I_{mu_J}(omega_0, omega_1) along the linear path.

    integral_0^1 integral phi' ((1/gamma) chi wedge omega_t^{n-1} - omega_t^n) dt
    on level-1 potentials; path independent, cocyclic, decreasing along the
    J-flow.  For n = 2 the t-integrand is quadratic, so Simpson is exact.
    """
    X = rule.nodes
    chi_h = np.asarray(chi.hessian(X))
    vel = u1.value(X) - u0.value(X)
    h0, h1 = np.asarray(u0.hessian(X)), np.asarray(u1.hessian(X))
    total = 0.0
    for wt, hess in zip((1.0, 4.0, 1.0), (h0, 0.5 * (h0 + h1), h1)):
        density = (mixed_density(hess, chi_h) / gamma - volume_density(hess)) * rule.c_vol
        total += wt * float(rule.weights @ (vel * density))
    return total / 6.0


def i_mu0(q, H):
    """I_{mu0}(H) = J_chi(FS(H)) + (V/(N+1)) log det H, J anchored at FS(Id).

    Scale invariant, convex along Bergman geodesics, decreased by the map
    Hilb o FS, critical exactly at J-balanced forms.  Evaluated exactly from
    the torus_pass of H and of Id, so torus-invariant H only; H may also be
    given as x = log diag H.
    """
    x = log_diagonal(q, H, "i_mu0")
    cur = q.torus_pass(x)
    anchor = q.anchor_pass()
    jval = _two_endpoint_j(q, cur.values - anchor.values, anchor.mix, cur.mix)
    return jval + (q.V / q.n_plus_1) * float(x.sum())


def p_hat(q, u, H):
    """P_hat(h, H) = log sum ||S_i||^2_{Hilb(h)} - log(N+1) + log det H
    + ((N+1)/V) J_chi(h), J_chi anchored at FS(Id).  For an H-orthonormal
    basis the sum is tr(Hilb(h) H^{-1}).

    Satisfies P_hat(FS(H), H) = ((N+1)/V) I_{mu0}(H) exactly given the trace
    identity; P_hat(h, H) >= P_hat(FS(H), H) holds in the mean-zero gauge of
    the h-potential (mean_normalised_against_fs), and the arithmetic-
    geometric inequality P_hat(h, H) >= P_hat(h, Hilb(h)) on the slice
    det H = det Hilb(h) (match_determinant).
    """
    anchor = q.anchor_pass()
    jval = _two_endpoint_j(q, q.k * u.value(q.nodes) - anchor.values,
                           anchor.mix, q.mixed_measure(u))
    tr = float(np.sum(q.hilb_map(u).d / H.d))
    return float(np.log(tr) - np.log(q.n_plus_1) + H.logdet()
                 + (q.n_plus_1 / q.V) * jval)


def match_determinant(H, reference):
    """Rescale H so det H = det(reference): the normalisation slice on which
    the arithmetic-geometric P_hat inequality lives."""
    scale = np.exp((reference.logdet() - H.logdet()) / H.n_plus_1)
    return HermitianForm(H.d * scale, H.level)


def mean_normalised_against_fs(q, u, H):
    """Representative of u with mean-zero offset against its own mixed
    measure, relative to FS(H): the gauge in which P_hat(h, H) >=
    P_hat(FS(H), H) is sharp."""
    X = q.nodes
    mix = q.mixed_measure(u)
    phi = q.k * (u.value(X) - q.fs_map(H).value(X))
    mean = float(q.weights @ (phi * mix)) / q.hilb_norm / q.V
    shifted = type(u)(u.points, u.log_coeffs, u.level, u.offset - mean) \
        if hasattr(u, "log_coeffs") else None
    if shifted is None:
        raise QuantisationError("mean normalisation implemented for log-sum-exp potentials")
    return shifted


def i_hat_relative(q, u, reference):
    """I_hat_k(h) - I_hat_k(h_ref) for I_hat_k(h) = J_chi(h) + (V/(N+1))
    log det Hilb_chi(h), both terms anchored at h_ref: the difference whose
    1/k rescaling converges to I_{mu_J}(h_ref, h)."""
    jval = j_energy_between(q, reference, u)
    dld = q.hilb_map(u).logdet() - q.hilb_map(reference).logdet()
    return jval + (q.V / q.n_plus_1) * dld


def report_row(name, basepoint, value, q):
    """Machine-readable evaluation record for a functional value."""
    return {"functional": name, "basepoint": basepoint, "value": float(value),
            "level": q.k, "gamma": q.gamma,
            "quadrature": {"resolution": q.rule.resolution,
                           "c_vol": q.rule.c_vol,
                           "scales": [float(s) for s in q.rule.scales]}}


def convexity_probe(values):
    """Minimum raw second central difference over interior samples."""
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        raise QuantisationError("need at least three samples")
    return float(np.min(v[:-2] - 2.0 * v[1:-1] + v[2:]))
