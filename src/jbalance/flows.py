"""Time evolution: the rescaled balancing ODE, the continuum J-flow PDE,
the critical-equation residual and the quantum-classical harness.

Balancing flow.  On Gram matrices the rescaled flow is realised as

    dH/dt = k gamma (C(H) - (tr(C H^{-1})/(N+1)) H),   C = Hilb(FS(H)),

the traceless transport of the moment-map flow whose Bergman-potential
velocity reproduces the continuum J-flow velocity gamma - chi wedge
omega^{n-1}/omega^n at leading order in k; this pins the time scale to the
continuum flow without reparameterisation.  On the torus-invariant slice H
and C are diagonal, so the flow runs on the vector diag H.  log det H is an exact invariant
of the flow (the moment map is traceless), I_{mu0} decreases exactly, and
||mu0||^2 decrease is enforced by the step controller (4th order explicit
step, dt halving on rejection).

Continuum flow.  Torus-invariant 2D only: central differences on a
Dirichlet box large enough that the reference gradient is within 1e-6 of
the polytope boundary.  In log coordinates the chart
degenerates exponentially towards the toric boundary divisors, making
explicit steps arbitrarily stiff there, so nodes whose initial Hessian falls
below ``FREEZE_EPS`` are held at their initial values: they form an
exponentially thin collar of the divisors (manifold measure ~ FREEZE_EPS)
and the committed error is quantified by the grid refinement oracle.  The
steps are second-order Runge-Kutta-Chebyshev (RKC2; Sommeijer, Shampine and
Verwer 1998): explicit steps whose stage count s grows like the square root
of the operator's stiffness times the step, so that a local error estimate,
not the stiffest mode, sets their length.  The linearised flow is
d(delta)/dt = (1/2) tr(D D^2 delta), D = A^{-1} B A^{-1} (A = D^2u,
B = D^2v), whose 9-point operator has spectral radius about
2 max(D11/dx^2 + D22/dy^2) over the evolved nodes: twice the inverse of the
forward-Euler bound.  Only the evolved nodes move, so the steps run on
their bounding box plus a one-node halo of fixed values, cut from the grid
with its spacing: about a quarter of the interior on the flow benchmark's
input.  One kernel makes each step in place, in buffers made once: per
stage one row-wise interior Hessian, then the convexity check and velocity
on the evolved nodes alone; the snapshots equal bit for bit those of a
full-grid run.
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .geometry import GeometryError, mixed_density, smallest_eigenvalue, volume_density
from .quantisation import MAX_TORUS_BYTES, HermitianForm, QuantisationError, log_diagonal


class FlowError(RuntimeError):
    """Positivity loss or step failure beyond the adaptive policy."""


@dataclass
class FlowState:
    """One logged point of a trajectory: time, payload, diagnostics."""

    t: float
    payload: object
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rescaled J-balancing flow (matrix ODE)
# ---------------------------------------------------------------------------

# Relative slack of the balancing flow's gradient-flow check: a step whose
# ||mu0||_F^2 exceeds the last accepted value by more than this is refused.
MU0_SLACK = 1e-9


def _flow_rhs(q, d, c):
    """The flow's velocity on the diagonal d of H, given the Hilb diagonal
    c = diag Hilb(FS(H)): k gamma (c - (sum(c/d)/(N+1)) d)."""
    return q.k * q.gamma * (c - (np.sum(c / d) / q.n_plus_1) * d)


def balancing_flow(q, H0, dt, T, log_every=5):
    """Integrate the rescaled J-balancing flow from H0 up to time T.

    Explicit RK4 with dt halving whenever positivity fails or ||mu0||_F^2
    increases beyond ``MU0_SLACK`` relative slack (gradient-flow contract);
    dt recovers geometrically after sustained accepted steps.  Diagnostics
    (||mu0||_F, ||mu0||^2, I_{mu0}, log det H) are logged every ``log_every``
    accepted steps plus the endpoints, with the halvings so far by cause:
    ``halvings_positivity`` (a stage or the step left the positive cone, or
    a map refused it) and ``halvings_mu0_rise`` (||mu0||^2 rose).

    The state is the diagonal d of H, a vector; each map application is the
    torus_pass at log d.  The Hilb diagonal from a step's acceptance check is
    the next step's first stage, so a step costs four map applications; the
    logged I_{mu0} reuses that pass through the torus_pass memo.  The start
    pass is kept in q's memo, so a later flow from the same H0 reuses it.

    Returns a list of FlowState with HermitianForm payloads.
    """
    from .functionals import i_mu0

    x = log_diagonal(q, H0, "balancing_flow")
    d = np.exp(x)
    t = 0.0
    dt_max = float(dt)
    dt = dt_max
    c = q.torus_pass(x, keep=True).hilb
    fro, op = q.mu0_norms(q.moment_vector(x, c))
    halvings = {"positivity": 0, "mu0_rise": 0}

    def make_state(t, d, x, fro, op):
        diag = {"mu0_fro": fro, "mu0_op": op, "mu0_sq": fro * fro,
                "logdet": float(x.sum()),
                "halvings_positivity": halvings["positivity"],
                "halvings_mu0_rise": halvings["mu0_rise"], "i_mu0": i_mu0(q, x)}
        return FlowState(t=t, payload=HermitianForm(d, q.k),
                         diagnostics=diag)

    def stage(v):
        if not np.all(v > 0):
            raise QuantisationError("a balancing-flow stage left the positive cone")
        return q.torus_pass(np.log(v)).hilb

    states = [make_state(0.0, d, x, fro, op)]
    accepted = 0
    while t < T - 1e-12:
        h = min(dt, T - t)
        try:
            k1 = _flow_rhs(q, d, c)
            d2 = d + 0.5 * h * k1
            k2 = _flow_rhs(q, d2, stage(d2))
            d3 = d + 0.5 * h * k2
            k3 = _flow_rhs(q, d3, stage(d3))
            d4 = d + h * k3
            k4 = _flow_rhs(q, d4, stage(d4))
            d_n = d + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not np.all(d_n > 0):
                raise QuantisationError("a balancing-flow step left the positive cone")
            # project back onto the exact invariant log det H = const (the
            # moment map is traceless; only integrator drift moves it), the
            # level set through d, so a step that leaves d as it is keeps it
            # bit for bit: at the balanced point, where ||mu0|| is roundoff,
            # projecting onto log det H0 itself would move every state
            d_n = d_n * np.exp((x.sum() - np.log(d_n).sum()) / q.n_plus_1)
            x_n = np.log(d_n)
            c_n = q.torus_pass(x_n).hilb
            fro_n, op_n = q.mu0_norms(q.moment_vector(x_n, c_n))
            cause = None if fro_n * fro_n <= fro * fro * (1.0 + MU0_SLACK) + 1e-300 \
                else "mu0_rise"
        except QuantisationError:
            cause = "positivity"
        if cause is not None:
            dt *= 0.5
            halvings[cause] += 1
            if sum(halvings.values()) > 60:
                raise FlowError(
                    f"balancing flow stalled at t={t:.4g}: dt collapsed after 60 halvings "
                    f"({halvings['positivity']} positivity, {halvings['mu0_rise']} "
                    f"||mu0||^2 rises; ||mu0||_F={fro:.3e}); positivity or "
                    f"monotonicity unrecoverable")
            continue
        t += h
        d, x, c, fro, op = d_n, x_n, c_n, fro_n, op_n
        accepted += 1
        if accepted % 32 == 0 and dt < dt_max:
            dt = min(dt_max, dt * 2.0)
        if accepted % log_every == 0 or t >= T - 1e-12:
            states.append(make_state(t, d, x, fro, op))
    return states


# ---------------------------------------------------------------------------
# the critical-equation residual
# ---------------------------------------------------------------------------

def critical_residual(u, chi, gamma, rule):
    """(sup, L2) norms of chi wedge omega^{n-1}/omega^n - gamma over the nodes.

    The L2 norm is taken against the omega^n probability measure.  Both
    vanish exactly iff the sampled metric solves the critical equation, and
    are invariant under affine changes of u.
    """
    X = rule.nodes
    hess = np.asarray(u.hessian(X))
    det = volume_density(hess)
    if not np.all(det > 0):
        raise FlowError("potential is not strictly convex on the nodes")
    r = mixed_density(hess, np.asarray(chi.hessian(X))) / det - gamma
    vol = rule.weights * det * rule.c_vol
    sup = float(np.max(np.abs(r)))
    l2 = float(np.sqrt(np.sum(vol * r * r) / np.sum(vol)))
    return sup, l2


# ---------------------------------------------------------------------------
# continuum J-flow on a grid
# ---------------------------------------------------------------------------

# A continuum J-flow step (RKC2, see jflow_run) keeps its local error
# estimate below ERROR_TOL in the max norm, and has the fewest stages whose
# stability interval reaches STABILITY_MARGIN times the estimated spectral
# radius times the step: the stencil's mixed-derivative entries can be
# negative, so that estimate is no proof of stability.
ERROR_TOL = 1e-6
STABILITY_MARGIN = 1.5

# jflow_run holds fixed the interior nodes whose initial Hessian has its
# smallest eigenvalue below FREEZE_EPS, and gives up after MAX_HALVINGS
# refused steps.
FREEZE_EPS = 1e-3
MAX_HALVINGS = 40

# The Dirichlet box reaches where the reference gradient is within BOX_SLACK
# of the polytope boundary.
BOX_SLACK = 1e-6


@dataclass
class GridPotential:
    """Torus-invariant potential sampled on a rectangular log-coordinate box.

    ``dx`` and ``dy`` default to the spacing of ``xs`` and ``ys``.  A grid
    cut out of a larger one passes its parent's spacing, so that its
    difference quotients are the parent's to the last bit: the spacing of
    the cut coordinates can differ from it in the last place.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    dx: float = None
    dy: float = None
    _passes: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dx is None:
            self.dx = float(self.xs[1] - self.xs[0])
        if self.dy is None:
            self.dy = float(self.ys[1] - self.ys[0])

    def mesh(self):
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def interior_hessian(self, out=None):
        """Central differences (uxx, uyy, uxy) at the interior nodes, shape
        (3, nx - 2, ny - 2): a view of ``out``, a C-contiguous (3, nx - 2, ny)
        array.  Each difference is one pass along the flat rows of ``values``,
        so the halo columns of ``out`` get meaningless entries.  The passes'
        views are kept while ``values`` and ``out`` stay the same arrays."""
        u = self.values
        if out is None:
            out = np.empty((3, u.shape[0] - 2, u.shape[1]))
        if self._passes is None or self._passes[0] is not u or self._passes[1] is not out:
            n, ny, flat = out[0].size - 2, u.shape[1], u.reshape(-1)
            # u at offsets (di, dj) from the rows' entries, named m -1, z 0, p +1
            s = [flat[i * ny + j:i * ny + j + n] for i in range(3) for j in range(3)]
            self._passes = (u if u.flags.c_contiguous else None, out, s,
                            tuple(out.reshape(3, -1, copy=False)[:, 1:1 + n]), out[:, :, 1:-1])
        _, _, (mm, mz, mp, zm, zz, zp, pm, pz, pp), (uxx, uyy, uxy), hess = self._passes
        np.subtract(pp, mp, out=uxy)                   # uxx is scratch here
        np.subtract(pm, mm, out=uxx)
        np.subtract(uxy, uxx, out=uxy)
        np.add(zz, zz, out=uyy)                        # twice the centre
        np.subtract(pz, uyy, out=uxx)
        np.add(uxx, mz, out=uxx)
        np.subtract(zp, uyy, out=uyy)
        np.add(uyy, zm, out=uyy)
        uxx /= self.dx ** 2
        uyy /= self.dy ** 2
        uxy /= 4 * self.dx * self.dy
        return hess


def grid_from_potential(P, u, nx):
    """u sampled on the nx x nx Dirichlet box of P.  Its per-axis half-widths
    put the reference gradient within BOX_SLACK of the polytope boundary: the
    exponential-sum slacks decay like e^{-dist}, so log(1/BOX_SLACK) plus the
    polytope width suffices."""
    half = np.log(1.0 / BOX_SLACK) + (P.vertices.max(axis=0) - P.vertices.min(axis=0))
    xs = np.linspace(-half[0], half[0], nx)
    ys = np.linspace(-half[1], half[1], nx)
    g = GridPotential(xs=xs, ys=ys, values=np.empty((nx, nx)))
    g.values[:] = u.value(g.mesh()).reshape(nx, nx)
    return g


class _State:
    """A grid copy and, at the moving nodes, u, H = (uyy, uxy, uxx), det H, H*H."""

    def __init__(self, grid, value_nodes):
        self.grid = GridPotential(grid.xs, grid.ys, np.array(grid.values), grid.dx, grid.dy)
        self.flat, self.value_nodes = self.grid.values.reshape(-1), value_nodes
        self.u = self.flat[value_nodes]
        self.Hdet, self.Q = np.empty((4, value_nodes.size)), np.empty((3, value_nodes.size))
        self.H, self.det, self.xx_det = self.Hdet[:3], self.Hdet[3], self.Hdet[2:]
        self.uyy, self.uxy, self.uxx = self.H
        self.yy_xx, self.sq_yy_xy, self.sq_xy_xx = self.H[::2], self.Q[:2], self.Q[1:]

    def settle(self):
        """H*H and det H from H; whether H is positive definite (NaN is not)."""
        np.multiply(self.H, self.H, out=self.Q)
        np.multiply(self.uxx, self.uyy, out=self.det)
        np.subtract(self.det, self.Q[1], out=self.det)
        return np.minimum.reduce(self.xx_det, axis=None, initial=np.inf) > 0


@cache
def _rkc2_scheme(s):
    """beta(s) and the coefficients (mu_j, nu_j, mut_j, gt_j), j = 1..s, of
    the s-stage RKC2 method with damping 2/13 (Sommeijer, Shampine and
    Verwer 1998): with Y_0 = y and F_j = F(Y_j),

        Y_j = (1 - mu_j - nu_j) Y_0 + mu_j Y_{j-1} + nu_j Y_{j-2}
              + mut_j h F_{j-1} + gt_j h F_0,

    and Y_s is the step's result.  Its stability polynomial is bounded by 1
    on [-beta(s), 0]; beta(s) is about 0.65 s^2.  Computed once per s and
    process."""
    w0 = 1.0 + (2.0 / 13.0) / (s * s)
    # the Chebyshev polynomials T_j and their first two derivatives at w0
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        d2T.append(4.0 * dT[j - 1] + 2.0 * w0 * d2T[j - 1] - d2T[j - 2])
    w1 = dT[s] / d2T[s]
    b = [d2T[j] / (dT[j] * dT[j]) for j in range(2, s + 1)]
    b = b[:1] * 2 + b                                  # b_0 = b_1 = b_2
    coeffs = [(0.0, 0.0, b[1] * w1, 0.0)]
    for j in range(2, s + 1):
        mut = 2.0 * b[j] * w1 / b[j - 1]
        coeffs.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mut,
                       -(1.0 - b[j - 1] * T[j - 1]) * mut))
    return (1.0 + w0) / w1, tuple(coeffs)


class _RKC2:
    """RKC2 steps of the J-flow in buffers made once.  ``step`` writes each
    stage into the spare state, refusing the step as soon as a stage's H is
    not convex; ``accept`` swaps the result in.  The stages are held as
    increments from the start u, so a zero velocity leaves u as it is to the
    bit.  The stencil runs along the rows, the rest on the packed nodes of
    ``mask``.  Scaling by 2 is exact, so each velocity is the textbook
    formula's to the bit: (1/2) tr(adj(H) D^2v) = uyy (vxx/2) + uxx (vyy/2) -
    uxy vxy, and the bound's 2 uyy uxy vxy = (uyy uxy)(2 vxy); H*H's uxy^2
    also serves det H."""

    def __init__(self, grid, hess, v_hess, gamma, mask):
        # hess, v_hess: interior Hessians (uxx, uyy, uxy) of u and chi on mask's shape
        self.nodes = np.nonzero(mask)
        size, width = self.nodes[0].size, grid.values.shape[1]
        self.rows = np.empty((3, mask.shape[0], width))
        at = self.nodes[0] * width + self.nodes[1] + 1
        # the nodes in rows.ravel(), planes uyy, uxy, uxx; and in values.ravel()
        self.row_nodes = np.array([at + plane * self.rows[0].size for plane in (1, 2, 0)])
        self.states = [_State(grid, at + width) for _ in range(2)]
        self.states[0].H[:] = np.asarray(hess)[[1, 2, 0]][:, mask]
        self.start_convex = self.states[0].settle()
        vxx, vyy, vxy = np.asarray(v_hess)[:, mask]
        self.gamma = np.full(size, float(gamma))
        self.vmix = np.stack([0.5 * vxx, vxy, 0.5 * vyy])
        self.vxx, self.vyy, self.vxy2 = (np.stack([v, v]) for v in (vxx, vyy, 2.0 * vxy))
        self.sxy = np.repeat([[1.0 / grid.dx ** 2], [1.0 / grid.dy ** 2]], size, axis=1)
        self.prod, self.pair, self.vel = np.empty((3, size)), np.empty((2, size)), np.empty(size)
        self.lead, self.planes = self.prod[:2], tuple(self.prod)
        # the last two stage increments D_j = Y_j - u (the result's is
        # incs[last]), the last stage's velocity, the start's velocity, and a
        # product of one of them
        self.incs, self.F, self.F0, self.term = (np.empty((2, size)), np.empty(size),
                                                 np.empty(size), np.empty(size))
        self.last, self.bound, self.evaluations = 0, None, 0

    def velocity(self, state, out):
        """gamma - (1/2) tr(adj(H) D^2v) / det H at ``state``, into ``out``."""
        P, (yy, xy, xx) = self.prod, self.planes
        np.multiply(state.H, self.vmix, out=P)
        np.add(yy, xx, out=out)
        np.subtract(out, xy, out=out)
        np.divide(out, state.det, out=out)
        return np.subtract(self.gamma, out, out=out)

    def start(self):
        """F0 at the start state, for the first step; its sup residual."""
        return self.sup_residual(self.velocity(self.states[0], self.F0))

    def sup_residual(self, F=None):
        """max |F| over the nodes, F0 by default."""
        F = self.F0 if F is None else F
        return float(np.maximum.reduce(np.abs(F, out=self.vel), initial=0.0))

    def euler_bound(self):
        """1 / max(D11/dx^2 + D22/dy^2), D = adj(A) B adj(A) / det(A)^2 (A =
        D^2u, B = D^2v): the diagonal of I + h L is 1 - h (D11/dx^2 + ...)."""
        state, A, B, rate = self.states[0], self.lead, self.pair, self.vel
        np.multiply(state.sq_yy_xy, self.vxx, out=A)   # uyy^2 vxx, uxy^2 vxx
        np.multiply(state.yy_xx, state.uxy, out=B)     # uyy uxy, uxx uxy
        np.multiply(B, self.vxy2, out=B)
        np.subtract(A, B, out=A)
        np.multiply(state.sq_xy_xx, self.vyy, out=B)   # uxy^2 vyy, uxx^2 vyy
        np.add(A, B, out=A)                            # det^2 (D11, D22)
        np.multiply(A, self.sxy, out=A)
        np.add(*self.planes[:2], out=rate)
        np.multiply(state.det, state.det, out=self.planes[2])
        np.divide(rate, self.planes[2], out=rate)
        return 1.0 / (float(np.maximum.reduce(rate, initial=-np.inf)) + 1e-300)

    def stages(self, h):
        """The least s >= 2 with beta(s) >= STABILITY_MARGIN rho h, rho = 2 /
        (the current state's forward-Euler bound)."""
        if self.bound is None:
            self.bound = self.euler_bound()
        need, s = STABILITY_MARGIN * (2.0 / self.bound) * h, 2
        while _rkc2_scheme(s)[0] < need:
            s += 1
        return s

    def step(self, h):
        """An RKC2 step of length h into the spare state: its stage count, or
        0 if a stage's H was not convex.  The last stage's velocity is left
        in ``F``, its increment in ``incs[last]``."""
        cur, new = self.states
        s = self.stages(h)
        incs, F, F0, term = self.incs, self.F, self.F0, self.term
        for j, (mu, nu, mut, gt) in enumerate(_rkc2_scheme(s)[1], start=1):
            # D_j = nu D_{j-2} + mu D_{j-1} + mut h F_{j-1} + gt h F_0, into
            # D_{j-2}'s row; D_0 = 0
            inc, last = incs[j % 2], incs[(j - 1) % 2]
            if j == 1:
                np.multiply(F0, mut * h, out=inc)
            else:
                if j == 2:
                    np.multiply(last, mu, out=inc)
                else:
                    np.multiply(inc, nu, out=inc)
                    np.multiply(last, mu, out=term)
                    np.add(inc, term, out=inc)
                np.multiply(F, mut * h, out=term)
                np.add(inc, term, out=inc)
                np.multiply(F0, gt * h, out=term)
                np.add(inc, term, out=inc)
            np.add(cur.u, inc, out=new.u)
            new.flat[new.value_nodes] = new.u
            new.grid.interior_hessian(out=self.rows)
            self.rows.take(self.row_nodes, out=new.H)
            self.evaluations += 1
            if not new.settle():
                return 0
            self.velocity(new, F)
        self.last = s % 2
        return s

    def error(self, h):
        """The step's local error estimate (Sommeijer, Shampine and Verwer
        1998), 0.8 (u_n - u_{n+1}) + 0.4 h (F_n + F_{n+1}), in the max norm."""
        est, term = self.vel, self.term
        np.multiply(self.incs[self.last], -0.8, out=est)
        np.multiply(self.F, 0.4 * h, out=term)
        np.add(est, term, out=est)
        np.multiply(self.F0, 0.4 * h, out=term)
        np.add(est, term, out=est)
        return self.sup_residual(est)

    def accept(self):
        """Make the step's result the current state, its velocity F_0."""
        self.states.reverse()
        self.F, self.F0 = self.F0, self.F
        self.bound = None


def jflow_step(grid, v_hess, gamma, dt, active=None):
    """One RKC2 step of length dt of du/dt = gamma - (1/n) tr((D^2u)^{-1} D^2v),
    with as many stages as the spectral radius at ``grid`` asks (see
    ``STABILITY_MARGIN``).

    Dirichlet on the box boundary; ``active`` masks the interior nodes that
    are evolved.  Returns (new grid, convexity_ok).  The step is refused,
    returning ``grid`` itself with False, unless D^2u is positive definite on
    the masked nodes before the step and at each of its stages.  It runs
    jflow_run's kernel.
    """
    hess = grid.interior_hessian()
    mask = np.ones(hess.shape[1:], dtype=bool) if active is None else active
    rkc = _RKC2(grid, hess, v_hess, gamma, mask)
    if not rkc.start_convex:
        return grid, False
    rkc.start()
    if not rkc.step(dt):
        return grid, False
    rkc.accept()
    return rkc.states[0].grid, True


@dataclass
class JFlowResult:
    grid0: GridPotential
    snapshots: dict            # time -> values array
    residual_log: list         # (t, sup residual over the active nodes)
    active: np.ndarray
    box: tuple                 # shape of the bounding box of the active nodes
    steps: int                 # accepted steps
    dts: list                  # the accepted steps' lengths
    stages: list               # the accepted steps' stage counts
    evaluations: int           # stage Hessians and velocities, refused steps included
    halvings: int              # steps refused for a convexity loss, each halving h
    rejected: int              # steps refused by the error test

    @property
    def max_stages(self):
        return max(self.stages, default=0)


def _bounding_box(mask):
    """Row and column slices of the smallest box holding every True entry."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def jflow_run(grid0, chi, gamma, T, snap_times=(), active=None):
    """Run the continuum J-flow to time T with error-controlled RKC2 steps.

    Interior nodes with lambda_min(D^2 u_0) < FREEZE_EPS are held fixed (an
    exponentially thin collar of the toric boundary).  A step of length h
    has the least s >= 2 stages with beta(s) >= STABILITY_MARGIN rho h (see
    ``_rkc2_scheme``), rho = 2 max(D11/dx^2 + D22/dy^2) over the active
    nodes (see the module docstring) at the step's start.  The local error
    estimate 0.8 (u_n - u_{n+1}) + 0.4 h (F_n + F_{n+1}) in the max norm
    over the active nodes, err in units of ``ERROR_TOL``, rejects the step
    above 1 and scales h by 0.8 err^(-1/3), within [0.1, 10] and not up
    after a refused step.  The first step takes the forward-Euler bound
    1/max(D11/dx^2 + D22/dy^2).  Steps ahead of a snapshot time or T are
    shortened evenly, so none is a sliver.

    Each stage costs one interior Hessian and one velocity; the velocity at
    an accepted state serves as the next step's first stage, in its error
    estimate and as the sup residual logged after the step.  A stage that
    loses convexity on the active set refuses the step, leaving the start
    state as it was, and halves h; past ``MAX_HALVINGS`` refusals the
    FlowError names the active node of smallest det D^2u, where the grid
    has degenerated.  Snapshot times must lie in [0, T].

    Only the active nodes move, so the steps run on the bounding box of the
    active nodes plus a one-node halo of fixed values, cut from the full
    grid with its spacing; the start Hessian and chi's Hessian are sliced
    to it.  Every box node sees the stencil values it would see on the full
    grid, so the snapshots, step sizes and residuals are those of a
    full-grid run bit for bit; jflow_step's kernel steps it in place, in
    buffers made once.  Each snapshot is the box written back into a copy
    of ``grid0.values``; ``JFlowResult.active`` stays the full interior
    mask and ``JFlowResult.box`` records the box's shape.

    ``active`` overrides the collar mask (interior-shaped boolean); a mask
    cut from the analytic initial Hessian keeps the effective domain
    resolution independent, which refinement studies need.
    """
    snap_times = sorted(set(float(t) for t in snap_times) | {0.0, float(T)})
    if snap_times[0] < 0.0 or snap_times[-1] > T:
        raise FlowError(f"snapshot times must lie in [0, T] = [0, {T:g}]: {snap_times}")
    # chi is discretised with the same stencil as u, so proportional data
    # (chi = gamma omega_u) is stationary exactly, not just to O(h^2)
    vgrid = GridPotential(grid0.xs, grid0.ys,
                          np.asarray(chi.value(grid0.mesh())).reshape(grid0.values.shape),
                          grid0.dx, grid0.dy)
    v_hess = vgrid.interior_hessian()
    hess0 = grid0.interior_hessian()
    if active is None:
        active = smallest_eigenvalue(*hess0) >= FREEZE_EPS
    if not np.any(active):
        raise FlowError("FREEZE_EPS leaves no active nodes; refine the grid")

    # the box in interior indices, and with its halo in grid indices
    bi, bj = _bounding_box(active)
    halo = (slice(bi.start, bi.stop + 2), slice(bj.start, bj.stop + 2))
    box_active = active[bi, bj]
    box = GridPotential(grid0.xs[halo[0]], grid0.ys[halo[1]], grid0.values[halo],
                        grid0.dx, grid0.dy)
    rkc = _RKC2(box, hess0[:, bi, bj], v_hess[:, bi, bj], gamma, box_active)
    if not rkc.start_convex:
        raise FlowError("potential is not strictly convex on the active nodes")

    def degenerate_node():
        # a step that loses convexity however far it is shortened means an
        # active node's det D^2u has fallen to roundoff, not a step size
        # fault: name the active node of smallest det on the last accepted
        # grid, by its index in grid0.values
        det = rkc.states[0].det
        node = np.argmin(det)
        gi, gj = bi.start + rkc.nodes[0][node] + 1, bj.start + rkc.nodes[1][node] + 1
        return (f"convexity loss persists at t={t:.4g} after {MAX_HALVINGS} halvings: "
                f"D^2u degenerates at grid node ({gi}, {gj}) (x={grid0.xs[gi]:.4g}, "
                f"y={grid0.ys[gj]:.4g}), det {det[node]:.2e}; use a finer flow.grid")

    def snapshot():
        full = grid0.values.copy()
        full[halo] = rkc.states[0].grid.values
        return full

    snaps = {}
    next_snap = 0
    t = 0.0
    res_log = [(0.0, rkc.start())]
    halvings = rejected = 0
    dts, stages = [], []
    rkc.bound = h = rkc.euler_bound()
    growth = 10.0
    while next_snap < len(snap_times) and snap_times[next_snap] <= 1e-14:
        snaps[snap_times[next_snap]] = snapshot()
        next_snap += 1
    while t < T - 1e-12:
        span = snap_times[next_snap] - t
        step = span / max(1, math.ceil(span / h))
        s = rkc.step(step)
        if not s:
            h, growth = 0.5 * step, 1.0
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise FlowError(degenerate_node())
            continue
        err = rkc.error(step) / ERROR_TOL
        # h err^(-1/3) to the tolerance, with a safety factor of 0.8
        h = step * min(growth, max(0.1, 0.8 / max(err, 1e-6) ** (1.0 / 3.0)))
        if err > 1.0:
            rejected, growth = rejected + 1, 1.0
            continue
        rkc.accept()
        growth = 10.0
        t += step
        dts.append(step)
        stages.append(s)
        res_log.append((t, rkc.sup_residual()))
        if t >= snap_times[next_snap] - 1e-12:
            snaps[snap_times[next_snap]] = snapshot()
            next_snap += 1
    return JFlowResult(grid0=grid0, snapshots=snaps, residual_log=res_log,
                       active=active, box=box_active.shape, steps=len(dts), dts=dts,
                       stages=stages, evaluations=rkc.evaluations, halvings=halvings,
                       rejected=rejected)


# ---------------------------------------------------------------------------
# quantum-classical comparison
# ---------------------------------------------------------------------------

# The comparison window: grid nodes where the smallest eigenvalue of D^2 u0
# is at least WINDOW_EPS, safely away from the degenerate toric boundary.
WINDOW_EPS = 5e-3

# Arrays of nx^2 doubles that a flow run over an nx x nx grid holds at once
# (check_grid_size), counted with room.
FLOW_GRID_ARRAYS = 128


def check_grid_size(nx):
    """Refuse, with a GeometryError, a flow grid of nx x nx nodes whose
    arrays would take more than quantisation.MAX_TORUS_BYTES.  They are
    FLOW_GRID_ARRAYS arrays of nx^2 doubles: comparison_window's mesh, grid
    values, start Hessians and eigenvalue temporaries (about 11);
    jflow_run's chi grid and mesh, the interior Hessians of u and chi and
    their eigenvalue temporaries (about 17); the RKC2 kernel's row Hessians,
    two states of nine arrays and its per-node coefficients and work vectors
    (about 45 when every interior node evolves); the snapshots (4); the
    window's nodes (4); and a grid CSV's text (about 9).  A flow on
    P1xP1-O11-O21, where a quarter of the interior evolves, peaks at about
    21 (tracemalloc, grids 200 and 300).  The potentials' node blocks are
    capped by kernel.NODE_BLOCK_BYTES.  Nothing is allocated first."""
    need = 8 * FLOW_GRID_ARRAYS * nx * nx
    if need > MAX_TORUS_BYTES:
        raise GeometryError(
            f"flow.grid = {nx} needs about {need / 2 ** 30:.3g} GiB for {FLOW_GRID_ARRAYS} "
            f"arrays of its {nx} x {nx} nodes, above the {MAX_TORUS_BYTES / 2 ** 30:g} GiB "
            f"cap (quantisation.MAX_TORUS_BYTES)")


def _mean_normalised_sup(a, b):
    d = a - b
    return float(np.max(np.abs(d - np.mean(d))))


def comparison_window(P, u0, nx):
    """(grid0, window): u0 on the nx x nx grid of P and the mask of its
    comparison window (WINDOW_EPS); a FlowError when the window holds fewer
    than 2 nodes, where a mean-normalised sup is 0 whatever the flows do."""
    grid0 = grid_from_potential(P, u0, nx)
    hess0 = np.asarray(u0.hessian(grid0.mesh())).reshape(nx, nx, 2, 2)
    window = smallest_eigenvalue(hess0[..., 0, 0], hess0[..., 1, 1],
                                 hess0[..., 0, 1]) >= WINDOW_EPS
    if window.sum() < 2:
        raise FlowError(f"the comparison window holds {int(window.sum())} of the "
                        f"{nx} x {nx} grid nodes, and a distance needs at least 2; "
                        f"use a finer flow.grid")
    return grid0, window


def quantization_comparison(levels, u0, T, nx=48, window=None):
    """Distances between the balancing-flow Bergman potentials and the
    continuum J-flow at each distinct t in {0, T/2, T}.

    Both flows start from matched data: the continuum from u0, the level-k
    flow from H0 = Hilb_chi(h0^k).  ``levels`` holds the (Quantisation, H0)
    pairs of one problem, built once by the caller; the continuum flow takes
    the polytope, chi and gamma from them.  The level-k flow steps at
    dt = 0.25/(k gamma).  Distances are sup over the comparison window (see
    WINDOW_EPS) of the potential difference after mean normalisation, the
    gauge freedom of potentials.  ``window`` is comparison_window(P, u0,
    nx), which refuses fewer than 2 nodes before either flow runs, unless
    the caller passes it.

    Returns (rows, meta, pde): rows are dicts {k, t, distance}; meta holds
    the grid and the PDE's counts (``pde_steps`` accepted steps,
    ``pde_evaluations``, ``pde_max_stages``, ``pde_halvings``,
    ``pde_rejected``; see JFlowResult) and, per level, ``ode_halvings``: the
    balancing flow's dt halvings by cause (see balancing_flow); pde is the
    JFlowResult of the continuum run, for callers that also write it out.
    """
    q0 = levels[0][0]
    snap_times = sorted({0.0, T / 2.0, T})
    grid0, window = window or comparison_window(q0.P, u0, nx)
    result = jflow_run(grid0, q0.chi, q0.gamma, T, snap_times=snap_times)
    Xw = grid0.mesh()[window.ravel()]

    rows = []
    ode_halvings = []
    for q, H0 in levels:
        dt = 0.25 / (q.k * q.gamma)
        Hs = {0.0: H0}
        Ht = H0
        counts = {"k": q.k, "positivity": 0, "mu0_rise": 0}
        for t0, t1 in zip(snap_times[:-1], snap_times[1:]):
            seg = balancing_flow(q, Ht, dt, t1 - t0, log_every=10**9)
            Ht = seg[-1].payload
            Hs[t1] = Ht
            for cause in ("positivity", "mu0_rise"):
                counts[cause] += seg[-1].diagnostics["halvings_" + cause]
        ode_halvings.append(counts)
        for t in snap_times:
            u_k = q.fs_map(Hs[t])
            cont = result.snapshots[t][window]
            dist = _mean_normalised_sup(u_k.value(Xw), cont)
            rows.append({"k": q.k, "t": float(t), "distance": dist})
    meta = {"nx": nx, "window_nodes": int(window.sum()), "T": T,
            "pde_steps": result.steps, "pde_evaluations": result.evaluations,
            "pde_max_stages": result.max_stages, "pde_halvings": result.halvings,
            "pde_rejected": result.rejected,
            "pde_min_dt": min(result.dts, default=0.0),
            "pde_active_nodes": int(result.active.sum()),
            "pde_box": list(result.box), "ode_halvings": ode_halvings}
    return rows, meta, result
