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

Continuum flow.  Torus-invariant 2D only: explicit Euler with central
differences on a Dirichlet box large enough that the reference gradient is
within 1e-6 of the polytope boundary.  In log coordinates the chart
degenerates exponentially towards the toric boundary divisors, making
explicit steps arbitrarily stiff there, so nodes whose initial Hessian falls
below ``FREEZE_EPS`` are held at their initial values: they form an
exponentially thin collar of the divisors (manifold measure ~ FREEZE_EPS)
and the committed error is quantified by the grid refinement oracle.  Each
step takes 0.9 of the forward-Euler bound of the discrete operator: the
linearised flow is d(delta)/dt = (1/2) tr(D D^2 delta), D = A^{-1} B A^{-1}
(A = D^2u, B = D^2v), and the diagonal of I + h L stays nonnegative iff
h max(D11/dx^2 + D22/dy^2) <= 1 over the evolved nodes.  Only the evolved
nodes move, so the steps run on their bounding box plus a one-node halo of
fixed values, cut from the grid with its spacing: about a quarter of the
interior on the flow benchmark's input.  One kernel makes each step in
place, in buffers made once: one row-wise interior Hessian per step, then
the convexity check, velocity, bound and logged residual on the evolved
nodes alone; the snapshots equal bit for bit those of a full-grid run.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import mixed_density, smallest_eigenvalue, volume_density
from .quantisation import HermitianForm, QuantisationError, log_diagonal


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

# Fraction of the forward-Euler bound that a continuum J-flow step takes.
# The bound keeps the diagonal of I + h L nonnegative; the mixed-derivative
# entries of the stencil can be negative, so it does not prove stability,
# and jflow_run halves the fraction whenever a step loses convexity.
EULER_FRACTION = 0.9

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


class _Euler:
    """Explicit Euler steps of the J-flow in buffers made once: ``step``
    writes the spare state and swaps it in only if its H is convex.  The
    stencil runs along the rows, the rest on the packed nodes of ``mask``.
    Scaling by 2 is exact, so each result is the textbook formula's to the
    bit: (1/2) tr(adj(H) D^2v) = uyy (vxx/2) + uxx (vyy/2) - uxy vxy, and the
    bound's 2 uyy uxy vxy = (uyy uxy)(2 vxy); H*H's uxy^2 also serves det H."""

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

    def velocity(self):
        """gamma - (1/2) tr(adj(H) D^2v) / det H for the current state."""
        state, P, (yy, xy, xx), vel = self.states[0], self.prod, self.planes, self.vel
        np.multiply(state.H, self.vmix, out=P)
        np.add(yy, xx, out=vel)
        np.subtract(vel, xy, out=vel)
        np.divide(vel, state.det, out=vel)
        return np.subtract(self.gamma, vel, out=vel)

    def sup_residual(self):
        return float(np.maximum.reduce(np.abs(self.velocity(), out=self.vel), initial=0.0))

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

    def step(self, dt):
        """An Euler step of length dt; whether it was taken (H stayed convex)."""
        cur, new = self.states
        vel = self.velocity()
        vel *= dt
        np.add(cur.u, vel, out=new.u)
        new.flat[new.value_nodes] = new.u
        new.grid.interior_hessian(out=self.rows)
        self.rows.take(self.row_nodes, out=new.H)
        if not new.settle():
            return False
        self.states.reverse()
        return True


def jflow_step(grid, v_hess, gamma, dt, active=None):
    """One explicit Euler step of du/dt = gamma - (1/n) tr((D^2u)^{-1} D^2v).

    Dirichlet on the box boundary; ``active`` masks the interior nodes that
    are evolved.  Returns (new grid, convexity_ok).  The step is refused,
    returning ``grid`` itself with False, unless D^2u is positive definite on
    the masked nodes both before and after it.  It runs jflow_run's kernel.
    """
    hess = grid.interior_hessian()
    mask = np.ones(hess.shape[1:], dtype=bool) if active is None else active
    euler = _Euler(grid, hess, v_hess, gamma, mask)
    if not (euler.start_convex and euler.step(dt)):
        return grid, False
    return euler.states[0].grid, True


@dataclass
class JFlowResult:
    grid0: GridPotential
    snapshots: dict            # time -> values array
    residual_log: list         # (t, sup residual over the active nodes)
    active: np.ndarray
    box: tuple                 # shape of the bounding box of the active nodes
    steps: int
    dts: list
    halvings: int              # step refusals, each halving the step fraction


def _bounding_box(mask):
    """Row and column slices of the smallest box holding every True entry."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)


def jflow_run(grid0, chi, gamma, T, snap_times=(), active=None):
    """Run the continuum J-flow to time T with adaptive explicit stepping.

    Interior nodes with lambda_min(D^2 u_0) < FREEZE_EPS are held fixed (an
    exponentially thin collar of the toric boundary).  Each step takes
    ``EULER_FRACTION`` of the forward-Euler bound of the discrete operator
    on the active nodes: linearised, the flow is d(delta)/dt =
    (1/2) tr(D D^2 delta) with D = A^{-1} B A^{-1} (A = D^2u, B = D^2v), and
    the 9-point stencil gives I + h L a nonnegative diagonal iff
    h <= 1 / max(D11/dx^2 + D22/dy^2).  Steps ahead of a snapshot time or T
    are shortened evenly, so none is a sliver.  One interior Hessian per step
    gives the convexity check, the velocity, the bound and the residual
    logged every 25 steps.  A step that loses convexity on the active set is
    refused and the fraction halved for the rest of the run; past
    ``MAX_HALVINGS`` refusals the FlowError names the active node of
    smallest det D^2u, where the grid has degenerated.

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
    euler = _Euler(box, hess0[:, bi, bj], v_hess[:, bi, bj], gamma, box_active)
    if not euler.start_convex:
        raise FlowError("potential is not strictly convex on the active nodes")

    def degenerate_node():
        # a step that loses convexity however far it is shortened means an
        # active node's det D^2u has fallen to roundoff, not a step size
        # fault: name the active node of smallest det on the last accepted
        # grid, by its index in grid0.values
        det = euler.states[0].det
        node = np.argmin(det)
        gi, gj = bi.start + euler.nodes[0][node] + 1, bj.start + euler.nodes[1][node] + 1
        return (f"convexity loss persists at t={t:.4g} after {MAX_HALVINGS} halvings: "
                f"D^2u degenerates at grid node ({gi}, {gj}) (x={grid0.xs[gi]:.4g}, "
                f"y={grid0.ys[gj]:.4g}), det {det[node]:.2e}; use a finer flow.grid")

    def snapshot():
        full = grid0.values.copy()
        full[halo] = euler.states[0].grid.values
        return full

    snaps = {}
    snap_times = sorted(set(list(snap_times) + [0.0, float(T)]))
    next_snap = 0
    t = 0.0
    res_log = [(0.0, euler.sup_residual())]
    steps = 0
    halvings = 0
    fraction = EULER_FRACTION
    dts = []
    while next_snap < len(snap_times) and snap_times[next_snap] <= 1e-14:
        snaps[snap_times[next_snap]] = snapshot()
        next_snap += 1
    while t < T - 1e-12:
        span = snap_times[next_snap] - t
        h = span / max(1, math.ceil(span / (fraction * euler.euler_bound())))
        if not euler.step(h):
            fraction *= 0.5
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise FlowError(degenerate_node())
            continue
        t += h
        steps += 1
        dts.append(h)
        if steps % 25 == 0 or t >= T - 1e-12:
            res_log.append((t, euler.sup_residual()))
        if t >= snap_times[next_snap] - 1e-12:
            snaps[snap_times[next_snap]] = snapshot()
            next_snap += 1
    return JFlowResult(grid0=grid0, snapshots=snaps, residual_log=res_log,
                       active=active, box=box_active.shape, steps=steps, dts=dts,
                       halvings=halvings)


# ---------------------------------------------------------------------------
# quantum-classical comparison
# ---------------------------------------------------------------------------

# The comparison window: grid nodes where the smallest eigenvalue of D^2 u0
# is at least WINDOW_EPS, safely away from the degenerate toric boundary.
WINDOW_EPS = 5e-3


def _mean_normalised_sup(a, b):
    d = a - b
    return float(np.max(np.abs(d - np.mean(d))))


def quantization_comparison(levels, u0, T, nx=48):
    """Distances between the balancing-flow Bergman potentials and the
    continuum J-flow at t in {0, T/2, T}.

    Both flows start from matched data: the continuum from u0, the level-k
    flow from H0 = Hilb_chi(h0^k).  ``levels`` holds the (Quantisation, H0)
    pairs of one problem, built once by the caller; the continuum flow takes
    the polytope, chi and gamma from them.  The level-k flow steps at
    dt = 0.25/(k gamma).  Distances are sup over the comparison window (see
    WINDOW_EPS) of the potential difference after mean normalisation, the
    gauge freedom of potentials.

    Returns (rows, meta, pde): rows are dicts {k, t, distance}; meta holds
    the grid and PDE step data and, per level, ``ode_halvings``: the
    balancing flow's dt halvings by cause (see balancing_flow); pde is the
    JFlowResult of the continuum run, for callers that also write it out.
    """
    q0 = levels[0][0]
    snap_times = (0.0, T / 2.0, T)
    grid0 = grid_from_potential(q0.P, u0, nx)
    X = grid0.mesh()
    nxy = grid0.values.shape
    hess0 = np.asarray(u0.hessian(X)).reshape(nxy[0], nxy[1], 2, 2)
    window = smallest_eigenvalue(hess0[..., 0, 0], hess0[..., 1, 1],
                                 hess0[..., 0, 1]) >= WINDOW_EPS
    result = jflow_run(grid0, q0.chi, q0.gamma, T, snap_times=snap_times)
    Xw = X.reshape(nxy[0], nxy[1], 2)[window]

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
            "pde_steps": result.steps, "pde_halvings": result.halvings,
            "pde_min_dt": min(result.dts, default=0.0),
            "pde_active_nodes": int(result.active.sum()),
            "pde_box": list(result.box), "ode_halvings": ode_halvings}
    return rows, meta, result
