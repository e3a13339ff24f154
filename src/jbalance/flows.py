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
below ``freeze_eps`` are held at their initial values: they form an
exponentially thin collar of the divisors (manifold measure ~ freeze_eps)
and the committed error is quantified by the grid refinement oracle.  Each
step takes 0.9 of the forward-Euler bound of the discrete operator: the
linearised flow is d(delta)/dt = (1/2) tr(D D^2 delta), D = A^{-1} B A^{-1}
(A = D^2u, B = D^2v), and the diagonal of I + h L stays nonnegative iff
h max(D11/dx^2 + D22/dy^2) <= 1 over the evolved nodes.  One interior
Hessian per step, carried with its determinant, serves the convexity check,
the velocity, that bound and the logged residual.  Only the evolved nodes
move, so the steps run on their bounding box plus a one-node halo of fixed
values, cut from the grid with its spacing: about a quarter of the interior
on the flow benchmark's input, with snapshots equal bit for bit to those of
a full-grid run.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (det_2x2, mixed_2x2, mixed_density, smallest_eigenvalue,
                       volume_density)
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

def _flow_rhs(q, d, c):
    """The flow's velocity on the diagonal d of H, given the Hilb diagonal
    c = diag Hilb(FS(H)): k gamma (c - (sum(c/d)/(N+1)) d)."""
    return q.k * q.gamma * (c - (np.sum(c / d) / q.n_plus_1) * d)


def balancing_flow(q, H0, dt, T, log_every=5, mu_slack=1e-9):
    """Integrate the rescaled J-balancing flow from H0 up to time T.

    Explicit RK4 with dt halving whenever positivity fails or ||mu0||_F^2
    increases beyond ``mu_slack`` relative slack (gradient-flow contract);
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
    ld0 = float(x.sum())
    c = q.torus_pass(x, keep=True).hilb
    fro, op = q.mu0_norms(q.moment_vector(x, c))
    halvings = {"positivity": 0, "mu0_rise": 0}

    def make_state(t, d, x, fro, op, with_energy=True):
        diag = {"mu0_fro": fro, "mu0_op": op, "mu0_sq": fro * fro,
                "logdet": float(x.sum()),
                "halvings_positivity": halvings["positivity"],
                "halvings_mu0_rise": halvings["mu0_rise"]}
        if with_energy:
            diag["i_mu0"] = i_mu0(q, x)
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
            # moment map is traceless; only integrator drift moves it)
            d_n = d_n * np.exp((ld0 - np.log(d_n).sum()) / q.n_plus_1)
            x_n = np.log(d_n)
            c_n = q.torus_pass(x_n).hilb
            fro_n, op_n = q.mu0_norms(q.moment_vector(x_n, c_n))
            cause = None if fro_n * fro_n <= fro * fro * (1.0 + mu_slack) + 1e-300 \
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


@dataclass
class GridPotential:
    """Torus-invariant potential sampled on a rectangular log-coordinate box.

    ``dx`` and ``dy`` default to the spacing of ``xs`` and ``ys``.  A grid
    cut out of a larger one passes its parent's spacing, so that its
    difference quotients are the parent's to the last bit: the spacing of
    the cut coordinates can differ from it in the last place.

    ``hess`` is the interior Hessian of ``values`` and ``det`` its
    determinant, when they are already known.  ``jflow_step`` sets both on
    the grids it returns and makes their values read-only, so they cannot go
    stale.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    dx: float = None
    dy: float = None
    hess: tuple = field(default=None, repr=False)
    det: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.dx is None:
            self.dx = float(self.xs[1] - self.xs[0])
        if self.dy is None:
            self.dy = float(self.ys[1] - self.ys[0])

    def mesh(self):
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def interior_hessian(self):
        u, dx, dy = self.values, self.dx, self.dy
        twice = 2 * u[1:-1, 1:-1]
        uxx = (u[2:, 1:-1] - twice + u[:-2, 1:-1]) / dx ** 2
        uyy = (u[1:-1, 2:] - twice + u[1:-1, :-2]) / dy ** 2
        ddx = u[2:] - u[:-2]
        uxy = (ddx[:, 2:] - ddx[:, :-2]) / (4 * dx * dy)
        return uxx, uyy, uxy


def _with_hessian(grid, values):
    """A grid on the nodes of ``grid`` that owns ``values`` (made read-only)
    and carries their interior Hessian and its determinant."""
    values.flags.writeable = False
    new = GridPotential(grid.xs, grid.ys, values, grid.dx, grid.dy)
    new.hess = new.interior_hessian()
    new.det = det_2x2(*new.hess)
    return new


def dirichlet_box(P, slack=1e-6):
    """Per-axis half-widths such that the reference gradient is within
    ``slack`` of the polytope boundary: the exponential-sum slacks decay like
    e^{-dist}, so log(1/slack) plus the polytope width suffices."""
    widths = P.vertices.max(axis=0) - P.vertices.min(axis=0)
    return np.log(1.0 / slack) + widths


def grid_from_potential(P, u, nx, ny=None, box=None):
    ny = nx if ny is None else ny
    half = dirichlet_box(P) if box is None else np.asarray(box, dtype=float)
    xs = np.linspace(-half[0], half[0], nx)
    ys = np.linspace(-half[1], half[1], ny)
    g = GridPotential(xs=xs, ys=ys, values=np.empty((nx, ny)))
    g.values[:] = u.value(g.mesh()).reshape(nx, ny)
    return g


def _convex(hess, det, mask):
    """Whether D^2u is positive definite on the masked nodes; NaN counts as
    a loss of convexity."""
    return np.minimum(det, hess[0]).min(where=mask, initial=np.inf) > 0


def _velocity(hess, det, v_hess, gamma, mask):
    """gamma - mix/det on the masked nodes, 0 elsewhere."""
    vel = np.zeros(det.shape)
    np.divide(mixed_2x2(*hess, *v_hess), det, out=vel, where=mask)
    return np.subtract(gamma, vel, out=vel, where=mask)


def jflow_step(grid, v_hess, gamma, dt, active=None):
    """One explicit Euler step of du/dt = gamma - (1/n) tr((D^2u)^{-1} D^2v).

    Dirichlet on the box boundary; ``active`` masks the interior nodes that
    are evolved.  Returns (new grid, convexity_ok).  The step is refused,
    returning ``grid`` itself with False, unless D^2u is positive definite on
    the masked nodes both before and after it.  The new grid carries its
    interior Hessian and that Hessian's determinant, which the next step
    reuses.
    """
    if grid.hess is None:
        hess = grid.interior_hessian()
        det = det_2x2(*hess)
    else:
        hess, det = grid.hess, grid.det
    mask = active if active is not None else np.ones_like(det, dtype=bool)
    if not _convex(hess, det, mask):
        return grid, False
    return _euler_step(grid, hess, det, v_hess, gamma, dt, mask)


def _euler_step(grid, hess, det, v_hess, gamma, dt, mask):
    """The body of jflow_step, for a grid whose interior Hessian ``hess``
    (determinant ``det``) is already known to be positive definite on
    ``mask``: only the stepped grid is checked."""
    values = grid.values.copy()
    values[1:-1, 1:-1] += dt * _velocity(hess, det, v_hess, gamma, mask)
    new = _with_hessian(grid, values)
    if not _convex(new.hess, new.det, mask):
        return grid, False
    return new, True


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


def jflow_run(grid0, chi, gamma, T, snap_times=(), freeze_eps=1e-3,
              max_halvings=40, active=None):
    """Run the continuum J-flow to time T with adaptive explicit stepping.

    Interior nodes with lambda_min(D^2 u_0) < freeze_eps are held fixed (an
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
    ``max_halvings`` refusals the FlowError names the active node of
    smallest det D^2u, where the grid has degenerated.

    Only the active nodes move, so the steps run on the bounding box of the
    active nodes plus a one-node halo of fixed values, cut from the full
    grid with its spacing; the start Hessian and chi's Hessian are sliced
    to it.  Every box node sees the stencil values it would see on the full
    grid, so the snapshots, step sizes and residuals are those of a
    full-grid run bit for bit.  Each snapshot is the box written back into
    a copy of ``grid0.values``; ``JFlowResult.active`` stays the full
    interior mask and ``JFlowResult.box`` records the box's shape.

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
        active = smallest_eigenvalue(*hess0) >= freeze_eps
    if not np.any(active):
        raise FlowError("freeze_eps leaves no active nodes; refine the grid or box")

    # the box in interior indices, and with its halo in grid indices
    bi, bj = _bounding_box(active)
    halo = (slice(bi.start, bi.stop + 2), slice(bj.start, bj.stop + 2))

    def cut(a):
        return np.ascontiguousarray(a[bi, bj])

    box_active = cut(active)
    v_hess = tuple(map(cut, v_hess))
    values = grid0.values[halo].copy()
    values.flags.writeable = False
    hess = tuple(map(cut, hess0))
    grid = GridPotential(grid0.xs[halo[0]], grid0.ys[halo[1]], values, grid0.dx,
                         grid0.dy, hess=hess, det=det_2x2(*hess))

    vxx, vyy, vxy = v_hess
    sx, sy = 1.0 / grid0.dx ** 2, 1.0 / grid0.dy ** 2

    def euler_bound(grid):
        # D = adj(A) B adj(A) / det(A)^2; diagonal of I + h L is
        # 1 - h (D11/dx^2 + D22/dy^2)
        (uxx, uyy, uxy), det = grid.hess, grid.det
        d11 = uyy * uyy * vxx - 2.0 * uyy * uxy * vxy + uxy * uxy * vyy
        d22 = uxy * uxy * vxx - 2.0 * uxx * uxy * vxy + uxx * uxx * vyy
        rate = np.divide(sx * d11 + sy * d22, det * det, out=np.zeros(det.shape),
                         where=box_active)
        return 1.0 / (float(rate.max(where=box_active, initial=-np.inf)) + 1e-300)

    def sup_residual(grid):
        if not _convex(grid.hess, grid.det, box_active):
            raise FlowError("potential is not strictly convex on the active nodes")
        vel = _velocity(grid.hess, grid.det, v_hess, gamma, box_active)
        return float(np.abs(vel).max(where=box_active, initial=0.0))

    def degenerate_node(grid):
        # a step that loses convexity however far it is shortened means an
        # active node's det D^2u has fallen to roundoff, not a step size
        # fault: name the active node of smallest det on the last accepted
        # grid, by its index in grid0.values
        det = np.where(box_active, grid.det, np.inf)
        i, j = np.unravel_index(np.argmin(det), det.shape)
        gi, gj = bi.start + i + 1, bj.start + j + 1
        return (f"convexity loss persists at t={t:.4g} after {max_halvings} halvings: "
                f"D^2u degenerates at grid node ({gi}, {gj}) (x={grid0.xs[gi]:.4g}, "
                f"y={grid0.ys[gj]:.4g}), det {det[i, j]:.2e}; use a finer flow.grid")

    def snapshot(grid):
        full = grid0.values.copy()
        full[halo] = grid.values
        return full

    snaps = {}
    snap_times = sorted(set(list(snap_times) + [0.0, float(T)]))
    next_snap = 0
    t = 0.0
    res_log = [(0.0, sup_residual(grid))]
    steps = 0
    halvings = 0
    fraction = EULER_FRACTION
    dts = []
    while next_snap < len(snap_times) and snap_times[next_snap] <= 1e-14:
        snaps[snap_times[next_snap]] = snapshot(grid)
        next_snap += 1
    while t < T - 1e-12:
        span = snap_times[next_snap] - t
        h = span / max(1, math.ceil(span / (fraction * euler_bound(grid))))
        # the start residual, or the last accepted step, proved the grid convex
        new, ok = _euler_step(grid, grid.hess, grid.det, v_hess, gamma, h, box_active)
        if not ok:
            fraction *= 0.5
            halvings += 1
            if halvings > max_halvings:
                raise FlowError(degenerate_node(grid))
            continue
        grid = new
        t += h
        steps += 1
        dts.append(h)
        if steps % 25 == 0 or t >= T - 1e-12:
            res_log.append((t, sup_residual(grid)))
        if t >= snap_times[next_snap] - 1e-12:
            snaps[snap_times[next_snap]] = snapshot(grid)
            next_snap += 1
    return JFlowResult(grid0=grid0, snapshots=snaps, residual_log=res_log,
                       active=active, box=box_active.shape, steps=steps, dts=dts,
                       halvings=halvings)


# ---------------------------------------------------------------------------
# quantum-classical comparison
# ---------------------------------------------------------------------------

def _mean_normalised_sup(a, b):
    d = a - b
    return float(np.max(np.abs(d - np.mean(d))))


def quantization_comparison(levels, u0, T, nx=48, dt_ode=None, window_eps=5e-3):
    """Distances between the balancing-flow Bergman potentials and the
    continuum J-flow at t in {0, T/2, T}.

    Both flows start from matched data: the continuum from u0, the level-k
    flow from H0 = Hilb_chi(h0^k).  ``levels`` holds the (Quantisation, H0)
    pairs of one problem, built once by the caller; the continuum flow takes
    the polytope, chi and gamma from them.  Distances are sup over the
    comparison window (grid nodes where D^2 u0 is safely nondegenerate) of
    the potential difference after mean normalisation, the gauge freedom of
    potentials.

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
                                 hess0[..., 0, 1]) >= window_eps
    result = jflow_run(grid0, q0.chi, q0.gamma, T, snap_times=snap_times)
    Xw = X.reshape(nxy[0], nxy[1], 2)[window]

    rows = []
    ode_halvings = []
    for q, H0 in levels:
        dt = dt_ode if dt_ode is not None else 0.25 / (q.k * q.gamma)
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
