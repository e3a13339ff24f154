"""Time evolution: the rescaled balancing ODE, the continuum J-flow PDE,
critical-equation residuals, cone checks and the quantum-classical harness.

Balancing flow.  On Gram matrices the rescaled flow is realised as

    dH/dt = k gamma (C(H) - (tr(C H^{-1})/(N+1)) H),   C = Hilb(FS(H)),

the traceless transport of the moment-map flow whose Bergman-potential
velocity reproduces the continuum J-flow velocity gamma - chi wedge
omega^{n-1}/omega^n at leading order in k; this pins the time scale to the
continuum flow without reparameterisation.  log det H is an exact invariant
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
Hessian per step serves the convexity check, the velocity, that bound and
the logged residual.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (det_2x2, mixed_2x2, mixed_density, smallest_eigenvalue,
                       volume_density)
from .quantisation import HermitianForm, QuantisationError


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

def _flow_rhs(q, H, C=None):
    C = q.hilb_form(H) if C is None else C
    tr = float(np.trace(np.linalg.solve(H.matrix, C.matrix)).real)
    coeff = q.k * q.gamma
    return coeff * (C.matrix - (tr / q.n_plus_1) * H.matrix), C


def balancing_flow(q, H0, dt, T, log_every=5, mu_slack=1e-9):
    """Integrate the rescaled J-balancing flow from H0 up to time T.

    Explicit RK4 with dt halving whenever positivity fails or ||mu0||_F^2
    increases beyond ``mu_slack`` relative slack (gradient-flow contract);
    dt recovers geometrically after sustained accepted steps.  Diagnostics
    (||mu0||_F, ||mu0||^2, I_{mu0}, log det H) are logged every ``log_every``
    accepted steps plus the endpoints.  The map value C = Hilb(FS(H)) from
    a step's acceptance check is the next step's first stage, so a step
    costs four map applications; the logged I_{mu0} reuses that pass
    through the torus_pass memo.

    Returns a list of FlowState with HermitianForm payloads.
    """
    from .functionals import i_mu0

    H = (H0 if isinstance(H0, HermitianForm) else HermitianForm(H0, q.k))
    t = 0.0
    dt_max = float(dt)
    dt = dt_max
    ld0 = H.logdet()
    C = q.hilb_form(H)
    mu = q.mu0(H, C)
    fro, op = q.mu0_norms(mu)

    def make_state(t, H, fro, op, with_energy=True):
        diag = {"mu0_fro": fro, "mu0_op": op, "mu0_sq": fro * fro,
                "logdet": H.logdet()}
        if with_energy:
            diag["i_mu0"] = i_mu0(q, H)
        return FlowState(t=t, payload=H, diagnostics=diag)

    states = [make_state(0.0, H, fro, op)]
    accepted = 0
    halvings = 0
    while t < T - 1e-12:
        h = min(dt, T - t)
        try:
            k1, _ = _flow_rhs(q, H, C)
            H2 = HermitianForm(H.matrix + 0.5 * h * k1, q.k)
            k2, _ = _flow_rhs(q, H2)
            H3 = HermitianForm(H.matrix + 0.5 * h * k2, q.k)
            k3, _ = _flow_rhs(q, H3)
            H4 = HermitianForm(H.matrix + h * k3, q.k)
            k4, _ = _flow_rhs(q, H4)
            Hn = HermitianForm(H.matrix + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), q.k)
            # project back onto the exact invariant log det H = const (the
            # moment map is traceless; only integrator drift moves it)
            Hn = HermitianForm(Hn.matrix * np.exp((ld0 - Hn.logdet()) / q.n_plus_1), q.k)
            C_n = q.hilb_form(Hn)
            mu_n = q.mu0(Hn, C_n)
            fro_n, op_n = q.mu0_norms(mu_n)
            ok = fro_n * fro_n <= fro * fro * (1.0 + mu_slack) + 1e-300
        except QuantisationError:
            ok = False
        if not ok:
            dt *= 0.5
            halvings += 1
            if halvings > 60:
                raise FlowError(
                    f"balancing flow stalled at t={t:.4g}: dt collapsed after 60 halvings "
                    f"(||mu0||_F={fro:.3e}); positivity or monotonicity unrecoverable")
            continue
        t += h
        H, C, fro, op = Hn, C_n, fro_n, op_n
        accepted += 1
        if accepted % 32 == 0 and dt < dt_max:
            dt = min(dt_max, dt * 2.0)
        if accepted % log_every == 0 or t >= T - 1e-12:
            states.append(make_state(t, H, fro, op))
    return states


# ---------------------------------------------------------------------------
# residuals and pointwise cone checks
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


def cone_condition_check(u, chi, gamma, rule):
    """Minimum over nodes of the smallest eigenvalue of
    n gamma D^2u - (n-1) D^2v relative to D^2u (surface case n = 2).

    A positive value certifies the pointwise cone condition for the sampled
    metric; the result is invariant under simultaneous linear changes of
    coordinates (it is a generalised eigenvalue).
    """
    X = rule.nodes
    A = np.asarray(u.hessian(X))
    B = np.asarray(chi.hessian(X))
    n = A.shape[-1]
    S = n * gamma * A - (n - 1) * B
    if n == 1:
        return float(np.min(S[..., 0, 0] / A[..., 0, 0]))
    detA = volume_density(A)
    if not np.all(detA > 0):
        raise FlowError("potential is not strictly convex on the nodes")
    detS = volume_density(S)
    m = 2.0 * mixed_density(S, A)   # tr(adj(S) A)
    disc = np.maximum(m * m - 4.0 * detA * detS, 0.0)
    lam_min = (m - np.sqrt(disc)) / (2.0 * detA)
    return float(np.min(lam_min))


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

    ``hess`` is the interior Hessian of ``values`` when it is already known.
    ``jflow_step`` sets it on the grids it returns and makes their values
    read-only, so the stored Hessian cannot go stale.
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    hess: tuple = field(default=None, repr=False)

    @property
    def dx(self):
        return float(self.xs[1] - self.xs[0])

    @property
    def dy(self):
        return float(self.ys[1] - self.ys[0])

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


def _with_hessian(xs, ys, values):
    """A grid that owns ``values`` (made read-only) and carries its Hessian."""
    values.flags.writeable = False
    grid = GridPotential(xs, ys, values)
    grid.hess = grid.interior_hessian()
    return grid


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


def _convex_det(hess, mask):
    """det D^2u, or None unless D^2u is positive definite on the masked
    nodes; NaN counts as a loss of convexity."""
    uxx, uyy, uxy = hess
    det = det_2x2(uxx, uyy, uxy)
    return det if np.minimum(det, uxx).min(where=mask, initial=np.inf) > 0 else None


def _velocity(hess, det, v_hess, gamma, mask):
    """gamma - mix/det on the masked nodes, 0 elsewhere."""
    mix = mixed_2x2(*hess, *v_hess)
    return np.where(mask, gamma - np.divide(mix, det, out=np.zeros_like(det),
                                            where=mask), 0.0)


def jflow_step(grid, v_hess, gamma, dt, active=None):
    """One explicit Euler step of du/dt = gamma - (1/n) tr((D^2u)^{-1} D^2v).

    Dirichlet on the box boundary; ``active`` masks the interior nodes that
    are evolved.  Returns (new grid, convexity_ok).  The step is refused,
    returning ``grid`` itself with False, unless D^2u is positive definite on
    the masked nodes both before and after it.  The new grid carries its
    interior Hessian, which the next step reuses.
    """
    hess = grid.interior_hessian() if grid.hess is None else grid.hess
    mask = active if active is not None else np.ones_like(hess[0], dtype=bool)
    det = _convex_det(hess, mask)
    if det is None:
        return grid, False
    values = grid.values.copy()
    values[1:-1, 1:-1] += dt * _velocity(hess, det, v_hess, gamma, mask)
    new = _with_hessian(grid.xs, grid.ys, values)
    if _convex_det(new.hess, mask) is None:
        return grid, False
    return new, True


@dataclass
class JFlowResult:
    grid0: GridPotential
    snapshots: dict            # time -> values array
    residual_log: list         # (t, sup residual over monitored nodes)
    active: np.ndarray
    steps: int
    dts: list
    halvings: int              # step refusals, each halving the step fraction


def jflow_run(grid0, chi, gamma, T, snap_times=(), freeze_eps=1e-3,
              monitor=None, max_halvings=40, active=None):
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
    refused and the fraction halved for the rest of the run.

    ``active`` overrides the collar mask (interior-shaped boolean); a mask
    cut from the analytic initial Hessian keeps the effective domain
    resolution independent, which refinement studies need.
    """
    # chi is discretised with the same stencil as u, so proportional data
    # (chi = gamma omega_u) is stationary exactly, not just to O(h^2)
    vgrid = GridPotential(grid0.xs, grid0.ys,
                          np.asarray(chi.value(grid0.mesh())).reshape(grid0.values.shape))
    v_hess = vgrid.interior_hessian()
    grid = _with_hessian(grid0.xs, grid0.ys, grid0.values.copy())

    if active is None:
        active = smallest_eigenvalue(*grid.hess) >= freeze_eps
    if not np.any(active):
        raise FlowError("freeze_eps leaves no active nodes; refine the grid or box")
    monitor = active if monitor is None else (monitor & active)
    vxx, vyy, vxy = (v[active] for v in v_hess)
    sx, sy = 1.0 / grid0.dx ** 2, 1.0 / grid0.dy ** 2

    def euler_bound(hess):
        # D = adj(A) B adj(A) / det(A)^2; diagonal of I + h L is
        # 1 - h (D11/dx^2 + D22/dy^2)
        uxx, uyy, uxy = (a[active] for a in hess)
        det = det_2x2(uxx, uyy, uxy)
        d11 = uyy * uyy * vxx - 2.0 * uyy * uxy * vxy + uxy * uxy * vyy
        d22 = uxy * uxy * vxx - 2.0 * uxx * uxy * vxy + uxx * uxx * vyy
        return 1.0 / (float(np.max((sx * d11 + sy * d22) / (det * det))) + 1e-300)

    def sup_residual(hess):
        det = _convex_det(hess, active)
        if det is None:
            raise FlowError("potential is not strictly convex on the active nodes")
        return float(np.max(np.abs(_velocity(hess, det, v_hess, gamma, active)[monitor])))

    snaps = {}
    snap_times = sorted(set(list(snap_times) + [0.0, float(T)]))
    next_snap = 0
    t = 0.0
    res_log = [(0.0, sup_residual(grid.hess))]
    steps = 0
    halvings = 0
    fraction = EULER_FRACTION
    dts = []
    while next_snap < len(snap_times) and snap_times[next_snap] <= 1e-14:
        snaps[snap_times[next_snap]] = grid.values.copy()
        next_snap += 1
    while t < T - 1e-12:
        span = snap_times[next_snap] - t
        h = span / max(1, math.ceil(span / (fraction * euler_bound(grid.hess))))
        new, ok = jflow_step(grid, v_hess, gamma, h, active)
        if not ok:
            fraction *= 0.5
            halvings += 1
            if halvings > max_halvings:
                raise FlowError(f"convexity loss persists at t={t:.4g} after {max_halvings} halvings")
            continue
        grid = new
        t += h
        steps += 1
        dts.append(h)
        if steps % 25 == 0 or t >= T - 1e-12:
            res_log.append((t, sup_residual(grid.hess)))
        if t >= snap_times[next_snap] - 1e-12:
            snaps[snap_times[next_snap]] = grid.values.copy()
            next_snap += 1
    return JFlowResult(grid0=grid0, snapshots=snaps, residual_log=res_log,
                       active=active, steps=steps, dts=dts, halvings=halvings)


# ---------------------------------------------------------------------------
# quantum-classical comparison
# ---------------------------------------------------------------------------

def _mean_normalised_sup(a, b):
    d = a - b
    return float(np.max(np.abs(d - np.mean(d))))


def quantization_comparison(P, chi, gamma, rule, u0, k_list, T, nx=48,
                            dt_ode=None, window_eps=5e-3):
    """Distances between the balancing-flow Bergman potentials and the
    continuum J-flow at t in {0, T/2, T}.

    Both flows start from matched data: the continuum from u0, the level-k
    flow from Hilb_chi(h0^k).  Distances are sup over the comparison window
    (grid nodes where D^2 u0 is safely nondegenerate) of the potential
    difference after mean normalisation, the gauge freedom of potentials.

    Returns (rows, meta, pde): rows are dicts {k, t, distance}; pde is the
    JFlowResult of the continuum run, for callers that also write it out.
    """
    from .quantisation import Quantisation

    snap_times = (0.0, T / 2.0, T)
    grid0 = grid_from_potential(P, u0, nx)
    X = grid0.mesh()
    nxy = grid0.values.shape
    hess0 = np.asarray(u0.hessian(X)).reshape(nxy[0], nxy[1], 2, 2)
    window = smallest_eigenvalue(hess0[..., 0, 0], hess0[..., 1, 1],
                                 hess0[..., 0, 1]) >= window_eps
    result = jflow_run(grid0, chi, gamma, T, snap_times=snap_times)
    Xw = X.reshape(nxy[0], nxy[1], 2)[window]

    rows = []
    for k in k_list:
        q = Quantisation(P, chi, int(k), rule, gamma=gamma)
        H0 = q.hilb_map(u0)
        dt = dt_ode if dt_ode is not None else 0.25 / (q.k * gamma)
        Hs = {0.0: H0}
        Ht = H0
        for t0, t1 in zip(snap_times[:-1], snap_times[1:]):
            seg = balancing_flow(q, Ht, dt, t1 - t0, log_every=10**9)
            Ht = seg[-1].payload
            Hs[t1] = Ht
        for t in snap_times:
            u_k = q.fs_map(Hs[t])
            cont = result.snapshots[t][window]
            dist = _mean_normalised_sup(u_k.value(Xw), cont)
            rows.append({"k": int(k), "t": float(t), "distance": dist})
    meta = {"nx": nx, "window_nodes": int(window.sum()), "T": T,
            "pde_steps": result.steps, "pde_halvings": result.halvings,
            "pde_min_dt": min(result.dts, default=0.0)}
    return rows, meta, result
