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
and the committed error is quantified by the grid refinement oracle.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .geometry import mixed_density, volume_density
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
    costs four map applications; on torus-invariant forms the logged
    I_{mu0} reuses that pass through the torus_pass memo.

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
        if with_energy and H.diagonal:
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
    if np.min(det) <= 0:
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
    if np.min(detA) <= 0:
        raise FlowError("potential is not strictly convex on the nodes")
    detS = volume_density(S)
    m = (S[..., 0, 0] * A[..., 1, 1] + S[..., 1, 1] * A[..., 0, 0]
         - 2.0 * S[..., 0, 1] * A[..., 0, 1])
    disc = np.maximum(m * m - 4.0 * detA * detS, 0.0)
    lam_min = (m - np.sqrt(disc)) / (2.0 * detA)
    return float(np.min(lam_min))


def donaldson_necessary_check(data):
    """Donaldson's necessary Chern-class inequality n gamma L1 - L2 > 0,
    tested strictly against every Mori generator.  Returns (passed, margin,
    per-generator pairings), all in exact rational arithmetic."""
    gamma = Fraction(data.l1l2, data.l1l1)
    n = 2
    rows = []
    margin = None
    for gen in data.mori:
        val = n * gamma * gen.l1 - gen.l2
        rows.append({"generator": gen.name, "pairing": val})
        margin = val if margin is None else min(margin, val)
    return (margin is not None and margin > 0), margin, rows


# ---------------------------------------------------------------------------
# continuum J-flow on a grid
# ---------------------------------------------------------------------------

@dataclass
class GridPotential:
    """Torus-invariant potential sampled on a rectangular log-coordinate box."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    @property
    def dx(self):
        return float(self.xs[1] - self.xs[0])

    @property
    def dy(self):
        return float(self.ys[1] - self.ys[0])

    def mesh(self):
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        return np.stack([X.ravel(), Y.ravel()], axis=-1)

    def copy(self):
        return GridPotential(self.xs, self.ys, self.values.copy())

    def interior_hessian(self):
        u, dx, dy = self.values, self.dx, self.dy
        uxx = (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / dx ** 2
        uyy = (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / dy ** 2
        uxy = (u[2:, 2:] + u[:-2, :-2] - u[2:, :-2] - u[:-2, 2:]) / (4 * dx * dy)
        return uxx, uyy, uxy


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


def _ratio_interior(grid, vxx, vyy, vxy):
    uxx, uyy, uxy = grid.interior_hessian()
    det = uxx * uyy - uxy ** 2
    mix = 0.5 * (uxx * vyy + uyy * vxx - 2.0 * uxy * vxy)
    return mix, det, uxx


def jflow_step(grid, v_hess, gamma, dt, active=None):
    """One explicit Euler step of du/dt = gamma - (1/n) tr((D^2u)^{-1} D^2v).

    Dirichlet on the box boundary; ``active`` masks the interior nodes that
    are evolved.  Returns (new grid, convexity_ok).
    """
    vxx, vyy, vxy = v_hess
    mix, det, uxx = _ratio_interior(grid, vxx, vyy, vxy)
    mask = active if active is not None else np.ones_like(det, dtype=bool)
    if np.any(det[mask] <= 0) or np.any(uxx[mask] <= 0):
        return grid, False
    rhs = np.where(mask, gamma - np.divide(mix, det, out=np.zeros_like(det),
                                           where=mask), 0.0)
    new = grid.copy()
    new.values[1:-1, 1:-1] += dt * rhs
    return new, True


@dataclass
class JFlowResult:
    grid0: GridPotential
    snapshots: dict            # time -> values array
    residual_log: list         # (t, sup residual over monitored nodes)
    active: np.ndarray
    steps: int
    dts: list


def jflow_run(grid0, chi, gamma, T, dt=None, snap_times=(), freeze_eps=1e-3,
              safety=0.8, monitor=None, max_halvings=40, active=None):
    """Run the continuum J-flow to time T with adaptive explicit stepping.

    The stable step size is computed each step from the frozen-collar
    criterion: interior nodes with lambda_min(D^2 u_0) < freeze_eps are held
    fixed (exponentially thin collar of the toric boundary), and on the
    active set dt <= safety / max(lambda_max(A^{-1} B A^{-1}) * fd_symbol).
    Convexity loss on the active set rejects the step and halves dt.

    ``active`` overrides the collar mask (interior-shaped boolean); a mask
    cut from the analytic initial Hessian keeps the effective domain
    resolution independent, which refinement studies need.
    """
    # chi is discretised with the same stencil as u, so proportional data
    # (chi = gamma omega_u) is stationary exactly, not just to O(h^2)
    vgrid = GridPotential(grid0.xs, grid0.ys,
                          np.asarray(chi.value(grid0.mesh())).reshape(grid0.values.shape))
    v_hess = vgrid.interior_hessian()

    if active is None:
        uxx, uyy, uxy = grid0.interior_hessian()
        tr_h = uxx + uyy
        det_h = uxx * uyy - uxy ** 2
        lam_min = 0.5 * (tr_h - np.sqrt(np.maximum(tr_h ** 2 - 4 * det_h, 0.0)))
        active = lam_min >= freeze_eps
    if not np.any(active):
        raise FlowError("freeze_eps leaves no active nodes; refine the grid or box")
    monitor = active if monitor is None else (monitor & active)

    def stable_dt(grid):
        # effective diffusion tensor of the linearised step is (1/2) A^{-1}BA^{-1}
        # with lambda_max <= tr(A^{-1}B) tr(A)/det(A)
        uxx_, uyy_, uxy_ = grid.interior_hessian()
        det = (uxx_ * uyy_ - uxy_ ** 2)[active]
        mix = 0.5 * (uxx_ * v_hess[1] + uyy_ * v_hess[0] - 2 * uxy_ * v_hess[2])[active]
        lam = np.abs(2.0 * mix / det) * (uxx_ + uyy_)[active] / det
        sym = 4.0 / grid.dx ** 2 + 4.0 / grid.dy ** 2
        return safety / (0.5 * float(np.max(lam)) * sym + 1e-300)

    def sup_residual(grid):
        mix, det, _ = _ratio_interior(grid, *v_hess)
        r = gamma - mix / det
        return float(np.max(np.abs(r[monitor])))

    grid = grid0.copy()
    snaps = {}
    snap_times = sorted(set(list(snap_times) + [0.0, float(T)]))
    next_snap = 0
    t = 0.0
    res_log = [(0.0, sup_residual(grid))]
    steps = 0
    halvings = 0
    dts = []
    dt_cap = dt
    while next_snap < len(snap_times) and snap_times[next_snap] <= 1e-14:
        snaps[snap_times[next_snap]] = grid.values.copy()
        next_snap += 1
    while t < T - 1e-12:
        h = stable_dt(grid)
        if dt_cap is not None:
            h = min(h, dt_cap)
        h = min(h, T - t)
        if next_snap < len(snap_times):
            h = min(h, snap_times[next_snap] - t + 1e-15)
        new, ok = jflow_step(grid, v_hess, gamma, h, active)
        if not ok:
            dt_cap = h * 0.5 if dt_cap is None else dt_cap * 0.5
            halvings += 1
            if halvings > max_halvings:
                raise FlowError(f"convexity loss persists at t={t:.4g} after {max_halvings} halvings")
            continue
        grid = new
        t += h
        steps += 1
        dts.append(h)
        if steps % 25 == 0 or t >= T - 1e-12:
            res_log.append((t, sup_residual(grid)))
        if next_snap < len(snap_times) and t >= snap_times[next_snap] - 1e-12:
            snaps[snap_times[next_snap]] = grid.values.copy()
            next_snap += 1
    return JFlowResult(grid0=grid0, snapshots=snaps, residual_log=res_log,
                       active=active, steps=steps, dts=dts)


# ---------------------------------------------------------------------------
# quantum-classical comparison
# ---------------------------------------------------------------------------

def _mean_normalised_sup(a, b):
    d = a - b
    return float(np.max(np.abs(d - np.mean(d))))


def quantization_comparison(P, chi, gamma, rule, u0, k_list, T, nx=48,
                            dt_ode=None, window_eps=5e-3, n_theta=None):
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
    tr_h = hess0[..., 0, 0] + hess0[..., 1, 1]
    det_h = hess0[..., 0, 0] * hess0[..., 1, 1] - hess0[..., 0, 1] ** 2
    lam_min = 0.5 * (tr_h - np.sqrt(np.maximum(tr_h ** 2 - 4 * det_h, 0.0)))
    window = (lam_min >= window_eps)
    result = jflow_run(grid0, chi, gamma, T, snap_times=snap_times)
    Xw = X.reshape(nxy[0], nxy[1], 2)[window]

    rows = []
    for k in k_list:
        q = Quantisation(P, chi, int(k), rule, gamma=gamma, n_theta=n_theta)
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
            "pde_steps": result.steps}
    return rows, meta, result
