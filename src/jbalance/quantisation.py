"""Bergman-space machinery: Hilb and FS maps, moment map, balance iteration.

Normalisation conventions (fixed once, used everywhere):

* Hilb carries the prefactor 1/(gamma k^{n-1}) and FS the pointwise constant
  (N+1)/V with V = L1^n, so that the trace identity
  tr(Hilb(FS(H)) H^{-1}) = N+1 holds exactly (up to quadrature error).  This
  identity doubles as the primary quadrature health check.
* The moment map is mu0 = (V/(N+1)) (M - tr(M)/(N+1) Id) in an H-orthonormal
  gauge, where M is the Gram matrix of Hilb(FS(H)); it vanishes exactly at
  fixed points of the det-normalised map Hilb o FS.
* Torus-invariant (diagonal) data is the fast path: angular integrals vanish
  identically and all sums are real.  One softmax S of logE - log d over
  the basis (Quantisation.torus_pass) gives the FS potential values, its
  Hessian (the softmax covariance, hence the mixed measure) and the Hilb
  diagonal; the last pass is memoised, so the map, the moment map and
  I_{mu0} at one H share it.  Non-diagonal Hermitian forms run through an
  equispaced-trapezoid angular grid, exact on the Fourier modes of the
  section products.

All exponential sums are evaluated with per-node max shifts; a positive
definiteness failure after any map application aborts with diagnostics
instead of regularising, since it signals inadequate quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (LogSumExpPotential, enumerate_lattice_points,
                       j_constant_from_polytope, mixed_density,
                       softmax_covariance, volume_density)


class QuantisationError(RuntimeError):
    """Positivity loss, non-finite quadrature sums, or shape mismatches."""


class HermitianForm:
    """Positive definite Hermitian Gram matrix on H^0(M, L1^k).

    Args:
        matrix: (N+1, N+1) Hermitian array (real symmetric also accepted).
        level: quantum parameter k the basis belongs to.
    """

    def __init__(self, matrix, level):
        M = np.asarray(matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise QuantisationError("square matrix required")
        herm_defect = np.max(np.abs(M - M.conj().T))
        if herm_defect > 1e-10 * max(1.0, float(np.max(np.abs(M)))):
            raise QuantisationError(f"matrix is not Hermitian (defect {herm_defect:.2e})")
        M = 0.5 * (M + M.conj().T)
        if np.iscomplexobj(M) and not np.any(M.imag):
            M = M.real
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise QuantisationError("matrix is not positive definite")
        self.matrix = M
        self.level = int(level)

    @property
    def n_plus_1(self):
        return self.matrix.shape[0]

    @property
    def diagonal(self):
        off = self.matrix - np.diag(np.diag(self.matrix))
        return not np.any(off)

    def diag(self):
        return np.real(np.diag(self.matrix)).copy()

    def logdet(self):
        sign, ld = np.linalg.slogdet(self.matrix)
        return float(ld)

    def det_normalised(self):
        scale = np.exp(-self.logdet() / self.n_plus_1)
        return HermitianForm(self.matrix * scale, self.level)

    @classmethod
    def identity(cls, n_plus_1, level):
        return cls(np.eye(n_plus_1), level)

    @classmethod
    def from_diagonal(cls, diag, level):
        return cls(np.diag(np.asarray(diag, dtype=float)), level)

    def to_json(self, basis=None):
        M = np.asarray(self.matrix, dtype=complex)
        return {
            "level": self.level,
            "basis_hash": None if basis is None else basis.basis_hash(),
            "shape": self.n_plus_1,
            "entries": [[z.real, z.imag] for z in M.ravel()],
        }

    @classmethod
    def from_json(cls, data):
        n = int(data["shape"])
        flat = np.array([complex(re, im) for re, im in data["entries"]])
        return cls(flat.reshape(n, n), int(data["level"]))

    def __repr__(self):
        return (f"HermitianForm(n_plus_1={self.n_plus_1}, level={self.level}, "
                f"diagonal={self.diagonal})")


def metric_distance(H0, H1, k=None):
    """Rescaled matrix distance d_k = (tr (H0-H1)^2 / k^2)^{1/2}."""
    A = np.asarray(H0.matrix if isinstance(H0, HermitianForm) else H0)
    B = np.asarray(H1.matrix if isinstance(H1, HermitianForm) else H1)
    if A.shape != B.shape:
        raise QuantisationError("shape mismatch")
    if k is None:
        k = H0.level if isinstance(H0, HermitianForm) else 1
    return float(np.sqrt(np.sum(np.abs(A - B) ** 2)) / k)


class Quantisation:
    """Fixed-level context: polytope, chi potential, basis, calibrated rule.

    Args:
        P: DelzantPolytope for (M, L1).
        chi: PotentialField whose Hessian is the chi form (level-1 data).
        k: quantum parameter.
        rule: calibrated QuadratureRule.
        gamma: J-constant L2.L1^{n-1}/L1^n; alternatively pass l2_spec and it
            is computed exactly from intersection numbers.
        n_theta: angular points per axis for non-diagonal forms
            (default 4k+3, always >= 2k+1 so the section Fourier modes are
            integrated exactly).
    """

    def __init__(self, P, chi, k, rule, gamma=None, l2_spec=None, n_theta=None):
        if not rule.meta.get("calibrated"):
            raise QuantisationError("quadrature rule must be calibrated (run geometry.calibrate)")
        self.P = P
        self.chi = chi
        self.k = int(k)
        self.rule = rule
        self.basis = enumerate_lattice_points(P, k)
        self.V = float(2 * P.volume() if P.dim == 2 else P.volume())
        if gamma is None:
            if l2_spec is None:
                raise QuantisationError("gamma or l2_spec required")
            gamma = float(j_constant_from_polytope(P, l2_spec))
        self.gamma = float(gamma)
        if self.gamma <= 0:
            raise QuantisationError("gamma must be positive for the quantisation maps")
        self.n_theta = int(n_theta) if n_theta else 4 * self.k + 3
        if self.n_theta < 2 * self.k + 1:
            raise QuantisationError("n_theta must be at least 2k+1")
        # cached per-node data
        self.nodes = rule.nodes
        self.weights = rule.weights
        self.logE = self.basis.points.astype(float) @ self.nodes.T   # (N+1, M)
        self.chi_hess = np.asarray(chi.hessian(self.nodes))
        self.hilb_norm = self.gamma * self.k ** (P.dim - 1)
        self._memo = None       # (diagonal bytes, TorusPass) of the last pass
        self._anchor = None     # TorusPass of FS(Id), filled on first use

    @property
    def n_plus_1(self):
        return self.basis.n_plus_1

    # -- FS ----------------------------------------------------------------

    def fs_map(self, H):
        """FS(H) as a potential u_H with k u_H = log rho_H - log((N+1)/V).

        Torus-invariant forms only; general Hermitian forms are handled by
        the angular-grid integrators without ever forming an x-potential.
        """
        if not isinstance(H, HermitianForm):
            H = HermitianForm(H, self.k)
        if not H.diagonal:
            raise QuantisationError("fs_map as an x-potential needs a torus-invariant (diagonal) H")
        d = H.diag()
        if np.any(d <= 0):
            raise QuantisationError("diagonal entries must be positive")
        return LogSumExpPotential(self.basis.points.astype(float),
                                  log_coeffs=-np.log(d),
                                  level=self.k,
                                  offset=-np.log(self.n_plus_1 / self.V))

    # -- Hilb ----------------------------------------------------------------

    def mixed_measure(self, u):
        """Density of chi wedge c1(h)^{n-1} over dx for h = e^{-k u}: the
        values (1/n) tr(adj(D^2(k u)) D^2 v) c_vol at the nodes."""
        return self._mix_from_hessian(np.asarray(u.hessian(self.nodes)) * self.k)

    def _mix_from_hessian(self, hess_k):
        """Mixed measure from the nodes' Hessians D^2(k u), checked >= 0."""
        mix = mixed_density(hess_k, self.chi_hess) * self.rule.c_vol
        if np.min(mix) < 0:
            raise QuantisationError("mixed measure not positive: potential not admissible")
        return mix

    def torus_pass(self, H):
        """FS and Hilb of a torus-invariant H from one softmax pass.

        With S the (M, N+1) softmax of logE - log d over the basis (d the
        diagonal of H), returns a TorusPass holding, at the nodes, the
        level-k potential values k u_H, the mixed measure of FS(H) (from the
        centred softmax covariance, which is D^2(k u_H)), and the Hilb
        diagonal ((N+1)/V) d_a sum_p w_p mix_p S_pa / (gamma k^{n-1}).

        The last pass is memoised on the exact bytes of d, so a moment map,
        an energy and a map application at the same H share one pass.  The
        returned arrays are read-only because they are shared.
        """
        if not isinstance(H, HermitianForm):
            H = HermitianForm(H, self.k)
        if not H.diagonal:
            raise QuantisationError("torus_pass needs a torus-invariant (diagonal) H")
        d = H.diag()
        key = d.tobytes()
        if self._memo is not None and self._memo[0] == key:
            return self._memo[1]
        A = self.logE.T - np.log(d)                           # (M, N+1)
        amax = A.max(axis=1)
        A -= amax[:, None]
        S = np.exp(A, out=A)
        rowsum = S.sum(axis=1)
        S /= rowsum[:, None]
        values = amax + np.log(rowsum) - np.log(self.n_plus_1 / self.V)
        mix = self._mix_from_hessian(softmax_covariance(S, self.basis.points.astype(float)))
        hilb = _checked_hilb_diagonal(
            (self.n_plus_1 / self.V) * d * ((self.weights * mix) @ S) / self.hilb_norm)
        for arr in (values, mix, hilb):
            arr.setflags(write=False)
        out = TorusPass(values=values, mix=mix, hilb=hilb)
        self._memo = (key, out)
        return out

    def anchor_pass(self):
        """torus_pass of H = Id, the FS(Id) basepoint of the energies;
        computed on first use and kept for the life of the context."""
        if self._anchor is None:
            self._anchor = self.torus_pass(HermitianForm.identity(self.n_plus_1, self.k))
        return self._anchor

    def hilb_map(self, u):
        """Hilb_chi of the torus-invariant metric e^{-k u}: diagonal Gram
        G_aa = (1/(gamma k^{n-1})) integral e^{<a,x> - k u} dmu_mix."""
        mix = self.mixed_measure(u)
        uv = u.value(self.nodes)
        W = np.exp(self.logE - self.k * uv[None, :])
        if not np.all(np.isfinite(W)):
            raise QuantisationError("overflow in section weights; quadrature box too wide for k")
        diag = (W * (self.weights * mix)[None, :]).sum(axis=1) / self.hilb_norm
        return HermitianForm(np.diag(_checked_hilb_diagonal(diag)), self.k)

    def _theta_grid(self):
        T = self.n_theta
        th = 2.0 * np.pi * np.arange(T) / T
        if self.P.dim == 1:
            return th[:, None]
        A, B = np.meshgrid(th, th, indexing="ij")
        return np.stack([A.ravel(), B.ravel()], axis=-1)

    def hilb_form(self, H, force_general=False):
        """Gram matrix of Hilb_chi(FS(H)); T_{k,chi} read on Gram matrices.

        Diagonal forms take the analytic-angular fast path.  General
        Hermitian forms are integrated over the (x, theta) product grid,
        trapezoid in theta; the per-node max shift cancels exactly between
        the section products and the Bergman density.  ``force_general``
        routes diagonal input through the angular grid (used by the
        diagonal-closure tests).
        """
        if not isinstance(H, HermitianForm):
            H = HermitianForm(H, self.k)
        if H.diagonal and not force_general:
            return HermitianForm(np.diag(self.torus_pass(H).hilb), self.k)
        B = np.linalg.inv(H.matrix)
        B = 0.5 * (B + B.conj().T)
        pts = self.basis.points.astype(float)                 # (N+1, n)
        shift = self.logE.max(axis=0)                         # (M,)
        amp = np.exp(0.5 * (self.logE - shift[None, :])).T    # (M, N+1)
        thetas = self._theta_grid()
        n = self.P.dim
        G = np.zeros((self.n_plus_1, self.n_plus_1), dtype=complex)
        const = self.n_plus_1 / self.V
        for th in thetas:
            Z = amp * np.exp(1j * (pts @ th))[None, :]        # (M, N+1)
            BZ = Z @ B.T                                      # (BZ)_a = sum_b B_{ab} z_b
            W = Z.conj() * BZ                                 # W_{pa} = sum_b B_{ab} z_b zbar_a
            rho = W.sum(axis=1).real
            if np.min(rho) <= 0:
                raise QuantisationError("Bergman density lost positivity on the angular grid")
            # pair contractions of rho-derivatives (the max shift cancels in
            # every ratio below)
            A1 = np.einsum("pa,ai->pi", W, pts)
            T1 = np.einsum("pa,ai,aj->pij", W, pts, pts)
            ZA = Z[:, :, None] * pts[None, :, :]              # (M, N+1, n)
            T2 = np.einsum("pai,ab,pbj->pij", ZA.conj(), B, ZA)
            # curvature of log rho in the holomorphic coordinates
            # w = x/2 + i theta: the Hermitian form
            # Hxx + (1/4) Htt + (i/2)(K - K^T), which reduces to the
            # x-Hessian on torus-invariant data
            gx = A1.real / rho[:, None]
            gt = 2.0 * A1.imag / rho[:, None]
            hxx = 0.5 * (T1.real + T2.real) / rho[:, None, None] \
                - np.einsum("pi,pj->pij", gx, gx)
            htt = -2.0 * (T1.real - T2.real) / rho[:, None, None] \
                - np.einsum("pi,pj->pij", gt, gt)
            kxt = (T1.imag - T2.imag) / rho[:, None, None] \
                - np.einsum("pi,pj->pij", gx, gt)
            Gc = hxx + 0.25 * htt + 0.5j * (kxt - np.swapaxes(kxt, 1, 2))
            if n == 1:
                mix = self.chi_hess[..., 0, 0] * self.rule.c_vol
            else:
                mix = 0.5 * (Gc[..., 0, 0].real * self.chi_hess[..., 1, 1]
                             + Gc[..., 1, 1].real * self.chi_hess[..., 0, 0]
                             - 2.0 * Gc[..., 0, 1].real * self.chi_hess[..., 0, 1]
                             ) * self.rule.c_vol
            if np.min(mix) < 0:
                raise QuantisationError("mixed measure not positive on the angular grid")
            coef = self.weights * mix * const / rho
            G += np.einsum("p,pa,pb->ab", coef, Z, Z.conj())
        G /= self.hilb_norm * len(thetas)
        G = 0.5 * (G + G.conj().T)
        return HermitianForm(G, self.k)

    # -- moment map and iteration ---------------------------------------------

    def t_map(self, H, normalise=False):
        """T_{k,chi} = Hilb_chi o FS read on Gram matrices."""
        if not isinstance(H, HermitianForm):
            H = HermitianForm(H, self.k)
        C = self.hilb_form(H)
        if normalise:
            scale = np.exp((H.logdet() - C.logdet()) / self.n_plus_1)
            C = HermitianForm(C.matrix * scale, self.k)
        return C

    def mu0(self, H, C=None):
        """Traceless moment map in the H-orthonormal gauge.

        mu0 = (V/(N+1)) (M - tr(M)/(N+1) Id) with M = H^{-1/2} C H^{-1/2},
        C = Hilb(FS(H)); Hermitian, exactly traceless, Ad-equivariant under
        unitary change of basis.
        """
        if not isinstance(H, HermitianForm):
            H = HermitianForm(H, self.k)
        if C is None:
            C = self.hilb_form(H)
        if H.diagonal and C.diagonal:
            m = C.diag() / H.diag()
            mu = np.diag(m - m.sum() / self.n_plus_1)
        else:
            lam, U = np.linalg.eigh(H.matrix)
            inv_sqrt = (U * (lam ** -0.5)) @ U.conj().T
            M = inv_sqrt @ C.matrix @ inv_sqrt
            M = 0.5 * (M + M.conj().T)
            mu = M - (np.trace(M).real / self.n_plus_1) * np.eye(self.n_plus_1)
        return (self.V / self.n_plus_1) * mu

    def mu0_norms(self, mu):
        fro = float(np.sqrt(np.sum(np.abs(mu) ** 2)))
        op = float(np.max(np.abs(np.linalg.eigvalsh(mu))))
        return fro, op

    def trace_identity_residual(self, H):
        """Relative defect of tr(Hilb(FS(H)) H^{-1}) = N+1; the quadrature
        health certificate."""
        if not isinstance(H, HermitianForm):
            H = HermitianForm(H, self.k)
        C = self.hilb_form(H)
        tr = float(np.trace(np.linalg.solve(H.matrix, C.matrix)).real)
        return abs(tr - self.n_plus_1) / self.n_plus_1

    def iterate_to_balance(self, H0, tol=1e-9, maxiter=500, norm="op",
                           track_energy=True):
        """Iterate H <- det-normalised Hilb(FS(H)) until ||mu0|| < tol.

        Returns a BalanceResult whose history logs, per step, the moment map
        norms, the energy I_{mu0} (non-increasing along the iteration;
        skipped when track_energy is off) and log det H.  On torus-invariant
        forms C, mu0 and I_{mu0} come from one torus_pass per step.
        Non-convergence is reported, not raised: by the variational theory
        it indicates there is no balanced metric at this level.
        """
        from .functionals import i_mu0  # deferred: functionals builds on this module

        if norm not in ("op", "fro"):
            raise QuantisationError("norm must be 'op' or 'fro'")
        H = (H0 if isinstance(H0, HermitianForm) else HermitianForm(H0, self.k)).det_normalised()
        history = []
        converged = False
        for step in range(maxiter + 1):
            C = self.hilb_form(H)
            mu = self.mu0(H, C)
            fro, op = self.mu0_norms(mu)
            energy = i_mu0(self, H) if track_energy and H.diagonal else None
            history.append({"step": step, "mu0_fro": fro, "mu0_op": op,
                            "i_mu0": energy, "logdet": H.logdet()})
            if (op if norm == "op" else fro) < tol:
                converged = True
                break
            scale = np.exp(-C.logdet() / self.n_plus_1)
            H = HermitianForm(C.matrix * scale, self.k)
        message = "converged" if converged else (
            "no balanced metric found in %d iterations (||mu0||_%s = %.3e); "
            "per the variational theory this indicates the balanced metric "
            "may not exist at level k=%d" % (maxiter, norm, history[-1]["mu0_" + norm], self.k))
        return BalanceResult(H=H, converged=converged, history=history, message=message)

    def bergman_density(self, H):
        return BergmanDensity(self, H if isinstance(H, HermitianForm) else HermitianForm(H, self.k))


def _checked_hilb_diagonal(diag):
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise QuantisationError("Hilb produced a non-PD diagonal; refine the quadrature")
    return diag


@dataclass(frozen=True)
class TorusPass:
    """Output of Quantisation.torus_pass at the quadrature nodes: level-k
    potential values k u_H, mixed measure of FS(H), and the Hilb diagonal."""

    values: np.ndarray
    mix: np.ndarray
    hilb: np.ndarray


@dataclass
class BalanceResult:
    H: HermitianForm
    converged: bool
    history: list
    message: str

    def history_columns(self):
        cols = ["step", "mu0_fro", "mu0_op", "i_mu0", "logdet"]
        return cols, [[row[c] for c in cols] for row in self.history]


class BergmanDensity:
    """rho_H(x) = sum_{ab} (H^{-1})_{ab} e^{<(a+b)/2, x>} (torus slice).

    For diagonal H this is the full Bergman function of an H-orthonormal
    basis in log coordinates; log-derivatives are those of the underlying
    exponential sum and D^2 log rho is a softmax covariance, hence PSD.
    """

    def __init__(self, q, H):
        self.q = q
        self.H = H
        B = np.linalg.inv(H.matrix)
        pts = q.basis.points.astype(float)
        if H.diagonal:
            self._pot = LogSumExpPotential(pts, log_coeffs=np.log(np.real(np.diag(B))), level=1)
            self._mids = self._coeffs = None
        else:
            idx_a, idx_b = np.meshgrid(np.arange(len(pts)), np.arange(len(pts)), indexing="ij")
            self._mids = 0.5 * (pts[idx_a.ravel()] + pts[idx_b.ravel()])
            self._coeffs = B[idx_a.ravel(), idx_b.ravel()]
            self._pot = None

    def values(self, X):
        X = np.atleast_2d(X)
        if self._pot is not None:
            A = X @ self._pot.points.T + self._pot.log_coeffs
            shift = A.max(axis=1)
            return np.exp(shift) * np.exp(A - shift[:, None]).sum(axis=1)
        A = X @ self._mids.T
        shift = A.max(axis=1)
        vals = (np.exp(A - shift[:, None]) * self._coeffs[None, :]).sum(axis=1)
        return np.exp(shift) * np.real(vals)

    def log_values(self, X):
        return np.log(self.values(X))

    def log_hessian(self, X):
        if self._pot is None:
            raise QuantisationError("log-Hessian implemented for the diagonal fast path")
        return self._pot.hessian(np.atleast_2d(X))


# ---------------------------------------------------------------------------
# Bergman asymptotics and the Q_k operator
# ---------------------------------------------------------------------------

def bergman_check(P, chi, u, k_list, rule, gamma):
    """Deviation of the normalised Bergman density from its quantum limit.

    For each k: build Hilb_chi(h^k) for the torus-invariant h = e^{-u}, form
    rho_k from the orthonormalised basis and report
    sup_nodes | rho_k V mix / ((N+1) gamma det) - 1 |, the distance of
    (V/(N+1)) rho_k from gamma omega^n / (chi wedge omega^{n-1}).  The mass
    column is the exact-orthonormality integral of rho_k against the Hilb
    measure, equal to N+1 by construction.
    """
    X = rule.nodes
    hess1 = np.asarray(u.hessian(X))
    det1 = volume_density(hess1)
    mix1 = mixed_density(hess1, np.asarray(chi.hessian(X)))
    target = gamma * det1 / mix1
    rows = []
    for k in k_list:
        q = Quantisation(P, chi, k, rule, gamma=gamma)
        G = q.hilb_map(u)
        inv_diag = 1.0 / G.diag()
        logw = q.logE - k * u.value(X)[None, :]
        rho = (np.exp(logw) * inv_diag[:, None]).sum(axis=0)
        mass = q.rule.integrate(rho * q.mixed_measure(u)) / q.hilb_norm
        dev = float(np.max(np.abs(rho * q.V / (q.n_plus_1 * target) - 1.0)))
        rows.append({"k": int(k), "n_plus_1": q.n_plus_1, "deviation": dev,
                     "mass": float(mass)})
    return rows


def qk_operator(q, f, u, omega_values):
    """Berezin-Toeplitz style averaging operator at level k.

    Args:
        q: Quantisation context (supplies basis, nodes, V).
        f: callable on nodes or precomputed values (M,).
        u: torus-invariant level-1 potential of h.
        omega_values: density of the volume form Omega over dx at the nodes
            (mass convention: integral = weights . omega_values).

    Returns:
        (qf, deviation): values of Q_k(f) at the nodes, normalised so that
        Q_k(1) equals (V/(N+1)) rho_k, and the sup-node distance to the
        classical limit (omega^n/Omega) f.
    """
    X = q.nodes
    fv = np.asarray(f(X) if callable(f) else f, dtype=float)
    om = np.asarray(omega_values, dtype=float)
    W = np.exp(q.logE - q.k * u.value(X)[None, :])      # (N+1, M)
    base = W * (q.weights * om)[None, :]
    G = base.sum(axis=1)                                # Hilb_Omega diagonal
    if np.any(G <= 0):
        raise QuantisationError("Hilb_Omega is not positive definite")
    J = base @ fv                                       # (N+1,)
    qf = (q.V / q.n_plus_1) * (W * (J / G ** 2)[:, None]).sum(axis=0)
    hess1 = np.asarray(u.hessian(X))
    target = (volume_density(hess1) * q.rule.c_vol / om) * fv
    deviation = float(np.max(np.abs(qf - target)))
    return qf, deviation
