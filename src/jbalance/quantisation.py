"""Bergman-space machinery: Hilb and FS maps, moment map, balance iteration.

Normalisation conventions (fixed once, used everywhere):

* Hilb carries the prefactor 1/(gamma k^{n-1}) and FS the pointwise constant
  (N+1)/V with V = L1^n, so that the trace identity
  tr(Hilb(FS(H)) H^{-1}) = N+1 holds exactly (up to quadrature error).  This
  identity doubles as the primary quadrature health check.
* The moment map is mu0 = (V/(N+1)) (M - tr(M)/(N+1) Id) in an H-orthonormal
  gauge, where M is the Gram matrix of Hilb(FS(H)); it vanishes exactly at
  fixed points of the det-normalised map Hilb o FS.
* Every map here works on torus-invariant data, the slice on which each
  workflow starts and which Hilb o FS preserves; by uniqueness the balanced
  form of torus-invariant data lies on it.  Such a form is diagonal in the
  monomial basis, and HermitianForm holds just its positive diagonal.
  Angular integrals vanish identically and all sums are real; no
  (N+1) x (N+1) matrix is formed.

Layout.  The slice is carried as the vector x = log diag H.  The
log-weights <a, x_p> - x_a form a basis-major (N+1, M) array, one row per
section and one column per quadrature node, which is never held whole:
kernel.node_blocks forms it one block of nodes at a time (at most
kernel.NODE_BLOCK_BYTES per block array; every benchmark level is one
block).  Per block, one softmax S of the log-weights over axis 0
(kernel.softmax_moments, the package's one softmax kernel) gives the FS
potential values and its Hessian (the centred second moments of S, hence
the mixed measure) at the block's nodes, and adds the block's share
S_b @ (w mix)_b to the Hilb diagonal; that is Quantisation.torus_pass.
The last pass is memoised, so the map, the moment map and I_{mu0} at one
H share it, and a balancing flow's start pass is kept beside it.  hilb_map
and the Bergman checks (bergman_check, qk_operator) sum over the same node
blocks (Quantisation._section_sums).  A context therefore holds only
(N+1)- and M-vectors between calls; the block arrays live in the kernel's
one kept work buffer.  Every map takes H as a
HermitianForm or as the vector x itself; the balance iteration and the
balancing flow run on the vectors and build a form only for what they
return or log.

Balance iteration.  The balanced form is the fixed point of the
det-normalised T = Hilb o FS.  Plain iteration of T decreases I_{mu0} but
needs more steps as k grows; iterate_to_balance accelerates it with
Anderson mixing (memory ANDERSON_MEMORY), safeguarded by that energy: a
mixed candidate is kept only if it does not raise I_{mu0}, else the step is
the plain one.  Because the discrete I_{mu0} is stationary at T's fixed
point only up to quadrature error, a run whose candidates are mostly
rejected reports it as a resolution problem.

All exponential sums are evaluated with per-node max shifts; a positive
definiteness failure after any map application aborts with diagnostics
instead of regularising, since it signals inadequate quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import (GeometryError, LogSumExpPotential,
                       enumerate_lattice_points, mixed_density, volume_density)
from .kernel import node_block_size, node_blocks

# Cap on the bytes that one level-k context holds live, checked from the
# Ehrhart count and the node count before anything is allocated: the three
# (N+1) x block arrays of a node block (their size set by
# kernel.NODE_BLOCK_BYTES) plus TORUS_VECTORS vectors of length N+1 and M.
MAX_TORUS_BYTES = 2 ** 30

# (N+1)- and M-vectors a level holds at once (nodes, weights, chi's Hessian,
# the memoised passes, a map's Hessians and work vectors), counted with room.
TORUS_VECTORS = 32

# Memory of the Anderson-accelerated balance iteration: the number of latest
# iterates whose images it mixes, so at most ANDERSON_MEMORY - 1 secant
# columns (Walker-Ni's depth m).
ANDERSON_MEMORY = 6


class QuantisationError(RuntimeError):
    """Positivity loss, non-finite quadrature sums, or shape mismatches."""


class HermitianForm:
    """Torus-invariant positive definite Hermitian form on H^0(M, L1^k).

    In the monomial basis such a form is diagonal, so it is held as its
    diagonal ``d``, stored exactly as given and checked once here: 1-D,
    finite and positive.

    Args:
        diag: (N+1,) diagonal entries.
        level: quantum parameter k the basis belongs to.
    """

    def __init__(self, diag, level):
        d = np.array(diag, dtype=float)
        if d.ndim != 1:
            raise QuantisationError("a torus-invariant form is given by its diagonal, "
                                    f"a 1-D array; got shape {d.shape}")
        if not np.all(np.isfinite(d) & (d > 0)):
            raise QuantisationError("form diagonal must be finite and positive")
        self.d = d
        self.level = int(level)

    @property
    def n_plus_1(self):
        return len(self.d)

    def diag(self):
        return self.d.copy()

    def logdet(self):
        return float(np.sum(np.log(self.d)))

    def det_normalised(self):
        scale = np.exp(-self.logdet() / self.n_plus_1)
        return HermitianForm(self.d * scale, self.level)

    @classmethod
    def identity(cls, n_plus_1, level):
        return cls(np.ones(n_plus_1), level)

    def to_json(self, basis=None):
        """The diagonal d_0, ..., d_N, the whole of a torus-invariant form."""
        return {
            "level": self.level,
            "basis_hash": None if basis is None else basis.basis_hash(),
            "diagonal": self.d.tolist(),
        }

    @classmethod
    def from_json(cls, data):
        """Read to_json's layout.  Refuses, with a QuantisationError, a
        missing or non-numeric diagonal and one that is not 1-D, finite and
        positive."""
        try:
            diag = np.array(data["diagonal"], dtype=float)
        except (KeyError, TypeError, ValueError):
            raise QuantisationError("form JSON: need a 'diagonal' list of numbers; "
                                    "a torus-invariant form is written as its diagonal")
        return cls(diag, int(data["level"]))

    def __repr__(self):
        return f"HermitianForm(n_plus_1={self.n_plus_1}, level={self.level})"


def check_torus_size(P, k, n_nodes):
    """Refuse, with a GeometryError, a level k whose live arrays would take
    more than MAX_TORUS_BYTES: three (N+1) x block arrays of a node block
    (a one-node tail may join the last block) and TORUS_VECTORS vectors of
    length N+1 and M.  N+1 is the closed-form Ehrhart count, so nothing is
    enumerated or allocated first."""
    n_plus_1 = P.ehrhart_count(k)
    n_nodes = int(n_nodes)
    block = min(n_nodes, node_block_size(n_plus_1) + 1)
    need = 8 * (3 * n_plus_1 * block + TORUS_VECTORS * (n_plus_1 + n_nodes))
    if need > MAX_TORUS_BYTES:
        raise GeometryError(
            f"level k={k} needs about {need / 2 ** 30:.3g} GiB for its node blocks "
            f"and vectors (N+1 = {n_plus_1}, M = {n_nodes}), above the "
            f"{MAX_TORUS_BYTES / 2 ** 30:g} GiB cap (quantisation.MAX_TORUS_BYTES)")


def log_diagonal(q, H, what):
    """x = log diag H for the torus-invariant H of the context q.

    H is a HermitianForm or x itself as a 1-D array, which must be finite
    and have N+1 entries.  Anything else, a matrix included, is refused.
    """
    if isinstance(H, HermitianForm):
        x = np.log(H.d)
    elif isinstance(H, np.ndarray) and H.ndim == 1:
        x = H
        if not np.all(np.isfinite(x)):
            raise QuantisationError(f"{what}: log-diagonal entries must be finite")
    else:
        raise QuantisationError(f"{what} needs a torus-invariant (diagonal) H")
    if x.shape != (q.n_plus_1,):
        raise QuantisationError(f"{what}: shape mismatch, {x.shape} for N+1 = {q.n_plus_1}")
    return x


class Quantisation:
    """Fixed-level context on the torus-invariant slice: polytope, chi
    potential, basis, calibrated rule.

    Every method that takes a torus-invariant H accepts a HermitianForm or
    the vector x = log diag H (see log_diagonal); the moment map is
    returned as its diagonal.

    Args:
        P: DelzantPolytope for (M, L1).
        chi: PotentialField whose Hessian is the chi form (level-1 data).
        k: quantum parameter.
        rule: calibrated QuadratureRule.
        gamma: J-constant L2.L1^{n-1}/L1^n.
        n_theta: inert; no angular grid exists.  Kept, with the integer
            attribute ``n_theta`` (default 4k+3), only because the
            benchmark's set-up probe passes it and its run record reads it.
    """

    def __init__(self, P, chi, k, rule, gamma, n_theta=None):
        if not rule.meta.get("calibrated"):
            raise QuantisationError("quadrature rule must be calibrated (run geometry.calibrate)")
        check_torus_size(P, k, len(rule.nodes))
        self.P = P
        self.chi = chi
        self.k = int(k)
        self.rule = rule
        self.basis = enumerate_lattice_points(P, k)
        self.V = float(2 * P.volume())                     # L1^2
        self.gamma = float(gamma)
        if self.gamma <= 0:
            raise QuantisationError("gamma must be positive for the quantisation maps")
        self.n_theta = int(n_theta) if n_theta else 4 * self.k + 3
        # cached per-node data
        self.nodes = rule.nodes
        self.weights = rule.weights
        self.points = self.basis.points.astype(float)
        self.chi_hess = np.asarray(chi.hessian(self.nodes))
        self.hilb_norm = self.gamma * self.k ** (P.dim - 1)
        self._memo = None       # (x bytes, TorusPass) of the last pass
        self._kept = None       # the same, of the last pass asked to be kept
        self._anchor = None     # TorusPass of FS(Id), filled on first use

    @property
    def n_plus_1(self):
        return self.basis.n_plus_1

    # -- FS ----------------------------------------------------------------

    def fs_map(self, H):
        """FS(H) as a potential u_H with k u_H = log rho_H - log((N+1)/V)."""
        return LogSumExpPotential(self.points,
                                  log_coeffs=-log_diagonal(self, H, "fs_map"),
                                  level=self.k,
                                  offset=-np.log(self.n_plus_1 / self.V))

    # -- Hilb ----------------------------------------------------------------

    def mixed_measure(self, u):
        """Density of chi wedge c1(h)^{n-1} over dx for h = e^{-k u}: the
        values (1/n) tr(adj(D^2(k u)) D^2 v) c_vol at the nodes."""
        return self._mix_from_hessian(np.asarray(u.hessian(self.nodes)) * self.k)

    def _mix_from_hessian(self, hess_k, block=slice(None)):
        """Mixed measure from the Hessians D^2(k u) at the nodes ``block``,
        checked >= 0."""
        mix = mixed_density(hess_k, self.chi_hess[block]) * self.rule.c_vol
        if np.min(mix) < 0:
            raise QuantisationError("mixed measure not positive: potential not admissible")
        return mix

    def torus_pass(self, H, keep=False):
        """FS and Hilb of a torus-invariant H from one softmax pass.

        With S the softmax of <a, x_p> - x_a over the basis (axis 0, x =
        log diag H), returns a TorusPass holding, at the nodes, the level-k
        potential values k u_H, the mixed measure of FS(H) (from the centred
        second moments of S, which are D^2(k u_H)), and the Hilb diagonal
        ((N+1)/V) e^x_a sum_p w_p mix_p S_ap / (gamma k^{n-1}).  S is made
        one node block at a time (kernel.node_blocks), and the sum over p
        adds up the blocks' shares; values and mix do not depend on the
        block size.

        Two passes are memoised on the exact bytes of x: the last one, so a
        moment map, an energy and a map application at the same H share one
        pass, and the last one asked for with ``keep=True``, which later
        passes do not evict: a balancing flow keeps its start, so a second
        flow from the same H (the flow comparison's) does not recompute it.
        The returned arrays are read-only because they are shared.
        """
        x = log_diagonal(self, H, "torus_pass")
        key = x.tobytes()
        memo = next((m for m in (self._memo, self._kept) if m and m[0] == key), None)
        if memo is None:
            memo = self._memo = (key, self._compute_pass(x))
        if keep:
            self._kept = memo
        return memo[1]

    def _compute_pass(self, x):
        values = np.empty(len(self.nodes))
        mix = np.empty(len(self.nodes))
        moments = np.zeros(self.n_plus_1)      # sum_p w_p mix_p S_ap
        for block, (lse, S, _, cov) in node_blocks(self.points, self.nodes, -x, order=2):
            values[block] = lse
            mix[block] = self._mix_from_hessian(np.moveaxis(cov, -1, 0), block)
            moments += S @ (self.weights[block] * mix[block])
        values -= np.log(self.n_plus_1 / self.V)
        hilb = _checked_hilb_diagonal(
            (self.n_plus_1 / self.V) * np.exp(x) * moments / self.hilb_norm)
        for arr in (values, mix, hilb):
            arr.setflags(write=False)
        return TorusPass(values=values, mix=mix, hilb=hilb)

    def anchor_pass(self):
        """torus_pass of H = Id, the FS(Id) basepoint of the energies;
        computed on first use and kept for the life of the context."""
        if self._anchor is None:
            self._anchor = self.torus_pass(np.zeros(self.n_plus_1))
        return self._anchor

    def hilb_map(self, u):
        """Hilb_chi of the torus-invariant metric e^{-k u}: diagonal Gram
        G_aa = (1/(gamma k^{n-1})) integral e^{<a,x> - k u} dmu_mix."""
        wmix = self.weights * self.mixed_measure(u)
        diag = self._section_sums(-(self.k * u.value(self.nodes)), wmix)
        return HermitianForm(_checked_hilb_diagonal(diag / self.hilb_norm), self.k)

    def _section_sums(self, node_offsets, columns):
        """sum_p e^{<a, x_p> + node_offsets_p} columns_p per section a, for
        columns (M,) or (M, c), one node block at a time; refuses overflow."""
        sums = np.zeros((self.n_plus_1,) + columns.shape[1:])
        for block, W in node_blocks(self.points, self.nodes, node_offsets=node_offsets):
            # exponentiated in place; exp gives no NaN from finite input,
            # so its max is finite iff every entry is
            np.exp(W, out=W)
            if not np.isfinite(W.max()):
                raise QuantisationError("overflow in section weights; quadrature box too wide for k")
            sums += W @ columns[block]
        return sums

    # -- moment map and iteration ---------------------------------------------

    def t_map(self, H, normalise=False):
        """T_{k,chi} = Hilb_chi o FS read on Gram matrices, from the
        torus_pass of H."""
        x = log_diagonal(self, H, "t_map")
        hilb = self.torus_pass(x).hilb
        if normalise:
            hilb = hilb * np.exp((x.sum() - np.log(hilb).sum()) / self.n_plus_1)
        return HermitianForm(hilb, self.k)

    def moment_vector(self, x, hilb):
        """The diagonal of mu0 (below) at x = log diag H, given the Hilb
        diagonal of H."""
        m = hilb / np.exp(x)
        return (self.V / self.n_plus_1) * (m - m.sum() / self.n_plus_1)

    def mu0(self, H):
        """Traceless moment map in the H-orthonormal gauge.

        mu0 = (V/(N+1)) (M - tr(M)/(N+1) Id) with M = H^{-1/2} C H^{-1/2},
        C = Hilb(FS(H)); on the torus-invariant slice M is the diagonal C/H,
        so mu0 is diagonal and exactly traceless.  Returns its diagonal.
        """
        x = log_diagonal(self, H, "mu0")
        return self.moment_vector(x, self.torus_pass(x).hilb)

    def mu0_norms(self, mu):
        """(Frobenius, operator) norms of a moment map, given as its
        diagonal."""
        return float(np.sqrt(np.sum(mu ** 2))), float(np.max(np.abs(mu)))

    def trace_identity_residual(self, H):
        """Relative defect of tr(Hilb(FS(H)) H^-1) = N+1; the quadrature
        health certificate.  On the slice the trace is sum_a C_aa / H_aa."""
        x = log_diagonal(self, H, "trace_identity_residual")
        tr = float(np.sum(self.torus_pass(x).hilb / np.exp(x)))
        return abs(tr - self.n_plus_1) / self.n_plus_1

    def iterate_to_balance(self, H0, tol=1e-9, maxiter=500, norm="op"):
        """Solve x = T(x) for the balanced form, until ||mu0|| < tol.

        Runs on x = log diag H with the det-normalised map T(x) = y -
        mean(y), y = log of the Hilb diagonal, so log det H = sum(x) stays
        0.  The plain iteration x <- T(x) is Donaldson's: I_{mu0} decreases
        along it, but its step count grows with k.  This is safeguarded
        Anderson acceleration of it (Walker-Ni) on the residual g(x) =
        T(x) - x: the candidate x_A is the combination of the images T of
        the last ANDERSON_MEMORY iterates whose residuals cancel best in
        least squares (_mixing_coefficients).  x_A gets its own torus_pass,
        which is the next step's pass when x_A is accepted.
        It is accepted only if that pass succeeds and I_{mu0}(x_A) <=
        I_{mu0}(x), with no slack; otherwise the step is the plain T(x),
        whose Hilb diagonal is in hand, and the memory is cleared.  So an
        accepted candidate never raises I_{mu0}, a plain step decreases it
        as in Donaldson's iteration (up to the quadrature gap below), and a
        step costs one pass, or two when its candidate is rejected.

        Returns a BalanceResult whose H is a HermitianForm and whose history
        logs, per step, the moment map norms, the energy I_{mu0}, log det H
        and the number of candidates rejected so far.

        Health signal: the safeguard relies on the discrete I_{mu0} being
        stationary where T is fixed, which holds only up to quadrature
        error.  Where that gap is not far below tol (F1, or k >= 16, at
        resolution 64), the candidates that head for T's fixed point raise
        the discrete energy, most are rejected and the iteration falls back
        to plain steps (which may then rise by that gap too).  When more
        than half the candidates are rejected the result's
        ``safeguard_stalled`` is set and the message says so and advises a
        finer rule.  Non-convergence is reported, not raised: by
        the variational theory it indicates there is no balanced metric at
        this level.
        """
        from .functionals import i_mu0  # deferred: functionals builds on this module

        if norm not in ("op", "fro"):
            raise QuantisationError("norm must be 'op' or 'fro'")
        x = log_diagonal(self, H0, "iterate_to_balance")
        x = x - x.mean()
        hilb = self.torus_pass(x).hilb
        energy = i_mu0(self, x)
        dX, dG = [], []             # secant columns, oldest first
        prev = None                 # (x, g) of the previous step
        history = []
        candidates = rejected = 0
        converged = False
        for step in range(maxiter + 1):
            fro, op = self.mu0_norms(self.moment_vector(x, hilb))
            history.append({"step": step, "mu0_fro": fro, "mu0_op": op, "i_mu0": energy,
                            "logdet": float(x.sum()), "rejected": rejected})
            if (op if norm == "op" else fro) < tol:
                converged = True
                break
            y = np.log(hilb)
            t = y - y.mean()
            g = t - x
            if prev is not None:
                dX.append(x - prev[0])
                dG.append(g - prev[1])
                del dX[:1 - ANDERSON_MEMORY], dG[:1 - ANDERSON_MEMORY]
            prev = (x, g)
            accepted = False
            gamma = _mixing_coefficients(dX, dG, g)
            if len(gamma):
                candidates += 1
                x_a = t - sum(c * (a + b) for c, a, b in zip(gamma, dX, dG))
                x_a -= x_a.mean()
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        hilb_a = self.torus_pass(x_a).hilb
                        energy_a = i_mu0(self, x_a)
                    accepted = energy_a <= energy
                except QuantisationError:
                    pass
                if not accepted:
                    # (x, g) stays as prev: the plain step from it starts
                    # the new memory's first secant column
                    rejected += 1
                    dX.clear()
                    dG.clear()
            if accepted:
                x, hilb, energy = x_a, hilb_a, energy_a
            else:
                x = t
                hilb = self.torus_pass(x).hilb
                energy = i_mu0(self, x)
        if converged:
            message = "converged"
        else:
            message = (
                "no balanced metric found in %d iterations (||mu0||_%s = %.3e); "
                "per the variational theory this indicates the balanced metric "
                "may not exist at level k=%d" % (maxiter, norm, history[-1]["mu0_" + norm], self.k))
        result = BalanceResult(H=HermitianForm(np.exp(x), self.k),
                               converged=converged, history=history, message=message,
                               rejected=rejected, candidates=candidates)
        if result.safeguard_stalled:
            result.message += (
                "; the I_mu0 safeguard rejected %d of %d Anderson candidates: the "
                "discrete energy is not stationary at the fixed point to within "
                "quadrature error; raise the resolution" % (rejected, candidates))
        return result


def _mixing_coefficients(dX, dG, g):
    """Anderson mixing coefficients: the gamma minimising ||g - dG gamma||,
    dG the matrix whose columns are the entries of ``dG``.

    Modified Gram-Schmidt on the columns, oldest first, with elementwise
    vector products only.  While a pivot falls below 1e-8 of its column's
    norm, the oldest column is dropped from ``dG`` and ``dX`` alike and the
    factorisation restarts; returns gamma for the columns that remain
    (empty when none do).
    """
    while dG:
        Q, R = [], np.zeros((len(dG), len(dG)))
        for j, col in enumerate(dG):
            v = col.copy()
            for i, q in enumerate(Q):
                R[i, j] = q @ v
                v -= R[i, j] * q
            R[j, j] = np.sqrt(v @ v)
            if not R[j, j] > 1e-8 * np.sqrt(col @ col):
                del dX[0], dG[0]
                break
            Q.append(v / R[j, j])
        else:
            gamma = np.array([q @ g for q in Q])
            for i in reversed(range(len(Q))):
                gamma[i] = (gamma[i] - R[i, i + 1:] @ gamma[i + 1:]) / R[i, i]
            return gamma
    return np.zeros(0)


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
    rejected: int       # Anderson candidates refused by the I_mu0 safeguard
    candidates: int     # Anderson candidates tried

    @property
    def safeguard_stalled(self):
        """The health signal of iterate_to_balance: the safeguard refused
        more than half the Anderson candidates."""
        return 2 * self.rejected > self.candidates

    def history_columns(self):
        cols = ["step", "mu0_fro", "mu0_op", "i_mu0", "logdet", "rejected"]
        return cols, [[row[c] for c in cols] for row in self.history]


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
    measure, equal to N+1 by construction.  rho_k is the kernel's
    log-sum-exp of <a,x> - k u - log G_aa, exponentiated.
    """
    X = rule.nodes
    value1 = u.value(X)
    hess1 = np.asarray(u.hessian(X))
    det1 = volume_density(hess1)
    rows = []
    for k in k_list:
        q = Quantisation(P, chi, k, rule, gamma=gamma)
        target = gamma * det1 / mixed_density(hess1, q.chi_hess)
        offsets = -(k * value1)
        mix = q._mix_from_hessian(hess1 * k)
        G = _checked_hilb_diagonal(q._section_sums(offsets, q.weights * mix) / q.hilb_norm)
        rho = np.empty(len(X))
        for block, (lse, *_) in node_blocks(q.points, X, -np.log(G), offsets, order=0):
            rho[block] = np.exp(lse)
        mass = rule.integrate(rho * mix) / q.hilb_norm
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
    offsets = -(q.k * u.value(X))
    wom = q.weights * om
    G, J = q._section_sums(offsets, np.stack([wom, wom * fv], axis=1)).T
    if np.any(G <= 0):
        raise QuantisationError("Hilb_Omega is not positive definite")
    coef = J / G ** 2
    qf = np.empty(len(X))
    for block, W in node_blocks(q.points, X, node_offsets=offsets):
        qf[block] = coef @ np.exp(W, out=W)
    qf *= q.V / q.n_plus_1
    hess1 = np.asarray(u.hessian(X))
    target = (volume_density(hess1) * q.rule.c_vol / om) * fv
    deviation = float(np.max(np.abs(qf - target)))
    return qf, deviation
