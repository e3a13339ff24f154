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
log-weights <a, x_p> - x_a (one row per section, one column per node) are
never held whole.  The rule's nodes are the tensor grid of its axes
(geometry.QuadratureRule.axes), node i R + j = (xi1_i, xi2_j), so each
weight factors into a row factor, a column factor and e^{-x_a}
(_TensorGrid), and every sum over the nodes is a few matrix products:
O(R^2 K) work for R nodes per axis and K lattice points across kP,
against O(M (N+1)) node by node.  Quantisation.torus_pass takes the
softmax S of the log-weights over the basis at every node: its
log-sum-exp gives the FS potential values, its centred second moments
D^2(k u_H) and hence the mixed measure, and sum_p w_p mix_p S_ap the
Hilb diagonal.  hilb_map, bergman_check and qk_operator sum the same
products over the nodes per section (_TensorGrid.hilb_sums) or over the
sections per node (_TensorGrid.density).  The node kernel
(kernel.node_blocks, a block of nodes at a time, and
kernel.softmax_moments) takes the grid nodes where the products
underflow or lose digits.  The last pass is memoised, so the map, the
moment map and I_{mu0} at one H share it, and a balancing flow's start
pass is kept beside it.  A context holds only (N+1)- and M-vectors and
the grid's factors between calls.  The balance iteration and the
balancing flow run on the vectors and build a form only for what they
return or log.

Balance iteration.  The balanced form is the fixed point of the
det-normalised T = Hilb o FS.  Plain iteration of T decreases I_{mu0} but
needs more steps as k grows; iterate_to_balance accelerates it with
Anderson mixing (memory ANDERSON_MEMORY), safeguarded by that energy: a
mixed candidate is kept only if it does not raise I_{mu0}, else the step is
the plain one.  Because the discrete I_{mu0} is stationary at T's fixed
point only up to quadrature error, a run whose candidates are mostly
rejected reports it as a resolution problem.  The CLI starts it at
reference_form, the quantised reference metric, whose FS image is k u_ref:
balanced on arrival where chi = omega, and fewer steps than H = Id
elsewhere.

All exponential sums are evaluated with shifts that keep their largest
terms near 1 (per node in the node kernel, per grid row and column on the
grid, and one more over the grid for the Hilb sums); a positive
definiteness failure after any map application aborts with diagnostics
instead of regularising, since it signals inadequate quadrature.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (GeometryError, LogSumExpPotential, enumerate_lattice_points,
                       mixed_density, volume_density)
from .kernel import node_block_size, node_blocks

# Cap on the bytes that one level-k context holds live, checked from the
# Ehrhart count and the node count before anything is allocated
# (check_torus_size): the tensor grid's grid and axis arrays, the three
# (N+1) x block arrays of a node block (their size set by
# kernel.NODE_BLOCK_BYTES) and TORUS_VECTORS vectors of length N+1 and M.
MAX_TORUS_BYTES = 2 ** 30

# (N+1)- and M-vectors a level holds at once (nodes, weights, chi's Hessian,
# the memoised passes, a map's Hessians and work vectors), counted with room.
TORUS_VECTORS = 32

# Arrays over the R1 x R2 grid nodes (Z, the moment sums per centring, the
# variances, their temporaries, the grid's copies of the weights and chi's
# Hessian) and of R x K entries (each axis's factors for its three
# centrings, the products with D) that the grid holds at once, with room.
GRID_ARRAYS = 48
AXIS_ARRAYS = 24

# The torus pass on the grid (_TensorGrid) leaves to the exact node kernel
# the grid nodes where its partition function Z is below SEPARABLE_Z_MIN,
# so that Z^2, by which it scales its moments, and the terms that matter
# (above 2^-53 Z) are normal doubles; where a centred second moment keeps
# less than 1/SEPARABLE_CANCEL of the sum it is taken from; and where the
# mixed measure is not positive.  The other grid sums leave to it the nodes
# where Z of the lattice's indicator is below SEPARABLE_Z_MIN.
SEPARABLE_Z_MIN = 2.0 ** -450
SEPARABLE_CANCEL = 64.0

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

    def __repr__(self):
        return f"HermitianForm(n_plus_1={self.n_plus_1}, level={self.level})"


def check_torus_size(P, k, resolution):
    """Refuse, with a GeometryError, a level k whose live arrays would take
    more than MAX_TORUS_BYTES on a rule of R = ``resolution`` nodes per
    axis.  They are the tensor grid's GRID_ARRAYS arrays over its R^2
    nodes, AXIS_ARRAYS of R x K and two of K x K (K = k w + 1 lattice
    points across the widest side w of P); three (N+1) x block arrays of a
    node block (a one-node tail may join the last block) for the fallback
    nodes of the grid sums and the potentials' values and Hessians; and
    TORUS_VECTORS vectors of length N+1 and R^2.  N+1 is the closed-form
    Ehrhart count, so nothing is enumerated or allocated first."""
    n_plus_1 = P.ehrhart_count(k)
    R = int(resolution)
    n_nodes = R * R
    block = min(n_nodes, node_block_size(n_plus_1) + 1)
    side = k * int(np.max(P.vertices.max(axis=0) - P.vertices.min(axis=0))) + 1
    need = 8 * (3 * n_plus_1 * block + TORUS_VECTORS * (n_plus_1 + n_nodes)
                + GRID_ARRAYS * n_nodes + AXIS_ARRAYS * R * side + 2 * side ** 2)
    if need > MAX_TORUS_BYTES:
        raise GeometryError(
            f"level k={k} needs about {need / 2 ** 30:.3g} GiB for its grid, node blocks "
            f"(fallback nodes, potentials) and vectors (N+1 = {n_plus_1}, {R} x {R} nodes), "
            f"above the {MAX_TORUS_BYTES / 2 ** 30:g} GiB cap (quantisation.MAX_TORUS_BYTES)")


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


def reference_form(q):
    """H_ref,k, the quantised reference metric of the context q: the
    torus-invariant form with FS_k(H_ref,k) = k u_ref exactly, up to
    fs_map's additive constant, for u_ref = log sum_{a in P} e^{<a, x>}
    (geometry.reference_potential).

    (sum_a e^{<a, x>})^k = sum_b m_b e^{<b, x>}, where m_b counts the
    ordered k-tuples of lattice points of P that sum to b, so the diagonal
    is d_b = 1/m_b.  The counts are k shifted sums over kP's bounding box,
    exact while they stay below 2^53.  Every lattice polygon is normal (a
    lattice point of kP is a sum of k lattice points of P), so m_b >= 1 at
    every section; a count that overflowed or is below 1 is refused with a
    QuantisationError.
    """
    ones = q.P.lattice_points(1)
    lo = ones.min(axis=0)
    steps = ones - lo
    m = np.zeros(tuple(q.k * steps.max(axis=0) + 1))
    m[0, 0] = 1.0
    with np.errstate(over="ignore"):
        for _ in range(q.k):
            prev, m = m, np.zeros_like(m)
            for s1, s2 in steps:
                m[s1:, s2:] += prev[:m.shape[0] - s1, :m.shape[1] - s2]
    counts = m[tuple((q.basis.points - q.k * lo).T)]
    if not np.all(np.isfinite(counts) & (counts >= 1)):
        raise QuantisationError(f"reference form at k={q.k}: a multiplicity m_b is not "
                                f"finite or is below 1")
    return HermitianForm(1.0 / counts, q.k)


class Quantisation:
    """Fixed-level context on the torus-invariant slice: polytope, chi
    potential, basis, calibrated rule.

    Every method that takes a torus-invariant H accepts a HermitianForm or
    the vector x = log diag H (see log_diagonal); the moment map is
    returned as its diagonal.

    Args:
        P: DelzantPolytope for (M, L1).
        chi: potential whose Hessian is the chi form (level-1 data).
        k: quantum parameter.
        rule: calibrated QuadratureRule.
        gamma: J-constant L2.L1^{n-1}/L1^n.
        n_theta: inert; no angular grid exists.  Kept, with the integer
            attribute ``n_theta`` (default 4k+3), only because the
            benchmark's set-up probe passes it and its run record reads it.
        chi_hess: chi's Hessian at the rule's nodes, when the caller holds
            it (a Problem evaluates it once for every level); read, never
            written.
    """

    def __init__(self, P, chi, k, rule, gamma, n_theta=None, chi_hess=None):
        if not rule.calibrated:
            raise QuantisationError("quadrature rule must be calibrated (run geometry.calibrate)")
        check_torus_size(P, k, rule.resolution)
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
        self.chi_hess = np.asarray(chi.hessian(self.nodes) if chi_hess is None else chi_hess)
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
        if np.any(mix < 0):
            raise QuantisationError("mixed measure not positive: potential not admissible")
        return mix

    def torus_pass(self, H, keep=False):
        """FS and Hilb of a torus-invariant H from one softmax pass.

        With S the softmax of <a, x_p> - x_a over the basis (axis 0, x =
        log diag H), returns a TorusPass holding, at the nodes, the level-k
        potential values k u_H, the mixed measure of FS(H) (from the centred
        second moments of S, which are D^2(k u_H)), and the Hilb diagonal
        ((N+1)/V) e^x_a sum_p w_p mix_p S_ap / (gamma k^{n-1}), and the
        indices of the nodes evaluated by the node kernel, those that the
        grid products (_TensorGrid.pass_sums) cannot resolve.  Their values
        and mix do not depend on the block size.

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

    @cached_property
    def grid(self):
        """The _TensorGrid of the rule, built on first use."""
        return _TensorGrid(self)

    def _compute_pass(self, x):
        values, mix, exact, grid_sums = self.grid.pass_sums(x)
        # the nodes the grid leaves to the node kernel, and their share
        # sum_p w_p mix_p S_ap of the Hilb sums
        moments = np.zeros(self.n_plus_1)
        for block, (lse, S, _, cov) in node_blocks(self.points, self.nodes[exact], -x, order=2):
            nodes = exact[block]
            values[nodes] = lse
            mix[nodes] = self._mix_from_hessian(np.moveaxis(cov, -1, 0), nodes)
            moments += S @ (self.weights[nodes] * mix[nodes])
        values -= np.log(self.n_plus_1 / self.V)
        hilb = _checked_hilb_diagonal(
            (self.n_plus_1 / self.V) * (np.exp(x) * moments + grid_sums) / self.hilb_norm)
        for arr in (values, mix, hilb, exact):
            arr.setflags(write=False)
        return TorusPass(values=values, mix=mix, hilb=hilb, exact=exact)

    def anchor_pass(self):
        """torus_pass of H = Id, the FS(Id) basepoint of the energies;
        computed on first use and kept for the life of the context."""
        if self._anchor is None:
            self._anchor = self.torus_pass(np.zeros(self.n_plus_1))
        return self._anchor

    def hilb_map(self, u, at_nodes=None):
        """Hilb_chi of the torus-invariant metric e^{-k u}: diagonal Gram
        G_aa = (1/(gamma k^{n-1})) integral e^{<a,x> - k u} dmu_mix.
        ``at_nodes`` is u's (values, Hessians) at the rule's nodes, when the
        caller holds them (a job maps one start at every level)."""
        value, hess = at_nodes or (u.value(self.nodes), u.hessian(self.nodes))
        mix = self._mix_from_hessian(np.asarray(hess) * self.k)
        diag = self.grid.hilb_sums(self.k * value, self.weights * mix)
        return HermitianForm(_checked_hilb_diagonal(diag / self.hilb_norm), self.k)

    # -- moment map and iteration ---------------------------------------------

    def t_map(self, H):
        """T_{k,chi} = Hilb_chi o FS read on Gram matrices, from the
        torus_pass of H."""
        return HermitianForm(self.torus_pass(log_diagonal(self, H, "t_map")).hilb, self.k)

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


class _TensorGrid:
    """The rule's tensor grid: the x-independent axis factors of every sum
    over the nodes (the torus pass, hilb_map, the Bergman checks).

    Node (i, j) is (xi1_i, xi2_j) for the rule's ``axes``, so over the
    bounding box lo_d <= a_d <= hi_d of kP the softmax weight of section a
    there factors:
    e^{<a, xi> - x_a} = E1[i, a1] E2[j, a2] D[a1, a2] e^{shift_ij - min x}.
    Per axis, E[i, a] = e^{(a - c_i) xi_i} <= 1 with c_i the end of the
    range where a xi_i is largest, the axis-wise heaviest point of row i,
    and shift_ij = c_i xi1_i + c_j xi2_j; per pass, D = e^{min x - x_a} at
    the lattice points and 0 elsewhere.

    The moments are sums of E weighted by (a - e) and (a - e)^2 for an end
    e of the range, so each adds terms of one sign: ``ends`` holds those
    weighted factors for e = lo and e = hi, ``own`` for e = c_i.  The node
    kernel takes the ``fallback`` nodes of hilb_sums and density, those
    where the lattice's indicator has Z below SEPARABLE_Z_MIN.
    """

    def __init__(self, q):
        lo = q.points.min(axis=0)
        hi = q.points.max(axis=0)
        self.box = tuple((hi - lo + 1).astype(int))
        self.rows, self.cols = (q.points - lo).astype(np.intp).T
        self.factors, self.ends, self.own = [], [], []
        shift = []
        for xi, a_lo, a_hi in zip(q.rule.axes, lo, hi):
            a = np.arange(a_lo, a_hi + 1)
            top = (xi > 0).astype(np.intp)
            c = np.array([a_lo, a_hi])[top]
            E = np.exp((a - c[:, None]) * xi[:, None])
            d = a - np.array([a_lo, a_hi])[:, None, None]  # (2, 1, K): exact small integers
            F, FF = d * E, d * d * E
            rows = (top, np.arange(len(xi)))
            self.factors.append(E)
            self.ends.append((F, FF))
            self.own.append((F[rows], FF[rows]))
            shift.append(c * xi)
        self.shift = shift[0][:, None] + shift[1]
        self.weights = q.weights.reshape(self.shift.shape)
        # chi's Hessian entries xx/2, yy/2, xy, one grid plane each (the
        # halving is exact), for _mixed
        B = q.chi_hess[:, [0, 1, 0], [0, 1, 1]] * q.rule.c_vol
        B[:, :2] *= 0.5
        self.chi = np.ascontiguousarray(B.T).reshape((3,) + self.shift.shape)
        lattice = np.zeros(self.box)
        lattice[self.rows, self.cols] = 1.0
        self.fallback = np.flatnonzero(~(self.partition(lattice)[1] >= SEPARABLE_Z_MIN))
        self.points, self.nodes = q.points, q.nodes

    def partition(self, D):
        """(E1 D, E1 D E2^T) for D over the box: per grid node, the latter
        is sum_a e^{<a, xi> - shift_ij} D_a."""
        ED = self.factors[0] @ D
        return ED, ED @ self.factors[1].T

    def section_sums(self, C):
        """E1^T C E2 at the lattice points for C (..., R1, R2): per section,
        sum_ij e^{<a, xi> - shift_ij} C_ij."""
        E1, E2 = self.factors
        return (E1.T @ C @ E2)[..., self.rows, self.cols]

    def hilb_sums(self, k_u, columns):
        """sum_p e^{<a, x_p> - k u_p} columns_p per section a, columns (..., M):
        section_sums under one shift, the largest shift_ij - k u off the
        fallback nodes, plus the node kernel's; refuses overflow."""
        g = self.shift - k_u.reshape(self.shift.shape)
        g.flat[self.fallback] = -np.inf
        top = g.max(initial=-np.inf)
        C = np.exp(g - top) * columns.reshape(columns.shape[:-1] + g.shape)
        sums = np.exp(top) * self.section_sums(C)
        for nodes, W in self._node_weights(k_u):
            sums += columns[..., nodes] @ W.T
        if not np.all(np.isfinite(sums)):
            raise QuantisationError("overflow in section weights; quadrature box too wide for k")
        return sums

    def density(self, k_u, coeffs):
        """sum_a coeffs_a e^{<a, x_p> - k u_p} per node p: e^{shift_ij - k u}
        times the partition of the coeffs, and the node kernel's."""
        scale = np.abs(coeffs).max() or 1.0
        D = np.zeros(self.box)
        D[self.rows, self.cols] = coeffs / scale
        g = self.shift - k_u.reshape(self.shift.shape)
        g.flat[self.fallback] = -np.inf
        out = (np.exp(g + np.log(scale)) * self.partition(D)[1]).ravel()
        for nodes, W in self._node_weights(k_u):
            out[nodes] = coeffs @ W
        return out

    def _node_weights(self, k_u):
        """(nodes, e^{<a, x_p> - k u_p}) per node block of the fallback nodes."""
        for block, W in node_blocks(self.points, self.nodes[self.fallback],
                                    node_offsets=-k_u[self.fallback]):
            yield self.fallback[block], np.exp(W, out=W)

    def pass_sums(self, x):
        """The pass on the grid: returns the values (k u_H before its
        constant) and the mixed measure at the nodes, right at the nodes it
        resolves, the nodes it leaves to the node kernel, and the Hilb sums
        e^x_a sum_p w_p mix_p S_ap over the resolved nodes.

        Z = partition(D), the moments centred on (c_i, c_j) and the Hilb
        sums section_sums(w mix / Z) are products of shapes R x K x K and
        R x K x R.  Where the softmax sits at the far end of an axis from c,
        as in a skew fan's corners, that centring loses digits; the rows and
        columns of such nodes are summed again, centred on the ends nearer
        each node's mean.  The node kernel takes the nodes where Z is below
        SEPARABLE_Z_MIN, or where even so a centred second moment keeps
        less than 1/SEPARABLE_CANCEL of its sum or the mix is not positive.
        """
        xmin = x.min()
        D = np.zeros(self.box)
        D[self.rows, self.cols] = np.exp(xmin - x)
        E2 = self.factors[1]
        (F1, FF1), (F2, FF2) = self.own
        ED, Z = self.partition(D)
        FD = F1 @ D
        unresolved = ~(Z >= SEPARABLE_Z_MIN)
        np.maximum(Z, SEPARABLE_Z_MIN, out=Z)
        grid_mix, lost = self._mixed(Z, FD @ E2.T, (FF1 @ D) @ E2.T, ED @ F2.T, ED @ FF2.T,
                                     FD @ F2.T, self.chi)
        lost &= ~unresolved
        if lost.any():
            block = tuple(slice(idx[0], idx[-1] + 1) for idx in
                          (np.flatnonzero(lost.any(axis=1)), np.flatnonzero(lost.any(axis=0))))
            grid_mix[block], lost[block] = self._recentred(D, ED, Z, block)
        unresolved |= lost
        values = (np.log(Z) + self.shift - xmin).ravel()
        C = grid_mix * self.weights
        C /= Z
        C[unresolved] = 0.0
        # e^x_a D_a = e^{min x}
        sums = np.exp(xmin) * self.section_sums(C)
        return values, grid_mix.ravel(), np.flatnonzero(unresolved), sums

    def _recentred(self, D, ED, Z, block):
        """The mixed measure on a block of rows and columns (two slices, so
        every array here is a view), each node's moments centred on the
        ends nearer its mean (those with the smaller second moments), and
        where it loses digits even so.  Where the flagged rows or columns
        are not contiguous the block spans the others between them too;
        centred on its nearer ends, a node is never less exact."""
        rows, cols = block
        E2 = self.factors[1][cols]
        (F1, FF1), (F2, FF2) = ((F[:, idx], FF[:, idx]) for (F, FF), idx
                                in zip(self.ends, block))
        ED, FD, F2t = ED[rows], F1 @ D, F2.swapaxes(1, 2)
        m1, t11 = FD @ E2.T, (FF1 @ D) @ E2.T          # (2, rows, cols): per end
        m2, t22 = ED @ F2t, ED @ FF2.swapaxes(1, 2)
        t12 = FD[:, None] @ F2t                         # (2, 2, rows, cols)
        top1, top2 = t11[1] < t11[0], t22[1] < t22[0]
        t12 = np.where(top1, np.where(top2, t12[1, 1], t12[1, 0]),
                       np.where(top2, t12[0, 1], t12[0, 0]))
        return self._mixed(Z[block], np.where(top1, m1[1], m1[0]), np.where(top1, t11[1], t11[0]),
                           np.where(top2, m2[1], m2[0]), np.where(top2, t22[1], t22[0]), t12,
                           [b[block] for b in self.chi])

    @staticmethod
    def _mixed(Z, m1, t11, m2, t22, t12, chi):
        """The mixed measure at some nodes from the centred moment sums of
        the softmax weights times Z (means m / Z, second moments t / Z),
        and where it loses digits; the moment sums are overwritten.  The
        variances are n / Z^2, and with chi's planes (bxx/2, byy/2, bxy)
        the measure is geometry.mixed_2x2's (n11 byy + n22 bxx)/2 - n12 bxy,
        bit for bit."""
        hxx, hyy, bxy = chi
        t11 *= Z
        t22 *= Z
        t12 *= Z
        t12 -= m1 * m2      # now n12
        n11 = np.subtract(t11, np.square(m1, out=m1), out=m1)
        n22 = np.subtract(t22, np.square(m2, out=m2), out=m2)
        lost = t11 > SEPARABLE_CANCEL * n11
        lost |= t22 > SEPARABLE_CANCEL * n22
        mix = np.multiply(n11, hyy, out=n11)
        mix += np.multiply(n22, hxx, out=n22)
        mix -= np.multiply(t12, bxy, out=t12)
        mix /= Z * Z
        lost |= ~(mix > 0)
        return mix, lost


def _checked_hilb_diagonal(diag):
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise QuantisationError("Hilb produced a non-PD diagonal; refine the quadrature")
    return diag


@dataclass(frozen=True)
class TorusPass:
    """Output of Quantisation.torus_pass at the quadrature nodes: level-k
    potential values k u_H, mixed measure of FS(H), and the Hilb diagonal;
    ``exact`` lists the grid nodes that the node kernel evaluated, those
    the grid products cannot resolve."""

    values: np.ndarray
    mix: np.ndarray
    hilb: np.ndarray
    exact: np.ndarray


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
    measure, equal to N+1 by construction.  G and rho_k = sum_a e^{<a,x> -
    k u} / G_aa are sums over the grid (_TensorGrid.hilb_sums, density).
    """
    X = rule.nodes
    value1 = u.value(X)
    hess1 = np.asarray(u.hessian(X))
    det1 = volume_density(hess1)
    rows = []
    for k in k_list:
        q = Quantisation(P, chi, k, rule, gamma=gamma)
        target = gamma * det1 / mixed_density(hess1, q.chi_hess)
        mix = q._mix_from_hessian(hess1 * k)
        G = _checked_hilb_diagonal(q.grid.hilb_sums(k * value1, q.weights * mix) / q.hilb_norm)
        rho = q.grid.density(k * value1, 1.0 / G)
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
    k_u = q.k * u.value(X)
    wom = q.weights * om
    G, J = q.grid.hilb_sums(k_u, np.stack([wom, wom * fv]))
    if np.any(G <= 0):
        raise QuantisationError("Hilb_Omega is not positive definite")
    qf = q.grid.density(k_u, J / G ** 2) * (q.V / q.n_plus_1)
    hess1 = np.asarray(u.hessian(X))
    target = (volume_density(hess1) * q.rule.c_vol / om) * fv
    deviation = float(np.max(np.abs(qf - target)))
    return qf, deviation
