"""The safeguarded Anderson-accelerated balance iteration: pass counts that
stay flat in k, the monotone energy, agreement with the plain iteration
x <- T(x), and the quadrature health signal of the safeguard."""

import numpy as np
import pytest

from jbalance.geometry import DelzantPolytope, polytope_preset
from jbalance.presets import make_problem
from jbalance.quantisation import HermitianForm, Quantisation, QuantisationError


@pytest.fixture
def count_passes(monkeypatch):
    """A list that gets one entry per torus_pass computed (memo misses)."""
    passes = []
    real_pass = Quantisation.torus_pass

    def counting_pass(self, H):
        memo = self._memo
        out = real_pass(self, H)
        if self._memo is not memo:
            passes.append(1)
        return out

    monkeypatch.setattr(Quantisation, "torus_pass", counting_pass)
    return passes


def balance(q):
    return q.iterate_to_balance(HermitianForm.identity(q.n_plus_1, q.k), tol=1e-9,
                                maxiter=500, norm="fro")


def monotone(res, slack=1e-12):
    energy = [row["i_mu0"] for row in res.history]
    return all(b <= a + slack for a, b in zip(energy, energy[1:]))


def plain_balance(q, tol=1e-9, maxiter=2000):
    """Reference: Donaldson's plain iteration x <- log Hilb(FS(e^x)) - mean,
    from H = Id until ||mu0||_F < tol; returns the det-normalised form."""
    x = np.zeros(q.n_plus_1)
    for _ in range(maxiter):
        hilb = q.torus_pass(x).hilb
        if q.mu0_norms(q.moment_vector(x, hilb))[0] < tol:
            return HermitianForm(np.exp(x), q.k).det_normalised()
        y = np.log(hilb)
        x = y - y.mean()
    raise AssertionError("plain iteration did not converge")


def f1_unstable(resolution):
    """F1 with L1 = (0,0,2,3) and L2 = (1,1,0,2): a J-unstable class, on
    which the plain iteration needs about 1000 steps at k = 4."""
    F1 = polytope_preset("F1")
    P = DelzantPolytope(F1.normals, [0, 0, 2, 3], name="F1-L1")
    return make_problem("F1-unstable", resolution=resolution, polytope=P,
                        l2_spec=[1, 1, 0, 2])


def test_f1_unstable_balances_in_few_passes(count_passes):
    q = f1_unstable(128).quantisation(4)
    res = balance(q)
    assert res.converged and res.message == "converged"
    assert len(count_passes) - 1 <= 40          # after the anchor pass
    assert monotone(res)
    assert res.history[-1]["rejected"] == res.rejected


def test_pass_count_flat_in_k(square_o21, count_passes):
    q = square_o21.quantisation(8)
    res = balance(q)
    assert res.converged and monotone(res)
    assert len(count_passes) - 1 <= 15


@pytest.mark.parametrize("fixture,k", [("p2_problem", 5), ("square_o21", 8)])
def test_anderson_limit_matches_plain_iteration(request, fixture, k):
    q = request.getfixturevalue(fixture).quantisation(k)
    res = balance(q)
    assert res.converged
    ref = plain_balance(q)
    got = res.H.det_normalised()
    assert np.max(np.abs(got.diag() / ref.diag() - 1.0)) < 1e-6


def test_safeguard_health_signal_on_coarse_quadrature(p2_problem):
    # at resolution 32 the discrete I_mu0 is not stationary at T's fixed
    # point to within the tolerance, so the safeguard rejects most Anderson
    # candidates and the result says why
    coarse = make_problem("P2-O1-O1", resolution=32).quantisation(3)
    res = balance(coarse)
    assert res.converged
    assert 2 * res.rejected > len(res.history) - 2
    assert "safeguard rejected" in res.message and "raise the resolution" in res.message
    # the same level at the preset's resolution converges without the signal
    fine = balance(p2_problem.quantisation(3))
    assert fine.converged and fine.message == "converged"
    assert 2 * fine.rejected < len(fine.history)


def test_failed_candidate_pass_falls_back_to_plain_step(p2_problem, monkeypatch):
    # a candidate whose torus_pass refuses it (as for an overflowing or
    # non-PD Hilb diagonal) is rejected, not raised; with every candidate
    # refused the iteration is the plain one, step for step
    q = p2_problem.quantisation(3)
    real_pass = Quantisation.torus_pass
    images = set()

    def refusing_pass(self, H):
        x = np.asarray(H)
        if x.ndim == 1 and x.any() and x.tobytes() not in images:
            raise QuantisationError("Hilb produced a non-PD diagonal; refine the quadrature")
        out = real_pass(self, H)
        y = np.log(out.hilb)
        images.add((y - y.mean()).tobytes())
        return out

    monkeypatch.setattr(Quantisation, "torus_pass", refusing_pass)
    res = balance(q)
    monkeypatch.undo()
    accelerated = balance(q)
    assert res.converged and res.rejected == len(res.history) - 2
    ref = plain_balance(q)
    assert np.array_equal(res.H.det_normalised().diag(), ref.diag())
    assert len(res.history) > len(accelerated.history)
