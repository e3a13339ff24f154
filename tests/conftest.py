import numpy as np
import pytest
from hypothesis import settings

from jbalance import geometry as geo
from jbalance.presets import make_problem

# Property tests draw the same examples on every run (derandomize) and are
# not timed per example, since CPU speed varies between runs on shared hosts.
settings.register_profile("jbalance", derandomize=True, deadline=None, database=None)
settings.load_profile("jbalance")


@pytest.fixture(scope="session")
def square_problem():
    """(P^1 x P^1, O(1,1), O(1,1)) with chi the reference FS form, gamma=1."""
    return make_problem("P1xP1-O11-O11", resolution=64)


@pytest.fixture(scope="session")
def square_o21():
    """(P^1 x P^1, O(1,1), O(2,1)), gamma = 3/2, resolution for k up to 8."""
    return make_problem("P1xP1-O11-O21", resolution=80)


@pytest.fixture(scope="session")
def p2_problem():
    """(P^2, O(1), O(1)) at the P^2 default resolution 96."""
    return make_problem("P2-O1-O1")


@pytest.fixture(scope="session")
def p1_sanity():
    """n = 1 sanity setup: (P^1, O(1)) with chi = omega_ref."""
    P = geo.DelzantPolytope([[1], [-1]], [0, 1], name="P1")
    u = geo.reference_potential(P)
    rule = geo.calibrate(geo.build_quadrature(P, 64), P, 1, u)
    chi = geo.ScaledPotential(u, 1.0)
    return P, u, chi, rule


def random_diagonal(q, rng, spread=1.0):
    from jbalance.quantisation import HermitianForm
    return HermitianForm.from_diagonal(np.exp(rng.uniform(-spread, spread, q.n_plus_1)), q.k)


def random_hermitian(n, level, rng, mix=1.0):
    from jbalance.quantisation import HermitianForm
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = np.diag(np.exp(rng.uniform(-0.5, 0.5, n))) + mix * (A @ A.conj().T) / n
    return HermitianForm(M, level)
