import os

import numpy as np
import pytest
from hypothesis import settings

from jbalance.presets import make_problem

# Property tests draw the same examples on every run (derandomize) and are
# not timed per example, since CPU speed varies between runs on shared hosts.
settings.register_profile("jbalance", derandomize=True, deadline=None, database=None)
settings.load_profile("jbalance")


def pytest_report_header(config):
    """The numpy version and the BLAS thread setting of the run: results
    summed by BLAS can depend on the thread count."""
    return (f"numpy {np.__version__}, OPENBLAS_NUM_THREADS="
            f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, cpu_count {os.cpu_count()}")


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


def random_form(n, level, rng, spread=1.0):
    """A torus-invariant form with log-diagonal drawn from U(-spread, spread)."""
    from jbalance.quantisation import HermitianForm
    return HermitianForm(np.exp(rng.uniform(-spread, spread, n)), level)


def random_diagonal(q, rng, spread=1.0):
    return random_form(q.n_plus_1, q.k, rng, spread)


def simpson_weights(m):
    """Composite Simpson weights on m+1 equispaced samples of [0, 1], m even:
    the tests' reference time integrals."""
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * m)
