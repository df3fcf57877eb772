import errno
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def ou_setup():
    from sdekoopman import get_model
    return get_model("ou")


@pytest.fixture(scope="session")
def quadratic_setup():
    from sdekoopman import get_model
    return get_model("quadratic", sigma=0.3)


@pytest.fixture(scope="session")
def linear2d_setup():
    from sdekoopman import get_model
    return get_model("linear2d")


@pytest.fixture(scope="session")
def langevin_setup():
    from sdekoopman import get_model
    return get_model("langevin")


@pytest.fixture(scope="session")
def quadratic_solution(quadratic_setup):
    """Solved collocation system for the quadratic model at sigma = 0.3."""
    from sdekoopman import GaussianKernel, make_grid, solve_system
    s = quadratic_setup
    grid = make_grid(s.domain, s.grid_spec)
    kern = GaussianKernel(s.lengthscale)
    sol, asys, cond = solve_system(s.system, s.decomp, s.eigenpair, kern, grid, s.gamma)
    return sol, asys, cond


@pytest.fixture
def tracemalloc_peak():
    """``peak(fn, *args)``: the peak bytes tracemalloc traces while ``fn(*args)``
    runs.  Memory that numpy's linalg takes with plain ``malloc`` (the LU's and
    the SVD's copies of their matrix) is not traced."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to this process during the test; checks
    afterwards that every child was reaped."""
    parent, forked = os.getpid(), []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield forked
    assert os.getpid() == parent
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def second_fork_fails(monkeypatch, forks):
    """``os.fork`` raises ``OSError`` (EAGAIN) on its second call, as when no
    process is left to spare; yields the pids forked, as ``forks`` does."""
    fork, calls = os.fork, []

    def failing_fork():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    return forks


def rng(seed=0):
    return np.random.default_rng(seed)
