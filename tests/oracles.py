"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms they check: derivatives come from
central finite differences and trace identities from dense matrix algebra.
"""

import numpy as np


def fd_grad(kern, x, y, h=1e-5):
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (kern.eval(x + e, y) - kern.eval(x - e, y)) / (2 * h)
    return g


def fd_hessian(kern, x, y, h=1e-4):
    d = x.size
    H = np.empty((d, d))
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        for j in range(d):
            ej = np.zeros(d)
            ej[j] = h
            H[i, j] = (kern.eval(x + ei + ej, y) - kern.eval(x + ei - ej, y)
                       - kern.eval(x - ei + ej, y) + kern.eval(x - ei - ej, y)) / (4 * h * h)
    return H


def fd_directional_second(kern, x, y, v, h=1e-5):
    """(v . grad)^2 k by a second difference along the direction v."""
    return (kern.eval(x + h * v, y) - 2.0 * kern.eval(x, y) + kern.eval(x - h * v, y)) / h**2


def random_kernel_cases(n_cases, seed=0, max_dim=4):
    """Random (x, y, lengthscale, d) tuples with non-degenerate separation."""
    gen = np.random.default_rng(seed)
    cases = []
    while len(cases) < n_cases:
        d = int(gen.integers(1, max_dim + 1))
        ell = float(gen.uniform(0.6, 2.0))
        x = gen.uniform(-1.0, 1.0, size=d)
        y = gen.uniform(-1.0, 1.0, size=d)
        if np.linalg.norm(x - y) < 0.2 * ell:
            continue
        cases.append((x, y, ell))
    return cases


def random_spd_matrix(d, seed):
    gen = np.random.default_rng(seed)
    S = gen.uniform(-1, 1, size=(d, d))
    return S @ S.T + 0.1 * np.eye(d)


def fd_dirichlet_1d(drift, a, source, lam, lower, upper, psi, n):
    """Solve ``G h' + (1/2) a h'' - lam h = -f`` on [lower, upper] with ``h = psi``
    at both ends, by central differences on ``n`` interior nodes.

    ``drift``, ``a`` and ``source`` map a vector of points to G, the diffusion
    tensor and f there; ``psi`` is the pair of end values.  The tridiagonal
    system is solved by forward elimination and back substitution.  Returns
    the nodes and h there, ends included.
    """
    x = np.linspace(lower, upper, n + 2)
    dx = x[1] - x[0]
    xi = x[1:-1]
    g, half_a = drift(xi) / (2 * dx), 0.5 * a(xi) / dx**2
    sub, diag, sup = half_a - g, -2 * half_a - lam, half_a + g
    rhs = -source(xi)
    rhs[0] -= sub[0] * psi[0]
    rhs[-1] -= sup[-1] * psi[1]
    for i in range(1, n):
        m = sub[i] / diag[i - 1]
        diag[i] -= m * sup[i - 1]
        rhs[i] -= m * rhs[i - 1]
    h = np.empty(n + 2)
    h[0], h[-1] = psi
    h[n] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        h[i + 1] = (rhs[i] - sup[i] * h[i + 2]) / diag[i]
    return x, h


def fd_dirichlet_eigenvalues_1d(drift, a, lower, upper, n, k):
    """The ``k`` smallest Dirichlet eigenvalues mu of ``-(G u' + (1/2) a u'')``
    on [lower, upper], ascending, from the central-difference operator of
    :func:`fd_dirichlet_1d` (with lam = 0) on ``n`` interior nodes.

    The operator is tridiagonal.  Where each product of its opposite
    off-diagonals is positive, a diagonal similarity makes it symmetric with
    off-diagonals the square roots of those products, so its eigenvalues are
    real and a symmetric tridiagonal solver finds them.
    """
    from scipy.linalg import eigvalsh_tridiagonal

    x = np.linspace(lower, upper, n + 2)
    dx = x[1] - x[0]
    xi = x[1:-1]
    g, half_a = drift(xi) / (2 * dx), 0.5 * a(xi) / dx**2
    sub, sup = half_a - g, half_a + g
    products = sub[1:] * sup[:-1]
    if not np.all(products > 0):
        raise ValueError("the operator cannot be symmetrized: sub * sup <= 0")
    return eigvalsh_tridiagonal(2 * half_a, -np.sqrt(products),
                                select="i", select_range=(0, k - 1))
