"""Reference numerics computed apart from the program.

Everything here is written from the paper's constructions with plain loops
and numpy, and shares no code with ``accr``:

* the structure constants of the group examples (their displayed brackets),
* the frame Koszul formula for a left-invariant metric,
* the curvature of a left-invariant connection, for Ric(xi, xi),
* the connection table the paper displays for Example 2,
* coordinate metrics of the three chart models and a coordinate-Christoffel
  Ricci tensor by nested finite differences, for Ric(d/dt, d/dt) = 2n.

Frames are adapted, (xi = e_0, e_1..e_n, phi e_1..phi e_n), with the
standard signature (+1 x (n+1), -1 x n).
"""

from __future__ import annotations

import numpy as np


def signature(n):
    return np.array([1.0] * (n + 1) + [-1.0] * n)


def _brackets_to_constants(d, brackets):
    """c[k, i, j] is the e_k-coefficient of [e_i, e_j]."""
    c = np.zeros((d, d, d))
    for (i, j), terms in brackets.items():
        for k, val in terms.items():
            c[k, i, j] += val
            c[k, j, i] -= val
    return c


def example1_constants(n):
    """[e_0, e_i] = e_{n+i}, [e_0, e_{n+i}] = -e_i."""
    brackets = {}
    for i in range(1, n + 1):
        brackets[(0, i)] = {n + i: 1.0}
        brackets[(0, n + i)] = {i: -1.0}
    return _brackets_to_constants(2 * n + 1, brackets)


def example2_constants(lam, mu):
    """[e0,e1] = lam e2 + e3 + mu e4,   [e0,e2] = -lam e1 - mu e3 + e4,
    [e0,e3] = -e1 - mu e2 + lam e4,    [e0,e4] = mu e1 - e2 - lam e3."""
    brackets = {
        (0, 1): {2: lam, 3: 1.0, 4: mu},
        (0, 2): {1: -lam, 3: -mu, 4: 1.0},
        (0, 3): {1: -1.0, 2: -mu, 4: lam},
        (0, 4): {1: mu, 2: -1.0, 3: -lam},
    }
    return _brackets_to_constants(5, brackets)


def flat_constants(n):
    d = 2 * n + 1
    return np.zeros((d, d, d))


def group_constants(name, params):
    if name == "example1":
        return example1_constants(int(params["n"]))
    if name == "example2":
        return example2_constants(float(params["lam"]), float(params["mu"]))
    if name == "flat_parallel":
        return flat_constants(int(params["n"]))
    raise KeyError(name)


def koszul_lie(c, eps):
    """gamma[i, j, l]: e_l-coefficient of nabla_{e_i} e_j for the diagonal
    left-invariant metric g = diag(eps), from

        2 g(nabla_i e_j, e_l) = g([e_i,e_j], e_l) - g([e_j,e_l], e_i)
                                + g([e_l,e_i], e_j).
    """
    d = len(eps)
    gamma = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            for l in range(d):
                lowered = 0.5 * (c[l, i, j] * eps[l] - c[i, j, l] * eps[i]
                                 + c[j, l, i] * eps[j])
                gamma[i, j, l] = lowered / eps[l]
    return gamma


def ricci_xi_xi_lie(c, gamma):
    """Ric(e_0, e_0) = sum_i e_i-coefficient of R(e_i, e_0) e_0 with
    R(x, y) = [nabla_x, nabla_y] - nabla_[x,y] and constant coefficients."""
    d = gamma.shape[0]
    total = 0.0
    for i in range(d):
        for m in range(d):
            total += gamma[0, 0, m] * gamma[i, m, i]
            total -= gamma[i, 0, m] * gamma[0, m, i]
            total -= c[m, i, 0] * gamma[m, 0, i]
    return total


def example2_table(lam, mu):
    """The connection of Example 2 as displayed in the paper."""
    g = np.zeros((5, 5, 5))
    g[0, 1, 2], g[0, 1, 4] = lam, mu        # nabla_e0 e1 = lam e2 + mu e4
    g[0, 2, 1], g[0, 2, 3] = -lam, -mu      # nabla_e0 e2 = -lam e1 - mu e3
    g[0, 3, 2], g[0, 3, 4] = -mu, lam       # nabla_e0 e3 = -mu e2 + lam e4
    g[0, 4, 1], g[0, 4, 3] = mu, -lam       # nabla_e0 e4 = mu e1 - lam e3
    g[1, 0, 3] = -1.0                       # nabla_e1 e0 = -e3
    g[2, 0, 4] = -1.0                       # nabla_e2 e0 = -e4
    g[3, 0, 1] = 1.0                        # nabla_e3 e0 = e1
    g[4, 0, 2] = 1.0                        # nabla_e4 e0 = e2
    for i, j in ((1, 3), (2, 4), (3, 1), (4, 2)):
        g[i, j, 0] = -1.0                   # nabla_e1 e3 = ... = -e0
    return g


# ---------------------------------------------------------------- charts

def _coframe_metric(theta, eps):
    return theta.T @ np.diag(eps) @ theta


def example1_chart_metric(n):
    """g = sum_k eps_k (e^k)^2 with e^0 = dt,
    e^i = cos t dx^i + sin t dx^{n+i}, e^{n+i} = -sin t dx^i + cos t dx^{n+i}."""
    eps = signature(n)

    def metric(x):
        t = x[0]
        th = np.zeros((2 * n + 1, 2 * n + 1))
        th[0, 0] = 1.0
        for i in range(1, n + 1):
            th[i, i], th[i, n + i] = np.cos(t), np.sin(t)
            th[n + i, i], th[n + i, n + i] = -np.sin(t), np.cos(t)
        return _coframe_metric(th, eps)

    return metric


def example2_chart_metric(lam):
    """g = sum_k eps_k (e^k)^2 for the coordinate coframe of Example 2
    (mu = 0), cm = cos((1-lam)t), cp = cos((1+lam)t), likewise sm, sp."""
    eps = signature(2)

    def metric(x):
        t = x[0]
        cm, cp = np.cos((1 - lam) * t), np.cos((1 + lam) * t)
        sm, sp = np.sin((1 - lam) * t), np.sin((1 + lam) * t)
        th = np.array([
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, cm, -cp, sm, -sp],
            [0.0, sm, sp, -cm, -cp],
            [0.0, -sm, sp, cm, -cp],
            [0.0, cm, cp, sm, sp],
        ])
        return _coframe_metric(th, eps)

    return metric


def hsphere_extension_metric(n, a, b):
    """g = dt^2 + cos 2t h - sin 2t htilde over the hypersurface
    sum (w^j)^2 = a - i b, in coordinates x = (t, Re w, Im w).

    The holomorphic metric hC = Id + w w^T / (a - i b - sum w^2) is pulled
    back along dz = P dx, P = [Id, i Id]: h = Re(P^T hC P) and
    htilde(X, Y) = h(JX, Y) = Re(P^T (i hC) P), J being multiplication by i.
    """
    P = np.hstack([np.eye(n), 1j * np.eye(n)])
    big = complex(a, -b)

    def metric(x):
        t = x[0]
        w = x[1:n + 1] + 1j * x[n + 1:]
        hc = np.eye(n) + np.outer(w, w) / (big - np.sum(w * w))
        h = (P.T @ hc @ P).real
        ht = (P.T @ (1j * hc) @ P).real
        g = np.zeros((2 * n + 1, 2 * n + 1))
        g[0, 0] = 1.0
        g[1:, 1:] = np.cos(2 * t) * h - np.sin(2 * t) * ht
        return g

    return metric


_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _partials(fn, x, h):
    """out[m] = d fn / dx^m by the 4th-order central rule."""
    out = []
    for m in range(len(x)):
        acc = 0.0
        for off, wt in zip(_OFFSETS, _WEIGHTS):
            xs = np.array(x, dtype=float)
            xs[m] += off * h
            acc = acc + wt * fn(xs)
        out.append(acc / h)
    return np.array(out)


def _christoffel(metric, x, h):
    """Gam[k, i, j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    ginv = np.linalg.inv(metric(x))
    dg = _partials(metric, x, h)
    low = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
    return 0.5 * np.einsum("kl,ijl->kij", ginv, low)


def coordinate_ricci_00(metric, x, h=1e-3):
    """Ric(d_0, d_0) = d_i Gam^i_00 - d_0 Gam^i_i0
                       + Gam^i_ip Gam^p_00 - Gam^i_0p Gam^p_i0."""
    gam = _christoffel(metric, x, h)
    dgam = _partials(lambda y: _christoffel(metric, y, h), x, h)
    d = len(x)
    ric = 0.0
    for i in range(d):
        ric += dgam[i, i, 0, 0] - dgam[0, i, i, 0]
        for p in range(d):
            ric += gam[i, i, p] * gam[p, 0, 0] - gam[i, 0, p] * gam[p, i, 0]
    return ric
