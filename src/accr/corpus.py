"""Built-in example corpus.

Six constructions:

* ``example1``           solvable group, dimension 2n+1, brackets
                          [e_0, e_i] = e_{n+i}, [e_0, e_{n+i}] = -e_i
* ``example1_chart``      the same geometry as a chart with moving coframe
                          e^0 = dt, e^i = cos t dx^i + sin t dx^{n+i},
                          e^{n+i} = -sin t dx^i + cos t dx^{n+i}
* ``example2``            five-dimensional two-parameter solvable group
* ``example2_chart``      its coordinate realization (mu = 0, lambda != 0)
* ``example3_hsphere_ext`` extension over the complex hypersurface
                          h'(z, z) = a, htilde'(z, z) = b of flat space
* ``flat_parallel``       abelian model with F = 0 (designed to fail every
                          Sasaki-like check while passing the accR axioms)

Every extension base comes from complex data hC(w) through
``models.holomorphic_base``.  The chart examples' coordinate metrics are the
S^1-solvable extensions over the flat bases hC0 = I_n and [[0, -2], [-2, 0]].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .connection import hsphere_curvature
from .errors import BadParams, ParamMismatch, UnknownBuiltin
from .frame_algebra import MetricMatrix, standard_j, standard_signature
from .models import (
    ChartModel,
    ProductExtensionModel,
    chart_model,
    extension_leaf_curvature,
    holomorphic_base,
    lie_group_model,
    product_extension,
    trig_jet,
)
from .sasaki import check_defining_conditions
from .structure import AccrStructure, PointFields, max_over_points, standard_structure, worst


@dataclass
class CorpusModel:
    """A ready-to-verify model with its metadata."""

    name: str
    model: object
    structure: AccrStructure
    params: dict
    sasaki_expected: bool
    base_ric_at: object = None       # leaf Ricci, embedded
    base_r_at: object = None         # leaf curvature, embedded
    coframe_fn: object = None        # chart realizations only
    coord_metric_fn: object = None   # chart realizations only
    lie_partner: str | None = None
    notes: list = field(default_factory=list)
    sample_override: dict | None = None   # {"count":..., "seed":...} from specs


def _example1_constants(n):
    d = 2 * n + 1
    c = np.zeros((d, d, d))
    for i in range(1, n + 1):
        c[n + i, 0, i] = 1.0
        c[n + i, i, 0] = -1.0
        c[i, 0, n + i] = -1.0
        c[i, n + i, 0] = 1.0
    return c


def _example2_constants(lam, mu):
    c = np.zeros((5, 5, 5))
    rows = {
        1: {2: lam, 3: 1.0, 4: mu},
        2: {1: -lam, 3: -mu, 4: 1.0},
        3: {1: -1.0, 2: -mu, 4: lam},
        4: {1: mu, 2: -1.0, 3: -lam},
    }
    for j, terms in rows.items():
        for k, val in terms.items():
            c[k, 0, j] = val
            c[k, j, 0] = -val
    return c


def _flat_leaf(d) -> dict:
    """Leaf curvature of the Sasaki-like examples: the horizontal leaf is flat."""
    zero_ric = np.zeros((d, d))
    return {"base_ric_at": lambda p: zero_ric, "base_r_at": lambda p: np.zeros((d,) * 4)}


def _group(name, n, constants, params, sasaki_expected=True, **extra) -> CorpusModel:
    """Left-invariant model with the standard metric and adapted structure."""
    eps = standard_signature(n)
    model = lie_group_model(n, constants, MetricMatrix(np.diag(eps)))
    leaf = _flat_leaf(model.dim) if sasaki_expected else {}
    return CorpusModel(name=name, model=model, structure=standard_structure(model, n),
                       params=params, sasaki_expected=sasaki_expected, **leaf, **extra)


def _chart(name, n, coframe, hc0, params) -> CorpusModel:
    """Chart realization of a group model: constant metric in a moving coframe,
    given as (theta, d theta, d^2 theta), and the extension over the flat base
    hc0 as its coordinate metric."""
    d = 2 * n + 1
    eps = np.diag(standard_signature(n))
    theta, dtheta, d2theta = coframe
    model = chart_model(d, lambda x: eps, frame=theta, ranges=[(-0.9, 0.9)] * d,
                        metric_derivs=lambda x: np.zeros((d,) * 3),
                        metric_derivs2=lambda x: np.zeros((d,) * 4),
                        coframe_derivs=dtheta, coframe_derivs2=d2theta)
    coord_metric = ProductExtensionModel(flat_norden_base(hc0)).metric_at
    return CorpusModel(name=f"{name}_chart", model=model,
                       structure=standard_structure(model, n), params=params,
                       sasaki_expected=True, **_flat_leaf(d),
                       coframe_fn=theta, coord_metric_fn=coord_metric, lie_partner=name)


def _t_coframe(block, d):
    """(theta, d theta, d^2 theta) of a coframe that depends on the first
    coordinate t alone, from block(t, k) = d^k theta / dt^k, in the layouts
    of ChartModel's coframe jets."""

    def jet(k):
        def fn(x):
            out = np.zeros((d,) * (k + 2))
            out[(0,) * k] = block(x[0], k)
            return out

        return fn

    return (lambda x: block(x[0], 0)), jet(1), jet(2)


def example1(n=1) -> CorpusModel:
    n = int(n)
    if n < 1:
        raise BadParams("example1 requires n >= 1")
    return _group("example1", n, _example1_constants(n), {"n": n})


def example2(lam=1.0, mu=0.0) -> CorpusModel:
    lam, mu = float(lam), float(mu)
    return _group("example2", 2, _example2_constants(lam, mu), {"lam": lam, "mu": mu})


def example2_connection_table(lam, mu):
    """The displayed nonzero connection coefficients, gamma[i, j, k] layout."""
    g = np.zeros((5, 5, 5))
    g[0, 1, 2], g[0, 1, 4] = lam, mu        # nabla_{e0} e1 = lam e2 + mu e4
    g[1, 0, 3] = -1.0                       # nabla_{e1} e0 = -e3
    g[0, 2, 1], g[0, 2, 3] = -lam, -mu      # nabla_{e0} e2 = -lam e1 - mu e3
    g[2, 0, 4] = -1.0                       # nabla_{e2} e0 = -e4
    g[0, 3, 2], g[0, 3, 4] = -mu, lam       # nabla_{e0} e3 = -mu e2 + lam e4
    g[3, 0, 1] = 1.0                        # nabla_{e3} e0 = e1
    g[0, 4, 1], g[0, 4, 3] = mu, -lam       # nabla_{e0} e4 = mu e1 - lam e3
    g[4, 0, 2] = 1.0                        # nabla_{e4} e0 = e2
    for (i, j) in ((1, 3), (2, 4), (3, 1), (4, 2)):
        g[i, j, 0] = -1.0                   # nabla_{e1} e3 = ... = -e0
    return g


def flat_parallel(n=1) -> CorpusModel:
    n = int(n)
    d = 2 * n + 1
    return _group("flat_parallel", n, np.zeros((d, d, d)), {"n": n}, sasaki_expected=False,
                  notes=["parallel structure: F = 0, fails Sasaki-like checks by design"])


def _example1_coframe(n):
    d = 2 * n + 1

    def block(t, k):
        th = np.zeros((d, d))
        th[0, 0] = 1.0 if k == 0 else 0.0
        ct, st = trig_jet(1.0, t, k)
        for i in range(1, n + 1):
            th[i, i] = ct
            th[i, n + i] = st
            th[n + i, i] = -st
            th[n + i, n + i] = ct
        return th

    return _t_coframe(block, d)


def example1_chart(n=1) -> CorpusModel:
    n = int(n)
    return _chart("example1", n, _example1_coframe(n), np.eye(n), {"n": n})


def _example2_coframe(lam):
    def block(t, k):
        cm, sm = trig_jet(1 - lam, t, k)
        cp, sp = trig_jet(1 + lam, t, k)
        return np.array([
            [1.0 if k == 0 else 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, cm, -cp, sm, -sp],
            [0.0, sm, sp, -cm, -cp],
            [0.0, -sm, sp, cm, -cp],
            [0.0, cm, cp, sm, sp],
        ])

    return _t_coframe(block, 5)


def example2_chart(lam=1.0, mu=0.0) -> CorpusModel:
    lam, mu = float(lam), float(mu)
    if mu != 0.0:
        raise BadParams("the coordinate realization exists only for mu = 0")
    if lam == 0.0:
        raise BadParams("the coordinate realization requires lambda != 0")
    return _chart("example2", 2, _example2_coframe(lam), [[0.0, -2.0], [-2.0, 0.0]],
                  {"lam": lam, "mu": 0.0})


def hsphere_base(n, a, b) -> ChartModel:
    """Chart of the complex hypersurface sum_j (w^j)^2 = a - i b of C^{n+1}
    on the box |u^j|, |v^j| <= 0.22 around w = 0, in the n holomorphic
    coordinates (w^1 .. w^n).

    The induced holomorphic metric is hC_jk = delta_jk + w^j w^k / D with
    D = (a - i b) - sum (w^m)^2; its first and second derivatives are
    analytic (d_m D = -2 w^m).
    """
    if a == 0 and b == 0:
        raise BadParams("(a, b) = (0, 0) is excluded")
    cplx = complex(a, -b)
    eye = np.eye(n, dtype=complex)
    idx = np.arange(n)

    def hc(w):
        return eye + np.outer(w, w) / (cplx - np.sum(w * w))

    def dww(w):
        """d_m (w w^T)[i, j] = delta_im w_j + w_i delta_jm, at [m, i, j]."""
        dm = np.zeros((n, n, n), dtype=complex)
        dm[idx, idx, :] += w
        dm[idx, :, idx] += w
        return dm

    def dhc(w):
        denom = cplx - np.sum(w * w)
        return dww(w) / denom + (2.0 * w)[:, None, None] * np.outer(w, w) / (denom * denom)

    def d2hc(w):
        denom = cplx - np.sum(w * w)
        ww, dm = np.outer(w, w), dww(w)
        d2 = np.zeros((n, n, n, n), dtype=complex)    # d_l d_m (w w^T) at [m, l]
        d2[idx, :, idx, :] += np.eye(n)
        d2[idx, :, :, idx] += np.eye(n)
        cross = np.einsum("mij,l->mlij", dm, w)
        return (d2 / denom + 2.0 * (cross + np.swapaxes(cross, 0, 1)) / denom**2
                + 2.0 * np.einsum("ml,ij->mlij", np.eye(n), ww) / denom**2
                + 8.0 * np.einsum("m,l,ij->mlij", w, w, ww) / denom**3)

    return holomorphic_base(n, hc, dhc, [(-0.22, 0.22)] * (2 * n), d2hc)


def flat_norden_base(hc0) -> ChartModel:
    """Flat R^{2n} with the constant complex symmetric metric hc0 (n x n) on
    the box |u|, |v| <= 1; hc0 = I_n gives the standard pair (h, htilde)."""
    hc0 = np.asarray(hc0, dtype=complex)
    n = len(hc0)
    zero = np.zeros((n, n, n), dtype=complex)
    zero2 = np.zeros((n, n, n, n), dtype=complex)
    return holomorphic_base(n, lambda w: hc0, lambda w: zero, [(-1.0, 1.0)] * (2 * n),
                            lambda w: zero2)


def example3_hsphere_ext(n=3, a=1.0, b=0.0) -> CorpusModel:
    n = int(n)
    a, b = float(a), float(b)
    if n < 1:
        raise BadParams("n >= 1 required")
    base = hsphere_base(n, a, b)
    model, s = product_extension(base)
    d = model.dim

    def embed(m):
        """A leaf tensor as a tensor of the extension, zero along d/dt."""
        out = np.zeros((d,) * m.ndim)
        out[(slice(1, None),) * m.ndim] = m
        return out

    j = standard_j(n)

    def base_ric_at(p):
        h = base.metric_at(p[1:])
        return embed(hsphere_curvature(n, a, b, h=h, htilde=h @ j).ric)

    def base_r_at(p):
        h = base.metric_at(p[1:])
        r_h = hsphere_curvature(n, a, b, h=h, htilde=h @ j).r
        return embed(extension_leaf_curvature(p[0], r_h))

    notes = []
    if n <= 2:
        notes.append("n <= 2 is outside the stated range for this family")
    return CorpusModel(
        name="example3_hsphere_ext", model=model, structure=s,
        params={"n": n, "a": a, "b": b}, sasaki_expected=True,
        base_ric_at=base_ric_at, base_r_at=base_r_at, notes=notes,
    )


BUILTINS = {
    "example1": (example1, "solvable group, any n"),
    "example1_chart": (example1_chart, "chart realization of example1"),
    "example2": (example2, "5-dimensional group with parameters (lam, mu)"),
    "example2_chart": (example2_chart, "chart realization of example2 (mu = 0)"),
    "example3_hsphere_ext": (example3_hsphere_ext,
                             "extension over the h-sphere (n, a, b)"),
    "flat_parallel": (flat_parallel, "parallel structure, designed Sasaki failure"),
}


# Largest n accepted from outside: curvature arrays grow as (2n + 1)^4, and
# `verify --params n=16 --points 2` peaks at 185 MB (example1_chart) and
# 168 MB (example3_hsphere_ext) of RSS in one process, one BLAS thread.
MAX_N = 16


def _constructor(name):
    if name not in BUILTINS:
        raise UnknownBuiltin(f"unknown builtin {name!r}; try: {', '.join(sorted(BUILTINS))}")
    return BUILTINS[name][0]


def builtin(name, **params) -> CorpusModel:
    """Construct a named corpus model.  Unknown names, parameters that are
    not finite real numbers, an n that is not a whole number in [1, MAX_N],
    or bad parameter combinations raise UnknownBuiltin / BadParams."""
    fn = _constructor(name)
    for key, val in params.items():
        if isinstance(val, bool) or not isinstance(val, numbers.Real) or not math.isfinite(val):
            raise BadParams(f"{name}: parameter {key}={val!r} is not a finite real number")
    if "n" in params and not (float(params["n"]).is_integer() and 1 <= params["n"] <= MAX_N):
        raise BadParams(f"{name}: n must be a whole number in [1, {MAX_N}], got {params['n']!r}")
    try:
        return fn(**params)
    except TypeError as exc:
        raise BadParams(str(exc)) from None


def default_corpus() -> list:
    return [
        example1(n=1),
        example1(n=2),
        example2(lam=1.0, mu=0.0),
        example2(lam=3.0, mu=-2.0),
        example1_chart(n=1),
        example2_chart(lam=1.0),
        example3_hsphere_ext(n=3, a=1.0, b=0.0),
        flat_parallel(n=1),
    ]


def cross_representation_check(lie: CorpusModel, chart: CorpusModel, fields) -> dict:
    """Compare a group model against its coordinate realization at the
    chart's sample points, whose PointFields are fields.

    (i) the brackets of the chart frame, from the analytic derivatives of
    its coframe, must reproduce the group structure constants, (ii) the
    metric assembled as sum_k eps_k (e^k)^2 must match the closed-form
    coordinate metric, and (iii) the Sasaki-like verdicts, the chart's at
    its first five points, must agree.
    """
    if chart.lie_partner != lie.name:
        raise ParamMismatch(f"{chart.name} is not the chart form of {lie.name}")
    for key in set(lie.params) & set(chart.params):
        if lie.params[key] != chart.params[key]:
            raise ParamMismatch(f"parameter {key}: {lie.params[key]} != {chart.params[key]}")

    lie_f = PointFields(lie.structure, np.zeros(0))
    eps = standard_signature(lie.structure.n)

    def at(f):
        th = np.asarray(chart.coframe_fn(f.p), dtype=float)
        assembled = np.einsum("k,km,kn->mn", eps, th, th)
        return {
            "structure_equations": np.max(np.abs(f.c - lie_f.c)),
            "metric_assembly": np.max(np.abs(assembled - chart.coord_metric_fn(f.p))),
        }

    out = max_over_points(fields, at)
    defining = lambda fs: worst(max_over_points(fs, check_defining_conditions).values())
    v_lie = defining([lie_f]) < 1e-9
    v_chart = defining(fields[:5]) < 1e-6
    return {
        **out,
        "verdict_agreement": 0.0 if v_lie == v_chart else 1.0,
        "sasaki_lie": v_lie,
        "sasaki_chart": v_chart,
    }
