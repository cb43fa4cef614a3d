"""A block of points against its points one at a time.

A PointFields over K points, shape (K, dim), must hold at each point what
the PointFields of that point alone holds, every residual function must
give at each point its value there, a family's value on the block is the
max of its values at the points, and a value that could not be computed at
one point of a block still makes its row an error.  A block only reads a
model's jets, and one block of the default extension sample stays within
its memory.
"""

import tracemalloc

import numpy as np
import pytest

from accr.cli import main
from accr.conformal import apply_cct, preservation_at
from accr.connection import levi_civita
from accr.corpus import builtin, default_corpus, example3_hsphere_ext
from accr.models import DEFAULT_FD_STEP, ChartModel, ConeModel, LieGroupModel
from accr.sasaki import cone_residuals_at
from accr.structure import Field, PointFields
from accr.verify import (
    HOMOTHETY,
    VerifyConfig,
    families_for,
    flatten,
    report_to_json,
    run_all,
    run_model_checks,
)
from tests.conftest import coordinate

K = 5
CHARTS = ("example1_chart", "example2_chart", "example3_hsphere_ext")
RADII = np.array([-1.0, -1.7, -0.6, -1.2, -2.0])


def block_and_points(cm):
    """The PointFields of cm's structure over K sample points, as one block
    and one at a time."""
    points = cm.model.sample_points(K, 11)
    return (PointFields(cm.structure, np.stack(points)),
            [PointFields(cm.structure, p) for p in points])


def point_fields_arrays(f):
    return {"g": f.g, "dg": f.dg, "c": f.c, "gamma": f.gamma, "F": f.F,
            "N": f.nijenhuis_bracket[0], "Nhat": f.nijenhuis_bracket[1],
            "r_up": f.curvature.r_up}


def cone_arrays(cone, r):
    p = np.asarray(r)[..., None]
    return {"g": cone.metric_at(p), "dg": cone.metric_derivs_at(p), "c": cone.commutators_at(p),
            "gamma": levi_civita(cone, p).gamma, "J": cone.j_at(p), "dJ": cone.j_derivs_at(p)}


def arrays(kind, name):
    """{key: (block array, [array at each point])} of the case."""
    block, points = block_and_points(builtin(name))
    if kind == "transformed":
        block, points = apply_cct(block, HOMOTHETY), [apply_cct(f, HOMOTHETY) for f in points]
    if kind == "cone":
        at_block = cone_arrays(ConeModel(block), RADII)
        at_points = [cone_arrays(ConeModel(f), r) for f, r in zip(points, RADII)]
    else:
        at_block = point_fields_arrays(block)
        at_points = [point_fields_arrays(f) for f in points]
    return {key: (val, [at[key] for at in at_points]) for key, val in at_block.items()}


CASES = [("chart", name) for name in CHARTS] + [("transformed", "example3_hsphere_ext"),
                                                ("cone", "example1_chart")]


@pytest.mark.parametrize("kind, name", CASES)
def test_block_arrays_agree_with_each_point(kind, name):
    for key, (block, each) in arrays(kind, name).items():
        assert block.shape == (K, *each[0].shape), key
        for k, single in enumerate(each):
            scale = max(1.0, float(np.max(np.abs(single))))
            assert np.max(np.abs(block[k] - single)) <= 1e-13 * scale, (key, k)


def family_rows(cm, fields, count):
    res, notes = {}, {}
    for fam in families_for(cm):
        flatten(fam.prefix, fam.residuals(cm, fields, count, 11, DEFAULT_FD_STEP), res, notes)
    return res


@pytest.mark.parametrize("name", CHARTS)
def test_family_on_a_block_is_the_max_over_its_points(name):
    # every family, the cone, crossrep and the eta fit included, over one
    # block and over the points one at a time
    cm = builtin(name)
    block, points = block_and_points(cm)
    on_block, on_points = family_rows(cm, [block], K), family_rows(cm, points, K)
    assert on_block.keys() == on_points.keys()
    for key, value in on_points.items():
        assert abs(on_block[key] - value) <= 1e-13 * max(1.0, abs(value)), key


def test_residuals_at_each_point_of_a_block():
    # a transformation whose parameters move with the point: the
    # preservation residuals differ from point to point, and the block
    # gives each of them where it is
    cm = builtin("example1_chart")
    block, points = block_and_points(cm)
    v = Field(lambda p: 0.3 * np.sin(p[..., 0]),
              lambda m, p: 0.3 * np.cos(p[..., 0])[..., None] * m.frame_matrix(p)[..., 0, :])
    t = type(HOMOTHETY)(v=v, w=coordinate(1, 0.1))
    at_block = preservation_at(block, apply_cct(block, t))
    at_points = [preservation_at(f, apply_cct(f, t)) for f in points]
    assert_at_each_point(at_block, at_points)
    assert np.ptp(at_block["du_phi_plus_dv"]) > 1e-3
    assert_at_each_point(cone_residuals_at(block, RADII),
                         [cone_residuals_at(f, r) for f, r in zip(points, RADII)])


def assert_at_each_point(at_block, at_points, where=""):
    """A dict of residuals of a block against the dicts of its points."""
    for key, values in at_block.items():
        each = [at[key] for at in at_points]
        if isinstance(values, dict):
            assert_at_each_point(values, each, f"{where}{key}.")
        else:
            each = np.array(each)
            assert values.shape == (K,), where + key
            assert np.max(np.abs(values - each)) <= 1e-12 * max(1.0, np.max(np.abs(each))), \
                where + key


NAN_ROWS = ("connection.torsion_free", "identity.f_reconstruction", "curvature.first_bianchi",
            "sasaki.defining.f_horizontal", "cone.holomorphic", "conformal.preserve.f_bar_direct",
            "derivatives.metric")


@pytest.mark.parametrize("name", CHARTS)
def test_nan_at_one_point_of_a_block_is_an_error(name, monkeypatch):
    # dg is NaN at the second sample point, inside the sample's one block
    cm = builtin(name)
    derivs, second = cm.model.metric_derivs_fn, cm.model.sample_points(K, 42)[1]

    def one_nan(x):
        out = np.array(np.broadcast_to(derivs(x), x.shape[:-1] + (cm.model.dim,) * 3))
        out[np.all(x == second, axis=-1)] = np.nan
        return out

    monkeypatch.setattr(cm.model, "metric_derivs_fn", one_nan)
    verdict = lambda only: {r["check_id"]: r["verdict"] for r in run_model_checks(
        cm, VerifyConfig(points=K, only=only))["checks"]}[only]
    with np.errstate(all="ignore"):
        assert [verdict(check_id) for check_id in NAN_ROWS] == ["error"] * len(NAN_ROWS)
        assert verdict("structure.phi_xi") == "pass"


JETS = ("metric_at", "metric_derivs_at", "metric_derivs2_at", "commutators_at",
        "commutator_derivs_at")


def test_jets_are_only_read(monkeypatch, capsys):
    # riemann, the transformed model's second jets and the homothetic laws
    # take a model's jets, which a chart may give as read-only broadcasts:
    # with every jet read-only, nothing changes and no entry is an error
    transforms = [["transform", "-m", name, "--params", params] for name in CHARTS
                  for params in ("u=0.3,v=0.2,w=0", "v=linear_t:0.1,w=0")]

    def run():
        out = [report_to_json(run_all(default_corpus()))]
        for argv in transforms:
            out.append((main(argv), capsys.readouterr().out))
        return out

    before = run()
    for cls in (ChartModel, LieGroupModel):
        for name in JETS:
            def read_only(model, p, method=getattr(cls, name)):
                out = np.array(method(model, p))
                out.flags.writeable = False
                return out

            monkeypatch.setattr(cls, name, read_only)
    after = run()
    assert [code for code, _ in after[1:]] == [0] * len(transforms)
    assert after == before


# The tracemalloc peak of one default example3_hsphere_ext pass, 20 points of
# dimension 7 in blocks of 13 and 7: 1.763 MB.  In blocks of 6, before
# riemann, the Gauss comparison, the phi-commutation and the homothetic laws
# shed their dim^4 temporaries, it was 2.271 MB.
EXTENSION_PASS_PEAK = 1_770_000


def test_one_default_extension_pass_stays_within_its_memory():
    run_model_checks(example3_hsphere_ext(), VerifyConfig())     # the caches of a first pass
    cm = example3_hsphere_ext()
    tracemalloc.start()
    try:
        run_model_checks(cm, VerifyConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= EXTENSION_PASS_PEAK
