"""A block of points against its points one at a time.

A PointFields over K points, shape (K, dim), must hold at each point what
the PointFields of that point alone holds, every residual function must
give at each point its value there, a family's value on the block is the
max of its values at the points, and a value that could not be computed at
one point of a block still makes its row an error.  A block only reads a
model's jets, one block of the default extension sample stays within its
memory, a pass holds one block at a time whatever its sample, and each
block computes its defining residuals once, for every family that reads
them.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from accr import verify
from accr.cli import main
from accr.conformal import apply_cct, preservation_at
from accr.connection import levi_civita
from accr.corpus import builtin, default_corpus, example3_hsphere_ext
from accr.models import ChartModel, ConeModel, LieGroupModel
from accr.sasaki import cone_holomorphic_residual, cone_residuals_at
from accr.structure import Field, PointFields, max_over_points
from accr.verify import (
    HOMOTHETY,
    VerifyConfig,
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


def family_rows(cm, elements, monkeypatch):
    """The rows of every family over the K sample points of seed 11, in
    blocks of max(1, elements // dim**4) points."""
    monkeypatch.setattr(verify, "BLOCK_ELEMENTS", elements)
    return verify._gather_residuals(cm, VerifyConfig(points=K, seed=11))[0]


def cone_rows(cm):
    """The cone rows of the pass over the K sample points of seed 11, from
    the cone's values at each cone point over each of its blocks: a block's
    arrays hold one entry per cone point j over it, in the order of j."""
    points, run = verify.sample(cm, VerifyConfig(points=K, seed=11))
    count = min(run.count, 6)
    radii, parts, solved = ConeModel.radii(count, run.seed), [], 0
    for k, f in verify.blocks(cm, points):
        part = cone_holomorphic_residual(f, count, run.seed, k, run.size)
        over = [j for j in range(count) if k <= j % run.size < k + len(f.p)]
        assert [pt["r"] for pt in part.pop("per_point")] == [radii[j] for j in over]
        for val in [part["holomorphic"], *part["line"].values(), *part["dj_xi"].values()]:
            assert np.shape(val) == (len(over),)
        parts.append(part)
        solved += len(over)
    assert solved == count     # a group's one-point block holds them all
    rows = {}
    verify.flatten("cone", max_over_points(parts, lambda part: part), rows, {})
    return rows


@pytest.mark.parametrize("name", CHARTS + ("example1",))
def test_family_on_a_block_is_the_max_over_its_points(name, monkeypatch):
    # every family, the cone, crossrep and the eta fit included, over one
    # block and over the points one at a time; the cone's rows are the max
    # of its values at each cone point over the blocks
    cm = builtin(name)
    on_block = family_rows(cm, K * cm.model.dim ** 4, monkeypatch)
    cone_on_block = cone_rows(cm)
    on_points = family_rows(cm, 1, monkeypatch)
    cone_on_points = cone_rows(cm)
    assert on_block.keys() == on_points.keys()
    for key, value in on_points.items():
        assert abs(on_block[key] - value) <= 1e-13 * max(1.0, abs(value)), key
    assert cone_on_block == {key: val for key, val in on_block.items() if key.startswith("cone")}
    assert cone_on_points == {key: val for key, val in on_points.items()
                              if key.startswith("cone")}


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
    derivs, second = cm.model.metric_derivs_at, cm.model.sample_points(K, 42)[1]

    def one_nan(x):
        out = np.array(derivs(x))
        out[np.all(x == second, axis=-1)] = np.nan
        return out

    monkeypatch.setattr(cm.model, "metric_derivs_at", one_nan)
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
# dimension 7 in blocks of 13 and 7, one block alive at a time: 1.506 MB.
# Holding both blocks for the whole pass it was 1.763 MB, and in blocks of 6,
# before riemann, the Gauss comparison, the phi-commutation and the
# homothetic laws shed their dim^4 temporaries, 2.271 MB.
EXTENSION_PASS_PEAK = 1_520_000


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


def test_a_pass_holds_one_block_whatever_its_sample():
    # the extension's pass at 60 points (blocks of 13, 13, 13, 13 and 8) peaks
    # at most one block's curvature, 13 points of 7**4 doubles, above its
    # pass at 20 points (13 and 7): a pass drops each block before the next
    run_model_checks(example3_hsphere_ext(), VerifyConfig())     # the caches of a first pass
    peaks = []
    for points in (20, 60):
        cm = example3_hsphere_ext()
        tracemalloc.start()
        try:
            run_model_checks(cm, VerifyConfig(points=points))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 13 * 7 ** 4 * 8


def test_defining_residuals_computed_once_per_block(monkeypatch):
    # the sasaki.defining rows, the Gauss precondition (ex3), the eta fit and
    # crossrep's chart verdict (example1_chart) all read the block's one
    # computation, and the stacked transform its own
    runs = []
    compute = PointFields.__dict__["defining"].func

    def counted(self):
        runs.append(self)
        return compute(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(PointFields, "defining")
    monkeypatch.setattr(PointFields, "defining", prop)
    made = []
    init = PointFields.__init__
    monkeypatch.setattr(PointFields, "__init__",
                        lambda self, *args: made.append(self) or init(self, *args))
    run_all([builtin("example1_chart"), example3_hsphere_ext()])
    assert len(runs) == len({id(f) for f in runs})
    # three base blocks (one of the chart, two of the extension) and their
    # three stacked transforms; crossrep's group partner is one more
    assert len(runs) == 7 and len(made) >= len(runs)
