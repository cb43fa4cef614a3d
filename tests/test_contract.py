"""The surfaces other code relies on: every name a module exports, and the
entry points the benchmark's tracer (perfbench/tracing.py) rebinds."""

import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import accr
from accr import verify
from accr.cli import main
from accr.corpus import example1_chart

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(accr.__path__):
        mod = importlib.import_module(f"accr.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (info.name, missing)


def test_tracer_installs_runs_and_restores(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    gather = verify._gather_residuals
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["verify", "-m", "example3_hsphere_ext", "--points", "2",
                     "--json", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert code == 0
    metrics = tracing.summarise(tracer.names, spans, counts, points_base=4)
    assert len(metrics) == 26
    assert verify._gather_residuals is gather
    used = {tracer.names[k] for k in np.frombuffer(spans, dtype=np.int64).reshape(-1, 4)[:, 0]}
    assert "corpus.base_curvature" in used


def test_tracer_runs_a_group_model(tmp_path, monkeypatch, capsys):
    """The tracer reads fd_step from every corpus model it runs, so a group
    model, the benchmark's group sweep, must carry it as a chart does."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["verify", "-m", "example1", "--json", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert code == 0
    used = {tracer.names[k] for k in np.frombuffer(spans, dtype=np.int64).reshape(-1, 4)[:, 0]}
    assert "verify._gather_residuals" in used


@pytest.mark.parametrize("argv", [
    ["transform", "-m", "example1_chart", "--params", "u=0.3,v=0.2,w=0"],
    ["cone", "-m", "example1_chart"],
])
def test_tracer_runs_transform_and_cone(argv, tmp_path, monkeypatch, capsys):
    """The benchmark traces both commands too: each folds its family through
    verify.fold, whose tracer binding cli reads, and not through the traced
    verify._gather_residuals."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main([*argv, "--json", str(tmp_path / "report.json")])
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert code == 0
    metrics = tracing.summarise(tracer.names, spans, counts, points_base=20)
    if argv[0] == "cone":
        assert metrics["sasaki.cone_s"][0] > 0
    else:     # one transformed solve: the block's, which the laws read too
        assert metrics["conformal.koszul_solves"][0] == 1


def test_tracer_finds_its_name_keyed_metrics(monkeypatch):
    """summarise finds these three by function or class name: a rename or a
    move would read 0 without a word.  verify.error_estimate_s times a
    half-step pass that verify does not run, so it reads 0 by construction
    and is not listed."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    cm = example1_chart()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = verify.run_all([cm], verify.VerifyConfig(points=2))
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert report["summary"]["ok"]
    metrics = tracing.summarise(tracer.names, spans, counts, points_base=4)
    for name in ("corpus.crossrep_s", "sasaki.cone_s", "conformal.koszul_solves"):
        assert metrics[name][0] > 0, name
