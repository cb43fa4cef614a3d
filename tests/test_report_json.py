"""report_to_json against the json.dumps serialization it replaces."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accr.corpus import default_corpus
from accr.verify import VerifyConfig, report_to_json, run_all
from tests.test_verify_cli import degenerate_chart


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def reference(report) -> str:
    """The serialization report_to_json replaced."""
    return json.dumps(_clean(report), indent=2, sort_keys=True) + "\n"


def test_default_corpus_report():
    report = run_all(default_corpus(), VerifyConfig())
    assert report_to_json(report) == reference(report)


def test_model_error_entry():
    report = run_all([degenerate_chart()], VerifyConfig(points=2))
    assert "error" in report["models"][0]
    assert report_to_json(report) == reference(report)


def test_non_finite_residuals_are_null():
    report = run_all([degenerate_chart()], VerifyConfig(points=2))
    rows = [{"check_id": f"row.{k}", "max_residual": x, "tolerance": None}
            for k, x in enumerate((math.nan, math.inf, -math.inf, np.float64(np.nan),
                                   np.float64(-np.inf), 1e-300, -0.0, 1.5e16))]
    report["models"][0]["checks"] = rows
    text = report_to_json(report)
    assert text == reference(report)
    assert text.count('"max_residual": null') == 5


@pytest.mark.parametrize("value", [
    np.float64(0.1), np.float32(1.25), np.int64(-7), np.int32(3), np.bool_(True),
    np.bool_(False), (1, 2.5, "a"), (), {}, [], [{}, [], ()], {"b": (), "a": [[]]},
    "λ-group", {"λ-group": "ü\n\"\\ "}, True, False, None, 0, -0.0, 2**70,
])
def test_leaf_and_container_types(value):
    report = {"models": [{"name": "x", "value": value}], "empty": {}, "list": []}
    assert report_to_json(report) == reference(report)


def test_non_ascii_model_name():
    cm = degenerate_chart()
    cm.name = "λ-group"
    report = run_all([cm], VerifyConfig(points=2))
    text = report_to_json(report)
    assert text == reference(report)
    assert '"name": "\\u03bb-group"' in text


def test_rejects_other_types():
    with pytest.raises(TypeError):
        report_to_json({"a": np.zeros(2)})


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_VALUES)
def test_matches_reference_on_nested_values(value):
    assert report_to_json(value) == reference(value)
