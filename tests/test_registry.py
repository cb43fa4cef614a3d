"""The check registry against the default corpus: every emitted row has
exactly one registry entry, and no verdict moves against the recorded table
(tests/data/default_corpus_verdicts.json, made with the parent design)."""

import json
from pathlib import Path

import pytest

from accr.corpus import default_corpus
from accr.verify import CHECKS, VerifyConfig, run_all

GOLDEN = Path(__file__).resolve().parent / "data" / "default_corpus_verdicts.json"


def label(model):
    params = ",".join(f"{k}={v!r}" for k, v in model["params"].items())
    return f"{model['name']}({params})"


@pytest.fixture(scope="module")
def corpus_rows():
    report = run_all(default_corpus(), VerifyConfig(points=4))
    return [[label(m), r["check_id"], r["expected"], r["tolerance"], r["verdict"]]
            for m in report["models"] for r in m["checks"]]


def test_registry_covers_exactly_the_emitted_ids(corpus_rows):
    emitted = {row[1] for row in corpus_rows}
    assert emitted - set(CHECKS) == set(), "rows without a registry entry"
    assert set(CHECKS) - emitted == set(), "registry entries no model emits"


def test_verdicts_match_the_recorded_table(corpus_rows):
    golden = json.loads(GOLDEN.read_text())
    assert golden["columns"] == ["model", "check_id", "expected", "tolerance", "verdict"]
    assert corpus_rows == golden["rows"]


def test_statement_quotes_the_checked_connection_law():
    # homothetic_laws checks the constant 1, not e^{-2w}
    statement = CHECKS["conformal.homothetic.connection_formula"].statement
    assert "(1 - e^{2(u-w)} cos 2v)" in statement and "e^{-2w}" not in statement
