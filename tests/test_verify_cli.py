import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accr.modelspec as modelspec

from accr.cli import main
from accr.corpus import (
    MAX_N,
    MAX_POINTS,
    CorpusModel,
    example1,
    example1_chart,
    example3_hsphere_ext,
    flat_parallel,
)
from accr.errors import DegenerateMetric
from accr.models import chart_model
from accr.modelspec import KEYWORDS, MODELSPEC_SCHEMA, load_model_spec, model_from_spec
from accr.structure import standard_structure
from accr.verify import VerifyConfig, report_to_json, run_all, run_model_checks
from tests.conftest import stepped_example1_chart

DOCS = Path(__file__).resolve().parents[1] / "docs"


def small_cfg(**kw):
    return VerifyConfig(points=4, **kw)


def degenerate_chart():
    """A chart whose metric is zero everywhere: every check of it aborts."""
    model = chart_model(3, lambda x: np.zeros((3, 3)), ranges=[(-1, 1)] * 3,
                        metric_derivs=lambda x: np.zeros((3,) * 3),
                        metric_derivs2=lambda x: np.zeros((3,) * 4))
    return CorpusModel(name="degenerate", model=model, structure=standard_structure(model, 1),
                       params={}, sasaki_expected=True)


class TestRunAll:
    def test_small_corpus_passes(self):
        report = run_all([example1(n=1), flat_parallel(n=1)], small_cfg())
        assert report["summary"]["ok"]
        assert report["summary"]["fail"] == 0
        assert report["summary"]["xpass"] == 0
        assert report["summary"]["xfail"] > 0  # the designed failures

    def test_designed_failures_marked(self):
        report = run_all([flat_parallel(n=1)], small_cfg())
        rows = {r["check_id"]: r for r in report["models"][0]["checks"]}
        assert rows["sasaki.defining.f_equals_minus_g"]["verdict"] == "xfail"
        assert rows["cone.holomorphic"]["verdict"] == "xfail"
        assert rows["sasaki.defining.f_horizontal"]["verdict"] == "pass"

    def test_report_schema_valid(self):
        schema = json.loads((DOCS / "report.schema.json").read_text())
        report = run_all([example1(n=1)], small_cfg())
        jsonschema.validate(json.loads(report_to_json(report)), schema)

    def test_determinism(self):
        a = report_to_json(run_all([example1(n=2)], small_cfg(seed=7)))
        b = report_to_json(run_all([example1(n=2)], small_cfg(seed=7)))
        assert a == b

    def test_only_filter(self):
        cfg = small_cfg()
        cfg.only = "sasaki.defining"
        rep = run_model_checks(example1(n=1), cfg)
        assert rep["checks"]
        assert all(r["check_id"].startswith("sasaki.defining") for r in rep["checks"])

    def test_fd_error_estimate_present(self):
        cfg = VerifyConfig(points=3, only="crossrep")
        rep = run_model_checks(example1_chart(n=1), cfg)
        rows = {r["check_id"]: r for r in rep["checks"]}
        row = rows["crossrep.structure_equations"]
        assert row["fd_error_estimate"] == 0.0      # kept by report schema "1"
        assert row["verdict"] == "pass"

    def test_fd_step_reaches_the_extension(self):
        # the step moves the extension's derivatives rows and nothing else:
        # every other row is analytic
        rows = [{r["check_id"]: r["max_residual"] for r in
                 run_model_checks(example3_hsphere_ext(), VerifyConfig(points=2, fd_step=step))
                 ["checks"]} for step in (1e-3, 2e-3)]
        moved = {k for k in rows[0] if rows[0][k] != rows[1][k]}
        assert moved == {"derivatives.metric", "derivatives.metric2"}

    def test_step_is_not_kept_on_the_model(self):
        # the step is an argument of the derivatives family, not a setting a
        # run leaves on the model for later calls
        cm, fresh = example1_chart(n=1), example1_chart(n=1)
        before = dict(vars(cm.model))
        assert run_all([cm], VerifyConfig(points=2, fd_step=2e-3))["summary"]["ok"]
        assert vars(cm.model) == before
        p = cm.model.sample_points(1, 3)[0]
        assert cm.model.jet_residuals(p) == fresh.model.jet_residuals(p)

    def test_step_does_not_move_a_transform(self, tmp_path, capsys):
        # linear_t brings its jet, so no transform row reads the stencil
        out = []
        for step in ("1e-3", "2e-3"):
            path = tmp_path / f"{step}.json"
            assert main(["transform", "-m", "example3_hsphere_ext", "--params",
                         "v=linear_t:0.1,w=0", "--fd-step", step, "--json", str(path)]) == 0
            out.append((path.read_bytes(), capsys.readouterr()))
        assert out[0] == out[1]

    def test_non_finite_residual_is_error(self):
        # a zero finite-difference step makes the chart's coframe jets NaN
        cfg = VerifyConfig(points=3, only="sasaki.defining")
        with np.errstate(all="ignore"):
            rep = run_model_checks(stepped_example1_chart(1, step=0.0), cfg)
            report = run_all([stepped_example1_chart(1, step=0.0)], cfg)
        assert rep["checks"]
        assert {r["verdict"] for r in rep["checks"]} == {"error"}
        assert report["summary"]["error"] == len(rep["checks"])
        assert not report["summary"]["ok"]
        schema = json.loads((DOCS / "report.schema.json").read_text())
        jsonschema.validate(json.loads(report_to_json(report)), schema)

    def test_only_prunes_computation(self, monkeypatch):
        import accr.sasaki as sas

        def boom(*args, **kwargs):
            raise AssertionError("the cone family ran under --only sasaki.defining")

        monkeypatch.setattr(sas, "cone_holomorphic_residual", boom)
        rep = run_model_checks(example1(n=1), small_cfg(only="sasaki.defining"))
        assert len(rep["checks"]) == 4

    def test_only_that_applies_nowhere_computes_nothing(self, monkeypatch, capsys):
        # decided from the families' applies, before any residual
        import accr.cli as cli

        def boom(*args, **kwargs):
            raise AssertionError("the battery ran with no family to run")

        monkeypatch.setattr(cli, "run_all", boom)
        assert main(["verify", "-m", "example1", "--only", "derivatives"]) == 2
        assert capsys.readouterr().err == \
            "error: --only 'derivatives' applies to none of the models\n"

    @pytest.mark.parametrize("only", ["gauss.residual", "gauss.second_fundamental_form"])
    def test_gauss_builds_one_point_fields_per_block(self, ex3, only, monkeypatch):
        # 20 points of dimension 7 in blocks of BLOCK_ELEMENTS // 7**4 = 13 points
        from accr.structure import PointFields

        built = []
        init = PointFields.__init__
        monkeypatch.setattr(PointFields, "__init__",
                            lambda self, s, p: built.append(len(p)) or init(self, s, p))
        cfg = VerifyConfig(points=20, only=only)
        assert run_model_checks(ex3, cfg)["checks"]
        assert built == [13, 7]

    def test_broken_model_captured_not_raised(self):
        # a degenerate metric aborts that model's checks but not the batch
        report = run_all([degenerate_chart(), example1(n=1)], small_cfg())
        assert report["models"][0]["error"]
        assert not report["summary"]["ok"]
        assert report["models"][1]["checks"]  # second model still ran

    def test_only_structure_reads_the_solve(self):
        # the structure rows read g from the block's Koszul solve, so a
        # degenerate metric is the model's error entry, as in the full battery
        model = run_all([degenerate_chart()], small_cfg(only="structure"))["models"][0]
        assert model["error"].startswith("metric degenerate at ") and model["checks"] == []


WORDS = st.text(max_size=4)
SAMPLE = st.fixed_dictionaries({}, optional={"count": st.integers(1, MAX_POINTS),
                                             "seed": st.integers(0, 2**40)})
MATRIX = st.just("standard") | st.lists(st.lists(st.floats(-2, 2), max_size=3), max_size=3)
INDEX = st.integers(0, 8)
VALID_SPECS = st.fixed_dictionaries(
    {"kind": st.just("builtin"), "builtin": WORDS},
    optional={"schema_version": WORDS, "name": WORDS, "sample_points": SAMPLE,
              "params": st.dictionaries(WORDS, st.floats(-2, 2), max_size=2)},
) | st.fixed_dictionaries(
    {"kind": st.just("lie_group"), "n": st.integers(1, MAX_N),
     "structure_constants": st.lists(st.fixed_dictionaries(
         {"i": INDEX, "j": INDEX, "k": INDEX, "value": st.floats(-2, 2)}), max_size=3)},
    optional={"schema_version": WORDS, "name": WORDS, "metric": MATRIX, "phi": MATRIX,
              "xi_index": INDEX, "sasaki_expected": st.booleans(), "sample_points": SAMPLE},
)
# a mutation's new value: wrong types, NaN, and n, count and seed at and past their bounds
REPLACEMENTS = [True, 1.5, 2.0, "1", "standard", "builtin", "lie_group", float("nan"),
                float("inf"), None, [], {}, -1, 0, 1, MAX_N, MAX_N + 1, MAX_POINTS, MAX_POINTS + 1]


class TestModelSpec:
    def lie_spec(self):
        return {
            "kind": "lie_group",
            "name": "solvable_n1",
            "n": 1,
            "structure_constants": [
                {"i": 0, "j": 1, "k": 2, "value": 1.0},
                {"i": 0, "j": 2, "k": 1, "value": -1.0},
            ],
            "metric": "standard",
            "phi": "standard",
            "xi_index": 0,
        }

    def test_lie_group_spec_builds_and_passes(self):
        cm = model_from_spec(self.lie_spec())
        report = run_all([cm], small_cfg())
        assert report["summary"]["ok"]
        assert report["summary"]["fail"] == 0

    def test_builtin_spec(self):
        cm = model_from_spec({"kind": "builtin", "builtin": "example2",
                              "params": {"lam": 1.0, "mu": 0.0}})
        assert cm.name == "example2"

    def test_schema_rejects_garbage(self):
        with pytest.raises(jsonschema.ValidationError):
            model_from_spec({"kind": "lie_group", "n": 1})
        with pytest.raises(jsonschema.ValidationError):
            model_from_spec({"kind": "wrong"})

    @pytest.mark.parametrize("spec", [
        {"kind": "wrong"},
        {"kind": "lie_group", "structure_constants": []},
        {"kind": "builtin", "builtin": "example1", "bogus": 1},
        {"kind": "lie_group", "n": MAX_N + 1, "structure_constants": []},
        {"kind": "builtin", "builtin": "example1", "sample_points": {"count": 0}},
    ], ids=["kind", "missing_n", "extra_property", "n_range", "sample_points"])
    def test_rejects_as_jsonschema_validate(self, spec):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(spec, MODELSPEC_SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as raised:
            model_from_spec(spec)
        assert (raised.value.message, raised.value.path, raised.value.schema_path) == (
            expected.value.message, expected.value.path, expected.value.schema_path)

    def test_schema_checked_at_first_load_only(self, monkeypatch):
        cls = jsonschema.validators.validator_for(MODELSPEC_SCHEMA)
        check, calls = cls.check_schema, []
        monkeypatch.setattr(cls, "check_schema",
                            classmethod(lambda _, schema: calls.append(schema) or check(schema)))
        modelspec._validator.cache_clear()
        assert main(["verify", "-m", "example1", "--points", "1", "--only", "sasaki"]) == 0
        assert calls == []      # a builtin loads no spec
        model_from_spec(self.lie_spec())
        model_from_spec({"kind": "builtin", "builtin": "example2"})
        assert calls == []      # nor does a valid spec
        with pytest.raises(jsonschema.ValidationError):
            model_from_spec({"kind": "wrong"})
        assert calls == [MODELSPEC_SCHEMA]

    @pytest.mark.parametrize("name", ["modelspec.schema.json", "report.schema.json"])
    def test_shipped_schemas_pass_their_draft(self, name):
        schema = json.loads((DOCS / name).read_text())
        cls = jsonschema.validators.validator_for(schema, default=None)
        assert cls is jsonschema.Draft7Validator
        cls.check_schema(schema)

    def test_shipped_schema_matches_embedded(self):
        shipped = json.loads((DOCS / "modelspec.schema.json").read_text())
        assert shipped == MODELSPEC_SCHEMA

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.lie_spec()))
        cm = load_model_spec(path)
        assert cm.model.dim == 3

    @pytest.mark.parametrize("text, message", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"kind": ', "Expecting value: line 1 column 10 (char 9)"),
        (json.dumps({"kind": "lie_group", "n": 1, "structure_constants": [
            {"i": 0, "j": 1, "k": 2, "value": "one"}]}).encode(),
         "$.structure_constants[0].value: 'one' is not of type 'number'"),
    ], ids=["not_utf8", "not_json", "schema"])
    def test_bad_spec_file_is_one_line(self, text, message, tmp_path, capsys):
        # the file, and for a schema error the JSON path, in one stderr line
        path = tmp_path / "spec.json"
        path.write_bytes(text)
        assert main(["verify", "-m", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid model spec {path}: {message}")
        assert err.count("\n") == 1, err

    def test_builtins_alone_import_no_jsonschema(self):
        src = Path(__file__).resolve().parents[1] / "src"

        def stdout(probe):
            return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout

        assert stdout("import sys, accr.cli; print('jsonschema' in sys.modules)") == "False\n"
        # nor does verifying a valid spec: only a spec the checker rejects imports it
        spec = ["verify", "-m", str(DOCS / "examples" / "custom_lie_group.json"), "--only", "sasaki"]
        out = stdout(f"import sys; from accr.cli import main; code = main({spec!r}); "
                     "print('jsonschema' in sys.modules, code)")
        assert out.endswith("\nFalse 0\n"), out

    def test_explicit_matrices(self):
        spec = self.lie_spec()
        spec["metric"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]
        spec["phi"] = [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
        cm = model_from_spec(spec)
        report = run_all([cm], small_cfg())
        assert report["summary"]["ok"]

    @pytest.mark.parametrize("kind, path, value", [
        ("lie_group", ["n"], 1.0),
        ("lie_group", ["structure_constants", 0, "i"], 0.0),
        ("lie_group", ["structure_constants", 0, "j"], 1.0),
        ("lie_group", ["structure_constants", 0, "k"], 2.0),
        ("lie_group", ["xi_index"], 0.0),
        ("lie_group", ["sample_points", "count"], 2.0),
        ("lie_group", ["sample_points", "seed"], 5.0),
        ("builtin", ["sample_points", "count"], 2.0),
    ], ids=["n", "i", "j", "k", "xi_index", "count", "seed", "builtin_count"])
    def test_whole_float_runs_as_its_int_twin(self, kind, path, value, tmp_path, capsys):
        # draft 7 counts 1.0 an integer, so such a spec is valid and runs as its twin
        spec = self.lie_spec() if kind == "lie_group" else {"kind": "builtin", "builtin": "example1"}
        spec["sample_points"] = {"count": 2, "seed": 5}
        runs = []
        for twin in (int(value), value):
            node = spec
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = twin
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            code = main(["verify", "-m", str(tmp_path / "spec.json"),
                         "--json", str(tmp_path / "report.json")])
            runs.append((code, (tmp_path / "report.json").read_bytes(), capsys.readouterr().out))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]

    def test_schema_uses_only_the_checkers_keywords(self):
        def walk(schema):
            assert schema.keys() <= KEYWORDS, schema.keys() - KEYWORDS
            assert isinstance(schema.get("const", ""), str)
            for sub in schema.get("oneOf", []) + list(schema.get("properties", {}).values()):
                walk(sub)
            for key in ("items", "additionalProperties"):
                if isinstance(schema.get(key), dict):
                    walk(schema[key])

        walk(MODELSPEC_SCHEMA)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_checker_vouches_as_draft7_decides(self, data):
        # valid specs of both kinds, then one mutation of each: the checker
        # vouches for the valid spec, and for the mutant exactly when draft 7 admits it
        validator = jsonschema.Draft7Validator(MODELSPEC_SCHEMA)
        spec = data.draw(VALID_SPECS)
        assert modelspec._vouches(MODELSPEC_SCHEMA, spec) and validator.is_valid(spec)
        nodes = [spec, *spec.get("structure_constants", []), *filter(None, [spec.get("sample_points")])]
        node = data.draw(st.sampled_from(nodes))
        key = data.draw(st.sampled_from(sorted(node) + ["bogus"]))
        if key == "bogus" or data.draw(st.booleans()):
            node[key] = data.draw(st.sampled_from(REPLACEMENTS))
        else:
            del node[key]
        assert modelspec._vouches(MODELSPEC_SCHEMA, spec) == validator.is_valid(spec)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "example1" in out and "flat_parallel" in out

    def test_verify_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "-m", "example1", "--points", "3",
                     "--json", str(out), "--only", "sasaki"])
        assert code == 0
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["summary"]["ok"]

    def test_verify_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert main(["verify", "-m", "example2", "--points", "3",
                         "--seed", "5", "--json", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_failure_exit_one(self, capsys, monkeypatch):
        # force a failure by demanding an absurd tolerance on a passing model
        code = main(["verify", "-m", "example1_chart", "--points", "3",
                     "--tol", "1e-18", "--only", "crossrep"])
        assert code == 1

    def test_misdeclared_sasaki_fails_conformal(self, tmp_path, capsys):
        """A flat group declared Sasaki-like: the conformal rows are computed
        and fail, not dropped into an empty report that exits 0."""
        spec = tmp_path / "flat.json"
        spec.write_text(json.dumps({"kind": "lie_group", "n": 1, "structure_constants": [],
                                    "sasaki_expected": True}))
        out = tmp_path / "report.json"
        assert main(["verify", "-m", str(spec), "--only", "conformal",
                     "--json", str(out)]) == 1
        rows = {row["check_id"]: row["verdict"]
                for row in json.loads(out.read_text())["models"][0]["checks"]}
        assert rows["conformal.preserve.f_bar_direct"] == "fail"

    def test_misdeclared_sasaki_eta_fit_reads_error(self, tmp_path, capsys):
        """The eta fit of a flat group declared Sasaki-like is one error row
        with its reason, not a vanished row in a report that exits 0."""
        spec = tmp_path / "flat.json"
        spec.write_text(json.dumps({"kind": "lie_group", "n": 1, "structure_constants": [],
                                    "sasaki_expected": True}))
        out = tmp_path / "report.json"
        assert main(["verify", "-m", str(spec), "--only", "conformal.eta_fit",
                     "--json", str(out)]) == 1
        rows = json.loads(out.read_text())["models"][0]["checks"]
        assert [(row["check_id"], row["verdict"]) for row in rows] == [
            ("conformal.eta_fit.residual", "error")]
        assert rows[0]["note"].startswith("not Sasaki-like: ")

    def test_model_error_line(self, capsys, monkeypatch):
        # a model whose checks abort prints one ERROR line and fails the run
        import accr.cli as cli

        monkeypatch.setattr(cli, "_resolve_models", lambda names, params: [degenerate_chart()])
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "== degenerate {}\n   ERROR: " in out

    def test_usage_error_exit_two(self, capsys):
        assert main(["verify", "--points", "notanint"]) == 2
        assert main(["bogus-subcommand"]) == 2
        assert main(["verify", "-m", "unknown_model"]) == 2

    def test_cone_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cone.json"
        assert main(["cone", "-m", "example1", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["models"][0]["holomorphic"] is True
        # perfbench's cone check reads residual, per_point, holomorphic and
        # expected_holomorphic
        assert set(payload["models"][0]) == {
            "name", "params", "residual", "per_point", "connection_lines", "dj_xi_line",
            "holomorphic", "expected_holomorphic"}

    @pytest.mark.parametrize("argv", [
        pytest.param(["-m", "example1", "--params", "u=0.3,v=0.2,w=0", "--points", "3"],
                     id="example1"),
        # the named family "zero": a callable parameter field, constant 0
        pytest.param(["-m", "example1_chart", "--params", "v=zero,w=0", "--points", "4"],
                     id="example1_chart-zero"),
        # 20 points in blocks of 13 and 7: the laws read the first block's solves
        pytest.param(["-m", "example3_hsphere_ext", "--params", "u=0.3,v=0.2,w=0", "--seed", "7"],
                     id="example3_hsphere_ext"),
    ])
    def test_transform_subcommand(self, tmp_path, capsys, argv):
        out = tmp_path / "tr.json"
        code = main(["transform", *argv, "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["models"][0]["sasaki_preserved"] is True
        # the homothetic laws are those of the first sample point: a sample
        # of that point alone gives them bit for bit
        first = tmp_path / "first.json"
        assert main(["transform", *argv, "--points", "1", "--json", str(first)]) == 0
        laws = lambda model: (model.get("laws"), model.get("connection_formula_residual"))
        assert laws(json.loads(first.read_text())["models"][0]) == laws(payload["models"][0])

    def test_transform_passes_model_params(self, tmp_path, capsys):
        out = tmp_path / "tr.json"
        assert main(["transform", "-m", "example1", "--params", "n=2,u=0.3,v=0.2,w=0",
                     "--points", "3", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["models"][0]["params"] == {"n": 2}

    def test_transform_w_breaks(self, tmp_path, capsys):
        out = tmp_path / "tr.json"
        code = main(["transform", "-m", "example1", "--params",
                     "u=0,v=0,w=0.693147", "--points", "3", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["models"][0]["sasaki_preserved"] is False

    @pytest.mark.parametrize("params, error", [
        # e^{2u} is inf without an exception: nulls that exited 0
        ("u=1e308", "a residual could not be computed (not finite)"),
        # math.exp and math.cos raise: tracebacks
        pytest.param("u=400", "OverflowError: math range error", id="u=400-math range error"),
        pytest.param("v=1e308", "ValueError: math domain error", id="v=1e308-math domain error"),
    ])
    def test_transform_overflow_is_error(self, params, error, tmp_path, capsys):
        # finite parameters whose transformation cannot be computed give the
        # model an error and exit 1
        out = tmp_path / "tr.json"
        with np.errstate(all="ignore"):
            code = main(["transform", "-m", "example1", "--params", params, "--points", "1",
                         "--json", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["models"][0]["error"] == error

    def test_verify_overflow_is_error(self, tmp_path, capsys):
        # a finite lam whose jets overflow in the math module: the model gets
        # an error entry and the run exits 1, where it ended in a traceback
        out = tmp_path / "report.json"
        with np.errstate(all="ignore"):
            code = main(["verify", "-m", "example2_chart", "--params", "lam=1e300",
                         "--points", "2", "--json", str(out)])
        assert code == 1
        model = json.loads(out.read_text())["models"][0]
        assert model["error"] == "OverflowError: (34, 'Numerical result out of range')"
        assert model["checks"] == []

    @pytest.mark.parametrize("argv", [
        ["transform", "-m", "example1_chart", "--points", "2", "--params", "v=linear_t:1e308"],
        ["verify", "-m", "example2", "--params", "lam=1e200"],
    ])
    def test_non_finite_residual_prints_no_warning(self, argv, tmp_path, capsys):
        # the error entry or rows say what could not be computed; numpy's
        # overflow warnings on stderr beside them said it again
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--json", str(tmp_path / "out.json")]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_cone_model_error_captured(self, tmp_path, capsys, monkeypatch):
        # a GeometryError in the second model is its error entry; the other
        # two models keep theirs and the run exits 1
        import accr.sasaki as sas

        calls, cone = [], sas.cone_holomorphic_residual

        def second_degenerate(*args):
            calls.append(1)
            if len(calls) == 2:
                raise DegenerateMetric("degenerate cone metric")
            return cone(*args)

        monkeypatch.setattr(sas, "cone_holomorphic_residual", second_degenerate)
        out = tmp_path / "cone.json"
        assert main(["cone", "-m", "example1", "-m", "example2", "-m", "flat_parallel",
                     "--json", str(out)]) == 1
        models = json.loads(out.read_text())["models"]
        assert models[1] == {"name": "example2", "params": {"lam": 1.0, "mu": 0.0},
                             "error": "degenerate cone metric"}
        assert [m["holomorphic"] for m in (models[0], models[2])] == [True, False]

    @pytest.mark.parametrize("name", ["example1", "flat_parallel"])
    def test_cone_nan_residual_is_error(self, name, tmp_path, capsys, monkeypatch):
        # a cone residual that could not be computed fails the run, also on
        # the model that fails the cone by design
        import accr.sasaki as sas

        cone = sas.cone_holomorphic_residual
        monkeypatch.setattr(sas, "cone_holomorphic_residual",
                            lambda *args: {**cone(*args), "holomorphic": math.nan})
        out = tmp_path / "cone.json"
        assert main(["cone", "-m", name, "--json", str(out)]) == 1
        model = json.loads(out.read_text())["models"][0]
        assert model["residual"] is None and model["holomorphic"] is False

    def test_spec_sample_points_rule_transform_and_cone(self, tmp_path, capsys, monkeypatch):
        # the spec's sample (3 points) replaces --points and --seed, as in verify
        from accr.structure import PointFields

        spec = tmp_path / "ex1c.json"
        spec.write_text(json.dumps({"kind": "builtin", "builtin": "example1_chart",
                                    "params": {"n": 1},
                                    "sample_points": {"count": 3, "seed": 5}}))
        built = []
        init = PointFields.__init__
        monkeypatch.setattr(PointFields, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        assert main(["transform", "-m", str(spec), "--params", "u=0.3,v=0.2,w=0"]) == 0
        # the one block's base and transformed fields, and the laws' pair at its first point
        assert len(built) == 4
        out = tmp_path / "cone.json"
        assert main(["cone", "-m", str(spec), "--json", str(out)]) == 0
        assert len(json.loads(out.read_text())["models"][0]["per_point"]) == 3

    @pytest.mark.parametrize("argv, code", [
        (["verify", "-m", "example1_chart", "--points", "0"], 2),
        (["verify", "-m", "example1", "--points", "-3"], 2),
        (["verify", "-m", "example1", "--fd-step", "0"], 2),
        (["verify", "-m", "example1", "--fd-step=-1e-3"], 2),
        (["verify", "-m", "example1", "--fd-step", "nan"], 2),
        (["transform", "-m", "example1", "--fd-step", "inf"], 2),
        (["cone", "-m", "example1", "--points", "0"], 2),
        (["verify", "-m", "SPEC:schema_invalid"], 2),
        (["verify", "-m", "SPEC:not_jacobi"], 2),
        # --tol 0 is a tolerance, not "no override": the ~1e-15 residual fails it
        (["cone", "-m", "example1", "--tol", "0"], 1),
        (["cone", "-m", "example1"], 0),
        (["verify", "-m", "example1", "--only", "bogus"], 2),
        (["verify", "-m", "example1", "--params", "m=2"], 2),
        (["transform", "-m", "example1", "--params", "u=0.3,bogus=1"], 2),
        # --params goes whole to every named builtin, and example2 takes no n
        (["verify", "-m", "example1", "-m", "example2", "--params", "n=2"], 2),
        # model parameters must be finite reals, and n a whole number
        (["verify", "-m", "example1", "--params", "n=2.5"], 2),
        (["verify", "-m", "example1", "--params", "n=abc"], 2),
        (["verify", "-m", "example2", "--params", "lam=nan", "--only", "structure"], 2),
        (["verify", "-m", "SPEC:nan_constant"], 2),
        (["verify", "-m", "SPEC:asymmetric_metric"], 2),
        # xi_index and the shape of phi must fit d = 2n + 1
        (["verify", "-m", "SPEC:xi_index_out_of_range"], 2),
        (["verify", "-m", "SPEC:phi_wrong_shape"], 2),
        (["verify", "-m", "SPEC:ragged_metric"], 2),
        # n is bounded above, before anything of size n is built
        (["verify", "-m", "example3_hsphere_ext", "--params", "n=17"], 2),
        (["verify", "-m", "SPEC:n_too_large"], 2),
        # seeds are non-negative, on the command line and in a spec
        (["verify", "-m", "example1_chart", "--points", "2", "--seed", "-5"], 2),
        (["cone", "-m", "example1", "--seed", "-1"], 2),
        (["verify", "-m", "SPEC:negative_seed"], 2),
        # a tolerance is a finite number >= 0
        (["verify", "-m", "example1", "--tol", "nan"], 2),
        (["verify", "-m", "example1", "--tol=-1"], 2),
        (["transform", "-m", "example1", "--tol", "inf"], 2),
        # transform parameters, and the coefficient of linear_t, are finite numbers
        (["transform", "-m", "example1_chart", "--params", "v=linear_t:abc"], 2),
        (["transform", "-m", "example1_chart", "--params", "u=nan"], 2),
        (["transform", "-m", "example1_chart", "--params", "w=inf"], 2),
        (["transform", "-m", "example1_chart", "--params", "v=linear_t:nan"], 2),
        # a prefix whose families apply to none of the models would check nothing
        (["verify", "-m", "example1", "--only", "derivatives"], 2),
        (["verify", "-m", "example1", "-m", "flat_parallel", "--only", "crossrep"], 2),
        (["verify", "-m", "example1", "-m", "example1_chart", "--only", "derivatives",
          "--points", "2"], 0),
        # a spec gives each bracket c^k_ij once, and none with i == j
        (["verify", "-m", "SPEC:bracket_twice"], 2),
        (["verify", "-m", "SPEC:bracket_of_itself"], 2),
        # the sample is bounded above, before any point is drawn
        (["verify", "-m", "example1_chart", "--points", "10000000000000"], 2),
        (["cone", "-m", "example1_chart", "--points", "1001"], 2),
        (["verify", "-m", "SPEC:too_many_points"], 2),
        # a spec phi is finite, as a spec metric is
        (["verify", "-m", "SPEC:nan_phi"], 2),
        # a spec metric and phi are numbers: no strings, no booleans
        (["verify", "-m", "SPEC:str_metric"], 2),
        (["verify", "-m", "SPEC:bool_phi"], 2),
        # --params must reach a builtin named with -m: not the default corpus, nor a spec
        (["verify", "--params", "n=2", "--points", "1", "--only", "structure.eta_xi"], 2),
        (["verify", "-m", "SPEC:builtin_ref", "--params", "lam=7"], 2),
    ])
    def test_bad_input(self, argv, code, tmp_path, capsys):
        specs = {
            "schema_invalid": {"kind": "lie_group", "n": 1},
            # [e0, e1] = e2 and [e1, e2] = e1 break the Jacobi identity
            "not_jacobi": {"kind": "lie_group", "n": 1, "structure_constants": [
                {"i": 0, "j": 1, "k": 2, "value": 1.0},
                {"i": 1, "j": 2, "k": 1, "value": 1.0}]},
            "nan_constant": {"kind": "lie_group", "n": 1, "structure_constants": [
                {"i": 0, "j": 1, "k": 2, "value": float("nan")}]},
            "asymmetric_metric": {"kind": "lie_group", "n": 1, "structure_constants": [],
                                  "metric": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]},
            "xi_index_out_of_range": {"kind": "lie_group", "n": 1, "structure_constants": [],
                                      "xi_index": 5},
            "phi_wrong_shape": {"kind": "lie_group", "n": 1, "structure_constants": [],
                                "phi": [[0.0, -1.0], [1.0, 0.0]]},
            "ragged_metric": {"kind": "lie_group", "n": 1, "structure_constants": [],
                              "metric": [[1.0, 0.0], [0.0]]},
            "n_too_large": {"kind": "lie_group", "n": 17, "structure_constants": []},
            "negative_seed": {"kind": "lie_group", "n": 1, "structure_constants": [],
                              "sample_points": {"count": 3, "seed": -2}},
            "too_many_points": {"kind": "builtin", "builtin": "example1_chart",
                                "sample_points": {"count": 10000000000000}},
            # c^2_01 given in both orders
            "bracket_twice": {"kind": "lie_group", "n": 1, "structure_constants": [
                {"i": 0, "j": 1, "k": 2, "value": 1}, {"i": 1, "j": 0, "k": 2, "value": -1}]},
            # docs/examples/custom_lie_group.json with [e1, e1] = 5 e0 added
            "bracket_of_itself": {"kind": "lie_group", "n": 1, "structure_constants": [
                {"i": 0, "j": 1, "k": 2, "value": 1.0}, {"i": 0, "j": 2, "k": 1, "value": -1.0},
                {"i": 1, "j": 1, "k": 0, "value": 5}]},
            "nan_phi": {"kind": "lie_group", "n": 1, "structure_constants": [],
                        "phi": [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, float("nan"), 0.0]]},
            # the standard metric and phi, written with strings and with booleans
            "str_metric": {"kind": "lie_group", "n": 1, "structure_constants": [],
                           "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]},
            "bool_phi": {"kind": "lie_group", "n": 1, "structure_constants": [],
                         "phi": [[False, False, False], [False, False, -1], [False, True, False]]},
            # docs/examples/builtin_ref.json, a valid spec at its own parameters
            "builtin_ref": {"kind": "builtin", "builtin": "example2",
                            "params": {"lam": 3.0, "mu": -2.0}},
        }
        for name, spec in specs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        argv = [str(tmp_path / f"{a[5:]}.json") if a.startswith("SPEC:") else a for a in argv]
        assert main(argv) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_transform_honours_tol_zero(self, tmp_path, capsys):
        out = tmp_path / "tr.json"
        args = ["transform", "-m", "example2", "--params", "u=0.3,v=0.2,w=0",
                "--points", "3", "--json", str(out)]
        assert main(args) == 0
        assert json.loads(out.read_text())["models"][0]["sasaki_preserved"] is True
        assert main(args + ["--tol", "0"]) == 0
        assert json.loads(out.read_text())["models"][0]["sasaki_preserved"] is False

    def test_seed_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("ACCR_SEED", "123")
        from accr.cli import build_parser

        args = build_parser().parse_args(["verify"])
        assert args.seed == 123

    def test_seed_env_read_at_each_call(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "report.json"
        for env in ("5", "123", "5"):
            monkeypatch.setenv("ACCR_SEED", env)
            assert main(["verify", "-m", "example1", "--points", "1", "--only", "sasaki",
                         "--json", str(out)]) == 0
            assert json.loads(out.read_text())["environment"]["seed"] == int(env)

    @pytest.mark.parametrize("env, argv, code", [
        ("abc", ["verify", "-m", "example1"], 2),
        ("-1", ["verify", "-m", "example1"], 2),
        # list takes no seed, so the variable is not read
        ("abc", ["list"], 0),
    ])
    def test_bad_seed_env(self, env, argv, code, monkeypatch, capsys):
        monkeypatch.setenv("ACCR_SEED", env)
        assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err


def test_commands_leave_no_reference_cycles(capsys):
    # garbage in a reference cycle waits for the cycle collector, so the
    # collector's timing moves a command's peak RSS
    # warm-up: building the cached parser leaves argparse's own cycles
    main(["verify", "-m", "example1", "--points", "1"])
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in (["verify"],
                     ["transform", "-m", "example3_hsphere_ext", "--params", "u=0.3,v=0.2,w=0"],
                     ["cone", "-m", "example3_hsphere_ext"]):
            assert main(argv) == 0
        gc.collect()
        assert [type(obj).__name__ for obj in gc.garbage] == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
