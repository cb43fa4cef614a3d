"""JSON model specifications.

Two spec kinds are accepted: a reference to a builtin corpus member with
parameters, or a fully described left-invariant model given by structure
constants.  The JSON schema ships in docs/modelspec.schema.json and is
enforced before construction.  A spec passes through _vouches, which reads
the schema dict under draft 7 through the few keywords it uses; only a spec
it does not vouch for imports jsonschema, whose verdict and error are final.
So a run of builtins, or of valid specs, never imports jsonschema.
"""

from __future__ import annotations

import functools
import json
import numbers
from pathlib import Path

import numpy as np

from .corpus import MAX_N, MAX_POINTS, CorpusModel, builtin
from .errors import BadParams
from .frame_algebra import MetricMatrix, standard_signature
from .models import lie_group_model
from .structure import AccrStructure, standard_structure

_SAMPLE_POINTS = {
    "type": "object",
    "properties": {
        "count": {"type": "integer", "minimum": 1, "maximum": MAX_POINTS},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

MODELSPEC_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "ModelSpec",
    "description": "Input model description: either a builtin corpus member with parameters, "
                   "or a left-invariant model given by structure constants.",
    "type": "object",
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "schema_version": {"type": "string"},
                "kind": {"const": "builtin"},
                "builtin": {"type": "string"},
                "name": {"type": "string"},
                "params": {"type": "object"},
                "sample_points": _SAMPLE_POINTS,
            },
            "required": ["kind", "builtin"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "schema_version": {"type": "string"},
                "kind": {"const": "lie_group"},
                "name": {"type": "string"},
                "n": {"type": "integer", "minimum": 1, "maximum": MAX_N},
                "structure_constants": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "i": {"type": "integer", "minimum": 0},
                            "j": {"type": "integer", "minimum": 0},
                            "k": {"type": "integer", "minimum": 0},
                            "value": {"type": "number"},
                        },
                        "required": ["i", "j", "k", "value"],
                        "additionalProperties": False,
                    },
                },
                "metric": {
                    "oneOf": [{"const": "standard"}, {"type": "array"}]
                },
                "phi": {
                    "oneOf": [{"const": "standard"}, {"type": "array"}]
                },
                "xi_index": {"type": "integer", "minimum": 0},
                "sasaki_expected": {"type": "boolean"},
                "sample_points": _SAMPLE_POINTS,
            },
            "required": ["kind", "n", "structure_constants"],
            "additionalProperties": False,
        },
    ],
}


def _square(value, what, d):
    """value, d lists of d numbers (a bool is none, as in _is_type), as a d x
    d float matrix; BadParams for anything else."""
    if not (isinstance(value, list) and len(value) == d and all(
            isinstance(row, list) and len(row) == d and all(_is_type(x, "number") for x in row)
            for row in value)):
        raise BadParams(f"{what} must be a {d}x{d} matrix of numbers")
    return np.asarray(value, dtype=float)


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": numbers.Number}


def _is_type(x, name: str) -> bool:
    """Whether x has the draft-7 type name: a bool is no number, and a float
    with no fractional part is an integer."""
    if isinstance(x, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(x, int) or isinstance(x, float) and x.is_integer()
    return isinstance(x, _TYPES[name])


# the draft-7 keywords _vouches decides, then the annotations it skips
KEYWORDS = frozenset({"type", "const", "oneOf", "properties", "required", "additionalProperties",
                      "items", "minimum", "maximum", "$schema", "title", "description"})


def _vouches(schema, x) -> bool:
    """Whether x is valid against schema under draft 7, for a schema written
    in KEYWORDS (any other keyword is not vouched for) whose constants are
    strings, which == compares as draft 7 does."""
    if isinstance(schema, bool):
        return schema
    obj = isinstance(x, dict)
    for key, sub in schema.items():
        if key == "type":
            ok = _is_type(x, sub)
        elif key == "const":
            ok = x == sub
        elif key == "oneOf":
            ok = sum(_vouches(branch, x) for branch in sub) == 1
        elif key == "properties":
            ok = not obj or all(_vouches(s, x[k]) for k, s in sub.items() if k in x)
        elif key == "required":
            ok = not obj or all(k in x for k in sub)
        elif key == "additionalProperties":
            named = schema.get("properties", {})
            ok = not obj or all(_vouches(sub, x[k]) for k in x if k not in named)
        elif key == "items":
            ok = not isinstance(x, list) or all(_vouches(sub, y) for y in x)
        elif key in ("minimum", "maximum"):
            ok = not _is_type(x, "number") or not (x < sub if key == "minimum" else x > sub)
        else:
            ok = key in KEYWORDS    # an annotation
        if not ok:
            return False
    return True


@functools.cache
def _validator():
    """The MODELSPEC_SCHEMA validator, its schema checked on first use, for
    the specs _vouches does not vouch for: jsonschema is imported then only."""
    import jsonschema

    cls = jsonschema.validators.validator_for(MODELSPEC_SCHEMA)
    cls.check_schema(MODELSPEC_SCHEMA)
    return cls(MODELSPEC_SCHEMA)


def _schema_error(spec):
    """None for a spec valid against MODELSPEC_SCHEMA, else the error
    jsonschema.validate would raise."""
    if _vouches(MODELSPEC_SCHEMA, spec):
        return None
    from jsonschema.exceptions import best_match

    return best_match(_validator().iter_errors(spec))


def _sample(spec):
    """The spec's sample_points, its count and seed read as ints, or None."""
    points = spec.get("sample_points")
    return None if points is None else {key: int(val) for key, val in points.items()}


def model_from_spec(spec: dict) -> CorpusModel:
    error = _schema_error(spec)
    if error is not None:
        raise error
    return _build(spec)


def _build(spec: dict) -> CorpusModel:
    """The model of a spec valid against MODELSPEC_SCHEMA; every integer
    field is read through int(), as draft 7 counts 1.0 an integer."""
    if spec["kind"] == "builtin":
        cm = builtin(spec["builtin"], **spec.get("params", {}))
        cm.sample_override = _sample(spec)
        return cm

    n = int(spec["n"])
    d = 2 * n + 1
    c, given = np.zeros((d, d, d)), set()
    for entry in spec["structure_constants"]:
        (i, j, k), v = (int(entry[key]) for key in "ijk"), entry["value"]
        if max(i, j, k) >= d:
            raise BadParams(f"index out of range for dimension {d}: {entry}")
        if i == j or (k, min(i, j), max(i, j)) in given:
            why = "[e_i, e_i] is zero" if i == j else "c^k_ij or c^k_ji is given twice"
            raise BadParams(f"structure constant {entry}: {why}")
        given.add((k, min(i, j), max(i, j)))
        c[k, i, j] += v
        c[k, j, i] -= v
    metric_spec = spec.get("metric", "standard")
    if metric_spec == "standard":
        metric = MetricMatrix(np.diag(standard_signature(n)))
    else:
        metric = MetricMatrix(_square(metric_spec, "metric", d))
    model = lie_group_model(n, c, metric)
    jacobi = model.jacobi_residual()
    if not jacobi <= 1e-9:
        raise BadParams(f"structure constants break the Jacobi identity (residual {jacobi:.3e})")
    phi_spec = spec.get("phi", "standard")
    phi = (standard_structure(model, n).phi if phi_spec == "standard"
           else _square(phi_spec, "phi", d))
    if not np.all(np.isfinite(phi)):
        raise BadParams("phi components must be finite")
    xi_index = int(spec.get("xi_index", 0))
    if xi_index >= d:
        raise BadParams(f"xi_index {xi_index} out of range for dimension {d}")
    xi = np.zeros(d)
    xi[xi_index] = 1.0
    eta = metric.components @ xi
    structure = AccrStructure(model=model, n=n, phi=phi, xi=xi, eta=eta)
    return CorpusModel(
        name=spec.get("name", "user_lie_group"),
        model=model,
        structure=structure,
        params={"n": n},
        sasaki_expected=spec.get("sasaki_expected", True),
        sample_override=_sample(spec),
    )


def load_model_spec(path) -> CorpusModel:
    """The model of the spec file at path; BadParams naming the file, and the
    JSON path of a schema error, for a file not UTF-8 JSON or not a spec."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadParams(f"invalid model spec {path}: {exc}") from None
    error = _schema_error(spec)
    if error is not None:
        raise BadParams(f"invalid model spec {path}: {error.json_path}: {error.message}")
    return _build(spec)
