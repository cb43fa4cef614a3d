"""JSON model specifications.

Two spec kinds are accepted: a reference to a builtin corpus member with
parameters, or a fully described left-invariant model given by structure
constants.  The JSON schema ships in docs/modelspec.schema.json and is
enforced with jsonschema before construction; jsonschema is imported and the
schema itself checked against its metaschema once per process, at the first
spec load, so a run of builtins alone pays for neither.
"""

from __future__ import annotations

import functools
import json
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
    """value as a d x d float matrix; BadParams for any other shape."""
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        m = None
    if m is None or m.shape != (d, d):
        raise BadParams(f"{what} must be a {d}x{d} matrix of numbers")
    return m


@functools.cache
def _validator():
    """The MODELSPEC_SCHEMA validator, its schema checked on first use;
    model_from_spec raises what jsonschema.validate would."""
    import jsonschema

    cls = jsonschema.validators.validator_for(MODELSPEC_SCHEMA)
    cls.check_schema(MODELSPEC_SCHEMA)
    return cls(MODELSPEC_SCHEMA)


def model_from_spec(spec: dict) -> CorpusModel:
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(spec))
    if error is not None:
        raise error
    if spec["kind"] == "builtin":
        cm = builtin(spec["builtin"], **spec.get("params", {}))
        cm.sample_override = spec.get("sample_points")
        return cm

    n = spec["n"]
    d = 2 * n + 1
    c, given = np.zeros((d, d, d)), set()
    for entry in spec["structure_constants"]:
        i, j, k, v = entry["i"], entry["j"], entry["k"], entry["value"]
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
    xi_index = spec.get("xi_index", 0)
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
        sample_override=spec.get("sample_points"),
    )


def load_model_spec(path) -> CorpusModel:
    """The model of the spec file at path; BadParams naming the file, and the
    JSON path of a schema error, for a file not UTF-8 JSON or not a spec."""
    from jsonschema import ValidationError

    try:
        return model_from_spec(json.loads(Path(path).read_text(encoding="utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError, ValidationError) as exc:
        why = f"{exc.json_path}: {exc.message}" if isinstance(exc, ValidationError) else exc
        raise BadParams(f"invalid model spec {path}: {why}") from None
