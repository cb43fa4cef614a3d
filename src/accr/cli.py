"""Command line interface.

Subcommands:
  list        show the builtin corpus
  verify      run the verification battery over models
  transform   apply a contact conformal / homothetic transformation, verify
  cone        build the complex cone, check its holomorphicity and its
              closed-form connection lines, each row judged as verify
              judges the cone rows

Exit codes: 0 all checks pass (designed failures count as pass), 1 any
unexpected failure or model error, 2 usage or input errors.  The
environment variable ACCR_SEED, a non-negative integer, overrides the
default sample seed; it is read at every call, and the parser for each
value is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import conformal as conf
from . import corpus as corpus_mod
from . import sasaki as sas
from .errors import BadParams, GeometryError
from .models import DEFAULT_FD_STEP
from .modelspec import load_model_spec
from .structure import Field, max_over_points, worst
from .verify import (
    CHECKS,
    FAILING,
    MODEL_ERRORS,
    SCHEMA_VERSION,
    VerifyConfig,
    blocks,
    error_text,
    families_for,
    flatten,
    judge,
    report_to_json,
    run_all,
    sample,
)


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        for piece in item.split(","):
            if not piece:
                continue
            if "=" not in piece:
                raise GeometryError(f"bad parameter {piece!r}, expected key=value")
            key, val = piece.split("=", 1)
            try:
                out[key.strip()] = float(val)
            except ValueError:
                out[key.strip()] = val
    # integer-valued n stays an int for nicer reports
    if "n" in out and isinstance(out["n"], float) and out["n"].is_integer():
        out["n"] = int(out["n"])
    return out


def _resolve_models(names, params):
    """The default corpus, or each named spec file or builtin; every builtin
    takes all of params, and a key it does not take, or params that no
    named builtin takes, is BadParams."""
    is_spec = lambda name: name.endswith(".json") or "/" in name
    if params and all(map(is_spec, names or [])):
        raise BadParams(f"no builtin is named with -m to take --params {', '.join(params)}")
    if not names:
        return corpus_mod.default_corpus()
    return [load_model_spec(Path(name)) if is_spec(name) else corpus_mod.builtin(name, **params)
            for name in names]


def _config_from(args) -> VerifyConfig:
    if not 1 <= args.points <= corpus_mod.MAX_POINTS:
        raise BadParams(f"--points must be from 1 to {corpus_mod.MAX_POINTS}, got {args.points}")
    if args.seed < 0:
        raise BadParams(f"--seed must be non-negative, got {args.seed}")
    if not (math.isfinite(args.fd_step) and args.fd_step > 0):
        raise BadParams(f"--fd-step must be a positive finite number, got {args.fd_step}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise BadParams(f"--tol must be a non-negative finite number, got {args.tol}")
    only = getattr(args, "only", None)
    if only and not any(check_id.startswith(only) for check_id in CHECKS):
        raise BadParams(f"--only {only!r} matches no check id")
    return VerifyConfig(
        points=args.points,
        seed=args.seed,
        fd_step=args.fd_step,
        tol_override=args.tol,
        only=only,
    )


def _write_json(report, args) -> str:
    text = report_to_json(report)
    if args.json:
        Path(args.json).write_text(text)
    return text


def _emit(report, args) -> int:
    _write_json(report, args)
    for model in report["models"]:
        print(f"== {model['name']} {model['params']}")
        if "error" in model:
            print(f"   ERROR: {model['error']}")
            continue
        for row in model["checks"]:
            tol = row["tolerance"]
            tol_s = f"{tol:.1e}" if tol is not None else "   -   "
            print(f"  [{row['verdict']:>5}] {row['check_id']:<44} "
                  f"residual={row['max_residual']:.3e} tol={tol_s}")
    summary = report["summary"]
    print(f"summary: {summary['pass']} pass, {summary['fail']} fail, "
          f"{summary['xfail']} xfail, {summary['xpass']} xpass, {summary['info']} info, "
          f"{summary['error']} error")
    return 0 if summary["ok"] else 1


def cmd_list(args) -> int:
    for name, (_, desc) in sorted(corpus_mod.BUILTINS.items()):
        print(f"{name:<24} {desc}")
    return 0


def cmd_verify(args) -> int:
    cfg = _config_from(args)
    models = _resolve_models(args.model, _parse_params(args.params))
    if cfg.only and not any(families_for(cm, cfg.only) for cm in models):
        raise BadParams(f"--only {cfg.only!r} applies to none of the models")
    report = run_all(models, cfg)
    return _emit(report, args)


def _named_family(key, value):
    """Transform parameter key: a constant, or one of the scalar Fields "zero"
    and "linear_t:<coef>" (coef x^0, whose jet is coef e_i(x^0), the frame
    matrix's row 0).  A constant or coef that is not finite is BadParams."""
    if value == "zero":
        return Field(lambda p: np.zeros(np.shape(p)[:-1]),
                     lambda model, p: np.zeros(np.shape(p)[:-1] + (model.dim,)))
    family, _, text = str(value).rpartition(":")
    try:
        coef = float(text) if family in ("", "linear_t") else math.nan
    except ValueError:
        coef = math.nan
    if not math.isfinite(coef):
        raise BadParams(f"transform parameter {key}={value!r} is not a finite number")
    return Field(lambda p: coef * p[..., 0],
                 lambda model, p: coef * model.frame_matrix(p)[..., 0, :]) if family else coef


def _per_model(args, cfg, params, fill, **header) -> int:
    """Print the report {"schema_version", **header, "models"}, one entry
    {"name", "params", ...} per model that fill(cm, entry) completes.  A
    model whose fill raises one of MODEL_ERRORS gets an "error"; that, or a
    fill that returns False, makes the exit code 1."""
    out = {"schema_version": SCHEMA_VERSION, **header, "models": []}
    ok = True
    for cm in _resolve_models(args.model, params):
        entry = {"name": cm.name, "params": dict(cm.params)}
        try:
            with np.errstate(all="ignore"):     # a non-finite residual is an error, not a warning
                ok = fill(cm, entry) and ok
        except MODEL_ERRORS as exc:
            entry["error"] = error_text(exc)
            ok = False
        out["models"].append(entry)
    print(_write_json(out, args), end="")
    return 0 if ok else 1


def cmd_transform(args) -> int:
    cfg = _config_from(args)
    params = _parse_params(args.params)
    shown = {k: params.pop(k, 0.0) for k in ("u", "v", "w")}
    t = conf.TransformParams(**{k: _named_family(k, v) for k, v in shown.items()})

    def fill(cm, entry):
        # the first point alone, whose pair the laws read, then the rest in blocks
        points = sample(cm, cfg)[0]
        f0 = next(blocks(cm, points[:1]))[1]
        sas.require_sasaki_like(f0)
        first = (f0, conf.apply_cct(f0, t))
        rest = ((f, conf.apply_cct(f, t)) for _, f in blocks(cm, points[1:]))
        entry.update(max_over_points(chain([first], rest), lambda fs: {
            "preservation": conf.preservation_at(*fs),
            "transformed_defining": sas.check_defining_conditions(fs[1])}))
        computed = [*entry["preservation"].values(), *entry["transformed_defining"].values()]
        if t.is_constant:
            laws = conf.homothetic_laws(*first)
            entry["laws"] = {key: float(val[0]) for key, val in laws.items()}
            entry["connection_formula_residual"] = entry["laws"].pop("connection_formula")
            computed += [*entry["laws"].values(), entry["connection_formula_residual"]]
        entry["sasaki_preserved"] = judge("conformal.preserve.transformed_defining",
                                          worst(entry["transformed_defining"].values()),
                                          cm, cfg)[2] == "pass"
        if not all(map(math.isfinite, computed)):     # e.g. e^{2u} overflowed
            raise GeometryError("a residual could not be computed (not finite)")
        return True

    return _per_model(args, cfg, params, fill, transform=shown)


def cmd_cone(args) -> int:
    cfg = _config_from(args)

    def fill(cm, entry):
        points, run = sample(cm, cfg)
        count = min(run.count, 8)
        points = points[:count]
        # cone point j is over sample point j, or a group's one, so per_point comes in order
        out = max_over_points(blocks(cm, points), lambda block: sas.cone_holomorphic_residual(
            block[1], count, run.seed, block[0], len(points)))
        per_point, rows = out.pop("per_point"), {}
        flatten("cone", out, rows, {})
        # the closed-form lines hold on every model, Sasaki-like or not
        verdicts = {check_id: judge(check_id, value, cm, cfg)[2]
                    for check_id, value in rows.items()}
        entry.update(residual=out["holomorphic"], per_point=per_point,
                     connection_lines=out["line"], dj_xi_line=out["dj_xi"],
                     holomorphic=verdicts["cone.holomorphic"] in ("pass", "xpass"),
                     expected_holomorphic=cm.sasaki_expected)
        return not FAILING & set(verdicts.values())

    return _per_model(args, cfg, _parse_params(args.params), fill)


def build_parser() -> argparse.ArgumentParser:
    return _parser(os.environ.get("ACCR_SEED", "42"))


@functools.lru_cache
def _parser(seed: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accr",
        description="Verification toolkit for almost contact complex Riemannian manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", "-m", action="append",
                       help="builtin name or JSON model spec path (repeatable)")
        p.add_argument("--params", action="append",
                       help="comma separated key=value model/transform parameters")
        p.add_argument("--points", type=int, default=20, help="sample point count")
        p.add_argument("--seed", type=int, default=seed,
                       help="non-negative sample seed (env ACCR_SEED)")
        p.add_argument("--tol", type=float, default=None, help="override all tolerances")
        p.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP, dest="fd_step",
                       help="finite difference step")
        p.add_argument("--json", help="write the machine readable report here")

    p_list = sub.add_parser("list", help="list builtin models")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run verification checks")
    common(p_verify)
    p_verify.add_argument("--only", help="restrict to check ids with this prefix")
    p_verify.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("transform", help="apply a contact conformal transformation")
    common(p_tr)
    p_tr.set_defaults(func=cmd_transform)

    p_cone = sub.add_parser("cone", help="cone holomorphicity check")
    common(p_cone)
    p_cone.set_defaults(func=cmd_cone)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
