"""Workload inputs: the command lines, generated model specs and models.

Every operation is one ``accr`` command line run through ``accr.cli.main``.
``build(workload, seed, out_dir)`` derives everything from the seed: the
sample-point seed given to every command and, for ``group_sweep``, the
(lam, mu) grid of Example 2.  The program sees only the generated argument
lists and the spec files written under ``out_dir``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import accr
from accr.modelspec import load_model_spec

import independent as ind

POINTS = 20          # the CLI default, not passed on the command line
CONE_POINTS = 8      # `accr cone` samples min(points, 8) cone points

# the default corpus, as (name, params), in the order `accr verify` reports it
DEFAULT_CORPUS = (
    ("example1", {"n": 1}),
    ("example1", {"n": 2}),
    ("example2", {"lam": 1.0, "mu": 0.0}),
    ("example2", {"lam": 3.0, "mu": -2.0}),
    ("example1_chart", {"n": 1}),
    ("example2_chart", {"lam": 1.0, "mu": 0.0}),
    ("example3_hsphere_ext", {"n": 3, "a": 1.0, "b": 0.0}),
    ("flat_parallel", {"n": 1}),
)
CHARTS = ("example1_chart", "example2_chart", "example3_hsphere_ext")
CROSSREP = ("example1_chart", "example2_chart")
NOT_SASAKI = ("flat_parallel",)

HOMOTHETIC = "u=0.3,v=0.2,w=0"
BREAK_W = math.log(2.0)
BREAK = f"u=0,v=0,w={BREAK_W!r}"
LINEAR_COEF = 0.1
LINEAR = f"v=linear_t:{LINEAR_COEF!r},w=0"


@dataclass
class ModelInfo:
    """What the paper says about one model: the rows its report must carry
    and the verdicts it must reach."""

    name: str
    params: dict
    sasaki: bool
    exact: bool
    leaf_curvature: bool = False       # closed-form leaf curvature supplied
    crossrep: bool = False
    constants: object = None           # structure constants, group models
    n: int = 0

    @property
    def points(self):
        return 1 if self.exact else POINTS


@dataclass
class Op:
    kind: str                          # verify | transform | cone
    argv: list
    json_path: Path
    models: list                       # ModelInfo, in report order
    transform: str | None = None       # homothetic | break | linear
    points_base: int = 0               # sample points the command visits


@dataclass
class Inputs:
    workload: str
    sample_seed: int
    ops: list
    models: list = field(default_factory=list)   # built accr CorpusModels
    infos: list = field(default_factory=list)    # ModelInfo for every model touched


def builtin_info(name, params, spec_name=None) -> ModelInfo:
    n = int(params.get("n", 2))
    exact = name not in CHARTS
    constants = ind.group_constants(name, params) if exact else None
    sasaki = name not in NOT_SASAKI
    return ModelInfo(
        name=spec_name or name, params=dict(params), sasaki=sasaki, exact=exact,
        leaf_curvature=sasaki and spec_name is None,
        crossrep=name in CROSSREP, constants=constants, n=n,
    )


def _fmt_params(params):
    return ",".join(f"{k}={v!r}" for k, v in params.items())


def _lie_spec(name, n, constants, sasaki):
    d = 2 * n + 1
    entries = [
        {"i": i, "j": j, "k": k, "value": float(constants[k, i, j])}
        for i in range(d) for j in range(i + 1, d) for k in range(d)
        if constants[k, i, j] != 0.0
    ]
    return {
        "schema_version": "1", "kind": "lie_group", "name": name, "n": n,
        "structure_constants": entries, "metric": "standard", "phi": "standard",
        "xi_index": 0, "sasaki_expected": sasaki,
    }


def _write_spec(path: Path, spec: dict) -> Path:
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return path


class _Builder:
    def __init__(self, workload, seed, out_dir: Path):
        self.out = out_dir
        (out_dir / "specs").mkdir(parents=True, exist_ok=True)
        (out_dir / "reports").mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(seed)
        self.inputs = Inputs(workload, self.rng.randrange(1, 100_000), ops=[])

    def op(self, kind, args, models, transform=None, points_base=0):
        path = self.out / "reports" / f"op{len(self.inputs.ops):03d}.json"
        argv = [kind, *args, "--seed", str(self.inputs.sample_seed), "--json", str(path)]
        self.inputs.ops.append(Op(kind, argv, path, models, transform, points_base))

    def model(self, info: ModelInfo, cm):
        self.inputs.infos.append(info)
        self.inputs.models.append(cm)

    def spec(self, stem, spec):
        return _write_spec(self.out / "specs" / f"{stem}.json", spec)


def _corpus_verify(b: _Builder):
    infos = []
    for name, params in DEFAULT_CORPUS:
        info = builtin_info(name, params)
        b.model(info, accr.builtin(name, **params))
        infos.append(info)
    base = sum(i.points * (1 if i.exact else 2) for i in infos)
    b.op("verify", [], infos, points_base=base)


def _group_sweep(b: _Builder):
    rng = b.rng
    lams = [round(rng.choice((-1, 1)) * rng.uniform(0.5, 3.0), 3) for _ in range(3)]
    mus = [round(rng.uniform(-2.0, 2.0), 3) for _ in range(3)]
    grid = [(lam, mu) for lam in lams for mu in mus]
    builtins = [("example1", {"n": n}) for n in (1, 2, 3, 4)]
    builtins += [("flat_parallel", {"n": n}) for n in (1, 2, 3, 4)]
    builtins += [("example2", {"lam": lam, "mu": mu}) for lam, mu in grid]
    for name, params in builtins:
        info = builtin_info(name, params)
        b.model(info, accr.builtin(name, **params))
        b.op("verify", ["-m", name, "--params", _fmt_params(params)], [info], points_base=1)

    specs = [("example1", {"n": n}) for n in (1, 2, 3, 4)]
    specs += [("flat_parallel", {"n": n}) for n in (1, 2, 3, 4)]
    specs += [("example2", {"lam": lam, "mu": mu}) for lam, mu in zip(lams, mus)]
    for k, (name, params) in enumerate(specs):
        stem = f"spec{k:02d}_{name}"
        info = builtin_info(name, params, spec_name=stem)
        path = b.spec(stem, _lie_spec(stem, info.n, info.constants, info.sasaki))
        b.model(info, load_model_spec(path))
        b.op("verify", ["-m", str(path)], [info], points_base=1)


def _transform_cone(b: _Builder):
    targets = []
    for name, params in DEFAULT_CORPUS:
        info = builtin_info(name, params)
        b.model(info, accr.builtin(name, **params))
        # `accr transform` takes no model parameters, so a builtin other than
        # the first of its name (the defaults) goes in through a builtin spec
        if all(t.name != name for t, _ in targets):
            ref = name
        else:
            ref = str(b.spec(f"{name}_{len(targets)}",
                             {"kind": "builtin", "builtin": name, "params": params}))
        targets.append((info, ref))

    for info, ref in targets:
        if not info.sasaki:
            continue          # preservation needs a Sasaki-like base: exit 1 by design
        kinds = [("homothetic", HOMOTHETIC), ("break", BREAK)]
        if not info.exact:
            kinds.append(("linear", LINEAR))   # refused on groups: NonConstantParams
        for label, params in kinds:
            b.op("transform", ["-m", ref, "--params", params], [info], transform=label,
                 points_base=info.points)
    for info, _ in targets:
        b.op("cone", ["-m", info.name, "--params", _fmt_params(info.params)], [info],
             points_base=CONE_POINTS)


_BUILDERS = {
    "corpus_verify": _corpus_verify,
    "group_sweep": _group_sweep,
    "transform_cone": _transform_cone,
}


def build(workload, seed, out_dir: Path) -> Inputs:
    b = _Builder(workload, seed, out_dir)
    _BUILDERS[workload](b)
    return b.inputs
