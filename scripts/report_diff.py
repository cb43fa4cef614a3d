"""Compare the reports of a parent commit and a change, command by command.

Run from the root of a checkout:

    python3 scripts/report_diff.py --parent <sha> [--change <sha>]

Both trees are unpacked with ``git archive`` (the change defaults to the
checkout's working tree, used in place).  Each side runs the same fixed
list of ``accr`` command lines with its own ``src`` on the path and its own
tree as working directory: ``verify`` over the default corpus; for every
builtin ``verify --points 6``, ``cone`` and ``transform`` with the
benchmark's three parameter sets, all at ``--seed 7``; ``verify --points 6``
of the chart examples and the h-sphere extension at parameters other than
their defaults (``PARAMS``), which rebuild their bases from other complex
data, and ``cone`` of that extension; ``verify --points 6`` of two
Sasaki-like builtins at parameters where the ``derivatives.*`` rows exceed
their tolerance through the truncation of the finite-difference stencil,
not through a wrong jet (``STIFF``: they exit 1), so that a change to that
comparison shows its drift; ``cone`` and ``verify --only cone`` of
two group models at n = 4 (``WIDE``), cone dimension 10, the widest the
benchmark's group sweep runs; ``verify --points 6 --only`` of a per-model
family on three models (``ONLY``), where no per-point family runs;
``verify --points 2 --only derivatives`` of two charts (``SHORT``), samples
shorter than the prefix on which the jets are checked; ``verify --points 6``
and the ``linear_t`` transform of a coframe chart and of the extension at
``--fd-step 2e-3`` (``STEPPED``), whose verify moves only its
``derivatives.*`` rows with the step and whose transform does not move at
all, so that a change to where the step lives shows; ``transform --params
w=linear_t:0.1`` of the same two (``MOVING``), the only commands whose
xi_bar and eta_bar move with the point, so that the dw terms of their jets
show; ``verify``, ``cone`` and the
``linear_t`` transform of the extension at ``--points 30`` (``UNEVEN``),
whose sample splits into blocks of 13, 13 and 4 points (the transform's
into 1, 13, 13 and 3), and ``verify`` of
``example1_chart`` at n = 8 (``WIDE_CHART``), dimension 17, whose blocks
are single points, so that the block boundaries show; the two commands of
``OVERFLOW``, a transform and a verify whose residuals overflow (exit 1),
so that their error entry and error rows show, and any numpy warning
printed beside them on stderr; for each model spec in
``docs/examples``, at its own sample, ``verify``, ``cone`` and ``transform``
with the three parameter sets; and ``verify`` of the seven model specs in
``SPECS``, which the script writes to its temporary directory so that both
sides read them at the same absolute path: one the schema rejects at a
nested property (exit 2), a Lie group whose non-ASCII name
the report and stdout must escape or print alike, that group with n
written ``1.0`` (valid under draft 7, so it must run as n = 1), with n
written ``true`` (not an integer, exit 2), with a NaN entry in phi
(exit 2), and with its standard metric written in strings and its
standard phi with booleans for 0 and 1 (no numbers, exit 2); ``verify --only crossrep`` of ``example1_chart`` at
n = 6 (``CROSSREP_WIDE``), dimension 13, whose 8 sample points are eight
one-point blocks, so that crossrep reads past the fifth sample point and
across block boundaries; and ``verify`` of ``docs/examples/builtin_ref.json``
with a ``--params`` that no builtin named with ``-m`` takes
(``UNREACHED``, exit 2).  A command differs when
its JSON report, its stdout, its stderr or its exit code differs.  Every
differing command is printed, and for a pair of verify reports also the
sorted check ids whose rows differ, each differing row's max_residual,
tolerance and verdict on both sides, and both summaries; for a pair of
transform or cone reports, each differing JSON leaf, its path and then
its parent and change values; the exit code is 1 if any differs, else 0.
The output ends with both sides' ``wc -l src/accr/*.py`` totals, e.g.
``src/accr: 3485 -> 3460 lines``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import ROOT, unpack

BUILTINS = ("example1", "example1_chart", "example2", "example2_chart",
            "example3_hsphere_ext", "flat_parallel")
TRANSFORMS = ("u=0.3,v=0.2,w=0", "u=0,v=0,w=0.6931471805599453", "v=linear_t:0.1,w=0")
PARAMS = (("example1_chart", "n=2"), ("example2_chart", "lam=3"),
          ("example3_hsphere_ext", "n=2,a=3,b=4"))
STIFF = (("example2_chart", "lam=20"), ("example3_hsphere_ext", "n=2,a=0.1,b=0"))
ONLY = (("example2_chart", "cone"), ("example1_chart", "crossrep"),
        ("example3_hsphere_ext", "conformal.eta_fit"))
SHORT = ("example1_chart", "example3_hsphere_ext")
STEPPED = ("example1_chart", "example3_hsphere_ext")
MOVING = ("example1_chart", "example3_hsphere_ext")
WIDE = (("example1", "n=4"), ("flat_parallel", "n=4"))
UNEVEN = ("example3_hsphere_ext", "30")
WIDE_CHART = ("example1_chart", "3", "n=8")
CROSSREP_WIDE = ("example1_chart", "8", "n=6")
UNREACHED = ("docs/examples/builtin_ref.json", "lam=7")
OVERFLOW = (("transform", "-m", "example1_chart", "--points", "2",
             "--params", "v=linear_t:1e308"),
            ("verify", "-m", "example2", "--params", "lam=1e200"))
SOLVABLE = [{"i": 0, "j": 1, "k": 2, "value": 1.0}, {"i": 0, "j": 2, "k": 1, "value": -1.0}]
SPECS = {
    "invalid.json": {"kind": "lie_group", "n": 1, "structure_constants": [
        {"i": 0, "j": 1, "k": 2, "value": "one"}]},
    "non_ascii.json": {"kind": "lie_group", "name": "λ-group", "n": 1,
                       "structure_constants": SOLVABLE, "sample_points": {"count": 3, "seed": 5}},
    "n_float.json": {"kind": "lie_group", "n": 1.0, "structure_constants": SOLVABLE,
                     "sample_points": {"count": 3, "seed": 5}},
    "n_bool.json": {"kind": "lie_group", "n": True, "structure_constants": SOLVABLE},
    "nan_phi.json": {"kind": "lie_group", "n": 1, "structure_constants": SOLVABLE,
                     "phi": [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, float("nan"), 0.0]]},
    "str_metric.json": {"kind": "lie_group", "n": 1, "structure_constants": SOLVABLE,
                        "metric": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]},
    "bool_phi.json": {"kind": "lie_group", "n": 1, "structure_constants": SOLVABLE,
                      "phi": [[False, False, False], [False, False, -1], [False, True, False]]},
}


def commands(spec_dir: Path) -> list:
    """The accr argument lists run on both sides; the SPECS are written to
    spec_dir."""
    out = [["verify"]]
    for name in BUILTINS:
        seeded = ["-m", name, "--seed", "7"]
        out.append(["verify", *seeded, "--points", "6"])
        out.append(["cone", *seeded])
        out.extend(["transform", *seeded, "--params", t] for t in TRANSFORMS)
    out.extend(["verify", "-m", name, "--seed", "7", "--points", "6", "--params", params]
               for name, params in PARAMS)
    out.append(["cone", "-m", PARAMS[2][0], "--seed", "7", "--params", PARAMS[2][1]])
    out.extend(["verify", "-m", name, "--seed", "7", "--points", "6", "--params", params]
               for name, params in STIFF)
    for name, params in WIDE:
        wide = ["-m", name, "--seed", "7", "--params", params]
        out.extend([["cone", *wide], ["verify", *wide, "--only", "cone"]])
    out.extend(["verify", "-m", name, "--seed", "7", "--points", "6", "--only", only]
               for name, only in ONLY)
    out.extend(["verify", "-m", name, "--seed", "7", "--points", "2", "--only", "derivatives"]
               for name in SHORT)
    for name in STEPPED:
        stepped = ["-m", name, "--seed", "7", "--fd-step", "2e-3"]
        out.extend([["verify", *stepped, "--points", "6"],
                    ["transform", *stepped, "--params", TRANSFORMS[2]]])
    out.extend(["transform", "-m", name, "--seed", "7", "--params", "w=linear_t:0.1"]
               for name in MOVING)
    uneven = ["-m", UNEVEN[0], "--seed", "7", "--points", UNEVEN[1]]
    out.extend([["verify", *uneven], ["cone", *uneven],
                ["transform", *uneven, "--params", TRANSFORMS[2]]])
    out.append(["verify", "-m", WIDE_CHART[0], "--seed", "7", "--points", WIDE_CHART[1],
                "--params", WIDE_CHART[2]])
    out.extend(list(cmd) for cmd in OVERFLOW)
    for spec in sorted((ROOT / "docs" / "examples").glob("*.json")):
        ref = ["-m", f"docs/examples/{spec.name}"]
        out.extend([["verify", *ref], ["cone", *ref]])
        out.extend(["transform", *ref, "--params", t] for t in TRANSFORMS)
    for name, spec in SPECS.items():
        (spec_dir / name).write_text(json.dumps(spec))
        out.append(["verify", "-m", str(spec_dir / name)])
    out.append(["verify", "-m", CROSSREP_WIDE[0], "--seed", "7", "--points", CROSSREP_WIDE[1],
                "--params", CROSSREP_WIDE[2], "--only", "crossrep"])
    out.append(["verify", "-m", UNREACHED[0], "--params", UNREACHED[1]])
    return out


def run(tree: Path, argv, report: Path) -> tuple:
    """(JSON report, stdout, stderr, exit code) of one accr command in tree."""
    env = {k: v for k, v in os.environ.items() if k != "ACCR_SEED"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "accr.cli", *argv, "--json", str(report)],
                          cwd=tree, env=env, capture_output=True)
    text = report.read_bytes() if report.exists() else None
    return text, proc.stdout, proc.stderr, proc.returncode


def row_moves(parent: bytes, change: bytes) -> list:
    """Lines naming what moved between two verify reports: the sorted check
    ids whose rows differ or exist on one side only, then one line per such
    row with its model and, on each side, its max_residual, tolerance and
    verdict, then both summaries."""
    reports = [json.loads(text) for text in (parent, change)]
    rows = [{(k, m["name"], r["check_id"]): r for k, m in enumerate(rep["models"])
             for r in m["checks"]} for rep in reports]
    keys = sorted(key for key in rows[0].keys() | rows[1].keys()
                  if rows[0].get(key) != rows[1].get(key))

    def cells(row):
        if row is None:
            return "absent"
        return f"{row['max_residual']!r} tol {row['tolerance']!r} {row['verdict']}"

    moved = sorted({key[2] for key in keys})
    return [f"    rows: {', '.join(moved) or '(none)'}",
            *(f"    {k} {name} {check_id}: {cells(rows[0].get((k, name, check_id)))}"
              f" -> {cells(rows[1].get((k, name, check_id)))}" for k, name, check_id in keys),
            *(f"    {side} summary: {json.dumps(rep['summary'], sort_keys=True)}"
              for side, rep in zip(("parent", "change"), reports))]


def leaf_moves(parent: bytes, change: bytes) -> list:
    """One line per JSON leaf that differs between two reports, or exists on
    one side only: its path, then its parent -> change value."""
    absent = object()

    def leaves(node, path):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return {path: node}
        return {key: val for k, v in items for key, val in leaves(v, f"{path}/{k}").items()}

    sides = [leaves(json.loads(text), "") for text in (parent, change)]
    show = lambda x: "absent" if x is absent else repr(x)
    return [f"    {path}: {show(sides[0].get(path, absent))} -> {show(sides[1].get(path, absent))}"
            for path in sorted(sides[0].keys() | sides[1].keys())
            if sides[0].get(path, absent) != sides[1].get(path, absent)]


def source_lines(tree: Path) -> int:
    """The total of ``wc -l src/accr/*.py`` in tree: the newlines of those files."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "accr").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", help="commit compared (default: working tree)")
    args = parser.parse_args(argv)

    differ = 0
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        tmp = Path(tmp)
        trees = {"parent": unpack(args.parent, tmp / "parent"),
                 "change": unpack(args.change, tmp / "change") if args.change else ROOT}
        cmds = commands(tmp)
        for k, cmd in enumerate(cmds):
            parent, change = (run(trees[side], cmd, tmp / f"{side}-{k}.json")
                              for side in ("parent", "change"))
            parts = [what for what, a, b in zip(("report", "stdout", "stderr", "exit code"),
                                                 parent, change) if a != b]
            if parts:
                differ += 1
                print(f"differs ({', '.join(parts)}): accr {' '.join(cmd)}", flush=True)
                if parent[0] and change[0]:
                    moves = row_moves if cmd[0] == "verify" else leaf_moves
                    print("\n".join(moves(parent[0], change[0])), flush=True)
        print(f"{differ} of {len(cmds)} commands differ")
        print(f"src/accr: {source_lines(trees['parent'])} -> {source_lines(trees['change'])} lines")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
