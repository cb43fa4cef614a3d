"""Record a benchmark comparison of a parent commit and a change in BENCH_<pr>.json.

Run from the root of a checkout:

    python3 scripts/bench_record.py --pr <n> --parent <sha>

The parent is unpacked with ``git archive <sha>`` into a temporary
directory.  The change is the checkout's working tree, or another commit
unpacked the same way with ``--change <sha>``.  For every seed (default 1
to 10, the ten pairs a claimed gain is judged on) and workload
``perfbench/run.py --trace 0`` runs once on each side for the
``run_seconds`` of BENCHMARK.json, the side that runs first alternating
from seed to seed; then one ``--trace 1`` run per workload and side gives
the per-layer counts at the first seed.  Each side runs its own
``perfbench/run.py`` with its own tree as working directory.

The file holds the environment, both SHAs, the git tree ids of the
directories a run executes (``src`` and ``perfbench``; for an uncommitted
working tree these are what ``git rev-parse <commit>:src`` gives once the
same files are committed), every result line, and for each
workload and end-to-end metric of BENCHMARK.json: both sides' medians and
quartile distances, the relative change of the median against the metric's
bound, and in how many pairs the change was better or worse (ties count
for neither).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[1]
MEASURED = ("src", "perfbench")


def git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def tree_ids(rev=None) -> dict:
    """Git tree ids of the MEASURED directories at rev, or in the working
    tree (staged through a scratch index, so the checkout's index is untouched)."""
    if rev is None:
        with tempfile.TemporaryDirectory(prefix="bench_index_") as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            git("read-tree", "HEAD", env=env)
            git("add", "-A", "--", *MEASURED, env=env)
            rev = git("write-tree", env=env)
    return {d: git("rev-parse", f"{rev}:{d}") for d in MEASURED}


def unpack(sha, dest: Path) -> Path:
    """The files of commit sha, extracted under dest."""
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def run_bench(tree: Path, workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values * 2 if len(values) == 1 else values, n=4,
                                     method="inclusive")
    return {"median": statistics.median(values), "quartile_distance": q3 - q1}


def summarise(results, metrics) -> dict:
    """Per workload and end-to-end metric: both sides' spreads, the change of
    the median relative to the parent's, and the pair win counts."""
    out = {}
    for workload in sorted({r["workload"] for r in results}):
        rows = [r for r in results if r["workload"] == workload and r["trace"] == 0]
        pairs = {}
        for r in rows:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
        out[workload] = {"pairs": len(pairs),
                         "failed": {side: sum(r["failed"] for r in rows if r["side"] == side)
                                    for side in ("parent", "change")}}
        for m in metrics:
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            value = lambda r: r["metrics"][name]["value"]
            sides = {side: spread([value(r) for r in rows if r["side"] == side])
                     for side in ("parent", "change")}
            diffs = [sign * (value(p["parent"]) - value(p["change"])) for p in pairs.values()]
            rel = sides["change"]["median"] / sides["parent"]["median"] - 1.0
            out[workload][name] = {
                **sides,
                "relative_change": rel,
                "bound": m["bound"],
                "within_bound": sign * rel <= m["bound"],
                "change_better": sum(d > 0 for d in diffs),
                "change_worse": sum(d < 0 for d in diffs),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="suffix of the BENCH_<pr>.json written")
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", help="commit measured as the change (default: working tree)")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    change_trees = tree_ids(args.change)
    results = []
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        trees = {"parent": unpack(args.parent, Path(tmp) / "parent"),
                 "change": unpack(args.change, Path(tmp) / "change") if args.change else ROOT}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for position, side in enumerate(order):
                    res = run_bench(trees[side], workload, seed, seconds, trace=0)
                    results.append({"side": side, "workload": workload, "seed": seed,
                                    "trace": 0, "position": position, **res})
                    print(json.dumps(results[-1]), flush=True)
        for workload in workloads:
            for side in ("parent", "change"):
                res = run_bench(trees[side], workload, args.seeds[0], seconds, trace=1)
                results.append({"side": side, "workload": workload, "seed": args.seeds[0],
                                "trace": 1, "position": 0, **res})
                print(json.dumps(results[-1]), flush=True)

    record = {
        "pr": args.pr,
        "parent_sha": git("rev-parse", args.parent),
        "parent_trees": tree_ids(args.parent),
        "change_sha": git("rev-parse", args.change) if args.change else None,
        "change_source": ("commit" if args.change
                          else f"working tree over {git('rev-parse', 'HEAD')}"),
        "change_trees": change_trees,
        "environment": {
            "date_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "command": f"perfbench/run.py --seconds {seconds} --trace 0|1",
        "workloads": workloads,
        "seeds": args.seeds,
        "summary": summarise(results, bench["end_to_end"]),
        "results": results,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
