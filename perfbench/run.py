"""Benchmark of the accr verification toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_verify --seed 1 --seconds 20 --trace 0

Workloads: corpus_verify, group_sweep, transform_cone (see README.md).
Every process this starts is a fresh interpreter with ``PYTHONPATH=src``
and one BLAS thread.  With ``--trace 0`` it first starts SETUP_RUNS
processes that only import ``accr`` and build the workload's inputs, then
the workload process (``worker.py``); ``setup_s`` is the median set-up
time of all of them.  With ``--trace 1`` only the workload process runs,
under the per-layer tracer.  The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2, without a
result, when the checkout holds no ``src/accr``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus_verify", "group_sweep", "transform_cone")
DEFAULT_SEED = 1
SETUP_RUNS = 4
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "accr" / "__init__.py").is_file():
        print(f"error: no src/accr under {root}; run from the root of an accr checkout",
              file=sys.stderr)
        return 2
    (root / ".perfbench_out").mkdir(exist_ok=True)
    env = child_env(root)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            setup = subprocess.run(worker + ["--setup-only"], env=env, cwd=root,
                                   capture_output=True, text=True, timeout=TIMEOUT_S)
            if setup.returncode != 0:
                sys.stderr.write(setup.stderr)
                return setup.returncode
            setups.append(last_json_line(setup.stdout)["setup_s"])

    proc = subprocess.run(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                          env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return proc.returncode
    result = last_json_line(proc.stdout)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    text = json.dumps(result)
    out = root / ".perfbench_out" / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
