"""One workload in one fresh, single-threaded interpreter.

Started by ``run.py`` from the root of a checkout, with ``PYTHONPATH=src``
and the BLAS thread counts pinned to 1:

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

The set-up (importing ``accr`` and building the workload's inputs) is timed
from the first statement.  Then one warm-up pass runs every operation and
its outputs are checked; the timed passes follow until ``--seconds`` have
gone by, each a whole round of the same operations.  With ``--trace 0`` the
set-up and pass times are rescaled to nominal machine speed by
``speed.SpeedProbe``.  With ``--trace 1`` the probe is off and untraced
passes alternate with passes under ``tracing.Tracer``.  The last line of
standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

MIN_PASSES = 3
OUT = Path(".perfbench_out")


def run_pass(cli, ops, probe):
    """Run every operation once; return (seconds inside cli.main less the
    speed probes that fell inside it, outcomes)."""
    busy = 0.0
    outcomes = []
    for op in ops:
        buf = io.StringIO()
        probed = probe.busy if probe else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(op.argv))
        except Exception as exc:  # an operation that raises is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        busy += time.perf_counter() - start - ((probe.busy if probe else 0.0) - probed)
        outcomes.append((code, buf.getvalue()))
    return busy, outcomes


class Run:
    """Counts operations, checks outputs and keeps each operation's digest.

    A pass's time is its busy time rescaled by ``probe`` to nominal machine
    speed, or the plain busy time when ``probe`` is None."""

    def __init__(self, cli, inputs, check_op, probe=None):
        self.cli = cli
        self.probe = probe
        self.inputs = inputs
        self.check_op = check_op
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests = None
        self.plain: list = []        # busy time of every pass, not rescaled

    def one_pass(self, check):
        first = len(self.probe.samples) if self.probe else 0
        busy, outcomes = run_pass(self.cli, self.inputs.ops, self.probe)
        self.plain.append(busy)
        digests = []
        for op, (code, stdout) in zip(self.inputs.ops, outcomes):
            self.attempted += 1
            if code != 0:
                self.failed += 1
                digests.append(None)
                print(f"operation failed ({code}): {' '.join(op.argv)}", file=sys.stderr)
                continue
            text = op.json_path.read_bytes()
            digests.append(hashlib.sha256(stdout.encode() + text).hexdigest())
            if check:
                self.problems += self.check_op(op, json.loads(text))
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.problems.append("two passes in one process gave different JSON")
        return self.probe.scale(busy, first) if self.probe else busy

    def passes(self, seconds):
        """Timed passes until ``seconds`` have gone by, at least MIN_PASSES."""
        times = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            times.append(self.one_pass(check=False))
        return times


def thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading
        return threading.active_count()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    probe = SpeedProbe()
    probe.start()
    try:
        return workload(args, probe)
    finally:
        probe.stop()


def workload(args, probe) -> int:
    """Set up, run and check one workload; print its result line."""
    import accr.cli as cli
    import_s = time.perf_counter() - T0
    source = (Path.cwd() / "src" / "accr").resolve()
    if Path(cli.__file__).resolve().parent != source:
        print(f"accr imported from {cli.__file__}, not from {source}", file=sys.stderr)
        return 2
    import workloads
    out_dir = OUT / args.workload / ("setup" if args.setup_only else "run")
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs = workloads.build(args.workload, args.seed, out_dir)
    setup_s = probe.scale(time.perf_counter() - T0 - probe.busy, 0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    if args.trace:
        probe.stop()      # traced times are plain wall times
    run = Run(cli, inputs, checks.check_op, None if args.trace else probe)
    run.one_pass(check=True)
    run.problems += checks.independent_checks(inputs, random.Random(args.seed))

    if args.trace:
        metrics = traced_metrics(run, inputs, args.seconds)
        metrics["setup.import_s"] = (import_s, "s")
    else:
        times = run.passes(args.seconds)
        plain = run.plain
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        print(f"{args.workload}: {len(times)} timed passes, rescaled median "
              f"{statistics.median(times):.4f} s, plain median {statistics.median(plain):.4f} s; "
              f"{len(probe.samples)} speed probes, median "
              f"{statistics.median(probe.samples) * 1e3:.3f} ms", file=sys.stderr)
    threads = thread_count()
    if threads > (os.cpu_count() or 1):
        run.problems.append(f"{threads} threads on {os.cpu_count()} CPUs")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced_metrics(run, inputs, seconds):
    """Per-layer metrics: counts from traced passes (identical in every
    pass), times as medians over them, and the tracing overhead as the
    median ratio of each traced pass to the untraced pass just before it."""
    import tracing

    tracer = tracing.Tracer()
    base = sum(op.points_base for op in inputs.ops)
    passes, ratios = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        untraced = run.one_pass(check=False)
        tracer.install()
        try:
            traced = run.one_pass(check=False)
        finally:
            tracer.uninstall()
        spans, counts = tracer.take()
        if not passes:
            first = spans
        passes.append(tracing.summarise(tracer.names, spans, counts, base))
        ratios.append(traced / untraced)
    write_trace(inputs.workload, tracer.names, first)

    metrics = {}
    for key, (value, unit) in passes[0].items():
        if unit == "s":
            value = statistics.median(p[key][0] for p in passes)
        elif any(p[key][0] != value for p in passes):
            run.problems.append(f"count {key} differs between traced passes")
        metrics[key] = (value, unit)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics


def write_trace(workload, names, spans):
    """The spans of the first traced pass, four numbers each: name id,
    index of the parent span (-1 at the top), start and end in ns."""
    path = OUT / f"trace-{workload}.json"
    with path.open("w") as fh:
        json.dump({"names": names, "columns": ["name", "parent", "start_ns", "end_ns"],
                   "spans": spans.tolist()}, fh)


if __name__ == "__main__":
    sys.exit(main())
