"""nilmoduli benchmark: three closed-loop workloads, one caller, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory (the run fails with exit code 2 when that is missing).

Workloads (see README.md in this directory): ``canonicalize-orbits``,
``hermitian-search`` and ``cli-reports``.  Inputs are drawn from ``--seed``
before anything is timed.  A run executes whole rounds of the workload's
input list until ``--seconds`` have passed, checking every op's output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the full report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "nilmoduli"

WORKLOADS = ("canonicalize-orbits", "hermitian-search", "cli-reports")
COLD_STARTS = {"full": 5, "tiny": 1}
# p99.9 is left out: at the ten thousand or so ops a run makes, its ten
# samples beyond are two or three inputs or scheduling spikes
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import nilmoduli from this checkout's src, or exit 2."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        fail(f"no package source at {PACKAGE_DIR.relative_to(ROOT)}; "
             "run from the root of a nilmoduli checkout")
    sys.path.insert(0, str(SRC))
    import nilmoduli

    if Path(nilmoduli.__file__).resolve().parent != PACKAGE_DIR.resolve():
        fail(f"imported nilmoduli from {nilmoduli.__file__}, not this checkout")
    import workloads

    workloads.bind_package()
    return workloads


# ---------------------------------------------------------------------------
# statistics


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND samples above it."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct
    return 50.0


# ---------------------------------------------------------------------------
# timed loop


class Outcomes:
    """Per-op latencies and verdicts of one timed phase."""

    def __init__(self):
        self.latency = []  # seconds, every attempted op in run order
        self.failures = defaultdict(Counter)  # group -> reason -> count
        self.crashes = Counter()  # exceptions outside the package's error types
        self.ok = 0

    @property
    def attempted(self):
        return len(self.latency)

    @property
    def failed(self):
        return self.attempted - self.ok


def run_op(op, outcomes, error_base, tracer=None):
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failed op is counted, and the run goes on
        result, error = None, exc
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op(wall)
    if error is not None:
        reason = f"raised_{type(error).__name__}"
        if not isinstance(error, error_base):
            outcomes.crashes[f"{type(error).__name__}: {error}"[:200]] += 1
    else:
        reason = op.check(result)
    outcomes.latency.append(wall)
    if reason is None:
        outcomes.ok += 1
    else:
        outcomes.failures[op.group][reason] += 1
    return wall, reason is None


def run_rounds(workload, seconds, error_base, tracer=None):
    """Whole rounds of the workload's ops until ``seconds`` have passed.

    With a tracer, every second round runs traced, so that traced and
    untraced rounds see the same inputs over the same stretch of time; such
    a run lasts at least two rounds.
    """
    out = Outcomes()
    start = time.perf_counter()
    rounds = 0
    while True:
        active = tracer if rounds % 2 == 1 else None
        for op in workload.ops:
            run_op(op, out, error_base, active)
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            return out


def input_latencies(out, round_len, rounds):
    """Median latency of each input over the given rounds.

    A run repeats the same inputs every round, so the median of an input's
    repeats drops a scheduling spike on one execution and keeps a slow input.
    """
    lat = out.latency
    return [statistics.median([lat[r * round_len + i] for r in rounds])
            for i in range(round_len)]


def throughput(out, per_input):
    """Checked ops per second: a round's checked ops over its inputs' latencies."""
    rounds = len(out.latency) // len(per_input)
    return out.ok / rounds / sum(per_input)


def end_to_end(out, round_len):
    """End-to-end metrics of a run of whole rounds of ``round_len`` ops.

    Percentiles are taken over all executions, each carrying its input's
    median latency; the per-execution percentiles are kept in the report.
    """
    rounds = len(out.latency) // round_len
    per_input = input_latencies(out, round_len, range(rounds))
    lat = sorted(per_input * rounds)
    raw = sorted(out.latency)
    n = len(lat)
    tail = tail_percentile(n)
    return {
        "throughput_ops_s": throughput(out, per_input),
        "latency_p50_ms": 1e3 * nearest_rank(lat, 50.0),
        "latency_tail_ms": 1e3 * nearest_rank(lat, tail),
        "error_rate": out.failed / n,
    }, {
        "tail_percentile": tail,
        "samples": n,
        "rounds": rounds,
        "per_execution_p50_ms": 1e3 * nearest_rank(raw, 50.0),
        "per_execution_tail_ms": 1e3 * nearest_rank(raw, tail),
    }


# ---------------------------------------------------------------------------
# set-up time and environment


def cold_starts(workloads, name, count):
    """Median seconds of fresh-interpreter import plus first calls, the
    samples, and whether every first call succeeded."""
    payload = json.dumps(workloads.cold_start_payload(name))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times, ok = [], True
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(HERE / "coldstart.py")], input=payload,
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr[-500:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        if Path(report["module"]).resolve().parent != PACKAGE_DIR.resolve():
            raise RuntimeError(f"cold start imported {report['module']}")
        times.append(report["setup_s"])
        ok = ok and report["ok"]
    return statistics.median(times), times, ok


def environment(seed, digest):
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy: record why it is missing
        blas = {"error": repr(exc)}
    threads = {k: v for k, v in os.environ.items()
               if any(t in k for t in ("THREAD", "OMP_", "BLAS", "MKL_"))}
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine: the source digest still identifies the code
            pass
    code = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        code.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": commit,
        "source_sha256": code.hexdigest(),
        "input_sha256": digest,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


def failure_report(out):
    return {
        "base": out.attempted,
        "failed": out.failed,
        "by_group": {g: dict(sorted(r.items())) for g, r in sorted(out.failures.items())},
        "crashes": dict(out.crashes),
    }


def scale_sweep(workload, error_base):
    """The workload's sweep ops, once each, untimed, after the timed rounds."""
    out = Outcomes()
    for op in workload.sweep:
        run_op(op, out, error_base)
    report = failure_report(out)
    report["error_rate"] = out.failed / out.attempted if out.attempted else 0.0
    return out, report


def warm_up(workload):
    """One untimed call per op group, so lazy set-up is not timed."""
    for op in workload.warmup:
        try:
            op.call()
        except Exception:  # the timed rounds count and report failures
            pass


def run_untraced(wl, workload, args, error_base):
    setup, setup_samples, setup_ok = cold_starts(wl, args.workload, COLD_STARTS[args.size])
    warm_up(workload)
    out = run_rounds(workload, args.seconds, error_base)
    e2e, detail = end_to_end(out, len(workload.ops))
    e2e["setup_s"] = setup
    e2e["peak_rss_mb"] = peak_rss_mb()
    units = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "error_rate": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
    report = {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "latency": detail,
        "setup_samples_s": setup_samples,
        "setup_calls_ok": setup_ok,
        "errors": failure_report(out),
    }
    gated = {k: report["metrics"][k] for k in
             ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mb")}
    return out, report, gated, setup_ok


def run_traced(workload, args, error_base):
    import tracer as tr

    warm_up(workload)
    tracer = tr.Tracer()
    tracer.install()
    try:
        out = run_rounds(workload, args.seconds, error_base, tracer)
    finally:
        tracer.uninstall()
    per_layer = {k: {"value": v, "unit": u}
                 for k, (v, u) in tr.aggregate(tracer, len(tracer.ops)).items()}
    round_len = len(workload.ops)
    rounds = len(out.latency) // round_len
    untraced_rate = throughput(out, input_latencies(out, round_len, range(0, rounds, 2)))
    traced_rate = throughput(out, input_latencies(out, round_len, range(1, rounds, 2)))
    per_layer["trace.untraced_throughput_ops_s"] = {"value": untraced_rate, "unit": "1/s"}
    per_layer["trace.traced_throughput_ops_s"] = {"value": traced_rate, "unit": "1/s"}
    per_layer["trace.overhead_ops_s"] = {"value": traced_rate - untraced_rate, "unit": "1/s"}
    worst = 0.0
    for spans, wall in zip(tracer.ops, tracer.walls):
        total_self, gap = tr.op_accounting(spans, wall)
        worst = max(worst, abs(total_self + gap - wall))
    report = {
        "per_layer": per_layer,
        "traced_ops": len(tracer.ops),
        "patched_sites": tracer.bound_sites(),
        "accounting_max_error_s": worst,
        "errors": failure_report(out),
    }
    return out, report, per_layer, worst <= 1e-9


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few ops per round, for the smoke check")
    args = parser.parse_args(argv)

    wl = import_package()
    from nilmoduli.errors import NilmoduliError

    t0 = time.perf_counter()
    workload = wl.BUILDERS[args.workload](args.seed, args.size)
    build_s = time.perf_counter() - t0

    if args.trace:
        out, report, metrics, books_ok = run_traced(workload, args, NilmoduliError)
    else:
        out, report, metrics, books_ok = run_untraced(wl, workload, args, NilmoduliError)
    sweep, sweep_report = scale_sweep(workload, NilmoduliError)
    # correct: every timed op passed its check, no op (timed or sweep)
    # crashed outside the package's documented error types, and the
    # cold-start calls (untraced) or the tracer's accounting (traced) held;
    # failures of the canonicalize scale sweep are the known open scale
    # defect, reported with their breakdown in every run, not hidden
    correct = books_ok and out.failed == 0 and not out.crashes and not sweep.crashes
    report = {
        "workload": args.workload,
        "round_ops": len(workload.ops),
        "input_build_s": build_s,
        "environment": environment(args.seed, workload.digest),
        **report,
    }
    if workload.sweep:
        report["scale_sweep"] = sweep_report
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
