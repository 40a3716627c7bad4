"""Alternating parent/change pairs of one perfbench workload.

Runs ``perfbench/run.py`` for one workload in PAIRS pairs of fresh
processes, one in the parent checkout (``--parent PATH``) and one in this
checkout, both at the same seed (``--seed`` for the first pair, one more for
each next pair) and for BENCHMARK.json's ``run_seconds``.  The side that
runs first alternates from pair to pair.  E.g.

    python3 tools/bench_pairs.py --parent /path/to/parent \\
        --workload canonicalize-orbits --pairs 10 --seed 111

For each end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the pairs the change won (ties count for neither side) and
whether the gain rule holds: the change wins at least nine pairs in ten,
and its median is better than the parent's by more than the distance
between the parent's quartiles.  It also names every pair whose timed
``failed`` count or failure breakdown, or whose scale-sweep breakdown,
differs between the sides.  ``--json FILE`` writes every run's metrics.

Stdlib only, and nothing is imported from the package: each run is a
``python3 perfbench/run.py`` process in its own checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # share of all pairs the change must win to claim a gain


def run_once(checkout, workload, seed, seconds):
    """(summary, report) of one perfbench run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))


def quartiles(values):
    """(q1, median, q3) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(metric, parent, change):
    """Text row of one metric over the pairs, with the gain rule's verdict."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    holds = wins >= WIN_SHARE * len(parent) and gain > p3 - p1
    row = (f"{metric['name']:<18} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]  "
           f"change {cm:10.4g} [{c1:.4g}, {c3:.4g}]  "
           f"won {wins}/{len(parent)}  gain rule {'holds' if holds else 'fails'}")
    return row


def failure_keys(summary, report):
    """What a run's failures are: the timed count and breakdown, and the sweep's."""
    return (summary["failed"], report.get("errors", {}).get("by_group"),
            report.get("scale_sweep", {}).get("by_group"))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the parent checkout")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--json", help="write every run's metrics to this file")
    args = parser.parse_args(argv)

    sides = {"parent": Path(args.parent).resolve(), "change": ROOT}
    runs = {"parent": [], "change": []}
    failures_differ = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(sides[side], args.workload, seed, bench["run_seconds"])
                for side in order}
        for side, (summary, _report) in pair.items():
            runs[side].append({"seed": seed, "failed": summary["failed"],
                               **{k: v["value"] for k, v in summary["metrics"].items()}})
        keys = {side: failure_keys(*pair[side]) for side in pair}
        if keys["parent"] != keys["change"]:
            failures_differ.append((seed, keys["parent"], keys["change"]))
        p50 = ", ".join(f"{side} p50 {runs[side][-1]['latency_p50_ms']:.4f} ms"
                        for side in ("parent", "change"))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first): {p50}",
              file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"{bench['run_seconds']} s per run")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        print(compare(metric, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]]))
    if failures_differ:
        for seed, p, c in failures_differ:
            print(f"failures differ at seed {seed}: parent {p}, change {c}")
    else:
        print("failures: the same on both sides in every pair "
              f"(timed failed {sorted({r['failed'] for r in runs['parent']})})")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
