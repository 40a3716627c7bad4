"""The benchmark's own checks.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Checks, in order:

1. the independent references agree with the package on the built-in
   algebras (bracket tensors) and on ``realize`` for sampled forms;
2. the tracer's bookkeeping: on synthetic nested spans, self times plus
   the untraced gap add up to the op's wall time, and install/uninstall
   patch every binding and restore the originals;
3. input digests: the same seed gives the same digest, another seed a
   different one, for every workload;
4. a tiny-size smoke run of each workload, untraced and traced, through
   ``run.py`` in a subprocess, whose last line must be a passing result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets up nothing on import)

FAILED = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILED.append(what)


def check_references(wl):
    import numpy as np

    import reference as ref

    for label in ("h2", "h4", "h5", "h6", "h9hat"):
        expect(np.array_equal(ref.bracket_tensor(label), wl.al.builtin(label).bracket_tensor),
               f"reference bracket tensor of {label} equals the package's")
        rng = np.random.default_rng(3)
        for boundary in (None, *wl.BOUNDARIES[label]):
            p = wl.sample_form_params(label, rng, boundary)
            same = np.array_equal(ref.canonical_matrix(label, p),
                                  wl.mo.realize(wl.make_form(label, p)).matrix)
            expect(same and ref.in_canonical_slice(label, p),
                   f"reference matrix of {label} form ({boundary}) equals realize and is canonical")


def check_tracer():
    import tracer as tr

    t = tr.Tracer()
    t.begin_op()
    spans = t._spans
    # op: outer [0, 9] with children [1, 4] (grandchild [2, 3]) and [5, 8]
    for name, start, end, parent in (("outer", 0, 9, -1), ("a", 1, 4, 0), ("b", 2, 3, 1),
                                     ("c", 5, 8, 0)):
        spans.append((name, float(start), float(end), parent))
    t.end_op(11.0)
    own = tr.self_times(t.ops[0])
    expect(own == [3.0, 2.0, 1.0, 3.0], f"self times of a nested span tree: {own}")
    total_self, gap = tr.op_accounting(t.ops[0], 11.0)
    expect(total_self + gap == 11.0 and gap == 2.0,
           f"self times {total_self} plus gap {gap} add up to the op wall time 11")

    # real wrappers: nested calls through patched bindings
    import nilmoduli.linalg as la
    import nilmoduli.moduli as mo

    originals = {(m.__name__, a): getattr(m, a) for m in (la, mo)
                 for a in ("cholesky_lower", "reverse_cholesky_lower")}
    tracer = tr.Tracer().install()
    try:
        sites = tracer.bound_sites()
        for site in ("nilmoduli.linalg.cholesky_lower", "nilmoduli.moduli.cholesky_lower",
                     "nilmoduli.hermitian.cholesky_lower", "nilmoduli.cholesky_lower",
                     "nilmoduli.cli.main", "nilmoduli.moduli.structured_automorphism"):
            expect(site in sites, f"tracer patches {site}")
        import numpy as np

        g = np.diag([1.0, 1.0, 1.0, 1.0, 2.0, 3.0])
        tracer.begin_op()
        t0 = time.perf_counter()
        mo.canonicalize("h6", mo.Metric("h6", g))
        wall = time.perf_counter() - t0
        tracer.end_op(wall)
        spans = tracer.ops[0]
        total_self, gap = tr.op_accounting(spans, wall)
        expect(abs(total_self + gap - wall) <= 1e-9 and gap >= 0.0,
               f"canonicalize op: self {total_self:.6f} s + gap {gap:.6f} s = wall {wall:.6f} s")
        names = [s[0] for s in spans]
        expect(names.count("linalg.cholesky_lower") >= 2 and "moduli.canonicalize" in names,
               f"canonicalize op records nested layer spans ({len(spans)} spans)")
        expect(all(s[3] < i for i, s in enumerate(spans)), "every span's parent precedes it")
    finally:
        tracer.uninstall()
    restored = all(getattr(sys.modules[m], a) is f for (m, a), f in originals.items())
    expect(restored, "uninstall restores the original functions")


def check_digests(wl):
    for name, build in wl.BUILDERS.items():
        a = build(11, "tiny").digest
        b = build(11, "tiny").digest
        c = build(12, "tiny").digest
        expect(a == b, f"{name}: same seed, same input digest")
        expect(a != c, f"{name}: another seed, another input digest")


def check_smoke():
    for name in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=300)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            keys = {"correct", "attempted", "failed", "metrics"}
            ok = (proc.returncode == 0 and set(result) == keys and result["correct"]
                  and result["attempted"] >= 1 and result["metrics"])
            expect(ok, f"smoke run {name} --trace {trace}: exit {proc.returncode}, "
                       f"{len(result.get('metrics', {}))} metrics, correct={result.get('correct')}")


def main():
    wl = run.import_package()
    check_references(wl)
    check_tracer()
    check_digests(wl)
    check_smoke()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
