"""Byte-for-byte audit of the CLI's outputs in two checkouts.

Builds one list of ``nilmoduli`` argv lists and runs it once in each
checkout: one child process per side (``PATH/src`` of ``--parent`` for the
parent, this checkout's ``src`` for the change), each looping over
``cli.main(argv)`` with stdout captured.  The list holds

  * ``hermitian`` on ``--count`` random canonical forms per built-in and
    seed (``testsupport.random_canonical_form``, drawn in this checkout,
    the boundary options in turn after a form off every boundary), once as
    JSON and once with ``--format text``;
  * ``hermitian --search --budget 16`` on SEARCH_FORMS random canonical
    forms per built-in and seed, and on h9's g_AA (found) and g_AB (none
    found), each as JSON and as text;
  * ``canonicalize`` on ORBIT_FORMS orbit metrics per built-in and seed (a
    random canonical form, the boundary options in turn, pulled back by a
    random automorphism), each at the scales 10^k, k in SCALE_EXPONENTS, as
    JSON and as text.  The metrics are drawn once, in this checkout, and
    passed to both sides as JSON, which keeps every float's bits;
  * ``isometry`` on the same forms, as JSON and as text;
  * ``describe`` of every built-in id, every built-in's Salamon string,
    the paper's e-basis h9 string and NON_LIE_STRINGS, as JSON and as text;
  * ``tables``;
  * ``verify --suite all --seed S`` for each seed.

``wall_time_s`` is dropped from every report before the comparison.  Per
command, algebra and format it prints how many outputs (exit code, stdout
and stderr) are byte-identical, and the first argv whose output differs.
``--json FILE`` writes every differing output of both sides.  E.g.

    python3 tools/audit_outputs.py --parent /path/to/parent --seeds 0,7 --count 300

Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys

WALL_TIME = re.compile(r'"wall_time_s": [^,}]+')
SEARCH_FORMS = 3  # random forms per built-in and seed given to ``hermitian --search``
# h9's g_AA = diag(1, 1, 1.3^2, 1, 1.3^2, 1) and g_AB = diag(1, 1, 1.1^2, 1, 2.2^2, 1)
H9_SEARCH_FORMS = {"gAA": {"A": 1.3, "B": 1.3, "C": 1.0, "D": 0.0, "E": 0.0, "F": 0.0},
                   "gAB": {"A": 1.1, "B": 2.2, "C": 1.0, "D": 0.0, "E": 0.0, "F": 0.0}}
ORBIT_FORMS = 40  # orbit metrics per built-in and seed given to ``canonicalize``
SCALE_EXPONENTS = range(-6, 7)  # each orbit metric at 10^k times itself
# triangular brackets whose Jacobi identity fails: d(e^15 + e^24) = -e^134, d(e^34) = e^124
NON_LIE_STRINGS = ("(0,0,0,0,12+34,15+24)", "(0,0,12,0,0,34)")


def _argvs(seeds, count):
    """[(group, argv)] of the audit, in run order."""
    import numpy as np

    from nilmoduli.algebra import BUILTIN_IDS, BUILTIN_SALAMON, PAPER_H9_SALAMON
    from nilmoduli.automorphisms import random_automorphism
    from nilmoduli.moduli import pullback_metric, realize
    from nilmoduli.testsupport import BOUNDARIES, random_canonical_form

    out = []
    for name, options in BOUNDARIES.items():
        for seed in seeds:
            rng = np.random.default_rng(seed)
            for i in range(count):
                boundary = (None, *options)[i % (len(options) + 1)]
                form = random_canonical_form(name, rng, boundary=boundary)
                form = json.dumps(form.to_json_dict())
                argv = ["hermitian", "--algebra", name, "--form", form]
                out.append((f"hermitian {name} json", argv))
                out.append((f"hermitian {name} text", ["--format", "text", *argv]))
    searches = []
    for name in BOUNDARIES:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            searches += [(name, random_canonical_form(name, rng).to_json_dict())
                         for _ in range(SEARCH_FORMS)]
    searches += [("h9", form) for form in H9_SEARCH_FORMS.values()]
    for name, form in searches:
        argv = ["hermitian", "--algebra", name, "--form", json.dumps(form),
                "--search", "--budget", "16"]
        out.append((f"search {name} json", argv))
        out.append((f"search {name} text", ["--format", "text", *argv]))
    for name, options in BOUNDARIES.items():
        for seed in seeds:
            rng = np.random.default_rng(seed)
            for i in range(ORBIT_FORMS):
                boundary = (None, *options)[i % (len(options) + 1)]
                form = random_canonical_form(name, rng, boundary=boundary)
                phi = random_automorphism(name, int(rng.integers(0, 2 ** 31)))
                g = pullback_metric(realize(form), phi).matrix
                for k in SCALE_EXPONENTS:
                    metric = json.dumps({"algebra": name, "matrix": (10.0 ** k * g).tolist()})
                    argv = ["canonicalize", "--metric", metric]
                    out.append((f"canonicalize {name} json", argv))
                    out.append((f"canonicalize {name} text", ["--format", "text", *argv]))
                argv = ["isometry", "--algebra", name, "--form", json.dumps(form.to_json_dict())]
                out.append((f"isometry {name} json", argv))
                out.append((f"isometry {name} text", ["--format", "text", *argv]))
    for spec in (*BUILTIN_IDS, *BUILTIN_SALAMON.values(), PAPER_H9_SALAMON, *NON_LIE_STRINGS):
        out.append(("describe json", ["describe", spec]))
        out.append(("describe text", ["--format", "text", "describe", spec]))
    out.append(("tables", ["tables"]))
    out += [("verify", ["verify", "--suite", "all", "--seed", str(seed)]) for seed in seeds]
    return out


def _run_all(argvs):
    """(package file, [[exit code, stdout without wall_time_s, stderr]]) of
    each argv, run in this process."""
    import nilmoduli
    from nilmoduli import cli

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        results.append([code, WALL_TIME.sub('"wall_time_s": null', out.getvalue()),
                        err.getvalue()])
    return nilmoduli.__file__, results


def _side(src, argvs):
    """The results of ``argvs`` in a child process importing the package from ``src``."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"],
                          input=json.dumps(argvs), env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    package, results = json.loads(proc.stdout)
    if not package.startswith(src + os.sep):
        raise RuntimeError(f"the process for {src} imported {package}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the parent checkout")
    parser.add_argument("--seeds", type=lambda text: [int(s) for s in text.split(",")],
                        default=[0, 7], help="comma-separated seeds (default 0,7)")
    parser.add_argument("--count", type=int, default=300, help="forms per built-in and seed")
    parser.add_argument("--json", help="write every differing output of both sides here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:  # run the argv lists on stdin, print (package, results)
        print(json.dumps(_run_all(json.load(sys.stdin))))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, here)  # the forms are drawn with this checkout's testsupport
    plan = _argvs(args.seeds, args.count)
    argvs = [a for _group, a in plan]
    parent = _side(os.path.join(os.path.abspath(args.parent), "src"), argvs)
    change = _side(here, argvs)

    groups, differing = {}, []
    for (group, a), p, c in zip(plan, parent, change):
        same, total, first = groups.get(group, (0, 0, None))
        if p != c:
            differing.append({"argv": a, "parent": p, "change": c})
            first = first or a
        groups[group] = (same + (p == c), total + 1, first)
    for group, (same, total, first) in groups.items():
        line = f"{group:22s} {same:5d}/{total:<5d} byte-identical"
        print(line if first is None else f"{line}; first differing: {json.dumps(first)}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(differing, fh)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
