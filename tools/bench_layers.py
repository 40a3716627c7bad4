"""Layer timings of the algebra kernels and the warm CLI commands.

Times each item with ``time.perf_counter``: WARMUP calls, then REPEATS
runs of ``inner`` calls each, and reports the median (and quartiles) of
the per-call time over the runs.  The items are

  * the contraction kernels: ``nijenhuis_tensor``, ``is_abelian_structure``,
    ``automorphisms._bracket_defect``, ``jacobi_residual``,
    ``nilpotency_step``, ``change_of_basis``;
  * ``moduli.isotropy_algebra_dimension``,
    ``automorphisms.derivation_algebra`` on h5 and
    ``automorphisms.component_representatives`` on h2;
  * ``moduli.verify_isometry_group`` on the h5 and h9hat "Z2 x Z2 x Z2"
    rows, and ``moduli._generated_group`` on h9hat's seven sign flips;
  * ``moduli.Metric`` and ``linalg.cholesky_lower`` on one 6x6 SPD matrix
    (an h5 orbit metric): the checks every metric pays;
  * ``moduli.canonicalize`` on one orbit metric per algebra, each of a form
    on a case boundary (so the stratum snaps run), and
    ``moduli.isometry_group`` and ``moduli.realize`` on one case row's form,
    and ``moduli.realize`` on an h9 form (the metric X^T X of its factor);
  * the closed-form Hermitian structures: ``h6_hermitian_solutions``,
    ``h2_hermitian_candidates`` on a form with two structures, and
    ``h9_sigma_family("sigma1", ...)``;
  * the numeric oracle ``hermitian_search`` at budget 64: two exhausting
    g_AB verdicts (a = 1.125, B/A = 0.5 and 2) in one call, and the sigma1
    metric that it finds at start 2;
  * the warm ``describe``, ``isometry``, ``hermitian``, ``canonicalize``
    and ``tables`` commands, each a ``cli.main(argv)`` call in this process,
    ``hermitian`` also on an h2 form with two structures, and ``describe``
    of a Salamon string, which parses a new algebra on each call and so
    builds its facts and derivation basis anew.

Every name used has the same name and signature in the parent checkout;
``automorphisms._bracket_defect`` and ``moduli._generated_group`` are
private, and are timed on both sides because their names and signatures
did not change.  So the same script times
either checkout: put its ``src`` first on the path, e.g.

    PYTHONPATH=src python3 tools/bench_layers.py --label change
    PYTHONPATH=/path/to/other/src python3 tools/bench_layers.py --label parent

Each run stores its numbers under ``--label`` in ``--out`` (default
``BENCH_layers.json``), keeping the other labels, together with the
Python and numpy versions and the core count.

Two runs made minutes apart see the shared machine drift between them.
``--parent PATH`` compares two checkouts on the same footing instead: each
row is timed in PAIRS pairs of fresh processes, one per checkout
(``PATH/src`` for the parent, this checkout's ``src`` for the change), the
order alternating from pair to pair, e.g.

    python3 tools/bench_layers.py --label change --parent /path/to/parent

Each side's row then holds the median and quartiles of its processes'
medians, and the change's row counts the pairs it won (``faster_pairs`` of
``pairs``).  The parent is stored under ``parent``.

``--rows PREFIX[,PREFIX]`` times only the rows whose names start with one
of the prefixes, alone or with ``--parent``, e.g.

    python3 tools/bench_layers.py --label change --parent /path/to/parent \
        --rows hermitian.,cli.hermitian,cli.tables

The rows timed replace those rows of each label stored in ``--out``; the
label's other rows stay as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

REPEATS = 21
WARMUP = 3
PAIRS = 10  # process pairs per row with --parent


def _time(fn, inner):
    for _ in range(WARMUP):
        fn()
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        per_call.append((time.perf_counter() - t0) / inner)
    q1, median, q3 = statistics.quantiles(per_call, n=4)
    return {"median_us": median * 1e6, "q1_us": q1 * 1e6, "q3_us": q3 * 1e6,
            "inner": inner, "repeats": REPEATS}


def _items():
    import numpy as np

    import nilmoduli.algebra as al
    import nilmoduli.automorphisms as au
    import nilmoduli.cli as cli
    import nilmoduli.hermitian as hm
    import nilmoduli.linalg as la
    import nilmoduli.moduli as mo

    rng = np.random.default_rng(0)
    h5 = al.builtin("h5")
    p = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    j = p @ al.standard_pairing_j() @ np.linalg.inv(p)
    m = au.random_automorphism("h5", 0).matrix
    h9 = al.parse_salamon(al.BUILTIN_SALAMON["h9"])  # the paper's h9 string, the e-basis tensor
    dense = al.change_of_basis(h9, p)
    g = mo.realize(mo.H5Form(1.0, 1.0, 1.5, 0.0, 1.5)).matrix

    def command(argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"nilmoduli {' '.join(argv)} failed")
        return call

    boundary_forms = {
        "h5": mo.H5Form(1.0, 0.3, 1.5, 0.0, 1.5), "h6": mo.H6Form(2.0, 2.0),
        "h4": mo.H4Form(0.5, 1.2, 0.0, 0.7), "h2": mo.H2Form(0.0, 0.4, 1.0, 0.3, 2.0),
        "h9hat": mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.7, 0.4),
    }
    orbit = {name: mo.pullback_metric(mo.realize(f), au.random_automorphism(name, 0)).matrix
             for name, f in boundary_forms.items()}
    row = mo.H5Form(1.0, 0.3, 1.5, 0.0, 1.5)
    z2_cubed = {"h5": mo.H5Form(0.5, 0.3, 1.0, 0.0, 2.0),
                "h9hat": mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.0)}
    z2_cubed = {name: (f, mo.isometry_group(name, f)) for name, f in z2_cubed.items()}
    flips = [gen.matrix for gen in z2_cubed["h9hat"][1].generators]
    form = json.dumps({"r": 0.6, "s": 0.6, "E": 1.0, "F": 0.1, "G": 2.0})
    h2_form = json.dumps({"a": 0.2, "b": 0.5, "E": 1.0, "F": 0.3, "G": 2.0})
    metric_json = json.dumps({"algebra": "h5", "matrix": orbit["h5"].tolist()})
    exhausting = [mo.Metric("h9hat", np.diag([1.0, 1.0, 1.125 ** 2, 1.0, (ratio * 1.125) ** 2, 1.0]))
                  for ratio in (0.5, 2.0)]
    sigma1, _phi, _j = hm.h9_sigma_family("sigma1", A=0.7, E=1.3)
    return [(f"moduli.canonicalize.{name}", functools.partial(mo.canonicalize, name, metric), 200)
            for name, metric in orbit.items()] + [
        ("moduli.isometry_group", lambda: mo.isometry_group("h5", row), 200),
        ("moduli.realize", lambda: mo.realize(row), 500),
        ("moduli.realize.h9hat", lambda: mo.realize(boundary_forms["h9hat"]), 500),
        ("moduli.Metric", lambda: mo.Metric("h5", orbit["h5"]), 500),
        ("linalg.cholesky_lower", lambda: la.cholesky_lower(orbit["h5"]), 500),
        ("kernel.nijenhuis_tensor", lambda: al.nijenhuis_tensor(h5, j), 200),
        ("kernel.is_abelian_structure", lambda: al.is_abelian_structure(h5, j), 200),
        ("kernel.bracket_defect", lambda: au._bracket_defect(h5, m), 200),
        ("kernel.jacobi_residual", lambda: al.jacobi_residual(dense), 200),
        ("kernel.nilpotency_step", lambda: al.nilpotency_step(h9), 100),
        ("kernel.change_of_basis", lambda: al.change_of_basis(h5, p), 200),
        ("moduli.isotropy_algebra_dimension", lambda: mo.isotropy_algebra_dimension("h5", g), 50),
        ("automorphisms.derivation_algebra", lambda: au.derivation_algebra("h5"), 50),
    ] + [
        (f"moduli.verify_isometry_group.{name}",
         functools.partial(mo.verify_isometry_group, name, f, desc), 20)
        for name, (f, desc) in z2_cubed.items()] + [
        ("moduli._generated_group", lambda: mo._generated_group(flips), 50),
        ("automorphisms.component_representatives",
         lambda: au.component_representatives("h2"), 200),
        ("hermitian.h6_hermitian_solutions",
         lambda: hm.h6_hermitian_solutions(mo.H6Form(1.0, 4.0)), 200),
        ("hermitian.h2_hermitian_candidates",
         lambda: hm.h2_hermitian_candidates(mo.H2Form(0.2, 0.5, 1.0, 0.3, 2.0)), 200),
        ("hermitian.h9_sigma_family.sigma1",
         lambda: hm.h9_sigma_family("sigma1", A=1.3, E=0.7), 200),
        ("hermitian.search.gAB",
         lambda: [hm.hermitian_search("h9hat", g_ab, budget=64) for g_ab in exhausting], 1),
        ("hermitian.search.sigma1", lambda: hm.hermitian_search("h9hat", sigma1, budget=64), 5),
        ("cli.describe", command(["describe", "h5"]), 10),
        ("cli.describe.salamon", command(["describe", al.BUILTIN_SALAMON["h5"]]), 10),
        ("cli.isometry", command(["isometry", "--algebra", "h5", "--form", form]), 10),
        ("cli.hermitian", command(["hermitian", "--algebra", "h5", "--form", form]), 10),
        ("cli.hermitian.h2", command(["hermitian", "--algebra", "h2", "--form", h2_form]), 10),
        ("cli.canonicalize", command(["canonicalize", "--metric", metric_json]), 10),
        ("cli.tables", command(["tables"]), 2),
    ]


def _environment():
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu_count": os.cpu_count()}


def _time_row(name):
    """One row timed in this process, with the package file it imported."""
    import nilmoduli

    fn, inner = next((fn, inner) for row, fn, inner in _items() if row == name)
    return {"package": nilmoduli.__file__, "timing": _time(fn, inner)}


def _quartile_row(medians, inner):
    q1, median, q3 = statistics.quantiles(medians, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "inner": inner,
            "repeats": REPEATS, "processes": len(medians)}


def _selected(items, prefixes):
    """The items whose row names start with one of ``prefixes`` (all if None)."""
    if prefixes is None:
        return items
    chosen = [item for item in items if item[0].startswith(tuple(prefixes))]
    if not chosen:
        raise SystemExit(f"bench_layers: no row starts with {', '.join(prefixes)}")
    return chosen


def _interleaved(parent, prefixes):
    """{label: layers} of the parent checkout and this one, each selected
    row timed in PAIRS alternating pairs of processes."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    srcs = {"parent": os.path.join(os.path.abspath(parent), "src"),
            "change": os.path.join(here, "src")}
    sys.path.insert(0, srcs["change"])  # the row names come from this checkout's items
    names = [(name, inner) for name, _fn, inner in _selected(_items(), prefixes)]
    layers = {"parent": {}, "change": {}}
    for name, inner in names:
        medians = {"parent": [], "change": []}
        for pair in range(PAIRS):
            for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                env = {**os.environ, "PYTHONPATH": srcs[side]}
                out = subprocess.run([sys.executable, os.path.abspath(__file__), "--row", name],
                                     env=env, capture_output=True, text=True, check=True).stdout
                row = json.loads(out.strip().splitlines()[-1])
                if not row["package"].startswith(srcs[side] + os.sep):
                    raise RuntimeError(f"{side} process imported {row['package']}")
                medians[side].append(row["timing"]["median_us"])
        for side in layers:
            layers[side][name] = _quartile_row(medians[side], inner)
        layers["change"][name]["faster_pairs"] = sum(
            c < p for c, p in zip(medians["change"], medians["parent"]))
        layers["change"][name]["pairs"] = PAIRS
        print(f"{name:40s} {layers['parent'][name]['median_us']:10.1f} -> "
              f"{layers['change'][name]['median_us']:10.1f} us  "
              f"(change faster in {layers['change'][name]['faster_pairs']}/{PAIRS})")
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="key to store this run under (the change's, with --parent)")
    parser.add_argument("--out", default="BENCH_layers.json")
    parser.add_argument("--parent", help="a second checkout to interleave with this one")
    parser.add_argument("--rows", type=lambda text: text.split(","),
                        help="time only the rows starting with these comma-separated prefixes")
    parser.add_argument("--row", help=argparse.SUPPRESS)  # child process: time one row, print JSON
    args = parser.parse_args(argv)

    if args.row is not None:
        print(json.dumps(_time_row(args.row)))
        return 0
    if args.label is None:
        parser.error("--label is required")
    if args.parent is not None:
        layers = _interleaved(args.parent, args.rows)
        entries = {"parent": layers["parent"], args.label: layers["change"]}
    else:
        entries = {args.label: {name: _time(fn, inner)
                                for name, fn, inner in _selected(_items(), args.rows)}}
        for name, row in entries[args.label].items():
            print(f"{name:40s} {row['median_us']:10.1f} us  [{row['q1_us']:.1f}, {row['q3_us']:.1f}]")
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    for label, layers in entries.items():
        kept = data.get(label, {}).get("layers", {}) if args.rows else {}
        data[label] = {"environment": _environment(), "layers": {**kept, **layers}}
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
