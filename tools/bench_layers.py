"""Layer timings of the algebra kernels and the warm CLI commands.

Times each item with ``time.perf_counter``: WARMUP calls, then REPEATS
runs of ``inner`` calls each, and reports the median (and quartiles) of
the per-call time over the runs.  The items are

  * the contraction kernels: ``nijenhuis_tensor``, ``is_abelian_structure``,
    ``automorphisms._bracket_defect``, ``jacobi_residual``,
    ``nilpotency_step``, ``change_of_basis``;
  * ``moduli.isotropy_algebra_dimension`` and
    ``automorphisms.component_representatives`` on h2;
  * ``moduli.Metric`` and ``linalg.cholesky_lower`` on one 6x6 SPD matrix
    (an h5 orbit metric): the checks every metric pays;
  * ``moduli.canonicalize`` on one orbit metric per algebra, each of a form
    on a case boundary (so the stratum snaps run), and
    ``moduli.isometry_group`` on one case row;
  * the warm ``describe``, ``isometry``, ``hermitian``, ``canonicalize``
    and ``tables`` commands, each a ``cli.main(argv)`` call in this process.

Every name used has the same name and signature in the parent checkout;
``automorphisms._bracket_defect`` is private, and is timed on both sides
because its name and signature did not change.  So the same script times
either checkout: put its ``src`` first on the path, e.g.

    PYTHONPATH=src python3 tools/bench_layers.py --label change
    PYTHONPATH=/path/to/other/src python3 tools/bench_layers.py --label parent

Each run stores its numbers under ``--label`` in ``--out`` (default
``BENCH_layers.json``), keeping the other labels, together with the
Python and numpy versions and the core count.
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
import sys
import time

REPEATS = 21
WARMUP = 3


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
    import nilmoduli.linalg as la
    import nilmoduli.moduli as mo

    rng = np.random.default_rng(0)
    h5 = al.builtin("h5")
    p = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    j = p @ al.standard_pairing_j() @ np.linalg.inv(p)
    m = au.random_automorphism("h5", 0).matrix
    h9 = al.builtin("h9")
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
    form = json.dumps({"r": 0.6, "s": 0.6, "E": 1.0, "F": 0.1, "G": 2.0})
    metric_json = json.dumps({"algebra": "h5", "matrix": orbit["h5"].tolist()})
    return [(f"moduli.canonicalize.{name}", functools.partial(mo.canonicalize, name, metric), 200)
            for name, metric in orbit.items()] + [
        ("moduli.isometry_group", lambda: mo.isometry_group("h5", row), 200),
        ("moduli.Metric", lambda: mo.Metric("h5", orbit["h5"]), 500),
        ("linalg.cholesky_lower", lambda: la.cholesky_lower(orbit["h5"]), 500),
        ("kernel.nijenhuis_tensor", lambda: al.nijenhuis_tensor(h5, j), 200),
        ("kernel.is_abelian_structure", lambda: al.is_abelian_structure(h5, j), 200),
        ("kernel.bracket_defect", lambda: au._bracket_defect(h5, m), 200),
        ("kernel.jacobi_residual", lambda: al.jacobi_residual(dense), 200),
        ("kernel.nilpotency_step", lambda: al.nilpotency_step(h9), 100),
        ("kernel.change_of_basis", lambda: al.change_of_basis(h5, p), 200),
        ("moduli.isotropy_algebra_dimension", lambda: mo.isotropy_algebra_dimension("h5", g), 50),
        ("automorphisms.component_representatives",
         lambda: au.component_representatives("h2"), 200),
        ("cli.describe", command(["describe", "h5"]), 10),
        ("cli.isometry", command(["isometry", "--algebra", "h5", "--form", form]), 10),
        ("cli.hermitian", command(["hermitian", "--algebra", "h5", "--form", form]), 10),
        ("cli.canonicalize", command(["canonicalize", "--metric", metric_json]), 10),
        ("cli.tables", command(["tables"]), 2),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key to store this run under")
    parser.add_argument("--out", default="BENCH_layers.json")
    args = parser.parse_args(argv)

    import numpy as np

    layers = {name: _time(fn, inner) for name, fn, inner in _items()}
    entry = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "layers": layers,
    }
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data[args.label] = entry
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, row in layers.items():
        print(f"{name:40s} {row['median_us']:10.1f} us  [{row['q1_us']:.1f}, {row['q3_us']:.1f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
