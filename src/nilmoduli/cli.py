"""Command-line front end.

Subcommands: describe, canonicalize, isometry, hermitian, tables, verify.
Structured output is JSON (sorted keys, schema "nilmoduli/1") on stdout;
--format text renders a short human summary instead.  Exit codes:
0 the report passed, 1 it did not, 2 input/parse error, 3 not SPD,
4 solver/canonicalization failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import algebra as al
from . import automorphisms as auts
from . import hermitian as hm
from . import moduli as mo
from .errors import CanonicalizationFailed, NilmoduliError, NotSPD, ParseError

SCHEMA = "nilmoduli/1"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_NOT_SPD = 3
EXIT_SOLVER = 4

SHRINK_ROUNDS = 12  # halvings of a failing case's perturbation
MODULI_SUITE_COUNT = 100  # orbit checks per algebra in the moduli suite
HERMITIAN_SUITE_COUNT = 200  # random h5, h4, h6 and h2 forms each in the hermitian suite
JACOBI_TOL = 1e-14  # the algebra suite's bound on a built-in's Jacobi residual
ANTISYMMETRY_RTOL = 1e-12  # max|N(x, y) + N(y, x)|, relative to max(1, max|N(x, y)|)
ROUNDTRIP_TOL = 1e-10  # max|c - c'| after a change of basis and its inverse
ORBIT_PARAM_TOL = 1e-7  # max|parameter change| of a canonical form along its orbit


def _load_form(args):
    """The form of ``--form``.  One given without a tag takes the built-in
    that ``--algebra`` names (``algebra.builtin_label``); a string that names
    none stays, and ``form_from_dict`` reports the unknown tag."""
    al.get_algebra(args.algebra)  # a malformed Salamon string: a parse error, no mismatch
    data = json.loads(args.form)
    if isinstance(data, dict) and "tag" not in data:
        data = {**data, "tag": al.builtin_label(args.algebra) or args.algebra}
    return mo.form_from_dict(data)  # rejects a non-object and names missing parameters


# ---------------------------------------------------------------------------
# describe


def _describe_facts(alg):
    """(bracket listing, nilpotency step, Salamon string, Jacobi residual);
    ``cmd_describe`` builds them once per algebra object (``algebra.memo``),
    so the listing is a tuple."""
    brackets = []
    b = alg.bracket_tensor
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            v = b[:, i, j]
            if np.any(v != 0.0):
                terms = " + ".join(
                    f"{v[k]:+g} e{k + 1}" for k in range(alg.dim) if v[k] != 0.0
                )
                brackets.append(f"[e{i + 1}, e{j + 1}] = {terms}")
    step = al.nilpotency_step(alg)
    return tuple(brackets), step, al.render_salamon(alg), al.jacobi_residual(alg)


def cmd_describe(args):
    alg = al.get_algebra(args.algebra)
    brackets, step, salamon, jacobi = al.memo(alg, _describe_facts)
    der_dim = auts.derivation_algebra(alg).dimension
    outputs = {
        "label": alg.label,
        "salamon": salamon,
        "brackets": list(brackets),
        "nilpotency_step": step,
        "derivation_dimension": der_dim,
        "jacobi_residual": jacobi,
    }
    lines = [f"algebra {alg.label} = {outputs['salamon']}"]
    lines += [f"  {s}" for s in brackets]
    lines.append(f"  nilpotency step: {step}")
    lines.append(f"  dim Der = {der_dim}")
    if al.builtin_label(alg):
        reps = auts.component_representatives(alg)
        outputs["component_count"] = len(reps)
        lines.append(f"  Aut components: {len(reps)}")
    return {"algebra": args.algebra}, outputs, lines, True


# ---------------------------------------------------------------------------
# canonicalize


METRIC_USAGE = (
    'pass a metric object {"algebra": "h5", "matrix": [[... 6x6 ...]]} with --metric '
    'or in the file named by --input (--algebra supplies a missing "algebra")'
)


def _load_metric(args):
    """(algebra, matrix) of the canonicalize input; ValueError names the schema."""
    if args.input is None and args.metric is None:
        raise ValueError(f"no metric given; {METRIC_USAGE}")
    if args.input is not None and args.metric is not None:
        raise ValueError(f"got both --input {args.input!r} and --metric {args.metric!r:.40}; "
                         f"give one: {METRIC_USAGE}")
    if args.input is not None:
        try:
            with open(args.input) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read --input {args.input!r}: {exc.strerror}") from exc
    else:
        data = json.loads(args.metric)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError(f"got a JSON {type(data).__name__} without \"matrix\"; {METRIC_USAGE}")
    algebra = data.get("algebra", args.algebra)
    if algebra is None:
        raise ValueError(f"no algebra given; {METRIC_USAGE}")
    if args.algebra is not None:
        al.require_same_algebra(algebra, args.algebra)  # AlgebraMismatch names both
    bad = _non_numbers(data["matrix"], "matrix")
    if bad:
        raise ValueError("metric entries must be numbers, got " + ", ".join(bad))
    return algebra, np.asarray(data["matrix"], dtype=float)


def _non_numbers(value, path):
    """``path=value`` for each entry of the matrix that is no JSON number, by
    ``form_from_dict``'s rule (true and "1.5" are none).  A list is walked as
    the matrix or as a row; one further down is an entry, and named.  A float
    or int entry is a number and is passed over without a call, so a valid
    metric costs one call per row, not one per entry."""
    if isinstance(value, list) and path.count("[") < 2:
        return [bad for i, v in enumerate(value) if type(v) not in (float, int)
                for bad in _non_numbers(v, f"{path}[{i}]")]
    return [] if mo._is_number(value) else [f"{path}={value!r}"]


def cmd_canonicalize(args):
    algebra, matrix = _load_metric(args)
    metric = mo.Metric(algebra, matrix)
    form, witness = mo.canonicalize(algebra, metric)
    outputs = {
        "form": form.to_json_dict(),
        "witness": witness.to_json_dict(),
        "certificate_bound": mo.certificate_bound(metric.matrix),
    }
    lines = [
        f"canonical form: {form.to_json_dict()}",
        f"witness residual: {witness.residual:.3e}",
    ]
    return {"algebra": algebra}, outputs, lines, True


# ---------------------------------------------------------------------------
# isometry


def cmd_isometry(args):
    form = _load_form(args)
    desc = mo.isometry_group(args.algebra, form)
    report = mo.verify_isometry_group(args.algebra, form, desc)
    outputs = {"descriptor": desc.to_json_dict(), "verification": report.to_json_dict()}
    d = outputs["descriptor"]
    lines = [
        f"isotropy group: {d['name']}",
        f"  continuous dim {d['continuous_dim']}, components {d['component_count']}, "
        f"order {d['finite_order']}",
        f"  verification: {'pass' if report.passed else 'FAIL'}",
    ]
    return {"algebra": args.algebra, "form": form.to_json_dict()}, outputs, lines, report.passed


# ---------------------------------------------------------------------------
# hermitian


# the text line of a set that lists no structures, by its kind
_KIND_LINES = {"sphere": "sphere (every (a,b,c) on S^2)",
               "open": "open (no closed form at this form; --search runs the oracle)"}


def _solution_line(sol):
    t = sol.triple
    line = f"{t.branch}: (a,b,c) = ({t.a:+.6f}, {t.b:+.6f}, {t.c:+.6f})"
    return line if sol.abelian is None else f"{line} abelian={sol.abelian}"


def _hermitian_outputs(algebra, form):
    """The closed-form Hermitian structures at a canonical form: (JSON
    outputs, text lines).  ``algebra`` and the form's tag must name one
    algebra."""
    al.require_same_algebra(form.algebra, algebra)
    sets = hm.hermitian_structures(form)
    lines = []
    for branch, sset in sets.items():
        if sset.kind in _KIND_LINES:
            lines.append(f"{branch}: {_KIND_LINES[sset.kind]}")
        lines += [_solution_line(s) for s in sset.solutions]
    return {"solutions": {k: v.to_json_dict() for k, v in sets.items()}}, lines


def cmd_hermitian(args):
    form = _load_form(args)
    outputs, lines = _hermitian_outputs(args.algebra, form)
    if args.search:
        res = hm.hermitian_search(args.algebra, mo.realize(form), budget=args.budget)
        outputs["search"] = res.to_json_dict()
        lines.append(
            f"search: {'found' if res.found else 'none found'} "
            f"(best residual {res.residual:.3e}, {res.starts_used} starts)"
        )
    return {"algebra": args.algebra, "form": form.to_json_dict()}, outputs, lines, True


# ---------------------------------------------------------------------------
# tables


def _hermitian_row(form):
    """One row of a Hermitian table: the form and its sets by branch; h6's
    row keeps one flat list, J1's structures then J2's."""
    sets = hm.hermitian_structures(form)
    if form.algebra == "h6":
        return {"form": form.to_json_dict(),
                "solutions": [s.to_json_dict() for sset in sets.values() for s in sset.solutions]}
    return {"form": form.to_json_dict(), **{b: s.to_json_dict() for b, s in sets.items()}}


def cmd_tables(args):
    grid = ((1.0, 1.0), (1.0, 2.25))  # (E, G) of the h5 and h4 rows
    forms = {
        "h5": [mo.H5Form(r, s, E, F, G) for r, s in ((0.49, 0.25), (1.0, 0.25), (0.49, 0.49), (1.0, 1.0))
               for F in (0.0, 0.25) for E, G in grid],
        "h4": [mo.H4Form(r, E, F, G) for r in (0.25, 1.0) for F in (0.0, 0.25) for E, G in grid],
        "h6": [mo.H6Form(E, G) for E, G in ((1.0, 1.0), (1.0, 4.0), (2.0, 3.0))],
    }
    tables = {f"{name}_hermitian": [_hermitian_row(f) for f in fs] for name, fs in forms.items()}

    iso = {label: [{"case": row.case,
                    "descriptor": mo.isometry_group(label, row.example).to_json_dict()}
                   for row in ft.cases()]
           for label, ft in mo._FORM_TYPES.items() if ft.cases is not None}
    iso["h9"] = [
        {"case": f"k={k}", "descriptor": mo.isometry_group("h9hat", f).to_json_dict()}
        for k, f in (
            (0, mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.7, 0.4)),
            (1, mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.7, 0.4)),
            (2, mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.4)),
            (3, mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.0)),
        )
    ]
    tables["isometry"] = iso

    lines = [f"{k}: {len(v)} rows" for k, v in tables.items() if k != "isometry"]
    lines += [f"isometry[{k}]: {len(v)} cases" for k, v in iso.items()]
    return {}, tables, lines, True


# ---------------------------------------------------------------------------
# verify


def _shrink_failure(check, base, perturbed):
    """Halve the perturbation toward ``base`` while the check still fails."""
    lo, hi = np.asarray(base, dtype=float), np.asarray(perturbed, dtype=float)
    for _ in range(SHRINK_ROUNDS):
        mid = 0.5 * (lo + hi)
        if check(mid):
            lo = mid
        else:
            hi = mid
    return hi


def verify_suite_algebra(seed):
    failures = []
    checked = 0
    j0 = al.standard_pairing_j()
    rng = np.random.default_rng(seed)
    for alg in map(al.builtin, al.BUILTIN_SALAMON):  # each built-in once
        checked += 1
        if al.jacobi_residual(alg) > JACOBI_TOL:
            failures.append((f"jacobi[{alg.label}]", al.jacobi_residual(alg)))
        for _ in range(100):
            x, y = rng.normal(size=6), rng.normal(size=6)
            n_xy = al.nijenhuis(alg, j0, x, y)
            n_yx = al.nijenhuis(alg, j0, y, x)
            checked += 1
            if np.max(np.abs(n_xy + n_yx)) > ANTISYMMETRY_RTOL * max(1.0, np.max(np.abs(n_xy))):
                failures.append((f"nijenhuis_antisymmetry[{alg.label}]", float(np.max(np.abs(n_xy + n_yx)))))
                break
        for _ in range(20):
            p = rng.normal(size=(6, 6)) + 3.0 * np.eye(6)
            if abs(np.linalg.det(p)) < 0.5:
                continue
            back = al.change_of_basis(al.change_of_basis(alg, p), np.linalg.inv(p))
            checked += 1
            if np.max(np.abs(back.c - alg.c)) > ROUNDTRIP_TOL:
                failures.append((f"change_of_basis_roundtrip[{alg.label}]", float(np.max(np.abs(back.c - alg.c)))))
                break
    return checked, failures


def verify_suite_moduli(seed):
    from .testsupport import random_canonical_form

    failures = []
    checked = 0
    rng = np.random.default_rng(seed)
    for name in ("h6", "h4", "h5", "h2", "h9hat"):
        for i in range(MODULI_SUITE_COUNT):
            form = random_canonical_form(name, rng)
            g0 = mo.realize(form)
            phi = auts.random_automorphism(name, int(rng.integers(0, 2 ** 31)))
            g1 = mo.pullback_metric(g0, phi)
            try:
                f2, _wit = mo.canonicalize(name, g1)
            except NilmoduliError as exc:
                failures.append((f"canonicalize[{name}#{i}]", exc))
                continue
            checked += 1
            err = float(np.max(np.abs(f2.param_vector() - form.param_vector())))
            if err > ORBIT_PARAM_TOL:
                failures.append(
                    (f"orbit_invariance[{name}#{i}]", _minimized_case(name, form, g1))
                )
    return checked, failures


def _minimized_case(name, form, g_bad):
    """Shrink a failing metric toward its canonical representative by
    halving the perturbation, keeping the smallest still-failing case."""
    g_c = mo.realize(form).matrix

    def passes(g_mid):
        try:
            f_mid, _w = mo.canonicalize(name, mo.Metric(g_bad.algebra, g_mid))
        except NilmoduliError:
            return False
        return float(np.max(np.abs(f_mid.param_vector() - form.param_vector()))) <= ORBIT_PARAM_TOL

    g_min = _shrink_failure(passes, g_c, g_bad.matrix)
    return {"form": form.to_json_dict(), "minimized_metric": np.round(g_min, 12).tolist()}


def verify_suite_hermitian(seed):
    """``hermitian_structures`` on random h5, h4, h6 and h2 forms.  A solver
    raises when a structure misses its certificate; each raise is a failure.
    A check is one returned structure."""
    from .testsupport import random_canonical_form

    failures = []
    checked = 0
    rng = np.random.default_rng(seed)
    for i in range(HERMITIAN_SUITE_COUNT):
        # all four drawn before any raise, in this order
        forms = [random_canonical_form(name, rng) for name in ("h5", "h4", "h6", "h2")]
        for form in forms:
            try:
                sets = hm.hermitian_structures(form)
            except NilmoduliError as exc:
                failures.append((f"{form.algebra}_solver[#{i}]", exc))
                continue
            checked += sum(len(s.solutions) for s in sets.values())
    return checked, failures


def cmd_verify(args):
    seed = args.seed
    suites = {
        "algebra": lambda: verify_suite_algebra(seed),
        "moduli": lambda: verify_suite_moduli(seed),
        "hermitian": lambda: verify_suite_hermitian(seed),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    outputs = {}
    all_ok = True
    lines = []
    for name in names:
        checked, failures = suites[name]()
        ok = not failures
        all_ok &= ok
        outputs[name] = {
            "checked": checked,
            "failures": [[f, repr(v)] for f, v in failures[:10]],
            "passed": ok,
        }
        lines.append(f"suite {name}: {checked} checks, "
                     f"{'pass' if ok else f'{len(failures)} FAILURES'}")
    return {"suite": args.suite, "seed": seed}, outputs, lines, all_ok


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argparse tree of every command, built once per process:
    ``parse_args`` leaves the parser unchanged, so ``main`` reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="nilmoduli",
        parents=[common],
        description="Moduli of left-invariant metrics and Hermitian structures "
        "on the 6-d nilpotent Lie algebras with first Betti number 4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("describe", help="brackets, step, Der dimension, components")
    p.add_argument("algebra", help="builtin id (h2,h4,h5,h6,h9hat; h9 names h9hat) "
                   "or Salamon string")
    p.set_defaults(func=cmd_describe)

    p = add_parser("canonicalize", help="canonical form + witness for a metric")
    p.add_argument("--algebra", required=False)
    p.add_argument("--input", help="path to a metric JSON file")
    p.add_argument("--metric", help="inline metric JSON")
    p.set_defaults(func=cmd_canonicalize)

    p = add_parser("isometry", help="isotropy group of a canonical form")
    p.add_argument("--algebra", required=True)
    p.add_argument("--form", required=True, help="form JSON")
    p.set_defaults(func=cmd_isometry)

    p = add_parser("hermitian", help="Hermitian structures at a canonical form")
    p.add_argument("--algebra", required=True)
    p.add_argument("--form", required=True)
    p.add_argument("--search", action="store_true")
    p.add_argument("--budget", type=int, default=64)
    p.set_defaults(func=cmd_hermitian)

    p = add_parser("tables", help="regenerate the classification tables")
    p.set_defaults(func=cmd_tables)

    p = add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", choices=("all", "algebra", "moduli", "hermitian"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    """Run one command: its handler returns (inputs, outputs, text lines,
    passed), and ``main`` times it, prints the report (or the text lines)
    and exits 1 exactly when the report did not pass.  ``tables`` carries
    no wall time, so its report is byte-identical across runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        inputs, outputs, lines, passed = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotSPD as exc:
        print(f"not positive definite: {exc}", file=sys.stderr)
        return EXIT_NOT_SPD
    except CanonicalizationFailed as exc:
        print(f"canonicalization failed: {exc} (best residual {exc.residual})",
              file=sys.stderr)
        return EXIT_SOLVER
    except (NilmoduliError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    wall = None if args.command == "tables" else round(time.perf_counter() - t0, 6)
    report = {"schema": SCHEMA, "command": args.command, "inputs": inputs,
              "outputs": outputs, "passed": bool(passed), "wall_time_s": wall}
    if getattr(args, "format", "json") == "text":
        print("\n".join(lines))
    else:
        print(json.dumps(report, sort_keys=True))
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
