"""The three workloads: seeded input generation, the timed op and its check.

Every op is one user-level call.  Inputs are drawn here from the seed with
the benchmark's own sampling code, before anything is timed, using only the
package's public constructors (the form classes, ``realize``,
``structured_automorphism`` with parameters drawn here, and
``component_representatives``).  Each op's check compares the output with
an independent reference (``reference.py``) rather than trusting the
package's own self-checks.

A workload is a fixed list of ops, one *round*; a run repeats whole rounds.
Calls go through module attributes at call time so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

# imported by run.py after the package path is set up
al = au = mo = hm = cli = None

ALGEBRAS = ("h2", "h4", "h5", "h6", "h9hat")
BOUNDARIES = {
    "h5": ("r1", "sr", "sr1", "F0"),
    "h6": ("ab",),
    "h4": ("r1", "b0"),
    "h2": ("a0", "ab", "F0", "EG"),
    "h9hat": ("zeros",),
}
WITNESS_RTOL = 1e-8  # README: phi^T g_c phi = g at 1e-8 * max|g|
ORBIT_RTOL = 1e-7
HERMITIAN_TOL = 1e-8

# sha256 of `nilmoduli tables` stdout (with its trailing newline) when the
# benchmark was defined; the tables are documented as byte-identical
TABLES_SHA256 = "bf2956cb27a8f82e4b2974b1cadfd41a40690e66c05a15d0f9dcf59d46b068a0"


def bind_package():
    global al, au, mo, hm, cli
    import nilmoduli.algebra as al
    import nilmoduli.automorphisms as au
    import nilmoduli.cli as cli
    import nilmoduli.hermitian as hm
    import nilmoduli.moduli as mo


@dataclass
class Op:
    group: str  # key of the failure breakdown (algebra, family or command)
    call: Callable[[], object]  # the timed user-level call
    check: Callable[[object], str | None]  # None when the output is right


@dataclass
class Workload:
    ops: list  # one round
    digest: str
    warmup: list  # untimed ops run once before timing
    sweep: list = ()  # untimed ops run once after timing, reported apart


def _workload(ops, digest, rng, skip_warmup=(), sweep=()):
    """Shuffle a round and pick the first op of each group as warm-up."""
    order = rng.permutation(len(ops))
    digest.add("order", order)
    ops = [ops[i] for i in order]
    seen, warmup = set(), []
    for op in ops:
        if op.group not in seen and op.group not in skip_warmup:
            seen.add(op.group)
            warmup.append(op)
    return Workload(ops, digest.hexdigest(), warmup, list(sweep))


class Digest:
    """sha256 over the generated inputs, independent of float formatting."""

    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, *items):
        for x in items:
            if isinstance(x, np.ndarray):
                self.h.update(np.ascontiguousarray(x, dtype=float).tobytes())
            elif isinstance(x, (float, int, np.floating)):
                self.h.update(np.float64(x).tobytes())
            elif isinstance(x, dict):
                for k in sorted(x):
                    self.add(k, x[k])
            elif isinstance(x, (list, tuple)):
                for v in x:
                    self.add(v)
            else:
                self.h.update(str(x).encode())
            self.h.update(b"|")

    def hexdigest(self):
        return self.h.hexdigest()


def _rng(seed, workload):
    salt = sum(ord(ch) for ch in workload)
    return np.random.default_rng(np.random.SeedSequence([int(seed), salt]))


# ---------------------------------------------------------------------------
# samplers (own code; no testsupport, no random_automorphism)


def _spd2(rng):
    a = rng.normal(0.0, 1.0, (2, 2))
    return a @ a.T + 0.3 * np.eye(2)


def _gap_pair(rng, low, high, gap):
    """Sorted pair from U(low, high) at least ``gap`` apart."""
    while True:
        x, y = np.sort(rng.uniform(low, high, 2))
        if y - x >= gap:
            return float(x), float(y)


def sample_form_params(label, rng, boundary=None):
    """Parameters of a canonical form, exactly on ``boundary`` when given."""
    if label == "h6":
        a, b = _gap_pair(rng, 0.2, 3.0, 0.05)
        if boundary == "ab":
            b = a
        return {"a": a, "b": b}
    if label == "h4":
        r = 1.0 if boundary == "r1" else float(rng.uniform(0.05, 0.95))
        d = _spd2(rng)
        b = 0.0 if boundary == "b0" else float(abs(d[0, 1]))
        return {"r": r, "a": float(d[0, 0]), "b": b, "c": float(d[1, 1])}
    if label == "h5":
        s, r = _gap_pair(rng, 0.05, 0.95, 0.02)
        d = _spd2(rng)
        e, f, g = float(d[0, 0]), float(abs(d[0, 1])), float(d[1, 1])
        if boundary in ("r1", "sr1"):
            r = 1.0
            s = 1.0 if boundary == "sr1" else s
            f = 0.0
            e, g = min(e, g), max(e, g)
        elif boundary == "sr":
            s = r
        elif boundary == "F0":
            f = 0.0
        return {"r": r, "s": s, "E": e, "F": f, "G": g}
    if label == "h2":
        a, b = _gap_pair(rng, 0.05, 0.9, 0.02)
        e, g = _gap_pair(rng, 0.4, 2.5, 0.05)
        u = float(rng.uniform(-0.9, 0.9))  # F as a share of sqrt(EG)
        if boundary == "a0":
            a, u = 0.0, abs(u)
        elif boundary == "ab":
            a = b
        elif boundary == "F0":
            u = 0.0
        elif boundary == "EG":
            g = e
        return {"a": a, "b": b, "E": e, "F": u * math.sqrt(e * g), "G": g}
    if label == "h9hat":
        big = rng.uniform(0.3, 2.0, 3)
        small = rng.uniform(0.05, 1.5, 3)
        if boundary == "zeros":
            # a non-empty random subset of (D, E, F) is exactly zero
            mask = np.zeros(3, dtype=bool)
            while not mask.any():
                mask = rng.random(3) < 0.5
            small[mask] = 0.0
        return dict(zip("ABCDEF", map(float, (*big, *small))))
    raise KeyError(label)


FORM_CLASS_NAMES = {"h2": "H2Form", "h4": "H4Form", "h5": "H5Form", "h6": "H6Form",
                    "h9hat": "H9Form"}


def make_form(label, params):
    return getattr(mo, FORM_CLASS_NAMES[label])(**params)


def _gl2(rng):
    while True:
        a = rng.normal(0.0, 1.0, (2, 2))
        if np.linalg.det(a) >= 0.15:
            return tuple(map(tuple, a))


def _unif(rng, shape, low=-1.0, high=1.0):
    return tuple(map(tuple, rng.uniform(low, high, shape)))


def sample_automorphism_params(label, rng):
    """Theorem-form parameters of an identity-component automorphism."""
    if label == "h6":
        return au.H6Params(
            r=float(rng.uniform(0.4, 1.6)), s=float(rng.uniform(0.4, 1.6)),
            z=float(rng.uniform(-1, 1)), x=tuple(rng.uniform(-1, 1, 2)),
            y=tuple(rng.uniform(-1, 1, 2)), At=_gl2(rng), M=_unif(rng, (2, 4)))
    if label == "h4":
        return au.H4Params(A=_gl2(rng), B=_unif(rng, (2, 2)),
                           x=float(rng.uniform(0.4, 1.6)), M=_unif(rng, (2, 4)))
    if label == "h5":
        while True:
            z = rng.normal(0.0, 0.8, 8)
            z1, z2, z3, z4 = (complex(z[2 * i], z[2 * i + 1]) for i in range(4))
            if abs(z1 * z4 - z2 * z3) >= 0.15:
                break
        return au.H5Params(z1=z1, z2=z2, z3=z3, z4=z4, M=_unif(rng, (2, 4)))
    if label == "h2":
        return au.H2Params(A=_gl2(rng), B=_gl2(rng), M1=_unif(rng, (2, 2)),
                           M2=_unif(rng, (2, 2)))
    if label == "h9hat":
        names = ("a21", "a31", "a32", "a41", "a42", "a43",
                 "a51", "a52", "a61", "a62", "a63", "a64")
        vals = {k: float(v) for k, v in zip(names, rng.uniform(-0.9, 0.9, len(names)))}
        a11, a22, a44 = rng.uniform(0.5, 1.4, 3)
        return au.H9Params(a11=float(a11), a22=float(a22), a44=float(a44), **vals)
    raise KeyError(label)


def sample_automorphism(label, rng):
    """A random automorphism from a random connected component."""
    base = au.structured_automorphism(label, sample_automorphism_params(label, rng)).matrix
    reps = au.component_representatives(label)
    return reps[int(rng.integers(len(reps)))].matrix @ base


def orbit_metric(label, params, rng):
    """phi^T realize(form) phi for a random automorphism phi."""
    phi = sample_automorphism(label, rng)
    g = phi.T @ mo.realize(make_form(label, params)).matrix @ phi
    return 0.5 * (g + g.T)


# ---------------------------------------------------------------------------
# output checks


def check_canonical(label, g, p, w, ref_params=None):
    """Independent checks of a canonical form ``p`` and witness ``w`` for g."""
    if not ref.in_canonical_slice(label, p):
        return "form_outside_slice"
    residual = ref.max_abs(w.T @ ref.canonical_matrix(label, p) @ w - g)
    if not residual <= WITNESS_RTOL * ref.max_abs(g):
        return "witness_bound"
    scale = max(ref.max_abs(w), ref.max_abs(w) ** 2)
    if not ref.bracket_defect(ref.bracket_tensor(label), w) <= 1e-9 * scale:
        return "witness_not_automorphism"
    if ref_params is not None:
        got = np.array([p[k] for k in ref.FORM_PARAMS[label]])
        want = np.array([ref_params[k] for k in ref.FORM_PARAMS[label]])
        if not ref.max_abs(got - want) <= ORBIT_RTOL * ref.max_abs(want):
            return "orbit_invariance"
    return None


# ---------------------------------------------------------------------------
# canonicalize-orbits


def build_canonicalize_orbits(seed, size="full"):
    """Orbit metrics phi^T realize(form) phi for all five algebras.

    Per algebra: ``n_forms`` forms, one in five exactly on a case boundary
    (the strata cycle), four automorphisms per form in the timed round.
    The scale sweep adds one op per form, c * phi^T realize(form) phi with
    c log-uniform on [1e-8, 1e8]: the open scale defect (ROADMAP) makes
    some of these fail, so they run once, untimed, after the timed rounds
    and are reported with their own failure breakdown.
    """
    rng = _rng(seed, "canonicalize-orbits")
    n_forms = 100 if size == "full" else 5
    digest = Digest()
    ops, sweep = [], []
    for label in ALGEBRAS:
        strata = BOUNDARIES[label]
        for i in range(n_forms):
            boundary = strata[(i // 5) % len(strata)] if i % 5 == 4 else None
            params = sample_form_params(label, rng, boundary)
            g_form = mo.realize(make_form(label, params)).matrix
            unit_ref = orbit_reference(label, g_form)
            scales = (1.0, 1.0, 1.0, 1.0, float(10.0 ** rng.uniform(-8.0, 8.0)))
            for k, c in enumerate(scales):
                phi = sample_automorphism(label, rng)
                g = c * (phi.T @ g_form @ phi)
                g = 0.5 * (g + g.T)
                digest.add(label, params, c, phi, g)
                if k < 4:
                    ops.append(_canonicalize_op(label, g, unit_ref))
                else:
                    sweep.append(_canonicalize_op(label, g, orbit_reference(label, c * g_form)))
    return _workload(ops, digest, rng, sweep=sweep)


def orbit_reference(label, g_unpulled):
    """Canonical parameters of the unpulled metric (None if that raises)."""
    try:
        form, _witness = mo.canonicalize(label, mo.Metric(label, g_unpulled))
    except Exception:  # the reference itself failed; ops on its orbit cannot pass
        return None
    return {k: float(v) for k, v in form.params().items()}


def _canonicalize_op(label, g, ref_params):
    def call():
        return mo.canonicalize(label, mo.Metric(label, g))

    def check(result):
        if ref_params is None:
            return "orbit_reference_raised"
        form, witness = result
        p = {k: float(v) for k, v in form.params().items()}
        return check_canonical(label, g, p, witness.automorphism.matrix, ref_params)

    return Op(label, call, check)


# ---------------------------------------------------------------------------
# hermitian-search


def _strata(rng, low, high, n):
    """One uniform draw in each of n equal-width strata of [low, high]."""
    width = (high - low) / n
    return [float(low + width * (i + rng.random())) for i in range(n)]


def h9_form(A, B, C, D=0.0, E=0.0, F=0.0):
    return {"A": float(A), "B": float(B), "C": float(C), "D": float(D), "E": float(E), "F": float(F)}


def h9_family_forms(rng, family, n):
    """h9hat forms of the families known to be Hermitian: g_AA (criterion 9),
    sigma1-3 and G' (criterion 10)."""
    out = []
    if family == "gAA":  # diag(1, 1, a^2, 1, a^2, 1)
        out = [h9_form(a, a, 1.0) for a in _strata(rng, 0.5, 2.0, n)]
    elif family == "sigma1":
        for big_a, e in zip(_strata(rng, 0.3, 2.0, n), rng.permutation(_strata(rng, -2.0, 2.0, n))):
            w = math.sqrt(e * e + 1.0)
            out.append(h9_form(big_a, big_a * w, w, E=e))
    elif family == "sigma2":
        for big_a, f in zip(_strata(rng, 0.3, 2.0, n), rng.permutation(_strata(rng, -2.0, 2.0, n))):
            out.append(h9_form(big_a, big_a, 1.0, F=f))
    elif family == "sigma3":
        for a11, a44, big_a in zip(_strata(rng, 0.3, 2.0, n), rng.permutation(_strata(rng, 0.3, 2.0, n)),
                                   rng.permutation(_strata(rng, 0.3, 2.0, n))):
            out.append(h9_form(big_a, big_a, a44 / a11 ** 3))
    elif family == "gprime":
        while len(out) < n:
            a11, a44 = rng.uniform(0.5, 1.5, 2)
            a43, a63 = rng.uniform(-0.8, 0.8, 2)
            big_a = float(rng.uniform(1.0, 3.0))
            rad = big_a ** 2 * a11 ** 10 - a44 ** 2 * a63 ** 2
            if rad <= 0.01:
                continue
            root = math.sqrt(rad)
            out.append(h9_form(big_a, big_a ** 2 * a11 ** 5 / root, big_a * a11 ** 2 * a44 / root,
                               E=a44 * a63 / root, F=-big_a * a11 ** 3 * a43 / root))
    else:
        raise KeyError(family)
    return out


# Per round: 26 exhausting verdicts and 14 found verdicts.  The exhausting
# verdicts sit on a fixed grid, the midpoints of thirteen equal strata of
# criterion 9's range a in [0.5, 2], for each ratio: their cost varies by a
# factor of two with a, and across seeds that would swamp every other
# signal.  The found verdicts (1-6 starts, 8-400 ms) are drawn from the seed;
# their costs vary too much between draws for a median to settle on them,
# so the median (rank 20 of 40) and p75 (rank 30, the highest percentile
# with ten samples beyond it) both fall among the exhausting verdicts, at
# their 6th and 16th fastest, where neighbouring costs are close together.
EXHAUST_GRID = {"full": tuple(0.5 + 1.5 * (i + 0.5) / 13 for i in range(13)), "tiny": (1.125,)}
FOUND_MIX = {
    "full": {"gAA": 2, "sigma1": 2, "sigma2": 2, "sigma3": 2, "gprime": 2,
             "h5": 2, "h4": 1, "h6": 1},
    "tiny": {"gAA": 1, "h6": 1},
}


def build_hermitian_search(seed, size="full"):
    """Oracle verdicts: g_AB (none found) and known-Hermitian metrics (found)."""
    rng = _rng(seed, "hermitian-search")
    digest = Digest()
    ops = []
    for ratio in (0.5, 2.0):
        for a in EXHAUST_GRID[size]:
            # g_AB = diag(1, 1, a^2, 1, b^2, 1) with b = ratio * a
            g = mo.realize(make_form("h9hat", h9_form(a, ratio * a, 1.0))).matrix
            digest.add("gAB", ratio, g)
            ops.append(_search_op(f"gAB{ratio:g}", "h9hat", g, expect_found=False))
    for family, n in FOUND_MIX[size].items():
        if family in ("h5", "h4", "h6"):
            label, forms = family, [sample_form_params(family, rng) for _ in range(n)]
        else:
            label, forms = "h9hat", h9_family_forms(rng, family, n)
        for params in forms:
            g = mo.realize(make_form(label, params)).matrix
            digest.add(family, g)
            ops.append(_search_op(family, label, g, expect_found=True))
    # exhausting verdicts share the found verdicts' code path; they are not
    # worth seconds of warm-up
    return _workload(ops, digest, rng, skip_warmup=("gAB0.5", "gAB2"))


def _search_op(group, label, g, expect_found):
    def call():
        return hm.hermitian_search(label, mo.Metric(label, g), budget=64)

    def check(res):
        if not expect_found:
            if res.found:
                return "found_on_non_hermitian"
            if not res.residual >= hm.NON_HERMITIAN_RESIDUAL_FLOOR:
                return "residual_below_floor"
            return None
        if not res.found or res.J is None:
            return "not_found"
        j = np.asarray(res.J.matrix, dtype=float)
        if not ref.max_abs(j @ j + np.eye(6)) <= HERMITIAN_TOL:
            return "involution"
        if not al.nijenhuis_residual(al.get_algebra(label), j, tol=HERMITIAN_TOL) <= HERMITIAN_TOL:
            return "nijenhuis"
        if not ref.max_abs(j.T @ g @ j - g) <= HERMITIAN_TOL:
            return "compatibility"
        return None

    return Op(group, call, check)


# ---------------------------------------------------------------------------
# cli-reports

# the case-table rows of the isometry classification: (algebra, form,
# group name, continuous dimension, component count)
ISOMETRY_ROWS = [
    ("h5", {"r": 0.5, "s": 0.3, "E": 1.0, "F": 0.1, "G": 2.0}, "Z2 x Z2", 0, 4),
    ("h5", {"r": 0.5, "s": 0.3, "E": 1.0, "F": 0.0, "G": 2.0}, "Z2 x Z2 x Z2", 0, 8),
    ("h5", {"r": 1.0, "s": 0.3, "E": 1.0, "F": 0.1, "G": 2.0}, "Z2 x Z2", 0, 4),
    ("h5", {"r": 1.0, "s": 0.3, "E": 1.0, "F": 0.0, "G": 2.0}, "Z2 x Z2 x Z2", 0, 8),
    ("h5", {"r": 1.0, "s": 0.3, "E": 1.5, "F": 0.0, "G": 1.5}, "O(2)", 1, 2),
    ("h5", {"r": 0.6, "s": 0.6, "E": 1.0, "F": 0.1, "G": 2.0}, "O(2)", 1, 2),
    ("h5", {"r": 0.6, "s": 0.6, "E": 1.0, "F": 0.0, "G": 2.0}, "O(2) x Z2", 1, 4),
    ("h5", {"r": 1.0, "s": 1.0, "E": 1.0, "F": 0.1, "G": 2.0}, "SU(2) : Z2", 3, 2),
    ("h5", {"r": 1.0, "s": 1.0, "E": 1.0, "F": 0.0, "G": 2.0}, "(SU(2) : Z2) : Z2", 3, 4),
    ("h5", {"r": 1.0, "s": 1.0, "E": 1.5, "F": 0.0, "G": 1.5}, "U(2) : Z2", 4, 2),
    ("h6", {"a": 2.0, "b": 2.0}, "O(2) x Z2 x Z2", 1, 8),
    ("h6", {"a": 2.0, "b": 3.0}, "Z2 x Z2 x Z2", 0, 8),
    ("h4", {"r": 1.0, "a": 1.2, "b": 0.0, "c": 0.7}, "O(2) : Z2", 1, 4),
    ("h4", {"r": 1.0, "a": 1.2, "b": 0.3, "c": 0.7}, "O(2)", 1, 2),
    ("h4", {"r": 0.5, "a": 1.2, "b": 0.0, "c": 0.7}, "Z2 x Z2", 0, 4),
    ("h4", {"r": 0.5, "a": 1.2, "b": 0.3, "c": 0.7}, "Z2", 0, 2),
    ("h2", {"a": 0.0, "b": 0.0, "E": 1.5, "F": 0.0, "G": 1.5}, "(O(2) x O(2)) : Z2", 2, 8),
    ("h2", {"a": 0.0, "b": 0.0, "E": 1.0, "F": 0.0, "G": 2.0}, "O(2) x O(2)", 2, 4),
    ("h2", {"a": 0.0, "b": 0.0, "E": 1.5, "F": 0.4, "G": 1.5}, "S(O(2) x O(2)) : Z2", 2, 4),
    ("h2", {"a": 0.0, "b": 0.0, "E": 1.0, "F": 0.4, "G": 2.0}, "S(O(2) x O(2))", 2, 2),
    ("h2", {"a": 0.4, "b": 0.4, "E": 1.5, "F": 0.2, "G": 1.5}, "diag(O(2) x O(2)) : Z2", 1, 4),
    ("h2", {"a": 0.4, "b": 0.4, "E": 1.0, "F": 0.2, "G": 2.0}, "diag(O(2) x O(2))", 1, 2),
    ("h2", {"a": 0.2, "b": 0.6, "E": 1.5, "F": 0.3, "G": 1.5}, "D4", 0, 8),
    ("h2", {"a": 0.2, "b": 0.6, "E": 1.0, "F": 0.3, "G": 2.0}, "Z2 x Z2", 0, 4),
    ("h9hat", {"A": 1.2, "B": 0.8, "C": 1.5, "D": 0.3, "E": 0.7, "F": 0.4}, "trivial", 0, 1),
    ("h9hat", {"A": 1.2, "B": 0.8, "C": 1.5, "D": 0.0, "E": 0.7, "F": 0.4}, "Z2", 0, 2),
    ("h9hat", {"A": 1.2, "B": 0.8, "C": 1.5, "D": 0.0, "E": 0.0, "F": 0.4}, "Z2 x Z2", 0, 4),
    ("h9hat", {"A": 1.2, "B": 0.8, "C": 1.5, "D": 0.0, "E": 0.0, "F": 0.0}, "Z2 x Z2 x Z2", 0, 8),
]

# describe: (derivation dimension, nilpotency step, component count)
DESCRIBE_FACTS = {
    "h2": (16, 2, 8), "h4": (17, 2, 4), "h5": (16, 2, 2), "h6": (19, 2, 8),
    "h9": (15, 3, 8), "h9hat": (15, 3, 8),
}

CLI_MIX = {
    "full": {"random_isometry_per_algebra": 2, "hermitian_per_algebra": 4,
             "canonicalize_per_algebra": 4, "case_rows": None, "describe": tuple(DESCRIBE_FACTS),
             "tables": 2},
    "tiny": {"random_isometry_per_algebra": 0, "hermitian_per_algebra": 1,
             "canonicalize_per_algebra": 0, "case_rows": 2, "describe": ("h5",), "tables": 1},
}


def run_cli(argv):
    """One in-process ``nilmoduli`` invocation with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_of(code, stdout):
    """The parsed JSON report, or the name of the check that failed."""
    if code != 0:
        return None, f"exit_{code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return None, "stdout_not_json"
    if report.get("schema") != "nilmoduli/1":
        return None, "schema"
    if report.get("passed") is not True:
        return None, "not_passed"
    return report, None


def build_cli_reports(seed, size="full"):
    """A seeded mix of the CLI commands, each an in-process main(argv)."""
    rng = _rng(seed, "cli-reports")
    mix = CLI_MIX[size]
    digest = Digest()
    ops = []

    def add(group, argv, check):
        digest.add(argv)
        ops.append(Op(group, lambda: run_cli(argv), check))

    for name in mix["describe"]:
        add("describe", ["describe", name], _describe_check(name))
    for label, params, *expected in ISOMETRY_ROWS[: mix["case_rows"]]:
        add("isometry", _isometry_argv(label, params), _isometry_check(tuple(expected)))
    for label in ALGEBRAS:
        for _ in range(mix["random_isometry_per_algebra"]):
            add("isometry", _isometry_argv(label, sample_form_params(label, rng)),
                _isometry_check(None))
    for label in ("h5", "h4", "h6", "h2"):
        for _ in range(mix["hermitian_per_algebra"]):
            argv = ["hermitian", "--algebra", label,
                    "--form", json.dumps(sample_form_params(label, rng))]
            add("hermitian", argv, _plain_check)
    for label in ALGEBRAS:
        for _ in range(mix["canonicalize_per_algebra"]):
            g = orbit_metric(label, sample_form_params(label, rng), rng)
            argv = ["canonicalize", "--metric",
                    json.dumps({"algebra": label, "matrix": g.tolist()})]
            add("canonicalize", argv, _canonicalize_cli_check(label, g))
    # two `tables` calls per round put p99 near the middle of their cluster
    for _ in range(mix["tables"]):
        add("tables", ["tables"], _tables_check)
    return _workload(ops, digest, rng)


def _isometry_argv(label, params):
    return ["isometry", "--algebra", label, "--form", json.dumps(params)]


def _describe_check(name):
    der, step, comps = DESCRIBE_FACTS[name]

    def check(result):
        report, why = _report_of(*result)
        if why:
            return why
        out = report["outputs"]
        if (out["derivation_dimension"], out["nilpotency_step"], out["component_count"]) != (der, step, comps):
            return "describe_facts"
        return None

    return check


def _isometry_check(expected):
    """``expected``: (group name, continuous dimension, component count), or None."""
    def check(result):
        report, why = _report_of(*result)
        if why or expected is None:
            return why
        d = report["outputs"]["descriptor"]
        if (d["name"], d["continuous_dim"], d["component_count"]) != expected:
            return "case_table_row"
        return None

    return check


def _plain_check(result):
    return _report_of(*result)[1]


def _canonicalize_cli_check(label, g):
    def check(result):
        report, why = _report_of(*result)
        if why:
            return why
        out = report["outputs"]
        params = {k: float(out["form"][k]) for k in ref.FORM_PARAMS[label]}
        w = np.asarray(out["witness"]["automorphism"]["matrix"], dtype=float).reshape(6, 6)
        return check_canonical(label, g, params, w)

    return check


def _tables_check(result):
    code, stdout = result
    if code != 0:
        return f"exit_{code}"
    if hashlib.sha256(stdout.encode()).hexdigest() != TABLES_SHA256:
        return "tables_digest"
    return _report_of(code, stdout)[1]


BUILDERS = {
    "canonicalize-orbits": build_canonicalize_orbits,
    "hermitian-search": build_hermitian_search,
    "cli-reports": build_cli_reports,
}


def cold_start_payload(name):
    """Fixed inputs (independent of the run's seed) for one cold start."""
    rng = _rng(0, "cold-start")
    if name == "canonicalize-orbits":
        items = []
        for label in ALGEBRAS:
            g = orbit_metric(label, sample_form_params(label, rng), rng)
            items.append({"label": label, "matrix": g.tolist()})
        return {"kind": "canonicalize", "items": items}
    if name == "hermitian-search":
        forms = [("h9hat", h9_form(1.2, 1.2, 1.0))]  # g_AA, found at the first start
        forms += [(label, sample_form_params(label, rng)) for label in ("h5", "h4", "h6")]
        items = [{"label": label, "matrix": mo.realize(make_form(label, p)).matrix.tolist()}
                 for label, p in forms]
        return {"kind": "search", "items": items}
    if name == "cli-reports":
        label, params = ISOMETRY_ROWS[0][:2]
        g = orbit_metric("h6", sample_form_params("h6", rng), rng)
        items = [
            ["describe", "h5"],
            _isometry_argv(label, params),
            ["hermitian", "--algebra", label, "--form", json.dumps(params)],
            ["canonicalize", "--metric", json.dumps({"algebra": "h6", "matrix": g.tolist()})],
            ["tables"],
        ]
        return {"kind": "cli", "items": items}
    raise KeyError(name)
