"""Compatible almost-Hermitian families and the closed-form Hermitian
(integrable, metric-compatible) structures at canonical metrics.

For h5 and h4 the orientation-compatible almost Hermitian structures come
in two 2-sphere families J1, J2 parameterized by (a, b, c) with
a^2 + b^2 + c^2 = 1; integrability reduces to a quadratic whose solutions
are tabulated case by case (F > 0 / F = 0, position of E/G against alpha^2
or beta^2).  For h6 there are exactly four structures J1+-, J2+-.  For h2
one connected family is treated: one closed form gives its two
structures (one at a corner).  For h9 the unique complex structure J0 is
conjugated into special metric families; a numeric search provides the
existence oracle used for the non-Hermitian family g_{A,B}, B != A.

``hermitian_structures(form)`` answers for every built-in as {branch:
SolutionSet}.  Every returned structure carries one certificate
(``_certify``): its residuals (nijenhuis, compatibility, involution), each
bounded relative to the entries of J and g, at HERMITIAN_RTOL; a miss
raises InvalidForm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .algebra import (
    _PAIRING_J,
    DIM,
    AlmostComplexStructure,
    builtin,
    get_algebra,
    is_abelian_structure,
    nijenhuis_tensor,
)
from .automorphisms import Automorphism
from .errors import InvalidForm, InvalidParams, InvalidTriple
from .linalg import cholesky_lower, max_norm
from .moduli import H9Form, Metric, _require_same_basis, realize

SPHERE_TOL = 1e-12
HERMITIAN_RTOL = 1e-12  # the closed-form certificate, relative to J's and g's entries (_certify)
DEDUPE_TOL = 1e-10  # table triples within this l1 distance (normalized) are one
# h2 triples within this l1 distance are one: at the E = G corner a and c
H2_DEDUPE_TOL = 1e-6  # are ~1e-8 roots, and one ulp of F moves them by ~7e-8
H2_ABELIAN_TOL = 1e-8  # an h2 structure is abelian when max|b(J., J.) - b| is this small


@dataclass(frozen=True)
class SolutionTriple:
    a: float
    b: float
    c: float
    branch: str  # J1 | J2 | J1+ | J1- | J2+ | J2- | J

    def as_array(self):
        return np.array([self.a, self.b, self.c])

    def check_sphere(self):
        err = abs(self.a ** 2 + self.b ** 2 + self.c ** 2 - 1.0)
        if err > SPHERE_TOL:
            raise InvalidTriple(f"a^2+b^2+c^2 deviates from 1 by {err:.3e}")
        return self


@dataclass(frozen=True, eq=False)
class HermitianSolution:
    triple: SolutionTriple
    J: AlmostComplexStructure
    residuals: dict
    abelian: bool | None = None  # decided by h2's solver only; in JSON only when set

    def to_json_dict(self):
        t = self.triple
        out = {"branch": t.branch, "a": t.a, "b": t.b, "c": t.c,
               "J": self.J.matrix.reshape(-1).tolist(), "residuals": dict(self.residuals)}
        if self.abelian is not None:
            out["abelian"] = self.abelian
        return out


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """Finite list of Hermitian structures, a whole 2-sphere, or "open": no
    closed form at this form (``hermitian_search`` is the oracle there).

    ``includes_negatives``: for every member J the partner -J is Hermitian
    as well and is not listed separately.
    """

    branch: str
    kind: str  # "finite" | "sphere" | "open"
    solutions: tuple = ()
    includes_negatives: bool = True

    def to_json_dict(self):
        out = {"branch": self.branch, "kind": self.kind,
               "includes_negatives": self.includes_negatives}
        if self.kind == "finite":
            out["solutions"] = [s.to_json_dict() for s in self.solutions]
        return out


def _wrap(j, label):
    """J wrapped at the certificate's J^2 + I bound."""
    return AlmostComplexStructure(j, label, tol=HERMITIAN_RTOL * max(1.0, max_norm(j)) ** 2)


def _measure(label, js, g):
    """(wrapped J, residuals, scales) of each J of an (n, 6, 6) stack for g:
    max|N_J| (one call for the stack) and max|J^2 + I| (the wrapper's) on the
    scale max(1, max|J|)^2, as their rounding grows as J's entries squared,
    and max|J^T g J - g| on that times max(1, max|g|); scales in check order."""
    nijenhuis = np.abs(nijenhuis_tensor(get_algebra(label), js)).max(axis=(1, 2, 3))
    compatibility = np.abs(js.transpose(0, 2, 1) @ g @ js - g).max(axis=(1, 2))
    j_max = np.abs(js).max(axis=(1, 2))
    g_scale = max(1.0, max_norm(g))
    out = []
    for j, n, c, m in zip(js, nijenhuis.tolist(), compatibility.tolist(), j_max.tolist()):
        acs = AlmostComplexStructure(j, label, tol=math.inf)  # the caller bounds its residual
        scale = max(1.0, m) ** 2
        out.append((acs, {"nijenhuis": n, "compatibility": c, "involution": acs.residual},
                    {"involution": scale, "nijenhuis": scale, "compatibility": scale * g_scale}))
    return out


def _certify(label, js, g, names, error):
    """Each J of an (n, 6, 6) stack, certified Hermitian for g, as pairs
    (wrapped J, residuals).

    A J passes when each of its residuals is at most HERMITIAN_RTOL times
    its scale (``_measure``).  The first residual over its bound, in stack
    order, raises ``error`` naming its J by ``names``."""
    out = []
    for name, (acs, res, scales) in zip(names, _measure(label, js, g)):
        for key, scale in scales.items():
            limit = HERMITIAN_RTOL * scale
            if res[key] > limit:
                raise error(f"{label} {name}: {key} residual {res[key]:.3e} exceeds {limit:.3e}")
        out.append((acs, res))
    return out


def _make_solutions(label, triples, js, g):
    """The HermitianSolution of each triple and its J in the stack ``js``."""
    certified = _certify(label, js, g, [t.branch for t in triples], InvalidForm)
    return [HermitianSolution(t, acs, res) for t, (acs, res) in zip(triples, certified)]


def _dedupe(triples, tol):
    """The triples scaled onto the sphere, without those within ``tol`` (l1)
    of an earlier one."""
    out = []
    for t in triples:
        nrm = math.sqrt(t[0] ** 2 + t[1] ** 2 + t[2] ** 2)
        t = (t[0] / nrm, t[1] / nrm, t[2] / nrm)
        if not any(
            abs(t[0] - u[0]) + abs(t[1] - u[1]) + abs(t[2] - u[2]) <= tol for u in out
        ):
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# h5


def _sphere_family_matrices(r, s, E, F, G, triples):
    """The J1/J2 matrices of the sphere family on diag(1, r, 1, s) +
    [[E,F],[F,G]], one per SolutionTriple (a, b, c, branch), as an (n, 6, 6)
    stack.  The h4 family is this one at r = 1, s = r_h4 and (E, F, G) = (a, b, c)."""
    sr, ss = math.sqrt(r), math.sqrt(s)
    sd = math.sqrt(E * G - F * F)
    js = np.zeros((len(triples), DIM, DIM))
    for j, t in zip(js, triples):
        a, b, c = t.a, t.b, t.c
        # eps = -1 turns J1 into J2: it negates the (e2, e3, e4) block and the (e5, e6) block
        eps = 1.0 if t.branch == "J1" else -1.0
        j[0, 1], j[0, 2], j[0, 3] = -a * sr, -b, -c * ss
        j[1, 0], j[1, 2], j[1, 3] = a / sr, -eps * c / sr, eps * b * ss / sr
        j[2, 0], j[2, 1], j[2, 3] = b, eps * c * sr, -eps * a * ss
        j[3, 0], j[3, 1], j[3, 2] = c / ss, -eps * b * sr / ss, eps * a / ss
        j[4, 4], j[4, 5] = -eps * F / sd, -eps * G / sd
        j[5, 4], j[5, 5] = eps * E / sd, eps * F / sd
    return js


def _sphere_family_J(label, r, s, E, F, G, branch, triple):
    """J1/J2 of the sphere family at the triple (a, b, c)."""
    if branch not in ("J1", "J2"):
        raise ValueError(f"unknown branch {branch!r}")
    a, b, c = triple
    t = SolutionTriple(a, b, c, branch).check_sphere()
    return _wrap(_sphere_family_matrices(r, s, E, F, G, [t])[0], label)


def h5_J(form, branch, triple):
    """Almost Hermitian J1/J2 for the canonical h5 metric (sphere family)."""
    form.validate()
    return _sphere_family_J("h5", form.r, form.s, form.E, form.F, form.G, branch, triple)


def h5_eq42_residual(form, a):
    """Residual of the quadratic a^2 - a*gamma/sqrt(D) + 1 = 0 (J1, F > 0)."""
    alpha = (math.sqrt(form.r) + math.sqrt(form.s)) / (1.0 + math.sqrt(form.r * form.s))
    gamma = form.E / alpha + form.G * alpha
    sd = math.sqrt(form.E * form.G - form.F ** 2)
    return a * a - a * gamma / sd + 1.0


def _table_row_values(E, F, G, w):
    """Stable evaluation of the generic (F > 0) table row.

    With p1 = E/(w sd), p2 = G w / sd and q = p1 + p2, the quadratic
    x^2 - q x + 1 = 0 has small root x, and the two square terms are
    1 - p2 x and 1 - p1 x.  Using q^2 - 4 = (p1 - p2)^2 + 4 F^2 / D keeps
    everything cancellation-free even when q is huge (s very close to r).
    """
    delta = E * G - F * F
    sd = math.sqrt(delta)
    p1 = E / (w * sd)
    p2 = G * w / sd
    q = p1 + p2
    d = p1 - p2
    root = math.sqrt(d * d + 4.0 * F * F / delta)
    denom = q + root
    x = 2.0 / denom
    ff = 4.0 * F * F / delta
    sq1 = (d + root) / denom if d >= 0.0 else ff / ((root - d) * denom)  # 1 - p2 x
    sq2 = (root - d) / denom if d <= 0.0 else ff / ((root + d) * denom)  # 1 - p1 x
    return x, max(sq1, 0.0), max(sq2, 0.0)


def _table_row(E, F, G, w, f0, opposite=False):
    """The two sign choices (x, u, v), (x, -u, -v) of one branch-table row.

    x is the small root of the row's quadratic and u, v are its two square
    terms, in three cases: F != 0, F = 0 with E/G <= w^2, and F = 0 with
    E/G > w^2; ``f0`` says whether the form lies on its F = 0 stratum.  For
    F != 0 the terms share their sign, or have opposite signs when
    ``opposite``; for F = 0 one term vanishes and stays +0.0
    (``tables`` prints the sign of a zero).  The F = 0 rows keep their closed
    forms: routing them through _table_row_values changes their last bits.
    """
    if not f0:
        x, u_sq, v_sq = _table_row_values(E, F, G, w)
        u, v = math.sqrt(u_sq), math.sqrt(v_sq)
        if opposite:
            v = -v
        return [(x, u, v), (x, -u, -v)]
    if E / G <= w * w:
        x = math.sqrt(E) / (math.sqrt(G) * w)
        v = math.sqrt(max(1.0 - E / (G * w * w), 0.0))
        return [(x, 0.0, v), (x, 0.0, -v)]
    x = math.sqrt(G) * w / math.sqrt(E)
    u = math.sqrt(max(1.0 - G * w * w / E, 0.0))
    return [(x, u, 0.0), (x, -u, 0.0)]


def _finite_sets(label, family, rows, g):
    """One finite SolutionSet per branch of ``rows`` (branch -> table triples)
    of the sphere family with parameters ``family`` = (r, s, E, F, G).

    The J of the call are certified as one stack (``_certify``).
    """
    triples = [SolutionTriple(*t, branch)
               for branch, trips in rows.items() for t in _dedupe(trips, DEDUPE_TOL)]
    sols = _make_solutions(label, triples, _sphere_family_matrices(*family, triples), g)
    return {branch: SolutionSet(branch, "finite",
                                tuple(s for s in sols if s.triple.branch == branch))
            for branch in rows}


def h5_hermitian_solutions(form):
    """Hermitian structures on the canonical h5 metric, per branch."""
    g = realize(form).matrix  # validates the form
    r, s, E, F, G = form.r, form.s, form.E, form.F, form.G
    on = form.on_strata()
    alpha = (math.sqrt(r) + math.sqrt(s)) / (1.0 + math.sqrt(r * s))
    rows = {"J1": _table_row(E, F, G, alpha, "F0" in on)}
    if "sr" not in on:
        beta = (math.sqrt(r) - math.sqrt(s)) / (1.0 - math.sqrt(r * s))
        # a = -x; b and c have opposite signs
        rows["J2"] = [(-x, u, v) for x, u, v in _table_row(E, F, G, beta, "F0" in on, opposite=True)]
    elif "r1" not in on:
        rows["J2"] = [(0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
    out = _finite_sets("h5", (r, s, E, F, G), rows, g)
    if "J2" not in out:  # r = s = 1: every J2 is Hermitian
        out["J2"] = SolutionSet("J2", "sphere")
    return out


# ---------------------------------------------------------------------------
# h4


def h4_J(form, branch, triple):
    form.validate()  # commutator block (a, b, c) plays (E, F, G)
    return _sphere_family_J("h4", 1.0, form.r, form.a, form.b, form.c, branch, triple)


def h4_hermitian_solutions(form):
    """Hermitian structures on the canonical h4 metric, per branch.

    The J1 table's c-entry is c^2 = 1 + E b / (alpha sqrt(D)), which is
    what the displayed integrability equations and the sphere constraint
    force (b is negative on this branch).  Both tables read (a, b, c) =
    (u, -x, v) off the shared row.
    """
    g = realize(form).matrix  # validates the form
    r = form.r
    E, F, G = form.a, form.b, form.c
    on = form.on_strata()
    alpha = (1.0 + math.sqrt(r)) / math.sqrt(r)
    rows = {"J1": [(u, -x, v) for x, u, v in _table_row(E, F, G, alpha, "b0" in on)]}
    if "r1" in on:
        rows["J2"] = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]
    else:
        beta = (1.0 - math.sqrt(r)) / math.sqrt(r)
        rows["J2"] = [(u, -x, v) for x, u, v in _table_row(E, F, G, beta, "b0" in on)]
    return _finite_sets("h4", (1.0, r, E, F, G), rows, g)


# ---------------------------------------------------------------------------
# h6


def h6_hermitian_solutions(form):
    """The four Hermitian structures on diag(1,1,1,1,E,G): J1+- in the set
    "J1" and J2+- in "J2"."""
    g = realize(form).matrix  # validates the form
    E, G = form.a, form.b
    alpha = math.sqrt(E / G)
    u = math.sqrt(max(1.0 - alpha * alpha, 0.0))
    branches = (("J1+", 1.0, 1.0), ("J1-", 1.0, -1.0), ("J2+", -1.0, 1.0), ("J2-", -1.0, -1.0))
    js = np.zeros((len(branches), DIM, DIM))
    triples = []
    for j, (tag, eps, sign) in zip(js, branches):
        # eps = -1 turns J1 into J2: it flips e2's row and column and the (e5, e6) block
        j[0, 2], j[0, 3] = sign * u, -alpha
        j[1, 2], j[1, 3] = -eps * alpha, -eps * sign * u
        j[2, 0], j[2, 1] = -sign * u, eps * alpha
        j[3, 0], j[3, 1] = alpha, eps * sign * u
        j[4, 5] = -eps / alpha
        j[5, 4] = eps * alpha
        triples.append(SolutionTriple(alpha, sign * u, 0.0, tag))
    sols = _make_solutions("h6", triples, js, g)
    return {"J1": SolutionSet("J1", "finite", tuple(sols[:2])),
            "J2": SolutionSet("J2", "finite", tuple(sols[2:]))}


# ---------------------------------------------------------------------------
# h2


def _h2_angles(form):
    """alpha, beta, phi = B alpha - A beta, psi and sqrt(EG - F^2) of the
    treated h2 family, free of cancellation (for A <= 0 phi adds two terms >= 0)."""
    A, B = form.a, form.b
    alpha = math.sqrt((1.0 - A) * (1.0 + A))
    beta = math.sqrt((1.0 - B) * (1.0 + B))
    phi = (B - A) * (B + A) / (B * alpha + A * beta) if A > 0.0 else B * alpha - A * beta
    sd = math.sqrt(form.E * form.G - form.F * form.F)
    return alpha, beta, phi, A * B + alpha * beta, sd


def _h2_matrices(form, triples):
    """The J of the treated h2 family, one per SolutionTriple (a, b, c), as
    an (n, 6, 6) stack."""
    A, B = form.a, form.b
    E, F, G = form.E, form.F, form.G
    alpha, beta, phi, psi, sd = _h2_angles(form)
    js = np.zeros((len(triples), DIM, DIM))
    for j, t in zip(js, triples):
        a, b, c = t.a, t.b, t.c
        j[0, 0], j[0, 1], j[0, 2], j[0, 3] = -A * b / alpha, -(a * alpha + A * c) / alpha, -b / alpha, -(a * phi + c * psi) / alpha
        j[1, 0], j[1, 1], j[1, 2], j[1, 3] = (a * beta - B * c) / beta, B * b / beta, -(a * phi + c * psi) / beta, b / beta
        j[2, 0], j[2, 1], j[2, 2], j[2, 3] = b / alpha, c / alpha, A * b / alpha, -(a * beta - B * c) / alpha
        j[3, 0], j[3, 1], j[3, 2], j[3, 3] = c / beta, -b / beta, (a * alpha + A * c) / beta, -B * b / beta
        j[4, 4], j[4, 5] = -F / sd, -G / sd
        j[5, 4], j[5, 5] = E / sd, F / sd
    return js


def h2_J(form, triple):
    """The treated connected component of the compatible family on h2."""
    form.validate()
    t = SolutionTriple(*triple, "J").check_sphere()
    return _wrap(_h2_matrices(form, [t])[0], "h2")


def h2_hermitian_candidates(form):
    """{"J": SolutionSet} of the treated family's Hermitian structures: two
    on every valid form, one where they meet at the E = G, F = -psi E corner.

    With u = sqrt(EG - F^2) / E, v = F / E + psi and s = 1 - a^2, two
    integrability equations read b phi = -s u and c a phi = -s v, and with
    the sphere P s^2 - (1 + P + Q) s + 1 = 0 (P = u^2/phi^2, Q = v^2/phi^2).
    Its root in [0, 1] is s = 2 phi^2 / den, den = phi^2 + u^2 + v^2 + R,
    R = sqrt(X^2 + 4 phi^2 v^2), X = u^2 + v^2 - phi^2: a^2 = (R + X) / den,
    c^2 = (R - X) / den and b = -2 phi u / den.  As R^2 - X^2 = 4 phi^2 v^2,
    the larger of |a|, |c| is sqrt(m / den) (m = R + |X|) and the smaller
    2 |phi v| / sqrt(m den): no sum cancels and nothing divides by phi, so
    a = b and a = 0 are no cases.  den >= u^2 > 0 and den >= 2 phi^2, so
    the root exists on every valid form.  The structures are (a, b, c) with
    a >= 0 and a c of the sign of -phi v (c >= 0 first when v = 0), and
    (-a, b, -c), every zero +0.0.  They are certified at HERMITIAN_RTOL
    (``_certify``), each ``abelian`` when [JX, JY] = [X, Y] within
    H2_ABELIAN_TOL.
    """
    g = realize(form).matrix  # validates the form
    _alpha, _beta, phi, psi, sd = _h2_angles(form)
    u, v = sd / form.E, form.F / form.E + psi
    x = u * u + v * v - phi * phi
    r = math.hypot(x, 2.0 * phi * v)
    den, m = phi * phi + u * u + v * v + r, r + abs(x)
    big = math.sqrt(m / den)
    small = 2.0 * abs(phi * v) / math.sqrt(m * den) if m > 0.0 else 0.0
    a, c = (big, small) if x >= 0.0 else (small, big)
    c = -c if phi * v > 0.0 else c
    b = -2.0 * phi * u / den
    triples = [tuple(z + 0.0 for z in t) for t in ((a, b, c), (-a, b, -c))]
    triples = [SolutionTriple(*t, "J") for t in _dedupe(triples, H2_DEDUPE_TOL)]
    certified = _certify("h2", _h2_matrices(form, triples), g, [t.branch for t in triples],
                         InvalidForm)
    h2 = builtin("h2")
    return {"J": SolutionSet("J", "finite", tuple(
        HermitianSolution(t, acs, res, is_abelian_structure(h2, acs, tol=H2_ABELIAN_TOL))
        for t, (acs, res) in zip(triples, certified)))}


# ---------------------------------------------------------------------------
# h9


def h9_J0():
    """The unique complex structure on h9 (hat basis); abelian."""
    j = np.zeros((DIM, DIM))
    j[1, 0], j[0, 1] = -1.0, 1.0   # J ê1 = -ê2
    j[4, 2], j[2, 4] = 1.0, -1.0   # J ê3 = ê5
    j[5, 3], j[3, 5] = -1.0, 1.0   # J ê4 = -ê6
    return _wrap(j, "h9hat")


def _h9_structures(form):
    """"open": J0's conjugates have closed forms on the Sigma/G' families only."""
    form.validate()
    return {"J0": SolutionSet("J0", "open")}


def h9_sigma_family(which, **params):
    """Special Hermitian families (Sigma1, Sigma2, Sigma3) on h9.

    Returns (Metric, Automorphism phi, J = phi J0 phi^{-1}); the pair
    (metric, J) carries the closed-form certificate (``_certify``: each
    residual relative to the entries of J and g), and InvalidParams names
    the residual over its bound.  Each family is
    G' (``h9_gprime_metric``) at fixed parameters:

      sigma1(A > 0, E):        a63 = A E / sqrt(E^2 + 1)
      sigma2(A > 0, F):        a43 = -F
      sigma3(a11, a44 > 0, A): C = a44 / a11^3
    """
    if which == "sigma1":
        big_a, big_e = params["A"], params["E"]
        if big_a <= 0.0:
            raise InvalidParams("sigma1 requires A > 0")
        w = math.sqrt(big_e ** 2 + 1.0)
        # the root A / w in closed form: recomputed from the rounded a63, the
        # radicand A^2 - a63^2 = A^2 / w^2 cancels and gives another E's metric
        gprime = (1.0, 0.0, 1.0, big_a * big_e / w, big_a, big_a / w)
    elif which == "sigma2":
        big_a, big_f = params["A"], params["F"]
        if big_a <= 0.0:
            raise InvalidParams("sigma2 requires A > 0")
        gprime = (1.0, -big_f, 1.0, 0.0, big_a)
    elif which == "sigma3":
        a11, a44 = params["a11"], params["a44"]
        big_a = params.get("A", 1.0)
        if a11 <= 0.0 or a44 <= 0.0 or big_a <= 0.0:
            raise InvalidParams("sigma3 requires a11, a44, A > 0")
        gprime = (a11, 0.0, a44, 0.0, big_a)
    else:
        raise ValueError(f"unknown family {which!r}")
    form, phi, j = _gprime_pair(*gprime)
    metric = realize(form)
    ((acs, _res),) = _certify("h9hat", j[None], metric.matrix, [which], InvalidParams)
    return metric, Automorphism(phi, "h9hat"), acs


def h9_gprime_metric(a11, a43, a44, a63, A):
    """The four-parameter Hermitian family G' = (G1 x G2) : G3 on h9.

    Returns (H9Form, phi') such that (realize(form), phi' J0 phi'^{-1})
    is a Hermitian pair; requires A^2 a11^10 - a44^2 a63^2 > 0.
    """
    form, phi, j = _gprime_pair(a11, a43, a44, a63, A)
    _certify("h9hat", j[None], realize(form).matrix, ["gprime"], InvalidParams)
    return form, Automorphism(phi, "h9hat")


def _gprime_pair(a11, a43, a44, a63, A, root=None):
    """(form, phi', J = phi' J0 phi'^{-1}) of the G' family, unchecked.

    ``root`` is sqrt(A^2 a11^10 - a44^2 a63^2), given where the caller has
    it in closed form."""
    if a11 <= 0.0 or a44 <= 0.0 or A <= 0.0:
        raise InvalidParams("g' requires a11, a44, A > 0")
    if root is None:
        rad = A ** 2 * a11 ** 10 - a44 ** 2 * a63 ** 2
        if rad <= 0.0:
            raise InvalidParams("g' requires A^2 a11^10 - a44^2 a63^2 > 0")
        root = math.sqrt(rad)
    form = H9Form(
        A=A,
        B=A ** 2 * a11 ** 5 / root,
        C=A * a11 ** 2 * a44 / root,
        D=0.0,
        E=a44 * a63 / root,
        F=-A * a11 ** 3 * a43 / root,
    )
    phi = np.zeros((DIM, DIM))
    phi[0, 0] = phi[1, 1] = a11
    phi[2, 2] = a11 ** 2
    phi[3, 2], phi[3, 3] = a43, a44
    phi[4, 4] = a11 ** 2
    phi[5, 2], phi[5, 5] = a63, a11 ** 3
    return form, phi, phi @ h9_J0().matrix @ np.linalg.inv(phi)


# ---------------------------------------------------------------------------
# every built-in

# each built-in's solver by the form's algebra label, looked up on this module
# at each call, so that a solver patched or wrapped there is the one that runs
_SOLVERS = {"h5": "h5_hermitian_solutions", "h4": "h4_hermitian_solutions",
            "h6": "h6_hermitian_solutions", "h2": "h2_hermitian_candidates",
            "h9hat": "_h9_structures"}


def hermitian_structures(form):
    """{branch: SolutionSet} at a canonical form of any built-in: h5 and h4
    {"J1", "J2"}, h6 {"J1": (J1+, J1-), "J2": (J2+, J2-)}, h2 {"J"} and h9
    {"J0": open}.  A missed certificate raises InvalidForm naming the
    algebra, the branch and the residual."""
    solver = _SOLVERS.get(getattr(form, "algebra", None))
    if solver is None:
        raise InvalidForm(f"unknown form type {type(form).__name__}")
    return globals()[solver](form)


# ---------------------------------------------------------------------------
# numeric existence oracle

SEARCH_TOL = 1e-8  # the Nijenhuis residual at which a start of the oracle succeeds
# calibrated on g_{A,B} with B/A in {0.5, 2} against SEARCH_TOL: over 64
# compatible starts the search never gets below ~0.2, so verdicts are
# separated from the success threshold by seven orders of magnitude
NON_HERMITIAN_RESIDUAL_FLOOR = 1e-3


@dataclass(frozen=True, eq=False)
class SearchResult:
    found: bool
    J: AlmostComplexStructure | None
    residual: float  # least Nijenhuis residual (2-norm of its 90 rows) over the counted starts
    starts_used: int

    def to_json_dict(self):
        return {
            "found": self.found,
            "residual": self.residual,
            "starts_used": self.starts_used,
            "J": None if self.J is None else self.J.matrix.reshape(-1).tolist(),
        }


@functools.cache
def _kernel_layout():
    """Index arrays of the residual kernel; they depend on the dimension only.

    ``nij_*``: flat positions of N[k, i, j], i < j (k-major), in the (i, k, j)
    layout of J^T (b_k J) and the (k, i, j) layout of t2 and of its
    (i, j)-swap.  ``nij_t2`` also reads the 90 coordinates b[k, i, j], i < j,
    of a bracket off its flat (k, i, j) layout.
    """
    iu, ju = np.triu_indices(DIM, 1)
    k, i, j = np.repeat(np.arange(DIM), iu.size), np.tile(iu, DIM), np.tile(ju, DIM)
    d2, d = DIM * DIM, DIM
    layout = SimpleNamespace(
        iu=iu, nij_k=k, nij_i=i, nij_j=j,
        nij_t1=i * d2 + k * d + j, nij_t2=k * d2 + i * d + j, nij_t2s=k * d2 + j * d + i,
    )
    for arr in vars(layout).values():
        arr.flags.writeable = False  # one layout serves every kernel
    return layout


class _ResidualKernel:
    """The 90 Nijenhuis entries N[k, i, j], i < j (k-major) of J for the
    bracket b: the rows on which the oracle decides success.

    ``residual`` takes one 6x6 J or an (n, 6, 6) stack and returns one
    result per J.  A stack makes the same matmul calls for every J, so each
    of its results is bit-identical to that J's own.  The six products
    b_k J, and likewise J^T b_k and J^T (b_k J), are one matmul with the k
    side by side.  b may also be an (m, 6, 6, 6) stack of brackets, given
    with a stack of one J: then the result has one row per bracket
    (``_frame_map`` reads N as a linear map of b that way).
    """

    def __init__(self, b):
        self.b = b
        self.ix = _kernel_layout()
        lead = b.shape[:-3]
        self.b_rows = b.reshape(*lead, DIM * DIM, DIM)  # [(k, i), j]
        self.b_cols = np.ascontiguousarray(np.swapaxes(b, -3, -2)).reshape(*lead, DIM, -1)  # [i, (k, j)]
        self.b_nij = b[..., self.ix.nij_k, self.ix.nij_i, self.ix.nij_j]

    def residual(self, j):
        ix = self.ix
        js = j.reshape(-1, DIM, DIM)
        jt = js.transpose(0, 2, 1)
        jtb, bj = jt @ self.b_cols, self.b_rows @ js  # [i, (k, j)] and [(k, i), j]
        n = len(bj)
        side = (n, DIM, DIM, DIM)
        # t1[k, i, j] = [J e_i, J e_j]_k, in the (i, k, j) layout
        t1 = (jt @ bj.reshape(side).transpose(0, 2, 1, 3).reshape(n, DIM, -1)).reshape(n, -1)
        # t2[k, i, j] = (J [J e_i, e_j])_k; its (i, j)-swap is -(J [e_i, J e_j])_k
        t2 = (js @ jtb.reshape(side).transpose(0, 2, 1, 3).reshape(n, DIM, -1)).reshape(n, -1)
        out = np.subtract(t1.take(ix.nij_t1, axis=1), t2.take(ix.nij_t2, axis=1))
        out += t2.take(ix.nij_t2s, axis=1)
        out -= self.b_nij
        return out if j.ndim == 3 else out[0]


@functools.cache
def _tangent_basis():
    """E_1 .. E_6, an orthonormal (Frobenius) basis of the X in so(6) with
    X J0 = -J0 X, the step directions at every frame.

    E_a is the anticommuting part (X + J0 X J0) / 2 of X = e_i e_j^T - e_j e_i^T,
    for the first pairs i < j whose parts are new: entries 0 and +-1/2.
    For each complex pair of the pairing it covers one 2x2 block and its
    transpose, and the two E_a of a block share no entry."""
    j0 = _PAIRING_J
    basis = []
    for i, j in zip(*np.triu_indices(DIM, 1)):
        s = np.zeros((DIM, DIM))
        s[i, j], s[j, i] = 1.0, -1.0
        x = (s + j0 @ s @ j0) / 2.0
        if x.any() and not any(np.vdot(x, e) != 0.0 for e in basis):
            basis.append(x)
    e = np.stack(basis)
    e.flags.writeable = False
    return e


def _frame_bracket(a, a_inv, b):
    """A^{-1} b(A., A.) of each frame of an (n, 6, 6) stack A, given with
    A^{-1}, as an (n, 6, 6, 6) stack [k, i, j]: three matmuls."""
    n = len(a)
    t = (a_inv @ b.reshape(DIM, -1)).reshape(n, DIM * DIM, DIM) @ a  # [(k, p), j]
    return a.transpose(0, 2, 1)[:, None] @ t.reshape(n, DIM, DIM, DIM)


_FRAME_ROWS = 18  # the frame residual's rows: N_{J0} has rank 18 on the brackets


@functools.cache
def _frame_map():
    """Psi, the fixed 90 x 126 map from the 90 coordinates b[k, i, j], i < j
    (k-major) of a frame bracket to its frame residual r (columns 0 .. 17)
    and r's derivatives along the step directions E_1 .. E_6 (columns
    18 a .. 18 a + 17).

    In a frame the structure is J0, and N_{J0}(b) is linear in b: it is
    ``_ResidualKernel`` at J0 on the 90 unit brackets.  As N(J0 X, Y) =
    N(X, J0 Y) = -J0 N(X, Y) and J0 pairs e_{2p} with e_{2p+1}, the 72
    nonzero rows are +- copies, four each, of the 18 rows N[k, 2p, 2q],
    p < q, which are orthogonal: r is twice these rows, so ||r|| = ||N||.
    A Cayley step Q C(t E) moves the bracket b to C^{-1} b(C., C.), whose
    t-derivative at 0, D_E b = -E b + b(E., .) + b(., E.), is linear in b.
    The entries of E are 0 and +-1/2, so every entry of Psi is exact.
    """
    ix = _kernel_layout()
    c = np.arange(ix.nij_k.size)
    units = np.zeros((c.size, DIM, DIM, DIM))
    units[c, ix.nij_k, ix.nij_i, ix.nij_j] = 1.0
    units[c, ix.nij_k, ix.nij_j, ix.nij_i] = -1.0
    n0 = _ResidualKernel(units).residual(_PAIRING_J[None])  # [coordinate, row]
    r = 2.0 * n0[:, (ix.nij_i % 2 == 0) & (ix.nij_j % 2 == 0)]
    # dr / dtheta_a = r(D_a b) with D_a = -E (x) I (x) I + I (x) E^T (x) I +
    # I (x) I (x) E^T on b[k, i, j]: its block is r put on the coordinates'
    # places (y), acted on by D_a^T (E on each slot in turn, as E^T = -E),
    # then read off as z[k, i, j] - z[k, j, i]
    e = _tangent_basis()
    em, side = e.reshape(-1, DIM), (len(e), DIM, DIM, DIM, _FRAME_ROWS)
    y = np.zeros((DIM ** 3, _FRAME_ROWS))
    y[ix.nij_t2] = r
    y = y.reshape(DIM, DIM, DIM, -1)
    z = (em @ y.reshape(DIM, -1)).reshape(side)
    z += (em @ y.transpose(1, 0, 2, 3).reshape(DIM, -1)).reshape(side).transpose(0, 2, 1, 3, 4)
    z += (em @ y.transpose(2, 0, 1, 3).reshape(DIM, -1)).reshape(side).transpose(0, 2, 3, 1, 4)
    z = z.reshape(len(e), DIM ** 3, -1)
    psi = np.concatenate([r[None], z[:, ix.nij_t2] - z[:, ix.nij_t2s]])
    psi = np.ascontiguousarray(psi.transpose(1, 0, 2)).reshape(c.size, -1)
    psi.flags.writeable = False
    return psi


class _Frames:
    """The g-compatible complex structures J = A J0 A^{-1} of the frames
    A = L^{-T} Q, for g = L L^T (``g_chol``), Q orthogonal and J0 = _PAIRING_J.

    A is g-orthonormal, so each such J has J^2 = -I and J^T g J = g by
    construction, and A^{-1} = Q^T L^T needs no inverse.  In the frame A the
    structure is J0 and the bracket is A^{-1} b(A., A.) = Q^T b_L(Q., Q.),
    b_L = L^T b(L^{-T}., L^{-T}.), and N_J(A x, A y) = A N(x, y) for N the
    Nijenhuis tensor of J0 on that bracket.  The oracle minimizes the frame
    residual of the bracket divided by ||b_L||, which every frame shares
    (Q is orthogonal), so that g and 4^k g give the same bits.  A step of 6 coordinates theta moves Q to Q C(X), where
    X = sum theta_a E_a (``_tangent_basis``) and C(X) = (I - X/2)^{-1} (I + X/2)
    is the Cayley transform.  Every method takes an (n, 6, 6) stack of
    frames and gives each frame the bits it would get alone.
    """

    def __init__(self, g_chol, b):
        self.l_inv_t, self.l_t = np.linalg.inv(g_chol).T, g_chol.T
        b_l = _frame_bracket(self.l_inv_t[None], self.l_t[None], b)[0]
        norm = float(np.linalg.norm(b_l.reshape(-1)[_kernel_layout().nij_t2]))
        self.b_unit = (b_l / norm if norm else b_l).reshape(DIM, -1)  # an abelian b stays 0

    def structures(self, q):
        return self.l_inv_t @ (q @ _PAIRING_J @ q.transpose(0, 2, 1)) @ self.l_t

    def rows(self, q):
        """(n, 7, 18): the frame residual r of each frame (row 0) and its
        derivatives along E_1 .. E_6 (rows 1 .. 6), one gather and one
        matmul by ``_frame_map`` from the frame brackets."""
        b = _frame_bracket(q, q.transpose(0, 2, 1), self.b_unit)
        coords = b.reshape(len(q), 1, -1).take(_kernel_layout().nij_t2, axis=2)
        # a (1, 90) product per frame: one (n, 90) product gives a row other
        # bits than the same row alone
        return (coords @ _frame_map()).reshape(len(q), -1, _FRAME_ROWS)

    @staticmethod
    def retract(q, theta):
        """Q C(X) for each frame and its step theta.

        Each entry of X is 0 or +-theta_a / 2 for one a, so X is exact, and
        X^3 = -(|theta|^2 / 4) X on this subspace, so C(X) is
        I + (X + X^2 / 2) / (1 + |theta|^2 / 16) without a solve."""
        e = _tangent_basis()
        x = (theta @ e.reshape(len(e), -1)).reshape(-1, DIM, DIM)
        c = x @ x
        c *= 0.5
        c += x
        c *= (1.0 / (1.0 + (theta * theta).sum(axis=1) / 16.0))[:, None, None]
        c.reshape(len(c), -1)[:, :: DIM + 1] += 1.0
        return q @ c


def _random_frames(rngs):
    """Random orthogonal frames, one per generator: the Q of the QR
    factorization of a normal 6x6 draw, its R given a positive diagonal."""
    q, r = np.linalg.qr(np.stack([rng.normal(size=(DIM, DIM)) for rng in rngs]))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def _solvable(a, b):
    try:
        np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return False
    return True


SEARCH_MAX_ITER = 60  # LM iterations of one oracle start

# Slots of the search's work queue.  A pass costs a fixed numpy and Python
# overhead (~0.11 ms) plus ~6 us per live start, so more slots spread the
# overhead thinner, but can run more starts past a success.  On perfbench's
# hermitian-search inputs (seeds 5 and 6) an exhausting g_AB verdict takes
# 154 / 102 / 77 passes at 8 / 16 / 32 slots (the same 967 LM iterations),
# ~21 / 17 / 14 ms; the found verdicts never open more than 8 slots under
# the doubling ramp and take ~1.8 ms at each width.
_QUEUE_SLOTS = 32


class _StartQueue:
    """Levenberg-Marquardt from starts 0 .. budget - 1, run in a work queue.

    Each start moves on the g-compatible complex structures (``_Frames``):
    its state is a frame Q and the frame residual r of Q's bracket with its
    18 x 6 Jacobian in the step coordinates theta (``_Frames.rows``).  The
    live starts fill slots 0 .. m-1, one start's state (Q, rows, cost,
    lambda, stall, iteration) per slot.  A pass makes one LM iteration of
    every live start with stacked numpy calls: the 6 x 6 normal matrix and
    the gradient, then up to 25 damping tries, each a batched 6 x 6 solve,
    a Cayley step and the rows of the starts still trying.  A start whose
    frame cost reaches SEARCH_TOL^2 stops once its J's 90 Nijenhuis rows
    in the basis given (``_ResidualKernel``) meet SEARCH_TOL too; success
    and the final cost of every start are decided on those rows.  A start
    that stops frees its slot for the next start in start order.  Start 0
    runs alone and the number of open slots doubles with each start that
    stops, so that a success among the first starts costs little more than
    those starts.
    """

    def __init__(self, kernel, frames, starts, budget):
        self.kernel, self.frames, self.starts, self.budget = kernel, frames, starts, budget
        self.tol2 = SEARCH_TOL * SEARCH_TOL
        self.qs = np.empty((_QUEUE_SLOTS, DIM, DIM))
        self.ps = np.empty((_QUEUE_SLOTS, 1 + len(_tangent_basis()), _FRAME_ROWS))
        self.lam = np.empty(_QUEUE_SLOTS)
        self.owner = []  # start index in each live slot; cost, stall and it run in parallel
        self.cost, self.stall, self.it = [], [], []
        self.final = [None] * budget  # final cost of the rows in the basis given, by start
        self.first_found, self.j_found = budget, None
        self.next_start = self.n_finished = 0
        self.made = []  # (start index, Q, rows, cost) of starts made but not yet taken

    def run(self):
        """The final cost of each start that counts (those up to the first
        success in start order, or all) and the first success's J, or None."""
        while self._take():
            done = self._iterate()
            if True in done:
                self._retire(done)
        return self.final[: self.first_found + 1], self.j_found

    def standard(self, q):
        """The J of each frame and the squared norm of its 90 Nijenhuis rows."""
        js = self.frames.structures(q)
        return js, (self.kernel.residual(js) ** 2).sum(axis=1).tolist()

    def _take(self):
        """Fill free slots with the next starts, made a width at a time;
        whether any start is live."""
        width = min(_QUEUE_SLOTS, 1 << self.n_finished)
        while len(self.owner) < width and self.first_found == self.budget:
            if not self.made:
                ks = range(self.next_start, min(self.next_start + width, self.budget))
                if not ks:
                    break
                self.next_start = ks.stop
                q0 = self.starts(ks)
                p0 = self.frames.rows(q0)
                self.made = list(zip(ks, q0, p0, (p0[:, 0] ** 2).sum(axis=1).tolist()))
            k, q0, p0, c0 = self.made.pop(0)
            s = len(self.owner)
            self.qs[s], self.ps[s], self.lam[s] = q0, p0, 1e-3
            self.owner.append(k)
            self.cost.append(c0)
            self.stall.append(0)
            self.it.append(0)
        return bool(self.owner)

    def _iterate(self):
        """One LM iteration of every live start; which of them stop."""
        qs, ps, lam = self.qs, self.ps, self.lam
        cost, stall, it = self.cost, self.stall, self.it
        m, tol2 = len(self.owner), self.tol2
        jvt = ps[:m, 1:]  # the 18 x 6 Jacobian in theta, transposed: [theta_a, row]
        grad, jtj = jvt @ ps[:m, 0, :, None], jvt @ jvt.transpose(0, 2, 1)
        n = jtj.shape[1]
        scale = np.maximum(jtj.reshape(m, -1)[:, :: n + 1], 1e-12)
        done = [False] * m
        trying = list(range(m))
        for _damp in range(25):
            a = jtj[trying]
            a.reshape(len(trying), -1)[:, :: n + 1] += lam[trying, None] * scale[trying]
            rhs = -grad[trying]
            try:
                steps = np.linalg.solve(a, rhs)
                solved, still = trying, []
            except np.linalg.LinAlgError:  # one singular system fails the stack
                ok = [_solvable(a[i], rhs[i]) for i in range(len(trying))]
                solved = [s for s, good in zip(trying, ok) if good]
                still = [s for s, good in zip(trying, ok) if not good]
                lam[still] *= 10.0
                steps = np.linalg.solve(a[ok], rhs[ok])
            if solved:
                q_new = self.frames.retract(qs[solved], steps[:, :, 0])
                p_new = self.frames.rows(q_new)
                hits = []
                for i, (s, c) in enumerate(zip(solved, (p_new[:, 0] ** 2).sum(axis=1).tolist())):
                    if math.isfinite(c) and c < cost[s]:
                        rel = (cost[s] - c) / max(cost[s], 1e-300)
                        qs[s], ps[s], cost[s] = q_new[i], p_new[i], c
                        lam[s] = max(lam[s] / 3.0, 1e-14)
                        stall[s] = stall[s] + 1 if rel < 1e-8 else 0
                        # stop on a stall, on a plateau far above the
                        # success threshold, or at SEARCH_MAX_ITER; a frame
                        # cost within the threshold triggers the check below
                        done[s] = (stall[s] >= 2 or (it[s] >= 30 and c > 1e-6)
                                   or it[s] + 1 >= SEARCH_MAX_ITER)
                        if c <= tol2:
                            hits.append(s)
                        it[s] += 1
                        continue
                    lam[s] *= 10.0
                    if lam[s] > 1e10:
                        done[s] = True  # damping past 1e10 without a decrease
                    else:
                        still.append(s)
                if hits:  # stop on success of the 90 rows in the basis given
                    for s, c in zip(hits, self.standard(qs[hits])[1]):
                        done[s] = done[s] or c <= tol2
            if not still:
                return done
            trying = still
        for s in trying:
            done[s] = True  # no decrease in 25 damping tries
        return done

    def _retire(self, done):
        """Record the stopped starts' final costs in the basis given and
        close their slots; a success drops the later starts, which never
        count."""
        stopped = [s for s, d in enumerate(done) if d]
        for s, j, c in zip(stopped, *self.standard(self.qs[stopped])):
            k = self.owner[s]
            self.final[k] = c
            self.n_finished += 1
            if c <= self.tol2 and k < self.first_found:
                self.first_found, self.j_found = k, j
        keep = [s for s, stopped in enumerate(done)
                if not stopped and self.owner[s] < self.first_found]
        for state in (self.owner, self.cost, self.stall, self.it):
            state[:] = [state[s] for s in keep]
        for state in (self.qs, self.ps, self.lam):
            state[: len(keep)] = state[keep]


def hermitian_search(alg, metric, budget=64, seed=20210607):
    """Numeric Hermitian-existence oracle.

    Minimizes the Nijenhuis tensor over the g-compatible complex structures
    J = A J0 A^{-1} of the g-orthonormal frames A = L^{-T} Q (g = L L^T,
    Q orthogonal; ``_Frames``), on which J^2 = -I and J^T g J = g hold by
    construction, from ``budget`` random frames Q (deterministic in the
    seed).  In the frame J is J0 and only the bracket moves, so the
    integrability residual is 18 rows linear in the frame bracket.
    Levenberg-Marquardt steps have 6 coordinates and make a Cayley step of
    Q; the rows and their exact derivatives along the 6 tangent directions
    are one fixed 90 x 126 map of the bracket (``_frame_map``).  Success is
    decided in the basis given: a Nijenhuis residual of J (2-norm of its 90
    rows N[k, i, j], i < j, so max|N_J| too) <= SEARCH_TOL.  Failure
    verdicts report the smallest such residual over the starts and never
    claim nonexistence.  ``budget`` must be at least one start.

    The starts run together in a small work queue (see ``_StartQueue``); each
    start does the arithmetic it would do alone, and the verdict is the
    serial one: the first success in start order, ``starts_used`` its index
    + 1, or the best residual over all starts.  Verdicts, residuals and J
    do not depend on the queue, and g and 4^k g give the same verdict, bit
    for bit.

    ``h9`` names h9hat, so for h9 the search runs on h9hat's bracket and a
    J found is an h9hat structure.
    """
    if budget < 1:
        raise InvalidParams(f"search budget must be at least 1 start, got {budget}")
    alg = get_algebra(alg)
    if not isinstance(metric, Metric):
        metric = Metric(alg.label, metric)  # shape, finiteness and NotSPD checks
    _require_same_basis(metric.algebra, alg)
    frames = _Frames(cholesky_lower(metric.matrix), alg.bracket_tensor)

    def starts(ks):
        return _random_frames([np.random.default_rng(seed + k) for k in ks])

    kernel = _ResidualKernel(alg.bracket_tensor)
    costs, j_found = _StartQueue(kernel, frames, starts, budget).run()
    j_out = None
    if j_found is not None:
        j_out = AlmostComplexStructure(j_found, alg.label, tol=10 * SEARCH_TOL)
    return SearchResult(j_found is not None, j_out, float(math.sqrt(min(costs))), len(costs))
