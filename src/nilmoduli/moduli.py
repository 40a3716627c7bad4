"""Canonicalization of inner products to unique moduli representatives,
with automorphism witnesses, and isometry-group classification.

Canonical shapes (working bases; hat basis for h9):

  h5:  diag(1, r, 1, s) + [[E,F],[F,G]],  0 < s <= r <= 1, F >= 0
  h6:  diag(1, 1, 1, 1, a, b),            0 < a <= b
  h4:  diag(1, 1, 1, r) + [[a,b],[b,c]],  0 < r <= 1, b >= 0
  h2:  eq-coupled 4x4 (a, b) + [[E,F],[F,G]], 0 <= a <= b < 1
  h9:  the Gram matrix of the triangular slice (A,B,C,D,E,F), A,B,C > 0

Where the source material's slice is not actually a slice of the full
automorphism action, canonicalize() normalizes further (and these are the
representatives all orbit tests use):

  * h9: D, E, F >= 0 (non-identity components flip their signs freely);
  * h2: E <= G always (the factor-swap automorphism exchanges E and G at
    fixed (a,b)); F >= 0 only when a = 0, where the per-factor reflections
    decouple -- for a > 0 the sign of F is an orbit invariant;
  * h5 at r = 1: F = 0 and E <= G (the isotropy rotates the commutator
    block by arbitrary elements of SO(2)).

Every canonicalization returns a Witness phi with
phi^T realize(form) phi = g, enforced at 1e-8 * max|g| as a postcondition.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import automorphisms as auts
from .algebra import _PAIRING_J, DIM, get_algebra, require_same_algebra
from .automorphisms import (
    Automorphism,
    H2Params,
    H4Params,
    H5Params,
    H6Params,
    H9Params,
    structured_automorphism,
)
from .errors import CanonicalizationFailed, InvalidForm, NotSPD, Unsupported
from .linalg import (
    cholesky_lower,
    max_norm,
    null_space,
    reverse_cholesky_lower,
    sym_eig2,
    svd2,
    symmetrize,
    takagi2,
)

EQ_RTOL = 1e-9  # relative tolerance for parameter (in)equality branching
WITNESS_RTOL = 1e-8
SNAP = 1e-12


@dataclass(frozen=True, eq=False)
class Metric:
    """SPD coefficient matrix of an inner product in the working basis."""

    algebra: str
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (DIM, DIM):
            raise InvalidForm(f"metric matrix must be {DIM}x{DIM}, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidForm("metric matrix has non-finite entries (NaN or inf)")
        m = symmetrize(m)
        cholesky_lower(m)  # raises NotSPD
        object.__setattr__(self, "matrix", m)

    def to_json_dict(self):
        return {"algebra": self.algebra, "matrix": [[float(v) for v in r] for r in self.matrix]}


@dataclass(frozen=True, eq=False)
class Witness:
    """phi pulls the canonical metric back to the input: phi^T g_c phi = g."""

    automorphism: Automorphism
    residual: float

    def to_json_dict(self):
        return {
            "automorphism": self.automorphism.to_json_dict(),
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# canonical forms


class _FormBase:
    algebra = "custom"

    def params(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json_dict(self):
        d = {"tag": self.algebra}
        d.update({k: float(v) for k, v in self.params().items()})
        return d

    def param_vector(self):
        return np.array(list(self.params().values()), dtype=float)


def _check(cond, message):
    if not cond:
        raise InvalidForm(message)


@dataclass(frozen=True)
class H5Form(_FormBase):
    r: float
    s: float
    E: float
    F: float
    G: float
    algebra = "h5"

    def validate(self, tol=SNAP):
        _check(0.0 < self.s <= self.r * (1 + tol), "h5 requires 0 < s <= r")
        _check(self.r <= 1.0 + tol, "h5 requires r <= 1")
        _check(self.F >= -tol, "h5 requires F >= 0")
        _check(self.E * self.G - self.F ** 2 > 0.0, "h5 requires EG - F^2 > 0")
        return self


@dataclass(frozen=True)
class H6Form(_FormBase):
    a: float
    b: float
    algebra = "h6"

    def validate(self, tol=SNAP):
        _check(0.0 < self.a <= self.b * (1 + tol), "h6 requires 0 < a <= b")
        return self


@dataclass(frozen=True)
class H4Form(_FormBase):
    r: float
    a: float
    b: float
    c: float
    algebra = "h4"

    def validate(self, tol=SNAP):
        _check(0.0 < self.r <= 1.0 + tol, "h4 requires 0 < r <= 1")
        _check(self.a >= 0.0 and self.c >= 0.0, "h4 requires a, c >= 0")
        _check(self.b >= -tol, "h4 requires b >= 0")
        _check(self.a * self.c - self.b ** 2 > 0.0, "h4 requires ac - b^2 > 0")
        return self


@dataclass(frozen=True)
class H2Form(_FormBase):
    a: float
    b: float
    E: float
    F: float
    G: float
    algebra = "h2"

    def validate(self, tol=SNAP):
        _check(-tol <= self.a <= self.b * (1 + tol), "h2 requires 0 <= a <= b")
        _check(self.b < 1.0, "h2 requires b < 1")
        _check(self.E > 0.0 and self.G > 0.0, "h2 requires E, G > 0")
        # the sign of F is an orbit invariant when a > 0, so both signs
        # are admissible here (the source normal form overstates F >= 0)
        _check(self.E * self.G - self.F ** 2 > 0.0, "h2 requires EG - F^2 > 0")
        return self


@dataclass(frozen=True)
class H9Form(_FormBase):
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    algebra = "h9hat"

    def validate(self, tol=SNAP):
        _check(self.A > 0.0 and self.B > 0.0 and self.C > 0.0, "h9 requires A, B, C > 0")
        return self


def form_from_dict(data):
    if not isinstance(data, dict):
        raise InvalidForm(f"a form must be an object of its parameters, got {data!r:.40}")
    tag = data.get("tag")
    if tag not in FORM_TYPES:
        raise InvalidForm(f"unknown form tag {tag!r}")
    names = [f.name for f in fields(FORM_TYPES[tag])]
    missing = [name for name in names if name not in data]
    if missing:
        raise InvalidForm(f"{tag} form needs {', '.join(names)}; missing {', '.join(missing)}")
    # JSON true/false and numeric strings are not numbers, although float() takes them
    bad = [name for name in names
           if isinstance(data[name], bool) or not isinstance(data[name], numbers.Real)]
    if bad:
        raise InvalidForm(f"{tag} form parameters must be numbers, got "
                          + ", ".join(f"{name}={data[name]!r}" for name in bad))
    return FORM_TYPES[tag](**{name: float(data[name]) for name in names}).validate()


def _form_type_of(form):
    ft = _FORM_TYPES.get(getattr(form, "algebra", None))
    if ft is None or not isinstance(form, ft.form):
        raise InvalidForm(f"unknown form type {type(form).__name__}")
    return ft


def _hat_label(label):
    """The label whose basis the canonical forms use: h9 -> h9hat, others unchanged."""
    ft = _FORM_TYPES.get(label)
    return label if ft is None else ft.form.algebra


def _hat_algebra(alg):
    """The algebra whose bracket acts in the basis metrics are read in:
    h9 -> h9hat, any other algebra (custom ones included) unchanged."""
    alg = get_algebra(alg)
    return alg if _hat_label(alg.label) == alg.label else get_algebra(_hat_label(alg.label))


def _require_same_basis(label_a, label_b):
    """AlgebraMismatch unless both labels name one algebra; h9 and h9hat
    count as one, since both read metrics in the hat basis."""
    if _hat_label(label_a) != _hat_label(label_b):
        require_same_algebra(label_a, label_b)


def realize(form):
    """Exact metric matrix of a canonical form (see module docstring)."""
    form.validate()
    return Metric(form.algebra, _form_type_of(form).matrix(form))


def _matrix_h5(form):
    g = np.eye(DIM)
    g[1, 1] = form.r
    g[3, 3] = form.s
    g[4, 4], g[5, 5] = form.E, form.G
    g[4, 5] = g[5, 4] = form.F
    return g


def _matrix_h6(form):
    g = np.eye(DIM)
    g[4, 4], g[5, 5] = form.a, form.b
    return g


def _matrix_h4(form):
    g = np.eye(DIM)
    g[3, 3] = form.r
    g[4, 4], g[5, 5] = form.a, form.c
    g[4, 5] = g[5, 4] = form.b
    return g


def _matrix_h2(form):
    g = np.eye(DIM)
    g[0, 2] = g[2, 0] = form.a
    g[1, 3] = g[3, 1] = form.b
    g[4, 4], g[5, 5] = form.E, form.G
    g[4, 5] = g[5, 4] = form.F
    return g


def _matrix_h9(form):
    A, B, C, D, E, F = form.A, form.B, form.C, form.D, form.E, form.F
    g = np.eye(DIM)
    g[2, 2] = A * A + D * D
    g[2, 3] = g[3, 2] = D * E
    g[2, 4] = g[4, 2] = B * D
    g[3, 3] = E * E + 1.0
    g[3, 4] = g[4, 3] = B * E
    g[4, 4] = B * B + F * F
    g[4, 5] = g[5, 4] = C * F
    g[5, 5] = C * C
    return g


def pullback_metric(metric, phi):
    """phi^T g phi for an automorphism phi of the metric's algebra."""
    m = phi.matrix if isinstance(phi, Automorphism) else np.asarray(phi, dtype=float)
    if isinstance(phi, Automorphism):
        _require_same_basis(metric.algebra, phi.algebra)
    return Metric(metric.algebra, m.T @ metric.matrix @ m)


# ---------------------------------------------------------------------------
# canonicalization


class _Reduction:
    def __init__(self, alg_label, g, tol=WITNESS_RTOL):
        self.alg = alg_label
        self.g = np.asarray(g, dtype=float).copy()
        self.phi = np.eye(DIM)
        self.tol = tol

    def apply(self, params):
        f = structured_automorphism(self.alg, params)
        self.g = f.matrix.T @ self.g @ f.matrix
        self.g = 0.5 * (self.g + self.g.T)
        self.phi = self.phi @ f.matrix


def _finish(red, form, g_input):
    form.validate()
    g_c = realize(form).matrix
    wit_matrix = np.linalg.inv(red.phi)
    residual = max_norm(wit_matrix.T @ g_c @ wit_matrix - g_input)
    bound = red.tol * max(1.0, max_norm(g_input))
    if residual > bound:
        raise CanonicalizationFailed(
            f"{red.alg}: witness residual {residual:.3e} exceeds {bound:.3e}", residual
        )
    witness = Witness(
        Automorphism(wit_matrix, red.alg, auts.component_label(red.alg, wit_matrix)),
        residual,
    )
    return form, witness


def _kill_commutator_coupling(red, make_params):
    c = red.g[4:6, :4]
    d2 = red.g[4:6, 4:6]
    m = -np.linalg.solve(d2, c)
    red.apply(make_params(m))


def canonicalize(alg, metric, tol=WITNESS_RTOL):
    """Unique moduli representative of a metric plus a certified witness."""
    alg = get_algebra(alg)
    if not isinstance(metric, Metric):
        metric = Metric(alg.label, metric)  # shape, finiteness and NotSPD checks
    _require_same_basis(metric.algebra, alg.label)
    if alg.label not in _FORM_TYPES:
        raise Unsupported(f"canonical forms exist for the built-ins only, not {alg.label!r}")
    return _FORM_TYPES[alg.label].canonicalize(metric.matrix, tol)


def _canonicalize_h6(g, tol=WITNESS_RTOL):
    red = _Reduction("h6", g, tol)
    _kill_commutator_coupling(red, lambda m: H6Params(M=tuple(map(tuple, m))))
    x = reverse_cholesky_lower(red.g[:4, :4])
    a4 = np.linalg.inv(x)
    red.apply(
        H6Params(
            r=a4[0, 0],
            s=a4[3, 3],
            z=a4[3, 0],
            x=tuple(a4[1:3, 0]),
            y=tuple(a4[3, 1:3]),
            At=tuple(map(tuple, a4[1:3, 1:3])),
        )
    )
    (_l1, _l2), rot = sym_eig2(red.g[4:6, 4:6])
    red.apply(H6Params(At=tuple(map(tuple, rot))))
    a, b = red.g[4, 4], red.g[5, 5]
    return _finish(red, H6Form(a=float(a), b=float(max(b, a))), g)


def _canonicalize_h4(g, tol=WITNESS_RTOL):
    red = _Reduction("h4", g, tol)
    _kill_commutator_coupling(red, lambda m: H4Params(M=tuple(map(tuple, m))))
    p4 = red.g[:4, :4]
    p, q2, r2 = p4[:2, :2], p4[:2, 2:4], p4[2:4, 2:4]
    schur = p - q2 @ np.linalg.solve(r2, q2.T)
    a2 = np.linalg.inv(cholesky_lower(schur)).T
    b2 = -np.linalg.solve(r2, q2.T @ a2)
    red.apply(H4Params(A=tuple(map(tuple, a2)), B=tuple(map(tuple, b2))))
    s2 = red.g[2:4, 2:4]
    (m1, m2), rot = sym_eig2(s2)
    tiny = 1e-14 * max(1.0, m2)
    if abs(s2[0, 1]) <= tiny and s2[0, 0] >= s2[1, 1] - tiny:
        rot_desc = np.eye(2)  # already diagonal in descending order
    elif m2 - m1 <= tiny:
        rot_desc = rot
    else:
        rot_desc = rot @ np.array([[0.0, -1.0], [1.0, 0.0]])  # descending order
    red.apply(
        H4Params(A=tuple(map(tuple, auts.sigma_involution(rot_desc))), x=1.0 / math.sqrt(m2))
    )
    if red.g[4, 5] < 0.0:
        red.apply(H4Params(x=-1.0))
    r = min(red.g[3, 3], 1.0)
    b = red.g[4, 5]
    form = H4Form(
        r=float(r),
        a=float(red.g[4, 4]),
        b=float(0.0 if abs(b) <= SNAP * max(1.0, max_norm(red.g)) else b),
        c=float(red.g[5, 5]),
    )
    return _finish(red, form, g)


def _h2_reflect_first():
    return H2Params(A=((-1.0, 0.0), (0.0, 1.0)))


def _canonicalize_h2(g, tol=WITNESS_RTOL):
    red = _Reduction("h2", g, tol)
    _kill_commutator_coupling(
        red, lambda m: H2Params(M1=tuple(map(tuple, m[:, :2])), M2=tuple(map(tuple, m[:, 2:4])))
    )
    p, r = red.g[:2, :2], red.g[2:4, 2:4]
    a_move = np.linalg.inv(cholesky_lower(p)).T
    b_move = np.linalg.inv(cholesky_lower(r)).T
    red.apply(H2Params(A=tuple(map(tuple, a_move)), B=tuple(map(tuple, b_move))))
    u, (a0, b0), v = svd2(red.g[:2, 2:4])
    red.apply(H2Params(A=tuple(map(tuple, u)), B=tuple(map(tuple, v))))
    scale = max(1.0, max_norm(red.g))
    if red.g[4, 4] > red.g[5, 5]:
        red.apply(H2Params(swap=True))
    if abs(red.g[0, 2]) <= 1e-10 * scale and red.g[4, 5] < 0.0:
        red.apply(_h2_reflect_first())
    a = red.g[0, 2]
    f_val = red.g[4, 5]
    form = H2Form(
        a=float(0.0 if abs(a) <= SNAP * scale else a),
        b=float(red.g[1, 3]),
        E=float(red.g[4, 4]),
        F=float(0.0 if abs(f_val) <= SNAP * scale else f_val),
        G=float(red.g[5, 5]),
    )
    if form.b < form.a:  # only by rounding dust
        form = H2Form(a=form.b, b=form.a, E=form.E, F=form.F, G=form.G)
    return _finish(red, form, g)


def _complex_parts(b4):
    """Hermitian and complex-symmetric pieces of a real symmetric 4x4 form
    under the identification R^4 = C^2 with i acting as the pairing J."""
    j = _PAIRING_J[:4, :4]
    b_inv = 0.5 * (b4 + j.T @ b4 @ j)
    b_anti = 0.5 * (b4 - j.T @ b4 @ j)
    f = [0, 2]  # complex basis vectors e1, e3
    h = np.empty((2, 2), dtype=complex)
    q = np.empty((2, 2), dtype=complex)
    for k in range(2):
        jf = j[:, f[k]]
        for m in range(2):
            h[k, m] = b_inv[f[k], f[m]] + 1j * (jf @ b_inv[:, f[m]])
            q[k, m] = b_anti[f[k], f[m]] - 1j * (jf @ b_anti[:, f[m]])
    return h, q


def _h5_move(ac, m=None, psi=False):
    return H5Params(
        z1=complex(ac[0, 0]), z2=complex(ac[0, 1]),
        z3=complex(ac[1, 0]), z4=complex(ac[1, 1]),
        M=((0.0,) * 4, (0.0,) * 4) if m is None else tuple(map(tuple, m)),
        psi=psi,
    )


def _canonicalize_h5(g, tol=WITNESS_RTOL):
    red = _Reduction("h5", g, tol)
    _kill_commutator_coupling(red, lambda m: _h5_move(np.eye(2), m=m))
    b4 = red.g[:4, :4]
    h, q = _complex_parts(b4)
    lc = np.linalg.cholesky(h)
    a1 = np.linalg.inv(lc).conj().T
    u, (s1, s2) = takagi2(a1.T @ q @ a1)
    w = np.conj(u)
    t = np.diag([1.0 / math.sqrt(1.0 + s1), 1.0 / math.sqrt(1.0 + s2)])
    red.apply(_h5_move(a1 @ w @ t))
    scale = max(1.0, max_norm(g))
    r, s = red.g[1, 1], red.g[3, 3]
    if abs(r - 1.0) <= 1e-10:
        # isotropy at r = 1 rotates the commutator block: diagonalize it
        (_l1, _l2), rot = sym_eig2(red.g[4:6, 4:6])
        theta = math.atan2(rot[1, 0], rot[0, 0])
        red.apply(_h5_move(np.diag([np.exp(1j * theta), 1.0])))
        r = 1.0
    if red.g[4, 5] < 0.0:
        red.apply(_h5_move(np.eye(2), psi=True))
    r = min(float(r), 1.0)
    s = min(float(red.g[3, 3]), r)
    f_val = red.g[4, 5]
    form = H5Form(
        r=r,
        s=s,
        E=float(red.g[4, 4]),
        F=float(0.0 if abs(f_val) <= SNAP * scale else f_val),
        G=float(red.g[5, 5]),
    )
    return _finish(red, form, g)


def _canonicalize_h9(g, tol=WITNESS_RTOL):
    red = _Reduction("h9hat", g, tol)
    x = reverse_cholesky_lower(red.g)
    a11, a22, a44 = x[0, 0], x[1, 1], x[3, 3]
    big_a = x[2, 2] / a11 ** 2
    big_b = x[4, 4] / (a11 * a22)
    big_c = x[5, 5] / (a11 ** 2 * a22)
    a21 = x[1, 0]
    a31, a32 = x[2, 0] / big_a, x[2, 1] / big_a
    a41, a42, a43 = x[3, 0], x[3, 1], x[3, 2]
    big_e = x[4, 3] / a44
    big_d = (x[4, 2] - big_e * a43 + big_b * a11 * a21) / a11 ** 2
    a51 = (x[4, 0] - big_d * a31 - big_e * a41) / big_b
    a52 = (x[4, 1] - big_d * a32 - big_e * a42) / big_b
    big_f = (x[5, 4] - big_c * (a22 * a31 - a21 * a32 - a11 * a52)) / (a11 * a22)
    a64 = x[5, 3] / big_c
    a63 = (x[5, 2] + big_f * a11 * a21) / big_c
    a61 = (x[5, 0] - big_f * a51) / big_c
    a62 = (x[5, 1] - big_f * a52) / big_c
    phi = H9Params(
        a11=a11, a22=a22, a44=a44, a21=a21, a31=a31, a32=a32,
        a41=a41, a42=a42, a43=a43, a51=a51, a52=a52,
        a61=a61, a62=a62, a63=a63, a64=a64,
    )
    inv = np.linalg.inv(structured_automorphism("h9hat", phi).matrix)
    red.apply(_params_from_h9_matrix(inv))
    # sign normalization: components flip (D, E, F) independently
    sd = -1.0 if big_d < 0 else 1.0
    se = -1.0 if big_e < 0 else 1.0
    sf = -1.0 if big_f < 0 else 1.0
    e1 = sf
    e2 = sd * sf
    e3 = sd * se
    if (e1, e2, e3) != (1.0, 1.0, 1.0):
        red.apply(H9Params(a11=e1, a22=e2, a44=e3))
    xf = reverse_cholesky_lower(red.g)
    scale = max(1.0, max_norm(red.g))
    form = H9Form(
        A=float(xf[2, 2]),
        B=float(xf[4, 4]),
        C=float(xf[5, 5]),
        D=float(0.0 if abs(xf[4, 2]) <= SNAP * scale else xf[4, 2]),
        E=float(0.0 if abs(xf[4, 3]) <= SNAP * scale else xf[4, 3]),
        F=float(0.0 if abs(xf[5, 4]) <= SNAP * scale else xf[5, 4]),
    )
    return _finish(red, form, g)


def _params_from_h9_matrix(m):
    return H9Params(
        a11=m[0, 0], a22=m[1, 1], a44=m[3, 3], a21=m[1, 0],
        a31=m[2, 0], a32=m[2, 1], a41=m[3, 0], a42=m[3, 1], a43=m[3, 2],
        a51=m[4, 0], a52=m[4, 1], a61=m[5, 0], a62=m[5, 1],
        a63=m[5, 2], a64=m[5, 3],
    )


# ---------------------------------------------------------------------------
# isometry groups

INFINITE = math.inf


@dataclass(frozen=True, eq=False)
class GroupDescriptor:
    """Isotropy group K = Aut(h) cap O(h, g) at a canonical metric.

    ``generators`` generate the finite part (one group element per
    connected component, ``component_count`` in total); ``isotropy_basis``
    is a basis of the isotropy algebra {D in Der : D^T g + g D = 0}.
    ``finite_order`` is |K| (inf when the group has positive dimension).
    """

    name: str
    continuous_dim: int
    finite_order: float
    generators: tuple
    isotropy_basis: np.ndarray
    component_count: int
    notes: str = ""

    def to_json_dict(self):
        return {
            "name": self.name,
            "continuous_dim": self.continuous_dim,
            "finite_order": "inf" if math.isinf(self.finite_order) else int(self.finite_order),
            "component_count": self.component_count,
            "generators": [g.to_json_dict() for g in self.generators],
            "isotropy_basis": [[[float(v) for v in row] for row in m] for m in self.isotropy_basis],
            "notes": self.notes,
        }


_J2 = _PAIRING_J[:2, :2]


def _blockdiag6(*blocks):
    out = np.zeros((DIM, DIM))
    pos = 0
    for b in blocks:
        b = np.atleast_2d(np.asarray(b, dtype=float))
        n = b.shape[0]
        out[pos : pos + n, pos : pos + n] = b
        pos += n
    return out


def _descriptor(alg_label, name, dim, gens, basis, count, notes=""):
    gens = tuple(Automorphism(m, alg_label, auts.component_label(alg_label, m)) for m in gens)
    basis = np.asarray(basis, dtype=float).reshape(-1, DIM, DIM)
    order = float(count) if dim == 0 else INFINITE
    return GroupDescriptor(name, dim, order, gens, basis, count, notes)


def _su2_basis_h5():
    # su(2) inside gl2(C), realified, with trivial action on the commutator
    gens_c = (
        np.array([[1j, 0.0], [0.0, -1j]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[0.0, 1j], [1j, 0.0]]),
    )
    return [_blockdiag6(auts.realify_complex2(x), np.zeros((2, 2))) for x in gens_c]


def _u2_extra_h5():
    # the trace part i*I, whose determinant derivative rotates (e5, e6)
    x = np.array([[1j, 0.0], [0.0, 1j]])
    return _blockdiag6(auts.realify_complex2(x), 2.0 * _J2)


def _eq(x, y, scale=1.0):
    return abs(x - y) <= EQ_RTOL * max(1.0, abs(x), abs(y), scale)


def isometry_group(alg, form):
    """GroupDescriptor for the isotropy of a canonical metric, by the case
    tables of the classification."""
    label = get_algebra(alg).label
    ft = _form_type_of(form)
    if _FORM_TYPES.get(label) is not ft:
        require_same_algebra(form.algebra, label)
    form.validate()
    return ft.isometry(form)


def _isometry_h5(form):
    r, s, E, F, G = form.r, form.s, form.E, form.F, form.G
    k_z1 = np.diag([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    k_z4 = np.diag([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    psi = auts.PSI_H5.copy()
    rot_first = _blockdiag6(_J2, np.zeros((2, 2)), _J2)  # z1 in so(2), Delta follows
    rot_real = np.zeros((DIM, DIM))
    rot_real[0, 2] = rot_real[1, 3] = 1.0
    rot_real[2, 0] = rot_real[3, 1] = -1.0  # real rotation inside GL2(R) < GL2(C)
    scale = max(E, G)
    f0 = _eq(F, 0.0, scale)
    ge = _eq(G, E, scale)
    r1 = _eq(r, 1.0)
    sr = _eq(s, r)
    if sr and r1:
        if not f0:
            return _descriptor("h5", "SU(2) : Z2", 3, [k_z4], _su2_basis_h5(), 2,
                               "row 8: det_C = -1 component via diag(1,1,-1,-1,-1,-1)")
        if not ge:
            return _descriptor("h5", "(SU(2) : Z2) : Z2", 3, [k_z4, psi],
                               _su2_basis_h5(), 4, "row 9")
        return _descriptor("h5", "U(2) : Z2", 4, [psi],
                           _su2_basis_h5() + [_u2_extra_h5()], 2, "row 10")
    if sr:  # s = r < 1
        if not f0:
            return _descriptor("h5", "O(2)", 1, [k_z4], [rot_real], 2,
                               "row 6: O(2) = GL2(R) cap O(4), reflection diag(1,1,-1,-1,-1,-1)")
        return _descriptor("h5", "O(2) x Z2", 1, [k_z4, psi], [rot_real], 4, "row 7")
    if r1:  # s < r = 1
        if not f0:
            return _descriptor("h5", "Z2 x Z2", 0, [k_z1, k_z4], [], 4, "row 3")
        if not ge:
            return _descriptor("h5", "Z2 x Z2 x Z2", 0, [k_z1, k_z4, psi], [], 8, "row 4")
        return _descriptor("h5", "O(2)", 1, [psi], [rot_first], 2,
                           "row 5: SO(2) acts through z1 with Delta = z1; reflection psi. "
                           "diag(1,1,-1,-1,-1,-1) is a further isometric automorphism "
                           "outside this O(2).")
    if not f0:
        return _descriptor("h5", "Z2 x Z2", 0, [k_z1, k_z4], [], 4, "row 1")
    return _descriptor("h5", "Z2 x Z2 x Z2", 0, [k_z1, k_z4, psi], [], 8, "row 2")


def _isometry_h6(form):
    a, b = form.a, form.b
    f2 = np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
    f3 = np.diag([1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    f5 = np.diag([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    if _eq(a, b, max(a, b)):
        basis = [_blockdiag6(np.zeros((1, 1)), _J2, np.zeros((1, 1)), _J2)]
        return _descriptor("h6", "O(2) x Z2 x Z2", 1, [f3, f2, f5], basis, 8, "a = b")
    return _descriptor(
        "h6", "Z2 x Z2 x Z2", 0, [f3, f2, f5], [], 8,
        "a != b; stated group of the classification (per-axis sign flips such as "
        "diag(1,-1,1,1,-1,1) are further isometric automorphisms)")


def _isometry_h4(form):
    r, b = form.r, form.b
    refl = np.diag([1.0, -1.0, 1.0, -1.0, -1.0, -1.0])  # A = diag(1,-1), x = 1
    neg = np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0])  # A = -I, x = 1
    xflip = np.diag([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])  # A = I, x = -1
    so2 = np.zeros((DIM, DIM))
    so2[0, 1], so2[1, 0] = 1.0, -1.0
    so2[2, 3], so2[3, 2] = -1.0, 1.0  # derivation: d12 = 1, d21 = -1 pattern
    r1 = _eq(r, 1.0)
    b0 = _eq(b, 0.0, max(form.a, form.c))
    if r1 and b0:
        return _descriptor("h4", "O(2) : Z2", 1, [refl, xflip], [so2], 4, "r = 1, b = 0")
    if r1:
        return _descriptor("h4", "O(2)", 1, [refl], [so2], 2, "r = 1, b != 0")
    if b0:
        return _descriptor(
            "h4", "Z2 x Z2", 0, [neg, xflip], [], 4,
            "r != 1, b = 0; stated group (diag(1,-1,1,-1,-1,-1) is a further "
            "isometric automorphism)")
    return _descriptor(
        "h4", "Z2", 0, [neg], [], 2,
        "r != 1, b != 0; stated group (diag(1,-1,1,-1,-1,-1) is a further "
        "isometric automorphism)")


def _isometry_h2(form):
    a, b, E, F, G = form.a, form.b, form.E, form.F, form.G
    phi1 = np.diag([-1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    phi2 = np.diag([1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    phi12 = phi1 @ phi2
    phi3 = auts.component_representatives("h2")[4].matrix
    sg1 = np.diag([-1.0, 1.0, -1.0, 1.0, -1.0, -1.0])  # A = B = diag(-1,1)
    sg2 = np.diag([1.0, -1.0, 1.0, -1.0, -1.0, -1.0])  # A = B = diag(1,-1)
    so2_first = _blockdiag6(_J2, np.zeros((2, 2)), np.zeros((2, 2)))
    so2_second = _blockdiag6(np.zeros((2, 2)), _J2, np.zeros((2, 2)))
    so2_diag = so2_first + so2_second
    sc = max(E, G)
    a0 = _eq(a, 0.0, max(b, 1.0))
    ab = _eq(a, b, max(b, 1.0))
    f0 = _eq(F, 0.0, sc)
    ge = _eq(E, G, sc)
    if a0 and ab:  # a = b = 0
        basis = [so2_first, so2_second]
        if f0 and ge:
            return _descriptor("h2", "(O(2) x O(2)) : Z2", 2, [phi1, phi2, phi3], basis, 8,
                               "a = b = 0, F = 0, E = G")
        if f0:
            return _descriptor("h2", "O(2) x O(2)", 2, [phi1, phi2], basis, 4,
                               "a = b = 0, F = 0, E != G")
        if ge:
            return _descriptor("h2", "S(O(2) x O(2)) : Z2", 2, [phi12, phi3], basis, 4,
                               "a = b = 0, F != 0, E = G")
        return _descriptor("h2", "S(O(2) x O(2))", 2, [phi12], basis, 2,
                           "a = b = 0, F != 0, E != G")
    if ab:  # a = b != 0
        if ge:
            return _descriptor("h2", "diag(O(2) x O(2)) : Z2", 1, [sg1, phi3], [so2_diag], 4,
                               "a = b != 0, E = G")
        return _descriptor("h2", "diag(O(2) x O(2))", 1, [sg1], [so2_diag], 2,
                           "a = b != 0, E != G")
    if ge:
        return _descriptor("h2", "D4", 0, [sg1, sg2, phi3], [], 8, "a < b, E = G")
    return _descriptor("h2", "Z2 x Z2", 0, [sg1, sg2], [], 4, "a < b, E != G")


def _isometry_h9(form):
    scale = max(form.A, form.B, form.C, 1.0)
    g_c = realize(form).matrix
    members = []
    for rep in auts.component_representatives("h9hat"):
        if max_norm(rep.matrix.T @ g_c @ rep.matrix - g_c) <= EQ_RTOL * max_norm(g_c):
            members.append(rep.matrix)
    k = sum(1 for v in (form.D, form.E, form.F) if _eq(v, 0.0, scale))
    count = 2 ** k
    gens = [m for m in members if max_norm(m - np.eye(DIM)) > 0.0]
    name = {0: "trivial", 1: "Z2", 2: "Z2 x Z2", 3: "Z2 x Z2 x Z2"}[k]
    return _descriptor("h9hat", name, 0, gens, [], count,
                       f"k = {k} null parameters among (D, E, F)")


# ---------------------------------------------------------------------------
# one record per form type


@dataclass(frozen=True)
class _FormType:
    """The canonical forms of one built-in algebra (h9 in the hat basis)."""

    form: type  # the form class
    canonicalize: Callable  # (g, tol) -> (form, witness)
    matrix: Callable  # form -> canonical metric matrix
    isometry: Callable  # form -> GroupDescriptor, by the case table


_FORM_TYPES = {
    "h5": _FormType(H5Form, _canonicalize_h5, _matrix_h5, _isometry_h5),
    "h6": _FormType(H6Form, _canonicalize_h6, _matrix_h6, _isometry_h6),
    "h4": _FormType(H4Form, _canonicalize_h4, _matrix_h4, _isometry_h4),
    "h2": _FormType(H2Form, _canonicalize_h2, _matrix_h2, _isometry_h2),
    "h9hat": _FormType(H9Form, _canonicalize_h9, _matrix_h9, _isometry_h9),
}
_FORM_TYPES["h9"] = _FORM_TYPES["h9hat"]  # alias: the forms of h9 live in the hat basis
FORM_TYPES = {label: ft.form for label, ft in _FORM_TYPES.items()}


# ---------------------------------------------------------------------------
# verification


@dataclass
class IsometryReport:
    checks: list
    passed: bool

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": n, "passed": p, "detail": d} for (n, p, d) in self.checks
            ],
        }


def isotropy_algebra_dimension(alg, g, tol=1e-10):
    """dim {D in Der(alg) : D^T g + g D = 0} via a stacked null space."""
    alg = get_algebra(alg)
    n = alg.dim
    sym = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sym[i, j, k, i] += g[k, j]
                sym[i, j, k, j] += g[i, k]
    system = np.vstack([auts._derivation_system(alg), sym.reshape(n * n, n * n)])
    return null_space(system, tol=tol).shape[1]


def _generated_group(gen_matrices, cap=512, tol=1e-9):
    """Closure of the generated set; None if the cap is exceeded."""
    elems = [np.eye(DIM)]

    def find(m):
        return any(max_norm(m - e) <= tol for e in elems)

    frontier = [np.eye(DIM)]
    while frontier:
        new = []
        for e in frontier:
            for gmat in gen_matrices:
                prod = e @ gmat
                if not find(prod):
                    elems.append(prod)
                    new.append(prod)
                    if len(elems) > cap:
                        return None
        frontier = new
    return elems


def verify_isometry_group(alg, form, desc, tol=1e-10):
    """Verify a GroupDescriptor against the algebra and the realized metric:
    (i) generators preserve bracket and metric, basis elements are
    skew-symmetric derivations; (ii) the finite part closes with the
    expected order; (iii) the continuous dimension matches the isotropy
    algebra's null-space dimension."""
    alg = _hat_algebra(alg)
    g_c = realize(form).matrix
    scale = max(1.0, max_norm(g_c))
    checks = []

    worst_bracket = 0.0
    worst_metric = 0.0
    for gen in desc.generators:
        worst_bracket = max(worst_bracket, auts._bracket_defect(alg, gen.matrix))
        worst_metric = max(worst_metric, max_norm(gen.matrix.T @ g_c @ gen.matrix - g_c))
    ok = worst_bracket <= tol and worst_metric <= tol * scale
    checks.append(
        ("generators_preserve_bracket_and_metric", bool(ok),
         f"bracket defect {worst_bracket:.2e}, metric defect {worst_metric:.2e}")
    )

    derivation_system = auts._derivation_system(alg)
    worst_der = 0.0
    worst_skew = 0.0
    for d in desc.isotropy_basis:
        worst_der = max(worst_der, max_norm(derivation_system @ d.reshape(-1)))
        worst_skew = max(worst_skew, max_norm(d.T @ g_c + g_c @ d))
    ok = worst_der <= tol and worst_skew <= tol * scale
    checks.append(
        ("isotropy_basis_in_isotropy_algebra", bool(ok),
         f"derivation defect {worst_der:.2e}, symmetry defect {worst_skew:.2e}")
    )

    group = _generated_group([g.matrix for g in desc.generators])
    ok = group is not None and len(group) == desc.component_count
    checks.append(
        ("finite_part_closes_with_expected_order", bool(ok),
         f"generated order {len(group) if group is not None else '>cap'} "
         f"expected {desc.component_count}")
    )

    dim = isotropy_algebra_dimension(alg, g_c)
    checks.append(
        ("continuous_dimension_matches_null_space", bool(dim == desc.continuous_dim),
         f"null-space dim {dim} expected {desc.continuous_dim}")
    )

    return IsometryReport(checks, all(p for (_n, p, _d) in checks))
