"""Canonicalization of inner products to unique moduli representatives,
with automorphism witnesses, and isometry-group classification.

Canonical shapes (working bases; hat basis for h9).  The shape is the form
class's ``cells`` map, parameter -> (i, j): realize() writes each parameter
into its cell and the mirror (j, i) of the identity, or for h9 into the
slice factor X of the metric X^T X.  canonicalize() reads its result back
from the same cells, for h9 by solving x = X phi row by row on g's reverse
Cholesky factor x, so that h9's witness is exactly in theorem form.

  h5:  H5Form.cells (r, s on the diagonal, [[E,F],[F,G]]),  0 < s <= r <= 1, F >= 0
  h6:  H6Form.cells (a, b on the diagonal),                 0 < a <= b
  h4:  H4Form.cells (r on the diagonal, [[a,b],[b,c]]),     0 < r <= 1, b >= 0
  h2:  H2Form.cells (a, b coupling the factors, [[E,F],[F,G]]), 0 <= a <= b < 1
  h9:  H9Form.cells (A, B, C on X's diagonal, D, E, F below), A, B, C > 0

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
phi^T realize(form) phi = g, enforced at 1e-8 * max(1, max|g|) as a
postcondition.

Each form class lists its case boundaries as ``strata`` (stratum,
parameter, its value on the stratum, unit; see the README for the list).
A form lies on a stratum when |parameter - value| <= EQ_RTOL * unit, a test
that rescaling the metric leaves unchanged: canonicalize() snaps onto every
stratum it lies on, isometry_group() returns the descriptor of the one case
row whose strata match, and the Hermitian tables branch on it.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import automorphisms as auts
from .algebra import _PAIRING_J, DIM, builtin_label, get_algebra, require_same_algebra
from .automorphisms import (
    Automorphism,
    H2Params,
    H4Params,
    H5Params,
    H6Params,
    H9Params,
    structured_automorphism,  # unused here; perfbench's selfcheck patches it as a tracer site
)
from .errors import (
    CanonicalizationFailed,
    InvalidForm,
    NotSPD,
    Unsupported,
)
from .linalg import (
    cholesky_lower,
    lower_inv2,
    max_norm,
    nullity,
    reverse_cholesky_lower,
    sym_eig2,
    svd2,
    symmetrize,
    takagi2,
)

EQ_RTOL = 1e-9  # relative tolerance of the stratum test
WITNESS_RTOL = 1e-8
SNAP = 1e-12  # validate's allowance for forms given as input
# verify_isometry_group: the largest bracket and derivation defect it accepts,
# and the metric and symmetry defect relative to max(1, max|g|)
ISOMETRY_DEFECT_TOL = 1e-10
GROUP_ORDER_CAP = 512  # the closure of the generators gives up beyond this order
GROUP_MATCH_TOL = 1e-9  # max-norm distance at which two group elements are one


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


def _reader(spec):
    """params -> a number, a parameter's value, or for a tuple of names their
    largest value."""
    if isinstance(spec, str):
        return operator.itemgetter(spec)
    if isinstance(spec, tuple):
        return lambda params: max(params[name] for name in spec)
    return lambda _params: spec


@functools.cache
def _layout(form_class):
    """The field names of a form class, and its strata with each value and
    unit as a reader of the parameters: built once per class."""
    names = tuple(f.name for f in fields(form_class))
    strata = tuple((name, parameter, _reader(value), _reader(unit))
                   for name, parameter, value, unit in form_class.strata)
    return names, strata


def _lies_on(params, parameter, value, unit):
    return abs(params[parameter] - value(params)) <= EQ_RTOL * unit(params)


class _FormBase:
    algebra = "custom"
    # the case boundaries: (stratum, parameter, its value on the stratum, unit)
    strata = ()
    # parameter -> (i, j): the cell of the canonical metric's upper triangle
    # that holds it (Metric mirrors it to (j, i)); the other entries are the
    # identity's.  With ``factor``, the cell of the factor X of the metric
    # X^T X instead.
    factor = False

    def validate(self):
        """The form itself, when every parameter is finite and in its range:
        InvalidForm names the first that is not."""
        for name in _layout(type(self))[0]:
            if not math.isfinite(value := getattr(self, name)):
                raise InvalidForm(f"{self.algebra} parameter {name} must be finite, got {value!r}")
        self._check_ranges()
        return self

    def params(self):
        return {name: getattr(self, name) for name in _layout(type(self))[0]}

    def on_strata(self):
        """The strata the form lies on: |parameter - value| <= EQ_RTOL * unit.
        Each unit moves like its parameter when the metric is rescaled."""
        params = self.params()
        return {name for name, *test in _layout(type(self))[1] if _lies_on(params, *test)}

    def snapped(self):
        """The form with each parameter set to its value on every stratum it
        lies on, in the order of ``strata``: each test sees the earlier snaps."""
        params = self.params()
        for _name, parameter, value, unit in _layout(type(self))[1]:
            if _lies_on(params, parameter, value, unit):
                params[parameter] = value(params)
        return type(self)(**params)

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
    strata = (("r1", "r", 1.0, 1.0), ("sr", "s", "r", "r"),
              ("F0", "F", 0.0, ("E", "G")), ("EG", "G", "E", ("E", "G")))
    cells = {"r": (1, 1), "s": (3, 3), "E": (4, 4), "F": (4, 5), "G": (5, 5)}

    def _check_ranges(self):
        _check(0.0 < self.s <= self.r * (1 + SNAP), "h5 requires 0 < s <= r")
        _check(self.r <= 1.0 + SNAP, "h5 requires r <= 1")
        _check(self.F >= -SNAP, "h5 requires F >= 0")
        _check(self.E * self.G - self.F ** 2 > 0.0, "h5 requires EG - F^2 > 0")


@dataclass(frozen=True)
class H6Form(_FormBase):
    a: float
    b: float
    algebra = "h6"
    strata = (("ab", "b", "a", "b"),)
    cells = {"a": (4, 4), "b": (5, 5)}

    def _check_ranges(self):
        _check(0.0 < self.a <= self.b * (1 + SNAP), "h6 requires 0 < a <= b")


@dataclass(frozen=True)
class H4Form(_FormBase):
    r: float
    a: float
    b: float
    c: float
    algebra = "h4"
    strata = (("r1", "r", 1.0, 1.0), ("b0", "b", 0.0, ("a", "c")))
    cells = {"r": (3, 3), "a": (4, 4), "b": (4, 5), "c": (5, 5)}

    def _check_ranges(self):
        _check(0.0 < self.r <= 1.0 + SNAP, "h4 requires 0 < r <= 1")
        _check(self.a >= 0.0 and self.c >= 0.0, "h4 requires a, c >= 0")
        _check(self.b >= -SNAP, "h4 requires b >= 0")
        _check(self.a * self.c - self.b ** 2 > 0.0, "h4 requires ac - b^2 > 0")


@dataclass(frozen=True)
class H2Form(_FormBase):
    a: float
    b: float
    E: float
    F: float
    G: float
    algebra = "h2"
    strata = (("a0", "a", 0.0, 1.0), ("ab", "a", "b", 1.0),
              ("F0", "F", 0.0, ("E", "G")), ("EG", "G", "E", ("E", "G")))
    cells = {"a": (0, 2), "b": (1, 3), "E": (4, 4), "F": (4, 5), "G": (5, 5)}

    def _check_ranges(self):
        _check(-SNAP <= self.a <= self.b * (1 + SNAP), "h2 requires 0 <= a <= b")
        _check(self.b < 1.0, "h2 requires b < 1")
        _check(self.E > 0.0 and self.G > 0.0, "h2 requires E, G > 0")
        # the sign of F is an orbit invariant when a > 0, so both signs
        # are admissible here (the source normal form overstates F >= 0)
        _check(self.E * self.G - self.F ** 2 > 0.0, "h2 requires EG - F^2 > 0")


@dataclass(frozen=True)
class H9Form(_FormBase):
    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    algebra = "h9hat"
    strata = (("D0", "D", 0.0, "A"), ("E0", "E", 0.0, 1.0), ("F0", "F", 0.0, "B"))
    cells = {"A": (2, 2), "B": (4, 4), "C": (5, 5), "D": (4, 2), "E": (4, 3), "F": (5, 4)}
    factor = True

    def _check_ranges(self):
        _check(self.A > 0.0 and self.B > 0.0 and self.C > 0.0, "h9 requires A, B, C > 0")


def _is_number(x):
    """JSON true/false and numeric strings are no numbers, although float() takes them."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def form_from_dict(data):
    if not isinstance(data, dict):
        raise InvalidForm(f"a form must be an object of its parameters, got {data!r:.40}")
    tag = data.get("tag")
    if not isinstance(tag, str) or tag not in _FORM_TYPES:  # a JSON list is no key
        raise InvalidForm(f"unknown form tag {tag!r}")
    form_class = _FORM_TYPES[tag].form
    names = [f.name for f in fields(form_class)]
    missing = [name for name in names if name not in data]
    if missing:
        raise InvalidForm(f"{tag} form needs {', '.join(names)}; missing {', '.join(missing)}")
    bad = [name for name in names if not _is_number(data[name])]
    if bad:
        raise InvalidForm(f"{tag} form parameters must be numbers, got "
                          + ", ".join(f"{name}={data[name]!r}" for name in bad))
    return form_class(**{name: float(data[name]) for name in names}).validate()


def _form_type_of(form):
    ft = _FORM_TYPES.get(getattr(form, "algebra", None))
    if ft is None or not isinstance(form, ft.form):
        raise InvalidForm(f"unknown form type {type(form).__name__}")
    return ft


def realize(form):
    """Exact metric matrix of a canonical form: the identity with each of the
    form's ``cells`` and its mirror set to its parameter, or for h9 X^T X of
    the identity X with each cell set, summed term by term in row order:
    each entry is the written-out one (A^2 + D^2, D E, ...) bit for bit,
    which a BLAS product need not be."""
    form.validate()
    _form_type_of(form)  # InvalidForm for a class that is no built-in's form
    g = np.eye(DIM)
    for name, (i, j) in form.cells.items():
        g[i, j] = getattr(form, name)
    if form.factor:
        g = (g[:, :, None] * g[:, None, :]).sum(axis=0)
    return Metric(form.algebra, g)  # mirrors the upper triangle


def _read_cells(form_class, g):
    """The form whose cells hold g's entries: realize's inverse."""
    return form_class(**{name: float(g[i, j]) for name, (i, j) in form_class.cells.items()})


def pullback_metric(metric, phi):
    """phi^T g phi for an automorphism phi of the metric's algebra."""
    m = phi.matrix if isinstance(phi, Automorphism) else np.asarray(phi, dtype=float)
    if isinstance(phi, Automorphism):
        require_same_algebra(metric.algebra, phi.algebra)
    return Metric(metric.algebra, m.T @ metric.matrix @ m)


# ---------------------------------------------------------------------------
# canonicalization


class _Reduction:
    def __init__(self, alg_label, g):
        self.alg = alg_label
        # the theorem's constructor alone: a step needs neither the component
        # tag nor the Automorphism wrapper, and _finish certifies the product
        self.construct = auts._THEOREMS[alg_label].construct
        self.g = np.asarray(g, dtype=float).copy()
        self.phi = np.eye(DIM)

    def apply(self, params):
        f = self.construct(params)
        self.g = f.T @ self.g @ f
        self.g = 0.5 * (self.g + self.g.T)
        self.phi = self.phi @ f


def _finish(alg_label, form, wit_matrix, g_input):
    """The snapped form and the witness phi, certified: phi^T realize(form) phi = g."""
    form = form.snapped()
    g_c = realize(form).matrix  # validates the snapped form
    residual = max_norm(wit_matrix.T @ g_c @ wit_matrix - g_input)
    bound = certificate_bound(g_input)
    if residual > bound:
        raise CanonicalizationFailed(
            f"{alg_label}: witness residual {residual:.3e} exceeds {bound:.3e}", residual
        )
    return form, Witness(Automorphism(wit_matrix, alg_label), residual)


def _kill_commutator_coupling(red, make_params):
    c = red.g[4:6, :4]
    d2 = red.g[4:6, 4:6]
    m = -np.linalg.solve(d2, c)
    red.apply(make_params(m))


def certificate_bound(g):
    """The witness residual canonicalize() accepts for the metric matrix g."""
    return WITNESS_RTOL * max(1.0, max_norm(g))


def canonicalize(alg, metric):
    """Unique moduli representative of a metric plus a certified witness:
    max|phi^T g_c phi - g| <= certificate_bound(g).  ``Witness.residual``
    reports the residual, against which a stricter bound can be read.
    ``alg`` must name a built-in (``algebra.builtin_label``)."""
    given = getattr(alg, "label", alg)  # the name the caller gave, for the message
    alg = get_algebra(alg)
    if not isinstance(metric, Metric):
        metric = Metric(alg.label, metric)  # shape, finiteness and NotSPD checks
    label = builtin_label(alg)
    if label is None:
        raise Unsupported(f"canonical forms exist for the built-ins only, not {given!r}")
    require_same_algebra(metric.algebra, alg)
    return _FORM_TYPES[label].canonicalize(metric.matrix)


def _canonicalize_h6(g):
    red = _Reduction("h6", g)
    _kill_commutator_coupling(red, lambda m: H6Params(M=m))
    x = reverse_cholesky_lower(red.g[:4, :4])
    a4 = np.linalg.inv(x)
    red.apply(
        H6Params(
            r=a4[0, 0],
            s=a4[3, 3],
            z=a4[3, 0],
            x=a4[1:3, 0],
            y=a4[3, 1:3],
            At=a4[1:3, 1:3],
        )
    )
    (_l1, _l2), rot = sym_eig2(red.g[4:6, 4:6])
    red.apply(H6Params(At=rot))
    return _finish(red.alg, _read_cells(H6Form, red.g), np.linalg.inv(red.phi), g)


def _canonicalize_h4(g):
    red = _Reduction("h4", g)
    _kill_commutator_coupling(red, lambda m: H4Params(M=m))
    p4 = red.g[:4, :4]
    p, q2, r2 = p4[:2, :2], p4[:2, 2:4], p4[2:4, 2:4]
    schur = p - q2 @ np.linalg.solve(r2, q2.T)
    a2 = lower_inv2(cholesky_lower(schur)).T
    b2 = -np.linalg.solve(r2, q2.T @ a2)
    red.apply(H4Params(A=a2, B=b2))
    s2 = red.g[2:4, 2:4]
    (m1, m2), rot = sym_eig2(s2)
    tiny = 1e-14 * max(1.0, m2)
    if abs(s2[0, 1]) <= tiny and s2[0, 0] >= s2[1, 1] - tiny:
        rot_desc = np.eye(2)  # already diagonal in descending order
    elif m2 - m1 <= tiny:
        rot_desc = rot
    else:
        rot_desc = rot @ np.array([[0.0, -1.0], [1.0, 0.0]])  # descending order
    red.apply(H4Params(A=auts.sigma_involution(rot_desc), x=1.0 / math.sqrt(m2)))
    if red.g[4, 5] < 0.0:
        red.apply(H4Params(x=-1.0))
    return _finish(red.alg, _read_cells(H4Form, red.g), np.linalg.inv(red.phi), g)


def _canonicalize_h2(g):
    red = _Reduction("h2", g)
    _kill_commutator_coupling(red, lambda m: H2Params(M1=m[:, :2], M2=m[:, 2:4]))
    p, r = red.g[:2, :2], red.g[2:4, 2:4]
    a_move = lower_inv2(cholesky_lower(p)).T
    b_move = lower_inv2(cholesky_lower(r)).T
    red.apply(H2Params(A=a_move, B=b_move))
    u, (a0, b0), v = svd2(red.g[:2, 2:4])
    red.apply(H2Params(A=u, B=v))
    if red.g[4, 4] > red.g[5, 5]:
        red.apply(H2Params(swap=True))
    form = _read_cells(H2Form, red.g)
    if "a0" in form.on_strata() and form.F < 0.0:
        red.apply(H2Params(A=((-1.0, 0.0), (0.0, 1.0))))  # reflect the first factor
        form = _read_cells(H2Form, red.g)
    return _finish(red.alg, form, np.linalg.inv(red.phi), g)


def _complex_parts(b4):
    """Hermitian and complex-symmetric pieces of a real symmetric 4x4 form
    under the identification R^4 = C^2 with i acting as the pairing J."""
    j = _PAIRING_J[:4, :4]
    b_inv = 0.5 * (b4 + j.T @ b4 @ j)
    b_anti = 0.5 * (b4 - j.T @ b4 @ j)
    # the complex basis is e1, e3, and J e1 = e2, J e3 = e4: rows 0::2 hold the
    # real parts, rows 1::2 the imaginary ones
    h = b_inv[0::2, 0::2] + 1j * b_inv[1::2, 0::2]
    q = b_anti[0::2, 0::2] - 1j * b_anti[1::2, 0::2]
    return h, q


def _h5_move(ac, m=H5Params.M, psi=False):
    return H5Params(
        z1=complex(ac[0, 0]), z2=complex(ac[0, 1]),
        z3=complex(ac[1, 0]), z4=complex(ac[1, 1]),
        M=m, psi=psi,
    )


def _canonicalize_h5(g):
    red = _Reduction("h5", g)
    _kill_commutator_coupling(red, lambda m: _h5_move(np.eye(2), m=m))
    b4 = red.g[:4, :4]
    h, q = _complex_parts(b4)
    lc = np.linalg.cholesky(h)
    a1 = lower_inv2(lc).conj().T
    u, (s1, s2) = takagi2(a1.T @ q @ a1)
    w = np.conj(u)
    t = np.diag([1.0 / math.sqrt(1.0 + s1), 1.0 / math.sqrt(1.0 + s2)])
    red.apply(_h5_move(a1 @ w @ t))
    if "r1" in _read_cells(H5Form, red.g).on_strata():
        # isotropy at r = 1 rotates the commutator block: diagonalize it
        (_l1, _l2), rot = sym_eig2(red.g[4:6, 4:6])
        theta = math.atan2(rot[1, 0], rot[0, 0])
        red.apply(_h5_move(np.diag([np.exp(1j * theta), 1.0])))
    if red.g[4, 5] < 0.0:
        red.apply(_h5_move(np.eye(2), psi=True))
    return _finish(red.alg, _read_cells(H5Form, red.g), np.linalg.inv(red.phi), g)


def _canonicalize_h9(g):
    # g's reverse Cholesky factor x is X_c phi (phi in the identity component),
    # solved row by row for phi's free entries and X_c's cells; a dependent
    # entry of phi is read off the constructor once its free entries are known
    construct = auts._THEOREMS["h9hat"].construct
    x = reverse_cholesky_lower(g)
    a11, a21, a22 = x[0, 0], x[1, 0], x[1, 1]
    a41, a42, a43, a44 = x[3, :4]
    dep = construct(H9Params(a11=a11, a22=a22, a21=a21))  # a33, a53, a55, a66
    big_a = x[2, 2] / dep[2, 2]
    a31, a32 = x[2, 0] / big_a, x[2, 1] / big_a
    big_b = x[4, 4] / dep[4, 4]
    big_e = x[4, 3] / a44
    big_d = (x[4, 2] - big_e * a43 - big_b * dep[4, 2]) / dep[2, 2]
    a51 = (x[4, 0] - big_d * a31 - big_e * a41) / big_b
    a52 = (x[4, 1] - big_d * a32 - big_e * a42) / big_b
    dep = construct(H9Params(a11=a11, a22=a22, a21=a21, a31=a31, a32=a32, a52=a52))  # a65
    big_c = x[5, 5] / dep[5, 5]
    big_f = (x[5, 4] - big_c * dep[5, 4]) / dep[4, 4]
    phi = construct(H9Params(
        a11=a11, a22=a22, a44=a44, a21=a21, a31=a31, a32=a32,
        a41=a41, a42=a42, a43=a43, a51=a51, a52=a52,
        a61=(x[5, 0] - big_f * a51) / big_c, a62=(x[5, 1] - big_f * a52) / big_c,
        a63=(x[5, 2] - big_f * dep[4, 2]) / big_c, a64=x[5, 3] / big_c,
    ))
    # the flip s = diag(e1, e2, 1, e3, e1 e2, e2) maps X_c to s X_c s, which
    # multiplies D, E, F by e1 e2, e1 e2 e3 and e1: these signs make them >= 0
    sd, se, sf = (-1.0 if v < 0 else 1.0 for v in (big_d, big_e, big_f))
    flip = construct(H9Params(a11=sf, a22=sd * sf, a44=sd * se))
    form = H9Form(*(float(v) for v in (big_a, big_b, big_c, abs(big_d), abs(big_e), abs(big_f))))
    return _finish("h9hat", form, flip @ phi, g)


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
    generators: tuple
    isotropy_basis: np.ndarray
    component_count: int
    notes: str = ""

    @property
    def finite_order(self):
        return float(self.component_count) if self.continuous_dim == 0 else INFINITE

    def to_json_dict(self):
        return {
            "name": self.name,
            "continuous_dim": self.continuous_dim,
            "finite_order": "inf" if math.isinf(self.finite_order) else int(self.finite_order),
            "component_count": self.component_count,
            "generators": [g.to_json_dict() for g in self.generators],
            "isotropy_basis": self.isotropy_basis.tolist(),
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


def _read_only(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _tagged(alg_label, m):
    return Automorphism(_read_only(m), alg_label)


def _basis(*mats):
    return _read_only(np.reshape(mats, (-1, DIM, DIM)))


_NO_BASIS = _basis()


# The case tables of h5, h6, h4 and h2: one row per case of the
# classification, built on first use, once per process.  A row's generators
# are Automorphisms with their component tag and its isotropy basis a
# (k, 6, 6) array, all read-only and shared by the rows that name them.


@dataclass(frozen=True, eq=False)
class _CaseRow:
    """A form is in the case when it lies on every stratum of ``on`` and on
    none of ``off``; the other strata may go either way."""

    on: frozenset
    off: frozenset
    case: str  # the label `nilmoduli tables` prints
    example: _FormBase  # a form of the case, whose group `tables` prints
    descriptor: GroupDescriptor


def _row(on, off, case, example, name, dim, gens, basis, count, notes):
    """A case row from space-separated strata names and its group: ``gens``
    are tagged Automorphisms and ``basis`` a (k, 6, 6) array, both read-only
    constants."""
    return _CaseRow(frozenset(on.split()), frozenset(off.split()), case, example,
                    GroupDescriptor(name, dim, tuple(gens), basis, count, notes))


@functools.cache
def _cases_h5():
    k_z1 = _tagged("h5", np.diag([-1.0, -1.0, 1.0, 1.0, -1.0, -1.0]))
    k_z4 = _tagged("h5", np.diag([1.0, 1.0, -1.0, -1.0, -1.0, -1.0]))
    psi = _tagged("h5", auts.PSI_H5)
    # su(2) inside gl2(C), realified, with trivial action on the commutator
    su2 = [_blockdiag6(auts.realify_complex2(x), np.zeros((2, 2))) for x in (
        np.array([[1j, 0.0], [0.0, -1j]]),
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[0.0, 1j], [1j, 0.0]]),
    )]
    # u(2) adds the trace part i*I, whose determinant derivative rotates (e5, e6)
    u2 = _basis(*su2, _blockdiag6(auts.realify_complex2(np.array([[1j, 0.0], [0.0, 1j]])),
                                  2.0 * _J2))
    su2 = _basis(*su2)
    rot_first = _basis(_blockdiag6(_J2, np.zeros((2, 2)), _J2))  # z1 in so(2), Delta follows
    rot_real = np.zeros((DIM, DIM))
    rot_real[0, 2] = rot_real[1, 3] = 1.0
    rot_real[2, 0] = rot_real[3, 1] = -1.0  # real rotation inside GL2(R) < GL2(C)
    rot_real = _basis(rot_real)
    return (
        _row("", "r1 sr F0", "0<s<r<1, F!=0", H5Form(0.5, 0.3, 1.0, 0.1, 2.0),
             "Z2 x Z2", 0, [k_z1, k_z4], _NO_BASIS, 4, "row 1"),
        _row("F0", "r1 sr", "0<s<r<1, F=0", H5Form(0.5, 0.3, 1.0, 0.0, 2.0),
             "Z2 x Z2 x Z2", 0, [k_z1, k_z4, psi], _NO_BASIS, 8, "row 2"),
        _row("r1", "sr F0", "0<s<r=1, F!=0", H5Form(1.0, 0.3, 1.0, 0.1, 2.0),
             "Z2 x Z2", 0, [k_z1, k_z4], _NO_BASIS, 4, "row 3"),
        _row("r1 F0", "sr EG", "0<s<r=1, F=0, G!=E", H5Form(1.0, 0.3, 1.0, 0.0, 2.0),
             "Z2 x Z2 x Z2", 0, [k_z1, k_z4, psi], _NO_BASIS, 8, "row 4"),
        _row("r1 F0 EG", "sr", "0<s<r=1, F=0, G=E", H5Form(1.0, 0.3, 1.5, 0.0, 1.5),
             "O(2)", 1, [psi], rot_first, 2,
             "row 5: SO(2) acts through z1 with Delta = z1; reflection psi. "
             "diag(1,1,-1,-1,-1,-1) is a further isometric automorphism outside this O(2)."),
        _row("sr", "r1 F0", "0<s=r<1, F!=0", H5Form(0.6, 0.6, 1.0, 0.1, 2.0),
             "O(2)", 1, [k_z4], rot_real, 2,
             "row 6: O(2) = GL2(R) cap O(4), reflection diag(1,1,-1,-1,-1,-1)"),
        _row("sr F0", "r1", "0<s=r<1, F=0", H5Form(0.6, 0.6, 1.0, 0.0, 2.0),
             "O(2) x Z2", 1, [k_z4, psi], rot_real, 4, "row 7"),
        _row("sr r1", "F0", "s=r=1, F!=0", H5Form(1.0, 1.0, 1.0, 0.1, 2.0),
             "SU(2) : Z2", 3, [k_z4], su2, 2,
             "row 8: det_C = -1 component via diag(1,1,-1,-1,-1,-1)"),
        _row("sr r1 F0", "EG", "s=r=1, F=0, G!=E", H5Form(1.0, 1.0, 1.0, 0.0, 2.0),
             "(SU(2) : Z2) : Z2", 3, [k_z4, psi], su2, 4, "row 9"),
        _row("sr r1 F0 EG", "", "s=r=1, F=0, G=E", H5Form(1.0, 1.0, 1.5, 0.0, 1.5),
             "U(2) : Z2", 4, [psi], u2, 2, "row 10"),
    )


@functools.cache
def _cases_h6():
    f2 = _tagged("h6", np.diag([1.0, 1.0, 1.0, -1.0, 1.0, 1.0]))
    f3 = _tagged("h6", np.diag([1.0, 1.0, -1.0, 1.0, 1.0, -1.0]))
    f5 = _tagged("h6", np.diag([-1.0, 1.0, 1.0, 1.0, -1.0, -1.0]))
    rot = _basis(_blockdiag6(np.zeros((1, 1)), _J2, np.zeros((1, 1)), _J2))
    return (
        _row("ab", "", "a=b", H6Form(2.0, 2.0),
             "O(2) x Z2 x Z2", 1, [f3, f2, f5], rot, 8, "a = b"),
        _row("", "ab", "a!=b", H6Form(2.0, 3.0),
             "Z2 x Z2 x Z2", 0, [f3, f2, f5], _NO_BASIS, 8,
             "a != b; stated group of the classification (per-axis sign flips such as "
             "diag(1,-1,1,1,-1,1) are further isometric automorphisms)"),
    )


@functools.cache
def _cases_h4():
    refl = _tagged("h4", np.diag([1.0, -1.0, 1.0, -1.0, -1.0, -1.0]))  # A = diag(1,-1), x = 1
    neg = _tagged("h4", np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0]))  # A = -I, x = 1
    xflip = _tagged("h4", np.diag([1.0, 1.0, -1.0, -1.0, 1.0, -1.0]))  # A = I, x = -1
    so2 = np.zeros((DIM, DIM))
    so2[0, 1], so2[1, 0] = 1.0, -1.0
    so2[2, 3], so2[3, 2] = -1.0, 1.0  # derivation: d12 = 1, d21 = -1 pattern
    so2 = _basis(so2)
    stated = "stated group (diag(1,-1,1,-1,-1,-1) is a further isometric automorphism)"
    return (
        _row("r1 b0", "", "r=1, b=0", H4Form(1.0, 1.2, 0.0, 0.7),
             "O(2) : Z2", 1, [refl, xflip], so2, 4, "r = 1, b = 0"),
        _row("r1", "b0", "r=1, b!=0", H4Form(1.0, 1.2, 0.3, 0.7),
             "O(2)", 1, [refl], so2, 2, "r = 1, b != 0"),
        _row("b0", "r1", "r!=1, b=0", H4Form(0.5, 1.2, 0.0, 0.7),
             "Z2 x Z2", 0, [neg, xflip], _NO_BASIS, 4, f"r != 1, b = 0; {stated}"),
        _row("", "r1 b0", "r!=1, b!=0", H4Form(0.5, 1.2, 0.3, 0.7),
             "Z2", 0, [neg], _NO_BASIS, 2, f"r != 1, b != 0; {stated}"),
    )


@functools.cache
def _cases_h2():
    phi1 = _tagged("h2", np.diag([-1.0, 1.0, 1.0, 1.0, -1.0, 1.0]))
    phi2 = _tagged("h2", np.diag([1.0, 1.0, -1.0, 1.0, 1.0, -1.0]))
    phi3 = auts.component_representatives("h2")[4]  # the factor swap, already tagged
    # A = B = diag(-1,1), which is also phi1 phi2
    sg1 = _tagged("h2", np.diag([-1.0, 1.0, -1.0, 1.0, -1.0, -1.0]))
    sg2 = _tagged("h2", np.diag([1.0, -1.0, 1.0, -1.0, -1.0, -1.0]))  # A = B = diag(1,-1)
    so2_first = _blockdiag6(_J2, np.zeros((2, 2)), np.zeros((2, 2)))
    so2_second = _blockdiag6(np.zeros((2, 2)), _J2, np.zeros((2, 2)))
    both, diag = _basis(so2_first, so2_second), _basis(so2_first + so2_second)
    return (
        _row("a0 ab F0 EG", "", "a=b=0, F=0, E=G", H2Form(0.0, 0.0, 1.5, 0.0, 1.5),
             "(O(2) x O(2)) : Z2", 2, [phi1, phi2, phi3], both, 8, "a = b = 0, F = 0, E = G"),
        _row("a0 ab F0", "EG", "a=b=0, F=0, E!=G", H2Form(0.0, 0.0, 1.0, 0.0, 2.0),
             "O(2) x O(2)", 2, [phi1, phi2], both, 4, "a = b = 0, F = 0, E != G"),
        _row("a0 ab EG", "F0", "a=b=0, F!=0, E=G", H2Form(0.0, 0.0, 1.5, 0.4, 1.5),
             "S(O(2) x O(2)) : Z2", 2, [sg1, phi3], both, 4, "a = b = 0, F != 0, E = G"),
        _row("a0 ab", "F0 EG", "a=b=0, F!=0, E!=G", H2Form(0.0, 0.0, 1.0, 0.4, 2.0),
             "S(O(2) x O(2))", 2, [sg1], both, 2, "a = b = 0, F != 0, E != G"),
        _row("ab EG", "a0", "a=b!=0, E=G", H2Form(0.4, 0.4, 1.5, 0.2, 1.5),
             "diag(O(2) x O(2)) : Z2", 1, [sg1, phi3], diag, 4, "a = b != 0, E = G"),
        _row("ab", "a0 EG", "a=b!=0, E!=G", H2Form(0.4, 0.4, 1.0, 0.2, 2.0),
             "diag(O(2) x O(2))", 1, [sg1], diag, 2, "a = b != 0, E != G"),
        _row("EG", "ab", "0<=a<b, E=G", H2Form(0.2, 0.6, 1.5, 0.3, 1.5),
             "D4", 0, [sg1, sg2, phi3], _NO_BASIS, 8, "a < b, E = G"),
        _row("", "ab EG", "0<=a<b, E!=G", H2Form(0.2, 0.6, 1.0, 0.3, 2.0),
             "Z2 x Z2", 0, [sg1, sg2], _NO_BASIS, 4, "a < b, E != G"),
    )


def isometry_group(alg, form):
    """GroupDescriptor for the isotropy of a canonical metric.  ``alg`` and
    the form's tag must name one algebra (``algebra.require_same_algebra``).
    For h5, h6, h4 and h2 it is the descriptor of the case row that matches
    the form's strata, built once per row; h9's group is the sign flips that
    fix the form.  Generators and isotropy bases are read-only constants."""
    ft = _form_type_of(form)
    require_same_algebra(form.algebra, alg)
    form.validate()
    if ft.cases is None:
        return _isometry_h9(form)
    on = form.on_strata()
    return next(row.descriptor for row in ft.cases()
                if row.on <= on and not row.off & on)


@functools.cache
def _table_h9():
    # the sign flips: the component representatives other than the identity,
    # which carry their tags, and their matrices as one stack
    flips = tuple(rep for rep in auts.component_representatives("h9hat")
                  if max_norm(rep.matrix - np.eye(DIM)) > 0.0)
    return SimpleNamespace(flips=flips, stack=_read_only([rep.matrix for rep in flips]))


def _isometry_h9(form):
    # the sign flips that fix the form snapped onto its strata, exactly (each
    # product with a sign flip is exact); snapping keeps A, B, C, so the
    # snapped form is valid, and Metric decides whether its matrix is SPD
    t = _table_h9()
    g_s = realize(form.snapped()).matrix
    fixes = (t.stack.transpose(0, 2, 1) @ g_s @ t.stack == g_s).all(axis=(1, 2))
    gens = [rep for rep, fixed in zip(t.flips, fixes) if fixed]
    k = len(form.on_strata())  # the strata D0, E0 and F0
    count = 2 ** k
    name = {0: "trivial", 1: "Z2", 2: "Z2 x Z2", 3: "Z2 x Z2 x Z2"}[k]
    return GroupDescriptor(name, 0, tuple(gens), _NO_BASIS, count,
                           f"k = {k} null parameters among (D, E, F)")


# ---------------------------------------------------------------------------
# one record per form type


@dataclass(frozen=True)
class _FormType:
    """The canonical forms of one built-in algebra (h9 in the hat basis)."""

    form: type  # the form class
    canonicalize: Callable  # g -> (form, witness)
    cases: Callable | None  # () -> the case rows; None for h9, whose group is computed


_FORM_TYPES = {
    "h5": _FormType(H5Form, _canonicalize_h5, _cases_h5),
    "h6": _FormType(H6Form, _canonicalize_h6, _cases_h6),
    "h4": _FormType(H4Form, _canonicalize_h4, _cases_h4),
    "h2": _FormType(H2Form, _canonicalize_h2, _cases_h2),
    "h9hat": _FormType(H9Form, _canonicalize_h9, None),
}
_FORM_TYPES["h9"] = _FORM_TYPES["h9hat"]  # a form tagged "h9" is accepted as input


# ---------------------------------------------------------------------------
# verification


@dataclass
class IsometryReport:
    checks: list  # (name, passed, detail) per check

    @property
    def passed(self):
        return all(p for (_n, p, _d) in self.checks)

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {"name": n, "passed": p, "detail": d} for (n, p, d) in self.checks
            ],
        }


def isotropy_algebra_dimension(alg, g):
    """dim {D in Der(alg) : D^T g + g D = 0}, the nullity of D |-> D^T g + g D
    on Der.

    Over the derivation algebra's orthonormal basis B_1..B_k the map is the
    k x 36 matrix with rows B_a^T g + g B_a.  Rescaling g rescales every row
    alike, which leaves the nullity under the relative cutoff unchanged.
    """
    basis = auts.derivation_algebra(alg).matrices
    g = np.asarray(g, dtype=float)
    rows = basis.swapaxes(-1, -2) @ g + g @ basis
    return nullity(rows.reshape(-1, g.size).T)


# pairs of 6x6 matrices compared at once: bounds the (block, elements, 36)
# temporary of the closure's comparisons
_MATCH_BLOCK = 4096


def _matches(prods, elements):
    """For each product, whether it lies within GROUP_MATCH_TOL of one of the
    elements (all flattened to 36-vectors); the comparisons run in blocks of
    about _MATCH_BLOCK pairs."""
    step = max(1, _MATCH_BLOCK // max(1, len(elements)))
    return np.concatenate([_close(prods[lo:lo + step, None], elements).any(axis=-1)
                           for lo in range(0, max(1, len(prods)), step)])


def _close(a, b):
    """max|a - b| <= GROUP_MATCH_TOL over the last axis (False where NaN)."""
    return (np.abs(a - b) <= GROUP_MATCH_TOL).all(axis=-1)


def _generated_group(gen_matrices):
    """Closure of the generated set; None beyond GROUP_ORDER_CAP elements.

    The closure runs level by level: each level multiplies every element
    the previous level found by every generator in one stacked product and
    compares the products with the elements found before it at once.  A
    remaining product is new unless one found earlier in the same level
    matches it, so the elements and their order are those of the loop over
    (element, generator) pairs that compares each product with all
    elements found so far."""
    gens = np.asarray(gen_matrices, dtype=float).reshape(-1, DIM, DIM)
    found = np.empty((GROUP_ORDER_CAP, DIM * DIM))  # the elements, flattened
    found[0] = np.eye(DIM).reshape(-1)
    level, count = 0, 1  # the previous level found found[level:count]
    while level < count:
        prods = (found[level:count].reshape(-1, 1, DIM, DIM) @ gens).reshape(-1, DIM * DIM)
        prods = prods[~_matches(prods, found[:count])]
        level = count
        for prod in prods:
            if count > level and _close(prod, found[level:count]).any():
                continue
            if count == GROUP_ORDER_CAP:  # one more than the cap
                return None
            found[count] = prod
            count += 1
    return list(found[:count].reshape(-1, DIM, DIM))


def verify_isometry_group(alg, form, desc):
    """Verify a GroupDescriptor against the algebra and the realized metric:
    (i) generators preserve bracket and metric, basis elements are
    skew-symmetric derivations; (ii) the finite part closes with the
    expected order; (iii) the continuous dimension matches the isotropy
    algebra's null-space dimension.  Each check takes all generators, or
    all basis elements, as one (n, 6, 6) stack."""
    alg = get_algebra(alg)
    g_c = realize(form).matrix
    scale = max(1.0, max_norm(g_c))
    checks = []

    gens = np.array([gen.matrix for gen in desc.generators]).reshape(-1, DIM, DIM)
    worst_bracket = max_norm(auts._bracket_defect(alg, gens))
    worst_metric = max_norm(gens.swapaxes(-1, -2) @ g_c @ gens - g_c)
    ok = worst_bracket <= ISOMETRY_DEFECT_TOL and worst_metric <= ISOMETRY_DEFECT_TOL * scale
    checks.append(
        ("generators_preserve_bracket_and_metric", bool(ok),
         f"bracket defect {worst_bracket:.2e}, metric defect {worst_metric:.2e}")
    )

    # a built-in's derivation system is built once per process (read-only)
    basis = desc.isotropy_basis
    worst_der = max_norm(basis.reshape(-1, DIM * DIM) @ auts._derivation_system(alg).T)
    worst_skew = max_norm(basis.swapaxes(-1, -2) @ g_c + g_c @ basis)
    ok = worst_der <= ISOMETRY_DEFECT_TOL and worst_skew <= ISOMETRY_DEFECT_TOL * scale
    checks.append(
        ("isotropy_basis_in_isotropy_algebra", bool(ok),
         f"derivation defect {worst_der:.2e}, symmetry defect {worst_skew:.2e}")
    )

    group = _generated_group(gens)
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

    return IsometryReport(checks)
