"""Derivations, automorphism predicates and the structured constructors of
Aut(h) for the five built-in algebras.

Shapes (in each algebra's working basis; blocks act on (e1..e4) | (e5, e6)):

  h6:  [[A, 0], [M, r*At]] with A = [[r,0,0],[x,At,0],[z,y^T,s]] block
       lower triangular, r, s != 0, At in GL2.
  h4:  [[A2,0,0],[B2,x*sigma(A2),0],[M1,M2,Delta]] with
       Delta = [[det A2, 0],[(A2,B2), x det A2]],
       (A, B) = a11 b22 - a12 b21 + a21 b12 - a22 b11,
       sigma flips the off-diagonal signs of a 2x2 matrix.
  h5:  [[A4,0],[M,Z(det_C)]] with A4 the real form of A in GL2(C) for the
       pairing (e1,e2),(e3,e4); second component via psi = diag(1,-1,...).
  h2:  block diag(A,B) or antidiag(A,B) over the two heis factors with
       Delta = diag(det A, det B) resp. antidiag(det A, det B).
  h9:  lower triangular with the five dependent entries of the theorem
       (a33 = a11^2, a53 = -a11 a21, a55 = a11 a22,
       a65 = a22 a31 - a21 a32 - a11 a52, a66 = a11^2 a22).

Each algebra's theorem is one ``_AutTheorem`` record in ``_THEOREMS``:

  construct        theorem-form parameters -> matrix; raises DegenerateParams
                   when a nondegeneracy condition (r, s != 0, det At != 0, ...)
                   fails
  read             matrix -> the parameters held in its free entries
  component        matrix -> component tag (the discrete sign invariants above)
  representatives  () -> one matrix per component
  sample           rng -> parameters in the identity component

The theorem-form defect of m is max|m - construct(read(m))|, and inf when
the parameters read off m are degenerate; so each zero and each dependent
entry of a shape above is written once, in its constructor.  ``h9`` is a
name for h9hat, so its record is h9hat's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (_PAIRING_J, DEFAULT_TOL, DIM, builtin_label, get_algebra, map_values,
                      memo, pullback)
from .errors import DegenerateParams, Unsupported
from .linalg import det2, max_norm, null_space

# |det| below which a matrix counts as singular: is_automorphism and the
# nondegeneracy guards of the theorem constructors
DET_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class Automorphism:
    """An automorphism matrix with the component tag ``component_label`` gives it."""

    matrix: np.ndarray
    algebra: str
    component: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "component", component_label(self.algebra, self.matrix))

    def to_json_dict(self):
        return {
            "algebra": self.algebra,
            "matrix": self.matrix.reshape(-1).tolist(),
            "component": self.component,
        }


@dataclass(frozen=True, eq=False)
class DerivationBasis:
    matrices: np.ndarray  # (k, 6, 6), orthonormal as 36-vectors

    @property
    def dimension(self):
        return len(self.matrices)


def _bracket_defect(alg, m):
    """max over basis pairs of || M[e_i,e_j] - [Me_i, Me_j] ||_max.

    ``m`` is one M, which gives a float, or an (n, 6, 6) stack, which gives
    one defect per M with the bits of that M's own call."""
    b = alg.bracket_tensor
    lhs = map_values(m, b).swapaxes(-1, -2).swapaxes(-2, -3)  # M[e_i, e_j]
    defect = np.abs(lhs - pullback(b, m))
    if m.ndim == 2:
        return float(defect.max())
    return defect.reshape(*m.shape[:-2], b.size).max(axis=-1)


def is_automorphism(alg, m, tol=DEFAULT_TOL):
    alg = get_algebra(alg)
    m = np.asarray(m, dtype=float)
    if abs(np.linalg.det(m)) < DET_FLOOR:
        return False
    scale = max(1.0, max_norm(m) ** 2)
    return bool(_bracket_defect(alg, m) <= tol * scale)


def _derivation_system(alg):
    """Rows of D |-> D[e_i,e_j] - [De_i, e_j] - [e_i, De_j], i < j, acting on
    D as a 36-vector; the null space is the derivation algebra.

    Row (pair p = (i, j), k), column (m, c) holds the coefficient of D[m, c]
    in component k.  A cell collects at most two terms, and a sum of two
    does not depend on their order, so the rows equal those of the
    term-by-term loop bit for bit.

    Built once per algebra object and read-only (``algebra.memo``).
    """
    return memo(alg, _build_derivation_system)


def _build_derivation_system(alg):
    n = alg.dim
    b = alg.bracket_tensor
    i, j = np.triu_indices(n, 1)
    p = np.arange(i.size)
    k = np.arange(n)
    system = np.zeros((i.size, n, n, n))
    system[:, k, k, :] += b[:, i, j].T[:, None, :]  # D[e_i, e_j]
    system[p, :, :, i] -= b[:, :, j].transpose(2, 0, 1)  # [D e_i, e_j]
    system[p, :, :, j] -= b[:, i, :].transpose(1, 0, 2)  # [e_i, D e_j]
    return system.reshape(-1, n * n)


def derivation_algebra(alg):
    """Orthonormal basis of {D : D[x,y] = [Dx,y] + [x,Dy]} as 36-vectors.

    Built once per algebra object, with read-only matrices
    (``algebra.memo``).
    """
    return memo(get_algebra(alg), _derivation_basis)


def _derivation_basis(alg):
    mats = null_space(_derivation_system(alg)).T.reshape(-1, alg.dim, alg.dim)
    return DerivationBasis(matrices=mats)


# ---------------------------------------------------------------------------
# structured parameters


@dataclass(frozen=True)
class H6Params:
    r: float = 1.0
    s: float = 1.0
    z: float = 0.0
    x: tuple = (0.0, 0.0)
    y: tuple = (0.0, 0.0)
    At: tuple = ((1.0, 0.0), (0.0, 1.0))
    M: tuple = ((0.0,) * 4, (0.0,) * 4)


@dataclass(frozen=True)
class H4Params:
    A: tuple = ((1.0, 0.0), (0.0, 1.0))
    B: tuple = ((0.0, 0.0), (0.0, 0.0))
    x: float = 1.0
    M: tuple = ((0.0,) * 4, (0.0,) * 4)


@dataclass(frozen=True)
class H5Params:
    z1: complex = 1.0 + 0.0j
    z2: complex = 0.0 + 0.0j
    z3: complex = 0.0 + 0.0j
    z4: complex = 1.0 + 0.0j
    M: tuple = ((0.0,) * 4, (0.0,) * 4)
    psi: bool = False


@dataclass(frozen=True)
class H2Params:
    A: tuple = ((1.0, 0.0), (0.0, 1.0))
    B: tuple = ((1.0, 0.0), (0.0, 1.0))
    M1: tuple = ((0.0, 0.0), (0.0, 0.0))
    M2: tuple = ((0.0, 0.0), (0.0, 0.0))
    swap: bool = False


@dataclass(frozen=True)
class H9Params:
    a11: float = 1.0
    a22: float = 1.0
    a44: float = 1.0
    a21: float = 0.0
    a31: float = 0.0
    a32: float = 0.0
    a41: float = 0.0
    a42: float = 0.0
    a43: float = 0.0
    a51: float = 0.0
    a52: float = 0.0
    a61: float = 0.0
    a62: float = 0.0
    a63: float = 0.0
    a64: float = 0.0


def sigma_involution(a):
    """sigma([[a,b],[c,d]]) = [[a,-b],[-c,d]]."""
    a = np.asarray(a, dtype=float)
    return np.array([[a[0, 0], -a[0, 1]], [-a[1, 0], a[1, 1]]])


def h4_pairing(a, b):
    """(A, B) = a11 b22 - a12 b21 + a21 b12 - a22 b11.

    Forced by bracket preservation ([f(e1), f(e2)] = -f(e5)); the third
    term involves a21, not a22 as misprinted in the source.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(a[0, 0] * b[1, 1] - a[0, 1] * b[1, 0] + a[1, 0] * b[0, 1] - a[1, 1] * b[0, 0])


def realify_complex2(mc):
    """Real 4x4 form of a complex 2x2 matrix for the pairing (e1,e2),(e3,e4)."""
    mc = np.asarray(mc, dtype=complex)
    out = np.empty((4, 4))
    out[0::2, 0::2] = out[1::2, 1::2] = mc.real
    out[1::2, 0::2] = mc.imag
    out[0::2, 1::2] = -mc.imag
    return out


def _zblock(w):
    return np.array([[w.real, -w.imag], [w.imag, w.real]])


PSI_H5 = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _sign_bits(*values):
    idx = 0
    for v in values:
        idx = (idx << 1) | (1 if v < 0 else 0)
    return idx


# the samplers' 2x2 blocks (complex for h5) have |det| at least this
_SAMPLE_DET_MIN = 0.15


def _rand_gl2(rng):
    """Random well-conditioned 2x2 with positive determinant (standard normal
    entries)."""
    while True:
        a = rng.normal(0.0, 1.0, size=(2, 2))
        if np.linalg.det(a) >= _SAMPLE_DET_MIN:
            return a


def _rand_scalar(rng, low=0.4, high=1.6):
    return float(rng.uniform(low, high))


def _rand_block(rng, shape):
    return tuple(map(tuple, rng.uniform(-1, 1, shape)))


# ---------------------------------------------------------------------------
# the theorem of each built-in (h9 in the hat basis)


def _construct_h6(p: H6Params):
    at = np.asarray(p.At, dtype=float)
    if p.r == 0.0 or p.s == 0.0:
        raise DegenerateParams("h6 requires r != 0 and s != 0")
    if abs(det2(at)) < DET_FLOOR:
        raise DegenerateParams("h6 requires det At != 0")
    a = np.zeros((4, 4))
    a[0, 0] = p.r
    a[1:3, 0] = p.x
    a[1:3, 1:3] = at
    a[3, 0] = p.z
    a[3, 1:3] = p.y
    a[3, 3] = p.s
    m6 = np.zeros((DIM, DIM))
    m6[:4, :4] = a
    m6[4:, :4] = np.asarray(p.M, dtype=float)
    m6[4:, 4:] = p.r * at
    return m6


def _component_h6(m):
    r, s, det_at = m[0, 0], m[3, 3], det2(m[1:3, 1:3])
    return _sign_bits(r, s, det_at)


def _read_h6(m):
    return H6Params(r=m[0, 0], s=m[3, 3], z=m[3, 0], x=m[1:3, 0], y=m[3, 1:3],
                    At=m[1:3, 1:3], M=m[4:, :4])


def _reps_h6():
    signs = (1.0, -1.0)
    return [np.diag([r, 1.0, d, s, r, r * d]) for r in signs for s in signs for d in signs]


def _sample_h6(rng):
    return H6Params(
        r=_rand_scalar(rng),
        s=_rand_scalar(rng),
        z=float(rng.uniform(-1, 1)),
        x=tuple(rng.uniform(-1, 1, 2)),
        y=tuple(rng.uniform(-1, 1, 2)),
        At=tuple(map(tuple, _rand_gl2(rng))),
        M=_rand_block(rng, (2, 4)),
    )


def _construct_h4(p: H4Params):
    a = np.asarray(p.A, dtype=float)
    b = np.asarray(p.B, dtype=float)
    det = det2(a)
    if abs(det) < DET_FLOOR:
        raise DegenerateParams("h4 requires det A != 0")
    if p.x == 0.0:
        raise DegenerateParams("h4 requires x != 0")
    m6 = np.zeros((DIM, DIM))
    m6[:2, :2] = a
    m6[2:4, :2] = b
    m6[2:4, 2:4] = p.x * sigma_involution(a)
    m6[4:, :4] = np.asarray(p.M, dtype=float)
    m6[4, 4] = det
    m6[5, 4] = h4_pairing(a, b)
    m6[5, 5] = p.x * det
    return m6


def _h4_det_x(m):
    """(det A, x) of an h4 matrix, x read off its entry x det A (nan if det A = 0)."""
    det_a = det2(m[:2, :2])
    return det_a, (m[5, 5] / det_a if det_a else math.nan)


def _component_h4(m):
    return _sign_bits(*_h4_det_x(m))


def _read_h4(m):
    return H4Params(A=m[:2, :2], B=m[2:4, :2], x=_h4_det_x(m)[1], M=m[4:, :4])


def _reps_h4():
    signs = (1.0, -1.0)
    return [_construct_h4(H4Params(A=((1.0, 0.0), (0.0, d)), x=x)) for d in signs for x in signs]


def _sample_h4(rng):
    return H4Params(
        A=tuple(map(tuple, _rand_gl2(rng))),
        B=_rand_block(rng, (2, 2)),
        x=_rand_scalar(rng),
        M=_rand_block(rng, (2, 4)),
    )


def _construct_h5(p: H5Params):
    ac = np.array([[p.z1, p.z2], [p.z3, p.z4]], dtype=complex)
    det = det2(ac)
    if abs(det) < DET_FLOOR:
        raise DegenerateParams("h5 requires det_C A != 0")
    m6 = np.zeros((DIM, DIM))
    m6[:4, :4] = realify_complex2(ac)
    m6[4:, :4] = np.asarray(p.M, dtype=float)
    m6[4:, 4:] = _zblock(det)
    if p.psi:
        m6 = PSI_H5 @ m6
    return m6


def _component_h5(m):
    j0 = _PAIRING_J[:4, :4]
    a4 = m[:4, :4]
    commute = max_norm(a4 @ j0 - j0 @ a4)
    anti = max_norm(a4 @ j0 + j0 @ a4)
    return 0 if commute <= anti else 1


def _read_h5(m):
    psi = _component_h5(m) == 1
    mm = PSI_H5 @ m if psi else m
    z = mm[0:4:2, 0:4:2] + 1j * mm[1:4:2, 0:4:2]  # z_ij from column 2j of the real form
    return H5Params(z1=z[0, 0], z2=z[0, 1], z3=z[1, 0], z4=z[1, 1], M=mm[4:, :4], psi=psi)


def _reps_h5():
    return [np.eye(DIM), PSI_H5.copy()]


def _sample_h5(rng):
    while True:
        z = rng.normal(0.0, 0.8, size=8)
        z1, z2, z3, z4 = (
            complex(z[0], z[1]),
            complex(z[2], z[3]),
            complex(z[4], z[5]),
            complex(z[6], z[7]),
        )
        if abs(z1 * z4 - z2 * z3) >= _SAMPLE_DET_MIN:
            break
    return H5Params(z1=z1, z2=z2, z3=z3, z4=z4, M=_rand_block(rng, (2, 4)), psi=False)


def _construct_h2(p: H2Params):
    a = np.asarray(p.A, dtype=float)
    b = np.asarray(p.B, dtype=float)
    da, db = det2(a), det2(b)
    if abs(da) < DET_FLOOR or abs(db) < DET_FLOOR:
        raise DegenerateParams("h2 requires det A != 0 and det B != 0")
    m6 = np.zeros((DIM, DIM))
    if not p.swap:
        m6[:2, :2] = a
        m6[2:4, 2:4] = b
        m6[4, 4] = da
        m6[5, 5] = db
    else:
        m6[:2, 2:4] = a
        m6[2:4, :2] = b
        m6[4, 5] = da
        m6[5, 4] = db
    m6[4:, :2] = np.asarray(p.M1, dtype=float)
    m6[4:, 2:4] = np.asarray(p.M2, dtype=float)
    return m6


def _h2_blocks(m):
    """(swap, A, B) of an h2 matrix; swap when it exchanges the two heis factors."""
    if max_norm(m[:2, 2:4]) > max_norm(m[:2, :2]):
        return True, m[:2, 2:4], m[2:4, :2]
    return False, m[:2, :2], m[2:4, 2:4]


def _component_h2(m):
    swap, a, b = _h2_blocks(m)
    return _sign_bits(-1.0 if swap else 1.0, det2(a), det2(b))


def _read_h2(m):
    swap, a, b = _h2_blocks(m)
    return H2Params(A=a, B=b, M1=m[4:, :2], M2=m[4:, 2:4], swap=swap)


def _reps_h2():
    phi1 = np.diag([-1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    phi2 = np.diag([1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    phi3 = np.zeros((DIM, DIM))
    phi3[0, 2] = phi3[1, 3] = phi3[2, 0] = phi3[3, 1] = 1.0
    phi3[4, 5] = phi3[5, 4] = 1.0
    base = [np.eye(DIM), phi1, phi2, phi1 @ phi2]
    return base + [m @ phi3 for m in base]


def _sample_h2(rng):
    return H2Params(
        A=tuple(map(tuple, _rand_gl2(rng))),
        B=tuple(map(tuple, _rand_gl2(rng))),
        M1=_rand_block(rng, (2, 2)),
        M2=_rand_block(rng, (2, 2)),
        swap=False,
    )


def _construct_h9hat(p: H9Params):
    if p.a11 == 0.0 or p.a22 == 0.0 or p.a44 == 0.0:
        raise DegenerateParams("h9 requires a11 a22 a44 != 0")
    m = np.zeros((DIM, DIM))
    m[0, 0] = p.a11
    m[1, 0], m[1, 1] = p.a21, p.a22
    m[2, 0], m[2, 1], m[2, 2] = p.a31, p.a32, p.a11 ** 2
    m[3, 0], m[3, 1], m[3, 2], m[3, 3] = p.a41, p.a42, p.a43, p.a44
    m[4, 0], m[4, 1] = p.a51, p.a52
    m[4, 2] = -p.a11 * p.a21
    m[4, 4] = p.a11 * p.a22
    m[5, 0], m[5, 1], m[5, 2], m[5, 3] = p.a61, p.a62, p.a63, p.a64
    m[5, 4] = p.a22 * p.a31 - p.a21 * p.a32 - p.a11 * p.a52
    m[5, 5] = p.a11 ** 2 * p.a22
    return m


def _component_h9hat(m):
    return _sign_bits(m[0, 0], m[1, 1], m[3, 3])


def _read_h9hat(m):
    return H9Params(
        a11=m[0, 0], a22=m[1, 1], a44=m[3, 3], a21=m[1, 0],
        a31=m[2, 0], a32=m[2, 1], a41=m[3, 0], a42=m[3, 1], a43=m[3, 2],
        a51=m[4, 0], a52=m[4, 1], a61=m[5, 0], a62=m[5, 1],
        a63=m[5, 2], a64=m[5, 3],
    )


def _reps_h9hat():
    signs = (1.0, -1.0)
    return [np.diag([e1, e2, 1.0, e3, e1 * e2, e2]) for e1 in signs for e2 in signs for e3 in signs]


def _sample_h9hat(rng):
    vals = {k: float(rng.uniform(-0.9, 0.9)) for k in (
        "a21", "a31", "a32", "a41", "a42", "a43",
        "a51", "a52", "a61", "a62", "a63", "a64")}
    return H9Params(
        a11=_rand_scalar(rng, 0.5, 1.4),
        a22=_rand_scalar(rng, 0.5, 1.4),
        a44=_rand_scalar(rng, 0.5, 1.4),
        **vals,
    )


# ---------------------------------------------------------------------------
# one record per built-in algebra


@dataclass(frozen=True)
class _AutTheorem:
    """The automorphism theorem of one built-in algebra, in its working basis."""

    construct: Callable  # theorem-form parameters -> matrix
    read: Callable  # matrix -> the theorem-form parameters in its free entries
    component: Callable  # matrix -> component tag
    representatives: Callable  # () -> one matrix per component
    sample: Callable  # rng -> parameters in the identity component


_THEOREMS = {
    "h6": _AutTheorem(_construct_h6, _read_h6, _component_h6, _reps_h6, _sample_h6),
    "h4": _AutTheorem(_construct_h4, _read_h4, _component_h4, _reps_h4, _sample_h4),
    "h5": _AutTheorem(_construct_h5, _read_h5, _component_h5, _reps_h5, _sample_h5),
    "h2": _AutTheorem(_construct_h2, _read_h2, _component_h2, _reps_h2, _sample_h2),
    "h9hat": _AutTheorem(_construct_h9hat, _read_h9hat, _component_h9hat, _reps_h9hat,
                         _sample_h9hat),
}
_THEOREMS["h9"] = _THEOREMS["h9hat"]  # "h9" names h9hat, as in moduli._FORM_TYPES


def _theorem(alg):
    """(label, theorem record) of the built-in that ``alg`` names
    (``algebra.builtin_label`` of the algebra it resolves to, so "h9" gets h9hat's)."""
    alg = get_algebra(alg)
    label = builtin_label(alg)
    if label not in _THEOREMS:
        raise Unsupported(f"automorphism theorems exist for the built-ins only, not {alg.label!r}")
    return label, _THEOREMS[label]


def structured_automorphism(alg, params):
    """Automorphism from the theorem-form parameters of a built-in algebra."""
    label, theorem = _theorem(alg)
    return Automorphism(theorem.construct(params), label)


def component_label(alg, m):
    """Discrete component tag of an automorphism matrix."""
    return _theorem(alg)[1].component(np.asarray(m, dtype=float))


def matches_theorem_form(alg, m, tol=DEFAULT_TOL):
    """True iff m fits the zero pattern, dependent entries and nondegeneracy
    conditions of the algebra's automorphism theorem (tolerance scaled by
    max|m|^2)."""
    m = np.asarray(m, dtype=float)
    scale = max(1.0, max_norm(m) ** 2)
    return bool(theorem_form_defect(alg, m) <= tol * scale)


def theorem_form_defect(alg, m):
    """max|m - construct(read(m))|, inf when read(m) is degenerate."""
    theorem = _theorem(alg)[1]
    m = np.asarray(m, dtype=float)
    try:
        return max_norm(m - theorem.construct(theorem.read(m)))
    except DegenerateParams:
        return math.inf


def component_representatives(alg):
    """Diagonal (plus swap) representatives, one per connected component,
    in component order.

    The list is new on each call; its matrices are built once per process
    and are read-only (copy one before writing to it).
    """
    label, _ = _theorem(alg)
    return list(_representatives(label))


@functools.cache
def _representatives(label):
    reps = [Automorphism(m, label) for m in _THEOREMS[label].representatives()]
    for rep in reps:
        rep.matrix.setflags(write=False)
    return tuple(sorted(reps, key=lambda f: f.component))


def random_structured_params(alg, rng):
    """Parameters of a random automorphism in the identity component."""
    return _theorem(alg)[1].sample(rng)


def random_automorphism(alg, seed, component=None):
    """Deterministic-in-seed random automorphism.

    The base draw lies in the identity component; it is composed with the
    representative of ``component`` (random component when None).
    """
    alg = get_algebra(alg)
    rng = np.random.default_rng(seed)
    base = structured_automorphism(alg, random_structured_params(alg, rng))
    reps = component_representatives(alg)
    if component is None:
        component = int(rng.integers(0, len(reps)))
    return Automorphism(reps[component].matrix @ base.matrix, alg.label)
