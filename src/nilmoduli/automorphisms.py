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
  h9:  lower triangular with the five dependent entries of the hat-basis
       theorem (a33 = a11^2, a53 = -a11 a21, a55 = a11 a22,
       a65 = a22 a31 - a21 a32 - a11 a52, a66 = a11^2 a22).

Each algebra's theorem is one ``_AutTheorem`` record in ``_THEOREMS``: the
structured constructor, the component tag (the discrete sign invariants
above), the theorem-form defect, one representative per component and the
identity-component sampler.  The h9 record is the h9hat record conjugated
by the hat permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import _PAIRING_J, DEFAULT_TOL, DIM, get_algebra
from .errors import DegenerateParams, Unsupported
from .linalg import max_norm, null_space


@dataclass(frozen=True, eq=False)
class Automorphism:
    matrix: np.ndarray
    algebra: str
    component: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))

    def to_json_dict(self):
        return {
            "algebra": self.algebra,
            "matrix": [float(v) for v in self.matrix.reshape(-1)],
            "component": self.component,
        }


@dataclass(frozen=True, eq=False)
class DerivationBasis:
    matrices: np.ndarray  # (k, 6, 6), orthonormal as 36-vectors
    dimension: int


def _bracket_defect(alg, m):
    """max over basis pairs of || M[e_i,e_j] - [Me_i, Me_j] ||_max."""
    b = alg.bracket_tensor
    lhs = np.einsum("km,mij->kij", m, b, optimize=True)
    rhs = np.einsum("kpq,pi,qj->kij", b, m, m, optimize=True)
    return max_norm(lhs - rhs)


def is_automorphism(alg, m, tol=DEFAULT_TOL):
    alg = get_algebra(alg)
    m = np.asarray(m, dtype=float)
    if abs(np.linalg.det(m)) < 1e-12:
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
    """
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


def derivation_algebra(alg, tol=1e-10):
    """Orthonormal basis of {D : D[x,y] = [Dx,y] + [x,Dy]} as 36-vectors."""
    alg = get_algebra(alg)
    basis = null_space(_derivation_system(alg), tol=tol)
    mats = basis.T.reshape(-1, alg.dim, alg.dim)
    return DerivationBasis(matrices=mats, dimension=mats.shape[0])


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
    out = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            out[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = _zblock(mc[i, j])
    return out


def _zblock(w):
    return np.array([[w.real, -w.imag], [w.imag, w.real]])


PSI_H5 = np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
_HAT_PERM = np.eye(DIM)[[1, 0, 3, 2, 4, 5]]  # swap 1<->2, 3<->4; its own inverse
_HAT_PERM.setflags(write=False)


def _sign_bits(*values):
    idx = 0
    for v in values:
        idx = (idx << 1) | (1 if v < 0 else 0)
    return idx


def _rand_gl2(rng, det_min=0.15, entry_scale=1.0):
    """Random well-conditioned 2x2 with positive determinant."""
    while True:
        a = rng.normal(0.0, entry_scale, size=(2, 2))
        if np.linalg.det(a) >= det_min:
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
    if abs(np.linalg.det(at)) < 1e-12:
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
    r, s, det_at = m[0, 0], m[3, 3], np.linalg.det(m[1:3, 1:3])
    return _sign_bits(r, s, det_at)


def _defect_h6(m):
    d = [
        m[0, 1:6],
        m[1, 3:6],
        m[2, 3:6],
        m[3, 4:6],
        [m[4, 4] - m[0, 0] * m[1, 1], m[4, 5] - m[0, 0] * m[1, 2]],
        [m[5, 4] - m[0, 0] * m[2, 1], m[5, 5] - m[0, 0] * m[2, 2]],
    ]
    return max(max_norm(np.asarray(x)) for x in d)


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
    if abs(np.linalg.det(a)) < 1e-12:
        raise DegenerateParams("h4 requires det A != 0")
    if p.x == 0.0:
        raise DegenerateParams("h4 requires x != 0")
    m6 = np.zeros((DIM, DIM))
    m6[:2, :2] = a
    m6[2:4, :2] = b
    m6[2:4, 2:4] = p.x * sigma_involution(a)
    m6[4:, :4] = np.asarray(p.M, dtype=float)
    det = float(np.linalg.det(a))
    m6[4, 4] = det
    m6[5, 4] = h4_pairing(a, b)
    m6[5, 5] = p.x * det
    return m6


def _component_h4(m):
    det_a, x_det = np.linalg.det(m[:2, :2]), m[5, 5]
    x = x_det / det_a
    return _sign_bits(det_a, x)


def _defect_h4(m):
    a = m[:2, :2]
    b = m[2:4, :2]
    c = m[2:4, 2:4]
    det = np.linalg.det(a)
    zeros = max(max_norm(m[:2, 2:6]), max_norm(m[2:4, 4:6]), abs(m[4, 5]))
    # C must be proportional to sigma(A); fit x by least squares
    sig = sigma_involution(a)
    denom = float(np.sum(sig * sig))
    x = float(np.sum(c * sig)) / denom if denom > 0 else 0.0
    deps = max(
        max_norm(c - x * sig),
        abs(m[4, 4] - det),
        abs(m[5, 4] - h4_pairing(a, b)),
        abs(m[5, 5] - x * det),
    )
    return max(zeros, deps)


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
    det = complex(np.linalg.det(ac))
    if abs(det) < 1e-12:
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


def _defect_h5(m):
    zeros = max_norm(m[:4, 4:6])
    mm = PSI_H5 @ m if _component_h5(m) == 1 else m
    a4 = mm[:4, :4]
    j0 = _PAIRING_J[:4, :4]
    complex_defect = max_norm(a4 @ j0 - j0 @ a4)
    z1 = complex(a4[0, 0], a4[1, 0])
    z3 = complex(a4[2, 0], a4[3, 0])
    z2 = complex(a4[0, 2], a4[1, 2])
    z4 = complex(a4[2, 2], a4[3, 2])
    det = z1 * z4 - z2 * z3
    delta_defect = max_norm(mm[4:, 4:] - _zblock(det))
    return max(zeros, complex_defect, delta_defect)


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
        if abs(z1 * z4 - z2 * z3) >= 0.15:
            break
    return H5Params(z1=z1, z2=z2, z3=z3, z4=z4, M=_rand_block(rng, (2, 4)), psi=False)


def _construct_h2(p: H2Params):
    a = np.asarray(p.A, dtype=float)
    b = np.asarray(p.B, dtype=float)
    da, db = float(np.linalg.det(a)), float(np.linalg.det(b))
    if abs(da) < 1e-12 or abs(db) < 1e-12:
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


def _component_h2(m):
    swap = max_norm(m[:2, 2:4]) > max_norm(m[:2, :2])
    if swap:
        da, db = np.linalg.det(m[:2, 2:4]), np.linalg.det(m[2:4, :2])
    else:
        da, db = np.linalg.det(m[:2, :2]), np.linalg.det(m[2:4, 2:4])
    return _sign_bits(1.0 if not swap else -1.0, da, db)


def _defect_h2(m):
    swap = max_norm(m[:2, 2:4]) > max_norm(m[:2, :2])
    if not swap:
        a, b = m[:2, :2], m[2:4, 2:4]
        zeros = max(max_norm(m[:2, 2:4]), max_norm(m[2:4, :2]))
        delta = np.diag([np.linalg.det(a), np.linalg.det(b)])
    else:
        a, b = m[:2, 2:4], m[2:4, :2]
        zeros = max(max_norm(m[:2, :2]), max_norm(m[2:4, 2:4]))
        delta = np.array([[0.0, np.linalg.det(a)], [np.linalg.det(b), 0.0]])
    return max(zeros, max_norm(m[:4, 4:6]), max_norm(m[4:, 4:] - delta))


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


def _defect_h9hat(m):
    upper = max(abs(m[i, j]) for i in range(DIM) for j in range(DIM) if j > i)
    zeros = max(upper, abs(m[4, 3]))
    a11, a22 = m[0, 0], m[1, 1]
    deps = max(
        abs(m[2, 2] - a11 ** 2),
        abs(m[4, 2] + a11 * m[1, 0]),
        abs(m[4, 4] - a11 * a22),
        abs(m[5, 4] - (a22 * m[2, 0] - m[1, 0] * m[2, 1] - a11 * m[4, 1])),
        abs(m[5, 5] - a11 ** 2 * a22),
    )
    return max(zeros, deps)


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
    component: Callable  # matrix -> component tag
    defect: Callable  # matrix -> deviation from the theorem form
    representatives: Callable  # () -> one matrix per component
    sample: Callable  # rng -> parameters in the identity component


def _in_h9_basis(hat):
    """The h9 theorem: the h9hat one with every matrix conjugated by the hat
    permutation (the theorem form lives in the hat basis)."""
    p = _HAT_PERM
    return _AutTheorem(
        construct=lambda params: p @ hat.construct(params) @ p,
        component=lambda m: hat.component(p @ m @ p),
        defect=lambda m: hat.defect(p @ m @ p),
        representatives=lambda: [p @ m @ p for m in hat.representatives()],
        sample=hat.sample,
    )


_THEOREMS = {
    "h6": _AutTheorem(_construct_h6, _component_h6, _defect_h6, _reps_h6, _sample_h6),
    "h4": _AutTheorem(_construct_h4, _component_h4, _defect_h4, _reps_h4, _sample_h4),
    "h5": _AutTheorem(_construct_h5, _component_h5, _defect_h5, _reps_h5, _sample_h5),
    "h2": _AutTheorem(_construct_h2, _component_h2, _defect_h2, _reps_h2, _sample_h2),
    "h9hat": _AutTheorem(_construct_h9hat, _component_h9hat, _defect_h9hat, _reps_h9hat,
                         _sample_h9hat),
}
_THEOREMS["h9"] = _in_h9_basis(_THEOREMS["h9hat"])


def _theorem(alg):
    """(label, theorem record) of a built-in algebra."""
    label = get_algebra(alg).label
    if label not in _THEOREMS:
        raise Unsupported(f"automorphism theorems exist for the built-ins only, not {label!r}")
    return label, _THEOREMS[label]


def structured_automorphism(alg, params):
    """Automorphism from the theorem-form parameters of a built-in algebra."""
    label, theorem = _theorem(alg)
    m = theorem.construct(params)
    return Automorphism(m, label, theorem.component(m))


def component_label(alg, m):
    """Discrete component tag of an automorphism matrix."""
    return _theorem(alg)[1].component(np.asarray(m, dtype=float))


def matches_theorem_form(alg, m, tol=DEFAULT_TOL):
    """True iff m fits the zero pattern and dependent entries of the
    algebra's automorphism theorem (tolerance scaled by max|m|)."""
    alg = get_algebra(alg)
    m = np.asarray(m, dtype=float)
    scale = max(1.0, max_norm(m) ** 2)
    defect = theorem_form_defect(alg, m)
    return bool(defect <= tol * scale)


def theorem_form_defect(alg, m):
    return _theorem(alg)[1].defect(np.asarray(m, dtype=float))


def component_representatives(alg):
    """Diagonal (plus swap) representatives, one per connected component."""
    label, theorem = _theorem(alg)
    out = [Automorphism(m, label, theorem.component(m)) for m in theorem.representatives()]
    out.sort(key=lambda f: f.component)
    return out


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
    m = reps[component].matrix @ base.matrix
    return Automorphism(m, alg.label, component_label(alg, m))
