"""Structure constants, brackets and the Nijenhuis tensor of the built-in
6-dimensional nilpotent Lie algebras.

Conventions.  An algebra is stored through its structure constants c^k_{ij}
defined by de^k = sum_{i<j} c^k_{ij} e^{ij}, which by d(theta)(X, Y) =
-theta([X, Y]) is equivalent to e^k([e_i, e_j]) = -c^k_{ij}.  Both the c
tensor and the bracket tensor (its negative) are kept antisymmetric in
(i, j).  Each built-in is the parse of its string in BUILTIN_SALAMON:

    h2 = (0,0,0,0,12,34)        h4 = (0,0,0,0,12,14+23)
    h5 = (0,0,0,0,13+42,14+23)  h6 = (0,0,0,0,12,13)
    h9hat = (0,0,0,0,21,15+23)

h9hat is h9 in the hat basis, where the nontrivial brackets are
[ê1,ê2] = +ê5, [ê1,ê5] = [ê2,ê3] = -ê6.  ``h9`` is a name for ``h9hat``; the
paper's Salamon string for h9, PAPER_H9_SALAMON, is in the e-basis and
parses to a custom algebra.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AlgebraMismatch, NotNilpotent, ParseError, SingularMatrix
from .linalg import RANK_RTOL, max_norm

DIM = 6
BUILTIN_SALAMON = {
    "h2": "(0,0,0,0,12,34)",
    "h4": "(0,0,0,0,12,14+23)",
    "h5": "(0,0,0,0,13+42,14+23)",
    "h6": "(0,0,0,0,12,13)",
    "h9hat": "(0,0,0,0,21,15+23)",
}
BUILTIN_IDS = ("h2", "h4", "h5", "h6", "h9", "h9hat")
PAPER_H9_SALAMON = "(0,0,0,0,12,14+25)"  # the paper's h9, in the e-basis: no built-in's tensor

# default tolerance of the J^2 = -I check, the abelian test, is_automorphism
# and matches_theorem_form
DEFAULT_TOL = 1e-9
COND_MAX = 1e12  # change_of_basis rejects a matrix of larger condition number
_IDENTITY = np.eye(DIM)  # the one read-only identity of J^2 + I
_IDENTITY.setflags(write=False)


@dataclass(frozen=True)
class LieAlgebra:
    """6-dimensional Lie algebra given by its structure-constant tensor.

    ``c[k, i, j]`` is the coefficient of e^{ij} in de^k, stored
    antisymmetrically in (i, j).  ``_memo`` holds what ``memo`` has built
    for this object.
    """

    c: np.ndarray
    label: str = "custom"
    dim = DIM  # a class constant, not a field
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim,) * 3:
            raise ValueError("structure tensor must be dim x dim x dim")
        if max_norm(c + np.swapaxes(c, 1, 2)) > 0.0:
            c = 0.5 * (c - np.swapaxes(c, 1, 2))
        object.__setattr__(self, "c", c)

    @property
    def bracket_tensor(self):
        """b[k, i, j] = e^k-component of [e_i, e_j] (equals -c[k, i, j])."""
        return -self.c

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return np.array_equal(self.c, other.c)


@dataclass(frozen=True, eq=False)
class AlmostComplexStructure:
    """J with J^2 = -I (checked at construction) plus an algebra tag.

    ``residual`` is max|J^2 + I|, taken once at construction."""

    matrix: np.ndarray
    algebra: str = "custom"
    tol: float = DEFAULT_TOL
    residual: float = field(init=False)

    def __post_init__(self):
        j = np.asarray(self.matrix, dtype=float)
        if j.shape != (DIM, DIM):
            raise ValueError("J must be 6x6")
        object.__setattr__(self, "matrix", j)
        res = max_norm(j @ j + _IDENTITY)
        object.__setattr__(self, "residual", res)
        if res > self.tol:
            raise ValueError(f"J^2 + I has max-norm {res:.3e} > {self.tol:.1e}")


_PAIR_RE = re.compile(r"^\d\d$")


def parse_salamon(text):
    """Parse a Salamon notation string into a LieAlgebra.

    A token such as "42" with the larger index first is the oriented
    product e^{42} = -e^{24} (the paper writes h5 = (0,0,0,0,13+42,14+23)).
    The triangularity convention, both indices of a pair in de^k strictly
    below k, is enforced; it guarantees nilpotency of valid inputs.  So is
    the Jacobi identity, exactly: the constants are integers.
    """
    stripped = text.strip()
    body = stripped[1:-1] if stripped.startswith("(") and stripped.endswith(")") else stripped
    tokens = [t.strip() for t in body.split(",")]
    if len(tokens) != DIM:
        raise ParseError(f"expected 6 comma-separated tokens, got {len(tokens)}")
    c = np.zeros((DIM, DIM, DIM))
    for k, token in enumerate(tokens):
        if token == "0":
            continue
        if not token:
            raise ParseError(f"empty token at position {k + 1}")
        for part in token.split("+"):
            part = part.strip()
            if not _PAIR_RE.match(part):
                raise ParseError(f"malformed pair {part!r} in token {k + 1}")
            i, j = int(part[0]), int(part[1])
            if not (1 <= i <= 6 and 1 <= j <= 6):
                raise ParseError(f"index out of range in {part!r}")
            if i == j:
                raise ParseError(f"repeated index in pair {part!r}")
            if max(i, j) > k:  # k is 0-based; need i, j < k+1
                raise ParseError(
                    f"pair {part!r} in de^{k + 1} violates the triangularity "
                    "convention (both indices must be < the differential index)"
                )
            a, b = i - 1, j - 1
            sign = 1.0
            if a > b:
                a, b = b, a
                sign = -1.0
            c[k, a, b] += sign
            c[k, b, a] -= sign
    alg = LieAlgebra(c=c, label="custom")
    if (residual := jacobi_residual(alg)) != 0.0:
        raise ParseError(f"{stripped!r} is no Lie algebra: its Jacobi residual is {residual:g}")
    return alg


def render_salamon(alg):
    """Inverse of parse_salamon for algebras with constants in {0, +-1}."""
    tokens = []
    for k in range(DIM):
        parts = []
        for i in range(DIM):
            for j in range(i + 1, DIM):
                v = alg.c[k, i, j]
                if v == 0.0:
                    continue
                if v == 1.0:
                    parts.append(f"{i + 1}{j + 1}")
                elif v == -1.0:
                    parts.append(f"{j + 1}{i + 1}")
                else:
                    raise ValueError("structure constants are not in {0, +-1}")
        tokens.append("+".join(parts) if parts else "0")
    return "(" + ",".join(tokens) + ")"


@functools.cache
def builtin(identifier):
    """The parse of BUILTIN_SALAMON[identifier], labelled ``identifier``;
    ``h9`` is a name for h9hat.

    Built on first use; every later call returns the same object, whose
    structure tensor is read-only.
    """
    if identifier == "h9":
        return builtin("h9hat")
    if identifier not in BUILTIN_SALAMON:
        raise KeyError(f"unknown builtin {identifier!r}; choose from {BUILTIN_IDS}")
    alg = replace(parse_salamon(BUILTIN_SALAMON[identifier]), label=identifier)
    alg.c.setflags(write=False)
    return alg


def memo(alg, build):
    """``build(alg)``, built on the first call for this algebra object and
    kept on it, with its arrays (the result itself, or its attributes) made
    read-only: copy one before writing to it.  A built-in is one object per
    process, so it builds each result once per process; any other object,
    a new parse or a copy carrying a built-in's label, builds its own."""
    if build not in alg._memo:
        value = build(alg)
        for part in vars(value).values() if hasattr(value, "__dict__") else (value,):
            if isinstance(part, np.ndarray):
                part.setflags(write=False)
        alg._memo[build] = value
    return alg._memo[build]


def get_algebra(spec):
    """Resolve a builtin id (``h9`` names h9hat), a Salamon string, or pass
    through a LieAlgebra."""
    if isinstance(spec, LieAlgebra):
        return spec
    if spec in BUILTIN_IDS:
        return builtin(spec)
    if "," not in spec:
        raise ParseError(f"unknown algebra {spec!r}: give a builtin id "
                         f"({', '.join(BUILTIN_IDS)}) or a Salamon string")
    return parse_salamon(spec)


def builtin_label(spec):
    """The built-in id that ``spec`` (as for get_algebra) names, or None: its
    label if that is one ("h9" stays h9), else the built-in with equal structure
    constants ("(0,0,0,0,12,13)" names h6).  The one recognizer of every layer."""
    label = getattr(spec, "label", spec)
    if label in BUILTIN_IDS:
        return label
    alg = get_algebra(spec)
    return next((name for name in BUILTIN_SALAMON if builtin(name) == alg), None)


def require_same_algebra(a, b):
    """AlgebraMismatch unless a and b (tags or algebras) name one algebra: the
    same label, or equal structure constants ("h9" and h9hat, a Salamon string
    and the algebra it parses to).  The one agreement rule of every layer."""
    label_a, label_b = (getattr(x, "label", x) for x in (a, b))
    try:
        same = label_a == label_b or get_algebra(a) == get_algebra(b)
    except ParseError:  # a tag that names no algebra, such as "custom"
        same = False
    if not same:
        raise AlgebraMismatch(f"algebra tags differ: {label_a!r} vs {label_b!r}")


# The contractions below are the matmul sequences that
# np.einsum(..., optimize=True) runs on numpy 2.4 (same pairing, operand
# order and layout), so they give its bits without its path search.  M may
# be an (..., n, n) stack: the axes are counted from the end, so each M of a
# stack gets the calls, and the bits, of its own call.


def map_values(m, b):
    """u[..., x, y, k] = sum_l M[..., k, l] b[l, x, y]: M applied to the values of b, index last."""
    n = b.shape[0]
    u = b.transpose(1, 2, 0).reshape(n * n, n) @ m.swapaxes(-1, -2)
    return u.reshape(*m.shape[:-2], n, n, n)


def _contract_last(t, m):
    """r[..., x, y, j] = sum_q t[..., x, y, q] M[..., q, j]."""
    n, lead = t.shape[-1], t.shape[:-3]
    return (t.reshape(*lead, n * n, n) @ m).reshape(*lead, n, n, n)


def pullback(b, m):
    """b(M., M.)[..., k, i, j] = sum_{p,q} b[k, p, q] M[..., p, i] M[..., q, j]."""
    n = b.shape[0]
    t = m.swapaxes(-1, -2) @ b.transpose(1, 0, 2).reshape(n, n * n)
    t = t.reshape(*m.shape[:-2], n, n, n)  # (i, k, q)
    return _contract_last(t, m).swapaxes(-3, -2)


def change_of_basis(alg, p):
    """Algebra in the basis f_i = P e_i, i.e. [x, y]' = P^{-1} [Px, Py]."""
    p = np.asarray(p, dtype=float)
    s = np.linalg.svd(p, compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > COND_MAX:
        raise SingularMatrix("change-of-basis matrix is numerically singular")
    pinv = np.linalg.inv(p)
    u = map_values(pinv, alg.bracket_tensor)  # (p, q, m)
    t = _contract_last(u.transpose(2, 1, 0), p)  # (m, q, i)
    b_new = _contract_last(t.transpose(2, 0, 1), p).transpose(1, 0, 2)
    return LieAlgebra(c=-b_new, label="custom")


def bracket(alg, x, y):
    """[x, y] in coordinates of the working basis."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("kij,i,j->k", alg.bracket_tensor, x, y)


def jacobi_residual(alg):
    """Max-norm of the Jacobi cyclic sum over all basis triples."""
    b = alg.bracket_tensor
    n = alg.dim
    # [[e_i, e_j], e_k]_m = b[m, p, k] b[p, i, j]
    bb = b.transpose(1, 2, 0).reshape(n * n, n) @ b.transpose(1, 0, 2).reshape(n, n * n)
    bb = bb.reshape(n, n, n, n).transpose(2, 0, 1, 3)
    cyc = bb + np.transpose(bb, (0, 3, 1, 2)) + np.transpose(bb, (0, 2, 3, 1))
    return max_norm(cyc)


def _bracket_span(b, span):
    """g[k, i, m] = sum_q b[k, i, q] span[q, m]: [e_i, column m of span].

    Not inlined in nilpotency_step, so the tests can compare its bytes with einsum's."""
    n, r = span.shape
    g = span.T @ b.transpose(2, 0, 1).reshape(n, n * n)
    return g.reshape(r, n, n).transpose(1, 2, 0)


def nilpotency_step(alg):
    """Length s of the lower central series (C^{s+1} = 0).

    Each step either ends the series or lowers the rank, so the loop ends
    within alg.dim steps."""
    b = alg.bracket_tensor
    span = np.eye(alg.dim)  # columns span C^1 = h
    scale = None
    for step in range(1, alg.dim + 1):
        # C^{step+1} = [h, C^{step}]
        gens = _bracket_span(b, span).reshape(alg.dim, -1)
        u, s, _ = np.linalg.svd(gens)
        # every rank is cut at the size of [h, h]: the orthonormal span keeps
        # the later generators on that scale, and the last ones are rounding
        scale = s[0] if scale is None else scale
        rank = int(np.sum(s > RANK_RTOL * scale))
        if rank == 0:
            return step
        if rank >= span.shape[1]:
            raise NotNilpotent("lower central series does not decrease")
        span = u[:, :rank]


def _checked_j(j, tol):
    """The matrix of J with J^2 = -I checked once: an AlmostComplexStructure
    passed its own bound at construction, and a raw array is checked at ``tol``."""
    if isinstance(j, AlmostComplexStructure):
        return j.matrix
    return AlmostComplexStructure(j, tol=tol).matrix


def nijenhuis(alg, j, x, y):
    """N_J(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y], contracted from
    ``nijenhuis_tensor``."""
    jm = _checked_j(j, DEFAULT_TOL)
    return nijenhuis_tensor(alg, jm) @ np.asarray(y, dtype=float) @ np.asarray(x, dtype=float)


def nijenhuis_tensor(alg, j):
    """N[k, i, j] = e^k-component of N_J(e_i, e_j); vanishes iff integrable.

    ``j`` is one J or an (n, 6, 6) stack, which gives one tensor per J, each
    with the bits of that J's own call."""
    jm = j.matrix if isinstance(j, AlmostComplexStructure) else np.asarray(j, dtype=float)
    b = alg.bracket_tensor
    jb = map_values(jm, b)  # (J b)[k, x, y] stored at [x, y, k]
    jb_left = _contract_last(jb.swapaxes(-3, -2).swapaxes(-2, -1), jm)  # J[J e_i, e_j]
    jb_left = jb_left.swapaxes(-3, -2).swapaxes(-2, -1)
    jb_right = _contract_last(jb.swapaxes(-2, -1), jm).swapaxes(-3, -2)  # J[e_i, J e_j]
    return pullback(b, jm) - jb_left - jb_right - b


def nijenhuis_residual(alg, j, tol=DEFAULT_TOL):
    """Max over basis pairs of ||N_J(e_i, e_j)||_max; 0 iff J integrable.
    ``tol`` bounds J^2 + I of a raw array (``_checked_j``)."""
    return max_norm(nijenhuis_tensor(alg, _checked_j(j, tol)))


def is_abelian_structure(alg, j, tol=DEFAULT_TOL):
    """True iff [JX, JY] = [X, Y] on all basis pairs within ``tol``; a raw
    array must satisfy J^2 = -I within DEFAULT_TOL (``_checked_j``)."""
    jm = _checked_j(j, DEFAULT_TOL)
    b = alg.bracket_tensor
    return bool(max_norm(pullback(b, jm) - b) <= tol)


# J_std for the pairing (e1,e2), (e3,e4), (e5,e6): the one copy, which the
# other modules read (with its 4x4 block) instead of rebuilding it
_PAIRING_J = np.diag([-1.0, 0.0, -1.0, 0.0, -1.0], 1) + np.diag([1.0, 0.0, 1.0, 0.0, 1.0], -1)
_PAIRING_J.setflags(write=False)


def standard_pairing_j():
    """Multiplication by sqrt(-1) for the pairing (e1,e2), (e3,e4), (e5,e6)."""
    return _PAIRING_J.copy()
