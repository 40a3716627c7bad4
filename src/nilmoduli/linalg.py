"""Small dense linear-algebra kernels.

Everything here is sized for 2x2 .. 6x6 problems.  Cholesky factors come
from LAPACK (``np.linalg.cholesky``) and carry its rounding; the
positive-definiteness decision is the package's own: ``cholesky_lower``
checks symmetry and finiteness, applies the pivot test n*eps*max|A| to
diag(L)**2 and raises NotSPD.  The 2x2 determinant (``det2``), the 2x2
lower-triangular inverse (``lower_inv2``) and the 2x2 spectral and singular
value decompositions (``sym_eig2``, ``svd2``, with fixed sign and angle
conventions) are closed forms, so that canonicalization chains built on
them are reproducible bit for bit on any BLAS/LAPACK build, without
LAPACK's per-call set-up.  The nonlinear least-squares solver is a damped
Gauss-Newton (Levenberg-Marquardt) iteration with central finite-difference
Jacobians.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import Diverged, NotSPD

EPS = np.finfo(float).eps
# asymmetry accepted by cholesky_lower and takagi2, relative to max(1, max|A|)
SYM_RTOL = 1e-12
# singular values at or below RANK_RTOL * s_max count as zero: the rank cutoff
# of null_space, nullity, the derivation algebra and the lower central series
RANK_RTOL = 1e-10


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    return a


@functools.cache
def _strict_lower_mask(n):
    mask = np.tril(np.ones((n, n), dtype=bool), -1)
    mask.flags.writeable = False
    return mask


def symmetrize(a):
    """Exactly symmetric copy (upper triangle is the source of truth).

    Bit for bit ``np.triu(a) + np.triu(a, 1).T``: the ``+ 0.0`` turns
    ``-0.0`` into ``+0.0`` as that sum does.
    """
    a = _as_matrix(a)
    out = np.where(_strict_lower_mask(a.shape[0]), a.T, a)
    out += 0.0
    return out


def max_norm(a):
    a = np.asarray(a, dtype=float)
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def cholesky_lower(a):
    """Cholesky factor L (lower, positive diagonal) with L L^T = A.

    The factor is LAPACK's (``np.linalg.cholesky``) on the symmetrized
    matrix (the upper triangle is the source of truth, as in
    ``symmetrize``).  Raises NotSPD at the first pivot ``diag(L)**2`` at or
    below n*eps*max|A|, the standard backward-stable positive-definiteness
    test, and on an asymmetric matrix (beyond SYM_RTOL) or one with NaN or
    inf entries.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    scale = max_norm(a)
    if not math.isfinite(scale):
        raise NotSPD("matrix has non-finite entries")
    if max_norm(a - a.T) > SYM_RTOL * max(1.0, scale):
        raise NotSPD("matrix is not symmetric")
    thresh = n * EPS * scale
    try:
        # LAPACK reads the lower triangle only, and the lower triangle of
        # a.T + 0.0 is that of symmetrize(a), bit for bit
        L = np.linalg.cholesky(a.T + 0.0)
    except np.linalg.LinAlgError:
        pivots = _pivots_to_failure(symmetrize(a))
    else:
        d = L.diagonal()
        if n == 0 or d.min() ** 2 > thresh:
            return L
        pivots = d * d
    j = int(np.argmax(pivots <= thresh))
    raise NotSPD(f"pivot {pivots[j]:.3e} at index {j} below threshold {thresh:.3e}")


def _pivots_to_failure(a):
    """Cholesky pivots of ``a`` up to the first one LAPACK rejects: diag(L)**2
    of the largest leading block it factors, then the Schur complement of
    that block at the next index."""
    L = np.zeros((0, 0))
    for k in range(a.shape[0]):
        try:
            L_next = np.linalg.cholesky(a[: k + 1, : k + 1])
        except np.linalg.LinAlgError:
            y = np.linalg.solve(L, a[:k, k]) if k else np.zeros(0)
            return np.append(np.diagonal(L) ** 2, a[k, k] - y @ y)
        L = L_next
    return np.diagonal(L) ** 2


def reverse_cholesky_lower(a):
    """Lower-triangular X with positive diagonal and X^T X = A.

    This is the factorization behind actions of lower-triangular groups on
    SPD matrices (note the transpose sits on the left, unlike Cholesky):
    with the index order reversed, X is the transposed Cholesky factor.
    """
    a = _as_matrix(a)
    # C order, so that products with X run through BLAS
    return np.ascontiguousarray(cholesky_lower(a[::-1, ::-1]).T[::-1, ::-1])


def det2(a):
    """a11 a22 - a12 a21 of a real or complex 2x2 matrix, as a Python float
    (complex for a complex matrix)."""
    (a11, a12), (a21, a22) = np.asarray(a).tolist()
    return a11 * a22 - a12 * a21


def lower_inv2(l):
    """Inverse [[1/l11, 0], [-l21/(l11 l22), 1/l22]] of a real or complex
    lower-triangular 2x2 matrix with nonzero diagonal; l12 is not read."""
    (l11, _), (l21, l22) = np.asarray(l).tolist()
    return np.array([[1.0 / l11, 0.0], [-l21 / (l11 * l22), 1.0 / l22]])


def sym_eig2(a):
    """Eigendecomposition of a symmetric 2x2 matrix.

    Returns ((l1, l2), R) with l1 <= l2, R in SO(2), R^T A R = diag(l1, l2),
    and the rotation angle in (-pi/2, pi/2].
    """
    a = _as_matrix(a)
    x, b, c = a[0, 0], 0.5 * (a[0, 1] + a[1, 0]), a[1, 1]
    half_gap = 0.5 * np.hypot(x - c, 2.0 * b)
    mid = 0.5 * (x + c)
    l1, l2 = mid - half_gap, mid + half_gap
    if b == 0.0:
        theta = 0.0 if x <= c else 0.5 * np.pi
    else:
        theta = 0.5 * np.arctan2(-2.0 * b, c - x)
    ct, st = np.cos(theta), np.sin(theta)
    R = np.array([[ct, -st], [st, ct]])
    return (float(l1), float(l2)), R


def _rot90_col(u):
    # column orthogonal to u with det [v u] = +1
    return np.array([u[1], -u[0]])


def svd2(q):
    """Deterministic 2x2 SVD: U^T Q V = diag(s1, s2) with 0 <= s1 <= s2.

    U, V are orthogonal; det U >= 0 is preferred, pushing any reflection
    into V.
    """
    q = _as_matrix(q)
    scale = max_norm(q)
    if scale == 0.0:
        return np.eye(2), (0.0, 0.0), np.eye(2)
    (m1, m2), V = sym_eig2(q.T @ q)
    s1 = float(np.sqrt(max(m1, 0.0)))
    s2 = float(np.sqrt(max(m2, 0.0)))
    cutoff = 8.0 * EPS * scale
    if s2 <= cutoff:
        return np.eye(2), (0.0, 0.0), np.eye(2)
    u2 = q @ V[:, 1] / s2
    u2 /= np.linalg.norm(u2)
    # complete to an exactly orthonormal frame with det U = +1; any
    # reflection goes into V (flip of the first pair)
    u1 = _rot90_col(u2)
    U = np.column_stack([u1, u2])
    s1v = float(u1 @ q @ V[:, 0])
    if s1v < 0.0:
        V = V.copy()
        V[:, 0] = -V[:, 0]
        s1v = -s1v
    s2v = abs(float(u2 @ q @ V[:, 1]))
    return U, (s1v, s2v), V


def takagi2(q):
    """Takagi factorization of a complex symmetric 2x2 matrix.

    Returns (U, (s1, s2)) with U unitary, 0 <= s1 <= s2 and
    Q = U diag(s1, s2) U^T.  The asymmetry accepted is SYM_RTOL, relative
    to max(1, max|Q|).

    One formula at every gap between the singular values: with the SVD
    Q = W S V^H, symmetry gives conj(V) = W K for the unitary K = W^H conj(V),
    which is symmetric and commutes with S (diagonal when s1 < s2, any
    symmetric unitary when s1 = s2).  Then U = W K^(1/2), where the 2x2
    square root is K^(1/2) = (K + d I) / sqrt(tr K + 2d) with d^2 = det K
    and the sign of d that maximizes |tr K + 2d|; for unitary K that
    modulus is at least 2, so the division is well conditioned.  K enters
    whole, including the ~eps/gap off-diagonal that rounding leaves near
    degeneracy, so reconstruction and unitarity stay at a few eps at every
    relative gap, zero included.
    """
    q = np.asarray(q, dtype=complex)
    if q.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if np.max(np.abs(q - q.T)) > SYM_RTOL * max(1.0, np.max(np.abs(q))):
        raise ValueError("matrix is not complex symmetric")
    q = 0.5 * (q + q.T)
    scale = float(np.max(np.abs(q)))
    if scale == 0.0:
        return np.eye(2, dtype=complex), (0.0, 0.0)
    W, S, Vh = np.linalg.svd(q)
    K = W.conj().T @ Vh.T
    tr = K[0, 0] + K[1, 1]
    d = np.sqrt(K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0])
    if abs(tr - 2.0 * d) > abs(tr + 2.0 * d):
        d = -d
    U = W @ ((K + d * np.eye(2)) / np.sqrt(tr + 2.0 * d))
    # ascending order
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    U = U @ P
    sigma = (float(S[1]), float(S[0]))
    return U, sigma


def null_space(m):
    """Orthonormal basis of ker(M) with singular-value cutoff RANK_RTOL * s_max.

    Returns an (n, k) array whose columns span the null space (k may be 0).
    """
    _, s, vh = np.linalg.svd(_nonempty(m))
    return vh[cutoff_rank(s):].T.copy()


def nullity(m):
    """dim ker(M) under the cutoff of null_space, from the singular values
    alone."""
    m = _nonempty(m)
    return m.shape[1] - cutoff_rank(np.linalg.svd(m, compute_uv=False))


def cutoff_rank(s):
    """Number of singular values s (descending) above RANK_RTOL * s_max; 0 if s_max is 0."""
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0.0 else 0


def _nonempty(m):
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        raise ValueError("empty matrix")
    return m


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


def least_squares_solve(residual, x0, tol=1e-12, max_iter=100):
    """Damped Gauss-Newton / Levenberg-Marquardt for small residual systems.

    ``residual`` maps R^p -> R^q.  Jacobians use central differences with
    step 1e-6 * max(1, |x_i|).  Raises Diverged if the residual goes
    non-finite at an accepted iterate; otherwise always returns the best
    point seen, with ``converged`` indicating stationarity within ``tol``.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    r = np.atleast_1d(np.asarray(residual(x), dtype=float))
    if not np.all(np.isfinite(r)):
        raise Diverged("residual not finite at the starting point")
    cost = float(r @ r)
    lam = 1e-3
    for it in range(1, max_iter + 1):
        if np.sqrt(cost) <= tol:
            return LeastSquaresResult(x, float(np.sqrt(cost)), True, it - 1)
        J = _fd_jacobian(residual, x, r.size)
        g = J.T @ r
        if float(np.max(np.abs(g)) if g.size else 0.0) <= tol * max(1.0, np.sqrt(cost)):
            return LeastSquaresResult(x, float(np.sqrt(cost)), True, it - 1)
        JtJ = J.T @ J
        diag = np.diag(JtJ).copy()
        diag[diag <= 0.0] = 1.0
        accepted = False
        for _ in range(40):
            try:
                step = np.linalg.solve(JtJ + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            r_new = np.atleast_1d(np.asarray(residual(x + step), dtype=float))
            if not np.all(np.isfinite(r_new)):
                lam *= 10.0
                continue
            cost_new = float(r_new @ r_new)
            if cost_new < cost:
                stalled = (
                    np.max(np.abs(step)) <= 4.0 * EPS * (1.0 + np.max(np.abs(x)))
                    or cost - cost_new <= 1e-16 * cost
                )
                x, r, cost = x + step, r_new, cost_new
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                if stalled:
                    return LeastSquaresResult(x, float(np.sqrt(cost)), True, it)
                break
            lam *= 10.0
            if lam > 1e12:
                break
        if not accepted:
            # damping exhausted: converged iff the gradient is stationary
            # (1e-8 absorbs the finite-difference noise floor eps/h ~ 1e-10)
            gnorm = float(np.max(np.abs(g)) if g.size else 0.0)
            stationary = gnorm <= max(tol, 1e-8) * max(1.0, np.sqrt(cost))
            return LeastSquaresResult(x, float(np.sqrt(cost)), bool(stationary), it)
    return LeastSquaresResult(x, float(np.sqrt(cost)), False, max_iter)


def _fd_jacobian(residual, x, q):
    p = x.size
    J = np.empty((q, p))
    for i in range(p):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        rp = np.atleast_1d(np.asarray(residual(xp), dtype=float))
        rm = np.atleast_1d(np.asarray(residual(xm), dtype=float))
        if not (np.all(np.isfinite(rp)) and np.all(np.isfinite(rm))):
            raise Diverged("residual not finite during Jacobian evaluation")
        J[:, i] = (rp - rm) / (2.0 * h)
    return J
