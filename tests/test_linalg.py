import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmoduli.errors import Diverged, NotSPD
from nilmoduli.linalg import (
    EPS,
    RANK_RTOL,
    cholesky_lower,
    det2,
    least_squares_solve,
    lower_inv2,
    max_norm,
    null_space,
    nullity,
    reverse_cholesky_lower,
    svd2,
    sym_eig2,
    symmetrize,
    takagi2,
)

from expm_reference import expm_pade6


def random_spd(rng, n, floor=0.1):
    a = rng.normal(size=(n, n))
    return a @ a.T + floor * np.eye(n)


# ---------------------------------------------------------------------------
# cholesky


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky_lower(np.eye(4)), np.eye(4))


def test_cholesky_forced_2x2():
    L = cholesky_lower(np.array([[4.0, 2.0], [2.0, 2.0]]))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotSPD):
        cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(NotSPD):
        cholesky_lower(np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_cholesky_round_trip_sweep():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.choice([2, 4, 6]))
        a = random_spd(rng, n)
        L = cholesky_lower(a)
        assert np.all(np.diag(L) > 0)
        assert max_norm(L @ L.T - a) <= 1e-12 * max_norm(a)


def test_reverse_cholesky():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.choice([2, 4, 6]))
        a = random_spd(rng, n)
        x = reverse_cholesky_lower(a)
        assert max_norm(np.triu(x, 1)) == 0.0
        assert np.all(np.diag(x) > 0)
        assert max_norm(x.T @ x - a) <= 1e-12 * max_norm(a)


def _reference_cholesky_lower(a, sym_tol=1e-12):
    # plain column-by-column elimination with the same pivot rule: the
    # reference for cholesky_lower's factor and its NotSPD decisions
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    scale = max_norm(a)
    if max_norm(a - a.T) > sym_tol * max(1.0, scale):
        raise NotSPD("matrix is not symmetric")
    a = symmetrize(a)
    thresh = n * EPS * scale
    L = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - np.dot(L[j, :j], L[j, :j])
        if pivot <= thresh:
            raise NotSPD(f"pivot {pivot:.3e} at index {j} below threshold {thresh:.3e}")
        L[j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            L[i, j] = (a[i, j] - np.dot(L[i, :j], L[j, :j])) / L[j, j]
    return L


def _not_spd_index(factor, a):
    """Index named by factor's NotSPD, or None when it returns a factor."""
    try:
        factor(a)
    except NotSPD as exc:
        return int(re.search(r"at index (\d+)", str(exc)).group(1))
    return None


def spd_with_condition(rng, n, cond):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = q @ np.diag(np.logspace(0.0, -np.log10(cond), n)) @ q.T
    return symmetrize(a)


@pytest.mark.parametrize("cond", [1.0, 1e3, 1e8, 1e12])
def test_cholesky_matches_reference_up_to_rounding(cond):
    rng = np.random.default_rng(int(np.log10(cond)) + 40)
    for n in range(1, 7):
        for _ in range(20):
            a = spd_with_condition(rng, n, cond)
            bound = 8 * n * EPS * max_norm(a)
            L = cholesky_lower(a)
            ref = _reference_cholesky_lower(a)
            assert np.all(np.diag(L) > 0)
            assert max_norm(np.triu(L, 1)) == 0.0
            assert max_norm(L @ L.T - a) <= bound
            assert max_norm(ref @ ref.T - a) <= bound
            assert max_norm(L @ L.T - ref @ ref.T) <= bound


def exact_matrix_with_pivot(rng, n, j, pivot):
    """Symmetric n x n matrix, exact in floating point, whose Cholesky pivot
    at j is ``pivot * 16 n^2 eps`` and whose pivot test threshold
    n*eps*max|A| is 16 n^2 eps, with square root 4n * 2^-26.

    Rows before j are unit-pivot dyadic, column j is zero below the
    diagonal, and one other index k is decoupled with A[k, k] = 16n, the
    largest entry; every pivot other than j is 1 or 16n.
    """
    k = int(rng.choice([i for i in range(n) if i != j]))
    rest = [i for i in range(n) if i != k]
    m = len(rest)
    L0 = np.tril(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(m, m)), -1) + np.eye(m)
    jj = rest.index(j)
    L0[jj + 1:, jj] = 0.0
    L0[jj, jj] = 0.0
    b = L0 @ L0.T  # exact: dyadic entries with few bits
    b[jj, jj] += pivot * 16 * n * n * EPS
    a = np.zeros((n, n))
    a[np.ix_(rest, rest)] = b
    a[k, k] = 16.0 * n
    assert max_norm(a) == 16.0 * n
    return a


@pytest.mark.parametrize("pivot, rejected", [(0.5, True), (1.0, True), (2.0, False),
                                             (0.0, True), (-1e14, True)])
def test_cholesky_pivot_decision_matches_reference(pivot, rejected):
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for j in range(n):
            a = exact_matrix_with_pivot(rng, n, j, pivot)
            expected = j if rejected else None
            assert _not_spd_index(_reference_cholesky_lower, a) == expected
            assert _not_spd_index(cholesky_lower, a) == expected


def test_cholesky_not_spd_sweep_matches_reference():
    # symmetric matrices with mixed inertia: same decision, same index
    rng = np.random.default_rng(8)
    rejected = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        a = symmetrize(a @ a.T - rng.uniform(0.0, 2.0) * np.diag(rng.uniform(0.0, 1.0, n)))
        index = _not_spd_index(_reference_cholesky_lower, a)
        assert _not_spd_index(cholesky_lower, a) == index
        rejected += index is not None
    assert 50 <= rejected <= 250


@pytest.mark.parametrize("gap, rejected", [(0.5, False), (1.0, False), (2.0, True)])
def test_cholesky_symmetry_decision_matches_reference(gap, rejected):
    # max|A - A^T| at gap times the tolerance sym_tol * max(1, max|A|)
    a = np.diag([4.0, 3.0, 2.0, 1.0])
    a[3, 0] = gap * 1e-12 * 4.0
    for factor in (_reference_cholesky_lower, cholesky_lower):
        if rejected:
            with pytest.raises(NotSPD, match="matrix is not symmetric"):
                factor(a)
        else:
            factor(a)
    if not rejected:
        # the upper triangle is factored, at the threshold of the input's scale
        assert cholesky_lower(a).tobytes() == cholesky_lower(symmetrize(a)).tobytes()


def test_cholesky_not_spd_message():
    # on an exact failing pivot the message is the reference's, word for word
    a = np.diag([1.0, 1.0, -2.0, 1.0])
    with pytest.raises(NotSPD) as ref:
        _reference_cholesky_lower(a)
    with pytest.raises(NotSPD, match=r"pivot -2\.000e\+00 at index 2 below threshold 1\.776e-15"):
        cholesky_lower(a)
    assert str(ref.value) == "pivot -2.000e+00 at index 2 below threshold 1.776e-15"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 2)])
def test_cholesky_rejects_non_finite(bad, where):
    a = np.eye(3)
    a[where] = a[where[::-1]] = bad
    with pytest.raises(NotSPD, match="non-finite"):
        cholesky_lower(a)


def test_symmetrize_is_bit_equal_to_triu_sum():
    rng = np.random.default_rng(9)
    for n in range(1, 7):
        for _ in range(20):
            a = rng.normal(size=(n, n))
            a[rng.random((n, n)) < 0.3] = -0.0
            a[rng.random((n, n)) < 0.2] = 0.0
            expected = np.triu(a) + np.triu(a, 1).T
            got = symmetrize(a)
            assert got.tobytes() == expected.tobytes()
    neg_zero = np.full((3, 3), -0.0)
    assert not np.signbit(symmetrize(neg_zero)).any()


def test_reverse_cholesky_bit_equal_to_exchange_matrix_form():
    rng = np.random.default_rng(10)
    P = np.eye(6)[::-1]
    for _ in range(50):
        a = random_spd(rng, 6)
        expected = P @ cholesky_lower(P @ a @ P).T @ P
        assert reverse_cholesky_lower(a).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# 2x2 determinant and lower-triangular inverse


def _random_2x2(rng, ill, complex_=False):
    """Entries at a random scale in [1e-3, 1e3]; ``ill``: the second row is a
    multiple of the first up to a relative 1e-14 .. 1e-6."""
    a = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-3, 3)
    if complex_:
        a = a + 1j * rng.normal(size=(2, 2)) * np.abs(a).max()
    if ill:
        gap = 10.0 ** rng.uniform(-14, -6) * np.abs(a).max()
        a[1] = rng.normal() * a[0] + gap * rng.normal(size=2)
    return a


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("ill", [False, True], ids=["well", "ill"])
def test_det2_matches_lapack(ill, complex_):
    # bound: each side within ~eps (|a11 a22| + |a12 a21|) of the exact value,
    # and numpy's det, exp of a log-determinant, adds eps |det ln|det|| more
    rng = np.random.default_rng(20 + 2 * ill + complex_)
    for _ in range(2000):
        a = _random_2x2(rng, ill, complex_)
        got, ref = det2(a), np.linalg.det(a)
        assert isinstance(got, complex if complex_ else float)
        terms = abs(a[0, 0] * a[1, 1]) + abs(a[0, 1] * a[1, 0])
        log_term = abs(ref * math.log(abs(ref))) if ref else 0.0
        assert abs(got - ref) <= 3 * EPS * (terms + log_term)


@pytest.mark.parametrize("ill", [False, True], ids=["well", "ill"])
def test_det2_against_exact_value(ill):
    # two products and a difference, each rounded once: within
    # eps (|a11 a22| + |a12 a21|) of the determinant in rational arithmetic
    rng = np.random.default_rng(30 + ill)
    for _ in range(2000):
        a = _random_2x2(rng, ill)
        (p, q), (r, s) = (map(Fraction, row) for row in a.tolist())
        terms = abs(p * s) + abs(q * r)
        assert abs(Fraction(det2(a)) - (p * s - q * r)) <= Fraction(EPS) * terms


def _random_lower(rng, ill, complex_=False):
    """Lower-triangular with entries at a random scale in [1e-3, 1e3];
    ``ill``: each diagonal entry shrunk by 1e-10 .. 1e-4 with probability 1/2."""
    l = np.tril(rng.normal(size=(2, 2))) * 10.0 ** rng.uniform(-3, 3)
    if complex_:
        l = l.astype(complex)
        l[1, 0] += 1j * rng.normal() * np.abs(l).max()
    if ill:
        for i in range(2):
            if rng.random() < 0.5:
                l[i, i] *= 10.0 ** rng.uniform(-10, -4)
    return l


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("ill", [False, True], ids=["well", "ill"])
def test_lower_inv2_matches_lapack(ill, complex_):
    # bound: LAPACK's inverse (LU with row pivoting) is normwise accurate, to
    # eps kappa(L) max|X| with kappa the infinity-norm condition number
    rng = np.random.default_rng(40 + 2 * ill + complex_)
    for _ in range(2000):
        l = _random_lower(rng, ill, complex_)
        got, ref = lower_inv2(l), np.linalg.inv(l)
        kappa = np.linalg.norm(l, np.inf) * np.linalg.norm(ref, np.inf)
        assert got.dtype == ref.dtype
        assert np.abs(got - ref).max() <= 2 * EPS * kappa * np.abs(ref).max()


@pytest.mark.parametrize("ill", [False, True], ids=["well", "ill"])
def test_lower_inv2_against_exact_value(ill):
    # each entry is one or two quotients of the given entries, rounded at
    # most three times: within 2 eps of the exact entry, relative to it
    rng = np.random.default_rng(50 + ill)
    for _ in range(2000):
        l = _random_lower(rng, ill)
        l11, l21, l22 = Fraction(l[0, 0]), Fraction(l[1, 0]), Fraction(l[1, 1])
        exact = [[1 / l11, 0], [-l21 / (l11 * l22), 1 / l22]]
        got = lower_inv2(l)
        for i in range(2):
            for j in range(2):
                err = abs(Fraction(got[i, j]) - exact[i][j])
                assert err <= 2 * Fraction(EPS) * abs(exact[i][j])


def test_lower_inv2_ignores_the_upper_entry():
    np.testing.assert_array_equal(lower_inv2([[2.0, 7.0], [1.0, 4.0]]),
                                  [[0.5, 0.0], [-0.125, 0.25]])


# ---------------------------------------------------------------------------
# 2x2 spectral / SVD


def test_sym_eig2_diag():
    (l1, l2), r = sym_eig2(np.diag([2.0, 3.0]))
    assert (l1, l2) == (2.0, 3.0)
    np.testing.assert_array_equal(r, np.eye(2))


def test_sym_eig2_offdiag():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    (l1, l2), r = sym_eig2(a)
    assert (l1, l2) == (-1.0, 1.0)
    # 45-degree rotation diagonalizes it
    assert abs(abs(r[0, 1]) - np.sqrt(0.5)) < 1e-15
    np.testing.assert_allclose(r.T @ a @ r, np.diag([-1.0, 1.0]), atol=1e-15)


def test_sym_eig2_random_against_quadratic_formula():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = random_spd(rng, 2, floor=0.0) - rng.uniform(0, 2) * np.eye(2)
        (l1, l2), r = sym_eig2(a)
        assert l1 <= l2
        # roots of the characteristic polynomial
        tr, det = a[0, 0] + a[1, 1], a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
        np.testing.assert_allclose([l1, l2], [(tr - disc) / 2, (tr + disc) / 2],
                                   atol=1e-12, rtol=1e-12)
        assert max_norm(r.T @ r - np.eye(2)) <= 1e-14
        assert np.linalg.det(r) > 0
        d = r.T @ a @ r
        assert abs(d[0, 1]) < 1e-13 * max(1.0, max_norm(a))
        theta = np.arctan2(r[1, 0], r[0, 0])
        assert -np.pi / 2 < theta <= np.pi / 2 + 1e-15


def test_svd2_diagonal_permutation():
    u, (s1, s2), v = svd2(np.diag([0.5, 0.2]))
    assert (s1, s2) == (0.2, 0.5)
    np.testing.assert_allclose(u.T @ np.diag([0.5, 0.2]) @ v, np.diag([0.2, 0.5]), atol=1e-15)


def test_svd2_zero():
    u, s, v = svd2(np.zeros((2, 2)))
    assert s == (0.0, 0.0)
    np.testing.assert_array_equal(u, np.eye(2))
    np.testing.assert_array_equal(v, np.eye(2))


def test_svd2_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        q = rng.normal(size=(2, 2))
        u, (s1, s2), v = svd2(q)
        assert 0.0 <= s1 <= s2
        assert np.linalg.det(u) >= 0.0
        assert max_norm(u.T @ u - np.eye(2)) <= 1e-14
        assert max_norm(v.T @ v - np.eye(2)) <= 1e-14
        d = u.T @ q @ v
        assert abs(d[0, 1]) + abs(d[1, 0]) <= 1e-13 * max(1.0, max_norm(q))
        # singular values squared are the eigenvalues of Q^T Q
        (m1, m2), _ = sym_eig2(q.T @ q)
        np.testing.assert_allclose([s1 * s1, s2 * s2], [max(m1, 0), m2], atol=1e-12)


def test_svd2_rank_one():
    q = np.outer([1.0, 2.0], [3.0, 1.0])
    u, (s1, s2), v = svd2(q)
    assert s1 <= 1e-13 * s2
    d = u.T @ q @ v
    np.testing.assert_allclose(d, np.diag([s1, s2]), atol=1e-13 * s2)


def test_takagi2_random():
    rng = np.random.default_rng(4)
    for _ in range(300):
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = 0.5 * (q + q.T)
        u, (s1, s2) = takagi2(q)
        assert 0.0 <= s1 <= s2
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
        assert np.max(np.abs(u @ np.diag([s1, s2]) @ u.T - q)) <= 1e-12 * max(1.0, s2)


def test_takagi2_degenerate():
    rng = np.random.default_rng(5)
    for _ in range(100):
        # unitary symmetric times a scalar has equal singular values
        theta = rng.uniform(0, 2 * np.pi)
        x = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        q = 1.7 * (x @ np.diag(phases) @ x.T)
        u, (s1, s2) = takagi2(q)
        np.testing.assert_allclose([s1, s2], [1.7, 1.7], rtol=1e-12)
        assert np.max(np.abs(u @ np.diag([s1, s2]) @ u.T - q)) <= 1e-11


@pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-7, 1e-5, 1e-3])
def test_takagi2_near_degenerate(gap):
    # singular values top / (1 + gap) and top in a random unitary frame
    rng = np.random.default_rng(6)
    for _ in range(100):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        w, _r = np.linalg.qr(z)
        top = rng.uniform(0.5, 2.0)
        q = w @ np.diag([top / (1.0 + gap), top]) @ w.T
        q = 0.5 * (q + q.T)
        u, (s1, s2) = takagi2(q)
        assert 0.0 <= s1 <= s2
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
        assert np.max(np.abs(u @ np.diag([s1, s2]) @ u.T - q)) <= 1e-12 * max(1.0, s2)


def test_takagi2_zero():
    u, s = takagi2(np.zeros((2, 2), dtype=complex))
    assert s == (0.0, 0.0)


# ---------------------------------------------------------------------------
# null space


def test_null_space_identity():
    assert null_space(np.eye(4)).shape == (4, 0)


def test_null_space_zero_map():
    basis = null_space(np.zeros((2, 3)))
    assert basis.shape == (3, 3)
    assert max_norm(basis.T @ basis - np.eye(3)) <= 1e-14


def test_null_space_residual_bound():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = rng.normal(size=(5, 7))
        m[:, -2] = m[:, 0] + m[:, 1]  # force rank deficiency
        m[:, -1] = m[:, 2] - m[:, 3]
        basis = null_space(m)
        assert basis.shape[1] >= 2
        smax = np.linalg.svd(m, compute_uv=False)[0]
        for k in range(basis.shape[1]):
            assert np.linalg.norm(m @ basis[:, k]) <= 10 * RANK_RTOL * smax


def test_nullity_is_null_space_dimension():
    rng = np.random.default_rng(7)
    mats = [np.eye(4), np.zeros((2, 3)), np.zeros((1, 1)), rng.normal(size=(7, 5))]
    for _ in range(50):
        m = rng.normal(size=(5, 7))
        m[:, -1] = m[:, 0] - 2.0 * m[:, 1]
        mats.append(m)
    for m in mats:
        assert nullity(m) == null_space(m).shape[1]
    with pytest.raises(ValueError, match="empty matrix"):
        nullity(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# least squares


def test_lsq_affine():
    res = least_squares_solve(lambda x: x - 3.0, np.array([0.0]))
    assert res.converged
    np.testing.assert_allclose(res.x, [3.0], atol=1e-10)


def test_lsq_circle_line():
    def r(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] - x[1]])

    res = least_squares_solve(r, np.array([1.0, 0.0]))
    np.testing.assert_allclose(res.x, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-9)


def test_lsq_quadratic_iteration_budget():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=5)

        def r(x, a=a, b=b):
            return a @ x - b

        res = least_squares_solve(r, np.zeros(3), tol=1e-12, max_iter=25)
        assert res.converged
        assert res.iterations <= 25


def test_lsq_diverged():
    def r(x):
        return np.array([np.nan])

    with pytest.raises(Diverged):
        least_squares_solve(r, np.array([0.0]))


def test_lsq_nonconvergence_reports_best():
    # residual floor 1 can never reach tol; must not raise
    res = least_squares_solve(lambda x: np.array([x[0], 1.0]), np.array([2.0]),
                              tol=1e-12, max_iter=10)
    assert res.residual_norm >= 1.0 - 1e-9


def test_lsq_h5_orbit_equation():
    # A^T B A = diag(1, r, 1, s) over A in GL2(C) plus (r, s), warm-started
    from nilmoduli.automorphisms import realify_complex2
    from nilmoduli.moduli import H5Form, pullback_metric, realize
    from nilmoduli.automorphisms import random_automorphism

    form = H5Form(0.8, 0.45, 1.3, 0.2, 1.7)
    g = pullback_metric(realize(form), random_automorphism("h5", 42, component=0))
    b4 = g.matrix[:4, :4]

    def residual(x):
        ac = np.array([[x[0] + 1j * x[1], x[2] + 1j * x[3]],
                       [x[4] + 1j * x[5], x[6] + 1j * x[7]]])
        a4 = realify_complex2(ac)
        target = np.diag([1.0, x[8], 1.0, x[9]])
        return (a4.T @ b4 @ a4 - target)[np.triu_indices(4)]

    rng = np.random.default_rng(8)
    x0 = np.array([1.0, 0, 0, 0, 0, 0, 1.0, 0, form.r, form.s])
    x0[:8] += rng.normal(0, 0.05, 8)
    res = least_squares_solve(residual, x0, tol=1e-13, max_iter=200)
    assert res.residual_norm < 1e-10
    # back-substitute the returned A
    assert np.max(np.abs(residual(res.x))) < 1e-10


# ---------------------------------------------------------------------------
# matrix exponential


def test_expm_pade6_against_series():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = rng.normal(0, 0.4, size=(6, 6))
        term = np.eye(6)
        total = np.eye(6)
        for k in range(1, 30):
            term = term @ a / k
            total = total + term
        assert max_norm(expm_pade6(a) - total) <= 1e-12 * max(1.0, max_norm(total))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_cholesky_round_trip_hypothesis(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 4, 6]))
    a = random_spd(rng, n)
    L = cholesky_lower(a)
    assert max_norm(L @ L.T - a) <= 1e-12 * max_norm(a)
