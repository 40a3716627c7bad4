"""The algebra contractions against the einsums they replaced.

Each kernel is the matmul sequence that ``np.einsum(..., optimize=True)``
runs for its expression on numpy 2.4, where every pairwise step goes
through ``matmul``.  On numpy 2.4 the two must therefore agree bit for bit
(zero signs included), not only to a tolerance.  Other numpy versions may
pair or lay out the operands differently inside einsum, so there the tests
assert agreement to 1e-12 of the scale of the summed products instead.
The einsums below are the references.
"""

import numpy as np
import pytest

from nilmoduli import algebra as al
from nilmoduli import automorphisms as au

_NUMPY = np.lib.NumpyVersion(np.__version__)
EINSUM_BITS = (_NUMPY.major, _NUMPY.minor) == (2, 4)


def _einsum(*args):
    return np.einsum(*args, optimize=True)


def same_bits(a, b):
    """Equal shapes and bytes: stricter than np.array_equal, which takes -0.0 == 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches(got, ref, scale):
    """Equal bytes on numpy 2.4; elsewhere equal within 1e-12 * scale.

    ``scale`` bounds the size of the products that each entry sums.
    """
    if EINSUM_BITS:
        assert same_bits(got, ref)
    else:
        assert np.shape(got) == np.shape(ref)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * scale)


def _amax(*arrays):
    return [float(np.max(np.abs(a))) for a in arrays]


def ref_pullback(b, m):
    return _einsum("kpq,pi,qj->kij", b, m, m)


def ref_nijenhuis_tensor(b, j):
    jbj = _einsum("kpq,pi,qj->kij", b, j, j)
    jb_left = _einsum("km,mpj,pi->kij", j, b, j)
    jb_right = _einsum("km,miq,qj->kij", j, b, j)
    return jbj - jb_left - jb_right - b


def ref_bracket_defect(b, m):
    lhs = _einsum("km,mij->kij", m, b)
    return np.max(np.abs(lhs - _einsum("kpq,pi,qj->kij", b, m, m)))


def ref_jacobi_residual(b):
    bb = _einsum("mpk,pij->mijk", b, b)
    cyc = bb + np.transpose(bb, (0, 3, 1, 2)) + np.transpose(bb, (0, 2, 3, 1))
    return np.max(np.abs(cyc))


def ref_bracket_span(b, span):
    return _einsum("kiq,qm->kim", b, span)


def ref_change_of_basis(b, p):
    return al.LieAlgebra(c=-_einsum("mk,kpq,pi,qj->mij", np.linalg.inv(p), b, p, p)).c


def _algebras():
    rng = np.random.default_rng(2024)
    # "h9" names h9hat; the paper's h9 string gives the e-basis algebra, a
    # second 3-step tensor
    h9 = al.parse_salamon(al.PAPER_H9_SALAMON)
    algs = [al.builtin(name) for name in al.BUILTIN_IDS] + [h9]
    algs.append(al.parse_salamon("(0,0,12,13,14+23,34+52)"))
    # dense structure constants
    for alg in (al.builtin("h5"), h9, al.builtin("h2")):
        p = np.eye(6) + 0.4 * rng.normal(size=(6, 6))
        algs.append(al.change_of_basis(alg, p))
    return algs


ALGEBRAS = _algebras()
SCALES = [1e-3, 1e-1, 1.0, 10.0, 1e3]


def _random_j(rng):
    """An almost complex structure P J_std P^-1 with P well conditioned."""
    p = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    return p @ al.standard_pairing_j() @ np.linalg.inv(p)


@pytest.mark.parametrize("scale", SCALES)
def test_nijenhuis_and_pullback_match_einsum(scale):
    rng = np.random.default_rng(int(1000 * scale))
    for alg in ALGEBRAS:
        b = alg.bracket_tensor
        for _ in range(4):
            j = scale * _random_j(rng)
            bmax, jmax = _amax(b, j)
            for jm in (j, j.T, np.asfortranarray(j)):
                ref = ref_nijenhuis_tensor(b, jm)
                assert_matches(al.nijenhuis_tensor(alg, jm), ref, bmax * max(1.0, jmax) ** 2)
                assert_matches(al.pullback(b, jm), ref_pullback(b, jm), bmax * jmax**2)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("spec", list(al.BUILTIN_IDS) + ["(0,0,12,13,14,15)"])
def test_nijenhuis_tensor_of_a_stack_has_the_bits_of_each_single_call(spec, n):
    # on any numpy: a stack makes the single call's matmuls once per J
    alg = al.get_algebra(spec)
    rng = np.random.default_rng(n)
    js = np.array([scale * _random_j(rng) for scale in (1.0, 1e-3, 10.0, 1e3)[:n]])
    stack = al.nijenhuis_tensor(alg, js)
    assert stack.shape == (n, 6, 6, 6)
    for j, tensor in zip(js, stack):
        assert same_bits(tensor, al.nijenhuis_tensor(alg, j))


def test_kernels_accept_an_almost_complex_structure():
    rng = np.random.default_rng(5)
    for alg in ALGEBRAS:
        acs = al.AlmostComplexStructure(_random_j(rng), algebra=alg.label)
        ref = ref_nijenhuis_tensor(alg.bracket_tensor, acs.matrix)
        bmax, jmax = _amax(alg.bracket_tensor, acs.matrix)
        scale = bmax * max(1.0, jmax) ** 2
        assert_matches(al.nijenhuis_tensor(alg, acs), ref, scale)
        assert_matches(al.nijenhuis_residual(alg, acs), np.max(np.abs(ref)), scale)
        abelian = np.max(np.abs(ref_pullback(alg.bracket_tensor, acs.matrix) - alg.bracket_tensor))
        assert al.is_abelian_structure(alg, acs) == bool(abelian <= al.DEFAULT_TOL)


@pytest.mark.parametrize("scale", SCALES)
def test_bracket_defect_matches_einsum(scale):
    rng = np.random.default_rng(int(7 * scale) + 1)
    for alg in ALGEBRAS:
        for _ in range(4):
            m = scale * rng.normal(size=(6, 6))
            for mm in (m, m.T):
                ref = ref_bracket_defect(alg.bracket_tensor, mm)
                bmax, mmax = _amax(alg.bracket_tensor, mm)
                assert_matches(au._bracket_defect(alg, mm), ref, bmax * max(mmax, mmax**2))


def test_jacobi_residual_matches_einsum():
    rng = np.random.default_rng(8)
    tensors = [alg.c for alg in ALGEBRAS]
    # random antisymmetric tensors: far from Jacobi, so every entry counts
    for scale in SCALES:
        c = scale * rng.normal(size=(6, 6, 6))
        tensors.append(c - np.swapaxes(c, 1, 2))
    for c in tensors:
        alg = al.LieAlgebra(c=c)
        ref = ref_jacobi_residual(alg.bracket_tensor)
        assert_matches(al.jacobi_residual(alg), ref, _amax(c)[0] ** 2)


def test_bracket_span_matches_einsum_at_every_rank():
    rng = np.random.default_rng(9)
    for alg in ALGEBRAS:
        b = alg.bracket_tensor
        u = np.linalg.svd(rng.normal(size=(6, 6)))[0]
        for rank in range(1, 7):
            span = u[:, :rank]
            assert_matches(al._bracket_span(b, span), ref_bracket_span(b, span), _amax(b)[0])
        # einsum drops a size-1 axis by summing over it, which turns -0.0 into 0.0
        for span in (np.eye(6), -np.eye(6)[:, 5:], -np.eye(6)[:, 4:]):
            assert_matches(al._bracket_span(b, span), ref_bracket_span(b, span), _amax(b)[0])


@pytest.mark.parametrize("scale", SCALES)
def test_change_of_basis_matches_einsum(scale):
    rng = np.random.default_rng(int(3 * scale) + 2)
    for alg in ALGEBRAS:
        for _ in range(3):
            p = scale * (np.eye(6) + 0.4 * rng.normal(size=(6, 6)))
            got = al.change_of_basis(alg, p).c
            ref = ref_change_of_basis(alg.bracket_tensor, p)
            bmax, pmax, pinvmax = _amax(alg.bracket_tensor, p, np.linalg.inv(p))
            assert_matches(got, ref, pinvmax * bmax * pmax**2)
