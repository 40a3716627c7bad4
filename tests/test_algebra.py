import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmoduli import algebra as al
from nilmoduli.errors import AlgebraMismatch, NotNilpotent, ParseError, SingularMatrix
from nilmoduli.linalg import max_norm
from paper_reference import lemma_j_h6

BUILTINS = ["h2", "h4", "h5", "h6", "h9", "h9hat"]


def e(i):
    v = np.zeros(6)
    v[i - 1] = 1.0
    return v


# ---------------------------------------------------------------------------
# parsing


def test_parse_h2_like_brackets():
    alg = al.parse_salamon("(0,0,0,0,0,12+34)")
    np.testing.assert_array_equal(al.bracket(alg, e(1), e(2)), -e(6))
    np.testing.assert_array_equal(al.bracket(alg, e(3), e(4)), -e(6))


def test_parse_abelian():
    alg = al.parse_salamon("(0,0,0,0,0,0)")
    assert max_norm(alg.c) == 0.0
    assert al.nilpotency_step(alg) == 1


def test_parse_h5_string_with_reversed_pair():
    alg = al.parse_salamon("(0,0,0,0,13+42,14+23)")
    np.testing.assert_array_equal(al.bracket(alg, e(1), e(3)), -e(5))
    np.testing.assert_array_equal(al.bracket(alg, e(4), e(2)), -e(5))
    np.testing.assert_array_equal(al.bracket(alg, e(1), e(4)), -e(6))
    np.testing.assert_array_equal(al.bracket(alg, e(2), e(3)), -e(6))


@pytest.mark.parametrize(
    "bad",
    [
        "(0,0,0,0,0)",  # wrong arity
        "(0,0,0,0,0,1x)",  # malformed token
        "(0,0,0,0,0,17)",  # index out of range
        "(0,0,0,0,0,11)",  # repeated index
        "(0,12,0,0,0,0)",  # triangularity: de^2 from e^{12}
        "(0,0,0,0,0,56)",  # triangularity: de^6 from e^{56}
        "(0,0,0,0,12+34,15+24)",  # no Lie algebra: d(e^15 + e^24) = -e^134
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        al.parse_salamon(bad)


def test_render_round_trip_builtins():
    for name in BUILTINS:
        alg = al.builtin(name)
        again = al.parse_salamon(al.render_salamon(alg))
        assert np.array_equal(alg.c, again.c)


# ---------------------------------------------------------------------------
# builtins


def test_builtin_h6_brackets():
    h6 = al.builtin("h6")
    np.testing.assert_array_equal(al.bracket(h6, e(1), e(2)), -e(5))
    np.testing.assert_array_equal(al.bracket(h6, e(1), e(3)), -e(6))


def test_builtin_h9hat_brackets():
    h = al.builtin("h9hat")
    np.testing.assert_array_equal(al.bracket(h, e(1), e(2)), e(5))
    np.testing.assert_array_equal(al.bracket(h, e(1), e(5)), -e(6))
    np.testing.assert_array_equal(al.bracket(h, e(2), e(3)), -e(6))


def test_h9_is_h9hat_in_permuted_basis():
    perm = np.zeros((6, 6))
    for i, j in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 4), (5, 5)):
        perm[i, j] = 1.0
    derived = al.change_of_basis(al.builtin("h9hat"), perm)
    # the paper's Salamon string for h9 is in the e-basis
    assert max_norm(derived.c - al.parse_salamon(al.PAPER_H9_SALAMON).c) == 0.0


def test_builtin_unknown():
    with pytest.raises(KeyError):
        al.builtin("h7")


def test_every_builtin_is_the_parse_of_its_salamon_string():
    assert sorted(al.BUILTIN_SALAMON) == ["h2", "h4", "h5", "h6", "h9hat"]
    for name, text in al.BUILTIN_SALAMON.items():
        alg = al.builtin(name)
        assert alg.label == name
        assert alg.c.tobytes() == al.parse_salamon(text).c.tobytes()
        assert al.render_salamon(alg) == text
    assert al.builtin("h9") is al.builtin("h9hat")


def test_builtin_label_recognizes_a_builtin_by_label_or_by_tensor():
    for name in BUILTINS:
        assert al.builtin_label(name) == name  # h9 stays h9
    assert al.builtin_label(al.builtin("h9")) == "h9hat"
    for name, text in al.BUILTIN_SALAMON.items():
        assert al.builtin_label(text) == name
        assert al.builtin_label(al.parse_salamon(text)) == name
    # a built-in's label names it whatever the tensor: tags stay the callers'
    assert al.builtin_label(al.LieAlgebra(c=al.builtin("h2").c, label="h5")) == "h5"
    for text in (al.PAPER_H9_SALAMON, "(0,0,0,0,0,0)", "(0,0,0,0,12,13+24)"):
        assert al.builtin_label(text) is None


def test_require_same_algebra_by_label_or_by_tensor():
    al.require_same_algebra("h9", "h9hat")
    al.require_same_algebra("(0,0,0,0,12,13)", al.builtin("h6"))
    al.require_same_algebra("custom", al.LieAlgebra(c=np.zeros((6, 6, 6))))
    for a, b in (("h5", "h6"), ("custom", "h2"), (al.PAPER_H9_SALAMON, "h9hat")):
        with pytest.raises(AlgebraMismatch, match="algebra tags differ"):
            al.require_same_algebra(a, b)


# ---------------------------------------------------------------------------
# change of basis


def test_change_of_basis_identity():
    h2 = al.builtin("h2")
    assert np.array_equal(al.change_of_basis(h2, np.eye(6)).c, h2.c)


def test_change_of_basis_round_trip():
    rng = np.random.default_rng(0)
    h2 = al.builtin("h2")
    done = 0
    while done < 100:
        p = rng.normal(size=(6, 6)) + 2.0 * np.eye(6)
        if np.linalg.cond(p) > 50:
            continue
        back = al.change_of_basis(al.change_of_basis(h2, p), np.linalg.inv(p))
        assert max_norm(back.c - h2.c) <= 1e-12
        done += 1


def test_change_of_basis_singular():
    with pytest.raises(SingularMatrix):
        al.change_of_basis(al.builtin("h2"), np.zeros((6, 6)))


# ---------------------------------------------------------------------------
# bracket / jacobi


def test_bracket_h5_example():
    h5 = al.builtin("h5")
    np.testing.assert_array_equal(al.bracket(h5, e(1), e(3)), -e(5))


def test_bracket_self_vanishes():
    rng = np.random.default_rng(1)
    for name in BUILTINS:
        alg = al.builtin(name)
        x = rng.normal(size=6)
        assert max_norm(al.bracket(alg, x, x)) <= 1e-15


def test_bracket_h9hat_e1_e5():
    h = al.builtin("h9hat")
    np.testing.assert_array_equal(al.bracket(h, e(1), e(5)), -e(6))


def test_jacobi_zero_for_builtins():
    for name in BUILTINS:
        assert al.jacobi_residual(al.builtin(name)) == 0.0


def test_jacobi_detects_corruption():
    # Flipping the sign of a single constant of a built-in never violates
    # Jacobi (every distinct-triple double bracket vanishes for these sparse
    # tensors), so corrupt by moving a constant instead: add [e4, e5] = -e6.
    h9 = al.builtin("h9")
    c = h9.c.copy()
    c[5, 3, 4] += 1.0
    c[5, 4, 3] -= 1.0
    corrupted = al.LieAlgebra(c=c, label="corrupted")
    assert al.jacobi_residual(corrupted) > 0.0


def test_jacobi_insensitive_to_single_sign_flips():
    for name in BUILTINS:
        alg = al.builtin(name)
        for k in range(6):
            for i in range(6):
                for j in range(i + 1, 6):
                    if alg.c[k, i, j] != 0.0:
                        c = alg.c.copy()
                        c[k, i, j] *= -1.0
                        c[k, j, i] *= -1.0
                        assert al.jacobi_residual(al.LieAlgebra(c=c)) == 0.0


# ---------------------------------------------------------------------------
# nilpotency


@pytest.mark.parametrize("name,step", [("h2", 2), ("h4", 2), ("h5", 2), ("h6", 2),
                                       ("h9", 3), ("h9hat", 3)])
def test_nilpotency_steps(name, step):
    assert al.nilpotency_step(al.builtin(name)) == step


def test_nilpotency_steps_in_a_dense_basis():
    # non-integer structure constants: the terminating step's generators are
    # rounding, far below the size of [h, h] though not below their own
    rng = np.random.default_rng(0)
    p = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    steps = [al.nilpotency_step(al.change_of_basis(al.builtin(name), p))
             for name in ("h2", "h4", "h5", "h6", "h9", "h9hat")]
    assert steps == [2, 2, 2, 2, 3, 3]


def test_nilpotency_step_of_the_filiform_algebra():
    # step 5, the largest in dimension 6, within the alg.dim steps the loop
    # allows; as given and in the dense basis above
    filiform = al.parse_salamon("(0,0,12,13,14,15)")
    p = np.eye(6) + 0.3 * np.random.default_rng(0).normal(size=(6, 6))
    assert al.nilpotency_step(filiform) == 5
    assert al.nilpotency_step(al.change_of_basis(filiform, p)) == 5


def test_nilpotency_abelian():
    assert al.nilpotency_step(al.parse_salamon("(0,0,0,0,0,0)")) == 1


def test_not_nilpotent():
    # solvable non-nilpotent: [e5, e6] = -e5
    c = np.zeros((6, 6, 6))
    c[4, 4, 5] = 1.0
    c[4, 5, 4] = -1.0
    alg = al.LieAlgebra(c=c, label="solvable")
    assert al.jacobi_residual(alg) == 0.0
    with pytest.raises(NotNilpotent):
        al.nilpotency_step(alg)


# ---------------------------------------------------------------------------
# Nijenhuis / abelian structures


def test_lemma_j_h6_integrable():
    h6 = al.builtin("h6")
    j = lemma_j_h6()
    assert al.nijenhuis_residual(h6, j) == 0.0
    for i in range(6):
        for k in range(i + 1, 6):
            v = al.nijenhuis(h6, j, e(i + 1), e(k + 1))
            assert max_norm(v) == 0.0


def test_pairing_j_not_integrable_on_h6():
    h6 = al.builtin("h6")
    j0 = al.standard_pairing_j()
    assert al.nijenhuis_residual(h6, j0) > 0.1
    # frozen oracle: N(e1, e3) = [Je1,Je3] - J[Je1,e3] - J[e1,Je3] - [e1,e3]
    #              = [e2,e4] - J[e2,e3] - J[e1,e4] + e6 = e6
    np.testing.assert_array_equal(al.nijenhuis(h6, j0, e(1), e(3)), e(6))


def test_nijenhuis_abelian_algebra():
    abelian = al.parse_salamon("(0,0,0,0,0,0)")
    j0 = al.standard_pairing_j()
    assert al.nijenhuis_residual(abelian, j0) == 0.0
    assert al.is_abelian_structure(abelian, j0)


def test_nijenhuis_antisymmetry_sweep():
    rng = np.random.default_rng(2)
    j0 = al.standard_pairing_j()
    for name in BUILTINS:
        alg = al.builtin(name)
        for _ in range(100):
            x, y = rng.normal(size=6), rng.normal(size=6)
            n_xy = al.nijenhuis(alg, j0, x, y)
            n_yx = al.nijenhuis(alg, j0, y, x)
            assert max_norm(n_xy + n_yx) <= 1e-12 * max(1.0, max_norm(n_xy))


def test_nijenhuis_tensor_matches_the_definition_at_random_vectors():
    # the textbook N_J(X, Y), written with bracket, against the tensor contracted
    rng = np.random.default_rng(3)
    for name in BUILTINS:
        alg = al.builtin(name)
        for _ in range(20):
            p = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
            j = p @ al.standard_pairing_j() @ np.linalg.inv(p)
            x, y = rng.normal(size=6), rng.normal(size=6)
            jx, jy = j @ x, j @ y
            want = (al.bracket(alg, jx, jy) - j @ al.bracket(alg, jx, y)
                    - j @ al.bracket(alg, x, jy) - al.bracket(alg, x, y))
            got = al.nijenhuis_tensor(alg, j) @ y @ x
            scale = max(1.0, max_norm(j)) ** 2 * max_norm(x) * max_norm(y)
            assert max_norm(got - want) <= 1e-12 * scale
            assert np.array_equal(al.nijenhuis(alg, j, x, y), got)


def test_nijenhuis_requires_almost_complex():
    with pytest.raises(ValueError):
        al.nijenhuis_residual(al.builtin("h2"), np.eye(6))


def h4_abelian_j():
    j = np.zeros((6, 6))
    j[1, 0], j[0, 1] = 1.0, -1.0
    j[3, 2], j[2, 3] = -1.0, 1.0
    j[5, 4], j[4, 5] = 1.0, -1.0
    return j


def test_h4_canonical_abelian_structure():
    h4 = al.builtin("h4")
    j = h4_abelian_j()
    assert al.is_abelian_structure(h4, j)
    # abelian + integrability identity: N vanishes for this structure
    assert al.nijenhuis_residual(h4, j) <= 1e-12


def test_lemma_j_not_abelian():
    h6 = al.builtin("h6")
    assert not al.is_abelian_structure(h6, lemma_j_h6())


def test_builtin_constants_are_signs():
    for name in BUILTINS:
        alg = al.builtin(name)
        assert set(np.unique(alg.c)) <= {-1.0, 0.0, 1.0}


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_bracket_bilinear_hypothesis(seed):
    rng = np.random.default_rng(seed)
    alg = al.builtin("h5")
    x, y, z = rng.normal(size=(3, 6))
    a, b = rng.normal(size=2)
    lhs = al.bracket(alg, a * x + b * y, z)
    rhs = a * al.bracket(alg, x, z) + b * al.bracket(alg, y, z)
    assert max_norm(lhs - rhs) <= 1e-12 * max(1.0, max_norm(rhs))


def test_builtins_are_built_once_and_read_only():
    assert al.get_algebra("h5") is al.get_algebra("h5")
    assert al.builtin("h9hat") is al.get_algebra("h9hat")
    assert al.builtin("h9") is al.builtin("h9hat")  # "h9" is a name for h9hat
    with pytest.raises(ValueError):
        al.builtin("h5").c[4, 0, 2] = 2.0


def test_custom_algebra_keeps_the_callers_array_writable():
    c = al.builtin("h6").c.copy()
    alg = al.LieAlgebra(c=c)
    assert alg.c is c and c.flags.writeable
