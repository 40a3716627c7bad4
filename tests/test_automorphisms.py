import numpy as np
import pytest

from nilmoduli import algebra as al
from nilmoduli import automorphisms as au
from nilmoduli import moduli as mo
from nilmoduli.errors import DegenerateParams, Unsupported
from nilmoduli.linalg import max_norm

from expm_reference import expm_pade6

BUILTINS = ["h2", "h4", "h5", "h6", "h9", "h9hat"]
DER_DIMS = {"h2": 16, "h4": 17, "h5": 16, "h6": 19, "h9": 15, "h9hat": 15}
COMPONENT_COUNTS = {"h2": 8, "h4": 4, "h5": 2, "h6": 8, "h9": 8, "h9hat": 8}


# ---------------------------------------------------------------------------
# derivations


@pytest.mark.parametrize("name", BUILTINS)
def test_derivation_dimensions(name):
    basis = au.derivation_algebra(al.builtin(name))
    assert basis.dimension == DER_DIMS[name]


def test_derivation_dimension_abelian():
    basis = au.derivation_algebra(al.parse_salamon("(0,0,0,0,0,0)"))
    assert basis.dimension == 36


def test_derivation_basis_properties():
    for name in BUILTINS:
        alg = al.builtin(name)
        basis = au.derivation_algebra(alg)
        flat = basis.matrices.reshape(basis.dimension, -1)
        assert max_norm(flat @ flat.T - np.eye(basis.dimension)) <= 1e-12
        b = alg.bracket_tensor
        for d in basis.matrices:
            lhs = np.einsum("km,mij->kij", d, b)
            rhs = np.einsum("kmj,mi->kij", b, d) + np.einsum("kim,mj->kij", b, d)
            assert max_norm(lhs - rhs) <= 1e-10


def _derivation_system_loop(alg):
    """Reference: the derivation system built term by term."""
    n = alg.dim
    b = alg.bracket_tensor
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            block = np.zeros((n, n, n))
            for k in range(n):
                for m in range(n):
                    block[k, k, m] += b[m, i, j]
                    block[k, m, i] -= b[k, m, j]
                    block[k, m, j] -= b[k, i, m]
            rows.append(block.reshape(n, n * n))
    return np.vstack(rows)


def test_derivation_system_matches_loop():
    rng = np.random.default_rng(12)
    algs = [al.builtin(name) for name in BUILTINS]
    algs.append(al.parse_salamon("(0,0,12,13,14+23,34+52)"))
    # non-integer structure constants
    algs.append(al.change_of_basis(al.builtin("h5"), np.eye(6) + 0.3 * rng.normal(size=(6, 6))))
    for alg in algs:
        fast, ref = au._derivation_system(alg), _derivation_system_loop(alg)
        assert fast.shape == ref.shape
        assert fast.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# predicates


def test_identity_is_automorphism():
    for name in BUILTINS:
        assert au.is_automorphism(name, np.eye(6))


def test_phi0_swap_is_automorphism_of_h2():
    phi0 = np.zeros((6, 6))
    phi0[0, 2] = phi0[1, 3] = phi0[2, 0] = phi0[3, 1] = 1.0
    phi0[4, 5] = phi0[5, 4] = 1.0
    assert au.is_automorphism("h2", phi0, 1e-12)
    assert au.matches_theorem_form("h2", phi0)


def test_scaling_e1_not_automorphism_of_h2():
    assert not au.is_automorphism("h2", np.diag([2.0, 1, 1, 1, 1, 1]))


def test_singular_not_automorphism():
    assert not au.is_automorphism("h2", np.zeros((6, 6)))


# ---------------------------------------------------------------------------
# structured constructors


def test_structured_identity_params():
    for name, params in [
        ("h6", au.H6Params()),
        ("h4", au.H4Params()),
        ("h5", au.H5Params()),
        ("h2", au.H2Params()),
        ("h9", au.H9Params()),
        ("h9hat", au.H9Params()),
    ]:
        f = au.structured_automorphism(name, params)
        np.testing.assert_array_equal(f.matrix, np.eye(6))


def test_structured_h9_dependent_entry():
    f = au.structured_automorphism("h9hat", au.H9Params(a21=1.0))
    assert f.matrix[4, 2] == -1.0  # entry (5,3) = -a11 a21


def test_structured_h4_pairing_example():
    f = au.structured_automorphism("h4", au.H4Params(B=((1.0, 0.0), (0.0, 0.0))))
    np.testing.assert_array_equal(f.matrix[4:, 4:], [[1.0, 0.0], [-1.0, 1.0]])
    assert au.is_automorphism("h4", f.matrix, 1e-12)


def test_structured_pass_is_automorphism_exactly():
    rng = np.random.default_rng(0)
    for name in BUILTINS:
        alg = al.builtin(name)
        for seed in range(25):
            params = au.random_structured_params(alg, rng)
            f = au.structured_automorphism(alg, params)
            assert au.is_automorphism(alg, f.matrix, 1e-12)


@pytest.mark.parametrize(
    "name,params",
    [
        ("h6", au.H6Params(r=0.0)),
        ("h6", au.H6Params(At=((1.0, 2.0), (2.0, 4.0)))),
        ("h4", au.H4Params(x=0.0)),
        ("h4", au.H4Params(A=((1.0, 1.0), (1.0, 1.0)))),
        ("h5", au.H5Params(z1=0.0, z4=0.0)),
        ("h2", au.H2Params(A=((0.0, 0.0), (0.0, 0.0)))),
        ("h9", au.H9Params(a11=0.0)),
    ],
)
def test_structured_degenerate(name, params):
    with pytest.raises(DegenerateParams):
        au.structured_automorphism(name, params)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda alg: au.structured_automorphism(alg, au.H6Params()),
                     id="structured_automorphism"),
        pytest.param(lambda alg: au.component_label(alg, np.eye(6)), id="component_label"),
        pytest.param(lambda alg: au.theorem_form_defect(alg, np.eye(6)), id="theorem_form_defect"),
        pytest.param(lambda alg: au.random_structured_params(alg, np.random.default_rng(0)),
                     id="random_structured_params"),
        pytest.param(au.component_representatives, id="component_representatives"),
        pytest.param(lambda alg: mo.canonicalize(alg, np.eye(6)), id="canonicalize"),
    ],
)
def test_structured_unsupported(call):
    # every per-algebra entry point refuses a parsed (custom) algebra
    with pytest.raises(Unsupported):
        call(al.parse_salamon("(0,0,0,0,0,0)"))


# ---------------------------------------------------------------------------
# matches_theorem_form


def test_matches_form_on_structured_outputs():
    rng = np.random.default_rng(1)
    for name in BUILTINS:
        alg = al.builtin(name)
        for _ in range(10):
            f = au.structured_automorphism(alg, au.random_structured_params(alg, rng))
            assert au.matches_theorem_form(alg, f.matrix)


def test_matches_form_completeness_h6():
    # a random automorphism (constructed independently through components)
    for seed in range(20):
        f = au.random_automorphism("h6", seed)
        assert au.matches_theorem_form("h6", f.matrix)


def test_matches_form_rejects_wrong_pattern():
    m = np.eye(6)
    m[0, 5] = 0.5  # h6 theorem forces a_{16} = 0
    assert not au.matches_theorem_form("h6", m)


def _with(entries):
    m = np.eye(6)
    for (i, j), v in entries.items():
        m[i, j] = v
    return m


@pytest.mark.parametrize(
    "name,m",
    [
        *[pytest.param(name, np.zeros((6, 6)), id=f"{name}-zero")
          for name in ("h2", "h4", "h5", "h6", "h9hat")],
        # det At = 0, with the r At block that goes with it
        pytest.param("h6", _with({(1, 2): 2.0, (2, 1): 2.0, (2, 2): 4.0,
                                  (4, 5): 2.0, (5, 4): 2.0, (5, 5): 4.0}), id="h6-det-At"),
        pytest.param("h4", _with({(2, 2): 0.0, (3, 3): 0.0, (5, 5): 0.0}), id="h4-x"),
        pytest.param("h9hat", _with({(3, 3): 0.0}), id="h9hat-a44"),
    ],
)
def test_matches_form_rejects_singular(name, m):
    # the theorem's nondegeneracy conditions are part of its form
    assert not au.is_automorphism(name, m)
    assert au.theorem_form_defect(name, m) == np.inf
    assert not au.matches_theorem_form(name, m)


def _cells(rows, cols):
    return [(i, j) for i in rows for j in cols]


# (zeros of the pattern, dependent entries) of each theorem in its working
# basis, read off the shapes in the automorphisms module docstring
THEOREM_CELLS = {
    "h6": (_cells([0], range(1, 6)) + _cells([1, 2], range(3, 6)) + _cells([3], [4, 5]),
           _cells([4, 5], [4, 5])),  # r At
    # x sigma(A), det A and (A, B); x itself is read off x det A at (5, 5)
    "h4": (_cells([0, 1], range(2, 6)) + _cells([2, 3], [4, 5]) + [(4, 5)],
           _cells([2, 3], [2, 3]) + [(4, 4), (5, 4)]),
    # the realified A repeats each z_ij in its second column; Z(det_C A)
    "h5": (_cells(range(4), [4, 5]), _cells(range(4), [1, 3]) + _cells([4, 5], [4, 5])),
    "h2": (_cells([0, 1], range(2, 6)) + _cells([2, 3], [0, 1, 4, 5]) + [(4, 5), (5, 4)],
           [(4, 4), (5, 5)]),  # det A, det B
    "h9hat": ([(i, j) for i in range(6) for j in range(i + 1, 6)] + [(4, 3)],
              [(2, 2), (4, 2), (4, 4), (5, 4), (5, 5)]),
}
# h2's components 4-7 exchange the two heis factors: antidiag(A, B), antidiag(det A, det B)
H2_SWAP_CELLS = (_cells([0, 1], [0, 1, 4, 5]) + _cells([2, 3], range(2, 6)) + [(4, 4), (5, 5)],
                 [(4, 5), (5, 4)])


@pytest.mark.parametrize("name", sorted(THEOREM_CELLS))
def test_theorem_form_defect_sees_each_constraint(name):
    delta = 1e-6
    for component in range(COMPONENT_COUNTS[name]):
        zeros, dependents = H2_SWAP_CELLS if name == "h2" and component >= 4 else THEOREM_CELLS[name]
        for seed in range(3):
            m = au.random_automorphism(name, seed, component=component).matrix
            assert au.theorem_form_defect(name, m) <= 1e-15 * max(1.0, max_norm(m) ** 2)
            for i, j in zeros + dependents:
                bent = m.copy()
                bent[i, j] += delta
                assert au.theorem_form_defect(name, bent) >= delta / 2, (component, seed, i, j)


# ---------------------------------------------------------------------------
# component representatives


@pytest.mark.parametrize("name", ["h2", "h4", "h5", "h6", "h9"])
def test_component_representatives(name):
    reps = au.component_representatives(name)
    assert len(reps) == COMPONENT_COUNTS[name]
    seen = set()
    for rep in reps:
        assert au.is_automorphism(name, rep.matrix, 1e-12)
        seen.add(rep.component)
    assert seen == set(range(len(reps)))


def test_h6_representatives_match_listed_diagonals():
    mats = {tuple(np.diag(r.matrix)) for r in au.component_representatives("h6")}
    listed = {
        (1, 1, 1, 1, 1, 1), (1, 1, 1, -1, 1, 1), (1, 1, -1, 1, 1, -1),
        (1, 1, -1, -1, 1, -1), (-1, 1, 1, 1, -1, -1), (-1, 1, 1, -1, -1, -1),
        (-1, 1, -1, 1, -1, 1), (-1, 1, -1, -1, -1, 1),
    }
    assert mats == {tuple(float(x) for x in t) for t in listed}


def test_h9_representatives_are_involutions():
    for rep in au.component_representatives("h9"):
        np.testing.assert_array_equal(rep.matrix @ rep.matrix, np.eye(6))


def test_representatives_unsupported_for_custom():
    with pytest.raises(Unsupported):
        au.component_representatives(al.parse_salamon("(0,0,0,0,0,0)"))


def test_theorems_read_a_builtins_salamon_string_as_that_builtin():
    # one recognizer for every layer: h6's string names h6 here as in canonicalize
    reps = au.component_representatives("(0,0,0,0,12,13)")
    assert [(r.algebra, r.component) for r in reps] == [
        (r.algebra, r.component) for r in au.component_representatives("h6")]
    with pytest.raises(Unsupported, match="not 'custom'"):
        au.component_representatives(al.PAPER_H9_SALAMON)
    # an algebra labelled "h9" names h9hat here as in canonicalize
    h9 = al.LieAlgebra(c=al.builtin("h9hat").c, label="h9")
    assert len(au.component_representatives(h9)) == COMPONENT_COUNTS["h9"]
    mo.canonicalize(h9, np.eye(6))


@pytest.mark.parametrize("name", BUILTINS)
def test_representatives_built_once_and_read_only(name):
    reps = au.component_representatives(name)
    reps.clear()  # each call returns a new list
    reps = au.component_representatives(name)
    assert len(reps) == COMPONENT_COUNTS[name]
    theorem = au._THEOREMS[al.get_algebra(name).label]
    fresh = sorted(theorem.representatives(), key=theorem.component)
    for rep, m in zip(reps, fresh):
        np.testing.assert_array_equal(rep.matrix, m)
        assert rep.component == theorem.component(m)
        with pytest.raises(ValueError):
            rep.matrix[0, 0] = 2.0
    # built once: a later call hands out the same matrices
    again = au.component_representatives(name)
    assert all(a.matrix is b.matrix for a, b in zip(again, reps))


# ---------------------------------------------------------------------------
# random sampling


def test_random_automorphism_deterministic():
    for name in BUILTINS:
        f1 = au.random_automorphism(name, 123)
        f2 = au.random_automorphism(name, 123)
        np.testing.assert_array_equal(f1.matrix, f2.matrix)


def test_random_automorphism_sweep():
    for name in BUILTINS:
        alg = al.builtin(name)
        for seed in range(100):
            f = au.random_automorphism(alg, seed)
            assert au.is_automorphism(alg, f.matrix, 1e-10)


def test_random_automorphism_component_routing():
    for name in BUILTINS:
        n = COMPONENT_COUNTS[name]
        for comp in range(n):
            f = au.random_automorphism(name, 7, component=comp)
            assert f.component == comp


def test_h6_component2_sign_pattern():
    # spec: samples with component=2 never connect to the identity; the
    # invariant is the sign pattern of (r, s, det At)
    for seed in range(25):
        f = au.random_automorphism("h6", seed, component=2)
        r = f.matrix[0, 0]
        s = f.matrix[3, 3]
        det_at = np.linalg.det(f.matrix[1:3, 1:3])
        assert r > 0 and s < 0 and det_at > 0
        assert au.component_label("h6", f.matrix) == 2 != 0


# ---------------------------------------------------------------------------
# group structure


def test_closure_under_product():
    for name in BUILTINS:
        alg = al.builtin(name)
        for s in range(10):
            f = au.random_automorphism(alg, 100 + s)
            g = au.random_automorphism(alg, 200 + s)
            assert au.matches_theorem_form(alg, f.matrix @ g.matrix, 1e-9)


def test_inverse_is_automorphism():
    for name in BUILTINS:
        alg = al.builtin(name)
        for s in range(10):
            f = au.random_automorphism(alg, 300 + s)
            assert au.is_automorphism(alg, np.linalg.inv(f.matrix), 1e-9)


def test_exponential_of_derivations():
    # expm(D), D in Der, is an automorphism of its theorem's form: the
    # identity component of Aut lies in the theorem's shape, to rounding
    # (at most 1.7e-14 relative on these draws)
    rng = np.random.default_rng(2)
    for name in BUILTINS:
        alg = al.builtin(name)
        basis = au.derivation_algebra(alg)
        for _ in range(20):
            coeffs = rng.normal(0.0, 0.3, basis.dimension)
            m = expm_pade6(np.einsum("k,kij->ij", coeffs, basis.matrices))
            assert au.is_automorphism(alg, m, 1e-8)
            assert au.theorem_form_defect(alg, m) <= 1e-13 * max(1.0, max_norm(m) ** 2)


def _rank(rows):
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > 1e-6 * s[0]))


@pytest.mark.parametrize("name", sorted(THEOREM_CELLS))
def test_theorem_tangent_at_the_identity_is_der(name):
    # the tangent of construct(read(.)) at I, by central differences along the
    # 36 unit directions, is the theorem's tangent space; it has Der's
    # dimension and joined with Der's basis keeps it, so it is Der.  The
    # constructors are polynomials of degree <= 3, so the error of a
    # difference is of order h^2 + eps/h, far below the rank cutoff
    theorem = au._theorem(name)[1]
    h = 1e-6
    tangent = []
    for unit in np.eye(36).reshape(36, 6, 6):
        plus = theorem.construct(theorem.read(np.eye(6) + h * unit))
        minus = theorem.construct(theorem.read(np.eye(6) - h * unit))
        tangent.append(((plus - minus) / (2 * h)).reshape(-1))
    der = au.derivation_algebra(name).matrices.reshape(-1, 36)
    assert _rank(np.array(tangent)) == _rank(np.vstack([tangent, der])) == DER_DIMS[name]


@pytest.mark.parametrize("name", sorted(THEOREM_CELLS))
def test_representatives_lie_in_distinct_components(name):
    # the tag does not change along the paths t -> rep expm(t D), D in Der, so
    # it is read off the component, and representatives with distinct tags
    # lie in distinct components: Aut has at least COMPONENT_COUNTS[name] of
    # them (the theorem claims exactly that many, which this does not show)
    alg = al.builtin(name)
    basis = au.derivation_algebra(alg)
    reps = au.component_representatives(name)
    assert len({rep.component for rep in reps}) == len(reps) >= COMPONENT_COUNTS[name]
    rng = np.random.default_rng(5)
    for rep in reps:
        assert au.is_automorphism(alg, rep.matrix, 1e-12)
        for _ in range(4):
            d = np.einsum("k,kij->ij", rng.normal(0.0, 0.5, basis.dimension), basis.matrices)
            for t in np.linspace(0.0, 1.0, 11):
                assert au.component_label(alg, rep.matrix @ expm_pade6(t * d)) == rep.component


def test_automorphism_json_round_trip():
    f = au.random_automorphism("h5", 11)
    data = f.to_json_dict()
    m = np.array(data["matrix"]).reshape(6, 6)
    np.testing.assert_array_equal(m, f.matrix)
    assert data["algebra"] == "h5"
