import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmoduli import algebra as al
from nilmoduli import hermitian as hm
from nilmoduli import moduli as mo
from nilmoduli.errors import AlgebraMismatch, InvalidForm, InvalidParams, InvalidTriple
from nilmoduli.linalg import max_norm
from nilmoduli.testsupport import BOUNDARIES, random_canonical_form
from paper_reference import h5_eq42_residual, lemma_j_h6


def sphere_point(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


def _structures(sets):
    """The structures of a solver's {branch: SolutionSet}, in set order."""
    return [s for sset in sets.values() for s in sset.solutions]


# ---------------------------------------------------------------------------
# h5


def test_h5_j1_compatibility_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        form = random_canonical_form("h5", rng)
        g = mo.realize(form).matrix
        j = hm.h5_J(form, "J1", sphere_point(rng)).matrix
        assert max_norm(j.T @ g @ j - g) <= 1e-12 * max(1.0, max_norm(g))
        j2 = hm.h5_J(form, "J2", sphere_point(rng)).matrix
        assert max_norm(j2.T @ g @ j2 - g) <= 1e-12 * max(1.0, max_norm(g))


def test_h5_j1_commutator_block_independent_of_triple():
    form = mo.H5Form(0.7, 0.4, 1.4, 0.5, 2.0)
    sd = np.sqrt(form.E * form.G - form.F ** 2)
    expected = np.array([[-form.F, -form.G], [form.E, form.F]]) / sd
    rng = np.random.default_rng(1)
    for _ in range(5):
        j = hm.h5_J(form, "J1", sphere_point(rng)).matrix
        np.testing.assert_allclose(j[4:, 4:], expected, atol=1e-15)


def test_h5_j1_symplectic_rotation_at_unit_params():
    j = hm.h5_J(mo.H5Form(1, 1, 1, 0, 1), "J1", (1.0, 0.0, 0.0)).matrix
    expected4 = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    np.testing.assert_array_equal(j[:4, :4], expected4)


def test_sphere_family_j2_is_j1_with_two_blocks_negated():
    # bit for bit: J2 negates the (e2, e3, e4) block and the (e5, e6) block of J1
    rng = np.random.default_rng(3)
    negated = np.zeros((6, 6), dtype=bool)
    negated[1:4, 1:4] = negated[4:, 4:] = True
    for form, make_j in ((random_canonical_form("h5", rng), hm.h5_J),
                         (random_canonical_form("h4", rng), hm.h4_J)):
        for _ in range(5):
            triple = sphere_point(rng)
            j1 = make_j(form, "J1", triple).matrix
            j2 = make_j(form, "J2", triple).matrix
            expected = np.where(negated, -j1, j1)
            assert np.array_equal(j2, expected)


def test_h5_off_sphere_rejected():
    with pytest.raises(InvalidTriple, match=r"^a\^2\+b\^2\+c\^2 deviates from 1 by 1\.000e\+00$"):
        hm.h5_J(mo.H5Form(1, 1, 1, 0, 1), "J1", (1.0, 1.0, 0.0))


def test_h5_solutions_unit_case():
    sols = hm.h5_hermitian_solutions(mo.H5Form(1, 1, 1, 0, 1))
    j1 = sols["J1"]
    assert [(s.triple.a, s.triple.b, s.triple.c) for s in j1.solutions] == [(1.0, 0.0, 0.0)]
    assert sols["J2"].kind == "sphere"


def test_h5_j2_sphere_members_integrable():
    # spot check: at s = r = 1 any sphere point gives a complex structure
    form = mo.H5Form(1.0, 1.0, 1.3, 0.4, 2.0)
    rng = np.random.default_rng(2)
    h5 = al.builtin("h5")
    for _ in range(10):
        j = hm.h5_J(form, "J2", sphere_point(rng))
        assert al.nijenhuis_residual(h5, j) <= 1e-12


def test_h5_j2_equal_parameters():
    sols = hm.h5_hermitian_solutions(mo.H5Form(0.25, 0.25, 1.0, 0.3, 2.0))
    triples = sorted((s.triple.a, s.triple.b, s.triple.c) for s in sols["J2"].solutions)
    assert triples == [(0.0, -1.0, 0.0), (0.0, 1.0, 0.0)]


def test_h5_sweep_residuals_and_signs():
    rng = np.random.default_rng(3)
    h5 = al.builtin("h5")
    for trial in range(120):
        boundary = (None, *BOUNDARIES["h5"])[trial % 5]
        form = random_canonical_form("h5", rng, boundary=boundary)
        sols = hm.h5_hermitian_solutions(form)
        for branch, sset in sols.items():
            if sset.kind == "sphere":
                continue
            for sol in sset.solutions:
                t = sol.triple
                assert abs(t.a ** 2 + t.b ** 2 + t.c ** 2 - 1.0) <= 1e-12
                assert sol.residuals["nijenhuis"] <= 1e-9
                assert sol.residuals["compatibility"] <= 1e-11
                assert sol.residuals["involution"] <= 1e-12
                if branch == "J1" and form.F > 1e-9:
                    assert t.a > 0 and t.b * t.c > 0
                    assert abs(h5_eq42_residual(form, t.a)) <= 1e-10
                if branch == "J2" and form.F > 1e-9 and form.s < form.r < 1.0:
                    assert t.a < 0 and t.b * t.c < 0


def test_h5_negation_closure():
    rng = np.random.default_rng(4)
    h5 = al.builtin("h5")
    form = random_canonical_form("h5", rng)
    g = mo.realize(form).matrix
    for sset in hm.h5_hermitian_solutions(form).values():
        assert sset.includes_negatives
        for sol in sset.solutions:
            neg = -sol.J.matrix
            assert al.nijenhuis_residual(h5, neg) <= 1e-9
            assert max_norm(neg.T @ g @ neg - g) <= 1e-11


# ---------------------------------------------------------------------------
# h4


def test_h4_j2_column_pattern():
    j = hm.h4_J(mo.H4Form(1.0, 1.0, 0.0, 1.0), "J2", (1.0, 0.0, 0.0)).matrix
    assert j[1, 0] == 1.0  # Je1 = a e2 at (a,b,c) = (1,0,0)
    assert j[0, 1] == -1.0


def test_h4_compat_and_involution_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        form = random_canonical_form("h4", rng)
        g = mo.realize(form).matrix
        for branch in ("J1", "J2"):
            j = hm.h4_J(form, branch, sphere_point(rng)).matrix
            assert max_norm(j.T @ g @ j - g) <= 1e-12 * max(1.0, max_norm(g))
            assert max_norm(j @ j + np.eye(6)) <= 1e-12


def test_h4_r1_j2_solutions():
    sols = hm.h4_hermitian_solutions(mo.H4Form(1.0, 1.3, 0.4, 2.0))
    triples = sorted((s.triple.a, s.triple.b, s.triple.c) for s in sols["J2"].solutions)
    assert triples == [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]


def test_h4_f0_j1_row():
    form = mo.H4Form(0.5, 1.0, 0.0, 2.0)  # E/G = 0.5 <= alpha^2
    alpha = (1 + np.sqrt(0.5)) / np.sqrt(0.5)
    sols = hm.h4_hermitian_solutions(form)["J1"].solutions
    for sol in sols:
        assert sol.triple.a == 0.0
        assert sol.triple.b == pytest.approx(-np.sqrt(1.0) / (np.sqrt(2.0) * alpha))
        assert abs(sol.triple.c) == pytest.approx(np.sqrt(1 - 1.0 / (2.0 * alpha ** 2)))


def test_h4_abelian_structure_row():
    sols = hm.h4_hermitian_solutions(mo.H4Form(1.0, 1.5, 0.0, 1.5))["J2"].solutions
    h4 = al.builtin("h4")
    triple_set = sorted((s.triple.a, s.triple.b, s.triple.c) for s in sols)
    assert triple_set == [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    for s in sols:
        assert al.is_abelian_structure(h4, s.J)


def test_h4_sweep_residuals():
    rng = np.random.default_rng(6)
    for trial in range(120):
        boundary = (None, *BOUNDARIES["h4"])[trial % 3]
        form = random_canonical_form("h4", rng, boundary=boundary)
        for sset in hm.h4_hermitian_solutions(form).values():
            for sol in sset.solutions:
                t = sol.triple
                assert abs(t.a ** 2 + t.b ** 2 + t.c ** 2 - 1.0) <= 1e-12
                assert sol.residuals["nijenhuis"] <= 1e-9
                assert sol.residuals["compatibility"] <= 1e-11
                assert sol.residuals["involution"] <= 1e-12


def test_small_commutator_blocks_keep_their_table_rows():
    # F = 5e-11 is half of E: far from the F = 0 stratum at this scale
    h5 = hm.h5_hermitian_solutions(mo.H5Form(0.5, 0.3, 1e-10, 5e-11, 2e-10))
    h4 = hm.h4_hermitian_solutions(mo.H4Form(0.5, 1e-10, 5e-11, 2e-10))
    for sset in (*h5.values(), *h4.values()):
        assert len(sset.solutions) == 2
        for sol in sset.solutions:
            assert sol.residuals["nijenhuis"] <= 1e-9
            assert 0.0 not in (sol.triple.a, sol.triple.b, sol.triple.c)


# ---------------------------------------------------------------------------
# h6


def test_h6_four_structures():
    sets = hm.h6_hermitian_solutions(mo.H6Form(1.0, 4.0))
    assert {b: (s.kind, s.includes_negatives) for b, s in sets.items()} == {
        "J1": ("finite", True), "J2": ("finite", True)}
    sols = _structures(sets)
    assert [s.triple.branch for s in sols] == ["J1+", "J1-", "J2+", "J2-"]
    mats = [s.J.matrix for s in sols]
    for i in range(4):
        for j in range(i + 1, 4):
            assert max_norm(mats[i] - mats[j]) > 1e-6
        assert sols[i].residuals["nijenhuis"] <= 1e-12


def test_h6_equal_parameters_reduce_to_lemma_j():
    sols = _structures(hm.h6_hermitian_solutions(mo.H6Form(2.0, 2.0)))
    assert max_norm(sols[0].J.matrix - sols[1].J.matrix) == 0.0
    assert max_norm(sols[2].J.matrix - sols[3].J.matrix) == 0.0
    assert max_norm(sols[0].J.matrix - lemma_j_h6().matrix) == 0.0


def test_h6_commutator_block():
    form = mo.H6Form(1.0, 4.0)
    alpha = 0.5
    for s in hm.h6_hermitian_solutions(form)["J1"].solutions:
        assert s.J.matrix[5, 4] == pytest.approx(alpha)     # Je5 = alpha e6
        assert s.J.matrix[4, 5] == pytest.approx(-1 / alpha)  # Je6 = -e5/alpha


def test_h6_invalid_ordering():
    with pytest.raises(InvalidForm, match=r"^h6 requires 0 < a <= b$"):
        hm.h6_hermitian_solutions(mo.H6Form(1.0, 0.5))


# ---------------------------------------------------------------------------
# one verified stack per closed-form call

STACK_CASES = {  # a form per finite and sphere case and its solver
    "h5": (mo.H5Form(0.5, 0.3, 1.0, 0.1, 2.0), hm.h5_hermitian_solutions),
    "h5-sr": (mo.H5Form(0.6, 0.6, 1.0, 0.0, 2.0), hm.h5_hermitian_solutions),
    "h5-sphere": (mo.H5Form(1.0, 1.0, 1.0, 0.3, 2.0), hm.h5_hermitian_solutions),
    "h4": (mo.H4Form(0.5, 1.2, 0.3, 0.7), hm.h4_hermitian_solutions),
    "h4-r1": (mo.H4Form(1.0, 1.2, 0.0, 0.7), hm.h4_hermitian_solutions),
    "h6": (mo.H6Form(1.0, 4.0), hm.h6_hermitian_solutions),
}


WRAP_CASES = {**STACK_CASES, "h2": (mo.H2Form(0.2, 0.6, 1.0, 0.3, 2.0), hm.h2_hermitian_candidates)}

# a form of each case, and h9's: hermitian_structures answers for all five algebras
RECORD_FORMS = {**{case: form for case, (form, _solve) in WRAP_CASES.items()},
                "h9": mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.7, 0.4)}
BRANCHES = {"h5": ["J1", "J2"], "h4": ["J1", "J2"], "h6": ["J1", "J2"], "h2": ["J"],
            "h9hat": ["J0"]}


@pytest.mark.parametrize("case", list(RECORD_FORMS))
def test_hermitian_structures_give_one_record_shape(case):
    form = RECORD_FORMS[case]
    sets = hm.hermitian_structures(form)
    assert list(sets) == BRANCHES[form.algebra]
    for branch, sset in sets.items():
        assert isinstance(sset, hm.SolutionSet) and sset.branch == branch
        assert sset.kind in ("finite", "sphere", "open")
        assert sset.kind == "finite" or sset.solutions == ()
        for sol in sset.solutions:
            assert isinstance(sol, hm.HermitianSolution)
            assert sol.triple.branch.startswith(branch)
            assert set(sol.residuals) == {"nijenhuis", "compatibility", "involution"}
            assert (sol.abelian is not None) == (form.algebra == "h2")
    if case != "h9":  # the algebra's own solver gives the same records
        expected = WRAP_CASES[case][1](form)
        assert ({b: s.to_json_dict() for b, s in sets.items()}
                == {b: s.to_json_dict() for b, s in expected.items()})
    else:
        assert [s.kind for s in sets.values()] == ["open"]


def test_hermitian_structures_run_the_solver_bound_on_the_module(monkeypatch):
    # the solver is looked up by name at each call, so a patched one runs
    marker = {"J1": hm.SolutionSet("J1", "sphere")}
    monkeypatch.setattr(hm, "h6_hermitian_solutions", lambda form: marker)
    assert hm.hermitian_structures(mo.H6Form(1.0, 4.0)) is marker
    with pytest.raises(InvalidForm, match="unknown form type"):
        hm.hermitian_structures(object())


@pytest.mark.parametrize("case", list(WRAP_CASES))
def test_each_returned_structure_is_wrapped_once(monkeypatch, case):
    made = []

    class Counted(al.AlmostComplexStructure):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    monkeypatch.setattr(hm, "AlmostComplexStructure", Counted)
    form, solve = WRAP_CASES[case]
    sols = _structures(solve(form))
    assert sols
    assert len(made) == len(sols)
    assert all(sol.J is acs for sol, acs in zip(sols, made))


@pytest.mark.parametrize("case", list(STACK_CASES))
def test_stacked_residuals_equal_single_j_residuals(case):
    form, solve = STACK_CASES[case]
    alg, g = al.builtin(form.algebra), mo.realize(form).matrix
    for sol in _structures(solve(form)):
        j = sol.J.matrix
        assert sol.residuals == {
            "nijenhuis": max_norm(al.nijenhuis_tensor(alg, j)),
            "compatibility": max_norm(j.T @ g @ j - g),
            "involution": max_norm(j @ j + np.eye(6)),
        }


def _first_over_the_bound(sols, g, rtol):
    """(structure, residual name, bound) of the first residual over its
    bound at HERMITIAN_RTOL = rtol, in the certificate's order, or None."""
    for sol in sols:
        bound = rtol * max(1.0, max_norm(sol.J.matrix)) ** 2
        for key, limit in (("involution", bound), ("nijenhuis", bound),
                           ("compatibility", bound * max(1.0, max_norm(g)))):
            if sol.residuals[key] > limit:
                return sol, key, limit
    return None


@pytest.mark.parametrize("case", ["h5", "h4", "h6"])
def test_a_nijenhuis_failure_names_the_first_structure_over_the_bound(monkeypatch, case):
    # the residuals come from one stack, but the structures are checked in
    # order.  N_J is scaled by 4, so that its residual stands apart from the
    # J^2 + I residual (on h6 the two are one value), and the bound is put
    # between the two smallest ratios of a Nijenhuis residual to its bound
    nijenhuis = hm.nijenhuis_tensor
    monkeypatch.setattr(hm, "nijenhuis_tensor", lambda alg, js: 4.0 * nijenhuis(alg, js))
    form, solve = STACK_CASES[case]
    sols = _structures(solve(form))
    ratios = [s.residuals["nijenhuis"] / max(1.0, max_norm(s.J.matrix)) ** 2 for s in sols]
    lowest = sorted(set(ratios))
    rtol = 0.5 * (lowest[0] + lowest[1]) if len(lowest) > 1 else 0.5 * lowest[0]
    first = next(s for s, r in zip(sols, ratios) if r > rtol)
    sol, key, limit = _first_over_the_bound(sols, mo.realize(form).matrix, rtol)
    assert (sol, key) == (first, "nijenhuis")
    monkeypatch.setattr(hm, "HERMITIAN_RTOL", rtol)
    message = (f"{form.algebra} {sol.triple.branch}: nijenhuis residual "
               f"{sol.residuals['nijenhuis']:.3e} exceeds {limit:.3e}")
    with pytest.raises(InvalidForm) as info:
        solve(form)
    assert str(info.value) == message


@pytest.mark.parametrize("case", ["h5", "h4"])
def test_an_off_sphere_table_triple_raises_in_the_solver(monkeypatch, case):
    # a^2 + b^2 + c^2 = 2: J^2 = -2 on the first four basis vectors
    monkeypatch.setattr(hm, "_dedupe", lambda trips, tol: [(1.0, 1.0, 0.0)])
    form, solve = STACK_CASES[case]
    with pytest.raises(InvalidForm, match=rf"^{case} J1: involution residual 1\.000e\+00 exceeds "):
        solve(form)


def test_dedupe_puts_its_triples_on_the_sphere():
    # the solvers take _dedupe's triples as on the sphere, unchecked
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for scale in (1e-3, 1.0, 1e3):
        trips = [tuple(scale * rng.normal(size=3)) for _ in range(200)]
        trips += [(scale, 0.0, 0.0), (0.0, -scale, 0.0), (scale, scale, scale)]
        for tol in (hm.DEDUPE_TOL, hm.H2_DEDUPE_TOL):
            for a, b, c in hm._dedupe(trips, tol):
                assert abs(a * a + b * b + c * c - 1.0) <= 4 * eps


@pytest.mark.parametrize("case", ["h5", "h4"])
def test_a_table_triple_moved_along_the_sphere_raises_in_the_solver(monkeypatch, case):
    # each table triple turned by 1e-6 in its (a, b) plane stays on the sphere
    # but its J is no longer integrable
    dedupe = hm._dedupe
    t = 1e-6
    monkeypatch.setattr(hm, "_dedupe", lambda trips, tol: [
        (a * np.cos(t) - b * np.sin(t), a * np.sin(t) + b * np.cos(t), c)
        for a, b, c in dedupe(trips, tol)])
    form, solve = STACK_CASES[case]
    with pytest.raises(InvalidForm, match=rf"^{case} J1: nijenhuis residual "):
        solve(form)


NEAR_DEGENERATE = {  # a form of each solver at F (h5) or b (h4) = f; EG - F^2 = 1 - f^2
    "h5": (lambda f: mo.H5Form(0.5, 0.3, 1.0, f, 1.0), hm.h5_hermitian_solutions),
    "h4": (lambda f: mo.H4Form(0.5, 1.0, f, 1.0), hm.h4_hermitian_solutions),
}


@pytest.mark.parametrize("k", [4, 6, 8, 10])
@pytest.mark.parametrize("case", list(NEAR_DEGENERATE))
def test_near_degenerate_forms_keep_their_structures(case, k):
    # J's entries grow as 1 / sqrt(EG - F^2), and the rounding of every
    # residual with them: the certificate's bounds grow as that rounding does
    make, solve = NEAR_DEGENERATE[case]
    reference = {b: (s.kind, len(s.solutions)) for b, s in solve(make(0.99)).items()}
    form = make(1.0 - 10.0 ** -k)
    sets = solve(form)
    assert {b: (s.kind, len(s.solutions)) for b, s in sets.items()} == reference
    sols = _structures(sets)
    assert max(max_norm(s.J.matrix) for s in sols) > 10.0 ** (k / 2 - 1)
    assert _first_over_the_bound(sols, mo.realize(form).matrix, hm.HERMITIAN_RTOL) is None


# ---------------------------------------------------------------------------
# h2


def test_h2_j_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        form = random_canonical_form("h2", rng)
        g = mo.realize(form).matrix
        j = hm.h2_J(form, sphere_point(rng)).matrix
        assert max_norm(j @ j + np.eye(6)) <= 1e-11
        assert max_norm(j.T @ g @ j - g) <= 1e-11 * max(1.0, max_norm(g))


def test_h2_j_simplifies_at_zero_coupling():
    form = mo.H2Form(0.0, 0.0, 1.0, 0.0, 1.0)
    j = hm.h2_J(form, (0.0, 1.0, 0.0)).matrix
    # phi = 0, psi = 1, alpha = beta = 1
    assert j[0, 0] == 0.0 and j[2, 0] == 1.0


def _h2_structures(form):
    return hm.h2_hermitian_candidates(form)["J"].solutions


def test_h2_equal_coupling_gives_abelian_pair():
    sols = _h2_structures(mo.H2Form(0.3, 0.3, 1.0, 0.2, 2.0))
    triples = sorted((s.triple.a, s.triple.b, s.triple.c) for s in sols)
    assert triples == [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    assert all(s.abelian for s in sols)


H2_PAIR_FORMS = [mo.H2Form(0.3, 0.3, 1.0, 0.2, 2.0), mo.H2Form(0.2, 0.6, 1.0, 0.3, 2.0)]  # a = b, a < b


def test_h2_candidates_judge_abelian_at_one_tolerance(monkeypatch):
    h2 = al.builtin("h2")
    for form in H2_PAIR_FORMS:
        sols = _h2_structures(form)
        assert len(sols) == 2
        assert [s.abelian for s in sols] == [
            al.is_abelian_structure(h2, s.J, tol=hm.H2_ABELIAN_TOL) for s in sols]
    for tol, flag in ((-1.0, False), (np.inf, True)):
        monkeypatch.setattr(hm, "H2_ABELIAN_TOL", tol)
        for form in H2_PAIR_FORMS:
            assert [s.abelian for s in _h2_structures(form)] == [flag, flag]


def test_h2_candidates_at_a_large_j_are_verified():
    # max|J| = 44 at a ~ b: the structures hold the closed-form certificate
    form = mo.H2Form(0.02438187346534602, 0.024385635258341275, 0.0010448929342252043,
                     0.020007615927525212, 1.5386347695218612)
    sols = _assert_two_certified_h2(form)
    assert max(max_norm(s.J.matrix) for s in sols) > 40.0


def test_h2_structure_with_a_perturbed_entry_raises(monkeypatch):
    # J[e5, e6] scaled by 1 + 1e-6 on the first structure: J^2 + I, J^T g J - g
    # and N_J move by ~1e-6, but [JX, JY] reads only J's first four rows
    build = hm._h2_matrices

    def perturbed(form, triples):
        js = build(form, triples)
        js[0, 4, 5] *= 1.0 + 1e-6
        return js

    for form in H2_PAIR_FORMS:
        js = perturbed(form, [s.triple for s in _h2_structures(form)])
        # the message names the first residual over its bound, in check order
        (_acs, res, scales), _second = hm._measure("h2", js, mo.realize(form).matrix)
        key, limit = next((k, hm.HERMITIAN_RTOL * sc) for k, sc in scales.items()
                          if res[k] > hm.HERMITIAN_RTOL * sc)
        monkeypatch.setattr(hm, "_h2_matrices", perturbed)
        with pytest.raises(InvalidForm) as info:
            hm.h2_hermitian_candidates(form)
        monkeypatch.setattr(hm, "_h2_matrices", build)
        assert str(info.value) == f"h2 J: {key} residual {res[key]:.3e} exceeds {limit:.3e}"


def test_h2_perturbed_structure_gets_an_abelian_verdict():
    # a wrapped J passed its own J^2 + I bound at construction; is_abelian_structure's
    # tol decides only [JX, JY] = [X, Y], which the perturbed entry leaves as it was
    h2 = al.builtin("h2")
    for form in H2_PAIR_FORMS:
        before = _h2_structures(form)
        js = hm._h2_matrices(form, [s.triple for s in before])
        js[0, 4, 5] *= 1.0 + 1e-6
        acs = al.AlmostComplexStructure(js[0], "h2", tol=math.inf)
        assert acs.residual > hm.H2_ABELIAN_TOL
        assert al.is_abelian_structure(h2, acs, tol=hm.H2_ABELIAN_TOL) == before[0].abelian
        with pytest.raises(ValueError):  # a raw array is still checked, at DEFAULT_TOL
            al.is_abelian_structure(h2, js[0], tol=hm.H2_ABELIAN_TOL)


def test_h2_structures_at_a_zero_bound_raise(monkeypatch):
    monkeypatch.setattr(hm, "HERMITIAN_RTOL", 0.0)
    rng = np.random.default_rng(12)
    forms = H2_PAIR_FORMS + [random_canonical_form("h2", rng) for _ in range(20)]
    for form in forms:
        with pytest.raises(InvalidForm, match=r"^h2 J: \w+ residual \S+ exceeds 0\.000e\+00$"):
            hm.h2_hermitian_candidates(form)


def test_h2_distinct_coupling_candidates():
    rng = np.random.default_rng(8)
    h2 = al.builtin("h2")
    for _ in range(100):
        form = random_canonical_form("h2", rng)
        if abs(form.a - form.b) < 1e-6:
            continue
        sols = _h2_structures(form)
        assert len(sols) == 2
        for s in sols:
            if abs(abs(s.triple.a) - 1.0) > 1e-9:
                assert s.triple.b < 0
            assert al.nijenhuis_residual(h2, s.J) <= 1e-8


def test_h2_candidates_respect_f_sign():
    # the family is defined for either sign of F (canonical forms keep the
    # sign of F when a > 0)
    form = mo.H2Form(0.2, 0.6, 1.3, -0.35, 2.0)
    assert len(_h2_structures(form)) == 2


# F = -psi at a = 0.3, b = 0.5, E = 1: F/E + psi evaluates to exactly 0, so a = 0
H2_LOCUS_F = -0.9761355820929153


def _assert_hermitian_h2(form, sols):
    """Each structure, checked apart from the solver's certificate."""
    h2, g = al.builtin("h2"), mo.realize(form).matrix
    for s in sols:
        j = s.J.matrix
        scale = max(1.0, max_norm(j)) ** 2
        assert max_norm(j @ j + np.eye(6)) <= 1e-12 * scale
        assert al.nijenhuis_residual(h2, j, tol=math.inf) <= 1e-12 * scale  # J^2 + I just above
        assert max_norm(j.T @ g @ j - g) <= 1e-12 * scale * max(1.0, max_norm(g))


def _assert_two_certified_h2(form):
    """The form's two structures, certified at HERMITIAN_RTOL and checked apart."""
    sols = _h2_structures(form)
    assert len(sols) == 2
    assert _first_over_the_bound(sols, mo.realize(form).matrix, hm.HERMITIAN_RTOL) is None
    _assert_hermitian_h2(form, sols)
    return sols


def test_h2_structures_on_a_ladder_towards_a_equals_b_and_b_equals_1():
    # phi = B alpha - A beta and 1 - a^2 cancel as a -> b; alpha, beta as b -> 1
    rng = np.random.default_rng(31)
    for k in range(2, 10):
        for _ in range(12):
            e_val, g_val = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            f_val = rng.uniform(-0.99, 0.99) * math.sqrt(e_val * g_val)
            top, b = 1.0 - 10.0 ** -k, rng.uniform(0.01, 0.99)
            for a_b in ((b * top, b), (rng.uniform(0.0, top), top)):
                _assert_two_certified_h2(mo.H2Form(*a_b, e_val, f_val, g_val))


# b < 1 - 1e-9: realize rejects the metric as not positive definite within ~1e-12 of 1
@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0 - 1e-9), st.floats(0.0, 1.0),
       st.floats(1e-3, 1e3), st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
       st.floats(1e-3, 1e3))
def test_h2_structures_on_the_valid_box(b, ratio, e_val, rho, g_val):
    _assert_two_certified_h2(mo.H2Form(ratio * b, b, e_val, rho * math.sqrt(e_val * g_val), g_val))


def test_h2_a0_locus_at_the_eg_corner_gives_one_structure():
    form = mo.H2Form(0.3, 0.5, 1.0, H2_LOCUS_F, 1.0)
    (sol,) = _h2_structures(form)
    assert sol.triple.a == 0.0
    t = sol.triple
    assert (t.a, t.b, t.c) == pytest.approx((0.0, -1.0, 0.0), abs=1e-7)
    _assert_hermitian_h2(form, [sol])
    # one ulp either side of F: the same single structure, to the solve's resolution
    for f in (math.nextafter(H2_LOCUS_F, -1.0), math.nextafter(H2_LOCUS_F, 0.0)):
        near = mo.H2Form(0.3, 0.5, 1.0, f, 1.0)
        (other,) = _h2_structures(near)
        u = other.triple
        assert abs(u.a - t.a) + abs(u.b - t.b) + abs(u.c - t.c) <= hm.H2_DEDUPE_TOL
        _assert_hermitian_h2(near, [other])


def test_h2_a0_locus_inside_the_eg_range_gives_two_structures():
    form = mo.H2Form(0.3, 0.5, 1.0, H2_LOCUS_F, 0.99)
    form.validate()
    sols = _h2_structures(form)
    assert len(sols) == 2
    _alpha, _beta, phi, _psi, sd = hm._h2_angles(form)
    b = -sd / (form.E * phi)
    for s, sign in zip(sols, (1.0, -1.0)):
        assert s.triple.a == 0.0
        assert s.triple.b == pytest.approx(b, rel=1e-12)
        assert s.triple.c == pytest.approx(sign * 0.4605, abs=1e-4)
    _assert_hermitian_h2(form, sols)


def _h2_tables_form_searches():
    """The oracle on the ``tables`` form H2Form(0.2, 0.6, 1, 0.3, 2) at four seeds."""
    g = mo.realize(mo.H2Form(0.2, 0.6, 1.0, 0.3, 2.0))
    return [hm.hermitian_search("h2", g, seed=seed) for seed in (20210607, 1, 2, 3)]


def test_the_oracle_finds_a_structure_on_the_h2_tables_form_at_every_seed():
    assert all(res.found for res in _h2_tables_form_searches())


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "h2 lists one complex orientation: on the tables form H2Form(0.2, 0.6, 1, 0.3, 2) "
    "the oracle's J at its default seed (residual 2.2e-11) and at seed 2 is 2.06 in "
    "max norm from +-J of both listed structures"))
def test_h2_structures_include_every_structure_the_oracle_finds():
    listed = [s.J.matrix for s in _h2_structures(mo.H2Form(0.2, 0.6, 1.0, 0.3, 2.0))]
    found = [res.J.matrix for res in _h2_tables_form_searches() if res.found]
    distances = [min(max_norm(j_found - sign * j) for j in listed for sign in (1.0, -1.0))
                 for j_found in found]
    assert max(distances) <= 1e-6  # no J found: ValueError, not this xfail


# ---------------------------------------------------------------------------
# h9


def test_h9_j0():
    h9h = al.builtin("h9hat")
    j0 = hm.h9_J0()
    assert al.nijenhuis_residual(h9h, j0) == 0.0
    assert al.is_abelian_structure(h9h, j0)
    assert max_norm(j0.matrix @ j0.matrix + np.eye(6)) == 0.0


def test_h9_sigma_families_random():
    rng = np.random.default_rng(9)
    h9h = al.builtin("h9hat")
    for _ in range(100):
        m1, p1, j1 = hm.h9_sigma_family("sigma1", A=float(rng.uniform(0.3, 2)),
                                        E=float(rng.uniform(-2, 2)))
        m2, p2, j2 = hm.h9_sigma_family("sigma2", A=float(rng.uniform(0.3, 2)),
                                        F=float(rng.uniform(-2, 2)))
        m3, p3, j3 = hm.h9_sigma_family("sigma3", a11=float(rng.uniform(0.3, 2)),
                                        a44=float(rng.uniform(0.3, 2)),
                                        A=float(rng.uniform(0.3, 2)))
        for metric, phi, j in ((m1, p1, j1), (m2, p2, j2), (m3, p3, j3)):
            g = metric.matrix
            assert al.nijenhuis_residual(h9h, j) <= 1e-9
            assert max_norm(j.matrix.T @ g @ j.matrix - g) <= 1e-9 * max(1.0, max_norm(g))
            from nilmoduli.automorphisms import is_automorphism
            assert is_automorphism(h9h, phi.matrix, 1e-10)


def _sigma_closed_form(which, p):
    """Reference: (metric matrix, phi) of a Sigma family written out directly."""
    phi = np.eye(6)
    if which == "sigma1":
        w = np.sqrt(p["E"] ** 2 + 1.0)
        form = mo.H9Form(A=p["A"], B=p["A"] * w, C=w, D=0.0, E=p["E"], F=0.0)
        phi[5, 2] = p["A"] * p["E"] / w
    elif which == "sigma2":
        form = mo.H9Form(A=p["A"], B=p["A"], C=1.0, D=0.0, E=0.0, F=p["F"])
        phi[3, 2] = -p["F"]
    else:
        a11 = p["a11"]
        form = mo.H9Form(A=p["A"], B=p["A"], C=p["a44"] / a11 ** 3, D=0.0, E=0.0, F=0.0)
        phi = np.diag([a11, a11, a11 ** 2, p["a44"], a11 ** 2, a11 ** 3])
    return mo.realize(form).matrix, phi


def test_h9_sigma_families_match_closed_forms():
    # each Sigma family is G' at fixed parameters: phi and J agree with the
    # closed form bit for bit, the metric to a few ulp (sigma1 takes its
    # root A / sqrt(E^2 + 1) in closed form: ~3 ulp over 20,000 draws)
    rng = np.random.default_rng(11)
    j0 = hm.h9_J0().matrix
    ulps = {"sigma1": 4, "sigma2": 16, "sigma3": 16}
    for _ in range(100):
        for which, p in (
            ("sigma1", {"A": rng.uniform(0.3, 2), "E": rng.uniform(-2, 2)}),
            ("sigma2", {"A": rng.uniform(0.3, 2), "F": rng.uniform(-2, 2)}),
            ("sigma3", {"a11": rng.uniform(0.3, 2), "a44": rng.uniform(0.3, 2),
                        "A": rng.uniform(0.3, 2)}),
        ):
            p = {k: float(v) for k, v in p.items()}
            metric, phi, j = hm.h9_sigma_family(which, **p)
            g_ref, phi_ref = _sigma_closed_form(which, p)
            bound = ulps[which] * np.finfo(float).eps * max_norm(g_ref)
            assert max_norm(metric.matrix - g_ref) <= bound
            assert np.array_equal(phi.matrix, phi_ref)
            assert np.array_equal(j.matrix, phi_ref @ j0 @ np.linalg.inv(phi_ref))


@pytest.mark.parametrize("big_e", [100.0, 300.0])
@pytest.mark.parametrize("big_a", [0.3, 1.0, 2.0])
def test_h9_sigma1_keeps_its_e(big_a, big_e):
    # a63 = A E / sqrt(E^2 + 1) is rounded; a root recomputed from it gave
    # the metric of another E (E = 100.00000000004721 at A = 1)
    metric, _phi, _j = hm.h9_sigma_family("sigma1", A=big_a, E=big_e)
    g_ref, _ = _sigma_closed_form("sigma1", {"A": big_a, "E": big_e})
    assert max_norm(metric.matrix - g_ref) <= 4 * np.finfo(float).eps * max_norm(g_ref)


@pytest.mark.parametrize("big_e", [500.0, 700.0, 1000.0])
@pytest.mark.parametrize("big_a", [0.3, 0.7, 1.0, 1.3, 2.0])
def test_h9_sigma1_compatibility_is_checked_relative_to_the_metric(big_a, big_e):
    # the metric's entries, and the rounding of J^T g J - g, grow as E^2: an
    # absolute bound rejected the correct pair at 10 of these 15 points
    metric, _phi, j = hm.h9_sigma_family("sigma1", A=big_a, E=big_e)
    g_ref, _ = _sigma_closed_form("sigma1", {"A": big_a, "E": big_e})
    assert max_norm(metric.matrix - g_ref) <= 4 * np.finfo(float).eps * max_norm(g_ref)
    # 1e-6 off the locus (B scaled by 1 + 1e-6) the pair is still rejected
    w = np.sqrt(big_e ** 2 + 1.0)
    off = mo.realize(mo.H9Form(A=big_a, B=big_a * w * (1 + 1e-6), C=w, D=0.0, E=big_e, F=0.0))
    with pytest.raises(InvalidParams, match=r"^h9hat sigma1: compatibility residual "):
        hm._certify("h9hat", j.matrix[None], off.matrix, ["sigma1"], InvalidParams)


@pytest.mark.parametrize("big_a", [0.3, 1.0, 2.0])
def test_h9_sigma1_at_large_e_matches_or_raises(big_a):
    # the pair check may reject E = 1e6; it must never return another E's metric
    try:
        metric, _phi, _j = hm.h9_sigma_family("sigma1", A=big_a, E=1e6)
    except InvalidParams:
        return
    g_ref, _ = _sigma_closed_form("sigma1", {"A": big_a, "E": 1e6})
    assert max_norm(metric.matrix - g_ref) <= 4 * np.finfo(float).eps * max_norm(g_ref)


def test_h9_sigma1_entry():
    m, _, _ = hm.h9_sigma_family("sigma1", A=2.0, E=1.0)
    assert m.matrix[3, 4] == pytest.approx(2.0 * np.sqrt(2.0))


def test_h9_sigma2_entries():
    m, _, _ = hm.h9_sigma_family("sigma2", A=1.0, F=0.5)
    assert m.matrix[4, 4] == pytest.approx(1.25)
    assert m.matrix[4, 5] == pytest.approx(0.5)


def test_h9_sigma3_identity():
    m, phi, j = hm.h9_sigma_family("sigma3", a11=1.0, a44=1.0, A=1.0)
    np.testing.assert_array_equal(m.matrix, np.eye(6))
    np.testing.assert_array_equal(j.matrix, hm.h9_J0().matrix)


def test_h9_sigma_bad_params():
    with pytest.raises(InvalidParams):
        hm.h9_sigma_family("sigma1", A=-1.0, E=0.0)


def test_h9_gprime_random():
    rng = np.random.default_rng(10)
    h9h = al.builtin("h9hat")
    count = 0
    while count < 100:
        a11, a44 = rng.uniform(0.5, 1.5, 2)
        a43, a63 = rng.uniform(-0.8, 0.8, 2)
        big_a = float(rng.uniform(1.0, 3.0))
        if big_a ** 2 * a11 ** 10 - a44 ** 2 * a63 ** 2 <= 0.01:
            continue
        form, phi = hm.h9_gprime_metric(float(a11), float(a43), float(a44),
                                        float(a63), big_a)
        g = mo.realize(form).matrix
        j = phi.matrix @ hm.h9_J0().matrix @ np.linalg.inv(phi.matrix)
        assert al.nijenhuis_residual(h9h, j) <= 1e-9
        assert max_norm(j.T @ g @ j - g) <= 1e-9 * max(1.0, max_norm(g))
        assert form.D == 0.0
        count += 1


def test_h9_gprime_radicand_guard():
    with pytest.raises(InvalidParams):
        hm.h9_gprime_metric(1.0, 0.0, 2.0, 1.0, 0.5)  # 0.25 - 4 < 0


def test_h9_gprime_degenerate_matches_sigma3():
    form, phi = hm.h9_gprime_metric(1.0, 0.0, 1.0, 0.0, 2.0)
    assert form.E == 0.0 and form.F == 0.0 and form.D == 0.0
    assert form.B == pytest.approx(form.A)  # diag(1,1,A^2,1,A^2,C^2) shape


@pytest.mark.parametrize("call, name", [
    (lambda: hm.h9_sigma_family("sigma1", A=1.3, E=0.7), "sigma1"),
    (lambda: hm.h9_sigma_family("sigma2", A=1.3, F=0.4), "sigma2"),
    (lambda: hm.h9_sigma_family("sigma3", a11=1.2, a44=0.8, A=1.1), "sigma3"),
    (lambda: hm.h9_gprime_metric(1.1, 0.3, 0.9, 0.2, 1.4), "gprime"),
], ids=["sigma1", "sigma2", "sigma3", "gprime"])
def test_h9_families_check_their_pair_once(monkeypatch, call, name):
    seen, certified = [], []
    certify = hm._certify

    def counted(label, js, g, names, error):
        seen.append((label, js.shape, list(names), error))
        certified.extend(certify(label, js, g, names, error))
        return certified

    monkeypatch.setattr(hm, "_certify", counted)
    out = call()
    assert seen == [("h9hat", (1, 6, 6), [name], InvalidParams)]
    if name != "gprime":  # a Sigma family returns the certified J, not a second wrapper
        assert out[2] is certified[0][0]


# ---------------------------------------------------------------------------
# search oracle


def test_search_finds_h5():
    form = mo.H5Form(0.7, 0.4, 1.2, 0.3, 1.9)
    res = hm.hermitian_search("h5", mo.realize(form), budget=16)
    assert res.found and res.residual <= 1e-8


def test_search_finds_h9_diagonal_equal():
    g = mo.Metric("h9hat", np.diag([1, 1, 2.25, 1, 2.25, 1.0]))
    res = hm.hermitian_search("h9hat", g, budget=64)
    assert res.found and res.residual <= 1e-8


def test_search_reports_none_for_unequal_diagonal():
    g = mo.Metric("h9hat", np.diag([1, 1, 1.0, 1, 4.0, 1.0]))
    res = hm.hermitian_search("h9hat", g, budget=64)
    assert not res.found
    assert res.J is None
    assert res.residual >= hm.NON_HERMITIAN_RESIDUAL_FLOOR
    assert res.starts_used == 64


def test_search_h9_reads_the_metric_in_the_hat_basis():
    # g_{A,A} with A = B = 1.3 is Hermitian; its matrix is in the hat basis,
    # so "h9" must search with h9hat's bracket, as "h9hat" does
    metric = mo.realize(mo.H9Form(1.3, 1.3, 1.0, 0.0, 0.0, 0.0))
    res = hm.hermitian_search("h9", metric, budget=4)
    hat = hm.hermitian_search("h9hat", metric, budget=4)
    assert res.found and res.residual <= 1e-8
    assert res.starts_used == hat.starts_used == 1
    np.testing.assert_array_equal(res.J.matrix, hat.J.matrix)
    assert al.nijenhuis_residual(al.builtin("h9hat"), res.J.matrix, tol=1e-7) <= 1e-7


def test_search_deterministic():
    g = mo.Metric("h9hat", np.diag([1, 1, 1.0, 1, 4.0, 1.0]))
    r1 = hm.hermitian_search("h9hat", g, budget=8)
    r2 = hm.hermitian_search("h9hat", g, budget=8)
    assert r1.residual == r2.residual


@pytest.mark.parametrize(
    "g, needle",
    [
        pytest.param(np.diag([1.0, 1, 1, 1, np.nan, 2]), "non-finite", id="nan"),
        pytest.param(np.eye(4), "6x6", id="4x4"),
    ],
)
def test_search_checks_raw_arrays_like_metric(g, needle):
    # a bad raw array is an input error, not a "none found" verdict
    with pytest.raises(InvalidForm, match=needle):
        hm.hermitian_search("h6", g, budget=2)


def test_search_rejects_empty_budget():
    g = mo.Metric("h9hat", np.eye(6))
    for budget in (0, -3):
        with pytest.raises(InvalidParams, match="budget"):
            hm.hermitian_search("h9hat", g, budget=budget)


def _random_spd(seed):
    a = np.random.default_rng(seed).normal(size=(6, 6))
    return a @ a.T + 6.0 * np.eye(6)


@pytest.mark.parametrize("label", ["h2", "h4", "h5", "h6", "h9hat"])
def test_search_step_jacobian_matches_central_differences(label):
    # the 18 x 6 Jacobian in the step coordinates theta, as the queue reads
    # it off the frame map, against (r(Q C(h e_a)) - r(Q C(-h e_a))) / 2h
    # through the Cayley step
    frames = hm._Frames(hm.cholesky_lower(_random_spd(35)), al.builtin(label).bracket_tensor)
    q = hm._random_frames([np.random.default_rng(36)])

    def residual_at(theta):
        return frames.rows(frames.retract(q, theta[None]))[0, 0]

    exact = frames.rows(q)[0, 1:].T
    assert exact.shape == (18, 6)
    h = 1e-6
    fd = np.stack([(residual_at(h * e) - residual_at(-h * e)) / (2.0 * h) for e in np.eye(6)],
                  axis=1)
    assert max_norm(exact - fd) <= 1e-6 * max_norm(fd)


@pytest.mark.parametrize("label", ["h2", "h4", "h5", "h6", "h9hat"])
def test_search_jacobian_matches_central_differences(label):
    # Psi's derivative blocks on their own, away from _Frames: at a frame A
    # that is neither orthogonal nor g-orthonormal, the 18 x 6 Jacobian of
    # the frame residual along A (I + t E_a), against central differences
    # of the residual of that frame's bracket
    psi, e = hm._frame_map()[0], hm._tangent_basis()
    b = al.builtin(label).bracket_tensor
    a = np.random.default_rng(42).normal(size=(6, 6)) + 3.0 * np.eye(6)

    def coords_at(frame):
        fb = hm._frame_bracket(frame[None], np.linalg.inv(frame)[None], b)[0]
        return fb.reshape(-1)[hm._kernel_layout().nij_t2]

    exact = (coords_at(a) @ psi).reshape(7, 18)[1:].T
    assert exact.shape == (18, 6)
    h = 1e-6
    fd = np.stack([(coords_at(a + h * a @ ea) - coords_at(a - h * a @ ea)) @ psi[:, :18] / (2.0 * h)
                   for ea in e], axis=1)
    assert max_norm(exact - fd) <= 1e-6 * max_norm(fd)


def _nijenhuis_rows(b, j):
    """The 90 coordinates N[k, i, j], i < j (k-major), of nijenhuis_tensor
    of J for the bracket b."""
    iu, ju = np.triu_indices(6, 1)
    return al.nijenhuis_tensor(al.LieAlgebra(c=-b), j)[..., iu, ju].reshape(*j.shape[:-2], -1)


def _unit_brackets():
    """The 90 unit brackets b[k, i, j] = -b[k, j, i] = 1 (i < j, k-major)."""
    iu, ju = np.triu_indices(6, 1)
    units = np.zeros((90, 6, 6, 6))
    for c, (k, i, j) in enumerate((k, i, j) for k in range(6) for i, j in zip(iu, ju)):
        units[c, k, i, j], units[c, k, j, i] = 1.0, -1.0
    return units


# sha256 of the bytes of Psi, the frame map (hm._frame_map()[0])
PSI_SHA256 = "5b68d98f643290d61a471147978bee80562c395e79e697b217a5528fc3370989"


def test_search_frame_map_is_pinned():
    # Psi's entries are exact, so its bytes are pinned; its residual block
    # Psi_r has Psi_r^T Psi_r = 16 I, and N_{J0} on the unit brackets,
    # one nijenhuis_tensor call each, is Psi_r S bit for bit
    psi, s = hm._frame_map()
    assert hashlib.sha256(psi.tobytes()).hexdigest() == PSI_SHA256
    psi_r = psi[:, :18]
    assert np.array_equal(psi_r.T @ psi_r, 16.0 * np.eye(18))
    assert s.shape == (18, 90) and set(np.unique(s)) <= {-0.5, 0.0, 0.5}
    n = np.stack([_nijenhuis_rows(u, al._PAIRING_J) for u in _unit_brackets()])
    assert np.array_equal(psi_r @ s, n)


@pytest.mark.parametrize("label", ["h2", "h4", "h5", "h6", "h9hat"])
def test_search_frame_residual_is_the_frame_nijenhuis_norm(label):
    # the residual block of the frame map has rank 18, and ||r|| is the norm
    # of the 90 Nijenhuis rows of J0 for the frame bracket
    psi = hm._frame_map()[0]
    assert psi.shape == (90, 126) and np.linalg.matrix_rank(psi[:, :18]) == 18
    frames = hm._Frames(hm.cholesky_lower(_random_spd(37)), al.builtin(label).bracket_tensor)
    qs = hm._random_frames([np.random.default_rng(38 + k) for k in range(4)])
    brackets = hm._frame_bracket(qs, qs.transpose(0, 2, 1), frames.b_unit)
    for r, b in zip(frames.rows(qs)[:, 0], brackets):
        nij = _nijenhuis_rows(b, al._PAIRING_J)
        assert math.isclose(np.linalg.norm(r), np.linalg.norm(nij), rel_tol=1e-14)
    coords = np.random.default_rng(39).normal(size=(1, 90))  # a bracket of no Lie algebra
    nij = _nijenhuis_rows(hm._tensors(coords)[0], al._PAIRING_J)
    assert math.isclose(np.linalg.norm(coords @ psi[:, :18]), np.linalg.norm(nij), rel_tol=1e-14)


@pytest.mark.parametrize("label, g", [
    *((label, None) for label in ("h2", "h4", "h5", "h6", "h9hat")),
    ("h9hat", np.diag([1, 1, 1e-4, 1, 1e-4, 1.0])),
], ids=["h2", "h4", "h5", "h6", "h9hat", "gAAsmall"])
def test_search_residual_blocks_match_definitions(label, g):
    # the squared 90-row norm that _Frames.standard reads off the frame
    # residual is that of nijenhuis_tensor of the frame's J in the basis given
    g = _random_spd(32) if g is None else g
    b = al.builtin(label).bracket_tensor
    frames = hm._Frames(hm.cholesky_lower(g), b)
    qs = hm._random_frames([np.random.default_rng(33 + k) for k in range(8)])
    got = frames.standard(qs, frames.rows(qs)[:, 0])
    want = (_nijenhuis_rows(b, frames.structures(qs)) ** 2).sum(axis=1)
    np.testing.assert_allclose(np.sqrt(got), np.sqrt(want), rtol=1e-12)


@pytest.mark.parametrize("label", ["h2", "h4", "h5", "h6", "h9hat"])
def test_search_kernel_stack_matches_single_calls(label):
    # the frame rows and the 90-row norms of a stack of 1 .. 32 frames, and
    # the frame bracket of a stack of tensors, give each frame its own bits
    b = al.builtin(label).bracket_tensor
    frames = hm._Frames(hm.cholesky_lower(_random_spd(40)), b)
    qs = hm._random_frames([np.random.default_rng(41 + k) for k in range(32)])
    alone = [(frames.rows(q[None])[0], frames.standard(q[None], frames.rows(q[None])[:, 0])[0])
             for q in qs]
    for n in (1, 2, 7, 32):
        rows = frames.rows(qs[:n])
        assert rows.shape == (n, 7, 18)
        standard = frames.standard(qs[:n], rows[:, 0])
        for i in range(n):
            assert np.array_equal(rows[i], alone[i][0]) and standard[i] == alone[i][1]
    tensors = np.stack([b, 2.0 * b, hm._tensors(np.arange(90.0)[None])[0]])
    a, a_inv = qs[:3], qs[:3].transpose(0, 2, 1)
    stacked = hm._frame_bracket(a, a_inv, tensors)
    for i, t in enumerate(tensors):
        assert np.array_equal(stacked[i], hm._frame_bracket(a[i][None], a_inv[i][None], t)[0])


def _serial_start(g_chol, rng):
    """One start made alone, L^{-T} recomputed: the reference generator of
    the frame Q and its J."""
    z = rng.normal(size=(6, 6))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.sign(np.diag(r)))
    k_orth = q @ al._PAIRING_J @ q.T
    l_inv_t = np.linalg.inv(g_chol).T
    return q, l_inv_t @ k_orth @ g_chol.T


def _serial_search(alg, metric, budget=64, max_iter=60, seed=20210607):
    """The oracle's serial LM loop, one start after another, each frame and
    step passed to the stacked helpers as a stack of one: the reference
    that the queued search must reproduce bit for bit."""
    tol2 = hm.SEARCH_TOL ** 2
    alg = al.get_algebra(alg)
    g_chol = hm.cholesky_lower(metric.matrix)
    frames = hm._Frames(g_chol, alg.bracket_tensor)

    def standard(q, rows):  # the squared norm of J's 90 rows in the basis given
        return frames.standard(q[None], rows[None, 0])[0]

    best_cost = np.inf
    found_j = None
    starts = 0
    for k in range(budget):
        q, _j = _serial_start(g_chol, np.random.default_rng(seed + k))
        lam = 1e-3
        rows = frames.rows(q[None])[0]
        cost = float(np.sum(rows[0] ** 2))
        stall = 0
        for it in range(max_iter):
            jvt = rows[1:]  # [theta_a, row]
            grad = jvt @ rows[0]
            jtj = jvt @ jvt.T
            diag = np.clip(np.diag(jtj), 1e-12, None)
            improved = False
            for _damp in range(25):
                try:
                    step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                q_new = frames.retract(q[None], step[None])[0]
                rows_new = frames.rows(q_new[None])[0]
                c_new = float(np.sum(rows_new[0] ** 2))
                if np.isfinite(c_new) and c_new < cost:
                    rel = (cost - c_new) / max(cost, 1e-300)
                    q, rows, cost = q_new, rows_new, c_new
                    lam = max(lam / 3.0, 1e-14)
                    improved = True
                    stall = stall + 1 if rel < 1e-8 else 0
                    break
                lam *= 10.0
                if lam > 1e10:
                    break
            if not improved or stall >= 2:
                break
            if cost <= tol2 and standard(q, rows) <= tol2:
                break  # the frame cost triggers the check in the basis given
            if it >= 30 and cost > 1e-6:
                break  # plateaued far above the success threshold
        starts = k + 1
        final = standard(q, rows)
        best_cost = min(best_cost, final)
        if final <= tol2:
            j = frames.structures(q[None])[0]
            found_j = al.AlmostComplexStructure(j, alg.label, tol=10 * hm.SEARCH_TOL)
            break
    return hm.SearchResult(found_j, float(np.sqrt(best_cost)), starts)


def _search_metrics():
    sigma1, _phi, _j = hm.h9_sigma_family("sigma1", A=0.7, E=1.3)  # found at start 2
    # at SIGMA3_SEED found at start 2, while start 3, which runs beside it,
    # succeeds first; at the default seed found at start 1
    sigma3, _phi, _j = hm.h9_sigma_family("sigma3", a11=1.3145980233970016,
                                          a44=0.8530944136406282, A=0.6507846493554015)
    a = np.random.default_rng(1).normal(size=(6, 6))  # some starts stop on a plateau
    return {
        "gAB": ("h9hat", mo.Metric("h9hat", np.diag([1, 1, 1.21, 1, 4.84, 1.0]))),
        "gAA": ("h9hat", mo.Metric("h9hat", np.diag([1, 1, 1.69, 1, 1.69, 1.0]))),
        # ill-conditioned: the frame cost of start 1 meets SEARCH_TOL^2 before
        # the rows in the basis given do
        "gAAsmall": ("h9hat", mo.Metric("h9hat", np.diag([1, 1, 1e-4, 1, 1e-4, 1.0]))),
        "h5": ("h5", mo.realize(mo.H5Form(0.7, 0.4, 1.2, 0.3, 1.9))),
        "sigma1": ("h9hat", sigma1),
        "sigma3": ("h9hat", sigma3),
        "random": ("h9hat", mo.Metric("h9hat", a @ a.T + 3.0 * np.eye(6))),
    }


SIGMA3_SEED = 20210610  # the default seed + 3


def _assert_same_verdict(got, want):
    assert (got.found, got.starts_used, got.residual) == (want.found, want.starts_used,
                                                          want.residual)
    assert (got.J is None) == (want.J is None)
    if want.J is not None:
        assert np.array_equal(got.J.matrix, want.J.matrix)


@pytest.mark.parametrize("budget", [1, 8, 64])
@pytest.mark.parametrize("name", ["gAB", "gAA", "h5", "sigma1", "sigma3", "random", "gAAsmall"])
def test_search_queue_matches_serial_reference(name, budget):
    label, metric = _search_metrics()[name]
    seed = SIGMA3_SEED if name == "sigma3" else 20210607
    _assert_same_verdict(hm.hermitian_search(label, metric, budget=budget, seed=seed),
                         _serial_search(label, metric, budget=budget, seed=seed))


def test_search_sigma1_needs_several_starts():
    label, metric = _search_metrics()["sigma1"]
    res = hm.hermitian_search(label, metric, budget=64)
    assert res.found and res.starts_used == 2


def test_search_sigma3_takes_the_first_success_in_start_order(monkeypatch):
    # at SIGMA3_SEED start 3 stops with a success in an earlier pass than
    # start 2; the verdict is still start 2's
    successes = []
    retire = hm._StartQueue._retire

    def logged(queue, done):
        owners = list(queue.owner)
        retire(queue, done)
        successes.extend(owners[s] for s, stopped in enumerate(done)
                         if stopped and queue.final[owners[s]] <= queue.tol2)

    monkeypatch.setattr(hm._StartQueue, "_retire", logged)
    label, metric = _search_metrics()["sigma3"]
    res = hm.hermitian_search(label, metric, budget=64, seed=SIGMA3_SEED)
    assert successes == [2, 1]
    assert res.found and res.starts_used == 2


def test_search_checks_a_frame_success_in_the_basis_given(monkeypatch):
    # a frame cost within SEARCH_TOL^2 only triggers the check of the 90 rows
    # in the basis given: the first check fails, the start goes on and the
    # next one succeeds
    checks, retiring = [], []
    standard, retire = hm._Frames.standard, hm._StartQueue._retire

    def checked(frames, q, r):
        costs = standard(frames, q, r)
        if not retiring:
            checks.extend(costs)
        return costs

    def retired(queue, done):
        retiring.append(True)
        retire(queue, done)
        retiring.pop()

    monkeypatch.setattr(hm._Frames, "standard", checked)
    monkeypatch.setattr(hm._StartQueue, "_retire", retired)
    label, metric = _search_metrics()["gAAsmall"]
    res = hm.hermitian_search(label, metric, budget=64)
    tol2 = hm.SEARCH_TOL ** 2
    assert len(checks) == 2 and checks[0] > tol2 >= checks[1]
    assert res.found and res.starts_used == 2 and res.residual == math.sqrt(checks[1])


def test_search_starts_and_found_structures_are_compatible():
    # J^2 = -I and J^T g J = g hold by construction on every start and on
    # every J found, to 1e-12 of the certificate's scales (_measure)
    for name, (label, metric) in _search_metrics().items():
        g = metric.matrix
        g_chol = hm.cholesky_lower(g)
        js = [hm._Frames(g_chol, al.builtin(label).bracket_tensor).structures(
            hm._random_frames([np.random.default_rng(20210607 + k) for k in range(64)]))]
        res = hm.hermitian_search(label, metric, budget=64)
        assert res.found == (name not in ("gAB", "random"))
        if res.found:
            js.append(res.J.matrix[None])
        for _acs, residuals, scales in hm._measure(label, np.concatenate(js), g):
            for key in ("involution", "compatibility"):
                assert residuals[key] <= 1e-12 * scales[key], (name, key)


def _scaled_search_metrics():
    """One random form per built-in, a g_AA and a g_AB metric."""
    rng = np.random.default_rng(42)
    out = [(label, mo.realize(random_canonical_form(label, rng)).matrix)
           for label in ("h2", "h4", "h5", "h6", "h9hat")]
    return out + [("h9hat", np.diag([1, 1, 1.69, 1, 1.69, 1.0])),
                  ("h9hat", np.diag([1, 1, 1.21, 1, 4.84, 1.0]))]


@pytest.mark.parametrize("k", [-8, -3, 3, 8])
def test_search_is_bitwise_invariant_under_scaling_by_powers_of_four(k):
    # L, L^{-T} and ||b_L|| scale by powers of two, so g and 4^k g run the
    # same arithmetic on the normalized frame bracket and give the same J
    for label, g in _scaled_search_metrics():
        want = hm.hermitian_search(label, g, budget=16)
        got = hm.hermitian_search(label, 4.0 ** k * g, budget=16)
        assert (got.found, got.starts_used, got.residual) == (
            want.found, want.starts_used, want.residual), label
        assert (got.J is None) == (want.J is None)
        if want.J is not None:
            assert got.J.matrix.tobytes() == want.J.matrix.tobytes()


def _nijenhuis_rounding(b, j):
    """A bound on how far two evaluations of ||N_J|| (the 2-norm of its 90
    coordinates) may differ by rounding alone.

    Each coordinate of N_J sums at most 3 * 36 + 1 = 109 products of one
    entry of b and at most two of J, each at most max|b| m^2 with
    m = max(1, max|J|).  One route evaluates these sums at J's entries,
    which are themselves rounded; the other evaluates them in the frame
    (``_Frames.standard``).  Either is off by at most ~109 u max|b| m^2
    per coordinate to first order (u = 2^-53, one rounding per product), so
    the two by twice that, and their 2-norms by sqrt(90) times more."""
    u = 2.0 ** -53
    return 2.0 * math.sqrt(90.0) * 109.0 * u * max_norm(b) * max(1.0, max_norm(j)) ** 2


def test_search_residual_is_the_least_final_residual_in_the_basis_given(monkeypatch):
    # the residual is the square root of the least final squared 90-row norm
    # of the counted starts, each recomputed from its slot's frame alone; a
    # found J's own nijenhuis_tensor norm matches it within the rounding
    # bound of N_J
    finals = {}
    retire = hm._StartQueue._retire

    def logged(queue, done):
        for s, stopped in enumerate(done):
            if stopped:
                q, r = queue.qs[s][None], queue.ps[s, 0][None]
                finals[queue.owner[s]] = queue.frames.standard(q, r)[0]
        retire(queue, done)

    monkeypatch.setattr(hm._StartQueue, "_retire", logged)
    metrics = _search_metrics()
    for name in ("gAA", "sigma1", "h5", "gAB", "random", "gAAsmall"):
        label, metric = metrics[name]
        finals.clear()
        res = hm.hermitian_search(label, metric, budget=64)
        counted = [finals[k] for k in range(res.starts_used)]
        assert res.residual == math.sqrt(min(counted)), name
        if res.found:
            assert counted[-1] == min(counted) <= hm.SEARCH_TOL ** 2, name
            b = al.builtin(label).bracket_tensor
            own = np.linalg.norm(_nijenhuis_rows(b, res.J.matrix))
            assert abs(own - res.residual) <= _nijenhuis_rounding(b, res.J.matrix), name
        else:
            assert res.starts_used == 64


@pytest.mark.parametrize("budget", [3, 21])
def test_search_budget_ending_mid_batch(budget):
    # 3 stops while the queue is still widening, 21 cuts its fourth batch of
    # starts to 10
    label, metric = _search_metrics()["gAB"]
    res = hm.hermitian_search(label, metric, budget=budget)
    assert res.starts_used == budget and not res.found
    _assert_same_verdict(res, _serial_search(label, metric, budget=budget))


def test_search_queue_recovers_from_singular_systems(monkeypatch):
    # A stand-in solve calls a system singular by a bit pattern of its corner
    # entry, so both searches meet the same failures: the queue must re-solve
    # the rest of its stack and raise the damping of the failed start only.
    solve = np.linalg.solve
    calls = {"stacked_failures": 0}

    def singular(a):
        return int(np.asarray(a[0, 0]).view(np.int64)) % 4 == 0

    def flaky_solve(a, b):
        if any(singular(m) for m in a.reshape(-1, 6, 6)):
            calls["stacked_failures"] += a.ndim == 3
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", flaky_solve)
    for name in ("gAB", "sigma1"):
        label, metric = _search_metrics()[name]
        _assert_same_verdict(hm.hermitian_search(label, metric, budget=12),
                             _serial_search(label, metric, budget=12))
    assert calls["stacked_failures"] > 0


# start 0 of the default seed on g_AB = diag(1, 1, 1.1^2, 1, 2.2^2, 1)
START_ZERO = np.array([
    [8.506669165764232e-18, 0.3738230375833535, 0.6523053285609162, -0.08982095966418709, 1.3441315334285255, -0.35672232295695694],
    [-0.3738230375833535, 1.0971240333917698e-17, 0.5599547198937731, -0.46575339419507233, -0.4959674015792652, 0.577386697250846],
    [-0.5390953128602611, -0.46277249577997775, 3.688714455226983e-18, -0.19676024160430458, -0.12035204461721126, -0.5291094973077695],
    [0.0898209596641871, 0.4657533941950723, 0.23807989234120858, 7.161000264023136e-20, -1.6314213685609236, -0.42220521950298895],
    [-0.27771312674143084, 0.10247260363207956, 0.030088011154302777, 0.3370705306944057, -2.794815897741559e-18, 0.06798264544500822],
    [0.3567223229569569, -0.577386697250846, 0.6402224917424011, 0.42220521950298895, -0.32903600395383986, 8.277799808111185e-18],
])


def test_search_start_zero_is_pinned():
    g = np.diag([1, 1, 1.21, 1, 4.84, 1.0])
    g_chol = hm.cholesky_lower(g)
    rngs = [np.random.default_rng(20210607 + k) for k in range(3)]
    frames = hm._random_frames(rngs)
    got = hm._Frames(g_chol, al.builtin("h9hat").bracket_tensor).structures(frames)
    for k in range(3):  # made together, each start is the one made alone
        q, j = _serial_start(g_chol, np.random.default_rng(20210607 + k))
        assert np.array_equal(frames[k], q) and np.array_equal(got[k], j)
    np.testing.assert_allclose(got[0], START_ZERO, rtol=1e-12, atol=1e-15)


def test_search_rejects_metric_of_another_algebra():
    g = mo.Metric("h6", np.diag([1, 1, 1, 1, 2, 3.0]))
    with pytest.raises(AlgebraMismatch):
        hm.hermitian_search("h5", g, budget=1)
    # h9 is a name for h9hat; on g = I starts 0 and 1 stop on a plateau
    # (residuals 0.20 and 2.0, near the critical point of cost 4) and start
    # 2 succeeds
    assert hm.hermitian_search("h9", mo.realize(mo.H9Form(1, 1, 1, 0, 0, 0)), budget=3).found


def test_search_reads_a_salamon_tag_as_the_algebra_it_parses_to():
    s = "(0,0,0,0,12,13)"  # h6's Salamon string; its parsed algebra is "custom"
    g = np.diag([1, 1, 1, 1, 2, 3.0])
    untagged = hm.hermitian_search(s, g, budget=2)
    for alg in (s, "h6"):  # equal structure constants
        tagged = hm.hermitian_search(alg, mo.Metric(s, g), budget=2)
        assert (tagged.found, tagged.starts_used, tagged.residual) == (
            untagged.found, untagged.starts_used, untagged.residual)
        assert np.array_equal(tagged.J.matrix, untagged.J.matrix)
    # another custom algebra, another built-in, and h9's Salamon string
    # (in the e-basis, so not h9hat) still mismatch
    for alg, tag in (("(0,0,0,0,12,34)", s), ("h5", s), ("h9", al.PAPER_H9_SALAMON)):
        with pytest.raises(AlgebraMismatch):
            hm.hermitian_search(alg, mo.Metric(tag, g), budget=1)


def test_negation_closure_h4_h6():
    rng = np.random.default_rng(11)
    h4, h6 = al.builtin("h4"), al.builtin("h6")
    form4 = random_canonical_form("h4", rng)
    g4 = mo.realize(form4).matrix
    for sset in hm.h4_hermitian_solutions(form4).values():
        for sol in sset.solutions:
            neg = -sol.J.matrix
            assert al.nijenhuis_residual(h4, neg) <= 1e-9
            assert max_norm(neg.T @ g4 @ neg - g4) <= 1e-11 * max(1.0, max_norm(g4))
    form6 = random_canonical_form("h6", rng)
    g6 = mo.realize(form6).matrix
    for sol in _structures(hm.h6_hermitian_solutions(form6)):
        neg = -sol.J.matrix
        assert al.nijenhuis_residual(h6, neg) <= 1e-12
        assert max_norm(neg.T @ g6 @ neg - g6) <= 1e-11 * max(1.0, max_norm(g6))


def test_h5_j2_at_r_one_with_nonzero_f():
    # Table rows stop at s < r < 1, but the integrability equations reduce
    # to the generic form with beta = 1 on the s < r = 1 boundary
    form = mo.H5Form(1.0, 0.4, 1.3, 0.5, 2.0)  # paper-valid, not canonical
    sols = hm.h5_hermitian_solutions(form)
    assert sols["J2"].kind == "finite"
    for sol in sols["J2"].solutions:
        assert sol.residuals["nijenhuis"] <= 1e-9
        assert sol.triple.a < 0


def test_canonicalize_witness_residual_meets_a_stricter_bound():
    # the certificate is WITNESS_RTOL; a stricter bound is read off the residual
    g = mo.realize(mo.H5Form(0.7, 0.3, 1.0, 0.2, 2.0))
    form, wit = mo.canonicalize("h5", g)
    assert wit.residual <= 1e-10
