"""The isometry case tables' constants, the group closure, the built-in
derivation systems and bases, the isotropy dimension under rescaling, the
stored J^2 + I residual and the per-form checks that every `tables` entry
pays once."""

import contextlib
import io
import itertools
import json
from dataclasses import fields

import numpy as np
import pytest

import nilmoduli.algebra as al
import nilmoduli.automorphisms as au
import nilmoduli.cli as cli
import nilmoduli.hermitian as hm
import nilmoduli.moduli as mo
from nilmoduli.errors import InvalidForm, NotSPD
from nilmoduli.linalg import EPS, cholesky_lower, max_norm, symmetrize

# the case rows of h5, h6, h4 and h2 (with their form class) and h9's sign flips
CASE_ROWS = [("h5", mo.H5Form, mo._cases_h5), ("h6", mo.H6Form, mo._cases_h6),
             ("h4", mo.H4Form, mo._cases_h4), ("h2", mo.H2Form, mo._cases_h2)]
TABLES = [(label, cases) for label, _form_class, cases in CASE_ROWS] + [("h9hat", mo._table_h9)]

# one form per row of the five case tables (the rows of `nilmoduli tables`)
CASE_FORMS = [
    ("h5", mo.H5Form(0.5, 0.3, 1.0, 0.1, 2.0)), ("h5", mo.H5Form(0.5, 0.3, 1.0, 0.0, 2.0)),
    ("h5", mo.H5Form(1.0, 0.3, 1.0, 0.1, 2.0)), ("h5", mo.H5Form(1.0, 0.3, 1.0, 0.0, 2.0)),
    ("h5", mo.H5Form(1.0, 0.3, 1.5, 0.0, 1.5)), ("h5", mo.H5Form(0.6, 0.6, 1.0, 0.1, 2.0)),
    ("h5", mo.H5Form(0.6, 0.6, 1.0, 0.0, 2.0)), ("h5", mo.H5Form(1.0, 1.0, 1.0, 0.1, 2.0)),
    ("h5", mo.H5Form(1.0, 1.0, 1.0, 0.0, 2.0)), ("h5", mo.H5Form(1.0, 1.0, 1.5, 0.0, 1.5)),
    ("h6", mo.H6Form(2.0, 2.0)), ("h6", mo.H6Form(2.0, 3.0)),
    ("h4", mo.H4Form(1.0, 1.2, 0.0, 0.7)), ("h4", mo.H4Form(1.0, 1.2, 0.3, 0.7)),
    ("h4", mo.H4Form(0.5, 1.2, 0.0, 0.7)), ("h4", mo.H4Form(0.5, 1.2, 0.3, 0.7)),
    ("h2", mo.H2Form(0.0, 0.0, 1.5, 0.0, 1.5)), ("h2", mo.H2Form(0.0, 0.0, 1.0, 0.0, 2.0)),
    ("h2", mo.H2Form(0.0, 0.0, 1.5, 0.4, 1.5)), ("h2", mo.H2Form(0.0, 0.0, 1.0, 0.4, 2.0)),
    ("h2", mo.H2Form(0.4, 0.4, 1.5, 0.2, 1.5)), ("h2", mo.H2Form(0.4, 0.4, 1.0, 0.2, 2.0)),
    ("h2", mo.H2Form(0.2, 0.6, 1.5, 0.3, 1.5)), ("h2", mo.H2Form(0.2, 0.6, 1.0, 0.3, 2.0)),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.7, 0.4)),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.7, 0.4)),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.4)),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.0)),
]


def _constants(table):
    """(Automorphisms, arrays) held by a case table: its rows' generators and
    isotropy bases, or h9's sign flips and their stack."""
    built = table()
    if isinstance(built, tuple):
        descs = [row.descriptor for row in built]
        return [g for d in descs for g in d.generators], [d.isotropy_basis for d in descs]
    auts, arrays = [], []
    for value in vars(built).values():
        for item in value if isinstance(value, tuple) else (value,):
            (auts if isinstance(item, au.Automorphism) else arrays).append(item)
    return auts, arrays


def _assert_read_only(a):
    assert not a.flags.writeable
    with pytest.raises(ValueError):
        a[...] = 0.0


@pytest.mark.parametrize("label, table", TABLES, ids=[t[0] for t in TABLES])
def test_case_table_tags_are_the_component_labels(label, table):
    auts, _arrays = _constants(table)
    assert auts
    for aut in auts:
        assert aut.algebra == label
        assert aut.component == au.component_label(label, aut.matrix)


@pytest.mark.parametrize("label, table", TABLES, ids=[t[0] for t in TABLES])
def test_case_table_constants_are_built_once_and_read_only(label, table):
    assert table() is table()
    auts, arrays = _constants(table)
    for a in [aut.matrix for aut in auts] + arrays:
        _assert_read_only(a)
    for a in arrays:
        assert a.ndim == 3 and a.shape[1:] == (6, 6)
    # a constant that several rows name is one object
    first = {}
    for item, key in [(a, a.matrix.tobytes()) for a in auts] + [(a, (a.shape, a.tobytes()))
                                                                 for a in arrays]:
        assert first.setdefault(key, item) is item


def _strata_subsets(form_class):
    names = [name for name, *_test in form_class.strata]
    return [set(sub) for k in range(len(names) + 1) for sub in itertools.combinations(names, k)]


def _reporting(example, on):
    """The example form, reporting ``on`` as the strata it lies on."""
    return type("Reporting", (type(example),), {"on_strata": lambda self: set(on)})(
        **example.params())


@pytest.mark.parametrize("label, form_class, cases", CASE_ROWS, ids=[t[0] for t in CASE_ROWS])
def test_every_strata_subset_matches_exactly_one_row(label, form_class, cases):
    rows = cases()
    names = {name for name, *_test in form_class.strata}
    for row in rows:
        assert row.on | row.off <= names and not row.on & row.off
    subsets = _strata_subsets(form_class)
    assert len(subsets) == {"h5": 16, "h6": 2, "h4": 4, "h2": 16}[label]
    for on in subsets:
        matching = [row for row in rows if row.on <= on and not row.off & on]
        assert len(matching) == 1, on
        form = _reporting(matching[0].example, on)
        assert mo.isometry_group(label, form) is matching[0].descriptor


@pytest.mark.parametrize("label, form_class, cases", CASE_ROWS, ids=[t[0] for t in CASE_ROWS])
def test_each_row_example_lies_in_its_case(label, form_class, cases):
    for row in cases():
        assert type(row.example) is form_class
        on = row.example.on_strata()
        assert row.on <= on and not row.off & on
        assert mo.isometry_group(label, row.example) is row.descriptor
        # the one reader of the cells inverts their one writer
        assert mo._read_cells(form_class, mo.realize(row.example).matrix) == row.example


def test_h9_realize_is_the_written_out_gram_matrix():
    # X^T X of the slice factor, summed term by term: each entry is the
    # written-out one bit for bit (a BLAS X^T X is not, in the last bit)
    rng = np.random.default_rng(43)
    for _ in range(1000):
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        A, B, C = (float(v) for v in scale * rng.uniform(0.1, 2.0, 3))
        D, E, F = (float(v) for v in scale * rng.normal(size=3))
        ref = np.eye(6)
        ref[2, 2] = A * A + D * D
        ref[2, 3] = ref[3, 2] = D * E
        ref[2, 4] = ref[4, 2] = B * D
        ref[3, 3] = E * E + 1.0
        ref[3, 4] = ref[4, 3] = B * E
        ref[4, 4] = B * B + F * F
        ref[4, 5] = ref[5, 4] = C * F
        ref[5, 5] = C * C
        assert mo.realize(mo.H9Form(A, B, C, D, E, F)).matrix.tobytes() == ref.tobytes()


@pytest.mark.parametrize("label, form", CASE_FORMS)
def test_descriptors_share_the_read_only_constants(label, form):
    desc = mo.isometry_group(label, form)
    _assert_read_only(desc.isotropy_basis)
    for gen in desc.generators:
        _assert_read_only(gen.matrix)
        assert gen.component == au.component_label(label, gen.matrix)
    again = mo.isometry_group(label, form)
    assert all(a is b for a, b in zip(desc.generators, again.generators))
    assert again.isotropy_basis is desc.isotropy_basis


@pytest.mark.parametrize("form", [f for label, f in CASE_FORMS if label == "h9hat"])
def test_h9_generators_are_the_component_representatives(form):
    reps = au.component_representatives("h9hat")
    desc = mo.isometry_group("h9hat", form)
    assert len(desc.generators) == 2 ** len(form.on_strata()) - 1  # every flip but 1
    for gen in desc.generators:
        assert any(gen is rep for rep in reps)


def _pairwise_group(gen_matrices):
    # the closure with one max_norm per (product, element) pair: the
    # reference for _generated_group's products, their order and the cap
    elems = [np.eye(6)]
    frontier = [np.eye(6)]
    while frontier:
        new = []
        for e in frontier:
            for gmat in gen_matrices:
                prod = e @ gmat
                if not any(max_norm(prod - x) <= mo.GROUP_MATCH_TOL for x in elems):
                    elems.append(prod)
                    new.append(prod)
                    if len(elems) > mo.GROUP_ORDER_CAP:
                        return None
        frontier = new
    return elems


def _assert_same_group(got, expected):
    if expected is None:
        assert got is None
        return
    assert got is not None and len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("label, form", CASE_FORMS)
def test_generated_group_matches_the_pairwise_loop(label, form):
    desc = mo.isometry_group(label, form)
    gens = [g.matrix for g in desc.generators]
    group = mo._generated_group(gens)
    _assert_same_group(group, _pairwise_group(gens))
    assert len(group) == desc.component_count


def test_generated_group_gives_up_beyond_the_cap_like_the_pairwise_loop():
    theta = 2.0 * np.pi / (2 * mo.GROUP_ORDER_CAP + 3)  # order above the cap
    rot = np.eye(6)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    _assert_same_group(mo._generated_group([rot]), _pairwise_group([rot]))
    assert mo._generated_group([rot]) is None


def test_generated_group_of_a_sampled_set_matches_the_pairwise_loop():
    # products that are not exact: h2's factor swap with a rotation of order 12
    theta = 2.0 * np.pi / 12
    rot = np.eye(6)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    gens = [rot, au.component_representatives("h2")[4].matrix]
    expected = _pairwise_group(gens)
    assert expected is not None and len(expected) > 8
    _assert_same_group(mo._generated_group(gens), expected)


def _other_objects(alg):
    """A copy of a built-in that carries its label, and one that does not."""
    return (al.LieAlgebra(c=alg.c.copy(), label=alg.label),
            al.parse_salamon(al.render_salamon(alg)))


@pytest.mark.parametrize("label", ["h2", "h4", "h5", "h6", "h9", "h9hat"])
def test_builtin_derivation_system_is_built_once_and_read_only(label):
    alg = al.builtin(label)
    system = au._derivation_system(alg)
    assert au._derivation_system(alg) is system
    _assert_read_only(system)
    assert system.tobytes() == au._build_derivation_system(alg).tobytes()
    # any other algebra object, though it has the built-in's label or
    # constants, keeps its own read-only system with the same bytes
    for other in _other_objects(alg):
        own = au._derivation_system(other)
        assert own is not system and au._derivation_system(other) is own
        _assert_read_only(own)
        assert own.tobytes() == system.tobytes()


def test_generated_group_compares_in_blocks_like_the_pairwise_loop(monkeypatch):
    # _MATCH_BLOCK 1 and 30 put one product, or a few, in each block, so each
    # level's comparisons span many blocks
    theta = 2.0 * np.pi / 12
    rot = np.eye(6)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    gens = [rot, np.diag([1.0, -1.0, 1.0, 1.0, 1.0, 1.0])]  # the dihedral group of order 24
    expected = _pairwise_group(gens)
    assert expected is not None and len(expected) == 24
    for block in (1, 30):
        monkeypatch.setattr(mo, "_MATCH_BLOCK", block)
        _assert_same_group(mo._generated_group(gens), expected)


@pytest.mark.parametrize("label, form", CASE_FORMS)
def test_stacked_defects_have_the_bits_of_the_single_calls(label, form):
    desc = mo.isometry_group(label, form)
    alg = al.get_algebra(label)
    gens = np.array([g.matrix for g in desc.generators]).reshape(-1, 6, 6)
    stacked = au._bracket_defect(alg, gens)
    assert stacked.shape == (len(gens),)
    for m, defect in zip(gens, stacked):
        single = au._bracket_defect(alg, m)
        assert type(single) is float and single == defect
    g = mo.realize(form).matrix
    metric = gens.swapaxes(-1, -2) @ g @ gens - g
    for m, defect in zip(gens, metric):
        assert (m.T @ g @ m - g).tobytes() == defect.tobytes()
    basis = desc.isotropy_basis
    skew = basis.swapaxes(-1, -2) @ g + g @ basis
    for d, defect in zip(basis, skew):
        assert (d.T @ g + g @ d).tobytes() == defect.tobytes()
    system = au._derivation_system(alg)
    der = basis.reshape(-1, 36) @ system.T
    for d, defect in zip(basis, der):
        assert max_norm(system @ d.reshape(-1)) == max_norm(defect)


DER_DIMS = {"h2": 16, "h4": 17, "h5": 16, "h6": 19, "h9": 15, "h9hat": 15}


@pytest.mark.parametrize("label", list(DER_DIMS))
def test_builtin_derivation_basis_is_built_once_and_read_only(label):
    alg = al.builtin(label)
    basis = au.derivation_algebra(alg)
    assert au.derivation_algebra(alg) is basis and au.derivation_algebra(label) is basis
    _assert_read_only(basis.matrices)
    assert basis.dimension == len(basis.matrices) == DER_DIMS[label]
    # any other algebra object, though it has the built-in's label or
    # constants, keeps its own read-only basis with the same bytes
    for other in _other_objects(alg):
        own = au.derivation_algebra(other)
        assert own is not basis and au.derivation_algebra(other) is own
        _assert_read_only(own.matrices)
        assert own.matrices.tobytes() == basis.matrices.tobytes()
    # a Salamon string is parsed anew on each call, so each parse builds its own
    salamon = al.render_salamon(alg)
    assert au.derivation_algebra(salamon) is not au.derivation_algebra(salamon)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["describe", label]) == 0
    assert json.loads(out.getvalue())["outputs"]["derivation_dimension"] == DER_DIMS[label]


def _scale_cases():
    cases = [(label, mo.realize(form).matrix) for label, form in CASE_FORMS]
    rng = np.random.default_rng(41)
    for label in ("h2", "h4", "h5", "h6", "h9hat"):
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            cases.append((label, a @ a.T + 0.1 * np.eye(6)))
    return cases


def test_isotropy_dimension_holds_under_rescaling():
    # 4**k * g is exact in binary and scales every row of the isotropy map
    # alike; a system that stacks the derivation rows (scale 1) over the
    # symmetry rows (scale 4**k) loses rank to one block at large |k|
    dims = set()
    for label, g in _scale_cases():
        dim = mo.isotropy_algebra_dimension(label, g)
        dims.add(dim)
        for k in range(-20, 21):
            assert mo.isotropy_algebra_dimension(label, 4.0 ** k * g) == dim, (label, k)
    assert dims == {0, 1, 2, 3, 4}


# (form, the exception isometry_group raises and its message): the snapped
# matrix of a valid h9 form can fail Metric's tests, and a form with a
# non-finite parameter is not valid
H9_DEGENERATE = [
    (mo.H9Form(1e-9, 1.0, 1.0, 0.0, 0.0, 0.0),
     NotSPD, "pivot 1.000e-18 at index 2 below threshold 1.332e-15"),
    (mo.H9Form(1.0, 1.0, 1e-9, 0.0, 0.0, 0.0),
     NotSPD, "pivot 1.000e-18 at index 5 below threshold 1.332e-15"),
    (mo.H9Form(np.inf, 1.0, 1.0, 0.0, 0.0, 0.0),
     InvalidForm, "h9hat parameter A must be finite, got inf"),
]


@pytest.mark.parametrize("form, exc_type, message", H9_DEGENERATE)
def test_h9_isometry_group_refuses_a_snapped_matrix_that_is_not_spd(form, exc_type, message):
    if exc_type is NotSPD:
        form.validate()
    with pytest.raises(exc_type) as info:
        mo.isometry_group("h9hat", form)
    assert type(info.value) is exc_type and str(info.value) == message


# diag(96, 1, 1, x, 1, 1): the pivot test threshold is 6 * eps * 96, exact
_THRESH = 6 * EPS * 96.0


def _pivot_case(x, entries=()):
    m = np.diag([96.0, 1.0, 1.0, x, 1.0, 1.0])
    for (i, j), v in entries:
        m[i, j] = v
    return m


# (matrix, cholesky_lower's message, Metric's exception and message); None: accepted
MESSAGE_CASES = {
    "pivot-half-threshold": (
        _pivot_case(0.5 * _THRESH),
        "pivot 6.395e-14 at index 3 below threshold 1.279e-13",
        (NotSPD, "pivot 6.395e-14 at index 3 below threshold 1.279e-13")),
    "pivot-at-threshold": (
        _pivot_case(_THRESH),
        "pivot 1.279e-13 at index 3 below threshold 1.279e-13",
        (NotSPD, "pivot 1.279e-13 at index 3 below threshold 1.279e-13")),
    "pivot-twice-threshold": (_pivot_case(2.0 * _THRESH), None, None),
    "asymmetric": (_pivot_case(1.0, [((5, 4), 0.5)]), "matrix is not symmetric", None),
    "nan-lower": (
        _pivot_case(1.0, [((5, 0), np.nan)]), "matrix has non-finite entries",
        (InvalidForm, "metric matrix has non-finite entries (NaN or inf)")),
    "inf-diagonal": (
        _pivot_case(1.0, [((2, 2), np.inf)]), "matrix has non-finite entries",
        (InvalidForm, "metric matrix has non-finite entries (NaN or inf)")),
    "lapack-fails": (
        _pivot_case(1.0, [((1, 2), 2.0), ((2, 1), 2.0)]),
        "pivot -3.000e+00 at index 2 below threshold 1.279e-13",
        (NotSPD, "pivot -3.000e+00 at index 2 below threshold 1.279e-13")),
}


@pytest.mark.parametrize("case", list(MESSAGE_CASES))
def test_cholesky_and_metric_give_the_exact_messages(case):
    m, chol_message, metric_outcome = MESSAGE_CASES[case]
    if chol_message is None:
        L = cholesky_lower(m)
        assert max_norm(L @ L.T - m) <= 8 * 6 * EPS * max_norm(m)
    else:
        with pytest.raises(NotSPD) as info:
            cholesky_lower(m)
        assert str(info.value) == chol_message
    if metric_outcome is None:
        mo.Metric("h6", m)
    else:
        exc_type, message = metric_outcome
        with pytest.raises(exc_type) as info:
            mo.Metric("h6", m)
        assert type(info.value) is exc_type and str(info.value) == message


def test_cholesky_factor_is_that_of_the_symmetrized_matrix():
    # the upper triangle is the source of truth, negative zeros included
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        for _ in range(20):
            x = rng.normal(size=(n, n))
            a = x @ x.T + n * np.eye(n)
            a[np.tril_indices(n, -1)] += rng.normal(scale=1e-14, size=n * (n - 1) // 2)
            if n > 2:
                a[0, 2], a[2, 0] = -0.0, 0.0
            expected = np.linalg.cholesky(symmetrize(a))
            assert cholesky_lower(a).tobytes() == expected.tobytes()


def test_acs_keeps_its_residual():
    j = al.standard_pairing_j() @ np.diag([1.0, 1.0, 1.0, 1.0, 1.0 + 2e-13, 1.0])
    acs = al.AlmostComplexStructure(j)
    assert acs.residual == max_norm(j @ j + np.eye(6))
    assert acs.residual > 0.0
    _assert_read_only(al._IDENTITY)
    with pytest.raises(ValueError, match=r"J\^2 \+ I has max-norm"):
        al.AlmostComplexStructure(j * (1.0 + 1e-8))


@pytest.mark.parametrize("label, scale, key", [
    ("h6", 1.0 + 1e-9, "involution"),  # all three over their bounds: J^2 + I comes first
    ("h6", 1.0 + 2e-12, "involution"),  # 4e-12 over a bound of 1e-12
    ("h6", 1.0, "nijenhuis"),  # an involution not integrable on h6: N_J before J^T g J
    ("h5", 1.0, "compatibility"),  # integrable on h5, but not orthogonal for g
], ids=["involution-1e-9", "involution-2e-12", "nijenhuis", "compatibility"])
def test_make_solution_checks_in_order(label, scale, key):
    j = al.standard_pairing_j() * scale
    triple = hm.SolutionTriple(1.0, 0.0, 0.0, "J1")
    g = np.diag([1.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(InvalidForm, match=rf"^{label} J1: {key} residual "):
        hm._make_solutions(label, [triple], j[None], g)


def test_make_solution_takes_the_wrappers_involution_residual():
    j = al.standard_pairing_j() @ np.diag([1.0, 1.0, 1.0, 1.0, 1.0 + 2e-13, 1.0])
    triple = hm.SolutionTriple(1.0, 0.0, 0.0, "J1")
    (sol,) = hm._make_solutions("h5", [triple], j[None], np.eye(6))
    assert list(sol.residuals) == ["nijenhuis", "compatibility", "involution"]
    assert sol.residuals["involution"] == sol.J.residual == max_norm(j @ j + np.eye(6)) > 0.0


def _reference_value(params, spec):
    if isinstance(spec, str):
        return params[spec]
    if isinstance(spec, tuple):
        return max(params[name] for name in spec)
    return spec


@pytest.mark.parametrize("label, form", CASE_FORMS)
def test_params_and_strata_match_the_field_reading(label, form):
    params = {f.name: getattr(form, f.name) for f in fields(form)}
    assert list(form.params().items()) == list(params.items())
    on = {name for name, parameter, value, unit in form.strata
          if abs(params[parameter] - _reference_value(params, value))
          <= mo.EQ_RTOL * _reference_value(params, unit)}
    assert form.on_strata() == on
