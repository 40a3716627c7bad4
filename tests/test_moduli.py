import json
import math
import re

import numpy as np
import pytest

from nilmoduli import algebra as al
from nilmoduli import automorphisms as au
from nilmoduli import hermitian as hm
from nilmoduli import moduli as mo
from nilmoduli.errors import (
    AlgebraMismatch,
    InvalidForm,
    NilmoduliError,
    NotSPD,
    Unsupported,
)
from nilmoduli.linalg import EPS, cholesky_lower, max_norm, null_space, symmetrize
from nilmoduli.testsupport import BOUNDARIES, random_canonical_form

ALGEBRAS = ["h6", "h4", "h5", "h2", "h9hat"]
IDENTITY_FORMS = {
    "h6": mo.H6Form(1, 1),
    "h4": mo.H4Form(1, 1, 0, 1),
    "h5": mo.H5Form(1, 1, 1, 0, 1),
    "h2": mo.H2Form(0, 0, 1, 0, 1),
    "h9hat": mo.H9Form(1, 1, 1, 0, 0, 0),
}


# ---------------------------------------------------------------------------
# realize


def test_realize_identity_forms():
    for name, form in IDENTITY_FORMS.items():
        np.testing.assert_array_equal(mo.realize(form).matrix, np.eye(6))


def test_realize_h9_gram_entries():
    form = mo.H9Form(A=1.2, B=0.7, C=1.5, D=0.4, E=-0.6, F=0.9)
    g = mo.realize(form).matrix
    assert g[2, 2] == pytest.approx(1.2 ** 2 + 0.4 ** 2)
    assert g[2, 4] == pytest.approx(0.7 * 0.4)  # (3,5) = B D
    assert g[3, 4] == pytest.approx(0.7 * -0.6)
    assert g[4, 5] == pytest.approx(1.5 * 0.9)


@pytest.mark.parametrize(
    "form,msg",
    [
        (mo.H6Form(2.0, 1.0), "a <= b"),
        (mo.H6Form(0.0, 1.0), "0 < a"),
        (mo.H5Form(0.5, 0.8, 1, 0, 1), "s <= r"),
        (mo.H5Form(1.2, 0.8, 1, 0, 1), "r <= 1"),
        (mo.H5Form(1.0, 0.8, 1, -0.2, 1), "F >= 0"),
        (mo.H5Form(1.0, 0.8, 1, 2, 1), "EG - F^2"),
        (mo.H4Form(0.0, 1, 0, 1), "0 < r"),
        (mo.H4Form(1.0, 1, -0.5, 1), "b >= 0"),
        (mo.H2Form(0.5, 0.2, 1, 0, 1), "a <= b"),
        (mo.H2Form(0.2, 1.1, 1, 0, 1), "b < 1"),
        (mo.H9Form(0.0, 1, 1, 0, 0, 0), "A, B, C > 0"),
        # a non-finite parameter is named before any range test can pass it
        (mo.H6Form(2.0, math.inf), "h6 parameter b must be finite, got inf"),
        (mo.H6Form(math.nan, 2.0), "h6 parameter a must be finite, got nan"),
        (mo.H5Form(0.5, 0.3, math.inf, 0.1, 2.0), "h5 parameter E must be finite, got inf"),
        (mo.H4Form(0.5, math.inf, 0.3, 0.7), "h4 parameter a must be finite, got inf"),
        (mo.H2Form(0.2, 0.6, 1.0, -math.inf, 2.0), "h2 parameter F must be finite, got -inf"),
        (mo.H9Form(1.0, 1.0, 1.0, 0.0, math.nan, 0.0),
         "h9hat parameter E must be finite, got nan"),
    ],
)
def test_realize_range_violations(form, msg):
    with pytest.raises(InvalidForm, match=None) as err:
        mo.realize(form)
    assert msg in str(err.value)
    with pytest.raises(InvalidForm) as again:
        mo.isometry_group(form.algebra, form)
    assert str(again.value) == str(err.value)


def test_form_json_round_trip():
    for name in ALGEBRAS:
        form = random_canonical_form(name, np.random.default_rng(3))
        data = json.loads(json.dumps(form.to_json_dict()))
        again = mo.form_from_dict(data)
        assert type(again) is type(form)
        np.testing.assert_allclose(again.param_vector(), form.param_vector())


def test_metric_requires_spd():
    with pytest.raises(NotSPD):
        mo.Metric("h6", np.diag([1.0, -1.0, 1, 1, 1, 1]))


@pytest.mark.parametrize(
    "matrix, msg",
    [
        (np.eye(2), "6x6"),
        (np.ones(36), "6x6"),
        (np.diag([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]), "non-finite"),
        (np.diag([1.0, 1.0, 1.0, 1.0, 1.0, np.inf]), "non-finite"),
    ],
)
def test_metric_rejects_bad_shape_and_non_finite(matrix, msg):
    with pytest.raises(InvalidForm, match=msg):
        mo.Metric("h6", matrix)


def _checked_metric_matrix(m):
    """Metric's matrix through every check: finiteness, then cholesky_lower
    (squareness, finiteness, symmetry, pivots) on the symmetrized matrix."""
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise InvalidForm("metric matrix has non-finite entries (NaN or inf)")
    m = symmetrize(m)
    cholesky_lower(m)
    return m


def _metric_case(entries=(), diag=(1.0,) * 6):
    m = np.diag(np.asarray(diag, dtype=float))
    for (i, j), v in entries:
        m[i, j] = v
    return m


# pivot test threshold of diag(96, 1, ...): 6 * eps * 96 = 576 eps, whose
# square root 24 * 2^-26 is exact, so the pivot at 1x the threshold is exact
_THRESH = 6 * EPS * 96.0

METRIC_DECISION_CASES = [
    pytest.param(_metric_case([((0, 5), np.nan)]), InvalidForm, id="nan-upper"),
    pytest.param(_metric_case([((5, 0), np.nan)]), InvalidForm, id="nan-lower"),
    pytest.param(_metric_case([((2, 2), np.inf)]), InvalidForm, id="inf-diagonal"),
    pytest.param(_metric_case([((4, 1), -np.inf)]), InvalidForm, id="minus-inf-lower"),
    pytest.param(_metric_case([((5, 4), 50.0)], diag=(1, 1, 1, 1, 2, 3)), None,
                 id="asymmetric"),
    pytest.param(_metric_case([((1, 3), 0.9)], diag=(1, 1, 1, 1, 2, 3)), None,
                 id="upper-only"),
    pytest.param(_metric_case([((3, 3), 0.5 * _THRESH)], diag=(96, 1, 1, 1, 1, 1)), NotSPD,
                 id="pivot-half-threshold"),
    pytest.param(_metric_case([((3, 3), _THRESH)], diag=(96, 1, 1, 1, 1, 1)), NotSPD,
                 id="pivot-at-threshold"),
    pytest.param(_metric_case([((3, 3), 2.0 * _THRESH)], diag=(96, 1, 1, 1, 1, 1)), None,
                 id="pivot-twice-threshold"),
    pytest.param(_metric_case([((3, 3), 0.0)]), NotSPD, id="zero-pivot"),
    pytest.param(_metric_case([((3, 3), -1.0)]), NotSPD, id="negative-pivot"),
    pytest.param(_metric_case([((1, 2), 2.0), ((2, 1), 2.0)]), NotSPD, id="lapack-fails"),
    pytest.param(_metric_case([((5, 0), -0.0), ((3, 1), -0.0)]), None, id="minus-zero-lower"),
    pytest.param(_metric_case([((0, 5), -0.0), ((1, 3), -0.0)]), None, id="minus-zero-upper"),
]


@pytest.mark.parametrize("m, outcome", METRIC_DECISION_CASES)
def test_metric_decides_like_checked_cholesky(m, outcome):
    try:
        expected = _checked_metric_matrix(m)
    except NilmoduliError as exc:
        assert type(exc) is outcome
        with pytest.raises(outcome) as got:
            mo.Metric("h6", m)
        assert type(got.value) is outcome
        assert str(got.value) == str(exc)
    else:
        assert outcome is None
        assert mo.Metric("h6", m).matrix.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# pullback


def test_pullback_identity_and_round_trip():
    g = mo.realize(mo.H5Form(0.8, 0.5, 1.2, 0.3, 2.0))
    assert max_norm(mo.pullback_metric(g, np.eye(6)).matrix - g.matrix) == 0.0
    phi = au.random_automorphism("h5", 5)
    g2 = mo.pullback_metric(g, phi)
    g3 = mo.pullback_metric(g2, np.linalg.inv(phi.matrix))
    assert max_norm(g3.matrix - g.matrix) <= 1e-12


def test_pullback_psi_flips_h5_f():
    form = mo.H5Form(0.8, 0.5, 1.2, 0.3, 2.0)
    g = mo.realize(form)
    psi = au.component_representatives("h5")[1]
    g2 = mo.pullback_metric(g, psi)
    target = g.matrix.copy()
    target[4, 5] = target[5, 4] = -0.3
    np.testing.assert_allclose(g2.matrix, target, atol=1e-15)


def test_pullback_algebra_mismatch():
    g = mo.realize(mo.H6Form(1, 2))
    phi = au.random_automorphism("h5", 1)
    with pytest.raises(AlgebraMismatch):
        mo.pullback_metric(g, phi)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_identity_metrics():
    for name, expected in IDENTITY_FORMS.items():
        form, wit = mo.canonicalize(name, mo.Metric(name, np.eye(6)))
        np.testing.assert_allclose(form.param_vector(), expected.param_vector(), atol=1e-14)
        np.testing.assert_allclose(wit.automorphism.matrix, np.eye(6), atol=1e-12)
        assert wit.residual <= 1e-12


def test_canonicalize_h6_diagonal_swap():
    form, wit = mo.canonicalize("h6", mo.Metric("h6", np.diag([1, 1, 1, 1, 3.0, 2.0])))
    assert form.a == pytest.approx(2.0)
    assert form.b == pytest.approx(3.0)


def test_canonicalize_h2_svd_example():
    g = np.eye(6)
    g[0, 2] = g[2, 0] = 0.5
    g[1, 3] = g[3, 1] = 0.2
    form, wit = mo.canonicalize("h2", mo.Metric("h2", g))
    np.testing.assert_allclose(form.param_vector(), [0.2, 0.5, 1.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("name", ALGEBRAS)
def test_idempotence(name):
    rng = np.random.default_rng(10)
    for _ in range(200):
        form = random_canonical_form(name, rng)
        again, wit = mo.canonicalize(name, mo.realize(form))
        err = max_norm(again.param_vector() - form.param_vector())
        assert err <= 1e-10
        assert wit.residual <= 1e-10


@pytest.mark.parametrize("name", ALGEBRAS)
def test_orbit_invariance(name):
    rng = np.random.default_rng(11)
    for trial in range(40):
        form = random_canonical_form(name, rng)
        g = mo.realize(form)
        phi = au.random_automorphism(name, 500 + trial)
        g2 = mo.pullback_metric(g, phi)
        recovered, wit = mo.canonicalize(name, g2)
        assert max_norm(recovered.param_vector() - form.param_vector()) <= 1e-7
        assert wit.residual <= 1e-8 * max(1.0, max_norm(g2.matrix))


@pytest.mark.parametrize(
    "name,boundary", [(name, b) for name, options in BOUNDARIES.items() for b in options])
def test_orbit_invariance_boundaries(name, boundary):
    rng = np.random.default_rng(12)
    for trial in range(15):
        form = random_canonical_form(name, rng, boundary=boundary)
        g = mo.realize(form)
        phi = au.random_automorphism(name, 900 + trial)
        recovered, wit = mo.canonicalize(name, mo.pullback_metric(g, phi))
        assert max_norm(recovered.param_vector() - form.param_vector()) <= 1e-7


@pytest.mark.parametrize("label", al.BUILTIN_IDS)
def test_every_label_canonicalizes_its_own_orbits(label):
    # a label's automorphisms act in the basis its metrics are read in, so a
    # metric pulled back by one of them canonicalizes to the form it came from
    rng = np.random.default_rng(16)
    forms = [random_canonical_form(label, rng, boundary=boundary)
             for boundary in ISOTROPY_BOUNDARIES[al.get_algebra(label).label]
             for _ in range(3)]
    if isinstance(forms[0], mo.H9Form):
        forms.append(mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.7, 0.4))
    for form in forms:
        for seed in range(6):
            g = mo.pullback_metric(mo.realize(form), au.random_automorphism(label, seed))
            recovered, _ = mo.canonicalize(label, g)
            err = max_norm(recovered.param_vector() - form.param_vector())
            assert err <= 1e-7, (form, seed, err)


@pytest.mark.parametrize("scale", [1.0, 1e4, 3.7e5])
def test_h5_orbit_near_s_equals_r(scale):
    # relative gap 1e-7 between r and s: the reduction's Takagi step factors
    # a matrix with singular values that close, where an error ~eps/gap
    # would leave the reduced 4x4 block visibly off diagonal
    form = mo.H5Form(1e-4 * (1 + 1e-7), 1e-4, 1, 0, 2)
    g = mo.realize(form)
    for k in range(6):
        g2 = scale * mo.pullback_metric(g, au.random_automorphism("h5", k)).matrix
        recovered, wit = mo.canonicalize("h5", g2)
        assert recovered.r == pytest.approx(form.r, rel=1e-9, abs=0)
        assert recovered.s == pytest.approx(form.s, rel=1e-9, abs=0)
        assert wit.residual <= 1e-8 * max_norm(g2)


# (parameter, its value on the stratum) for each case boundary
EXACT_STRATA = {
    "h5": [("r", 1.0), ("s", "r"), ("F", 0.0), ("G", "E")],
    "h6": [("b", "a")], "h4": [("r", 1.0), ("b", 0.0)],
    "h2": [("a", 0.0), ("a", "b"), ("F", 0.0), ("G", "E")],
    "h9hat": [("D", 0.0), ("E", 0.0), ("F", 0.0)],
}


def _exact_strata(name, form):
    """Which parameters equal their stratum value exactly."""
    p = form.params()
    return [p[q] == (p[v] if isinstance(v, str) else v) for q, v in EXACT_STRATA[name]]


def test_strata_survive_rescaling():
    # rescaling the metric by 4^k moves the parameters by a grading dilation,
    # exactly in binary; the canonical form must land on the same strata
    rng = np.random.default_rng(41)
    for name, boundaries in ISOTROPY_BOUNDARIES.items():
        for boundary in boundaries:
            for seed in range(4):
                form = random_canonical_form(name, rng, boundary=boundary)
                g = mo.pullback_metric(mo.realize(form), au.random_automorphism(name, seed))
                expected = _exact_strata(name, mo.canonicalize(name, g)[0])
                assert expected == _exact_strata(name, form), (name, boundary, seed)
                for k in range(-10, 11):
                    got = _exact_strata(name, mo.canonicalize(name, 4.0 ** k * g.matrix)[0])
                    assert got == expected, (name, boundary, seed, k)


def test_stratum_units_follow_small_forms():
    # the units scale with the form: a = b/2 and F = E/2 stay off their strata at any size
    assert mo.isometry_group("h6", mo.H6Form(1e-12, 2e-12)).name == "Z2 x Z2 x Z2"
    assert mo.isometry_group("h5", mo.H5Form(0.5, 0.3, 1e-10, 5e-11, 2e-10)).name == "Z2 x Z2"
    # E just off its stratum: the E flip is no generator, so the group closes at order 2
    form = mo.H9Form(1.0, 0.1, 1.0, 0.0, 1.5e-9, 0.4)
    assert mo.verify_isometry_group("h9hat", form, mo.isometry_group("h9hat", form)).passed


def test_uniqueness_two_preconditioning_paths():
    rng = np.random.default_rng(13)
    for name in ALGEBRAS:
        form = random_canonical_form(name, rng)
        g = mo.realize(form)
        f1, _ = mo.canonicalize(name, mo.pullback_metric(g, au.random_automorphism(name, 1)))
        f2, _ = mo.canonicalize(name, mo.pullback_metric(g, au.random_automorphism(name, 2)))
        assert max_norm(f1.param_vector() - f2.param_vector()) <= 1e-7


def test_canonicalize_generic_spd():
    # arbitrary SPD input: certificate holds and the map is idempotent
    rng = np.random.default_rng(14)
    for name in ALGEBRAS:
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            g = mo.Metric(name, a @ a.T + 0.5 * np.eye(6))
            form, wit = mo.canonicalize(name, g)
            form.validate()
            assert wit.residual <= 1e-8 * max(1.0, max_norm(g.matrix))
            again, _ = mo.canonicalize(name, mo.realize(form))
            assert max_norm(again.param_vector() - form.param_vector()) <= 1e-8
            assert au.is_automorphism(name, wit.automorphism.matrix, 1e-9)


@pytest.mark.parametrize("name, boundary", [
    ("h6", "ab"), ("h4", "b0"), ("h5", "r1"), ("h2", "a0"), ("h9hat", "zeros"),
])
def test_canonicalize_makes_no_2x2_lapack_determinant_or_inverse(monkeypatch, name, boundary):
    # the 2x2 determinants and triangular inverses are linalg's closed forms
    form = random_canonical_form(name, np.random.default_rng(16), boundary)
    phi = au.random_automorphism(name, 16).matrix
    g = mo.Metric(name, phi.T @ mo.realize(form).matrix @ phi)
    shapes = []
    for fname in ("det", "inv"):
        def counted(a, _f=getattr(np.linalg, fname), _name=fname):
            shapes.append((_name, np.shape(a)))
            return _f(a)
        monkeypatch.setattr(np.linalg, fname, counted)
    got, _wit = mo.canonicalize(name, g)
    assert got.on_strata()  # a boundary metric: the stratum snaps ran
    assert ("inv", (6, 6)) in shapes  # the witness: the counters see the calls
    assert [s for s in shapes if s[1][-2:] == (2, 2)] == []


def test_canonicalize_h9_via_e_basis_label():
    # "h9" is a name for h9hat
    rng = np.random.default_rng(15)
    form = random_canonical_form("h9hat", rng)
    f1, _ = mo.canonicalize("h9", mo.realize(form))
    assert max_norm(f1.param_vector() - form.param_vector()) <= 1e-9


def test_canonicalize_rejects_non_spd():
    with pytest.raises(NotSPD):
        mo.canonicalize("h6", np.diag([1.0, 1, 1, 1, 1, -2]))


RAW_BAD_METRICS = [
    pytest.param(np.diag([1.0, 1, 1, 1, np.nan, 2]), "non-finite", id="nan"),
    pytest.param(np.eye(4), "6x6", id="4x4"),
]


@pytest.mark.parametrize("g, needle", RAW_BAD_METRICS)
def test_canonicalize_checks_raw_arrays_like_metric(g, needle):
    with pytest.raises(InvalidForm, match=needle):
        mo.canonicalize("h6", g)


def test_certificate_bound_reads_the_symmetrized_metric():
    g = np.diag([1.0, 1, 1, 1, 2, 3])
    g[5, 4] = 50.0  # below the diagonal: Metric reads the upper triangle
    assert mo.certificate_bound(mo.Metric("h6", g).matrix) == 1e-8 * 3.0
    assert mo.certificate_bound(np.eye(6) * 0.25) == mo.WITNESS_RTOL


def test_canonicalize_rejects_metric_of_another_algebra():
    g = mo.Metric("h6", np.diag([1, 1, 1, 1, 2, 3.0]))
    with pytest.raises(AlgebraMismatch):
        mo.canonicalize("h5", g)
    form, _witness = mo.canonicalize("h9", mo.realize(mo.H9Form(1.0, 2.0, 1.0, 0.0, 0.0, 0.0)))
    assert form.B == pytest.approx(2.0)


def test_canonicalize_rejects_a_custom_algebra_before_comparing_tags():
    # the paper's e-basis h9 string names no built-in: its tensor is not h9hat's
    e_basis = al.PAPER_H9_SALAMON
    g = np.diag([1, 1, 1, 1, 2, 3.0])
    for tag in (e_basis, "h5"):
        with pytest.raises(Unsupported, match=re.escape(f"built-ins only, not {e_basis!r}")):
            mo.canonicalize(e_basis, mo.Metric(tag, g))
    # h6's Salamon string names h6 in h6's basis, as the algebra and as the tag
    s = "(0,0,0,0,12,13)"
    for alg, tag in ((s, s), ("h6", s), (s, "h6"), (al.get_algebra(s), s)):
        form, witness = mo.canonicalize(alg, mo.Metric(tag, g))
        assert (form.a, form.b) == (2.0, 3.0)
        assert witness.automorphism.algebra == "h6"
    for alg, tag in (("h5", s), (s, "h5")):
        with pytest.raises(AlgebraMismatch):
            mo.canonicalize(alg, mo.Metric(tag, g))


def test_isometry_group_rejects_a_form_of_another_algebra():
    with pytest.raises(AlgebraMismatch):
        mo.isometry_group("h5", mo.H9Form(1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    assert mo.isometry_group("h9", mo.H9Form(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)).component_count == 8


def test_witness_pulls_canonical_back_to_input():
    rng = np.random.default_rng(16)
    for name in ALGEBRAS:
        form = random_canonical_form(name, rng)
        g = mo.pullback_metric(mo.realize(form), au.random_automorphism(name, 77))
        f2, wit = mo.canonicalize(name, g)
        g_c = mo.realize(f2).matrix
        m = wit.automorphism.matrix
        assert max_norm(m.T @ g_c @ m - g.matrix) <= 1e-8 * max(1.0, max_norm(g.matrix))


# ---------------------------------------------------------------------------
# isometry groups


H5_ROWS = [
    (mo.H5Form(0.5, 0.3, 1.0, 0.1, 2.0), "Z2 x Z2", 0, 4),
    (mo.H5Form(0.5, 0.3, 1.0, 0.0, 2.0), "Z2 x Z2 x Z2", 0, 8),
    (mo.H5Form(1.0, 0.3, 1.0, 0.1, 2.0), "Z2 x Z2", 0, 4),
    (mo.H5Form(1.0, 0.3, 1.0, 0.0, 2.0), "Z2 x Z2 x Z2", 0, 8),
    (mo.H5Form(1.0, 0.3, 1.5, 0.0, 1.5), "O(2)", 1, 2),
    (mo.H5Form(0.6, 0.6, 1.0, 0.1, 2.0), "O(2)", 1, 2),
    (mo.H5Form(0.6, 0.6, 1.0, 0.0, 2.0), "O(2) x Z2", 1, 4),
    (mo.H5Form(1.0, 1.0, 1.0, 0.1, 2.0), "SU(2) : Z2", 3, 2),
    (mo.H5Form(1.0, 1.0, 1.0, 0.0, 2.0), "(SU(2) : Z2) : Z2", 3, 4),
    (mo.H5Form(1.0, 1.0, 1.5, 0.0, 1.5), "U(2) : Z2", 4, 2),
]


def test_h5_isometry_table():
    for form, name, dim, count in H5_ROWS:
        desc = mo.isometry_group("h5", form)
        assert desc.name == name
        assert desc.continuous_dim == dim
        assert desc.component_count == count
        assert desc.finite_order == (count if dim == 0 else float("inf"))
        report = mo.verify_isometry_group("h5", form, desc)
        assert report.passed, report.checks


OTHER_CASES = [
    ("h6", mo.H6Form(2.0, 2.0), "O(2) x Z2 x Z2", 1, 8),
    ("h6", mo.H6Form(2.0, 3.0), "Z2 x Z2 x Z2", 0, 8),
    ("h4", mo.H4Form(1.0, 1.2, 0.0, 0.7), "O(2) : Z2", 1, 4),
    ("h4", mo.H4Form(1.0, 1.2, 0.3, 0.7), "O(2)", 1, 2),
    ("h4", mo.H4Form(0.5, 1.2, 0.0, 0.7), "Z2 x Z2", 0, 4),
    ("h4", mo.H4Form(0.5, 1.2, 0.3, 0.7), "Z2", 0, 2),
    ("h2", mo.H2Form(0.0, 0.0, 1.5, 0.0, 1.5), "(O(2) x O(2)) : Z2", 2, 8),
    ("h2", mo.H2Form(0.0, 0.0, 1.0, 0.0, 2.0), "O(2) x O(2)", 2, 4),
    ("h2", mo.H2Form(0.0, 0.0, 1.5, 0.4, 1.5), "S(O(2) x O(2)) : Z2", 2, 4),
    ("h2", mo.H2Form(0.0, 0.0, 1.0, 0.4, 2.0), "S(O(2) x O(2))", 2, 2),
    ("h2", mo.H2Form(0.4, 0.4, 1.5, 0.2, 1.5), "diag(O(2) x O(2)) : Z2", 1, 4),
    ("h2", mo.H2Form(0.4, 0.4, 1.0, 0.2, 2.0), "diag(O(2) x O(2))", 1, 2),
    ("h2", mo.H2Form(0.2, 0.6, 1.5, 0.3, 1.5), "D4", 0, 8),
    ("h2", mo.H2Form(0.2, 0.6, 1.0, 0.3, 2.0), "Z2 x Z2", 0, 4),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.7, 0.4), "trivial", 0, 1),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.7, 0.4), "Z2", 0, 2),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.0, 0.4), "Z2", 0, 2),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.7, 0.0), "Z2", 0, 2),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.4), "Z2 x Z2", 0, 4),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.4, 0.0, 0.0), "Z2 x Z2", 0, 4),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.0), "Z2 x Z2 x Z2", 0, 8),
]


@pytest.mark.parametrize("name,form,gname,dim,count", OTHER_CASES)
def test_isometry_case_tables(name, form, gname, dim, count):
    desc = mo.isometry_group(name, form)
    assert desc.name == gname
    assert desc.continuous_dim == dim
    assert desc.component_count == count
    report = mo.verify_isometry_group(name, form, desc)
    assert report.passed, report.checks


def test_isotropy_dimension_direct():
    # null-space dimension independent of descriptors
    g = mo.realize(mo.H5Form(1.0, 1.0, 1.5, 0.0, 1.5)).matrix
    assert mo.isotropy_algebra_dimension("h5", g) == 4
    g = mo.realize(mo.H9Form(1.2, 0.8, 1.5, 0.3, 0.7, 0.4)).matrix
    assert mo.isotropy_algebra_dimension("h9hat", g) == 0


def _isotropy_dimension_loop(alg, g):
    """Reference: the symmetry block built term by term, dimension from null_space."""
    alg = al.get_algebra(alg)
    n = alg.dim
    sym = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sym[i, j, k, i] += g[k, j]
                sym[i, j, k, j] += g[i, k]
    system = np.vstack([au._derivation_system(alg), sym.reshape(n * n, n * n)])
    return null_space(system).shape[1]


ISOTROPY_BOUNDARIES = {name: (None, *options) for name, options in BOUNDARIES.items()}


def test_sampler_refuses_a_boundary_option_the_algebra_lacks():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="h6 has no boundary option 'F0'"):
        random_canonical_form("h6", rng, boundary="F0")
    # refused before any draw: the next form is a fresh generator's first
    fresh = random_canonical_form("h6", np.random.default_rng(3))
    assert random_canonical_form("h6", rng) == fresh


def test_isotropy_dimension_matches_loop_reference():
    rng = np.random.default_rng(31)
    cases = [("h5", mo.realize(form).matrix) for form, *_ in H5_ROWS]
    cases += [(name, mo.realize(form).matrix) for name, form, *_ in OTHER_CASES]
    for name, boundaries in ISOTROPY_BOUNDARIES.items():
        for boundary in boundaries:
            for _ in range(3):
                form = random_canonical_form(name, rng, boundary=boundary)
                cases.append((name, mo.realize(form).matrix))
    for name in al.BUILTIN_IDS:
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            cases.append((name, a @ a.T + 0.1 * np.eye(6)))
    dims = set()
    for name, g in cases:
        dim = mo.isotropy_algebra_dimension(name, g)
        assert dim == _isotropy_dimension_loop(name, g), (name, g)
        dims.add(dim)
    assert dims == {0, 1, 2, 3, 4}


def test_isometry_sampled_parameters_sweep():
    rng = np.random.default_rng(17)
    cases = [
        ("h5", dict(boundary=None)), ("h5", dict(boundary="r1")),
        ("h5", dict(boundary="sr")), ("h5", dict(boundary="sr1")),
        ("h6", dict(boundary=None)), ("h6", dict(boundary="ab")),
        ("h4", dict(boundary=None)), ("h4", dict(boundary="r1")),
        ("h2", dict(boundary=None)), ("h2", dict(boundary="ab")),
        ("h9hat", dict(boundary="zeros")),
    ]
    for name, kw in cases:
        for _ in range(5):
            form = random_canonical_form(name, rng, **kw)
            desc = mo.isometry_group(name, form)
            report = mo.verify_isometry_group(name, form, desc)
            assert report.passed, (name, kw, form, report.checks)


def test_group_descriptor_json():
    desc = mo.isometry_group("h6", mo.H6Form(2.0, 2.0))
    data = desc.to_json_dict()
    assert data["finite_order"] == "inf"
    assert data["component_count"] == 8
    assert len(data["isotropy_basis"]) == 1


# ---------------------------------------------------------------------------
# faults pinned by tests (see CHANGES.md); the xfail-strict ones are still open


@pytest.mark.xfail(raises=NotSPD, strict=True, reason=(
    "realize(H5Form(0.5, 1e-10, 1e8, 0, 2e8)) raises NotSPD: pivot 1.000e-10 at "
    "index 3 below threshold 2.665e-07 (the pivot test n*eps*max|g| rejects s below "
    "~6*eps*max(E, G))"))
def test_realize_accepts_h5_form_with_tiny_s():
    form = mo.H5Form(0.5, 1e-10, 1e8, 0.0, 2e8)
    assert np.all(np.linalg.eigvalsh(mo.realize(form).matrix) > 0.0)


@pytest.mark.xfail(raises=NotSPD, strict=True, reason=(
    "hermitian_structures(H2Form(0, 1 - 2^-52, 1, 0, 1)), a form validate() accepts, "
    "raises NotSPD: pivot 4.441e-16 at index 3 below threshold 1.332e-15 (the same "
    "normwise pivot test)"))
def test_h2_structures_at_b_one_ulp_below_one():
    form = mo.H2Form(0.0, 1.0 - 2.0 ** -52, 1.0, 0.0, 1.0).validate()
    assert hm.hermitian_structures(form)["J"].solutions


@pytest.mark.xfail(raises=AssertionError, strict=True, reason=(
    "verify_isometry_group on H9Form(1e-3, 1e-3, 1e3, 0.3, 0.7, 0.4), whose group is "
    "finite, fails continuous_dimension_matches_null_space (null-space dim 1 expected 0): "
    "the metric's entries span twelve orders of magnitude and the nullity cutoff is not "
    "an error bound"))
def test_verify_isometry_group_on_badly_scaled_h9_form():
    form = mo.H9Form(1e-3, 1e-3, 1e3, 0.3, 0.7, 0.4)
    report = mo.verify_isometry_group("h9hat", form, mo.isometry_group("h9hat", form))
    assert report.passed, report.to_json_dict()


def test_h5_f_snap_survives_rescaling():
    form = mo.H5Form(0.6, 0.6 * (1 - 1e-6), 1.0, 0.0, 2.0)
    g = mo.pullback_metric(mo.realize(form), au.random_automorphism("h5", 0)).matrix
    assert mo.canonicalize("h5", g)[0].F == 0.0
    assert mo.canonicalize("h5", 1e-8 * g)[0].F == 0.0


# an orbit metric of an h4 form on the b = 0 boundary (r = 0.1165, a = 0.8766,
# c = 4.4256), pulled back by a structured automorphism
H4_B0_ORBIT_METRIC = [
    [7.265033393241887, -0.7891994932847418, 0.29767354308934535, 2.621838573471955,
     -5.8448210513206975, -0.5788755148701825],
    [-0.7891994932847418, 1.3053586717355925, -0.2098011261155958, 0.24462583286776562,
     -0.22921229206269356, -0.017098791341940707],
    [0.29767354308934535, -0.2098011261155958, 0.5189913384988845, 1.14919546825648,
     -1.6513381667305405, -0.1473118989747511],
    [2.621838573471955, 0.24462583286776562, 1.14919546825648, 4.533387252266918,
     -7.774315178768154, -0.7258985205548096],
    [-5.8448210513206975, -0.22921229206269356, -1.6513381667305405, -7.774315178768154,
     14.788417893499064, 1.4165232775497534],
    [-0.5788755148701825, -0.017098791341940707, -0.1473118989747511, -0.7258985205548096,
     1.4165232775497534, 0.1364910233582165],
]


def test_h4_b0_orbit_lands_on_its_stratum():
    form, _witness = mo.canonicalize("h4", mo.Metric("h4", np.array(H4_B0_ORBIT_METRIC)))
    assert form.b == 0.0


# ---------------------------------------------------------------------------
# the reduction against its step-by-step reference


def _reference_apply(self, params):
    # each step through structured_automorphism, component tag and
    # Automorphism wrapper included
    f = au.structured_automorphism(self.alg, params)
    self.g = f.matrix.T @ self.g @ f.matrix
    self.g = 0.5 * (self.g + self.g.T)
    self.phi = self.phi @ f.matrix


def _canonicalize_outcome(name, g):
    try:
        form, wit = mo.canonicalize(name, g)
    except NilmoduliError as exc:
        return type(exc).__name__, str(exc)
    return repr(form), wit.automorphism.matrix.tobytes(), wit.automorphism.component, wit.residual


@pytest.mark.parametrize("name", ALGEBRAS)
def test_reduction_bytes_match_step_by_step_reference(name, monkeypatch):
    rng = np.random.default_rng(31)
    inputs = []
    for boundary in ISOTROPY_BOUNDARIES[name]:
        for seed in range(4):
            form = random_canonical_form(name, rng, boundary=boundary)
            g = mo.pullback_metric(mo.realize(form), au.random_automorphism(name, 60 + seed))
            inputs += [4.0 ** k * g.matrix for k in (-9, -3, 0, 4, 10)]
    got = [_canonicalize_outcome(name, g) for g in inputs]
    monkeypatch.setattr(mo._Reduction, "apply", _reference_apply)
    expected = [_canonicalize_outcome(name, g) for g in inputs]
    assert got == expected
