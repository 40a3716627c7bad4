import json

import numpy as np
import pytest

from nilmoduli import algebra as al
from nilmoduli import automorphisms as au
from nilmoduli import moduli as mo
from nilmoduli.errors import AlgebraMismatch, InvalidForm, NotSPD
from nilmoduli.linalg import max_norm
from nilmoduli.testsupport import random_canonical_form

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
    ],
)
def test_realize_range_violations(form, msg):
    with pytest.raises(InvalidForm, match=None) as err:
        mo.realize(form)
    assert msg.split()[0] in str(err.value)


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
    "name,boundary",
    [
        ("h5", "r1"), ("h5", "sr"), ("h5", "sr1"), ("h5", "F0"),
        ("h6", "ab"), ("h4", "r1"), ("h4", "b0"),
        ("h2", "a0"), ("h2", "ab"), ("h2", "F0"), ("h2", "EG"),
        ("h9hat", "zeros"),
    ],
)
def test_orbit_invariance_boundaries(name, boundary):
    rng = np.random.default_rng(12)
    for trial in range(15):
        form = random_canonical_form(name, rng, boundary=boundary)
        g = mo.realize(form)
        phi = au.random_automorphism(name, 900 + trial)
        recovered, wit = mo.canonicalize(name, mo.pullback_metric(g, phi))
        assert max_norm(recovered.param_vector() - form.param_vector()) <= 1e-7


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


def test_canonicalize_h9_via_e_basis_label():
    # "h9" metrics are interpreted in the hat basis, same as "h9hat"
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


def test_canonicalize_rejects_metric_of_another_algebra():
    g = mo.Metric("h6", np.diag([1, 1, 1, 1, 2, 3.0]))
    with pytest.raises(AlgebraMismatch):
        mo.canonicalize("h5", g)
    form, _witness = mo.canonicalize("h9", mo.realize(mo.H9Form(1.0, 2.0, 1.0, 0.0, 0.0, 0.0)))
    assert form.B == pytest.approx(2.0)


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
