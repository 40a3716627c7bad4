"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS line when its criterion holds (run with -s to see
them inline; under plain pytest the -v listing itself is the per-criterion
pass/fail record).
"""

import numpy as np
import pytest

from nilmoduli import algebra as al
from nilmoduli import automorphisms as au
from nilmoduli import hermitian as hm
from nilmoduli import moduli as mo
from nilmoduli.linalg import max_norm
from nilmoduli.testsupport import BOUNDARIES, random_canonical_form
from paper_reference import h5_eq42_residual, lemma_j_h6

BUILTINS = ["h2", "h4", "h5", "h6", "h9", "h9hat"]
CANONICAL = ["h6", "h4", "h5", "h2", "h9hat"]


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_structure_constants_exact_jacobi():
    for name in BUILTINS:
        assert al.jacobi_residual(al.builtin(name)) == 0.0
    report("PASS 1: jacobi_residual = 0 exactly for h2, h4, h5, h6, h9, h9hat")


def test_criterion_02_derivation_dimensions():
    expected = {"h4": 17, "h6": 19, "h9": 15, "h5": 16, "h2": 16, "h9hat": 15}
    for name, dim in expected.items():
        got = au.derivation_algebra(al.builtin(name)).dimension
        assert got == dim, (name, got)
    report("PASS 2: derivation dimensions h4=17, h6=19, h9=15, h5=16, h2=16")


def test_criterion_03_component_counts():
    expected = {"h5": 2, "h4": 4, "h6": 8, "h2": 8, "h9": 8}
    for name, count in expected.items():
        reps = au.component_representatives(name)
        assert len(reps) == count
        assert len({r.component for r in reps}) == count
        for rep in reps:
            assert au.is_automorphism(name, rep.matrix, 1e-12)
    report("PASS 3: component counts h5=2, h4=4, h6=8, h2=8, h9=8; reps exact")


def test_criterion_04_h6_integrability_dichotomy():
    h6 = al.builtin("h6")
    assert al.nijenhuis_residual(h6, lemma_j_h6()) == 0.0
    assert al.nijenhuis_residual(h6, al.standard_pairing_j()) > 0.1
    report("PASS 4: stated J on h6 integrable to machine precision; pairing J0 residual > 0.1")


def test_criterion_05_canonicalization_orbit_invariance():
    rng = np.random.default_rng(2026)
    worst_param, worst_witness = 0.0, 0.0
    for name in CANONICAL:
        for trial in range(100):
            form = random_canonical_form(name, rng)
            g = mo.pullback_metric(
                mo.realize(form), au.random_automorphism(name, 10_000 + trial)
            )
            recovered, wit = mo.canonicalize(name, g)
            err = max_norm(recovered.param_vector() - form.param_vector())
            rel = wit.residual / max(1.0, max_norm(g.matrix))
            worst_param = max(worst_param, err)
            worst_witness = max(worst_witness, rel)
            assert err <= 1e-7, (name, trial, err)
            assert rel <= 1e-8, (name, trial, rel)
    report(
        f"PASS 5: orbit invariance 100/algebra; worst param err {worst_param:.2e}, "
        f"worst witness residual {worst_witness:.2e}"
    )


ISOMETRY_CASES = [
    ("h5", mo.H5Form(0.5, 0.3, 1.0, 0.1, 2.0), "Z2 x Z2", 0, 4),
    ("h5", mo.H5Form(0.5, 0.3, 1.0, 0.0, 2.0), "Z2 x Z2 x Z2", 0, 8),
    ("h5", mo.H5Form(1.0, 0.3, 1.0, 0.1, 2.0), "Z2 x Z2", 0, 4),
    ("h5", mo.H5Form(1.0, 0.3, 1.0, 0.0, 2.0), "Z2 x Z2 x Z2", 0, 8),
    ("h5", mo.H5Form(1.0, 0.3, 1.5, 0.0, 1.5), "O(2)", 1, 2),
    ("h5", mo.H5Form(0.6, 0.6, 1.0, 0.1, 2.0), "O(2)", 1, 2),
    ("h5", mo.H5Form(0.6, 0.6, 1.0, 0.0, 2.0), "O(2) x Z2", 1, 4),
    ("h5", mo.H5Form(1.0, 1.0, 1.0, 0.1, 2.0), "SU(2) : Z2", 3, 2),
    ("h5", mo.H5Form(1.0, 1.0, 1.0, 0.0, 2.0), "(SU(2) : Z2) : Z2", 3, 4),
    ("h5", mo.H5Form(1.0, 1.0, 1.5, 0.0, 1.5), "U(2) : Z2", 4, 2),
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
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.4), "Z2 x Z2", 0, 4),
    ("h9hat", mo.H9Form(1.2, 0.8, 1.5, 0.0, 0.0, 0.0), "Z2 x Z2 x Z2", 0, 8),
]


def test_criterion_06_isometry_classification():
    for name, form, gname, dim, count in ISOMETRY_CASES:
        desc = mo.isometry_group(name, form)
        assert desc.name == gname, (name, form, desc.name)
        assert desc.continuous_dim == dim
        assert desc.component_count == count
        rep = mo.verify_isometry_group(name, form, desc)
        assert rep.passed, (name, form, rep.checks)
    report(f"PASS 6: isometry classification verified on {len(ISOMETRY_CASES)} sampled cases "
           "(orders and continuous dimensions match)")


def test_criterion_07_hermitian_tables_sweep():
    rng = np.random.default_rng(808)
    boundaries5 = (None, *BOUNDARIES["h5"])
    boundaries4 = (None, *BOUNDARIES["h4"])
    worst = {"nijenhuis": 0.0, "compatibility": 0.0, "involution": 0.0, "eq42": 0.0}
    for i in range(1000):
        form5 = random_canonical_form("h5", rng, boundary=boundaries5[i % 5])
        for branch, sset in hm.h5_hermitian_solutions(form5).items():
            for sol in sset.solutions:
                for key in ("nijenhuis", "compatibility", "involution"):
                    worst[key] = max(worst[key], sol.residuals[key])
                if branch == "J1" and form5.F > 1e-9:
                    worst["eq42"] = max(
                        worst["eq42"], abs(h5_eq42_residual(form5, sol.triple.a))
                    )
        form4 = random_canonical_form("h4", rng, boundary=boundaries4[i % 3])
        for sset in hm.h4_hermitian_solutions(form4).values():
            for sol in sset.solutions:
                for key in ("nijenhuis", "compatibility", "involution"):
                    worst[key] = max(worst[key], sol.residuals[key])
        form6 = random_canonical_form("h6", rng, boundary="ab" if i % 7 == 0 else None)
        for sol in (s for sset in hm.h6_hermitian_solutions(form6).values() for s in sset.solutions):
            for key in ("nijenhuis", "compatibility", "involution"):
                worst[key] = max(worst[key], sol.residuals[key])
    assert worst["nijenhuis"] <= 1e-9
    assert worst["compatibility"] <= 1e-11
    assert worst["involution"] <= 1e-12
    assert worst["eq42"] <= 1e-10
    report(
        "PASS 7: 1000-form sweeps (h5, h4, h6); worst residuals "
        f"N {worst['nijenhuis']:.1e}, compat {worst['compatibility']:.1e}, "
        f"J^2+I {worst['involution']:.1e}, eq42 {worst['eq42']:.1e}"
    )


def test_criterion_08_h2_propositions():
    rng = np.random.default_rng(909)
    for _ in range(20):
        a = float(rng.uniform(0.0, 0.9))
        d2 = rng.normal(size=(2, 2))
        d2 = d2 @ d2.T + 0.3 * np.eye(2)
        form = mo.H2Form(a, a, float(d2[0, 0]), float(d2[0, 1]), float(d2[1, 1]))
        sols = hm.h2_hermitian_candidates(form)["J"].solutions  # certified, or a raise
        triples = sorted((s.triple.a, s.triple.b, s.triple.c) for s in sols)
        assert triples == [(-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
        assert all(s.abelian for s in sols)
    count_checked = 0
    for _ in range(500):
        form = random_canonical_form("h2", rng)
        if abs(form.a - form.b) < 1e-6:
            continue
        assert len(hm.h2_hermitian_candidates(form)["J"].solutions) <= 2
        count_checked += 1
    report(f"PASS 8: A=B gives exactly (+-1,0,0) abelian; {count_checked} random A!=B "
           "forms each give <= 2 certified structures")


def test_criterion_09_h9_diagonal_proposition():
    rng = np.random.default_rng(607)
    for i in range(20):
        a = float(rng.uniform(0.5, 2.0))
        g = mo.Metric("h9hat", np.diag([1.0, 1.0, a * a, 1.0, a * a, 1.0]))
        res = hm.hermitian_search("h9hat", g, budget=64)
        assert res.found and res.residual <= 1e-8, (i, a, res.residual)
    best_min = np.inf
    for i in range(20):
        a = float(rng.uniform(0.5, 2.0))
        for ratio in (0.5, 2.0):
            b = ratio * a
            g = mo.Metric("h9hat", np.diag([1.0, 1.0, a * a, 1.0, b * b, 1.0]))
            res = hm.hermitian_search("h9hat", g, budget=64)
            assert not res.found, (i, a, ratio, res.residual)
            assert res.residual >= hm.NON_HERMITIAN_RESIDUAL_FLOOR
            best_min = min(best_min, res.residual)
    report(
        "PASS 9: g_AA Hermitian found 20/20 (residual <= 1e-8); g_AB none found "
        f"within budget 64 for B/A in {{0.5, 2}}, min best residual {best_min:.3f} "
        f">= calibrated floor {hm.NON_HERMITIAN_RESIDUAL_FLOOR}"
    )


def test_criterion_10_h9_special_families():
    rng = np.random.default_rng(404)
    h9h = al.builtin("h9hat")
    worst = 0.0
    for _ in range(100):
        draws = [
            hm.h9_sigma_family("sigma1", A=float(rng.uniform(0.3, 2.0)),
                               E=float(rng.uniform(-2.0, 2.0))),
            hm.h9_sigma_family("sigma2", A=float(rng.uniform(0.3, 2.0)),
                               F=float(rng.uniform(-2.0, 2.0))),
            hm.h9_sigma_family("sigma3", a11=float(rng.uniform(0.3, 2.0)),
                               a44=float(rng.uniform(0.3, 2.0)),
                               A=float(rng.uniform(0.3, 2.0))),
        ]
        for metric, _phi, j in draws:
            g = metric.matrix
            worst = max(
                worst,
                al.nijenhuis_residual(h9h, j),
                max_norm(j.matrix.T @ g @ j.matrix - g) / max(1.0, max_norm(g)),
            )
    gprime = 0
    while gprime < 100:
        a11, a44 = rng.uniform(0.5, 1.5, 2)
        a43, a63 = rng.uniform(-0.8, 0.8, 2)
        big_a = float(rng.uniform(1.0, 3.0))
        if big_a ** 2 * a11 ** 10 - a44 ** 2 * a63 ** 2 <= 0.01:
            continue
        form, phi = hm.h9_gprime_metric(float(a11), float(a43), float(a44),
                                        float(a63), big_a)
        g = mo.realize(form).matrix
        j = phi.matrix @ hm.h9_J0().matrix @ np.linalg.inv(phi.matrix)
        worst = max(
            worst,
            al.nijenhuis_residual(h9h, j),
            max_norm(j.T @ g @ j - g) / max(1.0, max_norm(g)),
        )
        gprime += 1
    assert worst <= 1e-9
    report(f"PASS 10: 100 draws per family (sigma1-3, G'); worst Hermitian residual {worst:.2e}")
